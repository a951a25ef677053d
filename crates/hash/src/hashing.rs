//! Key hashing.
//!
//! Two independent hashes per key: the primary hash selects the bucket,
//! and 9 bits of the secondary hash are stored next to each pointer slot
//! so lookups can skip non-matching slots without fetching their KV data
//! (1/512 false-positive probability, paper §3.3.1). Chaining makes the
//! table robust to hash quality, but a uniform mixer keeps clustering
//! representative of the paper's setup.

/// Number of secondary-hash bits stored in a slot.
pub const SEC_HASH_BITS: u32 = 9;

/// Seeds of the three hash streams (bucket, slot tag, station slot).
const PRIMARY_SEED: u64 = 0x1234_5678_9ABC_DEF0;
const SECONDARY_SEED: u64 = 0x0FED_CBA9_8765_4321;
const STATION_SEED: u64 = 0x5151_5151_5151_5151;

/// FNV-1a with a 64-bit seed fold and an avalanche finisher, one chain
/// per seed in a single pass over the key: the chains are independent, so
/// their multiplies overlap instead of queueing behind one another.
#[inline]
fn hash_seeded<const N: usize>(key: &[u8], seeds: [u64; N]) -> [u64; N] {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hs = seeds.map(|seed| FNV_OFFSET ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for &b in key {
        hs = hs.map(|h| (h ^ b as u64).wrapping_mul(FNV_PRIME));
    }
    // SplitMix64 finisher for avalanche.
    hs.map(|mut h| {
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    })
}

/// Every hash the data path takes of one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHashes {
    /// The primary hash: selects the bucket.
    pub primary: u64,
    /// The secondary hash: the 9-bit slot tag stored beside pointer slots.
    pub secondary: u16,
    /// The reservation station's slot hash (a different stream again, so
    /// dependency-station collisions are independent of bucket collisions).
    pub station: u64,
}

/// Hashes `key` once for the whole operation: the three streams in one
/// pass over its bytes.
#[inline]
pub fn hash_key(key: &[u8]) -> KeyHashes {
    let [primary, secondary, station] =
        hash_seeded(key, [PRIMARY_SEED, SECONDARY_SEED, STATION_SEED]);
    KeyHashes {
        primary,
        secondary: (secondary & ((1 << SEC_HASH_BITS) - 1)) as u16,
        station,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_key(b"key"), hash_key(b"key"));
    }

    #[test]
    fn secondary_fits_nine_bits() {
        for i in 0..1000u32 {
            let k = i.to_le_bytes();
            assert!(hash_key(&k).secondary < 512);
        }
    }

    #[test]
    fn primary_and_secondary_decorrelated() {
        // Keys colliding in low primary bits should not collide in the
        // secondary hash more than chance predicts.
        let mut sec_collisions = 0;
        let base = hash_key(&0u32.to_le_bytes()).secondary;
        for i in 1..2000u32 {
            if hash_key(&i.to_le_bytes()).secondary == base {
                sec_collisions += 1;
            }
        }
        // Expected ~2000/512 ≈ 4.
        assert!(sec_collisions < 20, "got {sec_collisions}");
    }

    #[test]
    fn buckets_spread_uniformly() {
        let n_buckets = 64u64;
        let mut counts = vec![0u32; n_buckets as usize];
        let n = 64_000;
        for i in 0..n {
            counts[(hash_key(&(i as u64).to_le_bytes()).primary % n_buckets) as usize] += 1;
        }
        let expect = n / n_buckets as u32;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < expect as u64 / 2,
                "bucket {b}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn different_streams_differ() {
        let h = hash_key(b"same-key");
        assert_ne!(h.primary, h.station);
    }

    #[test]
    fn golden_triples_pin_bucket_and_slot_placement() {
        // Recorded on the three separate functions, before `hash_key`.
        let le = |i: u64| i.to_le_bytes().to_vec();
        let text = |i: u64| format!("k{i:012}").into_bytes();
        let golden = [
            (le(0), 0xd87b59fe2c795ea2, 0x00c, 0x0e133ce08d632e0d),
            (le(1), 0x970d31102d715c22, 0x172, 0xb793b966207b398c),
            (le(199_999), 0x7bdee32428c8a03d, 0x0e9, 0x1b139d24cde41e93),
            (text(0), 0x639383e6b637f971, 0x12d, 0xb0b46f983d78797d),
            (text(1), 0x540f763f4eed614d, 0x1f3, 0x4a02cd836ab925c8),
            (text(199_999), 0xda9e63791df14d74, 0x1d7, 0x250d3df4e126cfb9),
        ];
        for (key, primary, secondary, station) in golden {
            let want = KeyHashes {
                primary,
                secondary,
                station,
            };
            assert_eq!(hash_key(&key), want, "key {key:?}");
        }
    }

    /// One chain, one seed: what each stream was before `hash_key` ran
    /// the three in one loop.
    fn one_stream(key: &[u8], seed: u64) -> u64 {
        hash_seeded(key, [seed])[0]
    }

    #[test]
    fn hash_key_equals_the_three_single_stream_hashes() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut key = Vec::new();
        for len in (0..=250).chain([1, 7, 8, 9, 63, 64, 65]) {
            key.clear();
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                key.push((x >> 56) as u8);
            }
            let h = hash_key(&key);
            let secondary = one_stream(&key, SECONDARY_SEED) & ((1 << SEC_HASH_BITS) - 1);
            assert_eq!(h.primary, one_stream(&key, PRIMARY_SEED), "len {len}");
            assert_eq!(u64::from(h.secondary), secondary, "len {len}");
            assert_eq!(h.station, one_stream(&key, STATION_SEED), "len {len}");
        }
    }
}
