//! Client-side shard routing.
//!
//! The paper's multi-NIC deployment partitions the key space across NICs
//! "based on the hash of keys" — clients compute the owning NIC before
//! sending, so no inter-NIC traffic exists on the data path. This module
//! holds that hash so every layer (the parallel simulation engine, the
//! server's shards) routes identically: a key always lands on the same
//! shard no matter which component asks.

/// Routes `key` to one of `shards` partitions.
///
/// FNV-1a-style mix with an avalanche finalizer, independent of the hash
/// used by the NIC-side hash table (so shard choice does not correlate
/// with bucket placement).
///
/// # Examples
///
/// ```
/// use kvd_net::shard_of;
///
/// let s = shard_of(b"user:1", 10);
/// assert!(s < 10);
/// assert_eq!(s, shard_of(b"user:1", 10), "routing is stable");
/// assert_eq!(shard_of(b"anything", 1), 0);
/// ```
///
/// # Panics
///
/// Panics if `shards == 0`.
#[inline]
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    assert!(shards > 0, "cannot route to zero shards");
    let mut h = 0xA076_1D64_78BD_642Fu64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h = (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_in_range() {
        for n in 1..=16usize {
            for i in 0..500u64 {
                let key = i.to_le_bytes();
                let s = shard_of(&key, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&key, n));
            }
        }
    }

    #[test]
    fn uniform_keys_spread_evenly() {
        let n = 10;
        let mut counts = vec![0u64; n];
        let total = 100_000u64;
        for i in 0..total {
            counts[shard_of(&i.to_le_bytes(), n)] += 1;
        }
        let expect = total as f64 / n as f64;
        for (s, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "shard {s} holds {c} of {total} (dev {dev:.3})");
        }
    }

    #[test]
    fn decorrelated_from_sequential_ids() {
        // Adjacent ids must not land on adjacent shards systematically.
        let n = 4;
        let mut same_as_prev = 0;
        for i in 1..10_000u64 {
            if shard_of(&i.to_le_bytes(), n) == shard_of(&(i - 1).to_le_bytes(), n) {
                same_as_prev += 1;
            }
        }
        let f = same_as_prev as f64 / 10_000.0;
        assert!((f - 0.25).abs() < 0.05, "adjacent-id collision rate {f}");
    }
}
