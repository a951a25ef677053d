//! Memcache-protocol workload adapter.
//!
//! The serving front-end (`kvd-server`) speaks the memcache *text*
//! protocol, whose keys must be printable ASCII without whitespace or
//! control characters — the raw 8-byte little-endian ids the YCSB
//! presets emit are not legal on that wire. This module wraps
//! [`PresetWorkload`] and re-keys its request stream as
//! `k<16 hex digits>` so the same popularity distributions (uniform,
//! Zipf 0.99, latest) drive the TCP load generator.
//!
//! YCSB-F's read-modify-write has no memcache text verb, so F is mapped
//! to a SET of the same key — the mix ratio is preserved even though
//! the semantics collapse to an overwrite.

use kvd_net::OpCode;

use crate::presets::{PresetWorkload, YcsbPreset};
use crate::zipfhot::{ZipfHotSpec, ZipfHotWorkload};

/// Fixed length of every memcache-formatted key (`k` + 16 hex digits).
pub const MEMCACHE_KEY_LEN: usize = 17;

/// One memcache-protocol operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemOp {
    /// `get <key>`.
    Get {
        /// ASCII key.
        key: Vec<u8>,
    },
    /// `set <key> ... <len>` + data block.
    Set {
        /// ASCII key.
        key: Vec<u8>,
        /// Data block (arbitrary bytes; the protocol length-prefixes it).
        value: Vec<u8>,
    },
}

/// Formats a key id as a legal memcache key: `k` + 16 lowercase hex
/// digits (17 bytes, well under the protocol's 250-byte limit).
pub fn memcache_key(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(MEMCACHE_KEY_LEN);
    out.push(b'k');
    for shift in (0..16).rev() {
        let nibble = ((id >> (shift * 4)) & 0xF) as u8;
        out.push(char::from_digit(nibble as u32, 16).expect("nibble < 16") as u8);
    }
    out
}

/// A memcache-keyed YCSB workload: the preset's distribution with
/// ASCII keys, deterministic per seed.
///
/// # Examples
///
/// ```
/// use kvd_workloads::memcache::{MemOp, MemcacheWorkload};
/// use kvd_workloads::YcsbPreset;
///
/// let mut w = MemcacheWorkload::new(YcsbPreset::B, 1_000, 64, 7);
/// let (MemOp::Get { key } | MemOp::Set { key, .. }) = w.next_op();
/// assert!(key.starts_with(b"k"));
/// ```
pub struct MemcacheWorkload {
    inner: Gen,
    value_len: usize,
}

/// The distribution engine behind the memcache adapter: a YCSB preset
/// or the moving-hot-set Zipf sweep.
enum Gen {
    Preset(PresetWorkload),
    ZipfHot(ZipfHotWorkload),
}

impl MemcacheWorkload {
    /// Creates a generator over `population` keys with `value_len`-byte
    /// values.
    pub fn new(preset: YcsbPreset, population: u64, value_len: usize, seed: u64) -> Self {
        MemcacheWorkload {
            inner: Gen::Preset(PresetWorkload::new(preset, population, value_len, seed)),
            value_len,
        }
    }

    /// Creates a moving-hot-set Zipf generator (`kvd-load --zipf θ
    /// --hot-shift N`): skewness `theta`, hot set re-scrambled every
    /// `shift_every` requests (0 = static), 10% SETs.
    pub fn zipf_hot(
        theta: f64,
        shift_every: u64,
        population: u64,
        value_len: usize,
        seed: u64,
    ) -> Self {
        MemcacheWorkload {
            inner: Gen::ZipfHot(ZipfHotWorkload::new(ZipfHotSpec {
                n_keys: population,
                theta,
                kv_size: (value_len + ZipfHotSpec::KEY_LEN) as u64,
                put_ratio: 0.1,
                shift_every,
                seed,
            })),
            value_len,
        }
    }

    /// SETs covering the initial population, for warm-start loads.
    pub fn preload(&mut self) -> Vec<MemOp> {
        let reqs = match &mut self.inner {
            Gen::Preset(p) => p.preload(),
            Gen::ZipfHot(z) => z.preload_requests(),
        };
        reqs.into_iter()
            .map(|r| MemOp::Set {
                key: rekey(&r.key),
                value: r.value,
            })
            .collect()
    }

    /// Generates the next operation.
    pub fn next_op(&mut self) -> MemOp {
        let r = match &mut self.inner {
            Gen::Preset(p) => p.next_request(),
            Gen::ZipfHot(z) => z.next_request(),
        };
        let key = rekey(&r.key);
        match r.op {
            OpCode::Get => MemOp::Get { key },
            // PUT and (verb-less on this wire) RMW both become SET.
            _ => {
                let value = if r.op == OpCode::Put {
                    r.value
                } else {
                    vec![0xA5; self.value_len]
                };
                MemOp::Set { key, value }
            }
        }
    }
}

/// Re-keys a preset's 8-byte little-endian key as ASCII.
fn rekey(raw: &[u8]) -> Vec<u8> {
    let id = u64::from_le_bytes(raw.try_into().expect("presets emit 8-byte keys"));
    memcache_key(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(w: &mut MemcacheWorkload, n: usize) -> Vec<MemOp> {
        (0..n).map(|_| w.next_op()).collect()
    }

    fn key(op: &MemOp) -> &[u8] {
        match op {
            MemOp::Get { key } | MemOp::Set { key, .. } => key,
        }
    }

    #[test]
    fn keys_are_legal_memcache_ascii() {
        let mut w = MemcacheWorkload::new(YcsbPreset::A, 5_000, 32, 11);
        for op in batch(&mut w, 2_000) {
            let key = key(&op);
            assert_eq!(key.len(), MEMCACHE_KEY_LEN);
            assert!(
                key.iter()
                    .all(|&b| b.is_ascii_graphic() && !b.is_ascii_whitespace()),
                "illegal key byte in {key:?}"
            );
        }
    }

    #[test]
    fn zipf_hot_mode_is_legal_and_deterministic() {
        let mut a = MemcacheWorkload::zipf_hot(1.2, 500, 4_096, 32, 9);
        let mut b = MemcacheWorkload::zipf_hot(1.2, 500, 4_096, 32, 9);
        let ops = batch(&mut a, 1_200);
        assert_eq!(ops, batch(&mut b, 1_200));
        for op in &ops {
            let key = key(op);
            assert_eq!(key.len(), MEMCACHE_KEY_LEN);
            assert!(key[0] == b'k' && key[1..].iter().all(u8::is_ascii_hexdigit));
            if let MemOp::Set { value, .. } = op {
                assert_eq!(value.len(), 32);
            }
        }
    }

    #[test]
    fn key_roundtrips_through_hex() {
        for id in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let key = memcache_key(id);
            assert_eq!(key.len(), MEMCACHE_KEY_LEN);
            assert_eq!(key[0], b'k');
            let hex = std::str::from_utf8(&key[1..]).expect("ascii");
            assert_eq!(u64::from_str_radix(hex, 16), Ok(id));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = MemcacheWorkload::new(YcsbPreset::B, 1_000, 16, 3);
        let mut b = MemcacheWorkload::new(YcsbPreset::B, 1_000, 16, 3);
        assert_eq!(batch(&mut a, 300), batch(&mut b, 300));
    }

    #[test]
    fn preload_covers_population_with_sets() {
        let mut w = MemcacheWorkload::new(YcsbPreset::C, 200, 24, 5);
        let pre = w.preload();
        assert_eq!(pre.len(), 200);
        assert!(pre
            .iter()
            .all(|op| matches!(op, MemOp::Set { value, .. } if value.len() == 24)));
    }

    #[test]
    fn f_rmw_maps_to_set() {
        let mut w = MemcacheWorkload::new(YcsbPreset::F, 1_000, 16, 9);
        let sets = batch(&mut w, 4_000)
            .iter()
            .filter(|op| matches!(op, MemOp::Set { .. }))
            .count();
        // F is 50% RMW; all of it must surface as SETs here.
        assert!((sets as f64 / 4_000.0 - 0.5).abs() < 0.03, "{sets} sets");
    }
}
