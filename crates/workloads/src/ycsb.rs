//! YCSB-style request generation.

use kvd_net::KvRequest;
use kvd_sim::{DetRng, ZipfSampler};

/// Key popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Uniform over the key space.
    Uniform,
    /// Zipf with the given skewness; the paper's long-tail is 0.99.
    Zipf(f64),
}

/// Specification of a YCSB workload.
#[derive(Debug, Clone, Copy)]
pub struct YcsbSpec {
    /// Number of distinct keys.
    pub n_keys: u64,
    /// Total KV size (key + value) in bytes; keys are 8 bytes.
    pub kv_size: u64,
    /// Fraction of PUTs (the remainder are GETs).
    pub put_ratio: f64,
    /// Popularity distribution.
    pub dist: Dist,
    /// RNG seed.
    pub seed: u64,
}

impl YcsbSpec {
    /// Length of generated keys.
    pub const KEY_LEN: usize = 8;

    /// Value length implied by `kv_size`.
    pub fn value_len(&self) -> usize {
        assert!(
            self.kv_size as usize > Self::KEY_LEN,
            "kv size must exceed the 8-byte key"
        );
        self.kv_size as usize - Self::KEY_LEN
    }
}

/// A deterministic YCSB request generator.
///
/// # Examples
///
/// ```
/// use kvd_workloads::{Dist, YcsbSpec, YcsbWorkload};
///
/// let mut w = YcsbWorkload::new(YcsbSpec {
///     n_keys: 1000,
///     kv_size: 16,
///     put_ratio: 0.5,
///     dist: Dist::Zipf(0.99),
///     seed: 1,
/// });
/// let batch = w.batch(40);
/// assert_eq!(batch.len(), 40);
/// ```
pub struct YcsbWorkload {
    spec: YcsbSpec,
    rng: DetRng,
    zipf: Option<ZipfSampler>,
    /// Deterministic scramble so Zipf rank 0 is not always key 0
    /// (decorrelates popularity from insertion order and address space).
    scramble: u64,
}

impl YcsbWorkload {
    /// Creates a generator.
    pub fn new(spec: YcsbSpec) -> Self {
        assert!(spec.n_keys > 0);
        assert!((0.0..=1.0).contains(&spec.put_ratio));
        let zipf = match spec.dist {
            Dist::Uniform => None,
            Dist::Zipf(s) => Some(ZipfSampler::new(spec.n_keys, s)),
        };
        YcsbWorkload {
            rng: DetRng::seed(spec.seed),
            zipf,
            scramble: spec.seed | 1,
            spec,
        }
    }

    /// Key bytes for key id `id`.
    pub fn key(&self, id: u64) -> [u8; YcsbSpec::KEY_LEN] {
        id.to_le_bytes()
    }

    /// A deterministic value for key `id` (verifiable on GET).
    pub fn value(&self, id: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.spec.value_len()];
        let tag = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
        for (i, b) in v.iter_mut().enumerate() {
            *b = tag[i % 8] ^ (i as u8);
        }
        v
    }

    /// PUT requests inserting every key once (the paper preloads to 50 %
    /// utilization before measuring).
    pub fn preload_requests(&self) -> Vec<KvRequest> {
        (0..self.spec.n_keys)
            .map(|id| KvRequest::put(&self.key(id), &self.value(id)))
            .collect()
    }

    /// Draws the next key id according to the distribution.
    pub fn next_key_id(&mut self) -> u64 {
        let rank = match &self.zipf {
            None => self.rng.u64_below(self.spec.n_keys),
            Some(z) => z.sample(&mut self.rng),
        };
        // Scramble rank → id.
        rank.wrapping_mul(self.scramble | 1)
            .wrapping_add(self.scramble >> 3)
            % self.spec.n_keys
    }

    /// Generates the next request.
    pub fn next_request(&mut self) -> KvRequest {
        let id = self.next_key_id();
        if self.rng.chance(self.spec.put_ratio) {
            KvRequest::put(&self.key(id), &self.value(id))
        } else {
            KvRequest::get(&self.key(id))
        }
    }

    /// Generates a client-side batch (one packet's worth).
    pub fn batch(&mut self, n: usize) -> Vec<KvRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_net::OpCode;

    fn spec(dist: Dist, put: f64) -> YcsbSpec {
        YcsbSpec {
            n_keys: 10_000,
            kv_size: 16,
            put_ratio: put,
            dist,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = YcsbWorkload::new(spec(Dist::Zipf(0.99), 0.5));
        let mut b = YcsbWorkload::new(spec(Dist::Zipf(0.99), 0.5));
        assert_eq!(a.batch(100), b.batch(100));
    }

    #[test]
    fn put_ratio_respected() {
        let mut w = YcsbWorkload::new(spec(Dist::Uniform, 0.3));
        let n = 20_000;
        let puts = (0..n)
            .filter(|_| w.next_request().op == OpCode::Put)
            .count() as f64
            / n as f64;
        assert!((puts - 0.3).abs() < 0.02, "got {puts}");
    }

    #[test]
    fn zipf_concentrates_on_few_keys() {
        let mut w = YcsbWorkload::new(spec(Dist::Zipf(0.99), 0.0));
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(w.next_key_id()).or_insert(0u32) += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = freqs.iter().take(10).sum();
        assert!(
            top10 as f64 / 50_000.0 > 0.2,
            "long-tail head too light: {top10}"
        );
        // Uniform for comparison touches far more keys.
        let mut u = YcsbWorkload::new(spec(Dist::Uniform, 0.0));
        let distinct_u = (0..50_000)
            .map(|_| u.next_key_id())
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct_u > counts.len(), "zipf should touch fewer keys");
    }

    #[test]
    fn keys_in_range_and_values_sized() {
        let mut w = YcsbWorkload::new(spec(Dist::Zipf(0.99), 1.0));
        for _ in 0..1000 {
            let r = w.next_request();
            let id = u64::from_le_bytes(r.key.clone().try_into().unwrap());
            assert!(id < 10_000);
            assert_eq!(r.value.len(), 8, "16B KV − 8B key");
        }
    }

    #[test]
    fn preload_covers_every_key_once() {
        let w = YcsbWorkload::new(spec(Dist::Uniform, 0.5));
        let pre = w.preload_requests();
        assert_eq!(pre.len(), 10_000);
        let distinct: std::collections::HashSet<_> = pre.iter().map(|r| r.key.clone()).collect();
        assert_eq!(distinct.len(), 10_000);
        assert!(pre.iter().all(|r| r.op == OpCode::Put));
    }

    #[test]
    fn values_verifiable() {
        let w = YcsbWorkload::new(spec(Dist::Uniform, 0.5));
        assert_eq!(w.value(7), w.value(7));
        assert_ne!(w.value(7), w.value(8));
    }

    #[test]
    fn trace_generation() {
        let mut w = YcsbWorkload::new(spec(Dist::Zipf(0.99), 0.5));
        let t = w.batch(1000);
        assert_eq!(t.len(), 1000);
        assert!(t.iter().any(|r| r.op == OpCode::Put));
        assert!(t.iter().any(|r| r.op == OpCode::Get));
    }
}
