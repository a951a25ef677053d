//! Adversarial hot-key workload: Zipf sweeps with a moving hot set.
//!
//! The adaptive cache plane (frequency sketch, TinyLFU admission, online
//! dispatch retuning) earns its keep under skew that *changes*: a static
//! Zipf head is learned once and cached forever, but a head that jumps
//! mid-run forces the sketch to re-learn and the dispatcher to re-tune.
//! [`ZipfHotWorkload`] produces that stream: Zipf-distributed key ranks
//! at a configurable skewness (the sweep points the hot-key benchmark
//! uses are [`ZipfHotSpec::THETAS`] — 0.5, the paper's 0.99 long tail,
//! and an adversarial 1.2) mapped to key ids through a *phase-salted*
//! scramble. Every `shift_every` requests the phase advances and the
//! whole hot set moves to a fresh, deterministic region of the key
//! space — popularity ranks keep their Zipf shape, but which keys hold
//! them changes completely.

use kvd_net::KvRequest;
use kvd_sim::{DetRng, ZipfSampler};

/// Specification of a hot-key workload.
#[derive(Debug, Clone, Copy)]
pub struct ZipfHotSpec {
    /// Number of distinct keys.
    pub n_keys: u64,
    /// Zipf skewness θ (0.5 = mild, 0.99 = paper long-tail, 1.2 =
    /// adversarial).
    pub theta: f64,
    /// Total KV size (key + value) in bytes; keys are 8 bytes.
    pub kv_size: u64,
    /// Fraction of PUTs (the remainder are GETs).
    pub put_ratio: f64,
    /// Requests between hot-set shifts; `0` never shifts (plain Zipf).
    pub shift_every: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ZipfHotSpec {
    /// Length of generated keys.
    pub const KEY_LEN: usize = 8;

    /// The skewness sweep the hot-key benchmark runs: mild, the paper's
    /// long tail, and the adversarial head-heavy mix.
    pub const THETAS: [f64; 3] = [0.5, 0.99, 1.2];

    /// Value length implied by `kv_size`.
    pub fn value_len(&self) -> usize {
        assert!(
            self.kv_size as usize > Self::KEY_LEN,
            "kv size must exceed the 8-byte key"
        );
        self.kv_size as usize - Self::KEY_LEN
    }
}

/// The deterministic moving-hot-set generator.
///
/// # Examples
///
/// ```
/// use kvd_workloads::{ZipfHotSpec, ZipfHotWorkload};
///
/// let mut w = ZipfHotWorkload::new(ZipfHotSpec {
///     n_keys: 64 << 10,
///     theta: 1.2,
///     kv_size: 16,
///     put_ratio: 0.1,
///     shift_every: 16 << 10,
///     seed: 7,
/// });
/// let batch = w.batch(40);
/// assert_eq!(batch.len(), 40);
/// assert_eq!(w.phase(), 0, "no shift after 40 requests");
/// ```
pub struct ZipfHotWorkload {
    spec: ZipfHotSpec,
    rng: DetRng,
    zipf: ZipfSampler,
    /// Requests emitted so far; drives the phase.
    emitted: u64,
    /// Current hot-set phase: advances every `shift_every` requests and
    /// re-salts the rank→id scramble.
    phase: u64,
}

impl ZipfHotWorkload {
    /// Creates a generator.
    pub fn new(spec: ZipfHotSpec) -> Self {
        assert!(spec.n_keys > 0);
        assert!((0.0..=1.0).contains(&spec.put_ratio));
        assert!(
            spec.theta > 0.0,
            "theta must be positive; kvd_bench::Ycsb generates uniform traffic"
        );
        ZipfHotWorkload {
            rng: DetRng::seed(spec.seed),
            zipf: ZipfSampler::new(spec.n_keys, spec.theta),
            emitted: 0,
            phase: 0,
            spec,
        }
    }

    /// The specification.
    pub fn spec(&self) -> &ZipfHotSpec {
        &self.spec
    }

    /// The current phase (number of hot-set shifts so far).
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Phase-salted rank→id scramble: the popularity ranking keeps its
    /// Zipf shape, but the identity of the hot keys moves wholesale when
    /// the phase advances.
    fn scramble(&self, rank: u64) -> u64 {
        let salt = self
            .spec
            .seed
            .wrapping_add(self.phase.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            | 1;
        rank.wrapping_mul(salt).wrapping_add(salt >> 7) % self.spec.n_keys
    }

    /// Key bytes for key id `id`.
    pub fn key(&self, id: u64) -> [u8; ZipfHotSpec::KEY_LEN] {
        id.to_le_bytes()
    }

    /// A deterministic value for key `id` (verifiable on GET).
    pub fn value(&self, id: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.spec.value_len()];
        let tag = id.wrapping_mul(0xBF58_476D_1CE4_E5B9).to_le_bytes();
        for (i, b) in v.iter_mut().enumerate() {
            *b = tag[i % 8] ^ (i as u8);
        }
        v
    }

    /// PUT requests inserting every key once.
    pub fn preload_requests(&self) -> Vec<KvRequest> {
        (0..self.spec.n_keys)
            .map(|id| KvRequest::put(&self.key(id), &self.value(id)))
            .collect()
    }

    /// Draws the next key id, advancing the phase when due.
    pub fn next_key_id(&mut self) -> u64 {
        if self.spec.shift_every > 0
            && self.emitted > 0
            && self.emitted.is_multiple_of(self.spec.shift_every)
        {
            self.phase += 1;
        }
        self.emitted += 1;
        let rank = self.zipf.sample(&mut self.rng);
        self.scramble(rank)
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
    use std::collections::HashMap;

    fn spec(theta: f64, shift_every: u64) -> ZipfHotSpec {
        ZipfHotSpec {
            n_keys: 10_000,
            theta,
            kv_size: 16,
            put_ratio: 0.1,
            shift_every,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ZipfHotWorkload::new(spec(1.2, 1000));
        let mut b = ZipfHotWorkload::new(spec(1.2, 1000));
        assert_eq!(a.batch(3000), b.batch(3000));
        assert_eq!(a.phase(), b.phase());
        assert_eq!(a.phase(), 2);
    }

    #[test]
    fn hot_set_moves_at_the_shift_boundary() {
        let mut w = ZipfHotWorkload::new(spec(1.2, 500));
        let before = w.scramble(0);
        let mut head_before = HashMap::new();
        for _ in 0..500 {
            *head_before.entry(w.next_key_id()).or_insert(0u32) += 1;
        }
        // Next draw crosses the boundary.
        let _ = w.next_key_id();
        assert_eq!(w.phase(), 1);
        let after = w.scramble(0);
        assert_ne!(before, after, "hot set did not move");
        let mut head_after = HashMap::new();
        for _ in 0..500 {
            *head_after.entry(w.next_key_id()).or_insert(0u32) += 1;
        }
        let top =
            |m: &HashMap<u64, u32>| m.iter().max_by_key(|(_, c)| **c).map(|(k, _)| *k).unwrap();
        assert_ne!(
            top(&head_before),
            top(&head_after),
            "empirical hottest key did not move"
        );
    }

    #[test]
    fn zero_shift_every_never_shifts() {
        let mut w = ZipfHotWorkload::new(spec(0.99, 0));
        let before = w.scramble(0);
        w.batch(5000);
        assert_eq!(w.phase(), 0);
        assert_eq!(w.scramble(0), before);
    }

    #[test]
    fn higher_theta_concentrates_harder() {
        let head_share = |theta: f64| {
            let mut w = ZipfHotWorkload::new(spec(theta, 0));
            let mut counts: HashMap<u64, u32> = HashMap::new();
            for _ in 0..30_000 {
                *counts.entry(w.next_key_id()).or_insert(0) += 1;
            }
            let mut freqs: Vec<u32> = counts.values().copied().collect();
            freqs.sort_unstable_by(|a, b| b.cmp(a));
            freqs.iter().take(10).sum::<u32>() as f64 / 30_000.0
        };
        let sweep: Vec<f64> = ZipfHotSpec::THETAS.iter().map(|&t| head_share(t)).collect();
        assert!(
            sweep[0] < sweep[1] && sweep[1] < sweep[2],
            "head shares not monotone in theta: {sweep:?}"
        );
        assert!(sweep[2] > 0.5, "theta 1.2 head too light: {}", sweep[2]);
    }
}
