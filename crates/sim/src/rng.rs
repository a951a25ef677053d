//! Seeded deterministic randomness and workload samplers.
//!
//! Everything in this workspace draws randomness through [`DetRng`], a
//! seeded `SmallRng`, so a benchmark invoked twice with the same seed
//! produces identical traces. [`ZipfSampler`] provides the paper's
//! "long-tail" key popularity (Zipf, skewness 0.99, §5: "For skewed Zipf
//! workload, we choose skewness 0.99 and refer it as long-tail workload").
//!
//! [`ZipfSampler`] is a rejection sampler from `rand_distr` (fast, any
//! `n`); the tests cross-check it against an exact inverse-CDF table.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Zipf};

/// A deterministic, seedable random number generator.
///
/// # Examples
///
/// ```
/// use kvd_sim::DetRng;
///
/// let mut a = DetRng::seed(7);
/// let mut b = DetRng::seed(7);
/// assert_eq!(a.u64(), b.u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// component its own stream without correlating them.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        DetRng::seed(self.u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        self.inner.random()
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        self.inner.random_range(0..bound)
    }

    /// Uniform `usize` in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.inner.random_range(0..bound)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.random()
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.random_bool(p.clamp(0.0, 1.0))
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill(buf);
    }

    /// Access to the underlying `rand` generator for `rand_distr` sampling.
    pub fn inner(&mut self) -> &mut SmallRng {
        &mut self.inner
    }
}

/// Zipf-distributed key sampler over `n` items, ranks returned in `[0, n)`.
///
/// Rank 0 is the most popular key. Skewness 0.99 reproduces the paper's
/// long-tail workload.
///
/// # Examples
///
/// ```
/// use kvd_sim::{DetRng, ZipfSampler};
///
/// let zipf = ZipfSampler::new(1_000_000, 0.99);
/// let mut rng = DetRng::seed(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    dist: Zipf<f64>,
    n: u64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        let dist = Zipf::new(n as f64, s).expect("invalid Zipf parameters");
        ZipfSampler { dist, n }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the hottest key.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let v = self.dist.sample(rng.inner());
        // rand_distr returns a value in [1, n]; convert to 0-based rank and
        // clamp defensively against FP edge cases.
        (v as u64).clamp(1, self.n) - 1
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact inverse-CDF Zipf sampler for small `n`; cross-checks `ZipfSampler`.
    ///
    /// Builds the full cumulative distribution (O(n) memory), then samples by
    /// binary search. Only suitable for `n` up to a few million.
    #[derive(Debug, Clone)]
    struct ZipfTable {
        cdf: Vec<f64>,
    }

    impl ZipfTable {
        /// Builds the CDF table for `n` items with exponent `s`.
        fn new(n: usize, s: f64) -> Self {
            assert!(n > 0, "Zipf over zero items");
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for rank in 1..=n {
                acc += 1.0 / (rank as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for v in &mut cdf {
                *v /= total;
            }
            ZipfTable { cdf }
        }

        /// Draws a rank in `[0, n)`; rank 0 is the hottest key.
        fn sample(&self, rng: &mut DetRng) -> usize {
            let u = rng.f64();
            self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
        }
    }

    #[test]
    fn det_rng_reproducible() {
        let mut a = DetRng::seed(123);
        let mut b = DetRng::seed(123);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn det_rng_forks_decorrelated() {
        let mut root = DetRng::seed(1);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        // Not a rigorous independence test; just check streams differ.
        let s1: Vec<u64> = (0..8).map(|_| c1.u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| c2.u64()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn bounds_respected() {
        let mut rng = DetRng::seed(5);
        for _ in 0..1000 {
            assert!(rng.u64_below(17) < 17);
            assert!(rng.usize_below(3) < 3);
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn zipf_ranks_in_range() {
        let zipf = ZipfSampler::new(1000, 0.99);
        let mut rng = DetRng::seed(9);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipf_head_is_hot() {
        // With s=0.99 and n=10k, the top key should take ~10% of mass.
        let zipf = ZipfSampler::new(10_000, 0.99);
        let mut rng = DetRng::seed(11);
        let trials = 100_000;
        let hot = (0..trials).filter(|_| zipf.sample(&mut rng) == 0).count() as f64 / trials as f64;
        assert!(hot > 0.05 && hot < 0.2, "hot key frequency {hot}");
    }

    #[test]
    fn zipf_table_matches_rejection_sampler() {
        // Compare empirical top-rank masses of both implementations.
        let n = 1000;
        let s = 0.99;
        let table = ZipfTable::new(n, s);
        let reject = ZipfSampler::new(n as u64, s);
        let mut rng = DetRng::seed(17);
        let trials = 200_000;
        let mut table_counts = [0u32; 8];
        let mut reject_counts = [0u32; 8];
        for _ in 0..trials {
            let r = table.sample(&mut rng);
            if r < 8 {
                table_counts[r] += 1;
            }
            let r = reject.sample(&mut rng) as usize;
            if r < 8 {
                reject_counts[r] += 1;
            }
        }
        for rank in 0..8 {
            let a = table_counts[rank] as f64 / trials as f64;
            let b = reject_counts[rank] as f64 / trials as f64;
            // The table's probability mass of `rank`.
            let expect = table.cdf[rank] - rank.checked_sub(1).map_or(0.0, |r| table.cdf[r]);
            assert!((a - expect).abs() < 0.01, "table pmf off at {rank}");
            assert!((b - expect).abs() < 0.01, "rejection pmf off at {rank}");
        }
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let zipf = ZipfSampler::new(100, 0.0);
        let mut rng = DetRng::seed(3);
        let trials = 100_000;
        let mut counts = vec![0u32; 100];
        for _ in 0..trials {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 0.01).abs() < 0.005, "not uniform: {f}");
        }
    }
}
