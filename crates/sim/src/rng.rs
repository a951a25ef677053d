//! Seeded deterministic randomness and workload samplers.
//!
//! Everything in this workspace draws randomness through [`DetRng`], so a
//! benchmark invoked twice with the same seed produces identical traces.
//! [`DetRng`] is xoshiro256++ seeded through SplitMix64: fast, and sound
//! for simulation workloads. [`ZipfSampler`] provides the paper's
//! "long-tail" key popularity (Zipf, skewness 0.99, §5: "For skewed Zipf
//! workload, we choose skewness 0.99 and refer it as long-tail workload").
//!
//! [`ZipfSampler`] is Hörmann & Derflinger's rejection-inversion: O(1) per
//! sample for any `n`, exact for every exponent `s >= 0`; the tests
//! cross-check it against an exact inverse-CDF table.

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
    /// xoshiro256++ state.
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(mut seed: u64) -> Self {
        DetRng {
            s: std::array::from_fn(|_| splitmix64(&mut seed)),
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// component its own stream without correlating them.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        DetRng::seed(self.u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform `u64`: one xoshiro256++ step, which every other draw spends.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` by 128-bit multiply-shift; the bias is
    /// at most `bound / 2^64`. `bound` must be nonzero.
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        ((self.u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`: 53 uniform mantissa bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`, clamped to `[0, 1]`. It spends
    /// one draw whatever `p` is, so the stream does not depend on `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        let u = self.f64();
        p >= 1.0 || u < p
    }

    /// Fills `buf` with uniform bytes, one little-endian word per 8 bytes;
    /// a shorter tail spends one more word.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let word = self.u64().to_le_bytes();
            tail.copy_from_slice(&word[..tail.len()]);
        }
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
    n: u64,
    s: f64,
    /// `H(1.5) - h(1)`: upper edge of the inversion interval.
    h_x1: f64,
    /// `H(n + 0.5)`: lower edge of the inversion interval.
    h_n: f64,
    /// Threshold for the quick-accept test.
    quick: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(s.is_finite() && s >= 0.0, "Zipf requires exponent s >= 0");
        ZipfSampler {
            n,
            s,
            h_x1: h_integral(1.5, s) - 1.0,
            h_n: h_integral(n as f64 + 0.5, s),
            quick: 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s),
        }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the hottest key.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        // Rejection-inversion yields a rank k in [1, n] with P(k) ∝ k^-s.
        let k = loop {
            let u = self.h_n + rng.f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.quick || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                break k;
            }
        };
        // 0-based rank, clamped defensively against FP edge cases.
        (k as u64).clamp(1, self.n) - 1
    }
}

/// `h(x) = x^-s`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// `H(x) = (x^(1-s) - 1) / (1 - s)` computed stably near `s = 1`.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// `H^-1(y) = (1 + y(1-s))^(1/(1-s))` computed stably near `s = 1`.
fn h_integral_inverse(y: f64, s: f64) -> f64 {
    let mut t = y * (1.0 - s);
    if t < -1.0 {
        // Numerical guard: t may round slightly below the domain edge.
        t = -1.0;
    }
    (helper1(t) * y).exp()
}

/// `log(1+x)/x`, continuous at 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(exp(x)-1)/x`, continuous at 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x))
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
