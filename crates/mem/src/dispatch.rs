//! Load dispatch between PCIe (host memory) and NIC DRAM.
//!
//! §3.3.4 of the paper: NIC DRAM is too small to shoulder a fixed share of
//! the corpus and too slow to serve as a cache for *all* of host memory, so
//! KV-Direct caches a fixed hash-selected fraction `l` ("load dispatch
//! ratio") of host memory. The hash is over the 64 B line address so that a
//! hash-index bucket and a slab-allocated object are equally likely to be
//! cacheable.
//!
//! The balance equation the paper solves for `l` (loads proportional to
//! device throughputs):
//!
//! ```text
//!            l                     tput_DRAM
//! ─────────────────────────  =  ─────────────
//! (1 − l) + l·(1 − h(l))         tput_PCIe
//! ```
//!
//! with cache hit probability `h(l) = k/l` under uniform workload and
//! `h(l) = log(k·n)/log(l·n)` under the long-tail (Zipf) workload, where
//! `k` is the NIC:host memory size ratio and `n` the number of KVs.

/// Configuration for the [`LoadDispatcher`].
#[derive(Debug, Clone, Copy)]
pub struct DispatchConfig {
    /// The load dispatch ratio `l`: fraction of host memory (by line hash)
    /// that is cacheable in NIC DRAM. 0 disables the NIC DRAM entirely;
    /// 1 makes everything cacheable (pure cache mode, which the paper
    /// rejects because DRAM throughput is lower than two PCIe links).
    pub ratio: f64,
}

impl DispatchConfig {
    /// A dispatcher with the given ratio.
    pub fn new(ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0,1]");
        DispatchConfig { ratio }
    }
}

/// Splits line addresses into cacheable and non-cacheable sets by hash.
///
/// # Examples
///
/// ```
/// use kvd_mem::{DispatchConfig, LoadDispatcher};
///
/// let d = LoadDispatcher::new(DispatchConfig::new(0.5));
/// let cacheable = (0..10_000u64).filter(|&l| d.is_cacheable(l)).count();
/// // Roughly half the lines are cacheable.
/// assert!((4_500..5_500).contains(&cacheable));
/// ```
#[derive(Debug, Clone)]
pub struct LoadDispatcher {
    cfg: DispatchConfig,
    threshold: u64,
}

impl LoadDispatcher {
    /// Creates a dispatcher.
    pub fn new(cfg: DispatchConfig) -> Self {
        let threshold = if cfg.ratio >= 1.0 {
            u64::MAX
        } else {
            (cfg.ratio * u64::MAX as f64) as u64
        };
        LoadDispatcher { cfg, threshold }
    }

    /// The configured ratio `l`.
    pub fn ratio(&self) -> f64 {
        self.cfg.ratio
    }

    /// The hash threshold below which a line is cacheable.
    pub fn threshold(&self) -> u64 {
        if self.cfg.ratio == 0.0 {
            0
        } else {
            self.threshold
        }
    }

    /// Moves the dispatch ratio to `ratio`, recomputing the hash
    /// threshold — the adaptive plane's online retune step. Which lines
    /// change cacheability is exactly the hash band between the old and
    /// new thresholds (see [`hash_line`]), so the caller can sweep the
    /// affected lines without a full flush.
    pub fn set_ratio(&mut self, ratio: f64) {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0,1]");
        self.cfg.ratio = ratio;
        self.threshold = if ratio >= 1.0 {
            u64::MAX
        } else {
            (ratio * u64::MAX as f64) as u64
        };
    }

    /// Whether 64 B line `line` belongs to the cacheable portion.
    #[inline]
    pub fn is_cacheable(&self, line: u64) -> bool {
        if self.cfg.ratio == 0.0 {
            return false;
        }
        hash_line(line) <= self.threshold
    }
}

/// A fixed 64-bit mixer (SplitMix64 finalizer); uniform enough that any
/// address-space region is cacheable in proportion `l`, which is the
/// paper's requirement for the hash. Public so the adaptive plane can
/// identify the migration band when the threshold moves.
#[inline]
pub fn hash_line(line: u64) -> u64 {
    let mut z = line.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cache hit probability under the **long-tail** (Zipf) workload:
/// `h(l) = log(k·n)/log(l·n)` for `k ≤ l` (paper §3.3.4). The paper notes
/// this reaches ~0.7 with a 1M-line cache over a 1G-line corpus.
pub fn hit_rate_zipf(k: f64, l: f64, n: f64) -> f64 {
    if l <= 0.0 || k <= 0.0 {
        return 0.0;
    }
    if k >= l {
        return 1.0;
    }
    let num = (k * n).ln();
    let den = (l * n).ln();
    if den <= 0.0 {
        1.0
    } else {
        (num / den).clamp(0.0, 1.0)
    }
}

/// Load imbalance of a candidate ratio: `DRAM load / PCIe load` minus the
/// device throughput ratio; zero means balanced.
fn balance_error(l: f64, h: f64, tput_dram: f64, tput_pcie: f64) -> f64 {
    let pcie_load = (1.0 - l) + l * (1.0 - h);
    let dram_load = l;
    dram_load * tput_pcie - pcie_load * tput_dram
}

/// Solves the balance equation under the long-tail workload with `n` KVs.
pub fn optimal_ratio_zipf(k: f64, n: f64, tput_dram: f64, tput_pcie: f64) -> f64 {
    solve(|l| balance_error(l, hit_rate_zipf(k, l, n), tput_dram, tput_pcie))
}

/// Solves the balance equation with a **measured** hit rate `h` in place
/// of the analytic `h(l)` models — the adaptive retune step. With `h`
/// independent of `l` the equation is linear and closes to
/// `l* = tput_dram / (tput_pcie + h·tput_dram)`.
pub fn optimal_ratio_measured(h: f64, tput_dram: f64, tput_pcie: f64) -> f64 {
    let h = h.clamp(0.0, 1.0);
    (tput_dram / (tput_pcie + h * tput_dram)).clamp(0.0, 1.0)
}

/// Bisection on `[0, 1]`; the balance error is monotone in `l` (DRAM load
/// grows, PCIe load shrinks).
fn solve(err: impl Fn(f64) -> f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..64 {
        let mid = (lo + hi) / 2.0;
        if err(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_zero_never_cacheable() {
        let d = LoadDispatcher::new(DispatchConfig::new(0.0));
        assert!((0..1000).all(|l| !d.is_cacheable(l)));
    }

    #[test]
    fn ratio_one_always_cacheable() {
        let d = LoadDispatcher::new(DispatchConfig::new(1.0));
        assert!((0..1000).all(|l| d.is_cacheable(l)));
    }

    #[test]
    fn cacheable_fraction_tracks_ratio() {
        for ratio in [0.25, 0.5, 0.75] {
            let d = LoadDispatcher::new(DispatchConfig::new(ratio));
            let n = 100_000u64;
            let c = (0..n).filter(|&l| d.is_cacheable(l)).count() as f64 / n as f64;
            assert!((c - ratio).abs() < 0.01, "ratio {ratio}: got {c}");
        }
    }

    #[test]
    fn dispatch_is_deterministic() {
        let a = LoadDispatcher::new(DispatchConfig::new(0.5));
        let b = LoadDispatcher::new(DispatchConfig::new(0.5));
        assert!((0..1000).all(|l| a.is_cacheable(l) == b.is_cacheable(l)));
    }

    #[test]
    #[should_panic(expected = "ratio must be in [0,1]")]
    fn rejects_bad_ratio() {
        DispatchConfig::new(1.5);
    }

    #[test]
    fn zipf_hit_rate_matches_paper_example() {
        // Paper: "the cache hit probability is as high as 0.7 with 1M
        // cache in 1G corpus" (k·n = 1M lines, l·n ≈ n = 1G lines).
        let n = 1e9;
        let k = 1e6 / n;
        let h = hit_rate_zipf(k, 1.0, n);
        assert!((h - 0.667).abs() < 0.05, "got {h}");
    }

    #[test]
    fn zipf_hit_rate_exceeds_uniform() {
        let k = 1.0 / 16.0;
        let n = 1e8;
        for l in [0.3, 0.5, 0.8] {
            // Uniform access hits h = k/l (paper §3.3.4).
            assert!(hit_rate_zipf(k, l, n) > k / l);
        }
    }

    #[test]
    fn optimal_ratio_balances_loads() {
        // Paper devices: DRAM 12.8 GB/s vs 2x PCIe ~13.2 GB/s.
        let k = 1.0 / 16.0;
        let l = optimal_ratio_zipf(k, 1e8, 12.8, 13.2);
        assert!((0.0..=1.0).contains(&l));
        let h = hit_rate_zipf(k, l, 1e8);
        let err = balance_error(l, h, 12.8, 13.2);
        assert!(err.abs() < 1e-3, "unbalanced: {err}");
        // Paper §5.2 uses ~0.5-0.6 load dispatch ratios; sanity-check range.
        assert!(l > 0.3 && l < 0.8, "got {l}");
    }

    #[test]
    fn set_ratio_matches_fresh_dispatcher() {
        let mut d = LoadDispatcher::new(DispatchConfig::new(0.25));
        d.set_ratio(0.6);
        let fresh = LoadDispatcher::new(DispatchConfig::new(0.6));
        assert_eq!(d.threshold(), fresh.threshold());
        assert!((0..10_000).all(|l| d.is_cacheable(l) == fresh.is_cacheable(l)));
    }

    #[test]
    fn measured_optimum_agrees_with_balance_equation() {
        for h in [0.0, 0.3, 0.7, 1.0] {
            let l = optimal_ratio_measured(h, 12.8, 13.2);
            assert!(balance_error(l, h, 12.8, 13.2).abs() < 1e-9, "h={h}");
        }
        // Higher hit rate offloads PCIe: optimum shrinks monotonically.
        assert!(optimal_ratio_measured(0.9, 12.8, 13.2) < optimal_ratio_measured(0.1, 12.8, 13.2));
    }

    #[test]
    fn threshold_moves_only_the_band() {
        let lo = LoadDispatcher::new(DispatchConfig::new(0.4));
        let hi = LoadDispatcher::new(DispatchConfig::new(0.6));
        for line in 0..10_000u64 {
            let h = hash_line(line);
            let in_band = h > lo.threshold() && h <= hi.threshold();
            assert_eq!(
                lo.is_cacheable(line) != hi.is_cacheable(line),
                in_band,
                "line {line}"
            );
        }
    }

    #[test]
    fn optimal_ratio_uniform_degenerates_to_bandwidth_split() {
        // Under uniform access the cache barely hits (h = k/l), so the
        // optimum approaches a pure bandwidth-proportional partition:
        // l* ≈ tput_dram·(1−k)/tput_pcie.
        let k = 1.0 / 16.0;
        let u = solve(|l| balance_error(l, (k / l).min(1.0), 12.8, 13.2));
        let expected = 12.8 * (1.0 - k) / 13.2;
        assert!((u - expected).abs() < 0.02, "got {u}, expected {expected}");
        // Under Zipf, hits offload PCIe so much that a smaller cacheable
        // fraction already balances the devices.
        let z = optimal_ratio_zipf(k, 1e8, 12.8, 13.2);
        assert!(z < u, "zipf {z} should be below uniform {u}");
        assert!(z > 0.3 && z < 0.8, "zipf optimum {z} out of range");
    }
}
