//! Deterministic sampled frequency sketches for the adaptive cache plane.
//!
//! TurboKV (PAPERS.md) shows hot-key frequency tracking is cheap enough
//! to run on the data path of an accelerated KV store; this module is
//! the line-rate-friendly version of that idea for our simulated NIC:
//!
//! * [`FreqSketch`] — a count-min sketch over 64-bit items (line
//!   addresses on the memory path, key hashes on the processor path)
//!   with *seeded sampling* (only one access in `sample_period` updates
//!   the counters, drawn from a [`DetRng`] stream so parallel runs stay
//!   bit-identical) and *epoch halving* (all counters floor-halve after
//!   a fixed number of samples, so stale popularity ages out — the
//!   TinyLFU "reset" operation).
//! * [`SpaceSaving`] — the space-saving top-k heavy-hitter summary: a
//!   fixed array of `(item, count, err)` entries replaced at the
//!   minimum, giving the classic guarantee that any item with true
//!   frequency above `total/k` is tracked and every tracked count
//!   overestimates by at most its recorded error.
//!
//! Both structures allocate at construction only; `observe`/`estimate`
//! are allocation-free, preserving the workspace's zero-allocation
//! steady state when they sit on hot paths.
//!
//! Halving uses floor division, which weakly preserves ordering: for a
//! count-min estimate (a min over per-row counters) `floor(x/2)` is
//! monotone and commutes with `min`, so `est(a) <= est(b)` before a
//! halving implies it after — the property `tests/sketch_props.rs` pins.

use kvd_sim::DetRng;

/// Configuration of a [`FreqSketch`].
#[derive(Debug, Clone, Copy)]
pub struct SketchConfig {
    /// Count-min rows (independent hash functions).
    pub rows: usize,
    /// Counters per row; rounded up to a power of two.
    pub cols: usize,
    /// Only one observation in `sample_period` updates the counters
    /// (1 = every observation counts). Sampling is drawn from a seeded
    /// stream, so the same observation sequence always samples the same
    /// subset.
    pub sample_period: u64,
    /// Counted samples between epoch halvings (0 disables aging).
    pub halve_every: u64,
    /// Seed of the sampling stream.
    pub seed: u64,
}

impl SketchConfig {
    /// A small data-path profile: 4 rows x 1024 counters, 1-in-8
    /// sampling, halving every 4096 counted samples.
    pub fn data_path(seed: u64) -> Self {
        SketchConfig {
            rows: 4,
            cols: 1024,
            sample_period: 8,
            halve_every: 4096,
            seed,
        }
    }
}

/// A deterministic sampled count-min sketch over `u64` items.
///
/// # Examples
///
/// ```
/// use kvd_mem::sketch::{FreqSketch, SketchConfig};
///
/// let mut s = FreqSketch::new(SketchConfig {
///     rows: 4,
///     cols: 256,
///     sample_period: 1,
///     halve_every: 0,
///     seed: 7,
/// });
/// for _ in 0..10 {
///     s.observe(42);
/// }
/// s.observe(43);
/// assert!(s.estimate(42) >= 10); // count-min never underestimates
/// assert!(s.estimate(42) > s.estimate(43));
/// ```
#[derive(Debug, Clone)]
pub struct FreqSketch {
    counters: Vec<u32>,
    salts: Vec<u64>,
    mask: u64,
    sample_period: u64,
    halve_every: u64,
    rng: DetRng,
    samples_since_halve: u64,
}

/// SplitMix64 finalizer: the same mixer the load dispatcher hashes line
/// addresses with, salted per row.
fn mix(item: u64, salt: u64) -> u64 {
    let mut z = item.wrapping_add(salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FreqSketch {
    /// Creates a sketch; all memory is allocated here.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`, `cols == 0` or `sample_period == 0`.
    pub fn new(cfg: SketchConfig) -> Self {
        assert!(cfg.rows > 0, "sketch needs at least one row");
        assert!(cfg.cols > 0, "sketch needs at least one counter");
        assert!(cfg.sample_period > 0, "sample period must be >= 1");
        let cols = cfg.cols.next_power_of_two();
        let mut seeder = DetRng::seed(cfg.seed ^ 0x5EE7_C0DE);
        let salts = (0..cfg.rows).map(|_| seeder.u64()).collect();
        FreqSketch {
            counters: vec![0; cfg.rows * cols],
            salts,
            mask: cols as u64 - 1,
            sample_period: cfg.sample_period,
            halve_every: cfg.halve_every,
            rng: DetRng::seed(cfg.seed),
            samples_since_halve: 0,
        }
    }

    /// Feeds one observation; returns whether it was sampled into the
    /// counters. Deterministic: the same observation sequence samples
    /// the same subset for a given seed.
    pub fn observe(&mut self, item: u64) -> bool {
        if self.sample_period > 1 && self.rng.u64_below(self.sample_period) != 0 {
            return false;
        }
        let cols = self.mask + 1;
        for (row, &salt) in self.salts.iter().enumerate() {
            let idx = row as u64 * cols + (mix(item, salt) & self.mask);
            let c = &mut self.counters[idx as usize];
            *c = c.saturating_add(1);
        }
        if self.halve_every > 0 {
            self.samples_since_halve += 1;
            if self.samples_since_halve >= self.halve_every {
                self.halve();
            }
        }
        true
    }

    /// The count-min estimate: minimum over the item's row counters.
    /// Never underestimates the item's sampled count (between halvings).
    pub fn estimate(&self, item: u64) -> u32 {
        let cols = self.mask + 1;
        let mut est = u32::MAX;
        for (row, &salt) in self.salts.iter().enumerate() {
            let idx = row as u64 * cols + (mix(item, salt) & self.mask);
            est = est.min(self.counters[idx as usize]);
        }
        est
    }

    /// Floor-halves every counter (epoch aging). Weakly preserves the
    /// ordering of estimates.
    pub fn halve(&mut self) {
        for c in &mut self.counters {
            *c /= 2;
        }
        self.samples_since_halve = 0;
    }
}

/// One space-saving summary entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyHitter {
    /// The tracked item.
    pub item: u64,
    /// Its estimated count (an overestimate).
    pub count: u64,
    /// The overestimation bound: `count - err <= true count <= count`.
    pub err: u64,
}

/// The space-saving top-k heavy-hitter summary (Metwally et al.):
/// `k` slots, the minimum-count entry is displaced by unseen items and
/// inherits its count as error.
///
/// Linear-scan over a fixed array — `k` is small (paper-scale hot-key
/// defense wants tens of entries), so this stays allocation-free and
/// cache-resident.
///
/// # Examples
///
/// ```
/// use kvd_mem::sketch::SpaceSaving;
///
/// let mut ss = SpaceSaving::new(4);
/// for _ in 0..100 {
///     ss.observe(7);
/// }
/// for i in 0..10 {
///     ss.observe(100 + i);
/// }
/// let hot = ss.estimate(7).unwrap();
/// assert!(hot.count >= 100);
/// assert!(hot.count * 2 > ss.total());
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    entries: Vec<HeavyHitter>,
    total: u64,
}

impl SpaceSaving {
    /// Creates a summary with `k` slots (all memory allocated here).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "space-saving needs at least one slot");
        SpaceSaving {
            entries: Vec::with_capacity(k),
            total: 0,
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, item: u64) {
        self.total += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.item == item) {
            e.count += 1;
            return;
        }
        if self.entries.len() < self.entries.capacity() {
            self.entries.push(HeavyHitter {
                item,
                count: 1,
                err: 0,
            });
            return;
        }
        // Displace the minimum-count entry; the newcomer inherits its
        // count (the space-saving overestimate) and records it as error.
        let min = self
            .entries
            .iter_mut()
            .min_by_key(|e| e.count)
            .expect("k > 0");
        *min = HeavyHitter {
            item,
            count: min.count + 1,
            err: min.count,
        };
    }

    /// The tracked entry for `item`, if it is currently in the summary.
    pub fn estimate(&self, item: u64) -> Option<HeavyHitter> {
        self.entries.iter().find(|e| e.item == item).copied()
    }

    /// Total observations fed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The tracked entries (unordered).
    pub fn entries(&self) -> &[HeavyHitter] {
        &self.entries
    }

    /// Floor-halves every count, error and the total (epoch aging, in
    /// step with [`FreqSketch::halve`]).
    pub fn halve(&mut self) {
        for e in &mut self.entries {
            e.count /= 2;
            e.err /= 2;
        }
        self.total /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(cfg: SketchConfig) -> FreqSketch {
        FreqSketch::new(SketchConfig {
            sample_period: 1,
            halve_every: 0,
            ..cfg
        })
    }

    #[test]
    fn unsampled_sketch_never_underestimates() {
        let mut s = exact(SketchConfig::data_path(3));
        let mut truth = std::collections::HashMap::new();
        let mut rng = DetRng::seed(9);
        for _ in 0..5000 {
            let item = rng.u64_below(64);
            s.observe(item);
            *truth.entry(item).or_insert(0u32) += 1;
        }
        for (&item, &count) in &truth {
            assert!(s.estimate(item) >= count, "underestimate for {item}");
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut s = FreqSketch::new(SketchConfig {
                sample_period: 4,
                ..SketchConfig::data_path(seed)
            });
            let sampled: Vec<bool> = (0..1000).map(|i| s.observe(i % 13)).collect();
            (sampled, s.estimate(5))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds sample differently");
        let samples = run(7).0.iter().filter(|&&sampled| sampled).count();
        // 1-in-4 sampling: roughly a quarter of the stream counts.
        assert!((150..350).contains(&samples), "sampled {samples}/1000");
    }

    #[test]
    fn halving_ages_and_preserves_order() {
        let mut s = exact(SketchConfig::data_path(1));
        for _ in 0..40 {
            s.observe(1);
        }
        for _ in 0..10 {
            s.observe(2);
        }
        let (hot, cold) = (s.estimate(1), s.estimate(2));
        s.halve();
        assert_eq!(s.estimate(1), hot / 2);
        assert_eq!(s.estimate(2), cold / 2);
        assert!(s.estimate(1) > s.estimate(2));
    }

    #[test]
    fn automatic_halving_fires_on_schedule() {
        let mut s = FreqSketch::new(SketchConfig {
            rows: 2,
            cols: 64,
            sample_period: 1,
            halve_every: 100,
            seed: 0,
        });
        // Halved at the 100th and 200th sample: 100 -> 50, 50 + 100 -> 75,
        // then 50 more.
        for _ in 0..250 {
            s.observe(3);
        }
        assert_eq!(s.estimate(3), 125);
    }

    #[test]
    fn space_saving_tracks_the_heavy_hitter() {
        let mut ss = SpaceSaving::new(8);
        let mut rng = DetRng::seed(5);
        let mut hot_truth = 0u64;
        for _ in 0..10_000 {
            // ~40% of traffic on one item, the rest spread over 1000.
            let item = if rng.chance(0.4) {
                777
            } else {
                rng.u64_below(1000)
            };
            if item == 777 {
                hot_truth += 1;
            }
            ss.observe(item);
        }
        let e = ss.estimate(777).expect("heavy hitter must be tracked");
        assert!(e.count >= hot_truth, "count is an overestimate");
        assert!(e.count - e.err <= hot_truth, "error bound holds");
        assert!(e.count as f64 / ss.total() as f64 > 0.3);
    }

    #[test]
    fn space_saving_total_counts_everything() {
        let mut ss = SpaceSaving::new(2);
        for i in 0..100 {
            ss.observe(i);
        }
        assert_eq!(ss.total(), 100);
        assert_eq!(ss.entries().len(), 2);
        ss.halve();
        assert_eq!(ss.total(), 50);
    }
}
