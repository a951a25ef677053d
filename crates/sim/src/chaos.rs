//! Deterministic bursty open-loop arrival schedules for chaos soaking.
//!
//! Overload bugs hide in *transitions*: a steady open loop at 2× capacity
//! finds the shed plateau but not the oscillation that metastable systems
//! exhibit when load swings across the admission watermarks. A
//! [`ChaosSchedule`] produces arrival timestamps in phases — each phase
//! holds a rate multiplier drawn from a bursty palette for a few hundred
//! operations — so the offered load repeatedly dives below the low
//! watermark and spikes past the high one. The schedule is a pure
//! function of `(base rate, seed)`: arrivals are *data*, which is what lets
//! the parallel engine replay the identical experiment across any worker
//! count and lets a soak test bisect a failure by seed.

use crate::rng::DetRng;
use crate::time::SimTime;

/// Minimum operations per phase.
const MIN_PHASE: usize = 100;

/// Maximum operations per phase (inclusive).
const MAX_PHASE: usize = 400;

/// Rate multipliers a phase can draw (uniformly): a bursty palette
/// swinging between one-quarter and triple the base rate. Values above 1
/// are bursts, below 1 are lulls.
const MULTIPLIERS: [f64; 6] = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0];

/// The palette's mean inverse multiplier (8.5 / 6). A phase lasts its
/// operation count divided by its rate, and phase lengths are drawn
/// independently of multipliers, so the arrivals' time-averaged rate is
/// the base rate divided by this: [`ChaosSchedule::new`] multiplies the
/// requested rate by it.
const MEAN_INVERSE_MULTIPLIER: f64 = {
    let (mut sum, mut i) = (0.0, 0);
    while i < MULTIPLIERS.len() {
        sum += 1.0 / MULTIPLIERS[i];
        i += 1;
    }
    sum / MULTIPLIERS.len() as f64
};

const _: () = assert!(
    MIN_PHASE >= 1 && MIN_PHASE <= MAX_PHASE,
    "phase bounds inverted"
);

/// One burst/lull phase of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPhase {
    /// Operations issued during the phase.
    pub ops: usize,
    /// Offered rate during the phase, in operations per second.
    pub rate: f64,
}

/// A seeded generator of bursty arrival schedules.
///
/// # Examples
///
/// ```
/// use kvd_sim::ChaosSchedule;
///
/// let mut s = ChaosSchedule::new(1e6, 42);
/// let arrivals = s.arrivals(1000);
/// assert_eq!(arrivals.len(), 1000);
/// // Arrivals are sorted: they are a timeline, not a bag of samples.
/// assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Offered rate at multiplier 1.0, in operations per second.
    base_rate: f64,
    rng: DetRng,
}

impl ChaosSchedule {
    /// Creates a schedule generator whose arrivals deliver `rate`
    /// operations per second on average over time, with phases of
    /// 100–400 operations; every draw derives from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        ChaosSchedule {
            base_rate: rate * MEAN_INVERSE_MULTIPLIER,
            rng: DetRng::seed(seed),
        }
    }

    /// Draws phases until they cover `total_ops` operations; the last
    /// phase is truncated to land exactly on the total.
    pub fn phases(&mut self, total_ops: usize) -> Vec<ChaosPhase> {
        let mut out = Vec::new();
        let mut remaining = total_ops;
        while remaining > 0 {
            let span = MAX_PHASE - MIN_PHASE + 1;
            let len = (MIN_PHASE + self.rng.usize_below(span)).min(remaining);
            let mult = MULTIPLIERS[self.rng.usize_below(MULTIPLIERS.len())];
            out.push(ChaosPhase {
                ops: len,
                rate: self.base_rate * mult,
            });
            remaining -= len;
        }
        out
    }

    /// Produces `total_ops` monotone arrival timestamps starting at the
    /// epoch, spaced uniformly within each phase at the phase's rate.
    pub fn arrivals(&mut self, total_ops: usize) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(total_ops);
        let mut t_ps = 0.0f64;
        for phase in self.phases(total_ops) {
            let gap_ps = 1e12 / phase.rate;
            for _ in 0..phase.ops {
                out.push(SimTime::from_ps(t_ps as u64));
                t_ps += gap_ps;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = ChaosSchedule::new(5e5, 9);
        let mut b = ChaosSchedule::new(5e5, 9);
        assert_eq!(a.arrivals(5_000), b.arrivals(5_000));
        let mut c = ChaosSchedule::new(5e5, 10);
        assert_ne!(a.arrivals(5_000), c.arrivals(5_000));
    }

    #[test]
    fn phases_cover_exactly_the_requested_ops() {
        let mut s = ChaosSchedule::new(1e6, 3);
        let phases = s.phases(2_345);
        assert_eq!(phases.iter().map(|p| p.ops).sum::<usize>(), 2_345);
        assert!(phases.iter().all(|p| p.rate > 0.0));
    }

    #[test]
    fn arrivals_are_monotone_and_bursty() {
        let mut s = ChaosSchedule::new(1e6, 7);
        let arrivals = s.arrivals(10_000);
        assert_eq!(arrivals.len(), 10_000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Burstiness: the palette spans 12x between lull and burst, so
        // distinct inter-arrival gaps must appear.
        let mut gaps: Vec<u64> = arrivals.windows(2).map(|w| (w[1] - w[0]).as_ps()).collect();
        gaps.sort_unstable();
        gaps.dedup();
        assert!(gaps.len() >= 3, "expected bursty gaps, got {gaps:?}");
    }

    #[test]
    fn arrivals_deliver_the_requested_rate() {
        // ~4 000 phases per run; the delivered rate's spread at this
        // length is about ±4 %.
        const OPS: usize = 1_000_000;
        for seed in [1, 2, 3, 7, 11] {
            let arrivals = ChaosSchedule::new(1e6, seed).arrivals(OPS);
            let rate = OPS as f64 / arrivals.last().unwrap().as_secs_f64();
            assert!(
                (rate / 1e6 - 1.0).abs() < 0.06,
                "seed {seed}: delivered {rate} ops/s"
            );
        }
    }

    #[test]
    fn mean_rate_tracks_the_palette() {
        // Over many phases the realized mean rate sits inside the palette's
        // range (0.25x..3x the base).
        let base = 1e6;
        let mut s = ChaosSchedule::new(base, 11);
        let arrivals = s.arrivals(50_000);
        let span = arrivals.last().unwrap().as_secs_f64();
        let rate = 50_000.0 / span;
        assert!(
            rate > 0.25 * base && rate < 3.0 * base,
            "mean rate {rate} outside palette"
        );
    }
}
