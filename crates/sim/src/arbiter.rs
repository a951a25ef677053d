//! Conservative time-quantum host-memory bandwidth arbiter.
//!
//! The paper's multi-NIC deployment (§5.2, Figure 18) puts 10 programmable
//! NICs in one server: each NIC owns a disjoint slice of host memory, but
//! they all draw from the *same* physical DRAM controllers, so aggregate
//! throughput saturates just above 1.2 Gops even though 10 × 180 Mops of
//! NIC-side capacity exists. [`HostArbiter`] reproduces that shared
//! resource in a parallel simulation: shards simulate independently within
//! a fixed lookahead window (the *quantum*), then synchronize at a barrier
//! where the arbiter charges the window's aggregate host-DRAM traffic
//! against the server's random-access capacity. A window that oversubscribed
//! the capacity is *stretched* — every shard's next issue window is pushed
//! out by the excess transfer time — so the saturation knee emerges from
//! simulated contention rather than a closed-form cap.
//!
//! The arbiter is pure accounting: it never blocks, holds no locks and
//! draws no randomness, so charging the same per-window aggregates in the
//! same window order yields bit-identical stalls no matter how many OS
//! threads simulated the shards.

use crate::time::{Bandwidth, SimTime};

/// Configuration of the host-memory arbiter.
#[derive(Debug, Clone)]
pub struct HostArbiterConfig {
    /// Aggregate random 64 B access capacity of the server's host DRAM,
    /// shared by every NIC's DMA engines.
    pub bandwidth: Bandwidth,
    /// Synchronization quantum: shards run this far ahead between
    /// barriers. Larger quanta cost fewer barriers but defer contention
    /// (traffic is charged at the window granularity); smaller quanta
    /// track the knee more closely.
    pub quantum: SimTime,
}

impl HostArbiterConfig {
    /// The paper's testbed: the host's *random* 64 B access capacity.
    ///
    /// Sequential host bandwidth is ~80 GB/s (2 sockets × 8 channels),
    /// but random 64 B DMA accesses achieve roughly 70% of that, and the
    /// paper measures the 10-NIC saturation point at 1.22 Gops. The
    /// default is calibrated so that knee emerges from simulation (see
    /// the fig18 harness); the quantum is a few network RTTs.
    pub fn paper() -> Self {
        HostArbiterConfig {
            bandwidth: Bandwidth::from_gbytes_per_sec(57.6),
            quantum: SimTime::from_us(8),
        }
    }
}

/// Rollup of the arbiter's activity over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Barriers executed.
    pub windows: u64,
    /// Windows whose aggregate traffic exceeded the quantum's capacity.
    pub oversubscribed: u64,
    /// Total host-DRAM lines (64 B) charged.
    pub lines: u64,
    /// Total stall injected across all windows.
    pub stall: SimTime,
    /// Null messages: one per window a shard sat out because it had
    /// drained or its next event lay at or beyond the horizon, counted
    /// by the parallel engine through [`HostArbiter::note_null_messages`].
    /// A run whose shards are busy over the same span of simulated time
    /// has few.
    pub null_messages: u64,
}

/// The quantum-synchronized host-memory arbiter.
///
/// # Examples
///
/// ```
/// use kvd_sim::arbiter::HostArbiter;
/// use kvd_sim::{Bandwidth, HostArbiterConfig, SimTime};
///
/// let mut arb = HostArbiter::new(HostArbiterConfig {
///     bandwidth: Bandwidth::from_gbytes_per_sec(6.4), // 100 Mlines/s
///     quantum: SimTime::from_us(10),
/// });
/// // 500 lines in 10us is 50 Mlines/s: under capacity, no stall.
/// assert_eq!(arb.charge(500), SimTime::ZERO);
/// // 2000 lines need 20us of capacity: the window stretches by 10us.
/// assert_eq!(arb.charge(2000), SimTime::from_us(10));
/// assert_eq!(arb.stats().oversubscribed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct HostArbiter {
    cfg: HostArbiterConfig,
    stats: ArbiterStats,
}

impl HostArbiter {
    /// Creates an arbiter with the given capacity and quantum.
    pub fn new(cfg: HostArbiterConfig) -> Self {
        HostArbiter {
            cfg,
            stats: ArbiterStats::default(),
        }
    }

    /// The configured quantum.
    pub fn quantum(&self) -> SimTime {
        self.cfg.quantum
    }

    /// Charges one window's aggregate host-DRAM traffic (`lines` random
    /// 64 B accesses across every shard) and returns the stall to apply
    /// to all shards: zero when the window's capacity covered the
    /// traffic, otherwise the excess transfer time.
    pub fn charge(&mut self, lines: u64) -> SimTime {
        self.stats.windows += 1;
        self.stats.lines += lines;
        let needed = self.cfg.bandwidth.transfer_time(lines * 64);
        if needed <= self.cfg.quantum {
            return SimTime::ZERO;
        }
        self.stats.oversubscribed += 1;
        let stall = needed - self.cfg.quantum;
        self.stats.stall += stall;
        stall
    }

    /// Activity counters.
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// Counts `n` null messages (see [`ArbiterStats::null_messages`]).
    pub fn note_null_messages(&mut self, n: u64) {
        self.stats.null_messages += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb(gbs: f64, quantum_us: u64) -> HostArbiter {
        HostArbiter::new(HostArbiterConfig {
            bandwidth: Bandwidth::from_gbytes_per_sec(gbs),
            quantum: SimTime::from_us(quantum_us),
        })
    }

    #[test]
    fn under_capacity_windows_run_free() {
        let mut a = arb(6.4, 10); // 100 Mlines/s, 1000 lines/window capacity
        for _ in 0..5 {
            assert_eq!(a.charge(900), SimTime::ZERO);
        }
        let s = a.stats();
        assert_eq!(s.windows, 5);
        assert_eq!(s.oversubscribed, 0);
        assert_eq!(s.stall, SimTime::ZERO);
        assert_eq!(s.lines, 4500);
    }

    #[test]
    fn oversubscription_stretches_by_excess_transfer_time() {
        let mut a = arb(6.4, 10);
        // 3000 lines need 30us; quantum covers 10us -> 20us stall.
        assert_eq!(a.charge(3000), SimTime::from_us(20));
        assert_eq!(a.stats().oversubscribed, 1);
        assert_eq!(a.stats().stall, SimTime::from_us(20));
    }

    #[test]
    fn sustained_overload_throttles_to_capacity() {
        // Shards generating 2x capacity every window must end up spending
        // 2x the quantum per window: throughput halves, which is exactly
        // the bandwidth ceiling.
        let mut a = arb(6.4, 10);
        let mut wall = SimTime::ZERO;
        let windows = 100u64;
        for _ in 0..windows {
            wall = wall + a.quantum() + a.charge(2000);
        }
        let lines_per_sec = a.stats().lines as f64 / wall.as_secs_f64();
        let capacity = 6.4e9 / 64.0;
        assert!(
            (lines_per_sec - capacity).abs() / capacity < 0.01,
            "throttled rate {lines_per_sec} vs capacity {capacity}"
        );
    }

    #[test]
    fn charge_is_deterministic_and_order_independent_per_window() {
        // The stall depends only on the aggregate, not on which threads
        // summed it: identical aggregates -> identical stalls.
        let mut a = arb(12.8, 8);
        let mut b = arb(12.8, 8);
        for lines in [0u64, 500, 10_000, 3, 99_999, 1_600] {
            assert_eq!(a.charge(lines), b.charge(lines));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn zero_traffic_windows_are_free() {
        let mut a = arb(40.0, 8);
        assert_eq!(a.charge(0), SimTime::ZERO);
        assert_eq!(a.stats().windows, 1);
    }
}
