//! Inter-node fabric primitives for the multi-host cluster plane.
//!
//! The single-host engine scales to N NICs sharing one server's DRAM
//! (`HostArbiter`/`CreditArbiter`); this module supplies what the next
//! level up needs: a timed point-to-point **node link** with
//! configurable latency and bandwidth ([`NodeLink`]) over which
//! replication frames and heartbeats travel, and the **cluster clock**
//! ([`ClusterClock`]) — the fixed-quantum window discipline that keeps
//! inter-node delivery deterministic regardless of how many OS workers
//! drive the member hosts.
//!
//! The delivery rule is the credit arbiter's conservative-lookahead
//! discipline applied between hosts: a frame sent during window `k` is
//! never visible to its destination before window `k + 1`. Within a
//! window every node therefore depends only on state settled at the
//! window boundary, so nodes can be stepped on any number of worker
//! threads and the merged ledgers stay bit-identical (the cluster-level
//! analogue of the per-shard null-message protocol).

use crate::ledger::{ClusterCosts, CostSource, OpLedger};
use crate::resource::BandwidthLink;
use crate::time::{Bandwidth, SimTime};

/// Latency/bandwidth shape of one inter-node link.
#[derive(Debug, Clone)]
pub struct NodeLinkConfig {
    /// One-way propagation latency between two hosts.
    pub latency: SimTime,
    /// Egress serialization bandwidth of a node.
    pub bandwidth: Bandwidth,
    /// Per-frame wire overhead (Ethernet/IP/UDP headers and padding).
    pub frame_overhead: u64,
}

impl NodeLinkConfig {
    /// A datacenter rack fabric: 100 Gb/s egress, 5 µs one-way between
    /// hosts (a few switch hops), 66 B of header/padding per frame.
    pub fn rack() -> Self {
        NodeLinkConfig {
            latency: SimTime::from_us(5),
            bandwidth: Bandwidth::from_gbits_per_sec(100.0),
            frame_overhead: 66,
        }
    }
}

/// One node's egress onto the cluster fabric: serialization on a
/// bandwidth-limited line plus fixed propagation latency, with frame
/// and byte counters that land in the ledger's cluster section.
///
/// # Examples
///
/// ```
/// use kvd_sim::{NodeLink, NodeLinkConfig, SimTime};
///
/// let mut link = NodeLink::new(NodeLinkConfig::rack());
/// let arrive = link.send(SimTime::ZERO, 128);
/// assert!(arrive >= SimTime::from_us(5), "at least the propagation delay");
/// assert_eq!(link.costs().rep_frames, 1);
/// ```
#[derive(Debug)]
pub struct NodeLink {
    cfg: NodeLinkConfig,
    line: BandwidthLink,
    /// Frames sent and their payload bytes.
    costs: ClusterCosts,
}

impl NodeLink {
    /// Creates an idle link.
    pub fn new(cfg: NodeLinkConfig) -> Self {
        NodeLink {
            line: BandwidthLink::new(cfg.bandwidth),
            costs: ClusterCosts::default(),
            cfg,
        }
    }

    /// Sends a frame with `payload` bytes at `now`; returns its arrival
    /// time at the destination host.
    pub fn send(&mut self, now: SimTime, payload: u64) -> SimTime {
        let serialized = self.line.transfer(now, payload + self.cfg.frame_overhead);
        self.costs.rep_frames += 1;
        self.costs.rep_bytes += payload;
        serialized + self.cfg.latency
    }

    /// When the egress line is next free to serialize.
    pub fn free_at(&self) -> SimTime {
        self.line.free_at()
    }

    /// The link's traffic: frames sent and their payload bytes.
    pub fn costs(&self) -> ClusterCosts {
        self.costs
    }

    /// The configuration.
    pub fn config(&self) -> &NodeLinkConfig {
        &self.cfg
    }
}

impl CostSource for NodeLink {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.cluster.merge(&self.costs);
    }
}

/// The cluster's fixed-quantum window clock.
///
/// Window `k` spans `[k·q, (k+1)·q)`. The clock is pure arithmetic — it
/// exists so every layer (node stepping, frame delivery, heartbeat
/// emission, kill placement) quantizes time identically, which is what
/// the bit-determinism argument rests on.
#[derive(Debug, Clone, Copy)]
pub struct ClusterClock {
    quantum: SimTime,
}

impl ClusterClock {
    /// A clock with the given window quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: SimTime) -> Self {
        assert!(quantum > SimTime::ZERO, "cluster quantum must be positive");
        ClusterClock { quantum }
    }

    /// The window quantum.
    pub fn quantum(&self) -> SimTime {
        self.quantum
    }

    /// Start of window `k` (the issue floor for that window).
    pub fn floor(&self, k: u64) -> SimTime {
        self.quantum * k
    }

    /// End of window `k` (exclusive horizon).
    pub fn horizon(&self, k: u64) -> SimTime {
        self.quantum * (k + 1)
    }

    /// The window containing instant `t`.
    pub fn window_of(&self, t: SimTime) -> u64 {
        t.as_ps() / self.quantum.as_ps()
    }

    /// The earliest window in which a frame sent during window `k` with
    /// raw arrival time `arrival` may be delivered: never before
    /// `k + 1` (the one-window conservative lookahead), never before
    /// the arrival's own window.
    pub fn delivery_window(&self, sent_in: u64, arrival: SimTime) -> u64 {
        self.window_of(arrival).max(sent_in + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_charges_serialization_and_latency() {
        let cfg = NodeLinkConfig::rack();
        let mut link = NodeLink::new(cfg.clone());
        let a = link.send(SimTime::ZERO, 1 << 20);
        // 1 MiB at 100 Gb/s is ~84 µs of serialization plus 5 µs flight.
        assert!(a > SimTime::from_us(80), "got {}us", a.as_us());
        let b = link.send(SimTime::ZERO, 1 << 20);
        assert!(b > a, "second frame queues behind the first");
        assert_eq!(link.costs().rep_frames, 2);
        assert_eq!(link.costs().rep_bytes, 2 << 20);
    }

    #[test]
    fn link_costs_land_in_the_cluster_section() {
        let mut link = NodeLink::new(NodeLinkConfig::rack());
        link.send(SimTime::ZERO, 100);
        link.send(SimTime::ZERO, 28);
        let mut ledger = OpLedger::default();
        link.emit_costs(&mut ledger);
        assert_eq!(ledger.cluster.rep_frames, 2);
        assert_eq!(ledger.cluster.rep_bytes, 128);
    }

    #[test]
    fn clock_windows_partition_time() {
        let clk = ClusterClock::new(SimTime::from_us(2));
        assert_eq!(clk.floor(0), SimTime::ZERO);
        assert_eq!(clk.horizon(0), SimTime::from_us(2));
        assert_eq!(clk.floor(3), SimTime::from_us(6));
        assert_eq!(clk.window_of(SimTime::from_ns(1_999)), 0);
        assert_eq!(clk.window_of(SimTime::from_us(2)), 1);
    }

    #[test]
    fn delivery_never_lands_in_the_sending_window() {
        let clk = ClusterClock::new(SimTime::from_us(2));
        // Raw arrival inside the sending window: pushed to the next.
        assert_eq!(clk.delivery_window(4, SimTime::from_us(9)), 5);
        // Raw arrival far in the future: its own window wins.
        assert_eq!(clk.delivery_window(4, SimTime::from_us(40)), 20);
    }
}
