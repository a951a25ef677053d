//! Inter-node fabric primitive for the multi-host cluster plane.
//!
//! The single-host engine scales to N NICs sharing one server's DRAM
//! (`HostArbiter`); this module supplies what the next level up needs: a
//! timed point-to-point **node link** with configurable latency and
//! bandwidth ([`NodeLink`]) over which replication frames and heartbeats
//! travel. The window discipline that keeps inter-node delivery
//! deterministic lives with the cluster engine in `kvd-core`.

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
}
