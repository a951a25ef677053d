//! Inter-node fabric primitive for the multi-host cluster plane.
//!
//! The single-host engine scales to N NICs sharing one server's DRAM
//! (`HostArbiter`); this module supplies what the next level up needs: a
//! timed point-to-point **node link** with a rack fabric's latency and
//! bandwidth ([`NodeLink`]) over which replication frames and heartbeats
//! travel. The window discipline that keeps inter-node delivery
//! deterministic lives with the cluster engine in `kvd-core`.

use crate::ledger::{ClusterCosts, CostSource, OpLedger};
use crate::resource::BandwidthLink;
use crate::time::{Bandwidth, SimTime};

/// One-way propagation latency between two hosts of a rack (a few switch
/// hops).
const LATENCY: SimTime = SimTime::from_us(5);

/// Egress serialization bandwidth of a node, in Gb/s.
const GBITS_PER_SEC: f64 = 100.0;

/// Per-frame wire overhead (Ethernet/IP/UDP headers and padding).
const FRAME_OVERHEAD: u64 = 66;

/// One node's egress onto a datacenter rack fabric: serialization on a
/// bandwidth-limited line plus fixed propagation latency, with frame
/// and byte counters that land in the ledger's cluster section.
///
/// # Examples
///
/// ```
/// use kvd_sim::{NodeLink, OpLedger, SimTime};
///
/// let mut link = NodeLink::default();
/// let arrive = link.send(SimTime::ZERO, 128);
/// assert!(arrive >= SimTime::from_us(5), "at least the propagation delay");
/// assert_eq!(OpLedger::of(&link).cluster.rep_frames, 1);
/// ```
#[derive(Debug)]
pub struct NodeLink {
    line: BandwidthLink,
    /// Frames sent and their payload bytes.
    costs: ClusterCosts,
}

impl Default for NodeLink {
    /// An idle link.
    fn default() -> Self {
        NodeLink {
            line: BandwidthLink::new(Bandwidth::from_gbits_per_sec(GBITS_PER_SEC)),
            costs: ClusterCosts::default(),
        }
    }
}

impl NodeLink {
    /// Sends a frame with `payload` bytes at `now`; returns its arrival
    /// time at the destination host.
    pub fn send(&mut self, now: SimTime, payload: u64) -> SimTime {
        let serialized = self.line.transfer(now, payload + FRAME_OVERHEAD);
        self.costs.rep_frames += 1;
        self.costs.rep_bytes += payload;
        serialized + LATENCY
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
        let mut link = NodeLink::default();
        let a = link.send(SimTime::ZERO, 1 << 20);
        // 1 MiB at 100 Gb/s is ~84 µs of serialization plus 5 µs flight.
        assert!(a > SimTime::from_us(80), "got {}us", a.as_us());
        let b = link.send(SimTime::ZERO, 1 << 20);
        assert!(b > a, "second frame queues behind the first");
        assert_eq!(OpLedger::of(&link).cluster.rep_frames, 2);
        assert_eq!(OpLedger::of(&link).cluster.rep_bytes, 2 << 20);
    }

    #[test]
    fn link_costs_land_in_the_cluster_section() {
        let mut link = NodeLink::default();
        link.send(SimTime::ZERO, 100);
        link.send(SimTime::ZERO, 28);
        let ledger = OpLedger::of(&link);
        assert_eq!(ledger.cluster.rep_frames, 2);
        assert_eq!(ledger.cluster.rep_bytes, 128);
    }
}
