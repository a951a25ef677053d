//! The 40 GbE link as a timed resource.

use kvd_sim::{
    Bandwidth, BandwidthLink, CostSource, FaultPlane, NetCosts, NetFault, OpLedger, SimTime,
};

use crate::config::{wire_bytes, GBITS_PER_SEC, RTT};

/// A directional network link: serialization + propagation latency.
///
/// With a fault plane attached, packets can be dropped (the sender
/// retransmits after one round-trip timeout, so `send` still returns the
/// arrival time of the copy that made it) or reordered (the packet takes a
/// slower path and arrives late).
///
/// # Examples
///
/// ```
/// use kvd_net::NetLink;
/// use kvd_sim::{FaultPlane, SimTime};
///
/// let mut link = NetLink::with_faults(FaultPlane::disabled());
/// let arrive = link.send(SimTime::ZERO, 1000);
/// // ~1us one-way propagation + ~0.2us serialization of 1088 wire bytes.
/// assert!(arrive > SimTime::from_us(1));
/// assert!(arrive < SimTime::from_us(2));
/// ```
pub struct NetLink {
    line: BandwidthLink,
    faults: FaultPlane,
    /// Packets delivered, their payload bytes, and retransmissions; the
    /// drops and reorders behind them are the fault plane's.
    costs: NetCosts,
}

impl NetLink {
    /// Creates a link whose packets suffer drops/reorders drawn from
    /// `faults`.
    pub fn with_faults(faults: FaultPlane) -> Self {
        NetLink {
            line: BandwidthLink::new(Bandwidth::from_gbits_per_sec(GBITS_PER_SEC)),
            faults,
            costs: NetCosts::default(),
        }
    }

    /// Sends a packet with `payload` bytes at `now`; returns its arrival
    /// time at the far end (one-way: half the round-trip latency).
    ///
    /// A dropped packet still burns serialization bandwidth; the sender
    /// notices after one RTT (its retransmission timeout) and sends again,
    /// so the returned arrival time is that of the first surviving copy.
    /// A reordered packet arrives late by up to half the propagation
    /// delay, modelling a slower switch path.
    pub fn send(&mut self, now: SimTime, payload: u64) -> SimTime {
        let wire = wire_bytes(payload);
        let mut at = now;
        loop {
            let serialized = self.line.transfer(at, wire);
            match self.faults.net_fault() {
                NetFault::Drop => {
                    // Lost in the fabric: retransmit one RTT after the
                    // send hit the wire.
                    self.costs.retransmits += 1;
                    at = serialized + RTT;
                }
                fault @ (NetFault::None | NetFault::Reorder) => {
                    self.costs.packets += 1;
                    self.costs.payload_bytes += payload;
                    let mut arrival = serialized + RTT / 2;
                    if fault == NetFault::Reorder {
                        arrival += RTT / 4;
                    }
                    return arrival;
                }
            }
        }
    }

    /// When the link is next free to serialize.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.line.free_at()
    }
}

impl CostSource for NetLink {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.net.merge(&self.costs);
        self.faults.emit_costs(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::FaultRates;

    fn clean() -> NetLink {
        NetLink::with_faults(FaultPlane::disabled())
    }

    #[test]
    fn serialization_queues_packets() {
        let mut link = clean();
        let a = link.send(SimTime::ZERO, 4096);
        let b = link.send(SimTime::ZERO, 4096);
        assert!(b > a, "second packet queues behind the first");
        let net = OpLedger::of(&link).net;
        assert_eq!(net.packets, 2);
        assert_eq!(net.payload_bytes, 8192);
    }

    #[test]
    fn latency_dominates_small_packets() {
        let mut link = clean();
        let arrive = link.send(SimTime::ZERO, 64);
        let lat = arrive.as_us();
        assert!((1.0..1.1).contains(&lat), "got {lat}us");
    }

    #[test]
    fn disabled_fault_plane_is_bit_identical_to_plain_link() {
        let mut link = clean();
        let mut at = SimTime::ZERO;
        for i in 0..200u64 {
            let t = SimTime::from_ns(313 * i);
            let wire = wire_bytes(64 + i);
            at = at.max(t) + Bandwidth::from_gbits_per_sec(GBITS_PER_SEC).transfer_time(wire);
            assert_eq!(link.send(t, 64 + i), at + RTT / 2);
        }
        let ledger = OpLedger::of(&link);
        assert_eq!(ledger.net.packets, 200);
        assert_eq!(ledger.net.retransmits, 0);
        assert_eq!(ledger.total_faults(), 0);
    }

    #[test]
    fn drops_force_retransmission_after_rto() {
        let rates = FaultRates {
            net_drop: 0.5,
            ..FaultRates::ZERO
        };
        let mut link = NetLink::with_faults(FaultPlane::new(rates, 3));
        let mut total_retx = 0u64;
        for i in 0..200u64 {
            let t = SimTime::from_us(10 * i);
            let arrive = link.send(t, 64);
            assert!(arrive > t, "arrival precedes send");
            total_retx = OpLedger::of(&link).net.retransmits;
        }
        assert!(total_retx > 50, "p=0.5 must retransmit often: {total_retx}");
        let net = OpLedger::of(&link).net;
        assert_eq!(net.drops, total_retx);
        assert_eq!(net.packets, 200, "every packet eventually arrives");
    }

    #[test]
    fn dropped_copy_delays_delivery_by_rtt() {
        let rates = FaultRates {
            net_drop: 0.5,
            ..FaultRates::ZERO
        };
        // Find a seed position where the first draw drops: with p=0.5 and
        // seed 1 the schedule is fixed; assert against a clean link.
        let mut faulty = NetLink::with_faults(FaultPlane::new(rates, 1));
        let mut clean = clean();
        let mut saw_delay = false;
        for i in 0..50u64 {
            let t = SimTime::from_us(100 * i);
            let a = faulty.send(t, 64);
            let b = clean.send(t, 64);
            if a > b {
                // The delay is at least one RTT per dropped copy.
                assert!(a - b >= RTT);
                saw_delay = true;
            }
        }
        assert!(saw_delay, "seeded schedule should include drops");
    }

    #[test]
    fn reordered_packets_arrive_late_but_all_arrive() {
        let rates = FaultRates {
            net_reorder: 1.0,
            ..FaultRates::ZERO
        };
        let mut faulty = NetLink::with_faults(FaultPlane::new(rates, 3));
        let mut clean = clean();
        let t = SimTime::ZERO;
        let a = faulty.send(t, 64);
        let b = clean.send(t, 64);
        assert_eq!(a - b, RTT / 4);
        let net = OpLedger::of(&faulty).net;
        assert_eq!(net.reorders, 1);
        assert_eq!(net.retransmits, 0, "reorder is not a loss");
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        let rates = FaultRates {
            net_drop: 0.2,
            net_reorder: 0.2,
            ..FaultRates::ZERO
        };
        let run = |seed: u64| {
            let mut link = NetLink::with_faults(FaultPlane::new(rates, seed));
            let mut arrivals = Vec::new();
            for i in 0..300u64 {
                arrivals.push(link.send(SimTime::from_us(5 * i), 128));
            }
            (arrivals, OpLedger::of(&link).net)
        };
        assert_eq!(run(9), run(9));
        let (_, c9) = run(9);
        let (_, c10) = run(10);
        assert!(c9.drops + c9.reorders > 0);
        assert_eq!(c9.retransmits, c9.drops);
        assert_ne!(c9, c10, "different seeds, different schedules");
    }
}
