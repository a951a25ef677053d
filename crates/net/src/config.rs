//! Network configuration constants from the paper's testbed.

use kvd_sim::{Bandwidth, SimTime};

/// The 40 GbE network attached to the programmable NIC.
///
/// # Examples
///
/// ```
/// use kvd_net::NetConfig;
///
/// let net = NetConfig::forty_gbe();
/// assert_eq!(net.bandwidth.bytes_per_sec(), 5e9);
/// assert_eq!(net.packet_overhead, 88);
/// ```
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Link bandwidth (paper: 40 Gbps = 5 GB/s).
    pub bandwidth: Bandwidth,
    /// Round-trip propagation latency (paper: ~2 µs within the ToR).
    pub latency: SimTime,
    /// Header + padding per RDMA-over-Ethernet packet (paper: 88 bytes).
    pub packet_overhead: u64,
    /// Maximum payload bytes per packet (Ethernet jumbo-frame scale; the
    /// paper's FPGA packet generator batches within one packet).
    pub max_packet_payload: u64,
}

impl NetConfig {
    /// The paper's 40 GbE configuration.
    pub fn forty_gbe() -> Self {
        NetConfig {
            bandwidth: Bandwidth::from_gbits_per_sec(40.0),
            latency: SimTime::from_us(2),
            packet_overhead: 88,
            max_packet_payload: 4096,
        }
    }

    /// Wire bytes for a packet carrying `payload` bytes of KV operations.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        let packets = payload.div_ceil(self.max_packet_payload).max(1);
        payload + packets * self.packet_overhead
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::forty_gbe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Theoretical KV-operation ceiling for `op_bytes`-byte operations at
    /// batch factor `batch` (ops per packet).
    fn ops_ceiling(net: &NetConfig, op_bytes: u64, batch: u64) -> f64 {
        net.bandwidth.bytes_per_sec() / net.wire_bytes(op_bytes * batch) as f64 * batch as f64
    }

    #[test]
    fn paper_network_bound_for_64b_kvs() {
        // Paper §2.4: "with 40 Gbps network and 64-byte KV pairs, the
        // throughput ceiling is 78 Mops with client-side batching".
        let net = NetConfig::forty_gbe();
        let mops = ops_ceiling(&net, 64, 40) / 1e6;
        assert!((mops - 76.0).abs() < 4.0, "got {mops}");
    }

    #[test]
    fn unbatched_overhead_dominates_small_ops() {
        let net = NetConfig::forty_gbe();
        let unbatched = ops_ceiling(&net, 16, 1);
        let batched = ops_ceiling(&net, 16, 64);
        // Paper Figure 15a: batching buys up to ~4x for small KVs.
        assert!(batched / unbatched > 3.0, "ratio {}", batched / unbatched);
    }

    #[test]
    fn wire_bytes_splits_jumbo_payloads() {
        let net = NetConfig::forty_gbe();
        assert_eq!(net.wire_bytes(100), 188);
        assert_eq!(net.wire_bytes(4096), 4096 + 88);
        assert_eq!(net.wire_bytes(4097), 4097 + 2 * 88);
        assert_eq!(net.wire_bytes(0), 88);
    }
}
