//! The paper's 40 GbE network as constants.
//!
//! # Examples
//!
//! ```
//! use kvd_net::config::{wire_bytes, GBITS_PER_SEC, PACKET_OVERHEAD_BYTES};
//!
//! assert_eq!(GBITS_PER_SEC, 40.0);
//! assert_eq!(PACKET_OVERHEAD_BYTES, 88);
//! assert_eq!(wire_bytes(100), 188);
//! ```

use kvd_sim::SimTime;

/// Link bandwidth, Gbit/s (paper: 40 Gbps = 5 GB/s).
pub const GBITS_PER_SEC: f64 = 40.0;

/// Round-trip propagation latency (paper: ~2 µs within the ToR).
pub const RTT: SimTime = SimTime::from_us(2);

/// Header + padding per RDMA-over-Ethernet packet (paper: 88 bytes).
pub const PACKET_OVERHEAD_BYTES: u64 = 88;

/// Maximum payload bytes per packet (Ethernet jumbo-frame scale; the
/// paper's FPGA packet generator batches within one packet).
pub const MAX_PACKET_PAYLOAD: u64 = 4096;

/// Wire bytes for a packet carrying `payload` bytes of KV operations.
pub fn wire_bytes(payload: u64) -> u64 {
    let packets = payload.div_ceil(MAX_PACKET_PAYLOAD).max(1);
    payload + packets * PACKET_OVERHEAD_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Theoretical KV-operation ceiling for `op_bytes`-byte operations at
    /// batch factor `batch` (ops per packet).
    fn ops_ceiling(op_bytes: u64, batch: u64) -> f64 {
        GBITS_PER_SEC * 1e9 / 8.0 / wire_bytes(op_bytes * batch) as f64 * batch as f64
    }

    #[test]
    fn paper_network_bound_for_64b_kvs() {
        // Paper §2.4: "with 40 Gbps network and 64-byte KV pairs, the
        // throughput ceiling is 78 Mops with client-side batching".
        let mops = ops_ceiling(64, 40) / 1e6;
        assert!((mops - 76.0).abs() < 4.0, "got {mops}");
    }

    #[test]
    fn unbatched_overhead_dominates_small_ops() {
        let unbatched = ops_ceiling(16, 1);
        let batched = ops_ceiling(16, 64);
        // Paper Figure 15a: batching buys up to ~4x for small KVs.
        assert!(batched / unbatched > 3.0, "ratio {}", batched / unbatched);
    }

    #[test]
    fn wire_bytes_splits_jumbo_payloads() {
        assert_eq!(wire_bytes(100), 188);
        assert_eq!(wire_bytes(4096), 4096 + 88);
        assert_eq!(wire_bytes(4097), 4097 + 2 * 88);
        assert_eq!(wire_bytes(0), 88);
    }
}
