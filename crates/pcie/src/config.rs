//! The paper's PCIe endpoint as constants (§2.4, §4).
//!
//! The testbed is a PCIe Gen3 x8 link on an Intel Stratix V based
//! programmable NIC, attached through a bifurcated x16 connector: two x8
//! endpoints total, modelled as one [`DmaPort`](crate::DmaPort) each.
//!
//! # Examples
//!
//! ```
//! use kvd_pcie::config::{bandwidth_bound_mops, wire_bytes, READ_TAGS, TLP_OVERHEAD_BYTES};
//!
//! assert_eq!(TLP_OVERHEAD_BYTES, 26);
//! assert_eq!(READ_TAGS, 64);
//! assert_eq!(wire_bytes(64), 90);
//! // 64B accesses have a theoretical ceiling of ~87 Mops.
//! assert!((bandwidth_bound_mops(64) - 87.5).abs() < 1.0);
//! ```

use kvd_sim::{Bandwidth, SimTime};

/// Usable data bandwidth of one endpoint per direction, GB/s (paper:
/// 7.87 GB/s theoretical for Gen3 x8).
pub const ENDPOINT_GBYTES_PER_SEC: f64 = 7.87;

/// Achievable host-memory throughput of the NIC's two endpoints together,
/// GB/s (paper §2.4: 13.2 GB/s).
pub const TWO_ENDPOINT_GBYTES_PER_SEC: f64 = 13.2;

/// TLP header + padding per DMA request for 64-bit addressing (paper:
/// 26 bytes).
pub const TLP_OVERHEAD_BYTES: u64 = 26;

/// Maximum TLP payload size; larger requests are split.
pub const MAX_PAYLOAD_BYTES: u64 = 256;

/// DMA read tags supported by the FPGA DMA engine (paper: 64), limiting
/// read concurrency.
pub const READ_TAGS: u16 = 64;

/// Posted TLP header credits advertised by the root complex for DMA writes
/// (paper: 88).
pub const POSTED_HEADER_CREDITS: u32 = 88;

/// Non-posted TLP header credits for DMA reads (paper: 84).
pub const NONPOSTED_HEADER_CREDITS: u32 = 84;

/// Round-trip latency of a cached DMA read, including FPGA processing
/// delay (paper: 800 ns).
pub const CACHED_READ_LATENCY: SimTime = SimTime::from_ns(800);

/// Extra latency spread of random non-cached reads, from host DRAM access,
/// refresh and PCIe response reordering (paper: +250 ns mean; modelled as
/// uniform 0–500 ns on top of the cached latency).
pub const NONCACHED_EXTRA: SimTime = SimTime::from_ns(500);

/// Time for the root complex to absorb a posted write and return the
/// credit (much shorter than a read round trip).
pub const POSTED_CREDIT_RETURN: SimTime = SimTime::from_ns(300);

/// Mean round-trip latency of a random (non-cached) 64 B DMA read.
///
/// The paper quotes ~1050 ns (800 ns cached + 250 ns average extra);
/// used for back-of-envelope concurrency math (92 in-flight requests
/// needed to saturate the link at 64 B).
pub fn mean_random_read_latency() -> SimTime {
    CACHED_READ_LATENCY + NONCACHED_EXTRA / 2
}

/// Wire bytes for one DMA of `payload` bytes (TLP splitting included).
pub fn wire_bytes(payload: u64) -> u64 {
    let tlps = payload.div_ceil(MAX_PAYLOAD_BYTES).max(1);
    payload + tlps * TLP_OVERHEAD_BYTES
}

/// Theoretical Mops ceiling for back-to-back DMAs of `payload` bytes,
/// ignoring latency and concurrency limits (bandwidth-only bound).
pub fn bandwidth_bound_mops(payload: u64) -> f64 {
    Bandwidth::from_gbytes_per_sec(ENDPOINT_GBYTES_PER_SEC).bytes_per_sec()
        / wire_bytes(payload) as f64
        / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!(READ_TAGS, 64);
        assert_eq!(POSTED_HEADER_CREDITS, 88);
        assert_eq!(NONPOSTED_HEADER_CREDITS, 84);
        assert_eq!(CACHED_READ_LATENCY, SimTime::from_ns(800));
        // Paper: ~1050ns mean random read RTT.
        assert_eq!(mean_random_read_latency(), SimTime::from_ns(1050));
    }

    #[test]
    fn wire_bytes_includes_tlp_split() {
        assert_eq!(wire_bytes(64), 90);
        assert_eq!(wire_bytes(256), 256 + 26);
        assert_eq!(wire_bytes(257), 257 + 2 * 26);
        // Zero-byte DMA still needs a header.
        assert_eq!(wire_bytes(0), 26);
    }

    #[test]
    fn sixty_four_byte_theoretical_throughput_matches_paper() {
        // Paper §2.4: "the theoretical throughput is therefore 5.6 GB/s, or
        // 87 Mops" for 64-byte granularity.
        let mops = bandwidth_bound_mops(64);
        assert!((mops - 87.4).abs() < 1.0, "got {mops}");
        let payload_gbs = mops * 1e6 * 64.0 / 1e9;
        assert!((payload_gbs - 5.6).abs() < 0.1, "got {payload_gbs}");
    }
}
