//! PCIe endpoint configuration with the paper's measured constants.

use kvd_sim::{Bandwidth, SimTime};

/// Configuration of one PCIe endpoint as measured in the paper (§2.4, §4).
///
/// The defaults describe the testbed: a PCIe Gen3 x8 link on an Intel
/// Stratix V based programmable NIC, attached through a bifurcated x16
/// connector (two x8 endpoints total; model one `DmaPort` per endpoint).
///
/// # Examples
///
/// ```
/// use kvd_pcie::PcieConfig;
///
/// let cfg = PcieConfig::gen3_x8();
/// assert_eq!(cfg.tlp_overhead_bytes, 26);
/// assert_eq!(cfg.read_tags, 64);
/// // 64B accesses have a theoretical ceiling of ~87 Mops.
/// let mops = cfg.bandwidth.bytes_per_sec() / (64.0 + 26.0) / 1e6;
/// assert!((mops - 87.5).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PcieConfig {
    /// Usable data bandwidth per direction (paper: 7.87 GB/s theoretical
    /// for a Gen3 x8 endpoint).
    pub bandwidth: Bandwidth,
    /// TLP header + padding per DMA request for 64-bit addressing
    /// (paper: 26 bytes).
    pub tlp_overhead_bytes: u64,
    /// Maximum TLP payload size; larger requests are split.
    pub max_payload_bytes: u64,
    /// DMA read tags supported by the FPGA DMA engine (paper: 64),
    /// limiting read concurrency.
    pub read_tags: u16,
    /// Posted TLP header credits advertised by the root complex for DMA
    /// writes (paper: 88).
    pub posted_header_credits: u32,
    /// Non-posted TLP header credits for DMA reads (paper: 84).
    pub nonposted_header_credits: u32,
    /// Round-trip latency of a cached DMA read, including FPGA processing
    /// delay (paper: 800 ns).
    pub cached_read_latency: SimTime,
    /// Extra latency spread of random non-cached reads, from host DRAM
    /// access, refresh and PCIe response reordering (paper: +250 ns mean;
    /// modelled as uniform 0–500 ns on top of the cached latency).
    pub noncached_extra: SimTime,
    /// Time for the root complex to absorb a posted write and return the
    /// credit (much shorter than a read round trip).
    pub posted_credit_return: SimTime,
}

impl PcieConfig {
    /// The paper's PCIe Gen3 x8 endpoint.
    pub fn gen3_x8() -> Self {
        PcieConfig {
            bandwidth: Bandwidth::from_gbytes_per_sec(7.87),
            tlp_overhead_bytes: 26,
            max_payload_bytes: 256,
            read_tags: 64,
            posted_header_credits: 88,
            nonposted_header_credits: 84,
            cached_read_latency: SimTime::from_ns(800),
            noncached_extra: SimTime::from_ns(500),
            posted_credit_return: SimTime::from_ns(300),
        }
    }

    /// Mean round-trip latency of a random (non-cached) 64 B DMA read.
    ///
    /// The paper quotes ~1050 ns (800 ns cached + 250 ns average extra);
    /// used for back-of-envelope concurrency math (92 in-flight requests
    /// needed to saturate the link at 64 B).
    pub fn mean_random_read_latency(&self) -> SimTime {
        self.cached_read_latency + self.noncached_extra / 2
    }

    /// Wire bytes for one DMA of `payload` bytes (TLP splitting included).
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        let tlps = payload.div_ceil(self.max_payload_bytes).max(1);
        payload + tlps * self.tlp_overhead_bytes
    }

    /// Theoretical Mops ceiling for back-to-back DMAs of `payload` bytes,
    /// ignoring latency and concurrency limits (bandwidth-only bound).
    pub fn bandwidth_bound_mops(&self, payload: u64) -> f64 {
        self.bandwidth.bytes_per_sec() / self.wire_bytes(payload) as f64 / 1e6
    }
}

impl Default for PcieConfig {
    fn default() -> Self {
        PcieConfig::gen3_x8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let cfg = PcieConfig::gen3_x8();
        assert_eq!(cfg.read_tags, 64);
        assert_eq!(cfg.posted_header_credits, 88);
        assert_eq!(cfg.nonposted_header_credits, 84);
        assert_eq!(cfg.cached_read_latency, SimTime::from_ns(800));
        // Paper: ~1050ns mean random read RTT.
        assert_eq!(cfg.mean_random_read_latency(), SimTime::from_ns(1050));
    }

    #[test]
    fn wire_bytes_includes_tlp_split() {
        let cfg = PcieConfig::gen3_x8();
        assert_eq!(cfg.wire_bytes(64), 90);
        assert_eq!(cfg.wire_bytes(256), 256 + 26);
        assert_eq!(cfg.wire_bytes(257), 257 + 2 * 26);
        // Zero-byte DMA still needs a header.
        assert_eq!(cfg.wire_bytes(0), 26);
    }

    #[test]
    fn sixty_four_byte_theoretical_throughput_matches_paper() {
        // Paper §2.4: "the theoretical throughput is therefore 5.6 GB/s, or
        // 87 Mops" for 64-byte granularity.
        let cfg = PcieConfig::gen3_x8();
        let mops = cfg.bandwidth_bound_mops(64);
        assert!((mops - 87.4).abs() < 1.0, "got {mops}");
        let payload_gbs = mops * 1e6 * 64.0 / 1e9;
        assert!((payload_gbs - 5.6).abs() < 0.1, "got {payload_gbs}");
    }
}
