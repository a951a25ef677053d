//! Closed-loop DMA saturation experiments (paper Figure 3).
//!
//! Figure 3a sweeps the DMA payload size and reports random-access
//! throughput for reads and writes; Figure 3b is the latency CDF of random
//! 64 B DMA reads. Both are regenerated by driving a [`DmaPort`] closed
//! loop: requests are issued as fast as tags/credits/bandwidth admit.

use kvd_sim::{SimTime, Summary};

use crate::port::DmaPort;

/// Result of one saturation run.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Payload size per DMA.
    pub payload: u64,
    /// Sustained throughput in operations per second.
    pub ops_per_sec: f64,
    /// Sustained payload bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Latency summary (picoseconds; reads only — writes are posted).
    pub latency: Option<Summary>,
}

impl StreamResult {
    /// Throughput in the paper's Mops unit.
    pub fn mops(&self) -> f64 {
        self.ops_per_sec / 1e6
    }
}

/// Saturates a port with random non-cached DMA reads of `payload` bytes.
pub fn saturate_reads(payload: u64, ops: u64, seed: u64) -> StreamResult {
    let mut port = DmaPort::new(seed);
    let mut last = SimTime::ZERO;
    for _ in 0..ops {
        last = last.max(port.read(SimTime::ZERO, payload, false));
    }
    let secs = last.as_secs_f64();
    StreamResult {
        payload,
        ops_per_sec: ops as f64 / secs,
        bytes_per_sec: (ops * payload) as f64 / secs,
        latency: Some(port.read_latency().summary()),
    }
}

/// Saturates a port with posted DMA writes of `payload` bytes.
pub fn saturate_writes(payload: u64, ops: u64, seed: u64) -> StreamResult {
    let mut port = DmaPort::new(seed);
    let mut last = SimTime::ZERO;
    for _ in 0..ops {
        last = last.max(port.write(SimTime::ZERO, payload));
    }
    // Count the time until credits for the final writes would have
    // returned; negligible relative to the run, so use last-send time.
    let secs = last.as_secs_f64();
    StreamResult {
        payload,
        ops_per_sec: ops as f64 / secs,
        bytes_per_sec: (ops * payload) as f64 / secs,
        latency: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3a_shape_read_vs_write() {
        // At 64B, reads are tag-limited (~60 Mops), writes bandwidth-bound
        // (~87 Mops): writes beat reads, as in Figure 3a.
        let r = saturate_reads(64, 4000, 1);
        let w = saturate_writes(64, 4000, 1);
        assert!(r.mops() > 50.0 && r.mops() < 70.0, "read {}", r.mops());
        assert!(w.mops() > 80.0, "write {}", w.mops());
        assert!(w.mops() > r.mops());
    }

    #[test]
    fn figure3a_shape_large_payloads_converge_to_bandwidth() {
        // At large payloads both directions approach link bandwidth.
        let r = saturate_reads(512, 2000, 2);
        let w = saturate_writes(512, 2000, 2);
        let bound = crate::config::ENDPOINT_GBYTES_PER_SEC * 1e9;
        assert!(
            r.bytes_per_sec > 0.85 * bound,
            "read bw {}",
            r.bytes_per_sec
        );
        assert!(
            w.bytes_per_sec > 0.85 * bound,
            "write bw {}",
            w.bytes_per_sec
        );
    }

    #[test]
    fn figure3b_latency_distribution() {
        let r = saturate_reads(64, 4000, 3);
        let lat = r.latency.expect("reads record latency");
        // Paper Figure 3b: RTT spans ~800ns to ~1.3us plus queueing.
        assert!(lat.min >= SimTime::from_ns(800).as_ps());
        assert!(lat.p99 < SimTime::from_us(3).as_ps());
        assert!(lat.p50 > lat.min);
    }

    #[test]
    fn two_endpoints_reach_paper_aggregate_bandwidth() {
        // Paper §2.4: "the achievable throughput (13.2 GB/s) of two PCIe
        // Gen3 x8 endpoints". Two independent ports at large payloads.
        let a = saturate_reads(512, 2000, 10);
        let b = saturate_reads(512, 2000, 11);
        let combined = (a.bytes_per_sec + b.bytes_per_sec) / 1e9;
        assert!(
            (12.5..14.5).contains(&combined),
            "two endpoints: {combined} GB/s (paper: 13.2)"
        );
    }

    #[test]
    fn read_mops_monotonically_decreases_with_payload() {
        let mut prev = f64::INFINITY;
        for payload in [64, 128, 256, 512] {
            let r = saturate_reads(payload, 2000, 4);
            assert!(r.mops() <= prev + 1.0, "not monotone at {payload}");
            prev = r.mops();
        }
    }
}
