//! Timed replay of memory access traces (paper Figure 14).
//!
//! Figure 14 measures the achievable memory access throughput with the
//! DRAM load dispatcher against a PCIe-only baseline, under uniform and
//! long-tail address distributions and several read percentages. This
//! module is a device clock and nothing else: it drives a line-granular
//! access trace through a real [`DispatchedMemory`] — the one dispatcher,
//! cache, admission filter and retune loop the store runs on — and charges
//! the engine's own [`Traffic`](crate::Traffic) delta around each access
//! to two PCIe Gen3 x8 [`DmaPort`]s and the NIC DRAM channel in simulated
//! time. Sustained throughput is the trace length divided by the slowest
//! device's finish time.

use kvd_pcie::DmaPort;
use kvd_sim::{Bandwidth, BandwidthLink, Counter, SimTime};

use crate::{
    AccessKind, AdaptiveCacheConfig, DispatchConfig, DispatchedMemory, MemoryEngine, NicDramConfig,
    LINE, NIC_DRAM_GBYTES_PER_SEC,
};

/// Configuration of a timed replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Host memory size in bytes (defines the line address space).
    pub host_capacity: u64,
    /// NIC DRAM configuration.
    pub dram: NicDramConfig,
    /// Load dispatch ratio.
    pub dispatch: DispatchConfig,
    /// Adaptive cache plane (TinyLFU admission + online retune); `None`
    /// replays the paper's static policy.
    pub adaptive: Option<AdaptiveCacheConfig>,
}

impl ReplayConfig {
    /// A laptop-scale configuration preserving the paper's host:DRAM = 16:1.
    pub fn paper_scaled(host_capacity: u64, dispatch_ratio: f64) -> Self {
        ReplayConfig {
            host_capacity,
            dram: NicDramConfig {
                capacity: host_capacity / 16,
                bandwidth: Bandwidth::from_gbytes_per_sec(NIC_DRAM_GBYTES_PER_SEC),
            },
            dispatch: DispatchConfig::new(dispatch_ratio),
            adaptive: None,
        }
    }
}

/// Outcome of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Simulated time until the last device finished.
    pub elapsed: SimTime,
    /// Sustained throughput in Mops.
    pub mops: f64,
    /// NIC DRAM cache hit rate over cacheable accesses (admission
    /// rejections count as misses).
    pub hit_rate: f64,
    /// Load dispatch ratio at end of run (moves only in adaptive mode).
    pub final_ratio: f64,
    /// Retune steps the adaptive plane took.
    pub retune_steps: u64,
    /// Conflict fills the TinyLFU admission rejected.
    pub rejected_fills: u64,
}

/// A replay in progress: the engine and the device clock it is charged to.
pub struct Replay {
    mem: DispatchedMemory,
    /// The paper's NIC: two Gen3 x8 endpoints in a bifurcated x16.
    ports: [DmaPort; 2],
    next_port: usize,
    dram: BandwidthLink,
    ops: Counter,
}

impl Replay {
    /// A fresh engine and idle devices, as `cfg` describes them.
    pub fn new(cfg: &ReplayConfig) -> Self {
        let mut mem = DispatchedMemory::new(cfg.host_capacity, cfg.dram.clone(), cfg.dispatch);
        if let Some(adaptive) = &cfg.adaptive {
            mem.set_adaptive(adaptive.clone());
        }
        Replay {
            mem,
            ports: [0, 1].map(|i| DmaPort::new(0x5EED + i)),
            next_port: 0,
            dram: BandwidthLink::new(cfg.dram.bandwidth),
            ops: Counter::new(),
        }
    }

    /// The engine, for its own account of the run so far.
    pub fn mem(&self) -> &DispatchedMemory {
        &self.mem
    }

    /// Performs one 64 B access to `line` (wrapped into the address space)
    /// and charges the devices the four numbers `SystemSim` charges per
    /// operation: DMA reads, then DMA writes, round-robin over the ports,
    /// and every NIC DRAM line to the channel.
    pub fn step(&mut self, line: u64, kind: AccessKind) {
        let addr = line % (self.mem.capacity() / LINE) * LINE;
        let mut buf = [0u8; LINE as usize];
        let before = self.mem.traffic();
        match kind {
            AccessKind::Read => self.mem.read(addr, &mut buf),
            AccessKind::Write => self.mem.write(addr, &buf),
        }
        let after = self.mem.traffic();
        self.ops.inc();
        for _ in before.dma_reads..after.dma_reads {
            self.port().read(SimTime::ZERO, LINE, false);
        }
        for _ in before.dma_writes..after.dma_writes {
            self.port().write(SimTime::ZERO, LINE);
        }
        for _ in before.dram_reads + before.dram_writes..after.dram_reads + after.dram_writes {
            self.dram.transfer(SimTime::ZERO, LINE);
        }
    }

    fn port(&mut self) -> &mut DmaPort {
        let port = self.next_port;
        self.next_port = (port + 1) % self.ports.len();
        &mut self.ports[port]
    }

    /// The run so far: when the slowest device finishes, and the engine's
    /// own account of what its policies did.
    pub fn finish(&self) -> ReplayResult {
        let [a, b] = &self.ports;
        let elapsed = a.horizon().max(b.horizon()).max(self.dram.free_at());
        ReplayResult {
            elapsed,
            mops: self.ops.mops(elapsed),
            hit_rate: self.mem.cache_hit_rate(),
            final_ratio: self.mem.dispatcher().ratio(),
            retune_steps: self.mem.cache_stats().retune_steps,
            rejected_fills: self.mem.cache_stats().rejected_fills,
        }
    }
}

/// Replays `(line, kind)` accesses through the dispatched memory stack.
///
/// # Examples
///
/// ```
/// use kvd_mem::replay::{replay_lines, ReplayConfig};
/// use kvd_mem::AccessKind;
///
/// let cfg = ReplayConfig::paper_scaled(1 << 22, 0.5);
/// let trace = (0..10_000u64).map(|i| (i % 1000, AccessKind::Read));
/// let r = replay_lines(&cfg, trace);
/// assert!(r.mops > 0.0);
/// ```
pub fn replay_lines(
    cfg: &ReplayConfig,
    accesses: impl IntoIterator<Item = (u64, AccessKind)>,
) -> ReplayResult {
    let mut replay = Replay::new(cfg);
    for (line, kind) in accesses {
        replay.step(line, kind);
    }
    replay.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::{DetRng, ZipfSampler};

    fn uniform_trace(n: u64, lines: u64, read_pct: f64, seed: u64) -> Vec<(u64, AccessKind)> {
        let mut rng = DetRng::seed(seed);
        (0..n)
            .map(|_| {
                let kind = if rng.chance(read_pct) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                (rng.u64_below(lines), kind)
            })
            .collect()
    }

    fn zipf_trace(n: u64, lines: u64, read_pct: f64, seed: u64) -> Vec<(u64, AccessKind)> {
        let mut rng = DetRng::seed(seed);
        let zipf = ZipfSampler::new(lines, 0.99);
        (0..n)
            .map(|_| {
                let kind = if rng.chance(read_pct) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                // Scatter ranks over the line space deterministically so
                // hot lines are not all clustered at low addresses.
                let rank = zipf.sample(&mut rng);
                let line = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % lines;
                (line, kind)
            })
            .collect()
    }

    #[test]
    fn dispatch_beats_pcie_only_under_zipf() {
        let host = 1u64 << 24; // 16 MiB
        let lines = host / LINE;
        let trace = zipf_trace(200_000, lines, 1.0, 7);
        let base = replay_lines(&ReplayConfig::paper_scaled(host, 0.0), trace.clone());
        let disp = replay_lines(&ReplayConfig::paper_scaled(host, 0.5), trace);
        assert!(
            disp.mops > base.mops * 1.1,
            "dispatch {} vs baseline {}",
            disp.mops,
            base.mops
        );
    }

    #[test]
    fn zipf_hit_rate_substantial() {
        let host = 1u64 << 24;
        let lines = host / LINE;
        let r = replay_lines(
            &ReplayConfig::paper_scaled(host, 0.5),
            zipf_trace(200_000, lines, 1.0, 9),
        );
        // Paper: ~30% of accesses served from DRAM under long-tail, l=0.5.
        assert!(r.hit_rate > 0.3, "hit rate {}", r.hit_rate);
    }

    #[test]
    fn uniform_caching_is_negligible() {
        let host = 1u64 << 24;
        let lines = host / LINE;
        let r = replay_lines(
            &ReplayConfig::paper_scaled(host, 0.5),
            uniform_trace(100_000, lines, 1.0, 11),
        );
        // k = 1/16, l = 0.5 ⇒ steady-state h ≈ k/l = 0.125.
        assert!(r.hit_rate < 0.25, "hit rate {}", r.hit_rate);
    }

    #[test]
    fn baseline_read_throughput_matches_two_ports() {
        // PCIe-only, 100% reads: two tag-limited ports ≈ 2 × 60 Mops.
        let host = 1u64 << 24;
        let lines = host / LINE;
        let r = replay_lines(
            &ReplayConfig::paper_scaled(host, 0.0),
            uniform_trace(100_000, lines, 1.0, 13),
        );
        assert!(r.mops > 100.0 && r.mops < 140.0, "got {}", r.mops);
        assert_eq!(r.hit_rate, 0.0, "nothing is cacheable at l = 0");
    }

    #[test]
    fn writes_faster_than_reads_on_pcie_baseline() {
        let host = 1u64 << 24;
        let lines = host / LINE;
        let reads = replay_lines(
            &ReplayConfig::paper_scaled(host, 0.0),
            uniform_trace(50_000, lines, 1.0, 15),
        );
        let writes = replay_lines(
            &ReplayConfig::paper_scaled(host, 0.0),
            uniform_trace(50_000, lines, 0.0, 15),
        );
        assert!(writes.mops > reads.mops);
    }

    #[test]
    fn a_long_tail_replay_matches_its_recorded_clock() {
        // Recorded before `DmaPort` lost its unused fault-retry engine: the
        // replay's device clock and the engine's hit rate, bit for bit.
        let host = 1u64 << 22;
        let r = replay_lines(
            &ReplayConfig::paper_scaled(host, 0.5),
            zipf_trace(50_000, host / LINE, 0.9, 31),
        );
        assert_eq!(r.elapsed.as_ps(), 291_170_851);
        assert_eq!(
            r.hit_rate.to_bits(),
            0x3fe5_f230_b5aa_1448,
            "{}",
            r.hit_rate
        );
    }

    #[test]
    fn the_replay_reports_the_engine_and_charges_every_request_it_issued() {
        // One adaptive trace whose hot set moves at the midpoint: retunes,
        // rejected fills, dirty write-backs and retirement sweeps all
        // happen, and each must reach the result and the devices from the
        // engine itself.
        let host = 1u64 << 22;
        let lines = host / LINE;
        let mut cfg = ReplayConfig::paper_scaled(host, 0.5);
        let mut adaptive = AdaptiveCacheConfig::data_path(0x5EED);
        adaptive.epoch_accesses = 2_048;
        cfg.adaptive = Some(adaptive);
        let mut replay = Replay::new(&cfg);
        let (first, second) = (
            zipf_trace(40_000, lines, 0.9, 21),
            zipf_trace(40_000, lines, 0.9, 22),
        );
        for (line, kind) in first {
            replay.step(line, kind);
        }
        for (line, kind) in second {
            replay.step(line.wrapping_mul(31) % lines, kind);
        }
        let r = replay.finish();
        let mem = replay.mem();
        assert!(r.retune_steps > 0 && r.rejected_fills > 0, "{r:?}");
        let cs = mem.cache_stats();
        assert!(cs.evict_dirty > 0 && cs.demoted_lines > 0);
        assert_eq!(r.hit_rate, mem.cache_hit_rate());
        assert_eq!(r.final_ratio, mem.dispatcher().ratio());
        assert_eq!(r.retune_steps, cs.retune_steps);
        assert_eq!(r.rejected_fills, cs.rejected_fills);
        let requests: u64 = replay
            .ports
            .iter()
            .map(|p| p.stats().reads + p.stats().writes)
            .sum();
        assert_eq!(requests, mem.stats().dma_reads + mem.stats().dma_writes);
        assert_eq!(
            replay.dram.bytes_moved(),
            (mem.stats().dram_reads + mem.stats().dram_writes) * LINE
        );
    }
}
