//! Timed replay of memory access traces (paper Figure 14).
//!
//! Figure 14 measures the achievable memory access throughput with the
//! DRAM load dispatcher against a PCIe-only baseline, under uniform and
//! long-tail address distributions and several read percentages. This
//! module replays a line-granular access trace through the functional
//! cache and charges each device — two PCIe Gen3 x8 [`DmaPort`]s and the
//! NIC DRAM channel — in simulated time; sustained throughput is the trace
//! length divided by the slowest device's finish time.

use kvd_pcie::{DmaPort, PcieConfig};
use kvd_sim::{BandwidthLink, SimTime};

use crate::dispatch::{hash_line, optimal_ratio_measured, DispatchConfig, LoadDispatcher};
use crate::engine::{AccessKind, AdaptiveCacheConfig};
use crate::nicdram::{NicDram, NicDramConfig};
use crate::sketch::{FreqSketch, SpaceSaving};
use crate::LINE;

/// Configuration of a timed replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Host memory size in bytes (defines the line address space).
    pub host_capacity: u64,
    /// NIC DRAM configuration.
    pub dram: NicDramConfig,
    /// Load dispatch ratio.
    pub dispatch: DispatchConfig,
    /// Per-endpoint PCIe configuration.
    pub pcie: PcieConfig,
    /// Number of PCIe endpoints (the paper's NIC has two Gen3 x8 in a
    /// bifurcated x16).
    pub pcie_ports: usize,
    /// Adaptive cache plane (TinyLFU admission + online retune); `None`
    /// replays the paper's static policy.
    pub adaptive: Option<AdaptiveCacheConfig>,
}

impl ReplayConfig {
    /// A laptop-scale configuration preserving the paper's ratios:
    /// host:DRAM = 16:1, two PCIe Gen3 x8 endpoints.
    pub fn paper_scaled(host_capacity: u64, dispatch_ratio: f64) -> Self {
        ReplayConfig {
            host_capacity,
            dram: NicDramConfig {
                capacity: host_capacity / 16,
                bandwidth: kvd_sim::Bandwidth::from_gbytes_per_sec(12.8),
            },
            dispatch: DispatchConfig::new(dispatch_ratio),
            pcie: PcieConfig::gen3_x8(),
            pcie_ports: 2,
            adaptive: None,
        }
    }
}

/// Outcome of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Number of accesses replayed.
    pub ops: u64,
    /// Simulated time until the last device finished.
    pub elapsed: SimTime,
    /// Sustained throughput in Mops.
    pub mops: f64,
    /// NIC DRAM cache hit rate over cacheable accesses (admission
    /// rejections count as misses).
    pub hit_rate: f64,
    /// Fraction of accesses that touched PCIe.
    pub pcie_fraction: f64,
    /// Load dispatch ratio at end of run (moves only in adaptive mode).
    pub final_ratio: f64,
    /// Retune steps the adaptive plane took.
    pub retune_steps: u64,
    /// Conflict fills the TinyLFU admission rejected.
    pub rejected_fills: u64,
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
    assert!(cfg.pcie_ports >= 1);
    let mut cache = NicDram::new(cfg.dram.clone(), cfg.host_capacity);
    let mut dispatcher = LoadDispatcher::new(cfg.dispatch);
    let mut adaptive = cfg
        .adaptive
        .clone()
        .map(|c| (FreqSketch::new(c.sketch), SpaceSaving::new(c.top_k), c));
    let mut ports: Vec<DmaPort> = (0..cfg.pcie_ports)
        .map(|i| DmaPort::new(cfg.pcie.clone(), 0x5EED + i as u64))
        .collect();
    let mut dram = BandwidthLink::new(cfg.dram.bandwidth);
    let mut next_port = 0usize;
    let mut ops = 0u64;
    let mut pcie_ops = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let (mut win_hits, mut win_misses) = (0u64, 0u64);
    let mut epoch_ticks = 0u64;
    let mut retune_steps = 0u64;
    let mut rejected_fills = 0u64;
    let mut reject_streak = 0u64;
    let total_lines = cfg.host_capacity / LINE;

    let mut pcie = |ports: &mut Vec<DmaPort>, kind: AccessKind| {
        let port = &mut ports[next_port];
        next_port = (next_port + 1) % cfg.pcie_ports;
        match kind {
            AccessKind::Read => port.read(SimTime::ZERO, LINE, false),
            AccessKind::Write => port.write(SimTime::ZERO, LINE),
        }
    };

    for (line, kind) in accesses {
        let line = line % total_lines;
        ops += 1;
        // Adaptive bookkeeping: sketch observation + the access-count
        // epoch that drives retuning (mirrors DispatchedMemory).
        if let Some((sketch, hot, acfg)) = &mut adaptive {
            if sketch.observe(line) {
                hot.observe(line);
            }
            epoch_ticks += 1;
            if epoch_ticks >= acfg.epoch_accesses && win_hits + win_misses > 0 {
                epoch_ticks = 0;
                let h = win_hits as f64 / (win_hits + win_misses) as f64;
                (win_hits, win_misses) = (0, 0);
                let target = optimal_ratio_measured(h, acfg.tput_dram, acfg.tput_pcie)
                    .clamp(acfg.min_ratio, acfg.max_ratio);
                let current = dispatcher.ratio();
                if (target - current).abs() > acfg.deadband {
                    let next = current + (target - current).clamp(-acfg.max_step, acfg.max_step);
                    let old_t = dispatcher.threshold();
                    dispatcher.set_ratio(next);
                    let new_t = dispatcher.threshold();
                    let (lo, hi) = (old_t.min(new_t), old_t.max(new_t));
                    retune_steps += 1;
                    // Migration sweep: dirty retirees cost a DRAM
                    // read-out plus a PCIe write-back each.
                    cache.retire_if(
                        |l| {
                            let h = hash_line(l);
                            h > lo && h <= hi
                        },
                        |_, _| {
                            dram.transfer(SimTime::ZERO, LINE);
                            pcie(&mut ports, AccessKind::Write);
                        },
                    );
                }
            }
        }
        if dispatcher.is_cacheable(line) {
            let place = cache.locate(line);
            if let Some(slot) = place.slot {
                hits += 1;
                win_hits += 1;
                // Hit: one DRAM access (read or write-and-dirty). Only
                // the tags matter to the replay, never the bytes.
                dram.transfer(SimTime::ZERO, LINE);
                if kind == AccessKind::Write {
                    cache.line_mut(slot);
                }
            } else {
                misses += 1;
                win_misses += 1;
                // TinyLFU admission: the incomer must out-count the
                // coldest resident of its set, or serve over PCIe
                // without displacing anyone.
                let way = match &adaptive {
                    None => Some(cache.rr_victim(&place)),
                    Some((sketch, _, acfg)) => {
                        let mut coldest: Option<(usize, u32)> = None;
                        let mut free = None;
                        for (w, occ) in cache.occupants(&place).iter().enumerate() {
                            match occ {
                                None => {
                                    free = Some(w);
                                    break;
                                }
                                Some(resident) => {
                                    let est = sketch.estimate(*resident);
                                    if coldest.is_none_or(|(_, c)| est < c) {
                                        coldest = Some((w, est));
                                    }
                                }
                            }
                        }
                        match (free, coldest) {
                            (Some(w), _) => Some(w),
                            (None, Some((w, cold))) => {
                                if cold == 0 || sketch.estimate(line) > cold {
                                    reject_streak = 0;
                                    Some(w)
                                } else {
                                    reject_streak += 1;
                                    if acfg.admit_every > 0 && reject_streak >= acfg.admit_every {
                                        // Starvation hatch (mirrors
                                        // `DispatchedMemory::admit`).
                                        reject_streak = 0;
                                        Some(w)
                                    } else {
                                        rejected_fills += 1;
                                        None
                                    }
                                }
                            }
                            (None, None) => unreachable!("set has ways"),
                        }
                    }
                };
                match way {
                    Some(way) => {
                        // Miss: PCIe fetch + DRAM fill (+ dirty write-back).
                        pcie_ops += 1;
                        pcie(&mut ports, AccessKind::Read);
                        dram.transfer(SimTime::ZERO, LINE);
                        let slot = place.way(way);
                        let (victim, _) = cache.install(slot, &place);
                        if kind == AccessKind::Write {
                            cache.line_mut(slot);
                        }
                        if victim.is_some_and(|v| v.dirty) {
                            // Evicted dirty line: DRAM read-out + PCIe write-back.
                            dram.transfer(SimTime::ZERO, LINE);
                            pcie(&mut ports, AccessKind::Write);
                            pcie_ops += 1;
                        }
                    }
                    None => {
                        // Rejected: the access itself goes over PCIe.
                        pcie_ops += 1;
                        pcie(&mut ports, kind);
                    }
                }
            }
        } else {
            pcie_ops += 1;
            pcie(&mut ports, kind);
        }
    }

    let mut elapsed = dram.free_at();
    for p in &ports {
        elapsed = elapsed.max(p.horizon());
    }
    let secs = elapsed.as_secs_f64();
    ReplayResult {
        ops,
        elapsed,
        mops: if secs > 0.0 {
            ops as f64 / secs / 1e6
        } else {
            0.0
        },
        hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        pcie_fraction: pcie_ops as f64 / ops.max(1) as f64,
        final_ratio: dispatcher.ratio(),
        retune_steps,
        rejected_fills,
    }
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
        assert!(r.pcie_fraction < 0.9);
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
        assert_eq!(r.pcie_fraction, 1.0);
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
}
