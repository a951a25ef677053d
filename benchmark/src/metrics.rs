//! The names, units, directions and bounds of everything the benchmark
//! reports — the single source `BENCHMARK.json` is generated from
//! (`kvd-benchmark --print-benchmark-json`; a test keeps the two equal).

use crate::gen::WORKLOADS;
use crate::report::Json;

/// How long one run measures, in seconds (the driver passes it back as
/// `--seconds`).
pub const RUN_SECONDS: u64 = 15;
/// The seed of a run that is not given one.
pub const DEFAULT_SEED: u64 = 0x5EED;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Bounds follow the spreads seen across seeds on the shared 2-core host
/// (README, "Repeatability"; `benchmark/repeatability.json`).
///
/// * Wall-clock metrics, quoted at nominal host speed: over twenty blocks
///   of ten seeds the worst quartile spread was 11–12 % for
///   `server_cpu_us_per_op`, `rtt_p50_us` and `par2_wall_mops` (bound
///   0.20) and 15 % for `engine_wall_mops` (0.25, the contract's ceiling).
///   `tput_ops_s` reached 29 % and is a per-layer metric for that reason.
/// * Simulated metrics are exact for one seed. The bounds are for the
///   driver's comparisons across *different* seeds: three times the
///   widest spread seen there (0.5 %, 0.4 % and 1.8 %), rounded.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_cpu_us_per_op",
        unit: "us",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "rtt_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "server_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "engine_wall_mops",
        unit: "Mops",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "par2_wall_mops",
        unit: "Mops",
        better: Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_mops",
        unit: "sim_Mops",
        better: Higher,
        bound: 0.015,
    },
    EndToEnd {
        name: "sim_get_p50_us",
        unit: "sim_us",
        better: Lower,
        bound: 0.012,
    },
    EndToEnd {
        name: "sim_get_p95_us",
        unit: "sim_us",
        better: Lower,
        bound: 0.06,
    },
];

/// A per-layer metric: names are `<crate>.<metric>`.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 77] = [
    // host: how fast the reference kernel ran. A wall-clock end-to-end
    // metric as clocked is its value times (rates) or divided by (times)
    // this over `calib::NOMINAL_MSTEPS`.
    layer("host.reference_msteps", "Msteps/s", Higher),
    // server: the TCP front-end, seen from the child's ledger, /proc and
    // the load generator. `tput_ops_s` was meant to be end-to-end and is
    // here because no bound the contract allows holds it on this host.
    layer("server.tput_ops_s", "1/s", Higher),
    layer("server.frames", "count", Higher),
    layer("server.requests_per_frame", "op/frame", Higher),
    layer("server.bytes_in_per_op", "B/op", Lower),
    layer("server.bytes_out_per_op", "B/op", Lower),
    layer("server.protocol_errors", "count", Lower),
    layer("server.server_errors", "count", Lower),
    layer("server.ctx_switches_per_op", "1/op", Lower),
    layer("server.cpu_util", "ratio", Higher),
    layer("server.client_cpu_share", "ratio", Lower),
    layer("server.rtt_p99_us", "us", Lower),
    layer("server.paced25_p50_us", "us", Lower),
    layer("server.paced25_p99_us", "us", Lower),
    layer("server.paced50_p50_us", "us", Lower),
    layer("server.paced50_p99_us", "us", Lower),
    layer("server.paced_gen_late_us", "us", Lower),
    layer("server.parse_ns", "ns", Lower),
    layer("server.encode_ns", "ns", Lower),
    layer("server.handoff_us", "us", Lower),
    // net: wire codec and routing.
    layer("net.decode_ns", "ns", Lower),
    layer("net.route_ns", "ns", Lower),
    layer("net.packets", "count", Lower),
    layer("net.payload_bytes_per_op", "B/op", Lower),
    layer("net.ops_per_batch", "op/batch", Higher),
    // ooo: the reservation station.
    layer("ooo.admit_complete_ns", "ns", Lower),
    layer("ooo.forwarded_per_op", "1/op", Higher),
    layer("ooo.queued_per_op", "1/op", Lower),
    layer("ooo.rejected", "count", Lower),
    layer("ooo.high_water", "count", Lower),
    // hash: the index.
    layer("hash.probe_ns", "ns", Lower),
    layer("hash.get_ns", "ns", Lower),
    layer("hash.put_ns", "ns", Lower),
    layer("hash.delete_ns", "ns", Lower),
    layer("hash.mem_access_per_get", "1/op", Lower),
    layer("hash.mem_access_per_put", "1/op", Lower),
    layer("hash.memory_utilization", "ratio", Higher),
    // slab: the allocator.
    layer("slab.alloc_free_ns", "ns", Lower),
    layer("slab.allocs_per_op", "1/op", Lower),
    layer("slab.frees_per_op", "1/op", Lower),
    layer("slab.splits", "count", Lower),
    layer("slab.merges", "count", Lower),
    layer("slab.failed_allocs", "count", Lower),
    layer("slab.dma_syncs_per_op", "1/op", Lower),
    // mem: the dispatched memory engine and its NIC-DRAM cache.
    layer("mem.read_hit_ns", "ns", Lower),
    layer("mem.read_miss_ns", "ns", Lower),
    layer("mem.write_ns", "ns", Lower),
    layer("mem.cache_hit_ratio", "ratio", Higher),
    layer("mem.dram_lines_per_op", "1/op", Lower),
    layer("mem.admitted_fills", "count", Lower),
    layer("mem.rejected_fills", "count", Higher),
    layer("mem.evict_dirty", "count", Lower),
    layer("mem.retune_steps", "count", Lower),
    layer("mem.final_dispatch_ratio", "ratio", Higher),
    // pcie: DMA traffic.
    layer("pcie.dma_reads_per_op", "1/op", Lower),
    layer("pcie.dma_writes_per_op", "1/op", Lower),
    layer("pcie.bytes_per_op", "B/op", Lower),
    layer("pcie.tag_stalls", "count", Lower),
    layer("pcie.credit_stalls", "count", Lower),
    // core: the processor, the timing plane and the parallel engine.
    layer("core.execute_ns", "ns", Lower),
    layer("core.execute_self_ns", "ns", Lower),
    layer("core.timing_ns", "ns", Lower),
    layer("core.par2_cost_ratio", "ratio", Lower),
    layer("core.answered_ratio", "ratio", Higher),
    layer("core.oom", "count", Lower),
    layer("core.allocs_per_op", "1/op", Lower),
    // Not end-to-end: which shard the hot keys land on moves it 3 %
    // between seeds, and `par_workers_agree` is the determinism canary.
    layer("core.par2_sim_mops", "sim_Mops", Higher),
    layer("core.par_workers_agree", "count", Higher),
    // sim: where simulated GET latency goes.
    layer("sim.latency_share.net", "ratio", Lower),
    layer("sim.latency_share.pcie", "ratio", Lower),
    layer("sim.latency_share.dram", "ratio", Lower),
    layer("sim.latency_share.station", "ratio", Lower),
    // trace: the cost of looking.
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Higher),
    layer("trace.clock_ns", "ns", Lower),
    layer("trace.walk_service_us", "us", Lower),
    layer("trace.walk_requests", "count", Higher),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    Json::obj([
        (
            "command",
            Json::Arr(["bash", "benchmark/run.sh"].map(Json::str).to_vec()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` is generated, never edited: regenerate it with
    /// `kvd-benchmark --print-benchmark-json > BENCHMARK.json`.
    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json().to_pretty());
    }
}
