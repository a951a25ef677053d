//! Table 4: impact of KV-Direct at peak load on host CPU performance.
//!
//! KV-Direct bypasses the CPU and consumes at most the two PCIe links'
//! worth of host memory bandwidth, so the server "can run other
//! workloads" with minimal interference (paper §5.2.5).

use kvd_bench::{banner, fmt_f, shape_check, Table};
use kvd_pcie::PcieConfig;

/// Host memory performance as the CPU sees it.
#[derive(Debug, Clone, Copy)]
struct HostImpact {
    /// CPU-visible sequential memory bandwidth, GB/s.
    seq_bandwidth_gbs: f64,
    /// CPU random 64 B access throughput, Mops.
    random_mops: f64,
    /// CPU-visible memory latency, ns.
    latency_ns: f64,
}

/// KV-Direct's peak host-memory draw: both PCIe Gen3 x8 links, GB/s.
fn kvd_draw_gbs() -> f64 {
    PcieConfig::gen3_x8().bandwidth.gbytes_per_sec() * 2.0
}

/// Host memory performance with KV-Direct idle vs at peak: a simple
/// bandwidth-contention model over one NUMA node.
///
/// KV-Direct consumes at most the two PCIe links' worth of host DRAM
/// bandwidth (~16 GB/s of ~60 GB/s per socket), so the impact on the CPU
/// stays small — the paper "finds a minimal impact on other workloads".
fn host_impact(kvd_peak: bool) -> HostImpact {
    let socket_bw = 59.6; // GB/s, E5-2650 v2 with 8 DDR3-1600 channels
    let cpu_random_mops = 29.3 * 8.0; // paper's per-core × 8 cores
    let cpu_latency = 110.0; // paper §2.2: 64-byte random read, ns
    if !kvd_peak {
        return HostImpact {
            seq_bandwidth_gbs: socket_bw,
            random_mops: cpu_random_mops,
            latency_ns: cpu_latency,
        };
    }
    let share = kvd_draw_gbs() / socket_bw;
    HostImpact {
        seq_bandwidth_gbs: socket_bw - kvd_draw_gbs(),
        random_mops: cpu_random_mops * (1.0 - share * 0.5),
        latency_ns: cpu_latency * (1.0 + share * 0.3),
    }
}

fn main() {
    banner(
        "Table 4: impact on host CPU performance at KV-Direct peak load",
        "minimal impact: the CPU keeps most of its memory bandwidth and \
         latency while KV-Direct runs at 180 Mops",
    );

    let idle = host_impact(false);
    let peak = host_impact(true);

    let mut t = Table::new(
        "Table 4: host memory performance, KV-Direct idle vs peak",
        &["metric", "KV-Direct idle", "KV-Direct peak", "degradation"],
    );
    let deg = |a: f64, b: f64| -> String { format!("{:.1}%", (a - b) / a * 100.0) };
    t.row(&[
        "sequential bandwidth GB/s".into(),
        fmt_f(idle.seq_bandwidth_gbs, 1),
        fmt_f(peak.seq_bandwidth_gbs, 1),
        deg(idle.seq_bandwidth_gbs, peak.seq_bandwidth_gbs),
    ]);
    t.row(&[
        "random 64B access Mops".into(),
        fmt_f(idle.random_mops, 1),
        fmt_f(peak.random_mops, 1),
        deg(idle.random_mops, peak.random_mops),
    ]);
    t.row(&[
        "memory latency ns".into(),
        fmt_f(idle.latency_ns, 1),
        fmt_f(peak.latency_ns, 1),
        format!(
            "+{:.1}%",
            (peak.latency_ns - idle.latency_ns) / idle.latency_ns * 100.0
        ),
    ]);
    t.print();

    println!(
        "KV-Direct's PCIe draw: {:.1} GB/s of the socket's {:.1} GB/s\n",
        kvd_draw_gbs(),
        idle.seq_bandwidth_gbs,
    );

    shape_check(
        "CPU keeps most of its bandwidth",
        peak.seq_bandwidth_gbs > idle.seq_bandwidth_gbs * 0.6,
        &format!(
            "{:.1} of {:.1} GB/s remain",
            peak.seq_bandwidth_gbs, idle.seq_bandwidth_gbs
        ),
    );
    shape_check(
        "random access impact under 20%",
        peak.random_mops > idle.random_mops * 0.8,
        &format!("{:.1} → {:.1} Mops", idle.random_mops, peak.random_mops),
    );
    shape_check(
        "latency inflation under 20%",
        peak.latency_ns < idle.latency_ns * 1.2,
        &format!("{:.0} → {:.0} ns", idle.latency_ns, peak.latency_ns),
    );
}
