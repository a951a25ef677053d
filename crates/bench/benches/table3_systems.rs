//! Table 3: comparison with state-of-the-art KVS systems — throughput,
//! power efficiency and latency.
//!
//! Rows for other systems carry the values the paper reports (flagged
//! approximate where the scan is unreadable; see EXPERIMENTS.md). The
//! KV-Direct rows are *ours*, from the timed engine: single-NIC throughput
//! is Figure 16's peak cell (10 B long-tail GETs), 10-NIC throughput is
//! Figure 18's 10-shard run, latency is the GET p50 of the same single-NIC
//! point at Figure 17's client window, and power comes from the paper's
//! wall measurements.

use kvd_baselines::CpuKvsModel;
use kvd_bench::{
    banner, fmt_f, multi_nic_engine, multi_nic_gets, shape_check, KeyDist, Table, Ycsb,
    LATENCY_WINDOWS, SATURATING_WINDOWS, SCALED_MEMORY,
};
use kvd_core::system::{Percentile, SystemSimConfig};
use kvd_core::KvDirectConfig;

/// Idle server wall power (paper: 87.0 W).
const IDLE_POWER_W: f64 = 87.0;

/// Wall power each KV-Direct NIC adds at peak (paper: 34 W including
/// PCIe, host memory and the host daemon).
const NIC_POWER_W: f64 = 34.0;

/// Wall power at peak with `nics` NICs (paper: 121.6 W for one).
fn power_w(nics: u32) -> f64 {
    IDLE_POWER_W + NIC_POWER_W * nics as f64
}

/// Published comparison systems as the paper's Table 3 reports them:
/// name, Mops, wall power W, latency µs (approximate where the paper scan
/// is unreadable; provenance in EXPERIMENTS.md).
const PUBLISHED: [(&str, f64, f64, f64); 9] = [
    ("Memcached", 1.5, 399.0, 50.0),
    ("MemC3", 4.3, 399.0, 50.0),
    ("RAMCloud", 6.0, 280.0, 5.0),
    ("MICA (CPU, 36 cores)", 137.0, 399.0, 81.0),
    ("FaRM (one-sided RDMA)", 6.0, 345.0, 4.5),
    ("DrTM-KV", 115.7, 742.0, 3.4),
    ("HERD (two-sided RDMA)", 98.3, 683.0, 5.0),
    ("Xilinx FPGA KVS", 13.2, 55.3, 3.5),
    ("Mega-KV (GPU)", 166.0, 950.0, 280.0),
];

fn main() {
    banner(
        "Table 3: systems comparison",
        "single-NIC KV-Direct matches tens of CPU cores, is ~3x more \
         power-efficient than the best other system, and is the first \
         general-purpose KVS past 1 Mops/W; 10 NICs give 1.22 Gops",
    );

    // Our single-NIC peak: tiny KVs, long-tail, read-intensive — the same
    // run as Figure 16's cell, and at Figure 17's window for latency.
    let peak = Ycsb::new(10, 0.0, KeyDist::Zipf);
    let at_windows = |windows| SystemSimConfig {
        windows,
        ..SystemSimConfig::paper(KvDirectConfig::with_memory(SCALED_MEMORY), 40)
    };
    let ours_mops = peak.run(at_windows(SATURATING_WINDOWS), 26).report.mops;
    let latency_us = peak
        .run(at_windows(LATENCY_WINDOWS), 26)
        .report
        .get_us(Percentile::P50);
    let ten_nic_mops = multi_nic_engine(10, 0)
        .run(&multi_nic_gets(10, 0xF160 + 10))
        .mops;

    let mut t = Table::new(
        "Table 3: throughput, power, efficiency, latency",
        &[
            "system",
            "Mops",
            "power W",
            "Kops/W",
            "latency us",
            "source",
        ],
    );
    let mut row = |name: &str, mops: f64, power: f64, latency: f64, source: &str| {
        t.row(&[
            name.to_string(),
            fmt_f(mops, 1),
            fmt_f(power, 1),
            fmt_f(mops * 1000.0 / power, 1),
            fmt_f(latency, 1),
            source.to_string(),
        ]);
    };
    for (name, mops, power, latency) in PUBLISHED {
        row(name, mops, power, latency, "paper Table 3 (approx.)");
    }
    row(
        "KV-Direct (1 NIC, ours)",
        ours_mops,
        power_w(1),
        latency_us,
        "engine: Fig 16 / 17",
    );
    row(
        "KV-Direct (10 NICs, ours)",
        ten_nic_mops,
        power_w(10),
        latency_us,
        "engine: Fig 18",
    );
    t.print();

    let best_other_eff = PUBLISHED
        .iter()
        .map(|&(_, mops, power, _)| mops * 1000.0 / power)
        .fold(0.0, f64::max);
    let ours_eff = ours_mops * 1000.0 / power_w(1);
    let cpu = CpuKvsModel::paper();
    println!(
        "single-NIC throughput equals ~{:.0} CPU cores at {:.1} Mops/core (paper: 36 cores)\n",
        cpu.cores_to_match(ours_mops),
        cpu.batched_mops()
    );

    shape_check(
        "single NIC ≈ tens of CPU cores",
        (15.0..45.0).contains(&cpu.cores_to_match(ours_mops)),
        &format!("{:.0} cores", cpu.cores_to_match(ours_mops)),
    );
    shape_check(
        "≥3x power efficiency over the best other system",
        ours_eff / best_other_eff >= 3.0,
        &format!("{ours_eff:.0} vs {best_other_eff:.0} Kops/W"),
    );
    shape_check(
        "first KVS past 1 Mops per watt",
        ours_eff > 1000.0,
        &format!("{:.2} Mops/W", ours_eff / 1000.0),
    );
    shape_check(
        "10 NICs an order of magnitude above CPU systems",
        ten_nic_mops > 1000.0,
        &format!("{ten_nic_mops:.0} Mops (paper: 1220)"),
    );
}
