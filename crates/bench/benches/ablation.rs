//! Ablations of KV-Direct's design choices (DESIGN.md §4).
//!
//! Three sweeps the paper motivates but does not plot directly:
//!
//! 1. **Reservation station geometry** — the paper sizes it at 1024 hash
//!    slots "to make hash collision probability below 25%" at 256
//!    in-flight ops, and notes that comparing full keys instead "would
//!    take 40% logic resource". Sweeping the slot count shows why 1024.
//! 2. **Load dispatch ratio** — §3.3.4 solves a balance equation for the
//!    optimal `l`; sweeping `l` over the replay driver verifies the
//!    optimum sits where the equation says.
//! 3. **Operations in flight** — §3.3.3: "to saturate PCIe, DRAM and
//!    the processing pipeline, up to 256 in-flight KV operations are
//!    needed". The engine bounds concurrency at the client, so the sweep
//!    is over client windows of 40 ops.
//!
//! Sweeps 1 and 3 are runs of the timed engine (`SystemSim`) through
//! `kvd_bench::Ycsb`; sweep 2 replays a line trace through the memory
//! engine.

use kvd_bench::{
    banner, fmt_f, shape_check, KeyDist, Table, Ycsb, SATURATING_WINDOWS, SCALED_MEMORY,
};
use kvd_core::system::SystemSimConfig;
use kvd_core::KvDirectConfig;
use kvd_mem::dispatch::optimal_ratio_zipf;
use kvd_mem::replay::{replay_lines, ReplayConfig};
use kvd_mem::{AccessKind, LINE};
use kvd_sim::{DetRng, ZipfSampler};

/// The throughput figures' engine: batches of 40, `windows` in flight.
fn engine(windows: usize) -> SystemSimConfig {
    SystemSimConfig {
        windows,
        ..SystemSimConfig::paper(KvDirectConfig::with_memory(SCALED_MEMORY), 40)
    }
}

fn main() {
    banner(
        "Ablations: station geometry, load dispatch ratio, ops in flight",
        "1024 station slots suffice; the dispatch optimum matches the \
         §3.3.4 balance equation; enough ops in flight saturate memory",
    );

    // --- 1. Station hash slots -------------------------------------------
    let point = Ycsb::new(16, 0.5, KeyDist::Zipf);
    let mut t = Table::new(
        "station hash slots vs long-tail throughput (capacity 256)",
        &["slots", "Mops", "forwarded %"],
    );
    let mut tput_at = std::collections::BTreeMap::new();
    for slots in [64usize, 256, 1024, 4096] {
        let mut cfg = engine(SATURATING_WINDOWS);
        cfg.store.station.hash_slots = slots;
        let r = point.run(cfg, 31).report;
        tput_at.insert(slots, r.mops);
        t.row(&[
            slots.to_string(),
            fmt_f(r.mops, 1),
            fmt_f(r.ledger.station.forwarded as f64 / r.ops as f64 * 100.0, 1),
        ]);
    }
    t.print();
    shape_check(
        "1024 slots capture most of the benefit",
        tput_at[&1024] > tput_at[&64] && tput_at[&4096] < tput_at[&1024] * 1.25,
        &format!(
            "64→{:.1}, 1024→{:.1}, 4096→{:.1} Mops",
            tput_at[&64], tput_at[&1024], tput_at[&4096]
        ),
    );

    // --- 2. Load dispatch ratio sweep ------------------------------------
    let host = 1u64 << 24;
    let lines = host / LINE;
    let n_accesses = 150_000u64;
    let mk_trace = |seed: u64| -> Vec<(u64, AccessKind)> {
        let mut rng = DetRng::seed(seed);
        let z = ZipfSampler::new(lines, 0.99);
        (0..n_accesses)
            .map(|_| {
                let line = z.sample(&mut rng).wrapping_mul(0x9E37_79B9_7F4A_7C15) % lines;
                let kind = if rng.chance(0.95) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                (line, kind)
            })
            .collect()
    };
    let mut t = Table::new(
        "load dispatch ratio l vs memory throughput (long-tail, 95% GET)",
        &["l", "Mops", "hit rate"],
    );
    let mut best = (0.0f64, 0.0f64);
    let mut series = Vec::new();
    for l10 in 0..=10u32 {
        let l = l10 as f64 / 10.0;
        let r = replay_lines(&ReplayConfig::paper_scaled(host, l), mk_trace(77));
        if r.mops > best.1 {
            best = (l, r.mops);
        }
        series.push((l, r.mops, r.hit_rate));
        t.row(&[fmt_f(l, 1), fmt_f(r.mops, 1), fmt_f(r.hit_rate, 2)]);
    }
    t.print();
    // The §3.3.4 balance equation, fed with the regime the replay is
    // actually in: random 64B reads are tag-limited on PCIe (~60 Mops per
    // port × 2) against DRAM's 200 Mops, and the measured hit rate h is
    // ~flat in l (the Zipf head fits any cacheable slice). Solving
    // l·t_pcie = (1 − l·h)·t_dram for l gives the predicted optimum.
    let t_pcie = 120.0;
    let t_dram = 200.0;
    // Mean measured hit rate over the mid-range of l.
    let mids: Vec<f64> = series
        .iter()
        .filter(|(l, _, _)| (0.3..=0.9).contains(l))
        .map(|&(_, _, h)| h)
        .collect();
    let h = mids.iter().sum::<f64>() / mids.len() as f64;
    let analytic = t_dram / (t_pcie + h * t_dram);
    shape_check(
        "measured optimum near the balance-equation solution",
        (best.0 - analytic).abs() <= 0.2,
        &format!(
            "measured l*={:.1}, balance equation (ops rates, h={h:.2}) l*={analytic:.2}",
            best.0
        ),
    );
    // The byte-bandwidth form the paper quotes (12.8 vs 13.2 GB/s) lands
    // lower; report it for reference.
    let paper_form = optimal_ratio_zipf(1.0 / 16.0, lines as f64, 12.8, 13.2);
    println!("(paper's byte-bandwidth form would give l*={paper_form:.2})\n");
    shape_check(
        "the hybrid beats both extremes",
        best.1 > series[0].1 && best.1 > series.last().unwrap().1,
        &format!(
            "l*={:.1} gives {:.1} vs l=0 {:.1} and l=1 {:.1} Mops",
            best.0,
            best.1,
            series[0].1,
            series.last().expect("swept").1
        ),
    );

    // --- 3. Ops in flight ---------------------------------------------------
    let point = Ycsb::new(16, 0.0, KeyDist::Uniform);
    let mut t = Table::new(
        "client ops in flight vs throughput (uniform 16 B GETs)",
        &["windows", "in flight", "Mops"],
    );
    let mut at = std::collections::BTreeMap::new();
    for windows in [1usize, 2, 4, 8, 16, 32, 64] {
        let r = point.run(engine(windows), 99).report;
        at.insert(windows * 40, r.mops);
        t.row(&[
            windows.to_string(),
            (windows * 40).to_string(),
            fmt_f(r.mops, 1),
        ]);
    }
    t.print();
    shape_check(
        "concurrency saturates the NIC, then throughput plateaus",
        at[&40] < at[&2560] * 0.25 && at[&1280] > at[&2560] * 0.95,
        &format!(
            "40→{:.1}, 640→{:.1}, 1280→{:.1}, 2560→{:.1} Mops",
            at[&40], at[&640], at[&1280], at[&2560]
        ),
    );
}
