//! Throughput vs fault rate: graceful degradation under the deterministic
//! fault plane.
//!
//! The paper's hardware assumes a healthy PCIe link and ECC DRAM; this
//! harness measures what the reproduction loses when those assumptions
//! bend. One YCSB preset (10 B KVs, 50 % PUT, long-tail — the paper's
//! default benchmark point) is replayed at uniform fault pressures from 0
//! to 10 %. Reported per rate:
//!
//! * **goodput** — fraction of operations acknowledged `Ok` (the rest
//!   exhausted their DMA retry budget and returned `DeviceError`),
//! * **effective Mops** — goodput over the run's simulated makespan on the
//!   timed engine (`SystemSim`, `SATURATING_WINDOWS` client windows), so
//!   every retry, ECC refetch and rescue write-back costs the time it
//!   takes,
//! * fault-plane counters (retries per op, ECC corrected/uncorrectable).
//!
//! Shape claims: the zero-rate row reproduces the fault-free Figure 16
//! cell exactly; effective throughput decays monotonically-ish with the
//! fault rate but stays within 2× of fault-free even at 10 %; goodput
//! stays above 99 % (the retry budget absorbs almost everything).

use kvd_bench::{
    banner, fmt_f, shape_check, KeyDist, Table, Ycsb, SATURATING_WINDOWS, SCALED_MEMORY,
};
use kvd_core::system::SystemSimConfig;
use kvd_core::KvDirectConfig;
use kvd_sim::FaultRates;

const RATES: [f64; 5] = [0.0, 0.001, 0.01, 0.05, 0.1];

fn main() {
    banner(
        "Throughput vs fault rate (YCSB 10 B, 50% PUT, long-tail)",
        "retry + ECC recovery hold goodput ≈ 1 and throughput within 2× of \
         fault-free up to 10% uniform fault pressure; degradation is graceful, \
         never a panic or wrong answer",
    );

    let point = Ycsb::new(10, 0.5, KeyDist::Zipf);
    let mut t = Table::new(
        "effective throughput vs uniform fault rate",
        &[
            "fault rate",
            "goodput",
            "retries/op",
            "ECC corr",
            "ECC uncorr",
            "bypass",
            "eff Mops",
        ],
    );

    let mut baseline = 0.0f64;
    let mut worst = f64::INFINITY;
    let mut min_goodput = 1.0f64;
    for rate in RATES {
        let store = KvDirectConfig {
            fault_rates: FaultRates::uniform(rate),
            fault_seed: 26,
            ..KvDirectConfig::with_memory(SCALED_MEMORY)
        };
        let cfg = SystemSimConfig {
            windows: SATURATING_WINDOWS,
            ..SystemSimConfig::paper(store, 40)
        };
        let mut run = point.run(cfg, 26);
        let ecc = run.sim.store_mut().ecc_stats();
        let r = &run.report;
        let goodput = r.goodput_ops as f64 / r.ops as f64;
        let eff = r.goodput_mops;
        if rate == 0.0 {
            baseline = eff;
        }
        worst = worst.min(eff);
        min_goodput = min_goodput.min(goodput);
        t.row(&[
            format!("{rate}"),
            fmt_f(goodput, 4),
            fmt_f(r.ledger.pcie.retries as f64 / r.ops as f64, 4),
            ecc.corrected.to_string(),
            ecc.uncorrectable.to_string(),
            if ecc.bypassed { "TRIPPED" } else { "-" }.to_string(),
            fmt_f(eff, 1),
        ]);
    }
    t.print();

    shape_check(
        "zero-rate baseline is fault-free",
        baseline > 0.0,
        &format!(
            "rate 0 → {} Mops (Figure 16's 10 B / 50% PUT long-tail cell)",
            fmt_f(baseline, 1)
        ),
    );
    shape_check(
        "degradation stays graceful",
        worst >= baseline / 2.0,
        &format!(
            "worst {} Mops vs baseline {} Mops (≥ half)",
            fmt_f(worst, 1),
            fmt_f(baseline, 1)
        ),
    );
    shape_check(
        "retry budget preserves goodput",
        min_goodput > 0.99,
        &format!("min goodput {}", fmt_f(min_goodput, 4)),
    );
}
