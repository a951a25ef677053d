//! Figure 13: effectiveness of the out-of-order execution engine.
//!
//! Both arms are runs of the timed engine (`SystemSim`), 64 client windows
//! of 40 ops. With the engine, the reservation station serves dependent
//! operations by data forwarding, one per cycle; without it
//! (`StationConfig::forwarding` off) a same-key hazard stalls the decoder
//! until the source's data arrives.
//!
//! (a) atomics throughput vs number of keys: KV-Direct with/without OoO
//!     against one-sided and two-sided RDMA. The NIC DRAM cache is off
//!     (`load_dispatch_ratio` 0), so a stalled atomic waits out a PCIe
//!     round trip, as in the paper's 0.94 Mops;
//! (b) long-tail workload throughput vs PUT ratio, with/without OoO, at
//!     the default dispatch ratio.

use kvd_baselines::{OneSidedRdma, TwoSidedRdma};
use kvd_bench::{
    banner, fmt_f, shape_check, KeyDist, Table, Ycsb, SATURATING_WINDOWS, SCALED_MEMORY,
};
use kvd_core::system::{SystemSim, SystemSimConfig};
use kvd_core::{builtin, KvDirectConfig};
use kvd_net::{KvRequest, OpCode};
use kvd_sim::DetRng;

/// The engine with (`forwarding`) or without the out-of-order engine, at
/// load dispatch ratio `l`.
fn engine(forwarding: bool, l: f64) -> SystemSimConfig {
    let mut cfg = SystemSimConfig {
        windows: SATURATING_WINDOWS,
        ..SystemSimConfig::paper(KvDirectConfig::with_memory(SCALED_MEMORY), 40)
    };
    cfg.store.load_dispatch_ratio = l;
    cfg.store.station.forwarding = forwarding;
    cfg
}

/// Mops of 60 000 fetch-adds over `keys` uniform keys.
fn atomics(keys: u64, cfg: SystemSimConfig) -> f64 {
    let mut rng = DetRng::seed(keys);
    let reqs: Vec<KvRequest> = (0..60_000)
        .map(|_| KvRequest {
            op: OpCode::UpdateScalar,
            lambda: builtin::ADD,
            ..KvRequest::put(&rng.u64_below(keys).to_le_bytes(), &1u64.to_le_bytes())
        })
        .collect();
    SystemSim::new(cfg).run(&reqs).mops
}

fn main() {
    banner(
        "Figure 13: out-of-order execution engine",
        "single-key atomics: 0.94 Mops stalled → 180 Mops with OoO (191x); \
         without OoO, long-tail throughput decays as the PUT ratio grows",
    );

    let default_l = KvDirectConfig::with_memory(SCALED_MEMORY).load_dispatch_ratio;
    let one_sided = OneSidedRdma::model();
    let two_sided = TwoSidedRdma::model(16);

    // --- (a) atomics vs number of keys -----------------------------------
    let mut t = Table::new(
        "Figure 13a: atomics throughput (Mops) vs number of keys",
        &[
            "keys",
            "KV-D with OoO",
            "KV-D w/o OoO",
            "1-sided RDMA",
            "2-sided RDMA",
        ],
    );
    let rows = [1u64, 10, 100, 1_000, 10_000].map(|keys| {
        let with = atomics(keys, engine(true, 0.0));
        (keys, with, atomics(keys, engine(false, 0.0)))
    });
    for (keys, with, without) in rows {
        t.row(&[
            keys.to_string(),
            fmt_f(with, 2),
            fmt_f(without, 2),
            fmt_f(one_sided.atomics_mops(keys), 2),
            fmt_f(two_sided.atomics_mops(keys), 2),
        ]);
    }
    let (_, single_with, single_without) = rows[0];
    t.print();
    // At the default dispatch ratio the stalled key's bucket sits in NIC
    // DRAM, and each hazard waits out a DRAM access instead of a PCIe
    // round trip: why (a) runs at l = 0.
    println!(
        "single key w/o OoO at the default l = {default_l}: {} Mops\n",
        fmt_f(atomics(1, engine(false, default_l)), 2)
    );

    shape_check(
        "single-key no-OoO matches paper's 0.94 Mops",
        (0.7..1.2).contains(&single_without),
        &format!("{single_without:.2} Mops"),
    );
    shape_check(
        "single-key with OoO reaches the clock bound",
        single_with > 150.0,
        &format!("{single_with:.1} Mops (paper: 180)"),
    );
    shape_check(
        "OoO speedup is two orders of magnitude",
        single_with / single_without > 100.0,
        &format!("{:.0}x (paper: 191x)", single_with / single_without),
    );

    // --- (b) long-tail vs PUT ratio ---------------------------------------
    let mut t = Table::new(
        "Figure 13b: long-tail throughput (Mops) vs PUT ratio",
        &["PUT %", "with OoO", "without OoO"],
    );
    let mut without_series = Vec::new();
    for put_pct in [0u32, 20, 40, 60, 80, 100] {
        let point = Ycsb::new(16, put_pct as f64 / 100.0, KeyDist::Zipf);
        let seed = 77 + put_pct as u64;
        let yes = point.run(engine(true, default_l), seed).report.mops;
        let no = point.run(engine(false, default_l), seed).report.mops;
        without_series.push(no);
        t.row(&[put_pct.to_string(), fmt_f(yes, 1), fmt_f(no, 1)]);
    }
    t.print();

    shape_check(
        "no-OoO throughput decays with PUT ratio under long-tail",
        without_series.last().unwrap() < &(without_series[0] * 0.8),
        &format!(
            "0% PUT = {:.1} Mops → 100% PUT = {:.1} Mops",
            without_series[0],
            without_series.last().unwrap()
        ),
    );
}
