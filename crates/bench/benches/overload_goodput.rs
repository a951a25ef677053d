//! Goodput vs offered load: the shed knee of the overload plane.
//!
//! The paper's closed-loop benchmarks cannot show overload — their
//! clients self-pace. This harness drives one pipeline *open-loop*,
//! sweeping offered load from well under saturation to 2.5x past it,
//! with the admission controller and deadlines enabled. The workload is
//! made deliberately PCIe-bound (non-inline 64 B values, dispatch ratio
//! 0, a corpus far past the reservation station) so shedding actually
//! relieves the bottleneck: a shed request costs a decode slot but no
//! DMA, which is what lets the controller's hysteresis cycle instead of
//! latching shut. The sweep deliberately stays under the 180 Mops
//! decode ceiling — past it the bottleneck moves to a stage shedding
//! cannot relieve and no controller can save goodput.
//!
//! Reported per offered rate: raw completions, goodput (useful, on-time
//! responses), sheds, expiries, peak pressure transitions. One extra row
//! repeats the 2x point with the overload plane *disabled* to show the
//! alternative: without shedding the queue grows without bound and
//! almost every response misses its deadline — the classic congestion
//! collapse the plane exists to prevent.
//!
//! Shape claims: goodput tracks offered load in the linear region, stays
//! ≥ 70% of saturation past the knee, the excess is visibly shed or
//! expired, and the no-plane comparison collapses below the planed run.

use kvd_bench::{banner, shape_check, Table, SCALED_MEMORY_BIG};
use kvd_core::system::{SystemSim, SystemSimConfig, SystemSimReport};
use kvd_core::{KvDirectConfig, OverloadConfig, RunSummary};
use kvd_net::KvRequest;
use kvd_sim::report::fmt_f;
use kvd_sim::{DetRng, SimTime};

const KEYS: u64 = 20_000;
const VAL_LEN: usize = 64;
const OPS: usize = 30_000;
const DEADLINE_SLACK_US: u32 = 50;
const SEED: u64 = 0x600D;

fn pipeline_cfg(overload: bool) -> SystemSimConfig {
    let mut store = KvDirectConfig::with_memory(SCALED_MEMORY_BIG);
    // Every data access crosses PCIe: the tag pool is the bottleneck.
    store.load_dispatch_ratio = 0.0;
    if overload {
        store.overload = OverloadConfig::enabled();
    }
    SystemSimConfig::paper(store, 16)
}

fn preloaded(overload: bool) -> SystemSim {
    let mut sim = SystemSim::new(pipeline_cfg(overload));
    for id in 0..KEYS {
        sim.store_mut()
            .put(&id.to_le_bytes(), &[id as u8; VAL_LEN])
            .expect("preload fits");
    }
    sim
}

fn requests(seed: u64) -> Vec<KvRequest> {
    let mut rng = DetRng::seed(seed);
    (0..OPS)
        .map(|_| {
            let id = rng.u64_below(KEYS);
            if rng.chance(0.1) {
                KvRequest::put(&id.to_le_bytes(), &[7u8; VAL_LEN])
            } else {
                KvRequest::get(&id.to_le_bytes())
            }
        })
        .collect()
}

/// Uniform open-loop schedule at `rate_mops` with per-request deadlines.
fn schedule(rate_mops: f64, seed: u64) -> Vec<(SimTime, KvRequest)> {
    let gap_ps = 1e6 / rate_mops;
    requests(seed)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let t = SimTime::from_ps((gap_ps * i as f64) as u64);
            let r = r.with_deadline(t.as_us() as u32 + DEADLINE_SLACK_US);
            (t, r)
        })
        .collect()
}

fn offer(rate_mops: f64, overload: bool) -> SystemSimReport {
    preloaded(overload).run_open(&schedule(rate_mops, SEED))
}

/// Formats the shared [`RunSummary`] the report embeds — the same
/// struct `ParallelSimReport` and `SystemSimReport` both deref to.
fn summary_cells(s: &RunSummary) -> [String; 4] {
    [
        fmt_f(s.goodput_mops, 1),
        fmt_f(s.mops, 1),
        s.shed_ops.to_string(),
        s.expired_ops.to_string(),
    ]
}

fn main() {
    banner(
        "Goodput vs offered load (open loop, PCIe-bound, 50us deadlines)",
        "goodput tracks offered load to the knee, then holds >= 70% of \
         saturation while the excess sheds; disabling the plane at 2x \
         collapses goodput to late answers",
    );

    // Saturation: the open-loop goodput plateau, probed by doubling the
    // offered rate until goodput stops following it. (A closed-loop
    // probe would overstate it: self-pacing clients never expose the
    // service backlog that open-loop admission reacts to.)
    let mut sat = 0.0f64;
    let mut probe = 40.0;
    loop {
        let g = offer(probe, true).goodput_mops;
        sat = sat.max(g);
        if g < probe * 0.9 || probe > 300.0 {
            break;
        }
        probe *= 2.0;
    }

    let mut t = Table::new(
        "open-loop sweep (rates in Mops; sat = open-loop goodput plateau)",
        &[
            "offered/sat",
            "offered",
            "goodput",
            "raw",
            "shed",
            "expired",
            "AC flips",
        ],
    );
    let mut peak_goodput = 0.0f64;
    let mut knee_goodput = f64::INFINITY;
    let mut linear_ok = true;
    let mut overload_dropped = 0u64;
    for mult in [0.25, 0.5, 1.0, 1.5, 2.0, 2.5] {
        let offered = sat * mult;
        let r = offer(offered, true);
        if mult <= 0.5 {
            linear_ok &= r.goodput_mops >= offered * 0.8;
        }
        if mult >= 1.5 {
            knee_goodput = knee_goodput.min(r.goodput_mops);
            overload_dropped += r.shed_ops + r.expired_ops;
        }
        peak_goodput = peak_goodput.max(r.goodput_mops);
        t.row(&[
            fmt_f(mult, 2),
            fmt_f(offered, 1),
            fmt_f(r.goodput_mops, 1),
            fmt_f(r.mops, 1),
            r.shed_ops.to_string(),
            r.expired_ops.to_string(),
            r.ledger.core.shed_transitions.to_string(),
        ]);
    }
    t.print();

    // The counterfactual: same 2x offered load, no overload plane.
    let planed = offer(sat * 2.0, true);
    let unplanned = offer(sat * 2.0, false);
    let mut c = Table::new(
        "2x offered load, with and without the overload plane",
        &["plane", "goodput", "raw", "shed", "expired"],
    );
    for (label, r) in [("enabled", &planed), ("disabled", &unplanned)] {
        let mut cells = vec![label.to_string()];
        cells.extend(summary_cells(&r.summary));
        c.row(&cells);
    }
    c.print();

    shape_check(
        "linear region: goodput tracks offered load",
        linear_ok,
        "offered <= 0.5x sat served within 20%",
    );
    shape_check(
        "knee holds: goodput >= 70% of saturation past it",
        knee_goodput >= 0.7 * sat,
        &format!(
            "worst post-knee goodput {} Mops vs sat {} Mops",
            fmt_f(knee_goodput, 1),
            fmt_f(sat, 1)
        ),
    );
    shape_check(
        "the excess is shed, not queued",
        overload_dropped > 0,
        &format!("{overload_dropped} ops shed/expired beyond the knee"),
    );
    shape_check(
        "without the plane, overload collapses goodput",
        unplanned.goodput_mops < 0.5 * planed.goodput_mops,
        &format!(
            "disabled {} Mops vs enabled {} Mops at 2x offered",
            fmt_f(unplanned.goodput_mops, 1),
            fmt_f(planed.goodput_mops, 1)
        ),
    );
}
