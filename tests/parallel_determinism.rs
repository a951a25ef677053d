//! Determinism regression for the parallel sharded engine.
//!
//! The multi-NIC simulation steps its shards on OS worker threads, one
//! window at a time, but its results must be a pure function of (config,
//! seed, request stream): each shard's evolution depends only on its own
//! state and the per-window `(horizon, floor)` pair, and the arbiter's
//! stall depends only on the aggregate line count — a sum of `u64`s the
//! window's rendezvous takes in shard order. These tests pin
//! that contract: a run is bit-identical for any worker count, for
//! repeated runs, and regardless of the test harness's own thread
//! scheduling (CI runs this suite under different `--test-threads`
//! values).

use kv_direct::parallel::{ParallelSimConfig, ParallelSimReport, ParallelSystemSim};
use kv_direct::sim::{Bandwidth, DetRng, SimTime};
use kv_direct::system::{SystemSim, SystemSimConfig, SystemSimReport};
use kv_direct::workloads::presets::{PresetWorkload, YcsbPreset};
use kv_direct::{
    ClusterSim, ClusterSimConfig, KvDirectConfig, KvRequest, NodeKill, OpClass, OpLedger, Status,
};
use proptest::prelude::*;

fn workload(n: usize, seed: u64) -> Vec<KvRequest> {
    let mut w = PresetWorkload::new(YcsbPreset::A, 5_000, 16, seed);
    w.batch(n)
}

/// A preloaded 10-shard engine with explicit scheduling knobs: the worker
/// count, which may not change any bit of a report, and the quantum — and
/// optionally a host bandwidth other than the paper's (a starved host
/// stalls every window).
fn engine(workers: usize, quantum: SimTime, bandwidth: Option<Bandwidth>) -> ParallelSystemSim {
    let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 24, 10);
    cfg.workers = workers;
    cfg.arbiter.quantum = quantum;
    if let Some(bandwidth) = bandwidth {
        cfg.arbiter.bandwidth = bandwidth;
    }
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..5_000u64 {
        sim.preload_put(&id.to_le_bytes(), &[id as u8; 16])
            .expect("preload fits");
    }
    sim
}

fn run_scheduled(workers: usize, quantum: SimTime, reqs: &[KvRequest]) -> ParallelSimReport {
    engine(workers, quantum, None).run(reqs)
}

fn run_with_workers(workers: usize, reqs: &[KvRequest]) -> ParallelSimReport {
    run_scheduled(workers, SimTime::from_us(8), reqs)
}

#[test]
fn worker_count_does_not_change_results() {
    let reqs = workload(12_000, 0xD371);
    let r1 = run_with_workers(1, &reqs);
    let r2 = run_with_workers(2, &reqs);
    let r8 = run_with_workers(8, &reqs);
    assert_eq!(r1.ops, 12_000);
    // Bit-identical: every field, including merged latency summaries
    // and arbiter counters.
    assert_eq!(r1, r2, "1 worker vs 2 workers diverged");
    assert_eq!(r1, r8, "1 worker vs 8 workers diverged");
}

#[test]
fn worker_quantum_matrix_is_bit_identical() {
    // The ISSUE 7 oracle: merged ledgers and `RunSummary` bit-identical
    // to the single-worker run for any worker count, at more than one
    // quantum.
    let reqs = workload(9_000, 0xD377);
    for quantum in [SimTime::from_us(4), SimTime::from_us(8)] {
        let baseline = run_scheduled(1, quantum, &reqs);
        assert_eq!(baseline.ops, 9_000);
        for workers in [1usize, 2, 8] {
            let r = run_scheduled(workers, quantum, &reqs);
            assert_eq!(
                baseline, r,
                "diverged at workers={workers} quantum={quantum:?}"
            );
        }
    }
}

#[test]
fn stalling_runs_are_schedule_invariant() {
    // Starve the host arbiter so windows oversubscribe and every floor
    // carries a stall: the stall feedback path (charge → floor → next
    // window's issue times → backpressure gauge) must itself be
    // schedule-independent, not just the zero-stall fast path.
    let reqs = workload(9_000, 0xD378);
    let starved = Some(Bandwidth::from_gbytes_per_sec(0.4));
    let starve = |workers| engine(workers, SimTime::from_us(8), starved).run(&reqs);
    let base = starve(1);
    assert!(
        base.arbiter.oversubscribed > 0 && base.arbiter.stall > SimTime::ZERO,
        "a 0.4 GB/s host must oversubscribe: {:?}",
        base.arbiter
    );
    for workers in [2usize, 8] {
        assert_eq!(
            base,
            starve(workers),
            "stalling run diverged at workers={workers}"
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let reqs = workload(6_000, 0xD372);
    let a = run_with_workers(0, &reqs); // auto worker count
    let b = run_with_workers(0, &reqs);
    assert_eq!(a, b, "same seed + config must reproduce exactly");
}

/// A faulty six-shard run: the merged report, and each shard's own.
fn run_faulty(workers: usize, reqs: &[KvRequest]) -> (ParallelSimReport, Vec<SystemSimReport>) {
    let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 24, 6);
    cfg.workers = workers;
    cfg.shard.store.fault_rates = kv_direct::FaultRates::uniform(0.02);
    cfg.shard.store.fault_seed = 0xFA_17;
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..5_000u64 {
        sim.preload_put(&id.to_le_bytes(), &[id as u8; 16])
            .expect("preload fits");
    }
    let merged = sim.run(reqs);
    (merged, (0..6).map(|i| sim.shard_report(i)).collect())
}

#[test]
fn fault_counters_bit_identical_across_worker_counts() {
    // Faults fork per shard from the store seed, so the schedule is part
    // of the (config, seed, stream) function and must not care how
    // shards map onto OS threads. The compared pairs cover the merged
    // ledger's fault channels and every per-shard ledger's.
    let reqs = workload(9_000, 0xD375);
    let r1 = run_faulty(1, &reqs);
    let r2 = run_faulty(2, &reqs);
    let r8 = run_faulty(8, &reqs);
    assert!(
        r1.0.ledger.total_faults() > 0,
        "2% uniform rates over 9k ops must inject"
    );
    let per_shard = &r1.1;
    assert!(
        per_shard
            .iter()
            .any(|s| s.ledger.total_faults() != per_shard[0].ledger.total_faults()),
        "per-shard schedules should be decorrelated"
    );
    assert_eq!(r1, r2, "fault schedule diverged between 1 and 2 workers");
    assert_eq!(r1, r8, "fault schedule diverged between 1 and 8 workers");
}

/// A run with the full adaptive cache plane on: per-shard frequency
/// sketch, TinyLFU fill admission, online dispatch retuning and the
/// hot-key-aware overload gate — every seeded, stateful piece the
/// ISSUE 10 plane added.
fn run_adaptive(workers: usize, reqs: &[KvRequest]) -> ParallelSimReport {
    let mut store = KvDirectConfig::with_memory(1 << 20);
    let mut adaptive = kv_direct::mem::AdaptiveCacheConfig::data_path(0xADA7);
    // Small epochs so the retune loop actually fires within the run.
    adaptive.epoch_accesses = 512;
    store.adaptive_cache = Some(adaptive);
    store.overload = kv_direct::OverloadConfig::hot_key_aware();
    let mut cfg = ParallelSimConfig::paper(store, 24, 10);
    cfg.workers = workers;
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..5_000u64 {
        sim.preload_put(&id.to_le_bytes(), &[id as u8; 16])
            .expect("preload fits");
    }
    sim.run(reqs)
}

#[test]
fn adaptive_cache_plane_bit_identical_across_worker_counts() {
    // The sketch samples, the admission filter consults it, the retune
    // loop moves each shard's dispatch ratio — all of it per-shard
    // seeded state, so the report (merged ledger included) must stay a
    // pure function of (config, seed, stream) under an adversarial
    // moving-hot-set Zipf 1.2 mix.
    let mut w = kv_direct::workloads::ZipfHotWorkload::new(kv_direct::workloads::ZipfHotSpec {
        n_keys: 5_000,
        theta: 1.2,
        kv_size: 24,
        put_ratio: 0.3,
        shift_every: 3_000,
        seed: 0xD379,
    });
    let reqs = w.batch(9_000);
    let r1 = run_adaptive(1, &reqs);
    let r2 = run_adaptive(2, &reqs);
    let r8 = run_adaptive(8, &reqs);
    assert!(
        r1.ledger.cache.sketch_samples > 0,
        "the sketch must sample: {:?}",
        r1.ledger.cache
    );
    assert!(
        r1.ledger.cache.admitted_fills + r1.ledger.cache.rejected_fills > 0,
        "the admission filter must decide fills: {:?}",
        r1.ledger.cache
    );
    assert_eq!(r1, r2, "adaptive plane diverged between 1 and 2 workers");
    assert_eq!(r1, r8, "adaptive plane diverged between 1 and 8 workers");
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the equality above is meaningful: the engine is
    // sensitive to its inputs, so identical reports cannot come from a
    // constant function.
    let ra = run_with_workers(1, &workload(6_000, 0xD373));
    let rb = run_with_workers(1, &workload(6_000, 0xD374));
    assert_ne!(ra, rb, "distinct workloads should not collide bit-for-bit");
}

#[test]
fn worker_count_does_not_change_merged_ledger() {
    // The explicit tentpole invariant, separate from whole-report
    // equality: the shard-order ledger fold is bit-identical for any
    // worker count, on a fig18-shaped run and on a faulty one.
    let reqs = workload(9_000, 0xD376);
    let (c1, c8) = (run_with_workers(1, &reqs), run_with_workers(8, &reqs));
    assert_eq!(c1.ledger, c8.ledger, "fig18-shaped merged ledger diverged");
    let (f1, f8) = (run_faulty(1, &reqs).0, run_faulty(8, &reqs).0);
    assert_eq!(f1.ledger, f8.ledger, "faulty merged ledger diverged");
    assert!(f1.ledger.total_faults() > 0, "faults must fire");
    // The merged ledger is exactly the shard-order fold of the per-shard
    // slices: re-deriving it from a fresh sequential run agrees.
    let total: u64 = OpClass::ALL.iter().map(|&c| f1.ledger.latency.ops(c)).sum();
    assert!(total > 0, "latency attribution must record answered ops");
}

/// What one engine produced over three runs in a row — closed loop, open
/// loop, closed loop, each on its own stream: every report, and every
/// shard's recorded outcomes after each run.
#[derive(Debug, PartialEq)]
struct Reused {
    reports: Vec<ParallelSimReport>,
    /// Indexed by run, then by shard.
    outcomes: Vec<Vec<ShardOutcomes>>,
}

type ShardOutcomes = Vec<(Status, Vec<u8>)>;

fn run_reused(workers: usize, quantum: SimTime, bandwidth: Option<Bandwidth>) -> Reused {
    let mut sim = engine(workers, quantum, bandwidth);
    sim.set_record_outcomes(true);
    // 20 Mops offered over ten shards: under capacity, so the open-loop
    // run is paced by its schedule, not by the clocks the first run left.
    let open: Vec<(SimTime, KvRequest)> = workload(4_000, 0xD37B)
        .into_iter()
        .enumerate()
        .map(|(i, r)| (SimTime::from_ns(50 * i as u64), r))
        .collect();
    let mut out = Reused {
        reports: Vec::new(),
        outcomes: Vec::new(),
    };
    for nth in 0..3 {
        let r = match nth {
            0 => sim.run(&workload(12_000, 0xD37A)),
            1 => sim.run_open(&open),
            _ => sim.run(&workload(12_000, 0xD37C)),
        };
        out.outcomes.push(
            (0..r.shards)
                .map(|i| sim.shard_outcomes(i).to_vec())
                .collect(),
        );
        out.reports.push(r);
    }
    out
}

/// FNV-1a digest of a value's `Debug` form.
fn debug_digest(v: &impl std::fmt::Debug) -> u64 {
    format!("{v:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The report of a run in one line: the summary and the arbiter's charge
/// counters spelled out, the merged ledger as an FNV-1a digest of its
/// `Debug` form.
fn fingerprint(r: &ParallelSimReport) -> String {
    let digest = debug_digest(&r.ledger);
    format!(
        "{:?} | windows {} oversubscribed {} lines {} stall {:?} | ledger {digest:#018x}",
        r.summary, r.arbiter.windows, r.arbiter.oversubscribed, r.arbiter.lines, r.arbiter.stall
    )
}

/// First-run fingerprints of [`run_reused`] recorded on `ece0ff7`, before
/// runs had an origin: on a fresh engine the origin is zero and nothing
/// may move.
///
/// Re-recorded once when the engine began running each packet through one
/// `KvProcessor::run`, as the server runs a bundle: a dirty forwarding
/// entry is written back once per batch and off every op's critical path,
/// and an op served by forwarding completes no earlier than its slot's
/// data.
const GOLDEN_FRESH_Q4: &str = "RunSummary { ops: 12000, elapsed: 38.989us, mops: 307.7768674137009, goodput_ops: 12000, goodput_mops: 307.7768674137009, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 6021, mean: 3377152.2755356254, min: 2213144, p5: 2326528, p50: 3407872, p95: 4456448, p99: 5111808, max: 5375788 }, put_latency: Summary { count: 5979, mean: 3374505.2008697107, min: 2207059, p5: 2359296, p50: 3407872, p95: 4456448, p99: 5177344, max: 5359671 } } | windows 10 oversubscribed 0 lines 4147 stall 0ns | ledger 0xba3d9e5488bf82aa";
const GOLDEN_FRESH_Q8: &str = "RunSummary { ops: 12000, elapsed: 38.989us, mops: 307.7768674137009, goodput_ops: 12000, goodput_mops: 307.7768674137009, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 6021, mean: 3377152.2755356254, min: 2213144, p5: 2326528, p50: 3407872, p95: 4456448, p99: 5111808, max: 5375788 }, put_latency: Summary { count: 5979, mean: 3374505.2008697107, min: 2207059, p5: 2359296, p50: 3407872, p95: 4456448, p99: 5177344, max: 5359671 } } | windows 5 oversubscribed 0 lines 4147 stall 0ns | ledger 0xa5e0e327e6b5bc16";
const GOLDEN_FRESH_STARVED: &str = "RunSummary { ops: 12000, elapsed: 664.846us, mops: 18.04928230187551, goodput_ops: 12000, goodput_mops: 18.04928230187551, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 6021, mean: 3479875.102142501, min: 2169333, p5: 2359296, p50: 3506176, p95: 4521984, p99: 5111808, max: 5375788 }, put_latency: Summary { count: 5979, mean: 3482029.2483692924, min: 2131825, p5: 2359296, p50: 3506176, p95: 4521984, p99: 5177344, max: 5359671 } } | windows 5 oversubscribed 4 lines 4147 stall 630.240us | ledger 0x7f2b11df764349b0";

/// The open-loop second run and the closed-loop third run of
/// [`run_reused`], with a digest of every shard's outcomes, recorded on
/// `0b0af86`: an open-loop run against clocks a closed-loop run left, and
/// a closed-loop origin taken from clocks an open-loop run left. Re-recorded
/// with [`GOLDEN_FRESH_Q4`].
const GOLDEN_LATER_Q4: [&str; 2] = ["RunSummary { ops: 4000, elapsed: 203.171us, mops: 19.68789440543526, goodput_ops: 4000, goodput_mops: 19.68789440543526, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 1945, mean: 9501903.1907455, min: 2318212, p5: 2916352, p50: 8257536, p95: 19398656, p99: 29884416, max: 39109763 }, put_latency: Summary { count: 2055, mean: 9581397.854987834, min: 2225209, p5: 3047424, p50: 8257536, p95: 19922944, p99: 28573696, max: 38956945 } } | windows 60 oversubscribed 0 lines 5575 stall 0ns | ledger 0x59465cc704ad778a | outcomes 0xc2c60cc15aa995e8", "RunSummary { ops: 12000, elapsed: 37.280us, mops: 321.8917535436862, goodput_ops: 12000, goodput_mops: 321.8917535436862, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 5963, mean: 3336896.44289787, min: 2298360, p5: 2326528, p50: 3407872, p95: 4259840, p99: 4653056, max: 5376004 }, put_latency: Summary { count: 6037, mean: 3343348.30810005, min: 2308254, p5: 2326528, p50: 3407872, p95: 4259840, p99: 4718592, max: 5380020 } } | windows 69 oversubscribed 0 lines 9804 stall 0ns | ledger 0x57e6f8ee5470aaa2 | outcomes 0x7d890fad1066d8d5"];
const GOLDEN_LATER_Q8: [&str; 2] = ["RunSummary { ops: 4000, elapsed: 203.171us, mops: 19.68789440543526, goodput_ops: 4000, goodput_mops: 19.68789440543526, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 1945, mean: 9501903.1907455, min: 2318212, p5: 2916352, p50: 8257536, p95: 19398656, p99: 29884416, max: 39109763 }, put_latency: Summary { count: 2055, mean: 9581397.854987834, min: 2225209, p5: 3047424, p50: 8257536, p95: 19922944, p99: 28573696, max: 38956945 } } | windows 30 oversubscribed 0 lines 5575 stall 0ns | ledger 0x68d607b46188a576 | outcomes 0xc2c60cc15aa995e8", "RunSummary { ops: 12000, elapsed: 37.280us, mops: 321.8917535436862, goodput_ops: 12000, goodput_mops: 321.8917535436862, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 5963, mean: 3336896.44289787, min: 2298360, p5: 2326528, p50: 3407872, p95: 4259840, p99: 4653056, max: 5376004 }, put_latency: Summary { count: 6037, mean: 3343348.30810005, min: 2308254, p5: 2326528, p50: 3407872, p95: 4259840, p99: 4718592, max: 5380020 } } | windows 35 oversubscribed 0 lines 9804 stall 0ns | ledger 0x2bb450621102225e | outcomes 0x7d890fad1066d8d5"];
const GOLDEN_LATER_STARVED: [&str; 2] = ["RunSummary { ops: 4000, elapsed: 669.505us, mops: 5.974559753997024, goodput_ops: 4000, goodput_mops: 5.974559753997024, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 1945, mean: 385356377.42879176, min: 124733906, p5: 146800640, p50: 415236096, p95: 612368384, p99: 654311424, max: 664959350 }, put_latency: Summary { count: 2055, mean: 385182434.39318734, min: 124739961, p5: 148897792, p50: 415236096, p95: 603979776, p99: 645922816, max: 664806532 } } | windows 19 oversubscribed 16 lines 5575 stall 753.600us | ledger 0x040136bdd6a0400e | outcomes 0xc2c60cc15aa995e8", "RunSummary { ops: 12000, elapsed: 664.284us, mops: 18.064557471617338, goodput_ops: 12000, goodput_mops: 18.064557471617338, shed_ops: 0, expired_ops: 0, get_latency: Summary { count: 5963, mean: 3436642.4801274524, min: 2169380, p5: 2326528, p50: 3473408, p95: 4456448, p99: 5111808, max: 5376004 }, put_latency: Summary { count: 6037, mean: 3434927.7919496438, min: 2179274, p5: 2326528, p50: 3440640, p95: 4456448, p99: 5177344, max: 5380020 } } | windows 23 oversubscribed 20 lines 9804 stall 1.398ms | ledger 0x867d2cc5c16e162c | outcomes 0x7d890fad1066d8d5"];

#[test]
fn a_reused_engine_is_schedule_invariant_and_starts_like_a_fresh_one() {
    // Reuse is where the run origin matters: the second closed-loop run
    // starts where the slowest shard's clocks stand, which must itself be
    // a pure function of the streams — and the open-loop run in between
    // starts at zero against clocks that do not.
    let starved = Some(Bandwidth::from_gbytes_per_sec(0.4));
    for (quantum, bandwidth, golden, later) in [
        (SimTime::from_us(4), None, GOLDEN_FRESH_Q4, GOLDEN_LATER_Q4),
        (SimTime::from_us(8), None, GOLDEN_FRESH_Q8, GOLDEN_LATER_Q8),
        (
            SimTime::from_us(8),
            starved,
            GOLDEN_FRESH_STARVED,
            GOLDEN_LATER_STARVED,
        ),
    ] {
        let base = run_reused(1, quantum, bandwidth);
        assert_eq!(
            fingerprint(&base.reports[0]),
            golden,
            "first run on a fresh engine moved (quantum={quantum:?})"
        );
        for (nth, golden) in [(1, later[0]), (2, later[1])] {
            assert_eq!(
                format!(
                    "{} | outcomes {:#018x}",
                    fingerprint(&base.reports[nth]),
                    debug_digest(&base.outcomes[nth])
                ),
                golden,
                "run {nth} on a reused engine moved (quantum={quantum:?})"
            );
        }
        for r in &base.reports {
            assert!(r.ops >= 4_000 && r.elapsed > SimTime::ZERO);
        }
        if bandwidth.is_some() {
            let last = &base.reports[2].arbiter;
            assert!(
                last.oversubscribed > 0 && last.stall > SimTime::ZERO,
                "a 0.4 GB/s host must oversubscribe: {last:?}"
            );
        }
        for workers in [1usize, 2, 8] {
            let r = run_reused(workers, quantum, bandwidth);
            assert!(
                base == r,
                "reused engine diverged at workers={workers} quantum={quantum:?} starved={}",
                bandwidth.is_some()
            );
        }
    }
}

/// An open-loop schedule that exercises every way a request resolves:
/// YCSB-A at 200 Mops offered (5 ns apart: past one pipeline's decode
/// rate, under ten shards'), every seventh request under a deadline about
/// 3 µs out and every eleventh under one at most 1 µs out — below the
/// network round trip, so those die at the client's batch cut or at the
/// server's decode clock while the others are answered late or shed.
fn open_schedule(n: usize, seed: u64) -> Vec<(SimTime, KvRequest)> {
    workload(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let t = SimTime::from_ns(5 * i as u64);
            let r = match (i % 7, i % 11) {
                (0, _) => r.with_deadline(t.as_us() as u32 + 3),
                (_, 0) => r.with_deadline(t.as_us() as u32 + 1),
                _ => r,
            };
            (t, r)
        })
        .collect()
}

/// Open-loop fingerprints. Everything but the `report` digests was
/// recorded on `0b0af86`, while `run_open` still staged owned copies of the
/// schedule (`load_open`, per-shard `Vec`s) and stepped them with `step` /
/// `step_window`. The `report` digests were re-recorded on `b257b7d`, over
/// the parts of a report that outlive its `overload` / `faults` views:
/// summary and ledger, and for the sharded engine the shard count and the
/// arbiter's counters.
///
/// Re-recorded once when the engine began running each packet through one
/// `KvProcessor::run`, as the server runs a bundle: a dirty forwarding
/// entry is written back once per batch and off every op's critical path,
/// and an op served by forwarding completes no earlier than its slot's
/// data.
const GOLDEN_SEQ_OPEN: &str = "RunSummary { ops: 6000, elapsed: 35.464us, mops: 169.18458444205632, goodput_ops: 766, goodput_mops: 21.599231947102524, shed_ops: 4127, expired_ops: 966, get_latency: Summary { count: 466, mean: 6205088.572961373, min: 4732284, p5: 4849664, p50: 6160384, p95: 7274496, p99: 7405568, max: 7456936 }, put_latency: Summary { count: 441, mean: 6204030.80952381, min: 4766681, p5: 4849664, p50: 6225920, p95: 7274496, p99: 7405568, max: 7453248 } } | report 0xa40baf6d7fb1d7a6 | outcomes 0x127f097faf3ee02a";
const GOLDEN_PAR_OPEN_Q4: &str = "RunSummary { ops: 6000, elapsed: 33.377us, mops: 179.7668890842489, goodput_ops: 4750, goodput_mops: 142.31545385836372, shed_ops: 0, expired_ops: 525, get_latency: Summary { count: 2756, mean: 3527174.630986938, min: 2170481, p5: 2424832, p50: 3506176, p95: 4718592, p99: 5242880, max: 6046607 }, put_latency: Summary { count: 2719, mean: 3528535.5936005884, min: 2132611, p5: 2457600, p50: 3506176, p95: 4718592, p99: 5111808, max: 5986431 } } | windows 8 oversubscribed 0 lines 1953 stall 0ns | ledger 0x5c7515a2e5b6e30e | report 0x3976d23587adaa0a | outcomes [0xfc91366216149e17, 0x81f1d18cff33e38e, 0x8ca6a4e28a03568f, 0x82b3792fc9216273, 0xfb47ad28c0d53e4e, 0x2874aaf6b9643f39, 0x7b6389e3f4a78906, 0xb0b30063648ea2ae, 0x4320dfcf73947977, 0x33dc702143efd407]";
const GOLDEN_PAR_OPEN_Q8: &str = "RunSummary { ops: 6000, elapsed: 33.377us, mops: 179.7668890842489, goodput_ops: 4750, goodput_mops: 142.31545385836372, shed_ops: 0, expired_ops: 525, get_latency: Summary { count: 2756, mean: 3527174.630986938, min: 2170481, p5: 2424832, p50: 3506176, p95: 4718592, p99: 5242880, max: 6046607 }, put_latency: Summary { count: 2719, mean: 3528535.5936005884, min: 2132611, p5: 2457600, p50: 3506176, p95: 4718592, p99: 5111808, max: 5986431 } } | windows 4 oversubscribed 0 lines 1953 stall 0ns | ledger 0x23903c58d4318b52 | report 0xfa664c63b2b27e9a | outcomes [0xfc91366216149e17, 0x81f1d18cff33e38e, 0x8ca6a4e28a03568f, 0x82b3792fc9216273, 0xfb47ad28c0d53e4e, 0x2874aaf6b9643f39, 0x7b6389e3f4a78906, 0xb0b30063648ea2ae, 0x4320dfcf73947977, 0x33dc702143efd407]";

#[test]
fn open_loop_runs_reproduce_their_recorded_fingerprints() {
    let sched = open_schedule(6_000, 0xD37D);

    // One pipeline: summary, ledger, and every recorded outcome.
    let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 24);
    cfg.store.overload = kv_direct::OverloadConfig::enabled();
    let mut seq = SystemSim::new(cfg);
    for id in 0..5_000u64 {
        seq.store_mut()
            .put(&id.to_le_bytes(), &[id as u8; 16])
            .expect("preload fits");
    }
    seq.set_record_outcomes(true);
    let r = seq.run_open(&sched);
    assert!(
        r.expired_ops > 0 && r.goodput_ops > 0,
        "the schedule must both expire and answer: {:?}",
        r.summary
    );
    assert_eq!(
        format!(
            "{:?} | report {:#018x} | outcomes {:#018x}",
            r.summary,
            debug_digest(&(&r.summary, &r.ledger)),
            debug_digest(&seq.outcomes())
        ),
        GOLDEN_SEQ_OPEN,
        "SystemSim::run_open moved"
    );

    // Ten shards: the summary, the arbiter, the merged ledger and every
    // shard's outcomes, the same for either worker count.
    for (quantum, golden) in [
        (SimTime::from_us(4), GOLDEN_PAR_OPEN_Q4),
        (SimTime::from_us(8), GOLDEN_PAR_OPEN_Q8),
    ] {
        for workers in [1usize, 2] {
            let mut par = engine(workers, quantum, None);
            par.set_record_outcomes(true);
            let r = par.run_open(&sched);
            let shards: Vec<String> = (0..r.shards)
                .map(|i| format!("{:#018x}", debug_digest(&par.shard_outcomes(i))))
                .collect();
            assert_eq!(
                format!(
                    "{} | report {:#018x} | outcomes [{}]",
                    fingerprint(&r),
                    debug_digest(&(r.shards, &r.summary, &r.ledger, &r.arbiter)),
                    shards.join(", ")
                ),
                golden,
                "ParallelSystemSim::run_open moved (workers={workers} quantum={quantum:?})"
            );
        }
    }
}

/// An RF2 cluster run across a node kill, recorded on `0b0af86`, while
/// members were fed through `feed_open` and stepped with `step_window`.
/// Only the ledger digest was re-recorded, with [`GOLDEN_SEQ_OPEN`]: the
/// station's counters moved (one write-back per batch).
const GOLDEN_CLUSTER_RF2_KILL: &str = "ops 324 elapsed 430.000us windows 215 kill Some(40) detect Some(51) | writes Summary { count: 159, mean: 10462995.220125787, min: 184000, p5: 1818624, p50: 11927552, p95: 24903680, p99: 32768000, max: 32993680 } | reads Summary { count: 165, mean: 1594230.303030303, min: 11000, p5: 79872, p50: 925696, p95: 1982464, p99: 19398656, max: 23001000 } | ClusterCosts { rep_frames: 621, rep_bytes: 10809, rep_acks: 117, rep_retries: 10, heartbeats: 384, hb_bytes: 4992, node_kills: 1, failovers: 1, promotions: 1, orphan_redrives: 0, client_retries: 3, hedged_reads: 8, writes_acked: 159, writes_failed: 0, failover_depth_windows: 11 } | ledger 0x1be56a6b2ca4c473 | records 0x98926986a8d9e588";

#[test]
fn a_cluster_node_kill_run_reproduces_its_recorded_fingerprint() {
    // Writes and reads over 24 keys from before the kill (window 40 of
    // 2 µs) until after detection, then a read-back of every key.
    let mut rng = DetRng::seed(0xC1A5);
    let mut sched = Vec::new();
    let mut t = SimTime::ZERO;
    for i in 0..300u64 {
        t += SimTime::from_ns(300 + rng.u64_below(200));
        let key = rng.u64_below(24).to_le_bytes();
        sched.push((
            t,
            match rng.u64_below(10) {
                0..=4 => KvRequest::get(&key),
                5..=8 => KvRequest::put(&key, &i.to_le_bytes()),
                _ => KvRequest::delete(&key),
            },
        ));
    }
    t += SimTime::from_us(300);
    for id in 0..24u64 {
        sched.push((t, KvRequest::get(&id.to_le_bytes())));
        t += SimTime::from_ns(400);
    }
    for workers in [1usize, 2] {
        let mut cfg = ClusterSimConfig::smoke(4, 2);
        cfg.workers = workers;
        cfg.kill = Some(NodeKill {
            node: 1,
            window: 40,
        });
        let r = ClusterSim::new(cfg).run(&sched);
        assert!(r.detect_window.is_some(), "the kill must be detected");
        assert_eq!(
            format!(
                "ops {} elapsed {:?} windows {} kill {:?} detect {:?} | writes {:?} | reads {:?} \
                 | {:?} | ledger {:#018x} | records {:#018x}",
                r.ops,
                r.elapsed,
                r.windows,
                r.kill_window,
                r.detect_window,
                r.write_hist.summary(),
                r.read_hist.summary(),
                r.ledger.cluster,
                debug_digest(&r.ledger),
                debug_digest(&r.records)
            ),
            GOLDEN_CLUSTER_RF2_KILL,
            "ClusterSim::run moved (workers={workers})"
        );
    }
}

/// A ledger with every counter (and gauge) populated from `seed` —
/// random enough that a non-associative merge would be caught.
fn random_ledger(seed: u64) -> OpLedger {
    let mut rng = DetRng::seed(seed);
    let mut l = OpLedger::default();
    macro_rules! fill {
        ($($f:expr),+ $(,)?) => { $( $f = rng.u64_below(1 << 16); )+ };
    }
    fill!(
        l.net.packets,
        l.net.payload_bytes,
        l.net.retransmits,
        l.net.drops,
        l.net.reorders,
        l.net.batches,
        l.net.batch_ops,
        l.net.client_expired,
        l.pcie.dma_reads,
        l.pcie.dma_writes,
        l.pcie.read_bytes,
        l.pcie.write_bytes,
        l.pcie.tag_stalls,
        l.pcie.credit_stalls,
        l.pcie.corruptions,
        l.pcie.replays,
        l.pcie.timeouts,
        l.pcie.retries,
        l.pcie.exhausted,
        l.dram.reads,
        l.dram.writes,
        l.dram.cache_hits,
        l.dram.cache_misses,
        l.dram.corrected,
        l.dram.uncorrectable,
        l.dram.host_stalls,
        l.dram.refetches,
        l.dram.rescue_writebacks,
        l.station.forwarded,
        l.station.issued,
        l.station.queued,
        l.station.writebacks,
        l.station.rejected,
        l.station.reclaimed,
        l.station.high_water,
        l.slab.allocs,
        l.slab.frees,
        l.slab.failed_allocs,
        l.slab.dma_syncs,
        l.slab.entries_synced,
        l.slab.splits,
        l.slab.merges,
        l.slab.merge_passes,
        l.core.requests,
        l.core.reads,
        l.core.puts,
        l.core.deletes,
        l.core.updates,
        l.core.invalid,
        l.core.oom,
        l.core.writeback_failures,
        l.core.fault_retries,
        l.core.device_errors,
        l.core.admitted,
        l.core.shed_overload,
        l.core.shed_expired,
        l.core.shed_read_only,
        l.core.read_only_entries,
        l.core.read_only_exits,
        l.core.shed_transitions,
        l.core.retired_ok,
        l.core.retired_not_found,
        l.core.retired_failed,
        l.cache.sketch_samples,
        l.cache.admitted_fills,
        l.cache.rejected_fills,
        l.cache.evict_clean,
        l.cache.evict_dirty,
        l.cache.conflict_fills,
        l.cache.retune_steps,
        l.cache.demoted_lines,
        l.cache.hot_key_sheds,
        l.pressure.station_backlog_ps,
        l.pressure.station_cap_ps,
        l.pressure.tag_backlog_ps,
        l.pressure.tag_cap_ps,
        l.pressure.stall_ps,
        l.pressure.quantum_ps,
    );
    for class in OpClass::ALL {
        for _ in 0..rng.u64_below(4) {
            l.latency.record(
                class,
                [
                    rng.u64_below(1 << 16),
                    rng.u64_below(1 << 16),
                    rng.u64_below(1 << 16),
                    rng.u64_below(1 << 16),
                ],
            );
        }
    }
    l
}

fn merged(a: &OpLedger, b: &OpLedger) -> OpLedger {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merge is associative: the shard fold can be parenthesized any way
    /// a worker partition induces without changing the result.
    #[test]
    fn ledger_merge_is_associative(sa in 0u64..1 << 48, sb in 0u64..1 << 48, sc in 0u64..1 << 48) {
        let (a, b, c) = (random_ledger(sa), random_ledger(sb), random_ledger(sc));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// Merge is commutative with identity zero: shard order is a
    /// convention, not a correctness requirement.
    #[test]
    fn ledger_merge_is_commutative_with_identity(sa in 0u64..1 << 48, sb in 0u64..1 << 48) {
        let (a, b) = (random_ledger(sa), random_ledger(sb));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(merged(&a, &OpLedger::default()), a);
    }
}
