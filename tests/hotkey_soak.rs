//! Hot-key soak: the adversarial Zipf-1.2 mix against the hot-key-aware
//! adaptive cache plane.
//!
//! An open-loop client offers ~4x on average the closed-loop throughput
//! of a bursty (1.4x–17x phase swings) Zipf-1.2 stream whose hot set
//! shifts wholesale at the midpoint — the workload the ROADMAP's hot-key open item names as the
//! collapse case for the paper's static policies.
//! The engine runs with the full adaptive plane: frequency sketch,
//! TinyLFU admission, online retune, and the heavy-hitter rollup wired
//! into admission control. Three invariant families are enforced:
//!
//! 1. **Per-hot-key shedding** — overload sheds concentrate on the keys
//!    that earn them: the shed *rate* of the traffic-heaviest keys
//!    strictly exceeds the spread traffic's shed rate, and at least one
//!    shed is attributed to the hot-key carve-out
//!    (`CacheCosts::hot_key_sheds`).
//! 2. **Goodput holds** — at ~4x offered load the engine keeps serving:
//!    goodput stays at or above 60% of the closed-loop saturation
//!    throughput instead of collapsing under the celebrity keys.
//! 3. **Determinism** — sketch sampling, admission, retuning and
//!    shedding included, the merged report is bit-identical across
//!    worker counts for a fixed seed.

use std::collections::HashMap;

use kv_direct::net::shard_of;
use kv_direct::parallel::{ParallelSimConfig, ParallelSimReport, ParallelSystemSim};
use kv_direct::sim::SimTime;
use kv_direct::workloads::{ZipfHotSpec, ZipfHotWorkload};
use kv_direct::{ChaosSchedule, KvDirectConfig, KvRequest, Status};

const SHARDS: usize = 4;
const KEYS: u64 = 2_000;
const OPS: usize = 12_000;
const DEADLINE_SLACK_US: u32 = 2_000;
const SEED: u64 = 0x507E;

/// The adversarial stream: Zipf 1.2 over 2k keys, 20% PUTs, the whole
/// hot set re-scrambled at the midpoint.
fn soak_ops() -> Vec<KvRequest> {
    let mut w = ZipfHotWorkload::new(ZipfHotSpec {
        n_keys: KEYS,
        theta: 1.2,
        kv_size: 24,
        put_ratio: 0.2,
        shift_every: (OPS / 2) as u64,
        seed: SEED,
    });
    w.batch(OPS)
}

fn engine(workers: usize) -> ParallelSystemSim {
    let mut store = KvDirectConfig::with_memory(1 << 20);
    let mut adaptive = kv_direct::mem::AdaptiveCacheConfig::data_path(SEED);
    // Small epochs so the retune loop fires well within the soak.
    adaptive.epoch_accesses = 512;
    store.adaptive_cache = Some(adaptive);
    store.overload = kv_direct::OverloadConfig::hot_key_aware();
    let mut cfg = ParallelSimConfig::paper(store, 16, SHARDS);
    cfg.workers = workers;
    cfg.seed = SEED;
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..KEYS {
        sim.preload_put(&id.to_le_bytes(), &[id as u8; 16])
            .expect("preload fits");
    }
    sim
}

/// Closed-loop saturation throughput of the same engine geometry — the
/// baseline the soak's goodput is measured against.
fn saturation_mops() -> f64 {
    engine(2).run(&soak_ops()).mops
}

/// Bursty open-loop schedule delivering `offered_mops` on average.
fn soak_schedule(offered_mops: f64) -> Vec<(SimTime, KvRequest)> {
    let mut chaos = ChaosSchedule::new(offered_mops * 1e6, SEED ^ 0xB0057);
    chaos
        .arrivals(OPS)
        .into_iter()
        .zip(soak_ops())
        .map(|(t, mut r)| {
            r = r.with_deadline(t.as_us() as u32 + DEADLINE_SLACK_US);
            (t, r)
        })
        .collect()
}

/// Recorded per-shard outcome streams: `(status, value)` per routed op.
type OutcomeStreams = Vec<Vec<(Status, Vec<u8>)>>;

fn run_soak(workers: usize, offered_mops: f64) -> (ParallelSimReport, OutcomeStreams) {
    let mut sim = engine(workers);
    sim.set_record_outcomes(true);
    let report = sim.run_open(&soak_schedule(offered_mops));
    let outcomes = (0..SHARDS)
        .map(|s| sim.shard_outcomes(s).to_vec())
        .collect();
    (report, outcomes)
}

/// Per-key `(traffic, sheds)` tallied from the recorded shard outcome
/// streams (index-aligned with the requests routed to each shard).
fn shed_tally(
    schedule: &[(SimTime, KvRequest)],
    outcomes: &[Vec<(Status, Vec<u8>)>],
) -> HashMap<Vec<u8>, (u64, u64)> {
    let mut tally: HashMap<Vec<u8>, (u64, u64)> = HashMap::new();
    for (shard, stream) in outcomes.iter().enumerate() {
        let routed: Vec<&KvRequest> = schedule
            .iter()
            .map(|(_, r)| r)
            .filter(|r| shard_of(&r.key, SHARDS) == shard)
            .collect();
        assert_eq!(
            routed.len(),
            stream.len(),
            "shard {shard}: every routed op resolves exactly once"
        );
        for (req, (status, _)) in routed.iter().zip(stream) {
            let e = tally.entry(req.key.clone()).or_insert((0, 0));
            e.0 += 1;
            if *status == Status::Overloaded {
                e.1 += 1;
            }
        }
    }
    tally
}

#[test]
fn hot_keys_shed_first_and_goodput_holds() {
    let sat = saturation_mops();
    assert!(sat > 0.0, "saturation baseline must be positive");
    let offered = 4.0 * sat;
    let (report, outcomes) = run_soak(2, offered);
    assert_eq!(report.ops, OPS as u64, "every op resolves");

    // The adaptive plane must actually be live under the mix.
    let cache = &report.ledger.cache;
    assert!(cache.sketch_samples > 0, "sketch sampled: {cache:?}");
    assert!(
        cache.admitted_fills + cache.rejected_fills > 0,
        "admission decided fills: {cache:?}"
    );

    // Sheds happen at 4x offered load, and the hot-key carve-out
    // attributes some of them to provably hot keys.
    assert!(report.shed_ops > 0, "4x offered load must shed");
    assert!(
        cache.hot_key_sheds > 0,
        "the hot-key carve-out never fired: {cache:?} (sheds {})",
        report.shed_ops
    );
    assert!(
        cache.hot_key_sheds <= report.shed_ops,
        "attributed sheds exceed total sheds"
    );

    // Sheds concentrate on the keys that earn them: the top-16 keys by
    // traffic shed at a strictly higher rate than the spread traffic.
    let schedule = soak_schedule(offered);
    let tally = shed_tally(&schedule, &outcomes);
    let mut by_traffic: Vec<(&Vec<u8>, &(u64, u64))> = tally.iter().collect();
    by_traffic.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    let (hot, spread) = by_traffic.split_at(16.min(by_traffic.len()));
    let (hot_traffic, hot_sheds) = hot
        .iter()
        .fold((0u64, 0u64), |(t, s), (_, &(kt, ks))| (t + kt, s + ks));
    let (spread_traffic, spread_sheds) = spread
        .iter()
        .fold((0u64, 0u64), |(t, s), (_, &(kt, ks))| (t + kt, s + ks));
    let hot_rate = hot_sheds as f64 / hot_traffic.max(1) as f64;
    let spread_rate = spread_sheds as f64 / spread_traffic.max(1) as f64;
    assert!(
        hot_rate > spread_rate,
        "hot keys must shed at a higher rate: hot {hot_sheds}/{hot_traffic} ({hot_rate:.4}) \
         vs spread {spread_sheds}/{spread_traffic} ({spread_rate:.4})"
    );

    // Goodput holds instead of collapsing under the celebrities.
    assert!(
        report.goodput_mops >= 0.6 * sat,
        "goodput collapsed: {:.3} Mops vs saturation {:.3} (sheds {}, expired {})",
        report.goodput_mops,
        sat,
        report.shed_ops,
        report.expired_ops
    );
}

#[test]
fn hotkey_soak_bit_identical_across_worker_counts() {
    let sat = saturation_mops();
    let offered = 4.0 * sat;
    let (r1, o1) = run_soak(1, offered);
    let (r2, o2) = run_soak(2, offered);
    let (r8, o8) = run_soak(8, offered);
    assert_eq!(r1, r2, "workers 1 vs 2 diverged");
    assert_eq!(r1, r8, "workers 1 vs 8 diverged");
    assert_eq!(o1, o2, "outcome streams diverged (1 vs 2 workers)");
    assert_eq!(o1, o8, "outcome streams diverged (1 vs 8 workers)");
    assert!(
        r1.ledger.cache.hot_key_sheds > 0,
        "determinism soak must exercise the carve-out: {:?}",
        r1.ledger.cache
    );
}
