//! End-to-end system behaviour under the paper's workloads.
//!
//! Runs YCSB-style workloads through the full store and checks the
//! system-level properties the evaluation depends on: preload to a target
//! utilization, correct data under uniform and long-tail mixes, the
//! skew-dependent behaviour of the forwarding and caching layers, and
//! Figure 16's headline shapes on the timed engine.

use kv_direct::sim::{DetRng, ZipfSampler};
use kv_direct::system::SystemSimConfig;
use kv_direct::{Component, KvDirectConfig, KvDirectStore, KvRequest, OpClass, OpCode};
use kvd_bench::{KeyDist, Ycsb, SATURATING_WINDOWS};

/// Keys in the store: enough that the touched hash-index lines dwarf the
/// NIC DRAM (8 MiB / 16 = 512 KiB), as in the paper's 64 GiB : 4 GiB setup.
const KEYS: u64 = 40_000;
/// The stream's seed; odd, so it doubles as the rank → key scramble.
const SEED: u64 = 99;
/// Key popularity: `None` is uniform, `Some(θ)` Zipf with skewness θ.
const UNIFORM: Option<f64> = None;
/// The paper's long tail.
const LONG_TAIL: Option<f64> = Some(0.99);

/// The 8 B key of key id `id`.
fn key(id: u64) -> [u8; 8] {
    id.to_le_bytes()
}

/// The 8 B value of key `id` (16 B KVs): the same on every write, so a GET
/// can only ever see this one.
fn value(id: u64) -> [u8; 8] {
    let tag = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
    std::array::from_fn(|i| tag[i] ^ i as u8)
}

/// A YCSB-style stream of GETs and PUTs (a `put_ratio` share) over the
/// preloaded keys.
struct Stream {
    rng: DetRng,
    zipf: Option<ZipfSampler>,
    put_ratio: f64,
}

impl Stream {
    fn new(theta: Option<f64>, put_ratio: f64) -> Self {
        Stream {
            rng: DetRng::seed(SEED),
            zipf: theta.map(|t| ZipfSampler::new(KEYS, t)),
            put_ratio,
        }
    }

    /// One client packet's worth of requests.
    fn batch(&mut self, n: usize) -> Vec<KvRequest> {
        (0..n)
            .map(|_| {
                let rank = match &self.zipf {
                    None => self.rng.u64_below(KEYS),
                    Some(z) => z.sample(&mut self.rng),
                };
                // Scramble rank → id, so the hottest key is not key 0.
                let id = rank.wrapping_mul(SEED).wrapping_add(SEED >> 3) % KEYS;
                if self.rng.chance(self.put_ratio) {
                    KvRequest::put(&key(id), &value(id))
                } else {
                    KvRequest::get(&key(id))
                }
            })
            .collect()
    }
}

fn run_workload(theta: Option<f64>, put_ratio: f64) -> KvDirectStore {
    use kv_direct::mem::MemoryEngine;
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(8 << 20));
    let mut w = Stream::new(theta, put_ratio);
    let preload: Vec<KvRequest> = (0..KEYS)
        .map(|id| KvRequest::put(&key(id), &value(id)))
        .collect();
    for chunk in preload.chunks(64) {
        for r in store.execute_batch(chunk) {
            assert_eq!(r.status, kv_direct::Status::Ok);
        }
    }
    // Measure steady state, not the preload.
    store.processor_mut().table_mut().mem_mut().reset_stats();
    for _ in 0..200 {
        let batch = w.batch(40);
        let rs = store.execute_batch(&batch);
        // Every GET of a preloaded key must return its deterministic
        // value or the most recent overwrite — never garbage sizes.
        for (req, resp) in batch.iter().zip(&rs) {
            if req.op == OpCode::Get {
                assert_eq!(resp.status, kv_direct::Status::Ok, "missing preloaded key");
                assert_eq!(resp.value.len(), 8, "value length corrupted");
            }
        }
    }
    store
}

#[test]
fn ycsb_uniform_all_mixes() {
    for put in [0.0, 0.5, 1.0] {
        let store = run_workload(UNIFORM, put);
        assert_eq!(store.processor().table().len(), 40_000);
        assert_eq!(store.ledger().core.writeback_failures, 0);
    }
}

#[test]
fn ycsb_longtail_all_mixes() {
    for put in [0.0, 0.5, 1.0] {
        let store = run_workload(LONG_TAIL, put);
        assert_eq!(store.processor().table().len(), 40_000);
    }
}

#[test]
fn longtail_forwards_more_than_uniform() {
    // Paper §5.2.2: "the out-of-order execution engine merges up to 15%
    // operations on the most popular keys" under long-tail.
    let uni = run_workload(UNIFORM, 0.5);
    let zipf = run_workload(LONG_TAIL, 0.5);
    let fu = uni.processor().station_stats().forwarded as f64 / uni.ledger().core.requests as f64;
    let fz = zipf.processor().station_stats().forwarded as f64 / zipf.ledger().core.requests as f64;
    assert!(fz > fu, "zipf {fz} should forward more than uniform {fu}");
    assert!(fz > 0.02, "long-tail merge rate suspiciously low: {fz}");
}

#[test]
fn longtail_caches_better_than_uniform() {
    use kv_direct::mem::MemoryEngine;
    let uni = run_workload(UNIFORM, 0.0);
    let zipf = run_workload(LONG_TAIL, 0.0);
    // Steady-state (post-preload) hit rates from the resettable stats.
    let rate = |s: &KvDirectStore| {
        let m = s.processor().table().mem().stats();
        m.cache_hits as f64 / (m.cache_hits + m.cache_misses).max(1) as f64
    };
    let hu = rate(&uni);
    let hz = rate(&zipf);
    assert!(hz > hu, "zipf hit rate {hz} vs uniform {hu}");
}

#[test]
fn throughput_composition_headline_shapes() {
    // The three Figure 16 regimes on the saturated timed engine, at laptop
    // scale.
    let cfg = SystemSimConfig {
        windows: SATURATING_WINDOWS,
        ..SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40)
    };
    let run = |kv, put, dist, seed| Ycsb::new(kv, put, dist).run(cfg.clone(), seed);

    // (1) tiny KVs, long-tail, read-heavy run well above large KVs;
    let tiny = run(10, 0.1, KeyDist::Zipf, 5).report;
    let large = run(254, 0.1, KeyDist::Uniform, 5).report;
    assert!(
        tiny.mops > large.mops * 2.0,
        "{} vs {}",
        tiny.mops,
        large.mops
    );

    // (2) large KVs are network-bound: the network holds most of every
    //     GET's and PUT's latency;
    let lat = &large.ledger.latency;
    for class in [OpClass::Get, OpClass::Put] {
        let share = lat.share(class, Component::Network);
        assert!(share > 0.5, "{class:?} network share {share}");
    }

    // (3) write-heavy costs more memory accesses than read-heavy.
    let accesses_per_op = |r: &kv_direct::system::SystemSimReport| {
        let l = &r.ledger;
        (l.pcie.dma_reads + l.pcie.dma_writes + l.dram.reads + l.dram.writes) as f64 / r.ops as f64
    };
    let writes = run(10, 1.0, KeyDist::Uniform, 6).report;
    let reads = run(10, 0.0, KeyDist::Uniform, 6).report;
    assert!(
        accesses_per_op(&writes) > accesses_per_op(&reads),
        "PUT {} vs GET {}",
        accesses_per_op(&writes),
        accesses_per_op(&reads)
    );
}

#[test]
fn store_survives_memory_pressure_gracefully() {
    // Fill a small store past capacity through the public API; once full,
    // errors must be clean and reads must stay correct.
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(256 << 10));
    let mut ok = Vec::new();
    for i in 0..20_000u64 {
        match store.put(&i.to_le_bytes(), &[7u8; 40]) {
            Ok(()) => ok.push(i),
            Err(kv_direct::StoreError::OutOfMemory) => break,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(!ok.is_empty());
    for i in &ok {
        assert!(
            store.get(&i.to_le_bytes()).is_some(),
            "acknowledged key {i} lost under pressure"
        );
    }
}

#[test]
fn ycsb_presets_run_clean_through_the_store() {
    use kv_direct::workloads::{PresetWorkload, YcsbPreset};
    for preset in YcsbPreset::all() {
        let mut store = KvDirectStore::new(KvDirectConfig::with_memory(8 << 20));
        let mut w = PresetWorkload::new(preset, 5_000, 16, 11);
        for chunk in w.preload().chunks(64) {
            for r in store.execute_batch(chunk) {
                assert_eq!(r.status, kv_direct::Status::Ok, "{preset:?} preload");
            }
        }
        let mut errors = 0;
        for _ in 0..100 {
            let batch = w.batch(40);
            for r in store.execute_batch(&batch) {
                if r.status != kv_direct::Status::Ok {
                    errors += 1;
                }
            }
        }
        assert_eq!(errors, 0, "{preset:?} produced failing responses");
        assert_eq!(store.ledger().core.writeback_failures, 0, "{preset:?}");
        // F's RMWs really mutate: some counter moved off its preload value.
        if preset == YcsbPreset::F {
            assert!(store.ledger().core.updates > 0);
        }
    }
}
