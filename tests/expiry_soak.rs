//! Differential soak for the entry-lifecycle (TTL/expiry) plane.
//!
//! The expiry stamp rides the slot layout, the station write-back path,
//! the lazy read-side reclaim, the budgeted reaper, and `touch` — five
//! mechanisms that must agree on one semantic: an entry whose stamp has
//! passed is *gone* (never served, eventually reclaimed), and an entry
//! whose stamp has not passed is *intact* (never dropped, bytes exact).
//! These tests check the whole store against `kvd-model`'s time-aware
//! reference model:
//!
//! 1. a property test over arbitrary interleavings of TTL puts, gets,
//!    deletes, touches, clock advances and reaper sweeps;
//! 2. a seeded soak across seeds × fault rates, where the model tracks
//!    only acknowledged mutations (a `DeviceError` op is not applied);
//! 3. a workers sweep: the parallel engine with the reaper enabled must
//!    stay bit-identical across worker counts — the background sweep is
//!    part of the deterministic schedule, not a wall-clock daemon.

use kv_direct::parallel::{ParallelSimConfig, ParallelSystemSim};
use kv_direct::sim::SimTime;
use kv_direct::workloads::ttl::{MemcacheTtl, MemcacheTtlWorkload};
use kv_direct::{FaultRates, KvDirectConfig, KvDirectStore, KvRequestRef, KvResponse, Status};
use kvd_model::{key_bytes, Effect, Model};
use proptest::prelude::*;

/// A lifecycle op: `ttl` 0 is immortal, else the stamp is `now + ttl`;
/// `Advance` moves the clock `dt` ticks; `Sweep` is one bounded reaper
/// pass.
#[derive(Debug, Clone)]
enum Op {
    PutTtl { key: u8, len: usize, ttl: u16 },
    Get { key: u8 },
    Delete { key: u8 },
    Touch { key: u8, ttl: u16 },
    Advance { dt: u16 },
    Sweep { buckets: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), 0usize..200, any::<u16>())
            .prop_map(|(key, len, ttl)| Op::PutTtl { key: key % 24, len, ttl: ttl % 50 }),
        4 => any::<u8>().prop_map(|key| Op::Get { key: key % 24 }),
        1 => any::<u8>().prop_map(|key| Op::Delete { key: key % 24 }),
        2 => (any::<u8>(), any::<u16>())
            .prop_map(|(key, ttl)| Op::Touch { key: key % 24, ttl: ttl % 50 }),
        2 => any::<u16>().prop_map(|dt| Op::Advance { dt: dt % 20 }),
        1 => any::<u8>().prop_map(|buckets| Op::Sweep { buckets }),
    ]
}

fn value_bytes(k: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| k.wrapping_mul(37).wrapping_add(i as u8))
        .collect()
}

/// The stamp of a `ttl` op at tick `now`: 0 stays immortal.
fn stamp(ttl: u16, now: u32) -> u32 {
    if ttl == 0 {
        0
    } else {
        now + ttl as u32
    }
}

/// Runs `req` on the store and checks the response against the model.
fn execute(
    store: &mut KvDirectStore,
    model: &mut Model,
    req: KvRequestRef<'_>,
) -> Result<Effect, String> {
    let mut resp = KvResponse::default();
    store.execute_one_into(req, &mut resp);
    model.check(req, resp.status, &resp.value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of lifecycle operations matches the time-aware
    /// model: dead entries are invisible, live entries are intact, and
    /// after a full sweep the table holds exactly the live set.
    #[test]
    fn store_matches_time_aware_model(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut store = KvDirectStore::new(KvDirectConfig::with_memory(4 << 20));
        let mut model = Model::default();
        // Tick 0 would make fresh stamps ambiguous with the immortal
        // sentinel; start at 1 like every production clock does.
        let mut now: u32 = 1;
        store.processor_mut().set_now(SimTime::from_ms(now as u64));
        model.set_now(now);
        for op in &ops {
            let checked = match op {
                Op::PutTtl { key, len, ttl } => {
                    let (k, v) = (key_bytes(*key), value_bytes(*key, *len));
                    let req = KvRequestRef::put_ttl(&k, &v, stamp(*ttl, now));
                    execute(&mut store, &mut model, req)
                }
                Op::Get { key } => execute(&mut store, &mut model, KvRequestRef::get(&key_bytes(*key))),
                Op::Delete { key } => {
                    execute(&mut store, &mut model, KvRequestRef::delete(&key_bytes(*key)))
                }
                Op::Touch { key, ttl } => {
                    let (k, stamp) = (key_bytes(*key), stamp(*ttl, now));
                    let found = store.touch(&k, stamp);
                    model.check_touch(&k, stamp, found)
                }
                Op::Advance { dt } => {
                    now += *dt as u32;
                    store.processor_mut().set_now(SimTime::from_ms(now as u64));
                    model.set_now(now);
                    continue;
                }
                Op::Sweep { buckets } => {
                    store.processor_mut().sweep_expired(*buckets as u64);
                    continue;
                }
            };
            checked.map_err(|e| TestCaseError::fail(format!("tick {now}: {e}")))?;
        }
        // Final audit: every live model entry reads back exactly; after
        // a full-table sweep, residency equals the live set.
        for (k, v) in model.entries() {
            let got = store.get(k);
            prop_assert_eq!(got.as_deref(), Some(v), "live entry dropped");
        }
        let full = store.processor().table().n_buckets() * 4;
        store.processor_mut().sweep_expired(full);
        prop_assert_eq!(
            store.processor().table().len(),
            model.entries().count() as u64,
            "post-sweep residency != live set"
        );
    }
}

/// Seeds × fault rates: the TTL cache mix against a model that tracks
/// only acknowledged mutations. Two invariants survive every fault
/// schedule: an expired key is never served, and an unexpired
/// acknowledged write is never silently dropped (a `DeviceError` read
/// is a fault, not a drop).
#[test]
fn seeded_soak_across_seeds_and_fault_rates() {
    for seed in [0x5EED1u64, 0x5EED2, 0x5EED3] {
        for fault_rate in [0.0, 0.01] {
            let mut cfg = KvDirectConfig::with_memory(8 << 20);
            if fault_rate > 0.0 {
                cfg.fault_rates = FaultRates::uniform(fault_rate);
                cfg.fault_seed = seed ^ 0xFA_17;
            }
            let mut store = KvDirectStore::new(cfg);
            let ttl_cfg = MemcacheTtl {
                update_ratio: 0.4,
                ttl_ratio: 0.8,
                min_ttl_ticks: 1,
                max_ttl_ticks: 60,
            };
            let mut w = MemcacheTtlWorkload::new(ttl_cfg, 600, 24, seed);
            // Only acknowledged mutations count: a `DeviceError` op was
            // not applied, and a `DeviceError` read is a fault, not a drop.
            let mut model = Model::default().tolerating(&[Status::DeviceError]);
            for round in 1u32..=40 {
                let now = round * 5;
                store.processor_mut().set_now(SimTime::from_ms(now as u64));
                model.set_now(now);
                for req in w.batch(500, now) {
                    if let Err(e) = execute(&mut store, &mut model, req.as_ref()) {
                        panic!("seed {seed:#x}, faults {fault_rate}, tick {now}: {e}");
                    }
                }
                store.processor_mut().sweep_expired(64);
            }
        }
    }
}

/// The reaper is part of the deterministic schedule: a parallel run
/// with TTL-stamped traffic and a per-batch sweep budget must be
/// bit-identical for any worker count, faults on or off.
#[test]
fn reaper_runs_are_bit_identical_across_workers() {
    let run = |workers: usize, faults: bool| {
        let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 16, 4);
        cfg.workers = workers;
        cfg.shard.store.reap_buckets_per_batch = 32;
        if faults {
            cfg.shard.store.fault_rates = FaultRates::uniform(0.01);
            cfg.shard.store.fault_seed = 0xC_4A05;
        }
        let mut sim = ParallelSystemSim::new(cfg);
        let mut w = MemcacheTtlWorkload::new(
            MemcacheTtl {
                update_ratio: 0.5,
                ttl_ratio: 0.8,
                min_ttl_ticks: 1,
                max_ttl_ticks: 40,
            },
            2_000,
            16,
            0xD1F,
        );
        sim.run(&w.batch(10_000, 1))
    };
    for faults in [false, true] {
        let r1 = run(1, faults);
        let r2 = run(2, faults);
        let r8 = run(8, faults);
        assert!(
            r1.ledger.expiry.ttl_puts > 0,
            "soak must exercise the TTL plane"
        );
        assert_eq!(r1, r2, "1 vs 2 workers diverged (faults: {faults})");
        assert_eq!(r1, r8, "1 vs 8 workers diverged (faults: {faults})");
    }
}
