//! Steady-state allocation guard for the parallel engine's whole `run`
//! and `run_open`.
//!
//! Mirror of `zero_alloc.rs` for the parallel engine: after
//! warm-up runs have grown every pool (buffer pools, the router's index
//! lists, the report's merge histograms), [`ParallelSystemSim::run`] and
//! [`ParallelSystemSim::run_open`] with one worker must perform **zero**
//! heap allocations, from routing to the merged report they return. Routing records positions into the
//! caller's slice in pooled `Vec<u32>`s and clones no request, the
//! calling thread drives the shards itself, a run resets its histograms
//! in place, a window's rendezvous reads three `u64`s per shard, and
//! ledgers accumulate in per-shard arenas folded once per report.
//!
//! Multi-worker runs allocate only the scoped worker threads and their
//! channels, once per run, which the single-worker loop never spawns. The first case is GET-only, like
//! `zero_alloc.rs`; the second mixes in SETs of 40-480 B to show that
//! routing copies no payload (the write path itself is pinned
//! allocation-free by `zero_alloc_write.rs`). Both cases then repeat
//! open-loop, the same requests on an arrival schedule: the schedule is
//! routed by index through the same view, so it costs what `run` costs.
//!
//! This file intentionally holds a single `#[test]`: the harness runs
//! tests in one binary concurrently, and a second test's allocations
//! would race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kvd_core::parallel::{ParallelSimConfig, ParallelSimReport, ParallelSystemSim};
use kvd_core::KvDirectConfig;
use kvd_net::KvRequest;
use kvd_sim::SimTime;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const POP: u64 = 4_096;
const OPS: usize = 12_000;

/// A four-shard, one-worker engine with `POP` keys preloaded.
fn engine(value_len: usize) -> ParallelSystemSim {
    let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 24, 4);
    cfg.workers = 1;
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..POP {
        let key = splitmix(id).to_le_bytes();
        sim.preload_put(&key, &vec![id as u8; value_len])
            .expect("preload fits");
    }
    sim
}

/// Allocations of one `run` of `trace` on `sim` after `warmups` replays
/// of it have grown every pool to its equilibrium float.
fn counted_run<T: ?Sized>(
    sim: &mut ParallelSystemSim,
    run: impl Fn(&mut ParallelSystemSim, &T) -> ParallelSimReport,
    trace: &T,
    warmups: usize,
) -> u64 {
    for _ in 0..warmups {
        run(sim, trace);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = run(sim, trace);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(r.ops, OPS as u64, "the counted run completed every op");
    allocs
}

/// `trace` on an arrival schedule of 40 Mops offered over the four
/// shards: under capacity, so every op is answered.
fn scheduled(trace: &[KvRequest]) -> Vec<(SimTime, KvRequest)> {
    trace
        .iter()
        .enumerate()
        .map(|(i, r)| (SimTime::from_ns(25 * i as u64), r.clone()))
        .collect()
}

#[test]
fn steady_state_parallel_run_allocates_nothing() {
    // Hot-skewed GET stream over preloaded keys, built outside the
    // counted region.
    let gets: Vec<KvRequest> = (0..OPS as u64)
        .map(|i| {
            let key = splitmix(splitmix(i) % POP).to_le_bytes();
            KvRequest::get(&key)
        })
        .collect();
    // Two warm-ups: the first grows the pools, the second proves the
    // float is a fixpoint.
    let allocs = counted_run(&mut engine(8), ParallelSystemSim::run, &gets[..], 2);
    assert_eq!(
        allocs, 0,
        "steady-state single-worker run must not allocate ({allocs} allocations over {OPS} ops)"
    );
    let timed_gets = scheduled(&gets);
    let allocs = counted_run(
        &mut engine(8),
        ParallelSystemSim::run_open,
        &timed_gets[..],
        2,
    );
    assert_eq!(
        allocs, 0,
        "steady-state single-worker run_open must not allocate ({allocs} allocations over {OPS} ops)"
    );

    // Same keys, one request in five a SET of 40-480 B: routing by index
    // copies no payload, so the values cost the run nothing either. More
    // warm-ups, because the store's pooled value buffers each grow to the
    // largest value they have carried and reach that float geometrically
    // (138, 39, 12, 3, 0 allocations over the first five replays); with
    // a clone per request the count never falls below the SETs' 2 400.
    let mixed: Vec<KvRequest> = (0..OPS as u64)
        .map(|i| {
            let key = splitmix(splitmix(i) % POP).to_le_bytes();
            if i % 5 == 0 {
                let len = 40 + (splitmix(i ^ 0x5E7) % 441) as usize;
                KvRequest::put(&key, &vec![i as u8; len])
            } else {
                KvRequest::get(&key)
            }
        })
        .collect();
    let allocs = counted_run(&mut engine(256), ParallelSystemSim::run, &mixed[..], 8);
    assert_eq!(
        allocs, 0,
        "routing must not copy SET payloads ({allocs} allocations over {OPS} ops)"
    );
    let timed_mixed = scheduled(&mixed);
    let allocs = counted_run(
        &mut engine(256),
        ParallelSystemSim::run_open,
        &timed_mixed[..],
        8,
    );
    assert_eq!(
        allocs, 0,
        "routing a schedule must not copy SET payloads ({allocs} allocations over {OPS} ops)"
    );
}
