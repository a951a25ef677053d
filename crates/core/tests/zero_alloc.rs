//! Steady-state allocation guard for the zero-copy hot path.
//!
//! A counting allocator wraps the system allocator. After warmup passes
//! that fill every buffer pool (the station's spare-buffer pool, the
//! table's kv scratch, the processor's response arena), replaying the
//! exact same GET sequence through the batched path must perform **zero**
//! heap allocations — this is the ISSUE's hot-path acceptance criterion,
//! and it guards against any future change quietly putting a `to_vec` or
//! `clone` back on the per-op path.
//!
//! This file intentionally holds a single `#[test]`: the harness runs
//! tests in one binary concurrently, and a second test's allocations
//! would race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kvd_core::KvProcessor;
use kvd_net::{KvRequest, KvRequestRef, KvResponse, Status};

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

#[test]
fn steady_state_get_allocates_nothing() {
    const POP: u64 = 4096;
    const OPS: usize = 10_000;
    const BATCH: usize = 32;

    let mut p = KvProcessor::with_flat_memory(1 << 22, 0.5, 24);
    let mut resp = KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    };
    for id in 0..POP {
        let key = splitmix(id).to_le_bytes();
        p.execute_one_into(KvRequestRef::put(&key, &[id as u8; 8]), &mut resp);
        assert_eq!(resp.status, Status::Ok, "preload must fit");
    }

    // A zipf-free but hot-skewed GET stream over the preloaded keys; the
    // trace (and its borrowed view) is built once, outside the counter.
    let trace: Vec<KvRequest> = (0..OPS as u64)
        .map(|i| KvRequest::get(&splitmix(splitmix(i) % POP).to_le_bytes()))
        .collect();
    let refs: Vec<KvRequestRef<'_>> = trace.iter().map(|r| r.as_ref()).collect();

    // --- Batched path ---------------------------------------------------
    let mut out = vec![KvResponse::default(); BATCH];
    // Two warmup replays: the first grows the buffer pools to their
    // equilibrium float, the second proves the float is a fixpoint.
    for _ in 0..2 {
        for chunk in refs.chunks(BATCH) {
            p.run(chunk, &mut out[..chunk.len()]);
        }
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut hits = 0usize;
    for chunk in refs.chunks(BATCH) {
        p.run(chunk, &mut out[..chunk.len()]);
        hits += out[..chunk.len()]
            .iter()
            .filter(|r| r.status == Status::Ok)
            .count();
    }
    let batched = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(hits, OPS, "every GET must hit a preloaded key");
    assert_eq!(
        batched, 0,
        "steady-state batched GETs must not allocate ({batched} allocations over {OPS} ops)"
    );

    // --- Per-op path (the timed simulator's inner loop) ------------------
    for _ in 0..2 {
        for r in &refs {
            p.execute_one_into(*r, &mut resp);
        }
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for r in &refs {
        p.execute_one_into(*r, &mut resp);
        assert_eq!(resp.status, Status::Ok);
    }
    let per_op = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        per_op, 0,
        "steady-state per-op GETs must not allocate ({per_op} allocations over {OPS} ops)"
    );
}
