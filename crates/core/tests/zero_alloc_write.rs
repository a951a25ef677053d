//! Steady-state allocation guard for the write path on the full memory
//! stack.
//!
//! `zero_alloc.rs` replays GETs on `FlatMemory`, which is why a `to_vec`
//! per memory write inside `DispatchedMemory` went unnoticed until a
//! profile showed it. This file drives the paths that write — PUTs that
//! overwrite a slab-resident value with one of another slab class, and
//! DELETE followed by a re-PUT — through `KvDirectStore::execute_one_into`
//! (host pages behind PCIe, NIC DRAM cache, dispatcher), and requires
//! that once the pools are warm they perform **zero** heap allocations.
//! A last phase replays the serving front-end's shape — bundles of 16
//! mixed GET/SET/DELETE on 13-byte keys through
//! `run`, values up the extended slab ladder, keys
//! repeating inside a bundle so operations queue and forward — under the
//! same requirement.
//!
//! One `#[test]` per file: the harness runs a binary's tests
//! concurrently, and a second test's allocations would race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kvd_core::{KvDirectConfig, KvDirectStore};
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

/// Value lengths one per slab class above the inline threshold
/// (64/128/256/512 B records).
const LENS: [usize; 4] = [40, 100, 230, 480];

#[test]
fn steady_state_writes_allocate_nothing() {
    const POP: u64 = 2048;
    const OPS: u64 = 8_000;

    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(8 << 20));
    let value = [0xA5u8; 512];
    let mut resp = KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    };
    let key = |i: u64| splitmix(splitmix(i) % POP).to_le_bytes();
    let len = |i: u64, round: u64| LENS[(splitmix(i ^ (round % 2)) % 4) as usize];

    // Passes alternate between two assignments of lengths to operations,
    // so every key keeps changing slab class and the measured pass replays
    // a pass already seen. The passes before it touch every host page the
    // corpus can reach and grow the pools (the station's spare buffers and
    // flush vector, the table's scratch, the slab allocator's free stacks)
    // to their float.
    let mut overwrite = |store: &mut KvDirectStore, round: u64| {
        for i in 0..OPS {
            let k = key(i);
            store.execute_one_into(KvRequestRef::put(&k, &value[..len(i, round)]), &mut resp);
            assert_eq!(resp.status, Status::Ok, "the corpus fits");
        }
    };
    for round in 0..6 {
        overwrite(&mut store, round);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    overwrite(&mut store, 6);
    let overwrites = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        overwrites, 0,
        "overwrite-PUTs across slab classes must not allocate ({overwrites} over {OPS} ops)"
    );

    let mut cycle = |store: &mut KvDirectStore, round: u64| {
        for i in 0..OPS {
            let k = key(i);
            store.execute_one_into(KvRequestRef::delete(&k), &mut resp);
            assert_eq!(resp.status, Status::Ok, "every key is resident");
            store.execute_one_into(KvRequestRef::put(&k, &value[..len(i, round)]), &mut resp);
            assert_eq!(resp.status, Status::Ok);
        }
    };
    for round in 7..11 {
        cycle(&mut store, round);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    cycle(&mut store, 11);
    let cycles = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        cycles, 0,
        "DELETE then PUT must not allocate ({cycles} over {OPS} cycles)"
    );

    // --- The serving front-end's bundle shape ---------------------------
    const BUNDLE: usize = 16;
    const BUNDLES: u64 = 500;
    const BUNDLE_POP: u64 = 256;
    // `flags | cas` header + data, as kvd-server frames a stored value;
    // the last three lengths need the extended slab ladder.
    const FRAMED: [usize; 6] = [
        12 + 8,
        12 + 64,
        12 + 400,
        12 + 1_000,
        12 + 3_000,
        12 + 9_000,
    ];
    let mut store = KvDirectStore::new(KvDirectConfig {
        extended_slabs: true,
        ..KvDirectConfig::with_memory(16 << 20)
    });
    let big = vec![0x5Au8; 9_100];
    // The trace and its borrowed bundles are built once, outside the
    // counter; a connection stages them into pooled arenas the same way.
    let trace: Vec<KvRequest> = (0..BUNDLES * BUNDLE as u64)
        .map(|i| {
            let key = format!("key:{:09}", splitmix(i) % BUNDLE_POP);
            assert_eq!(key.len(), 13);
            match splitmix(i ^ 0xB0B) % 10 {
                0..=4 => KvRequest::get(key.as_bytes()),
                5..=7 => KvRequest::put(
                    key.as_bytes(),
                    &big[..FRAMED[(splitmix(i ^ 0xF00D) % 6) as usize]],
                ),
                _ => KvRequest::delete(key.as_bytes()),
            }
        })
        .collect();
    let refs: Vec<KvRequestRef<'_>> = trace.iter().map(|r| r.as_ref()).collect();
    let mut out = vec![KvResponse::default(); BUNDLE];
    let mut replay = |store: &mut KvDirectStore| {
        let mut answered = 0;
        for bundle in refs.chunks(BUNDLE) {
            store.run(bundle, &mut out[..bundle.len()]);
            answered += out[..bundle.len()]
                .iter()
                .filter(|r| matches!(r.status, Status::Ok | Status::NotFound))
                .count();
        }
        assert_eq!(answered, refs.len(), "the corpus fits: no op fails");
    };
    for _ in 0..4 {
        replay(&mut store);
    }
    let station = store.processor().station_stats();
    assert!(
        station.queued > 0 && station.forwarded > 0 && station.writebacks > 0,
        "bundles must queue, forward and write back: {station:?}"
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    replay(&mut store);
    let bundled = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        bundled, 0,
        "bundles of {BUNDLE} mixed ops must not allocate ({bundled} over {BUNDLES} bundles)"
    );
}
