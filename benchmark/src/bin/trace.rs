//! `kvd-benchmark-trace` — the traced run.
//!
//! ```text
//! kvd-benchmark-trace --workload <name> --seed <n>
//! ```
//!
//! [`TRACE_OPS`] operations, always: every `_ns` figure and
//! `trace.walk_service_us` are means over that many, so two traced runs
//! compare only if the count is the same.
//!
//! For every request the benchmark walks the layers itself, the way
//! `kvd-server` does for one connection, and records a span around each
//! call into a layer:
//!
//! ```text
//! request ─┬─ server.parse     proto::parse on the frame's bytes
//!          ├─ net.route        shard_of per key
//!          ├─ server.stage     key and flags|cas|data copied to the arena
//!          ├─ core.execute ─┬─ mem.read_hit / mem.read_miss
//!          │   (per key)    └─ mem.write
//!          └─ server.encode    VALUE blocks / status line
//! ```
//!
//! Spans live in a preallocated buffer and are written to
//! `benchmark/out/trace-<workload>.json` at exit. The same requests are then
//! walked again with the probe and the memory wrapper compiled out; the
//! ratio of the two is the tracing overhead, and the untraced walk is
//! the service time hand-off is measured against. Isolated passes time
//! the layers the walk cannot see into (hash, slab, station, wire codec).
//!
//! This binary reaches below the API the gated binary keeps to, which is
//! why it is a binary of its own: it may stop compiling after an
//! internal change without taking `kvd-benchmark` along. Results go to
//! stdout as `metric <name> <value> <unit>` lines.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kvd_benchmark::adapter::{encode_ops, engine_key, SHARDS, STORE_MEMORY};
use kvd_benchmark::gen::{preload_len, workload, write_value, Kind, Op, OpGen, Spec, Stamp};
use kvd_benchmark::report::Json;
use kvd_benchmark::tcp::{push_delete, push_get, push_key, push_set};
use kvd_core::{KvDirectConfig, KvDirectStore, KvProcessor, LambdaRegistry};
use kvd_hash::swar::sec_match_mask;
use kvd_hash::{Bucket, HashTable, HashTableConfig, BUCKET_BYTES, SLOTS_PER_BUCKET};
use kvd_mem::{
    AccessStats, AdaptiveCacheConfig, DispatchConfig, DispatchedMemory, FlatMemory, MemoryEngine,
    NicDramConfig,
};
use kvd_net::{decode_packet_ref, encode_packet, shard_of, KvRequestRef, KvResponse, Status};
use kvd_ooo::station::{Admission, KvOpKind, StationOp};
use kvd_ooo::{ReservationStation, StationConfig};
use kvd_server::proto::{encode_value, parse, Command, Parsed};
use kvd_sim::{Bandwidth, CostSource, OpLedger};
use kvd_slab::{SlabAllocator, SlabClass, SlabConfig};

// ---------------------------------------------------------------------
// Counting allocator (for core.allocs_per_op)
// ---------------------------------------------------------------------

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as ours, passed through.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from `System.alloc` with layout `l`.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `p` came from `System.alloc` with layout `l`.
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Operations of one traced run.
const TRACE_OPS: usize = 200_000;
/// Where the span files go, relative to the checkout's root.
const OUT_DIR: &str = "benchmark/out";
const NO_PARENT: u32 = u32::MAX;
/// Requests whose spans are written out in full; the summary covers all.
const REQUESTS_WRITTEN: u32 = 500;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<u32>,
    request: u32,
    dropped: u64,
    /// Off while preloading: those accesses belong to no request.
    on: bool,
}

impl Recorder {
    fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
            request: 0,
            dropped: 0,
            on: false,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on || self.spans.len() == self.spans.capacity() {
            self.dropped += u64::from(self.on);
            return NO_PARENT;
        }
        let at = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.open.push(at);
        at
    }

    fn exit(&mut self, at: u32) {
        if at != NO_PARENT {
            self.spans[at as usize].end_ns = self.now();
            self.open.pop();
        }
    }

    /// A closed span under the innermost open one.
    fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.on || self.spans.len() == self.spans.capacity() {
            self.dropped += u64::from(self.on);
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: self.request,
        });
    }
}

/// What the walk reports to. `NoProbe` compiles to nothing.
trait Probe {
    fn enter(&mut self, name: &'static str) -> u32;
    fn exit(&mut self, at: u32);
    fn next_request(&mut self);
}

struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn enter(&mut self, _: &'static str) -> u32 {
        NO_PARENT
    }
    #[inline(always)]
    fn exit(&mut self, _: u32) {}
    #[inline(always)]
    fn next_request(&mut self) {}
}

#[derive(Clone)]
struct Shared(Rc<RefCell<Recorder>>);

impl Probe for Shared {
    fn enter(&mut self, name: &'static str) -> u32 {
        self.0.borrow_mut().enter(name)
    }
    fn exit(&mut self, at: u32) {
        self.0.borrow_mut().exit(at);
    }
    fn next_request(&mut self) {
        self.0.borrow_mut().request += 1;
    }
}

/// A memory engine that records a span per access, classed by what the
/// access did to the engine's own counters.
struct Traced<M> {
    inner: M,
    rec: Shared,
}

impl<M: MemoryEngine> MemoryEngine for Traced<M> {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let before = self.inner.stats();
        let start = self.rec.0.borrow().now();
        self.inner.read(addr, buf);
        let end = self.rec.0.borrow().now();
        let d = self.inner.stats().since(&before);
        let name = if d.dma_reads > 0 {
            "mem.read_miss"
        } else {
            "mem.read_hit"
        };
        self.rec.0.borrow_mut().leaf(name, start, end);
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let start = self.rec.0.borrow().now();
        self.inner.write(addr, data);
        let end = self.rec.0.borrow().now();
        self.rec.0.borrow_mut().leaf("mem.write", start, end);
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

impl<M: CostSource> CostSource for Traced<M> {
    fn emit_costs(&self, out: &mut OpLedger) {
        self.inner.emit_costs(out);
    }
}

// ---------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------

fn tcp_key(key: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(13);
    push_key(&mut out, key);
    out
}

/// The memcache frames the load generator would send for `ops`: reads
/// grouped `keys_per_frame` to a `get`, everything else one per frame.
fn frames_of(spec: &Spec, ops: &[Op]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut value = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        let op = ops[i];
        let mut bytes = Vec::new();
        let mut taken = 1;
        match op.kind {
            Kind::Get => {
                taken = ops[i..]
                    .iter()
                    .take(spec.keys_per_frame)
                    .take_while(|o| o.kind == Kind::Get)
                    .count();
                push_get(&mut bytes, ops[i..i + taken].iter().map(|o| o.key));
            }
            Kind::Set => {
                let stamp = Stamp {
                    key: op.key,
                    writer: 0,
                    version: op.version,
                    len: op.len,
                };
                write_value(&stamp, &mut value);
                push_set(&mut bytes, op.key, &value, false);
            }
            Kind::Delete => push_delete(&mut bytes, op.key),
        }
        frames.push(bytes);
        i += taken;
    }
    frames
}

/// Bytes of `flags | cas` the server keeps ahead of the client's data.
const SERVER_VALUE_HEADER: usize = 12;

fn shard_config(spec: &Spec, seed: u64) -> KvDirectConfig {
    let mut cfg = KvDirectConfig::with_memory(STORE_MEMORY);
    cfg.extended_slabs = true;
    cfg.adaptive_cache = spec.adaptive.then(|| AdaptiveCacheConfig::data_path(seed));
    cfg
}

/// One server shard's processor over `wrap(memory)`, as
/// `KvDirectStore::new` builds it.
fn processor<M: MemoryEngine>(
    cfg: &KvDirectConfig,
    wrap: impl FnOnce(DispatchedMemory) -> M,
) -> KvProcessor<M> {
    let mut mem = DispatchedMemory::new(
        cfg.total_memory,
        NicDramConfig {
            capacity: cfg.nic_dram_capacity,
            bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
        },
        DispatchConfig::new(cfg.load_dispatch_ratio),
    );
    if let Some(adaptive) = cfg.adaptive_cache.clone() {
        mem.set_adaptive(adaptive);
    }
    let table = HashTable::new(
        wrap(mem),
        HashTableConfig {
            total_memory: cfg.total_memory,
            hash_index_ratio: cfg.hash_index_ratio,
            inline_threshold: cfg.inline_threshold,
            extended_slabs: cfg.extended_slabs,
        },
    );
    KvProcessor::new(table, cfg.station, LambdaRegistry::with_builtins())
}

fn fresh_response() -> KvResponse {
    KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    }
}

fn preload_processor<M: MemoryEngine>(proc: &mut KvProcessor<M>, spec: &Spec) {
    let mut value = Vec::new();
    let mut framed = Vec::new();
    let mut resp = fresh_response();
    for key in 0..spec.population {
        write_value(
            &Stamp {
                key,
                writer: 0,
                version: 0,
                len: preload_len(spec, key),
            },
            &mut value,
        );
        framed.clear();
        framed.extend_from_slice(&key.to_le_bytes());
        framed.extend_from_slice(&0u64.to_le_bytes());
        framed.extend_from_slice(&value);
        proc.execute_one_into(KvRequestRef::put(&tcp_key(key), &framed), &mut resp);
        assert_eq!(resp.status, Status::Ok, "preload of key {key}");
    }
}

/// Serves every frame the way one `kvd-server` connection does, minus
/// the sockets and the channel hops. Returns (nanoseconds, operations,
/// operations that failed).
fn walk<M: MemoryEngine, P: Probe>(
    proc: &mut KvProcessor<M>,
    frames: &[Vec<u8>],
    probe: &mut P,
) -> (u64, u64, u64) {
    let mut arena: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut out: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut resp = fresh_response();
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(64);
    let (mut ops, mut failed, mut cas) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for frame in frames {
        probe.next_request();
        let request = probe.enter("request");

        let s = probe.enter("server.parse");
        let parsed = parse(black_box(frame));
        probe.exit(s);
        let Parsed::Frame { cmd, .. } = parsed else {
            panic!("the generator built a frame the parser refuses");
        };

        out.clear();
        match cmd {
            Command::Get { keys, .. } => {
                let s = probe.enter("net.route");
                for key in keys.iter() {
                    black_box(shard_of(key, SHARDS));
                }
                probe.exit(s);
                let s = probe.enter("server.stage");
                arena.clear();
                spans.clear();
                for key in keys.iter() {
                    spans.push((arena.len(), arena.len() + key.len()));
                    arena.extend_from_slice(key);
                }
                probe.exit(s);
                for &(from, to) in &spans {
                    let s = probe.enter("core.execute");
                    proc.execute_one_into(KvRequestRef::get(&arena[from..to]), &mut resp);
                    probe.exit(s);
                    ops += 1;
                    let s = probe.enter("server.encode");
                    match resp.status {
                        Status::Ok if resp.value.len() >= SERVER_VALUE_HEADER => {
                            let flags =
                                u32::from_le_bytes(resp.value[0..4].try_into().expect("4 bytes"));
                            encode_value(
                                &mut out,
                                &arena[from..to],
                                flags,
                                None,
                                &resp.value[SERVER_VALUE_HEADER..],
                            );
                        }
                        Status::Ok | Status::NotFound => {}
                        _ => failed += 1,
                    }
                    probe.exit(s);
                }
                out.extend_from_slice(b"END\r\n");
            }
            Command::Store {
                key, flags, data, ..
            } => {
                let s = probe.enter("net.route");
                black_box(shard_of(key, SHARDS));
                probe.exit(s);
                let s = probe.enter("server.stage");
                cas += 1;
                arena.clear();
                arena.extend_from_slice(key);
                arena.extend_from_slice(&flags.to_le_bytes());
                arena.extend_from_slice(&cas.to_le_bytes());
                arena.extend_from_slice(data);
                probe.exit(s);
                let s = probe.enter("core.execute");
                let (k, v) = arena.split_at(key.len());
                proc.execute_one_into(KvRequestRef::put_ttl(k, v, 0), &mut resp);
                probe.exit(s);
                ops += 1;
                let s = probe.enter("server.encode");
                failed += u64::from(resp.status != Status::Ok);
                out.extend_from_slice(b"STORED\r\n");
                probe.exit(s);
            }
            Command::Delete { key, .. } => {
                let s = probe.enter("net.route");
                black_box(shard_of(key, SHARDS));
                probe.exit(s);
                let s = probe.enter("core.execute");
                proc.execute_one_into(KvRequestRef::delete(key), &mut resp);
                probe.exit(s);
                ops += 1;
                let s = probe.enter("server.encode");
                match resp.status {
                    Status::Ok => out.extend_from_slice(b"DELETED\r\n"),
                    Status::NotFound => out.extend_from_slice(b"NOT_FOUND\r\n"),
                    _ => failed += 1,
                }
                probe.exit(s);
            }
            _ => panic!("the generator sends only get, set and delete"),
        }
        black_box(&out);
        probe.exit(request);
    }
    (start.elapsed().as_nanos() as u64, ops, failed)
}

// ---------------------------------------------------------------------
// Isolated passes
// ---------------------------------------------------------------------

/// Median cost of reading the clock twice, which every span pays once.
fn clock_ns() -> f64 {
    let origin = Instant::now();
    let mut deltas: Vec<u64> = (0..20_001)
        .map(|_| {
            let a = origin.elapsed().as_nanos() as u64;
            let b = origin.elapsed().as_nanos() as u64;
            b - a
        })
        .collect();
    deltas.sort_unstable();
    deltas[deltas.len() / 2] as f64
}

/// Nanoseconds per call of `f` over `n` calls.
fn per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

struct HashCosts {
    ns: [f64; 3],
    accesses: [f64; 3],
    utilization: f64,
}

/// `HashTable<FlatMemory>` on the engine-path keys: each operation timed
/// on its own (less the clock), with its memory-access count.
fn hash_pass(spec: &Spec, ops: &[Op], clock: f64) -> HashCosts {
    let mut table = HashTable::new(
        FlatMemory::new(STORE_MEMORY),
        HashTableConfig::new(STORE_MEMORY, 0.5, 24),
    );
    let mut value = Vec::new();
    for key in 0..spec.population {
        write_value(
            &Stamp {
                key,
                writer: 0,
                version: 0,
                len: preload_len(spec, key),
            },
            &mut value,
        );
        table.put(&engine_key(key), &value).expect("preload fits");
    }
    let (mut ns, mut accesses, mut n) = ([0f64; 3], [0u64; 3], [0u64; 3]);
    let mut out = Vec::new();
    for op in ops {
        let key = engine_key(op.key);
        let kind = op.kind as usize;
        if op.kind == Kind::Set {
            write_value(
                &Stamp {
                    key: op.key,
                    writer: 0,
                    version: op.version,
                    len: op.len,
                },
                &mut value,
            );
        }
        let start = Instant::now();
        let cost = match op.kind {
            Kind::Get => table.get_into_with_cost(&key, &mut out).1,
            Kind::Set => table.put_with_cost(&key, &value).expect("store has room"),
            Kind::Delete => table.delete_with_cost(&key).1,
        };
        ns[kind] += start.elapsed().as_nanos() as f64 - clock;
        accesses[kind] += cost.accesses;
        n[kind] += 1;
    }
    let mean = |sum: f64, n: u64| {
        if n == 0 {
            0.0
        } else {
            (sum / n as f64).max(0.0)
        }
    };
    HashCosts {
        ns: [0, 1, 2].map(|k| mean(ns[k], n[k])),
        accesses: [0, 1, 2].map(|k| mean(accesses[k] as f64, n[k])),
        utilization: table.memory_utilization(),
    }
}

/// `sec_match_mask` over full buckets of pointer slots.
fn probe_pass() -> f64 {
    let class = SlabClass::for_size(64).expect("64 B is a class");
    let images: Vec<[u8; BUCKET_BYTES]> = (0..1024u32)
        .map(|b| {
            let mut bucket = Bucket::empty();
            for slot in 0..SLOTS_PER_BUCKET as u32 {
                bucket.insert_pointer(b * 16 + slot, ((b * 7 + slot * 13) & 0x1FF) as u16, class);
            }
            bucket.encode()
        })
        .collect();
    let mut hits = 0u32;
    let ns = per_call(4_000_000, |i| {
        hits += u32::from(sec_match_mask(
            black_box(&images[i & 1023]),
            (i & 0x1FF) as u16,
        ));
    });
    black_box(hits);
    ns
}

/// alloc + free pairs on the workload's size mix, with a thousand slabs
/// live so frees do not simply undo the alloc before them.
fn slab_pass(spec: &Spec) -> f64 {
    let mut slab = SlabAllocator::new(SlabConfig::paper(0, STORE_MEMORY / 2));
    let sizes: Vec<u64> = spec
        .value_lens
        .iter()
        .map(|&l| u64::from(l) + 8 + 8)
        .collect();
    let mut live = std::collections::VecDeque::with_capacity(1024);
    for i in 0..1024 {
        live.push_back(slab.alloc(sizes[i % sizes.len()]).expect("room"));
    }
    per_call(1_000_000, |i| {
        live.push_back(slab.alloc(sizes[i % sizes.len()]).expect("room"));
        slab.free(live.pop_front().expect("never empty"));
    })
}

/// `admit` and, for what issues, `complete`, on the workload's keys.
fn station_pass(ops: &[Op]) -> f64 {
    let mut station = ReservationStation::new(StationConfig::default());
    let mut value = Vec::new();
    per_call(ops.len(), |i| {
        let op = &ops[i];
        let kind = match op.kind {
            Kind::Get => KvOpKind::Get,
            Kind::Delete => KvOpKind::Delete,
            Kind::Set => {
                write_value(
                    &Stamp {
                        key: op.key,
                        writer: 0,
                        version: op.version,
                        len: op.len,
                    },
                    &mut value,
                );
                KvOpKind::Put(value.clone())
            }
        };
        match station.admit(StationOp {
            id: i as u64,
            key: engine_key(op.key).to_vec(),
            kind,
        }) {
            Admission::Issue { op, .. } => {
                let after = match &op.kind {
                    KvOpKind::Put(v) => Some(v.clone()),
                    KvOpKind::Get => Some(vec![0; 8]),
                    _ => None,
                };
                black_box(station.complete(&op.key, after));
            }
            other => {
                black_box(other);
            }
        }
    })
}

/// `decode_packet_ref` over packets of 40 operations; per operation.
fn decode_pass(ops: &[Op]) -> f64 {
    let mut reqs = Vec::new();
    encode_ops(ops, &mut reqs);
    let packets: Vec<_> = reqs.chunks(40).map(encode_packet).collect();
    per_call(packets.len(), |i| {
        black_box(decode_packet_ref(black_box(&packets[i])).expect("own packets decode"));
    }) * packets.len() as f64
        / ops.len() as f64
}

/// `KvDirectStore::execute_one_into` on the engine path: nanoseconds and
/// heap allocations per operation, after a warm-up pass.
fn execute_pass(spec: &Spec, seed: u64, ops: &[Op]) -> (f64, f64) {
    let mut cfg = KvDirectConfig::with_memory(STORE_MEMORY);
    cfg.adaptive_cache = spec.adaptive.then(|| AdaptiveCacheConfig::data_path(seed));
    let mut store = KvDirectStore::new(cfg);
    let mut reqs = Vec::new();
    encode_ops(ops, &mut reqs);
    let mut resp = fresh_response();
    let mut value = Vec::new();
    for key in 0..spec.population {
        write_value(
            &Stamp {
                key,
                writer: 0,
                version: 0,
                len: preload_len(spec, key),
            },
            &mut value,
        );
        store.execute_one_into(KvRequestRef::put(&engine_key(key), &value), &mut resp);
        assert_eq!(resp.status, Status::Ok, "preload of key {key}");
    }
    let (warm, timed) = reqs.split_at(reqs.len() / 4);
    for r in warm {
        store.execute_one_into(r.as_ref(), &mut resp);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let ns = per_call(timed.len(), |i| {
        store.execute_one_into(timed[i].as_ref(), &mut resp)
    });
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (ns, allocs as f64 / timed.len() as f64)
}

// ---------------------------------------------------------------------
// Span summary and file
// ---------------------------------------------------------------------

#[derive(Default, Clone, Copy)]
struct NameStat {
    count: u64,
    total_ns: u64,
    /// Duration minus the part its children cover.
    self_ns: u64,
}

fn summarize(spans: &[Span]) -> Vec<(&'static str, NameStat)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut stats: Vec<(&'static str, NameStat)> = Vec::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let at = match stats.iter().position(|(n, _)| *n == s.name) {
            Some(at) => at,
            None => {
                stats.push((s.name, NameStat::default()));
                stats.len() - 1
            }
        };
        let d = s.end_ns - s.start_ns;
        let st = &mut stats[at].1;
        st.count += 1;
        st.total_ns += d;
        st.self_ns += d.saturating_sub(covered);
    }
    stats
}

fn trace_file(spec: &Spec, seed: u64, rec: &Recorder, stats: &[(&'static str, NameStat)]) -> Json {
    let written: Vec<Json> = rec
        .spans
        .iter()
        .enumerate()
        .take_while(|(_, s)| s.request <= REQUESTS_WRITTEN)
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::Int(id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                (
                    "parent",
                    if s.parent == NO_PARENT {
                        Json::Null
                    } else {
                        Json::Int(u64::from(s.parent))
                    },
                ),
                ("request_id", Json::Int(u64::from(s.request))),
            ])
        })
        .collect();
    let summary = stats
        .iter()
        .map(|(name, st)| {
            let fields = [
                ("count", st.count),
                ("total_ns", st.total_ns),
                ("self_ns", st.self_ns),
            ];
            (
                name.to_string(),
                Json::obj(fields.map(|(k, v)| (k, Json::Int(v)))),
            )
        })
        .collect();
    Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(seed)),
        ("spans_recorded", Json::Int(rec.spans.len() as u64)),
        ("spans_dropped", Json::Int(rec.dropped)),
        ("requests_written", Json::Int(u64::from(REQUESTS_WRITTEN))),
        ("summary", Json::Obj(summary)),
        ("spans", Json::Arr(written)),
    ])
}

// ---------------------------------------------------------------------

fn arg(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn main() -> Result<(), String> {
    let name =
        arg("--workload").ok_or("usage: kvd-benchmark-trace --workload <name> [--seed n]")?;
    let spec = workload(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = arg("--seed").map_or(Ok(0x5EED), |s| {
        s.parse().map_err(|_| "--seed needs a number")
    })?;

    let mut ops = Vec::new();
    OpGen::new(spec, seed, OpGen::sampler(spec)).fill(TRACE_OPS, &mut ops);
    let frames = frames_of(spec, &ops);
    let clock = clock_ns();
    let cfg = shard_config(spec, seed);

    // The traced walk.
    let shared = Shared(Rc::new(RefCell::new(Recorder::with_capacity(
        TRACE_OPS * 24,
    ))));
    let mut traced = processor(&cfg, |mem| Traced {
        inner: mem,
        rec: shared.clone(),
    });
    preload_processor(&mut traced, spec);
    shared.0.borrow_mut().on = true;
    let (traced_ns, walked, failed) = walk(&mut traced, &frames, &mut shared.clone());
    shared.0.borrow_mut().on = false;
    drop(traced);

    // The same requests with the probe and the wrapper compiled out.
    let mut plain = processor(&cfg, |mem| mem);
    preload_processor(&mut plain, spec);
    let (plain_ns, plain_walked, plain_failed) = walk(&mut plain, &frames, &mut NoProbe);
    if (walked, failed) != (plain_walked, plain_failed) || failed > 0 {
        return Err(format!("walks disagree or failed: traced {walked}/{failed}, plain {plain_walked}/{plain_failed}"));
    }
    let final_ratio = plain.table().mem().dispatcher().ratio();
    drop(plain);

    let rec = shared.0.borrow();
    let stats = summarize(&rec.spans);
    let stat = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    };
    // A span's own clock reads sit inside it; take one pair back out.
    let mean = |name: &str| {
        let s = stat(name);
        if s.count == 0 {
            0.0
        } else {
            (s.total_ns as f64 / s.count as f64 - clock).max(0.0)
        }
    };
    let execute = stat("core.execute");
    let mem_spans =
        stat("mem.read_hit").count + stat("mem.read_miss").count + stat("mem.write").count;
    // Self time of execute: its spans less their memory children, less
    // the clock reads those children wrapped around themselves.
    let execute_self = (execute.self_ns as f64 - clock * (execute.count + mem_spans) as f64)
        .max(0.0)
        / execute.count.max(1) as f64;

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}.json", spec.name);
    std::fs::write(&path, trace_file(spec, seed, &rec, &stats).to_line())
        .map_err(|e| format!("{path}: {e}"))?;

    // Isolated passes.
    let hash = hash_pass(spec, &ops, clock);
    let keys: Vec<Vec<u8>> = ops.iter().map(|op| tcp_key(op.key)).collect();
    let route_ns = per_call(keys.len(), |i| {
        black_box(shard_of(black_box(&keys[i]), SHARDS));
    });
    let parse_ns = per_call(frames.len(), |i| {
        black_box(parse(black_box(&frames[i])));
    });
    let mut reply = Vec::with_capacity(1 << 20);
    let mut value = Vec::new();
    let encode_ns = per_call(ops.len(), |i| {
        if reply.len() > 1 << 19 {
            reply.clear();
        }
        let op = &ops[i];
        if i % 64 == 0 {
            write_value(
                &Stamp {
                    key: op.key,
                    writer: 0,
                    version: 0,
                    len: preload_len(spec, op.key),
                },
                &mut value,
            );
        }
        encode_value(&mut reply, &keys[i], op.key, None, &value);
    });
    let (execute_ns, allocs_per_op) = execute_pass(spec, seed, &ops);

    let metrics: Vec<(&str, f64, &str)> = vec![
        ("server.parse_ns", parse_ns, "ns"),
        ("server.encode_ns", encode_ns, "ns"),
        ("net.decode_ns", decode_pass(&ops), "ns"),
        ("net.route_ns", route_ns, "ns"),
        ("ooo.admit_complete_ns", station_pass(&ops), "ns"),
        ("hash.probe_ns", probe_pass(), "ns"),
        ("hash.get_ns", hash.ns[Kind::Get as usize], "ns"),
        ("hash.put_ns", hash.ns[Kind::Set as usize], "ns"),
        ("hash.delete_ns", hash.ns[Kind::Delete as usize], "ns"),
        (
            "hash.mem_access_per_get",
            hash.accesses[Kind::Get as usize],
            "1/op",
        ),
        (
            "hash.mem_access_per_put",
            hash.accesses[Kind::Set as usize],
            "1/op",
        ),
        ("hash.memory_utilization", hash.utilization, "ratio"),
        ("slab.alloc_free_ns", slab_pass(spec), "ns"),
        ("mem.read_hit_ns", mean("mem.read_hit"), "ns"),
        ("mem.read_miss_ns", mean("mem.read_miss"), "ns"),
        ("mem.write_ns", mean("mem.write"), "ns"),
        ("mem.final_dispatch_ratio", final_ratio, "ratio"),
        ("core.execute_ns", execute_ns, "ns"),
        ("core.execute_self_ns", execute_self, "ns"),
        ("core.allocs_per_op", allocs_per_op, "1/op"),
        (
            "trace.overhead_ratio",
            traced_ns as f64 / plain_ns as f64,
            "ratio",
        ),
        ("trace.spans", rec.spans.len() as f64, "count"),
        ("trace.clock_ns", clock, "ns"),
        (
            "trace.walk_service_us",
            plain_ns as f64 / frames.len() as f64 / 1e3,
            "us",
        ),
        ("trace.walk_requests", frames.len() as f64, "count"),
    ];
    for (name, value, unit) in metrics {
        println!("metric {name} {value:?} {unit}");
    }
    eprintln!(
        "wrote {path} ({} spans, {} dropped)",
        rec.spans.len(),
        rec.dropped
    );
    Ok(())
}
