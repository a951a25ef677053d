//! Every call the gated benchmark makes into the repo goes through this
//! file, and it keeps to the forms ROADMAP item 2 promises to keep:
//!
//! * `kvd_server::{serve, ServerConfig::loopback, ServerHandle}`
//! * `kvd_core::KvDirectConfig::with_memory` (+ its `adaptive_cache` field)
//! * `kvd_core::KvDirectStore::execute_one_into`
//! * `kvd_core::SystemSim::{new, store_mut, run, set_record_outcomes, outcomes,
//!   histograms}` and `kvd_sim::Histogram::{count, iter_nonzero}`
//! * `kvd_core::ParallelSystemSim::{new, shard_store_mut, run,
//!   set_record_outcomes, shard_outcomes}`
//! * `RunSummary` fields, `OpLedger` sections
//! * `kvd_net::{KvRequest, KvRequestRef, KvResponse, Status, shard_of}`
//!
//! When one of these changes, this is the only file of the gated binary
//! to touch. The traced binary (`src/bin/trace.rs`) reaches further down
//! and keeps its own imports so it can break without taking this along.

use std::io::{self, BufRead, Write};

use kvd_core::parallel::{ParallelSimConfig, ParallelSystemSim};
use kvd_core::{KvDirectConfig, KvDirectStore, SystemSim, SystemSimConfig};
use kvd_mem::AdaptiveCacheConfig;
use kvd_net::{shard_of, KvRequest, KvRequestRef, KvResponse, Status};
use kvd_server::{serve, ServerConfig};
use kvd_sim::{Component, Histogram, OpClass, OpLedger, RunSummary};

use crate::gen::{preload_len, write_value, Kind, Op, Spec, Stamp};
use crate::model::Reply;
use crate::report::Metric;

/// Memory of every store the benchmark builds (the server's shards get
/// the same from `ServerConfig::loopback`).
pub const STORE_MEMORY: u64 = 64 << 20;
/// Operations per simulated request packet (the paper's batching).
pub const BATCH: usize = 40;
/// Shards and workers of the parallel engine and of the server.
pub const SHARDS: usize = 2;

/// A request in the engines' own form.
pub type Request = KvRequest;

/// Engine-path keys are the key number as 8 little-endian bytes.
pub fn engine_key(key: u32) -> [u8; 8] {
    u64::from(key).to_le_bytes()
}

fn store_config(spec: &Spec, seed: u64) -> KvDirectConfig {
    let mut cfg = KvDirectConfig::with_memory(STORE_MEMORY);
    if spec.adaptive {
        cfg.adaptive_cache = Some(AdaptiveCacheConfig::data_path(seed));
    }
    cfg
}

/// Turns generated operations into engine requests (not timed).
pub fn encode_ops(ops: &[Op], out: &mut Vec<Request>) {
    let mut value = Vec::new();
    out.clear();
    out.extend(ops.iter().map(|op| {
        let key = engine_key(op.key);
        match op.kind {
            Kind::Get => KvRequest::get(&key),
            Kind::Delete => KvRequest::delete(&key),
            Kind::Set => {
                let stamp = Stamp {
                    key: op.key,
                    writer: 0,
                    version: op.version,
                    len: op.len,
                };
                write_value(&stamp, &mut value);
                KvRequest::put(&key, &value)
            }
        }
    }));
}

fn put(store: &mut KvDirectStore, key: &[u8], value: &[u8], resp: &mut KvResponse) -> Status {
    store.execute_one_into(KvRequestRef::put(key, value), resp);
    resp.status
}

/// Writes every key at version 0 through `put`.
fn preload(spec: &Spec, mut put: impl FnMut(&[u8], &[u8]) -> Status) -> Result<(), String> {
    let mut value = Vec::new();
    for key in 0..spec.population {
        let stamp = Stamp {
            key,
            writer: 0,
            version: 0,
            len: preload_len(spec, key),
        };
        write_value(&stamp, &mut value);
        let status = put(&engine_key(key), &value);
        if status != Status::Ok {
            return Err(format!("preload of key {key} answered {status:?}"));
        }
    }
    Ok(())
}

fn scratch_response() -> KvResponse {
    KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    }
}

fn reply_of<'a>(op: &Op, outcome: &'a (Status, Vec<u8>)) -> Reply<'a> {
    match (op.kind, outcome.0) {
        (Kind::Get, Status::Ok) => Reply::Value(&outcome.1),
        (Kind::Get, Status::NotFound) => Reply::Miss,
        (Kind::Set, Status::Ok) => Reply::Stored,
        (Kind::Delete, Status::Ok) => Reply::Deleted,
        (Kind::Delete, Status::NotFound) => Reply::NotFound,
        _ => Reply::Error,
    }
}

/// What one `run` call reports.
pub struct RunOut {
    pub ops: u64,
    /// Operations answered `Ok` or `NotFound`.
    pub answered: u64,
    pub sim_mops: f64,
}

/// A counted, verified run on the fresh sequential engine.
pub struct Counted {
    pub out: RunOut,
    /// Simulated GET latency percentiles, microseconds.
    pub sim_get_p50_us: f64,
    pub sim_get_p95_us: f64,
    /// The per-layer counts of the run (preload excluded). They come from
    /// the ledger of a seeded run, so they repeat exactly.
    pub counts: Vec<Metric>,
}

/// Percentile `p` of a latency histogram in microseconds, interpolated
/// inside the bucket it falls in. `Summary`'s own percentiles are bucket
/// lower bounds, 1.6 % apart: they read the same for most seeds and then
/// jump a whole bucket, which is no use against a bound of a few percent.
fn percentile_us(h: &Histogram, p: f64) -> f64 {
    let rank = p / 100.0 * h.count() as f64;
    let mut below = 0.0;
    for (lower, n) in h.iter_nonzero() {
        if below + n as f64 >= rank {
            // Buckets are 64 to a power of two: a bucket starting at
            // `lower` is `2^(floor(log2 lower) - 6)` wide (1 below 64).
            let width = 1u64 << lower.max(64).ilog2().saturating_sub(6);
            let inside = (rank - below) / n as f64;
            return (lower as f64 + inside * width as f64) / 1e6;
        }
        below += n as f64;
    }
    0.0
}

fn run_out(summary: &RunSummary) -> RunOut {
    RunOut {
        ops: summary.ops,
        answered: summary.goodput_ops,
        sim_mops: summary.mops,
    }
}

/// The sequential timed engine, preloaded.
pub struct SeqEngine {
    sim: SystemSim,
    base: OpLedger,
}

impl SeqEngine {
    pub fn preloaded(spec: &Spec, seed: u64) -> Result<SeqEngine, String> {
        let mut sim = SystemSim::new(SystemSimConfig::paper(store_config(spec, seed), BATCH));
        let mut resp = scratch_response();
        preload(spec, |k, v| put(sim.store_mut(), k, v, &mut resp))?;
        // An empty run reports the ledger as preload left it.
        let base = sim.run(&[]).ledger;
        Ok(SeqEngine { sim, base })
    }

    /// Runs `reqs` to completion. With `record`, keeps every outcome for
    /// [`Self::replies`].
    pub fn run(&mut self, reqs: &[Request], record: bool) -> RunOut {
        self.sim.set_record_outcomes(record);
        run_out(&self.sim.run(reqs).summary)
    }

    /// [`Self::run`] with outcomes recorded, plus what only the first run
    /// on a fresh engine can say: latency percentiles and ledger counts.
    pub fn run_counted(&mut self, reqs: &[Request]) -> Counted {
        self.sim.set_record_outcomes(true);
        let report = self.sim.run(reqs);
        let out = run_out(&report.summary);
        let gets = self.sim.histograms().0;
        Counted {
            sim_get_p50_us: percentile_us(gets, 50.0),
            sim_get_p95_us: percentile_us(gets, 95.0),
            counts: layer_counts(&report.ledger.since(&self.base), &out),
            out,
        }
    }

    /// The recorded replies of the last run, in request order.
    pub fn replies(&self, ops: &[Op], mut f: impl FnMut(&Op, Reply<'_>)) {
        let outcomes = self.sim.outcomes();
        assert_eq!(outcomes.len(), ops.len(), "one outcome per operation");
        for (op, outcome) in ops.iter().zip(outcomes) {
            f(op, reply_of(op, outcome));
        }
    }
}

/// The parallel engine: `SHARDS` shards on as many workers.
pub struct ParEngine {
    sim: ParallelSystemSim,
}

impl ParEngine {
    pub fn preloaded(spec: &Spec, seed: u64, workers: usize) -> Result<ParEngine, String> {
        let mut cfg = ParallelSimConfig::paper(store_config(spec, seed), BATCH, SHARDS);
        cfg.workers = workers;
        let mut sim = ParallelSystemSim::new(cfg);
        let mut resp = scratch_response();
        preload(spec, |k, v| {
            put(sim.shard_store_mut(shard_of(k, SHARDS)), k, v, &mut resp)
        })?;
        Ok(ParEngine { sim })
    }

    pub fn run(&mut self, reqs: &[Request], record: bool) -> RunOut {
        self.sim.set_record_outcomes(record);
        let report = self.sim.run(reqs);
        run_out(&report.summary)
    }

    /// The recorded replies of the last run. Each shard keeps its own in
    /// its own order, so they are matched back by routing every operation
    /// the way the engine did.
    pub fn replies(&self, ops: &[Op], mut f: impl FnMut(&Op, Reply<'_>)) {
        let mut cursor = [0usize; SHARDS];
        for op in ops {
            let shard = shard_of(&engine_key(op.key), SHARDS);
            let outcome = &self.sim.shard_outcomes(shard)[cursor[shard]];
            cursor[shard] += 1;
            f(op, reply_of(op, outcome));
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer counts in a run's ledger, named by crate.
fn layer_counts(l: &OpLedger, out: &RunOut) -> Vec<Metric> {
    let ops = out.ops;
    let per_op = |n: u64| ratio(n, ops);
    let count = |n: u64| n as f64;
    let share = |c: Component| l.latency.share(OpClass::Get, c);
    vec![
        Metric::new("net.packets", count(l.net.packets), "count"),
        Metric::new(
            "net.payload_bytes_per_op",
            per_op(l.net.payload_bytes),
            "B/op",
        ),
        Metric::new(
            "net.ops_per_batch",
            ratio(l.net.batch_ops, l.net.batches),
            "op/batch",
        ),
        Metric::new("ooo.forwarded_per_op", per_op(l.station.forwarded), "1/op"),
        Metric::new("ooo.queued_per_op", per_op(l.station.queued), "1/op"),
        Metric::new("ooo.rejected", count(l.station.rejected), "count"),
        Metric::new("ooo.high_water", count(l.station.high_water), "count"),
        Metric::new("slab.allocs_per_op", per_op(l.slab.allocs), "1/op"),
        Metric::new("slab.frees_per_op", per_op(l.slab.frees), "1/op"),
        Metric::new("slab.splits", count(l.slab.splits), "count"),
        Metric::new("slab.merges", count(l.slab.merges), "count"),
        Metric::new("slab.failed_allocs", count(l.slab.failed_allocs), "count"),
        Metric::new("slab.dma_syncs_per_op", per_op(l.slab.dma_syncs), "1/op"),
        Metric::new(
            "mem.cache_hit_ratio",
            ratio(l.dram.cache_hits, l.dram.cache_hits + l.dram.cache_misses),
            "ratio",
        ),
        Metric::new(
            "mem.dram_lines_per_op",
            per_op(l.dram.reads + l.dram.writes),
            "1/op",
        ),
        Metric::new("mem.admitted_fills", count(l.cache.admitted_fills), "count"),
        Metric::new("mem.rejected_fills", count(l.cache.rejected_fills), "count"),
        Metric::new("mem.evict_dirty", count(l.cache.evict_dirty), "count"),
        Metric::new("mem.retune_steps", count(l.cache.retune_steps), "count"),
        Metric::new("pcie.dma_reads_per_op", per_op(l.pcie.dma_reads), "1/op"),
        Metric::new("pcie.dma_writes_per_op", per_op(l.pcie.dma_writes), "1/op"),
        Metric::new(
            "pcie.bytes_per_op",
            per_op(l.pcie.read_bytes + l.pcie.write_bytes),
            "B/op",
        ),
        Metric::new("pcie.tag_stalls", count(l.pcie.tag_stalls), "count"),
        Metric::new("pcie.credit_stalls", count(l.pcie.credit_stalls), "count"),
        Metric::new("core.answered_ratio", ratio(out.answered, ops), "ratio"),
        Metric::new("core.oom", count(l.core.oom), "count"),
        Metric::new("sim.latency_share.net", share(Component::Network), "ratio"),
        Metric::new("sim.latency_share.pcie", share(Component::Pcie), "ratio"),
        Metric::new("sim.latency_share.dram", share(Component::Dram), "ratio"),
        Metric::new(
            "sim.latency_share.station",
            share(Component::Processor),
            "ratio",
        ),
    ]
}

// ---------------------------------------------------------------------
// The child server
// ---------------------------------------------------------------------

/// First line the child prints: `listening <addr>`.
pub const LISTENING: &str = "listening ";
/// Last line the child prints: `ledger <name>=<count> ...`.
pub const LEDGER: &str = "ledger ";

/// Body of `kvd-benchmark --serve`: serve on a free loopback port, say
/// where, serve until stdin closes, then print the ledger's counts.
pub fn serve_until_stdin_closes(adaptive_seed: Option<u64>) -> io::Result<()> {
    let mut cfg = ServerConfig::loopback(SHARDS);
    cfg.store.adaptive_cache = adaptive_seed.map(AdaptiveCacheConfig::data_path);
    let handle = serve("127.0.0.1:0", cfg)?;
    let mut stdout = io::stdout().lock();
    writeln!(stdout, "{LISTENING}{}", handle.local_addr())?;
    stdout.flush()?;
    // Any input is ignored; end of input is the signal to stop.
    for line in io::stdin().lock().lines() {
        line?;
    }
    let s = handle.stop().server;
    writeln!(
        stdout,
        "{LEDGER}frames={} bytes_in={} bytes_out={} protocol_errors={} server_errors={}",
        s.frames, s.bytes_in, s.bytes_out, s.protocol_errors, s.server_errors,
    )?;
    stdout.flush()
}
