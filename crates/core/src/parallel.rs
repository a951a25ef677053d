//! Parallel sharded execution engine — the paper's multi-NIC server
//! (§5.2, Figure 18), simulated rather than composed.
//!
//! Ten programmable NICs in one server give 10 × 180 Mops of NIC-side
//! capacity, but every NIC's DMA engines draw from the same host DRAM
//! controllers, so measured throughput saturates at 1.22 Gops. This
//! module reproduces that experiment structurally: one full timed
//! pipeline ([`SystemSim`]: client ↔ 40 GbE ↔ KV processor ↔ PCIe/DRAM)
//! per shard, key-partitioned request routing via [`kvd_net::shard_of`],
//! and a conservative time-quantum host-memory arbiter
//! ([`kvd_sim::arbiter::HostArbiter`]'s charge inside a [`CreditArbiter`])
//! standing in for the shared host memory.
//!
//! # Routing and the run origin
//!
//! [`ParallelSystemSim::run`] and [`ParallelSystemSim::run_open`] copy no
//! request: [`route`] records, per shard, the positions of its requests in
//! the caller's slice (pooled `Vec<u32>`s), and each shard steps over a
//! [`Routed`] view of that slice — timed or not, as the slice is — through
//! the same batch loop the sequential engine runs.
//!
//! Every shard's links and service backlogs keep their clocks across
//! runs. A closed-loop run therefore starts at one common origin — the
//! latest [`SystemSim::clock`] over all shards, zero on a fresh engine:
//! every shard opens its client windows there and the credit frontier
//! starts there, so the shards are busy over the same windows and the
//! report covers the run's own span. (Per-shard origins would let the
//! busy spans drift apart run over run; the arbiter would then settle
//! the idle shard by null message while the other works, and two
//! workers would take turns instead of overlapping.)
//! [`ParallelSystemSim::run_open`] starts at zero: its arrival schedule
//! owns the time axis.
//!
//! # Synchronization scheme
//!
//! Simulated time advances in *arbiter windows* of one quantum. Window
//! `k` spans `[f_k, f_k + q)`: a shard simulates all request batches that
//! issue inside the window (issue times floored at `f_k`), counting the
//! host cache lines its DMA engines touched. When every shard's window-k
//! traffic is in, the aggregate is charged to the arbiter; an
//! oversubscribed window stretches the next window's floor,
//! `f_{k+1} = f_k + q + stall`, so every shard's subsequent requests are
//! pushed out and aggregate throughput degrades exactly to the host's
//! random-access capacity — the Figure 18 knee emerges from contention,
//! not from a formula.
//!
//! Coordination is *asynchronous*: instead of a global barrier (spawn
//! threads, step every shard, merge every window ledger, repeat each
//! 8 µs quantum), workers that live for the whole run — the calling
//! thread is the first of them — draw credit from a [`CreditArbiter`].
//! A shard publishes its window as three `u64`s through its own atomic
//! cell; whichever publication closes the window settles it and releases
//! the next; shards that cannot touch a window (drained, or next event
//! beyond the horizon) are settled by Chandy–Misra null messages without
//! their threads waking. Per-window
//! `OpLedger` merges are gone from the hot path entirely — each shard's
//! ledger accumulates in place and is folded once per report.
//!
//! # Determinism
//!
//! Within a window each shard's evolution depends only on its own state
//! and the `(horizon, floor)` pair, which is itself a pure function of
//! per-window aggregate traffic — a commutative sum of `u64`s,
//! independent of which OS thread stepped which shard and of how far any
//! worker ran ahead. Worker threads only partition the shard vector;
//! they exchange no other state. A run is therefore bit-identical for
//! any worker count, which `tests/parallel_determinism.rs` enforces over
//! a worker × quantum matrix.

use kvd_net::{shard_of, KvRequest, KvRequestRef, Status};
use kvd_sim::{
    ArbiterStats, Credit, CreditArbiter, Histogram, HostArbiterConfig, OpLedger, RunSummary,
    SimTime,
};

use crate::store::{KvDirectConfig, KvDirectStore, StoreError};
use crate::system::{
    assert_arrivals_sorted, RequestStream, SystemSim, SystemSimConfig, SystemSimReport,
};

/// Decorrelates shard fault schedules: shard `i`'s store fault seed is
/// xored with `i * SHARD_FAULT_SALT` so ten NICs never fault in lockstep.
/// Zero-rate planes never consume randomness, so fault-free runs are
/// unaffected by the salt.
const SHARD_FAULT_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// Configuration of the parallel multi-shard engine.
#[derive(Debug, Clone)]
pub struct ParallelSimConfig {
    /// Per-shard pipeline configuration (one NIC's worth).
    pub shard: SystemSimConfig,
    /// Number of shards (NICs).
    pub shards: usize,
    /// OS worker threads stepping the shards; `0` uses the machine's
    /// available parallelism. Results are bit-identical for any value.
    pub workers: usize,
    /// Shared host-memory arbiter.
    pub arbiter: HostArbiterConfig,
    /// Master seed; each shard's rng/jitter forks deterministically from
    /// it, so shard `i` behaves identically regardless of shard count.
    pub seed: u64,
    /// Retain each shard's full individual report in
    /// [`ParallelSimReport::per_shard`]. Off by default: every shard's
    /// report carries its histograms and full op-cost ledger, so a
    /// large-shard-count run would pay O(shards) payload on every
    /// report (and every report clone/compare) for data most callers
    /// never read.
    pub per_shard_reports: bool,
}

impl ParallelSimConfig {
    /// The paper's testbed: `shards` NICs, each running the Figure 17
    /// pipeline, over the shared host-DRAM arbiter.
    pub fn paper(store: KvDirectConfig, batch: usize, shards: usize) -> Self {
        ParallelSimConfig {
            shard: SystemSimConfig::paper(store, batch),
            shards,
            workers: 0,
            arbiter: HostArbiterConfig::paper(),
            seed: 0xF1_618,
            per_shard_reports: false,
        }
    }

    /// Builder flag: retain per-shard reports (see
    /// [`Self::per_shard_reports`]).
    pub fn with_per_shard_reports(mut self) -> Self {
        self.per_shard_reports = true;
        self
    }
}

/// Result of a parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelSimReport {
    /// Shards simulated.
    pub shards: usize,
    /// Aggregate run accounting: op totals, throughput/goodput rates
    /// over the slowest shard's makespan, and shard-merged latency
    /// summaries. Also reachable through `Deref`, so `r.mops` works.
    pub summary: RunSummary,
    /// The op-cost ledger merged across shards in shard order
    /// (deterministic: bit-identical for any worker count).
    pub ledger: OpLedger,
    /// Each shard's individual report, in shard order. Empty unless
    /// [`ParallelSimConfig::per_shard_reports`] is set.
    pub per_shard: Vec<SystemSimReport>,
    /// Host-memory arbiter activity (windows, oversubscription, stall).
    pub arbiter: ArbiterStats,
}

impl std::ops::Deref for ParallelSimReport {
    type Target = RunSummary;

    fn deref(&self) -> &RunSummary {
        &self.summary
    }
}

/// The parallel sharded simulator.
///
/// # Examples
///
/// ```
/// use kvd_core::parallel::{ParallelSimConfig, ParallelSystemSim};
/// use kvd_core::KvDirectConfig;
/// use kvd_net::KvRequest;
///
/// let mut sim = ParallelSystemSim::new(ParallelSimConfig::paper(
///     KvDirectConfig::with_memory(1 << 20),
///     8,
///     4,
/// ));
/// for id in 0..64u64 {
///     sim.preload_put(&id.to_le_bytes(), b"v").unwrap();
/// }
/// let reqs: Vec<KvRequest> = (0..256u64)
///     .map(|i| KvRequest::get(&(i % 64).to_le_bytes()))
///     .collect();
/// let r = sim.run(&reqs);
/// assert_eq!(r.ops, 256);
/// assert!(r.mops > 0.0);
/// ```
pub struct ParallelSystemSim {
    cfg: ParallelSimConfig,
    sims: Vec<SystemSim>,
    credit: CreditArbiter,
    /// The router's index lists, one per shard, kept across runs so that
    /// a steady-state [`Self::run`] allocates nothing.
    routes: Vec<Vec<u32>>,
    /// The GET and PUT histograms a run's report merges the shards' into,
    /// kept for the same reason.
    merged: [Histogram; 2],
}

/// A sub-sequence of a stream, by index: `idx` lists, in stream order, the
/// positions in `reqs` of the requests the view holds — one shard's share
/// of a routed stream, or the live requests of one batch the timed engine
/// hands the processor. The view is whatever stream `reqs` is:
/// closed-loop over `[KvRequest]`, carrying its arrival schedule over
/// `[(SimTime, KvRequest)]` (a sub-sequence of a non-decreasing schedule
/// is one).
#[derive(Debug)]
pub struct Routed<'a, S: ?Sized = [KvRequest]> {
    /// The whole stream.
    pub reqs: &'a S,
    /// Positions of the view's requests in `reqs`, ascending.
    pub idx: &'a [u32],
}

impl<S: RequestStream + ?Sized> RequestStream for Routed<'_, S> {
    fn len(&self) -> usize {
        self.idx.len()
    }

    fn get(&self, i: usize) -> KvRequestRef<'_> {
        self.reqs.get(self.idx[i] as usize)
    }

    fn arrival(&self, i: usize) -> Option<SimTime> {
        self.reqs.arrival(self.idx[i] as usize)
    }
}

/// Client-side routing by index: clears `routes` (one list per shard) and
/// pushes every request's position onto its owning shard's list. Each
/// key's shard is a pure hash ([`shard_of`]), so the lists partition
/// `0..reqs.len()`, each ascending — request order within a shard is
/// preserved — and no key or value byte is copied.
///
/// # Panics
///
/// Panics if the stream has more than `u32::MAX` requests.
pub fn route<T>(reqs: &[T], routes: &mut [Vec<u32>])
where
    [T]: RequestStream,
{
    assert!(
        u32::try_from(reqs.len()).is_ok(),
        "a routed stream is indexed by u32"
    );
    for list in routes.iter_mut() {
        list.clear();
    }
    let n = routes.len();
    for i in 0..reqs.len() {
        routes[shard_of(RequestStream::get(reqs, i).key, n)].push(i as u32);
    }
}

impl ParallelSystemSim {
    /// Builds one pipeline per shard, each seeded from the master seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards == 0` or the arbiter quantum is zero.
    pub fn new(cfg: ParallelSimConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let sims = (0..cfg.shards)
            .map(|i| {
                let salt = cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut shard_cfg = cfg.shard.clone();
                shard_cfg.store.fault_seed ^= (i as u64).wrapping_mul(SHARD_FAULT_SALT);
                SystemSim::with_seed(shard_cfg, salt)
            })
            .collect();
        ParallelSystemSim {
            credit: CreditArbiter::new(cfg.arbiter.clone(), cfg.shards),
            routes: vec![Vec::new(); cfg.shards],
            merged: [Histogram::new(), Histogram::new()],
            sims,
            cfg,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sims.len()
    }

    /// Preloads a key/value pair into its owning shard (functional path,
    /// outside simulated time).
    pub fn preload_put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let s = shard_of(key, self.sims.len());
        self.sims[s].store_mut().put(key, value)
    }

    /// Direct access to one shard's store (λ registration, preloading).
    pub fn shard_store_mut(&mut self, i: usize) -> &mut KvDirectStore {
        self.sims[i].store_mut()
    }

    fn worker_count(&self) -> usize {
        let w = if self.cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.cfg.workers
        };
        w.clamp(1, self.sims.len())
    }

    /// Records every shard's per-request outcomes for consistency
    /// checking (see [`SystemSim::set_record_outcomes`]).
    pub fn set_record_outcomes(&mut self, on: bool) {
        for sim in &mut self.sims {
            sim.set_record_outcomes(on);
        }
    }

    /// Outcomes shard `i` captured during the last run, aligned with the
    /// requests routed to it (route with [`kvd_net::shard_of`] to
    /// reconstruct the mapping client-side).
    pub fn shard_outcomes(&self, i: usize) -> &[(Status, Vec<u8>)] {
        self.sims[i].outcomes()
    }

    /// Routes the stream to its owning shards, simulates to completion,
    /// and merges the per-shard reports. Nothing is copied, and the run
    /// starts at one origin for all shards — the latest shard clock, zero
    /// on a fresh engine — and reports over its own span (see the module
    /// docs, "Routing and the run origin").
    pub fn run(&mut self, reqs: &[KvRequest]) -> ParallelSimReport {
        let origin = self
            .sims
            .iter()
            .map(SystemSim::clock)
            .max()
            .expect("at least one shard");
        self.drive(origin, reqs)
    }

    /// Open-loop variant of [`Self::run`]: each request carries its
    /// client issue time. Routing preserves per-shard arrival order, so
    /// every shard sees a sorted sub-schedule. The arrival schedule owns
    /// the time axis, so the run starts at zero whatever ran before.
    ///
    /// # Panics
    ///
    /// Panics if arrival times are not non-decreasing.
    pub fn run_open(&mut self, reqs: &[(SimTime, KvRequest)]) -> ParallelSimReport {
        assert_arrivals_sorted(reqs.iter().map(|(t, _)| *t));
        self.drive(SimTime::ZERO, reqs)
    }

    /// Routes `reqs` by index, opens every shard at `origin`, drives every
    /// shard's [`Routed`] share to completion through the asynchronous
    /// credit arbiter on a time axis starting there, and merges the
    /// shards' reports: workers draw `(window, floor, horizon, stall)`
    /// credit per shard, advance the shard one window over its view,
    /// publish the three scalars the window produced, and the arbiter
    /// settles windows as they close (by real publications or by null
    /// messages for idle shards). The settled stall feeds back into each
    /// shard as backpressure (`stall / quantum` host stretch) exactly when
    /// the shard next executes — the only time the gauge is read — so the
    /// per-shard `(absorb, advance)` sequence is bit-identical to the
    /// lockstep barrier's.
    ///
    /// The calling thread is worker 0: it steps the first shard chunk
    /// itself and only `workers − 1` threads are spawned. With one worker
    /// nothing is spawned and the drive allocates nothing.
    fn drive<T: Sync>(&mut self, origin: SimTime, reqs: &[T]) -> ParallelSimReport
    where
        [T]: RequestStream,
    {
        route(reqs, &mut self.routes);
        for sim in &mut self.sims {
            sim.begin_run(origin);
        }
        let quantum = self.credit.quantum();
        self.credit.begin(origin);
        let workers = self.worker_count();
        let (credit, routes) = (&self.credit, &self.routes[..]);
        let work = |base: usize, sims: &mut [SystemSim]| {
            Self::work(credit, base, sims, routes, reqs, quantum)
        };
        if workers == 1 {
            work(0, &mut self.sims);
        } else {
            let chunk = self.sims.len().div_ceil(workers);
            crossbeam::thread::scope(|s| {
                let mut chunks = self.sims.chunks_mut(chunk).enumerate();
                let (_, own) = chunks.next().expect("at least one shard");
                for (ci, sims) in chunks {
                    s.spawn(move |_| work(ci * chunk, sims));
                }
                work(0, own);
            })
            .expect("shard worker panicked");
        }
        // Leave every shard's pressure gauge holding the final window's
        // verdict, as the barrier engine did.
        let stall = self.credit.last_stall();
        for sim in self.sims.iter_mut() {
            sim.absorb_host_stall(stall, quantum);
        }
        self.pooled_report()
    }

    /// One worker's loop over its owned shard slice (`base..base +
    /// sims.len()` in global shard indices). Steps each shard through the
    /// one window the arbiter will grant it before servicing the next, and
    /// sleeps on the arbiter only when every owned shard is blocked on
    /// settlement — which, with a single worker, never happens (the
    /// publication closing a window settles it synchronously). A shard
    /// with an empty stream drains in its first window.
    fn work<T>(
        credit: &CreditArbiter,
        base: usize,
        sims: &mut [SystemSim],
        routes: &[Vec<u32>],
        reqs: &[T],
        quantum: SimTime,
    ) where
        [T]: RequestStream,
    {
        let mut seen = credit.settled();
        loop {
            let mut progressed = false;
            let mut live = false;
            for (off, sim) in sims.iter_mut().enumerate() {
                let shard = base + off;
                let view = Routed {
                    reqs,
                    idx: &routes[shard],
                };
                match credit.credit(shard) {
                    Credit::Step {
                        window,
                        floor,
                        horizon,
                        stall,
                    } => {
                        // Fold the settled stall of the previous window
                        // into the shard's backpressure gauge before
                        // stepping (window 0 has no previous window: its
                        // gauge keeps the load-time zeros, as under the
                        // barrier).
                        if window > 0 {
                            sim.absorb_host_stall(stall, quantum);
                        }
                        let w = sim.step_window_over(&view, horizon, floor);
                        credit.publish(shard, w.host_lines, w.next_event, w.done);
                        progressed = true;
                        live |= !w.done;
                    }
                    Credit::Blocked => live = true,
                    Credit::ShardDone => {}
                }
            }
            if !live || credit.all_done() {
                return;
            }
            seen = if progressed {
                credit.settled()
            } else {
                credit.wait_progress(seen)
            };
        }
    }

    /// Folds the per-shard state into one report. Shard-order fold:
    /// ledger merge is associative and commutative, but folding in shard
    /// order keeps the invariant trivially auditable (and bit-identical
    /// for any worker count). Per-shard reports are retained only when
    /// [`ParallelSimConfig::per_shard_reports`] is set.
    pub fn merged_report(&self) -> ParallelSimReport {
        let mut merged = [Histogram::new(), Histogram::new()];
        Self::fold(&self.cfg, &self.sims, self.credit.stats(), &mut merged)
    }

    /// [`Self::merged_report`] for the run that just ended, merging into
    /// the pooled histograms instead of two fresh ones.
    fn pooled_report(&mut self) -> ParallelSimReport {
        Self::fold(&self.cfg, &self.sims, self.credit.stats(), &mut self.merged)
    }

    /// [`Self::merged_report`] over the engine's parts, merging the
    /// shards' histograms into `merged` (GET, PUT).
    fn fold(
        cfg: &ParallelSimConfig,
        sims: &[SystemSim],
        arbiter: ArbiterStats,
        merged: &mut [Histogram; 2],
    ) -> ParallelSimReport {
        let n = sims.len();
        let [get_hist, put_hist] = merged;
        get_hist.clear();
        put_hist.clear();
        let mut ops = 0u64;
        let mut elapsed = SimTime::ZERO;
        let mut goodput_ops = 0u64;
        let mut shed_ops = 0u64;
        let mut expired_ops = 0u64;
        let mut ledger = OpLedger::default();
        let mut per_shard = Vec::new();
        if cfg.per_shard_reports {
            per_shard.reserve_exact(n);
        }
        for sim in sims {
            let r = sim.report();
            ops += r.ops;
            elapsed = elapsed.max(r.elapsed);
            goodput_ops += r.goodput_ops;
            shed_ops += r.shed_ops;
            expired_ops += r.expired_ops;
            let (g, p) = sim.histograms();
            get_hist.merge(g);
            put_hist.merge(p);
            ledger.merge(&r.ledger);
            if cfg.per_shard_reports {
                per_shard.push(r);
            }
        }
        ParallelSimReport {
            shards: n,
            summary: RunSummary::new(
                ops,
                elapsed,
                goodput_ops,
                shed_ops,
                expired_ops,
                get_hist,
                put_hist,
            ),
            ledger,
            per_shard,
            arbiter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::DetRng;

    fn workload(n: usize, keys: u64, seed: u64) -> Vec<KvRequest> {
        let mut rng = DetRng::seed(seed);
        (0..n)
            .map(|_| {
                let id = rng.u64_below(keys);
                if rng.chance(0.1) {
                    KvRequest::put(&id.to_le_bytes(), &[9u8; 8])
                } else {
                    KvRequest::get(&id.to_le_bytes())
                }
            })
            .collect()
    }

    fn preloaded(cfg: ParallelSimConfig, keys: u64) -> ParallelSystemSim {
        let mut sim = ParallelSystemSim::new(cfg);
        for id in 0..keys {
            sim.preload_put(&id.to_le_bytes(), &[id as u8; 8])
                .expect("preload fits");
        }
        sim
    }

    #[test]
    fn all_ops_complete_and_land_in_one_histogram() {
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 4)
            .with_per_shard_reports();
        let mut sim = preloaded(cfg, 2_000);
        let r = sim.run(&workload(4_000, 2_000, 11));
        assert_eq!(r.ops, 4_000);
        assert_eq!(r.get_latency.count + r.put_latency.count, 4_000);
        assert_eq!(r.per_shard.iter().map(|s| s.ops).sum::<u64>(), 4_000);
        assert!(r.elapsed > SimTime::ZERO);
        assert!(r.arbiter.windows > 0);
    }

    #[test]
    fn more_shards_give_more_throughput_until_contention() {
        let reqs = workload(20_000, 10_000, 12);
        let mut one = preloaded(
            ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40, 1),
            10_000,
        );
        let r1 = one.run(&reqs);
        let mut four = preloaded(
            ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40, 4),
            10_000,
        );
        let r4 = four.run(&reqs);
        assert!(
            r4.mops > r1.mops * 2.5,
            "4 shards {} vs 1 shard {} Mops",
            r4.mops,
            r1.mops
        );
    }

    #[test]
    fn starved_arbiter_never_stalls() {
        // A single lightly-loaded shard cannot oversubscribe host DRAM.
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 1, 1);
        let mut sim = preloaded(cfg, 100);
        let r = sim.run(&workload(200, 100, 13));
        assert_eq!(r.arbiter.oversubscribed, 0);
        assert_eq!(r.arbiter.stall, SimTime::ZERO);
    }

    #[test]
    fn shard_fault_schedules_are_decorrelated() {
        // With faults on, each shard must fault on its own schedule: a
        // lockstep schedule would make every NIC retry the same ops at
        // the same time, which no real deployment does.
        let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 4)
            .with_per_shard_reports();
        cfg.shard.store.fault_rates = kvd_sim::FaultRates::uniform(0.02);
        cfg.shard.store.fault_seed = 9;
        let mut sim = preloaded(cfg, 2_000);
        let r = sim.run(&workload(8_000, 2_000, 15));
        assert!(r.ledger.total_faults() > 0, "2% rates over 8k ops fire");
        let per: Vec<u64> = r
            .per_shard
            .iter()
            .map(|s| s.ledger.total_faults())
            .collect();
        assert!(
            per.windows(2).any(|w| w[0] != w[1]),
            "identical per-shard fault counts {per:?} suggest lockstep schedules"
        );
        // The merged rollup is exactly the per-shard sum.
        assert_eq!(per.iter().sum::<u64>(), r.ledger.total_faults());
    }

    #[test]
    fn open_loop_run_merges_goodput_and_outcomes() {
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 4);
        let mut sim = preloaded(cfg, 1_000);
        sim.set_record_outcomes(true);
        // 4 Mops offered across 4 shards: comfortably under capacity.
        let reqs: Vec<(SimTime, KvRequest)> = workload(2_000, 1_000, 16)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (SimTime::from_ns(250 * i as u64), r))
            .collect();
        let r = sim.run_open(&reqs);
        assert_eq!(r.ops, 2_000);
        assert_eq!(r.goodput_ops, 2_000, "uncongested open loop is all goodput");
        assert_eq!(r.shed_ops + r.expired_ops, 0);
        let recorded: usize = (0..sim.shards()).map(|i| sim.shard_outcomes(i).len()).sum();
        assert_eq!(recorded, 2_000, "every op's outcome captured exactly once");
    }

    #[test]
    #[should_panic(expected = "open-loop arrivals must be non-decreasing")]
    fn open_loop_run_rejects_a_schedule_that_goes_back_in_time() {
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 2);
        let mut reqs: Vec<(SimTime, KvRequest)> = workload(10, 100, 18)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (SimTime::from_ns(250 * i as u64), r))
            .collect();
        reqs.swap(3, 7);
        preloaded(cfg, 100).run_open(&reqs);
    }

    #[test]
    fn open_loop_agrees_across_worker_counts() {
        let reqs: Vec<(SimTime, KvRequest)> = workload(4_000, 2_000, 17)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (SimTime::from_ns(50 * i as u64), r))
            .collect();
        let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 16, 6);
        cfg.shard.store.fault_rates = kvd_sim::FaultRates::uniform(0.01);
        cfg.shard.store.overload = crate::overload::OverloadConfig::enabled();
        let mut a = preloaded(
            {
                let mut c = cfg.clone();
                c.workers = 1;
                c
            },
            2_000,
        );
        let mut b = preloaded(
            {
                let mut c = cfg;
                c.workers = 3;
                c
            },
            2_000,
        );
        assert_eq!(a.run_open(&reqs), b.run_open(&reqs));
    }

    /// `n` requests over `keys` Zipf-0.99 keys, 5% PUTs.
    fn zipf_workload(n: usize, keys: u64, seed: u64) -> Vec<KvRequest> {
        let mut rng = DetRng::seed(seed);
        let sampler = kvd_sim::ZipfSampler::new(keys, 0.99);
        (0..n)
            .map(|_| {
                let id = sampler.sample(&mut rng);
                if rng.chance(0.05) {
                    KvRequest::put(&id.to_le_bytes(), &[9u8; 8])
                } else {
                    KvRequest::get(&id.to_le_bytes())
                }
            })
            .collect()
    }

    #[test]
    fn a_rerun_on_one_parallel_engine_reports_its_own_span() {
        // Every shard's links and backlogs keep their clocks across runs.
        // A rerun that opened the client windows and the credit frontier
        // at zero anyway would queue behind them, quote its throughput
        // over the cumulative makespan and null-settle its way through
        // every window the previous runs covered.
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40, 2);
        let mut sim = preloaded(cfg, 5_000);
        let mut windows = 0;
        let mut first = None;
        for nth in 1..=5 {
            let r = sim.run(&zipf_workload(20_000, 5_000, 30 + nth));
            assert_eq!(r.ops, 20_000);
            let ran = r.arbiter.windows - windows;
            windows = r.arbiter.windows;
            let (mops, first_ran) = *first.get_or_insert((r.mops, ran));
            assert!(
                (0.9..1.1).contains(&(r.mops / mops)) && ran.abs_diff(first_ran) <= 2,
                "run {nth}: {} vs {mops} Mops over {ran} vs {first_ran} windows",
                r.mops
            );
        }
        let empty = sim.run(&[]);
        assert_eq!(empty.ops, 0);
        assert_eq!(empty.elapsed, SimTime::ZERO);
    }

    #[test]
    fn shards_of_a_rerun_are_busy_over_the_same_windows() {
        // The deterministic face of the overlap: once the shards start a
        // run at one instant, the settler publishes on a shard's behalf
        // only after the lighter shard (Zipf routes ~55/45) has drained.
        // With each shard starting where its own clocks stood, the busy
        // spans drift apart run over run and nearly every window of a
        // late rerun settles on a null message.
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40, 2)
            .with_per_shard_reports();
        let quantum = cfg.arbiter.quantum;
        let mut sim = preloaded(cfg, 5_000);
        let reqs = zipf_workload(20_000, 5_000, 41);
        let mut before = ArbiterStats::default();
        for _ in 1..20 {
            before = sim.run(&reqs).arbiter;
        }
        let r = sim.run(&reqs);
        let windows = r.arbiter.windows - before.windows;
        let nulls = r.arbiter.null_messages - before.null_messages;
        let lighter = r.per_shard.iter().map(|s| s.elapsed).min().expect("shards");
        let after_drain = windows - lighter.as_ps() / quantum.as_ps();
        assert!(
            nulls <= after_drain,
            "{nulls} null messages over {windows} windows, {after_drain} of them after \
             the lighter shard drained at {lighter:?}"
        );
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let reqs = workload(6_000, 3_000, 14);
        let mut a = preloaded(
            {
                let mut c = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 16, 6);
                c.workers = 1;
                c
            },
            3_000,
        );
        let mut b = preloaded(
            {
                let mut c = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 16, 6);
                c.workers = 3;
                c
            },
            3_000,
        );
        assert_eq!(a.run(&reqs), b.run(&reqs));
    }
}
