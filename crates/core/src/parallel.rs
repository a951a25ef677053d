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
//! ([`HostArbiter`]) standing in for the shared host memory.
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
//! every shard opens its client windows there and the first window
//! starts there, so the shards are busy over the same windows and the
//! report covers the run's own span. (Per-shard origins would let the
//! busy spans drift apart run over run; the idle shard would then sit
//! out window after window while the other works, and two workers would
//! take turns instead of overlapping.)
//! [`ParallelSystemSim::run_open`] starts at zero: its arrival schedule
//! owns the time axis.
//!
//! # Synchronization scheme
//!
//! The shards run on the crate's window driver. Window `k` spans
//! `[f_k, f_k + q)`: a shard simulates all request batches that issue
//! inside the window (issue times floored at `f_k`), counting the host
//! cache lines its DMA engines touched. At the window's rendezvous the
//! aggregate is charged to the arbiter; an oversubscribed window
//! stretches the next window's floor, `f_{k+1} = f_k + q + stall`, so
//! every shard's subsequent requests are pushed out and aggregate
//! throughput degrades exactly to the host's random-access capacity —
//! the Figure 18 knee emerges from contention, not from a formula.
//!
//! A shard that cannot touch a window — drained, or its next batch
//! issuing at or beyond the horizon — sits it out without being stepped,
//! and each such skip counts as one null message in
//! [`ArbiterStats::null_messages`]. Each shard's ledger accumulates in
//! place and is folded once per report.
//!
//! # Determinism
//!
//! Within a window each shard's evolution depends only on its own state
//! and the `(horizon, floor)` pair, which is itself a pure function of
//! per-window aggregate traffic — a sum of `u64`s the hook takes in shard
//! order. Worker threads only partition the shard vector; they exchange
//! no other state. A run is therefore bit-identical for any worker count,
//! which `tests/parallel_determinism.rs` enforces over a worker × quantum
//! matrix.

use std::ops::ControlFlow;

use kvd_net::{shard_of, KvRequest, KvRequestRef, Status};
use kvd_sim::arbiter::HostArbiter;
use kvd_sim::{ArbiterStats, Histogram, HostArbiterConfig, OpLedger, RunSummary, SimTime};

use crate::driver;
use crate::store::{KvDirectConfig, KvDirectStore, StoreError};
use crate::system::{
    assert_arrivals_sorted, RequestStream, SystemSim, SystemSimConfig, SystemSimReport, WindowStep,
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
    /// available parallelism, and more workers than shards run as one per
    /// shard. Results are bit-identical for any value.
    pub workers: usize,
    /// Shared host-memory arbiter.
    pub arbiter: HostArbiterConfig,
    /// Master seed; each shard's rng/jitter forks deterministically from
    /// it, so shard `i` behaves identically regardless of shard count.
    pub seed: u64,
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
        }
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
    shards: Vec<Shard>,
    arbiter: HostArbiter,
    /// The router's index lists, one per shard, kept across runs so that
    /// a steady-state [`Self::run`] allocates nothing.
    routes: Vec<Vec<u32>>,
    /// The GET and PUT histograms a run's report merges the shards' into,
    /// kept for the same reason.
    merged: [Histogram; 2],
}

/// One NIC: its pipeline, and what its last window produced, which
/// decides whether it sits out the next.
struct Shard {
    sim: SystemSim,
    last: WindowStep,
    /// Sat out the window just stepped (a null message).
    skipped: bool,
}

/// A shard's `last` before a run's first window: busy from the origin on.
const FRESH: WindowStep = WindowStep {
    host_lines: 0,
    next_event: SimTime::ZERO,
    done: false,
};

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
    /// Panics if `cfg.shards == 0`. A run panics if the arbiter quantum
    /// is zero.
    pub fn new(cfg: ParallelSimConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let shards = (0..cfg.shards)
            .map(|i| {
                let salt = cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut shard_cfg = cfg.shard.clone();
                shard_cfg.store.fault_seed ^= (i as u64).wrapping_mul(SHARD_FAULT_SALT);
                Shard {
                    sim: SystemSim::with_seed(shard_cfg, salt),
                    last: FRESH,
                    skipped: false,
                }
            })
            .collect();
        ParallelSystemSim {
            arbiter: HostArbiter::new(cfg.arbiter.clone()),
            routes: vec![Vec::new(); cfg.shards],
            merged: [Histogram::new(), Histogram::new()],
            shards,
            cfg,
        }
    }

    /// Preloads a key/value pair into its owning shard (functional path,
    /// outside simulated time).
    pub fn preload_put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let s = shard_of(key, self.shards.len());
        self.shards[s].sim.store_mut().put(key, value)
    }

    /// Direct access to one shard's store (λ registration, preloading).
    pub fn shard_store_mut(&mut self, i: usize) -> &mut KvDirectStore {
        self.shards[i].sim.store_mut()
    }

    /// Records every shard's per-request outcomes for consistency
    /// checking (see [`SystemSim::set_record_outcomes`]).
    pub fn set_record_outcomes(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.sim.set_record_outcomes(on);
        }
    }

    /// Outcomes shard `i` captured during the last run, aligned with the
    /// requests routed to it (route with [`kvd_net::shard_of`] to
    /// reconstruct the mapping client-side).
    pub fn shard_outcomes(&self, i: usize) -> &[(Status, Vec<u8>)] {
        self.shards[i].sim.outcomes()
    }

    /// Shard `i`'s own report of the last run (see [`SystemSim::report`]).
    pub fn shard_report(&self, i: usize) -> SystemSimReport {
        self.shards[i].sim.report()
    }

    /// Routes the stream to its owning shards, simulates to completion,
    /// and merges the per-shard reports. Nothing is copied, and the run
    /// starts at one origin for all shards — the latest shard clock, zero
    /// on a fresh engine — and reports over its own span (see the module
    /// docs, "Routing and the run origin").
    pub fn run(&mut self, reqs: &[KvRequest]) -> ParallelSimReport {
        let origin = self
            .shards
            .iter()
            .map(|s| s.sim.clock())
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

    /// Routes `reqs` by index, opens every shard at `origin`, steps every
    /// shard's [`Routed`] share window by window on the driver until all
    /// have drained, and merges the shards' reports.
    ///
    /// At each rendezvous the hook charges the window's summed host lines
    /// to the arbiter, stretches the next window by the stall, and folds
    /// `stall / quantum` into every shard's backpressure gauge, which a
    /// shard reads only when it next steps. With one worker nothing is
    /// spawned and the drive allocates nothing.
    fn drive<T: Sync>(&mut self, origin: SimTime, reqs: &[T]) -> ParallelSimReport
    where
        [T]: RequestStream,
    {
        route(reqs, &mut self.routes);
        for shard in &mut self.shards {
            shard.sim.begin_run(origin);
            shard.last = FRESH;
        }
        let (arbiter, routes) = (&mut self.arbiter, &self.routes[..]);
        let quantum = arbiter.quantum();
        driver::drive(
            &mut self.shards,
            self.cfg.workers,
            origin,
            quantum,
            |i, shard, w| {
                // Batches issue strictly before the horizon, so a drained
                // shard, or one whose next batch issues at or past it,
                // cannot touch the window.
                shard.skipped = shard.last.done || shard.last.next_event >= w.horizon;
                if !shard.skipped {
                    let view = Routed {
                        reqs,
                        idx: &routes[i],
                    };
                    shard.last = shard.sim.step_window_over(&view, w.horizon, w.floor);
                }
            },
            |shards, _| {
                let (mut lines, mut nulls, mut live) = (0, 0, false);
                for shard in shards.iter() {
                    if shard.skipped {
                        nulls += 1;
                    } else {
                        lines += shard.last.host_lines;
                    }
                    live |= !shard.last.done;
                }
                arbiter.note_null_messages(nulls);
                let stall = arbiter.charge(lines);
                for shard in shards.iter_mut() {
                    shard.sim.absorb_host_stall(stall, quantum);
                }
                if live {
                    ControlFlow::Continue(stall)
                } else {
                    ControlFlow::Break(())
                }
            },
        );
        self.fold()
    }

    /// Folds the per-shard state into one report, in shard order (ledger
    /// merge is associative and commutative, but a fixed order keeps the
    /// invariant trivially auditable), merging the shards' histograms
    /// into the pooled pair.
    fn fold(&mut self) -> ParallelSimReport {
        let [get_hist, put_hist] = &mut self.merged;
        get_hist.clear();
        put_hist.clear();
        let mut ops = 0u64;
        let mut elapsed = SimTime::ZERO;
        let mut goodput_ops = 0u64;
        let mut shed_ops = 0u64;
        let mut expired_ops = 0u64;
        let mut ledger = OpLedger::default();
        for shard in &self.shards {
            let r = shard.sim.report();
            ops += r.ops;
            elapsed = elapsed.max(r.elapsed);
            goodput_ops += r.goodput_ops;
            shed_ops += r.shed_ops;
            expired_ops += r.expired_ops;
            let (g, p) = shard.sim.histograms();
            get_hist.merge(g);
            put_hist.merge(p);
            ledger.merge(&r.ledger);
        }
        ParallelSimReport {
            shards: self.shards.len(),
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
            arbiter: self.arbiter.stats(),
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
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 4);
        let mut sim = preloaded(cfg, 2_000);
        let r = sim.run(&workload(4_000, 2_000, 11));
        assert_eq!(r.ops, 4_000);
        assert_eq!(r.get_latency.count + r.put_latency.count, 4_000);
        assert_eq!((0..4).map(|i| sim.shard_report(i).ops).sum::<u64>(), 4_000);
        assert!(r.elapsed > SimTime::ZERO);
        assert!(r.arbiter.windows > 0);
    }

    #[test]
    fn preloaded_keys_read_back_from_their_owning_shards() {
        let mut sim = ParallelSystemSim::new(ParallelSimConfig::paper(
            KvDirectConfig::with_memory(1 << 20),
            8,
            4,
        ));
        for i in 0..200u32 {
            sim.preload_put(format!("key-{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        for i in 0..200u32 {
            let key = format!("key-{i}");
            let owner = sim.shard_store_mut(shard_of(key.as_bytes(), 4));
            assert_eq!(owner.get(key.as_bytes()).unwrap(), i.to_le_bytes());
        }
        // Keys actually spread across shards.
        let loads: Vec<u64> = (0..4)
            .map(|i| sim.shard_store_mut(i).processor().table().len())
            .collect();
        assert!(
            loads.iter().all(|&l| l > 10),
            "unbalanced shards: {loads:?}"
        );
        assert_eq!(loads.iter().sum::<u64>(), 200);
    }

    #[test]
    fn a_routed_run_answers_each_get_with_the_preceding_put() {
        let mut sim = ParallelSystemSim::new(ParallelSimConfig::paper(
            KvDirectConfig::with_memory(1 << 20),
            8,
            3,
        ));
        sim.set_record_outcomes(true);
        let reqs: Vec<KvRequest> = (0..50u64)
            .flat_map(|i| {
                [
                    KvRequest::put(&i.to_le_bytes(), &(i * 2).to_le_bytes()),
                    KvRequest::get(&i.to_le_bytes()),
                ]
            })
            .collect();
        sim.run(&reqs);
        // Each shard answers its routed share in stream order.
        let mut cursor = [0usize; 3];
        for req in &reqs {
            let shard = shard_of(&req.key, 3);
            let (status, value) = &sim.shard_outcomes(shard)[cursor[shard]];
            cursor[shard] += 1;
            assert_eq!(*status, Status::Ok);
            if req.op == kvd_net::OpCode::Get {
                let id = u64::from_le_bytes(req.key[..].try_into().expect("8-byte key"));
                assert_eq!(value[..], (id * 2).to_le_bytes());
            }
        }
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
        let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8, 4);
        cfg.shard.store.fault_rates = kvd_sim::FaultRates::uniform(0.02);
        cfg.shard.store.fault_seed = 9;
        let mut sim = preloaded(cfg, 2_000);
        let r = sim.run(&workload(8_000, 2_000, 15));
        assert!(r.ledger.total_faults() > 0, "2% rates over 8k ops fire");
        let per: Vec<u64> = (0..4)
            .map(|i| sim.shard_report(i).ledger.total_faults())
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
        let recorded: usize = (0..r.shards).map(|i| sim.shard_outcomes(i).len()).sum();
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
        // A rerun that opened the client windows and the first window at
        // zero anyway would queue behind them, quote its throughput over
        // the cumulative makespan and sit out every window the previous
        // runs covered.
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
        // run at one instant, a shard sits a window out only after the
        // lighter shard (Zipf routes ~55/45) has drained. With each shard
        // starting where its own clocks stood, the busy spans drift apart
        // run over run and nearly every window of a late rerun has a
        // shard sitting out.
        let cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40, 2);
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
        let lighter = (0..2)
            .map(|i| sim.shard_report(i).elapsed)
            .min()
            .expect("shards");
        let after_drain = windows - lighter.as_ps() / quantum.as_ps();
        assert!(
            nulls <= after_drain,
            "{nulls} null messages over {windows} windows, {after_drain} of them after \
             the lighter shard drained at {lighter:?}"
        );
    }

    /// Endless GETs of keys that `shard_of` places on `shard` of 3.
    fn gets_on(shard: usize) -> impl Iterator<Item = KvRequest> {
        (0u64..)
            .filter(move |id| shard_of(&id.to_le_bytes(), 3) == shard)
            .map(|id| KvRequest::get(&id.to_le_bytes()))
    }

    /// One op to a batch and 8us windows over 3 shards; shard 0 gets one
    /// request per window, so it steps windows 0..=4.
    fn one_busy_shard() -> Vec<(SimTime, KvRequest)> {
        gets_on(0)
            .take(5)
            .enumerate()
            .map(|(k, req)| (SimTime::from_us(8 * k as u64), req))
            .collect()
    }

    fn run_one_per_batch(reqs: &[(SimTime, KvRequest)], workers: usize) -> ParallelSimReport {
        let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 1, 3);
        cfg.workers = workers;
        preloaded(cfg, 100).run_open(reqs)
    }

    #[test]
    fn drained_shards_sit_out_every_window_after_draining() {
        // The shards with empty streams drain in window 0 and sit out the
        // four after it.
        let reqs = one_busy_shard();
        for workers in [1, 3] {
            let r = run_one_per_batch(&reqs, workers);
            assert_eq!((r.ops, r.arbiter.windows), (5, 5));
            assert_eq!(r.arbiter.null_messages, 8, "2 drained shards x 4 windows");
        }
    }

    #[test]
    fn idle_shards_sit_out_windows_until_their_next_event() {
        // Shard 1's only request arrives at 33us: it is idle through
        // windows 1..=3, whose horizons (16, 24, 32us) its next event
        // clears, and steps in window 4, [32, 40)us.
        let mut reqs = one_busy_shard();
        reqs.push((SimTime::from_us(33), gets_on(1).next().expect("a key")));
        for workers in [1, 3] {
            let r = run_one_per_batch(&reqs, workers);
            assert_eq!((r.ops, r.arbiter.windows), (6, 5));
            assert_eq!(
                r.arbiter.null_messages,
                4 + 3,
                "shard 2 drained, shard 1 idle"
            );
        }
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
