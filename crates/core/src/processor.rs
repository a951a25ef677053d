//! The KV processor (paper Figure 4).
//!
//! Requests flow: decoder → reservation station → operation decoder →
//! hash table / slab allocator → memory engine → completion → back
//! through the station for data forwarding. This module drives those
//! stages functionally with a configurable pipeline depth: issued
//! operations sit in an in-flight FIFO (memory latency) so dependent
//! requests really do queue and forward, exactly as on the FPGA.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use kvd_hash::{HashError, HashTable, HashTableConfig};
use kvd_mem::MemoryEngine;
use kvd_net::{KvRequest, KvRequestRef, KvResponse, OpCode, Status};
use kvd_ooo::{Admission, KvOpKind, ReservationStation, StationConfig, StationOp};
use kvd_sim::{CostSource, FaultPlane, OpLedger, SimTime};

use crate::lambda::{decode_scalar, decode_vector, encode_vector, Lambda, LambdaRegistry};
use crate::overload::{AdmissionController, HotKeyConfig, OverloadConfig, OverloadCounters};

/// Retries the processor grants a memory transaction before surfacing
/// [`Status::DeviceError`] (matches the DMA engine's read retry budget).
pub const DEFAULT_FAULT_RETRY_LIMIT: u32 = 4;

/// Counters for the processor — a *view* over the processor's op-cost
/// ledger (`ledger().core`), not an accumulator of its own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Requests executed.
    pub requests: u64,
    /// GET/REDUCE/FILTER (read-only) requests.
    pub reads: u64,
    /// PUT requests.
    pub puts: u64,
    /// DELETE requests.
    pub deletes: u64,
    /// Atomic update requests (scalar or vector).
    pub updates: u64,
    /// Requests rejected as invalid (unknown λ, wrong type).
    pub invalid: u64,
    /// Requests that hit out-of-memory.
    pub oom: u64,
    /// Station write-backs that failed (should stay zero; see docs).
    pub writeback_failures: u64,
    /// Memory transactions re-run because the fault plane injected a
    /// recoverable fault.
    pub fault_retries: u64,
    /// Requests failed with [`Status::DeviceError`] after the retry
    /// budget ran out; the table was left untouched.
    pub device_errors: u64,
}

/// The hot-key shed policy's live state: a space-saving rollup over
/// hashed request keys, aged by periodic halving so the tracked hot set
/// follows the recent mix. Hashing (the table's primary hash) keeps the
/// rollup allocation-free per request — no key bytes are retained.
#[derive(Debug, Clone)]
struct HotKeyRollup {
    cfg: HotKeyConfig,
    rollup: kvd_mem::SpaceSaving,
    since_halve: u64,
}

impl HotKeyRollup {
    fn new(cfg: HotKeyConfig) -> Self {
        HotKeyRollup {
            rollup: kvd_mem::SpaceSaving::new(cfg.top_k),
            since_halve: 0,
            cfg,
        }
    }

    fn observe(&mut self, key: &[u8]) {
        self.rollup.observe(kvd_hash::hashing::primary_hash(key));
        self.since_halve += 1;
        if self.since_halve >= self.cfg.halve_every {
            self.rollup.halve();
            self.since_halve = 0;
        }
    }

    /// Hot means *provably* hot: the space-saving lower bound
    /// (`count - err`) must reach `min_share` of observed traffic, so a
    /// spread key that merely inherited a displaced slot's inflated count
    /// is never shed by mistake.
    fn is_hot(&self, key: &[u8]) -> bool {
        let total = self.rollup.total();
        if total == 0 {
            return false;
        }
        self.rollup
            .estimate(kvd_hash::hashing::primary_hash(key))
            .is_some_and(|e| {
                e.count.saturating_sub(e.err) as f64 >= self.cfg.min_share * total as f64
            })
    }
}

/// Per-request context needed to build its response from the station's
/// result value. `param` is only retained for ops whose response needs it
/// after completion (REDUCE's initial accumulator) — cloning it for every
/// request would put an allocation back on the hot path.
#[derive(Debug, Clone)]
struct RespCtx {
    op: OpCode,
    lambda: u16,
    param: Vec<u8>,
    /// Absolute lifecycle stamp the request carried (0 = never expires);
    /// read back when the op's PUT retires against the table.
    expiry_tick: u32,
}

/// The KV processor: hash table + slab allocator + reservation station.
///
/// # Examples
///
/// ```
/// use kvd_core::KvProcessor;
/// use kvd_hash::HashTableConfig;
/// use kvd_mem::FlatMemory;
/// use kvd_net::{KvRequest, Status};
///
/// let mut p = KvProcessor::with_flat_memory(1 << 20, 0.5, 24);
/// let rs = p.execute_batch(&[
///     KvRequest::put(b"k", b"v"),
///     KvRequest::get(b"k"),
/// ]);
/// assert_eq!(rs[0].status, Status::Ok);
/// assert_eq!(rs[1].value, b"v");
/// ```
pub struct KvProcessor<M: MemoryEngine> {
    table: HashTable<M>,
    station: ReservationStation,
    registry: LambdaRegistry,
    inflight: VecDeque<StationOp>,
    pipeline_depth: usize,
    responses: Vec<Option<KvResponse>>,
    ctxs: Vec<RespCtx>,
    faults: FaultPlane,
    fault_retry_limit: u32,
    overload_cfg: OverloadConfig,
    admission: Option<AdmissionController>,
    hot_keys: Option<HotKeyRollup>,
    /// When set, `finish` also attributes retire outcomes
    /// (`retired_ok`/`retired_not_found`/`retired_failed`) to the ledger.
    /// Off by default so the hot path stays exactly as wide as before the
    /// ledger existed.
    ledger_detail: bool,
    /// Pressure reported by layers the functional processor cannot see
    /// (decode backlog, PCIe tag pools, host-arbiter stretch); maxed with
    /// the live station occupancy at each admission decision.
    external_pressure: f64,
    /// The simulation clock the deadline gate compares against.
    now: SimTime,
    read_only: bool,
    /// Lifecycle stamps of this batch's TTL'd PUTs, keyed by request key,
    /// so a station write-back re-installs the stamp the merged PUT
    /// carried. Cleared at every batch boundary; empty (and untouched)
    /// for workloads that never stamp anything.
    pending_ttl: HashMap<Vec<u8>, u32>,
    /// Set once any request carries a lifecycle stamp (PUT with TTL, or
    /// touch). Gates the clock-advance cache invalidation so stampless
    /// workloads keep bit-identical forwarding behaviour.
    ttl_seen: bool,
    /// The processor's own slice of the op-cost ledger: request mix,
    /// retire outcomes and overload-plane decisions. Station, slab,
    /// memory and fault costs stay in their components and are folded in
    /// on demand by [`CostSource::emit_costs`].
    ledger: OpLedger,
}

impl KvProcessor<kvd_mem::FlatMemory> {
    /// Convenience constructor over counting-only flat memory.
    pub fn with_flat_memory(total_memory: u64, ratio: f64, inline_threshold: usize) -> Self {
        let table = HashTable::new(
            kvd_mem::FlatMemory::new(total_memory),
            HashTableConfig::new(total_memory, ratio, inline_threshold),
        );
        KvProcessor::new(
            table,
            StationConfig::default(),
            LambdaRegistry::with_builtins(),
        )
    }
}

impl<M: MemoryEngine> KvProcessor<M> {
    /// Creates a processor over an existing table.
    pub fn new(table: HashTable<M>, station: StationConfig, registry: LambdaRegistry) -> Self {
        KvProcessor {
            table,
            station: ReservationStation::new(station),
            registry,
            inflight: VecDeque::new(),
            // The paper saturates PCIe with up to 256 in-flight KV
            // operations; 64 models one DMA-tag window.
            pipeline_depth: 64,
            responses: Vec::new(),
            ctxs: Vec::new(),
            faults: FaultPlane::disabled(),
            fault_retry_limit: DEFAULT_FAULT_RETRY_LIMIT,
            overload_cfg: OverloadConfig::default(),
            admission: None,
            hot_keys: None,
            ledger_detail: false,
            external_pressure: 0.0,
            now: SimTime::ZERO,
            read_only: false,
            pending_ttl: HashMap::new(),
            ttl_seen: false,
            ledger: OpLedger::default(),
        }
    }

    /// Configures the overload plane (admission watermarks, read-only
    /// degradation). The default [`OverloadConfig`] disables everything.
    pub fn set_overload_config(&mut self, cfg: OverloadConfig) {
        self.admission = cfg.admission.map(AdmissionController::new);
        self.hot_keys = cfg.hot_key.map(HotKeyRollup::new);
        self.overload_cfg = cfg;
    }

    /// The tracked hot-key shares (hashed key, estimated count, share of
    /// observed traffic), hottest first; empty when the hot-key policy is
    /// off or nothing has been observed yet.
    pub fn hot_key_shares(&self) -> Vec<(u64, u64, f64)> {
        let Some(hk) = &self.hot_keys else {
            return Vec::new();
        };
        let mut out: Vec<(u64, u64, f64)> = hk
            .rollup
            .entries()
            .iter()
            .map(|e| (e.item, e.count, hk.rollup.share(e.item)))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Advances the clock the deadline gate compares request deadlines
    /// against (µs since the client epoch).
    ///
    /// Also drives the table's expiry clock: when the coarse lifecycle
    /// tick advances, previously-live stamps may die, so the station's
    /// clean forwarding caches (which hold values, not stamps) are
    /// dropped — but only once a lifecycle stamp has actually been seen,
    /// so stampless workloads keep bit-identical forwarding behaviour.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
        let tick = kvd_hash::tick_of_us(now.as_ps() / 1_000_000);
        if tick > self.table.now_tick() {
            self.table.set_now_tick(tick);
            if self.ttl_seen {
                self.station.drop_clean_caches();
            }
        }
    }

    /// Reports pressure from layers outside the functional processor
    /// (decode backlog in station-capacities, tag-pool fill, host-arbiter
    /// stretch); the admission decision takes the worst of this and the
    /// live station occupancy.
    pub fn set_external_pressure(&mut self, pressure: f64) {
        self.external_pressure = pressure;
    }

    /// Overload/shed rollup (admissions, sheds by reason, degraded-mode
    /// transitions) — a view over the processor's ledger.
    pub fn overload_counters(&self) -> OverloadCounters {
        let c = &self.ledger.core;
        OverloadCounters {
            admitted: c.admitted,
            shed_overload: c.shed_overload,
            shed_expired: c.shed_expired,
            shed_read_only: c.shed_read_only,
            read_only_entries: c.read_only_entries,
            read_only_exits: c.read_only_exits,
            shed_transitions: c.shed_transitions,
        }
    }

    /// Enables per-retire outcome attribution in the ledger
    /// (`retired_ok`/`retired_not_found`/`retired_failed`). Costs one
    /// branch + increment per response; off by default.
    pub fn set_ledger_detail(&mut self, on: bool) {
        self.ledger_detail = on;
    }

    /// The processor's own ledger slice (request mix, retire outcomes,
    /// overload decisions). For the full rollup including station, slab,
    /// memory and fault costs, use [`CostSource::emit_costs`].
    pub fn ledger(&self) -> &OpLedger {
        &self.ledger
    }

    /// Whether the processor is in read-only degraded mode.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Whether the admission controller is currently shedding.
    pub fn is_shedding(&self) -> bool {
        self.admission.as_ref().is_some_and(|a| a.is_shedding())
    }

    /// Live reservation-station occupancy (0..=1 of the 256-op envelope).
    pub fn station_occupancy(&self) -> f64 {
        self.station.occupancy()
    }

    /// Attaches a fault plane: every issued memory transaction draws from
    /// it, retrying recoverable faults up to the retry budget and failing
    /// with [`Status::DeviceError`] (table untouched) past it.
    pub fn set_fault_plane(&mut self, faults: FaultPlane) {
        self.faults = faults;
    }

    /// Overrides the transaction retry budget
    /// ([`DEFAULT_FAULT_RETRY_LIMIT`]).
    pub fn set_fault_retry_limit(&mut self, limit: u32) {
        self.fault_retry_limit = limit;
    }

    /// The processor's fault plane (injection counters live here).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Mutable fault-plane access (rate changes, counter resets).
    pub fn faults_mut(&mut self) -> &mut FaultPlane {
        &mut self.faults
    }

    /// The hash table.
    pub fn table(&self) -> &HashTable<M> {
        &self.table
    }

    /// Mutable access to the table (for preloading in benchmarks).
    pub fn table_mut(&mut self) -> &mut HashTable<M> {
        &mut self.table
    }

    /// The λ registry.
    pub fn registry_mut(&mut self) -> &mut LambdaRegistry {
        &mut self.registry
    }

    /// Counters — a view over the processor's ledger.
    pub fn stats(&self) -> ProcessorStats {
        let c = &self.ledger.core;
        ProcessorStats {
            requests: c.requests,
            reads: c.reads,
            puts: c.puts,
            deletes: c.deletes,
            updates: c.updates,
            invalid: c.invalid,
            oom: c.oom,
            writeback_failures: c.writeback_failures,
            fault_retries: c.fault_retries,
            device_errors: c.device_errors,
        }
    }

    /// Reservation-station counters (forwarding rate etc.).
    pub fn station_stats(&self) -> kvd_ooo::StationStats {
        self.station.stats()
    }

    /// Executes a batch of requests, returning responses in order.
    ///
    /// All effects are applied to the table by return time (dirty
    /// forwarding caches are flushed). Callers whose requests already
    /// live in their own buffers should prefer
    /// [`execute_batch_refs`](Self::execute_batch_refs), which skips the
    /// owned-request construction entirely.
    pub fn execute_batch(&mut self, reqs: &[KvRequest]) -> Vec<KvResponse> {
        self.begin_batch(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            self.admit_request(i, req.as_ref());
        }
        self.finish_batch()
    }

    /// Executes a batch of borrowed requests — the hot path.
    ///
    /// Identical semantics to [`execute_batch`](Self::execute_batch); the
    /// only per-operation allocations left are the ones the reservation
    /// station needs to own its key and (for PUT) its value.
    pub fn execute_batch_refs(&mut self, reqs: &[KvRequestRef<'_>]) -> Vec<KvResponse> {
        self.begin_batch(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            self.admit_request(i, *req);
        }
        self.finish_batch()
    }

    /// Executes a batch of borrowed requests into a caller-owned response
    /// vector. `out` is cleared first; its old response value buffers are
    /// retired into the station's pool, so a caller that loops with one
    /// `Vec` reuses every buffer instead of reallocating.
    pub fn execute_batch_refs_into(
        &mut self,
        reqs: &[KvRequestRef<'_>],
        out: &mut Vec<KvResponse>,
    ) {
        self.begin_batch(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            self.admit_request(i, *req);
        }
        self.drain_and_flush();
        for r in out.drain(..) {
            self.station.give(r.value);
        }
        out.extend(
            self.responses
                .drain(..)
                .map(|r| r.expect("every request produces a response")),
        );
    }

    /// Executes one borrowed request (the embedder API's point ops).
    pub fn execute_one(&mut self, req: KvRequestRef<'_>) -> KvResponse {
        let mut resp = KvResponse {
            status: Status::Ok,
            value: Vec::new(),
        };
        self.execute_one_into(req, &mut resp);
        resp
    }

    /// Executes one borrowed request into a caller-owned response. The
    /// response's previous value buffer is retired into the station's
    /// pool, so a caller that loops with one `KvResponse` runs the
    /// steady-state GET path without a single heap allocation.
    pub fn execute_one_into(&mut self, req: KvRequestRef<'_>, resp: &mut KvResponse) {
        self.begin_batch(1);
        self.admit_request(0, req);
        self.drain_and_flush();
        let r = self.responses[0]
            .take()
            .expect("one request yields one response");
        let old = std::mem::replace(resp, r);
        self.station.give(old.value);
    }

    fn begin_batch(&mut self, n: usize) {
        self.responses.clear();
        self.responses.resize(n, None);
        self.ctxs.clear();
        self.ctxs.reserve(n);
        if !self.pending_ttl.is_empty() {
            self.pending_ttl.clear();
        }
    }

    fn admit_request(&mut self, i: usize, req: KvRequestRef<'_>) {
        self.ctxs.push(RespCtx {
            op: req.op,
            lambda: req.lambda,
            // Only REDUCE reads the parameter after completion.
            param: if req.op == OpCode::Reduce {
                req.value.to_vec()
            } else {
                Vec::new()
            },
            expiry_tick: req.expiry_tick,
        });
        self.ledger.core.requests += 1;
        if let Some(status) = self.overload_gate(req) {
            self.responses[i] = Some(KvResponse {
                status,
                value: Vec::new(),
            });
            return;
        }
        match self.build_station_op(i as u64, req) {
            Ok(op) => self.submit(op),
            Err(status) => {
                self.ledger.core.invalid += 1;
                self.responses[i] = Some(KvResponse {
                    status,
                    value: Vec::new(),
                });
            }
        }
    }

    /// The overload plane's per-request gate, run before any station or
    /// DMA resources are spent. Order matters: an expired request is
    /// dropped no matter what (spending capacity on it helps nobody),
    /// degraded read-only mode sheds allocating writes next, and the
    /// watermark admission controller sees only requests that could
    /// actually execute.
    fn overload_gate(&mut self, req: KvRequestRef<'_>) -> Option<Status> {
        if req.deadline_us != 0 && self.now > SimTime::from_us(req.deadline_us as u64) {
            self.ledger.core.shed_expired += 1;
            return Some(Status::Expired);
        }
        // PUT and the atomic updates allocate; GET reads and DELETE frees,
        // so both stay admissible — deletes are what drain the store back
        // under the exit watermark.
        let allocates = matches!(
            req.op,
            OpCode::Put
                | OpCode::UpdateScalar
                | OpCode::UpdateScalarToVector
                | OpCode::UpdateVector
        );
        if self.read_only && allocates {
            if self.table.memory_utilization() < self.overload_cfg.read_only_exit_utilization {
                self.read_only = false;
                self.ledger.core.read_only_exits += 1;
            } else {
                self.ledger.core.shed_read_only += 1;
                return Some(Status::Overloaded);
            }
        }
        if let Some(ac) = &mut self.admission {
            if let Some(hk) = &mut self.hot_keys {
                hk.observe(req.key);
            }
            let pressure = self.station.occupancy().max(self.external_pressure);
            let was_shedding = ac.is_shedding();
            let shed = ac.observe(pressure);
            if shed != was_shedding {
                self.ledger.core.shed_transitions += 1;
            }
            if shed {
                // Hot-key defense: while pressure stays below the severe
                // mark, shed only the heavy hitters that caused the
                // overload; the spread traffic keeps flowing. At or above
                // severe the carve-out vanishes and everything sheds.
                match self.hot_keys.as_ref().filter(|hk| pressure < hk.cfg.severe) {
                    Some(hk) if hk.is_hot(req.key) => {
                        self.ledger.cache.hot_key_sheds += 1;
                        self.ledger.core.shed_overload += 1;
                        return Some(Status::Overloaded);
                    }
                    Some(_) => {} // spread traffic rides through
                    None => {
                        self.ledger.core.shed_overload += 1;
                        return Some(Status::Overloaded);
                    }
                }
            }
        }
        self.ledger.core.admitted += 1;
        None
    }

    fn finish_batch(&mut self) -> Vec<KvResponse> {
        self.drain_and_flush();
        self.responses
            .drain(..)
            .map(|r| r.expect("every request produces a response"))
            .collect()
    }

    /// Drains the pipeline and flushes dirty caches; applied write-back
    /// buffers are retired into the station's pool.
    fn drain_and_flush(&mut self) {
        while !self.inflight.is_empty() {
            self.retire_one();
        }
        let mut writebacks = self.station.flush();
        for (key, value) in writebacks.drain(..) {
            self.apply_writeback(&key, value);
            self.station.give(key);
        }
        self.station.give_writebacks(writebacks);
    }

    /// Builds the station operation (with its forwarding-compatible
    /// update closure) for a request.
    fn build_station_op(&mut self, id: u64, req: KvRequestRef<'_>) -> Result<StationOp, Status> {
        let kind = match req.op {
            OpCode::Get | OpCode::Reduce | OpCode::Filter => {
                self.ledger.core.reads += 1;
                // Reduce/filter need a registered λ of the right type.
                match req.op {
                    OpCode::Reduce => match self.registry.get(req.lambda) {
                        Some(Lambda::Reduce(_)) => {}
                        _ => return Err(Status::Invalid),
                    },
                    OpCode::Filter => match self.registry.get(req.lambda) {
                        Some(Lambda::Filter(_)) => {}
                        _ => return Err(Status::Invalid),
                    },
                    _ => {}
                }
                KvOpKind::Get
            }
            OpCode::Put => {
                self.ledger.core.puts += 1;
                if self.table.stamp_dead(req.expiry_tick) {
                    // Dead on arrival (memcache `set` with a past
                    // exptime): the store is acknowledged but the value
                    // must be observably absent. Run it as a delete so
                    // the outcome holds even through the forwarding
                    // cache; the response is still built from the PUT
                    // context.
                    self.ttl_seen = true;
                    if !self.pending_ttl.is_empty() {
                        self.pending_ttl.remove(req.key);
                    }
                    KvOpKind::Delete
                } else {
                    if req.expiry_tick != 0 {
                        self.ttl_seen = true;
                        self.pending_ttl.insert(req.key.to_vec(), req.expiry_tick);
                    } else if !self.pending_ttl.is_empty() {
                        self.pending_ttl.remove(req.key);
                    }
                    let mut v = self.station.recycle().unwrap_or_default();
                    v.extend_from_slice(req.value);
                    KvOpKind::Put(v)
                }
            }
            OpCode::Delete => {
                self.ledger.core.deletes += 1;
                if !self.pending_ttl.is_empty() {
                    self.pending_ttl.remove(req.key);
                }
                KvOpKind::Delete
            }
            OpCode::UpdateScalar => {
                self.ledger.core.updates += 1;
                // λ-updates write back unstamped: an update resets the
                // entry's lifecycle to immortal on every path.
                if !self.pending_ttl.is_empty() {
                    self.pending_ttl.remove(req.key);
                }
                let f = match self.registry.get(req.lambda) {
                    Some(Lambda::Scalar(f)) => Arc::clone(f),
                    _ => return Err(Status::Invalid),
                };
                let param = decode_scalar(Some(req.value));
                KvOpKind::Update(Arc::new(move |old| {
                    let new = f(decode_scalar(old), param);
                    Some(new.to_le_bytes().to_vec())
                }))
            }
            OpCode::UpdateScalarToVector => {
                self.ledger.core.updates += 1;
                // λ-updates write back unstamped: an update resets the
                // entry's lifecycle to immortal on every path.
                if !self.pending_ttl.is_empty() {
                    self.pending_ttl.remove(req.key);
                }
                let f = match self.registry.get(req.lambda) {
                    Some(Lambda::ScalarToVector(f)) => Arc::clone(f),
                    _ => return Err(Status::Invalid),
                };
                let param = decode_scalar(Some(req.value));
                KvOpKind::Update(Arc::new(move |old| {
                    old.map(|bytes| {
                        let elems: Vec<u64> = decode_vector(bytes)
                            .into_iter()
                            .map(|e| f(e, param))
                            .collect();
                        encode_vector(&elems)
                    })
                }))
            }
            OpCode::UpdateVector => {
                self.ledger.core.updates += 1;
                // λ-updates write back unstamped: an update resets the
                // entry's lifecycle to immortal on every path.
                if !self.pending_ttl.is_empty() {
                    self.pending_ttl.remove(req.key);
                }
                let f = match self.registry.get(req.lambda) {
                    Some(Lambda::VectorToVector(f)) => Arc::clone(f),
                    _ => return Err(Status::Invalid),
                };
                let params = decode_vector(req.value);
                KvOpKind::Update(Arc::new(move |old| {
                    old.map(|bytes| {
                        let mut elems = decode_vector(bytes);
                        for (e, p) in elems.iter_mut().zip(&params) {
                            *e = f(*e, *p);
                        }
                        encode_vector(&elems)
                    })
                }))
            }
        };
        let mut key = self.station.recycle().unwrap_or_default();
        key.extend_from_slice(req.key);
        Ok(StationOp { id, key, kind })
    }

    /// Submits one operation to the station, handling backpressure.
    fn submit(&mut self, op: StationOp) {
        let mut op = op;
        loop {
            match self.station.admit(op) {
                Admission::Fast(r) => {
                    self.finish(r.id, r.value, None);
                    return;
                }
                Admission::Queued => return,
                Admission::Issue { op, writeback } => {
                    if let Some((k, v)) = writeback {
                        self.apply_writeback(&k, v);
                        self.station.give(k);
                    }
                    self.inflight.push_back(op);
                    if self.inflight.len() >= self.pipeline_depth {
                        self.retire_one();
                    }
                    return;
                }
                Admission::Full(returned) => {
                    // Backpressure: retire the oldest in-flight op (which
                    // drains its dependency chain) and retry.
                    self.retire_one();
                    op = returned;
                }
            }
        }
    }

    /// Executes the oldest in-flight operation against the table and
    /// reports its completion to the station.
    fn retire_one(&mut self) {
        let Some(op) = self.inflight.pop_front() else {
            return;
        };
        // Each issued op (including colliding-chain re-issues) is one
        // memory transaction with its own fault draw.
        let mut next = Some(op);
        while let Some(mut op) = next.take() {
            let txn = self.faults.transaction(self.fault_retry_limit);
            self.ledger.core.fault_retries += txn.retries as u64;
            let mut completion = if txn.failed {
                // The transaction died in the device after exhausting its
                // retries: the table was never touched, so the station
                // must reclaim the slot without installing a forwarding
                // value — dependents re-reach memory themselves.
                self.ledger.core.device_errors += 1;
                self.finish(op.id, None, Some(Status::DeviceError));
                self.station.reclaim(&op.key)
            } else {
                let (result_value, cache_value, status_override) = self.execute_on_table(&mut op);
                self.finish(op.id, result_value, status_override);
                self.station.complete(&op.key, cache_value)
            };
            // The retired op's buffers feed the next one.
            let StationOp { key, kind, .. } = op;
            self.station.give(key);
            if let KvOpKind::Put(v) = kind {
                self.station.give(v);
            }
            for r in completion.results.drain(..) {
                self.finish(r.id, r.value, None);
            }
            if let Some((k, v)) = completion.writeback.take() {
                self.apply_writeback(&k, v);
                self.station.give(k);
            }
            next = completion.issue.take();
            self.station.give_results(completion.results);
        }
    }

    /// Runs one operation against the hash table.
    ///
    /// Returns `(result value, cache value, status override)`.
    #[allow(clippy::type_complexity)]
    fn execute_on_table(
        &mut self,
        op: &mut StationOp,
    ) -> (Option<Vec<u8>>, Option<Vec<u8>>, Option<Status>) {
        match &mut op.kind {
            KvOpKind::Get => {
                let mut buf = self.station.recycle().unwrap_or_default();
                match self.table.get_into(&op.key, &mut buf) {
                    Some(_) => {
                        let mut result = self.station.recycle().unwrap_or_default();
                        result.extend_from_slice(&buf);
                        (Some(result), Some(buf), None)
                    }
                    None => {
                        self.station.give(buf);
                        (None, None, None)
                    }
                }
            }
            KvOpKind::Put(v) => {
                let exp = self.ctxs[op.id as usize].expiry_tick;
                match self.table.put_ttl(&op.key, v, exp) {
                    // The op's value buffer moves straight into the
                    // forwarding cache; no copy.
                    Ok(_replaced) => (None, Some(std::mem::take(v)), None),
                    Err(e) => {
                        let status = self.map_error(e);
                        // Leave the cache coherent with the table's (old)
                        // contents.
                        let old = self.table.get(&op.key);
                        (None, old, Some(status))
                    }
                }
            }
            KvOpKind::Delete => {
                let existed = self.table.delete(&op.key);
                // A dead-on-arrival PUT runs as a delete; its response is
                // the PUT's Ok, not the delete's found/not-found.
                let status = if existed || self.ctxs[op.id as usize].op == OpCode::Put {
                    Status::Ok
                } else {
                    Status::NotFound
                };
                (None, None, Some(status))
            }
            KvOpKind::Update(f) => {
                let old = self.table.get(&op.key);
                let new = f(old.as_deref());
                match &new {
                    Some(nv) => {
                        if let Err(e) = self.table.put(&op.key, nv) {
                            let status = self.map_error(e);
                            return (old.clone(), old, Some(status));
                        }
                    }
                    None => {
                        if old.is_some() {
                            self.table.delete(&op.key);
                        }
                    }
                }
                (old, new, None)
            }
        }
    }

    fn map_error(&mut self, e: HashError) -> Status {
        match e {
            HashError::OutOfMemory => {
                self.ledger.core.oom += 1;
                if self.overload_cfg.read_only_on_oom && !self.read_only {
                    self.read_only = true;
                    self.ledger.core.read_only_entries += 1;
                }
                Status::OutOfMemory
            }
            HashError::KeyTooLarge | HashError::ValueTooLarge => {
                self.ledger.core.invalid += 1;
                Status::Invalid
            }
        }
    }

    fn apply_writeback(&mut self, key: &[u8], value: Option<Vec<u8>>) {
        let r = match value {
            Some(v) => {
                // A write-back lands with the stamp of the batch's last
                // TTL'd PUT of this key (0 — immortal — otherwise:
                // unstamped PUTs and λ-updates both reset the lifecycle).
                let exp = if self.pending_ttl.is_empty() {
                    0
                } else {
                    self.pending_ttl.get(key).copied().unwrap_or(0)
                };
                let r = self.table.put_ttl(key, &v, exp).map(|_| ());
                self.station.give(v);
                r
            }
            None => {
                self.table.delete(key);
                Ok(())
            }
        };
        if r.is_err() {
            // A write-back can only fail if the cached value grew past
            // available memory; the value is then dropped. Surfaced via
            // stats so benchmarks can assert it never happens.
            self.ledger.core.writeback_failures += 1;
        }
    }

    /// Rewrites `key`'s lifecycle stamp in place (memcache `touch`).
    ///
    /// Returns whether the key was found live. Bypasses the station —
    /// dirty state is flushed first, and since the forwarding caches hold
    /// values (never stamps) a surviving clean cache stays coherent. A
    /// touch into the past kills the entry *now*, so the caches are
    /// dropped in that case before any read can forward the corpse.
    pub fn touch(&mut self, key: &[u8], expiry_tick: u32) -> bool {
        self.drain_and_flush();
        self.ttl_seen = true;
        let found = self.table.touch(key, expiry_tick);
        if found && self.table.stamp_dead(expiry_tick) {
            self.station.drop_clean_caches();
        }
        found
    }

    /// Runs one bounded reaper pass over up to `max_buckets` bucket
    /// chains, reclaiming dead entries through the normal free path.
    /// Returns the sweep's cost/yield so embedders can meter it.
    pub fn sweep_expired(&mut self, max_buckets: u64) -> kvd_hash::SweepCost {
        self.table.sweep_expired(max_buckets)
    }

    /// The table's lifecycle counters (also folded into
    /// [`CostSource::emit_costs`] as the ledger's expiry section).
    pub fn expiry_stats(&self) -> kvd_hash::ExpiryStats {
        self.table.expiry_stats()
    }

    /// Builds and stores the response for request `id`.
    fn finish(&mut self, id: u64, value: Option<Vec<u8>>, status_override: Option<Status>) {
        let ctx = &self.ctxs[id as usize];
        let resp = match status_override {
            Some(status) => KvResponse {
                status,
                value: Vec::new(),
            },
            None => build_response(ctx, value, &self.registry, &mut self.station),
        };
        debug_assert!(
            self.responses[id as usize].is_none(),
            "response {id} produced twice"
        );
        if self.ledger_detail {
            // Station-retired outcome attribution (fast-path, issued and
            // chain-forwarded completions all land here; shed/invalid
            // responses are written directly and are already counted by
            // their own ledger channels).
            match resp.status {
                Status::Ok => self.ledger.core.retired_ok += 1,
                Status::NotFound => self.ledger.core.retired_not_found += 1,
                _ => self.ledger.core.retired_failed += 1,
            }
        }
        self.responses[id as usize] = Some(resp);
    }
}

impl<M: MemoryEngine + CostSource> CostSource for KvProcessor<M> {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.merge(&self.ledger);
        self.station.emit_costs(out);
        self.table.allocator().emit_costs(out);
        self.faults.emit_costs(out);
        self.table.mem().emit_costs(out);
        let e = self.table.expiry_stats();
        out.expiry.ttl_puts += e.ttl_puts;
        out.expiry.touches += e.touches;
        out.expiry.lazy_expired += e.lazy_expired;
        out.expiry.expired_overwrites += e.expired_overwrites;
        out.expiry.reaped_entries += e.reaped_entries;
        out.expiry.reaped_bytes += e.reaped_bytes;
        out.expiry.sweep_passes += e.sweep_passes;
        out.expiry.sweep_buckets += e.sweep_buckets;
    }
}

/// Builds the client-visible response from the station's result value.
/// PUT and DELETE answer with a status only: the buffer of the value they
/// displaced goes back to the station's pool, not to the allocator.
fn build_response(
    ctx: &RespCtx,
    value: Option<Vec<u8>>,
    registry: &LambdaRegistry,
    station: &mut ReservationStation,
) -> KvResponse {
    match ctx.op {
        OpCode::Get => match value {
            Some(v) => KvResponse {
                status: Status::Ok,
                value: v,
            },
            None => KvResponse {
                status: Status::NotFound,
                value: Vec::new(),
            },
        },
        OpCode::Put | OpCode::Delete => {
            let found = value.is_some();
            if let Some(displaced) = value {
                station.give(displaced);
            }
            KvResponse {
                status: if ctx.op == OpCode::Put || found {
                    Status::Ok
                } else {
                    Status::NotFound
                },
                value: Vec::new(),
            }
        }
        OpCode::UpdateScalar => KvResponse {
            status: Status::Ok,
            value: decode_scalar(value.as_deref()).to_le_bytes().to_vec(),
        },
        OpCode::UpdateScalarToVector | OpCode::UpdateVector => match value {
            Some(v) => KvResponse {
                status: Status::Ok,
                value: v,
            },
            None => KvResponse {
                status: Status::NotFound,
                value: Vec::new(),
            },
        },
        OpCode::Reduce => match value {
            Some(v) => {
                let f = match registry.get(ctx.lambda) {
                    Some(Lambda::Reduce(f)) => f,
                    _ => unreachable!("validated at submission"),
                };
                let init = decode_scalar(Some(&ctx.param));
                let acc = decode_vector(&v).into_iter().fold(init, |a, e| f(a, e));
                KvResponse {
                    status: Status::Ok,
                    value: acc.to_le_bytes().to_vec(),
                }
            }
            None => KvResponse {
                status: Status::NotFound,
                value: Vec::new(),
            },
        },
        OpCode::Filter => match value {
            Some(v) => {
                let f = match registry.get(ctx.lambda) {
                    Some(Lambda::Filter(f)) => f,
                    _ => unreachable!("validated at submission"),
                };
                let kept: Vec<u64> = decode_vector(&v).into_iter().filter(|e| f(*e)).collect();
                KvResponse {
                    status: Status::Ok,
                    value: encode_vector(&kept),
                }
            }
            None => KvResponse {
                status: Status::NotFound,
                value: Vec::new(),
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::{DetRng, ZipfSampler};
    use std::collections::BTreeMap;

    fn proc() -> KvProcessor<kvd_mem::FlatMemory> {
        KvProcessor::with_flat_memory(1 << 20, 0.5, 24)
    }

    #[test]
    fn batch_roundtrip() {
        let mut p = proc();
        let rs = p.execute_batch(&[
            KvRequest::put(b"a", b"1"),
            KvRequest::put(b"b", b"2"),
            KvRequest::get(b"a"),
            KvRequest::get(b"b"),
            KvRequest::get(b"c"),
        ]);
        assert_eq!(rs[2].value, b"1");
        assert_eq!(rs[3].value, b"2");
        assert_eq!(rs[4].status, Status::NotFound);
        let s = p.stats();
        assert_eq!(s.requests, 5);
        assert_eq!(s.puts, 2);
        assert_eq!(s.reads, 3);
    }

    #[test]
    fn forwarding_saves_memory_accesses() {
        // A hot key read repeatedly: after the first access, reads come
        // from the station cache without touching memory.
        let mut p = proc();
        p.execute_batch(&[KvRequest::put(b"hot", b"v")]);
        p.table_mut().mem_mut().reset_stats();
        let reqs: Vec<KvRequest> = (0..100).map(|_| KvRequest::get(b"hot")).collect();
        let rs = p.execute_batch(&reqs);
        assert!(rs.iter().all(|r| r.value == b"v"));
        let accesses = p.table().mem().stats().accesses();
        assert!(
            accesses <= 2,
            "hot reads must be forwarded, saw {accesses} accesses"
        );
        assert!(p.station_stats().forwarded >= 99);
    }

    #[test]
    fn single_key_atomics_one_memory_op_per_flush() {
        let mut p = proc();
        let reqs: Vec<KvRequest> = (0..1000)
            .map(|_| KvRequest {
                op: OpCode::UpdateScalar,
                key: b"ctr".to_vec(),
                value: 1u64.to_le_bytes().to_vec(),
                lambda: crate::lambda::builtin::ADD,
                deadline_us: 0,
                expiry_tick: 0,
            })
            .collect();
        let rs = p.execute_batch(&reqs);
        // Original-value semantics: op i observes i.
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(decode_scalar(Some(&r.value)), i as u64);
        }
        // Memory sees the initial miss plus the final write-back, not
        // 1000 RMWs.
        let accesses = p.table().mem().stats().accesses();
        assert!(accesses <= 6, "saw {accesses} accesses for 1000 atomics");
    }

    #[test]
    fn differential_vs_btreemap_reference() {
        // The processor (station + table + caches + write-backs) must be
        // indistinguishable from a plain map under any GET/PUT/DELETE/
        // fetch-add interleaving, per batch and across batches.
        let mut p = proc();
        let mut reference: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = DetRng::seed(2024);
        let zipf = ZipfSampler::new(50, 0.99); // hot keys stress forwarding
        for _batch in 0..60 {
            let mut reqs = Vec::new();
            let mut expected: Vec<Option<Vec<u8>>> = Vec::new();
            for _ in 0..40 {
                let key = format!("k{}", zipf.sample(&mut rng)).into_bytes();
                match rng.u64_below(4) {
                    0 => {
                        let mut v = vec![0u8; 1 + rng.usize_below(40)];
                        rng.fill_bytes(&mut v);
                        reference.insert(key.clone(), v.clone());
                        reqs.push(KvRequest::put(&key, &v));
                        expected.push(None);
                    }
                    1 => {
                        reference.remove(&key);
                        reqs.push(KvRequest::delete(&key));
                        expected.push(None);
                    }
                    2 => {
                        let old =
                            crate::lambda::decode_scalar(reference.get(&key).map(|v| v.as_slice()));
                        reference.insert(key.clone(), (old + 7).to_le_bytes().to_vec());
                        reqs.push(KvRequest {
                            op: OpCode::UpdateScalar,
                            key: key.clone(),
                            value: 7u64.to_le_bytes().to_vec(),
                            lambda: crate::lambda::builtin::ADD,
                            deadline_us: 0,
                            expiry_tick: 0,
                        });
                        expected.push(Some(old.to_le_bytes().to_vec()));
                    }
                    _ => {
                        expected.push(Some(reference.get(&key).cloned().unwrap_or_default()));
                        reqs.push(KvRequest::get(&key));
                    }
                }
            }
            let rs = p.execute_batch(&reqs);
            for (i, (r, e)) in rs.iter().zip(&expected).enumerate() {
                match &reqs[i].op {
                    OpCode::Get => {
                        let want = e.as_ref().expect("get expectation");
                        if want.is_empty() && r.status == Status::NotFound {
                            continue;
                        }
                        assert_eq!(&r.value, want, "GET divergence at op {i}");
                    }
                    OpCode::UpdateScalar => {
                        assert_eq!(&r.value, e.as_ref().unwrap(), "update original at {i}");
                    }
                    _ => {}
                }
            }
        }
        // After the final flush, the table matches the reference exactly.
        for (k, v) in &reference {
            assert_eq!(
                p.table_mut().get(k).as_ref(),
                Some(v),
                "table divergence at {k:?}"
            );
        }
        assert_eq!(p.stats().writeback_failures, 0);
    }

    #[test]
    fn oom_reported_per_request() {
        let mut p = KvProcessor::with_flat_memory(8 << 10, 0.25, 24);
        let reqs: Vec<KvRequest> = (0..500u32)
            .map(|i| KvRequest::put(&i.to_le_bytes(), &[9u8; 100]))
            .collect();
        let rs = p.execute_batch(&reqs);
        let ok = rs.iter().filter(|r| r.status == Status::Ok).count();
        let oom = rs
            .iter()
            .filter(|r| r.status == Status::OutOfMemory)
            .count();
        assert!(ok > 0, "some inserts fit");
        assert!(oom > 0, "overflow reported");
        assert_eq!(ok + oom, 500);
        // Keys that reported Ok are present.
        let mut verified = 0;
        for (i, r) in rs.iter().enumerate() {
            if r.status == Status::Ok {
                assert!(
                    p.table_mut().get(&(i as u32).to_le_bytes()).is_some(),
                    "acknowledged key {i} lost"
                );
                verified += 1;
            }
        }
        assert_eq!(verified, ok);
    }

    #[test]
    fn mixed_vector_and_scalar_batch() {
        let mut p = proc();
        let vec_bytes = crate::lambda::encode_vector(&[1, 2, 3]);
        let rs = p.execute_batch(&[
            KvRequest::put(b"v", &vec_bytes),
            KvRequest {
                op: OpCode::Reduce,
                key: b"v".to_vec(),
                value: 0u64.to_le_bytes().to_vec(),
                lambda: crate::lambda::builtin::SUM,
                deadline_us: 0,
                expiry_tick: 0,
            },
            KvRequest {
                op: OpCode::UpdateScalarToVector,
                key: b"v".to_vec(),
                value: 10u64.to_le_bytes().to_vec(),
                lambda: crate::lambda::builtin::VADD,
                deadline_us: 0,
                expiry_tick: 0,
            },
            KvRequest {
                op: OpCode::Filter,
                key: b"v".to_vec(),
                value: Vec::new(),
                lambda: crate::lambda::builtin::NONZERO,
                deadline_us: 0,
                expiry_tick: 0,
            },
        ]);
        assert_eq!(decode_scalar(Some(&rs[1].value)), 6);
        assert_eq!(crate::lambda::decode_vector(&rs[2].value), vec![1, 2, 3]);
        assert_eq!(crate::lambda::decode_vector(&rs[3].value), vec![11, 12, 13]);
    }

    #[test]
    fn ttl_put_expires_lazily_and_reclaims() {
        let mut p = proc();
        let rs = p.execute_batch(&[
            KvRequest::put(b"mortal", b"v").with_ttl(5),
            KvRequest::put(b"immortal", b"w"),
        ]);
        assert!(rs.iter().all(|r| r.status == Status::Ok));
        // Live before the stamp's tick.
        p.set_now(SimTime::from_us(4_000));
        let rs = p.execute_batch(&[KvRequest::get(b"mortal")]);
        assert_eq!(rs[0].value, b"v");
        // Dead at the stamp's tick: the GET is a miss and the slot frees.
        p.set_now(SimTime::from_us(5_000));
        let rs = p.execute_batch(&[KvRequest::get(b"mortal"), KvRequest::get(b"immortal")]);
        assert_eq!(rs[0].status, Status::NotFound);
        assert_eq!(rs[1].value, b"w");
        assert_eq!(p.table().len(), 1, "dead entry reclaimed on the miss");
        let e = p.expiry_stats();
        assert_eq!(e.ttl_puts, 1);
        assert_eq!(e.lazy_expired, 1);
    }

    #[test]
    fn dead_on_arrival_put_is_acknowledged_but_absent() {
        let mut p = proc();
        p.set_now(SimTime::from_us(10_000));
        // Stamp already in the past: memcache `set` with a past exptime.
        let rs = p.execute_batch(&[KvRequest::put(b"k", b"v").with_ttl(3), KvRequest::get(b"k")]);
        assert_eq!(rs[0].status, Status::Ok, "the store is acknowledged");
        assert_eq!(rs[1].status, Status::NotFound, "but observably absent");
        assert_eq!(p.table().len(), 0);
        // Same when the put lands on an existing live entry.
        p.execute_batch(&[KvRequest::put(b"k", b"live")]);
        let rs = p.execute_batch(&[
            KvRequest::put(b"k", b"dead").with_ttl(3),
            KvRequest::get(b"k"),
        ]);
        assert_eq!(rs[0].status, Status::Ok);
        assert_eq!(rs[1].status, Status::NotFound, "old value not resurrected");
    }

    #[test]
    fn clock_advance_drops_forwarding_caches_only_for_ttl_workloads() {
        // Stampless run: caches survive clock advances bit-identically.
        let mut p = proc();
        p.execute_batch(&[KvRequest::put(b"hot", b"v")]);
        p.set_now(SimTime::from_us(50_000));
        p.table_mut().mem_mut().reset_stats();
        let rs = p.execute_batch(&[KvRequest::get(b"hot")]);
        assert_eq!(rs[0].value, b"v");
        assert!(
            p.table().mem().stats().accesses() == 0,
            "stampless workload keeps its forwarding caches across ticks"
        );

        // TTL'd run: the same advance invalidates the cache, and the
        // re-issued GET observes the table's (expired) truth.
        let mut p = proc();
        p.execute_batch(&[KvRequest::put(b"hot", b"v").with_ttl(5)]);
        p.set_now(SimTime::from_us(5_000));
        let rs = p.execute_batch(&[KvRequest::get(b"hot")]);
        assert_eq!(
            rs[0].status,
            Status::NotFound,
            "cache must not forward a value past its stamp"
        );
    }

    #[test]
    fn writeback_preserves_the_batchs_last_stamp() {
        // Two PUTs of one key in one batch: the second queues behind the
        // first and merges in the station; the flush write-back must
        // carry the *second* put's stamp.
        let mut p = proc();
        let rs = p.execute_batch(&[
            KvRequest::put(b"k", b"v1").with_ttl(100),
            KvRequest::put(b"k", b"v2").with_ttl(5),
        ]);
        assert!(rs.iter().all(|r| r.status == Status::Ok));
        p.set_now(SimTime::from_us(5_000));
        let rs = p.execute_batch(&[KvRequest::get(b"k")]);
        assert_eq!(rs[0].status, Status::NotFound, "merged put's TTL honored");

        // And a stampless overwrite resets the lifecycle to immortal.
        let mut p = proc();
        p.execute_batch(&[
            KvRequest::put(b"k", b"v1").with_ttl(5),
            KvRequest::put(b"k", b"v2"),
        ]);
        p.set_now(SimTime::from_us(60_000));
        let rs = p.execute_batch(&[KvRequest::get(b"k")]);
        assert_eq!(rs[0].value, b"v2", "unstamped overwrite is immortal");
    }

    #[test]
    fn updates_reset_the_lifecycle() {
        let mut p = proc();
        p.execute_batch(&[KvRequest::put(b"ctr", &0u64.to_le_bytes()).with_ttl(5)]);
        let rs = p.execute_batch(&[KvRequest {
            op: OpCode::UpdateScalar,
            key: b"ctr".to_vec(),
            value: 7u64.to_le_bytes().to_vec(),
            lambda: crate::lambda::builtin::ADD,
            deadline_us: 0,
            expiry_tick: 0,
        }]);
        assert_eq!(rs[0].status, Status::Ok);
        // The update rewrote the entry unstamped: it outlives tick 5.
        p.set_now(SimTime::from_us(9_000));
        let rs = p.execute_batch(&[KvRequest::get(b"ctr")]);
        assert_eq!(decode_scalar(Some(&rs[0].value)), 7);
    }

    #[test]
    fn touch_extends_and_kills() {
        let mut p = proc();
        p.execute_batch(&[KvRequest::put(b"k", b"v").with_ttl(5)]);
        assert!(p.touch(b"k", 100), "live key touched");
        p.set_now(SimTime::from_us(50_000));
        let rs = p.execute_batch(&[KvRequest::get(b"k")]);
        assert_eq!(rs[0].value, b"v", "touch extended the lifetime");
        // Touch into the past: dead immediately, cache dropped.
        p.set_now(SimTime::from_us(60_000));
        assert!(p.touch(b"k", 55));
        let rs = p.execute_batch(&[KvRequest::get(b"k")]);
        assert_eq!(rs[0].status, Status::NotFound);
        // Touching a missing key reports absence.
        assert!(!p.touch(b"nope", 10));
        assert_eq!(p.expiry_stats().touches, 2);
    }

    #[test]
    fn sweep_reclaims_dead_entries_in_bulk() {
        let mut p = proc();
        let reqs: Vec<KvRequest> = (0..200u32)
            .map(|i| KvRequest::put(&i.to_le_bytes(), b"payload").with_ttl(1 + (i % 3)))
            .collect();
        p.execute_batch(&reqs);
        assert_eq!(p.table().len(), 200);
        p.set_now(SimTime::from_us(10_000)); // everything is dead now
        let buckets = p.table().n_buckets();
        let mut reclaimed = 0;
        // Bounded passes: each sweeps a slice of the bucket space.
        for _ in 0..buckets.div_ceil(8) {
            reclaimed += p.sweep_expired(8).reclaimed;
        }
        assert_eq!(reclaimed, 200, "reaper reclaimed every dead entry");
        assert_eq!(p.table().len(), 0);
        let e = p.expiry_stats();
        assert_eq!(e.reaped_entries, 200);
        assert!(e.sweep_passes > 0 && e.sweep_buckets > 0);
    }

    #[test]
    fn chained_same_key_ops_fail_independently_under_total_faults() {
        use kvd_sim::{FaultPlane, FaultRates};
        // Three ops on one key queue behind each other in the station.
        // With every DMA transaction failing, each must be retired with
        // DeviceError via the reclaim path (no forwarding cache installed,
        // no table mutation, chain still drains).
        let mut p = proc();
        p.set_fault_plane(FaultPlane::new(
            FaultRates {
                pcie_corrupt: 1.0,
                ..FaultRates::ZERO
            },
            5,
        ));
        let rs = p.execute_batch(&[
            KvRequest::put(b"k", b"v1"),
            KvRequest::put(b"k", b"v2"),
            KvRequest::get(b"k"),
        ]);
        assert!(rs.iter().all(|r| r.status == Status::DeviceError));
        assert_eq!(p.table().len(), 0, "no failed op reached the table");
        assert_eq!(p.stats().device_errors, 3);
        assert_eq!(p.station_stats().reclaimed, 3, "every op reclaimed");
    }

    #[test]
    fn faulty_processor_never_loses_acknowledged_writes() {
        use kvd_sim::{FaultPlane, FaultRates};
        // Under moderate fault rates, an op's acknowledgement must be
        // truthful: Ok puts are durable, DeviceError puts left no trace.
        let mut p = proc();
        p.set_fault_plane(FaultPlane::new(FaultRates::uniform(0.3), 77));
        let reqs: Vec<KvRequest> = (0..500u32)
            .map(|i| KvRequest::put(&i.to_le_bytes(), &i.to_le_bytes()))
            .collect();
        let rs = p.execute_batch(&reqs);
        let mut oks = 0;
        let mut errs = 0;
        for (i, r) in rs.iter().enumerate() {
            let key = (i as u32).to_le_bytes();
            match r.status {
                Status::Ok => {
                    assert!(
                        p.table_mut().get(&key).is_some(),
                        "acknowledged key {i} lost"
                    );
                    oks += 1;
                }
                Status::DeviceError => {
                    assert!(p.table_mut().get(&key).is_none(), "failed key {i} applied");
                    errs += 1;
                }
                s => panic!("unexpected status {s:?}"),
            }
        }
        assert!(oks > 400, "retry budget absorbs most faults: {oks}");
        assert!(
            errs > 0,
            "~0.55^5 per-op exhaustion should fire over 500 ops"
        );
        assert_eq!(p.stats().device_errors, errs);
        assert_eq!(p.faults().counters().exhausted, errs);
    }
}
