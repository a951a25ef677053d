//! The KV processor (paper Figure 4).
//!
//! Requests flow: decoder → reservation station → operation decoder →
//! hash table / slab allocator → memory engine → completion → back
//! through the station for data forwarding. This module drives those
//! stages functionally with a configurable pipeline depth: issued
//! operations sit in an in-flight FIFO (memory latency) so dependent
//! requests really do queue and forward, exactly as on the FPGA.
//!
//! There is one execution core, [`KvProcessor::run`]; every entry point
//! is that core called with a different view of the caller's requests.
//! For the length of the call it **borrows**: keys and values stay where
//! the caller put them, the FIFO holds `(request index, station slot)`,
//! the table reads a GET's value straight into `responses[i].value` and
//! writes a PUT from `requests[i].value`, and whatever a response needs
//! to know about its request is read from `requests[i]`. Bytes are
//! **owned** only where they outlive their operation, and only by the
//! station (DESIGN.md §11 has the table).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use kvd_hash::hashing::{hash_key, KeyHashes};
use kvd_hash::{HashError, HashTable, HashTableConfig};
use kvd_mem::MemoryEngine;
use kvd_net::{KvRequest, KvRequestRef, KvResponse, OpCode, Status};
use kvd_ooo::{OpRef, Probe, Reissue, ReservationStation, StationConfig, UpdateFn};
use kvd_sim::{CostSource, ExpiryCosts, FaultPlane, OpLedger, SimTime, StationCosts};

use crate::lambda::{decode_scalar, decode_vector, encode_vector, Lambda, LambdaRegistry};
use crate::overload::{
    AdmissionController, OverloadConfig, HOT_KEY_HALVE_EVERY, HOT_KEY_MIN_SHARE, HOT_KEY_SEVERE,
    HOT_KEY_TOP_K,
};

/// Retries the processor grants a memory transaction before surfacing
/// [`Status::DeviceError`] (matches the DMA engine's read retry budget).
pub const DEFAULT_FAULT_RETRY_LIMIT: u32 = 4;

/// The hot-key shed policy's live state: a space-saving rollup over
/// hashed request keys, aged by periodic halving so the tracked hot set
/// follows the recent mix. Hashing (the table's primary hash) keeps the
/// rollup allocation-free per request — no key bytes are retained.
#[derive(Debug, Clone)]
struct HotKeyRollup {
    rollup: kvd_mem::SpaceSaving,
    since_halve: u64,
}

impl HotKeyRollup {
    fn new() -> Self {
        HotKeyRollup {
            rollup: kvd_mem::SpaceSaving::new(HOT_KEY_TOP_K),
            since_halve: 0,
        }
    }

    fn observe(&mut self, key_hash: u64) {
        self.rollup.observe(key_hash);
        self.since_halve += 1;
        if self.since_halve >= HOT_KEY_HALVE_EVERY {
            self.rollup.halve();
            self.since_halve = 0;
        }
    }

    /// Hot means *provably* hot: the space-saving lower bound
    /// (`count - err`) must reach `HOT_KEY_MIN_SHARE` of observed traffic,
    /// so a spread key that merely inherited a displaced slot's inflated
    /// count is never shed by mistake.
    fn is_hot(&self, key_hash: u64) -> bool {
        let total = self.rollup.total();
        if total == 0 {
            return false;
        }
        self.rollup.estimate(key_hash).is_some_and(|e| {
            e.count.saturating_sub(e.err) as f64 >= HOT_KEY_MIN_SHARE * total as f64
        })
    }
}

/// Requests the core reads by position for the length of one call: a
/// slice of borrowed or owned requests, the serving front-end's view of
/// a bundle's arena, or an index view of a stream (a shard's share, a
/// batch's live requests: [`crate::parallel::Routed`]). Monomorphised.
#[allow(clippy::len_without_is_empty)] // loops compare a cursor with `len`; nothing asks "empty?"
pub trait RequestStream {
    /// Requests in the stream.
    fn len(&self) -> usize;
    /// Request `i` (`i < len()`).
    fn get(&self, i: usize) -> KvRequestRef<'_>;
    /// The instant request `i`'s client issues it, if the stream carries
    /// an open-loop arrival schedule (every request of such a stream has
    /// one, non-decreasing in `i`); `None` for a closed loop, whose
    /// requests issue as responses free client windows. Only the timed
    /// engine ([`crate::system::SystemSim`]) asks.
    fn arrival(&self, _i: usize) -> Option<SimTime> {
        None
    }
}

impl RequestStream for [KvRequestRef<'_>] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn get(&self, i: usize) -> KvRequestRef<'_> {
        self[i]
    }
}

impl RequestStream for [KvRequest] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn get(&self, i: usize) -> KvRequestRef<'_> {
        self[i].as_ref()
    }
}

/// What one request of the last [`KvProcessor::run`] asked of memory, for
/// the timed engine ([`crate::system::SystemSim`]) to charge: the reads
/// its own execution made — not the write-backs of the dirty forwarding
/// entries it evicted or the run flushed — and the station slot it went
/// through (`None` if it was answered before reaching the station).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpAccess {
    pub(crate) dma_reads: u64,
    pub(crate) dram_reads: u64,
    pub(crate) slot: Option<usize>,
}

/// Answers with a bare status.
fn answer(resp: &mut KvResponse, status: Status) {
    resp.status = status;
    resp.value.clear();
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
    /// Issued operations awaiting their memory access, oldest first:
    /// `(request index, station slot, the key's hashes)`.
    inflight: VecDeque<(usize, usize, KeyHashes)>,
    pipeline_depth: usize,
    faults: FaultPlane,
    fault_retry_limit: u32,
    overload_cfg: OverloadConfig,
    admission: Option<AdmissionController>,
    hot_keys: Option<HotKeyRollup>,
    /// When set, `count_retired` also attributes retire outcomes
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
    /// One entry per request of the last [`Self::run`], by position;
    /// reused across runs.
    accesses: Vec<OpAccess>,
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
            accesses: Vec::new(),
        }
    }

    /// Configures the overload plane (admission watermarks, read-only
    /// degradation). The default [`OverloadConfig`] disables everything.
    pub fn set_overload_config(&mut self, cfg: OverloadConfig) {
        self.admission = cfg.admission.map(AdmissionController::new);
        self.hot_keys = cfg.hot_key.then(HotKeyRollup::new);
        self.overload_cfg = cfg;
    }

    /// Advances the clock the deadline gate compares request deadlines
    /// against (µs since the client epoch).
    ///
    /// Also drives the table's expiry clock: when the coarse lifecycle
    /// tick advances, previously-live stamps may die, so the station's
    /// clean forwarding caches (which hold values, not stamps) are
    /// dropped — but only once a lifecycle stamp has actually been seen,
    /// so stampless workloads keep bit-identical forwarding behaviour.
    #[inline]
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
    #[inline]
    pub fn set_external_pressure(&mut self, pressure: f64) {
        self.external_pressure = pressure;
    }

    /// Enables per-retire outcome attribution in the ledger
    /// (`retired_ok`/`retired_not_found`/`retired_failed`). Costs one
    /// branch + increment per response; off by default.
    pub fn set_ledger_detail(&mut self, on: bool) {
        self.ledger_detail = on;
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

    /// The hash table.
    #[inline]
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

    /// What each request of the last [`Self::run`] asked of memory, by
    /// position in its stream.
    pub(crate) fn accesses(&self) -> &[OpAccess] {
        &self.accesses
    }

    /// Reservation-station counters (forwarding rate etc.).
    pub fn station_stats(&self) -> StationCosts {
        self.station.stats()
    }

    /// Executes a batch of requests, returning responses in order — the
    /// owned convenience form of [`run`](Self::run).
    ///
    /// All effects are applied to the table by return time (dirty
    /// forwarding caches are flushed).
    pub fn execute_batch(&mut self, reqs: &[KvRequest]) -> Vec<KvResponse> {
        let mut out = vec![KvResponse::default(); reqs.len()];
        self.run(reqs, &mut out);
        out
    }

    /// Executes one borrowed request into a caller-owned response: the
    /// core, called with one request. A caller that loops with one
    /// `KvResponse` runs the steady-state path without a heap allocation.
    #[inline]
    pub fn execute_one_into(&mut self, req: KvRequestRef<'_>, resp: &mut KvResponse) {
        self.run(std::slice::from_ref(&req), std::slice::from_mut(resp));
    }

    /// The execution core: runs `requests` in order and answers request
    /// `i` in `responses[i]` in place (status set, value buffer cleared
    /// and refilled). By return the pipeline is drained and dirty
    /// forwarding entries are flushed, so every effect is in the table.
    /// Retirement waits on host memory less than one op at a time would:
    /// each issued op's bucket line is prefetched as it is admitted, and
    /// the slab records those buckets name once the batch is admitted.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one response slot per request.
    pub fn run<R: RequestStream + ?Sized>(&mut self, requests: &R, responses: &mut [KvResponse]) {
        assert_eq!(
            requests.len(),
            responses.len(),
            "one response slot per request"
        );
        if !self.pending_ttl.is_empty() {
            self.pending_ttl.clear();
        }
        self.accesses.clear();
        self.accesses.resize(requests.len(), OpAccess::default());
        for i in 0..requests.len() {
            self.admit(requests, responses, i);
        }
        // Stage 2 of the staging (stage 1 is in `admit`): the buckets
        // hinted at issue have had the whole admission loop to arrive, so
        // each one now names the slab records its op will read. Hints
        // count nothing (DESIGN.md §11).
        for &(_, _, h) in &self.inflight {
            self.table.prefetch_records(h);
        }
        while !self.inflight.is_empty() {
            self.retire_one(requests, responses);
        }
        self.flush();
    }

    /// Gates, decodes and submits request `i` to the station, handling
    /// back-pressure.
    fn admit<R: RequestStream + ?Sized>(
        &mut self,
        requests: &R,
        responses: &mut [KvResponse],
        i: usize,
    ) {
        let req = requests.get(i);
        // The key is hashed here, once: the station slot, the hot-key
        // rollup and the table's bucket and slot tag all come from `h`.
        let h = hash_key(req.key);
        self.ledger.core.requests += 1;
        let update = match self.overload_gate(req, h.primary) {
            None => self.decode(req),
            Some(shed) => Err(shed),
        };
        let update = match update {
            Ok(update) => update,
            Err(status) => {
                answer(&mut responses[i], status);
                return;
            }
        };
        let op = match (req.op, &update) {
            (_, Some(f)) => OpRef::Update(f),
            // Dead on arrival (memcache `set` with a past exptime): the
            // store is acknowledged but the value must be observably
            // absent. Run it as a delete so the outcome holds even
            // through the forwarding cache; the response is still the
            // PUT's.
            (OpCode::Put, None) if !self.table.stamp_dead(req.expiry_tick) => OpRef::Put(req.value),
            (OpCode::Put | OpCode::Delete, None) => OpRef::Delete,
            _ => OpRef::Get,
        };
        let slot = self.station.slot_for(h.station);
        self.accesses[i].slot = Some(slot);
        loop {
            match self.station.probe(slot, req.key) {
                Probe::Hit => {
                    let (registry, resp) = (&self.registry, &mut responses[i]);
                    self.station
                        .forward(slot, op, |value| respond(registry, req, value, resp));
                    count_retired(&mut self.ledger, self.ledger_detail, responses[i].status);
                    return;
                }
                Probe::Miss => {
                    if let Some((key, value)) = self.station.issue(slot) {
                        Self::write_back(
                            &mut self.table,
                            &self.pending_ttl,
                            &mut self.ledger,
                            key,
                            value,
                        );
                    }
                    self.inflight.push_back((i, slot, h));
                    // Stage 1: start the bucket's host line on its way
                    // while the rest of the batch is admitted.
                    self.table.prefetch_bucket(h);
                    if self.inflight.len() >= self.pipeline_depth {
                        self.retire_one(requests, responses);
                    }
                    return;
                }
                Probe::Busy => {
                    if self.station.enqueue(slot, i as u64, req.key, op) {
                        return;
                    }
                    // Backpressure: retire the oldest in-flight op (which
                    // drains its dependency chain) and probe again.
                    self.retire_one(requests, responses);
                }
            }
        }
    }

    /// The overload plane's per-request gate, run before any station or
    /// DMA resources are spent. Order matters: an expired request is
    /// dropped no matter what (spending capacity on it helps nobody),
    /// degraded read-only mode sheds allocating writes next, and the
    /// watermark admission controller sees only requests that could
    /// actually execute.
    fn overload_gate(&mut self, req: KvRequestRef<'_>, key_hash: u64) -> Option<Status> {
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
                hk.observe(key_hash);
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
                match self.hot_keys.as_ref().filter(|_| pressure < HOT_KEY_SEVERE) {
                    Some(hk) if hk.is_hot(key_hash) => {
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

    /// The operation decoder: counts the request in the ledger's mix,
    /// keeps the batch's lifecycle stamps, checks that a λ of the right
    /// type is registered (`Invalid` otherwise) and builds an atomic
    /// update's transform.
    fn decode(&mut self, req: KvRequestRef<'_>) -> Result<Option<UpdateFn>, Status> {
        let core = &mut self.ledger.core;
        // What a write-back of this key must re-install: a live PUT's
        // stamp. Every other write resets the lifecycle to immortal
        // (λ-updates write back unstamped on every path).
        let mut stamp = 0;
        match req.op {
            OpCode::Get => {
                core.reads += 1;
                return Ok(None);
            }
            OpCode::Reduce | OpCode::Filter => {
                core.reads += 1;
                return match (req.op, self.registry.get(req.lambda)) {
                    (OpCode::Reduce, Some(Lambda::Reduce(_)))
                    | (OpCode::Filter, Some(Lambda::Filter(_))) => Ok(None),
                    _ => self.invalid(),
                };
            }
            OpCode::Put => {
                core.puts += 1;
                if req.expiry_tick != 0 {
                    self.ttl_seen = true;
                    if !self.table.stamp_dead(req.expiry_tick) {
                        stamp = req.expiry_tick;
                    }
                }
            }
            OpCode::Delete => core.deletes += 1,
            OpCode::UpdateScalar | OpCode::UpdateScalarToVector | OpCode::UpdateVector => {
                core.updates += 1
            }
        }
        if stamp != 0 {
            self.pending_ttl.insert(req.key.to_vec(), stamp);
        } else if !self.pending_ttl.is_empty() {
            self.pending_ttl.remove(req.key);
        }
        match req.op {
            OpCode::Put | OpCode::Delete => Ok(None),
            _ => match self.update_fn(req) {
                Some(f) => Ok(Some(f)),
                None => self.invalid(),
            },
        }
    }

    /// Rejects a request that names no registered λ of its opcode's type.
    fn invalid<T>(&mut self) -> Result<T, Status> {
        self.ledger.core.invalid += 1;
        Err(Status::Invalid)
    }

    /// The transform (old value → new value) of an atomic update request;
    /// `None` unless a λ of the opcode's type is registered under its id.
    fn update_fn(&self, req: KvRequestRef<'_>) -> Option<UpdateFn> {
        Some(match (req.op, self.registry.get(req.lambda)?) {
            (OpCode::UpdateScalar, Lambda::Scalar(f)) => {
                let (f, param) = (Arc::clone(f), decode_scalar(Some(req.value)));
                Arc::new(move |old| Some(f(decode_scalar(old), param).to_le_bytes().to_vec()))
            }
            (OpCode::UpdateScalarToVector, Lambda::ScalarToVector(f)) => {
                let (f, param) = (Arc::clone(f), decode_scalar(Some(req.value)));
                Arc::new(move |old| {
                    old.map(|bytes| {
                        let elems: Vec<u64> = decode_vector(bytes)
                            .into_iter()
                            .map(|e| f(e, param))
                            .collect();
                        encode_vector(&elems)
                    })
                })
            }
            (OpCode::UpdateVector, Lambda::VectorToVector(f)) => {
                let (f, params) = (Arc::clone(f), decode_vector(req.value));
                Arc::new(move |old| {
                    old.map(|bytes| {
                        let mut elems = decode_vector(bytes);
                        for (e, p) in elems.iter_mut().zip(&params) {
                            *e = f(*e, *p);
                        }
                        encode_vector(&elems)
                    })
                })
            }
            _ => return None,
        })
    }

    /// Executes the oldest in-flight operation against the table and
    /// reports its completion to the station; whatever its chain
    /// re-issues runs straight after it, in the same slot.
    fn retire_one<R: RequestStream + ?Sized>(
        &mut self,
        requests: &R,
        responses: &mut [KvResponse],
    ) {
        let Some((mut idx, slot, mut h)) = self.inflight.pop_front() else {
            return;
        };
        loop {
            // Each issued op (including colliding-chain re-issues) is one
            // memory transaction with its own fault draw.
            let txn = self.faults.transaction(self.fault_retry_limit);
            self.ledger.core.fault_retries += txn.retries as u64;
            if txn.failed {
                // The transaction died in the device after exhausting its
                // retries: the table was never touched, so the station
                // must free the slot without installing a forwarding
                // value — dependents re-reach memory themselves.
                self.ledger.core.device_errors += 1;
                answer(&mut responses[idx], Status::DeviceError);
                self.station.release(slot);
            } else {
                let before = self.table.mem().traffic();
                self.execute(requests.get(idx), h, &mut responses[idx], slot);
                let after = self.table.mem().traffic();
                let access = &mut self.accesses[idx];
                access.dma_reads = after.dma_reads - before.dma_reads;
                access.dram_reads = after.dram_reads - before.dram_reads;
            }
            let (registry, ledger, detail) = (&self.registry, &mut self.ledger, self.ledger_detail);
            count_retired(ledger, detail, responses[idx].status);
            let next = self.station.drain(slot, |id, value| {
                let resp = &mut responses[id as usize];
                respond(registry, requests.get(id as usize), value, resp);
                count_retired(ledger, detail, resp.status);
            });
            let Some(Reissue { op, writeback }) = next else {
                return;
            };
            if let Some((key, value)) = writeback {
                Self::write_back(
                    &mut self.table,
                    &self.pending_ttl,
                    &mut self.ledger,
                    key,
                    value,
                );
            }
            (idx, h) = (op.id as usize, hash_key(&op.key));
            self.station.recycle(op);
        }
    }

    /// Runs one issued request against the hash table — the only place a
    /// request reaches it — answers it, and installs the key's value
    /// after the operation as the slot's forwarding entry.
    fn execute(&mut self, req: KvRequestRef<'_>, h: KeyHashes, resp: &mut KvResponse, slot: usize) {
        let key = req.key;
        match req.op {
            OpCode::Get | OpCode::Reduce | OpCode::Filter => {
                let (hit, _) = self.table.get_hashed(key, h, &mut resp.value);
                self.station
                    .install(slot, key, hit.then_some(resp.value.as_slice()));
                if !hit {
                    answer(resp, Status::NotFound);
                } else if req.op == OpCode::Get {
                    resp.status = Status::Ok;
                } else {
                    let raw = std::mem::take(&mut resp.value);
                    respond(&self.registry, req, Some(&raw), resp);
                }
            }
            OpCode::Put if !self.table.stamp_dead(req.expiry_tick) => {
                let status = match self.table.put_hashed(key, h, req.value, req.expiry_tick) {
                    Ok(_replaced) => {
                        self.station.install(slot, key, Some(req.value));
                        Status::Ok
                    }
                    Err(e) => {
                        // Leave the cache coherent with the table's (old)
                        // contents.
                        let status = self.map_error(e);
                        let old = self.table.get(key);
                        self.station.install(slot, key, old.as_deref());
                        status
                    }
                };
                answer(resp, status);
            }
            // A dead-on-arrival PUT runs as a delete; its response is the
            // PUT's Ok, not the delete's found/not-found.
            OpCode::Put | OpCode::Delete => {
                let (existed, _) = self.table.delete_hashed(key, h);
                self.station.install(slot, key, None);
                let ok = existed || req.op == OpCode::Put;
                answer(resp, if ok { Status::Ok } else { Status::NotFound });
            }
            OpCode::UpdateScalar | OpCode::UpdateScalarToVector | OpCode::UpdateVector => {
                let f = self.update_fn(req).expect("validated at submission");
                let mut old = None;
                let stored = self.table.update_hashed(key, h, |v| {
                    old = v.map(<[u8]>::to_vec);
                    f(v)
                });
                match stored {
                    Ok(new) => {
                        self.station.install(slot, key, new.as_deref());
                        respond(&self.registry, req, old.as_deref(), resp);
                    }
                    Err(e) => {
                        let status = self.map_error(e);
                        self.station.install(slot, key, old.as_deref());
                        answer(resp, status);
                    }
                }
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

    /// Applies a dirty forwarding entry to the table. An associated
    /// function over the fields it needs, because its `key` and `value`
    /// are borrowed from the station's entry.
    fn write_back(
        table: &mut HashTable<M>,
        pending_ttl: &HashMap<Vec<u8>, u32>,
        ledger: &mut OpLedger,
        key: &[u8],
        value: Option<&[u8]>,
    ) {
        let ok = match value {
            // A write-back lands with the stamp of the batch's last TTL'd
            // PUT of this key (0 — immortal — otherwise: unstamped PUTs
            // and λ-updates both reset the lifecycle).
            Some(v) => {
                let exp = if pending_ttl.is_empty() {
                    0
                } else {
                    pending_ttl.get(key).copied().unwrap_or(0)
                };
                table.put_ttl(key, v, exp).is_ok()
            }
            None => {
                table.delete(key);
                true
            }
        };
        if !ok {
            // A write-back can only fail if the cached value grew past
            // available memory; the value is then dropped. Surfaced via
            // stats so benchmarks can assert it never happens.
            ledger.core.writeback_failures += 1;
        }
    }

    /// Writes every dirty forwarding entry back, in slot order.
    fn flush(&mut self) {
        let (table, pending_ttl, ledger) = (&mut self.table, &self.pending_ttl, &mut self.ledger);
        self.station
            .flush_with(|key, value| Self::write_back(table, pending_ttl, ledger, key, value));
    }

    /// Rewrites `key`'s lifecycle stamp in place (memcache `touch`).
    ///
    /// Returns whether the key was found live. Bypasses the station —
    /// dirty state is flushed first, and since the forwarding caches hold
    /// values (never stamps) a surviving clean cache stays coherent. A
    /// touch into the past kills the entry *now*, so the caches are
    /// dropped in that case before any read can forward the corpse.
    pub fn touch(&mut self, key: &[u8], expiry_tick: u32) -> bool {
        self.flush();
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
    pub fn expiry_stats(&self) -> ExpiryCosts {
        self.table.expiry_stats()
    }
}

/// Station-retired outcome attribution, when the ledger asks for the
/// detail (fast-path, issued and chain-forwarded completions all land
/// here; shed/invalid responses are already counted by their own ledger
/// channels).
fn count_retired(ledger: &mut OpLedger, detail: bool, status: Status) {
    if !detail {
        return;
    }
    match status {
        Status::Ok => ledger.core.retired_ok += 1,
        Status::NotFound => ledger.core.retired_not_found += 1,
        _ => ledger.core.retired_failed += 1,
    }
}

impl<M: MemoryEngine + CostSource> CostSource for KvProcessor<M> {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.merge(&self.ledger);
        self.station.emit_costs(out);
        self.table.allocator().emit_costs(out);
        self.faults.emit_costs(out);
        self.table.mem().emit_costs(out);
        out.expiry.merge(&self.table.expiry_stats());
    }
}

/// Builds the client-visible response, in place, from the value the
/// station (or the table) produced for the request: GET the value read,
/// PUT/DELETE the value displaced, an update the original. PUT and
/// DELETE answer with a status only.
fn respond(
    registry: &LambdaRegistry,
    req: KvRequestRef<'_>,
    value: Option<&[u8]>,
    resp: &mut KvResponse,
) {
    answer(resp, Status::Ok);
    match (req.op, value) {
        (OpCode::Put, _) | (OpCode::Delete, Some(_)) => {}
        (OpCode::UpdateScalar, v) => resp
            .value
            .extend_from_slice(&decode_scalar(v).to_le_bytes()),
        (OpCode::Get | OpCode::UpdateScalarToVector | OpCode::UpdateVector, Some(v)) => {
            resp.value.extend_from_slice(v)
        }
        (OpCode::Reduce, Some(v)) => {
            let Some(Lambda::Reduce(f)) = registry.get(req.lambda) else {
                unreachable!("validated at submission")
            };
            let init = decode_scalar(Some(req.value));
            let acc = decode_vector(v).into_iter().fold(init, |a, e| f(a, e));
            resp.value.extend_from_slice(&acc.to_le_bytes());
        }
        (OpCode::Filter, Some(v)) => {
            let Some(Lambda::Filter(f)) = registry.get(req.lambda) else {
                unreachable!("validated at submission")
            };
            let kept: Vec<u64> = decode_vector(v).into_iter().filter(|e| f(*e)).collect();
            resp.value = encode_vector(&kept);
        }
        (_, None) => resp.status = Status::NotFound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_model::Model;
    use kvd_sim::{DetRng, ZipfSampler};

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
        let s = OpLedger::of(&p).core;
        assert_eq!(s.requests, 5);
        assert_eq!(s.puts, 2);
        assert_eq!(s.reads, 3);
    }

    #[test]
    fn station_slot_comes_from_the_one_key_hash() {
        // `admit` derives the slot from the hashes it already holds;
        // `slot_of`, which the owned forms and the trace binary call with a
        // key, must land on the same slot — by mask and by remainder.
        for hash_slots in [1024usize, 1000] {
            let rs = ReservationStation::new(StationConfig {
                hash_slots,
                ..StationConfig::default()
            });
            for i in 0..2000u64 {
                let keys = [i.to_le_bytes().to_vec(), format!("k{i:012}").into_bytes()];
                for key in keys {
                    let station = hash_key(&key).station;
                    assert_eq!(rs.slot_of(&key), rs.slot_for(station));
                    assert_eq!(rs.slot_of(&key), (station % hash_slots as u64) as usize);
                }
            }
        }
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
    fn a_fetch_add_on_an_inline_key_reads_its_bucket_once() {
        // One chain walk per read-modify-write: the bucket is read once,
        // modified and written once.
        let mut p = proc();
        // Straight into the table: no station entry to forward from.
        p.table_mut().put(b"ctr", &5u64.to_le_bytes()).unwrap();
        p.table_mut().mem_mut().reset_stats();
        let rs = p.execute_batch(&[KvRequest {
            op: OpCode::UpdateScalar,
            key: b"ctr".to_vec(),
            value: 1u64.to_le_bytes().to_vec(),
            lambda: crate::lambda::builtin::ADD,
            deadline_us: 0,
            expiry_tick: 0,
        }]);
        assert_eq!(decode_scalar(Some(&rs[0].value)), 5);
        let s = p.table().mem().stats();
        assert_eq!((s.dma_reads, s.dma_writes), (1, 1));
        assert_eq!(p.table_mut().get(b"ctr"), Some(6u64.to_le_bytes().to_vec()));
    }

    #[test]
    fn differential_vs_btreemap_reference() {
        // The processor (station + table + caches + write-backs) must be
        // indistinguishable from the reference model under any GET/PUT/
        // DELETE/fetch-add interleaving, per batch and across batches.
        let mut p = proc();
        let mut model = Model::default();
        let mut rng = DetRng::seed(2024);
        let zipf = ZipfSampler::new(50, 0.99); // hot keys stress forwarding
        for _batch in 0..60 {
            let reqs: Vec<KvRequest> = (0..40)
                .map(|_| {
                    let key = format!("k{}", zipf.sample(&mut rng)).into_bytes();
                    match rng.u64_below(4) {
                        0 => {
                            let mut v = vec![0u8; 1 + rng.usize_below(40)];
                            rng.fill_bytes(&mut v);
                            KvRequest::put(&key, &v)
                        }
                        1 => KvRequest::delete(&key),
                        2 => KvRequest {
                            op: OpCode::UpdateScalar,
                            lambda: crate::lambda::builtin::ADD,
                            ..KvRequest::put(&key, &7u64.to_le_bytes())
                        },
                        _ => KvRequest::get(&key),
                    }
                })
                .collect();
            for (i, (req, r)) in reqs.iter().zip(p.execute_batch(&reqs)).enumerate() {
                if let Err(e) = model.check(req.as_ref(), r.status, &r.value) {
                    panic!("op {i}: {e}");
                }
            }
        }
        // After the final flush, the table matches the model exactly.
        for (k, v) in model.entries() {
            let got = p.table_mut().get(k);
            assert_eq!(got.as_deref(), Some(v), "table divergence at {k:?}");
        }
        assert_eq!(OpLedger::of(&p).core.writeback_failures, 0);
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
        assert_eq!(OpLedger::of(&p).core.device_errors, 3);
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
        assert_eq!(OpLedger::of(&p).core.device_errors, errs);
        assert_eq!(OpLedger::of(&p).pcie.exhausted, errs);
    }
}
