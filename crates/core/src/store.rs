//! The embedder-facing KV-Direct store.
//!
//! [`KvDirectStore`] wraps one simulated NIC (KV processor + dispatched
//! memory stack) behind the operations of Table 1. The paper's multi-NIC
//! deployment, where "10 programmable NIC cards in a commodity server"
//! reach 1.22 billion KV operations per second, is
//! [`ParallelSystemSim`](crate::ParallelSystemSim): one store per shard.

use kvd_hash::{HashTable, HashTableConfig};
use kvd_mem::{
    AdaptiveCacheConfig, DispatchConfig, DispatchedMemory, NicDramConfig, NIC_DRAM_GBYTES_PER_SEC,
};
use kvd_net::{KvRequest, KvRequestRef, KvResponse, OpCode, Status};
use kvd_ooo::StationConfig;
use kvd_sim::{Bandwidth, CostSource, FaultPlane, FaultRates, OpLedger};

use crate::lambda::{decode_scalar, decode_vector, encode_vector, Lambda, LambdaRegistry};
use crate::overload::OverloadConfig;
use crate::processor::{KvProcessor, RequestStream};

/// Errors surfaced by the store API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The store is out of memory.
    OutOfMemory,
    /// Key absent where one was required.
    NotFound,
    /// Malformed request, oversized key/value, or unregistered λ.
    Invalid,
    /// A device-level fault exhausted its retry budget; the operation was
    /// not applied and may be retried.
    DeviceError,
    /// Shed by admission control (or a degraded mode such as read-only);
    /// the operation was not applied. Back off and retry.
    Overloaded,
    /// The request's deadline had already passed; it was dropped without
    /// executing.
    Expired,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfMemory => write!(f, "out of memory"),
            StoreError::NotFound => write!(f, "key not found"),
            StoreError::Invalid => write!(f, "invalid request"),
            StoreError::DeviceError => write!(f, "device error (retriable)"),
            StoreError::Overloaded => write!(f, "shed by admission control"),
            StoreError::Expired => write!(f, "deadline expired"),
        }
    }
}

impl std::error::Error for StoreError {}

fn status_to_err(s: Status) -> StoreError {
    match s {
        Status::Ok => unreachable!("Ok is not an error"),
        Status::NotFound => StoreError::NotFound,
        Status::OutOfMemory => StoreError::OutOfMemory,
        Status::Invalid => StoreError::Invalid,
        Status::DeviceError => StoreError::DeviceError,
        Status::Overloaded => StoreError::Overloaded,
        Status::Expired => StoreError::Expired,
    }
}

/// Configuration of one simulated KV-Direct NIC.
///
/// Defaults preserve the paper's ratios at laptop scale: 64 MiB host KVS
/// standing in for 64 GiB, NIC DRAM at 1/16th of it, hash index ratio and
/// inline threshold tuned for small-KV workloads, load dispatch ratio
/// 0.5.
#[derive(Debug, Clone)]
pub struct KvDirectConfig {
    /// Total KVS memory (hash index + dynamic region).
    pub total_memory: u64,
    /// Hash index ratio (paper §3.3.1).
    pub hash_index_ratio: f64,
    /// Inline threshold in bytes (paper §3.3.1).
    pub inline_threshold: usize,
    /// Load dispatch ratio `l` (paper §3.3.4).
    pub load_dispatch_ratio: f64,
    /// NIC DRAM capacity (paper: host/16).
    pub nic_dram_capacity: u64,
    /// Reservation station geometry (paper: 1024 slots, 256 ops).
    pub station: StationConfig,
    /// Allow values up to 64 KiB (extended slab ladder) instead of the
    /// paper's 512 B.
    pub extended_slabs: bool,
    /// Fault-injection rates for the simulated hardware. `FaultRates::ZERO`
    /// (the default) keeps every model on its fault-free fast path.
    pub fault_rates: FaultRates,
    /// Seed of the deterministic fault schedule; only meaningful when
    /// `fault_rates` is non-zero.
    pub fault_seed: u64,
    /// Overload plane (admission watermarks, deadline expiry, read-only
    /// degradation). Defaults to fully disabled so closed-loop workloads
    /// that legitimately saturate the pipeline are untouched.
    pub overload: OverloadConfig,
    /// Adaptive cache plane: sampled frequency sketch, TinyLFU-style
    /// NIC-DRAM fill admission and online retuning of the load dispatch
    /// ratio from the measured hit rate. `None` (the default) keeps the
    /// paper's static-`l` behaviour bit-identical.
    pub adaptive_cache: Option<AdaptiveCacheConfig>,
    /// Bucket chains the background reaper sweeps after each batch of a
    /// clocked run ([`SystemSim`](crate::SystemSim)). 0 (the default)
    /// disables the reaper: dead entries are then reclaimed lazily by
    /// the probes that trip over them.
    pub reap_buckets_per_batch: u64,
}

impl KvDirectConfig {
    /// A config with the given total memory and paper-default parameters.
    pub fn with_memory(total_memory: u64) -> Self {
        KvDirectConfig {
            total_memory,
            hash_index_ratio: 0.5,
            inline_threshold: 24,
            load_dispatch_ratio: 0.5,
            nic_dram_capacity: total_memory / 16,
            station: StationConfig::default(),
            extended_slabs: false,
            fault_rates: FaultRates::ZERO,
            fault_seed: 0,
            overload: OverloadConfig::default(),
            adaptive_cache: None,
            reap_buckets_per_batch: 0,
        }
    }
}

impl Default for KvDirectConfig {
    fn default() -> Self {
        KvDirectConfig::with_memory(64 << 20)
    }
}

/// A single-NIC KV-Direct store.
///
/// # Examples
///
/// ```
/// use kvd_core::{builtin, KvDirectConfig, KvDirectStore};
///
/// let mut store = KvDirectStore::new(KvDirectConfig::with_memory(1 << 20));
/// store.put(b"user:1", b"alice").unwrap();
/// assert_eq!(store.get(b"user:1").unwrap(), b"alice");
/// // Single-key atomics: fetch-and-add on a sequencer.
/// assert_eq!(store.fetch_add(b"seq", 1).unwrap(), 0);
/// assert_eq!(store.fetch_add(b"seq", 1).unwrap(), 1);
/// ```
pub struct KvDirectStore {
    proc: KvProcessor<DispatchedMemory>,
    /// Reused response of the point-op API (`get`, `put`, `fetch_add`,
    /// …): each runs through the core into it and copies out what its
    /// caller keeps.
    scratch: KvResponse,
}

impl KvDirectStore {
    /// Builds a store over the full simulated memory stack.
    ///
    /// When `cfg.fault_rates` is non-zero, a root fault plane seeded with
    /// `cfg.fault_seed` is forked into independent per-component streams:
    /// the memory engine (DRAM ECC events, host stalls) and the processor's
    /// DMA transaction path. A zero-rate config wires inert planes, leaving
    /// the store bit-identical to a fault-free build.
    pub fn new(cfg: KvDirectConfig) -> Self {
        let mut root = FaultPlane::new(cfg.fault_rates, cfg.fault_seed);
        let mut mem = DispatchedMemory::with_faults(
            cfg.total_memory,
            NicDramConfig {
                capacity: cfg.nic_dram_capacity,
                bandwidth: Bandwidth::from_gbytes_per_sec(NIC_DRAM_GBYTES_PER_SEC),
            },
            DispatchConfig::new(cfg.load_dispatch_ratio),
            root.fork(1),
        );
        if let Some(ac) = cfg.adaptive_cache.clone() {
            mem.set_adaptive(ac);
        }
        let table = HashTable::new(
            mem,
            HashTableConfig {
                total_memory: cfg.total_memory,
                hash_index_ratio: cfg.hash_index_ratio,
                inline_threshold: cfg.inline_threshold,
                extended_slabs: cfg.extended_slabs,
            },
        );
        let mut proc = KvProcessor::new(table, cfg.station, LambdaRegistry::with_builtins());
        proc.set_fault_plane(root.fork(2));
        proc.set_overload_config(cfg.overload.clone());
        KvDirectStore {
            proc,
            scratch: KvResponse::default(),
        }
    }

    /// The underlying processor (stats, preloading).
    pub fn processor(&self) -> &KvProcessor<DispatchedMemory> {
        &self.proc
    }

    /// Mutable processor access.
    pub fn processor_mut(&mut self) -> &mut KvProcessor<DispatchedMemory> {
        &mut self.proc
    }

    /// The store's full op-cost ledger: processor request mix and
    /// overload decisions, station occupancy, slab activity, memory
    /// traffic and every fault plane's injections, folded together.
    pub fn ledger(&self) -> OpLedger {
        let mut out = OpLedger::default();
        self.emit_costs(&mut out);
        out
    }

    /// The memory engine's ECC recovery state (corrected/uncorrectable
    /// counts and whether the DRAM-cache bypass breaker has tripped).
    pub fn ecc_stats(&self) -> kvd_mem::EccStats {
        *self.proc.table().mem().ecc()
    }

    /// Runs one request through the core into the pooled scratch
    /// response; `Ok` lends out the response's value.
    fn one(&mut self, req: KvRequestRef<'_>) -> Result<&[u8], StoreError> {
        self.proc.execute_one_into(req, &mut self.scratch);
        match self.scratch.status {
            Status::Ok => Ok(&self.scratch.value),
            s => Err(status_to_err(s)),
        }
    }

    /// `get(k) → v`.
    ///
    /// Conflates "not found" and device faults into `None`; use
    /// [`try_get`](Self::try_get) to distinguish them under fault
    /// injection.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.one(KvRequestRef::get(key)).ok().map(<[u8]>::to_vec)
    }

    /// `get(k)` that separates absence (`Ok(None)`) from device faults
    /// (`Err(DeviceError)`).
    pub fn try_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        match self.one(KvRequestRef::get(key)) {
            Ok(value) => Ok(Some(value.to_vec())),
            Err(StoreError::NotFound) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// `put(k, v) → bool` (inserts or replaces).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.put_ttl(key, value, 0)
    }

    /// `put(k, v)` with an absolute lifecycle stamp (expiry tick;
    /// 0 = never expires). An already-dead stamp still acknowledges the
    /// store but leaves the key observably absent.
    pub fn put_ttl(
        &mut self,
        key: &[u8],
        value: &[u8],
        expiry_tick: u32,
    ) -> Result<(), StoreError> {
        self.one(KvRequestRef::put_ttl(key, value, expiry_tick))
            .map(|_| ())
    }

    /// Rewrites `key`'s lifecycle stamp (memcache `touch`); returns
    /// whether the key was found live.
    pub fn touch(&mut self, key: &[u8], expiry_tick: u32) -> bool {
        self.proc.touch(key, expiry_tick)
    }

    /// `delete(k) → bool`.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        self.one(KvRequestRef::delete(key)).is_ok()
    }

    /// Atomic fetch-and-add (builtin λ), returning the original value.
    pub fn fetch_add(&mut self, key: &[u8], delta: u64) -> Result<u64, StoreError> {
        self.update_scalar(key, crate::lambda::builtin::ADD, delta)
    }

    /// Runs one λ operation of Table 1; `Ok` lends out the response.
    fn func(
        &mut self,
        op: OpCode,
        key: &[u8],
        value: &[u8],
        lambda: u16,
    ) -> Result<&[u8], StoreError> {
        self.one(KvRequestRef {
            op,
            key,
            value,
            lambda,
            deadline_us: 0,
            expiry_tick: 0,
        })
    }

    /// `update_scalar2scalar(k, Δ, λ) → v`.
    pub fn update_scalar(
        &mut self,
        key: &[u8],
        lambda: u16,
        param: u64,
    ) -> Result<u64, StoreError> {
        self.func(OpCode::UpdateScalar, key, &param.to_le_bytes(), lambda)
            .map(|v| decode_scalar(Some(v)))
    }

    /// `update_scalar2vector(k, Δ, λ) → [v]`: applies λ to every element,
    /// returning the original vector.
    pub fn vector_update(
        &mut self,
        key: &[u8],
        lambda: u16,
        param: u64,
    ) -> Result<Vec<u64>, StoreError> {
        self.func(
            OpCode::UpdateScalarToVector,
            key,
            &param.to_le_bytes(),
            lambda,
        )
        .map(decode_vector)
    }

    /// `update_vector2vector(k, [Δ], λ) → [v]`.
    pub fn vector_update_elementwise(
        &mut self,
        key: &[u8],
        lambda: u16,
        params: &[u64],
    ) -> Result<Vec<u64>, StoreError> {
        self.func(OpCode::UpdateVector, key, &encode_vector(params), lambda)
            .map(decode_vector)
    }

    /// `reduce(k, Σ, λ) → Σ`.
    pub fn vector_reduce(&mut self, key: &[u8], lambda: u16, init: u64) -> Result<u64, StoreError> {
        self.func(OpCode::Reduce, key, &init.to_le_bytes(), lambda)
            .map(|v| decode_scalar(Some(v)))
    }

    /// `filter(k, λ) → [v]`.
    pub fn vector_filter(&mut self, key: &[u8], lambda: u16) -> Result<Vec<u64>, StoreError> {
        self.func(OpCode::Filter, key, &[], lambda)
            .map(decode_vector)
    }

    /// Registers a λ ("compile before use").
    pub fn register_lambda(&mut self, id: u16, lambda: Lambda) {
        self.proc.registry_mut().register(id, lambda);
    }

    /// Executes a client-batched request packet, returning owned
    /// responses — the convenience form of [`run`](Self::run).
    pub fn execute_batch(&mut self, reqs: &[KvRequest]) -> Vec<KvResponse> {
        self.proc.execute_batch(reqs)
    }

    /// Executes one borrowed request into a caller-owned response,
    /// without staging allocations — [`run`](Self::run) over one request
    /// (see [`KvProcessor::execute_one_into`]).
    #[inline]
    pub fn execute_one_into(&mut self, req: KvRequestRef<'_>, resp: &mut KvResponse) {
        self.proc.execute_one_into(req, resp)
    }

    /// The execution core over any positional view of the caller's
    /// requests, answering `responses[i]` in place (see
    /// [`KvProcessor::run`]).
    pub fn run<R: RequestStream + ?Sized>(&mut self, requests: &R, responses: &mut [KvResponse]) {
        self.proc.run(requests, responses)
    }
}

impl CostSource for KvDirectStore {
    fn emit_costs(&self, out: &mut OpLedger) {
        self.proc.emit_costs(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambda::builtin;
    use kvd_mem::MemoryEngine;
    use kvd_model::{Effect, Model};

    fn store() -> KvDirectStore {
        KvDirectStore::new(KvDirectConfig::with_memory(1 << 20))
    }

    #[test]
    fn basic_crud() {
        let mut s = store();
        assert_eq!(s.get(b"missing"), None);
        s.put(b"k", b"v1").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v1");
        s.put(b"k", b"v2").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v2");
        assert!(s.delete(b"k"));
        assert!(!s.delete(b"k"));
        assert_eq!(s.get(b"k"), None);
    }

    #[test]
    fn sequencer_semantics() {
        // The paper's distributed-sequencer use case: atomics on one key.
        let mut s = store();
        for expect in 0..100u64 {
            assert_eq!(s.fetch_add(b"seq", 1).unwrap(), expect);
        }
        assert_eq!(
            decode_scalar(s.get(b"seq").as_deref()),
            100,
            "final value visible to plain GET"
        );
    }

    #[test]
    fn scalar_update_builtins() {
        let mut s = store();
        s.put(b"x", &10u64.to_le_bytes()).unwrap();
        assert_eq!(s.update_scalar(b"x", builtin::MAX, 99).unwrap(), 10);
        assert_eq!(s.update_scalar(b"x", builtin::MAX, 5).unwrap(), 99);
        assert_eq!(s.update_scalar(b"x", builtin::MIN, 50).unwrap(), 99);
        assert_eq!(s.update_scalar(b"x", builtin::XCHG, 7).unwrap(), 50);
        assert_eq!(decode_scalar(s.get(b"x").as_deref()), 7);
    }

    #[test]
    fn vector_operations_table1() {
        let mut s = store();
        let v: Vec<u64> = (1..=8).collect();
        s.put(b"vec", &encode_vector(&v)).unwrap();
        // update_scalar2vector returns the original vector.
        let orig = s.vector_update(b"vec", builtin::VADD, 10).unwrap();
        assert_eq!(orig, v);
        let now = decode_vector(&s.get(b"vec").unwrap());
        assert_eq!(now, (11..=18).collect::<Vec<u64>>());
        // reduce: sum with initial value.
        let sum = s.vector_reduce(b"vec", builtin::SUM, 100).unwrap();
        assert_eq!(sum, 100 + (11..=18).sum::<u64>());
        // elementwise vector2vector.
        let params: Vec<u64> = (0..8).collect();
        let orig = s
            .vector_update_elementwise(b"vec", builtin::VVADD, &params)
            .unwrap();
        assert_eq!(orig, (11..=18).collect::<Vec<u64>>());
        let now = decode_vector(&s.get(b"vec").unwrap());
        assert_eq!(now, vec![11, 13, 15, 17, 19, 21, 23, 25]);
        // filter non-zero.
        s.put(b"sparse", &encode_vector(&[0, 5, 0, 7, 0])).unwrap();
        assert_eq!(
            s.vector_filter(b"sparse", builtin::NONZERO).unwrap(),
            vec![5, 7]
        );
    }

    #[test]
    fn vector_update_on_missing_key_is_not_found() {
        let mut s = store();
        assert_eq!(
            s.vector_update(b"nope", builtin::VADD, 1),
            Err(StoreError::NotFound)
        );
        assert_eq!(
            s.vector_reduce(b"nope", builtin::SUM, 0),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn unregistered_lambda_rejected() {
        let mut s = store();
        s.put(b"x", &1u64.to_le_bytes()).unwrap();
        assert_eq!(s.update_scalar(b"x", 999, 1), Err(StoreError::Invalid));
        // Wrong λ type for the opcode is also invalid.
        assert_eq!(
            s.vector_update(b"x", builtin::ADD, 1),
            Err(StoreError::Invalid)
        );
    }

    #[test]
    fn custom_lambda_registration() {
        let mut s = store();
        s.register_lambda(
            200,
            Lambda::Scalar(std::sync::Arc::new(|old, p| old.rotate_left(p as u32))),
        );
        s.put(b"bits", &0x1u64.to_le_bytes()).unwrap();
        assert_eq!(s.update_scalar(b"bits", 200, 4).unwrap(), 1);
        assert_eq!(decode_scalar(s.get(b"bits").as_deref()), 16);
    }

    #[test]
    fn batch_execution_order_preserved() {
        let mut s = store();
        let reqs = vec![
            KvRequest::put(b"a", b"1"),
            KvRequest::get(b"a"),
            KvRequest::put(b"a", b"2"),
            KvRequest::get(b"a"),
            KvRequest::delete(b"a"),
            KvRequest::get(b"a"),
        ];
        let rs = s.execute_batch(&reqs);
        assert_eq!(rs[1].value, b"1", "GET sees preceding PUT in batch");
        assert_eq!(rs[3].value, b"2");
        assert_eq!(rs[4].status, Status::Ok);
        assert_eq!(rs[5].status, Status::NotFound);
    }

    #[test]
    fn zero_rate_faults_leave_store_bit_identical() {
        // A store built with an explicit zero-rate plane (and a non-zero
        // seed that must never be consumed) matches a plain store on every
        // observable: responses, processor stats, memory traffic.
        let mut plain = store();
        let mut zeroed = KvDirectStore::new(KvDirectConfig {
            fault_rates: FaultRates::ZERO,
            fault_seed: 0xDEAD_BEEF,
            ..KvDirectConfig::with_memory(1 << 20)
        });
        for i in 0..300u64 {
            let k = i.to_le_bytes();
            let v = (i * 3).to_le_bytes();
            assert_eq!(plain.put(&k, &v), zeroed.put(&k, &v));
            assert_eq!(
                plain.get(&(i / 2).to_le_bytes()),
                zeroed.get(&(i / 2).to_le_bytes())
            );
        }
        assert_eq!(plain.ledger(), zeroed.ledger());
        assert_eq!(
            plain.processor().table().mem().stats(),
            zeroed.processor().table().mem().stats()
        );
        assert_eq!(zeroed.ledger().total_faults(), 0);
        assert!(!zeroed.ecc_stats().bypassed);
    }

    #[test]
    fn total_fault_exhaustion_surfaces_device_error_without_state_change() {
        // Every DMA transaction fails: operations must report DeviceError
        // and leave the table untouched (no partial writes).
        let mut s = KvDirectStore::new(KvDirectConfig {
            fault_rates: FaultRates {
                pcie_corrupt: 1.0,
                ..FaultRates::ZERO
            },
            fault_seed: 7,
            ..KvDirectConfig::with_memory(1 << 20)
        });
        assert_eq!(s.put(b"k", b"v"), Err(StoreError::DeviceError));
        assert_eq!(s.processor().table().len(), 0, "failed PUT not applied");
        let l = s.ledger();
        assert_eq!(l.core.device_errors, 1);
        assert!(l.core.fault_retries > 0, "retries precede exhaustion");
        assert!(l.pcie.exhausted > 0);
    }

    #[test]
    fn faulty_store_agrees_with_model_on_ok_responses() {
        // Moderate fault rates: some ops may fail with DeviceError, but
        // every op that reports Ok must match the fault-free model, and
        // the store must never panic.
        let mut s = KvDirectStore::new(KvDirectConfig {
            fault_rates: FaultRates::uniform(0.05),
            fault_seed: 42,
            ..KvDirectConfig::with_memory(1 << 20)
        });
        let mut model = Model::default().tolerating(&[Status::DeviceError]);
        let mut resp = KvResponse::default();
        let mut oks = 0u64;
        for i in 0..500u64 {
            let (k, v) = ((i % 64).to_le_bytes(), i.to_le_bytes());
            let req = if i % 3 == 0 {
                KvRequestRef::put(&k, &v)
            } else {
                KvRequestRef::get(&k)
            };
            s.execute_one_into(req, &mut resp);
            match model.check(req, resp.status, &resp.value) {
                Ok(effect) => oks += u64::from(effect != Effect::Refused),
                Err(e) => panic!("op {i}: {e}"),
            }
        }
        assert!(oks > 400, "most ops should survive 5% rates: {oks}");
        assert!(s.ledger().total_faults() > 0, "faults did fire");
    }

    #[test]
    fn store_fault_schedule_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut s = KvDirectStore::new(KvDirectConfig {
                fault_rates: FaultRates::uniform(0.05),
                fault_seed: seed,
                ..KvDirectConfig::with_memory(1 << 20)
            });
            for i in 0..400u64 {
                let k = (i % 32).to_le_bytes();
                let _ = s.put(&k, &i.to_le_bytes());
                let _ = s.get(&k);
            }
            (s.ledger(), s.ecc_stats())
        };
        assert_eq!(run(11), run(11), "same seed, same everything");
        let (l11, _) = run(11);
        let (l12, _) = run(12);
        assert!(l11.total_faults() > 0);
        assert_ne!(l11, l12, "different seeds, different schedules");
    }

    #[test]
    fn the_ledger_carries_every_plane_counter() {
        // Every plane counts into its own ledger section and emits it
        // whole: after a seeded mix that reaches each of them (TTLs and
        // the reaper, faults, the adaptive cache, station queueing), the
        // store's ledger holds exactly the counters the planes report.
        let mut adaptive = AdaptiveCacheConfig::data_path(5);
        adaptive.epoch_accesses = 512;
        let mut s = KvDirectStore::new(KvDirectConfig {
            fault_rates: FaultRates::uniform(0.01),
            fault_seed: 3,
            adaptive_cache: Some(adaptive),
            ..KvDirectConfig::with_memory(1 << 20)
        });
        let mut rng = kvd_sim::DetRng::seed(0x1ED6);
        let mut responses = vec![KvResponse::default(); 40];
        for batch in 0..150u64 {
            let tick = (batch / 4) as u32;
            let requests: Vec<KvRequest> = (0..40)
                .map(|_| {
                    // A hot set repeats within a batch (the station chains
                    // it); the cold keys outgrow the NIC DRAM (fills evict).
                    let key = if rng.chance(0.4) {
                        rng.u64_below(16)
                    } else {
                        rng.u64_below(4_000)
                    }
                    .to_le_bytes();
                    match rng.u64_below(10) {
                        0..=3 => KvRequest::get(&key),
                        4..=7 => {
                            let mut value = vec![0u8; 1 + rng.usize_below(200)];
                            rng.fill_bytes(&mut value);
                            let expiry_tick = if rng.chance(0.5) { tick + 2 } else { 0 };
                            KvRequest {
                                expiry_tick,
                                ..KvRequest::put(&key, &value)
                            }
                        }
                        _ => KvRequest::delete(&key),
                    }
                })
                .collect();
            s.run(requests.as_slice(), &mut responses);
            s.touch(&(batch % 24).to_le_bytes(), tick + 3);
            s.processor_mut()
                .set_now(kvd_sim::SimTime::from_us(batch * 250));
            s.processor_mut().sweep_expired(4);
        }
        let l = s.ledger();
        let p = s.processor();
        assert_eq!(l.station, p.station_stats());
        assert_eq!(l.slab, p.table().allocator().stats());
        assert_eq!(l.expiry, p.expiry_stats());
        // The core counts the hot-key sheds; the memory counts the rest.
        let cache = kvd_sim::CacheCosts {
            hot_key_sheds: l.cache.hot_key_sheds,
            ..p.table().mem().cache_stats()
        };
        assert_eq!(l.cache, cache);
        // The mix reached every plane it checks.
        assert!(l.station.forwarded > 0 && l.station.queued > 0 && l.station.high_water > 1);
        assert!(l.slab.allocs > 0 && l.slab.frees > 0);
        assert!(l.expiry.ttl_puts > 0 && l.expiry.touches > 0 && l.expiry.sweep_passes > 0);
        assert!(l.expiry.lazy_expired > 0 && l.expiry.reaped_entries > 0);
        assert!(l.cache.sketch_samples > 0 && l.cache.evict_dirty > 0);
        assert!(l.cache.retune_steps > 0 && l.cache.rejected_fills > 0);
        assert!(l.total_faults() > 0);
    }

    #[test]
    fn external_pressure_sheds_and_recovers_with_hysteresis() {
        let mut s = KvDirectStore::new(KvDirectConfig {
            overload: crate::overload::OverloadConfig::enabled(),
            ..KvDirectConfig::with_memory(1 << 20)
        });
        s.put(b"k", b"v").expect("idle store admits");
        // Pressure above the high watermark: everything sheds.
        s.processor_mut().set_external_pressure(0.9);
        assert_eq!(s.put(b"k", b"v2"), Err(StoreError::Overloaded));
        assert_eq!(s.try_get(b"k"), Err(StoreError::Overloaded));
        // Between the watermarks: hysteresis keeps shedding.
        s.processor_mut().set_external_pressure(0.7);
        assert_eq!(s.put(b"k", b"v2"), Err(StoreError::Overloaded));
        // Below the low watermark: admitted again, value unchanged by the
        // shed attempts.
        s.processor_mut().set_external_pressure(0.3);
        assert_eq!(s.get(b"k").unwrap(), b"v");
        let c = s.ledger().core;
        assert_eq!(c.shed_overload, 3);
        assert_eq!(c.shed_transitions, 2, "one flip in, one out");
        assert!(c.admitted >= 2);
    }

    #[test]
    fn hot_key_shedding_spares_the_spread_traffic() {
        let mut s = KvDirectStore::new(KvDirectConfig {
            overload: crate::overload::OverloadConfig::hot_key_aware(),
            ..KvDirectConfig::with_memory(1 << 20)
        });
        // Warm the rollup with an adversarial mix: one celebrity key is
        // half the traffic, the rest spreads over 64 keys.
        for i in 0..512u64 {
            let spread = (i % 64).to_le_bytes();
            s.put(b"celebrity", b"v").unwrap();
            s.put(&spread, b"v").unwrap();
        }
        // Overloaded but below severe: only the celebrity sheds.
        s.processor_mut().set_external_pressure(0.9);
        assert_eq!(s.try_get(b"celebrity"), Err(StoreError::Overloaded));
        for i in 0..64u64 {
            let spread = i.to_le_bytes();
            assert!(s.try_get(&spread).is_ok(), "spread key {i} was shed");
        }
        let sheds = s.processor().ledger().cache.hot_key_sheds;
        assert!(sheds >= 1, "celebrity shed must be attributed");
        assert_eq!(s.ledger().core.shed_overload, sheds);
        // At severe pressure the carve-out vanishes: everything sheds,
        // and those sheds are NOT attributed to the hot-key defense.
        s.processor_mut().set_external_pressure(0.97);
        assert_eq!(s.try_get(&0u64.to_le_bytes()), Err(StoreError::Overloaded));
        assert_eq!(s.processor().ledger().cache.hot_key_sheds, sheds);
        // Below the low watermark everything — celebrity included — is
        // admitted again.
        s.processor_mut().set_external_pressure(0.3);
        assert!(s.try_get(b"celebrity").is_ok());
    }

    #[test]
    fn expired_requests_dropped_without_effect() {
        // Deadline expiry is always on — it needs no admission config.
        let mut s = store();
        s.processor_mut().set_now(kvd_sim::SimTime::from_us(100));
        let rs = s.execute_batch(&[
            KvRequest::put(b"stale", b"v").with_deadline(50),
            KvRequest::put(b"fresh", b"v").with_deadline(200),
            KvRequest::put(b"untimed", b"v"),
        ]);
        assert_eq!(rs[0].status, Status::Expired);
        assert_eq!(rs[1].status, Status::Ok);
        assert_eq!(rs[2].status, Status::Ok);
        assert_eq!(s.get(b"stale"), None, "expired PUT left no trace");
        assert_eq!(s.ledger().core.shed_expired, 1);
    }

    #[test]
    fn read_only_mode_enters_on_oom_and_exits_after_drain() {
        let mut s = KvDirectStore::new(KvDirectConfig {
            overload: crate::overload::OverloadConfig {
                admission: None,
                read_only_on_oom: true,
                read_only_exit_utilization: 0.15,
                ..Default::default()
            },
            ..KvDirectConfig::with_memory(1 << 20)
        });
        // Fill until the slabs run dry. The filling write itself reports
        // OutOfMemory; the mode flips for everything after it.
        let mut inserted: Vec<u64> = Vec::new();
        let mut i = 0u64;
        loop {
            match s.put(&i.to_le_bytes(), &[0xAB; 200]) {
                Ok(()) => inserted.push(i),
                Err(StoreError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            i += 1;
        }
        let c = s.ledger().core;
        assert_eq!((c.read_only_entries, c.read_only_exits), (1, 0));
        // Writes shed, reads flow: degraded, not dead.
        assert_eq!(
            s.put(b"more", &[0xCD; 200]),
            Err(StoreError::Overloaded),
            "read-only mode sheds allocating writes"
        );
        assert_eq!(s.get(&inserted[0].to_le_bytes()).unwrap(), [0xAB; 200]);
        // Deletes are admitted — they are the way out. Drain below the
        // exit watermark and the next write is admitted again.
        for k in &inserted {
            if s.processor().table().memory_utilization() < 0.12 {
                break;
            }
            assert!(s.delete(&k.to_le_bytes()));
        }
        s.put(b"after", b"v")
            .expect("recovered store admits writes");
        let c = s.ledger().core;
        assert_eq!(c.read_only_entries, 1);
        assert_eq!(c.read_only_exits, 1);
        assert!(c.shed_read_only >= 1);
    }

    #[test]
    fn disabled_overload_plane_is_inert() {
        // An enabled-but-idle plane (zero pressure, no deadlines, no OOM)
        // must not disturb any response; the default plane keeps OOM
        // semantics exactly as the seed: every failing write reports
        // OutOfMemory, never Overloaded.
        let mut plain = store();
        let mut enabled = KvDirectStore::new(KvDirectConfig {
            overload: crate::overload::OverloadConfig::enabled(),
            ..KvDirectConfig::with_memory(1 << 20)
        });
        for i in 0..300u64 {
            let k = i.to_le_bytes();
            assert_eq!(plain.put(&k, &k), enabled.put(&k, &k));
            assert_eq!(plain.get(&k), enabled.get(&k));
        }
        let c = enabled.ledger().core;
        assert_eq!(plain.ledger().core, c);
        assert_eq!(
            (c.shed_overload, c.shed_expired, c.shed_read_only),
            (0, 0, 0)
        );
        assert_eq!(c.admitted, 600);
    }
}
