//! The functional reservation station.
//!
//! `kvd-core` drives this engine for every operation: the station decides
//! whether an operation can be served from the forwarding cache (fast
//! path), must be issued to the main pipeline (a real hash-table access),
//! or must queue behind a dependent in-flight operation. Completions
//! drain dependency chains with data forwarding.
//!
//! Dependencies are tracked by key *hash* (1024 slots in the paper's
//! BRAM), so false-positive dependencies exist but none are missed —
//! matching §3.3.3 exactly.

use std::collections::VecDeque;
use std::sync::Arc;

use kvd_sim::{CostSource, OpLedger};

/// The transform of an atomic update: old value → new value.
///
/// In the paper these are user-defined λ functions pre-registered and
/// compiled to hardware; here they are Rust closures registered with the
/// store.
pub type UpdateFn = Arc<dyn Fn(Option<&[u8]>) -> Option<Vec<u8>> + Send + Sync>;

/// What a station-managed operation does to its key.
#[derive(Clone)]
pub enum KvOpKind {
    /// Read the value.
    Get,
    /// Insert or replace the value.
    Put(Vec<u8>),
    /// Remove the key.
    Delete,
    /// Atomic read-modify-write; returns the original value.
    Update(UpdateFn),
}

impl std::fmt::Debug for KvOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvOpKind::Get => write!(f, "Get"),
            KvOpKind::Put(v) => write!(f, "Put({} bytes)", v.len()),
            KvOpKind::Delete => write!(f, "Delete"),
            KvOpKind::Update(_) => write!(f, "Update(λ)"),
        }
    }
}

/// An operation tracked by the station.
#[derive(Debug, Clone)]
pub struct StationOp {
    /// Caller-assigned identifier, echoed in results.
    pub id: u64,
    /// The key.
    pub key: Vec<u8>,
    /// The operation kind.
    pub kind: KvOpKind,
}

/// Result of an operation executed (fast path or chain drain) by the
/// station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// The operation's id.
    pub id: u64,
    /// GET: the value (`None` = miss). PUT/DELETE: the previous value.
    /// UPDATE: the original value (paper semantics).
    pub value: Option<Vec<u8>>,
}

/// A deferred write the caller must apply to the hash table: the key and
/// its final cached value (`None` = the key was deleted through the
/// cache).
pub type Writeback = (Vec<u8>, Option<Vec<u8>>);

/// Outcome of [`ReservationStation::admit`].
#[derive(Debug)]
pub enum Admission {
    /// Served from the forwarding cache in one cycle; no memory access.
    Fast(OpResult),
    /// The caller must execute this operation against the hash table and
    /// then call [`ReservationStation::complete`]. If `writeback` is
    /// present, apply it first (dirty cache eviction).
    Issue {
        /// The operation to execute.
        op: StationOp,
        /// Dirty eviction to apply before (or with) the issue.
        writeback: Option<Writeback>,
    },
    /// Queued behind a dependent operation; results arrive via
    /// [`ReservationStation::complete`].
    Queued,
    /// The station is at capacity (the paper sizes it at 256 in-flight
    /// operations); the operation is handed back — retry after a
    /// completion.
    Full(StationOp),
}

/// Outcome of [`ReservationStation::complete`].
#[derive(Debug, Default)]
pub struct Completion {
    /// Results of chained operations executed by data forwarding.
    pub results: Vec<OpResult>,
    /// The next dependent (hash-colliding, different-key) operation to
    /// issue to the pipeline, if the chain head needs memory.
    pub issue: Option<StationOp>,
    /// Dirty eviction to apply before the issue.
    pub writeback: Option<Writeback>,
}

/// Configuration of the reservation station.
#[derive(Debug, Clone, Copy)]
pub struct StationConfig {
    /// Hash slots (paper: 1024, for <25% collision probability at 256
    /// in-flight ops).
    pub hash_slots: usize,
    /// Maximum queued + in-flight operations (paper: 256).
    pub capacity: usize,
}

impl Default for StationConfig {
    fn default() -> Self {
        StationConfig {
            hash_slots: 1024,
            capacity: 256,
        }
    }
}

#[derive(Debug, Clone)]
struct Cached {
    key: Vec<u8>,
    /// `None` means the key is (now) absent.
    value: Option<Vec<u8>>,
    dirty: bool,
}

#[derive(Default)]
struct Slot {
    busy: bool,
    pending: VecDeque<StationOp>,
    cache: Option<Cached>,
}

/// Counters exposed for the evaluation (merge rate, write-backs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StationStats {
    /// Operations served by the fast path or chain forwarding (the
    /// paper's "merged" operations — up to 15% under long-tail).
    pub forwarded: u64,
    /// Operations issued to the main pipeline.
    pub issued: u64,
    /// Operations that had to queue.
    pub queued: u64,
    /// Dirty-cache write-backs emitted.
    pub writebacks: u64,
    /// Admissions rejected for capacity.
    pub rejected: u64,
    /// Busy slots reclaimed because the issued operation failed (e.g. a
    /// DMA tag timed out and the retry budget ran out).
    pub reclaimed: u64,
    /// Peak operations tracked at once — how close the run came to the
    /// station's capacity envelope.
    pub high_water: u64,
}

/// The reservation station (paper Figure 4, §3.3.3).
///
/// # Examples
///
/// ```
/// use kvd_ooo::{Admission, KvOpKind, ReservationStation, StationConfig, StationOp};
///
/// let mut rs = ReservationStation::new(StationConfig::default());
/// let op = StationOp { id: 1, key: b"k".to_vec(), kind: KvOpKind::Get };
/// // Nothing cached: the op must go to memory.
/// let issued = match rs.admit(op) {
///     Admission::Issue { op, .. } => op,
///     _ => panic!("expected issue"),
/// };
/// // Memory returned the value; completion installs the forwarding cache.
/// rs.complete(&issued.key, Some(b"v".to_vec()));
/// // A second GET on the same key is served without memory access.
/// let op2 = StationOp { id: 2, key: b"k".to_vec(), kind: KvOpKind::Get };
/// match rs.admit(op2) {
///     Admission::Fast(r) => assert_eq!(r.value.unwrap(), b"v"),
///     _ => panic!("expected fast path"),
/// }
/// ```
pub struct ReservationStation {
    cfg: StationConfig,
    slots: Vec<Slot>,
    total_tracked: usize,
    stats: StationStats,
    /// One bit per hash slot: set iff the slot holds a dirty cache, so
    /// [`flush`] scans words instead of every slot.
    ///
    /// [`flush`]: ReservationStation::flush
    dirty_bits: Vec<u64>,
    /// Retired key/value buffers, recycled instead of reallocated. Keys
    /// of fast-path ops, evicted clean caches, and buffers the caller
    /// hands back via [`give`] all land here; [`recycle`] and the
    /// station's own copies drain it.
    ///
    /// [`give`]: ReservationStation::give
    /// [`recycle`]: ReservationStation::recycle
    spare: Vec<Vec<u8>>,
    spare_cap: usize,
    /// Retired [`Completion::results`] vectors, recycled the same way.
    spare_results: Vec<Vec<OpResult>>,
    /// The retired [`flush`] vector (one flush is outstanding at a time).
    ///
    /// [`flush`]: ReservationStation::flush
    spare_writebacks: Vec<Writeback>,
}

impl ReservationStation {
    /// Creates an empty station.
    pub fn new(cfg: StationConfig) -> Self {
        assert!(cfg.hash_slots > 0 && cfg.capacity > 0);
        let mut slots = Vec::with_capacity(cfg.hash_slots);
        slots.resize_with(cfg.hash_slots, Slot::default);
        ReservationStation {
            cfg,
            slots,
            total_tracked: 0,
            stats: StationStats::default(),
            dirty_bits: vec![0; cfg.hash_slots.div_ceil(64)],
            spare: Vec::new(),
            // Enough for every slot's cache plus the in-flight envelope;
            // beyond that, buffers are dropped rather than hoarded.
            spare_cap: cfg.hash_slots + 4 * cfg.capacity,
            spare_results: Vec::new(),
            spare_writebacks: Vec::new(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> StationStats {
        self.stats
    }

    /// Hands out a retired buffer for reuse (cleared), if one is pooled.
    /// Callers build op keys/values into these instead of allocating.
    pub fn recycle(&mut self) -> Option<Vec<u8>> {
        self.spare.pop().map(|mut b| {
            b.clear();
            b
        })
    }

    /// Returns a buffer to the pool (e.g. an [`OpResult`] value or an
    /// applied [`Writeback`] the caller is done with).
    pub fn give(&mut self, buf: Vec<u8>) {
        give_to(&mut self.spare, self.spare_cap, buf);
    }

    /// Returns a drained [`Completion::results`] vector to the pool, so
    /// the next chain drain pushes into recycled capacity.
    pub fn give_results(&mut self, mut v: Vec<OpResult>) {
        if v.capacity() > 0 && self.spare_results.len() < 64 {
            v.clear();
            self.spare_results.push(v);
        }
    }

    /// Returns a drained [`flush`] vector, so the next flush pushes into
    /// its capacity — the per-op engine path flushes after every write.
    ///
    /// [`flush`]: ReservationStation::flush
    pub fn give_writebacks(&mut self, mut v: Vec<Writeback>) {
        v.clear();
        self.spare_writebacks = v;
    }

    /// Operations currently tracked (busy + queued).
    pub fn tracked(&self) -> usize {
        self.total_tracked
    }

    /// Occupancy relative to the station's operation capacity: 0 when
    /// idle, 1 when every slot of the paper's 256-op envelope is spoken
    /// for. This is the backpressure signal the admission layer watches.
    pub fn occupancy(&self) -> f64 {
        self.total_tracked as f64 / self.cfg.capacity as f64
    }

    fn note_tracked(&mut self) {
        self.total_tracked += 1;
        self.stats.high_water = self.stats.high_water.max(self.total_tracked as u64);
    }

    fn slot_index(&self, key: &[u8]) -> usize {
        (kvd_station_hash(key) % self.cfg.hash_slots as u64) as usize
    }

    /// Applies an op to a cached value, returning the op's result and the
    /// new cache value + dirtiness. Consumes the op: its key buffer is
    /// pooled, and a PUT's value moves into the cache without a copy.
    fn execute_on_cache(
        op: StationOp,
        cached: &mut Cached,
        spare: &mut Vec<Vec<u8>>,
        spare_cap: usize,
    ) -> OpResultValue {
        let StationOp { id, key, kind } = op;
        give_to(spare, spare_cap, key);
        let (value, dirtied) = match kind {
            KvOpKind::Get => (clone_pooled(spare, cached.value.as_deref()), false),
            KvOpKind::Put(v) => (cached.value.replace(v), true),
            KvOpKind::Delete => (cached.value.take(), true),
            KvOpKind::Update(f) => {
                let old = cached.value.take();
                cached.value = f(old.as_deref());
                (old, true)
            }
        };
        OpResultValue {
            result: OpResult { id, value },
            dirtied,
        }
    }

    fn set_dirty(bits: &mut [u64], idx: usize) {
        bits[idx / 64] |= 1 << (idx % 64);
    }

    fn clear_dirty(bits: &mut [u64], idx: usize) {
        bits[idx / 64] &= !(1 << (idx % 64));
    }

    /// Admits one operation.
    pub fn admit(&mut self, op: StationOp) -> Admission {
        let idx = self.slot_index(&op.key);
        if self.slots[idx].busy || !self.slots[idx].pending.is_empty() {
            if self.total_tracked >= self.cfg.capacity {
                self.stats.rejected += 1;
                return Admission::Full(op);
            }
            self.stats.queued += 1;
            self.note_tracked();
            self.slots[idx].pending.push_back(op);
            return Admission::Queued;
        }
        let slot = &mut self.slots[idx];
        if let Some(cached) = &mut slot.cache {
            if cached.key == op.key {
                let r = Self::execute_on_cache(op, cached, &mut self.spare, self.spare_cap);
                if r.dirtied && !cached.dirty {
                    cached.dirty = true;
                    Self::set_dirty(&mut self.dirty_bits, idx);
                }
                self.stats.forwarded += 1;
                return Admission::Fast(r.result);
            }
        }
        // Different key (or cold slot): evict any dirty cache and issue.
        let writeback = Self::take_writeback(
            slot,
            &mut self.stats,
            &mut self.dirty_bits,
            idx,
            &mut self.spare,
            self.spare_cap,
        );
        slot.busy = true;
        self.note_tracked();
        self.stats.issued += 1;
        Admission::Issue { op, writeback }
    }

    fn take_writeback(
        slot: &mut Slot,
        stats: &mut StationStats,
        dirty_bits: &mut [u64],
        idx: usize,
        spare: &mut Vec<Vec<u8>>,
        spare_cap: usize,
    ) -> Option<Writeback> {
        Self::clear_dirty(dirty_bits, idx);
        match slot.cache.take() {
            Some(c) if c.dirty => {
                stats.writebacks += 1;
                Some((c.key, c.value))
            }
            Some(c) => {
                // Clean eviction: the buffers are dead — pool them.
                give_to(spare, spare_cap, c.key);
                if let Some(v) = c.value {
                    give_to(spare, spare_cap, v);
                }
                None
            }
            None => None,
        }
    }

    /// Reports the completion of an issued operation: `cache_value` is the
    /// key's value after the operation (loaded for GET, written for
    /// PUT/UPDATE, `None` for DELETE or a miss). Drains the dependency
    /// chain with data forwarding.
    pub fn complete(&mut self, key: &[u8], cache_value: Option<Vec<u8>>) -> Completion {
        let idx = self.slot_index(key);
        let mut kbuf = self.spare.pop().unwrap_or_default();
        kbuf.clear();
        kbuf.extend_from_slice(key);
        let slot = &mut self.slots[idx];
        assert!(slot.busy, "completion for a non-busy slot");
        slot.busy = false;
        self.total_tracked -= 1;
        slot.cache = Some(Cached {
            key: kbuf,
            value: cache_value,
            dirty: false,
        });
        let mut out = Completion {
            results: self.spare_results.pop().unwrap_or_default(),
            ..Completion::default()
        };
        // Examine the chain sequentially (paper: "Pending operations in
        // the same hash slot are checked one by one").
        while let Some(front) = slot.pending.front() {
            let cached = slot.cache.as_mut().expect("installed above");
            if front.key == cached.key {
                let op = slot.pending.pop_front().expect("front checked");
                let r = Self::execute_on_cache(op, cached, &mut self.spare, self.spare_cap);
                if r.dirtied && !cached.dirty {
                    cached.dirty = true;
                    Self::set_dirty(&mut self.dirty_bits, idx);
                }
                self.total_tracked -= 1;
                self.stats.forwarded += 1;
                out.results.push(r.result);
            } else {
                // Hash-colliding different key: evict and issue it.
                let op = slot.pending.pop_front().expect("front checked");
                out.writeback = Self::take_writeback(
                    slot,
                    &mut self.stats,
                    &mut self.dirty_bits,
                    idx,
                    &mut self.spare,
                    self.spare_cap,
                );
                slot.busy = true;
                // Tracked count unchanged: it moves from queued to busy.
                self.stats.issued += 1;
                out.issue = Some(op);
                return out;
            }
        }
        out
    }

    /// Reclaims a busy slot whose issued operation *failed* (the memory
    /// access never produced a value — a DMA tag timed out, the retry
    /// budget ran out). Unlike [`complete`], no forwarding cache is
    /// installed: the failed operation observed nothing, so nothing may be
    /// forwarded to dependents. The next pending operation in the slot is
    /// re-issued to the pipeline so the dependency chain keeps draining
    /// instead of wedging behind the dead tag.
    ///
    /// The failed operation must not have modified the hash table (the
    /// processor fails transactions atomically), so any state the caller
    /// has is still consistent.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not busy.
    ///
    /// [`complete`]: ReservationStation::complete
    pub fn reclaim(&mut self, key: &[u8]) -> Completion {
        let idx = self.slot_index(key);
        let slot = &mut self.slots[idx];
        assert!(slot.busy, "reclaim for a non-busy slot");
        slot.busy = false;
        self.total_tracked -= 1;
        self.stats.reclaimed += 1;
        let mut out = Completion::default();
        if let Some(op) = slot.pending.pop_front() {
            // No value to forward: the next dependent must reach memory
            // itself, whatever its key.
            out.writeback = Self::take_writeback(
                slot,
                &mut self.stats,
                &mut self.dirty_bits,
                idx,
                &mut self.spare,
                self.spare_cap,
            );
            slot.busy = true;
            // Tracked count unchanged: it moves from queued to busy.
            self.stats.issued += 1;
            out.issue = Some(op);
        }
        out
    }

    /// Flushes every dirty cached value, returning the write-backs the
    /// caller must apply. Clean caches are kept for future forwarding.
    ///
    /// Scans the dirty bitset — 64 slots per word — instead of every
    /// slot, still emitting write-backs in slot-index order.
    pub fn flush(&mut self) -> Vec<Writeback> {
        let mut out = std::mem::take(&mut self.spare_writebacks);
        for w in 0..self.dirty_bits.len() {
            let mut bits = self.dirty_bits[w];
            self.dirty_bits[w] = 0;
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let c = self.slots[idx]
                    .cache
                    .as_mut()
                    .expect("dirty bit implies a cached entry");
                debug_assert!(c.dirty, "dirty bit implies a dirty cache");
                c.dirty = false;
                self.stats.writebacks += 1;
                let key = clone_pooled(&mut self.spare, Some(&c.key)).expect("key present");
                let value = clone_pooled(&mut self.spare, c.value.as_deref());
                out.push((key, value));
            }
        }
        out
    }

    /// Drops every **clean** forwarding cache, pooling its buffers.
    ///
    /// The caches hold values, not lifecycle stamps, so a TTL-aware
    /// embedder must invalidate them whenever its expiry clock advances —
    /// otherwise a value could keep being forwarded after its stamp died
    /// in the table. Dirty caches are left alone: they only exist
    /// mid-batch (every batch ends in a flush) and the embedder advances
    /// the clock between batches, so in practice this sees clean entries
    /// only. The debug assertion pins that contract.
    pub fn drop_clean_caches(&mut self) {
        for slot in &mut self.slots {
            let Some(c) = &slot.cache else { continue };
            debug_assert!(
                !c.dirty,
                "clock advanced with a dirty cache outstanding — flush first"
            );
            if c.dirty {
                continue;
            }
            let Cached { key, value, .. } = slot.cache.take().expect("checked above");
            give_to(&mut self.spare, self.spare_cap, key);
            if let Some(v) = value {
                give_to(&mut self.spare, self.spare_cap, v);
            }
        }
    }

    /// True if no operation is busy or queued anywhere.
    pub fn idle(&self) -> bool {
        self.total_tracked == 0
    }
}

struct OpResultValue {
    result: OpResult,
    dirtied: bool,
}

/// Pools `buf` unless the pool is at capacity or the buffer never
/// allocated (zero capacity — pooling it would gain nothing).
fn give_to(spare: &mut Vec<Vec<u8>>, cap: usize, buf: Vec<u8>) {
    if buf.capacity() > 0 && spare.len() < cap {
        spare.push(buf);
    }
}

/// Copies `src` into a pooled buffer (or a fresh one if the pool is dry).
fn clone_pooled(spare: &mut Vec<Vec<u8>>, src: Option<&[u8]>) -> Option<Vec<u8>> {
    src.map(|s| {
        let mut b = spare.pop().unwrap_or_default();
        b.clear();
        b.extend_from_slice(s);
        b
    })
}

/// The station's key hash (a distinct stream from the table's hashes).
fn kvd_station_hash(key: &[u8]) -> u64 {
    // FNV-1a + finisher, seeded differently from the hash index.
    const SEED: u64 = 0x5151_5151_5151_5151;
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl CostSource for ReservationStation {
    fn emit_costs(&self, out: &mut OpLedger) {
        let s = &self.stats;
        out.station.forwarded += s.forwarded;
        out.station.issued += s.issued;
        out.station.queued += s.queued;
        out.station.writebacks += s.writebacks;
        out.station.rejected += s.rejected;
        out.station.reclaimed += s.reclaimed;
        out.station.high_water = out.station.high_water.max(s.high_water);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(id: u64, key: &[u8]) -> StationOp {
        StationOp {
            id,
            key: key.to_vec(),
            kind: KvOpKind::Get,
        }
    }

    fn put(id: u64, key: &[u8], v: &[u8]) -> StationOp {
        StationOp {
            id,
            key: key.to_vec(),
            kind: KvOpKind::Put(v.to_vec()),
        }
    }

    fn incr(id: u64, key: &[u8]) -> StationOp {
        StationOp {
            id,
            key: key.to_vec(),
            kind: KvOpKind::Update(Arc::new(|old| {
                let v = old
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte counter")))
                    .unwrap_or(0);
                Some((v + 1).to_le_bytes().to_vec())
            })),
        }
    }

    #[test]
    fn occupancy_and_high_water_track_capacity() {
        let mut rs = ReservationStation::new(StationConfig {
            hash_slots: 64,
            capacity: 4,
        });
        assert_eq!(rs.occupancy(), 0.0);
        // Same key: one issue + three queued = 4 tracked, full station.
        assert!(matches!(rs.admit(get(1, b"k")), Admission::Issue { .. }));
        for id in 2..5 {
            assert!(matches!(rs.admit(get(id, b"k")), Admission::Queued));
        }
        assert_eq!(rs.occupancy(), 1.0);
        assert!(matches!(rs.admit(get(5, b"k")), Admission::Full(_)));
        // Draining the chain empties the station but the peak sticks.
        let c = rs.complete(b"k", Some(b"v".to_vec()));
        assert_eq!(c.results.len(), 3);
        assert_eq!(rs.occupancy(), 0.0);
        assert_eq!(rs.stats().high_water, 4);
    }

    #[test]
    fn cold_get_issues_then_caches() {
        let mut rs = ReservationStation::new(StationConfig::default());
        let a = rs.admit(get(1, b"k"));
        assert!(matches!(a, Admission::Issue { .. }));
        let c = rs.complete(b"k", Some(b"v1".to_vec()));
        assert!(c.results.is_empty() && c.issue.is_none());
        match rs.admit(get(2, b"k")) {
            Admission::Fast(r) => assert_eq!(r.value.unwrap(), b"v1"),
            a => panic!("expected fast path, got {a:?}"),
        }
        assert_eq!(rs.stats().forwarded, 1);
    }

    #[test]
    fn dependent_ops_queue_and_forward() {
        let mut rs = ReservationStation::new(StationConfig::default());
        assert!(matches!(rs.admit(get(1, b"k")), Admission::Issue { .. }));
        assert!(matches!(rs.admit(put(2, b"k", b"new")), Admission::Queued));
        assert!(matches!(rs.admit(get(3, b"k")), Admission::Queued));
        let c = rs.complete(b"k", Some(b"old".to_vec()));
        assert_eq!(c.results.len(), 2);
        // PUT returns the previous value; the following GET sees the PUT.
        assert_eq!(
            c.results[0],
            OpResult {
                id: 2,
                value: Some(b"old".to_vec())
            }
        );
        assert_eq!(
            c.results[1],
            OpResult {
                id: 3,
                value: Some(b"new".to_vec())
            }
        );
        assert!(c.issue.is_none());
        assert!(rs.idle());
        // The dirtied cache flushes as a write-back PUT.
        let wb = rs.flush();
        assert_eq!(wb, vec![(b"k".to_vec(), Some(b"new".to_vec()))]);
    }

    #[test]
    fn single_key_atomics_forward_one_memory_op() {
        let mut rs = ReservationStation::new(StationConfig::default());
        let n = 100u64;
        let mut issued = 0;
        let mut results = Vec::new();
        for i in 0..n {
            match rs.admit(incr(i, b"ctr")) {
                Admission::Issue { op, .. } => {
                    issued += 1;
                    // Simulate memory: counter was absent; op creates 1.
                    assert_eq!(op.id, 0);
                    let c = rs.complete(b"ctr", Some(1u64.to_le_bytes().to_vec()));
                    results.extend(c.results);
                }
                Admission::Fast(r) => results.push(r),
                a => panic!("unexpected {a:?}"),
            }
        }
        assert_eq!(issued, 1, "only the first atomic touches memory");
        // Original-value semantics: op i observes counter == i.
        // (op 0's own result is produced by the caller, so results are 1..n)
        assert_eq!(results.len() as u64, n - 1);
        for r in &results {
            let v = u64::from_le_bytes(r.value.clone().unwrap().try_into().unwrap());
            assert_eq!(v, r.id, "op {} saw {v}", r.id);
        }
        let wb = rs.flush();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].1, Some(n.to_le_bytes().to_vec()));
    }

    #[test]
    fn hash_collisions_are_conservative_dependencies() {
        // Find two different keys in the same station slot.
        let cfg = StationConfig {
            hash_slots: 4,
            capacity: 64,
        };
        let mut rs = ReservationStation::new(cfg);
        let base_slot = {
            let mut t = ReservationStation::new(cfg);
            match t.admit(get(0, b"a")) {
                Admission::Issue { .. } => {}
                _ => unreachable!(),
            }
            t.slot_index(b"a")
        };
        let mut collider = None;
        for i in 0u32..1000 {
            let k = format!("x{i}");
            if rs.slot_index(k.as_bytes()) == base_slot && k != "a" {
                collider = Some(k);
                break;
            }
        }
        let collider = collider.expect("4 slots guarantee a collider");
        assert!(matches!(rs.admit(get(1, b"a")), Admission::Issue { .. }));
        // Different key, same slot: must queue (false-positive dep).
        assert!(matches!(
            rs.admit(get(2, collider.as_bytes())),
            Admission::Queued
        ));
        // Completion of "a" must re-issue the collider, not forward it.
        let c = rs.complete(b"a", Some(b"va".to_vec()));
        assert!(c.results.is_empty());
        let issued = c.issue.expect("collider must be issued");
        assert_eq!(issued.key, collider.as_bytes());
        let c2 = rs.complete(collider.as_bytes(), None);
        assert!(c2.results.is_empty() && c2.issue.is_none());
        assert!(rs.idle());
    }

    #[test]
    fn capacity_backpressure() {
        let mut rs = ReservationStation::new(StationConfig {
            hash_slots: 8,
            capacity: 4,
        });
        assert!(matches!(rs.admit(get(0, b"k")), Admission::Issue { .. }));
        for i in 1..4 {
            assert!(matches!(rs.admit(get(i, b"k")), Admission::Queued));
        }
        assert!(matches!(rs.admit(get(4, b"k")), Admission::Full(_)));
        assert_eq!(rs.stats().rejected, 1);
        // Draining frees capacity.
        let c = rs.complete(b"k", None);
        assert_eq!(c.results.len(), 3);
        assert!(matches!(rs.admit(get(5, b"k")), Admission::Fast(_)));
    }

    #[test]
    fn delete_through_cache() {
        let mut rs = ReservationStation::new(StationConfig::default());
        assert!(matches!(rs.admit(get(0, b"k")), Admission::Issue { .. }));
        rs.complete(b"k", Some(b"v".to_vec()));
        match rs.admit(StationOp {
            id: 1,
            key: b"k".to_vec(),
            kind: KvOpKind::Delete,
        }) {
            Admission::Fast(r) => assert_eq!(r.value.unwrap(), b"v"),
            a => panic!("{a:?}"),
        }
        match rs.admit(get(2, b"k")) {
            Admission::Fast(r) => assert_eq!(r.value, None, "deleted via cache"),
            a => panic!("{a:?}"),
        }
        let wb = rs.flush();
        assert_eq!(wb, vec![(b"k".to_vec(), None)]);
    }

    #[test]
    fn eviction_writes_back_dirty_cache() {
        // Two same-slot keys; dirty the first, then admit the second.
        let cfg = StationConfig {
            hash_slots: 1,
            capacity: 16,
        };
        let mut rs = ReservationStation::new(cfg);
        assert!(matches!(
            rs.admit(put(0, b"a", b"1")),
            Admission::Issue { .. }
        ));
        rs.complete(b"a", Some(b"1".to_vec()));
        // Dirty the cache via fast path.
        assert!(matches!(rs.admit(put(1, b"a", b"2")), Admission::Fast(_)));
        // A different key in the (only) slot evicts it.
        match rs.admit(get(2, b"b")) {
            Admission::Issue { writeback, .. } => {
                assert_eq!(writeback, Some((b"a".to_vec(), Some(b"2".to_vec()))));
            }
            a => panic!("{a:?}"),
        }
    }

    #[test]
    fn reclaim_installs_no_forwarding_cache() {
        let mut rs = ReservationStation::new(StationConfig::default());
        assert!(matches!(rs.admit(get(0, b"k")), Admission::Issue { .. }));
        let c = rs.reclaim(b"k");
        assert!(c.results.is_empty() && c.issue.is_none());
        assert!(rs.idle());
        assert_eq!(rs.stats().reclaimed, 1);
        // The failed op forwarded nothing: the next same-key op must go to
        // memory itself, not ride a stale fast path.
        assert!(matches!(rs.admit(get(1, b"k")), Admission::Issue { .. }));
    }

    #[test]
    fn reclaim_reissues_next_pending_same_key() {
        let mut rs = ReservationStation::new(StationConfig::default());
        assert!(matches!(rs.admit(get(0, b"k")), Admission::Issue { .. }));
        assert!(matches!(rs.admit(put(1, b"k", b"v")), Admission::Queued));
        assert!(matches!(rs.admit(get(2, b"k")), Admission::Queued));
        let c = rs.reclaim(b"k");
        // The chain must not wedge: the first dependent is re-issued, and
        // nothing is forwarded (there is no value to forward).
        assert!(c.results.is_empty());
        let issued = c.issue.expect("next pending op must re-issue");
        assert_eq!(issued.id, 1);
        assert_eq!(rs.tracked(), 2, "op 1 busy + op 2 still queued");
        // Normal completion of the re-issued op drains the rest.
        let c2 = rs.complete(b"k", Some(b"v".to_vec()));
        assert_eq!(c2.results.len(), 1);
        assert_eq!(c2.results[0].id, 2);
        assert!(rs.idle());
    }

    #[test]
    fn reclaim_reissues_pending_collider() {
        let cfg = StationConfig {
            hash_slots: 1,
            capacity: 16,
        };
        let mut rs = ReservationStation::new(cfg);
        assert!(matches!(rs.admit(get(0, b"a")), Admission::Issue { .. }));
        assert!(matches!(rs.admit(get(1, b"b")), Admission::Queued));
        let c = rs.reclaim(b"a");
        let issued = c.issue.expect("collider must be issued");
        assert_eq!(issued.key, b"b");
        rs.complete(b"b", None);
        assert!(rs.idle());
    }

    #[test]
    #[should_panic(expected = "reclaim for a non-busy slot")]
    fn reclaim_requires_busy_slot() {
        let mut rs = ReservationStation::new(StationConfig::default());
        rs.reclaim(b"nope");
    }

    #[test]
    fn flush_emits_dirty_caches_in_slot_order() {
        // Dirty several slots out of admission order; flush must still
        // walk the bitset in slot-index order, and a second flush (plus a
        // re-dirty) must see a consistent bitset.
        let mut rs = ReservationStation::new(StationConfig::default());
        let keys: Vec<Vec<u8>> = (0u32..32).map(|i| format!("k{i}").into_bytes()).collect();
        for (i, k) in keys.iter().enumerate() {
            match rs.admit(put(i as u64, k, b"v")) {
                Admission::Issue { op, .. } => {
                    rs.complete(&op.key, Some(b"v".to_vec()));
                    // Dirty via the fast path.
                    assert!(matches!(
                        rs.admit(put(100 + i as u64, k, b"w")),
                        Admission::Fast(_)
                    ));
                }
                Admission::Fast(_) => {}
                a => panic!("{a:?}"),
            }
        }
        let wb = rs.flush();
        assert_eq!(wb.len(), keys.len());
        let slots: Vec<usize> = wb.iter().map(|(k, _)| rs.slot_index(k)).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(slots, sorted, "write-backs must come out in slot order");
        assert!(rs.flush().is_empty(), "bitset cleared by the first flush");
        // Re-dirtying after a flush sets the bit again.
        assert!(matches!(
            rs.admit(put(999, &keys[0], b"x")),
            Admission::Fast(_)
        ));
        assert_eq!(rs.flush().len(), 1);
    }

    #[test]
    fn recycle_returns_retired_buffers() {
        let mut rs = ReservationStation::new(StationConfig::default());
        assert!(rs.recycle().is_none(), "pool starts empty");
        rs.give(Vec::with_capacity(64));
        let b = rs.recycle().expect("given buffer comes back");
        assert!(b.is_empty() && b.capacity() >= 64, "cleared, capacity kept");
        // Fast-path ops retire their key buffers into the pool; the GET
        // result reuses one, so the cycle is closed by giving it back.
        assert!(matches!(rs.admit(get(0, b"k")), Admission::Issue { .. }));
        rs.complete(b"k", Some(b"v".to_vec()));
        match rs.admit(get(1, b"k")) {
            Admission::Fast(r) => rs.give(r.value.expect("hit")),
            a => panic!("{a:?}"),
        }
        assert!(rs.recycle().is_some(), "retired buffers circulate");
    }

    #[test]
    fn flush_keeps_clean_caches() {
        let mut rs = ReservationStation::new(StationConfig::default());
        assert!(matches!(rs.admit(get(0, b"k")), Admission::Issue { .. }));
        rs.complete(b"k", Some(b"v".to_vec()));
        assert!(rs.flush().is_empty(), "clean cache needs no write-back");
        // Still forwards afterwards.
        assert!(matches!(rs.admit(get(1, b"k")), Admission::Fast(_)));
    }

    #[test]
    fn drop_clean_caches_forces_reissue() {
        let mut rs = ReservationStation::new(StationConfig::default());
        assert!(matches!(rs.admit(get(0, b"k")), Admission::Issue { .. }));
        rs.complete(b"k", Some(b"v".to_vec()));
        assert!(matches!(rs.admit(get(1, b"k")), Admission::Fast(_)));
        rs.drop_clean_caches();
        // The forwarding cache is gone: the next GET must go to memory.
        assert!(matches!(rs.admit(get(2, b"k")), Admission::Issue { .. }));
        // Dropped buffers were pooled, not leaked.
        assert!(rs.recycle().is_some());
    }
}
