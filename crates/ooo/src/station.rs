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
//!
//! # Two forms, one engine
//!
//! The engine is the **slot-handle primitives** of [`ReservationStation`]:
//! hash a key once (`slot_of`), ask what the slot holds (`probe`), then
//! `forward`, `issue` or `enqueue`; when the issued access returns,
//! `install` its value (or `release` the slot if it failed) and `drain`
//! the chain. They borrow keys and values from the caller and hand
//! results out as borrowed slices. The station owns bytes only where they
//! outlive the operation that brought them: a slot's forwarding entry
//! (its key and value buffers are overwritten in place), an operation
//! queued behind a busy slot (copied into pooled buffers when queued, and
//! only then), and a dirty entry awaiting write-back (handed out from the
//! entry's own buffers).
//!
//! `admit`, `complete` and `flush` are the **owned forms**:
//! thin wrappers that hash the key, call the primitives and copy what
//! they return into `Vec`s. They are the convenient way to drive a
//! station by hand, and `tests/station_props.rs` uses them as the
//! differential check of the primitives against a sequential map.

use std::collections::VecDeque;
use std::sync::Arc;

use kvd_sim::{CostSource, OpLedger, StationCosts};

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

impl KvOpKind {
    /// The borrowed form the primitives take.
    pub fn as_ref(&self) -> OpRef<'_> {
        match self {
            KvOpKind::Get => OpRef::Get,
            KvOpKind::Put(v) => OpRef::Put(v),
            KvOpKind::Delete => OpRef::Delete,
            KvOpKind::Update(f) => OpRef::Update(f),
        }
    }
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

/// [`KvOpKind`] with the PUT's value borrowed from the caller.
#[derive(Clone, Copy)]
pub enum OpRef<'a> {
    /// Read the value.
    Get,
    /// Insert or replace the value.
    Put(&'a [u8]),
    /// Remove the key.
    Delete,
    /// Atomic read-modify-write; results in the original value.
    Update(&'a UpdateFn),
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

/// A [`Writeback`] read straight from the evicted entry's buffers.
pub type WritebackRef<'a> = (&'a [u8], Option<&'a [u8]>);

fn owned((key, value): WritebackRef<'_>) -> Writeback {
    (key.to_vec(), value.map(<[u8]>::to_vec))
}

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
    /// operations) or does not forward; the operation is handed back —
    /// retry after a completion.
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

/// What [`ReservationStation::probe`] found in a key's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The slot is idle and its forwarding entry holds this key:
    /// [`forward`](ReservationStation::forward).
    Hit,
    /// The slot is idle and holds another key or nothing:
    /// [`issue`](ReservationStation::issue).
    Miss,
    /// An operation of this slot is in flight:
    /// [`enqueue`](ReservationStation::enqueue).
    Busy,
}

/// The head of a chain that [`ReservationStation::drain`] could not
/// forward: the caller executes `op` against the table (after applying
/// `writeback`), completes the same slot again, and hands `op` back
/// through [`ReservationStation::recycle`].
#[derive(Debug)]
pub struct Reissue<'a> {
    /// The queued operation that now holds the slot.
    pub op: StationOp,
    /// Dirty eviction to apply before executing `op`.
    pub writeback: Option<WritebackRef<'a>>,
}

/// Configuration of the reservation station.
#[derive(Debug, Clone, Copy)]
pub struct StationConfig {
    /// Hash slots (paper: 1024, for <25% collision probability at 256
    /// in-flight ops).
    pub hash_slots: usize,
    /// Maximum queued + in-flight operations (paper: 256).
    pub capacity: usize,
    /// Data forwarding (the out-of-order engine). Off is the paper's
    /// Figure 13 baseline: a completion installs no forwarding entry and
    /// nothing queues, so an operation whose slot is busy waits for the
    /// slot to retire and then does its own memory access.
    pub forwarding: bool,
}

impl Default for StationConfig {
    fn default() -> Self {
        StationConfig {
            hash_slots: 1024,
            capacity: 256,
            forwarding: true,
        }
    }
}

/// A slot's forwarding entry. The buffers belong to the slot for its
/// lifetime: installing a value overwrites them in place, and an evicted
/// dirty entry is written back out of them before the next install.
#[derive(Default)]
struct Entry {
    key: Vec<u8>,
    value: Vec<u8>,
    /// Whether the entry may forward (false: cold or evicted).
    valid: bool,
    /// Whether the key exists; false means it is (now) absent.
    present: bool,
    dirty: bool,
}

impl Entry {
    #[inline]
    fn value(&self) -> Option<&[u8]> {
        self.present.then_some(&self.value)
    }

    #[inline]
    fn set(&mut self, value: Option<&[u8]>) {
        self.present = value.is_some();
        if let Some(v) = value {
            self.value.clear();
            self.value.extend_from_slice(v);
        }
    }

    /// Runs `op` on the entry: hands `result` the op's result (GET: the
    /// value; PUT/DELETE: the value displaced; UPDATE: the original) and
    /// overwrites the value in place. Returns whether it wrote.
    #[inline]
    fn apply(&mut self, op: OpRef<'_>, result: impl FnOnce(Option<&[u8]>)) -> bool {
        let updated = match op {
            OpRef::Update(f) => f(self.value()),
            _ => None,
        };
        result(self.value());
        match op {
            OpRef::Get => return false,
            OpRef::Put(v) => self.set(Some(v)),
            OpRef::Delete => self.set(None),
            OpRef::Update(_) => self.set(updated.as_deref()),
        }
        true
    }
}

#[derive(Default)]
struct Slot {
    busy: bool,
    pending: VecDeque<StationOp>,
    entry: Entry,
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
///
/// The same exchange through the primitives, nothing owned by the caller:
///
/// ```
/// use kvd_ooo::{OpRef, Probe, ReservationStation, StationConfig};
///
/// let mut rs = ReservationStation::new(StationConfig::default());
/// let slot = rs.slot_of(b"k");
/// assert_eq!(rs.probe(slot, b"k"), Probe::Miss);
/// assert!(rs.issue(slot).is_none(), "nothing dirty to evict");
/// rs.install(slot, b"k", Some(b"v"));
/// assert!(rs.drain(slot, |_, _| {}).is_none(), "nothing queued");
/// assert_eq!(rs.probe(slot, b"k"), Probe::Hit);
/// rs.forward(slot, OpRef::Get, |v| assert_eq!(v, Some(&b"v"[..])));
/// ```
pub struct ReservationStation {
    cfg: StationConfig,
    slots: Vec<Slot>,
    /// `hash_slots - 1` when that is a power of two (index by mask),
    /// otherwise 0 (index by remainder).
    mask: u64,
    total_tracked: usize,
    stats: StationCosts,
    /// One bit per hash slot: set iff the slot's entry is dirty, so
    /// [`flush_with`] visits dirty slots in index order without looking
    /// at the others; `dirty` counts the set bits, so a flush with
    /// nothing to write returns at once and any other stops at the last
    /// dirty slot.
    ///
    /// [`flush_with`]: ReservationStation::flush_with
    dirty_bits: Vec<u64>,
    dirty: usize,
    /// Key and value buffers of retired queued operations, reused by the
    /// next [`enqueue`](ReservationStation::enqueue).
    spare: Vec<Vec<u8>>,
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
            mask: if cfg.hash_slots.is_power_of_two() {
                cfg.hash_slots as u64 - 1
            } else {
                0
            },
            total_tracked: 0,
            stats: StationCosts::default(),
            dirty_bits: vec![0; cfg.hash_slots.div_ceil(64)],
            dirty: 0,
            spare: Vec::new(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> StationCosts {
        self.stats
    }

    /// Occupancy relative to the station's operation capacity: 0 when
    /// idle, 1 when every slot of the paper's 256-op envelope is spoken
    /// for. This is the backpressure signal the admission layer watches.
    pub fn occupancy(&self) -> f64 {
        self.total_tracked as f64 / self.cfg.capacity as f64
    }

    #[inline]
    fn note_tracked(&mut self) {
        self.total_tracked += 1;
        self.stats.high_water = self.stats.high_water.max(self.total_tracked as u64);
    }

    /// Whether one more operation may queue; a refusal is counted.
    fn has_room(&mut self) -> bool {
        let room = self.total_tracked < self.cfg.capacity;
        self.stats.rejected += u64::from(!room);
        room
    }

    fn push(&mut self, slot: usize, op: StationOp) {
        self.stats.queued += 1;
        self.note_tracked();
        self.slots[slot].pending.push_back(op);
    }

    #[inline]
    fn mark_dirty(&mut self, slot: usize) {
        let entry = &mut self.slots[slot].entry;
        if !entry.dirty {
            entry.dirty = true;
            self.dirty_bits[slot / 64] |= 1 << (slot % 64);
            self.dirty += 1;
        }
    }

    /// Invalidates the slot's entry; a dirty one is counted and handed
    /// out for write-back (its buffers stay put until the next install).
    #[inline]
    fn evict(&mut self, slot: usize) -> Option<WritebackRef<'_>> {
        let entry = &mut self.slots[slot].entry;
        entry.valid = false;
        if !entry.dirty {
            return None;
        }
        entry.dirty = false;
        self.dirty_bits[slot / 64] &= !(1 << (slot % 64));
        self.dirty -= 1;
        self.stats.writebacks += 1;
        Some((&entry.key, entry.value()))
    }

    fn copy(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        buf
    }

    // ------------------------------------------------------------------
    // Slot-handle primitives
    // ------------------------------------------------------------------

    /// The slot `key` hashes to — the handle every other primitive
    /// takes, so a key is hashed once per operation.
    #[inline]
    pub fn slot_of(&self, key: &[u8]) -> usize {
        self.slot_for(kvd_hash::hashing::hash_key(key).station)
    }

    /// [`slot_of`](Self::slot_of) for a caller that already holds the
    /// key's [`KeyHashes::station`](kvd_hash::hashing::KeyHashes).
    #[inline]
    pub fn slot_for(&self, station_hash: u64) -> usize {
        if self.mask != 0 {
            (station_hash & self.mask) as usize
        } else {
            (station_hash % self.cfg.hash_slots as u64) as usize
        }
    }

    /// What an operation on `key` (which hashes to `slot`) must do next.
    #[inline]
    pub fn probe(&self, slot: usize, key: &[u8]) -> Probe {
        let s = &self.slots[slot];
        if s.busy || !s.pending.is_empty() {
            Probe::Busy
        } else if s.entry.valid && s.entry.key == key {
            Probe::Hit
        } else {
            Probe::Miss
        }
    }

    /// After [`Probe::Hit`]: runs `op` on the slot's entry in one cycle,
    /// no memory access. `result` sees the op's result — GET: the value;
    /// PUT/DELETE: the value displaced; UPDATE: the original.
    #[inline]
    pub fn forward(&mut self, slot: usize, op: OpRef<'_>, result: impl FnOnce(Option<&[u8]>)) {
        debug_assert!(self.slots[slot].entry.valid && !self.slots[slot].busy);
        if self.slots[slot].entry.apply(op, result) {
            self.mark_dirty(slot);
        }
        self.stats.forwarded += 1;
    }

    /// After [`Probe::Miss`]: the slot is busy until [`install`] or
    /// [`release`]. Returns the dirty entry this evicted, if any — apply
    /// it to the table before executing the operation.
    ///
    /// [`install`]: ReservationStation::install
    /// [`release`]: ReservationStation::release
    #[inline]
    pub fn issue(&mut self, slot: usize) -> Option<WritebackRef<'_>> {
        self.slots[slot].busy = true;
        self.note_tracked();
        self.stats.issued += 1;
        self.evict(slot)
    }

    /// After [`Probe::Busy`]: copies the operation into the slot's chain.
    /// Returns false if the station is at capacity (the paper sizes it at
    /// 256 tracked operations) or does not forward — retire something and
    /// probe again.
    pub fn enqueue(&mut self, slot: usize, id: u64, key: &[u8], op: OpRef<'_>) -> bool {
        if !(self.cfg.forwarding && self.has_room()) {
            return false;
        }
        let key = self.copy(key);
        let kind = match op {
            OpRef::Get => KvOpKind::Get,
            OpRef::Put(v) => KvOpKind::Put(self.copy(v)),
            OpRef::Delete => KvOpKind::Delete,
            OpRef::Update(f) => KvOpKind::Update(Arc::clone(f)),
        };
        self.push(slot, StationOp { id, key, kind });
        true
    }

    /// The issued operation of `slot` completed: `value` is `key`'s value
    /// after it (loaded for GET, written for PUT/UPDATE, `None` for
    /// DELETE or a miss) and becomes the slot's forwarding entry — valid
    /// only if the station forwards. Follow with
    /// [`drain`](ReservationStation::drain).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not busy.
    #[inline]
    pub fn install(&mut self, slot: usize, key: &[u8], value: Option<&[u8]>) {
        let s = &mut self.slots[slot];
        assert!(s.busy, "completion for a non-busy slot");
        s.busy = false;
        self.total_tracked -= 1;
        s.entry.key.clear();
        s.entry.key.extend_from_slice(key);
        s.entry.set(value);
        s.entry.valid = self.cfg.forwarding;
    }

    /// The issued operation of `slot` *failed* (the memory access never
    /// produced a value — a DMA tag timed out, the retry budget ran out).
    /// Unlike [`install`], no forwarding entry appears: the failed
    /// operation observed nothing, so nothing may be forwarded to
    /// dependents, and the [`drain`] that follows re-issues the next one
    /// so the chain keeps moving instead of wedging behind the dead tag.
    ///
    /// The failed operation must not have modified the hash table (the
    /// processor fails transactions atomically).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not busy.
    ///
    /// [`install`]: ReservationStation::install
    /// [`drain`]: ReservationStation::drain
    #[inline]
    pub fn release(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        assert!(s.busy, "reclaim for a non-busy slot");
        s.busy = false;
        self.total_tracked -= 1;
        self.stats.reclaimed += 1;
    }

    /// Examines the slot's chain sequentially (paper: "Pending operations
    /// in the same hash slot are checked one by one"). Operations on the
    /// entry's key execute on it by data forwarding — `result(id, value)`
    /// sees each, as [`forward`](ReservationStation::forward) describes —
    /// until the chain is empty or its head needs memory (a
    /// hash-colliding different key, or any key after a
    /// [`release`](ReservationStation::release)): that operation takes
    /// the slot and is returned.
    #[inline]
    pub fn drain(
        &mut self,
        slot: usize,
        mut result: impl FnMut(u64, Option<&[u8]>),
    ) -> Option<Reissue<'_>> {
        loop {
            let s = &mut self.slots[slot];
            let op = s.pending.pop_front()?;
            if !(s.entry.valid && s.entry.key == op.key) {
                s.busy = true;
                // Tracked count unchanged: it moves from queued to busy.
                self.stats.issued += 1;
                let writeback = self.evict(slot);
                return Some(Reissue { op, writeback });
            }
            if s.entry.apply(op.kind.as_ref(), |v| result(op.id, v)) {
                self.mark_dirty(slot);
            }
            self.total_tracked -= 1;
            self.stats.forwarded += 1;
            self.recycle(op);
        }
    }

    /// Takes back the buffers of an operation [`drain`] returned.
    ///
    /// [`drain`]: ReservationStation::drain
    #[inline]
    pub fn recycle(&mut self, op: StationOp) {
        // Bounded by what can be queued at once: a key and a value each.
        let room = (2 * self.cfg.capacity).saturating_sub(self.spare.len());
        let value = match op.kind {
            KvOpKind::Put(v) => Some(v),
            _ => None,
        };
        self.spare.extend(
            std::iter::once(op.key)
                .chain(value)
                .filter(|b| b.capacity() > 0)
                .take(room),
        );
    }

    /// Hands `writeback` every dirty entry, in slot-index order, straight
    /// from the entry's buffers, and marks it clean; clean entries are
    /// kept for future forwarding.
    pub fn flush_with(&mut self, mut writeback: impl FnMut(&[u8], Option<&[u8]>)) {
        for w in 0..self.dirty_bits.len() {
            if self.dirty == 0 {
                return;
            }
            let mut bits = std::mem::take(&mut self.dirty_bits[w]);
            while bits != 0 {
                let entry = &mut self.slots[w * 64 + bits.trailing_zeros() as usize].entry;
                bits &= bits - 1;
                debug_assert!(
                    entry.valid && entry.dirty,
                    "dirty bit implies a dirty entry"
                );
                entry.dirty = false;
                self.dirty -= 1;
                self.stats.writebacks += 1;
                writeback(&entry.key, entry.value());
            }
        }
    }

    /// Drops every **clean** forwarding entry.
    ///
    /// The entries hold values, not lifecycle stamps, so a TTL-aware
    /// embedder must invalidate them whenever its expiry clock advances —
    /// otherwise a value could keep being forwarded after its stamp died
    /// in the table. Dirty entries are left alone: they only exist
    /// mid-batch (every batch ends in a flush) and the embedder advances
    /// the clock between batches, so in practice this sees clean entries
    /// only. The debug assertion pins that contract.
    pub fn drop_clean_caches(&mut self) {
        for slot in &mut self.slots {
            debug_assert!(
                !slot.entry.dirty,
                "clock advanced with a dirty cache outstanding — flush first"
            );
            slot.entry.valid &= slot.entry.dirty;
        }
    }

    // ------------------------------------------------------------------
    // Owned forms
    // ------------------------------------------------------------------

    /// Admits one operation.
    pub fn admit(&mut self, op: StationOp) -> Admission {
        let slot = self.slot_of(&op.key);
        match self.probe(slot, &op.key) {
            Probe::Busy => {
                if !(self.cfg.forwarding && self.has_room()) {
                    return Admission::Full(op);
                }
                self.push(slot, op);
                Admission::Queued
            }
            Probe::Hit => {
                let mut value = None;
                self.forward(slot, op.kind.as_ref(), |v| value = v.map(<[u8]>::to_vec));
                Admission::Fast(OpResult { id: op.id, value })
            }
            // Different key (or cold slot): evict any dirty cache and issue.
            Probe::Miss => {
                let writeback = self.issue(slot).map(owned);
                Admission::Issue { op, writeback }
            }
        }
    }

    /// Reports the completion of an issued operation: `cache_value` is the
    /// key's value after the operation (loaded for GET, written for
    /// PUT/UPDATE, `None` for DELETE or a miss). Drains the dependency
    /// chain with data forwarding.
    pub fn complete(&mut self, key: &[u8], cache_value: Option<Vec<u8>>) -> Completion {
        let slot = self.slot_of(key);
        self.install(slot, key, cache_value.as_deref());
        self.drain_owned(slot)
    }

    fn drain_owned(&mut self, slot: usize) -> Completion {
        let mut results = Vec::new();
        let next = self.drain(slot, |id, v| {
            results.push(OpResult {
                id,
                value: v.map(<[u8]>::to_vec),
            })
        });
        let (issue, writeback) = match next {
            Some(r) => (Some(r.op), r.writeback.map(owned)),
            None => (None, None),
        };
        Completion {
            results,
            issue,
            writeback,
        }
    }

    /// Flushes every dirty cached value, returning the write-backs the
    /// caller must apply, in slot-index order. Clean caches are kept for
    /// future forwarding.
    pub fn flush(&mut self) -> Vec<Writeback> {
        let mut out = Vec::new();
        self.flush_with(|key, value| out.push(owned((key, value))));
        out
    }
}

impl CostSource for ReservationStation {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.station.merge(&self.stats);
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

    /// The owned form of a failed issue: `release`, then `drain`.
    fn reclaim(rs: &mut ReservationStation, key: &[u8]) -> Completion {
        let slot = rs.slot_of(key);
        rs.release(slot);
        rs.drain_owned(slot)
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
            ..StationConfig::default()
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
        assert_eq!(rs.occupancy(), 0.0);
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
            ..StationConfig::default()
        };
        let mut rs = ReservationStation::new(cfg);
        let base_slot = {
            let mut t = ReservationStation::new(cfg);
            match t.admit(get(0, b"a")) {
                Admission::Issue { .. } => {}
                _ => unreachable!(),
            }
            t.slot_of(b"a")
        };
        let mut collider = None;
        for i in 0u32..1000 {
            let k = format!("x{i}");
            if rs.slot_of(k.as_bytes()) == base_slot && k != "a" {
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
        assert_eq!(rs.occupancy(), 0.0);
    }

    #[test]
    fn capacity_backpressure() {
        let mut rs = ReservationStation::new(StationConfig {
            hash_slots: 8,
            capacity: 4,
            ..StationConfig::default()
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
            ..StationConfig::default()
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
        let c = reclaim(&mut rs, b"k");
        assert!(c.results.is_empty() && c.issue.is_none());
        assert_eq!(rs.occupancy(), 0.0);
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
        let c = reclaim(&mut rs, b"k");
        // The chain must not wedge: the first dependent is re-issued, and
        // nothing is forwarded (there is no value to forward).
        assert!(c.results.is_empty());
        let issued = c.issue.expect("next pending op must re-issue");
        assert_eq!(issued.id, 1);
        assert_eq!(rs.total_tracked, 2, "op 1 busy + op 2 still queued");
        // Normal completion of the re-issued op drains the rest.
        let c2 = rs.complete(b"k", Some(b"v".to_vec()));
        assert_eq!(c2.results.len(), 1);
        assert_eq!(c2.results[0].id, 2);
        assert_eq!(rs.occupancy(), 0.0);
    }

    #[test]
    fn reclaim_reissues_pending_collider() {
        let cfg = StationConfig {
            hash_slots: 1,
            capacity: 16,
            ..StationConfig::default()
        };
        let mut rs = ReservationStation::new(cfg);
        assert!(matches!(rs.admit(get(0, b"a")), Admission::Issue { .. }));
        assert!(matches!(rs.admit(get(1, b"b")), Admission::Queued));
        let c = reclaim(&mut rs, b"a");
        let issued = c.issue.expect("collider must be issued");
        assert_eq!(issued.key, b"b");
        rs.complete(b"b", None);
        assert_eq!(rs.occupancy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "reclaim for a non-busy slot")]
    fn reclaim_requires_busy_slot() {
        let mut rs = ReservationStation::new(StationConfig::default());
        reclaim(&mut rs, b"nope");
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
        let slots: Vec<usize> = wb.iter().map(|(k, _)| rs.slot_of(k)).collect();
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
        let slot = rs.slot_of(b"k");
        assert_eq!(rs.probe(slot, b"k"), Probe::Miss);
        assert!(rs.issue(slot).is_none());
        assert!(rs.spare.is_empty(), "pool starts empty");
        // A queued PUT is copied into station-owned buffers, which retire
        // into the pool once the chain has forwarded it...
        assert!(rs.enqueue(slot, 1, b"k", OpRef::Put(&[7; 64])));
        rs.install(slot, b"k", None);
        assert!(rs.drain(slot, |_, _| {}).is_none());
        assert_eq!(rs.spare.len(), 2, "key and value buffers retired");
        // ...and carry the next queued operation: capacity kept, pool
        // drained, nothing of the old contents left.
        let other = rs.slot_of(b"other");
        assert!(rs.issue(other).is_none());
        assert!(rs.enqueue(other, 2, b"other", OpRef::Put(b"v")));
        assert!(rs.spare.is_empty(), "retired buffers circulate");
        let queued = &rs.slots[other].pending[0];
        assert_eq!(queued.key, b"other");
        match &queued.kind {
            KvOpKind::Put(v) => assert!(v == b"v" && v.capacity().max(queued.key.capacity()) >= 64),
            k => panic!("{k:?}"),
        }
        // A re-issued chain head comes back through `recycle`.
        rs.release(other);
        let op = rs.drain(other, |_, _| {}).expect("re-issued").op;
        rs.recycle(op);
        assert_eq!(rs.spare.len(), 2);
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
    fn without_forwarding_every_op_issues_after_its_slot_retires() {
        let mut rs = ReservationStation::new(StationConfig {
            forwarding: false,
            ..StationConfig::default()
        });
        assert!(matches!(rs.admit(incr(0, b"k")), Admission::Issue { .. }));
        // Nothing queues behind the busy slot, and the completion installs
        // nothing to forward: the next op goes to memory itself.
        assert!(matches!(rs.admit(incr(1, b"k")), Admission::Full(_)));
        let c = rs.complete(b"k", Some(1u64.to_le_bytes().to_vec()));
        assert!(c.results.is_empty() && c.issue.is_none());
        assert!(matches!(rs.admit(incr(1, b"k")), Admission::Issue { .. }));
        let s = rs.stats();
        assert_eq!((s.issued, s.forwarded, s.queued, s.rejected), (2, 0, 0, 0));
        rs.complete(b"k", Some(2u64.to_le_bytes().to_vec()));
        assert!(rs.flush().is_empty(), "nothing was dirtied in the station");
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
    }
}
