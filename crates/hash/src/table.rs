//! The hash table: bucket chains over a [`MemoryEngine`] plus the slab
//! allocator for chained buckets and non-inline KV data.
//!
//! Memory-access behaviour matches the paper:
//!
//! * inline GET — 1 access (the bucket read);
//! * inline PUT — 2 accesses (bucket read + write);
//! * non-inline GET/PUT — one additional access for the KV data;
//! * secondary-hash false positives and chain walks add accesses, which
//!   is exactly what Figures 6/9/11 plot as utilization grows.

use std::ops::Range;

use kvd_mem::{MemoryEngine, LINE};
use kvd_sim::ExpiryCosts;
use kvd_slab::{SlabAddr, SlabAllocator, SlabClass, SlabConfig, GRANULE};

use crate::hashing::{hash_key, KeyHashes};
use crate::layout::{
    Bucket, BUCKET_BYTES, INLINE_HEADER, MAX_INLINE_KV, SLOTS_PER_BUCKET, SLOT_BYTES,
};
use crate::swar::{self, RawEntries, RawEntry};

/// Errors a table operation can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashError {
    /// The dynamic region cannot satisfy an allocation (table is full at
    /// this utilization).
    OutOfMemory,
    /// Key exceeds the supported maximum (255 bytes).
    KeyTooLarge,
    /// Value exceeds the largest slab class.
    ValueTooLarge,
}

impl std::fmt::Display for HashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HashError::OutOfMemory => write!(f, "out of dynamic memory"),
            HashError::KeyTooLarge => write!(f, "key larger than 255 bytes"),
            HashError::ValueTooLarge => write!(f, "value exceeds largest slab class"),
        }
    }
}

impl std::error::Error for HashError {}

/// Configuration of a [`HashTable`].
#[derive(Debug, Clone)]
pub struct HashTableConfig {
    /// Total memory (hash index + dynamic region) in bytes.
    pub total_memory: u64,
    /// Fraction of memory used for the hash index (paper: "hash index
    /// ratio", configured at initialization).
    pub hash_index_ratio: f64,
    /// KVs of `key+value` size at or below this are stored inline
    /// (paper: "inline threshold", ≤ 48 B given 10 × 5 B slots).
    pub inline_threshold: usize,
    /// Use the extended slab ladder (up to 64 KiB values) instead of the
    /// paper's 32–512 B.
    pub extended_slabs: bool,
}

impl HashTableConfig {
    /// A config with the given memory, ratio and threshold.
    pub fn new(total_memory: u64, hash_index_ratio: f64, inline_threshold: usize) -> Self {
        HashTableConfig {
            total_memory,
            hash_index_ratio,
            inline_threshold,
            extended_slabs: false,
        }
    }
}

/// Per-operation cost, in the paper's currency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Random memory accesses the operation performed.
    pub accesses: u64,
    /// Whether the key was found (GET/DELETE) or replaced (PUT).
    pub hit: bool,
}

/// What one bounded reaper pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCost {
    /// Random memory accesses the pass performed.
    pub accesses: u64,
    /// Bucket frames scanned.
    pub scanned: u64,
    /// Dead entries reclaimed.
    pub reclaimed: u64,
}

/// The KV-Direct hash table.
///
/// # Examples
///
/// ```
/// use kvd_hash::{HashTable, HashTableConfig};
/// use kvd_mem::FlatMemory;
///
/// let cfg = HashTableConfig::new(1 << 20, 0.5, 24);
/// let mut t = HashTable::new(FlatMemory::new(1 << 20), cfg);
/// t.put(b"answer", b"42").unwrap();
/// assert_eq!(t.get(b"answer").unwrap(), b"42");
/// assert!(t.delete(b"answer"));
/// assert_eq!(t.get(b"answer"), None);
/// ```
pub struct HashTable<M: MemoryEngine> {
    mem: M,
    alloc: SlabAllocator,
    n_buckets: u64,
    dyn_base: u64,
    inline_threshold: usize,
    total_memory: u64,
    count: u64,
    stored_kv_bytes: u64,
    /// Table-owned scratch for slab KV records: sized to the largest
    /// class touched so far, so steady-state reads and writes of KV data
    /// never allocate.
    kv_scratch: Vec<u8>,
    /// The buckets a write walk found room in (`write`), kept so a walk
    /// does not allocate: a chain has at most one per free-slot count.
    roomy: Vec<(u64, usize, [u8; BUCKET_BYTES])>,
    /// Current expiry tick; entries with `0 < stamp <= now_tick` are
    /// dead. Driven by the embedder's deterministic clock.
    now_tick: u32,
    /// Reaper cursor: next primary bucket index to sweep.
    sweep_cursor: u64,
    expiry: ExpiryCosts,
}

impl<M: MemoryEngine> HashTable<M> {
    /// Creates a table over `mem` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no buckets, no dynamic
    /// region, threshold beyond [`MAX_INLINE_KV`], or memory smaller than
    /// the configured `total_memory`).
    pub fn new(mem: M, cfg: HashTableConfig) -> Self {
        assert!(
            cfg.total_memory <= mem.capacity(),
            "memory engine too small"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.hash_index_ratio),
            "hash index ratio must be in [0,1]"
        );
        assert!(
            cfg.inline_threshold <= MAX_INLINE_KV,
            "inline threshold beyond bucket capacity"
        );
        let index_bytes = ((cfg.total_memory as f64 * cfg.hash_index_ratio) as u64)
            / BUCKET_BYTES as u64
            * BUCKET_BYTES as u64;
        let n_buckets = index_bytes / BUCKET_BYTES as u64;
        assert!(n_buckets > 0, "hash index ratio leaves no buckets");
        mem.dense_prefix(index_bytes);
        // The dynamic region starts right after the index, granule-aligned.
        let dyn_base = index_bytes.next_multiple_of(GRANULE);
        let dyn_len = (cfg.total_memory - dyn_base) / GRANULE * GRANULE;
        assert!(dyn_len >= GRANULE, "no dynamic region left");
        // 31-bit granule pointers bound the dynamic region (64 GiB).
        assert!(
            dyn_len / GRANULE < (1 << 31),
            "dynamic region exceeds 31-bit pointers"
        );
        let slab_cfg = if cfg.extended_slabs {
            SlabConfig::extended(dyn_base, dyn_len)
        } else {
            SlabConfig::paper(dyn_base, dyn_len)
        };
        HashTable {
            mem,
            alloc: SlabAllocator::new(slab_cfg),
            n_buckets,
            dyn_base,
            inline_threshold: cfg.inline_threshold,
            total_memory: cfg.total_memory,
            count: 0,
            stored_kv_bytes: 0,
            kv_scratch: Vec::new(),
            roomy: Vec::with_capacity(SLOTS_PER_BUCKET),
            now_tick: 0,
            sweep_cursor: 0,
            expiry: ExpiryCosts::default(),
        }
    }

    /// Advances the expiry clock (monotonic; driven from simulated time
    /// so expiry is deterministic under every engine).
    pub fn set_now_tick(&mut self, tick: u32) {
        debug_assert!(tick >= self.now_tick, "expiry clock must not go back");
        self.now_tick = tick;
    }

    /// The current expiry tick.
    pub fn now_tick(&self) -> u32 {
        self.now_tick
    }

    /// Cumulative expiry-plane counters.
    pub fn expiry_stats(&self) -> ExpiryCosts {
        self.expiry
    }

    #[inline]
    fn is_dead(&self, expiry: u32) -> bool {
        expiry != 0 && expiry <= self.now_tick
    }

    /// Whether `expiry` is already dead at the table's current tick
    /// (0 = immortal). Lets embedders pre-screen stamps — e.g. normalize
    /// an already-expired PUT to a delete before it touches any cache.
    #[inline]
    pub fn stamp_dead(&self, expiry: u32) -> bool {
        self.is_dead(expiry)
    }

    /// The underlying memory engine (for access statistics).
    #[inline]
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// Mutable access to the memory engine.
    pub fn mem_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    /// The slab allocator (for its statistics).
    pub fn allocator(&self) -> &SlabAllocator {
        &self.alloc
    }

    /// Number of KV pairs stored.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns `true` if the table stores nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of hash-index buckets.
    pub fn n_buckets(&self) -> u64 {
        self.n_buckets
    }

    /// Logical KV bytes stored.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_kv_bytes
    }

    /// Memory utilization: stored KV bytes over total memory (the paper's
    /// metric, preferred over load factor).
    pub fn memory_utilization(&self) -> f64 {
        self.stored_kv_bytes as f64 / self.total_memory as f64
    }

    fn bucket_addr(&self, primary: u64) -> u64 {
        primary % self.n_buckets * BUCKET_BYTES as u64
    }

    fn chain_to_addr(&self, ptr: u32) -> u64 {
        self.dyn_base + ptr as u64 * GRANULE
    }

    fn addr_to_ptr(&self, addr: u64) -> u32 {
        debug_assert!(addr >= self.dyn_base);
        debug_assert_eq!((addr - self.dyn_base) % GRANULE, 0);
        ((addr - self.dyn_base) / GRANULE) as u32
    }

    /// Reads a bucket into a caller-provided fixed 64-byte buffer — the
    /// probing paths walk it raw (no `Bucket` decode, no allocation).
    fn read_bucket_raw(&mut self, addr: u64, bytes: &mut [u8; BUCKET_BYTES], cost: &mut u64) {
        self.mem.read(addr, bytes);
        *cost += 1;
    }

    fn write_bucket(&mut self, addr: u64, bucket: &Bucket, cost: &mut u64) {
        self.mem.write(addr, &bucket.encode());
        *cost += 1;
    }

    /// Reads a slab KV record into the table-owned scratch buffer,
    /// returning its key and value lengths.
    fn read_kv_scratch(&mut self, ptr: u32, class: SlabClass, cost: &mut u64) -> (usize, usize) {
        let (addr, size) = (self.chain_to_addr(ptr), class.size() as usize);
        // Grow-only, never refilled: the read overwrites all `size` bytes.
        self.kv_scratch.resize(self.kv_scratch.len().max(size), 0);
        self.mem.read(addr, &mut self.kv_scratch[..size]);
        *cost += 1;
        let klen = self.kv_scratch[0] as usize;
        let vlen = u16::from_le_bytes([self.kv_scratch[1], self.kv_scratch[2]]) as usize;
        (klen, vlen)
    }

    fn scratch_key(&self, klen: usize) -> &[u8] {
        &self.kv_scratch[KV_HEADER..KV_HEADER + klen]
    }

    fn scratch_expiry(&self) -> u32 {
        u32::from_le_bytes([
            self.kv_scratch[3],
            self.kv_scratch[4],
            self.kv_scratch[5],
            self.kv_scratch[6],
        ])
    }

    fn write_kv_data(
        &mut self,
        addr: u64,
        class: SlabClass,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        cost: &mut u64,
    ) {
        // Zero-filled up to the class size so slab padding bytes stay
        // deterministic (the ledger oracle sees identical memory images).
        self.kv_scratch.clear();
        self.kv_scratch.resize(class.size() as usize, 0);
        encode_kv(&mut self.kv_scratch, key, value, expiry);
        self.mem.write(addr, &self.kv_scratch);
        *cost += 1;
    }

    fn free_record(&mut self, slab: Option<(u32, SlabClass)>) {
        if let Some((ptr, class)) = slab {
            self.alloc.free(SlabAddr {
                addr: self.chain_to_addr(ptr),
                class,
            });
        }
    }

    /// The one chain walk (paper §3.3.1). Reads the chain of `h` bucket by
    /// bucket into `bytes`, matching inline keys in place; a pointer slot
    /// costs one more access, for its slab record, only when its 9-bit
    /// secondary hash matches (the full key is always checked: the hash
    /// can false-positive). Stops at the first entry whose key matches,
    /// dead or alive, leaving its bucket in `bytes` and, for a slab entry,
    /// its record in the scratch buffer. `on_bucket` sees each bucket that
    /// held no match before the walk leaves it.
    #[inline]
    fn find(
        &mut self,
        key: &[u8],
        h: KeyHashes,
        bytes: &mut [u8; BUCKET_BYTES],
        cost: &mut u64,
        mut on_bucket: impl FnMut(u64, &[u8; BUCKET_BYTES]),
    ) -> Probe {
        let mut addr = self.bucket_addr(h.primary);
        loop {
            self.read_bucket_raw(addr, bytes, cost);
            for e in RawEntries::new(bytes) {
                let (slot, slab, value, expiry) = match e {
                    RawEntry::Inline {
                        slot,
                        key: k,
                        value: v,
                        expiry,
                        ..
                    } => {
                        if k != key {
                            continue;
                        }
                        let at = slot * SLOT_BYTES + INLINE_HEADER + k.len();
                        (slot, None, at..at + v.len(), expiry)
                    }
                    RawEntry::Pointer { slot, raw, class } => {
                        if !swar::sec_matches(raw, h.secondary) {
                            continue;
                        }
                        let ptr = swar::slot_ptr(raw);
                        let (klen, vlen) = self.read_kv_scratch(ptr, class, cost);
                        if self.scratch_key(klen) != key {
                            continue;
                        }
                        let at = KV_HEADER + klen;
                        let slab = Some((ptr, class));
                        (slot, slab, at..at + vlen, self.scratch_expiry())
                    }
                };
                return Probe::Found(Found {
                    addr,
                    slot,
                    slab,
                    kv_len: key.len() + value.len(),
                    value,
                    dead: self.is_dead(expiry),
                });
            }
            on_bucket(addr, bytes);
            match swar::chain_of(bytes) {
                Some(p) => addr = self.chain_to_addr(p),
                None => return Probe::End(addr),
            }
        }
    }

    /// Removes the entry starting at `slot` from `bucket` (the caller
    /// writes it back), frees its slab record and takes it out of the
    /// occupancy counts. A `dead` entry is the expiry plane's: whether a
    /// probe or the reaper found it, it is charged to the reaped counters.
    fn reclaim_slot(
        &mut self,
        bucket: &mut Bucket,
        slot: usize,
        slab: Option<(u32, SlabClass)>,
        kv_len: usize,
        dead: bool,
    ) {
        bucket.remove(slot);
        self.free_record(slab);
        self.count -= 1;
        self.stored_kv_bytes -= kv_len as u64;
        if dead {
            self.expiry.reaped_entries += 1;
            self.expiry.reaped_bytes += kv_len as u64;
        }
    }

    /// Removes the entry a probe found (bucket image `bytes`) and writes
    /// its bucket back. A dead entry is the lazy half of the expiry plane
    /// and is charged `lazy_expired` as well.
    fn remove_found(&mut self, bytes: &[u8; BUCKET_BYTES], f: &Found, cost: &mut u64) {
        let mut bucket = Bucket::decode(bytes);
        if f.dead {
            self.expiry.lazy_expired += 1;
        }
        self.reclaim_slot(&mut bucket, f.slot, f.slab, f.kv_len, f.dead);
        self.write_bucket(f.addr, &bucket, cost);
    }

    /// Hints the host line of `h`'s first bucket, which any operation on
    /// the key reads first. Reads and counts nothing (see
    /// [`MemoryEngine::prefetch`]).
    #[inline]
    pub fn prefetch_bucket(&self, h: KeyHashes) {
        self.mem.prefetch(self.bucket_addr(h.primary));
    }

    /// Hints every line of each slab record that `h`'s first bucket names
    /// in a live pointer slot tagged with `h`'s secondary hash: the
    /// records the chain walk would read there. The bucket is
    /// borrowed through [`MemoryEngine::peek_line`], so this too counts
    /// nothing; it is worth calling once the bucket's own
    /// [`prefetch_bucket`](Self::prefetch_bucket) has had time to land.
    /// A bucket without pointer slots costs a few word operations.
    #[inline(always)] // `#[inline]` alone left one call per staged op
    pub fn prefetch_records(&self, h: KeyHashes) {
        let Some(bytes) = self.mem.peek_line(self.bucket_addr(h.primary)) else {
            return;
        };
        if swar::pointer_type_bits(bytes) == 0 {
            return;
        }
        let mut tagged = swar::probe_candidates(bytes, h.secondary);
        while tagged != 0 {
            let slot = tagged.trailing_zeros() as usize;
            tagged &= tagged - 1;
            let Some(class) = SlabClass::from_type_field(swar::slot_type(bytes, slot)) else {
                continue;
            };
            let start = self.chain_to_addr(swar::slot_ptr(swar::slot_raw(bytes, slot)));
            for line in (start / LINE..(start + class.size()).div_ceil(LINE)).map(|l| l * LINE) {
                self.mem.prefetch(line);
            }
        }
    }

    /// Looks up `key` into a caller-owned buffer, with the operation
    /// cost. On a hit, `out` is cleared and filled with the value; on a
    /// miss it is left untouched. Steady state performs zero heap
    /// allocations: the bucket walk is raw ([`RawEntries`]) and slab
    /// records land in the table's scratch buffer. An expired hit is a
    /// miss that reclaims the entry in place (bucket write-back + slab
    /// free) — the lazy half of the expiry plane.
    pub fn get_into_with_cost(&mut self, key: &[u8], out: &mut Vec<u8>) -> (bool, OpCost) {
        self.get_hashed(key, hash_key(key), out)
    }

    /// [`Self::get_into_with_cost`] for a caller holding `h = hash_key(key)`.
    pub fn get_hashed(&mut self, key: &[u8], h: KeyHashes, out: &mut Vec<u8>) -> (bool, OpCost) {
        let mut cost = 0u64;
        let mut bytes = [0u8; BUCKET_BYTES];
        let hit = match self.find(key, h, &mut bytes, &mut cost, |_, _| {}) {
            Probe::Found(f) if f.dead => {
                self.remove_found(&bytes, &f, &mut cost);
                false
            }
            Probe::Found(f) => {
                let src = if f.slab.is_some() {
                    &self.kv_scratch[..]
                } else {
                    &bytes[..]
                };
                out.clear();
                out.extend_from_slice(&src[f.value]);
                true
            }
            Probe::End(_) => false,
        };
        (
            hit,
            OpCost {
                accesses: cost,
                hit,
            },
        )
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.get_into_with_cost(key, &mut out).0.then_some(out)
    }

    /// Inserts or replaces `key → value`, with the operation cost.
    ///
    /// Returns `hit = true` when an existing key was replaced.
    pub fn put_with_cost(&mut self, key: &[u8], value: &[u8]) -> Result<OpCost, HashError> {
        self.put_hashed(key, hash_key(key), value, 0)
    }

    /// Inserts or replaces `key → value` with a lifecycle stamp
    /// (`expiry_tick` of 0 = immortal), with the operation cost, for a
    /// caller holding `h = hash_key(key)`.
    ///
    /// Returns `hit = true` when a *live* existing key was replaced;
    /// overwriting a dead entry is physically a replacement but logically
    /// an insert, so it reports `hit = false` (and charges
    /// `expired_overwrites`).
    pub fn put_hashed(
        &mut self,
        key: &[u8],
        h: KeyHashes,
        value: &[u8],
        expiry_tick: u32,
    ) -> Result<OpCost, HashError> {
        self.write(key, h, expiry_tick, |_| Some(value)).1
    }

    /// An atomic read-modify-write of `key` (the paper's λ update), for a
    /// caller holding `h = hash_key(key)`: `modify` maps the key's live
    /// value (`None`: absent or dead) to its new one (`None`: delete),
    /// which is stored unstamped in the same chain walk — one bucket read
    /// and one write for an inline entry. Returns the new value, or why it
    /// could not be stored (the key then keeps its old value).
    pub fn update_hashed(
        &mut self,
        key: &[u8],
        h: KeyHashes,
        modify: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    ) -> Result<Option<Vec<u8>>, HashError> {
        let (new, stored) = self.write(key, h, 0, modify);
        stored.map(|_| new)
    }

    /// The one write walk of PUT, DELETE and update: reads `key`'s chain
    /// once, hands `modify` the key's live value (`None`: absent or dead)
    /// and stores what it returns (`None`: delete) where the walk stopped.
    /// Returns it with the write's cost (`hit`: a live entry was replaced
    /// or deleted), or why it could not be stored.
    #[inline]
    fn write<V: AsRef<[u8]>>(
        &mut self,
        key: &[u8],
        h: KeyHashes,
        expiry_tick: u32,
        modify: impl FnOnce(Option<&[u8]>) -> Option<V>,
    ) -> (Option<V>, Result<OpCost, HashError>) {
        if key.is_empty() || key.len() > u8::MAX as usize {
            return (None, Err(HashError::KeyTooLarge));
        }
        if expiry_tick != 0 {
            self.expiry.ttl_puts += 1;
        }
        let mut cost = 0u64;
        // Buckets stay in their 64-byte wire form; a `Bucket` is decoded
        // only for the one bucket that gets mutated. The new entry's size
        // is known only once the walk ends, so each bucket with more free
        // slots than every one before it is remembered: the first bucket
        // with room for the entry is among them.
        let mut roomy = std::mem::take(&mut self.roomy);
        roomy.clear();
        let mut bytes = [0u8; BUCKET_BYTES];
        let probe = self.find(key, h, &mut bytes, &mut cost, |addr, b| {
            let free = swar::free_slots_of(b);
            if free > roomy.last().map_or(0, |r| r.1) {
                roomy.push((addr, free, *b));
            }
        });
        let new = match &probe {
            Probe::Found(f) if !f.dead => {
                let src = if f.slab.is_some() {
                    &self.kv_scratch[..]
                } else {
                    &bytes[..]
                };
                modify(Some(&src[f.value.clone()]))
            }
            _ => modify(None),
        };
        let stored = match (probe, new.as_ref().map(AsRef::as_ref)) {
            (Probe::Found(f), Some(v)) => {
                self.replace(&bytes, f, key, h.secondary, v, expiry_tick, cost)
            }
            (Probe::End(last), Some(v)) => {
                self.insert(&bytes, last, &roomy, key, h.secondary, v, expiry_tick, cost)
            }
            (probe, None) => {
                let hit = matches!(&probe, Probe::Found(f) if !f.dead);
                if let Probe::Found(f) = probe {
                    self.remove_found(&bytes, &f, &mut cost);
                }
                Ok(OpCost {
                    accesses: cost,
                    hit,
                })
            }
        };
        self.roomy = roomy;
        (new, stored)
    }

    /// A new entry, after a walk that ended at bucket `last_addr` (image
    /// `bytes`): in the first of the `roomy` buckets with room for it, or
    /// else in a fresh 64B bucket from the slab allocator that extends the
    /// chain. Both allocations come before any write: a write that fails
    /// writes nothing, so no chain ever names a bucket that was not written.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn insert(
        &mut self,
        bytes: &[u8; BUCKET_BYTES],
        last_addr: u64,
        roomy: &[(u64, usize, [u8; BUCKET_BYTES])],
        key: &[u8],
        sec: u16,
        value: &[u8],
        expiry_tick: u32,
        mut cost: u64,
    ) -> Result<OpCost, HashError> {
        let kv_len = key.len() + value.len();
        let inline_ok = self.fits_inline(key, value);
        let need = if inline_ok {
            Bucket::inline_slots_needed(kv_len)
        } else {
            1
        };
        let candidate = roomy.iter().find(|&&(_, free, _)| free >= need);
        let (target_addr, mut target, fresh) = match candidate {
            Some((addr, _, raw)) => (*addr, Bucket::decode(raw), None),
            None => {
                let slab = self
                    .alloc
                    .alloc(BUCKET_BYTES as u64)
                    .ok_or(HashError::OutOfMemory)?;
                debug_assert_eq!(slab.class.size(), BUCKET_BYTES as u64);
                (slab.addr, Bucket::empty(), Some(slab))
            }
        };
        let record = if inline_ok {
            None
        } else {
            let record = self.alloc_kv(key, value);
            if let (Err(_), Some(fresh)) = (&record, fresh) {
                self.alloc.free(fresh);
            }
            Some(record?)
        };
        if fresh.is_some() {
            let mut last_bucket = Bucket::decode(bytes);
            last_bucket.set_chain(Some(self.addr_to_ptr(target_addr)));
            self.write_bucket(last_addr, &last_bucket, &mut cost);
        }
        match record {
            None => target.insert_inline_expiring(key, value, expiry_tick),
            Some(slab) => {
                self.write_kv_data(slab.addr, slab.class, key, value, expiry_tick, &mut cost);
                target.insert_pointer(self.addr_to_ptr(slab.addr), sec, slab.class)
            }
        }
        .expect("the target bucket has room");
        self.write_bucket(target_addr, &target, &mut cost);
        self.count += 1;
        self.stored_kv_bytes += kv_len as u64;
        Ok(OpCost {
            accesses: cost,
            hit: false,
        })
    }

    /// A PUT over the entry a probe found, dead or alive, in its bucket
    /// (image `bytes`). An inline-size KV goes into the bucket if it fits;
    /// otherwise a record of the old slab class is overwritten in place
    /// (the bucket in memory still names it), and anything else moves to
    /// a fresh slab record. A physical overwrite of a dead entry reports
    /// `hit = false`: the caller observed an insert, not a replacement.
    #[allow(clippy::too_many_arguments)]
    fn replace(
        &mut self,
        bytes: &[u8; BUCKET_BYTES],
        f: Found,
        key: &[u8],
        sec: u16,
        value: &[u8],
        expiry_tick: u32,
        mut cost: u64,
    ) -> Result<OpCost, HashError> {
        let kv_len = key.len() + value.len();
        let inline_ok = self.fits_inline(key, value);
        // The decoded copy is written back only on the paths that move
        // the entry, so the old one can leave it up front.
        let mut bucket = Bucket::decode(bytes);
        bucket.remove(f.slot);
        if inline_ok
            && bucket
                .insert_inline_expiring(key, value, expiry_tick)
                .is_some()
        {
            self.write_bucket(f.addr, &bucket, &mut cost);
            self.free_record(f.slab);
        } else {
            match f.slab {
                Some((ptr, class)) if kv_data_len(key, value) <= class.size() => {
                    let data_addr = self.chain_to_addr(ptr);
                    self.write_kv_data(data_addr, class, key, value, expiry_tick, &mut cost);
                }
                old => {
                    let slab = self.alloc_kv(key, value)?;
                    self.write_kv_data(slab.addr, slab.class, key, value, expiry_tick, &mut cost);
                    bucket
                        .insert_pointer(self.addr_to_ptr(slab.addr), sec, slab.class)
                        .expect("removing the old entry freed a slot");
                    self.write_bucket(f.addr, &bucket, &mut cost);
                    self.free_record(old);
                }
            }
        }
        self.stored_kv_bytes = self.stored_kv_bytes - f.kv_len as u64 + kv_len as u64;
        if f.dead {
            self.expiry.expired_overwrites += 1;
        }
        Ok(OpCost {
            accesses: cost,
            hit: !f.dead,
        })
    }

    /// Whether a KV is stored inline: within the inline threshold, with a
    /// value length that fits the run header's byte.
    fn fits_inline(&self, key: &[u8], value: &[u8]) -> bool {
        key.len() + value.len() <= self.inline_threshold && value.len() <= u8::MAX as usize
    }

    fn alloc_kv(&mut self, key: &[u8], value: &[u8]) -> Result<SlabAddr, HashError> {
        let need = kv_data_len(key, value);
        match self.alloc.alloc(need) {
            Some(s) => Ok(s),
            None => {
                // Distinguish "value can never fit" from "out of memory".
                let fits_ladder = kvd_slab::SlabClass::for_size(need)
                    .is_some_and(|c| c <= self.alloc.config().max_class);
                if fits_ladder {
                    Err(HashError::OutOfMemory)
                } else {
                    Err(HashError::ValueTooLarge)
                }
            }
        }
    }

    /// Inserts or replaces `key → value`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<bool, HashError> {
        self.put_with_cost(key, value).map(|c| c.hit)
    }

    /// Deletes `key`, returning whether it existed, with the cost. A dead
    /// entry is reclaimed but reported as "did not exist".
    pub fn delete_with_cost(&mut self, key: &[u8]) -> (bool, OpCost) {
        self.delete_hashed(key, hash_key(key))
    }

    /// [`Self::delete_with_cost`] for a caller holding `h = hash_key(key)`.
    /// A key no entry can have is not looked up.
    pub fn delete_hashed(&mut self, key: &[u8], h: KeyHashes) -> (bool, OpCost) {
        let (_, cost) = self.write(key, h, 0, |_| None::<&[u8]>);
        let cost = cost.unwrap_or_default();
        (cost.hit, cost)
    }

    /// Deletes `key`, returning whether it existed.
    #[inline]
    pub fn delete(&mut self, key: &[u8]) -> bool {
        self.delete_with_cost(key).0
    }

    /// Inserts or replaces `key → value` with a lifecycle stamp.
    #[inline]
    pub fn put_ttl(
        &mut self,
        key: &[u8],
        value: &[u8],
        expiry_tick: u32,
    ) -> Result<bool, HashError> {
        self.put_hashed(key, hash_key(key), value, expiry_tick)
            .map(|c| c.hit)
    }

    /// Rewrites the lifecycle stamp of a live `key` (memcache `touch`).
    /// Returns `false` when the key is absent or dead (a dead entry is
    /// reclaimed on the way out).
    pub fn touch(&mut self, key: &[u8], expiry_tick: u32) -> bool {
        let mut cost = 0u64;
        let mut bytes = [0u8; BUCKET_BYTES];
        let f = match self.find(key, hash_key(key), &mut bytes, &mut cost, |_, _| {}) {
            Probe::Found(f) => f,
            Probe::End(_) => return false,
        };
        if f.dead {
            self.remove_found(&bytes, &f, &mut cost);
            return false;
        }
        let stamp = expiry_tick.to_le_bytes();
        match f.slab {
            // Patch the stamp in the raw image — the run header's expiry
            // bytes live at offsets 2..6 of the run — and write it back.
            None => {
                let at = f.slot * SLOT_BYTES + 2;
                bytes[at..at + 4].copy_from_slice(&stamp);
                self.mem.write(f.addr, &bytes);
            }
            // Patch the stamp in scratch (still holds this record) and
            // rewrite the slab record in place.
            Some((ptr, class)) => {
                self.kv_scratch[3..7].copy_from_slice(&stamp);
                let data_addr = self.chain_to_addr(ptr);
                self.mem
                    .write(data_addr, &self.kv_scratch[..class.size() as usize]);
            }
        }
        self.expiry.touches += 1;
        true
    }

    /// One bounded reaper pass: scans up to `max_buckets` bucket frames
    /// (primary buckets and their chained frames each count one) starting
    /// from a persistent cursor, reclaiming every dead entry found
    /// through the normal free path. Deterministic: same table state +
    /// same clock ⇒ same sweep.
    pub fn sweep_expired(&mut self, max_buckets: u64) -> SweepCost {
        let mut out = SweepCost::default();
        if max_buckets == 0 || self.n_buckets == 0 {
            return out;
        }
        self.expiry.sweep_passes += 1;
        let mut bytes = [0u8; BUCKET_BYTES];
        let mut budget = max_buckets;
        while budget > 0 {
            let mut addr = self.bucket_addr(self.sweep_cursor);
            self.sweep_cursor = (self.sweep_cursor + 1) % self.n_buckets;
            // Walk the whole chain of this primary bucket, spending one
            // budget unit per frame; a chain longer than the remaining
            // budget is still finished (bounded by chain length).
            loop {
                self.read_bucket_raw(addr, &mut bytes, &mut out.accesses);
                out.scanned += 1;
                self.expiry.sweep_buckets += 1;
                budget = budget.saturating_sub(1);
                out.reclaimed += self.sweep_frame(addr, &mut bytes, &mut out.accesses);
                match swar::chain_of(&bytes) {
                    Some(p) => addr = self.chain_to_addr(p),
                    None => break,
                }
            }
            if budget == 0 {
                break;
            }
        }
        out
    }

    /// Reclaims every dead entry in one 64-byte frame; returns how many.
    /// Decodes the frame at most once and writes it back at most once.
    fn sweep_frame(&mut self, addr: u64, bytes: &mut [u8; BUCKET_BYTES], cost: &mut u64) -> u64 {
        // Dead entries staged for reclaim (slot, slab record, KV bytes):
        // fixed-size, no allocation, at most one per slot.
        let mut dead = [(0, None, 0); SLOTS_PER_BUCKET];
        let mut n_dead = 0usize;
        for e in RawEntries::new(bytes) {
            let (slot, slab, kv_len, expiry) = match e {
                RawEntry::Inline {
                    slot,
                    key,
                    value,
                    expiry,
                    ..
                } => (slot, None, key.len() + value.len(), expiry),
                // A pointer entry's stamp is in its slab record: one
                // extra access per pointer slot, the reaper's price.
                RawEntry::Pointer { slot, raw, class } => {
                    let ptr = swar::slot_ptr(raw);
                    let (klen, vlen) = self.read_kv_scratch(ptr, class, cost);
                    (slot, Some((ptr, class)), klen + vlen, self.scratch_expiry())
                }
            };
            if self.is_dead(expiry) {
                dead[n_dead] = (slot, slab, kv_len);
                n_dead += 1;
            }
        }
        if n_dead == 0 {
            return 0;
        }
        // `Bucket::remove` only clears bits — it never shifts other
        // entries — so removal order is irrelevant.
        let mut bucket = Bucket::decode(bytes);
        for &(slot, slab, kv_len) in &dead[..n_dead] {
            self.reclaim_slot(&mut bucket, slot, slab, kv_len, true);
        }
        // Keep the caller's view of the frame current (chain pointer is
        // preserved by remove, but the slot image changed).
        *bytes = bucket.encode();
        self.mem.write(addr, bytes);
        *cost += 1;
        n_dead as u64
    }
}

/// A key's entry, where [`HashTable::find`] stopped.
struct Found {
    /// Address of the bucket holding it.
    addr: u64,
    /// Its first slot.
    slot: usize,
    /// The slab record `(ptr, class)` holding it, or `None` when inline.
    slab: Option<(u32, SlabClass)>,
    /// The value's bytes: in the bucket image when inline, in the scratch
    /// buffer when in a slab record.
    value: Range<usize>,
    /// Logical KV bytes (key + value).
    kv_len: usize,
    /// Whether its stamp has passed.
    dead: bool,
}

/// How a chain walk ended.
enum Probe {
    /// The first entry whose key matched, dead or alive.
    Found(Found),
    /// No entry matched; the address of the chain's last bucket, whose
    /// image the walk left in its buffer.
    End(u64),
}

/// Slab KV record header: 1-byte key length + 2-byte value length +
/// 4-byte expiry stamp (little-endian tick; 0 = immortal).
pub const KV_HEADER: usize = 7;

/// Slab bytes needed for a non-inline KV: header + payloads.
fn kv_data_len(key: &[u8], value: &[u8]) -> u64 {
    KV_HEADER as u64 + key.len() as u64 + value.len() as u64
}

fn encode_kv(buf: &mut [u8], key: &[u8], value: &[u8], expiry: u32) {
    buf[0] = key.len() as u8;
    buf[1..3].copy_from_slice(&(value.len() as u16).to_le_bytes());
    buf[3..7].copy_from_slice(&expiry.to_le_bytes());
    buf[KV_HEADER..KV_HEADER + key.len()].copy_from_slice(key);
    buf[KV_HEADER + key.len()..KV_HEADER + key.len() + value.len()].copy_from_slice(value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BucketEntry;
    use kvd_mem::FlatMemory;
    use kvd_sim::OpLedger;

    fn table(mem_bytes: u64, ratio: f64, inline: usize) -> HashTable<FlatMemory> {
        HashTable::new(
            FlatMemory::new(mem_bytes),
            HashTableConfig::new(mem_bytes, ratio, inline),
        )
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut t = table(1 << 20, 0.5, 24);
        assert!(!t.put(b"hello", b"world").unwrap());
        assert_eq!(t.get(b"hello").unwrap(), b"world");
        assert_eq!(t.len(), 1);
        assert!(t.put(b"hello", b"earth").unwrap(), "replace reports hit");
        assert_eq!(t.get(b"hello").unwrap(), b"earth");
        assert_eq!(t.len(), 1);
        assert!(t.delete(b"hello"));
        assert_eq!(t.get(b"hello"), None);
        assert!(!t.delete(b"hello"));
        assert_eq!(t.len(), 0);
        assert_eq!(t.stored_bytes(), 0);
    }

    #[test]
    fn inline_get_costs_one_access() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put(b"k1", b"v1").unwrap();
        let mut v = Vec::new();
        let (hit, cost) = t.get_into_with_cost(b"k1", &mut v);
        assert!(hit);
        assert_eq!(v, b"v1");
        assert_eq!(cost.accesses, 1, "inline GET = 1 bucket read");
    }

    #[test]
    fn inline_put_costs_two_accesses() {
        let mut t = table(1 << 20, 0.5, 24);
        let cost = t.put_with_cost(b"k1", b"v1").unwrap();
        assert_eq!(cost.accesses, 2, "inline PUT = bucket read + write");
        // Replacement too.
        let cost = t.put_with_cost(b"k1", b"v2").unwrap();
        assert_eq!(cost.accesses, 2);
    }

    #[test]
    fn noninline_adds_one_access() {
        let mut t = table(1 << 20, 0.5, 24);
        let value = vec![7u8; 100]; // beyond threshold
        let cost = t.put_with_cost(b"key", &value).unwrap();
        assert_eq!(cost.accesses, 3, "read bucket + write data + write bucket");
        let mut v = Vec::new();
        let (hit, cost) = t.get_into_with_cost(b"key", &mut v);
        assert!(hit);
        assert_eq!(v, value);
        assert_eq!(cost.accesses, 2, "read bucket + read data");
        // In-place same-class update: read bucket + read old data (key
        // check) + write data.
        let cost = t.put_with_cost(b"key", &[8u8; 101]).unwrap();
        assert_eq!(cost.accesses, 3);
        assert_eq!(t.get(b"key").unwrap(), vec![8u8; 101]);
    }

    #[test]
    fn update_walks_the_chain_once() {
        let mut t = table(1 << 20, 0.5, 24);
        let h = hash_key(b"ctr");
        let mut seen = Vec::new();
        let mut add = |t: &mut HashTable<FlatMemory>| {
            t.update_hashed(b"ctr", h, |old| {
                seen.push(old.map(<[u8]>::to_vec));
                let n = old.map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
                Some((n + 1).to_le_bytes().to_vec())
            })
        };
        // Absent: inserted by the same walk, one bucket read and one write.
        assert_eq!(add(&mut t), Ok(Some(1u64.to_le_bytes().to_vec())));
        let s = t.mem().stats();
        assert_eq!((s.dma_reads, s.dma_writes), (1, 1));
        t.mem_mut().reset_stats();
        // Present inline: the same.
        assert_eq!(add(&mut t), Ok(Some(2u64.to_le_bytes().to_vec())));
        let s = t.mem().stats();
        assert_eq!((s.dma_reads, s.dma_writes), (1, 1));
        // A slab-held value grows in place or moves; `None` deletes.
        let big = |_: Option<&[u8]>| Some(vec![9u8; 100]);
        assert_eq!(t.update_hashed(b"ctr", h, big), Ok(Some(vec![9u8; 100])));
        assert_eq!(t.get(b"ctr"), Some(vec![9u8; 100]));
        assert_eq!(t.update_hashed(b"ctr", h, |_| None), Ok(None));
        assert_eq!((t.get(b"ctr"), t.len(), t.stored_bytes()), (None, 0, 0));
        // A dead entry reads as absent and is overwritten in place.
        t.put_ttl(b"ctr", b"x", 5).unwrap();
        t.set_now_tick(5);
        add(&mut t).unwrap();
        assert_eq!(t.get(b"ctr"), Some(1u64.to_le_bytes().to_vec()));
        assert_eq!(t.expiry_stats().expired_overwrites, 1);
        let one = Some(1u64.to_le_bytes().to_vec());
        assert_eq!(seen, [None, one, None]);
    }

    #[test]
    fn update_inserts_where_a_put_would() {
        // Long chains with holes: an insert must land in the first bucket
        // with room for the new value, as a PUT picks it.
        let mut a = table(1 << 20, 0.0005, 24);
        let mut b = table(1 << 20, 0.0005, 24);
        for i in 0u32..200 {
            let k = format!("k{i}");
            let v = vec![i as u8; (i % 12) as usize];
            a.put(k.as_bytes(), &v).unwrap();
            let stored = b.update_hashed(k.as_bytes(), hash_key(k.as_bytes()), |_| Some(v));
            assert!(stored.is_ok());
            if i % 7 == 0 {
                assert!(a.delete(k.as_bytes()) && b.delete(k.as_bytes()));
            }
        }
        let image = |t: &mut HashTable<FlatMemory>| {
            let mut out = vec![0u8; 1 << 20];
            t.mem_mut().read(0, &mut out);
            out
        };
        assert!(image(&mut a) == image(&mut b), "same layout as PUT");
    }

    #[test]
    fn many_keys_roundtrip() {
        let mut t = table(1 << 22, 0.5, 24);
        let n = 2000u32;
        for i in 0..n {
            let k = format!("key-{i}");
            let v = format!("value-{}", i * 3);
            t.put(k.as_bytes(), v.as_bytes()).unwrap();
        }
        assert_eq!(t.len(), n as u64);
        for i in 0..n {
            let k = format!("key-{i}");
            assert_eq!(
                t.get(k.as_bytes()).unwrap(),
                format!("value-{}", i * 3).as_bytes()
            );
        }
        // Delete half, verify the rest.
        for i in (0..n).step_by(2) {
            assert!(t.delete(format!("key-{i}").as_bytes()));
        }
        for i in 0..n {
            let present = t.get(format!("key-{i}").as_bytes()).is_some();
            assert_eq!(present, i % 2 == 1);
        }
    }

    #[test]
    fn values_of_every_size_class() {
        let mut t = table(1 << 22, 0.25, 24);
        // 497 is the largest value fitting the paper's 512B slab class
        // beside an 8-byte key and the 7-byte data header.
        for size in [0usize, 1, 24, 25, 48, 49, 64, 100, 255, 256, 400, 497] {
            let key = format!("size-{size}");
            let value = vec![size as u8; size];
            t.put(key.as_bytes(), &value).unwrap();
            assert_eq!(t.get(key.as_bytes()).unwrap(), value, "size {size}");
        }
    }

    #[test]
    fn value_too_large_rejected() {
        let mut t = table(1 << 20, 0.5, 24);
        let huge = vec![0u8; 600]; // paper ladder tops at 512
        assert_eq!(t.put(b"k", &huge), Err(HashError::ValueTooLarge));
        // Extended ladder accepts it.
        let mut t = HashTable::new(
            FlatMemory::new(1 << 20),
            HashTableConfig {
                extended_slabs: true,
                ..HashTableConfig::new(1 << 20, 0.5, 24)
            },
        );
        t.put(b"k", &huge).unwrap();
        assert_eq!(t.get(b"k").unwrap(), huge);
    }

    /// Flat memory that records the lines it is asked to prefetch and
    /// the dense prefixes it is told of.
    struct Hinted {
        mem: FlatMemory,
        hints: std::cell::RefCell<Vec<u64>>,
        dense: std::cell::RefCell<Vec<u64>>,
    }

    impl Hinted {
        fn new(capacity: u64) -> Self {
            Hinted {
                mem: FlatMemory::new(capacity),
                hints: Default::default(),
                dense: Default::default(),
            }
        }
    }

    impl MemoryEngine for Hinted {
        fn read(&mut self, addr: u64, buf: &mut [u8]) {
            self.mem.read(addr, buf);
        }
        fn write(&mut self, addr: u64, data: &[u8]) {
            self.mem.write(addr, data);
        }
        fn capacity(&self) -> u64 {
            self.mem.capacity()
        }
        fn stats(&self) -> kvd_mem::AccessStats {
            self.mem.stats()
        }
        fn reset_stats(&mut self) {
            self.mem.reset_stats();
        }
        fn prefetch(&self, addr: u64) {
            self.mem.prefetch(addr);
            self.hints.borrow_mut().push(addr);
        }
        fn peek_line(&self, addr: u64) -> Option<&[u8; LINE as usize]> {
            self.mem.peek_line(addr)
        }
        fn dense_prefix(&self, len: u64) {
            self.mem.dense_prefix(len);
            self.dense.borrow_mut().push(len);
        }
    }

    /// The lines `prefetch_records(hash_key(key))` must hint, from the
    /// decoded first bucket: every line of each pointer entry tagged
    /// with the key's secondary hash.
    fn tagged_record_lines(t: &HashTable<Hinted>, key: &[u8]) -> Vec<u64> {
        let h = hash_key(key);
        let Some(bytes) = t.mem().peek_line(t.bucket_addr(h.primary)) else {
            return Vec::new();
        };
        let mut lines = Vec::new();
        for e in Bucket::decode(bytes).entries() {
            if let BucketEntry::Pointer {
                ptr, sec, class, ..
            } = e
            {
                if sec == h.secondary {
                    let addr = t.chain_to_addr(ptr);
                    let first = addr / LINE * LINE;
                    lines.extend((first..addr + class.size()).step_by(LINE as usize));
                }
            }
        }
        lines
    }

    #[test]
    fn prefetch_records_hints_exactly_the_tagged_records_and_counts_nothing() {
        // One bucket, so every key shares the first bucket and its chain.
        let mem_bytes = 1 << 16;
        let mut t = HashTable::new(
            Hinted::new(mem_bytes),
            HashTableConfig::new(mem_bytes, 64.0 / mem_bytes as f64, 8),
        );
        let keys: Vec<Vec<u8>> = (0..400u32).map(|i| format!("k{i}").into_bytes()).collect();
        let check = |t: &HashTable<Hinted>, what: &str| {
            let stats = t.mem().stats();
            let mut record_lines = 0;
            for key in &keys {
                t.mem().hints.borrow_mut().clear();
                t.prefetch_bucket(hash_key(key));
                assert_eq!(*t.mem().hints.borrow(), [0], "{what}: bucket of {key:?}");
                t.mem().hints.borrow_mut().clear();
                t.prefetch_records(hash_key(key));
                let expect = tagged_record_lines(t, key);
                assert_eq!(
                    *t.mem().hints.borrow(),
                    expect,
                    "{what}: records of {key:?}"
                );
                record_lines += expect.len();
            }
            assert_eq!(t.mem().stats(), stats, "{what}: a hint counted an access");
            record_lines
        };
        assert_eq!(check(&t, "empty table"), 0);
        // Inline only: no pointer slot, so no record hint.
        t.put(b"k0", b"v").unwrap();
        assert_eq!(check(&t, "inline bucket"), 0);
        // Slab records from half a line (some line-aligned, some not) to
        // several lines, until the first bucket is full and the rest
        // chains.
        for (i, key) in keys.iter().enumerate().take(12) {
            let len = if i < 4 { 10 } else { 40 * i };
            t.put(key, &vec![i as u8; len]).unwrap();
        }
        assert_eq!(swar::free_slots_of(t.mem().peek_line(0).unwrap()), 0);
        assert!(swar::chain_of(t.mem().peek_line(0).unwrap()).is_some());
        // Some of the 388 absent keys collide on a slot's 9-bit tag, and
        // the records they name are hinted for them too.
        let entries = Bucket::decode(t.mem().peek_line(0).unwrap()).entries();
        let collides = |k: &Vec<u8>| {
            let sec = hash_key(k).secondary;
            entries
                .iter()
                .any(|e| matches!(e, BucketEntry::Pointer { sec: s, .. } if *s == sec))
        };
        assert!(keys[12..].iter().any(collides), "no tag collision");
        let stored = check(&t, "full, chained bucket with colliding tags");
        assert!(stored > 0);
        // A dead record is still named by its slot, so still hinted.
        t.put_ttl(b"k1", &[1; 100], 5).unwrap();
        t.set_now_tick(10);
        assert!(check(&t, "dead entry") >= stored);
    }

    #[test]
    fn new_hints_exactly_the_bucket_array_and_counts_nothing() {
        let mem_bytes = 1 << 20;
        for ratio in [64.0 / mem_bytes as f64, 0.3, 0.5] {
            let cfg = HashTableConfig::new(mem_bytes, ratio, 24);
            let mut t = HashTable::new(Hinted::new(mem_bytes), cfg.clone());
            let mut plain = HashTable::new(FlatMemory::new(mem_bytes), cfg);
            assert_eq!(
                *t.mem().dense.borrow(),
                [t.n_buckets() * 64],
                "ratio {ratio}"
            );
            for i in 0..200u32 {
                let key = format!("k{i}").into_bytes();
                let value = vec![i as u8; i as usize % 90];
                assert_eq!(t.put(&key, &value), plain.put(&key, &value));
            }
            let stats = t.mem().stats();
            let ledger = (OpLedger::of(&t.mem().mem), OpLedger::of(t.allocator()));
            assert_eq!(stats, plain.mem().stats(), "ratio {ratio}");
            assert_eq!(
                ledger,
                (OpLedger::of(plain.mem()), OpLedger::of(plain.allocator()))
            );
            // Given again on a filled table, the hint still counts nothing.
            t.mem().dense_prefix(t.n_buckets() * 64);
            assert_eq!(t.mem().stats(), stats);
            assert_eq!(
                (OpLedger::of(&t.mem().mem), OpLedger::of(t.allocator())),
                ledger
            );
        }
    }

    #[test]
    fn collision_chains_work() {
        // Tiny index (1 bucket) forces every key into one chain.
        let mut t = HashTable::new(
            FlatMemory::new(1 << 16),
            HashTableConfig::new(1 << 16, 64.0 / (1 << 16) as f64, 24),
        );
        assert_eq!(t.n_buckets(), 1);
        for i in 0..100u32 {
            t.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(t.get(format!("k{i}").as_bytes()).unwrap(), b"v");
        }
        // Chain walks cost more than one access.
        let (_, cost) = t.get_into_with_cost(b"k99", &mut Vec::new());
        assert!(cost.accesses >= 1);
        // Deleting everything keeps the chain walkable.
        for i in 0..100u32 {
            assert!(t.delete(format!("k{i}").as_bytes()), "k{i}");
        }
        assert!(t.is_empty());
    }

    #[test]
    fn shrink_to_inline_reclaims_slab() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put(b"k", &[1u8; 200]).unwrap();
        let allocs_before = OpLedger::of(t.allocator()).slab.frees;
        t.put(b"k", b"small").unwrap();
        assert_eq!(t.get(b"k").unwrap(), b"small");
        assert!(
            OpLedger::of(t.allocator()).slab.frees > allocs_before,
            "slab freed"
        );
        let (_, cost) = t.get_into_with_cost(b"k", &mut Vec::new());
        assert_eq!(cost.accesses, 1, "now served inline");
    }

    #[test]
    fn grow_from_inline_to_slab() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put(b"k", b"small").unwrap();
        t.put(b"k", &vec![2u8; 300]).unwrap();
        assert_eq!(t.get(b"k").unwrap(), vec![2u8; 300]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put(b"abc", b"defg").unwrap(); // 7 bytes
        assert_eq!(t.stored_bytes(), 7);
        t.put(b"abc", b"de").unwrap(); // 5 bytes
        assert_eq!(t.stored_bytes(), 5);
        t.delete(b"abc");
        assert_eq!(t.stored_bytes(), 0);
        assert_eq!(t.memory_utilization(), 0.0);
    }

    #[test]
    fn empty_key_rejected() {
        let mut t = table(1 << 20, 0.5, 24);
        assert_eq!(t.put(b"", b"v"), Err(HashError::KeyTooLarge));
    }

    #[test]
    fn fill_until_oom_then_recover() {
        let mut t = table(1 << 14, 0.25, 24);
        let mut inserted = Vec::new();
        let mut i = 0u32;
        loop {
            let k = format!("key-{i}");
            match t.put(k.as_bytes(), &[0u8; 40]) {
                Ok(_) => inserted.push(k),
                Err(HashError::OutOfMemory) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            i += 1;
            assert!(i < 100_000, "table never filled");
        }
        assert!(!inserted.is_empty());
        // All inserted keys still readable at capacity.
        for k in &inserted {
            assert!(t.get(k.as_bytes()).is_some(), "{k} lost near OOM");
        }
        // Delete everything; memory is reusable.
        for k in &inserted {
            assert!(t.delete(k.as_bytes()));
        }
        assert!(t.put(b"after", &[0u8; 40]).is_ok());
    }

    #[test]
    fn failed_puts_leave_every_chain_walkable() {
        // Seven buckets in 16 KiB: slab-backed PUTs extend chains while
        // the slab region runs out, so some PUT gets a fresh chain bucket
        // (stale bytes of a freed record) and then no room for its record.
        // It must fail without a write: no bucket linked into the chain.
        let mut t = table(1 << 14, 7.0 * 64.0 / (1 << 14) as f64, 24);
        let mut model = std::collections::HashMap::new();
        let mut rng = kvd_sim::DetRng::seed(4);
        let mut ooms = 0;
        for _ in 0..3000 {
            let k = format!("k{}", rng.u64_below(300)).into_bytes();
            if rng.chance(0.6) {
                let v = vec![rng.u64() as u8; [8, 40, 100, 249, 480][rng.usize_below(5)]];
                let writes = t.mem().stats().dma_writes;
                match t.put(&k, &v) {
                    Ok(_) => drop(model.insert(k, v)),
                    Err(HashError::OutOfMemory) => {
                        assert_eq!(t.mem().stats().dma_writes, writes, "a failed PUT wrote");
                        ooms += 1;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            } else {
                assert_eq!(t.delete(&k), model.remove(&k).is_some());
            }
        }
        assert!(ooms > 0, "the slab region ran out");
        for (k, v) in &model {
            assert_eq!(t.get(k).as_ref(), Some(v));
        }
        assert_eq!(t.len(), model.len() as u64);
    }

    #[test]
    fn zero_length_value_inline() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put(b"empty", b"").unwrap();
        assert_eq!(t.get(b"empty").unwrap(), b"");
        assert!(t.delete(b"empty"));
    }

    #[test]
    fn lazy_expiry_inline_get_reclaims() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put_ttl(b"k", b"v", 10).unwrap();
        assert_eq!(t.get(b"k").unwrap(), b"v", "live before the deadline");
        t.set_now_tick(9);
        assert_eq!(t.get(b"k").unwrap(), b"v", "live at tick 9 < 10");
        t.set_now_tick(10);
        assert_eq!(t.get(b"k"), None, "dead once now >= stamp");
        assert_eq!(t.len(), 0, "lazy hit reclaimed the slot");
        assert_eq!(t.stored_bytes(), 0);
        let s = t.expiry_stats();
        assert_eq!(s.lazy_expired, 1);
        assert_eq!(s.reaped_entries, 1);
        assert_eq!(s.reaped_bytes, 2);
        // The slot is genuinely free: a different key can land there.
        t.put(b"k", b"reborn").unwrap();
        assert_eq!(t.get(b"k").unwrap(), b"reborn");
    }

    #[test]
    fn lazy_expiry_slab_get_frees_allocation() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put_ttl(b"big", &[7u8; 200], 5).unwrap();
        let frees_before = OpLedger::of(t.allocator()).slab.frees;
        t.set_now_tick(5);
        assert_eq!(t.get(b"big"), None);
        assert!(
            OpLedger::of(t.allocator()).slab.frees > frees_before,
            "slab record freed on lazy expiry"
        );
        assert_eq!(t.len(), 0);
        assert_eq!(t.stored_bytes(), 0);
    }

    #[test]
    fn immortal_entries_ignore_clock() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put(b"forever", b"v").unwrap();
        t.put_ttl(b"also-forever", &[1u8; 100], 0).unwrap();
        t.set_now_tick(u32::MAX);
        assert_eq!(t.get(b"forever").unwrap(), b"v");
        assert_eq!(t.get(b"also-forever").unwrap(), vec![1u8; 100]);
    }

    #[test]
    fn overwrite_of_dead_entry_is_insert() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put_ttl(b"k", b"old", 3).unwrap();
        t.set_now_tick(3);
        let cost = t.put_with_cost(b"k", b"new").unwrap();
        assert!(!cost.hit, "replacing a dead entry reports an insert");
        assert_eq!(t.expiry_stats().expired_overwrites, 1);
        assert_eq!(t.get(b"k").unwrap(), b"new");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_of_dead_entry_reports_absent() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put_ttl(b"k", b"v", 2).unwrap();
        t.set_now_tick(2);
        assert!(!t.delete(b"k"), "dead entry deletes as a miss");
        assert_eq!(t.len(), 0, "but is physically reclaimed");
    }

    #[test]
    fn touch_extends_inline_and_slab() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put_ttl(b"in", b"v", 10).unwrap();
        t.put_ttl(b"slab", &[9u8; 150], 10).unwrap();
        t.set_now_tick(8);
        assert!(t.touch(b"in", 20));
        assert!(t.touch(b"slab", 20));
        t.set_now_tick(15);
        assert_eq!(t.get(b"in").unwrap(), b"v", "touched past the old stamp");
        assert_eq!(t.get(b"slab").unwrap(), vec![9u8; 150]);
        t.set_now_tick(20);
        assert_eq!(t.get(b"in"), None);
        assert_eq!(t.get(b"slab"), None);
        assert_eq!(t.expiry_stats().touches, 2);
    }

    #[test]
    fn touch_misses_on_absent_or_dead() {
        let mut t = table(1 << 20, 0.5, 24);
        assert!(!t.touch(b"nope", 5));
        t.put_ttl(b"k", b"v", 2).unwrap();
        t.set_now_tick(2);
        assert!(!t.touch(b"k", 100), "dead entry cannot be revived");
        assert_eq!(t.len(), 0, "touch reclaimed the corpse");
        t.set_now_tick(200);
        assert_eq!(t.get(b"k"), None);
    }

    #[test]
    fn touch_can_make_immortal() {
        let mut t = table(1 << 20, 0.5, 24);
        t.put_ttl(b"k", b"v", 10).unwrap();
        assert!(t.touch(b"k", 0));
        t.set_now_tick(u32::MAX);
        assert_eq!(t.get(b"k").unwrap(), b"v");
    }

    #[test]
    fn sweep_reclaims_dead_entries() {
        let mut t = table(1 << 20, 0.5, 24);
        let n = 200u32;
        for i in 0..n {
            let k = format!("key-{i}");
            // Half expire at tick 10, half are immortal. Mix inline and
            // slab-backed values.
            let ttl = if i % 2 == 0 { 10 } else { 0 };
            if i % 3 == 0 {
                t.put_ttl(k.as_bytes(), &[i as u8; 120], ttl).unwrap();
            } else {
                t.put_ttl(k.as_bytes(), b"v", ttl).unwrap();
            }
        }
        assert_eq!(t.len(), n as u64);
        t.set_now_tick(10);
        // Sweep every bucket (budget covers the whole index).
        let mut reclaimed = 0;
        let mut guard = 0;
        while reclaimed < (n / 2) as u64 {
            let c = t.sweep_expired(t.n_buckets());
            reclaimed += c.reclaimed;
            guard += 1;
            assert!(guard < 16, "sweep never converged");
        }
        assert_eq!(t.len(), (n / 2) as u64, "all dead entries reaped");
        for i in 0..n {
            let present = t.get(format!("key-{i}").as_bytes()).is_some();
            assert_eq!(present, i % 2 == 1, "key-{i}");
        }
        let s = t.expiry_stats();
        assert_eq!(s.reaped_entries, (n / 2) as u64);
        assert!(s.sweep_buckets > 0);
    }

    #[test]
    fn sweep_budget_bounds_work() {
        let mut t = table(1 << 20, 0.5, 24);
        for i in 0..50u32 {
            t.put_ttl(format!("k{i}").as_bytes(), b"v", 1).unwrap();
        }
        t.set_now_tick(1);
        assert_eq!(t.sweep_expired(0).scanned, 0, "zero budget scans nothing");
        let c = t.sweep_expired(4);
        assert!(c.scanned >= 4, "budget consumed (chains may add frames)");
        // Cursor persists: repeated bounded sweeps eventually cover the
        // whole index.
        let mut total = c.reclaimed;
        for _ in 0..((t.n_buckets() / 4) + 2) {
            total += t.sweep_expired(4).reclaimed;
        }
        assert_eq!(total, 50, "bounded sweeps converge via the cursor");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let build = || {
            let mut t = table(1 << 20, 0.5, 24);
            for i in 0..100u32 {
                let ttl = if i % 4 == 0 { 7 } else { 0 };
                t.put_ttl(format!("k{i}").as_bytes(), &[i as u8; 30], ttl)
                    .unwrap();
            }
            t.set_now_tick(7);
            t
        };
        let mut a = build();
        let mut b = build();
        for _ in 0..8 {
            let ca = a.sweep_expired(16);
            let cb = b.sweep_expired(16);
            assert_eq!(ca, cb, "sweep cost identical for identical state");
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.expiry_stats(), b.expiry_stats());
    }

    #[test]
    fn expired_key_invisible_before_reclaim() {
        // A dead-but-unreclaimed entry must not satisfy false-positive
        // secondary-hash probes for other keys, and its bytes stay
        // counted until reclaim (physical accounting).
        let mut t = table(1 << 20, 0.5, 24);
        t.put_ttl(b"k", b"v", 1).unwrap();
        t.set_now_tick(1);
        assert_eq!(t.stored_bytes(), 2, "still counted while unreclaimed");
        assert_eq!(t.get(b"k"), None);
        assert_eq!(t.stored_bytes(), 0, "reclaim corrects accounting");
    }
}
