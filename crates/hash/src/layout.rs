//! Bucket wire format (paper Figure 5).
//!
//! Each 64-byte bucket packs:
//!
//! | bytes   | contents                                          |
//! |---------|---------------------------------------------------|
//! | 0..50   | 10 hash slots × 5 B (31-bit pointer + 9-bit hash) |
//! | 50..55  | 10 slab-type fields × 4 bits                      |
//! | 55..57  | `used` bitmap (10 bits, LE u16)                   |
//! | 57..59  | `start` bitmap (10 bits, LE u16)                  |
//! | 59..63  | chain pointer (31-bit, bit 31 = valid, LE u32)    |
//! | 63      | reserved                                          |
//!
//! Inline KVs re-purpose consecutive slots' bytes: a run begins at a slot
//! whose `start` bit is set and whose type field is 0, and continues
//! through slots whose `used` bit is set but `start` is clear. Run bytes
//! hold `[klen u8][vlen u8][exp u32 LE][key][value]` — `exp` is the
//! entry's lifecycle stamp in coarse expiry ticks (see
//! [`EXPIRY_TICK_US`]); 0 means the entry never expires.

use kvd_slab::SlabClass;

/// Hash slots per bucket (paper: 10).
pub const SLOTS_PER_BUCKET: usize = 10;
/// Bytes per hash slot (31-bit pointer + 9-bit secondary hash).
pub const SLOT_BYTES: usize = 5;
/// Bucket size in bytes, matching the PCIe DMA sweet spot.
pub const BUCKET_BYTES: usize = 64;
/// Header bytes of an inline KV (key length + value length + expiry
/// stamp).
pub const INLINE_HEADER: usize = 6;
/// Largest inline KV (key + value) a bucket can hold.
pub const MAX_INLINE_KV: usize = SLOTS_PER_BUCKET * SLOT_BYTES - INLINE_HEADER;

/// Microseconds of simulated time per expiry tick (1 ms). A u32 tick
/// stamp spans ~49.7 days — comfortably past memcached's 30-day
/// relative-exptime horizon — while one integer compare per probe keeps
/// the lifecycle check free on the hot path. Stamp 0 = immortal; an
/// entry is dead once `now_tick >= stamp`.
pub const EXPIRY_TICK_US: u64 = 1_000;

/// Converts a simulated-time microsecond count to an expiry tick.
#[inline]
pub fn tick_of_us(us: u64) -> u32 {
    (us / EXPIRY_TICK_US).min(u32::MAX as u64) as u32
}

/// One decoded entry of a bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BucketEntry {
    /// A KV pair stored inline across `nslots` slots starting at `slot`.
    Inline {
        /// First slot of the run.
        slot: usize,
        /// Number of slots the run occupies.
        nslots: usize,
        /// The key bytes.
        key: Vec<u8>,
        /// The value bytes.
        value: Vec<u8>,
        /// Expiry tick; 0 = never expires.
        expiry: u32,
    },
    /// A pointer to slab-allocated KV data.
    Pointer {
        /// The slot holding the pointer.
        slot: usize,
        /// 31-bit granule offset into the dynamic region.
        ptr: u32,
        /// 9-bit secondary hash of the key.
        sec: u16,
        /// Slab class of the target allocation.
        class: SlabClass,
    },
}

/// A decoded bucket; encode/decode is exact and lossless.
///
/// # Examples
///
/// ```
/// use kvd_hash::{Bucket, BucketEntry};
///
/// let mut b = Bucket::empty();
/// assert!(b.insert_inline_expiring(b"k", b"value", 0).is_some());
/// let bytes = b.encode();
/// let d = Bucket::decode(&bytes);
/// match &d.entries()[0] {
///     BucketEntry::Inline { key, value, .. } => {
///         assert_eq!(key, b"k");
///         assert_eq!(value, b"value");
///     }
///     _ => panic!("expected inline"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    slot_bytes: [u8; SLOTS_PER_BUCKET * SLOT_BYTES],
    types: [u8; SLOTS_PER_BUCKET],
    used: u16,
    start: u16,
    chain: Option<u32>,
}

impl Bucket {
    /// An empty bucket: no entries, no chain.
    pub fn empty() -> Self {
        Bucket {
            slot_bytes: [0; SLOTS_PER_BUCKET * SLOT_BYTES],
            types: [0; SLOTS_PER_BUCKET],
            used: 0,
            start: 0,
            chain: None,
        }
    }

    /// Decodes a bucket from its 64-byte wire form.
    pub fn decode(bytes: &[u8; BUCKET_BYTES]) -> Self {
        let mut slot_bytes = [0u8; SLOTS_PER_BUCKET * SLOT_BYTES];
        slot_bytes.copy_from_slice(&bytes[0..50]);
        let mut types = [0u8; SLOTS_PER_BUCKET];
        for (i, t) in types.iter_mut().enumerate() {
            let nib = bytes[50 + i / 2];
            *t = if i % 2 == 0 { nib & 0x0F } else { nib >> 4 };
        }
        let used = u16::from_le_bytes([bytes[55], bytes[56]]) & 0x3FF;
        let start = u16::from_le_bytes([bytes[57], bytes[58]]) & 0x3FF;
        let raw_chain = u32::from_le_bytes([bytes[59], bytes[60], bytes[61], bytes[62]]);
        let chain = if raw_chain & 0x8000_0000 != 0 {
            Some(raw_chain & 0x7FFF_FFFF)
        } else {
            None
        };
        Bucket {
            slot_bytes,
            types,
            used,
            start,
            chain,
        }
    }

    /// Encodes to the 64-byte wire form.
    pub fn encode(&self) -> [u8; BUCKET_BYTES] {
        let mut out = [0u8; BUCKET_BYTES];
        out[0..50].copy_from_slice(&self.slot_bytes);
        for i in 0..SLOTS_PER_BUCKET {
            debug_assert!(self.types[i] <= 0x0F, "type field overflow");
            if i % 2 == 0 {
                out[50 + i / 2] |= self.types[i] & 0x0F;
            } else {
                out[50 + i / 2] |= (self.types[i] & 0x0F) << 4;
            }
        }
        out[55..57].copy_from_slice(&self.used.to_le_bytes());
        out[57..59].copy_from_slice(&self.start.to_le_bytes());
        let raw_chain = match self.chain {
            Some(p) => {
                debug_assert!(p < 0x8000_0000, "chain pointer overflow");
                p | 0x8000_0000
            }
            None => 0,
        };
        out[59..63].copy_from_slice(&raw_chain.to_le_bytes());
        out
    }

    /// The chain pointer (31-bit granule offset), if any.
    pub fn chain(&self) -> Option<u32> {
        self.chain
    }

    /// Sets or clears the chain pointer.
    pub fn set_chain(&mut self, chain: Option<u32>) {
        if let Some(p) = chain {
            assert!(p < 0x8000_0000, "chain pointer overflow");
        }
        self.chain = chain;
    }

    fn is_used(&self, slot: usize) -> bool {
        self.used & (1 << slot) != 0
    }

    fn is_start(&self, slot: usize) -> bool {
        self.start & (1 << slot) != 0
    }

    /// Number of free slots.
    pub fn free_slots(&self) -> usize {
        SLOTS_PER_BUCKET - (self.used & 0x3FF).count_ones() as usize
    }

    /// Decodes all entries.
    pub fn entries(&self) -> Vec<BucketEntry> {
        let mut out = Vec::new();
        let mut slot = 0;
        while slot < SLOTS_PER_BUCKET {
            if !self.is_used(slot) || !self.is_start(slot) {
                slot += 1;
                continue;
            }
            if self.types[slot] != 0 {
                let (ptr, sec) = self.decode_slot(slot);
                let class = SlabClass::from_type_field(self.types[slot])
                    .expect("nonzero type field validated on insert");
                out.push(BucketEntry::Pointer {
                    slot,
                    ptr,
                    sec,
                    class,
                });
                slot += 1;
            } else {
                let mut nslots = 1;
                while slot + nslots < SLOTS_PER_BUCKET
                    && self.is_used(slot + nslots)
                    && !self.is_start(slot + nslots)
                    && self.types[slot + nslots] == 0
                {
                    nslots += 1;
                }
                let run = &self.slot_bytes[slot * SLOT_BYTES..(slot + nslots) * SLOT_BYTES];
                let klen = run[0] as usize;
                let vlen = run[1] as usize;
                let expiry = u32::from_le_bytes([run[2], run[3], run[4], run[5]]);
                debug_assert!(INLINE_HEADER + klen + vlen <= nslots * SLOT_BYTES);
                let key = run[INLINE_HEADER..INLINE_HEADER + klen].to_vec();
                let value = run[INLINE_HEADER + klen..INLINE_HEADER + klen + vlen].to_vec();
                out.push(BucketEntry::Inline {
                    slot,
                    nslots,
                    key,
                    value,
                    expiry,
                });
                slot += nslots;
            }
        }
        out
    }

    fn decode_slot(&self, slot: usize) -> (u32, u16) {
        let b = &self.slot_bytes[slot * SLOT_BYTES..(slot + 1) * SLOT_BYTES];
        let raw = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], 0, 0, 0]);
        let ptr = (raw & 0x7FFF_FFFF) as u32;
        let sec = ((raw >> 31) & 0x1FF) as u16;
        (ptr, sec)
    }

    fn encode_slot(&mut self, slot: usize, ptr: u32, sec: u16) {
        debug_assert!(ptr < 0x8000_0000);
        debug_assert!(sec < 512);
        let raw = (ptr as u64) | ((sec as u64) << 31);
        self.slot_bytes[slot * SLOT_BYTES..(slot + 1) * SLOT_BYTES]
            .copy_from_slice(&raw.to_le_bytes()[0..5]);
    }

    /// Slots needed to hold an inline KV of `kv_len` (key+value) bytes.
    pub fn inline_slots_needed(kv_len: usize) -> usize {
        (kv_len + INLINE_HEADER).div_ceil(SLOT_BYTES)
    }

    /// Inserts a pointer entry; returns its slot, or `None` if full.
    pub fn insert_pointer(&mut self, ptr: u32, sec: u16, class: SlabClass) -> Option<usize> {
        let slot = (0..SLOTS_PER_BUCKET).find(|&s| !self.is_used(s))?;
        self.encode_slot(slot, ptr, sec);
        self.types[slot] = class.type_field();
        assert!(
            self.types[slot] <= 0x0F,
            "slab class beyond 4-bit type field"
        );
        self.used |= 1 << slot;
        self.start |= 1 << slot;
        Some(slot)
    }

    /// Inserts an inline KV with a lifecycle stamp (`expiry` tick; 0 =
    /// immortal); compacts the bucket if free slots exist but are
    /// fragmented. Returns the starting slot, or `None` if it cannot fit.
    pub fn insert_inline_expiring(
        &mut self,
        key: &[u8],
        value: &[u8],
        expiry: u32,
    ) -> Option<usize> {
        let kv_len = key.len() + value.len();
        if kv_len > MAX_INLINE_KV || key.len() > u8::MAX as usize || value.len() > u8::MAX as usize
        {
            return None;
        }
        let need = Self::inline_slots_needed(kv_len);
        if self.free_slots() < need {
            return None;
        }
        let slot = match self.find_contiguous_free(need) {
            Some(s) => s,
            None => {
                self.compact();
                self.find_contiguous_free(need)
                    .expect("compaction must make free slots contiguous")
            }
        };
        let mut buf = [0u8; SLOTS_PER_BUCKET * SLOT_BYTES];
        let run = &mut buf[..need * SLOT_BYTES];
        run[0] = key.len() as u8;
        run[1] = value.len() as u8;
        run[2..6].copy_from_slice(&expiry.to_le_bytes());
        run[INLINE_HEADER..INLINE_HEADER + key.len()].copy_from_slice(key);
        run[INLINE_HEADER + key.len()..INLINE_HEADER + kv_len].copy_from_slice(value);
        self.slot_bytes[slot * SLOT_BYTES..(slot + need) * SLOT_BYTES].copy_from_slice(run);
        for s in slot..slot + need {
            self.used |= 1 << s;
            self.start &= !(1 << s);
            self.types[s] = 0;
        }
        self.start |= 1 << slot;
        Some(slot)
    }

    fn find_contiguous_free(&self, need: usize) -> Option<usize> {
        let mut run = 0;
        for s in 0..SLOTS_PER_BUCKET {
            if self.is_used(s) {
                run = 0;
            } else {
                run += 1;
                if run == need {
                    return Some(s + 1 - need);
                }
            }
        }
        None
    }

    /// Repacks all entries to the left, leaving free slots contiguous at
    /// the end. The bucket is rewritten wholesale on the next write-back,
    /// so compaction costs no extra memory access.
    pub fn compact(&mut self) {
        let entries = self.entries();
        let chain = self.chain;
        *self = Bucket::empty();
        self.chain = chain;
        for e in entries {
            match e {
                BucketEntry::Inline {
                    key, value, expiry, ..
                } => {
                    self.insert_inline_expiring(&key, &value, expiry)
                        .expect("entries fit before compaction");
                }
                BucketEntry::Pointer {
                    ptr, sec, class, ..
                } => {
                    self.insert_pointer(ptr, sec, class)
                        .expect("entries fit before compaction");
                }
            }
        }
    }

    /// Removes the entry starting at `slot` (pointer or inline run).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not the start of an entry.
    pub fn remove(&mut self, slot: usize) {
        assert!(
            self.is_used(slot) && self.is_start(slot),
            "not an entry start"
        );
        if self.types[slot] != 0 {
            self.clear_slot(slot);
        } else {
            self.clear_slot(slot);
            let mut s = slot + 1;
            while s < SLOTS_PER_BUCKET && self.is_used(s) && !self.is_start(s) && self.types[s] == 0
            {
                self.clear_slot(s);
                s += 1;
            }
        }
    }

    fn clear_slot(&mut self, slot: usize) {
        self.used &= !(1 << slot);
        self.start &= !(1 << slot);
        self.types[slot] = 0;
        self.slot_bytes[slot * SLOT_BYTES..(slot + 1) * SLOT_BYTES].fill(0);
    }
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(size: u64) -> SlabClass {
        SlabClass::for_size(size).unwrap()
    }

    #[test]
    fn empty_roundtrip() {
        let b = Bucket::empty();
        assert_eq!(Bucket::decode(&b.encode()), b);
        assert_eq!(b.free_slots(), 10);
        assert!(b.entries().is_empty());
    }

    #[test]
    fn pointer_roundtrip() {
        let mut b = Bucket::empty();
        let slot = b.insert_pointer(0x7FFF_FFFF, 511, class(128)).unwrap();
        assert_eq!(slot, 0);
        let d = Bucket::decode(&b.encode());
        match &d.entries()[0] {
            BucketEntry::Pointer {
                ptr, sec, class: c, ..
            } => {
                assert_eq!(*ptr, 0x7FFF_FFFF);
                assert_eq!(*sec, 511);
                assert_eq!(c.size(), 128);
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn inline_roundtrip_various_sizes() {
        for kv in [(1usize, 1usize), (3, 7), (8, 8), (16, 28), (20, 24)] {
            let key: Vec<u8> = (0..kv.0 as u8).collect();
            let value: Vec<u8> = (100..100 + kv.1 as u8).collect();
            let mut b = Bucket::empty();
            b.insert_inline_expiring(&key, &value, 0).unwrap();
            let d = Bucket::decode(&b.encode());
            match &d.entries()[0] {
                BucketEntry::Inline {
                    key: k, value: v, ..
                } => {
                    assert_eq!(k, &key);
                    assert_eq!(v, &value);
                }
                e => panic!("unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn max_inline_kv_fills_bucket() {
        let key = vec![1u8; 8];
        let value = vec![2u8; MAX_INLINE_KV - 8];
        let mut b = Bucket::empty();
        assert_eq!(b.insert_inline_expiring(&key, &value, 0), Some(0));
        assert_eq!(b.free_slots(), 0);
        // Over the limit fails.
        let mut b2 = Bucket::empty();
        assert_eq!(
            b2.insert_inline_expiring(&key, &[0u8; MAX_INLINE_KV - 7], 0),
            None
        );
    }

    #[test]
    fn mixed_entries_coexist() {
        let mut b = Bucket::empty();
        b.insert_inline_expiring(b"aa", b"1111", 0).unwrap(); // 3 slots
        b.insert_pointer(42, 7, class(64)).unwrap();
        b.insert_inline_expiring(b"bb", b"2", 0).unwrap(); // 2 slots
        let d = Bucket::decode(&b.encode());
        let es = d.entries();
        assert_eq!(es.len(), 3);
        assert!(matches!(&es[1], BucketEntry::Pointer { ptr: 42, .. }));
    }

    #[test]
    fn chain_roundtrip() {
        let mut b = Bucket::empty();
        b.set_chain(Some(12345));
        let d = Bucket::decode(&b.encode());
        assert_eq!(d.chain(), Some(12345));
        b.set_chain(None);
        assert_eq!(Bucket::decode(&b.encode()).chain(), None);
        // Chain pointer 0 is valid and distinct from no-chain.
        b.set_chain(Some(0));
        assert_eq!(Bucket::decode(&b.encode()).chain(), Some(0));
    }

    #[test]
    fn remove_inline_frees_run() {
        let mut b = Bucket::empty();
        let s = b.insert_inline_expiring(b"key1", b"0123456789", 0).unwrap(); // 20B → 4 slots
        assert_eq!(b.free_slots(), 6);
        b.remove(s);
        assert_eq!(b.free_slots(), 10);
        assert!(b.entries().is_empty());
    }

    #[test]
    fn remove_pointer_keeps_others() {
        let mut b = Bucket::empty();
        let s0 = b.insert_pointer(1, 1, class(32)).unwrap();
        let _s1 = b.insert_pointer(2, 2, class(32)).unwrap();
        b.remove(s0);
        let es = b.entries();
        assert_eq!(es.len(), 1);
        assert!(matches!(&es[0], BucketEntry::Pointer { ptr: 2, .. }));
    }

    #[test]
    fn compaction_defragments() {
        let mut b = Bucket::empty();
        // Fill with 5 two-slot inline KVs, then remove alternating ones.
        let mut starts = Vec::new();
        for i in 0..5u8 {
            starts.push(b.insert_inline_expiring(&[i], &[i; 3], 0).unwrap());
        }
        assert_eq!(b.free_slots(), 0);
        b.remove(starts[0]);
        b.remove(starts[2]);
        b.remove(starts[4]);
        // 6 free slots but fragmented in 2-slot holes; a 5-slot inline KV
        // needs compaction.
        let key = [9u8; 4];
        let val = [8u8; 15]; // 19B + 6 header = 5 slots
        let s = b.insert_inline_expiring(&key, &val, 0);
        assert!(s.is_some(), "compaction should make room");
        let es = b.entries();
        assert_eq!(es.len(), 3);
        assert!(es.iter().any(|e| matches!(
            e,
            BucketEntry::Inline { key: k, .. } if k == &key
        )));
    }

    #[test]
    fn full_bucket_rejects_pointer() {
        let mut b = Bucket::empty();
        for i in 0..10 {
            assert!(b.insert_pointer(i, 0, class(32)).is_some());
        }
        assert_eq!(b.insert_pointer(11, 0, class(32)), None);
        assert_eq!(b.free_slots(), 0);
    }

    #[test]
    fn inline_slots_needed_math() {
        assert_eq!(Bucket::inline_slots_needed(1), 2); // 7B
        assert_eq!(Bucket::inline_slots_needed(4), 2); // 10B
        assert_eq!(Bucket::inline_slots_needed(5), 3); // 11B
        assert_eq!(Bucket::inline_slots_needed(MAX_INLINE_KV), 10);
    }

    #[test]
    fn inline_expiry_stamp_roundtrips() {
        let mut b = Bucket::empty();
        b.insert_inline_expiring(b"k", b"v", 0xDEAD_BEEF).unwrap();
        b.insert_inline_expiring(b"k2", b"immortal", 0).unwrap();
        let d = Bucket::decode(&b.encode());
        let es = d.entries();
        assert!(matches!(
            &es[0],
            BucketEntry::Inline {
                expiry: 0xDEAD_BEEF,
                ..
            }
        ));
        assert!(matches!(&es[1], BucketEntry::Inline { expiry: 0, .. }));
        // The stamp survives compaction.
        let mut c = d.clone();
        c.compact();
        assert_eq!(c.entries(), es);
    }

    #[test]
    fn exhaustive_bitpattern_roundtrip() {
        // Stress the nibble/bitmap packing with varied patterns.
        let mut b = Bucket::empty();
        b.insert_pointer(0x2AAA_AAAA, 0x155, class(512)).unwrap();
        b.insert_inline_expiring(&[0xFF; 5], &[0x00; 5], 0).unwrap();
        b.insert_pointer(0x1555_5555, 0x0AA, class(32)).unwrap();
        b.set_chain(Some(0x7FFF_FFFF));
        let d = Bucket::decode(&b.encode());
        assert_eq!(d, b);
        assert_eq!(d.encode(), b.encode());
    }
}
