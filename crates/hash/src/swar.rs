//! SWAR (SIMD-within-a-register) probing over raw 64-byte buckets.
//!
//! The paper's pipeline matches a request's 9-bit secondary hash against
//! all 10 bucket slots in one cycle of combinational logic. This module
//! is the software analogue: the bucket stays in its on-wire `[u8; 64]`
//! form and probing works on whole words —
//!
//! * each 5-byte slot is read as one unaligned little-endian `u64`
//!   (`[31-bit pointer | 9-bit secondary hash]` in the low 40 bits), so a
//!   tag compare is a single XOR + mask instead of byte-by-byte decoding;
//! * the 10 four-bit slab-type fields are classified zero/nonzero in two
//!   word operations over the packed nibble array, yielding the
//!   pointer-slot bitmap without touching individual nibbles.
//!
//! [`RawEntries`] walks a raw bucket in exactly the same slot order as
//! [`Bucket::entries`](crate::layout::Bucket::entries) but borrows key
//! and value bytes straight from the buffer — no decode, no `Vec`. The
//! hot read/write paths in [`table`](crate::table) are built on it; the
//! decoded [`Bucket`](crate::layout::Bucket) remains the mutation type.

use kvd_slab::SlabClass;

use crate::layout::{BUCKET_BYTES, INLINE_HEADER, SLOTS_PER_BUCKET, SLOT_BYTES};

/// Low 40 bits of a slot word: 31-bit pointer + 9-bit secondary hash.
pub const SLOT_MASK: u64 = 0xFF_FFFF_FFFF;
/// LSB of each of the 10 packed type nibbles.
const NIBBLE_LSB: u64 = 0x11_1111_1111;
/// Valid bits of the 10-slot bitmaps.
const SLOT_BITS: u16 = 0x3FF;

/// The raw 40-bit word of `slot` (unaligned 8-byte load, masked).
///
/// The furthest slot starts at byte 45, so the 8-byte load ends at byte
/// 53 — always inside the 64-byte bucket.
#[inline]
pub fn slot_raw(bytes: &[u8; BUCKET_BYTES], slot: usize) -> u64 {
    debug_assert!(slot < SLOTS_PER_BUCKET);
    let off = slot * SLOT_BYTES;
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(w) & SLOT_MASK
}

/// The 31-bit pointer of a raw slot word.
#[inline]
pub fn slot_ptr(raw: u64) -> u32 {
    (raw & 0x7FFF_FFFF) as u32
}

/// The 9-bit secondary hash of a raw slot word.
#[inline]
pub fn slot_sec(raw: u64) -> u16 {
    ((raw >> 31) & 0x1FF) as u16
}

/// One-XOR tag compare: does the slot word carry secondary hash `sec`?
#[inline]
pub fn sec_matches(raw: u64, sec: u16) -> bool {
    ((raw >> 31) ^ sec as u64) & 0x1FF == 0
}

/// Bitmap over all ten slots whose 9-bit secondary-hash field equals
/// `sec` — the widened form of [`sec_matches`], two slots per compare.
///
/// Adjacent slots `2p` and `2p+1` occupy ten consecutive bytes starting
/// at byte `10p`, so one unaligned 16-byte load covers both: slot `2p`'s
/// secondary hash sits at bits `31..40` of the little-endian word and
/// slot `2p+1`'s at bits `71..80` (40 bits further along). XORing a
/// needle with `sec` replicated at both positions turns the pair probe
/// into two mask tests on a single `u128`. The last pair starts at byte
/// 40, so the furthest load ends at byte 56 — inside the 64-byte bucket.
///
/// The mask is liveness-blind: free slots are all-zero words, so their
/// bit is set whenever `sec == 0`. Callers intersect with the bitmaps
/// ([`probe_candidates`]) or only consult bits of live pointer slots.
#[inline]
pub fn sec_match_mask(bytes: &[u8; BUCKET_BYTES], sec: u16) -> u16 {
    const LO: u128 = 0x1FF << 31;
    const HI: u128 = 0x1FF << 71;
    let needle = ((sec as u128) << 31) | ((sec as u128) << 71);
    let mut mask = 0u16;
    let mut p = 0;
    while p < SLOTS_PER_BUCKET / 2 {
        let off = p * 2 * SLOT_BYTES;
        let mut w16 = [0u8; 16];
        w16.copy_from_slice(&bytes[off..off + 16]);
        let x = u128::from_le_bytes(w16) ^ needle;
        mask |= u16::from(x & LO == 0) << (2 * p);
        mask |= u16::from(x & HI == 0) << (2 * p + 1);
        p += 1;
    }
    mask
}

/// The 4-bit slab-type field of `slot`.
#[inline]
pub fn slot_type(bytes: &[u8; BUCKET_BYTES], slot: usize) -> u8 {
    let nib = bytes[50 + slot / 2];
    if slot.is_multiple_of(2) {
        nib & 0x0F
    } else {
        nib >> 4
    }
}

/// The `used` bitmap (bit per slot).
#[inline]
pub fn used_bits(bytes: &[u8; BUCKET_BYTES]) -> u16 {
    u16::from_le_bytes([bytes[55], bytes[56]]) & SLOT_BITS
}

/// The `start` bitmap (bit per slot).
#[inline]
pub fn start_bits(bytes: &[u8; BUCKET_BYTES]) -> u16 {
    u16::from_le_bytes([bytes[57], bytes[58]]) & SLOT_BITS
}

/// The chain pointer, if the valid bit is set.
#[inline]
pub fn chain_of(bytes: &[u8; BUCKET_BYTES]) -> Option<u32> {
    let raw = u32::from_le_bytes([bytes[59], bytes[60], bytes[61], bytes[62]]);
    if raw & 0x8000_0000 != 0 {
        Some(raw & 0x7FFF_FFFF)
    } else {
        None
    }
}

/// Number of free slots.
#[inline]
pub fn free_slots_of(bytes: &[u8; BUCKET_BYTES]) -> usize {
    SLOTS_PER_BUCKET - used_bits(bytes).count_ones() as usize
}

/// Bitmap of slots whose type nibble is nonzero (i.e. slots that would
/// hold a slab pointer if live), computed nibble-parallel: fold each
/// nibble's bits onto its LSB, mask, then gather the surviving LSBs.
#[inline]
pub fn pointer_type_bits(bytes: &[u8; BUCKET_BYTES]) -> u16 {
    let mut w8 = [0u8; 8];
    w8[..5].copy_from_slice(&bytes[50..55]);
    let w = u64::from_le_bytes(w8);
    let mut nz = (w | (w >> 1) | (w >> 2) | (w >> 3)) & NIBBLE_LSB;
    let mut bits = 0u16;
    while nz != 0 {
        bits |= 1 << (nz.trailing_zeros() / 4);
        nz &= nz - 1;
    }
    bits
}

/// Bitmap of live pointer slots (used, entry start, nonzero type) whose
/// secondary hash matches `sec` — the SWAR probe a GET performs before
/// touching slab data.
#[inline]
pub fn probe_candidates(bytes: &[u8; BUCKET_BYTES], sec: u16) -> u16 {
    used_bits(bytes) & start_bits(bytes) & pointer_type_bits(bytes) & sec_match_mask(bytes, sec)
}

/// One entry of a raw bucket, borrowing from the 64-byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawEntry<'a> {
    /// An inline KV run; `key`/`value` point into the bucket buffer.
    Inline {
        /// First slot of the run.
        slot: usize,
        /// Number of slots the run occupies.
        nslots: usize,
        /// The key bytes, borrowed.
        key: &'a [u8],
        /// The value bytes, borrowed.
        value: &'a [u8],
        /// Expiry tick; 0 = never expires.
        expiry: u32,
    },
    /// A pointer to slab-allocated KV data.
    Pointer {
        /// The slot holding the pointer.
        slot: usize,
        /// The raw 40-bit slot word (see [`slot_ptr`]/[`slot_sec`]).
        raw: u64,
        /// Slab class of the target allocation.
        class: SlabClass,
    },
}

/// Zero-allocation entry walk over a raw bucket, yielding entries in the
/// same slot order as [`Bucket::entries`](crate::layout::Bucket::entries).
pub struct RawEntries<'a> {
    bytes: &'a [u8; BUCKET_BYTES],
    used: u16,
    start: u16,
    ptr_bits: u16,
    slot: usize,
}

impl<'a> RawEntries<'a> {
    /// Starts a walk over `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8; BUCKET_BYTES]) -> Self {
        RawEntries {
            bytes,
            used: used_bits(bytes),
            start: start_bits(bytes),
            ptr_bits: pointer_type_bits(bytes),
            slot: 0,
        }
    }
}

impl<'a> Iterator for RawEntries<'a> {
    type Item = RawEntry<'a>;

    #[inline(always)] // `#[inline]` alone leaves one call per entry of every bucket
    fn next(&mut self) -> Option<RawEntry<'a>> {
        while self.slot < SLOTS_PER_BUCKET {
            let slot = self.slot;
            let bit = 1u16 << slot;
            if self.used & bit == 0 || self.start & bit == 0 {
                self.slot += 1;
                continue;
            }
            if self.ptr_bits & bit != 0 {
                self.slot += 1;
                let raw = slot_raw(self.bytes, slot);
                let class = SlabClass::from_type_field(slot_type(self.bytes, slot))
                    .expect("nonzero type field validated on insert");
                return Some(RawEntry::Pointer { slot, raw, class });
            }
            let mut nslots = 1;
            while slot + nslots < SLOTS_PER_BUCKET {
                let b = 1u16 << (slot + nslots);
                if self.used & b != 0 && self.start & b == 0 && self.ptr_bits & b == 0 {
                    nslots += 1;
                } else {
                    break;
                }
            }
            self.slot = slot + nslots;
            let run = &self.bytes[slot * SLOT_BYTES..(slot + nslots) * SLOT_BYTES];
            let klen = run[0] as usize;
            let vlen = run[1] as usize;
            let expiry = u32::from_le_bytes([run[2], run[3], run[4], run[5]]);
            debug_assert!(INLINE_HEADER + klen + vlen <= nslots * SLOT_BYTES);
            return Some(RawEntry::Inline {
                slot,
                nslots,
                key: &run[INLINE_HEADER..INLINE_HEADER + klen],
                value: &run[INLINE_HEADER + klen..INLINE_HEADER + klen + vlen],
                expiry,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Bucket, BucketEntry};

    fn class(size: u64) -> SlabClass {
        SlabClass::for_size(size).unwrap()
    }

    /// Decoded-scan equivalent of a raw walk, for comparison.
    fn scan(bytes: &[u8; BUCKET_BYTES]) -> Vec<BucketEntry> {
        Bucket::decode(bytes).entries()
    }

    fn raw_as_decoded(bytes: &[u8; BUCKET_BYTES]) -> Vec<BucketEntry> {
        RawEntries::new(bytes)
            .map(|e| match e {
                RawEntry::Inline {
                    slot,
                    nslots,
                    key,
                    value,
                    expiry,
                } => BucketEntry::Inline {
                    slot,
                    nslots,
                    key: key.to_vec(),
                    value: value.to_vec(),
                    expiry,
                },
                RawEntry::Pointer { slot, raw, class } => BucketEntry::Pointer {
                    slot,
                    ptr: slot_ptr(raw),
                    sec: slot_sec(raw),
                    class,
                },
            })
            .collect()
    }

    #[test]
    fn raw_walk_matches_decoded_scan_on_mixed_bucket() {
        let mut b = Bucket::empty();
        b.insert_inline_expiring(b"aa", b"1111", 0).unwrap();
        b.insert_pointer(0x7FFF_FFFF, 511, class(128)).unwrap();
        b.insert_inline_expiring(b"b", b"", 0).unwrap();
        b.insert_pointer(42, 0, class(32)).unwrap();
        b.set_chain(Some(77));
        let bytes = b.encode();
        assert_eq!(raw_as_decoded(&bytes), scan(&bytes));
        assert_eq!(chain_of(&bytes), Some(77));
        assert_eq!(free_slots_of(&bytes), b.free_slots());
    }

    #[test]
    fn probe_candidates_matches_slot_scan() {
        let mut b = Bucket::empty();
        b.insert_pointer(1, 100, class(32)).unwrap();
        b.insert_inline_expiring(b"key", b"padpad", 0).unwrap(); // occupies slots, type 0
        b.insert_pointer(2, 100, class(64)).unwrap();
        b.insert_pointer(3, 7, class(512)).unwrap();
        let bytes = b.encode();
        let hits = probe_candidates(&bytes, 100);
        let expect: u16 = scan(&bytes)
            .iter()
            .filter_map(|e| match e {
                BucketEntry::Pointer { slot, sec: 100, .. } => Some(1u16 << slot),
                _ => None,
            })
            .sum();
        assert_eq!(hits, expect);
        assert_eq!(probe_candidates(&bytes, 7).count_ones(), 1);
        assert_eq!(probe_candidates(&bytes, 8), 0);
    }

    #[test]
    fn sec_match_mask_equals_per_slot_compares() {
        // Pseudo-random bucket images: the pair probe must agree with
        // ten independent `sec_matches` calls for every slot, including
        // free slots (all-zero words match `sec == 0` by design).
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for round in 0..64 {
            let mut bytes = [0u8; BUCKET_BYTES];
            for b in bytes.iter_mut() {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *b = (x >> 56) as u8;
            }
            for sec in [0u16, 1, 0x0FF, 0x100, 0x1FF, (x >> 40) as u16 & 0x1FF] {
                let mut expect = 0u16;
                for slot in 0..SLOTS_PER_BUCKET {
                    if sec_matches(slot_raw(&bytes, slot), sec) {
                        expect |= 1 << slot;
                    }
                }
                assert_eq!(
                    sec_match_mask(&bytes, sec),
                    expect,
                    "round {round}, sec {sec:#x}"
                );
            }
        }
    }

    #[test]
    fn slot_word_fields_roundtrip() {
        let mut b = Bucket::empty();
        b.insert_pointer(0x2AAA_AAAA, 0x155, class(256)).unwrap();
        let bytes = b.encode();
        let raw = slot_raw(&bytes, 0);
        assert_eq!(slot_ptr(raw), 0x2AAA_AAAA);
        assert_eq!(slot_sec(raw), 0x155);
        assert!(sec_matches(raw, 0x155));
        assert!(!sec_matches(raw, 0x154));
    }

    #[test]
    fn pointer_type_bits_sees_every_nibble() {
        for slot in 0..SLOTS_PER_BUCKET {
            let mut bytes = [0u8; BUCKET_BYTES];
            // Set only this slot's type nibble.
            if slot.is_multiple_of(2) {
                bytes[50 + slot / 2] = 0x01;
            } else {
                bytes[50 + slot / 2] = 0x10;
            }
            assert_eq!(pointer_type_bits(&bytes), 1 << slot, "slot {slot}");
        }
        assert_eq!(pointer_type_bits(&[0u8; BUCKET_BYTES]), 0);
    }
}
