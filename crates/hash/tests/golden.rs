//! Golden-bytes tests for the bucket layout (paper Figure 5).
//!
//! The 64-byte bucket encoding is the on-"disk" format of the hash
//! index; pin it so refactors cannot silently shuffle fields (which would
//! corrupt any persisted or cross-version state).

use kvd_hash::{Bucket, BUCKET_BYTES};
use kvd_slab::SlabClass;

#[test]
fn golden_empty_bucket_is_zero() {
    assert_eq!(Bucket::empty().encode(), [0u8; BUCKET_BYTES]);
}

#[test]
fn golden_pointer_slot_layout() {
    let mut b = Bucket::empty();
    // ptr = 0x12345678 (31-bit granule offset), sec = 0x1AB (9 bits),
    // class = 64B (type field 2) in slot 0.
    b.insert_pointer(0x1234_5678, 0x1AB, SlabClass::for_size(64).expect("valid"));
    let bytes = b.encode();
    // Slot 0 bytes 0..5: little-endian (ptr | sec << 31) = 0x0D578_9345678.
    let raw = (0x1234_5678u64) | ((0x1ABu64) << 31);
    assert_eq!(&bytes[0..5], &raw.to_le_bytes()[0..5]);
    // Type nibbles at byte 50: slot0 low nibble = 2.
    assert_eq!(bytes[50], 0x02);
    // used/start bitmaps: bit 0 set.
    assert_eq!(u16::from_le_bytes([bytes[55], bytes[56]]), 0b1);
    assert_eq!(u16::from_le_bytes([bytes[57], bytes[58]]), 0b1);
    // No chain.
    assert_eq!(&bytes[59..63], &[0, 0, 0, 0]);
}

#[test]
fn golden_inline_kv_layout() {
    let mut b = Bucket::empty();
    b.insert_inline_expiring(b"ab", b"123", 0).expect("fits");
    let bytes = b.encode();
    // 6-byte header + 2+3 payload = 11 bytes → 3 slots: klen, vlen,
    // expiry stamp (LE u32, 0 = immortal), key, value.
    assert_eq!(
        &bytes[0..11],
        &[2, 3, 0, 0, 0, 0, b'a', b'b', b'1', b'2', b'3']
    );
    // 3 slots used, 1 start.
    assert_eq!(u16::from_le_bytes([bytes[55], bytes[56]]), 0b111);
    assert_eq!(u16::from_le_bytes([bytes[57], bytes[58]]), 0b001);
    // Inline slots carry type 0.
    assert_eq!(bytes[50], 0x00);
}

#[test]
fn golden_inline_expiry_stamp_layout() {
    let mut b = Bucket::empty();
    b.insert_inline_expiring(b"ab", b"123", 0x0102_0304)
        .expect("fits");
    let bytes = b.encode();
    // The stamp sits at run bytes 2..6, little-endian.
    assert_eq!(
        &bytes[0..11],
        &[2, 3, 0x04, 0x03, 0x02, 0x01, b'a', b'b', b'1', b'2', b'3']
    );
}

#[test]
fn golden_chain_pointer_layout() {
    let mut b = Bucket::empty();
    b.set_chain(Some(0x0123_4567));
    let bytes = b.encode();
    // Bit 31 is the valid flag.
    assert_eq!(
        u32::from_le_bytes([bytes[59], bytes[60], bytes[61], bytes[62]]),
        0x0123_4567 | 0x8000_0000
    );
    // Byte 63 is reserved and stays zero.
    assert_eq!(bytes[63], 0);
}
