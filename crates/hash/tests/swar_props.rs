//! Property tests pinning SWAR probing to the per-slot decoded scan.
//!
//! The raw bucket walk ([`RawEntries`]) and the word-level secondary-hash
//! probe ([`swar::probe_candidates`]) are the hot-path replacements for
//! `Bucket::decode` + `Bucket::entries`; these properties assert the two
//! views agree over arbitrary bucket contents — inline runs of every
//! length, pointer slots with arbitrary tags, mixed and fragmented
//! buckets — and that the table built on the raw walk still matches a
//! reference map when every key hashes into one chained bucket.

use kvd_hash::swar::{self, RawEntry};
use kvd_hash::{Bucket, BucketEntry, HashTable, HashTableConfig, RawEntries};
use kvd_mem::FlatMemory;
use kvd_slab::SlabClass;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum BucketOp {
    InsertInline {
        key: Vec<u8>,
        value: Vec<u8>,
        expiry: u32,
    },
    InsertPointer {
        ptr: u32,
        sec: u16,
        class_idx: usize,
    },
    RemoveNth(usize),
    SetChain(Option<u32>),
}

fn bucket_op() -> impl Strategy<Value = BucketOp> {
    prop_oneof![
        (
            prop::collection::vec(any::<u8>(), 1..12),
            prop::collection::vec(any::<u8>(), 0..30),
            any::<u32>()
        )
            .prop_map(|(key, value, expiry)| BucketOp::InsertInline { key, value, expiry }),
        (any::<u32>(), any::<u16>(), 0usize..5).prop_map(|(p, s, c)| {
            BucketOp::InsertPointer {
                ptr: p & 0x7FFF_FFFF,
                sec: s & 0x1FF,
                class_idx: c,
            }
        }),
        any::<usize>().prop_map(BucketOp::RemoveNth),
        prop::option::of(any::<u32>().prop_map(|p| p & 0x7FFF_FFFF)).prop_map(BucketOp::SetChain),
    ]
}

/// Builds an arbitrary (valid) bucket from an op sequence.
fn build(ops: Vec<BucketOp>) -> Bucket {
    let mut b = Bucket::empty();
    for op in ops {
        match op {
            BucketOp::InsertInline { key, value, expiry } => {
                let _ = b.insert_inline_expiring(&key, &value, expiry);
            }
            BucketOp::InsertPointer {
                ptr,
                sec,
                class_idx,
            } => {
                let _ = b.insert_pointer(ptr, sec, SlabClass::from_index(class_idx));
            }
            BucketOp::RemoveNth(n) => {
                let entries = b.entries();
                if !entries.is_empty() {
                    let slot = match &entries[n % entries.len()] {
                        BucketEntry::Inline { slot, .. } => *slot,
                        BucketEntry::Pointer { slot, .. } => *slot,
                    };
                    b.remove(slot);
                }
            }
            BucketOp::SetChain(c) => b.set_chain(c),
        }
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The zero-copy raw walk yields exactly the entries (same order,
    /// same slots, same bytes) as the decoded per-slot scan.
    #[test]
    fn raw_walk_matches_decoded_scan(ops in prop::collection::vec(bucket_op(), 0..40)) {
        let b = build(ops);
        let bytes = b.encode();
        let raw: Vec<BucketEntry> = RawEntries::new(&bytes)
            .map(|e| match e {
                RawEntry::Inline { slot, nslots, key, value, expiry } => BucketEntry::Inline {
                    slot,
                    nslots,
                    key: key.to_vec(),
                    value: value.to_vec(),
                    expiry,
                },
                RawEntry::Pointer { slot, raw, class } => BucketEntry::Pointer {
                    slot,
                    ptr: swar::slot_ptr(raw),
                    sec: swar::slot_sec(raw),
                    class,
                },
            })
            .collect();
        prop_assert_eq!(raw, b.entries());
        prop_assert_eq!(swar::chain_of(&bytes), b.chain());
        prop_assert_eq!(swar::free_slots_of(&bytes), b.free_slots());
    }

    /// The word-level secondary-hash probe flags exactly the pointer
    /// slots a per-slot scan would, for every possible 9-bit tag.
    #[test]
    fn probe_matches_per_slot_scan(
        ops in prop::collection::vec(bucket_op(), 0..40),
        sec in 0u16..512,
    ) {
        let b = build(ops);
        let bytes = b.encode();
        let expect: u16 = b
            .entries()
            .iter()
            .filter_map(|e| match e {
                BucketEntry::Pointer { slot, sec: s, .. } if *s == sec => Some(1u16 << slot),
                _ => None,
            })
            .sum();
        prop_assert_eq!(swar::probe_candidates(&bytes, sec), expect);
    }

    /// The widened pair probe (five 16-byte loads covering two slots
    /// each) agrees with ten independent one-word tag compares, for
    /// arbitrary bucket contents and every 9-bit tag.
    #[test]
    fn pair_probe_matches_per_slot_compares(
        ops in prop::collection::vec(bucket_op(), 0..40),
        sec in 0u16..512,
    ) {
        let bytes = build(ops).encode();
        let mut expect = 0u16;
        for slot in 0..10 {
            if swar::sec_matches(swar::slot_raw(&bytes, slot), sec) {
                expect |= 1 << slot;
            }
        }
        prop_assert_eq!(swar::sec_match_mask(&bytes, sec), expect);
    }

    /// A single-bucket index forces every key through chained buckets;
    /// the SWAR-walking table must still match a reference map, via both
    /// the owned and the scratch-buffer read paths.
    #[test]
    fn chained_table_matches_reference(
        ops in prop::collection::vec(
            (any::<u8>(), prop::option::of(0usize..120)),
            1..150,
        )
    ) {
        let mem = 1u64 << 16;
        let mut table = HashTable::new(
            FlatMemory::new(mem),
            HashTableConfig::new(mem, 64.0 / mem as f64, 24),
        );
        prop_assert_eq!(table.n_buckets(), 1);
        let mut reference = std::collections::HashMap::new();
        let mut scratch = Vec::new();
        for (k, v) in ops {
            let key = format!("key-{}", k % 30).into_bytes();
            match v {
                Some(len) => {
                    let value = vec![k; len];
                    table.put(&key, &value).expect("64KiB fits this workload");
                    reference.insert(key, value);
                }
                None => {
                    let existed = table.delete(&key);
                    prop_assert_eq!(existed, reference.remove(&key).is_some());
                }
            }
        }
        for (k, v) in &reference {
            let owned = table.get(k);
            prop_assert_eq!(owned.as_ref(), Some(v));
            let (hit, _) = table.get_into_with_cost(k, &mut scratch);
            prop_assert!(hit);
            prop_assert_eq!(&scratch, v);
        }
        prop_assert_eq!(table.len(), reference.len() as u64);
    }
}
