//! Property tests for the bucket wire format and the hash table.
//!
//! The bucket codec is the trickiest bit-packing in the system (slots,
//! nibble type fields, dual bitmaps, chain pointer); these properties
//! pin it against a model and guarantee the encode/decode pair is total
//! and lossless under arbitrary operation sequences.

use kvd_hash::{Bucket, BucketEntry, HashTable, HashTableConfig};
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
            prop::collection::vec(any::<u8>(), 0..20),
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

/// Reference model: an ordered list of logical entries plus a chain.
#[derive(Debug, Clone, PartialEq)]
enum ModelEntry {
    Inline(Vec<u8>, Vec<u8>, u32),
    Pointer(u32, u16, usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary op sequences: the bucket agrees with a simple model and
    /// the wire codec round-trips after every step.
    #[test]
    fn bucket_matches_model(ops in prop::collection::vec(bucket_op(), 0..40)) {
        let mut b = Bucket::empty();
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut chain: Option<u32> = None;
        for op in ops {
            match op {
                BucketOp::InsertInline { key, value, expiry } => {
                    if b.insert_inline_expiring(&key, &value, expiry).is_some() {
                        model.push(ModelEntry::Inline(key, value, expiry));
                    }
                }
                BucketOp::InsertPointer { ptr, sec, class_idx } => {
                    let class = SlabClass::from_index(class_idx);
                    if b.insert_pointer(ptr, sec, class).is_some() {
                        model.push(ModelEntry::Pointer(ptr, sec, class_idx));
                    }
                }
                BucketOp::RemoveNth(n) => {
                    let entries = b.entries();
                    if !entries.is_empty() {
                        let n = n % entries.len();
                        let slot = match &entries[n] {
                            BucketEntry::Inline { slot, .. } => *slot,
                            BucketEntry::Pointer { slot, .. } => *slot,
                        };
                        b.remove(slot);
                        // Identify the removed logical entry in the model.
                        let target = match &entries[n] {
                            BucketEntry::Inline { key, value, expiry, .. } => {
                                ModelEntry::Inline(key.clone(), value.clone(), *expiry)
                            }
                            BucketEntry::Pointer { ptr, sec, class, .. } => {
                                ModelEntry::Pointer(*ptr, *sec, class.index())
                            }
                        };
                        let pos = model
                            .iter()
                            .position(|e| *e == target)
                            .expect("decoded entry exists in model");
                        model.remove(pos);
                    }
                }
                BucketOp::SetChain(c) => {
                    b.set_chain(c);
                    chain = c;
                }
            }
            // Wire roundtrip after every mutation.
            let decoded = Bucket::decode(&b.encode());
            prop_assert_eq!(&decoded, &b);
            prop_assert_eq!(decoded.chain(), chain);
            // Model equivalence (as multisets of logical entries).
            let mut got: Vec<ModelEntry> = b
                .entries()
                .into_iter()
                .map(|e| match e {
                    BucketEntry::Inline { key, value, expiry, .. } => {
                        ModelEntry::Inline(key, value, expiry)
                    }
                    BucketEntry::Pointer { ptr, sec, class, .. } => {
                        ModelEntry::Pointer(ptr, sec, class.index())
                    }
                })
                .collect();
            let mut want = model.clone();
            let sort_key = |e: &ModelEntry| format!("{e:?}");
            got.sort_by_key(sort_key);
            want.sort_by_key(sort_key);
            prop_assert_eq!(got, want);
        }
    }

    /// The table matches a reference map for arbitrary keys and value
    /// sizes spanning inline and every slab class.
    #[test]
    fn table_matches_reference(
        ops in prop::collection::vec(
            (any::<u8>(), prop::option::of(0usize..500)),
            1..250,
        )
    ) {
        let mem = 1u64 << 20;
        let mut table = HashTable::new(
            FlatMemory::new(mem),
            HashTableConfig::new(mem, 0.5, 24),
        );
        let mut reference = std::collections::HashMap::new();
        for (k, v) in ops {
            let key = format!("key-{}", k % 40).into_bytes();
            match v {
                Some(len) => {
                    let value = vec![k; len];
                    table.put(&key, &value).expect("1MiB fits this workload");
                    reference.insert(key, value);
                }
                None => {
                    let existed = table.delete(&key);
                    prop_assert_eq!(existed, reference.remove(&key).is_some());
                }
            }
        }
        for (k, v) in &reference {
            let got = table.get(k);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        prop_assert_eq!(table.len(), reference.len() as u64);
        // Memory accounting is exact.
        let expect_bytes: usize = reference.iter().map(|(k, v)| k.len() + v.len()).sum();
        prop_assert_eq!(table.stored_bytes(), expect_bytes as u64);
    }

    /// Decoding any bucket we encoded never panics and is idempotent.
    #[test]
    fn encode_decode_idempotent(
        keys in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..10),
             prop::collection::vec(any::<u8>(), 0..10)),
            0..6,
        )
    ) {
        let mut b = Bucket::empty();
        for (k, v) in keys {
            let _ = b.insert_inline_expiring(&k, &v, 0);
        }
        let once = b.encode();
        let twice = Bucket::decode(&once).encode();
        prop_assert_eq!(once, twice);
    }
}
