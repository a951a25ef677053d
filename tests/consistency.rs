//! Property-based consistency tests.
//!
//! The paper's central correctness claim for the out-of-order engine is
//! that it resolves data hazards "while maximizing the throughput of
//! independent requests" — i.e., the whole NIC (station + hash table +
//! slab allocator + write-back caches) is indistinguishable from a
//! sequential map. These properties check that against arbitrary
//! operation interleavings, key shapes and value sizes.

use kv_direct::lambda::decode_scalar;
use kv_direct::{builtin, KvDirectConfig, KvDirectStore, KvRequest, KvResponse, OpCode, Status};
use kvd_model::{op_strategy, to_request, Model};
use proptest::prelude::*;

/// `cfg` on a station smaller than the 24 generated keys: 8 hash slots,
/// 16 in flight. On the paper's 1 024 slots every key keeps a forwarding
/// entry after its first touch and most ops retire by forwarding; here
/// keys share slots and evict each other's entries, so ops reach the
/// hash table.
fn small_station(mut cfg: KvDirectConfig) -> KvDirectConfig {
    cfg.station.hash_slots = 8;
    cfg.station.capacity = 16;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of operations matches the reference model, both
    /// in responses and in final table contents, on either station.
    #[test]
    fn store_matches_reference_map(ops in prop::collection::vec(op_strategy(300), 1..300)) {
        let paper = KvDirectConfig::with_memory(4 << 20);
        for cfg in [small_station(paper.clone()), paper] {
            let slots = cfg.station.hash_slots;
            let mut store = KvDirectStore::new(cfg);
            let mut model = Model::default();
            let mut resp = KvResponse::default();
            for op in &ops {
                let req = to_request(op);
                store.execute_one_into(req.as_ref(), &mut resp);
                model
                    .check(req.as_ref(), resp.status, &resp.value)
                    .map_err(|e| TestCaseError::fail(format!("{slots} slots: {e}")))?;
            }
            // Final state equivalence.
            for (k, v) in model.entries() {
                let got = store.get(k);
                prop_assert_eq!(got.as_deref(), Some(v), "{} slots", slots);
            }
            prop_assert_eq!(store.processor().table().len(), model.entries().count() as u64);
        }
    }

    /// Batched execution is equivalent to one-at-a-time execution.
    #[test]
    fn batching_is_transparent(ops in prop::collection::vec(op_strategy(300), 1..200)) {
        let reqs: Vec<KvRequest> = ops.iter().map(to_request).collect();
        let mut batched = KvDirectStore::new(KvDirectConfig::with_memory(4 << 20));
        let mut serial = KvDirectStore::new(KvDirectConfig::with_memory(4 << 20));
        let rb = batched.execute_batch(&reqs);
        let rs: Vec<_> = reqs
            .iter()
            .flat_map(|r| serial.execute_batch(std::slice::from_ref(r)))
            .collect();
        prop_assert_eq!(rb, rs);
    }

    /// The wire codec is lossless for arbitrary batches.
    #[test]
    fn wire_codec_roundtrip(
        ops in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 1..32),
             prop::collection::vec(any::<u8>(), 0..64)),
            0..50,
        )
    ) {
        let reqs: Vec<KvRequest> = ops
            .into_iter()
            .map(|(sel, key, value)| match sel % 3 {
                0 => KvRequest::get(&key),
                1 => KvRequest::put(&key, &value),
                _ => KvRequest::delete(&key),
            })
            .collect();
        let bytes = kv_direct::encode_packet(&reqs);
        let decoded = kv_direct::decode_packet_ref(&bytes).expect("own encoding decodes");
        let want: Vec<_> = reqs.iter().map(KvRequest::as_ref).collect();
        prop_assert_eq!(decoded, want);
    }

    /// Sequencer linearizability: N fetch-adds on one key hand out the
    /// ticket range 0..N exactly once, in order, regardless of batching.
    #[test]
    fn sequencer_tickets_dense(batch_sizes in prop::collection::vec(1usize..50, 1..12)) {
        let mut store = KvDirectStore::new(KvDirectConfig::with_memory(1 << 20));
        let mut tickets = Vec::new();
        for n in &batch_sizes {
            let reqs: Vec<KvRequest> = (0..*n)
                .map(|_| KvRequest {
                    op: OpCode::UpdateScalar,
                    lambda: builtin::ADD,
                    ..KvRequest::put(b"seq", &1u64.to_le_bytes())
                })
                .collect();
            for r in store.execute_batch(&reqs) {
                prop_assert_eq!(r.status, Status::Ok);
                tickets.push(decode_scalar(Some(&r.value)));
            }
        }
        let expect: Vec<u64> = (0..tickets.len() as u64).collect();
        prop_assert_eq!(tickets, expect);
    }
}
