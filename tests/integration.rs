//! Cross-crate integration: wire format → KV processor → memory stack.
//!
//! These tests exercise the full request path the way a client would:
//! encode a packet, decode it NIC-side, execute it on a store backed by
//! the dispatched memory stack (host memory + NIC DRAM cache + PCIe
//! accounting), and check both the responses and the hardware-side
//! counters.

use kv_direct::lambda::{decode_scalar, encode_vector};
use kv_direct::mem::MemoryEngine;
use kv_direct::{
    builtin, decode_packet_ref, encode_packet, KvDirectConfig, KvDirectStore, KvRequest, OpCode,
    Status,
};

fn store() -> KvDirectStore {
    KvDirectStore::new(KvDirectConfig::with_memory(4 << 20))
}

#[test]
fn packet_roundtrip_through_store() {
    let mut s = store();
    let reqs = vec![
        KvRequest::put(b"alpha", b"1"),
        KvRequest::put(b"beta", b"2"),
        KvRequest::get(b"alpha"),
        KvRequest {
            op: OpCode::UpdateScalar,
            key: b"ctr".to_vec(),
            value: 3u64.to_le_bytes().to_vec(),
            lambda: builtin::ADD,
            deadline_us: 0,
            expiry_tick: 0,
        },
        KvRequest::get(b"ctr"),
        KvRequest::delete(b"beta"),
        KvRequest::get(b"beta"),
    ];
    // Through the wire: encode client-side, decode NIC-side.
    let packet = encode_packet(&reqs);
    let decoded = decode_packet_ref(&packet).expect("well-formed packet");
    assert_eq!(
        decoded,
        reqs.iter().map(KvRequest::as_ref).collect::<Vec<_>>()
    );
    let rs = s.execute_batch(&reqs);
    assert_eq!(rs[2].value, b"1");
    assert_eq!(decode_scalar(Some(&rs[3].value)), 0, "original value");
    assert_eq!(decode_scalar(Some(&rs[4].value)), 3, "GET sees the add");
    assert_eq!(rs[5].status, Status::Ok);
    assert_eq!(rs[6].status, Status::NotFound);
}

#[test]
fn dispatched_memory_serves_both_devices() {
    // With load dispatch ratio 0.5, a busy store must touch both PCIe
    // and NIC DRAM, and the cache must produce hits on hot keys.
    let mut s = store();
    for i in 0..2000u64 {
        s.put(&i.to_le_bytes(), &i.to_be_bytes()).unwrap();
    }
    // Hot reads over a small working set.
    for _ in 0..10 {
        for i in 0..64u64 {
            assert!(s.get(&i.to_le_bytes()).is_some());
        }
    }
    let m = s.processor().table().mem().stats();
    assert!(m.dma_reads + m.dma_writes > 0, "PCIe untouched");
    assert!(m.dram_reads + m.dram_writes > 0, "NIC DRAM untouched");
    assert!(m.cache_hits > 0, "cache never hit");
}

#[test]
fn station_forwarding_reduces_memory_traffic_end_to_end() {
    let mut s = store();
    s.put(b"hot", b"x").unwrap();
    let before = s.processor().table().mem().stats().accesses();
    // 1000 GETs of one key in one batch: the station forwards all but
    // the first.
    let reqs: Vec<KvRequest> = (0..1000).map(|_| KvRequest::get(b"hot")).collect();
    let rs = s.execute_batch(&reqs);
    assert!(rs.iter().all(|r| r.value == b"x"));
    let after = s.processor().table().mem().stats().accesses();
    assert!(
        after - before <= 2,
        "forwarding failed: {} accesses",
        after - before
    );
}

#[test]
fn vector_pipeline_with_user_lambda() {
    let mut s = store();
    s.register_lambda(
        77,
        kv_direct::Lambda::ScalarToVector(std::sync::Arc::new(|e, p| e.max(p))),
    );
    s.put(b"v", &encode_vector(&[1, 100, 3])).unwrap();
    let orig = s.vector_update(b"v", 77, 50).unwrap();
    assert_eq!(orig, vec![1, 100, 3]);
    let now = kv_direct::lambda::decode_vector(&s.get(b"v").unwrap());
    assert_eq!(now, vec![50, 100, 50]);
}

#[test]
fn slab_reuse_under_churn() {
    // Insert/delete churn of non-inline values must not leak dynamic
    // memory: the Nth generation still fits.
    let mut s = store();
    for gen in 0..20 {
        for i in 0..200u64 {
            let key = i.to_le_bytes();
            s.put(&key, &[gen as u8; 200]).unwrap();
        }
        for i in 0..200u64 {
            assert!(s.delete(&i.to_le_bytes()));
        }
    }
    let a = s.ledger().slab;
    assert_eq!(a.allocs, a.frees, "allocator leak: {a:?}");
}

#[test]
fn utilization_metric_consistent_across_stack() {
    let mut s = store();
    for i in 0..500u64 {
        s.put(&i.to_le_bytes(), &[1u8; 16]).unwrap();
    }
    let t = s.processor().table();
    assert_eq!(t.len(), 500);
    assert_eq!(t.stored_bytes(), 500 * 24);
    let u = t.memory_utilization();
    assert!((u - (500.0 * 24.0 / (4 << 20) as f64)).abs() < 1e-12);
}

#[test]
fn multi_nic_matches_single_nic_semantics() {
    use kv_direct::net::shard_of;
    use kv_direct::{ParallelSimConfig, ParallelSystemSim};
    let mut single = store();
    let mut multi = ParallelSystemSim::new(ParallelSimConfig::paper(
        KvDirectConfig::with_memory(4 << 20),
        8,
        4,
    ));
    // The NIC that owns a key, as the client routes it.
    let nic = |k: &[u8]| shard_of(k, 4);
    for i in 0..300u64 {
        let k = i.to_le_bytes();
        let v = (i * 17).to_le_bytes();
        single.put(&k, &v).unwrap();
        multi.shard_store_mut(nic(&k)).put(&k, &v).unwrap();
    }
    for i in 0..300u64 {
        let k = i.to_le_bytes();
        assert_eq!(
            single.get(&k),
            multi.shard_store_mut(nic(&k)).get(&k),
            "key {i}"
        );
    }
    for i in (0..300u64).step_by(3) {
        let k = i.to_le_bytes();
        assert_eq!(single.delete(&k), multi.shard_store_mut(nic(&k)).delete(&k));
    }
    for i in 0..300u64 {
        let k = i.to_le_bytes();
        assert_eq!(single.get(&k), multi.shard_store_mut(nic(&k)).get(&k));
    }
}

#[test]
fn wire_round_trip_in_packets_of_eight() {
    use kv_direct::net::{decode_packet_ref, decode_responses, encode_responses, KvResponse};

    let mut server = store();
    // A mixed PUT/GET stream crosses the wire eight requests to a packet:
    // the client encodes, the NIC decodes in place and executes, and the
    // encoded responses decode back in request order.
    let stream: Vec<KvRequest> = (0..50u64)
        .flat_map(|i| {
            [
                KvRequest::put(&i.to_le_bytes(), &i.to_be_bytes()),
                KvRequest::get(&i.to_le_bytes()),
            ]
        })
        .collect();
    let mut gets = 0;
    for packet in stream.chunks(8) {
        let wire = encode_packet(packet);
        let reqs = decode_packet_ref(&wire).expect("client encoding decodes");
        assert_eq!(
            reqs,
            packet.iter().map(KvRequest::as_ref).collect::<Vec<_>>()
        );
        let mut answered = vec![KvResponse::default(); reqs.len()];
        server.run(&reqs[..], &mut answered);
        let resps = decode_responses(&encode_responses(&answered)).expect("responses decode");
        assert_eq!(resps.len(), packet.len());
        for (req, resp) in packet.iter().zip(&resps) {
            assert_eq!(resp.status, Status::Ok, "{req:?}");
            if req.op == OpCode::Get {
                let i = u64::from_le_bytes(req.key.as_slice().try_into().unwrap());
                assert_eq!(resp.value, i.to_be_bytes(), "key {i}");
                gets += 1;
            }
        }
    }
    assert_eq!(gets, 50, "every GET answered");
}
