//! Stateful network functions on KV-Direct vector values (paper §3.2).
//!
//! "Update operations with user-defined functions are capable of general
//! stream processing on a vector value. For example, a network processing
//! application may interpret the vector as a stream of packets for
//! network functions or a bunch of states for packet transactions."
//!
//! This example implements a per-flow **token-bucket rate limiter** whose
//! state (one 64-bit word per flow: tokens in the low 32 bits, a coarse
//! timestamp in the high 32) lives in the KVS as a vector, with all state
//! transitions executed NIC-side by registered λ functions:
//!
//! * a `update_vector2vector` λ admits a burst of packets — each element
//!   is one flow's state, each parameter element the packet count to
//!   admit against that flow;
//! * a `update_scalar2vector` λ refills every bucket in one operation —
//!   the periodic timer tick.
//!
//! Run with: `cargo run --release --example network_function`

use kv_direct::lambda::{decode_vector, encode_vector};
use kv_direct::{KvDirectConfig, KvDirectStore, Lambda};

/// Tokens field: low 32 bits. Admitted-drop counters ride along in the
/// timestamp field (high 32) for the demo.
const TOKENS_MASK: u64 = 0xFFFF_FFFF;
/// Bucket capacity (tokens).
const BURST: u64 = 20;
/// λ ids ("compiled" before use).
const ADMIT: u16 = 500;
const REFILL: u16 = 501;

fn tokens(state: u64) -> u64 {
    state & TOKENS_MASK
}

fn drops(state: u64) -> u64 {
    state >> 32
}

fn main() {
    // Shard state is a 512-byte vector; enable the extended slab ladder
    // (the paper's 32-512B default tops out just below it with the key
    // and record header).
    let mut store = KvDirectStore::new(KvDirectConfig {
        extended_slabs: true,
        ..KvDirectConfig::with_memory(8 << 20)
    });

    // ADMIT: spend min(request, tokens); count the excess as drops.
    store.register_lambda(
        ADMIT,
        Lambda::VectorToVector(std::sync::Arc::new(|state, want| {
            let t = tokens(state);
            let spent = want.min(t);
            let dropped = want - spent;
            ((drops(state) + dropped) << 32) | (t - spent)
        })),
    );
    // REFILL: add `rate` tokens to every flow, capped at BURST.
    store.register_lambda(
        REFILL,
        Lambda::ScalarToVector(std::sync::Arc::new(|state, rate| {
            let t = (tokens(state) + rate).min(BURST);
            (drops(state) << 32) | t
        })),
    );

    // 64 flows per shard, buckets initially full.
    let flows = 64usize;
    let init: Vec<u64> = vec![BURST; flows];
    store.put(b"shard:0", &encode_vector(&init)).expect("fits");

    // Traffic: flow 3 is an elephant (8 pkts/tick), others mice (0-2).
    let mut rng = kv_direct::sim::DetRng::seed(5);
    let ticks = 200usize;
    for _ in 0..ticks {
        let wants: Vec<u64> = (0..flows)
            .map(|f| if f == 3 { 8 } else { rng.u64_below(3) })
            .collect();
        // One NIC-side operation admits the whole shard's burst.
        store
            .vector_update_elementwise(b"shard:0", ADMIT, &wants)
            .expect("shard exists");
        // Timer tick: refill 2 tokens per flow, also one operation.
        store
            .vector_update(b"shard:0", REFILL, 2)
            .expect("shard exists");
    }

    let final_state = decode_vector(&store.get(b"shard:0").expect("present"));
    let elephant_drops = drops(final_state[3]);
    let mouse_drops: u64 = final_state
        .iter()
        .enumerate()
        .filter(|(f, _)| *f != 3)
        .map(|(_, &s)| drops(s))
        .sum();
    println!("token-bucket rate limiter over {ticks} ticks, {flows} flows:");
    println!("  elephant flow 3: {elephant_drops} packets dropped (wanted 8/tick, rate 2/tick)");
    println!("  all mice combined: {mouse_drops} packets dropped");
    println!(
        "  NIC-side ops: {} (vs {} per-packet ops a per-element scheme would need)",
        store.ledger().core.updates,
        ticks * flows
    );

    // The limiter discriminated: the elephant lost most of its excess
    // (~6 packets per tick), the mice essentially nothing.
    assert!(
        elephant_drops > (ticks as u64) * 5,
        "elephant under-limited"
    );
    assert!(mouse_drops < (ticks as u64) / 4, "mice over-limited");
    // Tokens never exceed the burst cap.
    assert!(final_state.iter().all(|&s| tokens(s) <= BURST));
}
