//! Single-object transactions in the NIC: TPC-C stock updates.
//!
//! Paper §3.2: "Single-object transaction processing completely in the
//! programmable NIC is also possible, e.g., wrapping around S_QUANTITY
//! in TPC-C." A New-Order transaction decrements a stock item's quantity
//! with TPC-C's wrap rule — if the result would drop below 10, add 91.
//! Registered as a user-defined update λ, the whole read-modify-write
//! executes atomically NIC-side: one network operation, no client
//! synchronization, and the out-of-order engine keeps hot items at one
//! transaction per clock cycle.
//!
//! Run with: `cargo run --release --example tpcc_stock`

use kv_direct::lambda::decode_scalar;
use kv_direct::sim::{DetRng, ZipfSampler};
use kv_direct::system::{SystemSim, SystemSimConfig};
use kv_direct::{KvDirectConfig, KvDirectStore, KvRequest, Lambda, OpCode};

/// λ id for the TPC-C stock wrap-around decrement.
const STOCK_DECREMENT: u16 = 400;

/// Encodes (ol_quantity) into the λ parameter.
fn decrement(store: &mut KvDirectStore, item: u32, ol_quantity: u64) -> u64 {
    store
        .update_scalar(item_key(item).as_slice(), STOCK_DECREMENT, ol_quantity)
        .expect("stock item exists")
}

fn item_key(item: u32) -> Vec<u8> {
    let mut k = b"stock:".to_vec();
    k.extend_from_slice(&item.to_le_bytes());
    k
}

/// TPC-C rule 2.4.2.2: s_quantity' = s_quantity − ol_quantity, and if
/// that is below 10, add 91.
fn stock_decrement() -> Lambda {
    Lambda::Scalar(std::sync::Arc::new(|s_quantity, ol_quantity| {
        let dec = s_quantity.saturating_sub(ol_quantity);
        if dec >= 10 {
            dec
        } else {
            dec + 91
        }
    }))
}

fn main() {
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(16 << 20));

    // The stock λ, pre-registered ("compiled") before use.
    store.register_lambda(STOCK_DECREMENT, stock_decrement());

    // Load a warehouse district: 10,000 items, initial quantity 50.
    let n_items = 10_000u32;
    for item in 0..n_items {
        store
            .put(&item_key(item), &50u64.to_le_bytes())
            .expect("inventory fits");
    }

    // New-Order stream: items drawn from a Zipf (hot items exist in any
    // real store), order-line quantities 1..=10.
    let mut rng = DetRng::seed(42);
    let zipf = ZipfSampler::new(n_items as u64, 0.99);
    let transactions = 50_000usize;
    let mut wraps = 0u64;
    for _ in 0..transactions {
        let item = zipf.sample(&mut rng) as u32;
        let qty = 1 + rng.u64_below(10);
        let before = decrement(&mut store, item, qty);
        // The wrap rule fired iff the original was within qty+10.
        if before < qty + 10 {
            wraps += 1;
        }
    }

    // Invariant: TPC-C quantities stay in a sane band — the wrap rule
    // guarantees ≥10 after every transaction except via the +91 path.
    let mut min_q = u64::MAX;
    let mut max_q = 0u64;
    for item in 0..n_items {
        let q = decode_scalar(store.get(&item_key(item)).as_deref());
        min_q = min_q.min(q);
        max_q = max_q.max(q);
        assert!(q <= 141, "item {item} quantity {q} escaped the band");
    }
    println!("{transactions} New-Order stock updates executed NIC-side");
    println!("wrap-arounds applied : {wraps}");
    println!("quantity band        : [{min_q}, {max_q}] (rule keeps it bounded)");

    let st = store.processor().station_stats();
    println!(
        "hot-item transactions forwarded by the OoO engine: {} ({:.0}%)",
        st.forwarded,
        st.forwarded as f64 / (st.forwarded + st.issued) as f64 * 100.0
    );

    // The mechanism at scale: transactions on one hot item through the
    // timed engine, with and without the out-of-order engine — the paper's
    // single-key atomics argument (Figure 13a, NIC DRAM cache off) applied
    // to TPC-C.
    let order_line = KvRequest {
        op: OpCode::UpdateScalar,
        key: item_key(1),
        value: 5u64.to_le_bytes().to_vec(),
        lambda: STOCK_DECREMENT,
        deadline_us: 0,
        expiry_tick: 0,
    };
    let stream = vec![order_line; 60_000];
    let run = |forwarding: bool| {
        let mut cfg = SystemSimConfig {
            windows: 64,
            ..SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40)
        };
        cfg.store.load_dispatch_ratio = 0.0;
        cfg.store.station.forwarding = forwarding;
        let mut sim = SystemSim::new(cfg);
        sim.store_mut()
            .register_lambda(STOCK_DECREMENT, stock_decrement());
        sim.store_mut()
            .put(&item_key(1), &50u64.to_le_bytes())
            .expect("item fits");
        sim.run(&stream).mops
    };
    let (stall, ooo) = (run(false), run(true));
    println!(
        "\nhot-item transaction rate: {stall:.2} Mtps stalled vs {ooo:.1} Mtps with OoO ({:.0}x)",
        ooo / stall
    );
    assert!(ooo / stall > 100.0);
}
