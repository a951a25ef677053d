//! Distributed sequencers and the out-of-order engine (paper §3.3.3).
//!
//! "Atomic operations on several extremely popular keys appear in
//! applications such as centralized schedulers, sequencers, counters and
//! short-term values." This example runs a multi-tenant sequencer
//! service on KV-Direct and then *shows the mechanism*: the same
//! single-key atomics stream runs through the timed engine with and
//! without the out-of-order engine, reproducing the paper's 0.94 → 180
//! Mops jump (a ~191× improvement).
//!
//! Run with: `cargo run --release --example sequencer`

use kv_direct::system::{SystemSim, SystemSimConfig};
use kv_direct::{builtin, KvDirectConfig, KvDirectStore, KvRequest, OpCode};

fn main() {
    // --- Functional service ---------------------------------------------
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(4 << 20));
    let tenants = ["orders", "payments", "audit-log"];
    let mut handed_out = Vec::new();
    for round in 0..5 {
        for t in &tenants {
            let key = format!("seq:{t}");
            let ticket = store.fetch_add(key.as_bytes(), 1).unwrap();
            handed_out.push((t.to_string(), ticket));
            println!("round {round}: tenant {t:>10} got ticket {ticket}");
        }
    }
    // Tickets are dense and strictly increasing per tenant.
    for t in &tenants {
        let mine: Vec<u64> = handed_out
            .iter()
            .filter(|(n, _)| n == t)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(mine, (0..5).collect::<Vec<u64>>(), "tenant {t}");
    }

    // --- The mechanism: Figure 13a in miniature -------------------------
    // Dependent fetch-adds on ONE hot sequencer key, 64 client windows of
    // 40. The NIC DRAM cache is off (load dispatch ratio 0), as in Figure
    // 13a, so without forwarding each op waits out a PCIe round trip.
    let fetch_add = KvRequest {
        op: OpCode::UpdateScalar,
        key: b"seq:orders".to_vec(),
        value: 1u64.to_le_bytes().to_vec(),
        lambda: builtin::ADD,
        deadline_us: 0,
        expiry_tick: 0,
    };
    let stream = vec![fetch_add; 60_000];
    let run = |forwarding: bool| {
        let mut cfg = SystemSimConfig {
            windows: 64,
            ..SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40)
        };
        cfg.store.load_dispatch_ratio = 0.0;
        cfg.store.station.forwarding = forwarding;
        SystemSim::new(cfg).run(&stream)
    };
    let (stall, ooo) = (run(false), run(true));

    println!("\n-- single-key atomics, timed engine --");
    println!(
        "pipeline stalling on hazards : {:>8.2} Mops   (paper: 0.94)",
        stall.mops
    );
    println!(
        "with out-of-order execution  : {:>8.2} Mops   (paper: 180, clock-bound)",
        ooo.mops
    );
    println!(
        "speedup                      : {:>8.0}x       (paper: 191x)",
        ooo.mops / stall.mops
    );
    println!(
        "operations forwarded          : {} of {}",
        ooo.ledger.station.forwarded, ooo.ops
    );

    assert!(ooo.mops / stall.mops > 100.0, "OoO speedup collapsed");
}
