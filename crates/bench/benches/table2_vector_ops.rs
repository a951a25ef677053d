//! Table 2: throughput of atomic vector update against the alternatives
//! (one key per element; fetch the vector to the client), plus a
//! functional demonstration that the operations compute the same result.

use kvd_bench::{banner, fmt_f, shape_check, Table};
use kvd_core::lambda::{decode_vector, encode_vector};
use kvd_core::{builtin, KvDirectConfig, KvDirectStore};
use kvd_net::{vector_strategies, VectorStrategy};

fn main() {
    banner(
        "Table 2: vector operation throughput (GB/s of vector data)",
        "KV-Direct vector update dominates: without return it is \
         PCIe-bound (~6.6 GB/s), with return network-bound (~5 GB/s); \
         per-element KVs and fetch-to-client drown in network overhead \
         (and give up consistency within the vector)",
    );

    let sizes = [64u64, 256, 1024, 4096, 16 * 1024, 64 * 1024];
    let mut t = Table::new(
        "Table 2: GB/s per strategy and vector size",
        &["strategy", "64B", "256B", "1KiB", "4KiB", "16KiB", "64KiB"],
    );
    let mut by_strategy = std::collections::HashMap::new();
    for strat in VectorStrategy::all() {
        let mut cells = vec![strat.label().to_string()];
        let mut series = Vec::new();
        for &size in &sizes {
            let r = vector_strategies(size);
            let g = r
                .iter()
                .find(|x| x.strategy == strat)
                .expect("strategy present")
                .gbps();
            series.push(g);
            cells.push(fmt_f(g, 2));
        }
        by_strategy.insert(strat.label(), series);
        t.row(&cells);
    }
    t.print();

    // Functional demonstration at 4KiB (512 elements).
    let mut store = KvDirectStore::new(KvDirectConfig {
        extended_slabs: true,
        ..KvDirectConfig::with_memory(4 << 20)
    });
    let v: Vec<u64> = (0..512).collect();
    store.put(b"vec", &encode_vector(&v)).expect("fits");
    let orig = store.vector_update(b"vec", builtin::VADD, 7).expect("ok");
    assert_eq!(orig, v);
    let updated = decode_vector(&store.get(b"vec").expect("present"));
    assert!(updated.iter().zip(&v).all(|(a, b)| *a == b + 7));
    println!("functional check: 512-element vector updated atomically NIC-side\n");

    let with = &by_strategy["Vector update with return"];
    let without = &by_strategy["Vector update without return"];
    let per_elem = &by_strategy["One key per element"];
    let fetch = &by_strategy["Fetch to client"];
    let last = sizes.len() - 1;

    shape_check(
        "update w/o return is PCIe-bound (~6.6 GB/s)",
        (6.0..7.0).contains(&without[last]),
        &format!("{:.2} GB/s at 64KiB", without[last]),
    );
    shape_check(
        "update with return is network-bound (~5 GB/s)",
        (4.0..5.1).contains(&with[last]),
        &format!("{:.2} GB/s at 64KiB", with[last]),
    );
    shape_check(
        "KV-Direct beats both alternatives at every size",
        (0..sizes.len()).all(|i| with[i] > per_elem[i] && with[i] > fetch[i]),
        "vector update > one-key-per-element and > fetch-to-client",
    );
}
