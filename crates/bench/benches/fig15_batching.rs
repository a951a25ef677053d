//! Figure 15: efficiency of network batching — throughput gain and the
//! latency it costs, as a function of the *batched size* (bytes of KV
//! operations packed into one packet).

use kvd_bench::{banner, fmt_f, shape_check, Table};
use kvd_net::{batched_throughput, batching_latency};

/// KV size of the batched operations (16 B: 8 B key + 8 B value).
const KV: u64 = 16;

fn main() {
    banner(
        "Figure 15: network batching efficiency",
        "packing operations into packets multiplies small-KV throughput \
         several-fold (paper: up to 4x) while keeping network latency \
         under ~3.5us; batching adds <1us over non-batched",
    );

    let un_tp = batched_throughput(KV, 1);
    let un_lat = batching_latency(KV, 1);

    let mut t = Table::new(
        "Figure 15: throughput and latency vs batched size (16B KVs)",
        &[
            "batched B",
            "ops/packet",
            "Mops",
            "gain",
            "latency us",
            "added us",
        ],
    );
    t.row(&[
        format!("{KV} (none)"),
        "1".into(),
        fmt_f(un_tp.mops(), 1),
        "1.00x".into(),
        fmt_f(un_lat.as_us(), 2),
        "0.00".into(),
    ]);
    let mut final_gain = 0.0;
    let mut max_lat = 0.0f64;
    let mut added_at_operating_point = 0.0f64;
    for batched_bytes in [64u64, 128, 256, 512, 1024, 2048] {
        let batch = batched_bytes / KV;
        let tp = batched_throughput(KV, batch);
        let lat = batching_latency(KV, batch);
        let gain = tp.ops_per_sec / un_tp.ops_per_sec;
        let added = (lat - un_lat).as_us();
        final_gain = gain;
        max_lat = max_lat.max(lat.as_us());
        if batched_bytes == 640 / KV * KV || batched_bytes == 512 {
            // The paper's operating point is ~40 ops per packet (§5.2.1);
            // 512B is the nearest swept batch.
            added_at_operating_point = added;
        }
        t.row(&[
            batched_bytes.to_string(),
            batch.to_string(),
            fmt_f(tp.mops(), 1),
            format!("{gain:.2}x"),
            fmt_f(lat.as_us(), 2),
            fmt_f(added, 2),
        ]);
    }
    t.print();
    println!(
        "(our wire format elides repeated sizes/values, so the gain \
         slightly exceeds the paper's 4x — see EXPERIMENTS.md)\n"
    );

    shape_check(
        "batching gain is several-fold",
        (3.0..9.0).contains(&final_gain),
        &format!("{final_gain:.2}x at 2KiB batches (paper: up to 4x)"),
    );
    shape_check(
        "batching adds under 1us at the operating point",
        added_at_operating_point < 1.0,
        &format!("added {added_at_operating_point:.2}us at ~32-op batches"),
    );
    shape_check(
        "network latency stays below 3.5us",
        max_lat < 3.5,
        &format!("max batched latency {max_lat:.2}us (paper Figure 15b)"),
    );
}
