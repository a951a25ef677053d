//! Figure 3: PCIe random DMA performance.
//!
//! (a) throughput vs request payload size for DMA reads and writes;
//! (b) the latency distribution of random DMA reads.

use kvd_bench::{banner, fmt_f, shape_check, Table};
use kvd_pcie::{saturate_reads, saturate_writes};

fn main() {
    banner(
        "Figure 3: PCIe random DMA performance (Gen3 x8 endpoint)",
        "64B reads cap near 60 Mops (64 tags / ~1.05us RTT); writes are \
         bandwidth-bound (~87 Mops at 64B); read latency spans ~0.8-1.3us",
    );

    let ops = 20_000;

    // --- (a) throughput vs payload size ---------------------------------
    let mut t = Table::new(
        "Figure 3a: DMA throughput vs payload",
        &[
            "payload B",
            "read Mops",
            "write Mops",
            "read GB/s",
            "write GB/s",
            "paper",
        ],
    );
    let mut read64 = 0.0;
    let mut write64 = 0.0;
    for payload in [16u64, 32, 64, 128, 256, 512, 1024] {
        let r = saturate_reads(payload, ops, 1);
        let w = saturate_writes(payload, ops, 1);
        if payload == 64 {
            read64 = r.mops();
            write64 = w.mops();
        }
        let note = match payload {
            64 => "read ~60 Mops",
            _ => "",
        };
        t.row(&[
            payload.to_string(),
            fmt_f(r.mops(), 1),
            fmt_f(w.mops(), 1),
            fmt_f(r.bytes_per_sec / 1e9, 2),
            fmt_f(w.bytes_per_sec / 1e9, 2),
            note.to_string(),
        ]);
    }
    t.print();

    // --- (b) read latency CDF --------------------------------------------
    let r = saturate_reads(64, ops, 2);
    let lat = r.latency.expect("reads have latency");
    let mut t = Table::new(
        "Figure 3b: random 64B DMA read RTT latency",
        &["percentile", "ns", "paper"],
    );
    for (p, v, note) in [
        ("min", lat.min, "~800 (cached floor)"),
        ("p5", lat.p5, ""),
        ("p50", lat.p50, "~1050 mean"),
        ("p95", lat.p95, ""),
        ("p99", lat.p99, "~1300 + queueing"),
        ("max", lat.max, ""),
    ] {
        t.row(&[p.to_string(), fmt_f(v as f64 / 1000.0, 0), note.to_string()]);
    }
    t.print();

    shape_check(
        "read tag ceiling",
        (50.0..70.0).contains(&read64),
        &format!("64B read = {read64:.1} Mops (paper ~60)"),
    );
    shape_check(
        "writes beat reads at 64B",
        write64 > read64,
        &format!("write {write64:.1} vs read {read64:.1} Mops"),
    );
    shape_check(
        "latency floor",
        lat.min >= 800_000,
        &format!(
            "min RTT = {:.0} ns (paper: 800 cached)",
            lat.min as f64 / 1000.0
        ),
    );
}
