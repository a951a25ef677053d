//! Figure 17: latency of KV-Direct under YCSB load, with and without
//! network batching.
//!
//! Every cell is a closed-loop run of the timed engine (`SystemSim`) with
//! `LATENCY_WINDOWS` client windows in flight for the whole figure: the
//! functional store executes each operation and the client observes its
//! wire, decode, PCIe and NIC DRAM time, with the paper's p95 error bar
//! read from the run's histogram.

use kvd_bench::{
    banner, fmt_f, shape_check, KeyDist, Table, Ycsb, LATENCY_WINDOWS, SCALED_MEMORY, YCSB_OPS,
};
use kvd_core::system::{Percentile, SystemSimConfig, SystemSimReport};
use kvd_core::KvDirectConfig;

/// One run of a 100 % GET or 100 % PUT stream at `batch` ops per packet.
fn run(kv: u64, is_put: bool, dist: KeyDist, batch: usize) -> SystemSimReport {
    let cfg = SystemSimConfig {
        windows: LATENCY_WINDOWS,
        ..SystemSimConfig::paper(KvDirectConfig::with_memory(SCALED_MEMORY), batch)
    };
    let put_ratio = if is_put { 1.0 } else { 0.0 };
    Ycsb::new(kv as usize, put_ratio, dist)
        .run(cfg, 16 + kv)
        .report
}

/// The p50 (or p95) latency of the run's own operation type, in µs.
fn latency_us(r: &SystemSimReport, is_put: bool, p: Percentile) -> f64 {
    if is_put {
        r.put_us(p)
    } else {
        r.get_us(p)
    }
}

fn main() {
    banner(
        "Figure 17: latency under YCSB load",
        "non-batched tail latency spans ~3-10us; PUT > GET (extra memory \
         access); skewed < uniform (NIC DRAM cache hits); batching adds \
         <1us over non-batched",
    );

    for (batch, label) in [(40usize, "with batching"), (1, "without batching")] {
        let mut t = Table::new(
            &format!("Figure 17 ({label}): latency us (p50 / p95)"),
            &[
                "KV size B",
                "GET uniform",
                "GET skewed",
                "PUT uniform",
                "PUT skewed",
            ],
        );
        for kv in [10u64, 30, 57, 121, 249] {
            let mut cells = vec![kv.to_string()];
            for (is_put, dist) in [
                (false, KeyDist::Uniform),
                (false, KeyDist::Zipf),
                (true, KeyDist::Uniform),
                (true, KeyDist::Zipf),
            ] {
                let r = run(kv, is_put, dist, batch);
                cells.push(format!(
                    "{} / {}",
                    fmt_f(latency_us(&r, is_put, Percentile::P50), 1),
                    fmt_f(latency_us(&r, is_put, Percentile::P95), 1)
                ));
            }
            t.row(&cells);
        }
        t.print();
    }
    println!("({LATENCY_WINDOWS} client windows, {YCSB_OPS} ops per cell)\n");

    // Shape checks at the 62B point, non-batched.
    let get_u = run(62, false, KeyDist::Uniform, 1).get_us(Percentile::P50);
    let get_z = run(62, false, KeyDist::Zipf, 1).get_us(Percentile::P50);
    let put = run(62, true, KeyDist::Uniform, 1);
    let (put_u, p95) = (put.put_us(Percentile::P50), put.put_us(Percentile::P95));

    shape_check(
        "PUT latency exceeds GET",
        put_u > get_u,
        &format!("{put_u:.2} vs {get_u:.2} us"),
    );
    shape_check(
        "skewed GET is faster than uniform GET",
        get_z <= get_u,
        &format!("{get_z:.2} vs {get_u:.2} us (cache hits)"),
    );
    shape_check(
        "tail stays in the paper's band",
        p95 < 12.0 && get_z > 1.0,
        &format!("p95 = {p95:.1} us (paper: 3-10us non-batched)"),
    );

    // The paper batches to ~1KiB packets per KV size; 16 ops of 62B.
    let batched = run(62, false, KeyDist::Uniform, 16).get_us(Percentile::P50);
    shape_check(
        "batching adds less than 1us",
        (batched - get_u).abs() < 1.0,
        &format!("{batched:.2} vs {get_u:.2} us"),
    );
}
