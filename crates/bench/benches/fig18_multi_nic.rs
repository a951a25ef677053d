//! Multi-NIC scaling (paper §5.2, abstract): "With 10 programmable NIC
//! cards in a commodity server, we achieve 1.22 billion KV operations per
//! second", near-linear in the NIC count until host memory saturates.
//!
//! This harness *simulates* the experiment: one full timed pipeline
//! (client ↔ 40 GbE ↔ KV processor ↔ PCIe/DRAM) per NIC, key-partitioned
//! routing, and the quantum-synchronized host-memory arbiter standing in
//! for the server's shared DRAM controllers. The saturation knee emerges
//! from the arbiter charging each window's aggregate DMA traffic — not
//! from a closed-form cap. A functional sanity pass over the shards'
//! stores and a wall-clock speedup measurement (the engine itself runs on
//! OS worker threads) close the harness out; the measurement and its check
//! print on stderr, since they depend on the host.

use std::time::Instant;

use kvd_bench::{
    banner, fmt_f, multi_nic_engine, multi_nic_gets, shape_check, wall_check, Table, OPS_PER_NIC,
    SCALED_MEMORY,
};
use kvd_core::parallel::{ParallelSimConfig, ParallelSystemSim};
use kvd_core::KvDirectConfig;
use kvd_net::shard_of;

fn main() {
    banner(
        "Multi-NIC scaling (paper §5.2): 10 NICs → 1.22 Gops",
        "throughput scales near-linearly with NICs until the server's \
         aggregate host memory bandwidth caps it just above 1.2 Gops",
    );

    let mut t = Table::new(
        "simulated throughput vs number of NICs",
        &[
            "NICs",
            "Mops",
            "per-NIC Mops",
            "host lines/op",
            "stall/win us",
            "regime",
        ],
    );
    let mut per_nic_1 = 0.0;
    let mut mops_5 = 0.0;
    let mut mops_10 = 0.0;
    let mut stalled_10 = false;
    for &n in &[1usize, 2, 3, 4, 5, 6, 8, 10] {
        let mut sim = multi_nic_engine(n, 0);
        let r = sim.run(&multi_nic_gets(n, 0xF160 + n as u64));
        let lines_per_op = r.arbiter.lines as f64 / r.ops as f64;
        let stall_us = r.arbiter.stall.as_secs_f64() * 1e6 / r.arbiter.windows.max(1) as f64;
        let stalled = r.arbiter.oversubscribed > 0;
        match n {
            1 => per_nic_1 = r.mops,
            5 => mops_5 = r.mops,
            10 => {
                mops_10 = r.mops;
                stalled_10 = stalled;
            }
            _ => {}
        }
        t.row(&[
            n.to_string(),
            fmt_f(r.mops, 0),
            fmt_f(r.mops / n as f64, 1),
            fmt_f(lines_per_op, 2),
            fmt_f(stall_us, 2),
            if stalled {
                "host-bound".into()
            } else {
                "linear".to_string()
            },
        ]);
    }
    t.print();

    // Wall-clock: the same 10-NIC simulation, stepped by 1 worker thread
    // vs the machine's available parallelism. Both engines are built and
    // preloaded first, so only the stepping is timed.
    let reqs = multi_nic_gets(10, 0xF170);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (mut seq_sim, mut par_sim) = (multi_nic_engine(10, 1), multi_nic_engine(10, 0));
    let started = Instant::now();
    let seq = seq_sim.run(&reqs);
    let t_seq = started.elapsed();
    let started = Instant::now();
    let par = par_sim.run(&reqs);
    let t_par = started.elapsed();
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    eprintln!(
        "wall-clock, 10 shards x {} ops: 1 worker {:.0} ms, {} workers {:.0} ms ({speedup:.2}x)\n",
        OPS_PER_NIC,
        t_seq.as_secs_f64() * 1e3,
        cores.min(10),
        t_par.as_secs_f64() * 1e3,
    );
    assert_eq!(seq, par, "worker count must not change simulated results");

    // Functional pass: a 10-shard engine's stores behave like one store.
    let mut s = ParallelSystemSim::new(ParallelSimConfig::paper(
        KvDirectConfig::with_memory(SCALED_MEMORY),
        40,
        10,
    ));
    for i in 0..1000u64 {
        s.preload_put(&i.to_le_bytes(), &i.to_be_bytes())
            .expect("fits");
    }
    let all_ok = (0..1000u64).all(|i| {
        let key = i.to_le_bytes();
        s.shard_store_mut(shard_of(&key, 10)).get(&key) == Some(i.to_be_bytes().to_vec())
    });
    let loads: Vec<u64> = (0..10)
        .map(|i| s.shard_store_mut(i).processor().table().len())
        .collect();
    println!("shard loads: {loads:?}\n");

    shape_check(
        "10 NICs land near the paper's 1.22 Gops",
        (1100.0..1400.0).contains(&mops_10),
        &format!("{mops_10:.0} Mops simulated (paper: 1220)"),
    );
    shape_check(
        "scaling is near-linear through 5 NICs",
        mops_5 > per_nic_1 * 5.0 * 0.9,
        &format!(
            "5 NICs {:.0} Mops vs 5 x {:.0} = {:.0}",
            mops_5,
            per_nic_1,
            per_nic_1 * 5.0
        ),
    );
    shape_check(
        "10-NIC regime is host-memory-bound",
        stalled_10 && mops_10 < per_nic_1 * 10.0 * 0.95,
        &format!(
            "arbiter oversubscribed; 10 NICs {:.0} Mops < 10 x {:.0}",
            mops_10, per_nic_1
        ),
    );
    shape_check(
        "per-NIC throughput near the 180 Mops clock bound",
        (140.0..200.0).contains(&per_nic_1),
        &format!("{per_nic_1:.0} Mops at 1 NIC (paper: ~180)"),
    );
    shape_check(
        "functional sharding correct and balanced",
        all_ok && loads.iter().all(|&l| l > 50),
        &format!("1000 keys across shards {loads:?}"),
    );
    let threaded_ok = cores == 1 || speedup > 1.05;
    wall_check(
        "parallel stepping beats sequential wall-clock",
        threaded_ok,
        &format!("{speedup:.2}x with {cores} cores available"),
    );
}
