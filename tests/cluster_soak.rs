//! Cluster chaos soak: kill a whole member mid-run and check the
//! survivors against a per-key linearizability model.
//!
//! The fault plane one level up from `chaos_soak.rs`: instead of DMA
//! faults inside one host, an entire member of an M-node cluster loses
//! power mid-run ([`NodeKill`]). The soak drives a seeded mixed
//! PUT/GET/DELETE workload across the failover window and then replays
//! every read against `kvd-model`'s per-key mutation history:
//!
//! * **Zero acked writes lost** — a write the cluster acknowledged must
//!   be visible to every read that starts after the ack, including the
//!   trailing read-back pass after the failover settles.
//! * **Linearizability per key** — each read must observe the state of
//!   some prefix of that key's client-ordered mutation history, where
//!   the admissible prefix range is bounded below by what had committed
//!   before the read was issued and above by what had been issued when
//!   the read resolved.
//! * **Monotonic versions** — reads of one key in issue order never
//!   observe a version going backwards across the failover window
//!   (tails apply in order; promotion moves the tail strictly up-chain).
//!
//! The companion determinism test re-runs one soak on 1/2/4 OS workers
//! and requires the merged ledgers to be bit-identical — the window
//! lockstep discipline, restated as an end-to-end assertion.

use kvd_core::cluster::QUANTUM;
use kvd_core::{ClusterSim, ClusterSimConfig, NodeKill};
use kvd_model::{check_linearizable, versioned, Resolved};
use kvd_net::{KvRequest, Status};
use kvd_sim::{DetRng, SimTime};

const KEYS: u64 = 40;
const OPS: usize = 360;

/// A seeded mixed workload spanning the kill: writes and reads
/// interleave from before the kill window until well after detection,
/// then a quiet gap and one trailing GET per key reads the final state
/// back.
fn soak_schedule(seed: u64) -> Vec<(SimTime, KvRequest)> {
    let mut rng = DetRng::seed(seed);
    let mut versions = vec![0u64; KEYS as usize];
    let mut next_version = 1u64;
    let mut sched = Vec::with_capacity(OPS + KEYS as usize);
    let mut t = SimTime::ZERO;
    for _ in 0..OPS {
        // ~140 us of traffic: the kill at window 40 (80 us) and the
        // detection window land mid-stream.
        t += SimTime::from_ns(300 + rng.u64_below(200));
        let id = rng.u64_below(KEYS);
        let roll = rng.f64();
        let req = if roll < 0.50 {
            KvRequest::get(&id.to_le_bytes())
        } else if roll < 0.92 || versions[id as usize] == 0 {
            versions[id as usize] = next_version;
            next_version += 1;
            KvRequest::put(&id.to_le_bytes(), &versioned(id, versions[id as usize]))
        } else {
            versions[id as usize] = 0;
            KvRequest::delete(&id.to_le_bytes())
        };
        sched.push((t, req));
    }
    // Quiet period, then read back every key.
    let mut late = t + SimTime::from_us(300);
    for id in 0..KEYS {
        sched.push((late, KvRequest::get(&id.to_le_bytes())));
        late += SimTime::from_ns(400);
    }
    sched
}

fn soak(
    seed: u64,
    rf: usize,
    workers: usize,
) -> (Vec<(SimTime, KvRequest)>, kvd_core::ClusterReport) {
    let mut cfg = ClusterSimConfig::smoke(4, rf);
    cfg.workers = workers;
    cfg.kill = Some(NodeKill {
        node: 1,
        window: 40,
    });
    let sched = soak_schedule(seed);
    let mut cluster = ClusterSim::new(cfg);
    let report = cluster.run(&sched);
    assert_eq!(
        report.kill_window,
        Some(40),
        "seed {seed:#x}: kill must fire"
    );
    let detect = report
        .detect_window
        .expect("survivors must detect the dead member");
    assert!(detect > 40, "detection strictly after the kill");
    assert_eq!(report.ledger.cluster.node_kills, 1);
    assert_eq!(report.ledger.cluster.failovers, 1);
    assert_eq!(
        report.ledger.cluster.writes_failed, 0,
        "seed {seed:#x}: no write may fail under a single kill at RF {rf}"
    );
    let records: Vec<Resolved> = (report.records.iter())
        .map(|r| (r.status, &r.value[..], r.acked, r.done_window))
        .collect();
    let label = format!("seed {seed:#x} rf {rf}");
    check_linearizable(&sched, &records, QUANTUM, &label);
    (sched, report)
}

#[test]
fn rf2_node_kill_soak_is_linearizable() {
    for seed in [0xC1A0_5001u64, 0xC1A0_5002, 0xC1A0_5003] {
        let (_, report) = soak(seed, 2, 1);
        // The failover left its footprint in the ledger.
        assert!(report.ledger.cluster.rep_frames > 0);
        assert!(report.ledger.cluster.heartbeats > 0);
        assert!(report.ledger.cluster.failover_depth_windows > 0);
    }
}

#[test]
fn rf3_node_kill_soak_is_linearizable() {
    for seed in [0xC1A0_5001u64, 0xC1A0_5004] {
        let (_, report) = soak(seed, 3, 1);
        // RF=3 pushes strictly more replication traffic than the same
        // schedule at RF=2 — the cost the EXPERIMENTS table measures.
        assert!(report.ledger.cluster.rep_frames > 0);
    }
}

/// TTL stamps ride the replication chain: a stamped write acked before
/// a node kill must still expire on the survivors, and an immortal
/// write must still be served — whoever ends up as tail after failover.
///
/// Keys 0..12 are written before the kill (odd ids stamped to die at
/// tick 1 = 1 ms of sim time, even ids immortal); key 12 is stamped
/// during the failover window. An early read pass (~300 µs, failover
/// settled, TTL not yet lapsed) must serve every key; a late pass
/// (3 ms, two ticks past every stamp) must miss exactly the stamped
/// keys. Lazy expiry on the read path and the per-batch reaper both
/// run on the member stores, so the merged ledger also shows the
/// stamps were *applied* (not just forwarded) on more than one node.
#[test]
fn ttl_stamps_survive_failover_and_expire_on_survivors() {
    const N: u64 = 12;
    let stamped = |id: u64| id % 2 == 1 || id == N;
    let mut sched: Vec<(SimTime, KvRequest)> = Vec::new();
    let mut t = SimTime::ZERO;
    for id in 0..N {
        t += SimTime::from_ns(500);
        let req = KvRequest::put(&id.to_le_bytes(), &versioned(id, 1));
        let req = if stamped(id) { req.with_ttl(1) } else { req };
        sched.push((t, req));
    }
    // Stamped write issued mid-failover (kill at 80 µs, detection later).
    sched.push((
        SimTime::from_us(200),
        KvRequest::put(&N.to_le_bytes(), &versioned(N, 1)).with_ttl(1),
    ));
    let mut early = SimTime::from_us(300);
    for id in 0..=N {
        sched.push((early, KvRequest::get(&id.to_le_bytes())));
        early += SimTime::from_ns(400);
    }
    let mut late = SimTime::from_ms(3);
    for id in 0..=N {
        sched.push((late, KvRequest::get(&id.to_le_bytes())));
        late += SimTime::from_ns(400);
    }

    let mut cfg = ClusterSimConfig::smoke(4, 2);
    cfg.kill = Some(NodeKill {
        node: 1,
        window: 40,
    });
    cfg.node.store.reap_buckets_per_batch = 16;
    let mut cluster = ClusterSim::new(cfg);
    let report = cluster.run(&sched);
    assert_eq!(report.kill_window, Some(40), "kill must fire");
    assert!(report.detect_window.is_some(), "kill must be detected");
    assert_eq!(report.ledger.cluster.writes_failed, 0);

    let reads = &report.records[sched.len() - 2 * (N as usize + 1)..];
    let (early_reads, late_reads) = reads.split_at(N as usize + 1);
    for (id, rec) in early_reads.iter().enumerate() {
        assert_eq!(
            rec.status,
            Status::Ok,
            "key {id} must still be served at 300 us (stamp not lapsed)"
        );
        assert_eq!(rec.value, versioned(id as u64, 1), "key {id} bytes intact");
    }
    for (id, rec) in late_reads.iter().enumerate() {
        if stamped(id as u64) {
            assert_eq!(
                rec.status,
                Status::NotFound,
                "stamped key {id} must be expired on the surviving tail at 3 ms"
            );
        } else {
            assert_eq!(
                rec.status,
                Status::Ok,
                "immortal key {id} must survive both the kill and the sweep"
            );
            assert_eq!(rec.value, versioned(id as u64, 1));
        }
    }

    // The stamp was applied down-chain, not just at the head: every
    // pre-kill stamped write charged ttl_puts on both RF=2 members.
    // Key 12 lands mid-failover, where a chain that contained the dead
    // member degrades to one live replica until repair — so it is only
    // guaranteed a single apply.
    let stamped_writes = (0..=N).filter(|&id| stamped(id)).count() as u64;
    let pre_kill_stamped = stamped_writes - 1;
    assert!(
        report.ledger.expiry.ttl_puts > 2 * pre_kill_stamped,
        "stamps must replicate: {} ttl_puts for {} pre-kill stamped writes at RF=2",
        report.ledger.expiry.ttl_puts,
        pre_kill_stamped
    );
    // And the corpses were reclaimed on the members that served the
    // late reads (lazily or by the per-batch reaper).
    assert!(
        report.ledger.expiry.reaped_entries >= stamped_writes,
        "only {} reclaims for {} stamped keys",
        report.ledger.expiry.reaped_entries,
        stamped_writes
    );
}

#[test]
fn soak_ledger_bit_identical_across_worker_counts() {
    let mut reports = Vec::new();
    for workers in [1usize, 2, 4] {
        reports.push(soak(0xC1A0_5001, 2, workers).1);
    }
    let base = &reports[0];
    for r in &reports[1..] {
        assert_eq!(
            format!("{:?}", base.ledger),
            format!("{:?}", r.ledger),
            "merged cluster ledger must be bit-identical across worker counts"
        );
        assert_eq!(base.windows, r.windows);
        assert_eq!(base.detect_window, r.detect_window);
        for (a, b) in base.records.iter().zip(&r.records) {
            assert_eq!(a.status, b.status);
            assert_eq!(a.value, b.value);
            assert_eq!(a.done_window, b.done_window);
        }
    }
}
