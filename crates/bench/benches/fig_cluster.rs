//! Cluster replication cost and failover depth (beyond-the-paper
//! figure).
//!
//! KV-Direct stops at the chassis wall; this harness measures the plane
//! PR 8 adds above it: a 4-member cluster of full `SystemSim` hosts
//! under chain replication at RF = 1/2/3, with a whole-node kill fired
//! mid-run at RF ≥ 2. Reported per RF:
//!
//! * **goodput** — committed client ops per simulated second, so the
//!   throughput cost of each extra chain hop lands as a measured curve
//!   rather than a modeling assumption;
//! * **write p50/p99** — client-observed commit latency (issue → tail
//!   ack), which grows with chain length;
//! * **replication traffic** — bytes the chain pushed over the
//!   inter-node links, charged through the op-cost ledger;
//! * **failover depth** — windows between the kill and the survivors'
//!   heartbeat-timeout detection, the interval hedged reads and client
//!   retries have to cover.

use kvd_bench::{banner, shape_check, Table};
use kvd_core::{ClusterReport, ClusterSim, ClusterSimConfig, NodeKill};
use kvd_net::KvRequest;
use kvd_sim::SimTime;

const KEYS: u64 = 96;
const KILL_WINDOW: u64 = 40;

/// Writes to every key before the kill window, reads back after the
/// failover settles — the schedule every RF level replays.
fn schedule() -> Vec<(SimTime, KvRequest)> {
    let mut sched = Vec::new();
    let mut t = SimTime::ZERO;
    for id in 0..KEYS {
        let mut v = id.to_le_bytes().to_vec();
        v.extend_from_slice(&1u64.to_le_bytes());
        sched.push((t, KvRequest::put(&id.to_le_bytes(), &v)));
        t += SimTime::from_ns(600);
    }
    let late = t + SimTime::from_us(200);
    for id in 0..KEYS {
        sched.push((
            late + SimTime::from_ns(600) * id,
            KvRequest::get(&id.to_le_bytes()),
        ));
    }
    sched
}

fn run_rf(rf: usize, kill: bool) -> ClusterReport {
    let mut cfg = ClusterSimConfig::smoke(4, rf);
    if kill {
        cfg.kill = Some(NodeKill {
            node: 1,
            window: KILL_WINDOW,
        });
    }
    ClusterSim::new(cfg).run(&schedule())
}

fn main() {
    banner(
        "cluster replication cost (RF sweep + node kill)",
        "each chain hop costs goodput and latency; acked writes survive a node death",
    );

    let mut table = Table::new(
        "4-member cluster, 96 keys written then read back, kill at RF>=2",
        &[
            "rf",
            "goodput Mops/s",
            "write p50 us",
            "write p99 us",
            "rep KiB",
            "failover depth",
        ],
    );
    let mut rows = Vec::new();
    for rf in 1..=3usize {
        let kill = rf >= 2;
        let report = run_rf(rf, kill);
        let depth = report.ledger.cluster.failover_depth_windows;
        table.row(&[
            format!("{rf}{}", if kill { " +kill" } else { "" }),
            format!("{:.3}", report.goodput_ops_per_sec() / 1e6),
            format!("{:.2}", report.write_hist.percentile_time(50.0).as_us()),
            format!("{:.2}", report.write_hist.percentile_time(99.0).as_us()),
            format!("{:.1}", report.ledger.cluster.rep_bytes as f64 / 1024.0),
            format!("{depth}"),
        ]);
        rows.push(report);
    }
    table.print();
    println!();

    shape_check(
        "replication costs goodput: RF1 >= RF2 >= RF3",
        rows[0].goodput_ops_per_sec() >= rows[1].goodput_ops_per_sec()
            && rows[1].goodput_ops_per_sec() >= rows[2].goodput_ops_per_sec(),
        &format!(
            "goodput [{:.3}, {:.3}, {:.3}] Mops/s",
            rows[0].goodput_ops_per_sec() / 1e6,
            rows[1].goodput_ops_per_sec() / 1e6,
            rows[2].goodput_ops_per_sec() / 1e6
        ),
    );
    shape_check(
        "chain ack costs latency: write p50 RF1 < RF2 <= RF3",
        rows[0].write_hist.percentile(50.0) < rows[1].write_hist.percentile(50.0)
            && rows[1].write_hist.percentile(50.0) <= rows[2].write_hist.percentile(50.0),
        &format!(
            "p50 [{:.2}, {:.2}, {:.2}] us",
            rows[0].write_hist.percentile_time(50.0).as_us(),
            rows[1].write_hist.percentile_time(50.0).as_us(),
            rows[2].write_hist.percentile_time(50.0).as_us()
        ),
    );
    // Client->head delivery rides the same links, so even RF=1 charges
    // some rep bytes; each extra chain hop must strictly add to them.
    shape_check(
        "longer chains push more replication bytes: RF3 > RF2 > RF1",
        rows[2].ledger.cluster.rep_bytes > rows[1].ledger.cluster.rep_bytes
            && rows[1].ledger.cluster.rep_bytes > rows[0].ledger.cluster.rep_bytes
            && rows[0].ledger.cluster.rep_bytes > 0,
        &format!(
            "rep bytes [{}, {}, {}]",
            rows[0].ledger.cluster.rep_bytes,
            rows[1].ledger.cluster.rep_bytes,
            rows[2].ledger.cluster.rep_bytes
        ),
    );
    let reads_survive = rows[1..].iter().all(|r| {
        r.records
            .iter()
            .filter(|rec| rec.op == kvd_net::OpCode::Get)
            .all(|rec| rec.status == kvd_net::Status::Ok)
    });
    shape_check(
        "acked writes survive the node kill at RF>=2",
        reads_survive
            && rows[1..]
                .iter()
                .all(|r| r.ledger.cluster.failover_depth_windows > 0),
        &format!(
            "failover depth [{}, {}] windows",
            rows[1].ledger.cluster.failover_depth_windows,
            rows[2].ledger.cluster.failover_depth_windows
        ),
    );
}
