//! The routed view is the owned sub-stream, seen through an index list.
//!
//! [`ParallelSystemSim::run`] and `run_open` hand no shard a cloned copy
//! of its requests: the router ([`route`]) records positions into the
//! caller's slice and every shard steps over a [`Routed`] view of it.
//! Two properties make that a pure representation change: (1) the index
//! lists partition `0..reqs.len()`, each ascending, each holding exactly
//! the positions [`shard_of`] assigns to its shard; (2) a [`SystemSim`]
//! stepped over the view behaves, window for window, exactly like a twin
//! lent the owned sub-stream — same [`WindowStep`] sequence under the
//! same `(horizon, floor)` sequence, same report, same outcomes — closed
//! loop, and open loop with the arrival schedule seen through the view.
//!
//! [`ParallelSystemSim::run`]: kvd_core::parallel::ParallelSystemSim::run

use kvd_core::parallel::{route, Routed};
use kvd_core::system::{RequestStream, SystemSim, SystemSimConfig, WindowStep};
use kvd_core::KvDirectConfig;
use kvd_net::{shard_of, KvRequest};
use kvd_sim::SimTime;
use proptest::prelude::*;

const KEYS: u64 = 300;

/// A request on one of `KEYS` keys (the lower two thirds preloaded):
/// GET, PUT of 0-96 B, or DELETE.
fn request() -> impl Strategy<Value = KvRequest> {
    (0..KEYS, 0u8..10, prop::collection::vec(any::<u8>(), 0..96)).prop_map(|(id, op, value)| {
        let key = id.to_le_bytes();
        match op {
            0..=5 => KvRequest::get(&key),
            6..=8 => KvRequest::put(&key, &value),
            _ => KvRequest::delete(&key),
        }
    })
}

/// A shard's simulator with the keys it owns preloaded.
fn shard_sim(shard: usize, shards: usize, batch: usize) -> SystemSim {
    let mut sim = SystemSim::with_seed(
        SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), batch),
        0x5EED ^ shard as u64,
    );
    for id in 0..KEYS * 2 / 3 {
        let key = id.to_le_bytes();
        if shard_of(&key, shards) == shard {
            sim.store_mut()
                .put(&key, &[id as u8; 24])
                .expect("preload fits");
        }
    }
    sim.set_record_outcomes(true);
    sim
}

/// Steps until drained over windows of `quantum`, stretching the floor
/// by the next stall in `stalls` (cycled) after each window, and returns
/// every window's summary.
fn drain(
    mut step: impl FnMut(SimTime, SimTime) -> WindowStep,
    quantum: SimTime,
    stalls: &[u64],
) -> Vec<WindowStep> {
    let mut floor = SimTime::ZERO;
    let mut out = Vec::new();
    loop {
        let horizon = floor + quantum;
        let w = step(horizon, floor);
        out.push(w);
        if w.done {
            return out;
        }
        floor = horizon + SimTime::from_ns(stalls[out.len() % stalls.len()]);
        assert!(out.len() < 100_000, "stream failed to drain");
    }
}

/// Every shard stepped over its [`Routed`] view of `reqs` behaves, window
/// for window, like a twin lent the owned sub-stream.
fn view_equals_owned<T: Clone>(
    reqs: &[T],
    routes: &[Vec<u32>],
    batch: usize,
    quantum: SimTime,
    stalls: &[u64],
) -> Result<(), TestCaseError>
where
    [T]: RequestStream,
{
    for (shard, idx) in routes.iter().enumerate() {
        let view = Routed { reqs, idx };
        let owned: Vec<T> = idx.iter().map(|&i| reqs[i as usize].clone()).collect();

        let mut lent = shard_sim(shard, routes.len(), batch);
        lent.begin_run(SimTime::ZERO);
        let lent_windows = drain(|h, f| lent.step_window_over(&view, h, f), quantum, stalls);

        let mut whole = shard_sim(shard, routes.len(), batch);
        whole.begin_run(SimTime::ZERO);
        let whole_windows = drain(
            |h, f| whole.step_window_over(&owned[..], h, f),
            quantum,
            stalls,
        );

        prop_assert_eq!(
            lent_windows,
            whole_windows,
            "shard {} window sequence",
            shard
        );
        prop_assert_eq!(lent.report(), whole.report(), "shard {} report", shard);
        prop_assert_eq!(
            lent.outcomes(),
            whole.outcomes(),
            "shard {} outcomes",
            shard
        );
        prop_assert_eq!(lent.outcomes().len(), idx.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_shard_over_its_routed_view_equals_one_over_its_owned_substream(
        reqs in prop::collection::vec(request(), 0..400),
        gaps_ns in prop::collection::vec(0u64..400, 400),
        shards in 1usize..=6,
        batch in 1usize..=24,
        quantum_ns in 500u64..8_000,
        stalls in prop::collection::vec(0u64..3_000, 1..6),
    ) {
        let mut routes = vec![vec![u32::MAX; 3]; shards]; // stale content must be cleared
        route(&reqs, &mut routes);

        // (1) A partition of 0..n, ascending per shard, by `shard_of`.
        let mut seen = vec![false; reqs.len()];
        for (shard, idx) in routes.iter().enumerate() {
            prop_assert!(idx.windows(2).all(|w| w[0] < w[1]), "shard {} not ascending", shard);
            for &i in idx {
                prop_assert_eq!(shard_of(&reqs[i as usize].key, shards), shard);
                prop_assert!(!std::mem::replace(&mut seen[i as usize], true), "{} routed twice", i);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "a request was routed nowhere");

        // (2) View and owned sub-stream are the same stream.
        let quantum = SimTime::from_ns(quantum_ns);
        view_equals_owned(&reqs, &routes, batch, quantum, &stalls)?;

        // (3) The same with an arrival schedule: the timed view of a
        // shard is its owned sub-schedule.
        let timed: Vec<(SimTime, KvRequest)> = reqs
            .iter()
            .zip(&gaps_ns)
            .scan(SimTime::ZERO, |t, (r, &gap)| {
                *t += SimTime::from_ns(gap);
                Some((*t, r.clone()))
            })
            .collect();
        let mut timed_routes = vec![Vec::new(); shards];
        route(&timed, &mut timed_routes);
        prop_assert_eq!(&timed_routes, &routes, "a schedule routes like its requests");
        view_equals_owned(&timed, &routes, batch, quantum, &stalls)?;
    }
}
