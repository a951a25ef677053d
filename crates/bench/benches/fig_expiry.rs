//! Entry-lifecycle economics: lazy expiry vs the background reaper
//! (beyond-the-paper figure).
//!
//! The expiry plane reclaims dead entries two ways: **lazily**, when a
//! request happens to land on a corpse (free on the hot path, but a
//! corpse nobody touches is resident forever), and via the **reaper**,
//! a budgeted background sweep through the bucket array that reclaims
//! through the same free path. This harness drives the TTL-bearing
//! cache mix ([`MemcacheTtlWorkload`]) against one store per reaper
//! budget and measures what each budget buys:
//!
//! * **resident** — entries still occupying slots at end of run (live
//!   entries + unreclaimed corpses);
//! * **dead resident** — resident minus the model's live count: memory
//!   held hostage by expired-but-untouched entries;
//! * **reaped / lazy** — reclaims by source;
//! * **sweep buckets** — the background traffic the budget spent.
//!
//! The run is fully deterministic (seeded generator, stepped clock), so
//! a recorded count doubles as a regression gate: the zero-budget
//! dead-resident count must reproduce [`RECORDED_LAZY_DEAD_RESIDENT`]
//! within tolerance.

use std::collections::HashMap;

use kvd_bench::{banner, shape_check, Table, SCALED_MEMORY_BIG};
use kvd_core::{KvDirectConfig, KvDirectStore};
use kvd_net::{KvResponse, OpCode, Status};
use kvd_sim::SimTime;
use kvd_workloads::{MemcacheTtl, MemcacheTtlWorkload};

const POP: u64 = 20_000;
const VALUE_LEN: usize = 32;
/// Rounds of (advance clock, run a batch); one round = one tick step.
const ROUNDS: u32 = 60;
const TICK_STEP: u32 = 250;
const OPS_PER_ROUND: usize = 5_000;

struct RunResult {
    resident: u64,
    live_model: u64,
    dead_resident: i64,
    lazy: u64,
    /// Reclaims the background sweep found (total minus lazy).
    swept: u64,
    sweep_buckets: u64,
    expired_hits: u64,
}

/// Replays the same seeded TTL mix against a fresh store with
/// `reap_buckets` swept after each round (0 = lazy-only).
fn run(reap_buckets: u64) -> RunResult {
    let mut store = KvDirectStore::new(KvDirectConfig::with_memory(SCALED_MEMORY_BIG));
    let mut w = MemcacheTtlWorkload::new(MemcacheTtl::paper(), POP, VALUE_LEN, 0x77_1E);
    // Oracle: last stamp per key (0 = immortal), to count live entries
    // and catch an expired key ever being served.
    let mut model: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut resp = KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    };
    let mut expired_hits = 0u64;
    for round in 1..=ROUNDS {
        let now = round * TICK_STEP;
        store.processor_mut().set_now(SimTime::from_ms(now as u64));
        for req in w.batch(OPS_PER_ROUND, now) {
            store.execute_one_into(req.as_ref(), &mut resp);
            match req.op {
                OpCode::Put => {
                    model.insert(req.key.clone(), req.expiry_tick);
                }
                OpCode::Get => {
                    let dead = matches!(model.get(&req.key),
                        Some(&e) if e != 0 && e <= now);
                    if dead && resp.status == Status::Ok {
                        expired_hits += 1;
                    }
                }
                _ => {}
            }
        }
        if reap_buckets > 0 {
            store.processor_mut().sweep_expired(reap_buckets);
        }
    }
    let final_tick = ROUNDS * TICK_STEP;
    let live_model = model
        .values()
        .filter(|&&e| e == 0 || e > final_tick)
        .count() as u64;
    let resident = store.processor().table().len();
    let stats = store.processor().expiry_stats();
    RunResult {
        resident,
        live_model,
        dead_resident: resident as i64 - live_model as i64,
        lazy: stats.lazy_expired,
        swept: stats.reaped_entries - stats.lazy_expired,
        sweep_buckets: stats.sweep_buckets,
        expired_hits,
    }
}

/// Dead entries left resident by the zero-budget (lazy-only) run, as
/// recorded when the lifecycle plane landed; drift means its behaviour
/// changed and the value must be re-recorded consciously.
const RECORDED_LAZY_DEAD_RESIDENT: f64 = 908.0;

fn main() {
    banner(
        "entry-lifecycle economics (lazy expiry vs budgeted reaper)",
        "lazy expiry strands untouched corpses; the reaper converges residency to the live set",
    );

    let budgets = [0u64, 64, 256, 1024];
    let mut table = Table::new(
        "TTL cache mix, 300k ops over 15s of sim time, per reaper budget",
        &[
            "buckets/round",
            "resident",
            "live (model)",
            "dead resident",
            "swept",
            "lazy expired",
            "sweep buckets",
        ],
    );
    let mut rows = Vec::new();
    for &b in &budgets {
        let r = run(b);
        table.row(&[
            format!("{b}"),
            format!("{}", r.resident),
            format!("{}", r.live_model),
            format!("{}", r.dead_resident),
            format!("{}", r.swept),
            format!("{}", r.lazy),
            format!("{}", r.sweep_buckets),
        ]);
        rows.push(r);
    }
    table.print();
    println!();

    shape_check(
        "an expired key is never served",
        rows.iter().all(|r| r.expired_hits == 0),
        &format!(
            "expired GET hits per budget: {:?}",
            rows.iter().map(|r| r.expired_hits).collect::<Vec<_>>()
        ),
    );
    shape_check(
        "lazy expiry alone strands corpses",
        rows[0].dead_resident > 0,
        &format!(
            "{} dead entries resident with no reaper",
            rows[0].dead_resident
        ),
    );
    shape_check(
        "the background sweep reclaims corpses lazy probes missed",
        rows[1..].iter().all(|r| r.swept > 0),
        &format!(
            "swept per budget: {:?}",
            rows[1..].iter().map(|r| r.swept).collect::<Vec<_>>()
        ),
    );
    shape_check(
        "a bigger budget strands no more corpses",
        rows.windows(2)
            .all(|w| w[1].dead_resident <= w[0].dead_resident),
        &format!(
            "dead resident by budget: {:?}",
            rows.iter().map(|r| r.dead_resident).collect::<Vec<_>>()
        ),
    );
    shape_check(
        "no live entry is ever dropped",
        rows.iter().all(|r| r.dead_resident >= 0),
        &format!(
            "resident - live: {:?}",
            rows.iter().map(|r| r.dead_resident).collect::<Vec<_>>()
        ),
    );
    shape_check(
        "lazy-only dead-resident count within 20% of recorded",
        (rows[0].dead_resident as f64 - RECORDED_LAZY_DEAD_RESIDENT).abs()
            <= 0.2 * RECORDED_LAZY_DEAD_RESIDENT,
        &format!(
            "{} vs recorded {RECORDED_LAZY_DEAD_RESIDENT:.0}",
            rows[0].dead_resident
        ),
    );
}
