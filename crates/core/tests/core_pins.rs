//! Recorded fingerprints of the execution core.
//!
//! Seeded request streams are driven through `execute_one_into` and
//! through `run` at batch 1 / 16 / 40 / 257, under
//! nine configurations that between them reach every station decision
//! (forward, issue, queue, `Full` back-pressure, chain re-issue, dirty
//! eviction, flush), every retire outcome (fault retries, `DeviceError`
//! reclaim, OOM, read-only degradation, wrong-type λ) and the lifecycle
//! plane (TTL PUTs, dead-on-arrival, `touch`, clock advance). A
//! fingerprint digests every response, the merged `OpLedger`, the
//! station's counters, the memory engine's access counters and the final
//! table contents; [`PINS`] holds the values recorded on `a35fea7`, before the
//! core was rebuilt around borrowed requests (access counts re-recorded
//! once since, see [`PINS`]). A rewrite of the issue path
//! must reproduce all of them: same station decisions, same table and
//! memory access sequence, same fault draws, same ledger.
//!
//! To re-record after an *intended* behaviour change, run the test and
//! paste the table it prints on failure.

use std::collections::BTreeMap;

use kvd_core::lambda::encode_vector;
use kvd_core::{builtin, KvDirectConfig, KvDirectStore, OverloadConfig};
use kvd_mem::MemoryEngine;
use kvd_net::{KvRequest, KvRequestRef, KvResponse, OpCode, Status};
use kvd_ooo::StationConfig;
use kvd_sim::{CostSource, DetRng, FaultRates, OpLedger, SimTime, ZipfSampler};

/// One element of a pinned stream: a request, or something the embedder
/// does between calls.
enum Step {
    Req(KvRequest),
    Touch(Vec<u8>, u32),
    AdvanceUs(u64),
    Pressure(f64),
}

const KEYS: u64 = 300;
const STEPS: usize = 4_000;

fn key(k: u64) -> Vec<u8> {
    format!("pin:{k:09}").into_bytes()
}

fn value(rng: &mut DetRng, max: usize) -> Vec<u8> {
    let mut v = vec![0u8; 1 + rng.usize_below(max)];
    rng.fill_bytes(&mut v);
    v
}

fn func(op: OpCode, k: &[u8], value: Vec<u8>, lambda: u16) -> KvRequest {
    KvRequest {
        op,
        key: k.to_vec(),
        value,
        lambda,
        deadline_us: 0,
        expiry_tick: 0,
    }
}

fn fetch_add(k: &[u8], delta: u64) -> KvRequest {
    func(
        OpCode::UpdateScalar,
        k,
        delta.to_le_bytes().to_vec(),
        builtin::ADD,
    )
}

/// GET / PUT / DELETE / fetch-add over a Zipf-0.99 key set; values span
/// inline and every slab class.
fn plain(rng: &mut DetRng, zipf: &ZipfSampler) -> Step {
    let k = key(zipf.sample(rng));
    Step::Req(match rng.u64_below(20) {
        0..=8 => KvRequest::get(&k),
        9..=14 => KvRequest::put(&k, &value(rng, 300)),
        15..=17 => KvRequest::delete(&k),
        _ => fetch_add(&k, 3),
    })
}

fn ttl(rng: &mut DetRng, zipf: &ZipfSampler, now_us: &mut u64) -> Step {
    let k = key(zipf.sample(rng));
    let now_tick = (*now_us / 1_000) as u32;
    let put = |rng: &mut DetRng, stamp: u32| {
        Step::Req(KvRequest::put(&k, &value(rng, 120)).with_ttl(stamp))
    };
    match rng.u64_below(60) {
        0..=24 => Step::Req(KvRequest::get(&k)),
        25..=30 => Step::Req(KvRequest::put(&k, &value(rng, 120))),
        // Stamps: dead on arrival, about to die, long-lived.
        31..=33 => put(rng, now_tick.max(1)),
        34..=42 => {
            let ahead = 1 + rng.u64_below(3) as u32;
            put(rng, now_tick + ahead)
        }
        43..=48 => put(rng, now_tick + 500),
        49..=51 => Step::Req(KvRequest::delete(&k)),
        52..=54 => Step::Req(fetch_add(&k, 1)),
        55..=56 => Step::Touch(k, now_tick + rng.u64_below(4) as u32),
        57 => Step::Touch(k, now_tick.saturating_sub(1).max(1)),
        _ => {
            *now_us += rng.u64_below(3_000);
            Step::AdvanceUs(*now_us)
        }
    }
}

fn lambdas(rng: &mut DetRng, zipf: &ZipfSampler) -> Step {
    let k = key(zipf.sample(rng) % 40);
    let scalar = |rng: &mut DetRng| rng.u64_below(1_000).to_le_bytes().to_vec();
    let vector = |rng: &mut DetRng| {
        let n = 1 + rng.usize_below(6);
        encode_vector(&(0..n).map(|_| rng.u64_below(5)).collect::<Vec<u64>>())
    };
    Step::Req(match rng.u64_below(16) {
        0..=1 => KvRequest::get(&k),
        2..=3 => KvRequest::put(&k, &vector(rng)),
        4 => KvRequest::delete(&k),
        5 => func(OpCode::UpdateScalar, &k, scalar(rng), builtin::ADD),
        6 => func(OpCode::UpdateScalar, &k, scalar(rng), builtin::MAX),
        7 => func(OpCode::UpdateScalar, &k, scalar(rng), builtin::XCHG),
        8..=9 => func(OpCode::UpdateScalarToVector, &k, scalar(rng), builtin::VADD),
        10 => func(OpCode::UpdateVector, &k, vector(rng), builtin::VVADD),
        11..=12 => func(OpCode::Reduce, &k, scalar(rng), builtin::SUM),
        13 => func(OpCode::Filter, &k, Vec::new(), builtin::NONZERO),
        // Wrong-type and unregistered λ: rejected before the station.
        14 => func(OpCode::Reduce, &k, scalar(rng), builtin::ADD),
        _ => match rng.u64_below(3) {
            0 => func(OpCode::UpdateScalar, &k, scalar(rng), builtin::VADD),
            1 => func(OpCode::Filter, &k, Vec::new(), 999),
            _ => func(OpCode::UpdateVector, &k, vector(rng), builtin::SUM),
        },
    })
}

/// Large values into a small store: runs out of slabs, degrades to
/// read-only, drains through deletes and recovers, repeatedly.
fn oom(rng: &mut DetRng, zipf: &ZipfSampler, i: usize) -> Step {
    let k = key(zipf.sample(rng));
    let filling = (i / 500).is_multiple_of(2);
    Step::Req(match (filling, rng.u64_below(10)) {
        (true, 0..=6) | (false, 0) => KvRequest::put(&k, &value(rng, 480)),
        (true, 7) | (false, 1..=7) => KvRequest::delete(&k),
        (_, 8) => fetch_add(&k, 1),
        _ => KvRequest::get(&k),
    })
}

/// Deadlines against an advancing clock, and external pressure crossing
/// both admission watermarks; the tiny station adds its own occupancy.
fn overload(rng: &mut DetRng, zipf: &ZipfSampler, now_us: &mut u64) -> Step {
    match rng.u64_below(40) {
        0 => Step::Pressure([0.0, 0.3, 0.7, 0.9, 0.97][rng.usize_below(5)]),
        1..=2 => {
            *now_us += rng.u64_below(40);
            Step::AdvanceUs(*now_us)
        }
        _ => {
            let Step::Req(r) = plain(rng, zipf) else {
                unreachable!("plain yields requests only")
            };
            let deadline = (*now_us as u32).saturating_sub(20) + rng.u64_below(60) as u32;
            Step::Req(if rng.chance(0.5) {
                r.with_deadline(deadline.max(1))
            } else {
                r
            })
        }
    }
}

struct Scenario {
    name: &'static str,
    cfg: KvDirectConfig,
    ledger_detail: bool,
    /// Overrides the processor's transaction retry budget.
    retry_limit: Option<u32>,
    stream: Vec<Step>,
}

fn stream(
    seed: u64,
    zipf_s: f64,
    mut f: impl FnMut(&mut DetRng, &ZipfSampler, usize) -> Step,
) -> Vec<Step> {
    let mut rng = DetRng::seed(seed);
    let zipf = ZipfSampler::new(KEYS, zipf_s);
    (0..STEPS).map(|i| f(&mut rng, &zipf, i)).collect()
}

fn scenarios() -> Vec<Scenario> {
    let base = || KvDirectConfig::with_memory(2 << 20);
    let tiny = StationConfig {
        hash_slots: 4,
        capacity: 4,
        ..StationConfig::default()
    };
    let (mut ttl_now, mut overload_now) = (1_000u64, 100u64);
    vec![
        Scenario {
            name: "default",
            cfg: base(),
            ledger_detail: false,
            retry_limit: None,
            stream: stream(0x9101, 0.99, |r, z, _| plain(r, z)),
        },
        Scenario {
            name: "tiny_station",
            cfg: KvDirectConfig {
                station: tiny,
                ..base()
            },
            ledger_detail: false,
            retry_limit: None,
            stream: stream(0x9102, 0.6, |r, z, _| plain(r, z)),
        },
        Scenario {
            name: "faults",
            cfg: KvDirectConfig {
                fault_rates: FaultRates::uniform(0.05),
                fault_seed: 0xFA17,
                ..base()
            },
            ledger_detail: false,
            retry_limit: None,
            stream: stream(0x9103, 0.99, |r, z, _| plain(r, z)),
        },
        Scenario {
            name: "faults_tiny_station",
            cfg: KvDirectConfig {
                fault_rates: FaultRates::uniform(0.05),
                fault_seed: 0xFA18,
                station: tiny,
                ..base()
            },
            ledger_detail: true,
            retry_limit: Some(1),
            stream: stream(0x9104, 0.6, |r, z, _| plain(r, z)),
        },
        Scenario {
            name: "ttl",
            cfg: base(),
            ledger_detail: false,
            retry_limit: None,
            stream: stream(0x9105, 0.99, move |r, z, _| ttl(r, z, &mut ttl_now)),
        },
        Scenario {
            name: "lambdas",
            cfg: base(),
            ledger_detail: false,
            retry_limit: None,
            stream: stream(0x9106, 0.8, |r, z, _| lambdas(r, z)),
        },
        Scenario {
            name: "oom_read_only",
            cfg: KvDirectConfig {
                overload: OverloadConfig {
                    read_only_on_oom: true,
                    read_only_exit_utilization: 0.3,
                    ..OverloadConfig::default()
                },
                ..KvDirectConfig::with_memory(64 << 10)
            },
            ledger_detail: false,
            retry_limit: None,
            stream: stream(0x9107, 0.3, oom),
        },
        Scenario {
            name: "ledger_detail",
            cfg: base(),
            ledger_detail: true,
            retry_limit: None,
            stream: stream(0x9108, 0.99, |r, z, _| plain(r, z)),
        },
        Scenario {
            name: "overload",
            cfg: KvDirectConfig {
                overload: OverloadConfig::hot_key_aware(),
                station: StationConfig {
                    hash_slots: 16,
                    capacity: 8,
                    ..StationConfig::default()
                },
                ..base()
            },
            ledger_detail: true,
            retry_limit: None,
            stream: stream(0x9109, 1.2, move |r, z, _| {
                overload(r, z, &mut overload_now)
            }),
        },
    ]
}

/// How a stream reaches the store.
#[derive(Clone, Copy)]
enum Mode {
    OneInto,
    Batch(usize),
}

const MODES: [(Mode, &str); 5] = [
    (Mode::OneInto, "one_into"),
    (Mode::Batch(1), "batch1"),
    (Mode::Batch(16), "batch16"),
    (Mode::Batch(40), "batch40"),
    (Mode::Batch(257), "batch257"),
];

/// `name=value` for each listed field, space-separated, in the order
/// given: a rendering that survives a counter moving to another struct.
macro_rules! fields {
    ($($s:ident.$f:ident),+ $(,)?) => {
        [$(format!(concat!(stringify!($f), "={}"), $s.$f)),+].join(" ")
    };
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn response(&mut self, r: &KvResponse) {
        self.bytes(&[r.status as u8]);
        self.bytes(&(r.value.len() as u64).to_le_bytes());
        self.bytes(&r.value);
    }

    fn of(text: &str) -> u64 {
        let mut h = Fnv::new();
        h.bytes(text.as_bytes());
        h.0
    }
}

/// What one drive of a scenario left behind.
struct Outcome {
    print: String,
    ledger: OpLedger,
    statuses: BTreeMap<u8, u64>,
}

fn drive(sc: &Scenario, mode: Mode) -> Outcome {
    let mut store = KvDirectStore::new(sc.cfg.clone());
    store.processor_mut().set_ledger_detail(sc.ledger_detail);
    if let Some(limit) = sc.retry_limit {
        store.processor_mut().set_fault_retry_limit(limit);
    }
    let mut responses = Fnv::new();
    let mut statuses = BTreeMap::<u8, u64>::new();
    // Response slots for the largest batch, sized once; a batch of `n`
    // answers into the first `n`.
    let mut out = vec![
        KvResponse::default();
        match mode {
            Mode::Batch(n) => n,
            Mode::OneInto => 0,
        }
    ];
    let mut one = KvResponse {
        status: Status::Ok,
        value: Vec::new(),
    };
    let mut staged: Vec<&KvRequest> = Vec::new();
    let mut note = |r: &KvResponse| {
        responses.response(r);
        *statuses.entry(r.status as u8).or_default() += 1;
    };
    let mut flush = |store: &mut KvDirectStore,
                     staged: &mut Vec<&KvRequest>,
                     note: &mut dyn FnMut(&KvResponse)| {
        if staged.is_empty() {
            return;
        }
        let refs: Vec<KvRequestRef<'_>> = staged.iter().map(|r| r.as_ref()).collect();
        store.run(&refs[..], &mut out[..refs.len()]);
        out[..refs.len()].iter().for_each(&mut *note);
        staged.clear();
    };
    let mut touches = Fnv::new();
    for step in &sc.stream {
        match step {
            Step::Req(req) => match mode {
                Mode::OneInto => {
                    store.execute_one_into(req.as_ref(), &mut one);
                    note(&one);
                }
                Mode::Batch(n) => {
                    staged.push(req);
                    if staged.len() == n {
                        flush(&mut store, &mut staged, &mut note);
                    }
                }
            },
            // Embedder calls happen between batches, as in the server
            // and the timed engine.
            other => {
                flush(&mut store, &mut staged, &mut note);
                match other {
                    Step::Touch(k, tick) => touches.bytes(&[store.touch(k, *tick) as u8]),
                    Step::AdvanceUs(us) => store.processor_mut().set_now(SimTime::from_us(*us)),
                    Step::Pressure(p) => store.processor_mut().set_external_pressure(*p),
                    Step::Req(_) => unreachable!("matched above"),
                }
            }
        }
    }
    flush(&mut store, &mut staged, &mut note);
    let requests = sc
        .stream
        .iter()
        .filter(|s| matches!(s, Step::Req(_)))
        .count() as u64;
    assert_eq!(
        statuses.values().sum::<u64>(),
        requests,
        "every request answered exactly once"
    );

    let mut ledger = OpLedger::default();
    store.emit_costs(&mut ledger);
    let station = store.processor().station_stats();
    let mem = store.processor().table().mem().stats();
    let cache = store.processor().table().mem().cache_stats();
    let entries = store.processor().table().len();
    let mut table = Fnv::new();
    for k in 0..KEYS {
        match store.processor_mut().table_mut().get(&key(k)) {
            Some(v) => {
                table.bytes(&[1]);
                table.bytes(&(v.len() as u64).to_le_bytes());
                table.bytes(&v);
            }
            None => table.bytes(&[0]),
        }
    }
    let print = format!(
        "responses {:016x} touches {:016x} ledger {:016x} mem {:016x} table {:016x} ({entries} entries) {}",
        responses.0,
        touches.0,
        Fnv::of(&format!("{ledger:?}")),
        Fnv::of(&fields!(
            mem.dma_reads,
            mem.dma_writes,
            mem.dma_read_bytes,
            mem.dma_write_bytes,
            mem.dram_reads,
            mem.dram_writes,
            mem.cache_hits,
            mem.cache_misses,
            cache.evict_clean,
            cache.evict_dirty,
            cache.conflict_fills,
        )),
        table.0,
        fields!(
            station.forwarded,
            station.issued,
            station.queued,
            station.writebacks,
            station.rejected,
            station.reclaimed,
            station.high_water,
        ),
    );
    Outcome {
        print,
        ledger,
        statuses,
    }
}

#[test]
fn the_core_reproduces_its_recorded_fingerprints() {
    let mut got = Vec::new();
    for sc in scenarios() {
        for (mode, mode_name) in MODES {
            got.push((format!("{}/{mode_name}", sc.name), drive(&sc, mode).print));
        }
    }
    let recorded: Vec<(String, String)> = PINS
        .iter()
        .map(|(n, f)| (n.to_string(), f.to_string()))
        .collect();
    if got != recorded {
        let mut table = String::new();
        for (name, print) in &got {
            table.push_str(&format!("    (\"{name}\", \"{print}\"),\n"));
        }
        let moved: Vec<&str> = got
            .iter()
            .filter(|g| !recorded.contains(g))
            .map(|(n, _)| n.as_str())
            .collect();
        panic!("fingerprints moved: {moved:?}\ncomputed table:\n{table}");
    }
}

/// The streams must actually reach what the pins claim to cover;
/// otherwise a fingerprint could hold while pinning nothing.
#[test]
fn the_pinned_streams_reach_the_paths_they_name() {
    let outcome = |name: &str, mode: Mode| {
        let sc = scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .expect("scenario exists");
        let o = drive(&sc, mode);
        let saw = move |s: Status| o.statuses.contains_key(&(s as u8));
        (o.ledger, saw)
    };

    let (l, _) = outcome("default", Mode::Batch(40));
    assert!(l.station.forwarded > 0 && l.station.queued > 0 && l.station.writebacks > 0);
    let (l, _) = outcome("default", Mode::OneInto);
    assert!(l.station.forwarded > 0 && l.station.writebacks > 0);
    assert_eq!(l.station.queued, 0, "a batch of one never queues");

    let (l, _) = outcome("tiny_station", Mode::Batch(257));
    assert!(l.station.rejected > 0, "Full back-pressure");
    assert!(
        l.station.queued > 0 && l.station.issued > l.core.requests / 4,
        "colliders queue and re-issue down the chain"
    );

    let (l, saw) = outcome("faults_tiny_station", Mode::Batch(40));
    assert!(l.station.reclaimed > 0 && l.core.device_errors > 0 && l.core.fault_retries > 0);
    assert!(saw(Status::DeviceError) && l.core.retired_failed > 0);

    let (l, saw) = outcome("ttl", Mode::Batch(16));
    assert!(l.expiry.ttl_puts > 0 && l.expiry.touches > 0);
    assert!(l.expiry.lazy_expired > 0 && l.expiry.expired_overwrites > 0);
    assert!(saw(Status::NotFound));

    let (l, saw) = outcome("lambdas", Mode::Batch(16));
    assert!(l.core.invalid > 0 && saw(Status::Invalid));
    assert!(l.core.updates > 0 && l.station.forwarded > 0);

    let (l, saw) = outcome("oom_read_only", Mode::Batch(16));
    assert!(l.core.oom > 0 && saw(Status::OutOfMemory));
    assert!(l.core.read_only_entries > 1 && l.core.read_only_exits > 0);
    assert!(l.core.shed_read_only > 0 && saw(Status::Overloaded));

    let (l, saw) = outcome("overload", Mode::Batch(40));
    assert!(l.core.shed_expired > 0 && saw(Status::Expired));
    assert!(l.core.shed_overload > 0 && l.core.shed_transitions > 1);
    assert!(l.cache.hot_key_sheds > 0, "the hot-key carve-out ran");
}

/// Recorded on `a35fea7` (the parent of the borrowed-core rewrite), and
/// re-recorded once when an atomic update became one chain walk (bucket
/// read, modify, bucket write) instead of a GET walk followed by a PUT
/// walk: every response, station count and final table stayed as recorded;
/// only the `ledger` and `mem` digests, which count memory accesses, moved.
/// The station and memory counters were then rendered as `name=value`
/// lists ([`fields!`]) instead of their structs' `Debug` output and
/// re-recorded from the same code: the station counts read the same, and
/// only the `mem` digest moved.
#[rustfmt::skip]
const PINS: &[(&str, &str)] = &[
    ("default/one_into", "responses 961b8ec7159461de touches cbf29ce484222325 ledger 2f9f9a94d9bddfb3 mem ffa51cc0d7fe93c1 table b1c223def532706f (192 entries) forwarded=3477 issued=523 queued=0 writebacks=1859 rejected=0 reclaimed=0 high_water=1"),
    ("default/batch1", "responses 961b8ec7159461de touches cbf29ce484222325 ledger 2f9f9a94d9bddfb3 mem ffa51cc0d7fe93c1 table b1c223def532706f (192 entries) forwarded=3477 issued=523 queued=0 writebacks=1859 rejected=0 reclaimed=0 high_water=1"),
    ("default/batch16", "responses 961b8ec7159461de touches cbf29ce484222325 ledger 624b09b58f4e4f98 mem 358b7f0bbb0f4873 table b1c223def532706f (192 entries) forwarded=3477 issued=523 queued=41 writebacks=1590 rejected=0 reclaimed=0 high_water=16"),
    ("default/batch40", "responses 961b8ec7159461de touches cbf29ce484222325 ledger a4e1165d2d4507bc mem d552e49130df0bdd table b1c223def532706f (192 entries) forwarded=3477 issued=523 queued=95 writebacks=1356 rejected=0 reclaimed=0 high_water=40"),
    ("default/batch257", "responses 961b8ec7159461de touches cbf29ce484222325 ledger c8a9acce6448d3a7 mem 6b70b50923a5e39e table b1c223def532706f (192 entries) forwarded=3477 issued=523 queued=422 writebacks=827 rejected=0 reclaimed=0 high_water=121"),
    ("tiny_station/one_into", "responses b0edd5f545309931 touches cbf29ce484222325 ledger 6428d8b457aac8c2 mem fea914123dd209e3 table 4126456552c4a776 (208 entries) forwarded=116 issued=3884 queued=0 writebacks=54 rejected=0 reclaimed=0 high_water=1"),
    ("tiny_station/batch1", "responses b0edd5f545309931 touches cbf29ce484222325 ledger 6428d8b457aac8c2 mem fea914123dd209e3 table 4126456552c4a776 (208 entries) forwarded=116 issued=3884 queued=0 writebacks=54 rejected=0 reclaimed=0 high_water=1"),
    ("tiny_station/batch16", "responses b0edd5f545309931 touches cbf29ce484222325 ledger 6fe16efaf489ac0c mem cbc35c48c2a5688b table 4126456552c4a776 (208 entries) forwarded=116 issued=3884 queued=1696 writebacks=52 rejected=1607 reclaimed=0 high_water=7"),
    ("tiny_station/batch40", "responses b0edd5f545309931 touches cbf29ce484222325 ledger 0da54d667f61e8ca mem 188e3b17ee7ab730 table 4126456552c4a776 (208 entries) forwarded=116 issued=3884 queued=1785 writebacks=52 rejected=1902 reclaimed=0 high_water=7"),
    ("tiny_station/batch257", "responses b0edd5f545309931 touches cbf29ce484222325 ledger 5aaa595d223acb72 mem 2cd367f70f001c3b table 4126456552c4a776 (208 entries) forwarded=116 issued=3884 queued=1851 writebacks=51 rejected=2046 reclaimed=0 high_water=7"),
    ("faults/one_into", "responses e8d57892ada407c8 touches cbf29ce484222325 ledger 33dbbd4244c6552c mem b51e059f3dae50f7 table da8fe0838dc7e35e (188 entries) forwarded=3505 issued=495 queued=0 writebacks=1921 rejected=0 reclaimed=1 high_water=1"),
    ("faults/batch1", "responses e8d57892ada407c8 touches cbf29ce484222325 ledger 33dbbd4244c6552c mem b51e059f3dae50f7 table da8fe0838dc7e35e (188 entries) forwarded=3505 issued=495 queued=0 writebacks=1921 rejected=0 reclaimed=1 high_water=1"),
    ("faults/batch16", "responses e8d57892ada407c8 touches cbf29ce484222325 ledger 985d0e089a7cce62 mem d135409e2472888a table da8fe0838dc7e35e (188 entries) forwarded=3505 issued=495 queued=35 writebacks=1637 rejected=0 reclaimed=1 high_water=16"),
    ("faults/batch40", "responses e8d57892ada407c8 touches cbf29ce484222325 ledger 2db42c0ee3c2a026 mem 75ff36d90bd513cb table da8fe0838dc7e35e (188 entries) forwarded=3505 issued=495 queued=80 writebacks=1391 rejected=0 reclaimed=1 high_water=40"),
    ("faults/batch257", "responses add6568b6f399ce6 touches cbf29ce484222325 ledger 4b32c8ae497b9d18 mem a032cdf14b20dfd7 table da8fe0838dc7e35e (188 entries) forwarded=3506 issued=494 queued=482 writebacks=846 rejected=0 reclaimed=1 high_water=150"),
    ("faults_tiny_station/one_into", "responses a894356d3b9e6176 touches cbf29ce484222325 ledger 6fa26e2b921042d0 mem 4aa35049d3039e9e table fa5193b83f1672f0 (214 entries) forwarded=125 issued=3875 queued=0 writebacks=71 rejected=0 reclaimed=45 high_water=1"),
    ("faults_tiny_station/batch1", "responses a894356d3b9e6176 touches cbf29ce484222325 ledger 6fa26e2b921042d0 mem 4aa35049d3039e9e table fa5193b83f1672f0 (214 entries) forwarded=125 issued=3875 queued=0 writebacks=71 rejected=0 reclaimed=45 high_water=1"),
    ("faults_tiny_station/batch16", "responses 3afa3e505bfd1b10 touches cbf29ce484222325 ledger 98f6567cd72f2448 mem 96934f31950e1074 table 2a7482200d92db33 (213 entries) forwarded=125 issued=3875 queued=1716 writebacks=68 rejected=1585 reclaimed=45 high_water=7"),
    ("faults_tiny_station/batch40", "responses 1145573f7175a7cf touches cbf29ce484222325 ledger c6cd23f17158bdfc mem b69eefbb1633ee9f table 826025d0875a2304 (214 entries) forwarded=126 issued=3874 queued=1817 writebacks=69 rejected=1857 reclaimed=44 high_water=7"),
    ("faults_tiny_station/batch257", "responses b5e622dd27d9bc22 touches cbf29ce484222325 ledger 1662ea18c1f82d0e mem fa4a2ca9594711f8 table d207bd1b47b6109f (213 entries) forwarded=125 issued=3875 queued=1874 writebacks=67 rejected=2021 reclaimed=45 high_water=7"),
    ("ttl/one_into", "responses 77c003db53700528 touches d6d5b8d9df791022 ledger a877f68f34b8dbe1 mem fb876fbcd5238627 table 0a7c39d6eb805489 (192 entries) forwarded=1189 issued=2483 queued=0 writebacks=672 rejected=0 reclaimed=0 high_water=1"),
    ("ttl/batch1", "responses 77c003db53700528 touches d6d5b8d9df791022 ledger a877f68f34b8dbe1 mem fb876fbcd5238627 table 0a7c39d6eb805489 (192 entries) forwarded=1189 issued=2483 queued=0 writebacks=672 rejected=0 reclaimed=0 high_water=1"),
    ("ttl/batch16", "responses 77c003db53700528 touches d6d5b8d9df791022 ledger b45b3f16964f63cb mem a34a6dc9ededbd3c table 0a7c39d6eb805489 (192 entries) forwarded=1189 issued=2483 queued=343 writebacks=519 rejected=0 reclaimed=0 high_water=16"),
    ("ttl/batch40", "responses 77c003db53700528 touches d6d5b8d9df791022 ledger b882665242a5b294 mem dd3543db5311b586 table 0a7c39d6eb805489 (192 entries) forwarded=1189 issued=2483 queued=538 writebacks=458 rejected=0 reclaimed=0 high_water=40"),
    ("ttl/batch257", "responses 77c003db53700528 touches d6d5b8d9df791022 ledger e8c553ef3dd70e72 mem a9018a2271399457 table 0a7c39d6eb805489 (192 entries) forwarded=1189 issued=2483 queued=564 writebacks=446 rejected=0 reclaimed=0 high_water=54"),
    ("lambdas/one_into", "responses 6467e8fe5a2d29a0 touches cbf29ce484222325 ledger f63064795bf214b9 mem 2afb76b8dd21b969 table 6e01d37fb45790df (33 entries) forwarded=3436 issued=101 queued=0 writebacks=2131 rejected=0 reclaimed=0 high_water=1"),
    ("lambdas/batch1", "responses 6467e8fe5a2d29a0 touches cbf29ce484222325 ledger f63064795bf214b9 mem 2afb76b8dd21b969 table 6e01d37fb45790df (33 entries) forwarded=3436 issued=101 queued=0 writebacks=2131 rejected=0 reclaimed=0 high_water=1"),
    ("lambdas/batch16", "responses 6467e8fe5a2d29a0 touches cbf29ce484222325 ledger e343ce372302bbe5 mem 3e88b0c1f48e16b1 table 6e01d37fb45790df (33 entries) forwarded=3436 issued=101 queued=25 writebacks=1873 rejected=0 reclaimed=0 high_water=13"),
    ("lambdas/batch40", "responses 6467e8fe5a2d29a0 touches cbf29ce484222325 ledger 68f13ce3d150fe5c mem 039360e639ae6464 table 6e01d37fb45790df (33 entries) forwarded=3436 issued=101 queued=50 writebacks=1569 rejected=0 reclaimed=0 high_water=33"),
    ("lambdas/batch257", "responses 6467e8fe5a2d29a0 touches cbf29ce484222325 ledger cd54a84c8271a2f8 mem 9c10c9ccb3cc74f8 table 6e01d37fb45790df (33 entries) forwarded=3436 issued=101 queued=291 writebacks=599 rejected=0 reclaimed=0 high_water=221"),
    ("oom_read_only/one_into", "responses f95647bb8f52f675 touches cbf29ce484222325 ledger e793dbc53b2b5e74 mem 12dec105c0666e42 table 785c2826653b043e (79 entries) forwarded=2153 issued=613 queued=0 writebacks=1831 rejected=0 reclaimed=0 high_water=1"),
    ("oom_read_only/batch1", "responses f95647bb8f52f675 touches cbf29ce484222325 ledger e793dbc53b2b5e74 mem 12dec105c0666e42 table 785c2826653b043e (79 entries) forwarded=2153 issued=613 queued=0 writebacks=1831 rejected=0 reclaimed=0 high_water=1"),
    ("oom_read_only/batch16", "responses f80579ba73ae67ba touches cbf29ce484222325 ledger 48deeee1d140542c mem 346b4af97ebc731c table 734d948b51e93efd (80 entries) forwarded=2148 issued=621 queued=20 writebacks=1790 rejected=0 reclaimed=0 high_water=16"),
    ("oom_read_only/batch40", "responses a0d14d76eaebee0a touches cbf29ce484222325 ledger 975b2a3f2047eb61 mem eb2b7188211652f4 table 3fc28b586f3b615f (81 entries) forwarded=2182 issued=625 queued=58 writebacks=1748 rejected=0 reclaimed=0 high_water=40"),
    ("oom_read_only/batch257", "responses 3ef3bc909c6fd93f touches cbf29ce484222325 ledger 42e237b107fac2ef mem fe1354c26bd9c77a table aa18b8baceae3b11 (81 entries) forwarded=2590 issued=693 queued=369 writebacks=1612 rejected=0 reclaimed=0 high_water=91"),
    ("ledger_detail/one_into", "responses 5755f93a2e3700a6 touches cbf29ce484222325 ledger 8626d8c8f94bf7c1 mem f0be26b6b916d068 table 808617edb27806b4 (195 entries) forwarded=3521 issued=479 queued=0 writebacks=1946 rejected=0 reclaimed=0 high_water=1"),
    ("ledger_detail/batch1", "responses 5755f93a2e3700a6 touches cbf29ce484222325 ledger 8626d8c8f94bf7c1 mem f0be26b6b916d068 table 808617edb27806b4 (195 entries) forwarded=3521 issued=479 queued=0 writebacks=1946 rejected=0 reclaimed=0 high_water=1"),
    ("ledger_detail/batch16", "responses 5755f93a2e3700a6 touches cbf29ce484222325 ledger 188b142281fef4f0 mem 7cccf2e261600d87 table 808617edb27806b4 (195 entries) forwarded=3521 issued=479 queued=33 writebacks=1689 rejected=0 reclaimed=0 high_water=16"),
    ("ledger_detail/batch40", "responses 5755f93a2e3700a6 touches cbf29ce484222325 ledger eda83b726ab11e28 mem 8b29fe72bb1a1bd7 table 808617edb27806b4 (195 entries) forwarded=3521 issued=479 queued=78 writebacks=1460 rejected=0 reclaimed=0 high_water=40"),
    ("ledger_detail/batch257", "responses 5755f93a2e3700a6 touches cbf29ce484222325 ledger 683c250afee55444 mem a6b49845714c9d34 table 808617edb27806b4 (195 entries) forwarded=3521 issued=479 queued=326 writebacks=901 rejected=0 reclaimed=0 high_water=141"),
    ("overload/one_into", "responses 3130557c9efaa78c touches cbf29ce484222325 ledger 721ae7eaf50d1108 mem cfd2b4aada027951 table e07dbbcac0367648 (131 entries) forwarded=804 issued=1189 queued=0 writebacks=409 rejected=0 reclaimed=0 high_water=1"),
    ("overload/batch1", "responses 3130557c9efaa78c touches cbf29ce484222325 ledger 721ae7eaf50d1108 mem cfd2b4aada027951 table e07dbbcac0367648 (131 entries) forwarded=804 issued=1189 queued=0 writebacks=409 rejected=0 reclaimed=0 high_water=1"),
    ("overload/batch16", "responses 8c8a8e7d23663d37 touches cbf29ce484222325 ledger 2350345320f0c2a7 mem 7f70ea8256d8220e table 272abfd6cfff6e0a (128 entries) forwarded=697 issued=1125 queued=258 writebacks=285 rejected=0 reclaimed=0 high_water=8"),
    ("overload/batch40", "responses 87990466619e0ded touches cbf29ce484222325 ledger aef7035de221dc01 mem cdb102473dec3b8d table ab55a23f153e0deb (110 entries) forwarded=544 issued=889 queued=225 writebacks=224 rejected=0 reclaimed=0 high_water=8"),
    ("overload/batch257", "responses 67f6761f29dd7901 touches cbf29ce484222325 ledger db3a718988f1afa2 mem 2c748a2246af02ce table 86518860284f8604 (109 entries) forwarded=515 issued=845 queued=216 writebacks=209 rejected=0 reclaimed=0 high_water=8"),
];
