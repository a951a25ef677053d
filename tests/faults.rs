//! Fault-injection differential and determinism tests.
//!
//! The fault plane's contract has three testable halves:
//!
//! 1. **Differential safety** — under any fault rate, an operation that
//!    acknowledges `Ok` behaves exactly like the fault-free model; an
//!    operation that reports `DeviceError` was not applied at all. The
//!    store never panics and never hangs, whatever the schedule.
//! 2. **Determinism** — the schedule is a pure function of the config
//!    seed: same seed, same faults, same counters, same responses.
//!    Different seeds diverge.
//! 3. **Inertness** — a zero-rate plane consumes no randomness and the
//!    store is bit-identical to one built without fault injection.

use kv_direct::sim::DetRng;
use kv_direct::{
    FaultRates, KvDirectConfig, KvDirectStore, KvRequest, KvResponse, OpLedger, Status,
};
use kvd_model::{op_strategy, to_request, Effect, Model, Op};
use proptest::prelude::*;

/// The fault pressures exercised by every differential property.
const RATES: [f64; 3] = [0.0, 0.01, 0.1];

fn faulty_config(rate: f64, seed: u64) -> KvDirectConfig {
    KvDirectConfig {
        fault_rates: FaultRates::uniform(rate),
        fault_seed: seed,
        ..KvDirectConfig::with_memory(4 << 20)
    }
}

fn faulty_store(rate: f64, seed: u64) -> KvDirectStore {
    KvDirectStore::new(faulty_config(rate, seed))
}

/// `cfg` on a station smaller than the 24 generated keys: 8 hash slots,
/// 16 in flight. On the paper's 1 024 slots every key keeps a forwarding
/// entry after its first touch and most ops retire by forwarding; here
/// keys share slots and evict each other's entries, so ops reach the
/// hash table.
fn small_station(mut cfg: KvDirectConfig) -> KvDirectConfig {
    cfg.station.hash_slots = 8;
    cfg.station.capacity = 16;
    cfg
}

/// Device errors one differential saw: all of them, and those that
/// answered a write (PUT, DELETE or fetch-add).
#[derive(Debug, Default)]
struct Refusals {
    all: u64,
    writes: u64,
}

/// Replays `ops` against a faulty store and the fault-free model,
/// asserting agreement on every response that is not a `DeviceError`
/// and that a `DeviceError` left the key as it was.
fn run_differential(store: &mut KvDirectStore, ops: &[Op]) -> Result<Refusals, TestCaseError> {
    let mut model = Model::default().tolerating(&[Status::DeviceError]);
    let mut refused = Refusals::default();
    for op in ops {
        let req = to_request(op);
        let resp = store
            .execute_batch(std::slice::from_ref(&req))
            .pop()
            .expect("one response per request");
        let effect = model.check(req.as_ref(), resp.status, &resp.value);
        if effect.map_err(TestCaseError::fail)? == Effect::Refused {
            refused.all += 1;
            refused.writes += u64::from(!matches!(op, Op::Get { .. }));
        }
    }
    // Final state: every model key the store acknowledged must still read
    // back correctly (tolerating read-time device errors).
    for (k, v) in model.entries() {
        match store.try_get(k) {
            Ok(got) => prop_assert_eq!(got.as_deref(), Some(v), "final state diverged"),
            Err(kv_direct::StoreError::DeviceError) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }
    Ok(refused)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// At fault rates 0, 1% and 10%, on either station, any interleaving
    /// of operations agrees with a fault-free reference map on every
    /// acknowledged response, and the run always terminates without a
    /// panic.
    #[test]
    fn faulty_store_matches_reference_map(
        ops in prop::collection::vec(op_strategy(200), 1..250),
        seed in any::<u64>(),
    ) {
        for rate in RATES {
            let cfg = faulty_config(rate, seed);
            for cfg in [small_station(cfg.clone()), cfg] {
                let slots = cfg.station.hash_slots;
                let mut store = KvDirectStore::new(cfg);
                let refused = run_differential(&mut store, &ops).map_err(|e| {
                    TestCaseError::fail(format!("rate {rate}, {slots} slots: {e}"))
                })?;
                if rate == 0.0 {
                    prop_assert_eq!(refused.all, 0, "zero rate cannot fail ops");
                    prop_assert_eq!(store.ledger().total_faults(), 0);
                }
            }
        }
    }

    /// The injected fault schedule is a pure function of the seed:
    /// replaying the same ops with the same seed reproduces responses,
    /// and the whole ledger (processor counts, fault channels) bit-for-bit.
    #[test]
    fn fault_schedule_reproducible_for_any_seed(
        ops in prop::collection::vec(op_strategy(200), 1..150),
        seed in any::<u64>(),
    ) {
        let reqs: Vec<KvRequest> = ops.iter().map(to_request).collect();
        let run = |seed: u64| -> (Vec<KvResponse>, OpLedger) {
            let mut store = faulty_store(0.1, seed);
            let responses = store.execute_batch(&reqs);
            (responses, store.ledger())
        };
        prop_assert_eq!(run(seed), run(seed), "same seed must replay exactly");
    }
}

/// At 30 % per fault channel an issued transaction exhausts its 4 retries
/// about 5 % of the time (0.554^5), so writes do answer `DeviceError`,
/// and each must leave its key as it was. The lower rates above almost
/// never get there (about rate^5 per transaction). It runs on the small
/// station only: on the paper's, the 24 keys' forwarding entries answer
/// nearly every op after its key's first touch, so few transactions are
/// issued at all.
#[test]
fn heavy_faults_refuse_writes_without_effect() {
    let mut rng = DetRng::seed(0x0330);
    let ops: Vec<Op> = (0..4_000)
        .map(|_| {
            let key = rng.u64_below(24) as u8;
            match rng.usize_below(4) {
                0 => Op::Put {
                    key,
                    len: rng.usize_below(200),
                },
                1 => Op::Get { key },
                2 => Op::Delete { key },
                _ => Op::FetchAdd {
                    key,
                    delta: 1 + rng.u64_below(99),
                },
            }
        })
        .collect();
    let mut store = KvDirectStore::new(small_station(faulty_config(0.3, 0x5EED)));
    let refused = run_differential(&mut store, &ops).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "uniform(0.3): {} of {} replies DeviceError, {} of them to writes",
        refused.all,
        ops.len(),
        refused.writes
    );
    assert!(refused.writes > 0, "no write was refused");
}

/// Same seed → identical run; different seed → different fault schedule.
/// (Deterministic regression twin of the property above, pinned so a
/// schedule change shows up as a plain test failure.)
#[test]
fn determinism_regression_same_and_different_seeds() {
    let workload: Vec<KvRequest> = (0..600u64)
        .flat_map(|i| {
            let k = (i % 48).to_le_bytes();
            vec![KvRequest::put(&k, &i.to_le_bytes()), KvRequest::get(&k)]
        })
        .collect();
    let run = |seed: u64| {
        let mut store = faulty_store(0.1, seed);
        let responses = store.execute_batch(&workload);
        (responses, store.ledger())
    };
    let (ra, la) = run(1234);
    let (rb, lb) = run(1234);
    assert_eq!(ra, rb, "same seed, same responses");
    assert_eq!(
        la, lb,
        "same seed, same processor counts and fault channels"
    );
    assert!(la.total_faults() > 0, "10% pressure injects faults");

    let (_, lc) = run(5678);
    assert_ne!(la, lc, "different seeds, different schedules");
}

/// A zero-rate fault plane is inert: the store's observable behavior is
/// bit-identical to one built from a plain config, fault seed ignored.
#[test]
fn zero_rate_plane_is_bit_identical_to_plain_store() {
    let workload: Vec<KvRequest> = (0..500u64)
        .flat_map(|i| {
            let k = (i % 40).to_le_bytes();
            vec![
                KvRequest::put(&k, &(i * 7).to_le_bytes()),
                KvRequest::get(&k),
                KvRequest::delete(&(i % 80).to_le_bytes()),
            ]
        })
        .collect();
    let mut plain = KvDirectStore::new(KvDirectConfig::with_memory(1 << 20));
    let mut zeroed = KvDirectStore::new(KvDirectConfig {
        fault_rates: FaultRates::uniform(0.0),
        fault_seed: 0x5EED,
        ..KvDirectConfig::with_memory(1 << 20)
    });
    assert_eq!(
        plain.execute_batch(&workload),
        zeroed.execute_batch(&workload)
    );
    assert_eq!(plain.ledger(), zeroed.ledger());
    assert_eq!(zeroed.ledger().total_faults(), 0);
    assert!(!zeroed.ecc_stats().bypassed);
}

/// Sustained uncorrectable ECC pressure trips the DRAM-cache bypass
/// breaker; the store keeps serving correct data over PCIe afterwards.
#[test]
fn ecc_pressure_degrades_to_pcie_but_stays_correct() {
    let mut store = KvDirectStore::new(KvDirectConfig {
        fault_rates: FaultRates {
            dram_bit_error: 0.4,
            dram_uncorrectable: 0.5,
            ..FaultRates::ZERO
        },
        fault_seed: 99,
        ..KvDirectConfig::with_memory(1 << 20)
    });
    // ECC faults retry inside the engine: every op must succeed.
    let mut model = Model::default();
    let mut resp = KvResponse::default();
    for i in 0..2000u64 {
        let req = KvRequest::put(&(i % 64).to_le_bytes(), &i.to_le_bytes());
        store.execute_one_into(req.as_ref(), &mut resp);
        model.check(req.as_ref(), resp.status, &resp.value).unwrap();
    }
    let ecc = store.ecc_stats();
    assert!(ecc.uncorrectable > 0, "pressure did fire");
    assert!(ecc.bypassed, "breaker trips under sustained pressure");
    for (k, v) in model.entries() {
        assert_eq!(store.get(k).as_deref(), Some(v), "degraded store lost data");
    }
}
