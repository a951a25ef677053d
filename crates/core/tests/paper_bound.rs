//! The paper's §5.2 throughput bound, kept as an oracle for the timed
//! engine.
//!
//! §5.2 explains single-NIC throughput as the minimum of three bounds: the
//! 180 MHz clock (one operation per cycle), the 40 GbE network, and
//! PCIe/DRAM. This test computes that minimum from a run's own ledger (the
//! wire bytes of each direction, DMA reads and writes, NIC DRAM lines) and
//! the configured device capacities, then holds `SystemSim` to it: the
//! engine never runs more than 2 % above the bound, and where the paper
//! says one NIC saturates (10 B long-tail GETs at the clock, 249 B GETs at
//! the network) it comes within 10 % of it.
//!
//! The engine is driven as the throughput figures drive it: batches of 40,
//! 64 client windows in flight (enough to cover the bandwidth-delay
//! product), a corpus preloaded to 40 % of memory. Fig 13(a)'s
//! out-of-order point, fetch-adds on a single key, must reach the clock
//! bound too.

use kvd_core::system::{SystemSim, SystemSimConfig, SystemSimReport, CLOCK_MHZ, PCIE_PORTS};
use kvd_core::{builtin, KvDirectConfig};
use kvd_net::{KvRequest, NetConfig, OpCode};
use kvd_pcie::PcieConfig;
use kvd_sim::{Bandwidth, DetRng, Freq, ZipfSampler};

const OPS: usize = 40_000;
const KEY_LEN: usize = 8;

/// NIC DRAM channel bandwidth (paper: 12.8 GB/s), which the engine charges
/// per 64 B line.
const DRAM_GBYTES_PER_SEC: f64 = 12.8;

/// One run and what the bound needs that the ledger does not split: the
/// request direction's payload bytes.
struct Run {
    report: SystemSimReport,
    request_payload: u64,
}

/// The throughput figures' engine: batches of 40, 64 windows.
fn saturating() -> SystemSimConfig {
    SystemSimConfig {
        windows: 64,
        ..SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40)
    }
}

/// Figure 13's engine: the throughput figures' at `load_dispatch_ratio`
/// 0, so every access crosses PCIe, with or without data forwarding (the
/// out-of-order engine).
fn fig13(forwarding: bool) -> SystemSimConfig {
    let mut cfg = saturating();
    cfg.store.load_dispatch_ratio = 0.0;
    cfg.store.station.forwarding = forwarding;
    cfg
}

fn run(kv_size: usize, put_ratio: f64, zipf: bool) -> Run {
    run_on(saturating(), kv_size, put_ratio, zipf)
}

fn run_on(cfg: SystemSimConfig, kv_size: usize, put_ratio: f64, zipf: bool) -> Run {
    let mut sim = SystemSim::new(cfg);
    let mut rng = DetRng::seed(kv_size as u64);
    let value = vec![7u8; kv_size - KEY_LEN];
    let mut n_keys = 0u64;
    while sim.store_mut().processor().table().memory_utilization() < 0.4
        && sim.store_mut().put(&n_keys.to_le_bytes(), &value).is_ok()
    {
        n_keys += 1;
    }
    let sampler = ZipfSampler::new(n_keys, 0.99);
    let reqs: Vec<KvRequest> = (0..OPS)
        .map(|_| {
            let id = if zipf {
                sampler.sample(&mut rng)
            } else {
                rng.u64_below(n_keys)
            };
            if rng.chance(put_ratio) {
                KvRequest::put(&id.to_le_bytes(), &value)
            } else {
                KvRequest::get(&id.to_le_bytes())
            }
        })
        .collect();
    measure(sim, &reqs)
}

/// Runs `reqs` through `sim`, whose preload the run's ledger leaves out.
fn measure(mut sim: SystemSim, reqs: &[KvRequest]) -> Run {
    // What the engine puts on the request link per op: a 4 B header plus
    // the key and value.
    let request_payload = reqs
        .iter()
        .map(|r| 4 + (r.key.len() + r.value.len()) as u64)
        .sum();
    let preload = sim.ledger();
    let mut report = sim.run(reqs);
    report.ledger = report.ledger.since(&preload);
    Run {
        report,
        request_payload,
    }
}

/// The three §5.2 bounds of one run, in Mops.
#[derive(Debug)]
struct Bound {
    clock: f64,
    network: f64,
    memory: f64,
}

impl Bound {
    fn of(run: &Run) -> Self {
        let l = &run.report.ledger;
        let (net, pcie) = (NetConfig::forty_gbe(), PcieConfig::gen3_x8());
        let ops = run.report.ops as f64;
        // Network: each direction serializes its own packets (full
        // duplex), one request and one response packet per batch.
        let batches = l.net.batches;
        let response_payload = l.net.payload_bytes - run.request_payload;
        let wire = |payload: u64| batches * net.wire_bytes(payload / batches);
        let busier = wire(run.request_payload).max(wire(response_payload));
        let network_secs = busier as f64 / net.bandwidth.bytes_per_sec();
        // PCIe: a random 64 B read is tag-limited (tags / mean round trip)
        // or wire-limited, a write wire-limited; the ports work in
        // parallel, and so does the NIC DRAM channel.
        let ports = PCIE_PORTS as f64;
        let write_rate = pcie.bandwidth_bound_mops(64) * 1e6;
        let tag_rate = f64::from(pcie.read_tags) / pcie.mean_random_read_latency().as_secs_f64();
        let read_rate = tag_rate.min(write_rate);
        let pcie_secs = l.pcie.dma_reads as f64 / (ports * read_rate)
            + l.pcie.dma_writes as f64 / (ports * write_rate);
        let dram_rate = Bandwidth::from_gbytes_per_sec(DRAM_GBYTES_PER_SEC).transfers_per_sec(64);
        let dram_secs = (l.dram.reads + l.dram.writes) as f64 / dram_rate;
        Bound {
            clock: Freq::from_mhz(CLOCK_MHZ).ops_per_sec() / 1e6,
            network: ops / network_secs / 1e6,
            memory: ops / pcie_secs.max(dram_secs) / 1e6,
        }
    }

    fn mops(&self) -> f64 {
        self.clock.min(self.network).min(self.memory)
    }
}

/// Runs the point and checks the engine against the bound; returns
/// (engine Mops, bound).
fn engine_within_bound(kv_size: usize, put_ratio: f64, zipf: bool) -> (f64, Bound) {
    let point = format!("{kv_size} B, {put_ratio} PUT, zipf {zipf}");
    run_within_bound(&point, &run(kv_size, put_ratio, zipf))
}

fn run_within_bound(point: &str, run: &Run) -> (f64, Bound) {
    let bound = Bound::of(run);
    let mops = run.report.mops;
    assert!(
        mops <= 1.02 * bound.mops(),
        "{point}: engine {mops:.1} Mops above {bound:?}"
    );
    (mops, bound)
}

#[test]
fn tiny_longtail_gets_reach_the_clock_bound() {
    let (mops, bound) = engine_within_bound(10, 0.0, true);
    assert_eq!(bound.mops(), bound.clock, "{bound:?}");
    assert!(mops >= 0.9 * bound.mops(), "{mops:.1} Mops vs {bound:?}");
}

#[test]
fn large_uniform_gets_reach_the_network_bound() {
    let (mops, bound) = engine_within_bound(249, 0.0, false);
    assert_eq!(bound.mops(), bound.network, "{bound:?}");
    assert!(mops >= 0.9 * bound.mops(), "{mops:.1} Mops vs {bound:?}");
}

#[test]
fn no_mix_runs_above_the_bound() {
    for (kv_size, put_ratio, zipf) in [
        (10, 0.0, false),
        (10, 0.5, true),
        (10, 1.0, true),
        (57, 0.0, true),
        (249, 0.5, false),
        (249, 1.0, true),
    ] {
        engine_within_bound(kv_size, put_ratio, zipf);
    }
}

fn fetch_add(key: &[u8]) -> KvRequest {
    KvRequest {
        op: OpCode::UpdateScalar,
        key: key.to_vec(),
        value: 1u64.to_le_bytes().to_vec(),
        lambda: builtin::ADD,
        deadline_us: 0,
        expiry_tick: 0,
    }
}

#[test]
fn single_key_atomics_reach_the_clock_bound() {
    // Fig 13(a) with out-of-order execution: the station serves every
    // fetch-add of a packet but its first by forwarding, one per cycle,
    // and writes the key back once per packet.
    let sim = SystemSim::new(saturating());
    let run = measure(sim, &vec![fetch_add(b"counter"); 60_000]);
    let (mops, bound) = run_within_bound("single-key fetch-add", &run);
    assert_eq!(bound.mops(), bound.clock, "{bound:?}");
    assert!(mops >= 0.9 * bound.mops(), "{mops:.1} Mops vs {bound:?}");
}

/// 60 000 fetch-adds over `keys` uniform keys on Figure 13's engine.
fn atomics(keys: u64, forwarding: bool) -> Run {
    let mut rng = DetRng::seed(keys);
    let reqs: Vec<KvRequest> = (0..60_000)
        .map(|_| fetch_add(&rng.u64_below(keys).to_le_bytes()))
        .collect();
    let point = format!("{keys}-key fetch-add, forwarding {forwarding}");
    let run = measure(SystemSim::new(fig13(forwarding)), &reqs);
    run_within_bound(&point, &run);
    run
}

#[test]
fn single_key_atomics_without_ooo_wait_out_each_round_trip() {
    // Fig 13(a)'s stalling pipeline: each fetch-add waits for the one
    // before it to read its bucket over PCIe (paper: 0.94 Mops).
    let run = atomics(1, false);
    let mops = run.report.mops;
    assert!((0.7..1.2).contains(&mops), "{mops:.2} Mops");
    assert_eq!(run.report.ledger.station.forwarded, 0);
}

#[test]
fn single_key_atomics_with_ooo_forward_past_the_round_trip() {
    // Fig 13(a) with out-of-order execution on Figure 13's engine, where
    // every access crosses PCIe: the station forwards nine in ten
    // fetch-adds and the run holds 150 Mops of the 180 Mops clock.
    let run = atomics(1, true);
    let mops = run.report.mops;
    assert!(mops > 150.0, "{mops:.1} Mops");
    let forwarded = run.report.ledger.station.forwarded;
    assert!(forwarded > 54_000, "{forwarded} of 60000 forwarded");
}

#[test]
fn ooo_speeds_single_key_atomics_up_two_orders() {
    // Paper: 191x.
    let (with, without) = (atomics(1, true).report.mops, atomics(1, false).report.mops);
    assert!(with / without > 100.0, "{with:.1} vs {without:.2} Mops");
}

#[test]
fn stalled_atomics_grow_with_keys_and_stay_far_from_the_clock() {
    let [one, ten, hundred] = [1, 10, 100].map(|keys| atomics(keys, false).report.mops);
    assert!(ten > 2.0 * one, "10 keys {ten:.2} vs 1 key {one:.2}");
    assert!(
        hundred > 2.0 * ten,
        "100 keys {hundred:.2} vs 10 keys {ten:.2}"
    );
    assert!(hundred < 100.0, "100 keys {hundred:.1} Mops");
}

#[test]
fn longtail_puts_stall_the_pipeline_without_ooo() {
    // Fig 13(b): without forwarding, writes to the hot keys serialize.
    let [gets, puts] = [0.0, 1.0].map(|put_ratio| {
        let run = run_on(fig13(false), 16, put_ratio, true);
        run_within_bound(&format!("16 B long-tail, {put_ratio} PUT, no OoO"), &run).0
    });
    assert!(puts < 0.7 * gets, "100% PUT {puts:.1} vs 0% PUT {gets:.1}");
}

#[test]
fn uniform_gets_share_slots_without_ooo() {
    // Reads never stall on reads: without forwarding, uniform GETs lose
    // only the station hits.
    let [without, with] = [false, true].map(|forwarding| {
        let run = run_on(fig13(forwarding), 16, 0.0, false);
        run_within_bound(&format!("16 B uniform GETs, forwarding {forwarding}"), &run).0
    });
    assert!(without >= 0.95 * with, "{without:.1} vs {with:.1} Mops");
}
