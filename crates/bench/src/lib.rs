//! Shared helpers for the figure/table reproduction harnesses.
//!
//! Every `benches/figNN_*.rs` / `benches/tableN_*.rs` target regenerates
//! one table or figure of the KV-Direct paper and prints the measured
//! series next to the paper's reference values (where the paper states
//! them). Run them all with `cargo bench -p kvd-bench`, or one with
//! `cargo bench -p kvd-bench --bench fig16_ycsb_throughput`.

use kvd_core::parallel::{ParallelSimConfig, ParallelSystemSim};
use kvd_core::system::{SystemSim, SystemSimConfig, SystemSimReport};
use kvd_core::{KvDirectConfig, StoreError};
use kvd_net::KvRequest;
use kvd_sim::{DetRng, ZipfSampler};

pub use kvd_sim::report::{fmt_f, Table};

/// Prints the harness banner: which paper artifact this regenerates and
/// what shape to expect.
pub fn banner(figure: &str, claim: &str) {
    println!("{}", "=".repeat(72));
    println!("KV-Direct reproduction — {figure}");
    println!("paper claim: {claim}");
    println!("{}", "=".repeat(72));
    println!();
}

/// Prints a closing shape-check line: PASS/FAIL on the qualitative claim.
pub fn shape_check(name: &str, ok: bool, detail: &str) {
    let status = if ok { "PASS" } else { "FAIL" };
    println!("[shape {status}] {name}: {detail}");
}

/// Standard scaled memory size used by the functional experiments
/// (stands in for the paper's 64 GiB with all ratios preserved).
pub const SCALED_MEMORY: u64 = 1 << 20;

/// Larger scale for experiments that need corpus ≫ NIC DRAM.
pub const SCALED_MEMORY_BIG: u64 = 8 << 20;

/// Client windows the throughput figures keep in flight
/// (`SystemSimConfig::windows`).
///
/// The paper's packet generator keeps the NIC busy; a closed loop does so
/// only while its windows cover the bandwidth-delay product. By Little's
/// law, ops in flight = throughput × latency: 180 Mops at the ~10 µs a
/// batch takes to come back from a loaded NIC is ~1 800 ops, 45 batches of
/// 40. The paper default of 8 windows keeps 320 ops in flight and measures
/// the client (~85 Mops on tiny GETs); 64 windows reach the NIC's bound.
pub const SATURATING_WINDOWS: usize = 64;

/// Client windows of the latency figure (Fig 17) and of Table 3's latency
/// column: a double-buffered client, one batch in service while the other
/// returns. Latency is then the service path, not the Little's-law
/// queueing that [`SATURATING_WINDOWS`] adds.
pub const LATENCY_WINDOWS: usize = 2;

/// Operations per YCSB point run.
pub const YCSB_OPS: usize = 40_000;

/// Memory utilization every YCSB point preloads to.
pub const PRELOAD_UTILIZATION: f64 = 0.4;

/// Key popularity of a YCSB stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Uniform over the preloaded keys.
    Uniform,
    /// The paper's long-tail workload: Zipf with skewness 0.99.
    Zipf,
}

/// One YCSB point: KV size (an 8 B key plus the value), the share of
/// PUTs, and the key popularity.
#[derive(Debug, Clone, Copy)]
pub struct Ycsb {
    /// Key + value bytes.
    pub kv_size: usize,
    /// Fraction of PUT operations (0.0 … 1.0); the rest are GETs.
    pub put_ratio: f64,
    /// Popularity distribution.
    pub dist: KeyDist,
}

/// A YCSB point run on the timed engine.
pub struct YcsbRun {
    /// The engine after the run (its store carries the ECC state).
    pub sim: SystemSim,
    /// The run's report. Its ledger is the run's own: the preload's
    /// traffic is subtracted.
    pub report: SystemSimReport,
}

impl Ycsb {
    /// The point `kv_size` bytes, `put_ratio` PUTs, `dist` popularity.
    pub fn new(kv_size: usize, put_ratio: f64, dist: KeyDist) -> Self {
        assert!(kv_size > KEY_LEN, "a KV must exceed its 8 B key");
        Ycsb {
            kv_size,
            put_ratio,
            dist,
        }
    }

    /// Preloads a fresh engine with keys `0, 1, …` until the table reaches
    /// [`PRELOAD_UTILIZATION`] of its memory, then runs [`YCSB_OPS`]
    /// operations of this point, drawn from `seed`, through it in closed
    /// loop.
    ///
    /// A preload PUT that exhausts its retry budget under injected faults
    /// is retried with the same key; any other refusal ends the preload.
    ///
    /// # Panics
    ///
    /// Panics if not one key fits.
    pub fn run(&self, cfg: SystemSimConfig, seed: u64) -> YcsbRun {
        let mut sim = SystemSim::new(cfg);
        let mut rng = DetRng::seed(seed);
        let mut value = vec![0u8; self.kv_size - KEY_LEN];
        let mut n_keys = 0u64;
        while sim.store_mut().processor().table().memory_utilization() < PRELOAD_UTILIZATION {
            rng.fill_bytes(&mut value);
            match sim.store_mut().put(&n_keys.to_le_bytes(), &value) {
                Ok(()) => n_keys += 1,
                Err(StoreError::DeviceError) => {}
                Err(_) => break,
            }
        }
        assert!(n_keys > 0, "no keys fit the configured memory");
        let zipf = ZipfSampler::new(n_keys, 0.99);
        let reqs: Vec<KvRequest> = (0..YCSB_OPS)
            .map(|_| {
                let key = match self.dist {
                    KeyDist::Uniform => rng.u64_below(n_keys),
                    KeyDist::Zipf => zipf.sample(&mut rng),
                }
                .to_le_bytes();
                if rng.chance(self.put_ratio) {
                    rng.fill_bytes(&mut value);
                    KvRequest::put(&key, &value)
                } else {
                    KvRequest::get(&key)
                }
            })
            .collect();
        let preload = sim.ledger();
        let mut report = sim.run(&reqs);
        report.ledger = report.ledger.since(&preload);
        YcsbRun { sim, report }
    }
}

/// Key bytes of every YCSB record.
const KEY_LEN: usize = 8;

/// Keys per NIC in the multi-NIC runs: the population scales with the
/// shard count so every NIC sees the same per-shard key-space density
/// (Figure 18 varies NICs, not load shape).
pub const POPULATION_PER_NIC: u64 = 20_000;

/// Operations per NIC in the multi-NIC runs.
pub const OPS_PER_NIC: usize = 24_000;

/// Figure 18's engine, also behind Table 3's 10-NIC row: `shards` timed
/// pipelines (batch 40, 24 client windows each) preloaded with
/// [`POPULATION_PER_NIC`] tiny keys per NIC. `workers` 0 takes the
/// machine's parallelism.
pub fn multi_nic_engine(shards: usize, workers: usize) -> ParallelSystemSim {
    let mut cfg =
        ParallelSimConfig::paper(KvDirectConfig::with_memory(SCALED_MEMORY_BIG), 40, shards);
    cfg.shard.windows = 24;
    cfg.workers = workers;
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..POPULATION_PER_NIC * shards as u64 {
        sim.preload_put(&id.to_le_bytes(), &[id as u8; 8])
            .expect("preload fits");
    }
    sim
}

/// Figure 18's stream for `shards` NICs: [`OPS_PER_NIC`] uniform GETs per
/// NIC over the whole population, a corpus much larger than the
/// reservation station, so operations genuinely touch memory.
pub fn multi_nic_gets(shards: usize, seed: u64) -> Vec<KvRequest> {
    let mut rng = DetRng::seed(seed);
    let population = POPULATION_PER_NIC * shards as u64;
    (0..OPS_PER_NIC * shards)
        .map(|_| KvRequest::get(&rng.u64_below(population).to_le_bytes()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_accept_paper_ratio_nic_dram() {
        // Both scales must admit a host/16 NIC DRAM under the ECC
        // metadata constraint (ratio 16, 4-way: 4 + 2 tag bits + dirty
        // + valid ≤ 8); constructing the cache enforces it.
        for host in [SCALED_MEMORY, SCALED_MEMORY_BIG] {
            let cfg = kvd_mem::NicDramConfig {
                capacity: host / 16,
                bandwidth: kvd_sim::Bandwidth::from_gbytes_per_sec(12.8),
            };
            let _ = kvd_mem::NicDram::new(cfg, host);
        }
    }

    #[test]
    fn a_ycsb_run_ledger_counts_the_run_not_the_preload() {
        let cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(SCALED_MEMORY), 40);
        let run = Ycsb::new(10, 0.5, KeyDist::Zipf).run(cfg, 1);
        assert_eq!(run.report.ops, YCSB_OPS as u64);
        assert_eq!(run.report.ledger.core.requests, YCSB_OPS as u64);
        assert!(run.report.ledger.core.puts > 0);
    }

    #[test]
    fn banner_and_shape_check_do_not_panic() {
        banner("smoke", "claim");
        shape_check("smoke", true, "detail");
        shape_check("smoke", false, "detail");
    }
}
