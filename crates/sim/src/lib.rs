#![warn(missing_docs)]
//! Discrete-event simulation substrate for the KV-Direct reproduction.
//!
//! The KV-Direct paper (SOSP '17) measures an FPGA-based key-value processor
//! attached to host memory over PCIe Gen3. This crate provides the building
//! blocks every hardware model in the workspace shares:
//!
//! * [`time`] — a picosecond-resolution virtual clock ([`SimTime`]) and
//!   frequency/bandwidth arithmetic.
//! * [`queue`] — a deterministic event queue ([`EventQueue`]) with FIFO
//!   tie-breaking for equal timestamps.
//! * [`resource`] — reusable contention models: serialization on a
//!   bandwidth-limited link, fixed+jitter latency stages, credit pools
//!   (PCIe flow control) and tag pools (DMA read tags).
//! * [`stats`] — log-bucketed latency histograms, counters and summaries.
//! * [`rng`] — seeded deterministic RNG plus Zipf samplers (the paper's
//!   "long-tail" workload is Zipf with skewness 0.99).
//! * [`arbiter`] — the conservative time-quantum host-memory arbiter
//!   ([`arbiter::HostArbiter`]) that lets parallel per-shard simulations share the
//!   server's aggregate DRAM bandwidth deterministically: the parallel
//!   engine charges it each window's traffic at the window rendezvous.
//! * [`fault`] — deterministic, seed-driven fault injection
//!   ([`FaultPlane`]) consulted by the PCIe, DRAM and network models.
//! * [`pressure`] — the [`PressureGauge`] backpressure snapshot shared by
//!   the reservation station, DMA tag pools and host arbiter with the
//!   admission layer.
//! * [`chaos`] — seeded bursty open-loop arrival schedules
//!   ([`ChaosSchedule`]) for overload/chaos soak testing.
//! * [`cluster`] — the inter-node fabric primitive ([`NodeLink`]) for the
//!   multi-host replication plane: timed host-to-host links.
//! * [`ledger`] — the typed, mergeable op-cost ledger ([`OpLedger`])
//!   every plane emits into through [`CostSource`] — the only counter
//!   surface stores, simulators and reports expose.
//! * [`runreport`] — the shared [`RunSummary`] both simulation reports
//!   (single-shard and parallel) are built from.
//! * [`report`] — plain-text table rendering used by the benchmark
//!   harnesses that regenerate the paper's tables and figures.
//!
//! Everything here is deterministic given a seed, so simulation results are
//! reproducible run-to-run.

pub mod arbiter;
pub mod chaos;
pub mod cluster;
pub mod fault;
pub mod ledger;
pub mod pressure;
pub mod queue;
pub mod report;
pub mod resource;
pub mod rng;
pub mod runreport;
pub mod stats;
pub mod time;

pub use arbiter::{ArbiterStats, HostArbiterConfig};
pub use chaos::ChaosSchedule;
pub use cluster::NodeLink;
pub use fault::{DramFault, FaultPlane, FaultRates, NetFault, PcieFault, TxnOutcome};
pub use ledger::{
    CacheCosts, ClusterCosts, Component, CoreCosts, CostSource, DramCosts, ExpiryCosts,
    LatencyCosts, NetCosts, OpClass, OpLedger, PcieCosts, PressureTerms, ServerCosts,
    SharedServerCosts, SlabCosts, StationCosts,
};
pub use pressure::PressureGauge;
pub use queue::EventQueue;
pub use resource::{BandwidthLink, CreditPool, TagPool};
pub use rng::{DetRng, ZipfSampler};
pub use runreport::{Percentile, RunSummary};
pub use stats::{Histogram, Summary};
pub use time::{Bandwidth, Freq, SimTime};

#[cfg(test)]
/// The generator's and the Zipf sampler's contract, through the crate's
/// public surface ([`rng`] holds their distribution cross-checks).
mod tests {
    use super::{DetRng, ZipfSampler};

    /// `a` after `op` is where `b` is after `draws` plain steps.
    fn spends(mut a: DetRng, op: impl FnOnce(&mut DetRng), draws: usize) -> bool {
        let mut b = a.clone();
        op(&mut a);
        (0..draws).for_each(|_| {
            b.u64();
        });
        a.u64() == b.u64()
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(42);
        let mut b = DetRng::seed(42);
        for _ in 0..64 {
            assert_eq!(a.u64(), b.u64());
        }
        let mut c = a.clone();
        assert_eq!(a.u64(), c.u64(), "a clone continues the same stream");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let sa: Vec<u64> = (0..8).map(|_| a.u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn ranges_respected() {
        let mut rng = DetRng::seed(7);
        for _ in 0..10_000 {
            assert!(rng.u64_below(10) < 10);
            assert!(rng.usize_below(4) <= 3);
            assert_eq!(rng.u64_below(1), 0);
            assert!((0.0..1.0).contains(&rng.f64()));
        }
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = DetRng::seed(9);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
            assert!(!rng.chance(-0.5) && rng.chance(1.5), "p is clamped");
        }
        // Degenerate probabilities still spend their draw.
        for p in [0.0, 0.3, 1.0] {
            assert!(
                spends(
                    DetRng::seed(9),
                    |r| {
                        r.chance(p);
                    },
                    1
                ),
                "p {p}"
            );
        }
    }

    #[test]
    fn uniformity_rough() {
        let mut rng = DetRng::seed(11);
        let trials = 100_000;
        let hits = (0..trials).filter(|_| rng.u64_below(10) == 0).count() as f64;
        let frac = hits / trials as f64;
        assert!((frac - 0.1).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn fill_covers_tail() {
        let mut rng = DetRng::seed(13);
        let mut twin = rng.clone();
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert_eq!(buf[..8], twin.u64().to_le_bytes());
        assert_eq!(
            buf[8..],
            twin.u64().to_le_bytes()[..5],
            "the tail is one word's low bytes"
        );
        assert_eq!(rng.u64(), twin.u64(), "the tail spends exactly one word");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(std::panic::catch_unwind(|| ZipfSampler::new(0, 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| ZipfSampler::new(10, -0.5)).is_err());
        ZipfSampler::new(10, 0.0);
    }

    #[test]
    fn samples_in_range() {
        let zipf = ZipfSampler::new(100, 1.2);
        let mut rng = DetRng::seed(1);
        for _ in 0..50_000 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn matches_exact_pmf() {
        // The hot-set workloads' skew, against its exact PMF.
        let (n, s) = (50usize, 1.2);
        let zipf = ZipfSampler::new(n as u64, s);
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut rng = DetRng::seed(7);
        let trials = 200_000;
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for k in 1..=8usize {
            let expect = (k as f64).powf(-s) / norm;
            let got = counts[k - 1] as f64 / trials as f64;
            assert!((got - expect).abs() < 0.01, "rank {k}: {got} vs {expect}");
        }
    }

    #[test]
    fn uniform_when_s_is_zero() {
        // The envelope is tight at s = 0: every proposal is accepted, so
        // each sample spends exactly one draw.
        let zipf = ZipfSampler::new(10, 0.0);
        assert!(spends(
            DetRng::seed(3),
            |r| {
                zipf.sample(r);
            },
            1
        ));
        let mut rng = DetRng::seed(3);
        let trials = 100_000;
        let mut counts = [0u32; 10];
        for _ in 0..trials {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 0.1).abs() < 0.01, "not uniform: {f}");
        }
    }

    #[test]
    fn single_element_always_one() {
        // One item: every draw answers its only rank, 0.
        let zipf = ZipfSampler::new(1, 0.99);
        let mut rng = DetRng::seed(5);
        for _ in 0..1000 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }
}
