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
pub use stats::{Counter, Histogram, Summary};
pub use time::{Bandwidth, Freq, SimTime};
