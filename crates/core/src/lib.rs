#![warn(missing_docs)]
//! KV-Direct: the key-value processor and public store API.
//!
//! This crate assembles the paper's system (Figure 4): requests decoded
//! from the network enter the **reservation station** (out-of-order
//! engine); independent operations issue into the main pipeline, which
//! walks the **hash index**, allocates from the **slab allocator**, and
//! reaches host memory through the **load-dispatched memory engine**
//! (PCIe + NIC DRAM). Completions return through the station, which
//! forwards data to dependent operations.
//!
//! * [`lambda`] — the pre-registered λ functions behind `update`,
//!   `reduce` and `filter` (Table 1). In the paper these are compiled to
//!   hardware by an HLS toolchain before use; here they are Rust closures
//!   registered before use — the same contract.
//! * [`processor`] — the KV processor: executes request batches with the
//!   station in the loop.
//! * [`store`] — [`KvDirectStore`], the embedder-facing API.
//! * [`overload`] — the overload-control plane: watermark admission with
//!   hysteresis, deadline expiry and read-only degradation, counted in
//!   the ledger's `core` section.
//! * [`system`] — the timed engine: one NIC's network, decode clock, PCIe
//!   and NIC DRAM in simulated time, behind every throughput and latency
//!   figure.
//! * [`parallel`] — the multi-NIC server *simulated*: one timed pipeline
//!   per shard on OS worker threads, synchronized through a host-memory
//!   arbiter so the Figure 18 saturation knee emerges from contention.
//! * [`cluster`] — the multi-node plane: M member hosts in window
//!   lockstep, chain replication over consistent hashing, heartbeat
//!   failure detection and deterministic failover.
//!
//! Both multi-instance engines run on one window driver: persistent
//! scoped workers step the members window by window, and one boundary
//! hook per window settles what they produced.

pub mod cluster;
pub(crate) mod driver;
pub mod lambda;
pub mod overload;
pub mod parallel;
pub mod processor;
pub mod store;
pub mod system;

pub use cluster::{ClusterReport, ClusterSim, ClusterSimConfig, NodeKill, OpRecord};
pub use kvd_hash::{tick_of_us, EXPIRY_TICK_US};
pub use lambda::{builtin, Lambda, LambdaRegistry};
pub use overload::{AdmissionController, OverloadConfig, Watermarks};
pub use parallel::{ParallelSimConfig, ParallelSimReport, ParallelSystemSim};
pub use processor::{KvProcessor, RequestStream};
pub use store::{KvDirectConfig, KvDirectStore, StoreError};
pub use system::{Percentile, RunSummary, SystemSim, SystemSimConfig, SystemSimReport, WindowStep};
