#![warn(missing_docs)]
//! # KV-Direct
//!
//! A Rust reproduction of *KV-Direct: High-Performance In-Memory
//! Key-Value Store with Programmable NIC* (Li, Ruan et al., SOSP 2017).
//!
//! KV-Direct offloads key-value processing from the host CPU onto a
//! programmable NIC, extending one-sided RDMA from memory semantics
//! (READ/WRITE) to key-value semantics (GET/PUT/DELETE/atomics) plus
//! vector operations with user-defined functions. The NIC reaches the
//! host key-value storage over PCIe, so the system's novelty is a stack
//! of techniques that squeeze ~one memory access out of each KV
//! operation and hide the PCIe latency:
//!
//! * a hash index with **inline KVs** in 64 B buckets ([`hash`]),
//! * a split NIC/host **slab allocator** with lazy merging ([`slab`]),
//! * an **out-of-order execution engine** with data forwarding ([`ooo`]),
//! * a **load dispatcher** between PCIe and the NIC's on-board DRAM
//!   ([`mem`]),
//! * client-side **network batching** and a vector-operation decoder
//!   ([`net`]).
//!
//! Since the original runs on an FPGA, this crate substitutes
//! cycle-approximate software models for the hardware (PCIe Gen3
//! endpoints, DDR3 NIC DRAM, 40 GbE) while keeping every algorithm
//! functional and testable; see `DESIGN.md` for the substitution map and
//! `EXPERIMENTS.md` for paper-vs-measured numbers of every table and
//! figure.
//!
//! ## Quickstart
//!
//! ```
//! use kv_direct::{builtin, KvDirectConfig, KvDirectStore};
//!
//! let mut store = KvDirectStore::new(KvDirectConfig::with_memory(1 << 20));
//! store.put(b"greeting", b"hello").unwrap();
//! assert_eq!(store.get(b"greeting").unwrap(), b"hello");
//!
//! // Atomics and vector operations execute NIC-side:
//! assert_eq!(store.fetch_add(b"counter", 5).unwrap(), 0);
//! store.put(b"v", &kv_direct::lambda::encode_vector(&[1, 2, 3])).unwrap();
//! assert_eq!(store.vector_reduce(b"v", builtin::SUM, 0).unwrap(), 6);
//! ```

pub use kvd_core::{
    builtin, tick_of_us, AdmissionController, ClusterReport, ClusterSim, ClusterSimConfig,
    HotKeyConfig, KvDirectConfig, KvDirectStore, KvProcessor, Lambda, LambdaRegistry, NodeKill,
    OpRecord, OverloadConfig, ParallelSimConfig, ParallelSimReport, ParallelSystemSim, StoreError,
    Watermarks, EXPIRY_TICK_US,
};
pub use kvd_net::{
    decode_packet_ref, encode_packet, HashRing, KvRequest, KvRequestRef, KvResponse, NetConfig,
    OpCode, Status,
};
pub use kvd_sim::{
    ChaosSchedule, Component, CostSource, FaultPlane, FaultRates, OpClass, OpLedger, Percentile,
    PressureGauge, RunSummary,
};

/// The paper's λ machinery (element codecs, registry).
pub mod lambda {
    pub use kvd_core::lambda::*;
}

/// The hash index (paper §3.3.1).
pub mod hash {
    pub use kvd_hash::*;
}

/// The slab allocator (paper §3.3.2).
pub mod slab {
    pub use kvd_slab::*;
}

/// The out-of-order execution engine (paper §3.3.3).
pub mod ooo {
    pub use kvd_ooo::*;
}

/// Memory models: host memory, NIC DRAM, load dispatcher (paper §3.3.4).
pub mod mem {
    pub use kvd_mem::*;
}

/// PCIe Gen3 DMA models (paper §2.4).
pub mod pcie {
    pub use kvd_pcie::*;
}

/// Network models and wire format (paper §4).
pub mod net {
    pub use kvd_net::*;
}

/// Simulation substrate (virtual time, RNG, statistics).
pub mod sim {
    pub use kvd_sim::*;
}

/// Baseline comparators (MemC3 cuckoo, FaRM hopscotch, RDMA models).
pub mod baselines {
    pub use kvd_baselines::*;
}

/// YCSB-style workload generators.
pub mod workloads {
    pub use kvd_workloads::*;
}

/// The end-to-end timed pipeline (client ↔ NIC ↔ host memory).
pub mod system {
    pub use kvd_core::system::*;
}

/// The parallel sharded multi-NIC engine (paper §5.2, Figure 18).
pub mod parallel {
    pub use kvd_core::parallel::*;
}
