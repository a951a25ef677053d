#![warn(missing_docs)]
//! Baseline comparators for the KV-Direct evaluation.
//!
//! The paper compares its hash index against the two dominant
//! alternatives (§5.1.1, Figure 11) and the out-of-order engine against
//! RDMA-based designs (§5.1.3, Figure 13):
//!
//! * [`cuckoo`] — MemC3-style bucketized cuckoo hashing (two candidate
//!   buckets, four ways, kick chains on insertion).
//! * [`hopscotch`] — FaRM-style chain-associative hopscotch hashing
//!   (neighbourhood displacement, overflow chaining).
//! * [`rdma`] — throughput models for one-sided and two-sided RDMA KVS
//!   (client-side vs server-CPU-side KV processing).
//! * [`cpu`] — the CPU-based KVS arithmetic of §2.2 (instruction window
//!   vs memory-access interleaving, with and without batching).
//!
//! The hash tables are real, functional stores; per Figure 11's
//! methodology, keys are held inline in buckets and compared in parallel
//! while values live in dynamically allocated slabs, and every random
//! access (bucket line or slab) counts as one memory access.

pub mod cpu;
pub mod cuckoo;
pub mod hopscotch;
pub mod measure;
pub mod rdma;

pub use cpu::CpuKvsModel;
pub use cuckoo::CuckooTable;
pub use hopscotch::HopscotchTable;
pub use measure::measure_baseline;
pub use rdma::{OneSidedRdma, RdmaModel, TwoSidedRdma};

/// Shared access accounting for baseline tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Random memory reads (bucket lines and slabs).
    pub reads: u64,
    /// Random memory writes.
    pub writes: u64,
}

impl BaselineStats {
    /// Total random memory accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Error returned when a baseline table cannot accept an insertion
/// (index full after displacement attempts, or slab region exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline table full")
    }
}

impl std::error::Error for TableFull {}

/// Slab bytes consumed by a value allocation of `len` bytes, using the
/// same power-of-two ladder (32 B granule) as KV-Direct's allocator so
/// utilization numbers are comparable.
pub fn slab_size_for(len: usize) -> usize {
    let granules = len.div_ceil(32).max(1);
    granules.next_power_of_two() * 32
}
