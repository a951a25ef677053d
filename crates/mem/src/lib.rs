#![warn(missing_docs)]
//! Memory subsystem models for the KV-Direct reproduction.
//!
//! KV-Direct stores the key-value corpus in **host memory** (64 GiB in the
//! paper) reached over PCIe, and uses the NIC's small on-board **DRAM**
//! (4 GiB, 12.8 GB/s) neither as pure cache nor as a fixed partition but as
//! a *hybrid*: a cache for a fixed, hash-selected portion of host memory
//! (§3.3.4, Figure 7). This crate provides:
//!
//! * [`HostMemory`] — a sparse, allocate-on-touch byte store (one
//!   anonymous mapping of the whole capacity, the hash index's bucket
//!   array on 2 MiB pages) so paper-scale address spaces work
//!   laptop-scale.
//! * [`NicDram`] — the on-board DRAM: the tags and dirty and valid bits of
//!   a 4-way set-associative 64 B-line cache, kept in the spare ECC bits
//!   (the paper's trick of widening the parity granularity — here 64 to
//!   512 data bits to free 8 bits per 64 B line). That word is its whole
//!   state: the bytes stay in [`HostMemory`], the one copy, and each
//!   access moves them once.
//! * [`LoadDispatcher`] — the hash split between cacheable and
//!   non-cacheable addresses, parameterized by the load dispatch ratio `l`,
//!   plus the paper's balance equation for choosing `l`.
//! * [`FreqSketch`] / [`SpaceSaving`] — the sampled frequency plane behind
//!   the adaptive cache (TinyLFU-style fill admission and online retuning
//!   of `l` from the measured hit rate, [`AdaptiveCacheConfig`]) and the
//!   core's hot-key rollup.
//! * [`MemoryEngine`] / [`AccessStats`] — the unified access interface the
//!   hash table and slab allocator run against, with DMA/DRAM accounting
//!   (the paper's currency: memory accesses per KV operation).
//! * [`FlatMemory`] — a counting-only engine for pure algorithmic
//!   experiments (Figures 6/9/10/11).
//! * [`DispatchedMemory`] — the full host + NIC-DRAM + dispatcher stack
//!   (Figure 14), including a timed replay driver.

pub mod dispatch;
pub mod engine;
pub mod host;
pub mod nicdram;
pub mod replay;
pub mod sketch;

pub use dispatch::{DispatchConfig, LoadDispatcher};
pub use engine::{
    AccessKind, AccessStats, AdaptiveCacheConfig, DispatchedMemory, EccStats, FlatMemory,
    MemoryEngine, Traffic, DEFAULT_BYPASS_THRESHOLD,
};
pub use host::HostMemory;
pub use nicdram::{NicDram, NicDramConfig, Place, Victim, NIC_DRAM_GBYTES_PER_SEC, WAYS};
pub use sketch::{FreqSketch, HeavyHitter, SketchConfig, SpaceSaving};

/// Cache-line granularity used throughout the paper (bytes).
pub const LINE: u64 = 64;
