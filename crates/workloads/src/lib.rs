#![warn(missing_docs)]
//! Workload generators for the KV-Direct evaluation (paper §5).
//!
//! The paper benchmarks with YCSB-style workloads: random KV pairs of a
//! given size, GET/PUT mixes, and two key-popularity distributions —
//! uniform and "long-tail" (Zipf, skewness 0.99). KV sizes follow §5.2.1:
//! inline cases use multiples of the 5-byte slot size (up to 10 slots);
//! non-inline cases use powers of two minus 2 bytes of metadata.
//!
//! [`PresetWorkload`] maps the YCSB core workloads onto request streams;
//! [`MemcacheWorkload`] and [`MemcacheTtlWorkload`] drive the serving
//! front-end; [`ZipfHotWorkload`] is the adversarial hot-set-shift stream.
//! The Figure 16/17 harnesses generate their YCSB mixes in `kvd-bench`.

pub mod memcache;
pub mod presets;
pub mod sizes;
pub mod ttl;
pub mod zipfhot;

pub use memcache::{memcache_key, MemOp, MemcacheWorkload};
pub use presets::{PresetWorkload, YcsbPreset};
pub use sizes::{inline_kv_sizes, noninline_kv_sizes, paper_kv_sizes};
pub use ttl::{MemcacheTtl, MemcacheTtlWorkload};
pub use zipfhot::{ZipfHotSpec, ZipfHotWorkload};
