#![warn(missing_docs)]
//! The KV-Direct hash index (paper §3.3.1, Figure 5).
//!
//! KV storage is split into a fixed-size **hash index** — an array of 64 B
//! buckets — and a dynamically allocated region managed by the slab
//! allocator. Each bucket holds 10 hash slots of 5 bytes (31-bit pointer
//! into the dynamic region + 9-bit secondary hash), per-slot slab type
//! fields, bitmaps marking the beginning and extent of *inline* KV pairs,
//! and a chain pointer for collision overflow.
//!
//! Design points reproduced exactly:
//!
//! * **64 B buckets** — matching the PCIe DMA sweet spot of Figure 3a.
//! * **Inline KVs** — pairs up to the configured inline threshold are
//!   stored in the bucket itself, re-purposing slot bytes, so a GET costs
//!   one memory access and a PUT two.
//! * **Secondary hash** — 9 bits per pointer slot give a 1/512 false
//!   positive rate; the full key is always verified in the slab data.
//! * **Chaining** — collision resolution that balances GET and PUT and is
//!   robust to clustering (the paper's argument against cuckoo/hopscotch
//!   for write-intensive workloads); chained buckets are 64 B slabs.
//! * **Tunables** — the *hash index ratio* (fraction of memory given to
//!   the index) and *inline threshold* are initialization-time parameters;
//!   [`tuning`] reproduces the optimization procedure of Figures 6/9/10.
//!
//! The type field is 4 bits wide rather than the paper's 3 to address the
//! extended slab ladder (see `kvd-slab` docs and DESIGN.md).

pub mod hashing;
pub mod layout;
pub mod swar;
pub mod table;
pub mod tuning;

pub use layout::{
    tick_of_us, Bucket, BucketEntry, BUCKET_BYTES, EXPIRY_TICK_US, MAX_INLINE_KV, SLOTS_PER_BUCKET,
};
pub use swar::{RawEntries, RawEntry};
pub use table::{HashError, HashTable, HashTableConfig, OpCost, SweepCost};
pub use tuning::{optimal_config, MeasuredCosts};
