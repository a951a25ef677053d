#![warn(missing_docs)]
//! Slab memory allocator for KV-Direct (paper §3.3.2, §4, Figure 8).
//!
//! Chained hash buckets and non-inline KVs live in dynamically allocated
//! host memory. KV-Direct uses a slab allocator split across the PCIe
//! boundary:
//!
//! * **NIC side** — per-size free-slab caches organized as double-ended
//!   stacks. The allocator/deallocator pops/pushes the left end; the right
//!   end synchronizes with the host-side stack in batches over DMA when
//!   high/low watermarks trip, so the amortized DMA cost is well below 0.1
//!   operations per allocation (paper: "less than 0.07").
//! * **Host side** — the authoritative free pools plus a *host daemon*
//!   that splits larger slabs when a pool runs low and lazily merges
//!   buddies (via the global allocation bitmap or radix sort) when free
//!   slabs pile up — the paper's garbage-collection-inspired lazy merging.
//!
//! Slab sizes are powers of two from 32 B. The paper lists 32…512 B; this
//! implementation extends the ladder to 64 KiB so the paper's own vector
//! values (Table 2 goes to multi-KiB vectors) are storable; the hash-slot
//! type field is widened from 3 to 4 bits accordingly (documented in
//! DESIGN.md).

pub mod bitmap;
pub mod class;
pub mod merge;
pub mod slab;

pub use bitmap::AllocBitmap;
pub use class::{SlabClass, GRANULE, MAX_CLASSES};
pub use merge::{merge_bitmap, merge_radix, MergeOutcome};
pub use slab::{SlabAddr, SlabAllocator, SlabConfig};
