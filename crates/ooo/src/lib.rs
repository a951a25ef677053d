#![warn(missing_docs)]
//! Out-of-order execution engine for KV-Direct (paper §3.3.3, Figure 13).
//!
//! Dependent KV operations (same key, or conservatively same key-hash)
//! must not race through the main processing pipeline: a GET after a PUT
//! must see the new value. A naive pipeline stalls on such hazards, which
//! caps single-key atomics at roughly one operation per memory round trip
//! (~0.94 Mops measured in the paper). KV-Direct instead borrows dynamic
//! scheduling from computer architecture:
//!
//! * A **reservation station** of 1024 hash slots in on-chip BRAM tracks
//!   all in-flight operations. Operations with the same key hash are
//!   chained and examined sequentially — false-positive dependencies are
//!   possible but dependencies are never missed.
//! * The station **caches the latest value** of each tracked key for data
//!   forwarding: when an operation completes, pending operations with a
//!   matching key execute immediately — one per clock cycle — in a
//!   dedicated execution engine, and the result returns to the client
//!   without touching memory again.
//! * If the cached value was updated, a single **write-back PUT** is
//!   issued to the main pipeline after the dependency chain drains.
//!
//! This raises single-key atomics to the 180 Mops clock bound — a 191×
//! improvement — and removes head-of-line blocking for popular keys.
//!
//! [`station`] is the functional engine `kvd-core` drives for every
//! operation. Figure 13's comparison is a timed-engine run
//! (`kvd_core::system::SystemSim`) with and without it:
//! [`StationConfig::forwarding`] off is the paper's stalling pipeline.

pub mod station;

pub use station::{
    Admission, Completion, KvOpKind, OpRef, OpResult, Probe, Reissue, ReservationStation,
    StationConfig, StationOp, UpdateFn, Writeback, WritebackRef,
};
