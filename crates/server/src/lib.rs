#![warn(missing_docs)]
//! Memcache text-protocol serving front-end for the KV-Direct data
//! plane.
//!
//! The paper's KVS is driven through a custom RDMA wire format; nothing
//! standard can talk to it. This crate puts the simulator behind the
//! stock memcached *text* protocol — the same move LaKe makes to keep
//! accelerated KV stores client-compatible — so off-the-shelf clients
//! (and the bundled open-loop load generator) exercise the real code
//! path: TCP bytes → incremental frame reassembly ([`proto`]) →
//! per-shard bundles executed in place by the connection's own thread
//! under the shard's lock ([`server`]) → the execution core of
//! [`kvd_core::KvDirectStore`] (`run`), reading each bundle in place.
//! Everything between the socket's bytes and the reply bytes is one
//! socket-free session per connection; a thin driver owns the socket.
//!
//! * [`proto`] — the wire grammar: borrowed zero-copy decode, response
//!   encoding, error taxonomy (`ERROR` / `CLIENT_ERROR` /
//!   `SERVER_ERROR`).
//! * [`server`] — acceptor, per-connection sessions and socket drivers,
//!   mutex-guarded shard stores; protocol traffic lands in the op-cost
//!   ledger's `server` section, readable while serving.
//! * [`loadgen`] — the self-driving open-loop load client
//!   ([`ChaosSchedule`](kvd_sim::ChaosSchedule) arrivals, goodput
//!   accounting against per-op deadlines).

pub mod loadgen;
pub mod proto;
pub mod server;

pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use proto::{parse, Command, KeyList, Parsed, ProtoError, StoreVerb};
pub use server::{serve, ServerConfig, ServerHandle};
