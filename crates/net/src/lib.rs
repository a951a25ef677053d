#![warn(missing_docs)]
//! Network substrate for KV-Direct (paper §4 "Vector Operation Decoder",
//! §5.1.5, Figure 15, Table 2).
//!
//! Compared with PCIe, the network is the scarcer resource: 40 GbE is
//! 5 GB/s with ~2 µs latency, and an RDMA write packet over Ethernet
//! carries 88 bytes of header and padding versus a PCIe TLP's 26. KV-Direct
//! therefore batches on the client side in two ways:
//!
//! * **packing multiple KV operations in one packet**, with two flag bits
//!   per operation that elide repeated key/value sizes and repeated values
//!   (many workloads issue same-shaped KVs);
//! * **vector operations** — `update`, `reduce`, `filter` with
//!   pre-registered λ functions — which move one scalar instead of a
//!   whole vector or one operation per element.
//!
//! [`config`] holds the 40 GbE link's figures as constants;
//! [`wire`] implements the exact byte format with an encoder/decoder pair
//! (the KV processor's decoder unpacks multiple KV operations from a
//! single RDMA packet); [`link`] models the 40 GbE port;
//! [`batch`] computes the Figure 15 throughput/latency trade-off; and
//! [`vector`] the Table 2 strategy comparison. Above the single host,
//! [`ring`] places keys on cluster nodes by consistent hashing and
//! [`rep`] defines the chain-replication frames members exchange.

pub mod batch;
pub mod config;
pub mod link;
pub mod rep;
pub mod ring;
pub mod route;
pub mod vector;
pub mod wire;

pub use batch::{batched_throughput, batching_latency, BatchPoint};
pub use link::NetLink;
pub use rep::RepFrame;
pub use ring::HashRing;
pub use route::shard_of;
pub use vector::{vector_strategies, VectorStrategy, VectorThroughput};
pub use wire::{
    decode_packet_ref, decode_responses, encode_packet, encode_responses, KvRequest, KvRequestRef,
    KvResponse, OpCode, Status, WireError,
};

#[cfg(test)]
mod tests {
    use crate::wire::{next_chunk, WireError};

    #[test]
    fn roundtrip() {
        // The codecs' little-endian reader, over what `to_le_bytes` wrote.
        let mut wire = 0xBEEFu16.to_le_bytes().to_vec();
        wire.push(7);
        wire.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        wire.extend_from_slice(b"abc");
        let mut cursor: &[u8] = &wire;
        assert_eq!(u16::from_le_bytes(next_chunk(&mut cursor).unwrap()), 0xBEEF);
        assert_eq!(next_chunk(&mut cursor), Ok([7]));
        assert_eq!(
            u64::from_le_bytes(next_chunk(&mut cursor).unwrap()),
            0x0123_4567_89AB_CDEF
        );
        assert_eq!(
            next_chunk::<4>(&mut cursor),
            Err(WireError::Truncated),
            "a short read fails"
        );
        assert_eq!(cursor, b"abc", "and leaves the cursor where it was");
    }
}
