//! Vector operation strategy comparison (paper §5.1.6, Table 2).
//!
//! Table 2 compares atomic vector increment throughput across four
//! strategies. Only KV-Direct's vector update keeps the whole vector on
//! the server and ships one scalar, so it is bounded by PCIe (reading and
//! writing the vector once); the alternatives ship the vector — or one
//! operation per element — over the much slower network, and additionally
//! give up consistency within the vector.

use kvd_pcie::config::TWO_ENDPOINT_GBYTES_PER_SEC;
use kvd_sim::Bandwidth;

use crate::config::{wire_bytes, GBITS_PER_SEC};

/// The four strategies of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorStrategy {
    /// KV-Direct `update_scalar2vector`, returning the original vector.
    UpdateWithReturn,
    /// KV-Direct update without returning the vector.
    UpdateNoReturn,
    /// Each element stored and updated as its own KV pair.
    OneKeyPerElement,
    /// Client fetches the vector, updates locally, writes it back.
    FetchToClient,
}

impl VectorStrategy {
    /// All strategies, in Table 2's row order.
    pub fn all() -> [VectorStrategy; 4] {
        [
            VectorStrategy::UpdateWithReturn,
            VectorStrategy::UpdateNoReturn,
            VectorStrategy::OneKeyPerElement,
            VectorStrategy::FetchToClient,
        ]
    }

    /// Row label as in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            VectorStrategy::UpdateWithReturn => "Vector update with return",
            VectorStrategy::UpdateNoReturn => "Vector update without return",
            VectorStrategy::OneKeyPerElement => "One key per element",
            VectorStrategy::FetchToClient => "Fetch to client",
        }
    }
}

/// Throughput of one strategy at one vector size, in vector-data bytes
/// per second (the paper reports GB/s).
#[derive(Debug, Clone, Copy)]
pub struct VectorThroughput {
    /// The strategy.
    pub strategy: VectorStrategy,
    /// Vector size in bytes.
    pub vector_bytes: u64,
    /// Vector data processed per second (bytes).
    pub bytes_per_sec: f64,
}

impl VectorThroughput {
    /// GB/s, the paper's unit.
    pub fn gbps(&self) -> f64 {
        self.bytes_per_sec / 1e9
    }
}

/// Request bytes for a scalar-update of a vector: key + scalar + framing.
const UPDATE_REQUEST_BYTES: u64 = 8 + 8 + 8;
/// Per-element KV op bytes (8 B key + 8 B value + framing, batched).
const PER_ELEMENT_OP_BYTES: u64 = 8 + 8 + 4;
/// Element width in bytes.
const ELEM: u64 = 8;

/// Computes Table 2: throughput of every strategy at `vector_bytes`.
///
/// The server side is bounded by the aggregate host-memory bandwidth of
/// the NIC's two PCIe endpoints, [`TWO_ENDPOINT_GBYTES_PER_SEC`].
pub fn vector_strategies(vector_bytes: u64) -> Vec<VectorThroughput> {
    assert!(vector_bytes >= ELEM);
    let net_bw = Bandwidth::from_gbits_per_sec(GBITS_PER_SEC).bytes_per_sec();
    let pcie_bw = Bandwidth::from_gbytes_per_sec(TWO_ENDPOINT_GBYTES_PER_SEC).bytes_per_sec();
    VectorStrategy::all()
        .into_iter()
        .map(|strategy| {
            // For each strategy: bytes moved on each resource per vector
            // updated; throughput = min over resources of bw / bytes.
            let (net_bytes, pcie_bytes) = match strategy {
                VectorStrategy::UpdateWithReturn => {
                    // Request: scalar. Response: the original vector.
                    (
                        wire_bytes(UPDATE_REQUEST_BYTES) + wire_bytes(vector_bytes),
                        2 * vector_bytes, // read + write on the server
                    )
                }
                VectorStrategy::UpdateNoReturn => (
                    wire_bytes(UPDATE_REQUEST_BYTES) + wire_bytes(4),
                    2 * vector_bytes,
                ),
                VectorStrategy::OneKeyPerElement => {
                    let elems = vector_bytes / ELEM;
                    // Batched ops: payload per element + amortized packet
                    // overhead; each element still costs server memory
                    // accesses (read+write of its own KV).
                    let payload = elems * PER_ELEMENT_OP_BYTES;
                    (
                        wire_bytes(payload) + wire_bytes(elems * 4),
                        2 * vector_bytes,
                    )
                }
                VectorStrategy::FetchToClient => (
                    // GET returns the vector; PUT sends it back.
                    wire_bytes(16) + 2 * wire_bytes(vector_bytes) + wire_bytes(4),
                    2 * vector_bytes,
                ),
            };
            let vectors_per_sec = (net_bw / net_bytes as f64).min(pcie_bw / pcie_bytes as f64);
            VectorThroughput {
                strategy,
                vector_bytes,
                bytes_per_sec: vectors_per_sec * vector_bytes as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(size: u64) -> Vec<VectorThroughput> {
        vector_strategies(size)
    }

    fn by(strategies: &[VectorThroughput], s: VectorStrategy) -> f64 {
        strategies
            .iter()
            .find(|t| t.strategy == s)
            .expect("strategy present")
            .gbps()
    }

    #[test]
    fn update_no_return_is_pcie_bound() {
        // 2 bytes of PCIe per vector byte: 13.2/2 = 6.6 GB/s asymptote.
        let r = run(64 * 1024);
        let g = by(&r, VectorStrategy::UpdateNoReturn);
        assert!((g - 6.6).abs() < 0.3, "got {g}");
    }

    #[test]
    fn update_with_return_is_network_bound_for_large_vectors() {
        // The returned vector rides the 5 GB/s network.
        let r = run(64 * 1024);
        let g = by(&r, VectorStrategy::UpdateWithReturn);
        assert!(g > 4.0 && g <= 5.0, "got {g}");
    }

    #[test]
    fn kv_direct_strategies_beat_alternatives() {
        // Table 2's shape: both vector-update rows dominate both
        // alternatives at every size.
        for size in [64, 256, 1024, 4096, 16 * 1024, 64 * 1024] {
            let r = run(size);
            let with = by(&r, VectorStrategy::UpdateWithReturn);
            let without = by(&r, VectorStrategy::UpdateNoReturn);
            let per_elem = by(&r, VectorStrategy::OneKeyPerElement);
            let fetch = by(&r, VectorStrategy::FetchToClient);
            assert!(without >= with - 1e-9, "size {size}");
            assert!(
                with > per_elem,
                "size {size}: {with} vs per-elem {per_elem}"
            );
            assert!(with > fetch, "size {size}: {with} vs fetch {fetch}");
        }
    }

    #[test]
    fn one_key_per_element_bottlenecked_by_headers() {
        // Per-element ops move ~2.5 wire bytes per vector byte.
        let r = run(4096);
        let g = by(&r, VectorStrategy::OneKeyPerElement);
        assert!(g < 2.5, "got {g}");
    }

    #[test]
    fn small_vectors_lose_to_packet_overhead() {
        let small = by(&run(64), VectorStrategy::UpdateWithReturn);
        let large = by(&run(64 * 1024), VectorStrategy::UpdateWithReturn);
        assert!(small < large / 2.0, "small {small} large {large}");
    }
}
