//! RDMA-based KVS throughput models (paper §2.2, §5.1.3, Figure 13a).
//!
//! * **One-sided RDMA** (FaRM/Pilaf style): clients run the KV logic and
//!   the server NIC only moves memory. Atomics serialize *per key* inside
//!   the NIC — the paper cites 2.24 Mops single-key fetch-and-add, and
//!   notes commutativity-based spreading does not help non-commutative
//!   atomics such as compare-and-swap.
//! * **Two-sided RDMA** (HERD style): the server CPU executes operations;
//!   single-key atomics cannot scale beyond one core (the paper cites
//!   MICA's same limitation).
//!
//! Both models grow linearly with the number of independent keys until
//! the NIC message rate (one-sided) or the CPU cores × per-core rate
//! (two-sided) saturate — the linear ramps of Figure 13a.

/// A simple per-key-serialized throughput model.
#[derive(Debug, Clone, Copy)]
pub struct RdmaModel {
    /// Throughput of dependent operations on one key (Mops).
    pub per_key_mops: f64,
    /// Aggregate ceiling across independent keys (Mops).
    pub max_mops: f64,
}

impl RdmaModel {
    /// Throughput of an atomics workload spread over `keys` equally
    /// popular keys.
    pub fn atomics_mops(&self, keys: u64) -> f64 {
        (self.per_key_mops * keys as f64).min(self.max_mops)
    }
}

/// One-sided RDMA (client-side KV processing).
#[derive(Debug, Clone, Copy)]
pub struct OneSidedRdma;

impl OneSidedRdma {
    /// The paper's cited numbers: 2.24 Mops single-key atomics, message
    /// rates up to ~115 Mops for independent operations.
    pub fn model() -> RdmaModel {
        RdmaModel {
            per_key_mops: 2.24,
            max_mops: 115.0,
        }
    }
}

/// Two-sided RDMA (server-CPU KV processing).
#[derive(Debug, Clone, Copy)]
pub struct TwoSidedRdma;

impl TwoSidedRdma {
    /// Per-core KV throughput with batched memory access (paper §2.2:
    /// 7.9 Mops with batching, 5.5 Mops without).
    pub fn per_core_mops() -> f64 {
        7.9
    }

    /// The throughput model for atomics: one core owns a key.
    pub fn model(cores: u32) -> RdmaModel {
        RdmaModel {
            // A single core executing dependent read-modify-writes,
            // bounded by its random-access pipeline.
            per_key_mops: 2.0,
            max_mops: TwoSidedRdma::per_core_mops() * cores as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_key_atomics_match_cited_numbers() {
        assert!((OneSidedRdma::model().atomics_mops(1) - 2.24).abs() < 1e-9);
        let two = TwoSidedRdma::model(16).atomics_mops(1);
        assert!(two < 3.0, "server CPU serializes same-key atomics");
    }

    #[test]
    fn linear_growth_then_saturation() {
        let m = OneSidedRdma::model();
        assert!((m.atomics_mops(10) - 22.4).abs() < 1e-9);
        assert_eq!(m.atomics_mops(100), 115.0, "saturates at message rate");
        let t = TwoSidedRdma::model(16);
        assert_eq!(t.atomics_mops(4), 8.0);
        assert!((t.atomics_mops(1000) - 126.4).abs() < 0.1);
    }

    #[test]
    fn ooo_engine_dwarfs_rdma_atomics() {
        // Paper: KV-Direct single-key atomics reach 180 Mops vs 2.24.
        let kv_direct = 180.0;
        assert!(kv_direct / OneSidedRdma::model().atomics_mops(1) > 50.0);
    }
}
