//! CPU-based KVS performance arithmetic (paper §2.2).
//!
//! The paper's motivation quantifies why CPUs bottleneck a modern KVS:
//! a 64-byte random read costs ~110 ns; a core can keep only 3–4 memory
//! accesses in flight (load-store units), while a KV operation needs
//! ~100 ns of computation (~500 instructions) that does not fit the
//! instruction window (measured 100–200). Interleaving computation with
//! memory access yields 5.5 Mops per core; batching memory accesses
//! lifts it to 7.9 Mops — still far from the host DRAM's random 64 B
//! capacity.

/// Microarchitectural constants measured in the paper.
#[derive(Debug, Clone, Copy)]
pub struct CpuKvsModel {
    /// Random 64 B read latency (ns).
    pub mem_latency_ns: f64,
    /// Concurrent memory accesses a core sustains (load-store units).
    pub load_store_units: f64,
    /// Computation per KV operation (ns).
    pub compute_ns: f64,
}

impl CpuKvsModel {
    /// The paper's measured machine (Xeon E5-2650 v2).
    pub fn paper() -> Self {
        CpuKvsModel {
            mem_latency_ns: 110.0,
            load_store_units: 3.5,
            compute_ns: 100.0,
        }
    }

    /// KV ops per second per core with software batching of memory
    /// accesses (paper: 7.9 Mops) — batching hides most of the miss
    /// latency behind computation of neighbouring operations.
    pub fn batched_mops(&self) -> f64 {
        let serial_ns = self.compute_ns + self.mem_latency_ns / self.load_store_units;
        1e3 / serial_ns
    }

    /// Cores needed to match a given throughput — the paper's headline
    /// "equivalent to the throughput of tens of CPU cores".
    pub fn cores_to_match(&self, mops: f64) -> f64 {
        mops / self.batched_mops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_rate_matches_paper() {
        let m = CpuKvsModel::paper();
        let r = m.batched_mops();
        assert!((r - 7.9).abs() < 0.8, "got {r}");
    }

    #[test]
    fn kv_direct_equals_tens_of_cores() {
        // Paper: 180 Mops "equivalent to the throughput of 36 CPU cores".
        let m = CpuKvsModel::paper();
        let cores = m.cores_to_match(180.0);
        assert!((20.0..45.0).contains(&cores), "got {cores}");
    }
}
