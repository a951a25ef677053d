//! Network batching efficiency (paper §5.1.5, Figure 15).
//!
//! Figure 15 sweeps the batched KV size and shows that packing operations
//! into packets raises throughput by up to 4× while adding less than 1 µs
//! of latency. The model here reproduces both panels from the wire-format
//! arithmetic plus the link model.

use kvd_sim::{Bandwidth, SimTime};

use crate::config::{wire_bytes, GBITS_PER_SEC, RTT};
use crate::wire::{encode_packet, KvRequest};

/// One point of the Figure 15 sweep.
#[derive(Debug, Clone, Copy)]
pub struct BatchPoint {
    /// KV size (key + value) of the batched operations.
    pub kv_size: u64,
    /// Sustained operations per second.
    pub ops_per_sec: f64,
    /// Mean client-observed latency.
    pub latency: SimTime,
}

impl BatchPoint {
    /// Throughput in Mops.
    pub fn mops(&self) -> f64 {
        self.ops_per_sec / 1e6
    }
}

/// Builds a representative batch of `batch` PUTs of `kv_size` bytes and
/// measures its encoded payload (compression included).
fn batch_payload_bytes(kv_size: u64, batch: u64) -> u64 {
    assert!(kv_size >= 9, "need at least an 8-byte key and 1-byte value");
    let key_len = 8usize;
    let val_len = kv_size as usize - key_len;
    let ops: Vec<KvRequest> = (0..batch)
        .map(|i| KvRequest::put(&i.to_le_bytes(), &vec![i as u8; val_len]))
        .collect();
    encode_packet(&ops).len() as u64
}

/// Throughput of `kv_size`-byte operations at batch factor `batch`
/// (Figure 15a).
pub fn batched_throughput(kv_size: u64, batch: u64) -> BatchPoint {
    let payload = batch_payload_bytes(kv_size, batch);
    let wire = wire_bytes(payload);
    let packets_per_sec =
        Bandwidth::from_gbits_per_sec(GBITS_PER_SEC).bytes_per_sec() / wire as f64;
    BatchPoint {
        kv_size,
        ops_per_sec: packets_per_sec * batch as f64,
        latency: batching_latency(kv_size, batch),
    }
}

/// Client-observed round-trip latency at batch factor `batch`
/// (Figure 15b): batch assembly wait + serialization + propagation, both
/// ways.
pub fn batching_latency(kv_size: u64, batch: u64) -> SimTime {
    let payload = batch_payload_bytes(kv_size, batch);
    let wire = wire_bytes(payload);
    let serialize = Bandwidth::from_gbits_per_sec(GBITS_PER_SEC).transfer_time(wire);
    // A batch assembles while the previous packet serializes, so the mean
    // extra wait is half a serialization window.
    let assembly = serialize / 2;
    // Request path + response path (responses are comparable in size for
    // GET-heavy mixes; symmetric model). `RTT` covers both directions.
    assembly + serialize * 2 + RTT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure15a_batching_gains_up_to_4x() {
        let un = batched_throughput(16, 1);
        let b = batched_throughput(16, 64);
        let gain = b.ops_per_sec / un.ops_per_sec;
        assert!(gain > 3.0 && gain < 6.5, "gain {gain}");
    }

    #[test]
    fn figure15b_batching_adds_under_a_microsecond() {
        let un = batching_latency(64, 1);
        let b = batching_latency(64, 16);
        assert!(b > un);
        assert!((b - un) < SimTime::from_us(1), "batching added {}", b - un);
        // Paper Figure 15b: networking latency stays below 3.5us.
        assert!(b < SimTime::from_ns(3500), "latency {b}");
    }

    #[test]
    fn throughput_grows_then_saturates_with_kv_size_fixed() {
        // More batching always helps but with diminishing returns.
        let mut prev = 0.0;
        for batch in [1, 2, 4, 8, 16, 32, 64] {
            let p = batched_throughput(32, batch);
            assert!(p.ops_per_sec >= prev, "batch {batch} regressed");
            prev = p.ops_per_sec;
        }
        let small = batched_throughput(32, 32).ops_per_sec;
        let big = batched_throughput(32, 64).ops_per_sec;
        assert!(big / small < 1.15, "returns should diminish");
    }

    #[test]
    fn large_kvs_bound_by_bandwidth_not_headers() {
        let p = batched_throughput(1024, 4);
        let data_rate = p.ops_per_sec * 1024.0;
        assert!(data_rate > 0.85 * GBITS_PER_SEC * 1e9 / 8.0);
    }
}
