//! TTL-bearing cache workload (`MemcacheTtl`).
//!
//! Memcache-style deployments are not pure key-value traffic: most
//! stores carry an `exptime`, the TTL distribution is heavy-tailed
//! (session blobs live seconds, rendered fragments minutes, config
//! objects forever), and the live set is therefore a moving window over
//! the key space rather than a fixed population. This preset models
//! that regime over the same Zipf-0.99 popularity the YCSB presets use:
//! a GET/PUT mix where a configurable fraction of the PUTs stamp an
//! expiry tick drawn log-uniformly from `[min_ttl_ticks, max_ttl_ticks]`
//! and the rest store immortal values.
//!
//! Stamps are **absolute** ticks (the slot layout's encoding), so the
//! generator must be told the current tick as it emits: drive
//! [`MemcacheTtlWorkload::batch`] with the simulated clock you advance
//! between batches.

use kvd_net::KvRequest;
use kvd_sim::{DetRng, ZipfSampler};

/// Parameters of the [`MemcacheTtlWorkload`] mix.
#[derive(Debug, Clone, Copy)]
pub struct MemcacheTtl {
    /// Fraction of operations that are PUTs (the rest are GETs).
    pub update_ratio: f64,
    /// Fraction of PUTs that carry a TTL stamp (the rest are immortal).
    pub ttl_ratio: f64,
    /// Shortest TTL a stamped PUT can draw, in expiry ticks (ms).
    pub min_ttl_ticks: u32,
    /// Longest TTL a stamped PUT can draw, in expiry ticks (ms).
    pub max_ttl_ticks: u32,
}

impl MemcacheTtl {
    /// The paper-adjacent default: a cache-update mix (30% PUTs) where
    /// three quarters of the stores expire, with TTLs spread
    /// log-uniformly from 10 ms to 10 s of simulated time.
    pub fn paper() -> MemcacheTtl {
        MemcacheTtl {
            update_ratio: 0.3,
            ttl_ratio: 0.75,
            min_ttl_ticks: 10,
            max_ttl_ticks: 10_000,
        }
    }
}

/// A TTL-bearing request generator over Zipf-popular keys.
///
/// # Examples
///
/// ```
/// use kvd_workloads::ttl::{MemcacheTtl, MemcacheTtlWorkload};
///
/// let mut w = MemcacheTtlWorkload::new(MemcacheTtl::paper(), 10_000, 64, 7);
/// let batch = w.batch(100, 5_000); // current tick = 5s
/// assert_eq!(batch.len(), 100);
/// ```
pub struct MemcacheTtlWorkload {
    cfg: MemcacheTtl,
    rng: DetRng,
    zipf: ZipfSampler,
    population: u64,
    value_len: usize,
}

impl MemcacheTtlWorkload {
    /// Creates a generator over `population` keys with `value_len`-byte
    /// values, deterministic per `seed`.
    pub fn new(cfg: MemcacheTtl, population: u64, value_len: usize, seed: u64) -> Self {
        assert!(population > 0);
        assert!(
            cfg.min_ttl_ticks >= 1 && cfg.min_ttl_ticks <= cfg.max_ttl_ticks,
            "need 1 <= min_ttl_ticks <= max_ttl_ticks"
        );
        MemcacheTtlWorkload {
            cfg,
            rng: DetRng::seed(seed),
            zipf: ZipfSampler::new(population, 0.99),
            population,
            value_len,
        }
    }

    fn key(&mut self) -> [u8; 8] {
        let rank = self.zipf.sample(&mut self.rng);
        let id = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.population;
        id.to_le_bytes()
    }

    /// Draws a TTL in ticks, log-uniform over the configured span.
    fn ttl_ticks(&mut self) -> u32 {
        let lo = (self.cfg.min_ttl_ticks as f64).ln();
        let hi = (self.cfg.max_ttl_ticks as f64).ln();
        let t = (lo + self.rng.f64() * (hi - lo)).exp();
        (t as u32).clamp(self.cfg.min_ttl_ticks, self.cfg.max_ttl_ticks)
    }

    /// Generates the next request; PUT stamps are absolute, computed
    /// against `now_tick`.
    pub fn next_request(&mut self, now_tick: u32) -> KvRequest {
        let key = self.key();
        if !self.rng.chance(self.cfg.update_ratio) {
            return KvRequest::get(&key);
        }
        let mut value = vec![0u8; self.value_len];
        self.rng.fill_bytes(&mut value);
        if self.rng.chance(self.cfg.ttl_ratio) {
            let expiry = now_tick.saturating_add(self.ttl_ticks()).max(1);
            KvRequest::put(&key, &value).with_ttl(expiry)
        } else {
            KvRequest::put(&key, &value)
        }
    }

    /// Generates a batch at one instant.
    pub fn batch(&mut self, n: usize, now_tick: u32) -> Vec<KvRequest> {
        (0..n).map(|_| self.next_request(now_tick)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_net::OpCode;

    #[test]
    fn mix_and_stamp_ratios_hold() {
        let mut w = MemcacheTtlWorkload::new(MemcacheTtl::paper(), 10_000, 16, 1);
        let n = 20_000;
        let batch = w.batch(n, 1_000);
        let puts: Vec<_> = batch.iter().filter(|r| r.op == OpCode::Put).collect();
        let stamped = puts.iter().filter(|r| r.expiry_tick != 0).count();
        assert!(
            (puts.len() as f64 / n as f64 - 0.3).abs() < 0.02,
            "{} puts",
            puts.len()
        );
        assert!(
            (stamped as f64 / puts.len() as f64 - 0.75).abs() < 0.03,
            "{stamped}/{} stamped",
            puts.len()
        );
    }

    #[test]
    fn stamps_are_absolute_and_within_span() {
        let cfg = MemcacheTtl::paper();
        let mut w = MemcacheTtlWorkload::new(cfg, 1_000, 16, 2);
        let now = 50_000;
        for r in w.batch(5_000, now) {
            if r.expiry_tick != 0 {
                assert!(r.expiry_tick > now, "stamp {} not in future", r.expiry_tick);
                assert!(r.expiry_tick <= now + cfg.max_ttl_ticks);
            }
        }
    }

    #[test]
    fn ttls_are_spread_not_clustered() {
        // Log-uniform: both decades of the default span must be drawn.
        let mut w = MemcacheTtlWorkload::new(MemcacheTtl::paper(), 1_000, 16, 3);
        let ttls: Vec<u32> = w
            .batch(20_000, 0)
            .iter()
            .filter(|r| r.expiry_tick != 0)
            .map(|r| r.expiry_tick)
            .collect();
        assert!(ttls.iter().any(|&t| t < 100), "no short TTLs drawn");
        assert!(ttls.iter().any(|&t| t > 5_000), "no long TTLs drawn");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = MemcacheTtlWorkload::new(MemcacheTtl::paper(), 1_000, 8, 9);
        let mut b = MemcacheTtlWorkload::new(MemcacheTtl::paper(), 1_000, 8, 9);
        assert_eq!(a.batch(500, 42), b.batch(500, 42));
    }
}
