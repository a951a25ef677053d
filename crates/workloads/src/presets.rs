//! Standard YCSB core workload presets.
//!
//! The paper evaluates with "YCSB workload \[15\]" mixes; these presets
//! map the YCSB core workloads A–F onto KV-Direct request streams so the
//! benchmark harnesses (and downstream users) can name them directly.
//! Workload D's "latest" distribution (reads skewed toward recent
//! inserts) and F's read-modify-write (a single NIC-side atomic in
//! KV-Direct, rather than YCSB's read+write pair) are included.

use kvd_net::{KvRequest, OpCode};
use kvd_sim::{DetRng, ZipfSampler};

/// The YCSB core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbPreset {
    /// A: update heavy — 50% reads, 50% updates, Zipf.
    A,
    /// B: read mostly — 95% reads, 5% updates, Zipf.
    B,
    /// C: read only — 100% reads, Zipf.
    C,
    /// D: read latest — 95% reads skewed to recent inserts, 5% inserts.
    D,
    /// E is a range-scan workload; hash KVS (including the paper's) do
    /// not support scans, so it is intentionally absent.
    /// F: read-modify-write — 50% reads, 50% RMW, Zipf.
    F,
}

impl YcsbPreset {}

/// λ id of F's read-modify-write: `kvd-core`'s builtin ADD (fetch-and-add).
const RMW_LAMBDA: u16 = 1;

/// A preset-driven request generator.
///
/// # Examples
///
/// ```
/// use kvd_workloads::presets::{PresetWorkload, YcsbPreset};
///
/// let mut w = PresetWorkload::new(YcsbPreset::A, 10_000, 100, 7);
/// let batch = w.batch(40);
/// assert_eq!(batch.len(), 40);
/// ```
pub struct PresetWorkload {
    preset: YcsbPreset,
    rng: DetRng,
    zipf: ZipfSampler,
    /// Keys 0..population exist; D appends.
    population: u64,
    value_len: usize,
}

impl PresetWorkload {
    /// Creates a generator over an initial `population` of keys with
    /// `value_len`-byte values.
    pub fn new(preset: YcsbPreset, population: u64, value_len: usize, seed: u64) -> Self {
        assert!(population > 0);
        PresetWorkload {
            preset,
            rng: DetRng::seed(seed),
            zipf: ZipfSampler::new(population, 0.99),
            population,
            value_len,
        }
    }

    fn key(&self, id: u64) -> [u8; 8] {
        id.to_le_bytes()
    }

    fn value(&mut self) -> Vec<u8> {
        let mut v = vec![0u8; self.value_len];
        self.rng.fill_bytes(&mut v);
        v
    }

    /// Preload PUTs covering the initial population.
    pub fn preload(&mut self) -> Vec<KvRequest> {
        (0..self.population)
            .map(|id| {
                let v = self.value();
                KvRequest::put(&self.key(id), &v)
            })
            .collect()
    }

    /// Draws a Zipf-popular key id over the current population.
    fn zipf_key(&mut self) -> u64 {
        let rank = self.zipf.sample(&mut self.rng);
        // Scramble rank → id (stable for a fixed population).
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.population
    }

    /// Draws a "latest"-skewed key id: recency-weighted toward the end
    /// of the id space (YCSB-D semantics).
    fn latest_key(&mut self) -> u64 {
        let back = self.zipf.sample(&mut self.rng).min(self.population - 1);
        self.population - 1 - back
    }

    /// Generates the next request.
    pub fn next_request(&mut self) -> KvRequest {
        match self.preset {
            YcsbPreset::A => self.mix(0.5),
            YcsbPreset::B => self.mix(0.05),
            YcsbPreset::C => {
                let id = self.zipf_key();
                KvRequest::get(&self.key(id))
            }
            YcsbPreset::D => {
                if self.rng.chance(0.05) {
                    // Insert a brand-new key; the distribution follows.
                    let id = self.population;
                    self.population += 1;
                    self.zipf = ZipfSampler::new(self.population, 0.99);
                    let v = self.value();
                    KvRequest::put(&self.key(id), &v)
                } else {
                    let id = self.latest_key();
                    KvRequest::get(&self.key(id))
                }
            }
            YcsbPreset::F => {
                let id = self.zipf_key();
                if self.rng.chance(0.5) {
                    KvRequest::get(&self.key(id))
                } else {
                    // RMW as one NIC-side atomic (the point of Table 1).
                    KvRequest {
                        op: OpCode::UpdateScalar,
                        key: self.key(id).to_vec(),
                        value: 1u64.to_le_bytes().to_vec(),
                        lambda: RMW_LAMBDA,
                        deadline_us: 0,
                        expiry_tick: 0,
                    }
                }
            }
        }
    }

    fn mix(&mut self, update_ratio: f64) -> KvRequest {
        let id = self.zipf_key();
        if self.rng.chance(update_ratio) {
            let v = self.value();
            KvRequest::put(&self.key(id), &v)
        } else {
            KvRequest::get(&self.key(id))
        }
    }

    /// Generates a batch.
    pub fn batch(&mut self, n: usize) -> Vec<KvRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_ops(preset: YcsbPreset, n: usize) -> (usize, usize, usize) {
        let mut w = PresetWorkload::new(preset, 10_000, 16, 1);
        let mut gets = 0;
        let mut puts = 0;
        let mut updates = 0;
        for _ in 0..n {
            match w.next_request().op {
                OpCode::Get => gets += 1,
                OpCode::Put => puts += 1,
                OpCode::UpdateScalar => updates += 1,
                _ => unreachable!("presets emit get/put/update only"),
            }
        }
        (gets, puts, updates)
    }

    #[test]
    fn mixes_match_ycsb_specs() {
        let n = 20_000;
        let (g, p, _) = count_ops(YcsbPreset::A, n);
        assert!((g as f64 / n as f64 - 0.5).abs() < 0.02, "A reads {g}");
        assert!(p > 0);
        let (g, _, _) = count_ops(YcsbPreset::B, n);
        assert!((g as f64 / n as f64 - 0.95).abs() < 0.01, "B reads {g}");
        let (g, p, u) = count_ops(YcsbPreset::C, n);
        assert_eq!((g, p, u), (n, 0, 0), "C is read-only");
        let (_, _, u) = count_ops(YcsbPreset::F, n);
        assert!((u as f64 / n as f64 - 0.5).abs() < 0.02, "F RMWs {u}");
    }

    #[test]
    fn d_inserts_grow_population_and_reads_skew_recent() {
        let mut w = PresetWorkload::new(YcsbPreset::D, 1_000, 16, 2);
        let before = w.population;
        let mut recent_reads = 0;
        let n = 10_000;
        for _ in 0..n {
            let r = w.next_request();
            if r.op == OpCode::Get {
                let id = u64::from_le_bytes(r.key.clone().try_into().expect("8B key"));
                // "Recent" = newest 10% of the population at request time.
                if id >= w.population - w.population / 10 {
                    recent_reads += 1;
                }
            }
        }
        assert!(w.population > before, "D must insert");
        // YCSB-D reads concentrate on the latest keys.
        assert!(
            recent_reads as f64 / n as f64 > 0.5,
            "only {recent_reads}/{n} reads hit the newest 10%"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PresetWorkload::new(YcsbPreset::A, 1000, 8, 9);
        let mut b = PresetWorkload::new(YcsbPreset::A, 1000, 8, 9);
        assert_eq!(a.batch(200), b.batch(200));
    }

    #[test]
    fn preload_covers_population() {
        let mut w = PresetWorkload::new(YcsbPreset::B, 500, 8, 3);
        let pre = w.preload();
        assert_eq!(pre.len(), 500);
        assert!(pre
            .iter()
            .all(|r| r.op == OpCode::Put && r.value.len() == 8));
    }
}
