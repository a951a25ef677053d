//! MemC3-style bucketized cuckoo hashing (paper §5.1.1, Figure 11).
//!
//! Two candidate buckets per key (4 ways each, one 64 B cache line per
//! bucket); keys are stored inline in the bucket and compared in parallel,
//! values in slab-allocated memory. Insertions into full buckets displace
//! a victim to its alternate bucket, chaining kicks until a slot frees up.
//!
//! Expected behaviour reproduced from the paper: a GET costs up to two
//! bucket reads plus the value read (more than KV-Direct's single access
//! for inline KVs); PUT under high memory utilization suffers "large
//! fluctuations" as kick chains grow.

use crate::{slab_size_for, BaselineStats, TableFull};

const WAYS: usize = 4;
const BUCKET_BYTES: u64 = 64;
const MAX_KICKS: usize = 512;

#[derive(Debug, Clone)]
struct Entry {
    key: Vec<u8>,
    value: Vec<u8>,
}

/// A bucketized cuckoo hash table with access accounting.
///
/// # Examples
///
/// ```
/// use kvd_baselines::CuckooTable;
///
/// let mut t = CuckooTable::new(1 << 20, 0.5);
/// t.put(b"k", b"v").unwrap();
/// assert_eq!(t.get(b"k").unwrap(), b"v");
/// ```
pub struct CuckooTable {
    buckets: Vec<[Option<Entry>; WAYS]>,
    n_buckets: u64,
    total_memory: u64,
    stored_bytes: u64,
    slab_bytes: u64,
    slab_capacity: u64,
    stats: BaselineStats,
}

impl CuckooTable {
    /// Creates a table over `total_memory` bytes, giving `index_ratio` of
    /// it to the bucket array (the rest backs value slabs).
    pub fn new(total_memory: u64, index_ratio: f64) -> Self {
        assert!((0.0..1.0).contains(&index_ratio));
        let index_bytes = (total_memory as f64 * index_ratio) as u64;
        let n_buckets = (index_bytes / BUCKET_BYTES).max(2);
        CuckooTable {
            buckets: vec![[const { None }; WAYS]; n_buckets as usize],
            n_buckets,
            total_memory,
            stored_bytes: 0,
            slab_bytes: 0,
            slab_capacity: total_memory - n_buckets * BUCKET_BYTES,
            stats: BaselineStats::default(),
        }
    }

    fn hashes(&self, key: &[u8]) -> (u64, u64) {
        let h1 = hash(key, 0x9E37_79B9) % self.n_buckets;
        // MemC3's partial-key alternate bucket: derived from h1 and a tag.
        let tag = hash(key, 0x85EB_CA6B);
        let h2 = (h1 ^ (tag % self.n_buckets).max(1)) % self.n_buckets;
        (h1, h2)
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> BaselineStats {
        self.stats
    }

    /// Memory utilization: stored KV bytes over total memory (the paper's
    /// metric).
    pub fn memory_utilization(&self) -> f64 {
        self.stored_bytes as f64 / self.total_memory as f64
    }

    /// Looks up `key`, counting bucket and slab accesses.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let (b1, b2) = self.hashes(key);
        self.stats.reads += 1; // bucket 1 line
        if let Some(v) = find(&self.buckets[b1 as usize], key) {
            self.stats.reads += 1; // value slab
            return Some(v);
        }
        self.stats.reads += 1; // bucket 2 line
        if let Some(v) = find(&self.buckets[b2 as usize], key) {
            self.stats.reads += 1; // value slab
            return Some(v);
        }
        None
    }

    /// Inserts or replaces; `Err(())` when the table is full (kick chain
    /// exhausted or slab region full).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), TableFull> {
        let (b1, b2) = self.hashes(key);
        // Check both buckets for an existing key (2 reads).
        self.stats.reads += 2;
        for b in [b1, b2] {
            if let Some(slot) = position(&self.buckets[b as usize], key) {
                let e = self.buckets[b as usize][slot].as_mut().expect("found");
                let old_slab = slab_size_for(e.value.len()) as u64;
                let new_slab = slab_size_for(value.len()) as u64;
                if self.slab_bytes - old_slab + new_slab > self.slab_capacity {
                    return Err(TableFull);
                }
                self.stored_bytes -= (e.key.len() + e.value.len()) as u64;
                self.slab_bytes = self.slab_bytes - old_slab + new_slab;
                e.value = value.to_vec();
                self.stored_bytes += (key.len() + value.len()) as u64;
                self.stats.writes += 1; // value slab
                return Ok(());
            }
        }
        // New key: slab space first.
        let slab = slab_size_for(value.len()) as u64;
        if self.slab_bytes + slab > self.slab_capacity {
            return Err(TableFull);
        }
        // Try a free way in either bucket.
        for b in [b1, b2] {
            if let Some(slot) = free_way(&self.buckets[b as usize]) {
                self.buckets[b as usize][slot] = Some(Entry {
                    key: key.to_vec(),
                    value: value.to_vec(),
                });
                self.stats.writes += 2; // value slab + bucket line
                self.finish_insert(key, value, slab);
                return Ok(());
            }
        }
        // Kick path: BFS for the shortest displacement chain ending in a
        // free slot (MemC3's approach — nothing moves until a full path
        // is known, so failure leaves the table untouched).
        match self.find_kick_path(b1, b2) {
            Some(path) => {
                // Execute the chain from the free end backwards: each
                // (bucket, way) entry moves to the next bucket in the
                // path.
                for i in (1..path.len()).rev() {
                    let (from_b, from_w) = path[i - 1];
                    let (to_b, _) = path[i];
                    let moved = self.buckets[from_b as usize][from_w]
                        .take()
                        .expect("kick path entries exist");
                    let to_slot =
                        free_way(&self.buckets[to_b as usize]).expect("path end has room");
                    self.buckets[to_b as usize][to_slot] = Some(moved);
                    self.stats.writes += 1; // destination bucket line
                }
                let (b0, w0) = path[0];
                debug_assert!(self.buckets[b0 as usize][w0].is_none());
                self.buckets[b0 as usize][w0] = Some(Entry {
                    key: key.to_vec(),
                    value: value.to_vec(),
                });
                self.stats.writes += 2; // home bucket line + value slab
                self.finish_insert(key, value, slab);
                Ok(())
            }
            None => Err(TableFull),
        }
    }

    /// BFS for a displacement path: returns `[(bucket, way), ...]` where
    /// the first element is where the new key will land and the last
    /// element's bucket has a free way. Counts one read per bucket
    /// expanded.
    fn find_kick_path(&mut self, b1: u64, b2: u64) -> Option<Vec<(u64, usize)>> {
        use std::collections::{HashMap, VecDeque};
        let mut queue: VecDeque<u64> = VecDeque::new();
        // parent[b] = (previous bucket, way whose entry hops to b).
        let mut parent: HashMap<u64, (u64, usize)> = HashMap::new();
        queue.push_back(b1);
        queue.push_back(b2);
        parent.insert(b1, (b1, usize::MAX));
        parent.insert(b2, (b2, usize::MAX));
        let mut expanded = 0usize;
        while let Some(b) = queue.pop_front() {
            expanded += 1;
            if expanded > MAX_KICKS {
                return None;
            }
            self.stats.reads += 1; // bucket line examined
            if free_way(&self.buckets[b as usize]).is_some() {
                // Reconstruct the path back to a root.
                let mut rev = vec![(b, usize::MAX)];
                let mut cur = b;
                while let Some(&(prev, way)) = parent.get(&cur) {
                    if way == usize::MAX {
                        break;
                    }
                    rev.push((prev, way));
                    cur = prev;
                }
                rev.reverse();
                // The first element is (root, way); fix the way of each
                // hop: element i's way is the slot whose entry moves to
                // element i+1's bucket.
                return Some(rev);
            }
            for w in 0..WAYS {
                let e = self.buckets[b as usize][w].as_ref().expect("bucket full");
                let (h1, h2) = self.hashes(&e.key);
                let alt = if h1 == b { h2 } else { h1 };
                if let std::collections::hash_map::Entry::Vacant(v) = parent.entry(alt) {
                    v.insert((b, w));
                    queue.push_back(alt);
                }
            }
        }
        None
    }

    fn finish_insert(&mut self, key: &[u8], value: &[u8], slab: u64) {
        self.stored_bytes += (key.len() + value.len()) as u64;
        self.slab_bytes += slab;
    }
}

fn find(bucket: &[Option<Entry>; WAYS], key: &[u8]) -> Option<Vec<u8>> {
    bucket
        .iter()
        .flatten()
        .find(|e| e.key == key)
        .map(|e| e.value.clone())
}

fn position(bucket: &[Option<Entry>; WAYS], key: &[u8]) -> Option<usize> {
    bucket
        .iter()
        .position(|e| e.as_ref().is_some_and(|e| e.key == key))
}

fn free_way(bucket: &[Option<Entry>; WAYS]) -> Option<usize> {
    bucket.iter().position(Option::is_none)
}

fn hash(key: &[u8], seed: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_many_keys() {
        let mut t = CuckooTable::new(1 << 20, 0.5);
        for i in 0..2000u32 {
            t.put(&i.to_le_bytes(), &i.to_be_bytes()).unwrap();
        }
        for i in 0..2000u32 {
            assert_eq!(t.get(&i.to_le_bytes()).unwrap(), i.to_be_bytes());
        }
    }

    #[test]
    fn get_costs_at_least_two_accesses() {
        // Bucket line + value slab: the structural disadvantage vs
        // KV-Direct's inline single access (Figure 11a).
        let mut t = CuckooTable::new(1 << 20, 0.5);
        t.put(b"k", b"v").unwrap();
        let before = t.stats().accesses();
        t.get(b"k").unwrap();
        assert!(t.stats().accesses() - before >= 2);
    }

    #[test]
    fn replace_updates_value_and_accounting() {
        let mut t = CuckooTable::new(1 << 20, 0.5);
        t.put(b"k", b"short").unwrap();
        let u1 = t.memory_utilization();
        t.put(b"k", &[7u8; 100]).unwrap();
        assert_eq!(t.get(b"k").unwrap(), vec![7u8; 100]);
        assert!(t.memory_utilization() > u1);
    }

    #[test]
    fn kick_chains_grow_put_cost_at_high_load() {
        // A small index (most memory to slabs) so the bucket array —
        // not the slab region — is what fills up and forces kicks.
        let mut t = CuckooTable::new(1 << 18, 0.1);
        let mut cheap = Vec::new();
        let mut i = 0u64;
        // Fill until failure, tracking insert costs.
        loop {
            let before = t.stats().accesses();
            if t.put(&i.to_le_bytes(), &[1u8; 2]).is_err() {
                break;
            }
            cheap.push(t.stats().accesses() - before);
            i += 1;
            assert!(i < 1_000_000, "table never filled");
        }
        let early: f64 =
            cheap[..cheap.len() / 4].iter().sum::<u64>() as f64 / (cheap.len() / 4) as f64;
        let late_slice = &cheap[cheap.len() * 9 / 10..];
        let late_max = *late_slice.iter().max().unwrap();
        assert!(
            late_max as f64 > early * 2.0,
            "no kick fluctuation: early {early}, late max {late_max}"
        );
    }

    #[test]
    fn max_utilization_below_kv_direct() {
        // 10B KVs: keys in buckets, 2B values round to 32B slabs — the
        // paper notes MemC3/FaRM "cannot support more than 55% memory
        // utilization for 10B KV size".
        let mut t = CuckooTable::new(1 << 18, 0.5);
        let mut i = 0u64;
        while t.put(&i.to_le_bytes(), &[1u8; 2]).is_ok() {
            i += 1;
        }
        let u = t.memory_utilization();
        assert!(u < 0.55, "utilization {u} too high");
        assert!(u > 0.02, "utilization {u} suspiciously low");
    }

    #[test]
    fn missing_key_two_bucket_reads() {
        let mut t = CuckooTable::new(1 << 20, 0.5);
        let before = t.stats().reads;
        assert!(t.get(b"missing").is_none());
        assert_eq!(t.stats().reads - before, 2);
    }
}
