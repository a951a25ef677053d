//! FaRM-style chain-associative hopscotch hashing (paper §5.1.1,
//! Figure 11).
//!
//! An open-addressed slot array where every key lives within a fixed
//! neighbourhood (H slots) of its home bucket, so a GET reads one
//! neighbourhood-sized line plus the value slab. Insertion linearly
//! probes for a free slot, then *hops* it backwards into the
//! neighbourhood by displacing entries whose own neighbourhood still
//! covers the free slot. FaRM's variant chains overflow blocks when a
//! hop is impossible.
//!
//! Reproduced behaviour: GETs are cheap (often beating chaining at high
//! utilization, paper: "hopscotch hashing performs better in GET"), but
//! PUTs degrade "significantly worse" as hop cascades lengthen.

use crate::{slab_size_for, BaselineStats, TableFull};

/// Neighbourhood size (slots per home bucket; FaRM reads it as one line).
const H: usize = 8;
/// Linear-probe limit before declaring the region full.
const MAX_PROBE: usize = 4096;

#[derive(Debug, Clone)]
struct Entry {
    key: Vec<u8>,
    value: Vec<u8>,
    home: usize,
}

/// A hopscotch hash table with overflow chaining and access accounting.
///
/// # Examples
///
/// ```
/// use kvd_baselines::HopscotchTable;
///
/// let mut t = HopscotchTable::new(1 << 20, 0.5);
/// t.put(b"k", b"v").unwrap();
/// assert_eq!(t.get(b"k").unwrap(), b"v");
/// ```
pub struct HopscotchTable {
    slots: Vec<Option<Entry>>,
    /// Overflow chain per home bucket (FaRM's chained blocks).
    chains: Vec<Vec<Entry>>,
    n_slots: usize,
    total_memory: u64,
    stored_bytes: u64,
    slab_bytes: u64,
    slab_capacity: u64,
    stats: BaselineStats,
}

/// Bytes per slot in the index (8 B inline key + pointer + metadata).
const SLOT_BYTES: u64 = 16;

impl HopscotchTable {
    /// Creates a table over `total_memory` bytes with `index_ratio` of it
    /// in the slot array.
    pub fn new(total_memory: u64, index_ratio: f64) -> Self {
        assert!((0.0..1.0).contains(&index_ratio));
        let index_bytes = (total_memory as f64 * index_ratio) as u64;
        let n_slots = (index_bytes / SLOT_BYTES).max(2 * H as u64) as usize;
        HopscotchTable {
            slots: vec![None; n_slots],
            chains: vec![Vec::new(); n_slots],
            n_slots,
            total_memory,
            stored_bytes: 0,
            slab_bytes: 0,
            slab_capacity: total_memory.saturating_sub(n_slots as u64 * SLOT_BYTES),
            stats: BaselineStats::default(),
        }
    }

    fn home_of(&self, key: &[u8]) -> usize {
        (hash(key) % self.n_slots as u64) as usize
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> BaselineStats {
        self.stats
    }

    /// Memory utilization, same metric as KV-Direct.
    pub fn memory_utilization(&self) -> f64 {
        self.stored_bytes as f64 / self.total_memory as f64
    }

    fn neighbourhood(&self, home: usize) -> impl Iterator<Item = usize> + '_ {
        (0..H).map(move |i| (home + i) % self.n_slots)
    }

    /// Looks up `key`: one neighbourhood read + chain blocks + value.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let home = self.home_of(key);
        self.stats.reads += 1; // the neighbourhood line
        for s in self.neighbourhood(home).collect::<Vec<_>>() {
            if let Some(e) = &self.slots[s] {
                if e.key == key {
                    self.stats.reads += 1; // value slab
                    return Some(e.value.clone());
                }
            }
        }
        if !self.chains[home].is_empty() {
            self.stats.reads += 1; // chained block
            if let Some(e) = self.chains[home].iter().find(|e| e.key == key) {
                self.stats.reads += 1; // value slab
                return Some(e.value.clone());
            }
        }
        None
    }

    /// Inserts or replaces.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), TableFull> {
        let home = self.home_of(key);
        self.stats.reads += 1; // neighbourhood line
                               // Replace in neighbourhood?
        for s in self.neighbourhood(home).collect::<Vec<_>>() {
            let found = self.slots[s].as_ref().is_some_and(|e| e.key == key);
            if found {
                return self.replace_at(s, key, value);
            }
        }
        // Replace in chain?
        if !self.chains[home].is_empty() {
            self.stats.reads += 1;
            if let Some(i) = self.chains[home].iter().position(|e| e.key == key) {
                let (old_k, old_v) = {
                    let e = &self.chains[home][i];
                    (e.key.len(), e.value.len())
                };
                let old_slab = slab_size_for(old_v) as u64;
                let new_slab = slab_size_for(value.len()) as u64;
                if self.slab_bytes - old_slab + new_slab > self.slab_capacity {
                    return Err(TableFull);
                }
                self.slab_bytes = self.slab_bytes - old_slab + new_slab;
                self.stored_bytes -= (old_k + old_v) as u64;
                self.stored_bytes += (key.len() + value.len()) as u64;
                self.chains[home][i].value = value.to_vec();
                self.stats.writes += 1;
                return Ok(());
            }
        }
        // New key: slab space first.
        let slab = slab_size_for(value.len()) as u64;
        if self.slab_bytes + slab > self.slab_capacity {
            return Err(TableFull);
        }
        let entry = Entry {
            key: key.to_vec(),
            value: value.to_vec(),
            home,
        };
        // Free slot in the neighbourhood?
        for s in self.neighbourhood(home).collect::<Vec<_>>() {
            if self.slots[s].is_none() {
                self.slots[s] = Some(entry);
                self.stats.writes += 2; // line + value slab
                self.finish_insert(key, value, slab);
                return Ok(());
            }
        }
        // Linear probe for a free slot, then hop it back.
        let mut free = None;
        for d in H..MAX_PROBE {
            let s = (home + d) % self.n_slots;
            self.stats.reads += 1; // probe reads lines beyond the home
            if self.slots[s].is_none() {
                free = Some(s);
                break;
            }
        }
        let Some(mut free) = free else {
            // No free slot in reach: chain at the home bucket (FaRM's
            // chained blocks).
            self.chains[home].push(entry);
            self.stats.writes += 2; // chain block + value slab
            self.finish_insert(key, value, slab);
            return Ok(());
        };
        // Hop the free slot backwards until it enters the neighbourhood.
        loop {
            let dist = (free + self.n_slots - home) % self.n_slots;
            if dist < H {
                self.slots[free] = Some(entry);
                self.stats.writes += 2;
                self.finish_insert(key, value, slab);
                return Ok(());
            }
            // Find an entry in the H-1 slots before `free` whose home
            // still covers `free`.
            let mut hopped = false;
            for back in (1..H).rev() {
                let cand = (free + self.n_slots - back) % self.n_slots;
                let can_move = self.slots[cand].as_ref().is_some_and(|e| {
                    let d = (free + self.n_slots - e.home) % self.n_slots;
                    d < H
                });
                if can_move {
                    self.slots[free] = self.slots[cand].take();
                    self.stats.reads += 1; // read candidate line
                    self.stats.writes += 1; // rewrite both lines (batched)
                    free = cand;
                    hopped = true;
                    break;
                }
            }
            if !hopped {
                // Hop impossible: fall back to chaining.
                self.chains[home].push(entry);
                self.stats.writes += 2;
                self.finish_insert(key, value, slab);
                return Ok(());
            }
        }
    }

    fn replace_at(&mut self, slot: usize, key: &[u8], value: &[u8]) -> Result<(), TableFull> {
        let e = self.slots[slot].as_mut().expect("caller found the key");
        let old_slab = slab_size_for(e.value.len()) as u64;
        let new_slab = slab_size_for(value.len()) as u64;
        if self.slab_bytes - old_slab + new_slab > self.slab_capacity {
            return Err(TableFull);
        }
        self.slab_bytes = self.slab_bytes - old_slab + new_slab;
        self.stored_bytes -= (e.key.len() + e.value.len()) as u64;
        self.stored_bytes += (key.len() + value.len()) as u64;
        e.value = value.to_vec();
        self.stats.writes += 1; // value slab
        Ok(())
    }

    fn finish_insert(&mut self, key: &[u8], value: &[u8], slab: u64) {
        self.stored_bytes += (key.len() + value.len()) as u64;
        self.slab_bytes += slab;
    }
}

fn hash(key: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ 0x1357_9BDF_2468_ACE0;
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
        let mut t = HopscotchTable::new(1 << 20, 0.5);
        for i in 0..3000u32 {
            t.put(&i.to_le_bytes(), &i.to_be_bytes()).unwrap();
        }
        for i in 0..3000u32 {
            assert_eq!(t.get(&i.to_le_bytes()).unwrap(), i.to_be_bytes());
        }
    }

    #[test]
    fn get_is_two_accesses_in_neighbourhood() {
        let mut t = HopscotchTable::new(1 << 20, 0.5);
        t.put(b"k", b"v").unwrap();
        let before = t.stats().accesses();
        t.get(b"k").unwrap();
        assert_eq!(t.stats().accesses() - before, 2, "line + value");
    }

    #[test]
    fn put_cost_fluctuates_at_high_utilization() {
        let mut t = HopscotchTable::new(1 << 18, 0.6);
        let mut costs = Vec::new();
        let mut i = 0u64;
        loop {
            let before = t.stats().accesses();
            if t.put(&i.to_le_bytes(), &[1u8; 8]).is_err() {
                break;
            }
            costs.push(t.stats().accesses() - before);
            i += 1;
            assert!(i < 1_000_000);
        }
        let early_max = *costs[..costs.len() / 4].iter().max().unwrap();
        let late_max = *costs[costs.len() * 3 / 4..].iter().max().unwrap();
        assert!(
            late_max > early_max,
            "no hop cascade: early {early_max}, late {late_max}"
        );
    }

    #[test]
    fn replace_keeps_single_copy() {
        let mut t = HopscotchTable::new(1 << 20, 0.5);
        t.put(b"dup", b"v1").unwrap();
        t.put(b"dup", b"v2").unwrap();
        assert_eq!(t.get(b"dup").unwrap(), b"v2");
    }

    #[test]
    fn chains_absorb_overflow() {
        // A tiny slot array forces chaining; everything stays reachable.
        let mut t = HopscotchTable::new(1 << 14, 0.02);
        for i in 0..200u32 {
            t.put(&i.to_le_bytes(), b"x").unwrap();
        }
        for i in 0..200u32 {
            assert!(t.get(&i.to_le_bytes()).is_some(), "{i}");
        }
    }
}
