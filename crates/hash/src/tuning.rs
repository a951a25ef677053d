//! Hash-table tuning experiments (paper §5.1.1, Figures 6, 9, 10), and the
//! fill-and-measure driver Figure 11 also runs its baselines through.
//!
//! The table has two initialization-time free parameters — inline
//! threshold and hash index ratio. The paper measures average memory
//! accesses per operation while sweeping them against memory utilization,
//! then chooses, for a required utilization and KV size, the largest hash
//! index ratio that still reaches the utilization (Figure 10's dashed
//! line) because more index means more inlining and fewer accesses.

use kvd_mem::FlatMemory;
use kvd_sim::DetRng;

use crate::table::{HashError, HashTable, HashTableConfig};

/// Key length used by the tuning workloads (an 8-byte identifier, like
/// the paper's pointer-sized keys in PageRank / sparse logistic
/// regression).
pub const TUNING_KEY_LEN: usize = 8;

/// Average operation costs measured at some utilization.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasuredCosts {
    /// Utilization at which the measurement ran.
    pub utilization: f64,
    /// Mean memory accesses per GET of an existing key.
    pub get_avg: f64,
    /// Mean memory accesses per PUT (update of an existing key).
    pub put_avg: f64,
    /// Mean accesses per insertion of a new key (measured during fill).
    pub insert_avg: f64,
}

/// A hash index the fill-and-measure driver runs: KV-Direct's chained
/// table, and the MemC3 and FaRM baselines of Figure 11.
pub trait Measurable {
    /// Inserts or replaces `key`: the memory accesses it took, or `None`
    /// when the table is full.
    fn put_counted(&mut self, key: &[u8], value: &[u8]) -> Option<u64>;
    /// Looks `key` up: whether it hit, and the memory accesses it took.
    fn get_counted(&mut self, key: &[u8]) -> (bool, u64);
    /// Stored KV bytes over total memory.
    fn utilization(&self) -> f64;
}

impl Measurable for HashTable<FlatMemory> {
    fn put_counted(&mut self, key: &[u8], value: &[u8]) -> Option<u64> {
        match self.put_with_cost(key, value) {
            Ok(cost) => Some(cost.accesses),
            Err(HashError::OutOfMemory) => None,
            Err(e) => panic!("unexpected fill error: {e}"),
        }
    }

    fn get_counted(&mut self, key: &[u8]) -> (bool, u64) {
        let (hit, cost) = self.get_into_with_cost(key, &mut Vec::new());
        (hit, cost.accesses)
    }

    fn utilization(&self) -> f64 {
        self.memory_utilization()
    }
}

fn key_bytes(id: u64) -> [u8; TUNING_KEY_LEN] {
    id.to_le_bytes()
}

/// The value of key `id`: its KV size is `sizes[id % sizes.len()]`, so an
/// update keeps the size the key was inserted with.
fn value_for(sizes: &[usize], id: u64) -> Vec<u8> {
    let kv_size = sizes[(id % sizes.len() as u64) as usize];
    assert!(
        kv_size > TUNING_KEY_LEN,
        "kv size must exceed the key length"
    );
    let mut v = vec![0u8; kv_size - TUNING_KEY_LEN];
    let tag = id.to_le_bytes();
    let n = v.len().min(8);
    v[..n].copy_from_slice(&tag[..n]);
    v
}

fn table(
    total_memory: u64,
    hash_index_ratio: f64,
    inline_threshold: usize,
) -> HashTable<FlatMemory> {
    HashTable::new(
        FlatMemory::new(total_memory),
        HashTableConfig::new(total_memory, hash_index_ratio, inline_threshold),
    )
}

/// How a [`fill`] ended.
#[derive(Debug, Clone, Copy)]
pub struct Fill {
    /// Keys inserted: ids `0..keys`.
    pub keys: u64,
    /// Mean accesses per insertion.
    pub insert_avg: f64,
    /// The table filled up before the target utilization.
    pub full: bool,
}

/// Inserts KVs of `sizes` (cycled by key id, 8-byte keys) into `table`
/// until it reaches `target_utilization` or fills up.
pub fn fill<T: Measurable>(table: &mut T, sizes: &[usize], target_utilization: f64) -> Fill {
    let (mut keys, mut accesses, mut full) = (0u64, 0u64, false);
    while table.utilization() < target_utilization {
        match table.put_counted(&key_bytes(keys), &value_for(sizes, keys)) {
            Some(a) => accesses += a,
            None => {
                full = true;
                break;
            }
        }
        keys += 1;
    }
    let insert_avg = if keys == 0 {
        0.0
    } else {
        accesses as f64 / keys as f64
    };
    Fill {
        keys,
        insert_avg,
        full,
    }
}

/// Measures mean GET and PUT (update) costs over `samples` random keys of
/// a non-empty `fill` of `table` with the same `sizes`.
pub fn measure<T: Measurable>(
    table: &mut T,
    sizes: &[usize],
    fill: &Fill,
    samples: usize,
    seed: u64,
) -> MeasuredCosts {
    assert!(fill.keys > 0, "nothing to measure");
    let filled = table.utilization();
    let mut rng = DetRng::seed(seed);
    let mut get_total = 0u64;
    let mut put_total = 0u64;
    for _ in 0..samples {
        let id = rng.usize_below(fill.keys as usize) as u64;
        let (hit, accesses) = table.get_counted(&key_bytes(id));
        assert!(hit, "inserted key {id} must be present");
        get_total += accesses;
        put_total += table
            .put_counted(&key_bytes(id), &value_for(sizes, id))
            .expect("update of existing key cannot fill the table");
        // A same-size update that hits leaves the stored bytes unchanged.
        assert_eq!(table.utilization(), filled, "update of key {id} must hit");
    }
    MeasuredCosts {
        utilization: filled,
        get_avg: get_total as f64 / samples as f64,
        put_avg: put_total as f64 / samples as f64,
        insert_avg: fill.insert_avg,
    }
}

/// Builds a fresh table, fills it to `utilization` (or as far as memory
/// allows), and measures costs over up to 2000 random existing keys —
/// the one driver behind [`point`] and [`point_mixed`].
fn fill_and_measure(
    total_memory: u64,
    hash_index_ratio: f64,
    inline_threshold: usize,
    sizes: &[usize],
    utilization: f64,
    seed: u64,
) -> MeasuredCosts {
    let mut table = table(total_memory, hash_index_ratio, inline_threshold);
    let filled = fill(&mut table, sizes, utilization);
    if filled.keys == 0 {
        return MeasuredCosts::default();
    }
    let samples = 2000.min(filled.keys as usize * 2);
    measure(&mut table, sizes, &filled, samples, seed)
}

/// Builds a fresh table, fills it to `utilization` with `kv_size`-byte
/// KVs, and measures costs — the single data point behind every cell of
/// Figures 9–11.
pub fn point(
    total_memory: u64,
    hash_index_ratio: f64,
    inline_threshold: usize,
    kv_size: usize,
    utilization: f64,
    seed: u64,
) -> MeasuredCosts {
    fill_and_measure(
        total_memory,
        hash_index_ratio,
        inline_threshold,
        &[kv_size],
        utilization,
        seed,
    )
}

/// Like [`point`], but with KV sizes cycling through `sizes` by key — the
/// mixed-size workload behind Figure 6, where the inline threshold trades
/// inlining gains against bucket pressure.
pub fn point_mixed(
    total_memory: u64,
    hash_index_ratio: f64,
    inline_threshold: usize,
    sizes: &[usize],
    utilization: f64,
    seed: u64,
) -> MeasuredCosts {
    assert!(!sizes.is_empty());
    fill_and_measure(
        total_memory,
        hash_index_ratio,
        inline_threshold,
        sizes,
        utilization,
        seed ^ 0xFEED,
    )
}

/// The highest utilization a configuration can reach before OOM
/// (Figure 10's per-ratio ceiling).
pub fn max_achievable_utilization(
    total_memory: u64,
    hash_index_ratio: f64,
    inline_threshold: usize,
    kv_size: usize,
) -> f64 {
    let mut table = table(total_memory, hash_index_ratio, inline_threshold);
    fill(&mut table, &[kv_size], 1.0);
    table.memory_utilization()
}

/// The paper's offline tuning procedure (Figure 10): choose the largest
/// hash index ratio whose achievable utilization still meets the target,
/// then return it with the measured access cost at the target.
///
/// Returns `(ratio, costs_at_target)`.
pub fn optimal_config(
    total_memory: u64,
    inline_threshold: usize,
    kv_size: usize,
    target_utilization: f64,
    seed: u64,
) -> Option<(f64, MeasuredCosts)> {
    let ratios = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
    for &r in &ratios {
        let max = max_achievable_utilization(total_memory, r, inline_threshold, kv_size);
        if max >= target_utilization {
            let costs = point(
                total_memory,
                r,
                inline_threshold,
                kv_size,
                target_utilization,
                seed,
            );
            return Some((r, costs));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEM: u64 = 1 << 19; // 512 KiB keeps tests fast

    #[test]
    fn fill_reaches_target() {
        let mut t = table(MEM, 0.5, 24);
        let filled = fill(&mut t, &[16], 0.3);
        assert!(t.memory_utilization() >= 0.3);
        assert!(filled.keys > 0 && !filled.full);
        assert!(filled.insert_avg >= 2.0, "inline insert costs at least 2");
    }

    #[test]
    fn inline_point_close_to_ideal_at_low_utilization() {
        // Paper: "close to 1 memory access per GET and close to 2 memory
        // accesses per PUT under non-extreme memory utilizations".
        let m = point(MEM, 0.6, 24, 16, 0.35, 1);
        assert!(m.get_avg < 1.5, "GET {}", m.get_avg);
        assert!(m.put_avg < 3.0 && m.put_avg >= 2.0, "PUT {}", m.put_avg);
    }

    #[test]
    fn accesses_grow_with_utilization() {
        // Figure 6/9b: memory access count increases with utilization.
        let lo = point(MEM, 0.6, 24, 16, 0.25, 2);
        let hi = point(MEM, 0.6, 24, 16, 0.5, 2);
        assert!(hi.utilization > lo.utilization);
        assert!(
            hi.get_avg >= lo.get_avg - 0.05,
            "GET {} → {}",
            lo.get_avg,
            hi.get_avg
        );
    }

    #[test]
    fn offline_kvs_cost_one_more_access() {
        // Figure 9: inline vs offline. Same KV size; thresholds straddle.
        let inline = point(MEM, 0.6, 24, 16, 0.3, 3);
        let offline = point(MEM, 0.3, 10, 16, 0.3, 3);
        assert!(
            offline.get_avg > inline.get_avg + 0.5,
            "inline {} offline {}",
            inline.get_avg,
            offline.get_avg
        );
    }

    #[test]
    fn max_utilization_drops_with_ratio_for_offline_kvs() {
        // Figure 10: for non-inline KVs, a bigger index starves the
        // dynamic region, capping achievable utilization.
        let lo_ratio = max_achievable_utilization(MEM, 0.2, 10, 64);
        let hi_ratio = max_achievable_utilization(MEM, 0.8, 10, 64);
        assert!(
            lo_ratio > hi_ratio,
            "ratio 0.2 → {lo_ratio}, ratio 0.8 → {hi_ratio}"
        );
    }

    #[test]
    fn optimal_config_meets_target() {
        let (ratio, costs) = optimal_config(MEM, 24, 16, 0.4, 4).expect("achievable");
        assert!((0.1..=0.9).contains(&ratio));
        assert!(costs.utilization >= 0.4);
        // An impossible target returns None.
        assert!(optimal_config(MEM, 10, 64, 0.99, 4).is_none());
    }
}
