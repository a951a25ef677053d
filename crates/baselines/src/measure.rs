//! The baseline tables under `kvd_hash::tuning`'s fill-and-measure driver
//! (Figure 11).

use kvd_hash::tuning::{fill, measure, Measurable};
use kvd_hash::MeasuredCosts;

use crate::cuckoo::CuckooTable;
use crate::hopscotch::HopscotchTable;

/// Counts a baseline operation's accesses off the table's stats.
macro_rules! impl_measurable {
    ($table:ty) => {
        impl Measurable for $table {
            fn put_counted(&mut self, key: &[u8], value: &[u8]) -> Option<u64> {
                let before = self.stats().accesses();
                self.put(key, value).ok()?;
                Some(self.stats().accesses() - before)
            }

            fn get_counted(&mut self, key: &[u8]) -> (bool, u64) {
                let before = self.stats().accesses();
                let hit = self.get(key).is_some();
                (hit, self.stats().accesses() - before)
            }

            fn utilization(&self) -> f64 {
                self.memory_utilization()
            }
        }
    };
}

impl_measurable!(CuckooTable);
impl_measurable!(HopscotchTable);

/// Fills `table` to `target_utilization` with `kv_size`-byte KVs and
/// measures average GET and PUT access counts over `samples` operations.
///
/// Returns `None` if the target utilization is unreachable for this
/// design (the paper: MemC3/FaRM "cannot support more than 55% memory
/// utilization for 10B KV size").
pub fn measure_baseline<T: Measurable>(
    table: &mut T,
    kv_size: usize,
    target_utilization: f64,
    samples: usize,
    seed: u64,
) -> Option<MeasuredCosts> {
    let filled = fill(table, &[kv_size], target_utilization);
    (!filled.full && filled.keys > 0).then(|| measure(table, &[kv_size], &filled, samples, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuckoo_measurable_at_low_utilization() {
        let mut t = CuckooTable::new(1 << 19, 0.3);
        let c = measure_baseline(&mut t, 16, 0.1, 500, 1).expect("reachable");
        assert!(c.utilization >= 0.1);
        assert!(c.get_avg >= 2.0, "GET {}", c.get_avg);
        assert!(c.put_avg >= 1.0);
    }

    #[test]
    fn hopscotch_gets_cheaper_than_cuckoo() {
        let mut c = CuckooTable::new(1 << 19, 0.3);
        let mut h = HopscotchTable::new(1 << 19, 0.3);
        let cc = measure_baseline(&mut c, 16, 0.1, 500, 2).unwrap();
        let hc = measure_baseline(&mut h, 16, 0.1, 500, 2).unwrap();
        // Paper: "hopscotch hashing performs better in GET".
        assert!(
            hc.get_avg <= cc.get_avg + 0.05,
            "{} vs {}",
            hc.get_avg,
            cc.get_avg
        );
    }

    #[test]
    fn unreachable_utilization_reports_none() {
        let mut t = CuckooTable::new(1 << 16, 0.5);
        assert!(measure_baseline(&mut t, 10, 0.9, 10, 3).is_none());
    }
}
