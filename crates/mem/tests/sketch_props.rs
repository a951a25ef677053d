//! Property tests for the frequency plane behind the adaptive cache.
//!
//! Three guarantees the admission filter and the retune loop lean on:
//!
//! 1. **Count-min never underestimates** (at sample period 1): the
//!    estimate is a min over per-row counters that each saw every
//!    occurrence, so `estimate(x) >= true_count(x)` always.
//! 2. **Space-saving error bound**: every tracked entry's recorded
//!    error is at most `total/k`, and `count - err` never exceeds the
//!    item's true count — the lower bound the hot-key shed policy uses
//!    is sound.
//! 3. **Halving weakly preserves ordering**: `floor(x/2)` is monotone
//!    and commutes with `min`, so the sketch's relative ranking of two
//!    items survives an epoch reset.

use kvd_mem::{FreqSketch, SketchConfig, SpaceSaving};
use proptest::prelude::*;
use std::collections::HashMap;

fn exact_sketch(seed: u64) -> FreqSketch {
    FreqSketch::new(SketchConfig {
        rows: 4,
        cols: 256,
        sample_period: 1,
        halve_every: 0,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_min_never_underestimates(
        items in prop::collection::vec(0u64..64, 1..600),
        seed in 0u64..1 << 48,
    ) {
        let mut s = exact_sketch(seed);
        let mut truth: HashMap<u64, u32> = HashMap::new();
        for &it in &items {
            s.observe(it);
            *truth.entry(it).or_insert(0) += 1;
        }
        for (&it, &count) in &truth {
            prop_assert!(
                s.estimate(it) >= count,
                "estimate({it}) = {} < true {count}",
                s.estimate(it)
            );
        }
    }

    #[test]
    fn space_saving_error_bound_holds(
        items in prop::collection::vec(0u64..512, 1..800),
        k in 2usize..24,
    ) {
        let mut ss = SpaceSaving::new(k);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &it in &items {
            ss.observe(it);
            *truth.entry(it).or_insert(0) += 1;
        }
        let total = ss.total();
        prop_assert_eq!(total, items.len() as u64);
        for e in ss.entries() {
            // The classic space-saving guarantees: the recorded error is
            // bounded by total/k, and the lower bound count - err never
            // exceeds the item's true count (soundness of "provably hot").
            prop_assert!(
                e.err <= total / k as u64,
                "err {} > total/k = {}",
                e.err,
                total / k as u64
            );
            let true_count = truth.get(&e.item).copied().unwrap_or(0);
            prop_assert!(
                e.count - e.err <= true_count,
                "lower bound {} exceeds true count {true_count}",
                e.count - e.err
            );
            prop_assert!(
                e.count >= true_count,
                "tracked count {} underestimates true {true_count}",
                e.count
            );
        }
        // Any item with true frequency above total/k must be tracked.
        for (&it, &count) in &truth {
            if count > total / k as u64 {
                prop_assert!(
                    ss.estimate(it).is_some(),
                    "heavy item {it} (count {count} > {}) untracked",
                    total / k as u64
                );
            }
        }
    }

    #[test]
    fn halving_preserves_estimate_ordering(
        items in prop::collection::vec(0u64..64, 2..600),
        seed in 0u64..1 << 48,
    ) {
        let mut s = exact_sketch(seed);
        for &it in &items {
            s.observe(it);
        }
        let before: Vec<u32> = (0..64).map(|it| s.estimate(it)).collect();
        s.halve();
        let after: Vec<u32> = (0..64).map(|it| s.estimate(it)).collect();
        for a in 0..64usize {
            for b in 0..64usize {
                if before[a] < before[b] {
                    prop_assert!(
                        after[a] <= after[b],
                        "halving inverted order: {} vs {} became {} vs {}",
                        before[a], before[b], after[a], after[b]
                    );
                }
            }
            prop_assert!(after[a] <= before[a] / 2 + 1, "halving must shrink");
        }
    }

    #[test]
    fn sampling_is_seed_deterministic(
        items in prop::collection::vec(0u64..1024, 1..400),
        seed in 0u64..1 << 48,
    ) {
        let cfg = SketchConfig {
            sample_period: 4,
            ..SketchConfig::data_path(seed)
        };
        let (mut a, mut b) = (FreqSketch::new(cfg), FreqSketch::new(cfg));
        for &it in &items {
            prop_assert_eq!(a.observe(it), b.observe(it), "sampling diverged");
        }
        for &it in &items {
            prop_assert_eq!(a.estimate(it), b.estimate(it));
        }
    }
}
