//! Property tests for the consistent-hash ring's remap bounds — the
//! contract the failover plane stands on.
//!
//! When one of M nodes is removed: (1) only a bounded fraction of keys
//! change primary — about 1/M, asserted here with slack for vnode
//! variance; (2) a key whose replica set did not include the dead node
//! keeps its replica list **identical and in the same order** (so a
//! failover never silently re-routes healthy keys); (3) a key that did
//! route through the dead node keeps its surviving replicas in their
//! original relative order — the promotion rule "next chain member takes
//! over" is exactly this property.

use kvd_net::HashRing;
use proptest::prelude::*;

const VNODES: usize = 64;

/// Generates a membership of 3..=8 distinct node ids plus the member to
/// kill (picked by a uniform draw reduced mod the set size).
fn cluster() -> impl Strategy<Value = (Vec<u32>, u32)> {
    (
        prop::collection::btree_set(0u32..32, 3..=8usize),
        any::<u16>(),
    )
        .prop_map(|(set, pick)| {
            let nodes: Vec<u32> = set.into_iter().collect();
            let victim = nodes[pick as usize % nodes.len()];
            (nodes, victim)
        })
}

fn sample_keys() -> Vec<Vec<u8>> {
    (0u64..4_000).map(|i| i.to_le_bytes().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Removing one of M nodes moves at most ~1/M of primaries (2/M with
    /// vnode-variance slack), and every moved key was owned by the victim.
    #[test]
    fn removal_moves_bounded_fraction(input in cluster()) {
        let (nodes, victim) = input;
        let m = nodes.len();
        let mut ring = HashRing::new(nodes, VNODES);
        let keys = sample_keys();
        let before: Vec<u32> = keys.iter().map(|k| ring.replicas(k, 1)[0]).collect();
        ring.remove_node(victim);
        let mut moved = 0usize;
        for (k, &b) in keys.iter().zip(&before) {
            let now = ring.replicas(k, 1)[0];
            if now != b {
                prop_assert_eq!(b, victim, "key not owned by the victim moved");
                moved += 1;
            }
        }
        let frac = moved as f64 / keys.len() as f64;
        prop_assert!(
            frac <= 2.0 / m as f64,
            "removal of 1/{} nodes moved {:.3} of keys",
            m,
            frac
        );
    }

    /// Keys whose replica set excluded the victim keep their replica
    /// vector bit-for-bit; affected keys keep the survivors' relative
    /// order.
    #[test]
    fn removal_preserves_replica_order(input in cluster()) {
        let (nodes, victim) = input;
        let rf = 3.min(nodes.len() - 1);
        let mut ring = HashRing::new(nodes, VNODES);
        let keys = sample_keys();
        let before: Vec<Vec<u32>> = keys.iter().map(|k| ring.replicas(k, rf)).collect();
        ring.remove_node(victim);
        for (k, b) in keys.iter().zip(&before) {
            let after = ring.replicas(k, rf);
            if !b.contains(&victim) {
                prop_assert_eq!(&after, b, "unaffected key's replica set changed");
            } else {
                // Survivors keep their relative order in the new set.
                let survivors: Vec<u32> =
                    b.iter().copied().filter(|&n| n != victim).collect();
                let mut positions = Vec::with_capacity(survivors.len());
                for s in &survivors {
                    let at = after.iter().position(|&n| n == *s);
                    prop_assert!(
                        at.is_some(),
                        "surviving replica {} dropped: {:?} -> {:?}",
                        s,
                        b,
                        &after
                    );
                    positions.push(at.unwrap());
                }
                prop_assert!(
                    positions.windows(2).all(|w| w[0] < w[1]),
                    "survivor order changed: {:?} -> {:?}",
                    b,
                    &after
                );
            }
        }
    }

    /// Re-adding the removed node restores the original routing exactly
    /// (placement is a pure function of membership).
    #[test]
    fn removal_is_invertible(input in cluster()) {
        let (nodes, victim) = input;
        let rf = 2.min(nodes.len() - 1);
        let mut ring = HashRing::new(nodes, VNODES);
        let keys = sample_keys();
        let before: Vec<Vec<u32>> = keys.iter().map(|k| ring.replicas(k, rf)).collect();
        ring.remove_node(victim);
        ring.add_node(victim);
        for (k, b) in keys.iter().zip(&before) {
            prop_assert_eq!(&ring.replicas(k, rf), b);
        }
    }
}
