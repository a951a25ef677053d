//! Consistent-hash ring for client-side cluster routing.
//!
//! [`crate::route::shard_of`] partitions keys across the NICs of *one*
//! host with modulo hashing — fine there, because NIC counts never
//! change mid-run. Across hosts the membership does change (nodes die
//! and are removed), and modulo hashing would remap nearly every key on
//! a removal. [`HashRing`] gives the classic consistent-hashing bound
//! instead: each node projects `vnodes` points onto a 64-bit circle, a
//! key is owned by the first node point at or after its hash, and a
//! replica set of size RF is the first RF *distinct* nodes walking
//! clockwise. Removing one of M nodes then moves only the keys whose
//! walk touched that node (≈ 1/M of them) and never reorders the
//! replica lists of unaffected keys — the property the failover plane
//! leans on and `tests/ring_props.rs` pins down.

/// A consistent-hash ring over small integer node ids.
///
/// # Examples
///
/// ```
/// use kvd_net::HashRing;
///
/// let mut ring = HashRing::with_nodes(4, 64);
/// let before = ring.replicas(b"user:17", 2);
/// assert_eq!(before.len(), 2);
/// assert_ne!(before[0], before[1], "replicas are distinct nodes");
/// // Routing is stable until membership changes.
/// assert_eq!(before, ring.replicas(b"user:17", 2));
/// ring.remove_node(before[0]);
/// assert!(!ring.replicas(b"user:17", 2).contains(&before[0]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, node)` sorted by point; binary-searched per lookup.
    points: Vec<(u64, u32)>,
    /// Live node ids, sorted (membership view).
    nodes: Vec<u32>,
    /// Virtual points each node projects onto the circle.
    vnodes: usize,
}

/// 64-bit key hash: FNV-1a over the bytes with an avalanche finalizer —
/// the same mix family as [`crate::route::shard_of`], but kept separate
/// so ring placement never correlates with single-host shard routing.
fn key_point(key: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    mix(h)
}

/// One virtual point of `node`: splitmix of the (node, replica-index)
/// pair, decorrelated from the key hash.
fn vnode_point(node: u32, idx: u32) -> u64 {
    mix(((node as u64) << 32 | idx as u64).wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl HashRing {
    /// A ring over nodes `0..n`, each projecting `vnodes` points.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `vnodes == 0`.
    pub fn with_nodes(n: usize, vnodes: usize) -> Self {
        Self::new((0..n as u32).collect(), vnodes)
    }

    /// A ring over an explicit node-id set.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, holds duplicates, or `vnodes == 0`.
    pub fn new(mut nodes: Vec<u32>, vnodes: usize) -> Self {
        assert!(!nodes.is_empty(), "ring needs at least one node");
        assert!(vnodes > 0, "ring needs at least one virtual point");
        nodes.sort_unstable();
        assert!(
            nodes.windows(2).all(|w| w[0] != w[1]),
            "duplicate node id in ring"
        );
        let mut ring = HashRing {
            points: Vec::with_capacity(nodes.len() * vnodes),
            nodes,
            vnodes,
        };
        for i in 0..ring.nodes.len() {
            let node = ring.nodes[i];
            for idx in 0..vnodes as u32 {
                ring.points.push((vnode_point(node, idx), node));
            }
        }
        ring.points.sort_unstable();
        ring
    }

    /// Adds a node (its points join the circle; ≈ 1/(M+1) of keys move
    /// to it).
    ///
    /// # Panics
    ///
    /// Panics if the node is already present.
    pub fn add_node(&mut self, node: u32) {
        assert!(
            !self.nodes.contains(&node),
            "node {node} already in the ring"
        );
        self.nodes.push(node);
        self.nodes.sort_unstable();
        for idx in 0..self.vnodes as u32 {
            self.points.push((vnode_point(node, idx), node));
        }
        self.points.sort_unstable();
    }

    /// Removes a node. Only keys whose clockwise walk touched this node
    /// are remapped; every other key keeps its replica list bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the node is absent or is the last one.
    pub fn remove_node(&mut self, node: u32) {
        let at = self
            .nodes
            .iter()
            .position(|&n| n == node)
            .expect("removing a node not in the ring");
        assert!(self.nodes.len() > 1, "cannot empty the ring");
        self.nodes.remove(at);
        self.points.retain(|&(_, n)| n != node);
    }

    /// The key's replica set: the first `rf` distinct nodes clockwise
    /// from its hash, primary first. `rf` is clamped to the live node
    /// count.
    pub fn replicas(&self, key: &[u8], rf: usize) -> Vec<u32> {
        let mut out = vec![0u32; rf.clamp(1, self.nodes.len())];
        self.replicas_into(key, &mut out);
        out
    }

    /// Allocation-free [`Self::replicas`]: fills `out` (whose length is
    /// the requested RF) with the replica set.
    ///
    /// # Panics
    ///
    /// Panics if `out` is empty or longer than the live node count.
    pub fn replicas_into(&self, key: &[u8], out: &mut [u32]) {
        assert!(!out.is_empty(), "replica set cannot be empty");
        assert!(
            out.len() <= self.nodes.len(),
            "RF {} exceeds {} live nodes",
            out.len(),
            self.nodes.len()
        );
        let start = self.points.partition_point(|&(p, _)| p < key_point(key));
        let mut filled = 0;
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if out[..filled].contains(&node) {
                continue;
            }
            out[filled] = node;
            filled += 1;
            if filled == out.len() {
                return;
            }
        }
        unreachable!("ring holds at least out.len() distinct nodes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = [u8; 8]> {
        (0..n).map(|i| i.to_le_bytes())
    }

    #[test]
    fn replicas_are_distinct_and_stable() {
        let ring = HashRing::with_nodes(5, 64);
        for k in keys(500) {
            let r = ring.replicas(&k, 3);
            assert_eq!(r.len(), 3);
            assert!(r[0] != r[1] && r[1] != r[2] && r[0] != r[2]);
            assert_eq!(r, ring.replicas(&k, 3));
            assert_eq!(r[0], ring.replicas(&k, 1)[0]);
        }
    }

    #[test]
    fn rf_clamps_to_node_count() {
        let ring = HashRing::with_nodes(2, 16);
        let r = ring.replicas(b"k", 3);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn load_spreads_roughly_evenly() {
        let ring = HashRing::with_nodes(8, 128);
        let mut counts = [0u64; 8];
        for k in keys(40_000) {
            counts[ring.replicas(&k, 1)[0] as usize] += 1;
        }
        let expect = 40_000.0 / 8.0;
        for (n, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.35, "node {n} owns {c} keys (dev {dev:.2})");
        }
    }

    #[test]
    fn removal_moves_a_bounded_fraction() {
        let m = 6usize;
        let mut ring = HashRing::with_nodes(m, 128);
        let before: Vec<u32> = keys(20_000).map(|k| ring.replicas(&k, 1)[0]).collect();
        ring.remove_node(2);
        let moved = keys(20_000)
            .zip(&before)
            .filter(|(k, &b)| ring.replicas(k, 1)[0] != b)
            .count();
        let frac = moved as f64 / 20_000.0;
        // Expected 1/6 ≈ 0.167; generous slack for vnode variance.
        assert!(frac < 2.0 / m as f64, "removal moved {frac:.3} of keys");
        // Every moved key was owned by the removed node.
        for (k, &b) in keys(20_000).zip(&before) {
            if ring.replicas(&k, 1)[0] != b {
                assert_eq!(b, 2, "a key not owned by node 2 moved");
            }
        }
    }

    #[test]
    fn add_then_remove_round_trips() {
        let mut ring = HashRing::with_nodes(4, 64);
        let before: Vec<Vec<u32>> = keys(2_000).map(|k| ring.replicas(&k, 2)).collect();
        ring.add_node(9);
        ring.remove_node(9);
        for (k, b) in keys(2_000).zip(before) {
            assert_eq!(ring.replicas(&k, 2), b);
        }
    }
}
