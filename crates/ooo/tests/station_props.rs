//! Property tests for the reservation station.
//!
//! Driving the station the way the KV processor does (issue → execute on
//! a model table → complete; fast paths and chain drains honored), any
//! interleaving over any station geometry must be indistinguishable from
//! a sequential map — the paper's consistency requirement that
//! dependencies are never missed even with false positives.

use std::collections::HashMap;
use std::sync::Arc;

use kvd_ooo::{Admission, KvOpKind, ReservationStation, StationConfig, StationOp};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Put(u8, Vec<u8>),
    Delete(u8),
    Incr(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(|k| Op::Get(k % 16)),
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| Op::Put(k % 16, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 16)),
        any::<u8>().prop_map(|k| Op::Incr(k % 16)),
    ]
}

fn key(k: u8) -> Vec<u8> {
    format!("key{k}").into_bytes()
}

fn to_station(id: u64, op: &Op) -> StationOp {
    let (key, kind) = match op {
        Op::Get(k) => (key(*k), KvOpKind::Get),
        Op::Put(k, v) => (key(*k), KvOpKind::Put(v.clone())),
        Op::Delete(k) => (key(*k), KvOpKind::Delete),
        Op::Incr(k) => (
            key(*k),
            KvOpKind::Update(Arc::new(|old: Option<&[u8]>| {
                let v = old
                    .filter(|b| b.len() >= 8)
                    .map(|b| u64::from_le_bytes(b[..8].try_into().expect("8 bytes")))
                    .unwrap_or(0);
                Some((v + 1).to_le_bytes().to_vec())
            })),
        ),
    };
    StationOp { id, key, kind }
}

/// Drives the station like the processor: a bounded in-flight FIFO,
/// table ops applied at retire time, chains drained with forwarding.
struct Driver {
    rs: ReservationStation,
    table: HashMap<Vec<u8>, Vec<u8>>,
    inflight: std::collections::VecDeque<StationOp>,
    depth: usize,
    results: HashMap<u64, Option<Vec<u8>>>,
}

impl Driver {
    fn new(cfg: StationConfig, depth: usize) -> Self {
        Driver {
            rs: ReservationStation::new(cfg),
            table: HashMap::new(),
            inflight: std::collections::VecDeque::new(),
            depth,
            results: HashMap::new(),
        }
    }

    fn execute(&mut self, op: &StationOp) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        match &op.kind {
            KvOpKind::Get => {
                let v = self.table.get(&op.key).cloned();
                (v.clone(), v)
            }
            KvOpKind::Put(v) => {
                let old = self.table.insert(op.key.clone(), v.clone());
                (old, Some(v.clone()))
            }
            KvOpKind::Delete => (self.table.remove(&op.key), None),
            KvOpKind::Update(f) => {
                let old = self.table.get(&op.key).cloned();
                let new = f(old.as_deref());
                match &new {
                    Some(v) => {
                        self.table.insert(op.key.clone(), v.clone());
                    }
                    None => {
                        self.table.remove(&op.key);
                    }
                }
                (old, new)
            }
        }
    }

    fn retire_one(&mut self) {
        let Some(op) = self.inflight.pop_front() else {
            return;
        };
        let (result, cache) = self.execute(&op);
        self.results.insert(op.id, result);
        let mut completion = self.rs.complete(&op.key, cache);
        loop {
            for r in completion.results.drain(..) {
                self.results.insert(r.id, r.value);
            }
            if let Some((k, v)) = completion.writeback.take() {
                self.apply_writeback(&k, v);
            }
            match completion.issue.take() {
                Some(next) => {
                    let (result, cache) = self.execute(&next);
                    self.results.insert(next.id, result);
                    completion = self.rs.complete(&next.key, cache);
                }
                None => break,
            }
        }
    }

    fn apply_writeback(&mut self, k: &[u8], v: Option<Vec<u8>>) {
        match v {
            Some(v) => {
                self.table.insert(k.to_vec(), v);
            }
            None => {
                self.table.remove(k);
            }
        }
    }

    fn submit(&mut self, mut op: StationOp) {
        loop {
            match self.rs.admit(op) {
                Admission::Fast(r) => {
                    self.results.insert(r.id, r.value);
                    return;
                }
                Admission::Queued => return,
                Admission::Issue { op, writeback } => {
                    if let Some((k, v)) = writeback {
                        self.apply_writeback(&k, v);
                    }
                    self.inflight.push_back(op);
                    if self.inflight.len() >= self.depth {
                        self.retire_one();
                    }
                    return;
                }
                Admission::Full(back) => {
                    self.retire_one();
                    op = back;
                }
            }
        }
    }

    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.retire_one();
        }
        for (k, v) in self.rs.flush() {
            self.apply_writeback(&k, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The station-driven table equals a sequential map, for tiny slot
    /// counts (maximum collisions), tiny capacities (backpressure), and
    /// shallow pipelines (constant chain churn).
    #[test]
    fn station_is_sequentially_consistent(
        ops in prop::collection::vec(op(), 1..200),
        slots in 1usize..16,
        capacity in 2usize..32,
        depth in 1usize..8,
        forwarding in any::<bool>(),
    ) {
        let mut driver = Driver::new(
            StationConfig { hash_slots: slots, capacity, forwarding },
            depth,
        );
        // Sequential reference.
        let mut reference: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let mut expected: Vec<Option<Vec<u8>>> = Vec::new();
        for (i, o) in ops.iter().enumerate() {
            let sop = to_station(i as u64, o);
            // Reference semantics mirror the station result values.
            let exp = match o {
                Op::Get(k) => reference.get(&key(*k)).cloned(),
                Op::Put(k, v) => reference.insert(key(*k), v.clone()),
                Op::Delete(k) => reference.remove(&key(*k)),
                Op::Incr(k) => {
                    let old = reference.get(&key(*k)).cloned();
                    let n = old
                        .as_deref()
                        .filter(|b| b.len() >= 8)
                        .map(|b| u64::from_le_bytes(b[..8].try_into().expect("8")))
                        .unwrap_or(0);
                    reference.insert(key(*k), (n + 1).to_le_bytes().to_vec());
                    old
                }
            };
            expected.push(exp);
            driver.submit(sop);
        }
        driver.drain();
        // Every op produced exactly one result with the right value.
        for (i, exp) in expected.iter().enumerate() {
            let got = driver
                .results
                .get(&(i as u64))
                .unwrap_or_else(|| panic!("op {i} produced no result"));
            prop_assert_eq!(got, exp, "result divergence at op {}", i);
        }
        // Final table state matches.
        prop_assert_eq!(&driver.table, &reference);
        prop_assert_eq!(driver.rs.occupancy(), 0.0);
    }
}
