//! The reference model every differential and soak test checks the store
//! against: the paper's claim (§3.3.3) that the NIC — station, hash
//! table, slab allocator, write-back caches — is indistinguishable from a
//! sequential map per key, atomics included, written down once. It
//! depends on the wire types only, never on the engine it judges, and
//! implements the builtin ADD λ itself.

use std::collections::{BTreeMap, HashMap};

use kvd_net::Status::{DeviceError, Expired, Invalid, OutOfMemory, Overloaded};
use kvd_net::{KvRequest, KvRequestRef, OpCode, Status};
use kvd_sim::SimTime;
use proptest::prelude::*;

/// The failure statuses whose contract is *no effect*: shed, expired,
/// faulted or rejected before anything changed.
pub const NO_EFFECT: [Status; 5] = [DeviceError, Overloaded, Expired, OutOfMemory, Invalid];

/// Builtin λ id of fetch-and-add (`kvd_core::lambda::builtin::ADD`).
pub const ADD: u16 = 1;

/// What a checked response did to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Observed the map (a hit or a miss) without changing it.
    Read,
    /// Changed the map.
    Applied,
    /// A tolerated failure status: no effect.
    Refused,
}

/// A fetch-add operand or stored counter: an absent or short value reads
/// as 0.
fn scalar(value: Option<&[u8]>) -> u64 {
    let head = value.and_then(|v| v.get(..8));
    head.map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// The sequential map the store must be indistinguishable from; the
/// default is empty, at tick 0, and tolerates no failure status.
#[derive(Debug, Default)]
pub struct Model {
    /// Value and expiry stamp per key, in key order so that a run's
    /// read-back order repeats.
    map: BTreeMap<Vec<u8>, (Vec<u8>, u32)>,
    now: u32,
    tolerated: Vec<Status>,
    /// Highest version read per key, when monotonicity is checked.
    floors: Option<HashMap<Vec<u8>, u64>>,
}

impl Model {
    /// Accepts `statuses` (a subset of [`NO_EFFECT`]) as refusals with no
    /// effect; any other failure status is a divergence.
    pub fn tolerating(mut self, statuses: &[Status]) -> Self {
        assert!(statuses.iter().all(|s| NO_EFFECT.contains(s)));
        self.tolerated = statuses.to_vec();
        self
    }

    /// Also checks that the [`version_of`] values read per key never run
    /// backwards over the key's whole history, deletes included.
    pub fn checking_versions(mut self) -> Self {
        self.floors = Some(HashMap::new());
        self
    }

    /// Moves the model's clock to tick `now`.
    pub fn set_now(&mut self, now: u32) {
        self.now = now;
    }

    /// Inserts an immortal entry without a request (a preload).
    pub fn insert(&mut self, key: &[u8], value: &[u8]) {
        self.map.insert(key.to_vec(), (value.to_vec(), 0));
    }

    /// Whether an entry stamped `stamp` is live: 0 is immortal, and an
    /// entry dies at its stamp.
    fn live(&self, stamp: u32) -> bool {
        stamp == 0 || stamp > self.now
    }

    /// The live entries.
    pub fn entries(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let live = self.map.iter().filter(|(_, (_, stamp))| self.live(*stamp));
        live.map(|(k, (v, _))| (k.as_slice(), v.as_slice()))
    }

    /// Reclaims `key`'s entry if it is dead, as a store probe does.
    fn probe(&mut self, key: &[u8]) {
        if matches!(self.map.get(key), Some((_, stamp)) if !self.live(*stamp)) {
            self.map.remove(key);
        }
    }

    /// Checks one response to `req` and applies its effect. `value` is the
    /// response's value (GET hit, fetch-add's original). `Err` names the
    /// divergence.
    pub fn check(
        &mut self,
        req: KvRequestRef<'_>,
        status: Status,
        value: &[u8],
    ) -> Result<Effect, String> {
        let (op, key) = (req.op, req.key);
        if NO_EFFECT.contains(&status) {
            return match self.tolerated.contains(&status) {
                true => Ok(Effect::Refused),
                false => Err(format!("{op:?} {key:?} failed with {status:?}")),
            };
        }
        self.probe(key);
        let current = self.map.get(key).map(|(v, _)| v.as_slice());
        match (op, status, current) {
            (OpCode::Get, Status::Ok, Some(want)) if value == want => {
                if let Some(floors) = &mut self.floors {
                    let (v, floor) = (version_of(value), floors.entry(key.to_vec()).or_insert(0));
                    if v < *floor {
                        return Err(format!(
                            "GET {key:?}: version ran backwards ({v} < {floor})"
                        ));
                    }
                    *floor = v;
                }
                Ok(Effect::Read)
            }
            (OpCode::Get | OpCode::Delete, Status::NotFound, None) => Ok(Effect::Read),
            (OpCode::Put, Status::Ok, _) => {
                let entry = (req.value.to_vec(), req.expiry_tick);
                self.map.insert(key.to_vec(), entry);
                Ok(Effect::Applied)
            }
            (OpCode::Delete, Status::Ok, Some(_)) => {
                self.map.remove(key);
                Ok(Effect::Applied)
            }
            (OpCode::UpdateScalar, Status::Ok, _)
                if req.lambda == ADD && value == scalar(current).to_le_bytes() =>
            {
                let sum = scalar(current).wrapping_add(scalar(Some(req.value)));
                let stamp = self.map.get(key).map_or(0, |(_, stamp)| *stamp);
                self.map
                    .insert(key.to_vec(), (sum.to_le_bytes().to_vec(), stamp));
                Ok(Effect::Applied)
            }
            _ => Err(format!(
                "{op:?} {key:?} answered {status:?} {value:?}; the model holds {current:?}"
            )),
        }
    }

    /// Checks a touch of `key` to `stamp` that reported `found`: it must
    /// find exactly the live entries, and restamps the one it finds.
    pub fn check_touch(&mut self, key: &[u8], stamp: u32, found: bool) -> Result<Effect, String> {
        self.probe(key);
        match (self.map.get_mut(key), found) {
            (Some(entry), true) => {
                entry.1 = stamp;
                Ok(Effect::Applied)
            }
            (None, false) => Ok(Effect::Read),
            (entry, _) => Err(format!(
                "touch {key:?} found={found}; the model holds {entry:?}"
            )),
        }
    }
}

/// 16 LE bytes of `(key id, version)`: the soaks' value encoding, so a
/// stale read names the exact write it lost.
pub fn versioned(id: u64, version: u64) -> Vec<u8> {
    [id.to_le_bytes(), version.to_le_bytes()].concat()
}

/// The version of a [`versioned`] value.
pub fn version_of(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[8..16].try_into().expect("16-byte versioned value"))
}

/// One generated operation on one of 24 keys.
#[derive(Debug, Clone)]
pub enum Op {
    Put { key: u8, len: usize },
    Get { key: u8 },
    Delete { key: u8 },
    FetchAdd { key: u8, delta: u64 },
}

/// Uniform over the four ops; PUT values of `0..max_len` bytes, deltas
/// in `1..100`.
pub fn op_strategy(max_len: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0usize..max_len).prop_map(|(key, len)| Op::Put { key: key % 24, len }),
        any::<u8>().prop_map(|key| Op::Get { key: key % 24 }),
        any::<u8>().prop_map(|key| Op::Delete { key: key % 24 }),
        (any::<u8>(), 1u64..100).prop_map(|(key, delta)| Op::FetchAdd {
            key: key % 24,
            delta
        }),
    ]
}

/// The key of generated key `k`.
pub fn key_bytes(k: u8) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

/// A `len`-byte value derived from key `k`.
pub fn value_bytes(k: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| k.wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

/// The wire request of a generated op.
pub fn to_request(op: &Op) -> KvRequest {
    match op {
        Op::Put { key, len } => KvRequest::put(&key_bytes(*key), &value_bytes(*key, *len)),
        Op::Get { key } => KvRequest::get(&key_bytes(*key)),
        Op::Delete { key } => KvRequest::delete(&key_bytes(*key)),
        Op::FetchAdd { key, delta } => KvRequest {
            op: OpCode::UpdateScalar,
            lambda: ADD,
            ..KvRequest::put(&key_bytes(*key), &delta.to_le_bytes())
        },
    }
}

/// How a replicated op resolved: its final status (writes: `Ok` only on
/// a committed write), the value a read observed, whether a tail ack
/// committed the write, and the window it resolved in.
pub type Resolved<'a> = (Status, &'a [u8], bool, u64);

/// One key's mutation, reconstructed from the schedule + records.
struct Mutation {
    /// `Some(version)` for a PUT, `None` for a DELETE.
    put: Option<u64>,
    acked: bool,
    issue_window: u64,
    done_window: u64,
}

/// What the model says a read observes after `p` mutations applied.
fn model_state(muts: &[Mutation], p: usize) -> Option<u64> {
    muts[..p].last().and_then(|m| m.put)
}

fn key_of(req: &KvRequest) -> u64 {
    u64::from_le_bytes(req.key[..8].try_into().expect("8-byte key"))
}

/// Replays every read of `sched` (8-byte LE key ids, [`versioned`]
/// values, windows of `quantum`) against the per-key mutation history;
/// panics with context on the first linearizability violation.
pub fn check_linearizable(
    sched: &[(SimTime, KvRequest)],
    records: &[Resolved<'_>],
    quantum: SimTime,
    label: &str,
) {
    let win = |t: SimTime| t.as_ps() / quantum.as_ps();
    // Client-ordered mutation history per key.
    let mut history: HashMap<u64, Vec<Mutation>> = HashMap::new();
    for ((t, req), &(status, _, acked, done_window)) in sched.iter().zip(records) {
        if matches!(req.op, OpCode::Put | OpCode::Delete) {
            assert!(
                acked && status == Status::Ok,
                "{label}: write to key {} at {t:?} not acked (status {:?}) — \
                 a single node kill at RF>=2 must not fail writes",
                key_of(req),
                status
            );
            history.entry(key_of(req)).or_default().push(Mutation {
                put: (req.op == OpCode::Put).then(|| version_of(&req.value)),
                acked,
                issue_window: win(*t),
                done_window,
            });
        }
    }
    let mut last_seen: HashMap<u64, u64> = HashMap::new();
    for ((t, req), &(status, value, _, done_window)) in sched.iter().zip(records) {
        if req.op != OpCode::Get {
            continue;
        }
        let id = key_of(req);
        let muts = history.get(&id).map_or(&[][..], Vec::as_slice);
        let observed = match status {
            Status::Ok => Some(version_of(value)),
            Status::NotFound => None,
            other => panic!("{label}: read of key {id} failed with {other:?}"),
        };
        // Admissible prefix range: everything committed before the read
        // was issued must be visible; nothing issued after the read
        // resolved can be.
        let issue_w = win(*t);
        let p_min = muts
            .iter()
            .filter(|m| m.acked && m.done_window < issue_w)
            .count();
        let p_max = muts
            .iter()
            .filter(|m| m.issue_window <= done_window)
            .count();
        let admissible = (p_min..=p_max).any(|p| model_state(muts, p) == observed);
        assert!(
            admissible,
            "{label}: read of key {id} at {t:?} observed {observed:?}, but \
             admissible prefixes {p_min}..={p_max} of {} mutations allow {:?}",
            muts.len(),
            (p_min..=p_max)
                .map(|p| model_state(muts, p))
                .collect::<Vec<_>>()
        );
        // Monotonic per-key versions across the failover window.
        if let Some(now) = observed {
            if let Some(prev) = last_seen.insert(id, now) {
                assert!(
                    now >= prev,
                    "{label}: key {id} version went backwards {prev} -> {now}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stamp_equal_to_now_is_dead() {
        let (mut model, get) = (Model::default(), KvRequestRef::get(b"k"));
        model.set_now(10);
        let put = KvRequestRef::put_ttl(b"k", b"v", 11);
        assert_eq!(model.check(put, Status::Ok, &[]), Ok(Effect::Applied));
        assert_eq!(model.check(get, Status::Ok, b"v"), Ok(Effect::Read));
        model.set_now(11);
        assert!(
            model.check(get, Status::Ok, b"v").is_err(),
            "served a dead entry"
        );
        assert_eq!(model.check_touch(b"k", 0, false), Ok(Effect::Read));
        assert_eq!(model.entries().count(), 0);
    }

    #[test]
    fn fetch_add_on_an_absent_key_starts_from_zero() {
        let mut model = Model::default();
        let add = to_request(&Op::FetchAdd { key: 3, delta: 5 });
        let mut check = |old: u64| model.check(add.as_ref(), Status::Ok, &old.to_le_bytes());
        assert!(check(5).is_err(), "the original of an absent key is 0");
        assert_eq!(
            (check(0), check(5)),
            (Ok(Effect::Applied), Ok(Effect::Applied))
        );
        assert!(check(5).is_err() && check(10).is_ok());
    }

    #[test]
    fn every_failure_status_is_a_no_op_or_a_divergence() {
        let (add, get) = (
            to_request(&Op::FetchAdd { key: 0, delta: 1 }),
            KvRequestRef::get(b"k"),
        );
        for status in NO_EFFECT {
            let mut model = Model::default().tolerating(&[status]);
            model.insert(b"k", b"old");
            for req in [
                KvRequestRef::put(b"k", b"new"),
                KvRequestRef::delete(b"k"),
                add.as_ref(),
            ] {
                assert_eq!(model.check(req, status, &[]), Ok(Effect::Refused));
            }
            assert_eq!(
                model.check(get, Status::Ok, b"old"),
                Ok(Effect::Read),
                "{status:?}"
            );
            assert!(
                Model::default().check(get, status, &[]).is_err(),
                "{status:?} passed untolerated"
            );
        }
    }

    /// A write of version 1 to key 0 acked in window 2, then a read
    /// issued at `read_us` (1 µs windows) that misses it in window 6.
    fn missed_write(read_us: u64) {
        let key = 0u64.to_le_bytes();
        let sched = [
            (SimTime::ZERO, KvRequest::put(&key, &versioned(0, 1))),
            (SimTime::from_us(read_us), KvRequest::get(&key)),
        ];
        let records = [
            (Status::Ok, &[][..], true, 2),
            (Status::NotFound, &[], true, 6),
        ];
        check_linearizable(&sched, &records, SimTime::from_us(1), "unit");
    }

    #[test]
    fn a_read_concurrent_with_a_write_may_miss_it() {
        missed_write(1);
    }

    #[test]
    #[should_panic(expected = "admissible prefixes 1..=1")]
    fn a_read_after_an_acked_write_must_see_it() {
        missed_write(5);
    }
}
