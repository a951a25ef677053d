//! The reference model every reply is checked against.
//!
//! One `Model` follows one writer. Keys the writer owns (its residue
//! class; the engine paths own every key) are tracked exactly, so a GET
//! there must return precisely the last value written — read-your-writes.
//! Keys owned by another writer can change under us, so a GET there is
//! held to what can still be known: the value is well-formed, names the
//! requested key and its owner, and its version never goes backwards.
//!
//! The two halves are separate types because an open-loop connection
//! sends from one thread ([`Model::apply`]) and receives on another
//! ([`Checker::check`]).

use crate::gen::{preload_len, read_value, Kind, Op, Spec, Stamp};

/// What the system under test answered, reduced to what the model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<'a> {
    Value(&'a [u8]),
    Miss,
    Stored,
    Deleted,
    NotFound,
    /// An error status, an error line, or anything ill-formed.
    Error,
}

/// What the model expects for one operation, fixed when the operation is
/// generated (a connection's operations on one key are served in order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Value(Stamp),
    Miss,
    Stored,
    Deleted,
    NotFound,
    /// A GET of another writer's key.
    Foreign(u32),
}

#[derive(Debug, Clone, Copy)]
struct KeyState {
    present: bool,
    version: u32,
    len: u16,
}

/// The sending half: the state of the keys this writer owns.
pub struct Model {
    keys: Vec<KeyState>,
    residue: u32,
    modulus: u32,
}

/// The receiving half: judges replies against expectations.
pub struct Checker {
    spec: &'static Spec,
    modulus: u32,
    /// Highest version seen so far per foreign key.
    seen: Vec<u32>,
}

impl Model {
    /// The model of a store preloaded with every key at version 0, seen
    /// by the writer of class `residue` of `modulus`.
    pub fn preloaded(spec: &'static Spec, residue: u32, modulus: u32) -> (Model, Checker) {
        let keys = (0..spec.population)
            .map(|k| KeyState {
                present: true,
                version: 0,
                len: preload_len(spec, k),
            })
            .collect();
        let checker = Checker {
            spec,
            modulus,
            seen: vec![0; spec.population as usize],
        };
        (
            Model {
                keys,
                residue,
                modulus,
            },
            checker,
        )
    }

    fn owns(&self, key: u32) -> bool {
        key % self.modulus == self.residue
    }

    /// Applies `op` in program order and says what its reply must be.
    pub fn apply(&mut self, op: &Op) -> Expect {
        let writer = writer_of(op.key, self.modulus);
        if !self.owns(op.key) {
            assert!(op.kind == Kind::Get, "writes stay in the writer's class");
            return Expect::Foreign(op.key);
        }
        let state = &mut self.keys[op.key as usize];
        match op.kind {
            Kind::Get if state.present => Expect::Value(Stamp {
                key: op.key,
                writer,
                version: state.version,
                len: state.len,
            }),
            Kind::Get => Expect::Miss,
            Kind::Set => {
                *state = KeyState {
                    present: true,
                    version: op.version,
                    len: op.len,
                };
                Expect::Stored
            }
            Kind::Delete if state.present => {
                state.present = false;
                Expect::Deleted
            }
            Kind::Delete => Expect::NotFound,
        }
    }
}

/// Who writes `key`: the residue class doubles as the writer id.
pub fn writer_of(key: u32, modulus: u32) -> u8 {
    (key % modulus) as u8
}

impl Checker {
    /// Whether `reply` is an acceptable answer where `expect` was due.
    pub fn check(&mut self, expect: &Expect, reply: Reply<'_>) -> bool {
        match (*expect, reply) {
            (Expect::Value(want), Reply::Value(bytes)) => read_value(want.key, bytes) == Ok(want),
            (Expect::Miss, Reply::Miss)
            | (Expect::Stored, Reply::Stored)
            | (Expect::Deleted, Reply::Deleted)
            | (Expect::NotFound, Reply::NotFound) => true,
            (Expect::Foreign(key), Reply::Value(bytes)) => match read_value(key, bytes) {
                Ok(got) => {
                    let fresh = got.version >= self.seen[key as usize];
                    self.seen[key as usize] = self.seen[key as usize].max(got.version);
                    fresh
                        && got.writer == writer_of(key, self.modulus)
                        && self.spec.value_lens.contains(&got.len)
                }
                Err(_) => false,
            },
            // A foreign key may be gone only if the mix deletes at all.
            (Expect::Foreign(_), Reply::Miss) => self.spec.get_pct + self.spec.set_pct < 100,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{workload, write_value};

    fn value(key: u32, writer: u8, version: u32, len: u16) -> Vec<u8> {
        let mut v = Vec::new();
        write_value(
            &Stamp {
                key,
                writer,
                version,
                len,
            },
            &mut v,
        );
        v
    }

    #[test]
    fn own_keys_are_read_your_writes() {
        let spec = workload("write_churn_slab").unwrap();
        let (mut m, mut c) = Model::preloaded(spec, 0, 2);
        let set = Op {
            kind: Kind::Set,
            key: 4,
            version: 1,
            len: 100,
        };
        let get = Op {
            kind: Kind::Get,
            key: 4,
            version: 0,
            len: 0,
        };
        let del = Op {
            kind: Kind::Delete,
            key: 4,
            version: 0,
            len: 0,
        };
        assert_eq!(m.apply(&set), Expect::Stored);
        let e = m.apply(&get);
        assert!(c.check(&e, Reply::Value(&value(4, 0, 1, 100))));
        // The preloaded (stale) version is refused, and so is a miss.
        assert!(!c.check(&e, Reply::Value(&value(4, 0, 0, 40))));
        assert!(!c.check(&e, Reply::Miss));
        assert!(!c.check(&e, Reply::Error));
        assert_eq!(m.apply(&del), Expect::Deleted);
        assert_eq!(m.apply(&del), Expect::NotFound);
        assert_eq!(m.apply(&get), Expect::Miss);
    }

    #[test]
    fn foreign_keys_never_go_backwards() {
        let spec = workload("write_churn_slab").unwrap();
        let (mut m, mut c) = Model::preloaded(spec, 0, 2);
        let e = m.apply(&Op {
            kind: Kind::Get,
            key: 5,
            version: 0,
            len: 0,
        });
        assert_eq!(e, Expect::Foreign(5));
        assert!(c.check(&e, Reply::Value(&value(5, 1, 3, 230))));
        assert!(c.check(&e, Reply::Value(&value(5, 1, 3, 230))));
        assert!(
            !c.check(&e, Reply::Value(&value(5, 1, 2, 230))),
            "stale version"
        );
        assert!(
            !c.check(&e, Reply::Value(&value(5, 0, 4, 230))),
            "wrong writer"
        );
        assert!(
            !c.check(&e, Reply::Value(&value(7, 1, 4, 230))),
            "wrong key"
        );
        assert!(
            !c.check(&e, Reply::Value(&value(5, 1, 4, 64))),
            "length outside the mix"
        );
        assert!(c.check(&e, Reply::Miss), "this mix deletes");
        let reads = workload("mget_uniform").unwrap();
        let (_, mut c) = Model::preloaded(reads, 0, 2);
        assert!(
            !c.check(&Expect::Foreign(5), Reply::Miss),
            "nothing deletes here"
        );
    }
}
