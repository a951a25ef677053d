//! Chain-replication wire frames for the cluster plane.
//!
//! Client traffic speaks the packed KV format of [`crate::wire`]; the
//! frames here are what cluster members exchange with **each other**:
//! replicated writes travelling down a key's chain, the acks that climb
//! back up it, and the heartbeats failure detection rides on. They share
//! a one-byte tag header and fixed little-endian integer fields so that
//! `wire_len` — which the ledger charges through the node links — is an
//! exact function of the frame, not an estimate.
//!
//! ```text
//! tag u8 (1 = Replicate, 2 = Ack, 3 = Heartbeat)
//! Replicate: write u64, origin u32, op u8, klen u8, vlen u16,
//!            expiry tick u32, key, value
//! Ack:       write u64, from u32
//! Heartbeat: from u32, window u64
//! ```
//!
//! The expiry tick is the write's *absolute* lifecycle stamp (0 = never
//! expires), forwarded verbatim so every chain member installs the same
//! death time — replicas agree on expiry no matter when they apply.
//!
//! `write` is the origin node's monotonically increasing write sequence
//! number; `(origin, write)` names one client write uniquely for the
//! whole run, which is what lets an ack from the tail be matched back to
//! the pending client op and what the orphan-redrive path keys on.

use crate::wire::{next_chunk, KvRequest, OpCode, WireError};

const TAG_REPLICATE: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;

/// One frame on an inter-node link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepFrame {
    /// A client write forwarded down the chain (head → … → tail).
    Replicate {
        /// Origin-local write sequence number.
        write: u64,
        /// Node that accepted the write from the client (chain head).
        origin: u32,
        /// The mutation itself (PUT or DELETE).
        req: KvRequest,
    },
    /// Tail-apply acknowledgement climbing back to the origin.
    Ack {
        /// The acknowledged write's sequence number.
        write: u64,
        /// Node sending the ack (the chain tail).
        from: u32,
    },
    /// Liveness beacon, broadcast every heartbeat interval.
    Heartbeat {
        /// The beaconing node.
        from: u32,
        /// Cluster window in which the beacon was emitted.
        window: u64,
    },
}

impl RepFrame {
    /// Exact encoded size in bytes (the payload charged to the link).
    pub fn wire_len(&self) -> usize {
        match self {
            RepFrame::Replicate { req, .. } => {
                1 + 8 + 4 + 1 + 1 + 2 + 4 + req.key.len() + req.value.len()
            }
            RepFrame::Ack { .. } => 1 + 8 + 4,
            RepFrame::Heartbeat { .. } => 1 + 4 + 8,
        }
    }

    /// Encodes the frame into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        match self {
            RepFrame::Replicate { write, origin, req } => {
                assert!(req.key.len() <= u8::MAX as usize, "replicated key too long");
                assert!(
                    req.value.len() <= u16::MAX as usize,
                    "replicated value too long"
                );
                buf.push(TAG_REPLICATE);
                buf.extend_from_slice(&write.to_le_bytes());
                buf.extend_from_slice(&origin.to_le_bytes());
                buf.extend_from_slice(&[req.op as u8, req.key.len() as u8]);
                buf.extend_from_slice(&(req.value.len() as u16).to_le_bytes());
                buf.extend_from_slice(&req.expiry_tick.to_le_bytes());
                buf.extend_from_slice(&req.key);
                buf.extend_from_slice(&req.value);
            }
            RepFrame::Ack { write, from } => {
                buf.push(TAG_ACK);
                buf.extend_from_slice(&write.to_le_bytes());
                buf.extend_from_slice(&from.to_le_bytes());
            }
            RepFrame::Heartbeat { from, window } => {
                buf.push(TAG_HEARTBEAT);
                buf.extend_from_slice(&from.to_le_bytes());
                buf.extend_from_slice(&window.to_le_bytes());
            }
        }
        buf
    }

    /// Decodes one frame, consuming exactly its bytes from the cursor.
    pub fn decode(buf: &mut &[u8]) -> Result<RepFrame, WireError> {
        let [tag] = next_chunk(buf)?;
        match tag {
            TAG_REPLICATE => {
                let write = u64::from_le_bytes(next_chunk(buf)?);
                let origin = u32::from_le_bytes(next_chunk(buf)?);
                let [op_bits, klen] = next_chunk(buf)?;
                let vlen = u16::from_le_bytes(next_chunk(buf)?) as usize;
                let expiry_tick = u32::from_le_bytes(next_chunk(buf)?);
                let op = match op_bits {
                    b if b == OpCode::Put as u8 => OpCode::Put,
                    b if b == OpCode::Delete as u8 => OpCode::Delete,
                    _ => return Err(WireError::BadCode),
                };
                let (kv, rest) = buf
                    .split_at_checked(klen as usize + vlen)
                    .ok_or(WireError::Truncated)?;
                *buf = rest;
                let (key, value) = kv.split_at(klen as usize);
                Ok(RepFrame::Replicate {
                    write,
                    origin,
                    req: KvRequest {
                        op,
                        key: key.to_vec(),
                        value: value.to_vec(),
                        lambda: 0,
                        deadline_us: 0,
                        expiry_tick,
                    },
                })
            }
            TAG_ACK => Ok(RepFrame::Ack {
                write: u64::from_le_bytes(next_chunk(buf)?),
                from: u32::from_le_bytes(next_chunk(buf)?),
            }),
            TAG_HEARTBEAT => Ok(RepFrame::Heartbeat {
                from: u32::from_le_bytes(next_chunk(buf)?),
                window: u64::from_le_bytes(next_chunk(buf)?),
            }),
            _ => Err(WireError::BadCode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            RepFrame::Replicate {
                write: 42,
                origin: 3,
                req: KvRequest::put(b"user:17", b"hello world"),
            },
            RepFrame::Replicate {
                write: 43,
                origin: 3,
                req: KvRequest::delete(b"user:17"),
            },
            RepFrame::Replicate {
                write: 44,
                origin: 3,
                req: KvRequest::put(b"session:9", b"token").with_ttl(0xDEAD_BEEF),
            },
            RepFrame::Ack { write: 42, from: 5 },
            RepFrame::Heartbeat {
                from: 1,
                window: 900,
            },
        ];
        for f in frames {
            let wire = f.encode();
            assert_eq!(wire.len(), f.wire_len(), "wire_len is exact for {f:?}");
            let mut buf: &[u8] = &wire;
            assert_eq!(RepFrame::decode(&mut buf).unwrap(), f);
            assert!(buf.is_empty(), "decode consumed exactly one frame");
        }
    }

    #[test]
    fn truncated_frames_error() {
        let full = RepFrame::Replicate {
            write: 7,
            origin: 0,
            req: KvRequest::put(b"k", b"v"),
        }
        .encode();
        for cut in 0..full.len() {
            let mut buf: &[u8] = &full[..cut];
            assert!(
                RepFrame::decode(&mut buf).is_err(),
                "decode accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn only_mutations_replicate() {
        let mut wire = vec![TAG_REPLICATE];
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        // op GET, klen 1, vlen 0, expiry tick 0, key.
        wire.extend_from_slice(&[OpCode::Get as u8, 1, 0, 0, 0, 0, 0, 0, b'k']);
        let mut buf: &[u8] = &wire;
        assert!(matches!(
            RepFrame::decode(&mut buf),
            Err(WireError::BadCode)
        ));
    }

    #[test]
    fn bad_tag_errors() {
        let mut buf: &[u8] = &[9, 0, 0, 0];
        assert!(matches!(
            RepFrame::decode(&mut buf),
            Err(WireError::BadCode)
        ));
    }
}
