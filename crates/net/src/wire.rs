//! KV operation wire format and the vector operation decoder.
//!
//! Each packet carries a 2-byte count followed by packed operations. Per
//! operation, one header byte holds the opcode and two compression flags
//! (paper §4: "the KV format includes two flag bits to allow copying key
//! and value size, or the value of the previous KV in the packet"):
//!
//! ```text
//! header: [ opcode:4 | same_sizes:1 | same_value:1 | deadline:1 | ttl:1 ]
//! if !same_sizes:  klen u8, vlen u16
//! if func op:      lambda id u16
//! if deadline:     deadline u32 (µs since client epoch)
//! if ttl:          expiry tick u32 (ms since server sim epoch)
//! key bytes
//! if carries value && !same_value: value bytes
//! ```
//!
//! The deadline field is the overload plane's wire currency: a client that
//! stamps a deadline lets the NIC shed the request the moment it is already
//! late, instead of spending reservation-station slots and DMA tags on a
//! response nobody is waiting for.
//!
//! The ttl field (formerly the reserved header bit, so legacy frames —
//! which never set it — decode unchanged with `expiry_tick = 0`) is the
//! entry-lifecycle plane's wire currency: a PUT stamped with an expiry
//! tick installs a value that dies at that tick. The stamp is *absolute*
//! (coarse ticks since the serving node's simulated epoch, not a
//! relative duration), so chain replication forwards the exact stamp and
//! every replica agrees on the death time regardless of when it applies
//! the write.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Operation codes — the KV-Direct operations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// `get(k) → v`
    Get = 0,
    /// `put(k, v) → bool`
    Put = 1,
    /// `delete(k) → bool`
    Delete = 2,
    /// `update_scalar2scalar(k, Δ, λ) → v`
    UpdateScalar = 3,
    /// `update_scalar2vector(k, Δ, λ) → [v]`
    UpdateScalarToVector = 4,
    /// `update_vector2vector(k, [Δ], λ) → [v]`
    UpdateVector = 5,
    /// `reduce(k, Σ, λ) → Σ`
    Reduce = 6,
    /// `filter(k, λ) → [v]`
    Filter = 7,
}

impl OpCode {
    fn from_bits(b: u8) -> Option<OpCode> {
        Some(match b {
            0 => OpCode::Get,
            1 => OpCode::Put,
            2 => OpCode::Delete,
            3 => OpCode::UpdateScalar,
            4 => OpCode::UpdateScalarToVector,
            5 => OpCode::UpdateVector,
            6 => OpCode::Reduce,
            7 => OpCode::Filter,
            _ => return None,
        })
    }

    /// Whether the request carries a value/parameter payload.
    pub fn carries_value(self) -> bool {
        !matches!(self, OpCode::Get | OpCode::Delete | OpCode::Filter)
    }

    /// Whether the request names a pre-registered λ function.
    pub fn is_func(self) -> bool {
        matches!(
            self,
            OpCode::UpdateScalar
                | OpCode::UpdateScalarToVector
                | OpCode::UpdateVector
                | OpCode::Reduce
                | OpCode::Filter
        )
    }
}

const FLAG_SAME_SIZES: u8 = 1 << 4;
const FLAG_SAME_VALUE: u8 = 1 << 5;
const FLAG_DEADLINE: u8 = 1 << 6;
const FLAG_TTL: u8 = 1 << 7;

/// One KV request as decoded by the KV processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRequest {
    /// The operation.
    pub op: OpCode,
    /// The key.
    pub key: Vec<u8>,
    /// Value (PUT) or parameter (vector ops); empty when absent.
    pub value: Vec<u8>,
    /// Pre-registered λ id for func ops.
    pub lambda: u16,
    /// Completion deadline in µs since the client's epoch; 0 means no
    /// deadline. Requests past their deadline are shed (`Status::Expired`)
    /// instead of executed.
    pub deadline_us: u32,
    /// Absolute expiry tick of the stored entry (coarse ticks since the
    /// serving node's simulated epoch, see `kvd_hash::EXPIRY_TICK_US`);
    /// 0 means the entry never expires. Only meaningful on PUT.
    pub expiry_tick: u32,
}

impl KvRequest {
    /// A GET request.
    pub fn get(key: &[u8]) -> Self {
        KvRequest {
            op: OpCode::Get,
            key: key.to_vec(),
            value: Vec::new(),
            lambda: 0,
            deadline_us: 0,
            expiry_tick: 0,
        }
    }

    /// A PUT request.
    pub fn put(key: &[u8], value: &[u8]) -> Self {
        KvRequest {
            op: OpCode::Put,
            key: key.to_vec(),
            value: value.to_vec(),
            lambda: 0,
            deadline_us: 0,
            expiry_tick: 0,
        }
    }

    /// A DELETE request.
    pub fn delete(key: &[u8]) -> Self {
        KvRequest {
            op: OpCode::Delete,
            key: key.to_vec(),
            value: Vec::new(),
            lambda: 0,
            deadline_us: 0,
            expiry_tick: 0,
        }
    }

    /// Stamps a completion deadline (µs since the client epoch; must be
    /// non-zero — zero is the "no deadline" sentinel).
    pub fn with_deadline(mut self, deadline_us: u32) -> Self {
        debug_assert!(deadline_us != 0, "0 is the no-deadline sentinel");
        self.deadline_us = deadline_us;
        self
    }

    /// Stamps an entry lifecycle: the stored value dies at `expiry_tick`
    /// (absolute tick; must be non-zero — zero is the "never expires"
    /// sentinel).
    pub fn with_ttl(mut self, expiry_tick: u32) -> Self {
        debug_assert!(expiry_tick != 0, "0 is the never-expires sentinel");
        self.expiry_tick = expiry_tick;
        self
    }
}

/// A borrowed view of one KV request — the hot-path currency.
///
/// The embedder API and the simulation's processor loop execute millions
/// of operations whose keys and parameters already live in caller-owned
/// buffers; routing them through [`KvRequest`] would clone both on every
/// operation. `KvRequestRef` carries the same fields by reference, so the
/// only allocation left on the execute path is the one the reservation
/// station needs to own the key.
///
/// # Examples
///
/// ```
/// use kvd_net::{KvRequest, KvRequestRef, OpCode};
///
/// let owned = KvRequest::put(b"k", b"v");
/// let borrowed = owned.as_ref();
/// assert_eq!(borrowed.op, OpCode::Put);
/// assert_eq!(borrowed.key, b"k");
/// assert_eq!(borrowed, owned.as_ref());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvRequestRef<'a> {
    /// The operation.
    pub op: OpCode,
    /// The key.
    pub key: &'a [u8],
    /// Value (PUT) or parameter (vector ops); empty when absent.
    pub value: &'a [u8],
    /// Pre-registered λ id for func ops.
    pub lambda: u16,
    /// Completion deadline in µs since the client's epoch; 0 = none.
    pub deadline_us: u32,
    /// Absolute expiry tick of the stored entry; 0 = never expires.
    pub expiry_tick: u32,
}

impl<'a> KvRequestRef<'a> {
    /// A borrowed GET request.
    #[inline]
    pub fn get(key: &'a [u8]) -> Self {
        KvRequestRef {
            op: OpCode::Get,
            key,
            value: &[],
            lambda: 0,
            deadline_us: 0,
            expiry_tick: 0,
        }
    }

    /// A borrowed PUT request.
    #[inline]
    pub fn put(key: &'a [u8], value: &'a [u8]) -> Self {
        KvRequestRef {
            op: OpCode::Put,
            key,
            value,
            lambda: 0,
            deadline_us: 0,
            expiry_tick: 0,
        }
    }

    /// A borrowed PUT request with an entry lifecycle stamp.
    #[inline]
    pub fn put_ttl(key: &'a [u8], value: &'a [u8], expiry_tick: u32) -> Self {
        KvRequestRef {
            op: OpCode::Put,
            key,
            value,
            lambda: 0,
            deadline_us: 0,
            expiry_tick,
        }
    }

    /// A borrowed DELETE request.
    #[inline]
    pub fn delete(key: &'a [u8]) -> Self {
        KvRequestRef {
            op: OpCode::Delete,
            key,
            value: &[],
            lambda: 0,
            deadline_us: 0,
            expiry_tick: 0,
        }
    }
}

impl KvRequest {
    /// Borrows this request as a [`KvRequestRef`].
    #[inline]
    pub fn as_ref(&self) -> KvRequestRef<'_> {
        KvRequestRef {
            op: self.op,
            key: &self.key,
            value: &self.value,
            lambda: self.lambda,
            deadline_us: self.deadline_us,
            expiry_tick: self.expiry_tick,
        }
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Operation succeeded.
    #[default]
    Ok = 0,
    /// Key not found.
    NotFound = 1,
    /// Out of memory.
    OutOfMemory = 2,
    /// Malformed request or unregistered λ.
    Invalid = 3,
    /// A device-level fault (DMA retry budget exhausted); the operation
    /// was not applied and may be retried by the client.
    DeviceError = 4,
    /// Shed by admission control before execution; the operation was not
    /// applied. Clients should back off and may retry.
    Overloaded = 5,
    /// The request's deadline had already passed when it reached the
    /// processor; it was dropped without executing.
    Expired = 6,
}

impl Status {
    fn from_bits(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::OutOfMemory,
            3 => Status::Invalid,
            4 => Status::DeviceError,
            5 => Status::Overloaded,
            6 => Status::Expired,
            _ => return None,
        })
    }
}

/// One KV response. The default is a blank slot — `Ok`, no value — for
/// an executor to answer in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvResponse {
    /// Outcome.
    pub status: Status,
    /// Returned value (GET, UPDATE originals, REDUCE result, FILTER
    /// output); empty when none.
    pub value: Vec<u8>,
}

/// Errors produced by the decoder.
///
/// Length-field failures carry the claimed and available byte counts so
/// a server can log *why* a packet was rejected (and a fuzzer can
/// assert the decoder attributed the failure to the right field)
/// instead of collapsing every short packet into one opaque variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Packet ended inside a fixed-size field (count, header, size
    /// triplet, λ id, deadline, or response status).
    Truncated,
    /// Unknown opcode or status.
    BadCode,
    /// First op of a packet used a copy flag.
    DanglingCopyFlag,
    /// A key length field promised more bytes than the packet holds.
    ShortKey {
        /// Bytes the length field claimed.
        want: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A value length field promised more bytes than the packet holds.
    ShortValue {
        /// Bytes the length field claimed.
        want: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The packet's op count cannot fit in the remaining bytes even at
    /// the minimum one byte per operation — the count field itself is
    /// corrupt or the packet was cut.
    OversizedCount {
        /// Operations the count field claimed.
        count: usize,
        /// Bytes remaining after the count field.
        have: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadCode => write!(f, "unknown opcode or status"),
            WireError::DanglingCopyFlag => write!(f, "copy flag on first op"),
            WireError::ShortKey { want, have } => {
                write!(f, "key length {want} exceeds {have} remaining bytes")
            }
            WireError::ShortValue { want, have } => {
                write!(f, "value length {want} exceeds {have} remaining bytes")
            }
            WireError::OversizedCount { count, have } => {
                write!(f, "op count {count} cannot fit in {have} remaining bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a batch of requests into one packet payload, applying the
/// same-sizes / same-value compression automatically.
///
/// # Examples
///
/// ```
/// use kvd_net::{decode_packet_ref, encode_packet, KvRequest};
///
/// let ops = vec![
///     KvRequest::put(b"key1", b"value"),
///     KvRequest::put(b"key2", b"value"), // same sizes AND same value
/// ];
/// let bytes = encode_packet(&ops);
/// let decoded = decode_packet_ref(&bytes).unwrap();
/// assert_eq!(decoded[1], ops[1].as_ref());
/// // The second op elides sizes and value: only header + key.
/// assert!(bytes.len() < 2 * (1 + 3 + 4 + 5) + 2);
/// ```
pub fn encode_packet(ops: &[KvRequest]) -> Bytes {
    assert!(ops.len() <= u16::MAX as usize, "batch too large");
    let mut buf = BytesMut::new();
    buf.put_u16_le(ops.len() as u16);
    let mut prev: Option<&KvRequest> = None;
    for op in ops {
        debug_assert!(op.key.len() <= u8::MAX as usize, "key too long for wire");
        debug_assert!(
            op.value.len() <= u16::MAX as usize,
            "value too long for wire"
        );
        let mut header = op.op as u8;
        let same_sizes =
            prev.is_some_and(|p| p.key.len() == op.key.len() && p.value.len() == op.value.len());
        let same_value = op.op.carries_value()
            && prev.is_some_and(|p| p.value == op.value && !op.value.is_empty());
        if same_sizes {
            header |= FLAG_SAME_SIZES;
        }
        if same_value {
            header |= FLAG_SAME_VALUE;
        }
        if op.deadline_us != 0 {
            header |= FLAG_DEADLINE;
        }
        if op.expiry_tick != 0 {
            header |= FLAG_TTL;
        }
        buf.put_u8(header);
        if !same_sizes {
            buf.put_u8(op.key.len() as u8);
            buf.put_u16_le(op.value.len() as u16);
        }
        if op.op.is_func() {
            buf.put_u16_le(op.lambda);
        }
        if op.deadline_us != 0 {
            buf.put_u32_le(op.deadline_us);
        }
        if op.expiry_tick != 0 {
            buf.put_u32_le(op.expiry_tick);
        }
        buf.put_slice(&op.key);
        if op.op.carries_value() && !same_value {
            buf.put_slice(&op.value);
        }
        prev = Some(op);
    }
    buf.freeze()
}

/// Decodes a packet payload into borrowed requests — the zero-copy
/// NIC-side decoder. Keys and values are slices straight off `bytes`,
/// and a `same_value` copy flag resolves to the *same* borrowed slice
/// as the previous request (the owned decoder used to clone the
/// previous value for every chained flag).
///
/// # Examples
///
/// ```
/// use kvd_net::{decode_packet_ref, encode_packet, KvRequest};
///
/// let ops = vec![
///     KvRequest::put(b"key1", b"value"),
///     KvRequest::put(b"key2", b"value"), // value elided on the wire
/// ];
/// let bytes = encode_packet(&ops);
/// let refs = decode_packet_ref(&bytes).unwrap();
/// assert_eq!(refs[1], ops[1].as_ref());
/// // Both requests borrow the one value payload in the packet.
/// assert!(std::ptr::eq(refs[0].value, refs[1].value));
/// ```
pub fn decode_packet_ref(bytes: &[u8]) -> Result<Vec<KvRequestRef<'_>>, WireError> {
    fn take<'a>(bytes: &'a [u8], off: &mut usize, n: usize) -> Result<&'a [u8], WireError> {
        let end = off.checked_add(n).ok_or(WireError::Truncated)?;
        if end > bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &bytes[*off..end];
        *off = end;
        Ok(s)
    }
    let mut off = 0usize;
    let n = {
        let s = take(bytes, &mut off, 2)?;
        u16::from_le_bytes([s[0], s[1]]) as usize
    };
    // Every operation occupies at least its one header byte, so a count
    // the remaining bytes cannot possibly satisfy is rejected up front
    // (with the count attributed) instead of surfacing as a generic
    // truncation N ops in.
    if n > bytes.len() - off {
        return Err(WireError::OversizedCount {
            count: n,
            have: bytes.len() - off,
        });
    }
    let mut out: Vec<KvRequestRef<'_>> = Vec::with_capacity(n);
    for _ in 0..n {
        let header = take(bytes, &mut off, 1)?[0];
        let op = OpCode::from_bits(header & 0x0F).ok_or(WireError::BadCode)?;
        let same_sizes = header & FLAG_SAME_SIZES != 0;
        let same_value = header & FLAG_SAME_VALUE != 0;
        let (klen, vlen) = if same_sizes {
            let prev = out.last().ok_or(WireError::DanglingCopyFlag)?;
            (prev.key.len(), prev.value.len())
        } else {
            let s = take(bytes, &mut off, 3)?;
            (s[0] as usize, u16::from_le_bytes([s[1], s[2]]) as usize)
        };
        let lambda = if op.is_func() {
            let s = take(bytes, &mut off, 2)?;
            u16::from_le_bytes([s[0], s[1]])
        } else {
            0
        };
        let deadline_us = if header & FLAG_DEADLINE != 0 {
            let s = take(bytes, &mut off, 4)?;
            u32::from_le_bytes([s[0], s[1], s[2], s[3]])
        } else {
            0
        };
        let expiry_tick = if header & FLAG_TTL != 0 {
            let s = take(bytes, &mut off, 4)?;
            u32::from_le_bytes([s[0], s[1], s[2], s[3]])
        } else {
            0
        };
        let key = take(bytes, &mut off, klen).map_err(|_| WireError::ShortKey {
            want: klen,
            have: bytes.len() - off,
        })?;
        let value: &[u8] = if op.carries_value() {
            if same_value {
                out.last().ok_or(WireError::DanglingCopyFlag)?.value
            } else {
                take(bytes, &mut off, vlen).map_err(|_| WireError::ShortValue {
                    want: vlen,
                    have: bytes.len() - off,
                })?
            }
        } else {
            &[]
        };
        out.push(KvRequestRef {
            op,
            key,
            value,
            lambda,
            deadline_us,
            expiry_tick,
        });
    }
    Ok(out)
}

/// Encodes a batch of responses.
pub fn encode_responses(rs: &[KvResponse]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u16_le(rs.len() as u16);
    for r in rs {
        buf.put_u8(r.status as u8);
        buf.put_u16_le(r.value.len() as u16);
        buf.put_slice(&r.value);
    }
    buf.freeze()
}

/// Decodes a batch of responses.
pub fn decode_responses(mut bytes: &[u8]) -> Result<Vec<KvResponse>, WireError> {
    if bytes.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let n = bytes.get_u16_le() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if bytes.remaining() < 3 {
            return Err(WireError::Truncated);
        }
        let status = Status::from_bits(bytes.get_u8()).ok_or(WireError::BadCode)?;
        let vlen = bytes.get_u16_le() as usize;
        if bytes.remaining() < vlen {
            return Err(WireError::ShortValue {
                want: vlen,
                have: bytes.remaining(),
            });
        }
        let value = bytes[..vlen].to_vec();
        bytes.advance(vlen);
        out.push(KvResponse { status, value });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The borrowed form of `ops`, which a decode of their packet equals.
    fn borrowed(ops: &[KvRequest]) -> Vec<KvRequestRef<'_>> {
        ops.iter().map(KvRequest::as_ref).collect()
    }

    #[test]
    fn roundtrip_mixed_batch() {
        let ops = vec![
            KvRequest::get(b"alpha"),
            KvRequest::put(b"beta", b"123456"),
            KvRequest::delete(b"gamma"),
            KvRequest {
                op: OpCode::UpdateScalar,
                key: b"counter".to_vec(),
                value: 5u64.to_le_bytes().to_vec(),
                lambda: 42,
                deadline_us: 0,
                expiry_tick: 0,
            },
            KvRequest {
                op: OpCode::Reduce,
                key: b"vec".to_vec(),
                value: 0u64.to_le_bytes().to_vec(),
                lambda: 7,
                deadline_us: 0,
                expiry_tick: 0,
            },
            KvRequest {
                op: OpCode::Filter,
                key: b"vec2".to_vec(),
                value: Vec::new(),
                lambda: 9,
                deadline_us: 0,
                expiry_tick: 0,
            },
        ];
        let bytes = encode_packet(&ops);
        assert_eq!(decode_packet_ref(&bytes).unwrap(), borrowed(&ops));
    }

    #[test]
    fn same_size_compression_saves_bytes() {
        // 64 PUTs with identical shapes but distinct values: sizes elided
        // after the first, values still carried.
        let ops: Vec<KvRequest> = (0..64u64)
            .map(|i| KvRequest::put(&i.to_le_bytes(), &(i + 1000).to_le_bytes()))
            .collect();
        let bytes = encode_packet(&ops);
        // First op: 1 + 3 + 8 + 8 = 20; rest: 1 + 8 + 8 = 17.
        assert_eq!(bytes.len(), 2 + 20 + 63 * 17);
        assert_eq!(decode_packet_ref(&bytes).unwrap(), borrowed(&ops));
    }

    #[test]
    fn same_value_compression() {
        // Identical values: elided entirely (graph workloads write the
        // same weight to many edges).
        let ops: Vec<KvRequest> = (0..10u64)
            .map(|i| KvRequest::put(&i.to_le_bytes(), b"same-value!!"))
            .collect();
        let bytes = encode_packet(&ops);
        let naive: usize = ops
            .iter()
            .map(|o| 1 + 3 + o.key.len() + o.value.len())
            .sum();
        assert!(bytes.len() < naive - 9 * 12 + 16, "no value elision?");
        assert_eq!(decode_packet_ref(&bytes).unwrap(), borrowed(&ops));
    }

    #[test]
    fn empty_batch() {
        let bytes = encode_packet(&[]);
        assert_eq!(decode_packet_ref(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn truncated_packets_rejected() {
        let ops = vec![KvRequest::put(b"key", b"value")];
        let bytes = encode_packet(&ops);
        for cut in 0..bytes.len() {
            assert!(
                decode_packet_ref(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        let mut bytes = encode_packet(&[KvRequest::get(b"k")]).to_vec();
        bytes[2] = 0x0F; // opcode 15
        assert_eq!(decode_packet_ref(&bytes), Err(WireError::BadCode));
    }

    #[test]
    fn responses_roundtrip() {
        let rs = vec![
            KvResponse {
                status: Status::Ok,
                value: b"v".to_vec(),
            },
            KvResponse {
                status: Status::NotFound,
                value: Vec::new(),
            },
            KvResponse {
                status: Status::OutOfMemory,
                value: Vec::new(),
            },
        ];
        let bytes = encode_responses(&rs);
        assert_eq!(decode_responses(&bytes).unwrap(), rs);
    }

    #[test]
    fn deadlines_roundtrip_and_cost_nothing_when_absent() {
        let with = vec![
            KvRequest::get(b"k1").with_deadline(1_000),
            KvRequest::put(b"k2", b"vvv").with_deadline(u32::MAX),
            KvRequest::get(b"k3"), // mixed: no deadline on this one
        ];
        let bytes = encode_packet(&with);
        assert_eq!(decode_packet_ref(&bytes).unwrap(), borrowed(&with));

        let without: Vec<KvRequest> = with
            .iter()
            .cloned()
            .map(|mut r| {
                r.deadline_us = 0;
                r
            })
            .collect();
        let plain = encode_packet(&without);
        assert_eq!(bytes.len(), plain.len() + 2 * 4, "4 bytes per deadline");
    }

    #[test]
    fn ttl_stamps_roundtrip_and_cost_nothing_when_absent() {
        let with = vec![
            KvRequest::put(b"k1", b"v1").with_ttl(1),
            KvRequest::put(b"k2", b"v2").with_ttl(u32::MAX),
            KvRequest::put(b"k3", b"v3"), // mixed: immortal
            KvRequest::put(b"k4", b"v4").with_deadline(9).with_ttl(77),
        ];
        let bytes = encode_packet(&with);
        assert_eq!(decode_packet_ref(&bytes).unwrap(), borrowed(&with));

        let without: Vec<KvRequest> = with
            .iter()
            .cloned()
            .map(|mut r| {
                r.expiry_tick = 0;
                r
            })
            .collect();
        let plain = encode_packet(&without);
        assert_eq!(bytes.len(), plain.len() + 3 * 4, "4 bytes per stamp");
    }

    #[test]
    fn legacy_frames_decode_with_zero_ttl() {
        // A frame encoded before the ttl bit existed never sets it; the
        // decoder must yield expiry_tick = 0 (never expires), and the
        // encoder must produce byte-identical frames for ttl-less ops.
        let ops = vec![
            KvRequest::get(b"alpha"),
            KvRequest::put(b"beta", b"123456").with_deadline(50),
            KvRequest::delete(b"gamma"),
        ];
        let bytes = encode_packet(&ops);
        for b in bytes.iter().skip(2) {
            // No header byte in this batch carries the ttl bit.
            // (Key/value bytes can, but headers are what gate decoding;
            // spot-check the three known header offsets instead.)
            let _ = b;
        }
        assert_eq!(bytes[2] & FLAG_TTL, 0, "first header has no ttl bit");
        let decoded = decode_packet_ref(&bytes).unwrap();
        assert!(decoded.iter().all(|r| r.expiry_tick == 0));
        assert_eq!(decoded, borrowed(&ops));
    }

    #[test]
    fn ttl_decodes_borrowed_and_owned_identically() {
        let ops = vec![
            KvRequest::put(b"a", b"v").with_ttl(123),
            KvRequest::put(b"b", b"v").with_ttl(123), // same sizes + value
        ];
        let bytes = encode_packet(&ops);
        let refs = decode_packet_ref(&bytes).unwrap();
        assert_eq!(refs[0].expiry_tick, 123);
        assert_eq!(refs[1].expiry_tick, 123);
        assert_eq!(refs, borrowed(&ops));
    }

    #[test]
    fn overload_statuses_roundtrip() {
        let rs = vec![
            KvResponse {
                status: Status::Overloaded,
                value: Vec::new(),
            },
            KvResponse {
                status: Status::Expired,
                value: Vec::new(),
            },
        ];
        let bytes = encode_responses(&rs);
        assert_eq!(decode_responses(&bytes).unwrap(), rs);
    }

    #[test]
    fn chained_copy_flags_share_one_borrowed_value() {
        // Regression: the owned decoder used to re-clone the previous
        // request's value for every chained same-value flag; the
        // borrowing decoder must resolve an arbitrarily long chain to
        // the single value payload carried on the wire.
        let ops: Vec<KvRequest> = (0..8u64)
            .map(|i| KvRequest::put(&i.to_le_bytes(), b"shared-payload"))
            .collect();
        let bytes = encode_packet(&ops);
        let refs = decode_packet_ref(&bytes).unwrap();
        assert_eq!(refs.len(), 8);
        for (r, o) in refs.iter().copied().zip(&ops) {
            assert_eq!(r, o.as_ref());
        }
        // Every request in the chain borrows the exact same slice.
        for w in refs.windows(2) {
            assert!(std::ptr::eq(w[0].value, w[1].value), "value re-copied");
        }
        // The slice points into the packet buffer itself.
        let payload = refs[0].value;
        let base = bytes.as_ptr() as usize;
        let p = payload.as_ptr() as usize;
        assert!(p >= base && p + payload.len() <= base + bytes.len());
        // The owned wrapper agrees with the borrowed decode.
        assert_eq!(decode_packet_ref(&bytes).unwrap(), borrowed(&ops));
    }

    #[test]
    fn dangling_copy_flags_rejected_by_both_decoders() {
        // Hand-craft packets whose first op uses a copy flag.
        for flag in [FLAG_SAME_SIZES, FLAG_SAME_VALUE] {
            let mut bytes = vec![1, 0]; // count = 1
            bytes.push(OpCode::Put as u8 | flag);
            if flag == FLAG_SAME_VALUE {
                bytes.extend_from_slice(&[1, 1, 0]); // klen 1, vlen 1
            }
            bytes.push(b'k');
            assert_eq!(
                decode_packet_ref(&bytes).unwrap_err(),
                WireError::DanglingCopyFlag,
                "flag {flag:#x}"
            );
            assert_eq!(
                decode_packet_ref(&bytes).unwrap_err(),
                WireError::DanglingCopyFlag,
                "flag {flag:#x}"
            );
        }
    }

    #[test]
    fn borrowed_decode_matches_owned_on_mixed_batch() {
        let ops = vec![
            KvRequest::get(b"alpha"),
            KvRequest::put(b"beta", b"123456"),
            KvRequest::put(b"gama", b"123456"), // same sizes + same value
            KvRequest::delete(b"omega"),
            KvRequest {
                op: OpCode::UpdateScalar,
                key: b"counter".to_vec(),
                value: 5u64.to_le_bytes().to_vec(),
                lambda: 42,
                deadline_us: 0,
                expiry_tick: 0,
            },
            KvRequest::get(b"k3").with_deadline(77),
        ];
        let bytes = encode_packet(&ops);
        assert_eq!(decode_packet_ref(&bytes).unwrap(), borrowed(&ops));
    }

    #[test]
    fn short_key_field_names_the_deficit() {
        // count=1, GET, klen=5, vlen=0 — but only 2 key bytes follow.
        let bytes = [1, 0, OpCode::Get as u8, 5, 0, 0, b'a', b'b'];
        let want = WireError::ShortKey { want: 5, have: 2 };
        assert_eq!(decode_packet_ref(&bytes).unwrap_err(), want);
        assert_eq!(decode_packet_ref(&bytes).unwrap_err(), want);
    }

    #[test]
    fn short_value_field_names_the_deficit() {
        // count=1, PUT, klen=1, vlen=300 — key present, 3 value bytes.
        let mut bytes = vec![1, 0, OpCode::Put as u8, 1];
        bytes.extend_from_slice(&300u16.to_le_bytes());
        bytes.push(b'k');
        bytes.extend_from_slice(b"abc");
        assert_eq!(
            decode_packet_ref(&bytes).unwrap_err(),
            WireError::ShortValue { want: 300, have: 3 }
        );
    }

    #[test]
    fn oversized_count_rejected_up_front() {
        // A count field claiming 65535 ops against 3 trailing bytes is
        // attributed to the count, not misreported as a truncated op.
        let bytes = [0xFF, 0xFF, OpCode::Get as u8, 1, 0];
        assert_eq!(
            decode_packet_ref(&bytes).unwrap_err(),
            WireError::OversizedCount {
                count: 65_535,
                have: 3
            }
        );
        // A count that *exactly* fits minimum-size ops still decodes into
        // the per-op path (where it may legitimately fail further in).
        let ok_count = encode_packet(&[KvRequest::get(b"k")]);
        assert!(decode_packet_ref(&ok_count).is_ok());
    }

    #[test]
    fn short_response_value_names_the_deficit() {
        // count=1, status Ok, vlen=10, only 4 value bytes.
        let mut bytes = vec![1, 0, Status::Ok as u8];
        bytes.extend_from_slice(&10u16.to_le_bytes());
        bytes.extend_from_slice(b"abcd");
        assert_eq!(
            decode_responses(&bytes).unwrap_err(),
            WireError::ShortValue { want: 10, have: 4 }
        );
    }

    #[test]
    fn fixed_field_truncations_still_generic() {
        // Cut inside the 2-byte count and inside the size triplet: these
        // are not length-field failures and keep the generic variant.
        assert_eq!(decode_packet_ref(&[1]).unwrap_err(), WireError::Truncated);
        let bytes = [1, 0, OpCode::Get as u8, 5]; // size triplet cut short
        assert_eq!(decode_packet_ref(&bytes).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn get_after_put_does_not_inherit_value() {
        // GET carries no value even when flags could apply.
        let ops = vec![KvRequest::put(b"aaaa", b"vvvv"), KvRequest::get(b"bbbb")];
        let bytes = encode_packet(&ops);
        let decoded = decode_packet_ref(&bytes).unwrap();
        assert!(decoded[1].value.is_empty());
    }
}
