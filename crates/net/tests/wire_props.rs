//! Property tests for the wire format.
//!
//! Two classes of guarantee, for request packets, response batches and
//! the cluster's chain-replication frames alike: (1) everything we encode
//! decodes to exactly what went in, for arbitrary mixes including the
//! func-op variants; (2) every decoder is total — arbitrary byte soup
//! (including truncations and bit flips of valid packets) either decodes
//! or returns an error, but never panics and never reads out of bounds.

use kvd_net::{
    decode_packet_ref, decode_responses, encode_packet, encode_responses, KvRequest, KvRequestRef,
    KvResponse, OpCode, RepFrame, Status,
};
use proptest::prelude::*;

/// The borrowed form of `reqs`, which a decode of their packet equals.
fn borrowed(reqs: &[KvRequest]) -> Vec<KvRequestRef<'_>> {
    reqs.iter().map(KvRequest::as_ref).collect()
}

fn request() -> impl Strategy<Value = KvRequest> {
    (
        0u8..8,
        prop::collection::vec(any::<u8>(), 1..32),
        prop::collection::vec(any::<u8>(), 0..64),
        any::<u16>(),
        any::<u32>(),
    )
        .prop_map(|(code, key, value, lambda, deadline_us)| {
            let op = match code {
                0 => OpCode::Get,
                1 => OpCode::Put,
                2 => OpCode::Delete,
                3 => OpCode::UpdateScalar,
                4 => OpCode::UpdateScalarToVector,
                5 => OpCode::UpdateVector,
                6 => OpCode::Reduce,
                _ => OpCode::Filter,
            };
            KvRequest {
                op,
                key,
                value: if op.carries_value() {
                    value
                } else {
                    Vec::new()
                },
                lambda: if op.is_func() { lambda } else { 0 },
                deadline_us,
                expiry_tick: 0,
            }
        })
}

fn response() -> impl Strategy<Value = KvResponse> {
    (0u8..7, prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(code, value)| {
        let status = match code {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::OutOfMemory,
            3 => Status::Invalid,
            4 => Status::DeviceError,
            5 => Status::Overloaded,
            _ => Status::Expired,
        };
        KvResponse { status, value }
    })
}

/// Any frame a cluster member sends: a replicated PUT or DELETE (keys up
/// to the format's 255 B), an ack or a heartbeat.
fn rep_frame() -> impl Strategy<Value = RepFrame> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..256),
            prop::collection::vec(any::<u8>(), 0..64),
            any::<u32>(),
        )
            .prop_map(|(write, origin, put, key, value, expiry_tick)| {
                let req = if put {
                    KvRequest::put(&key, &value)
                } else {
                    KvRequest::delete(&key)
                };
                RepFrame::Replicate {
                    write,
                    origin,
                    req: KvRequest { expiry_tick, ..req },
                }
            }),
        (any::<u64>(), any::<u32>()).prop_map(|(write, from)| RepFrame::Ack { write, from }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(from, window)| RepFrame::Heartbeat { from, window }),
    ]
}

/// The concatenated encodings of `frames`, as a link carries them.
fn encode_frames(frames: &[RepFrame]) -> Vec<u8> {
    frames.iter().flat_map(|f| f.encode().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_arbitrary_batches(reqs in prop::collection::vec(request(), 0..64)) {
        let bytes = encode_packet(&reqs);
        let decoded = decode_packet_ref(&bytes).expect("own encoding must decode");
        prop_assert_eq!(decoded, borrowed(&reqs));
    }

    /// Compression never loses information even with adversarial
    /// repetition patterns (same keys, same values, alternating shapes).
    #[test]
    fn compression_is_lossless(
        base_key in prop::collection::vec(any::<u8>(), 1..8),
        base_val in prop::collection::vec(any::<u8>(), 1..16),
        pattern in prop::collection::vec(any::<bool>(), 1..32),
    ) {
        let reqs: Vec<KvRequest> = pattern
            .iter()
            .enumerate()
            .map(|(i, same)| {
                if *same {
                    KvRequest::put(&base_key, &base_val)
                } else {
                    KvRequest::put(&[i as u8; 4], &[i as u8])
                }
            })
            .collect();
        let bytes = encode_packet(&reqs);
        prop_assert_eq!(decode_packet_ref(&bytes).expect("decodes"), borrowed(&reqs));
    }

    /// The decoder is total on arbitrary bytes.
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_packet_ref(&bytes);
    }

    /// Truncating a valid packet anywhere yields an error or a shorter
    /// valid prefix — never junk data attributed to a whole batch.
    #[test]
    fn truncation_detected(reqs in prop::collection::vec(request(), 1..16), cut_frac in 0.0f64..1.0) {
        let bytes = encode_packet(&reqs);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            // The count header promises more ops than the bytes deliver.
            prop_assert!(decode_packet_ref(&bytes[..cut]).is_err());
        }
    }

    /// Single-byte corruption never panics and never changes the op
    /// count silently on a successful decode beyond what the bytes say.
    #[test]
    fn bitflip_never_panics(reqs in prop::collection::vec(request(), 1..8), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = encode_packet(&reqs).to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = decode_packet_ref(&bytes);
    }

    #[test]
    fn responses_roundtrip(rs in prop::collection::vec(response(), 0..64)) {
        let bytes = encode_responses(&rs);
        prop_assert_eq!(decode_responses(&bytes).expect("own encoding must decode"), rs);
    }

    #[test]
    fn response_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_responses(&bytes);
    }

    /// The count header promises more responses than a cut batch holds.
    #[test]
    fn truncated_responses_detected(rs in prop::collection::vec(response(), 0..16), cut_frac in 0.0f64..1.0) {
        let bytes = encode_responses(&rs);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(decode_responses(&bytes[..cut]).is_err());
    }

    /// A stream of frames decodes frame by frame, each decode consuming
    /// exactly `wire_len` bytes.
    #[test]
    fn rep_frames_roundtrip(frames in prop::collection::vec(rep_frame(), 0..16)) {
        let bytes = encode_frames(&frames);
        let mut cursor: &[u8] = &bytes;
        for f in &frames {
            let before = cursor.len();
            prop_assert_eq!(&RepFrame::decode(&mut cursor).expect("own encoding must decode"), f);
            prop_assert_eq!(before - cursor.len(), f.wire_len());
        }
        prop_assert!(cursor.is_empty());
    }

    /// The first byte is biased to the three tags, so every arm meets
    /// junk fields and lengths.
    #[test]
    fn rep_frame_decoder_never_panics(tag in 0u8..4, rest in prop::collection::vec(any::<u8>(), 0..512)) {
        let bytes: Vec<u8> = std::iter::once(tag).chain(rest).collect();
        let mut cursor: &[u8] = &bytes;
        while !cursor.is_empty() && RepFrame::decode(&mut cursor).is_ok() {}
    }

    #[test]
    fn response_and_frame_bitflips_never_panic(
        rs in prop::collection::vec(response(), 1..8),
        frame in rep_frame(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_responses(&rs).to_vec();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = decode_responses(&bytes);
        let mut bytes = frame.encode().to_vec();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = RepFrame::decode(&mut &bytes[..]);
    }

    #[test]
    fn truncated_rep_frame_detected(frame in rep_frame(), cut_frac in 0.0f64..1.0) {
        let bytes = frame.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut cursor: &[u8] = &bytes[..cut];
        prop_assert!(RepFrame::decode(&mut cursor).is_err());
    }
}
