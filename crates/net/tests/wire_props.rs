//! Property tests for the wire format.
//!
//! Two classes of guarantee: (1) everything we encode decodes to exactly
//! what went in, for arbitrary request mixes including the func-op
//! variants; (2) the decoder is total — arbitrary byte soup (including
//! truncations and bit flips of valid packets) either decodes or returns
//! an error, but never panics and never reads out of bounds.

use kvd_net::{decode_packet_ref, encode_packet, KvRequest, KvRequestRef, OpCode};
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
}
