//! Corruption suite for the analyst protocol, mirroring
//! `crates/storage/tests/corruption.rs`: damage frames and payloads every
//! way a hostile network or torn stream can, and assert the decoders
//! surface **typed errors** — never a panic, never silent acceptance.
//! The frame layout itself (every cut, every bit flip, the length cap) is
//! proven once, by the frame battery in `dprov_storage::codec`; here the
//! frame checks are the wire's error codes.

use std::io::Cursor;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprov_api::protocol::{
    decode_request, decode_response, encode_request, encode_response, unknown_request_tag, Request,
    Response, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
use dprov_api::{codes, frame};
use dprov_core::processor::QueryRequest;
use dprov_engine::expr::Predicate;
use dprov_engine::query::Query;

fn sample_request_payload() -> Vec<u8> {
    let query =
        Query::range_count("adult", "age", 20, 39).filter(Predicate::equals("sex", "Female"));
    encode_request(
        7,
        &Request::SubmitQuery(QueryRequest::with_accuracy(query, 450.0)),
    )
}

#[test]
fn every_truncation_of_a_request_is_a_typed_error() {
    let payload = sample_request_payload();
    for cut in 0..payload.len() {
        let err = decode_request(&payload[..cut]).expect_err("a truncated payload must not decode");
        assert!(
            err.code == codes::MALFORMED_FRAME || err.code == codes::UNSUPPORTED_VERSION,
            "cut at {cut}: unexpected code {}",
            err.code
        );
    }
}

#[test]
fn every_truncation_of_a_response_is_a_typed_error() {
    let payload = encode_response(
        3,
        &Response::SessionRegistered {
            session: 12,
            analyst: 1,
            privilege: 4,
            resumed: true,
        },
    );
    for cut in 0..payload.len() {
        assert!(
            decode_response(&payload[..cut]).is_err(),
            "cut at {cut} decoded"
        );
    }
}

#[test]
fn bad_version_bytes_are_refused_with_the_dedicated_code() {
    let mut payload = sample_request_payload();
    for bad in [0u8, PROTOCOL_VERSION + 1, 0x7F, 0xFF] {
        payload[0] = bad;
        let err = decode_request(&payload).expect_err("wrong version must not decode");
        assert_eq!(err.code, codes::UNSUPPORTED_VERSION, "version byte {bad}");
    }
}

#[test]
fn trailing_garbage_is_refused() {
    let mut payload = encode_request(1, &Request::Heartbeat);
    payload.push(0xAB);
    let err = decode_request(&payload).unwrap_err();
    assert_eq!(err.code, codes::MALFORMED_FRAME);
}

#[test]
fn torn_frames_and_oversized_lengths_are_typed() {
    let framed = frame::frame(&sample_request_payload());
    for cut in 1..framed.len() {
        let mut stream = Cursor::new(framed[..cut].to_vec());
        let err = frame::read_frame(&mut stream).expect_err("torn frame must error");
        assert!(
            err.code == codes::CONNECTION_CLOSED || err.code == codes::CHECKSUM_MISMATCH,
            "cut at {cut}: unexpected code {}",
            err.code
        );
    }
    let mut huge = framed;
    huge[0..4].copy_from_slice(&(frame::MAX_FRAME_LEN as u32 + 1).to_le_bytes());
    let err = frame::read_frame(&mut Cursor::new(huge)).unwrap_err();
    assert_eq!(err.code, codes::FRAME_TOO_LARGE);
}

#[test]
fn deep_predicate_nesting_is_bounded_not_a_stack_overflow() {
    // Build a payload whose predicate nests far beyond the decode limit by
    // hand-crafting `Not` tags (encoding such a tree through the public
    // API would blow the encoder's stack first at truly hostile depths).
    let base = encode_request(
        1,
        &Request::SubmitQuery(QueryRequest::with_accuracy(Query::count("t"), 100.0)),
    );
    // Locate the predicate start: header(10) + table str(4+1) + agg tag(1).
    let pred_at = 10 + 4 + 1 + 1;
    assert_eq!(base[pred_at], 0, "expected Predicate::True tag");
    let mut hostile = base[..pred_at].to_vec();
    hostile.extend(std::iter::repeat_n(6u8, 100_000)); // Not(Not(...
    hostile.push(0); // innermost True
    hostile.extend_from_slice(&base[pred_at + 1..]); // group_by + mode
    let err = decode_request(&hostile).expect_err("hostile nesting must be refused");
    assert_eq!(err.code, codes::MALFORMED_FRAME);
    assert!(err.message.contains("nesting"), "got: {}", err.message);
}

fn sample_grouped_payload() -> Vec<u8> {
    use dprov_core::processor::GroupedRequest;
    use dprov_engine::group::GroupByQuery;
    let query =
        GroupByQuery::count("adult", &["sex", "race"]).filter(Predicate::range("age", 20, 39));
    encode_request(
        13,
        &Request::GroupByQuery(GroupedRequest::with_accuracy(query, 450.0)),
    )
}

#[test]
fn every_truncation_of_a_grouped_request_is_a_typed_error() {
    let payload = sample_grouped_payload();
    for cut in 0..payload.len() {
        let err =
            decode_request(&payload[..cut]).expect_err("a truncated grouped query must not decode");
        assert!(
            err.code == codes::MALFORMED_FRAME || err.code == codes::UNSUPPORTED_VERSION,
            "cut at {cut}: unexpected code {}",
            err.code
        );
    }
}

#[test]
fn retired_planning_tags_decode_as_unknown() {
    // Request tag 13 (`DeclareWorkload`) and response tag 141
    // (`WorkloadPlan`) carried the retired advisory workload planner. They
    // are never reissued: at every supported version, with or without a
    // body, they take the unknown-tag path.
    for version in MIN_SUPPORTED_VERSION..=PROTOCOL_VERSION {
        for body in [&[][..], &[0, 0, 0, 0][..]] {
            let payload = |tag: u8| {
                let mut payload = vec![version, tag];
                payload.extend_from_slice(&7u64.to_le_bytes());
                payload.extend_from_slice(body);
                payload
            };
            for (tag, decoded) in [
                (13, decode_request(&payload(13)).map(drop)),
                (141, decode_response(&payload(141)).map(drop)),
            ] {
                let err = decoded.expect_err("a retired tag must not decode");
                assert_eq!(err.code, codes::MALFORMED_FRAME, "v{version} tag {tag}");
                assert!(
                    err.message.contains(&format!("tag {tag}")),
                    "{}",
                    err.message
                );
            }
        }
    }
}

#[test]
fn an_unknown_request_tag_keeps_its_request_id() {
    // Only the tag is unknown: the header and the request id decoded, so a
    // server can refuse that one request under its id and keep the
    // connection. Retired tag 13 and never-assigned tags alike.
    for version in MIN_SUPPORTED_VERSION..=PROTOCOL_VERSION {
        for tag in [13, 141, 200, u8::MAX] {
            let mut payload = vec![version, tag];
            payload.extend_from_slice(&7u64.to_le_bytes());
            payload.extend_from_slice(&[0, 0, 0, 0]);
            let err = decode_request(&payload).expect_err("an unknown tag must not decode");
            assert_eq!(err.code, codes::MALFORMED_FRAME, "v{version} tag {tag}");
            assert_eq!(
                unknown_request_tag(&payload),
                Some(7),
                "v{version} tag {tag}"
            );
        }
    }
    // Every other failure has no request id to answer under: a known tag
    // whose body is damaged, an unsupported version or a cut header.
    let payload = sample_request_payload();
    assert_eq!(unknown_request_tag(&payload), None, "a valid request");
    for cut in 0..payload.len() {
        assert_eq!(unknown_request_tag(&payload[..cut]), None, "cut at {cut}");
    }
    let mut wrong_version = payload.clone();
    wrong_version[0] = PROTOCOL_VERSION + 1;
    wrong_version[1] = 13;
    assert_eq!(unknown_request_tag(&wrong_version), None);
}

#[test]
fn hostile_group_key_counts_are_bounded_not_an_allocation() {
    // A grouped answer claiming 2^32-1 group keys with an empty body must
    // be refused by the payload-bounded length check, not attempted.
    use dprov_core::processor::GroupedOutcome;
    let mut payload = encode_response(
        3,
        &Response::GroupedAnswer(GroupedOutcome {
            keys: Vec::new(),
            outcomes: Vec::new(),
        }),
    );
    // Header is version(1) + tag(1) + request_id(8); the keys count u32 is next.
    payload.truncate(10);
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = decode_response(&payload).unwrap_err();
    assert_eq!(err.code, codes::MALFORMED_FRAME);
    assert!(err.message.contains("count"), "got: {}", err.message);
}

#[test]
fn every_truncation_of_a_mux_frame_is_a_typed_error() {
    let payload = encode_request(
        5,
        &Request::Mux {
            channel: 3,
            payload: sample_request_payload(),
        },
    );
    for cut in 0..payload.len() {
        let err =
            decode_request(&payload[..cut]).expect_err("a truncated mux frame must not decode");
        assert!(
            err.code == codes::MALFORMED_FRAME || err.code == codes::UNSUPPORTED_VERSION,
            "cut at {cut}: unexpected code {}",
            err.code
        );
    }
}

#[test]
fn mux_inner_payload_length_cannot_exceed_the_frame() {
    // Corrupt the inner-payload length prefix to claim more bytes than the
    // message holds: the decoder must refuse, not over-read or allocate.
    let inner = sample_request_payload();
    let mut payload = encode_request(
        5,
        &Request::Mux {
            channel: 3,
            payload: inner,
        },
    );
    // Header (10 bytes) + channel u64 (8) puts the bytes-length u32 next.
    let len_at = 10 + 8;
    payload[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = decode_request(&payload).unwrap_err();
    assert_eq!(err.code, codes::MALFORMED_FRAME);
}

#[test]
fn mux_with_garbage_inner_payload_decodes_outer_only() {
    // The outer mux codec treats the inner payload as opaque: outer decode
    // succeeds, and the garbage surfaces as a typed error only when the
    // channel state machine decodes the inner message.
    let garbage = vec![0xDE, 0xAD, 0xBE, 0xEF];
    let payload = encode_request(
        5,
        &Request::Mux {
            channel: 9,
            payload: garbage.clone(),
        },
    );
    match decode_request(&payload).expect("outer frame is well-formed") {
        (_, Request::Mux { channel, payload }) => {
            assert_eq!(channel, 9);
            let err = decode_request(&payload).expect_err("garbage inner must not decode");
            assert!(
                err.code == codes::MALFORMED_FRAME || err.code == codes::UNSUPPORTED_VERSION,
                "unexpected code {}",
                err.code
            );
            assert_eq!(payload, garbage);
        }
        other => panic!("decoded to {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Single-byte corruption of a mux frame either fails typed or decodes
    /// to *some* request — never panics, never aliases into the original.
    #[test]
    fn flipped_mux_frame_bytes_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = encode_request(
            5,
            &Request::Mux { channel: rng.gen::<u64>(), payload: sample_request_payload() },
        );
        let at = rng.gen_range(0usize..payload.len());
        payload[at] ^= 1 << rng.gen_range(0u32..8);
        let _ = decode_request(&payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary byte soup never panics any decoder and never yields a
    /// frame that fails its own re-encode identity.
    #[test]
    fn random_bytes_never_panic_the_decoders(seed in 0u64..u64::MAX, len in 0usize..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..=255) as u8).collect();
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = frame::read_frame(&mut Cursor::new(bytes));
    }

    /// Single-byte corruption of a valid request payload either fails
    /// typed or decodes to *some* request — never panics. (On the wire
    /// the CRC frame already rejects accidental damage; this covers a
    /// peer that frames a damaged payload with a valid checksum.)
    #[test]
    fn flipped_payload_bytes_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = sample_request_payload();
        let at = rng.gen_range(0usize..payload.len());
        payload[at] ^= 1 << rng.gen_range(0u32..8);
        let _ = decode_request(&payload);
    }
}
