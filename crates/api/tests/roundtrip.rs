//! Property tests: every request and response variant survives an
//! encode → decode round trip bit-for-bit, at the payload level and
//! through the byte-stream framing.
//!
//! Structured values (queries with recursive predicates, outcomes,
//! errors) are generated from a seeded RNG so each proptest case explores
//! a different shape while staying reproducible from its seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprov_api::protocol::{
    decode_request, decode_response, encode_request, encode_response, BudgetReport, Request,
    Response,
};
use dprov_api::{frame, ApiError, ErrorKind};
use dprov_core::analyst::AnalystId;
use dprov_core::error::RejectReason;
use dprov_core::processor::{
    AnsweredQuery, GroupedOutcome, GroupedRequest, QueryOutcome, QueryRequest, SubmissionMode,
};
use dprov_engine::expr::Predicate;
use dprov_engine::group::GroupByQuery;
use dprov_engine::query::{AggregateKind, Query};
use dprov_engine::value::Value;

fn arb_string(rng: &mut StdRng) -> String {
    let alphabet: Vec<char> = "abcXYZ09_ä☃-. ".chars().collect();
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())])
        .collect()
}

fn arb_value(rng: &mut StdRng) -> Value {
    if rng.gen::<bool>() {
        Value::Int(rng.gen_range(-1_000_000i64..=1_000_000))
    } else {
        Value::Text(arb_string(rng))
    }
}

fn arb_predicate(rng: &mut StdRng, depth: usize) -> Predicate {
    let max_tag = if depth >= 3 { 3 } else { 6 };
    match rng.gen_range(0u32..=max_tag) {
        0 => Predicate::True,
        1 => Predicate::Range {
            attribute: arb_string(rng),
            low: rng.gen_range(-1_000i64..1_000),
            high: rng.gen_range(-1_000i64..1_000),
        },
        2 => Predicate::Equals {
            attribute: arb_string(rng),
            value: arb_value(rng),
        },
        3 => Predicate::InSet {
            attribute: arb_string(rng),
            values: (0..rng.gen_range(0usize..4))
                .map(|_| arb_value(rng))
                .collect(),
        },
        4 => Predicate::And(
            (0..rng.gen_range(0usize..3))
                .map(|_| arb_predicate(rng, depth + 1))
                .collect(),
        ),
        5 => Predicate::Or(
            (0..rng.gen_range(0usize..3))
                .map(|_| arb_predicate(rng, depth + 1))
                .collect(),
        ),
        _ => Predicate::Not(Box::new(arb_predicate(rng, depth + 1))),
    }
}

fn arb_query(rng: &mut StdRng) -> Query {
    Query {
        table: arb_string(rng),
        aggregate: match rng.gen_range(0u32..3) {
            0 => AggregateKind::Count,
            1 => AggregateKind::Sum(arb_string(rng)),
            _ => AggregateKind::Avg(arb_string(rng)),
        },
        predicate: arb_predicate(rng, 0),
        group_by: (0..rng.gen_range(0usize..3))
            .map(|_| arb_string(rng))
            .collect(),
    }
}

fn arb_query_request(rng: &mut StdRng) -> QueryRequest {
    QueryRequest {
        query: arb_query(rng),
        mode: if rng.gen::<bool>() {
            SubmissionMode::Accuracy {
                variance: rng.gen_range(0.001f64..1e9),
            }
        } else {
            SubmissionMode::Privacy {
                epsilon: rng.gen_range(1e-6f64..64.0),
            }
        },
    }
}

fn arb_mode(rng: &mut StdRng) -> SubmissionMode {
    if rng.gen::<bool>() {
        SubmissionMode::Accuracy {
            variance: rng.gen_range(0.001f64..1e9),
        }
    } else {
        SubmissionMode::Privacy {
            epsilon: rng.gen_range(1e-6f64..64.0),
        }
    }
}

fn arb_grouped_request(rng: &mut StdRng) -> GroupedRequest {
    GroupedRequest {
        query: GroupByQuery {
            table: arb_string(rng),
            group_cols: (0..rng.gen_range(0usize..3))
                .map(|_| arb_string(rng))
                .collect(),
            aggregate: match rng.gen_range(0u32..3) {
                0 => AggregateKind::Count,
                1 => AggregateKind::Sum(arb_string(rng)),
                _ => AggregateKind::Avg(arb_string(rng)),
            },
            predicate: arb_predicate(rng, 0),
        },
        mode: arb_mode(rng),
    }
}

fn arb_grouped_outcome(rng: &mut StdRng) -> GroupedOutcome {
    let cells = rng.gen_range(0usize..5);
    GroupedOutcome {
        keys: (0..cells)
            .map(|_| {
                (0..rng.gen_range(0usize..3))
                    .map(|_| arb_value(rng))
                    .collect()
            })
            .collect(),
        outcomes: (0..cells).map(|_| arb_outcome(rng)).collect(),
    }
}

fn arb_outcome(rng: &mut StdRng) -> QueryOutcome {
    if rng.gen::<bool>() {
        QueryOutcome::Answered(AnsweredQuery {
            value: rng.gen_range(-1e12f64..1e12),
            view: if rng.gen::<bool>() {
                Some(arb_string(rng))
            } else {
                None
            },
            epsilon_charged: rng.gen_range(0.0f64..32.0),
            noise_variance: rng.gen_range(0.0f64..1e9),
            from_cache: rng.gen::<bool>(),
            epoch: rng.gen::<u64>(),
        })
    } else {
        QueryOutcome::Rejected {
            reason: match rng.gen_range(0u32..6) {
                0 => RejectReason::AnalystConstraint {
                    analyst: AnalystId(rng.gen_range(0usize..64)),
                },
                1 => RejectReason::ViewConstraint {
                    view: arb_string(rng),
                },
                2 => RejectReason::TableConstraint,
                3 => RejectReason::AccuracyUnreachable,
                4 => RejectReason::NotAnswerable,
                _ => RejectReason::InsufficientSynopsis,
            },
        }
    }
}

fn arb_api_error(rng: &mut StdRng) -> ApiError {
    let mut e = ApiError::new(rng.gen_range(100u16..1000), arb_string(rng));
    // Wire errors carry whatever kind/retryable the sender chose; exercise
    // disagreement with the local derivation too.
    if rng.gen::<bool>() {
        e.retryable = !e.retryable;
    }
    if rng.gen::<bool>() {
        e.kind = ErrorKind::Internal;
    }
    e
}

fn arb_metrics_snapshot(rng: &mut StdRng) -> dprov_obs::MetricsSnapshot {
    use dprov_obs::{BudgetGauge, HistogramSnapshot};
    let arb_hist = |rng: &mut StdRng| HistogramSnapshot {
        count: rng.gen::<u64>(),
        sum: rng.gen::<u64>(),
        max: rng.gen::<u64>(),
        p50: rng.gen::<u64>(),
        p95: rng.gen::<u64>(),
        p99: rng.gen::<u64>(),
    };
    dprov_obs::MetricsSnapshot {
        counters: (0..rng.gen_range(0usize..5))
            .map(|_| (arb_string(rng), rng.gen::<u64>()))
            .collect(),
        gauges: (0..rng.gen_range(0usize..5))
            .map(|_| (arb_string(rng), rng.gen_range(-1e12f64..1e12)))
            .collect(),
        histograms: (0..rng.gen_range(0usize..5))
            .map(|_| (arb_string(rng), arb_hist(rng)))
            .collect(),
        budgets: (0..rng.gen_range(0usize..4))
            .map(|_| BudgetGauge {
                analyst: arb_string(rng),
                view: arb_string(rng),
                entry_epsilon: rng.gen_range(0.0f64..64.0),
                remaining_epsilon: rng.gen_range(0.0f64..64.0),
            })
            .collect(),
    }
}

/// Every request variant, chosen by `tag` so proptest cases sweep them all.
fn arb_request(rng: &mut StdRng, tag: u32) -> Request {
    match tag % 12 {
        11 => Request::GroupByQuery(arb_grouped_request(rng)),
        10 => Request::Mux {
            channel: rng.gen::<u64>(),
            // The outer codec treats the inner payload as opaque bytes;
            // sweep both well-formed inner messages and raw noise.
            payload: if rng.gen::<bool>() {
                let inner_tag = rng.gen_range(0u32..10);
                let inner_id = rng.gen::<u64>();
                encode_request(inner_id, &arb_request(rng, inner_tag))
            } else {
                (0..rng.gen_range(0usize..64))
                    .map(|_| rng.gen_range(0u32..=255) as u8)
                    .collect()
            },
        },
        0 => Request::Hello {
            max_version: rng.gen_range(0u32..=255) as u8,
            client_name: arb_string(rng),
        },
        1 => Request::RegisterSession {
            analyst_name: arb_string(rng),
            resume: if rng.gen::<bool>() {
                Some(rng.gen::<u64>())
            } else {
                None
            },
        },
        2 => Request::SubmitQuery(arb_query_request(rng)),
        3 => Request::Heartbeat,
        4 => Request::BudgetStatus,
        5 => Request::CloseSession,
        6 => Request::RegisterUpdater {
            updater_name: arb_string(rng),
        },
        7 => Request::ApplyUpdate(arb_update_batch(rng)),
        8 => Request::SealEpoch,
        _ => Request::MetricsSnapshot,
    }
}

fn arb_value_row(rng: &mut StdRng) -> Vec<dprov_engine::value::Value> {
    use dprov_engine::value::Value;
    (0..rng.gen_range(0usize..5))
        .map(|_| {
            if rng.gen::<bool>() {
                Value::Int(rng.gen_range(i64::MIN..i64::MAX))
            } else {
                Value::Text(arb_string(rng))
            }
        })
        .collect()
}

fn arb_update_batch(rng: &mut StdRng) -> dprov_delta::UpdateBatch {
    dprov_delta::UpdateBatch {
        table: arb_string(rng),
        inserts: (0..rng.gen_range(0usize..4))
            .map(|_| arb_value_row(rng))
            .collect(),
        deletes: (0..rng.gen_range(0usize..4))
            .map(|_| arb_value_row(rng))
            .collect(),
    }
}

/// Every response variant, chosen by `tag`.
fn arb_response(rng: &mut StdRng, tag: u32) -> Response {
    match tag % 13 {
        12 => Response::GroupedAnswer(arb_grouped_outcome(rng)),
        10 => Response::MuxReply {
            channel: rng.gen::<u64>(),
            payload: if rng.gen::<bool>() {
                let inner_tag = rng.gen_range(0u32..10);
                let inner_id = rng.gen::<u64>();
                encode_response(inner_id, &arb_response(rng, inner_tag))
            } else {
                (0..rng.gen_range(0usize..64))
                    .map(|_| rng.gen_range(0u32..=255) as u8)
                    .collect()
            },
        },
        0 => Response::HelloAck {
            version: rng.gen_range(0u32..=255) as u8,
            server_name: arb_string(rng),
        },
        1 => Response::SessionRegistered {
            session: rng.gen::<u64>(),
            analyst: rng.gen::<u64>(),
            privilege: rng.gen_range(1u32..=10) as u8,
            resumed: rng.gen::<bool>(),
        },
        2 => Response::QueryAnswer(arb_outcome(rng)),
        3 => Response::HeartbeatAck,
        4 => Response::BudgetReport(BudgetReport {
            session: rng.gen::<u64>(),
            analyst: rng.gen::<u64>(),
            privilege: rng.gen_range(1u32..=10) as u8,
            budget_constraint: rng.gen_range(0.0f64..64.0),
            budget_consumed: rng.gen_range(0.0f64..64.0),
            budget_remaining: rng.gen_range(0.0f64..64.0),
            submitted: rng.gen::<u64>(),
            answered: rng.gen::<u64>(),
            rejected: rng.gen::<u64>(),
        }),
        5 => Response::SessionClosed,
        6 => Response::UpdaterRegistered,
        7 => Response::UpdateAccepted {
            batch_seq: rng.gen::<u64>(),
            pending: rng.gen::<u64>(),
        },
        8 => Response::EpochSealed {
            epoch: rng.gen::<u64>(),
            batches: rng.gen::<u64>(),
            rows: rng.gen::<u64>(),
            views_patched: rng.gen::<u64>(),
            synopses_invalidated: rng.gen::<u64>(),
        },
        9 => Response::MetricsReport(arb_metrics_snapshot(rng)),
        _ => Response::Error(arb_api_error(rng)),
    }
}

/// The grouped/planning extension appended tags only: the floor stays at
/// version 2, and a payload stamped with any still-supported version
/// decodes unchanged.
#[test]
fn protocol_floor_is_unchanged_by_the_grouped_extension() {
    use dprov_api::protocol::{MIN_SUPPORTED_VERSION, PROTOCOL_VERSION};
    assert_eq!(MIN_SUPPORTED_VERSION, 2);
    assert_eq!(PROTOCOL_VERSION, 4);
    let payload = encode_request(9, &Request::Heartbeat);
    for version in MIN_SUPPORTED_VERSION..=PROTOCOL_VERSION {
        let mut stamped = payload.clone();
        stamped[0] = version;
        let (rid, decoded) = decode_request(&stamped).expect("supported version must decode");
        assert_eq!((rid, decoded), (9, Request::Heartbeat), "version {version}");
    }
}

/// `MAX_GROUP_CELLS` is the largest grouping whose answer can fit one
/// frame: at the cap, every cell in its smallest encoding inside the
/// largest envelope (a mux reply) fits `MAX_FRAME_LEN`; one cell more
/// cannot.
#[test]
fn the_group_cell_cap_is_the_largest_answer_one_frame_carries() {
    use dprov_engine::group::MAX_GROUP_CELLS;
    let smallest_reply = |cells: usize| {
        let grouped = GroupedOutcome {
            keys: vec![vec![Value::text("")]; cells],
            outcomes: vec![
                QueryOutcome::Rejected {
                    reason: RejectReason::TableConstraint
                };
                cells
            ],
        };
        let payload = encode_response(u64::MAX, &Response::GroupedAnswer(grouped));
        let channel = u64::MAX;
        encode_response(u64::MAX, &Response::MuxReply { channel, payload }).len()
    };
    let (envelope, per_cell) = (smallest_reply(0), smallest_reply(1) - smallest_reply(0));
    assert_eq!((envelope, per_cell), (40, 11), "update MAX_GROUP_CELLS");
    assert!(envelope + MAX_GROUP_CELLS * per_cell <= frame::MAX_FRAME_LEN);
    assert!(envelope + (MAX_GROUP_CELLS + 1) * per_cell > frame::MAX_FRAME_LEN);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Requests round-trip bit-for-bit through payload encoding, and
    /// through the CRC frame wrapping a byte-stream transport applies.
    #[test]
    fn request_round_trips(seed in 0u64..u64::MAX, tag in 0u32..12, request_id in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = arb_request(&mut rng, tag);
        let payload = encode_request(request_id, &request);
        let (rid, decoded) = decode_request(&payload).expect("fresh payload must decode");
        prop_assert_eq!(rid, request_id);
        prop_assert_eq!(&decoded, &request);

        let mut stream = std::io::Cursor::new(frame::frame(&payload));
        let unframed = frame::read_frame(&mut stream).unwrap().expect("one frame");
        prop_assert_eq!(unframed, payload);
    }

    /// Responses round-trip bit-for-bit the same way.
    #[test]
    fn response_round_trips(seed in 0u64..u64::MAX, tag in 0u32..13, request_id in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let response = arb_response(&mut rng, tag);
        let payload = encode_response(request_id, &response);
        let (rid, decoded) = decode_response(&payload).expect("fresh payload must decode");
        prop_assert_eq!(rid, request_id);
        prop_assert_eq!(&decoded, &response);

        let mut stream = std::io::Cursor::new(frame::frame(&payload));
        let unframed = frame::read_frame(&mut stream).unwrap().expect("one frame");
        prop_assert_eq!(unframed, payload);
    }

    /// Request and response tag spaces are disjoint: decoding a stream
    /// from the wrong side yields a typed error, never an aliased message.
    #[test]
    fn wrong_side_decodes_fail_loudly(seed in 0u64..u64::MAX, tag in 0u32..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = arb_request(&mut rng, tag);
        prop_assert!(decode_response(&encode_request(9, &request)).is_err());
        let response = arb_response(&mut rng, tag);
        prop_assert!(decode_request(&encode_response(9, &response)).is_err());
    }

    /// A well-formed inner message survives the mux wrapping bit-for-bit:
    /// outer decode yields the channel and the exact inner payload, and
    /// the inner payload decodes back to the original message.
    #[test]
    fn mux_wrapping_preserves_inner_messages(
        seed in 0u64..u64::MAX,
        tag in 0u32..10,
        channel in 0u64..u64::MAX,
        inner_id in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inner_request = arb_request(&mut rng, tag);
        let inner_payload = encode_request(inner_id, &inner_request);
        let outer = encode_request(0, &Request::Mux {
            channel,
            payload: inner_payload.clone(),
        });
        match decode_request(&outer).expect("outer mux frame must decode") {
            (_, Request::Mux { channel: ch, payload }) => {
                prop_assert_eq!(ch, channel);
                prop_assert_eq!(&payload, &inner_payload);
                let (rid, decoded) = decode_request(&payload).expect("inner must decode");
                prop_assert_eq!(rid, inner_id);
                prop_assert_eq!(decoded, inner_request);
            }
            other => prop_assert!(false, "decoded to {other:?}"),
        }

        let inner_response = arb_response(&mut rng, tag);
        let inner_payload = encode_response(inner_id, &inner_response);
        let outer = encode_response(0, &Response::MuxReply {
            channel,
            payload: inner_payload.clone(),
        });
        match decode_response(&outer).expect("outer mux reply must decode") {
            (_, Response::MuxReply { channel: ch, payload }) => {
                prop_assert_eq!(ch, channel);
                prop_assert_eq!(&payload, &inner_payload);
                let (rid, decoded) = decode_response(&payload).expect("inner must decode");
                prop_assert_eq!(rid, inner_id);
                prop_assert_eq!(decoded, inner_response);
            }
            other => prop_assert!(false, "decoded to {other:?}"),
        }
    }
}
