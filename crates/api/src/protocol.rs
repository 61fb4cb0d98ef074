//! The versioned analyst protocol: typed requests and responses and their
//! payload encodings.
//!
//! Every message payload starts with a fixed header —
//!
//! | field        | size | meaning                                    |
//! |--------------|------|--------------------------------------------|
//! | `version`    | 1 B  | protocol version ([`PROTOCOL_VERSION`])    |
//! | `tag`        | 1 B  | message type (requests `1..`, responses `129..`) |
//! | `request_id` | 8 B  | client-chosen id echoed by the response    |
//!
//! — followed by the tag-specific body (see the crate-internal `wire` module for the domain
//! encodings). Request ids make the protocol **pipelined**: a client may
//! have any number of requests in flight on one connection and match
//! responses by id, in whatever order the service finishes them.
//!
//! Request and response tags live in disjoint ranges so a stream that is
//! accidentally decoded from the wrong side fails loudly instead of
//! aliasing into a different message type.

use dprov_core::processor::{GroupedOutcome, GroupedRequest, QueryOutcome, QueryRequest};
use dprov_storage::codec::{Decoder, Encoder};

use crate::error::{codes, ApiError, ErrorKind};
use crate::wire;

/// The newest protocol version this build speaks.
///
/// Version 2 (dynamic data): `QueryAnswer` bodies carry the update epoch
/// the answer reflects, and the updater-role messages
/// ([`Request::RegisterUpdater`], [`Request::ApplyUpdate`],
/// [`Request::SealEpoch`]) were appended under new tags.
///
/// Version 3 (connection multiplexing): [`Request::Mux`] /
/// [`Response::MuxReply`] were appended under new tags, carrying a channel
/// id plus a fully-encoded inner message — many analyst sessions can share
/// one socket, each channel running the ordinary per-connection state
/// machine. No existing body changed, so the floor stays at 2.
///
/// Version 4 (grouped queries): [`Request::GroupByQuery`] /
/// [`Response::GroupedAnswer`] were appended under new tags — a GROUP BY
/// submission releases one DP answer per group in a single admission. No
/// existing body changed, so the floor stays at 2.
pub const PROTOCOL_VERSION: u8 = 4;

/// The oldest protocol version this build still understands. `Hello`
/// negotiation settles on `min(client max, server max)` and fails only
/// when that falls below the receiving side's floor — so bumping
/// [`PROTOCOL_VERSION`] does not cut off older peers until their version
/// is explicitly dropped here. Version 1 was dropped with the dynamic-data
/// extension: the `QueryAnswer` body gained the epoch field, so a v1 peer
/// would mis-frame every answer (new *tags* are append-only; changing an
/// existing body requires raising the floor). Version 2 remains readable:
/// the multiplexing extension added only new tags.
pub const MIN_SUPPORTED_VERSION: u8 = 2;

/// A request from an analyst client to the service.
///
/// Marked `#[non_exhaustive]`: new request types may be added under new
/// tags without a breaking change.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the conversation and negotiates the protocol version. Must be
    /// the first message on every connection.
    Hello {
        /// The newest version the client speaks; the service answers with
        /// `min(client, server)`, refusing only versions below its
        /// [`MIN_SUPPORTED_VERSION`] floor.
        max_version: u8,
        /// Free-form client identification (for logs; not a credential).
        client_name: String,
    },
    /// Authenticates as a roster analyst and opens — or, with `resume`,
    /// re-attaches to — a session.
    RegisterSession {
        /// The analyst's roster name (the protocol's credential: the
        /// roster is trusted configuration, names are identity).
        analyst_name: String,
        /// An existing session id to re-attach to after a reconnect; the
        /// service verifies the session belongs to `analyst_name`.
        resume: Option<u64>,
    },
    /// Submits one query on the connection's session.
    SubmitQuery(QueryRequest),
    /// Refreshes the session's heartbeat.
    Heartbeat,
    /// Asks for the session's budget and counters.
    BudgetStatus,
    /// Closes the session and ends the conversation.
    CloseSession,
    /// Authenticates the connection as a data **updater** (a role distinct
    /// from analysts: updaters mutate base tables and never query).
    /// Checked against the service's configured updater roster.
    RegisterUpdater {
        /// The updater's configured name (trusted-configuration identity,
        /// like analyst roster names).
        updater_name: String,
    },
    /// Submits one insert/delete batch (updater connections only). The
    /// batch is validated, journalled durably and becomes pending; it
    /// takes effect at the next [`Request::SealEpoch`].
    ApplyUpdate(dprov_delta::UpdateBatch),
    /// Seals every pending update batch into the next epoch (updater
    /// connections only). Quiesces in-flight query micro-batches so no
    /// answer is torn across versions.
    SealEpoch,
    /// Asks for the service's observability snapshot: stage-latency
    /// histograms, event counters, queue/batch telemetry and the
    /// per-(analyst, view) remaining-budget gauges. Available to any
    /// connection after `Hello`; no session required (the snapshot is
    /// service-wide, like an operator dashboard).
    MetricsSnapshot,
    /// A multiplexed message: `payload` is a fully-encoded inner request
    /// addressed to the logical channel `channel` on this connection. Each
    /// channel runs the ordinary connection state machine independently
    /// (its own inner `Hello`, its own session), so one socket can carry
    /// many analyst sessions. The outer connection must have completed its
    /// own `Hello` first; nesting `Mux` inside `Mux` is rejected. The
    /// outer `request_id` is ignored for routing — responses are matched
    /// by `(channel, inner request_id)`.
    Mux {
        /// Client-chosen logical channel id, stable for the channel's life.
        channel: u64,
        /// A complete inner request payload (header + body, unframed).
        payload: Vec<u8>,
    },
    /// Submits one GROUP BY query on the connection's session. The whole
    /// grouped release — every group's cell — is admitted as one unit and
    /// answered with one [`Response::GroupedAnswer`].
    GroupByQuery(GroupedRequest),
}

/// The analyst-facing view of a session's budget state, returned by
/// [`Request::BudgetStatus`].
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReport {
    /// The session id.
    pub session: u64,
    /// The analyst's dense roster id.
    pub analyst: u64,
    /// The analyst's privilege level.
    pub privilege: u8,
    /// The analyst's row constraint ψ_Ai.
    pub budget_constraint: f64,
    /// Privacy budget already consumed against the row constraint.
    pub budget_consumed: f64,
    /// Remaining room under the row constraint.
    pub budget_remaining: f64,
    /// Submissions accepted from this session.
    pub submitted: u64,
    /// Queries answered to this session.
    pub answered: u64,
    /// Queries rejected for this session.
    pub rejected: u64,
}

/// A response from the service, echoing the request's id.
///
/// Marked `#[non_exhaustive]`: new response types may be added under new
/// tags without a breaking change.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Hello`].
    HelloAck {
        /// The negotiated protocol version.
        version: u8,
        /// Free-form server identification.
        server_name: String,
    },
    /// Answer to [`Request::RegisterSession`].
    SessionRegistered {
        /// The session id (quote it to `resume` after a reconnect).
        session: u64,
        /// The authenticated analyst's dense roster id.
        analyst: u64,
        /// The analyst's privilege level.
        privilege: u8,
        /// True when an existing session was resumed rather than opened.
        resumed: bool,
    },
    /// Answer to [`Request::SubmitQuery`] — the query's outcome (answers
    /// *and* budget rejections both arrive here; rejection is a valid
    /// outcome, not an error).
    QueryAnswer(QueryOutcome),
    /// Answer to [`Request::Heartbeat`].
    HeartbeatAck,
    /// Answer to [`Request::BudgetStatus`].
    BudgetReport(BudgetReport),
    /// Answer to [`Request::CloseSession`].
    SessionClosed,
    /// Answer to [`Request::RegisterUpdater`].
    UpdaterRegistered,
    /// Answer to [`Request::ApplyUpdate`].
    UpdateAccepted {
        /// The accepted batch's sequence number.
        batch_seq: u64,
        /// Batches now pending (including this one).
        pending: u64,
    },
    /// Answer to [`Request::SealEpoch`].
    EpochSealed {
        /// The sealed epoch's number.
        epoch: u64,
        /// Update batches the epoch applied.
        batches: u64,
        /// Delta rows (inserts + deletes) the epoch applied.
        rows: u64,
        /// Views whose exact histograms were patched.
        views_patched: u64,
        /// Cached noisy synopses invalidated under the epoch policy.
        synopses_invalidated: u64,
    },
    /// Answer to [`Request::MetricsSnapshot`] — the typed observability
    /// snapshot. Name-keyed and append-only: new metrics appear under new
    /// names without renumbering anything.
    MetricsReport(dprov_obs::MetricsSnapshot),
    /// The request failed; carries the stable error taxonomy.
    Error(ApiError),
    /// A multiplexed reply: `payload` is a fully-encoded inner response
    /// for the logical channel `channel` (see [`Request::Mux`]).
    MuxReply {
        /// The logical channel the inner response belongs to.
        channel: u64,
        /// A complete inner response payload (header + body, unframed).
        payload: Vec<u8>,
    },
    /// Answer to [`Request::GroupByQuery`] — one outcome per group cell in
    /// the canonical group-enumeration order, alongside each cell's group
    /// key (per-cell rejection is a valid outcome, not an error).
    GroupedAnswer(GroupedOutcome),
}

const TAG_HELLO: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_SUBMIT: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;
const TAG_BUDGET: u8 = 5;
const TAG_CLOSE: u8 = 6;
const TAG_REGISTER_UPDATER: u8 = 7;
const TAG_APPLY_UPDATE: u8 = 8;
const TAG_SEAL_EPOCH: u8 = 9;
const TAG_METRICS: u8 = 10;
const TAG_MUX: u8 = 11;
const TAG_GROUP_BY: u8 = 12;
// Tags 13 (request) and 141 (response) carried the retired advisory
// workload-planning pair. They are never reissued: a peer that still sends
// one gets the unknown-tag `MALFORMED_FRAME` error.

const TAG_HELLO_ACK: u8 = 129;
const TAG_REGISTERED: u8 = 130;
const TAG_ANSWER: u8 = 131;
const TAG_HEARTBEAT_ACK: u8 = 132;
const TAG_BUDGET_REPORT: u8 = 133;
const TAG_CLOSED: u8 = 134;
const TAG_UPDATER_REGISTERED: u8 = 135;
const TAG_UPDATE_ACCEPTED: u8 = 136;
const TAG_EPOCH_SEALED: u8 = 137;
const TAG_METRICS_REPORT: u8 = 138;
const TAG_MUX_REPLY: u8 = 139;
const TAG_GROUPED_ANSWER: u8 = 140;
const TAG_ERROR: u8 = 255;

/// Writes the message header: version, tag, request id.
fn header(enc: &mut Encoder, tag: u8, request_id: u64) {
    enc.put_u8(PROTOCOL_VERSION);
    enc.put_u8(tag);
    enc.put_u64(request_id);
}

/// Encodes a request into a message payload (to be framed by the
/// transport).
#[must_use]
pub fn encode_request(request_id: u64, request: &Request) -> Vec<u8> {
    let mut enc = Encoder::new();
    match request {
        Request::Hello {
            max_version,
            client_name,
        } => {
            header(&mut enc, TAG_HELLO, request_id);
            enc.put_u8(*max_version);
            enc.put_str(client_name);
        }
        Request::RegisterSession {
            analyst_name,
            resume,
        } => {
            header(&mut enc, TAG_REGISTER, request_id);
            enc.put_str(analyst_name);
            match resume {
                Some(id) => {
                    enc.put_u8(1);
                    enc.put_u64(*id);
                }
                None => enc.put_u8(0),
            }
        }
        Request::SubmitQuery(query_request) => {
            header(&mut enc, TAG_SUBMIT, request_id);
            wire::put_request_body(&mut enc, query_request);
        }
        Request::Heartbeat => header(&mut enc, TAG_HEARTBEAT, request_id),
        Request::BudgetStatus => header(&mut enc, TAG_BUDGET, request_id),
        Request::CloseSession => header(&mut enc, TAG_CLOSE, request_id),
        Request::RegisterUpdater { updater_name } => {
            header(&mut enc, TAG_REGISTER_UPDATER, request_id);
            enc.put_str(updater_name);
        }
        Request::ApplyUpdate(batch) => {
            header(&mut enc, TAG_APPLY_UPDATE, request_id);
            wire::put_update_batch(&mut enc, batch);
        }
        Request::SealEpoch => header(&mut enc, TAG_SEAL_EPOCH, request_id),
        Request::MetricsSnapshot => header(&mut enc, TAG_METRICS, request_id),
        Request::Mux { channel, payload } => {
            header(&mut enc, TAG_MUX, request_id);
            enc.put_u64(*channel);
            enc.put_bytes(payload);
        }
        Request::GroupByQuery(grouped) => {
            header(&mut enc, TAG_GROUP_BY, request_id);
            wire::put_grouped_request(&mut enc, grouped);
        }
    }
    enc.into_bytes()
}

/// Encodes a response into a message payload.
#[must_use]
pub fn encode_response(request_id: u64, response: &Response) -> Vec<u8> {
    let mut enc = Encoder::new();
    match response {
        Response::HelloAck {
            version,
            server_name,
        } => {
            header(&mut enc, TAG_HELLO_ACK, request_id);
            enc.put_u8(*version);
            enc.put_str(server_name);
        }
        Response::SessionRegistered {
            session,
            analyst,
            privilege,
            resumed,
        } => {
            header(&mut enc, TAG_REGISTERED, request_id);
            enc.put_u64(*session);
            enc.put_u64(*analyst);
            enc.put_u8(*privilege);
            enc.put_bool(*resumed);
        }
        Response::QueryAnswer(outcome) => {
            header(&mut enc, TAG_ANSWER, request_id);
            wire::put_outcome(&mut enc, outcome);
        }
        Response::HeartbeatAck => header(&mut enc, TAG_HEARTBEAT_ACK, request_id),
        Response::BudgetReport(report) => {
            header(&mut enc, TAG_BUDGET_REPORT, request_id);
            enc.put_u64(report.session);
            enc.put_u64(report.analyst);
            enc.put_u8(report.privilege);
            enc.put_f64(report.budget_constraint);
            enc.put_f64(report.budget_consumed);
            enc.put_f64(report.budget_remaining);
            enc.put_u64(report.submitted);
            enc.put_u64(report.answered);
            enc.put_u64(report.rejected);
        }
        Response::SessionClosed => header(&mut enc, TAG_CLOSED, request_id),
        Response::UpdaterRegistered => header(&mut enc, TAG_UPDATER_REGISTERED, request_id),
        Response::UpdateAccepted { batch_seq, pending } => {
            header(&mut enc, TAG_UPDATE_ACCEPTED, request_id);
            enc.put_u64(*batch_seq);
            enc.put_u64(*pending);
        }
        Response::EpochSealed {
            epoch,
            batches,
            rows,
            views_patched,
            synopses_invalidated,
        } => {
            header(&mut enc, TAG_EPOCH_SEALED, request_id);
            enc.put_u64(*epoch);
            enc.put_u64(*batches);
            enc.put_u64(*rows);
            enc.put_u64(*views_patched);
            enc.put_u64(*synopses_invalidated);
        }
        Response::MetricsReport(snapshot) => {
            header(&mut enc, TAG_METRICS_REPORT, request_id);
            wire::put_metrics_snapshot(&mut enc, snapshot);
        }
        Response::Error(e) => {
            header(&mut enc, TAG_ERROR, request_id);
            enc.put_u32(u32::from(e.code));
            enc.put_u8(e.kind.wire_tag());
            enc.put_bool(e.retryable);
            enc.put_str(&e.message);
        }
        Response::MuxReply { channel, payload } => {
            header(&mut enc, TAG_MUX_REPLY, request_id);
            enc.put_u64(*channel);
            enc.put_bytes(payload);
        }
        Response::GroupedAnswer(outcome) => {
            header(&mut enc, TAG_GROUPED_ANSWER, request_id);
            wire::put_grouped_outcome(&mut enc, outcome);
        }
    }
    enc.into_bytes()
}

/// Reads and validates the message header — a version in
/// `MIN_SUPPORTED_VERSION..=PROTOCOL_VERSION` — returning
/// `(tag, request_id)`.
fn take_header(dec: &mut Decoder<'_>) -> Result<(u8, u64), ApiError> {
    let version = dec.take_u8().map_err(wire::malformed)?;
    if !(MIN_SUPPORTED_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(ApiError::new(
            codes::UNSUPPORTED_VERSION,
            format!(
                "protocol version {version} not supported (this build speaks \
                 {MIN_SUPPORTED_VERSION}..={PROTOCOL_VERSION})"
            ),
        ));
    }
    let tag = dec.take_u8().map_err(wire::malformed)?;
    let request_id = dec.take_u64().map_err(wire::malformed)?;
    Ok((tag, request_id))
}

/// Decodes a request payload into `(request_id, request)`.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ApiError> {
    let mut dec = Decoder::new(payload);
    let (tag, request_id) = take_header(&mut dec)?;
    let request = take_request(tag, &mut dec)?
        .ok_or_else(|| wire::malformed(format!("unknown request tag {tag}")))?;
    dec.finish().map_err(wire::malformed)?;
    Ok((request_id, request))
}

/// The request id of a request payload whose header decodes but whose tag
/// names no request — a newer peer's message or a retired one — so that a
/// server can refuse that one request and keep the connection. `None` for
/// any other payload.
#[must_use]
pub fn unknown_request_tag(payload: &[u8]) -> Option<u64> {
    let mut dec = Decoder::new(payload);
    let (tag, request_id) = take_header(&mut dec).ok()?;
    matches!(take_request(tag, &mut dec), Ok(None)).then_some(request_id)
}

/// Decodes the body of a request with tag `tag`; `Ok(None)` when no
/// request has that tag.
fn take_request(tag: u8, dec: &mut Decoder<'_>) -> Result<Option<Request>, ApiError> {
    Ok(Some(match tag {
        TAG_HELLO => Request::Hello {
            max_version: dec.take_u8().map_err(wire::malformed)?,
            client_name: dec.take_str().map_err(wire::malformed)?,
        },
        TAG_REGISTER => {
            let analyst_name = dec.take_str().map_err(wire::malformed)?;
            let resume = match dec.take_u8().map_err(wire::malformed)? {
                0 => None,
                1 => Some(dec.take_u64().map_err(wire::malformed)?),
                t => return Err(wire::malformed(format!("invalid option tag {t}"))),
            };
            Request::RegisterSession {
                analyst_name,
                resume,
            }
        }
        TAG_SUBMIT => Request::SubmitQuery(wire::take_request_body(dec).map_err(wire::malformed)?),
        TAG_HEARTBEAT => Request::Heartbeat,
        TAG_BUDGET => Request::BudgetStatus,
        TAG_CLOSE => Request::CloseSession,
        TAG_REGISTER_UPDATER => Request::RegisterUpdater {
            updater_name: dec.take_str().map_err(wire::malformed)?,
        },
        TAG_APPLY_UPDATE => {
            Request::ApplyUpdate(wire::take_update_batch(dec).map_err(wire::malformed)?)
        }
        TAG_SEAL_EPOCH => Request::SealEpoch,
        TAG_METRICS => Request::MetricsSnapshot,
        TAG_MUX => Request::Mux {
            channel: dec.take_u64().map_err(wire::malformed)?,
            payload: dec.take_bytes().map_err(wire::malformed)?,
        },
        TAG_GROUP_BY => {
            Request::GroupByQuery(wire::take_grouped_request(dec).map_err(wire::malformed)?)
        }
        _ => return Ok(None),
    }))
}

/// Decodes a response payload into `(request_id, response)`.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ApiError> {
    let mut dec = Decoder::new(payload);
    let (tag, request_id) = take_header(&mut dec)?;
    let response = match tag {
        TAG_HELLO_ACK => Response::HelloAck {
            version: dec.take_u8().map_err(wire::malformed)?,
            server_name: dec.take_str().map_err(wire::malformed)?,
        },
        TAG_REGISTERED => Response::SessionRegistered {
            session: dec.take_u64().map_err(wire::malformed)?,
            analyst: dec.take_u64().map_err(wire::malformed)?,
            privilege: dec.take_u8().map_err(wire::malformed)?,
            resumed: dec.take_bool().map_err(wire::malformed)?,
        },
        TAG_ANSWER => Response::QueryAnswer(wire::take_outcome(&mut dec).map_err(wire::malformed)?),
        TAG_HEARTBEAT_ACK => Response::HeartbeatAck,
        TAG_BUDGET_REPORT => Response::BudgetReport(BudgetReport {
            session: dec.take_u64().map_err(wire::malformed)?,
            analyst: dec.take_u64().map_err(wire::malformed)?,
            privilege: dec.take_u8().map_err(wire::malformed)?,
            budget_constraint: dec.take_f64().map_err(wire::malformed)?,
            budget_consumed: dec.take_f64().map_err(wire::malformed)?,
            budget_remaining: dec.take_f64().map_err(wire::malformed)?,
            submitted: dec.take_u64().map_err(wire::malformed)?,
            answered: dec.take_u64().map_err(wire::malformed)?,
            rejected: dec.take_u64().map_err(wire::malformed)?,
        }),
        TAG_CLOSED => Response::SessionClosed,
        TAG_UPDATER_REGISTERED => Response::UpdaterRegistered,
        TAG_UPDATE_ACCEPTED => Response::UpdateAccepted {
            batch_seq: dec.take_u64().map_err(wire::malformed)?,
            pending: dec.take_u64().map_err(wire::malformed)?,
        },
        TAG_EPOCH_SEALED => Response::EpochSealed {
            epoch: dec.take_u64().map_err(wire::malformed)?,
            batches: dec.take_u64().map_err(wire::malformed)?,
            rows: dec.take_u64().map_err(wire::malformed)?,
            views_patched: dec.take_u64().map_err(wire::malformed)?,
            synopses_invalidated: dec.take_u64().map_err(wire::malformed)?,
        },
        TAG_METRICS_REPORT => {
            Response::MetricsReport(wire::take_metrics_snapshot(&mut dec).map_err(wire::malformed)?)
        }
        TAG_ERROR => {
            let code_raw = dec.take_u32().map_err(wire::malformed)?;
            let code = u16::try_from(code_raw)
                .map_err(|_| wire::malformed(format!("error code {code_raw} out of range")))?;
            let kind = ErrorKind::from_wire_tag(dec.take_u8().map_err(wire::malformed)?);
            let retryable = dec.take_bool().map_err(wire::malformed)?;
            let message = dec.take_str().map_err(wire::malformed)?;
            // Trust the sender's kind/retryable verbatim: a newer peer may
            // classify codes this build does not know.
            Response::Error(ApiError {
                code,
                kind,
                message,
                retryable,
            })
        }
        TAG_MUX_REPLY => Response::MuxReply {
            channel: dec.take_u64().map_err(wire::malformed)?,
            payload: dec.take_bytes().map_err(wire::malformed)?,
        },
        TAG_GROUPED_ANSWER => {
            Response::GroupedAnswer(wire::take_grouped_outcome(&mut dec).map_err(wire::malformed)?)
        }
        t => {
            return Err(wire::malformed(format!("unknown response tag {t}")));
        }
    };
    dec.finish().map_err(wire::malformed)?;
    Ok((request_id, response))
}
