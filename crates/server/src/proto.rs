//! The transport-independent protocol state machine.
//!
//! The event-loop TCP frontend (the `dprov-net` crate) feeds raw request
//! payloads through [`ConnProto::handle_payload`] and obeys the returned
//! [`PayloadOutcome`]; eventual query answers are framed by
//! [`encode_reply`] under the same `(request id, mux scope)` the
//! submission carried. Keeping the state machine here, next to the
//! service it drives, keeps protocol semantics apart from transport
//! plumbing: every response byte is produced by this one code path.
//!
//! **Connection multiplexing** (protocol v3) also lives here. A
//! [`Request::Mux`] frame carries a fully-encoded inner request for a
//! numbered *channel*; each channel runs its own `ProtoState` — its own
//! inner `Hello`, its own session registration — so one TCP connection
//! hosts many independent analyst sessions and a
//! `dprov_api::MuxConnection` client shares one socket between them.
//! Channel rules:
//!
//! * the **outer** `Hello` must complete before any `Mux` frame (same
//!   "first message" rule as every other request);
//! * a channel is created lazily by its first frame, bounded by the
//!   per-connection channel cap (refused with `CHANNEL_LIMIT`);
//! * an inner `CloseSession` (or any closing flow) retires the channel
//!   while the connection lives on; an undecodable inner body likewise
//!   kills only its channel;
//! * `Mux` inside a channel is not nested further — it falls through to
//!   the unknown-request refusal.

use std::collections::HashMap;
use std::sync::Weak;

use dprov_api::protocol::{
    decode_request, encode_response, unknown_request_tag, BudgetReport, Request, Response,
    MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
use dprov_api::{codes, ApiError};
use dprov_core::analyst::AnalystId;
use dprov_obs::{CounterId, HistId, MetricsRegistry, Stage};

use crate::service::{QueryService, Reply, ServerError, Work};
use crate::session::{SessionError, SessionId};

impl From<SessionError> for ApiError {
    fn from(e: SessionError) -> Self {
        // In-crate matches stay exhaustive despite #[non_exhaustive]:
        // adding a variant forces a conscious code assignment here.
        let code = match &e {
            SessionError::Unknown(_) => codes::UNKNOWN_SESSION,
            SessionError::Expired(_) => codes::SESSION_EXPIRED,
        };
        ApiError::new(code, e.to_string())
    }
}

impl From<ServerError> for ApiError {
    fn from(e: ServerError) -> Self {
        match e {
            ServerError::Session(session) => session.into(),
            ServerError::ShuttingDown => shutting_down(),
            ServerError::Core(core) => core.into(),
            ServerError::Storage(storage) => storage.into(),
            ServerError::InvalidConfig(msg) => ApiError::new(codes::INVALID_ARGUMENT, msg),
            ServerError::SessionOwnership { .. } => {
                ApiError::new(codes::SESSION_OWNERSHIP, e.to_string())
            }
        }
    }
}

/// Per-channel (or bare-connection) protocol state.
#[derive(Default)]
struct ProtoState {
    hello_done: bool,
    session: Option<(SessionId, AnalystId)>,
    /// True once this channel authenticated as a data updater (a role
    /// disjoint from analyst sessions).
    is_updater: bool,
}

/// What the state machine decided for one request.
enum ProtoFlow {
    /// Send `response`, keep the channel open.
    Reply(Response),
    /// Send `response`, then close the channel (for a bare connection:
    /// the connection).
    ReplyClose(Response),
    /// A well-formed query submission (scalar or GROUP BY): the frontend
    /// answers it inline or dispatches it with
    /// [`QueryService::try_submit`].
    Submit { session: SessionId, work: Work },
}

/// What the frontend must do with one received payload.
pub enum PayloadOutcome {
    /// Write this encoded response frame and keep reading.
    Reply(Vec<u8>),
    /// Write this frame, then close the whole connection.
    ReplyClose(Vec<u8>),
    /// Answer this work: the frontend first offers it to
    /// [`QueryService::try_answer_inline`] and hands only what that
    /// refuses to the worker pool. Either way the response goes through
    /// [`reply_to_protocol`] and [`encode_reply`] under the same
    /// `(request_id, scope)`.
    Submit {
        /// The session the work runs on.
        session: SessionId,
        /// The validated submission (scalar or GROUP BY).
        work: Work,
        /// The pipelining id the reply must echo (doubles as trace id).
        request_id: u64,
        /// `Some(channel)` when the submission arrived inside a mux
        /// channel; its reply must be wrapped back into that channel.
        scope: Option<u64>,
    },
}

/// The full per-connection protocol state: the bare connection's state
/// machine plus one state machine per live mux channel.
pub struct ConnProto {
    root: ProtoState,
    channels: HashMap<u64, ProtoState>,
    max_channels: usize,
}

impl ConnProto {
    /// A fresh connection that may host up to `max_channels` mux channels.
    #[must_use]
    pub fn new(max_channels: usize) -> Self {
        ConnProto {
            root: ProtoState::default(),
            channels: HashMap::new(),
            max_channels,
        }
    }

    /// Decodes and handles one request payload (outer or mux-wrapped),
    /// recording decode/reply metrics under trace lane `lane`.
    pub fn handle_payload(
        &mut self,
        service: &Weak<QueryService>,
        server_name: &str,
        metrics: &MetricsRegistry,
        lane: u64,
        payload: &[u8],
    ) -> PayloadOutcome {
        let decode_start = metrics.start();
        let (request_id, request) = match decode_request(payload) {
            Ok(pair) => pair,
            Err(e) => {
                // The frame boundary is intact (framing is below us). A
                // header that decodes with a tag no request uses (a newer
                // or retired message) costs only that request: it is
                // refused under its own id and the connection stays open.
                if let Some(request_id) = unknown_request_tag(payload) {
                    return PayloadOutcome::Reply(encode_response(request_id, &Response::Error(e)));
                }
                // Anything else is undecodable — the peer speaks a
                // different dialect. Report once and drop the connection:
                // without a request id, outstanding requests cannot be
                // answered reliably anyway.
                return PayloadOutcome::ReplyClose(encode_response(0, &Response::Error(e)));
            }
        };
        if let Some(t0) = decode_start {
            let dur = t0.elapsed();
            metrics.observe_duration(HistId::FrontendDecode, dur);
            metrics.trace(request_id, Stage::Decode, lane, t0, dur);
        }
        metrics.incr(CounterId::FrontendRequests);
        if let Request::Mux { channel, payload } = request {
            return self.handle_mux(service, server_name, metrics, lane, channel, &payload);
        }
        match handle_request(&mut self.root, service, server_name, request) {
            ProtoFlow::Reply(r) => {
                PayloadOutcome::Reply(encode_reply(metrics, lane, request_id, None, &r))
            }
            ProtoFlow::ReplyClose(r) => {
                PayloadOutcome::ReplyClose(encode_reply(metrics, lane, request_id, None, &r))
            }
            ProtoFlow::Submit { session, work } => PayloadOutcome::Submit {
                session,
                work,
                request_id,
                scope: None,
            },
        }
    }

    /// Routes one mux-wrapped inner payload to its channel's state
    /// machine.
    fn handle_mux(
        &mut self,
        service: &Weak<QueryService>,
        server_name: &str,
        metrics: &MetricsRegistry,
        lane: u64,
        channel: u64,
        inner: &[u8],
    ) -> PayloadOutcome {
        if !self.root.hello_done {
            return PayloadOutcome::ReplyClose(encode_response(
                0,
                &Response::Error(ApiError::new(
                    codes::UNEXPECTED_MESSAGE,
                    "the first message on a connection must be Hello",
                )),
            ));
        }
        let decode_start = metrics.start();
        let (inner_id, request) = match decode_request(inner) {
            Ok(pair) => pair,
            Err(e) => {
                // A broken dialect kills only its channel; sibling
                // channels (and the connection) are unaffected.
                self.channels.remove(&channel);
                return PayloadOutcome::Reply(encode_reply(
                    metrics,
                    lane,
                    0,
                    Some(channel),
                    &Response::Error(e),
                ));
            }
        };
        if let Some(t0) = decode_start {
            let dur = t0.elapsed();
            metrics.observe_duration(HistId::FrontendDecode, dur);
            metrics.trace(inner_id, Stage::Decode, lane, t0, dur);
        }
        metrics.incr(CounterId::FrontendRequests);
        if !self.channels.contains_key(&channel) && self.channels.len() >= self.max_channels {
            return PayloadOutcome::Reply(encode_reply(
                metrics,
                lane,
                inner_id,
                Some(channel),
                &Response::Error(ApiError::new(
                    codes::CHANNEL_LIMIT,
                    format!(
                        "connection already carries {} mux channels",
                        self.max_channels
                    ),
                )),
            ));
        }
        let state = self.channels.entry(channel).or_default();
        match handle_request(state, service, server_name, request) {
            ProtoFlow::Reply(r) => {
                PayloadOutcome::Reply(encode_reply(metrics, lane, inner_id, Some(channel), &r))
            }
            ProtoFlow::ReplyClose(r) => {
                self.channels.remove(&channel);
                PayloadOutcome::Reply(encode_reply(metrics, lane, inner_id, Some(channel), &r))
            }
            ProtoFlow::Submit { session, work } => PayloadOutcome::Submit {
                session,
                work,
                request_id: inner_id,
                scope: Some(channel),
            },
        }
    }
}

/// Encodes `response` for the wire, wrapped into a [`Response::MuxReply`]
/// when `scope` names a channel, and records reply-stage metrics. Inline
/// and queued answers both funnel through here, so their framing cannot
/// diverge.
#[must_use]
pub fn encode_reply(
    metrics: &MetricsRegistry,
    lane: u64,
    request_id: u64,
    scope: Option<u64>,
    response: &Response,
) -> Vec<u8> {
    let reply_start = metrics.start();
    let frame = match scope {
        None => encode_response(request_id, response),
        Some(channel) => {
            let inner = encode_response(request_id, response);
            // The outer frame echoes the inner id; mux clients route by
            // channel and ignore the outer id.
            encode_response(
                request_id,
                &Response::MuxReply {
                    channel,
                    payload: inner,
                },
            )
        }
    };
    if let Some(t0) = reply_start {
        let dur = t0.elapsed();
        metrics.observe_duration(HistId::FrontendReply, dur);
        metrics.trace(request_id, Stage::Reply, lane, t0, dur);
    }
    frame
}

/// Maps a service response onto the wire protocol — the single
/// conversion for inline and queued answers alike.
#[must_use]
pub fn reply_to_protocol(response: Result<Reply, ServerError>) -> Response {
    match response {
        Ok(Reply::Scalar(outcome)) => Response::QueryAnswer(outcome),
        Ok(Reply::Grouped(outcome)) => Response::GroupedAnswer(outcome),
        Err(server_error) => Response::Error(server_error.into()),
    }
}

/// One step of the per-channel state machine. Control requests are
/// answered inline (so they overtake long-running query work); query
/// submissions are validated here and handed back for the frontend to
/// dispatch.
fn handle_request(
    state: &mut ProtoState,
    service: &Weak<QueryService>,
    server_name: &str,
    request: Request,
) -> ProtoFlow {
    match request {
        Request::Hello { max_version, .. } => {
            if state.hello_done {
                return ProtoFlow::Reply(Response::Error(ApiError::new(
                    codes::UNEXPECTED_MESSAGE,
                    "hello already exchanged on this connection",
                )));
            }
            // min(client, server), refused only below the floor this
            // build still understands.
            let negotiated = max_version.min(PROTOCOL_VERSION);
            if negotiated < MIN_SUPPORTED_VERSION {
                return ProtoFlow::ReplyClose(Response::Error(ApiError::new(
                    codes::UNSUPPORTED_VERSION,
                    format!(
                        "client speaks up to version {max_version}; this server supports \
                         {MIN_SUPPORTED_VERSION}..={PROTOCOL_VERSION}"
                    ),
                )));
            }
            state.hello_done = true;
            ProtoFlow::Reply(Response::HelloAck {
                version: negotiated,
                server_name: server_name.to_owned(),
            })
        }
        _ if !state.hello_done => ProtoFlow::ReplyClose(Response::Error(ApiError::new(
            codes::UNEXPECTED_MESSAGE,
            "the first message on a connection must be Hello",
        ))),
        Request::RegisterSession {
            analyst_name,
            resume,
        } => {
            if state.session.is_some() {
                return ProtoFlow::Reply(Response::Error(ApiError::new(
                    codes::UNEXPECTED_MESSAGE,
                    "connection already carries a session (one session per connection)",
                )));
            }
            let Some(service) = service.upgrade() else {
                return ProtoFlow::ReplyClose(Response::Error(shutting_down()));
            };
            let Some(analyst) = service
                .system()
                .registry()
                .find_by_name(&analyst_name)
                .map(|a| (a.id, a.privilege.level()))
            else {
                return ProtoFlow::Reply(Response::Error(ApiError::new(
                    codes::UNKNOWN_ANALYST,
                    format!("no analyst named {analyst_name:?} in the roster"),
                )));
            };
            let (analyst_id, privilege) = analyst;
            let registered = match resume {
                Some(session) => service
                    .resume_session(SessionId(session), analyst_id)
                    .map(|()| (SessionId(session), true)),
                None => service.open_session(analyst_id).map(|id| (id, false)),
            };
            match registered {
                Ok((session_id, resumed)) => {
                    state.session = Some((session_id, analyst_id));
                    ProtoFlow::Reply(Response::SessionRegistered {
                        session: session_id.0,
                        analyst: analyst_id.0 as u64,
                        privilege,
                        resumed,
                    })
                }
                Err(e) => ProtoFlow::Reply(Response::Error(e.into())),
            }
        }
        Request::SubmitQuery(request) => submit_flow(state, service, Work::Scalar(request)),
        Request::GroupByQuery(request) => submit_flow(state, service, Work::Grouped(request)),
        Request::Heartbeat => {
            let Some((session_id, _)) = state.session else {
                return ProtoFlow::Reply(Response::Error(no_session()));
            };
            let Some(service) = service.upgrade() else {
                return ProtoFlow::Reply(Response::Error(shutting_down()));
            };
            match service.heartbeat(session_id) {
                Ok(()) => ProtoFlow::Reply(Response::HeartbeatAck),
                Err(e) => ProtoFlow::Reply(Response::Error(e.into())),
            }
        }
        Request::BudgetStatus => {
            let Some((session_id, _)) = state.session else {
                return ProtoFlow::Reply(Response::Error(no_session()));
            };
            let Some(service) = service.upgrade() else {
                return ProtoFlow::Reply(Response::Error(shutting_down()));
            };
            match service.session_info(session_id) {
                Ok(info) => ProtoFlow::Reply(Response::BudgetReport(BudgetReport {
                    session: info.id.0,
                    analyst: info.analyst.0 as u64,
                    privilege: info.privilege,
                    budget_constraint: info.budget_constraint,
                    budget_consumed: info.budget_consumed,
                    budget_remaining: info.budget_remaining,
                    submitted: info.submitted as u64,
                    answered: info.answered as u64,
                    rejected: info.rejected as u64,
                })),
                Err(e) => ProtoFlow::Reply(Response::Error(e.into())),
            }
        }
        Request::RegisterUpdater { updater_name } => {
            let Some(service) = service.upgrade() else {
                return ProtoFlow::ReplyClose(Response::Error(shutting_down()));
            };
            if !service.is_updater(&updater_name) {
                return ProtoFlow::Reply(Response::Error(ApiError::new(
                    codes::NOT_UPDATER,
                    format!("{updater_name:?} is not in the configured updater roster"),
                )));
            }
            state.is_updater = true;
            ProtoFlow::Reply(Response::UpdaterRegistered)
        }
        Request::ApplyUpdate(batch) => {
            if !state.is_updater {
                return ProtoFlow::Reply(Response::Error(not_updater()));
            }
            let Some(service) = service.upgrade() else {
                return ProtoFlow::Reply(Response::Error(shutting_down()));
            };
            match service.apply_update(&batch) {
                Ok(batch_seq) => ProtoFlow::Reply(Response::UpdateAccepted {
                    batch_seq,
                    pending: service.system().pending_updates() as u64,
                }),
                Err(e) => ProtoFlow::Reply(Response::Error(e.into())),
            }
        }
        Request::SealEpoch => {
            if !state.is_updater {
                return ProtoFlow::Reply(Response::Error(not_updater()));
            }
            let Some(service) = service.upgrade() else {
                return ProtoFlow::Reply(Response::Error(shutting_down()));
            };
            match service.seal_epoch() {
                Ok(report) => ProtoFlow::Reply(Response::EpochSealed {
                    epoch: report.epoch,
                    batches: report.batches as u64,
                    rows: report.rows as u64,
                    views_patched: report.views_patched.len() as u64,
                    synopses_invalidated: report.synopses_invalidated as u64,
                }),
                Err(e) => ProtoFlow::Reply(Response::Error(e.into())),
            }
        }
        Request::MetricsSnapshot => {
            // Deliberately session-free (like `RegisterUpdater`): an
            // operator dashboard polls metrics without holding an analyst
            // budget session. The snapshot is aggregate telemetry — no
            // per-query answers — so it leaks nothing a session would
            // gate.
            let Some(service) = service.upgrade() else {
                return ProtoFlow::Reply(Response::Error(shutting_down()));
            };
            ProtoFlow::Reply(Response::MetricsReport(service.metrics_snapshot()))
        }
        Request::CloseSession => {
            let Some((session_id, _)) = state.session.take() else {
                return ProtoFlow::ReplyClose(Response::Error(no_session()));
            };
            if let Some(service) = service.upgrade() {
                let _ = service.close_session(session_id);
            }
            ProtoFlow::ReplyClose(Response::SessionClosed)
        }
        // `Request` is #[non_exhaustive]: a request type this build does
        // not know gets a typed refusal, not a dropped frame. A nested
        // `Mux` inside a channel lands here too — channels do not nest.
        other => ProtoFlow::Reply(Response::Error(ApiError::new(
            codes::UNEXPECTED_MESSAGE,
            format!("request type not supported by this server: {other:?}"),
        ))),
    }
}

/// Validates a query submission against the channel state and hands it
/// back for the frontend to dispatch.
fn submit_flow(state: &ProtoState, service: &Weak<QueryService>, work: Work) -> ProtoFlow {
    let Some((session, _)) = state.session else {
        return ProtoFlow::Reply(Response::Error(no_session()));
    };
    if service.upgrade().is_none() {
        return ProtoFlow::Reply(Response::Error(shutting_down()));
    }
    ProtoFlow::Submit { session, work }
}

fn shutting_down() -> ApiError {
    ApiError::new(codes::SHUTTING_DOWN, "service is shutting down")
}

fn no_session() -> ApiError {
    ApiError::new(
        codes::NO_SESSION,
        "register a session before using this request",
    )
}

fn not_updater() -> ApiError {
    ApiError::new(
        codes::NOT_UPDATER,
        "register as an updater before submitting updates or sealing epochs",
    )
}
