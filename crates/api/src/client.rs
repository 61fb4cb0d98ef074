//! The blocking analyst client.
//!
//! [`DProvClient`] drives one connection — one analyst session — through
//! the versioned protocol:
//!
//! * [`DProvClient::query`] is the synchronous path: submit, block, get
//!   the outcome;
//! * [`DProvClient::submit`] / [`DProvClient::poll`] is the **pipelined**
//!   path: enqueue any number of queries (each gets a [`RequestId`]),
//!   then collect outcomes in any order. The service executes one
//!   session's queries in submission order (session lanes), but control
//!   responses (heartbeats, budget reports) overtake long-running query
//!   work, so responses can arrive out of request order — the client
//!   stashes whatever it is not currently waiting for;
//! * [`DProvClient::budget`] is the analyst's remaining-budget panel;
//! * [`DProvClient::resume`] re-attaches to a live session after a
//!   reconnect (including across a service restart recovered by
//!   `start_durable`).
//!
//! The client is deliberately transport-blind: hand it any
//! [`Connection`] — a TCP socket or a mux channel on one.

use std::collections::{HashMap, HashSet};

use dprov_core::processor::{GroupedOutcome, GroupedRequest, QueryOutcome, QueryRequest};

use crate::error::{codes, ApiError};
use crate::protocol::{
    decode_response, encode_request, BudgetReport, Request, Response, MIN_SUPPORTED_VERSION,
    PROTOCOL_VERSION,
};
use crate::transport::Connection;

/// Handle to one in-flight pipelined query (see [`DProvClient::submit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

/// What one epoch seal did, as reported over the wire (see
/// [`DProvClient::seal_epoch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSealReport {
    /// The sealed epoch's number.
    pub epoch: u64,
    /// Update batches the epoch applied.
    pub batches: u64,
    /// Delta rows (inserts + deletes) the epoch applied.
    pub rows: u64,
    /// Views whose exact histograms were patched.
    pub views_patched: u64,
    /// Cached noisy synopses invalidated under the epoch policy.
    pub(crate) synopses_invalidated: u64,
}

/// The session a client is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionDescriptor {
    /// The session id (quote to [`DProvClient::resume`] after reconnect).
    pub session: u64,
    /// The authenticated analyst's dense roster id.
    pub analyst: u64,
    /// The analyst's privilege level.
    pub privilege: u8,
    /// True when the session was resumed rather than freshly opened.
    pub resumed: bool,
}

/// A blocking analyst client over any [`Connection`].
pub struct DProvClient {
    conn: Connection,
    next_id: u64,
    /// Ids sent but not yet resolved (their response may still be on the
    /// wire). A response moves its id from here into `stash` if something
    /// else is being awaited.
    pending: HashSet<u64>,
    stash: HashMap<u64, Response>,
    session: Option<SessionDescriptor>,
    version: u8,
}

impl std::fmt::Debug for DProvClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DProvClient")
            .field("version", &self.version)
            .field("session", &self.session)
            .field("pending", &self.stash.len())
            .finish_non_exhaustive()
    }
}

impl DProvClient {
    /// Opens the conversation over `conn` (sends `Hello`, negotiates the
    /// protocol version).
    pub fn connect(conn: Connection, client_name: &str) -> Result<Self, ApiError> {
        let mut client = DProvClient {
            conn,
            next_id: 1,
            pending: HashSet::new(),
            stash: HashMap::new(),
            session: None,
            version: PROTOCOL_VERSION,
        };
        let response = client.call(&Request::Hello {
            max_version: PROTOCOL_VERSION,
            client_name: client_name.to_owned(),
        })?;
        match response {
            Response::HelloAck { version, .. } => {
                // The server answers min(client, server); accept anything
                // this build still understands.
                if !(MIN_SUPPORTED_VERSION..=PROTOCOL_VERSION).contains(&version) {
                    return Err(ApiError::new(
                        codes::UNSUPPORTED_VERSION,
                        format!(
                            "server negotiated version {version}, outside this client's                              supported {MIN_SUPPORTED_VERSION}..={PROTOCOL_VERSION}"
                        ),
                    ));
                }
                client.version = version;
                Ok(client)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Connects over TCP and performs the `Hello` handshake.
    pub fn connect_tcp(
        addr: impl std::net::ToSocketAddrs,
        client_name: &str,
    ) -> Result<Self, ApiError> {
        Self::connect(Connection::connect_tcp(addr)?, client_name)
    }

    /// Authenticates as `analyst_name` (a roster name) and opens a fresh
    /// session.
    pub fn register(&mut self, analyst_name: &str) -> Result<SessionDescriptor, ApiError> {
        self.register_inner(analyst_name, None)
    }

    /// Re-attaches to an existing session after a reconnect. The service
    /// verifies the session belongs to `analyst_name`; budgets and the
    /// session's deterministic noise stream continue where they left off.
    pub fn resume(
        &mut self,
        analyst_name: &str,
        session: u64,
    ) -> Result<SessionDescriptor, ApiError> {
        self.register_inner(analyst_name, Some(session))
    }

    fn register_inner(
        &mut self,
        analyst_name: &str,
        resume: Option<u64>,
    ) -> Result<SessionDescriptor, ApiError> {
        let response = self.call(&Request::RegisterSession {
            analyst_name: analyst_name.to_owned(),
            resume,
        })?;
        match response {
            Response::SessionRegistered {
                session,
                analyst,
                privilege,
                resumed,
            } => {
                let descriptor = SessionDescriptor {
                    session,
                    analyst,
                    privilege,
                    resumed,
                };
                self.session = Some(descriptor);
                Ok(descriptor)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// The attached session, once [`DProvClient::register`] /
    /// [`DProvClient::resume`] succeeded.
    #[must_use]
    pub fn session(&self) -> Option<&SessionDescriptor> {
        self.session.as_ref()
    }

    /// Submits a query without waiting for its outcome. Returns a
    /// [`RequestId`] to [`DProvClient::poll`] later; any number of
    /// submissions may be in flight on the connection.
    pub fn submit(&mut self, request: &QueryRequest) -> Result<RequestId, ApiError> {
        let id = self.send(&Request::SubmitQuery(request.clone()))?;
        Ok(RequestId(id))
    }

    /// Blocks until the outcome of a pipelined submission arrives.
    /// Responses for *other* in-flight requests received meanwhile are
    /// stashed for their own `poll` calls.
    pub fn poll(&mut self, id: RequestId) -> Result<QueryOutcome, ApiError> {
        match self.wait_for(id.0)? {
            Response::QueryAnswer(outcome) => Ok(outcome),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a query and blocks for its outcome (the synchronous path).
    pub fn query(&mut self, request: &QueryRequest) -> Result<QueryOutcome, ApiError> {
        let id = self.submit(request)?;
        self.poll(id)
    }

    /// Submits a GROUP BY query without waiting for its outcome (the
    /// pipelined path); collect it with [`DProvClient::poll_grouped`].
    pub fn submit_group_by(&mut self, request: &GroupedRequest) -> Result<RequestId, ApiError> {
        let id = self.send(&Request::GroupByQuery(request.clone()))?;
        Ok(RequestId(id))
    }

    /// Blocks until the grouped outcome of a pipelined
    /// [`DProvClient::submit_group_by`] arrives.
    pub fn poll_grouped(&mut self, id: RequestId) -> Result<GroupedOutcome, ApiError> {
        match self.wait_for(id.0)? {
            Response::GroupedAnswer(outcome) => Ok(outcome),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a GROUP BY query and blocks for its outcome: one DP answer
    /// per group in the canonical group-enumeration order, each cell with
    /// its own accept/reject outcome.
    pub fn group_by(&mut self, request: &GroupedRequest) -> Result<GroupedOutcome, ApiError> {
        let id = self.submit_group_by(request)?;
        self.poll_grouped(id)
    }

    /// The session's budget panel: constraint, consumed, remaining, and
    /// per-session counters.
    pub fn budget(&mut self) -> Result<BudgetReport, ApiError> {
        match self.call(&Request::BudgetStatus)? {
            Response::BudgetReport(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Refreshes the session's heartbeat (keeps it from expiring while no
    /// queries are being submitted).
    pub fn heartbeat(&mut self) -> Result<(), ApiError> {
        match self.call(&Request::Heartbeat)? {
            Response::HeartbeatAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Closes the session and the conversation.
    pub fn close(mut self) -> Result<(), ApiError> {
        match self.call(&Request::CloseSession)? {
            Response::SessionClosed => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Authenticates this connection as a data updater (a role distinct
    /// from analysts; the name is checked against the service's configured
    /// updater roster). Required before [`DProvClient::apply_update`] /
    /// [`DProvClient::seal_epoch`].
    pub fn register_updater(&mut self, updater_name: &str) -> Result<(), ApiError> {
        match self.call(&Request::RegisterUpdater {
            updater_name: updater_name.to_owned(),
        })? {
            Response::UpdaterRegistered => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits one insert/delete batch. The batch is validated and made
    /// durable before the acknowledgement; it takes effect at the next
    /// [`DProvClient::seal_epoch`]. Returns `(batch_seq, pending)`.
    pub fn apply_update(
        &mut self,
        batch: &dprov_delta::UpdateBatch,
    ) -> Result<(u64, u64), ApiError> {
        match self.call(&Request::ApplyUpdate(batch.clone()))? {
            Response::UpdateAccepted { batch_seq, pending } => Ok((batch_seq, pending)),
            other => Err(unexpected(&other)),
        }
    }

    /// Seals every pending update batch into the next epoch and returns
    /// the sealed report `(epoch, batches, rows, views_patched,
    /// synopses_invalidated)`.
    pub fn seal_epoch(&mut self) -> Result<EpochSealReport, ApiError> {
        match self.call(&Request::SealEpoch)? {
            Response::EpochSealed {
                epoch,
                batches,
                rows,
                views_patched,
                synopses_invalidated,
            } => Ok(EpochSealReport {
                epoch,
                batches,
                rows,
                views_patched,
                synopses_invalidated,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the service's observability snapshot: stage-latency
    /// histograms (p50/p95/p99/max), event counters, queue/batch
    /// telemetry and per-(analyst, view) remaining-budget gauges. Works
    /// on any connection after the `Hello` handshake — no session
    /// required, so a dashboard can poll without consuming an analyst
    /// slot.
    pub fn metrics(&mut self) -> Result<dprov_obs::MetricsSnapshot, ApiError> {
        match self.call(&Request::MetricsSnapshot)? {
            Response::MetricsReport(snapshot) => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends a request and returns its id.
    fn send(&mut self, request: &Request) -> Result<u64, ApiError> {
        let id = self.next_id;
        self.next_id += 1;
        self.conn.send(encode_request(id, request))?;
        self.pending.insert(id);
        Ok(id)
    }

    /// Sends a request and blocks for *its* response.
    fn call(&mut self, request: &Request) -> Result<Response, ApiError> {
        let id = self.send(request)?;
        self.wait_for(id)
    }

    /// Blocks until the response for `id` arrives, stashing interleaved
    /// responses to other request ids. An `Error` response surfaces as
    /// `Err` with the transmitted taxonomy.
    fn wait_for(&mut self, id: u64) -> Result<Response, ApiError> {
        if let Some(response) = self.stash.remove(&id) {
            return unwrap_error(response);
        }
        // An id that is neither stashed nor in flight will never get a
        // response — fail fast instead of blocking on the wire forever
        // (e.g. polling the same RequestId twice).
        if !self.pending.contains(&id) {
            return Err(ApiError::new(
                codes::INVALID_ARGUMENT,
                format!("request id {id} is unknown or was already consumed"),
            ));
        }
        loop {
            let payload = self.conn.recv()?.ok_or_else(|| {
                ApiError::new(
                    codes::CONNECTION_CLOSED,
                    "connection closed with a response outstanding",
                )
            })?;
            let (rid, response) = decode_response(&payload)?;
            self.pending.remove(&rid);
            if rid == id {
                return unwrap_error(response);
            }
            self.stash.insert(rid, response);
        }
    }
}

fn unwrap_error(response: Response) -> Result<Response, ApiError> {
    match response {
        Response::Error(e) => Err(e),
        other => Ok(other),
    }
}

fn unexpected(response: &Response) -> ApiError {
    ApiError::new(
        codes::UNEXPECTED_MESSAGE,
        format!("unexpected response type: {response:?}"),
    )
}
