//! The in-process protocol frontend: serves the versioned analyst
//! protocol (`dprov-api`) over the worker pool without a socket. TCP is
//! served by the `dprov-net` event loop; this transport is what embedders
//! and tests connect through, and the transport-independent reference the
//! event loop's differential suite compares against.
//!
//! A [`Frontend`] hands out [`Connection`]s — in-process channel pairs via
//! [`Frontend::connect`], or any established transport via
//! [`Frontend::serve`] — and runs each through three threads:
//!
//! * a **reader** decoding request frames, enforcing the connection state
//!   machine (`Hello` → `RegisterSession` → everything else) and
//!   answering control requests (heartbeat, budget, close) inline, so
//!   they overtake long-running query work;
//! * a **forwarder** draining query receivers in submission order — the
//!   session lanes already execute a session's queries FIFO, so waiting
//!   on the head receiver never delays a later one — and turning each
//!   outcome into a response frame tagged with its pipelining request id;
//! * a **writer** owning the send half, serialising response frames from
//!   both of the above.
//!
//! One connection maps to at most one session. Authentication is by
//! analyst roster name (the roster is trusted configuration installed at
//! system build time); a reconnecting client may `resume` its previous
//! session — including across a service restart recovered by
//! [`QueryService::start_durable`] — and the frontend verifies the
//! session's ownership before re-attaching.
//!
//! The frontend holds the service [`Weak`]ly: dropping the last owning
//! `Arc<QueryService>` (or calling [`QueryService::shutdown`] after
//! unwrapping it) invalidates the frontend gracefully — live connections
//! get retryable `SHUTTING_DOWN` errors instead of hangs, and the
//! service's worker threads are never kept alive by idle connections.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::JoinHandle;

use dprov_api::protocol::Response;
use dprov_api::{codes, ApiError, Connection};
use dprov_obs::{CounterId, MetricsRegistry};

use crate::proto::{
    encode_reply, reply_to_protocol, shutting_down, ConnProto, PayloadOutcome, DEFAULT_MAX_CHANNELS,
};
use crate::service::{Pending, QueryService, ServerError};
use crate::session::SessionError;

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

/// Trace lanes: workers occupy lanes `0..N`; frontend connections start
/// here so their decode/reply stages render on distinct trace rows.
const FRONTEND_LANE_BASE: u64 = 1_000;

/// The analyst-protocol server over a [`QueryService`].
pub struct Frontend {
    service: Weak<QueryService>,
    server_name: String,
    /// Cloned from the service's system at construction, so frontend
    /// events land in the same registry as everything downstream (and
    /// keep recording even while the service reference is only weak).
    metrics: MetricsRegistry,
    /// Connections ever accepted; numbers the per-connection trace lane.
    connections: AtomicU64,
}

impl Frontend {
    /// A frontend over `service`. The reference is held weakly — see the
    /// module docs for the lifecycle contract.
    #[must_use]
    pub fn new(service: &Arc<QueryService>) -> Arc<Self> {
        Arc::new(Frontend {
            service: Arc::downgrade(service),
            server_name: format!("dprov-server/{}", env!("CARGO_PKG_VERSION")),
            metrics: service.metrics().clone(),
            connections: AtomicU64::new(0),
        })
    }

    /// Opens an in-process connection: the returned [`Connection`] is the
    /// client side of a zero-copy channel pair whose server side this
    /// frontend serves on a dedicated thread. Feed it to
    /// `dprov_api::DProvClient::connect`.
    #[must_use]
    pub fn connect(self: &Arc<Self>) -> Connection {
        let (client, server) = Connection::pair();
        self.serve(server);
        client
    }

    /// Serves one established connection (any transport) on a dedicated
    /// reader thread; returns its join handle.
    pub fn serve(self: &Arc<Self>, conn: Connection) -> JoinHandle<()> {
        let frontend = Arc::clone(self);
        std::thread::Builder::new()
            .name("dprov-frontend-conn".to_owned())
            .spawn(move || frontend.serve_connection(conn))
            .expect("failed to spawn frontend connection thread")
    }

    /// The full lifecycle of one connection (runs on the reader thread).
    fn serve_connection(self: Arc<Self>, conn: Connection) {
        self.metrics.incr(CounterId::FrontendConnections);
        let lane = FRONTEND_LANE_BASE + self.connections.fetch_add(1, Ordering::Relaxed);
        let (mut sink, mut source) = conn.split();

        // Writer: the single owner of the send half; both the reader and
        // the forwarder hand it encoded response frames.
        let (out_tx, out_rx) = mpsc::channel::<Vec<u8>>();
        let writer = std::thread::Builder::new()
            .name("dprov-frontend-write".to_owned())
            .spawn(move || {
                while let Ok(frame) = out_rx.recv() {
                    if sink.send(frame).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn frontend writer thread");

        // Forwarder: drains query receivers in submission order. Session
        // lanes execute a session's queries FIFO, so blocking on the head
        // receiver never delays a later outcome. Each entry carries its
        // mux scope so a channel's answer is wrapped back into it.
        let (pending_tx, pending_rx) = mpsc::channel::<(u64, Option<u64>, Pending)>();
        let forward_out = out_tx.clone();
        let forward_metrics = self.metrics.clone();
        let forwarder = std::thread::Builder::new()
            .name("dprov-frontend-forward".to_owned())
            .spawn(move || {
                while let Ok((request_id, scope, pending)) = pending_rx.recv() {
                    let response = reply_to_protocol(pending.wait());
                    let frame = encode_reply(&forward_metrics, lane, request_id, scope, &response);
                    if forward_out.send(frame).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn frontend forwarder thread");

        let mut proto = ConnProto::new(DEFAULT_MAX_CHANNELS);
        // The reader stops on clean close or transport failure: either way
        // the stream is done. Sessions are NOT closed here — a
        // reconnecting client resumes by id; abandonment is the TTL's job.
        while let Ok(Some(payload)) = source.recv() {
            match proto.handle_payload(
                &self.service,
                &self.server_name,
                &self.metrics,
                lane,
                &payload,
            ) {
                PayloadOutcome::Reply(frame) => {
                    let _ = out_tx.send(frame);
                }
                PayloadOutcome::ReplyClose(frame) => {
                    let _ = out_tx.send(frame);
                    break;
                }
                PayloadOutcome::Submit {
                    session,
                    work,
                    request_id,
                    scope,
                } => {
                    // The protocol's pipelining id doubles as the trace
                    // id, so one request's decode, queue-wait, execute and
                    // reply stages share a key in the exported trace.
                    let submitted = match self.service.upgrade() {
                        Some(service) => service
                            .submit(session, work, Some(request_id))
                            .map_err(ApiError::from),
                        None => Err(shutting_down()),
                    };
                    match submitted {
                        Ok(pending) => {
                            // The forwarder answers this id when the
                            // worker pool does; the reader moves straight
                            // on to the next pipelined request.
                            let _ = pending_tx.send((request_id, scope, pending));
                        }
                        Err(e) => {
                            let frame = encode_reply(
                                &self.metrics,
                                lane,
                                request_id,
                                scope,
                                &Response::Error(e),
                            );
                            let _ = out_tx.send(frame);
                        }
                    }
                }
            }
        }

        // Tear down: dropping the channels lets the forwarder finish its
        // backlog (answers nobody will read) and the writer drain and exit.
        drop(pending_tx);
        drop(out_tx);
        let _ = forwarder.join();
        let _ = writer.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_api::protocol::{encode_request, Request, PROTOCOL_VERSION};
    use dprov_api::DProvClient;
    use dprov_core::analyst::AnalystRegistry;
    use dprov_core::config::SystemConfig;
    use dprov_core::mechanism::MechanismKind;
    use dprov_core::processor::QueryRequest;
    use dprov_core::system::DProvDb;
    use dprov_engine::catalog::ViewCatalog;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_engine::query::Query;

    use crate::service::ServiceConfig;

    fn service() -> Arc<QueryService> {
        let db = adult_database(800, 1);
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        let mut registry = AnalystRegistry::new();
        registry.register("alice", 2).unwrap();
        registry.register("bob", 4).unwrap();
        let config = SystemConfig::new(8.0).unwrap().with_seed(11);
        let system = Arc::new(
            DProvDb::new(
                db,
                catalog,
                registry,
                config,
                MechanismKind::AdditiveGaussian,
            )
            .unwrap(),
        );
        Arc::new(QueryService::start(
            system,
            ServiceConfig::builder().workers(2).build().unwrap(),
        ))
    }

    fn request(lo: i64, hi: i64, variance: f64) -> QueryRequest {
        QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), variance)
    }

    #[test]
    fn in_process_client_round_trips_the_full_protocol() {
        let service = service();
        let frontend = Frontend::new(&service);
        let mut client = DProvClient::connect(frontend.connect(), "test-client").unwrap();
        let descriptor = client.register("bob").unwrap();
        assert_eq!(descriptor.analyst, 1);
        assert_eq!(descriptor.privilege, 4);
        assert!(!descriptor.resumed);

        // Synchronous query.
        let outcome = client.query(&request(30, 39, 500.0)).unwrap();
        assert!(outcome.is_answered());

        // Pipelined submissions come back matched to their ids.
        let ids: Vec<_> = (0..6)
            .map(|i| {
                client
                    .submit(&request(20 + i, 45, 600.0 + i as f64))
                    .unwrap()
            })
            .collect();
        // Control traffic overtakes in-flight queries.
        client.heartbeat().unwrap();
        let consumed = ids[0];
        for id in ids {
            assert!(client.poll(id).unwrap().is_answered());
        }
        // Polling a consumed id fails fast instead of blocking forever.
        assert_eq!(
            client.poll(consumed).unwrap_err().code,
            codes::INVALID_ARGUMENT
        );

        let budget = client.budget().unwrap();
        assert_eq!(budget.session, descriptor.session);
        assert_eq!(budget.submitted, 7);
        assert!(budget.budget_consumed > 0.0);
        assert!(budget.budget_remaining < budget.budget_constraint);

        client.close().unwrap();
        assert_eq!(service.sessions().len(), 0, "close removed the session");
    }

    #[test]
    fn protocol_state_machine_is_enforced() {
        let service = service();
        let frontend = Frontend::new(&service);

        // Requests before Hello are refused (and the connection closed).
        let mut raw = frontend.connect();
        raw.send(encode_request(1, &Request::Heartbeat)).unwrap();
        let (_, response) =
            dprov_api::protocol::decode_response(&raw.recv().unwrap().unwrap()).unwrap();
        match response {
            Response::Error(e) => assert_eq!(e.code, codes::UNEXPECTED_MESSAGE),
            other => panic!("expected an error, got {other:?}"),
        }

        // Unknown analysts are refused at registration.
        let mut client = DProvClient::connect(frontend.connect(), "t").unwrap();
        let err = client.register("mallory").unwrap_err();
        assert_eq!(err.code, codes::UNKNOWN_ANALYST);
        // The connection survives an auth failure; a roster name works.
        client.register("alice").unwrap();
        // Queries before registration are refused on a fresh connection.
        let mut fresh = DProvClient::connect(frontend.connect(), "t2").unwrap();
        let err = fresh.query(&request(20, 30, 500.0)).unwrap_err();
        assert_eq!(err.code, codes::NO_SESSION);
        // So is closing a session that was never registered.
        assert_eq!(fresh.close().unwrap_err().code, codes::NO_SESSION);
    }

    #[test]
    fn hello_negotiates_min_of_client_and_server_versions() {
        let service = service();
        let frontend = Frontend::new(&service);
        // A future client offering a higher max still lands on this
        // server's version instead of being refused.
        let mut raw = frontend.connect();
        raw.send(encode_request(
            1,
            &Request::Hello {
                max_version: PROTOCOL_VERSION + 40,
                client_name: "from-the-future".to_owned(),
            },
        ))
        .unwrap();
        let (_, response) =
            dprov_api::protocol::decode_response(&raw.recv().unwrap().unwrap()).unwrap();
        match response {
            Response::HelloAck { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        // A client below the supported floor is refused. The floor is
        // currently the first version, so only the degenerate 0 exists.
        let mut raw = frontend.connect();
        raw.send(encode_request(
            1,
            &Request::Hello {
                max_version: 0,
                client_name: "prehistoric".to_owned(),
            },
        ))
        .unwrap();
        let (_, response) =
            dprov_api::protocol::decode_response(&raw.recv().unwrap().unwrap()).unwrap();
        match response {
            Response::Error(e) => assert_eq!(e.code, codes::UNSUPPORTED_VERSION),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn resume_reattaches_only_the_owner() {
        let service = service();
        let frontend = Frontend::new(&service);
        let mut client = DProvClient::connect(frontend.connect(), "c1").unwrap();
        let descriptor = client.register("alice").unwrap();
        client.query(&request(25, 40, 700.0)).unwrap();
        let spent = client.budget().unwrap().budget_consumed;
        drop(client); // connection lost, session stays alive (TTL)

        // The wrong analyst cannot steal the session.
        let mut thief = DProvClient::connect(frontend.connect(), "c2").unwrap();
        let err = thief.resume("bob", descriptor.session).unwrap_err();
        assert_eq!(err.code, codes::SESSION_OWNERSHIP);

        // The owner reconnects and budgets are intact.
        let mut back = DProvClient::connect(frontend.connect(), "c3").unwrap();
        let resumed = back.resume("alice", descriptor.session).unwrap();
        assert!(resumed.resumed);
        assert_eq!(resumed.session, descriptor.session);
        assert_eq!(back.budget().unwrap().budget_consumed, spent);
    }

    #[test]
    fn dropped_service_yields_retryable_errors_not_hangs() {
        let service = service();
        let frontend = Frontend::new(&service);
        let mut client = DProvClient::connect(frontend.connect(), "c").unwrap();
        client.register("alice").unwrap();
        drop(service); // last strong reference: workers wind down
        let err = client.query(&request(20, 30, 500.0)).unwrap_err();
        assert_eq!(err.code, codes::SHUTTING_DOWN);
        assert!(err.retryable);
    }

    #[test]
    fn updater_role_is_enforced_and_drives_epochs_over_the_protocol() {
        use dprov_delta::UpdateBatch;
        use dprov_engine::value::Value;
        let db = adult_database(800, 1);
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        let mut registry = AnalystRegistry::new();
        registry.register("alice", 2).unwrap();
        let config = SystemConfig::new(8.0).unwrap().with_seed(11);
        let system = Arc::new(
            DProvDb::new(
                db,
                catalog,
                registry,
                config,
                MechanismKind::AdditiveGaussian,
            )
            .unwrap(),
        );
        let service = Arc::new(QueryService::start(
            system,
            ServiceConfig::builder()
                .workers(2)
                .updaters(&["loader"])
                .build()
                .unwrap(),
        ));
        let frontend = Frontend::new(&service);

        let row = vec![
            Value::Int(30),
            Value::text("Private"),
            Value::text("HS-grad"),
            Value::Int(9),
            Value::text("Never-married"),
            Value::text("Sales"),
            Value::text("Not-in-family"),
            Value::text("White"),
            Value::text("Male"),
            Value::Int(0),
            Value::Int(0),
            Value::Int(40),
            Value::text("<=50K"),
        ];
        let batch = UpdateBatch::insert("adult", vec![row.clone()]);

        // Updates without the role are refused; unknown names too.
        let mut analyst = DProvClient::connect(frontend.connect(), "a").unwrap();
        analyst.register("alice").unwrap();
        assert_eq!(
            analyst.apply_update(&batch).unwrap_err().code,
            codes::NOT_UPDATER
        );
        assert_eq!(analyst.seal_epoch().unwrap_err().code, codes::NOT_UPDATER);
        let mut wrong = DProvClient::connect(frontend.connect(), "w").unwrap();
        assert_eq!(
            wrong.register_updater("mallory").unwrap_err().code,
            codes::NOT_UPDATER
        );

        // A rostered updater drives the whole epoch lifecycle.
        let mut updater = DProvClient::connect(frontend.connect(), "u").unwrap();
        updater.register_updater("loader").unwrap();
        let (seq, pending) = updater.apply_update(&batch).unwrap();
        assert_eq!((seq, pending), (0, 1));
        // Invalid updates surface the typed taxonomy over the wire.
        let mut bad_row = row.clone();
        bad_row[0] = Value::Int(5);
        assert_eq!(
            updater
                .apply_update(&UpdateBatch::insert("adult", vec![bad_row]))
                .unwrap_err()
                .code,
            codes::VALUE_OUT_OF_DOMAIN
        );
        assert_eq!(
            updater
                .apply_update(&UpdateBatch::insert("adult", Vec::new()))
                .unwrap_err()
                .code,
            codes::UPDATE_EMPTY
        );
        let report = updater.seal_epoch().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.batches, 1);
        assert_eq!(report.rows, 1);
        assert!(report.views_patched > 0);

        // Analyst answers now carry the new epoch.
        let outcome = analyst.query(&request(25, 45, 700.0)).unwrap();
        assert_eq!(outcome.answered().unwrap().epoch, 1);
    }
}
