//! The analyst protocol's live behaviour over loopback TCP: the connection
//! state machine, version negotiation, the full client round trip, the
//! updater role driving epochs, and a dropped service answering with
//! retryable errors instead of hangs.
//!
//! Resuming a session by its owner only is pinned by
//! `tests/client_server.rs::client_reconnects_across_a_durable_restart_with_budgets_intact`
//! at the workspace root.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dprov_api::frame::{frame, read_frame};
use dprov_api::protocol::{decode_response, encode_request, Request, Response, PROTOCOL_VERSION};
use dprov_api::{codes, Connection, DProvClient};
use dprov_core::analyst::AnalystRegistry;
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::QueryRequest;
use dprov_core::system::DProvDb;
use dprov_delta::UpdateBatch;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
use dprov_engine::value::Value;
use dprov_net::{listen, ServiceListener};
use dprov_server::{QueryService, ServiceConfig};

fn service_with(updaters: &[&str]) -> Arc<QueryService> {
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
        ServiceConfig::builder()
            .workers(2)
            .updaters(updaters)
            .build()
            .unwrap(),
    ))
}

fn serve(service: &Arc<QueryService>) -> ServiceListener {
    listen(service, "127.0.0.1:0").unwrap()
}

fn client(listener: &ServiceListener, name: &str) -> DProvClient {
    DProvClient::connect_tcp(listener.local_addr(), name).unwrap()
}

fn request(lo: i64, hi: i64, variance: f64) -> QueryRequest {
    QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), variance)
}

/// Sends one request on a raw connection and decodes the response.
fn exchange(conn: &mut Connection, request: &Request) -> Response {
    conn.send(encode_request(1, request)).unwrap();
    decode_response(&conn.recv().unwrap().expect("a response"))
        .unwrap()
        .1
}

#[test]
fn client_round_trips_the_full_protocol() {
    let service = service_with(&[]);
    let listener = serve(&service);
    let mut client = client(&listener, "test-client");
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
    listener.shutdown();
}

#[test]
fn protocol_state_machine_is_enforced() {
    let service = service_with(&[]);
    let listener = serve(&service);

    // Requests before Hello are refused.
    let mut raw = Connection::connect_tcp(listener.local_addr()).unwrap();
    match exchange(&mut raw, &Request::Heartbeat) {
        Response::Error(e) => assert_eq!(e.code, codes::UNEXPECTED_MESSAGE),
        other => panic!("expected an error, got {other:?}"),
    }

    // Unknown analysts are refused at registration.
    let mut client = client(&listener, "t");
    let err = client.register("mallory").unwrap_err();
    assert_eq!(err.code, codes::UNKNOWN_ANALYST);
    // The connection survives an auth failure; a roster name works.
    client.register("alice").unwrap();
    // Queries before registration are refused on a fresh connection.
    let mut fresh = self::client(&listener, "t2");
    let err = fresh.query(&request(20, 30, 500.0)).unwrap_err();
    assert_eq!(err.code, codes::NO_SESSION);
    // So is closing a session that was never registered.
    assert_eq!(fresh.close().unwrap_err().code, codes::NO_SESSION);
    listener.shutdown();
}

#[test]
fn hello_negotiates_min_of_client_and_server_versions() {
    let service = service_with(&[]);
    let listener = serve(&service);
    // A future client offering a higher max still lands on this server's
    // version instead of being refused.
    let mut raw = Connection::connect_tcp(listener.local_addr()).unwrap();
    let hello = Request::Hello {
        max_version: PROTOCOL_VERSION + 40,
        client_name: "from-the-future".to_owned(),
    };
    match exchange(&mut raw, &hello) {
        Response::HelloAck { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    // A client below the supported floor is refused. The floor is
    // currently the first version, so only the degenerate 0 exists.
    let mut raw = Connection::connect_tcp(listener.local_addr()).unwrap();
    let hello = Request::Hello {
        max_version: 0,
        client_name: "prehistoric".to_owned(),
    };
    match exchange(&mut raw, &hello) {
        Response::Error(e) => assert_eq!(e.code, codes::UNSUPPORTED_VERSION),
        other => panic!("expected an error, got {other:?}"),
    }
    listener.shutdown();
}

#[test]
fn dropped_service_yields_retryable_errors_not_hangs() {
    let service = service_with(&[]);
    let listener = serve(&service);
    let mut client = client(&listener, "c");
    client.register("alice").unwrap();
    drop(service); // last strong reference: workers wind down
    let err = client.query(&request(20, 30, 500.0)).unwrap_err();
    assert_eq!(err.code, codes::SHUTTING_DOWN);
    assert!(err.retryable);
    listener.shutdown();
}

#[test]
fn updater_role_is_enforced_and_drives_epochs_over_the_protocol() {
    let service = service_with(&["loader"]);
    let listener = serve(&service);

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
    let mut analyst = client(&listener, "a");
    analyst.register("alice").unwrap();
    assert_eq!(
        analyst.apply_update(&batch).unwrap_err().code,
        codes::NOT_UPDATER
    );
    assert_eq!(analyst.seal_epoch().unwrap_err().code, codes::NOT_UPDATER);
    let mut wrong = client(&listener, "w");
    assert_eq!(
        wrong.register_updater("mallory").unwrap_err().code,
        codes::NOT_UPDATER
    );

    // A rostered updater drives the whole epoch lifecycle.
    let mut updater = client(&listener, "u");
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
    listener.shutdown();
}

/// Frames `inner` as a mux request on `channel`.
fn mux_frame(channel: u64, request_id: u64, inner: &Request) -> Vec<u8> {
    frame(&encode_request(
        0,
        &Request::Mux {
            channel,
            payload: encode_request(request_id, inner),
        },
    ))
}

/// Reads one mux reply off a raw socket: `(channel, inner id, response)`.
fn recv_mux(stream: &mut TcpStream) -> (u64, u64, Response) {
    let payload = read_frame(stream).unwrap().expect("peer closed early");
    match decode_response(&payload).unwrap().1 {
        Response::MuxReply { channel, payload } => {
            let (id, response) = decode_response(&payload).unwrap();
            (channel, id, response)
        }
        other => panic!("expected a mux reply, got {other:?}"),
    }
}

/// The replies to every frame one socket read brought leave in one
/// `write(2)`: four mux heartbeats sent in one write come back as one
/// `net.frames_per_write` sample of 4.
#[test]
fn the_replies_to_one_read_leave_in_one_write() {
    let service = service_with(&[]);
    let listener = serve(&service);
    let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = Request::Hello {
        max_version: PROTOCOL_VERSION,
        client_name: "batch".to_owned(),
    };
    stream
        .write_all(&frame(&encode_request(0, &hello)))
        .unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("a HelloAck");
    assert!(matches!(
        decode_response(&payload).unwrap().1,
        Response::HelloAck { .. }
    ));
    stream.write_all(&mux_frame(1, 1, &hello)).unwrap();
    assert!(matches!(
        recv_mux(&mut stream),
        (1, 1, Response::HelloAck { .. })
    ));
    let register = Request::RegisterSession {
        analyst_name: "alice".to_owned(),
        resume: None,
    };
    stream.write_all(&mux_frame(1, 2, &register)).unwrap();
    assert!(matches!(
        recv_mux(&mut stream),
        (1, 2, Response::SessionRegistered { .. })
    ));

    let mut burst = Vec::new();
    for id in 10..14 {
        burst.extend_from_slice(&mux_frame(1, id, &Request::Heartbeat));
    }
    stream.write_all(&burst).unwrap();
    for id in 10..14 {
        match recv_mux(&mut stream) {
            (1, got, Response::HeartbeatAck) if got == id => {}
            other => panic!("expected heartbeat {id} acknowledged, got {other:?}"),
        }
    }
    // Asked on the same connection, the snapshot is taken after the loop
    // recorded the write that carried the heartbeats' replies.
    stream
        .write_all(&frame(&encode_request(20, &Request::MetricsSnapshot)))
        .unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("a metrics report");
    let Response::MetricsReport(snapshot) = decode_response(&payload).unwrap().1 else {
        panic!("expected a metrics report");
    };
    let per_write = snapshot
        .histogram("net.frames_per_write")
        .expect("the frames-per-write histogram");
    assert_eq!(per_write.max, 4, "four replies in one write: {per_write:?}");
    listener.shutdown();
}
