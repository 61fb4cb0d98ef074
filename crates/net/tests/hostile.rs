//! Hostile-network tests against the event-loop frontend: dribbled bytes,
//! slow-loris writers, mid-frame disconnects and oversized frames must
//! never panic a loop or worker thread, never leak threads or file
//! descriptors, and surface only typed protocol errors.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dprov_api::frame::{frame, read_frame, MAX_FRAME_LEN};
use dprov_api::protocol::{decode_response, encode_request, Request, Response, PROTOCOL_VERSION};
use dprov_api::{codes, DProvClient};
use dprov_core::analyst::AnalystRegistry;
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{GroupedRequest, QueryRequest};
use dprov_core::recorder::{CommitRecord, DataAccess, Recorder};
use dprov_core::system::DProvDb;
use dprov_core::StorageError;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::group::GroupByQuery;
use dprov_engine::query::Query;
use dprov_net::{listen, EventLoopFrontend, NetConfig};
use dprov_server::{QueryService, ServiceConfig};

fn service() -> Arc<QueryService> {
    service_with(ServiceConfig::builder().workers(2).build().unwrap())
}

fn service_with(service_config: ServiceConfig) -> Arc<QueryService> {
    let db = adult_database(300, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("alice", 2).unwrap();
    let config = SystemConfig::new(8.0).unwrap().with_seed(5);
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
    Arc::new(QueryService::start(system, service_config))
}

fn age_query(lo: i64, hi: i64) -> QueryRequest {
    QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), 500.0)
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Waits for a measurement to settle back to (at most) a baseline.
fn settles_to(baseline: usize, what: &str, measure: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = measure();
    while last > baseline {
        assert!(
            Instant::now() < deadline,
            "{what} did not settle: {last} > baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(50));
        last = measure();
    }
}

/// Writes `bytes` one byte per syscall — the worst-case TCP delivery.
fn dribble(stream: &mut TcpStream, bytes: &[u8]) {
    for b in bytes {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        stream.flush().unwrap();
    }
}

fn hello_frame() -> Vec<u8> {
    frame(&encode_request(
        0,
        &Request::Hello {
            max_version: PROTOCOL_VERSION,
            client_name: "hostile".to_owned(),
        },
    ))
}

/// Reads one response payload with a deadline so a hung server fails the
/// test instead of hanging it.
fn recv_response(stream: &mut TcpStream) -> Response {
    recv_with_id(stream).1
}

/// [`recv_response`] with the response's request id.
fn recv_with_id(stream: &mut TcpStream) -> (u64, Response) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = read_frame(stream).unwrap().expect("peer closed early");
    decode_response(&payload).unwrap()
}

#[test]
fn byte_at_a_time_delivery_is_reassembled() {
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(listener.local_addr()).unwrap();

    dribble(&mut stream, &hello_frame());
    match recv_response(&mut stream) {
        Response::HelloAck { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // A session-scoped request without a session: a *typed* error on a
    // connection that stays alive.
    dribble(&mut stream, &frame(&encode_request(1, &Request::Heartbeat)));
    match recv_response(&mut stream) {
        Response::Error(e) => assert_eq!(e.code, codes::NO_SESSION),
        other => panic!("expected a typed error, got {other:?}"),
    }

    // The connection survived the error: a real request still works.
    dribble(
        &mut stream,
        &frame(&encode_request(
            2,
            &Request::RegisterSession {
                analyst_name: "alice".to_owned(),
                resume: None,
            },
        )),
    );
    match recv_response(&mut stream) {
        Response::SessionRegistered { .. } => {}
        other => panic!("expected SessionRegistered, got {other:?}"),
    }
    listener.shutdown();
}

#[test]
fn oversized_frame_closes_the_connection_without_harm() {
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
    stream.write_all(&hello_frame()).unwrap();
    assert!(matches!(
        recv_response(&mut stream),
        Response::HelloAck { .. }
    ));

    // A header declaring a body over the frame cap: the stream offset
    // can no longer be trusted, so the server drops the connection.
    let mut header = Vec::new();
    header.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    header.extend_from_slice(&0xdead_beefu32.to_le_bytes());
    stream.write_all(&header).unwrap();

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        Ok(_) => {} // clean close
        Err(e) => assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock, "hang"),
    }
    assert!(rest.is_empty(), "no reply to a corrupt frame");

    // The server is unharmed: a fresh client round-trips a query.
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "after").unwrap();
    client.register("alice").unwrap();
    assert!(client.query(&age_query(20, 60)).unwrap().is_answered());
    client.close().unwrap();
    assert!(listener.take_fatal_error().is_none());
    listener.shutdown();
}

#[test]
fn mid_frame_disconnects_leak_no_threads_or_fds() {
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    // Warm the accept path once so lazily-created fds are in the
    // baseline.
    drop(TcpStream::connect(listener.local_addr()).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    let base_threads = thread_count();
    let base_fds = fd_count();

    for i in 0..25 {
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        let hello = hello_frame();
        if i % 2 == 0 {
            // FIN halfway through a frame.
            stream.write_all(&hello[..hello.len() / 2]).unwrap();
        } else {
            // Full handshake, then die mid-way through the next frame.
            stream.write_all(&hello).unwrap();
            let _ = recv_response(&mut stream);
            let beat = frame(&encode_request(1, &Request::Heartbeat));
            stream.write_all(&beat[..5]).unwrap();
        }
        drop(stream);
    }

    settles_to(base_threads, "threads", thread_count);
    settles_to(base_fds, "fds", fd_count);
    assert!(listener.take_fatal_error().is_none());
    listener.shutdown();
}

#[test]
fn slow_loris_writers_do_not_starve_other_clients() {
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();

    // Eight connections that send half a frame and then just... stop.
    let mut loris = Vec::new();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        let hello = hello_frame();
        stream.write_all(&hello[..hello.len() - 3]).unwrap();
        loris.push(stream);
    }

    // A well-behaved client is completely unaffected.
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "victim").unwrap();
    client.register("alice").unwrap();
    for i in 0..5 {
        assert!(
            client.query(&age_query(20, 40 + i)).unwrap().is_answered(),
            "query {i} starved by stalled writers"
        );
    }
    client.close().unwrap();
    drop(loris);
    listener.shutdown();
}

/// A small GROUP BY frame asking for more cells than one reply frame can
/// carry is refused with a typed error before the server enumerates a
/// key, and the same session is answered normally afterwards.
#[test]
fn an_over_wide_group_by_is_refused_promptly_and_the_session_survives() {
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "wide").unwrap();
    client.register("alice").unwrap();

    // 74 · 99 · 45 · 5 = 1 648 350 cells, just past MAX_GROUP_CELLS.
    let cols = ["age", "hours_per_week", "capital_loss", "race"];
    let wide = GroupedRequest::with_accuracy(GroupByQuery::count("adult", &cols), 500.0);
    let start = Instant::now();
    let err = client.group_by(&wide).unwrap_err();
    assert!(err.message.contains("group cells"), "{err:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "refusal was not prompt"
    );

    let narrow = GroupedRequest::with_accuracy(GroupByQuery::count("adult", &["sex"]), 500.0);
    let outcome = client.group_by(&narrow).unwrap();
    assert!(outcome.outcomes.iter().all(|o| o.is_answered()));
    assert!(client.query(&age_query(20, 60)).unwrap().is_answered());
    client.close().unwrap();
    assert!(listener.take_fatal_error().is_none());
    listener.shutdown();
}

/// Thread count is flat in connection count (the C10k invariant), and dropping the connections releases their fds.
#[test]
fn event_loop_thread_count_is_flat_in_connections() {
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    drop(TcpStream::connect(listener.local_addr()).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    let base_threads = thread_count();
    let base_fds = fd_count();

    let mut conns = Vec::new();
    for i in 0..40 {
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        stream.write_all(&hello_frame()).unwrap();
        assert!(matches!(
            recv_response(&mut stream),
            Response::HelloAck { .. }
        ));
        conns.push(stream);
        if i % 10 == 0 {
            assert_eq!(
                thread_count(),
                base_threads,
                "event loop grew threads with connections"
            );
        }
    }
    assert_eq!(thread_count(), base_threads);
    drop(conns);
    settles_to(base_fds, "event-loop fds", fd_count);
    listener.shutdown();
}

/// Event-loop specific: a client that submits a pile of queries and reads
/// nothing trips the output high-water mark (reads stall, memory stays
/// bounded); once it finally drains the socket it gets every reply intact.
#[test]
fn stalled_reader_hits_the_hwm_and_loses_nothing() {
    let service = service();
    let frontend = EventLoopFrontend::new(
        &service,
        NetConfig {
            output_hwm: 2048,
            ..NetConfig::default()
        },
    );
    let listener = frontend.listen("127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
    stream.write_all(&hello_frame()).unwrap();
    assert!(matches!(
        recv_response(&mut stream),
        Response::HelloAck { .. }
    ));
    stream
        .write_all(&frame(&encode_request(
            1,
            &Request::RegisterSession {
                analyst_name: "alice".to_owned(),
                resume: None,
            },
        )))
        .unwrap();
    assert!(matches!(
        recv_response(&mut stream),
        Response::SessionRegistered { .. }
    ));

    // A few answered queries so the metrics snapshot has some meat, then
    // a flood of MetricsSnapshot requests (replies are KiB-sized) with
    // zero reads: replies pile up until the socket fills and then the
    // 2 KiB high-water mark stalls further reading of this connection.
    for i in 0..4u64 {
        let req = Request::SubmitQuery(age_query(18, 30 + i as i64));
        stream
            .write_all(&frame(&encode_request(2 + i, &req)))
            .unwrap();
        assert!(matches!(
            recv_response(&mut stream),
            Response::QueryAnswer(_)
        ));
    }
    let total = 1500u64;
    let first_id = 100u64;
    let writer = {
        let mut half = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            for i in 0..total {
                half.write_all(&frame(&encode_request(
                    first_id + i,
                    &Request::MetricsSnapshot,
                )))
                .unwrap();
            }
        })
    };
    std::thread::sleep(Duration::from_millis(500));
    let hwm = service
        .metrics_snapshot()
        .gauge("net.output_buffer_hwm_bytes")
        .unwrap_or(0.0);
    assert!(hwm >= 2048.0, "high-water mark never tripped (hwm={hwm})");

    // Now drain: every reply arrives, each with its matching request id.
    let mut seen = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    while seen.len() < total as usize {
        let payload = read_frame(&mut stream).unwrap().expect("server hung up");
        let (id, response) = decode_response(&payload).unwrap();
        match response {
            Response::MetricsReport(_) => seen.push(id),
            other => panic!("unexpected reply while draining: {other:?}"),
        }
    }
    writer.join().unwrap();
    seen.sort_unstable();
    let expected: Vec<u64> = (first_id..first_id + total).collect();
    assert_eq!(
        seen, expected,
        "replies lost or duplicated across the stall"
    );
    listener.shutdown();
}

/// Event-loop specific: connections idle past the (here: tiny) session
/// TTL are reaped and counted. The connection opens no session.
#[test]
fn idle_connections_are_reaped() {
    let service = service_with(
        ServiceConfig::builder()
            .workers(2)
            .session_ttl(Duration::from_millis(200))
            .build()
            .unwrap(),
    );
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
    stream.write_all(&hello_frame()).unwrap();
    assert!(matches!(
        recv_response(&mut stream),
        Response::HelloAck { .. }
    ));

    // Go quiet; the server hangs up on us.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    let reaped = service
        .metrics_snapshot()
        .counter("net.idle_reaped")
        .unwrap_or(0);
    assert!(reaped >= 1, "reap counter not incremented");
    listener.shutdown();
}

/// After a server-side close the client library surfaces a typed
/// `ApiError`, never a panic.
#[test]
fn client_errors_are_typed_after_server_close() {
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "typed").unwrap();
    client.register("alice").unwrap();
    // Tear the service down under the live connection.
    drop(service);
    listener.shutdown();
    // The transport is gone; every call fails with a typed error.
    let err = client.query(&age_query(20, 30)).unwrap_err();
    assert!(
        matches!(
            err.code,
            codes::CONNECTION_CLOSED | codes::TRANSPORT_IO | codes::SHUTTING_DOWN
        ),
        "unexpected error code {} ({})",
        err.code,
        err.message
    );
}

/// Sessions abandoned over TCP without `CloseSession` are removed by the
/// service's own reaper once their TTL passes, and resuming one is
/// refused with a typed error.
#[test]
fn abandoned_sessions_are_expired_by_the_service_reaper() {
    let service = service_with(
        ServiceConfig::builder()
            .session_ttl(Duration::from_millis(300))
            .build()
            .unwrap(),
    );
    let listener = listen(&service, "127.0.0.1:0").unwrap();

    let mut sessions = Vec::new();
    for i in 0..4 {
        let mut client = DProvClient::connect_tcp(listener.local_addr(), "abandon").unwrap();
        sessions.push(client.register("alice").unwrap().session);
        if i % 2 == 0 {
            client.query(&age_query(20, 30 + i)).unwrap();
        }
        // Dropped without `close`: the session is abandoned.
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while !service.sessions().is_empty() {
        assert!(
            Instant::now() < deadline,
            "{} abandoned sessions still registered",
            service.sessions().len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut client = DProvClient::connect_tcp(listener.local_addr(), "resume").unwrap();
    for session in sessions {
        let err = client.resume("alice", session).unwrap_err();
        assert_eq!(
            err.code,
            codes::UNKNOWN_SESSION,
            "resuming reaped session {session}: {}",
            err.message
        );
    }
    listener.shutdown();
}

/// An unknown request tag (retired tag 13 here) costs only that request:
/// it is refused with a typed error under its own request id, and a valid
/// request pipelined behind it on the same connection is answered.
#[test]
fn a_request_pipelined_behind_an_unknown_tag_is_answered() {
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
    stream.write_all(&hello_frame()).unwrap();
    assert!(matches!(
        recv_response(&mut stream),
        Response::HelloAck { .. }
    ));

    let mut retired = vec![PROTOCOL_VERSION, 13];
    retired.extend_from_slice(&5u64.to_le_bytes());
    retired.extend_from_slice(&[0, 0, 0, 0]);
    let mut burst = frame(&retired);
    burst.extend_from_slice(&frame(&encode_request(
        6,
        &Request::RegisterSession {
            analyst_name: "alice".to_owned(),
            resume: None,
        },
    )));
    stream.write_all(&burst).unwrap();
    match recv_with_id(&mut stream) {
        (5, Response::Error(e)) => assert_eq!(e.code, codes::MALFORMED_FRAME, "{e:?}"),
        other => panic!("expected a typed refusal of request 5, got {other:?}"),
    }
    match recv_with_id(&mut stream) {
        (6, Response::SessionRegistered { .. }) => {}
        other => panic!("expected request 6 answered, got {other:?}"),
    }
    assert!(listener.take_fatal_error().is_none());
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

/// Reads one mux reply and unwraps it to `(channel, inner id, response)`.
fn recv_mux(stream: &mut TcpStream) -> (u64, u64, Response) {
    match recv_response(stream) {
        Response::MuxReply { channel, payload } => {
            let (id, response) = decode_response(&payload).unwrap();
            (channel, id, response)
        }
        other => panic!("expected a mux reply, got {other:?}"),
    }
}

/// One connection carries at most 1 024 mux channels: the 1 025th is
/// refused with `CHANNEL_LIMIT` under its own request id, and the
/// connection and its open channels keep working.
#[test]
fn the_channel_past_the_cap_is_refused_and_the_connection_survives() {
    const CAP: u64 = 1024;
    let service = service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
    stream.write_all(&hello_frame()).unwrap();
    assert!(matches!(
        recv_response(&mut stream),
        Response::HelloAck { .. }
    ));

    let hello = Request::Hello {
        max_version: PROTOCOL_VERSION,
        client_name: "channel".to_owned(),
    };
    let mut burst = Vec::new();
    for channel in 0..CAP {
        burst.extend_from_slice(&mux_frame(channel, 1, &hello));
    }
    stream.write_all(&burst).unwrap();
    let mut opened = vec![false; CAP as usize];
    for _ in 0..CAP {
        match recv_mux(&mut stream) {
            (channel, 1, Response::HelloAck { .. }) => opened[channel as usize] = true,
            other => panic!("expected a channel's HelloAck, got {other:?}"),
        }
    }
    assert!(
        opened.iter().all(|&o| o),
        "every channel under the cap opens"
    );

    stream.write_all(&mux_frame(CAP, 77, &hello)).unwrap();
    match recv_mux(&mut stream) {
        (channel, 77, Response::Error(e)) => {
            assert_eq!(channel, CAP);
            assert_eq!(e.code, codes::CHANNEL_LIMIT, "{e:?}");
        }
        other => panic!("expected CHANNEL_LIMIT for request 77, got {other:?}"),
    }

    // An open channel still answers, and so does the outer connection.
    stream
        .write_all(&mux_frame(
            3,
            78,
            &Request::RegisterSession {
                analyst_name: "alice".to_owned(),
                resume: None,
            },
        ))
        .unwrap();
    match recv_mux(&mut stream) {
        (3, 78, Response::SessionRegistered { .. }) => {}
        other => panic!("expected channel 3's session, got {other:?}"),
    }
    stream
        .write_all(&frame(&encode_request(79, &Request::MetricsSnapshot)))
        .unwrap();
    match recv_with_id(&mut stream) {
        (79, Response::MetricsReport(_)) => {}
        other => panic!("expected the outer connection answered, got {other:?}"),
    }
    assert!(listener.take_fatal_error().is_none());
    listener.shutdown();
}

/// Records the thread that journals each admission and, once armed,
/// parks the next one until released.
struct ThreadRecorder {
    threads: Mutex<Vec<String>>,
    armed: AtomicBool,
    parked: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Recorder for ThreadRecorder {
    fn record_admission(
        &self,
        _commit: &CommitRecord,
        _access: Option<&DataAccess>,
    ) -> Result<(), StorageError> {
        let thread = std::thread::current().name().unwrap_or("").to_owned();
        self.threads.lock().unwrap().push(thread);
        if self.armed.swap(false, Ordering::SeqCst) {
            self.parked.lock().unwrap().send(()).unwrap();
            // Bounded, so a failing test cannot leave a thread parked.
            let _ = self
                .release
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(30));
        }
        Ok(())
    }

    fn record_rollback(&self, _seq: u64) -> Result<(), StorageError> {
        Ok(())
    }
}

/// Runs `call` on its own thread; its result arrives on the receiver.
fn spawn_call<T: Send + 'static>(call: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(call());
    });
    rx
}

/// The bound on how long an inline request holds its loop: its own scalar
/// admission, whose journal append runs on the loop thread, and nothing
/// that belongs to another request. While a queued GROUP BY is parked in
/// its journal append on the only worker, the pool is busy: a miss on
/// the same loop queues instead of running there, and the loop keeps
/// answering. While an inline commit is parked in its own append, that
/// loop answers nothing else until the append returns.
#[test]
fn an_inline_request_holds_its_loop_for_one_scalar_admission() {
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let recorder = Arc::new(ThreadRecorder {
        threads: Mutex::new(Vec::new()),
        armed: AtomicBool::new(false),
        parked: Mutex::new(parked_tx),
        release: Mutex::new(release_rx),
    });
    let db = adult_database(300, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("alice", 2).unwrap();
    registry.register("bob", 2).unwrap();
    let config = SystemConfig::new(8.0).unwrap().with_seed(5);
    let mut system = DProvDb::new(db, catalog, registry, config, MechanismKind::Vanilla).unwrap();
    system.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let service = Arc::new(QueryService::start(
        Arc::new(system),
        ServiceConfig::builder().workers(1).build().unwrap(),
    ));
    let frontend = EventLoopFrontend::new(
        &service,
        NetConfig {
            loop_threads: 1,
            ..NetConfig::default()
        },
    );
    let listener = frontend.listen("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let journalled = || recorder.threads.lock().unwrap().clone();
    let inline_answers = || {
        service
            .metrics()
            .snapshot()
            .counter("frontend.inline_answers")
            .unwrap()
    };

    // An idle pool: alice's miss is admitted and journalled on the loop.
    let mut alice = DProvClient::connect_tcp(addr, "alice").unwrap();
    alice.register("alice").unwrap();
    assert!(alice.query(&age_query(20, 40)).unwrap().is_answered());
    assert_eq!(journalled(), ["dprov-net-loop-0"]);
    assert_eq!(inline_answers(), 1);

    // A GROUP BY always queues; its first cell parks on the worker.
    recorder.armed.store(true, Ordering::SeqCst);
    let grouped = GroupedRequest::with_accuracy(GroupByQuery::count("adult", &["sex"]), 500.0);
    let grouped = alice.submit_group_by(&grouped).unwrap();
    parked.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(journalled()[1], "dprov-worker-0");

    // Bob's miss on the same loop meets a busy pool and queues; the loop
    // still answers his heartbeat at once.
    let mut bob = DProvClient::connect_tcp(addr, "bob").unwrap();
    bob.register("bob").unwrap();
    let hours =
        QueryRequest::with_accuracy(Query::range_count("adult", "hours_per_week", 20, 40), 500.0);
    let queued = bob.submit(&hours).unwrap();
    let started = Instant::now();
    bob.heartbeat().unwrap();
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(
        journalled().len(),
        2,
        "the queued miss waits for the worker"
    );
    release.send(()).unwrap();
    alice.poll_grouped(grouped).unwrap();
    assert!(bob.poll(queued).unwrap().is_answered());
    assert_eq!(
        journalled()[2..],
        ["dprov-worker-0"],
        "bob's miss ran on the worker"
    );
    assert_eq!(inline_answers(), 1);

    // The pool is idle again: an inline commit parked in its own journal
    // append holds the loop, and the loop is free the moment it returns.
    recorder.armed.store(true, Ordering::SeqCst);
    let stricter = QueryRequest::with_accuracy(Query::range_count("adult", "age", 20, 40), 100.0);
    let alice_done = spawn_call(move || alice.query(&stricter).unwrap());
    parked.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(journalled().last().unwrap(), "dprov-net-loop-0");
    let bob_done = spawn_call(move || bob.heartbeat().unwrap());
    assert!(
        bob_done.recv_timeout(Duration::from_millis(200)).is_err(),
        "the parked loop answered another request"
    );
    release.send(()).unwrap();
    bob_done.recv_timeout(Duration::from_secs(10)).unwrap();
    let answer = alice_done.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(!answer.answered().unwrap().from_cache, "a fresh commit");
    assert_eq!(inline_answers(), 2);
    listener.shutdown();
}
