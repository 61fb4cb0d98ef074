//! C10k frontend throughput: RPC round trips per second as a function of
//! **concurrent connections × per-connection in-flight depth**.
//!
//! The load generator is itself a single-threaded non-blocking event loop
//! (the same `epoll` shim the server uses), so thousands of client
//! connections cost the bench one thread — process thread counts printed
//! per row therefore isolate the *server's* threading behaviour: every row
//! must show a *flat* thread count as connections grow (the C10k
//! invariant; the bench asserts it).
//!
//! Two RPC mixes: `heartbeat` (session-scoped, served inline on the loop
//! threads — prices the transport + protocol path) and `query` (full DP
//! query through the worker pool — the end-to-end path).
//!
//! ```text
//! cargo run --release --bin frontend_throughput [-- max_connections]
//! ```
//!
//! `max_connections` defaults to 5000; the soft fd limit is raised to the
//! hard limit at startup (each connection costs two fds on loopback).
//! Pass a small value (e.g. 64) on fd-constrained hosts such as CI
//! runners.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

use dprov_api::frame::{frame, FrameDecoder};
use dprov_api::protocol::{decode_response, encode_request, Request, Response, PROTOCOL_VERSION};
use dprov_bench::report::{cell, cell_fmt, fmt_f64, BenchReport};
use dprov_core::analyst::AnalystRegistry;
use dprov_core::config::{AnalystConstraintSpec, SystemConfig};
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::QueryRequest;
use dprov_core::system::DProvDb;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
use dprov_net::listen;
use dprov_server::{QueryService, ServiceConfig};
use epoll::{Event, Interest, Poller};

const ANALYSTS: usize = 8;
const WORKERS: usize = 2;

/// Raises the soft `RLIMIT_NOFILE` to the hard limit; returns the
/// resulting soft limit.
#[cfg(target_os = "linux")]
fn raise_fd_limit() -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.cur < lim.max {
            let want = RLimit {
                cur: lim.max,
                max: lim.max,
            };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                lim.cur = lim.max;
            }
        }
        lim.cur
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_fd_limit() -> u64 {
    1024
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

fn build_service() -> Arc<QueryService> {
    let db = adult_database(2_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), ((i % 8) + 1) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(25.6)
        .unwrap()
        .with_seed(7)
        .with_analyst_constraints(AnalystConstraintSpec::ProportionalSum);
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
            .workers(WORKERS)
            .queue_capacity(1024)
            .build()
            .unwrap(),
    ))
}

#[derive(Clone, Copy, PartialEq)]
enum Rpc {
    Heartbeat,
    Query,
}

impl Rpc {
    fn name(self) -> &'static str {
        match self {
            Rpc::Heartbeat => "heartbeat",
            Rpc::Query => "query",
        }
    }
}

enum Phase {
    AwaitHello,
    AwaitRegister,
    Run,
    Done,
}

/// One load-generator connection (client side, non-blocking).
struct ClientConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_head: usize,
    phase: Phase,
    inflight: usize,
    sent: u64,
    recv: u64,
    next_id: u64,
    analyst: usize,
}

impl ClientConn {
    fn queue(&mut self, id: u64, request: &Request) {
        self.out
            .extend_from_slice(&frame(&encode_request(id, request)));
    }

    fn queue_rpc(&mut self, rpc: Rpc) {
        let id = self.next_id;
        self.next_id += 1;
        match rpc {
            Rpc::Heartbeat => self.queue(id, &Request::Heartbeat),
            Rpc::Query => {
                let lo = 18 + (id % 30) as i64;
                self.queue(
                    id,
                    &Request::SubmitQuery(QueryRequest::with_accuracy(
                        Query::range_count("adult", "age", lo, lo + 20),
                        2_000.0 + (id % 7) as f64 * 500.0,
                    )),
                );
            }
        }
        self.sent += 1;
        self.inflight += 1;
    }

    /// Flushes pending output; returns false on a dead socket.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_head < self.out.len() {
            match self.stream.write(&self.out[self.out_head..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_head = 0;
        Ok(())
    }
}

/// Drives `conns` concurrent connections, each keeping up to `depth` RPCs
/// in flight until it has completed `per_conn` of them. Returns (elapsed
/// seconds of the run phase, completed RPCs).
fn run_load(
    addr: std::net::SocketAddr,
    conns: usize,
    depth: usize,
    per_conn: u64,
    rpc: Rpc,
) -> (f64, u64, usize) {
    let mut poller = Poller::new().unwrap();
    let mut clients: HashMap<u64, ClientConn> = HashMap::new();
    for i in 0..conns {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nonblocking(true).unwrap();
        stream.set_nodelay(true).unwrap();
        poller
            .register(stream.as_raw_fd(), i as u64, Interest::READ_WRITE)
            .unwrap();
        let mut conn = ClientConn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_head: 0,
            phase: Phase::AwaitHello,
            inflight: 0,
            sent: 0,
            recv: 0,
            next_id: 1_000,
            analyst: i % ANALYSTS,
        };
        conn.queue(
            0,
            &Request::Hello {
                max_version: PROTOCOL_VERSION,
                client_name: "frontend-throughput".to_owned(),
            },
        );
        clients.insert(i as u64, conn);
    }

    let mut events: Vec<Event> = Vec::new();
    let mut running = 0usize; // connections past the handshake
    let mut done = 0usize;
    let mut completed = 0u64;
    let mut started: Option<Instant> = None;
    let mut all_registered = false;
    let mut threads_running = 0usize;
    while done < conns {
        let n = poller.wait(&mut events, None).unwrap();
        for &ev in events.iter().take(n) {
            let Some(conn) = clients.get_mut(&ev.token) else {
                continue;
            };
            if ev.writable {
                conn.flush().unwrap();
            }
            if !ev.readable {
                continue;
            }
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => panic!("server closed connection {}", ev.token),
                    Ok(n) => {
                        conn.decoder.feed(&buf[..n]);
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("read error on connection {}: {e}", ev.token),
                }
            }
            while let Some(payload) = conn.decoder.next_frame().unwrap() {
                let (_, response) = decode_response(&payload).unwrap();
                match conn.phase {
                    Phase::AwaitHello => {
                        assert!(matches!(response, Response::HelloAck { .. }));
                        let analyst = conn.analyst;
                        conn.queue(
                            1,
                            &Request::RegisterSession {
                                analyst_name: format!("analyst-{analyst}"),
                                resume: None,
                            },
                        );
                        conn.phase = Phase::AwaitRegister;
                    }
                    Phase::AwaitRegister => {
                        assert!(matches!(response, Response::SessionRegistered { .. }));
                        conn.phase = Phase::Run;
                        running += 1;
                        if running == conns {
                            all_registered = true;
                            break;
                        }
                    }
                    Phase::Run => {
                        // Budget-exhaustion rejections arrive as answered
                        // frames and still count as completed round trips;
                        // protocol errors don't happen in this workload.
                        if let Response::Error(e) = &response {
                            panic!("unexpected protocol error: {e:?}");
                        }
                        conn.inflight -= 1;
                        conn.recv += 1;
                        completed += 1;
                        if conn.sent < per_conn {
                            conn.queue_rpc(rpc);
                        } else if conn.recv == per_conn {
                            conn.phase = Phase::Done;
                            done += 1;
                            break;
                        }
                    }
                    Phase::Done => unreachable!("reply after completion"),
                }
            }
            if let Some(conn) = clients.get_mut(&ev.token) {
                conn.flush().unwrap();
            }
            if all_registered {
                // Everyone is registered: the timed run phase begins and
                // every pipeline fills to its in-flight depth.
                all_registered = false;
                // Every connection is live and registered: this is the
                // moment to sample the process thread count.
                threads_running = thread_count();
                started = Some(Instant::now());
                for c in clients.values_mut() {
                    while c.inflight < depth && c.sent < per_conn {
                        c.queue_rpc(rpc);
                    }
                    c.flush().unwrap();
                }
            }
        }
    }
    let elapsed = started.map_or(0.0, |t| t.elapsed().as_secs_f64());
    for conn in clients.values() {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
    (elapsed, completed, threads_running)
}

struct Row {
    rpc: Rpc,
    conns: usize,
    depth: usize,
}

fn main() {
    let max_conns: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let fd_limit = raise_fd_limit();
    // Two fds per loopback connection plus service/listener overhead.
    let fd_cap = ((fd_limit.saturating_sub(64)) / 2) as usize;
    let max_conns = max_conns.min(fd_cap).max(1);

    let mut sweep: Vec<usize> = [256usize, 1_000, max_conns]
        .into_iter()
        .filter(|&c| c <= max_conns)
        .collect();
    sweep.dedup();

    let mut rows = Vec::new();
    // Heartbeat sweep over connections × depth, plus one end-to-end query
    // row at the smallest sweep point.
    for &conns in &sweep {
        for depth in [1usize, 8] {
            rows.push(Row {
                rpc: Rpc::Heartbeat,
                conns,
                depth,
            });
        }
    }
    rows.push(Row {
        rpc: Rpc::Query,
        conns: sweep[0],
        depth: 8,
    });

    let mut report = BenchReport::new("frontend_throughput");
    report
        .arg("max_connections", max_conns)
        .arg("fd_limit", fd_limit)
        .arg("workers", WORKERS);
    report.section(
        &format!(
            "frontend_throughput — up to {max_conns} connections (fd limit {fd_limit}, host \
             parallelism {})",
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
        &[
            "frontend",
            "rpc",
            "connections",
            "depth",
            "rpcs",
            "elapsed_s",
            "rps",
            "threads_listen",
            "threads_running",
            "threads_flat",
        ],
    );

    for row in rows {
        let per_conn = match row.rpc {
            Rpc::Heartbeat => (40_000 / row.conns as u64).clamp(4, 200),
            Rpc::Query => (4_000 / row.conns as u64).clamp(2, 50),
        };
        let service = build_service();
        let listener = listen(&service, "127.0.0.1:0").unwrap();
        let threads_listen = thread_count();
        let (elapsed, completed, threads_running) = run_load(
            listener.local_addr(),
            row.conns,
            row.depth,
            per_conn,
            row.rpc,
        );
        assert!(
            listener.take_fatal_error().is_none(),
            "fatal listener error"
        );
        let flat = threads_running <= threads_listen;
        assert!(
            flat,
            "event-loop thread count grew with connections: {threads_listen} -> \
             {threads_running} at {} connections",
            row.conns
        );
        let rps = completed as f64 / elapsed.max(1e-9);
        report.row(&[
            cell("frontend", "event-loop"),
            cell("rpc", row.rpc.name()),
            cell("connections", row.conns),
            cell("depth", row.depth),
            cell("rpcs", completed),
            cell_fmt("elapsed_s", elapsed, fmt_f64(elapsed, 3)),
            cell_fmt("rps", rps, fmt_f64(rps, 0)),
            cell("threads_listen", threads_listen),
            cell("threads_running", threads_running),
            cell("threads_flat", flat),
        ]);
        listener.shutdown();
    }
    report.finish();
    println!("\nevent-loop rows hold thread count flat as connections grow.");
}
