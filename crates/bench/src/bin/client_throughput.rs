//! Throughput of the analyst-facing access paths: queries/sec on the
//! multi-analyst RRQ workload through
//!
//! * **direct** — same-process embedding, one blocking
//!   `QueryService::submit_wait` round trip per query (no protocol);
//! * **in-process** — `DProvClient` over the zero-copy channel transport:
//!   full protocol encode/decode, no syscalls, pipelined submit/poll;
//! * **tcp** — `DProvClient` over real TCP loopback: protocol + framing +
//!   CRC + socket round trips, pipelined submit/poll.
//!
//! The spread between the rows prices the protocol layers: `in-process −
//! direct` is the message codec, `tcp − in-process` is framing plus the
//! kernel's loopback path. Pipelining matters: clients enqueue a whole
//! script before polling, so TCP latency is overlapped, not summed — the
//! per-query percentiles therefore measure submit→poll completion *under
//! pipelining* (they include queue residency, which is why the pipelined
//! paths show higher tail latency at higher throughput).
//!
//! ```text
//! cargo run --release --bin client_throughput [-- total_queries]
//! ```

use std::sync::Arc;
use std::time::Instant;

use dprov_api::DProvClient;
use dprov_bench::report::{cell, cell_fmt, fmt_f64, BenchReport, Latencies};
use dprov_core::analyst::{AnalystId, AnalystRegistry};
use dprov_core::config::{AnalystConstraintSpec, SystemConfig};
use dprov_core::mechanism::MechanismKind;
use dprov_core::system::DProvDb;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_net::listen;
use dprov_server::{Frontend, QueryService, ServiceConfig};
use dprov_workloads::rrq::{generate, RrqConfig, RrqWorkload};

const ANALYSTS: usize = 4;
const WORKERS: usize = 4;

fn build_service() -> Arc<QueryService> {
    let db = adult_database(10_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), ((i % 8) + 1) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(25.6)
        .unwrap()
        .with_seed(5)
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
        ServiceConfig::builder().workers(WORKERS).build().unwrap(),
    ))
}

fn workload(per_analyst: usize) -> RrqWorkload {
    let db = adult_database(10_000, 1);
    let mut config = RrqConfig::new("adult", per_analyst, 3);
    config.attribute_bias = 1.0;
    config.accuracy_range = (1_000.0, 10_000.0);
    generate(&db, &config, ANALYSTS).unwrap()
}

/// Direct embedding: one thread per analyst, blocking round trips.
fn run_direct(workload: &RrqWorkload) -> (f64, Latencies) {
    let service = build_service();
    let sessions: Vec<_> = (0..ANALYSTS)
        .map(|a| service.open_session(AnalystId(a)).unwrap())
        .collect();
    let latencies = Arc::new(Latencies::new());
    let start = Instant::now();
    let handles: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(a, session)| {
            let service = Arc::clone(&service);
            let latencies = Arc::clone(&latencies);
            let batch = workload.per_analyst[a].clone();
            std::thread::spawn(move || {
                for request in batch {
                    latencies
                        .time(|| service.submit_wait(session, request))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let latencies = Arc::try_unwrap(latencies).expect("latencies still shared");
    (elapsed, latencies)
}

/// Protocol clients (pipelined): `connect` yields one pre-registered
/// client per analyst; each client enqueues its whole script, then polls.
/// A query's latency is its submit instant → its poll returning, i.e. the
/// analyst-visible completion time under pipelining.
fn run_clients(workload: &RrqWorkload, clients: Vec<DProvClient>) -> (f64, Latencies) {
    let latencies = Arc::new(Latencies::new());
    let start = Instant::now();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(a, mut client)| {
            let latencies = Arc::clone(&latencies);
            let batch = workload.per_analyst[a].clone();
            std::thread::spawn(move || {
                let ids: Vec<_> = batch
                    .iter()
                    .map(|request| (client.submit(request).unwrap(), Instant::now()))
                    .collect();
                for (id, submitted) in ids {
                    client.poll(id).unwrap();
                    latencies.record(submitted.elapsed());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let latencies = Arc::try_unwrap(latencies).expect("latencies still shared");
    (elapsed, latencies)
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let per_analyst = total / ANALYSTS;
    let workload = workload(per_analyst);
    let queries = per_analyst * ANALYSTS;

    let mut report = BenchReport::new("client_throughput");
    report
        .arg("total_queries", queries)
        .arg("analysts", ANALYSTS)
        .arg("workers", WORKERS);
    report.section(
        &format!(
            "client_throughput — {queries} queries, {ANALYSTS} analysts, {WORKERS} workers \
             (host parallelism: {})",
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
        &[
            "path",
            "elapsed_s",
            "qps",
            "vs_direct",
            "p50_us",
            "p95_us",
            "p99_us",
            "max_us",
        ],
    );

    let (direct, direct_lat) = run_direct(&workload);

    let (in_process, in_process_lat) = {
        let service = build_service();
        let frontend = Frontend::new(&service);
        let clients = (0..ANALYSTS)
            .map(|a| {
                let mut client = DProvClient::connect(frontend.connect(), "bench").unwrap();
                client.register(&format!("analyst-{a}")).unwrap();
                client
            })
            .collect();
        run_clients(&workload, clients)
    };

    let (tcp, tcp_lat) = {
        let service = build_service();
        let listener = listen(&service, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let clients = (0..ANALYSTS)
            .map(|a| {
                let mut client = DProvClient::connect_tcp(addr, "bench").unwrap();
                client.register(&format!("analyst-{a}")).unwrap();
                client
            })
            .collect();
        let out = run_clients(&workload, clients);
        listener.shutdown();
        out
    };

    for (path, elapsed, latencies) in [
        ("direct", direct, direct_lat),
        ("in-process", in_process, in_process_lat),
        ("tcp-loopback", tcp, tcp_lat),
    ] {
        let qps = queries as f64 / elapsed;
        let vs_direct = direct / elapsed;
        let mut row = vec![
            cell("path", path),
            cell_fmt("elapsed_s", elapsed, fmt_f64(elapsed, 3)),
            cell_fmt("qps", qps, fmt_f64(qps, 0)),
            cell_fmt("vs_direct", vs_direct, fmt_f64(vs_direct, 2)),
        ];
        row.extend(latencies.percentile_cells());
        report.row(&row);
    }
    report.finish();
    println!(
        "\nin-process − direct prices the message codec; tcp − in-process prices framing + loopback."
    );
}
