//! Remote analyst client walk-through: the versioned wire protocol over
//! real TCP loopback.
//!
//! Three acts:
//!
//! 1. **Transport invisibility** — three concurrent analysts run fixed
//!    query scripts twice, once in-process through
//!    `QueryService::submit` and once over TCP against a fresh,
//!    identically-seeded service. The
//!    answers must match **bit for bit**: same seed, same
//!    session-registration order, same per-session submission order is
//!    all that determines the noise.
//! 2. **Budget introspection** — each analyst reads their remaining
//!    budget panel over the wire.
//! 3. **Reconnect across a restart** — the service is checkpointed and
//!    dropped mid-conversation (no graceful close towards the client),
//!    recovered via `start_durable`, and the client re-attaches to its
//!    session by id: budgets are bit-exact and the session's noise stream
//!    continues where it left off.
//!
//! ```text
//! cargo run --release --example remote_client
//! ```

use std::sync::Arc;

use dprovdb::api::DProvClient;
use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{QueryOutcome, QueryRequest};
use dprovdb::core::system::DProvDb;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::query::Query;
use dprovdb::net::listen;
use dprovdb::server::{DurabilityConfig, QueryService, ServiceConfig, Work};

const ANALYSTS: usize = 3;
const SEED: u64 = 33;

fn build_system() -> DProvDb {
    let db = adult_database(2_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), (2 * i + 2) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(40.0).unwrap().with_seed(SEED);
    DProvDb::new(
        db,
        catalog,
        registry,
        config,
        MechanismKind::AdditiveGaussian,
    )
    .unwrap()
}

/// Analyst-specific scripts over disjoint attributes (the exact-determinism
/// regime; see the `dprov-server` crate docs).
fn script(analyst: usize) -> Vec<QueryRequest> {
    (0..8)
        .map(|i| {
            let query = match analyst % 3 {
                0 => Query::range_count("adult", "age", 20 + i, 45 + i),
                1 => Query::range_count("adult", "hours_per_week", 10 + i, 40 + i),
                _ => Query::range_count("adult", "education_num", 1 + (i % 8), 9 + (i % 8)),
            };
            QueryRequest::with_accuracy(query, 600.0 + 150.0 * i as f64)
        })
        .collect()
}

fn value_of(outcome: QueryOutcome) -> f64 {
    match outcome {
        QueryOutcome::Answered(a) => a.value,
        QueryOutcome::Rejected { reason } => panic!("unexpected rejection: {reason}"),
    }
}

/// Runs every analyst's script concurrently through pre-connected clients
/// (pipelined submit/poll) and returns the ordered answers per analyst.
fn drive_over_tcp(clients: Vec<DProvClient>) -> Vec<Vec<f64>> {
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(a, mut client)| {
            std::thread::spawn(move || {
                let ids: Vec<_> = script(a)
                    .iter()
                    .map(|request| client.submit(request).unwrap())
                    .collect();
                ids.into_iter()
                    .map(|id| value_of(client.poll(id).unwrap()))
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn main() {
    // ---- Act 1: in-process vs TCP, bit for bit --------------------------
    println!("act 1: transport invisibility ({ANALYSTS} concurrent analysts)\n");

    let service = Arc::new(QueryService::start(
        Arc::new(build_system()),
        ServiceConfig::builder().workers(4).build().unwrap(),
    ));
    let sessions: Vec<_> = (0..ANALYSTS)
        .map(|a| service.open_session(AnalystId(a)).unwrap())
        .collect();
    let handles: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(a, session)| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let pending: Vec<_> = script(a)
                    .into_iter()
                    .map(|request| {
                        service
                            .submit(session, Work::Scalar(request), None)
                            .unwrap()
                    })
                    .collect();
                pending
                    .into_iter()
                    .map(|p| value_of(p.wait().unwrap().into_scalar().unwrap()))
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    let in_process: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let service_tcp = Arc::new(QueryService::start(
        Arc::new(build_system()),
        ServiceConfig::builder().workers(4).build().unwrap(),
    ));
    let listener = listen(&service_tcp, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    println!("  TCP frontend listening on {addr}");
    let tcp_clients: Vec<DProvClient> = (0..ANALYSTS)
        .map(|a| {
            let mut client = DProvClient::connect_tcp(addr, "remote").unwrap();
            client.register(&format!("analyst-{a}")).unwrap();
            client
        })
        .collect();
    let over_tcp = drive_over_tcp(tcp_clients);

    assert_eq!(in_process, over_tcp, "transports must be invisible");
    for (a, answers) in over_tcp.iter().enumerate() {
        println!(
            "  analyst-{a}: {} answers, first = {:.3}, identical in-process vs TCP: yes",
            answers.len(),
            answers[0]
        );
    }
    listener.shutdown();

    // ---- Acts 2 & 3: budget panel, restart, resume ----------------------
    println!("\nact 2: budget introspection over the wire\n");
    let dir = dprovdb::storage::scratch_dir("remote-client-example");
    let durability = DurabilityConfig::builder(&dir)
        .fsync(false)
        .snapshot_every(0)
        .build()
        .unwrap();

    let (session_id, spent_before) = {
        let (service, _) = QueryService::start_durable(
            build_system(),
            ServiceConfig::builder().workers(2).build().unwrap(),
            durability.clone(),
        )
        .unwrap();
        let service = Arc::new(service);
        let listener = listen(&service, "127.0.0.1:0").unwrap();
        let mut client = DProvClient::connect_tcp(listener.local_addr(), "durable").unwrap();
        let descriptor = client.register("analyst-1").unwrap();
        for i in 0..5 {
            value_of(
                client
                    .query(&QueryRequest::with_accuracy(
                        Query::range_count("adult", "hours_per_week", 10 + i, 50),
                        800.0,
                    ))
                    .unwrap(),
            );
        }
        let budget = client.budget().unwrap();
        println!(
            "  analyst-1 (session {}): constraint {:.4}, consumed {:.4}, remaining {:.4}",
            budget.session,
            budget.budget_constraint,
            budget.budget_consumed,
            budget.budget_remaining
        );

        println!("\nact 3: service restart + client reconnect\n");
        drop(client);
        listener.shutdown();
        // Checkpoint so the snapshot carries the synopsis cache, then drop
        // WITHOUT shutdown(): towards the client this is a crash.
        service.checkpoint().unwrap();
        println!("  service checkpointed and dropped (no goodbye to the client)");
        (descriptor.session, budget.budget_consumed)
    };

    let (service, report) = QueryService::start_durable(
        build_system(),
        ServiceConfig::builder().workers(2).build().unwrap(),
        durability,
    )
    .unwrap();
    let service = Arc::new(service);
    println!(
        "  recovered: snapshot={}, replayed commits={}, restored sessions={}",
        report.snapshot_restored, report.replayed_commits, report.restored_sessions
    );
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "durable-back").unwrap();
    let descriptor = client.resume("analyst-1", session_id).unwrap();
    assert!(descriptor.resumed);
    let budget = client.budget().unwrap();
    assert_eq!(
        budget.budget_consumed, spent_before,
        "recovered budget must be bit-exact"
    );
    println!(
        "  resumed session {}: consumed {:.4} (bit-exact across the restart)",
        descriptor.session, budget.budget_consumed
    );
    let next = value_of(
        client
            .query(&QueryRequest::with_accuracy(
                Query::range_count("adult", "hours_per_week", 20, 60),
                900.0,
            ))
            .unwrap(),
    );
    println!("  next answer on the resumed noise stream: {next:.3}");

    client.close().unwrap();
    listener.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    println!("\ndone: remote analysts, one protocol, restarts invisible.");
}
