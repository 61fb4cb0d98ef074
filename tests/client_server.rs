//! Loopback client/server integration: the versioned analyst protocol
//! served over real TCP must be **observationally identical** to driving
//! the service in-process through `QueryService::submit` — same seed,
//! same session-registration order, same per-session submission order ⇒
//! bit-identical answers — and a client must be able to reconnect across
//! a durable service restart and find its session and budgets intact.

use std::sync::Arc;

use dprovdb::api::{codes, DProvClient};
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

fn build_system(seed: u64) -> DProvDb {
    let db = adult_database(1_200, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), (2 * i + 1) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(60.0).unwrap().with_seed(seed);
    DProvDb::new(
        db,
        catalog,
        registry,
        config,
        MechanismKind::AdditiveGaussian,
    )
    .unwrap()
}

/// Analyst-specific scripts over disjoint attributes, the regime where the
/// service's determinism guarantee is exact (see `tests/determinism.rs`).
fn script(analyst: usize) -> Vec<QueryRequest> {
    (0..10)
        .map(|i| {
            let query = match analyst % 3 {
                0 => Query::range_count("adult", "age", 20 + i, 45 + i),
                1 => Query::range_count("adult", "hours_per_week", 10 + i, 40 + i),
                _ => Query::range_count("adult", "education_num", 1 + (i % 8), 9 + (i % 8)),
            };
            QueryRequest::with_accuracy(query, 500.0 + 120.0 * i as f64)
        })
        .collect()
}

fn value_of(outcome: QueryOutcome) -> f64 {
    match outcome {
        QueryOutcome::Answered(answer) => answer.value,
        QueryOutcome::Rejected { reason } => panic!("unexpected rejection: {reason}"),
    }
}

fn answers_of(mut clients: Vec<DProvClient>) -> Vec<Vec<f64>> {
    let handles: Vec<_> = clients
        .drain(..)
        .enumerate()
        .map(|(a, mut client)| {
            std::thread::spawn(move || {
                // Pipeline the whole script, then poll outcomes in order.
                let ids: Vec<_> = script(a)
                    .iter()
                    .map(|request| client.submit(request).unwrap())
                    .collect();
                let values = ids
                    .into_iter()
                    .map(|id| value_of(client.poll(id).unwrap()))
                    .collect::<Vec<f64>>();
                client.close().unwrap();
                values
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn tcp_loopback_answers_are_bit_identical_to_in_process() {
    // Pass 1: in-process, through the service's queued path.
    let service = Arc::new(QueryService::start(
        Arc::new(build_system(23)),
        ServiceConfig::builder().workers(4).build().unwrap(),
    ));
    let sessions: Vec<_> = (0..ANALYSTS)
        .map(|a| {
            let session = service.open_session(AnalystId(a)).unwrap();
            assert_eq!(session.0, a as u64, "registration order is fixed");
            session
        })
        .collect();
    let handles: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(a, session)| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                // Pipeline the whole script, then wait for outcomes in order.
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

    // Pass 2: a fresh, identically-seeded system served over real TCP.
    let service = Arc::new(QueryService::start(
        Arc::new(build_system(23)),
        ServiceConfig::builder().workers(4).build().unwrap(),
    ));
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let mut clients = Vec::new();
    for a in 0..ANALYSTS {
        let mut client = DProvClient::connect_tcp(addr, "tcp").unwrap();
        client.register(&format!("analyst-{a}")).unwrap();
        clients.push(client);
    }
    let over_tcp = answers_of(clients);

    assert_eq!(
        in_process, over_tcp,
        "the transport must be invisible: answers differ between in-process and TCP"
    );
    listener.shutdown();
}

#[test]
fn client_reconnects_across_a_durable_restart_with_budgets_intact() {
    let dir = dprovdb::storage::scratch_dir("client-reconnect");
    let durability = DurabilityConfig::builder(&dir)
        .fsync(false)
        .snapshot_every(0)
        .build()
        .unwrap();

    // Phase 1: serve over TCP, spend some budget, then crash (drop without
    // shutdown — the write-ahead ledger alone must carry the state).
    let (session, spent_before, answers_before) = {
        let (service, _) = QueryService::start_durable(
            build_system(51),
            ServiceConfig::builder().workers(2).build().unwrap(),
            durability.clone(),
        )
        .unwrap();
        let service = Arc::new(service);
        let listener = listen(&service, "127.0.0.1:0").unwrap();
        let mut client = DProvClient::connect_tcp(listener.local_addr(), "c1").unwrap();
        let descriptor = client.register("analyst-1").unwrap();
        let answers: Vec<f64> = (0..4)
            .map(|i| {
                match client
                    .query(&QueryRequest::with_accuracy(
                        Query::range_count("adult", "hours_per_week", 10 + i, 50),
                        700.0,
                    ))
                    .unwrap()
                {
                    QueryOutcome::Answered(a) => a.value,
                    QueryOutcome::Rejected { reason } => panic!("rejected: {reason}"),
                }
            })
            .collect();
        let budget = client.budget().unwrap();
        assert!(budget.budget_consumed > 0.0);
        drop(client);
        listener.shutdown();
        // Checkpoint so the snapshot carries the synopsis cache — budget
        // state is WAL-exact without it, but the bit-exact noise-stream
        // continuation asserted below needs the cached synopses too (same
        // protocol as tests/recovery_equivalence.rs).
        service.checkpoint().unwrap();
        (descriptor.session, budget.budget_consumed, answers)
        // `service` dropped here WITHOUT shutdown(): crash-alike.
    };

    // Phase 2: recover, reconnect, resume — budgets and the session's
    // noise stream continue exactly.
    let (service, report) = QueryService::start_durable(
        build_system(51),
        ServiceConfig::builder().workers(2).build().unwrap(),
        durability,
    )
    .unwrap();
    assert_eq!(report.restored_sessions, 1);
    let service = Arc::new(service);
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "c1-back").unwrap();

    // The wrong analyst cannot take the session over TCP either.
    let mut thief = DProvClient::connect_tcp(listener.local_addr(), "thief").unwrap();
    assert_eq!(
        thief.resume("analyst-0", session).unwrap_err().code,
        codes::SESSION_OWNERSHIP
    );

    let descriptor = client.resume("analyst-1", session).unwrap();
    assert!(descriptor.resumed);
    let budget = client.budget().unwrap();
    assert_eq!(
        budget.budget_consumed, spent_before,
        "recovered budget must be bit-exact"
    );

    // The resumed session keeps answering, and the uninterrupted twin run
    // (same seed, same script, no crash) produces the same continuation.
    let continuation = match client
        .query(&QueryRequest::with_accuracy(
            Query::range_count("adult", "hours_per_week", 20, 60),
            900.0,
        ))
        .unwrap()
    {
        QueryOutcome::Answered(a) => a.value,
        QueryOutcome::Rejected { reason } => panic!("rejected: {reason}"),
    };
    listener.shutdown();
    drop(client);
    drop(thief);
    drop(service);

    // Twin run without the crash.
    let twin = Arc::new(QueryService::start(
        Arc::new(build_system(51)),
        ServiceConfig::builder().workers(2).build().unwrap(),
    ));
    let twin_listener = listen(&twin, "127.0.0.1:0").unwrap();
    // Phase 1 registered one session (id 0); recreate exactly that order.
    let mut twin_client = DProvClient::connect_tcp(twin_listener.local_addr(), "twin").unwrap();
    twin_client.register("analyst-1").unwrap();
    let mut twin_answers: Vec<f64> = (0..4)
        .map(|i| {
            match twin_client
                .query(&QueryRequest::with_accuracy(
                    Query::range_count("adult", "hours_per_week", 10 + i, 50),
                    700.0,
                ))
                .unwrap()
            {
                QueryOutcome::Answered(a) => a.value,
                QueryOutcome::Rejected { reason } => panic!("rejected: {reason}"),
            }
        })
        .collect();
    let twin_continuation = match twin_client
        .query(&QueryRequest::with_accuracy(
            Query::range_count("adult", "hours_per_week", 20, 60),
            900.0,
        ))
        .unwrap()
    {
        QueryOutcome::Answered(a) => a.value,
        QueryOutcome::Rejected { reason } => panic!("rejected: {reason}"),
    };
    assert_eq!(answers_before, {
        twin_answers.truncate(4);
        twin_answers
    });
    assert_eq!(
        continuation, twin_continuation,
        "the recovered session must continue its noise stream bit-for-bit"
    );
    twin_listener.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_queries_and_control_traffic_share_one_tcp_connection() {
    let service = Arc::new(QueryService::start(
        Arc::new(build_system(9)),
        ServiceConfig::builder().workers(2).build().unwrap(),
    ));
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "pipeline").unwrap();
    client.register("analyst-2").unwrap();

    // Queue a burst of queries, interleave control requests, then poll
    // everything — out of submission order, exercising the stash.
    let ids: Vec<_> = script(2)
        .iter()
        .map(|request| client.submit(request).unwrap())
        .collect();
    client.heartbeat().unwrap();
    let budget_mid_flight = client.budget().unwrap();
    assert_eq!(budget_mid_flight.submitted, ids.len() as u64);
    for id in ids.into_iter().rev() {
        assert!(client.poll(id).unwrap().is_answered());
    }
    client.close().unwrap();
    listener.shutdown();
}
