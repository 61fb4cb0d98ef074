//! Determinism of the concurrent service: with a fixed system seed, a fixed
//! session-registration order and a fixed per-session submission order, the
//! answers every analyst receives are identical across runs and across
//! worker counts — thread scheduling never leaks into the noise. This
//! validates the per-session RNG seeding scheme
//! (`DpRng::for_stream(system seed, session id)` + per-session FIFO lanes).
//!
//! Scope: the guarantee requires an uncontended budget (near exhaustion,
//! the cross-analyst constraint checks decide accept-vs-reject by arrival
//! order); given that, it holds for the vanilla mechanism on any workload
//! (every release draws only from the session's own stream) and for the
//! additive mechanism when sessions work disjoint views — a view *shared*
//! by racing additive sessions grows its hidden global synopsis in
//! cross-session arrival order, which scheduling can reorder (see the
//! `dprov-server` crate docs). The script below is built to those
//! conditions: ample budget, one attribute per analyst.

use std::sync::Arc;

use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{QueryOutcome, QueryRequest};
use dprovdb::core::system::DProvDb;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::query::Query;
use dprovdb::server::{QueryService, ServiceConfig};

const ANALYSTS: usize = 4;

fn build_system(mechanism: MechanismKind, seed: u64) -> Arc<DProvDb> {
    let db = adult_database(1_500, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), (i + 1) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(50.0).unwrap().with_seed(seed);
    Arc::new(DProvDb::new(db, catalog, registry, config, mechanism).unwrap())
}

/// The per-analyst query script. Each analyst works an *analyst-specific*
/// attribute so no cross-analyst shared state (the hidden global synopsis)
/// couples their noise; the budget is ample so no mid-run rejection depends
/// on cross-analyst totals. What remains — the answers — is then a pure
/// function of (seed, session id, submission index).
fn script(analyst: usize) -> Vec<QueryRequest> {
    (0..12)
        .map(|i| {
            // In-domain ranges per attribute (age 17..=90, hours 1..=99,
            // education_num 1..=16, capital_loss binned 0..=4499 by 100).
            let query = match analyst % 4 {
                0 => Query::range_count("adult", "age", 20 + i, 40 + i),
                1 => Query::range_count("adult", "hours_per_week", 10 + i, 40 + i),
                2 => Query::range_count("adult", "education_num", 1 + (i % 8), 9 + (i % 8)),
                _ => Query::range_count("adult", "capital_loss", 0, 100 * (i + 1) - 1),
            };
            QueryRequest::with_accuracy(query, 400.0 + 150.0 * i as f64)
        })
        .collect()
}

/// Runs every analyst's script through a service with the given worker
/// count (submissions racing from one thread per analyst) and returns each
/// analyst's ordered answer values.
fn run(mechanism: MechanismKind, seed: u64, workers: usize) -> Vec<Vec<f64>> {
    let system = build_system(mechanism, seed);
    let service = Arc::new(QueryService::start(
        system,
        ServiceConfig::builder().workers(workers).build().unwrap(),
    ));
    // Registration order is fixed (analyst 0 first), so session ids — and
    // with them the per-session noise streams — are reproducible.
    let sessions: Vec<_> = (0..ANALYSTS)
        .map(|a| service.open_session(AnalystId(a)).unwrap())
        .collect();
    let handles: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(a, session)| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                script(a)
                    .into_iter()
                    .map(
                        |request| match service.submit_wait(session, request).unwrap() {
                            QueryOutcome::Answered(answer) => answer.value,
                            QueryOutcome::Rejected { reason } => {
                                panic!("unexpected rejection: {reason}")
                            }
                        },
                    )
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn same_seed_same_answers_across_runs_and_worker_counts() {
    for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
        let baseline = run(mechanism, 7, 1);
        // Re-running with the same seed bit-for-bit reproduces the answers.
        assert_eq!(
            baseline,
            run(mechanism, 7, 1),
            "{mechanism}: same-config rerun diverged"
        );
        // The worker count is a pure throughput knob: 2, 4 and 8 workers
        // interleave executions differently but deliver identical answers.
        for workers in [2, 4, 8] {
            assert_eq!(
                baseline,
                run(mechanism, 7, workers),
                "{mechanism}: answers changed with {workers} workers"
            );
        }
    }
}

#[test]
fn different_seeds_produce_different_noise() {
    let a = run(MechanismKind::Vanilla, 7, 2);
    let b = run(MechanismKind::Vanilla, 8, 2);
    assert_ne!(a, b, "distinct seeds must yield distinct noise");
    // ... but the same query script: answer counts agree.
    assert_eq!(a.len(), b.len());
    for (va, vb) in a.iter().zip(&b) {
        assert_eq!(va.len(), vb.len());
    }
}

#[test]
fn single_threaded_api_matches_the_service_for_one_worker_sessions() {
    // The legacy &mut self path with the same per-analyst streams: driving
    // DProvDb directly with DpRng::for_stream(seed, session_id) reproduces
    // exactly what the service returns.
    use dprovdb::dp::rng::DpRng;
    let mechanism = MechanismKind::AdditiveGaussian;
    let via_service = run(mechanism, 13, 4);

    let system = build_system(mechanism, 13);
    let mut direct = Vec::new();
    for a in 0..ANALYSTS {
        // Session ids are assigned densely in registration order: analyst a
        // got session id a above.
        let mut rng = DpRng::for_stream(13, a as u64);
        let answers: Vec<f64> = script(a)
            .into_iter()
            .map(|request| {
                match system
                    .submit_with_rng(AnalystId(a), &request, &mut rng)
                    .unwrap()
                {
                    QueryOutcome::Answered(answer) => answer.value,
                    QueryOutcome::Rejected { reason } => panic!("rejected: {reason}"),
                }
            })
            .collect();
        direct.push(answers);
    }
    assert_eq!(via_service, direct);
}
