//! Batched execution is bit-identical to replaying each session alone on
//! the core.
//!
//! The service's workers drain the queue in micro-batches, which changes
//! *when* work runs and in what cross-session order — never *what* any
//! analyst receives. The oracle needs no service at all: each session's
//! script is replayed straight on a fresh [`DProvDb`] with the session's
//! own noise stream (`DpRng::for_stream(seed, session id)` and
//! `submit_with_rng`), one session after another. This suite drives the
//! same multi-analyst workloads through services of 1, 2 and 4 workers
//! and asserts the full per-session outcome streams — answer values,
//! epsilon charges, noise variances, cache flags — plus the final budget
//! state are bit-identical to that replay, for **both** mechanisms.
//!
//! Scope mirrors the service's documented determinism guarantee (see the
//! `dprov-server` crate docs): an uncontended budget, and
//!
//! * **vanilla** — any workload, including many sessions hammering one
//!   *shared* view: every vanilla release draws only from its own
//!   session's stream, so no cross-session execution order is observable;
//! * **additive Gaussian** — sessions working disjoint views: each view's
//!   hidden global synopsis is then grown by exactly one session's FIFO
//!   stream. (A view shared by racing additive sessions grows in
//!   cross-session arrival order, which no scheduling — batched or not —
//!   pins down; that caveat predates batching.)
//!
//! Sessions pipeline their whole script up front, round-robin across
//! analysts, so the workers form multi-job batches of cross-session work
//! and chain each session's lane (the replay runs each session
//! depth-first — outputs must not care).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{QueryOutcome, QueryProcessor, QueryRequest};
use dprovdb::core::system::DProvDb;
use dprovdb::dp::rng::DpRng;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::expr::Predicate;
use dprovdb::engine::query::Query;
use dprovdb::server::{QueryService, ServiceConfig, Work};

const ANALYSTS: usize = 6;

/// The adult table's integer attributes with their domains (for in-domain
/// range queries).
const INT_ATTRS: [(&str, i64, i64); 5] = [
    ("age", 17, 90),
    ("education_num", 1, 16),
    ("capital_gain", 0, 99_999),
    ("capital_loss", 0, 4_499),
    ("hours_per_week", 1, 99),
];

fn build_system(mechanism: MechanismKind, seed: u64) -> Arc<DProvDb> {
    let db = adult_database(1_200, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), ((i % 4) + 1) as u8)
            .unwrap();
    }
    // A roomy budget keeps every accept/reject decision independent of
    // cross-analyst totals (the documented determinism condition).
    let config = SystemConfig::new(100.0).unwrap().with_seed(seed);
    Arc::new(DProvDb::new(db, catalog, registry, config, mechanism).unwrap())
}

/// One comparable outcome: every analyst-visible field, bit-exact.
#[derive(Debug, Clone, PartialEq)]
enum Observed {
    Answered {
        value: u64,
        epsilon: u64,
        variance: u64,
        from_cache: bool,
        view: Option<String>,
    },
    Rejected(String),
}

fn observe(outcome: QueryOutcome) -> Observed {
    match outcome {
        QueryOutcome::Answered(a) => Observed::Answered {
            value: a.value.to_bits(),
            epsilon: a.epsilon_charged.to_bits(),
            variance: a.noise_variance.to_bits(),
            from_cache: a.from_cache,
            view: a.view,
        },
        QueryOutcome::Rejected { reason } => Observed::Rejected(reason.to_string()),
    }
}

/// Each session's ordered outcome stream, then the final per-analyst row
/// totals and the cumulative epsilon (all as bits).
type Run = (Vec<Vec<Observed>>, Vec<u64>, u64);

fn budget_state(system: &DProvDb) -> (Vec<u64>, u64) {
    let provenance = system.provenance();
    let row_totals = (0..ANALYSTS)
        .map(|a| provenance.row_total(AnalystId(a)).to_bits())
        .collect();
    (row_totals, system.cumulative_epsilon().to_bits())
}

/// The oracle: every session's script replayed on the core alone, one
/// session after another, each with its own noise stream. Sessions are
/// opened in analyst order, so analyst `a` holds session id `a`.
fn replay(mechanism: MechanismKind, seed: u64, script: &[Vec<QueryRequest>]) -> Run {
    let system = build_system(mechanism, seed);
    let outcomes = script
        .iter()
        .enumerate()
        .map(|(a, requests)| {
            let mut rng = DpRng::for_stream(seed, a as u64);
            requests
                .iter()
                .map(|request| {
                    observe(
                        system
                            .submit_with_rng(AnalystId(a), request, &mut rng)
                            .unwrap(),
                    )
                })
                .collect()
        })
        .collect();
    let (row_totals, cumulative) = budget_state(&system);
    (outcomes, row_totals, cumulative)
}

/// Runs a per-analyst script (fully pipelined) through a service of
/// `workers` workers and returns what [`replay`] returns, plus the number
/// of micro-batches the workers drained and the jobs they completed.
fn run(
    mechanism: MechanismKind,
    seed: u64,
    script: &[Vec<QueryRequest>],
    workers: usize,
) -> (Run, usize, usize) {
    let system = build_system(mechanism, seed);
    let service = QueryService::start(
        Arc::clone(&system),
        ServiceConfig::builder().workers(workers).build().unwrap(),
    );
    let sessions: Vec<_> = (0..ANALYSTS)
        .map(|a| service.open_session(AnalystId(a)).unwrap())
        .collect();

    // Pipeline everything up front, interleaving analysts round-robin so
    // micro-batches carry cross-session work.
    let waves = script.iter().map(Vec::len).max().unwrap_or(0);
    let mut pending: Vec<Vec<_>> = (0..ANALYSTS).map(|_| Vec::new()).collect();
    for wave in 0..waves {
        for a in 0..ANALYSTS {
            if let Some(request) = script[a].get(wave) {
                pending[a].push(
                    service
                        .submit(sessions[a], Work::Scalar(request.clone()), None)
                        .unwrap(),
                );
            }
        }
    }
    let outcomes: Vec<Vec<Observed>> = pending
        .into_iter()
        .map(|per_session| {
            per_session
                .into_iter()
                .map(|p| observe(p.wait().unwrap().into_scalar().expect("scalar reply")))
                .collect()
        })
        .collect();

    let (row_totals, cumulative) = budget_state(&system);
    let stats = service.shutdown();
    (
        (outcomes, row_totals, cumulative),
        stats.batches,
        stats.completed,
    )
}

/// Vanilla workload: three analysts share the "age" view, the rest work
/// their own attributes — vanilla releases draw only from their own
/// session streams, so even the shared view must compare bit-for-bit.
fn shared_view_script() -> Vec<Vec<QueryRequest>> {
    (0..ANALYSTS)
        .map(|a| {
            (0..10)
                .map(|wave| {
                    let i = wave as i64;
                    let query = if a < 3 {
                        Query::range_count("adult", "age", 20 + i + a as i64, 45 + i)
                    } else {
                        let (attr, min, max) = INT_ATTRS[1 + a % 4];
                        Query::range_count("adult", attr, min, min + (max - min) * (1 + i) / 12)
                    };
                    QueryRequest::with_accuracy(query, 350.0 + 125.0 * wave as f64 + a as f64)
                })
                .collect()
        })
        .collect()
}

/// Additive workload: disjoint views — five analysts each own one integer
/// attribute, the sixth works the categorical "sex" view via equality
/// counts.
fn disjoint_view_script() -> Vec<Vec<QueryRequest>> {
    (0..ANALYSTS)
        .map(|a| {
            (0..10)
                .map(|wave| {
                    let i = wave as i64;
                    let query = if a < INT_ATTRS.len() {
                        let (attr, min, max) = INT_ATTRS[a];
                        let span = max - min;
                        Query::range_count(
                            "adult",
                            attr,
                            min + span * i / 40,
                            min + span * (10 + i) / 40,
                        )
                    } else {
                        Query::count("adult").filter(Predicate::equals(
                            "sex",
                            if wave % 2 == 0 { "Female" } else { "Male" },
                        ))
                    };
                    // Tightening accuracy forces periodic re-releases
                    // instead of pure cache hits.
                    QueryRequest::with_accuracy(query, 2_000.0 / (1.0 + wave as f64))
                })
                .collect()
        })
        .collect()
}

fn script_for(mechanism: MechanismKind) -> Vec<Vec<QueryRequest>> {
    match mechanism {
        MechanismKind::Vanilla => shared_view_script(),
        MechanismKind::AdditiveGaussian => disjoint_view_script(),
    }
}

#[test]
fn batched_service_is_bit_identical_to_sequential_for_both_mechanisms() {
    let mut batched_somewhere = false;
    for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
        let script = script_for(mechanism);
        let oracle = replay(mechanism, 17, &script);
        assert!(
            oracle.0.iter().flatten().any(|o| matches!(
                o,
                Observed::Answered {
                    from_cache: false,
                    ..
                }
            )),
            "{mechanism}: the script must exercise real releases"
        );
        for workers in [1, 2, 4] {
            let (served, batches, completed) = run(mechanism, 17, &script, workers);
            assert_eq!(
                oracle, served,
                "{mechanism}: the service at {workers} workers diverged from the core replay"
            );
            batched_somewhere |= batches < completed;
        }
    }
    assert!(
        batched_somewhere,
        "no run drained a batch of more than one job; the suite would not cover batching"
    );
}

#[test]
fn repeated_queries_still_hit_the_cache_under_batching() {
    // Every analyst repeats one identical query: the first submission pays,
    // every later one must come from the cached synopsis with zero charge,
    // exactly as in the replay — whatever the batch shape.
    let script: Vec<Vec<QueryRequest>> = (0..ANALYSTS)
        .map(|_| {
            (0..4)
                .map(|_| {
                    QueryRequest::with_accuracy(Query::range_count("adult", "age", 25, 50), 2_000.0)
                })
                .collect()
        })
        .collect();
    for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
        let ((outcomes, _, _), _, _) = run(mechanism, 29, &script, 1);
        for per_session in &outcomes {
            for (i, observed) in per_session.iter().enumerate() {
                match observed {
                    Observed::Answered {
                        from_cache,
                        epsilon,
                        ..
                    } => {
                        if i > 0 {
                            assert!(from_cache, "{mechanism}: repeat {i} missed the cache");
                            assert_eq!(f64::from_bits(*epsilon), 0.0);
                        }
                    }
                    Observed::Rejected(reason) => panic!("unexpected rejection: {reason}"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random scripts stay bit-identical between the core replay and the
    /// service: random shared-view traffic under vanilla, random
    /// disjoint-view traffic (a random attribute permutation per case)
    /// under the additive mechanism.
    #[test]
    fn random_batches_are_bit_identical_to_sequential(
        seed in 0u64..u64::MAX / 2,
        queries_per_analyst in 2usize..8,
        workers in 1usize..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);

        // Vanilla: every query picks any attribute — shared views galore.
        let vanilla_script: Vec<Vec<QueryRequest>> = (0..ANALYSTS)
            .map(|_| {
                (0..queries_per_analyst)
                    .map(|_| {
                        let (attr, min, max) =
                            INT_ATTRS[rng.gen_range(0..INT_ATTRS.len())];
                        let a = rng.gen_range(min..=max);
                        let b = rng.gen_range(min..=max);
                        QueryRequest::with_accuracy(
                            Query::range_count("adult", attr, a.min(b), a.max(b)),
                            rng.gen_range(300.0..5_000.0),
                        )
                    })
                    .collect()
            })
            .collect();

        // Additive: a random one-to-one analyst→attribute assignment.
        let mut order: Vec<usize> = (0..INT_ATTRS.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let additive_script: Vec<Vec<QueryRequest>> = (0..ANALYSTS)
            .map(|a| {
                (0..queries_per_analyst)
                    .map(|_| {
                        let query = if a < order.len() {
                            let (attr, min, max) = INT_ATTRS[order[a]];
                            let lo = rng.gen_range(min..=max);
                            let hi = rng.gen_range(min..=max);
                            Query::range_count("adult", attr, lo.min(hi), lo.max(hi))
                        } else {
                            Query::count("adult").filter(Predicate::equals(
                                "sex",
                                if rng.gen::<bool>() { "Female" } else { "Male" },
                            ))
                        };
                        QueryRequest::with_accuracy(query, rng.gen_range(300.0..5_000.0))
                    })
                    .collect()
            })
            .collect();

        for (mechanism, script) in [
            (MechanismKind::Vanilla, &vanilla_script),
            (MechanismKind::AdditiveGaussian, &additive_script),
        ] {
            let (served, _, _) = run(mechanism, seed, script, workers);
            prop_assert_eq!(
                &replay(mechanism, seed, script), &served,
                "{}: random script diverged at {} workers", mechanism, workers
            );
        }
    }
}
