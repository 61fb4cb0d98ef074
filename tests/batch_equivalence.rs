//! Batched execution is bit-identical to the sequential per-query path.
//!
//! The service's per-view micro-batching (`ServiceConfig::max_batch` /
//! `max_linger`) changes *when* work is drained from the queue and in what
//! cross-session order it runs — never *what* any analyst receives. This
//! suite drives identical multi-analyst workloads through a sequential
//! service (`max_batch = 1`) and through aggressively batched ones, and
//! asserts the full per-session outcome streams — answer values, epsilon
//! charges, noise variances, cache flags — plus the final budget state are
//! bit-identical, for **both** mechanisms.
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
//! Sessions pipeline their whole script up front, so the comparison also
//! covers the lane-chaining path (batch=1 drains a session depth-first,
//! batched drains breadth-first — outputs must not care).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{QueryOutcome, QueryProcessor, QueryRequest};
use dprovdb::core::system::DProvDb;
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

/// Runs a per-analyst script (fully pipelined) through a single-worker
/// service with the given batch knobs and returns each session's ordered
/// outcome stream plus the final budget state.
fn run(
    mechanism: MechanismKind,
    seed: u64,
    script: &[Vec<QueryRequest>],
    max_batch: usize,
    linger_ms: u64,
) -> (Vec<Vec<Observed>>, Vec<u64>, u64) {
    let system = build_system(mechanism, seed);
    let service = QueryService::start(
        Arc::clone(&system),
        ServiceConfig::builder()
            .workers(1)
            .max_batch(max_batch)
            .max_linger(std::time::Duration::from_millis(linger_ms))
            .build()
            .unwrap(),
    );
    let sessions: Vec<_> = (0..ANALYSTS)
        .map(|a| service.open_session(AnalystId(a)).unwrap())
        .collect();

    // Pipeline everything up front, interleaving analysts round-robin so
    // micro-batches have cross-session work to regroup.
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

    let provenance = system.provenance();
    let row_totals: Vec<u64> = (0..ANALYSTS)
        .map(|a| provenance.row_total(AnalystId(a)).to_bits())
        .collect();
    let cumulative = system.cumulative_epsilon().to_bits();
    service.shutdown();
    (outcomes, row_totals, cumulative)
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
    for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
        let script = script_for(mechanism);
        let sequential = run(mechanism, 17, &script, 1, 0);
        assert!(
            sequential.0.iter().flatten().any(|o| matches!(
                o,
                Observed::Answered {
                    from_cache: false,
                    ..
                }
            )),
            "{mechanism}: the script must exercise real releases"
        );
        for (max_batch, linger_ms) in [(4, 0), (16, 2), (64, 0)] {
            let batched = run(mechanism, 17, &script, max_batch, linger_ms);
            assert_eq!(
                sequential, batched,
                "{mechanism}: batched run (batch={max_batch}, linger={linger_ms}ms) diverged \
                 from the sequential per-query path"
            );
        }
    }
}

#[test]
fn repeated_queries_still_hit_the_cache_under_batching() {
    // Every analyst repeats one identical query: the first submission pays,
    // every later one must come from the cached synopsis with zero charge,
    // exactly as sequentially — whatever the batch shape.
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
        let (outcomes, _, _) = run(mechanism, 29, &script, 16, 1);
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

    /// Random scripts stay bit-identical between the sequential and
    /// batched services: random shared-view traffic under vanilla, random
    /// disjoint-view traffic (a random attribute permutation per case)
    /// under the additive mechanism.
    #[test]
    fn random_batches_are_bit_identical_to_sequential(
        seed in 0u64..u64::MAX / 2,
        queries_per_analyst in 2usize..8,
        max_batch in 2usize..24,
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
            let sequential = run(mechanism, seed, script, 1, 0);
            let batched = run(mechanism, seed, script, max_batch, 1);
            prop_assert_eq!(
                &sequential, &batched,
                "{}: random script diverged at batch={}", mechanism, max_batch
            );
        }
    }
}
