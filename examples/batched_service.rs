//! Batched execution walk-through: one scan amortised across many
//! analysts.
//!
//! Sixteen analysts concentrate on a shared view (the Zipfian
//! batch-friendly scenario from `dprov-workloads`) and drive a
//! `QueryService` on its default configuration. The example then shows
//! both layers of the batching story:
//!
//! 1. **service micro-batches** — a worker that wakes drains whatever
//!    jobs are already queued (up to eight, and its fair share of the
//!    backlog), so `batches` can come in under `completed` while
//!    per-session FIFO and noise streams stay untouched;
//! 2. **columnar shared scans** (`dprov-exec`) — the ground-truth audit of
//!    every answered query runs as one `DProvDb::true_answers` batch: a
//!    single pass over the shared relation's shards answers all of them,
//!    and the executor's `scans-per-query` drops to `1/N`.
//!
//! ```text
//! cargo run --release --example batched_service
//! ```

use std::sync::Arc;
use std::time::Instant;

use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::{AnalystConstraintSpec, SystemConfig};
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::QueryOutcome;
use dprovdb::core::system::DProvDb;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::query::Query;
use dprovdb::server::{QueryService, ServiceConfig};
use dprovdb::workloads::skew::{attribute_share, generate, SkewConfig};

const ANALYSTS: usize = 16;
const QUERIES_PER_ANALYST: usize = 25;

fn main() {
    let db = adult_database(20_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), ((i % 8) + 1) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(25.6)
        .unwrap()
        .with_seed(41)
        .with_analyst_constraints(AnalystConstraintSpec::ProportionalSum);
    let system = Arc::new(
        DProvDb::new(
            db.clone(),
            catalog,
            registry,
            config,
            MechanismKind::AdditiveGaussian,
        )
        .unwrap(),
    );

    // Batch-friendly traffic: Zipfian view popularity concentrates the 16
    // analysts on the most popular view.
    let workload = generate(
        &db,
        &SkewConfig::batch_friendly("adult", ANALYSTS, QUERIES_PER_ANALYST).with_seed(5),
    )
    .unwrap();
    println!(
        "batched_service: {ANALYSTS} analysts x {QUERIES_PER_ANALYST} queries, \
         {:.0}% of them on the shared \"age\" view",
        100.0 * attribute_share(&workload, "age")
    );

    // Each worker that wakes drains the jobs already queued as one
    // micro-batch.
    let service = Arc::new(QueryService::start(
        Arc::clone(&system),
        ServiceConfig::builder().workers(2).build().unwrap(),
    ));

    let start = Instant::now();
    let handles: Vec<_> = (0..ANALYSTS)
        .map(|a| {
            let service = Arc::clone(&service);
            let batch = workload.per_analyst[a].clone();
            std::thread::spawn(move || {
                let session = service.open_session(AnalystId(a)).unwrap();
                let mut answered = Vec::new();
                for request in batch {
                    if let QueryOutcome::Answered(answer) =
                        service.submit_wait(session, request.clone()).unwrap()
                    {
                        answered.push((request.query, answer.value));
                    }
                }
                answered
            })
        })
        .collect();
    let answered: Vec<(Query, f64)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let elapsed = start.elapsed();

    let stats = service.stats();
    println!(
        "\nservice: {} queries in {:.3}s ({:.0} q/s), {} cache hits",
        stats.completed,
        elapsed.as_secs_f64(),
        stats.completed as f64 / elapsed.as_secs_f64(),
        stats.system.cache_hits,
    );
    println!(
        "micro-batches: {} batches for {} jobs -> {:.2} jobs per wake-up \
         (each batch drains what was already queued; per-session order and \
         noise untouched)",
        stats.batches,
        stats.completed,
        stats.completed as f64 / stats.batches.max(1) as f64,
    );

    // The ground-truth audit: exact answers for every answered query in
    // ONE shared columnar scan instead of one scan each.
    system.exec().reset_stats();
    let queries: Vec<Query> = answered.iter().map(|(q, _)| q.clone()).collect();
    let audit_start = Instant::now();
    let truths = system.true_answers(&queries).unwrap();
    let audit_elapsed = audit_start.elapsed();
    let exec_stats = system.exec_stats();

    let mean_rel_err = answered
        .iter()
        .zip(&truths)
        .filter(|(_, t)| t.abs() > 1.0)
        .map(|((_, noisy), t)| (noisy - t).abs() / t.abs())
        .sum::<f64>()
        / truths.len().max(1) as f64;
    println!(
        "\naudit: {} exact answers in {:.3}s via {} shared scan(s) -> {:.4} scans/query \
         (one row-at-a-time pass each would be {} scans)",
        truths.len(),
        audit_elapsed.as_secs_f64(),
        exec_stats.scans,
        exec_stats.scans_per_query(),
        truths.len(),
    );
    println!("mean relative error of the DP answers: {mean_rel_err:.4}");

    assert!(
        exec_stats.scans_per_query() < 1.0,
        "the audit batch must amortise its scan"
    );
}
