//! Observability is provably inert: running the full query stack with the
//! metrics registry enabled (the default) versus disabled (it still counts,
//! but reads no clock for a metric and journals no trace) produces
//! **bit-identical** analyst-visible results — answer values, noise
//! variances, epsilon charges, cache provenance — for both mechanisms.
//! Instrumentation reads clocks and bumps relaxed atomics; it never
//! touches the RNG streams, the admission decisions or the synopsis state,
//! and these tests pin that contract.
//!
//! The registry is the one tally: `DProvDb::stats` and
//! `QueryService::stats` read their outcome, batch and queue-depth counts
//! from it, so a disabled registry's snapshot agrees with them and reports
//! each metric once. The suite also covers the trace journal's bounded
//! capacity and the consistency of `QueryService::metrics_snapshot`
//! against the service's own counters, end to end through the protocol
//! `MetricsSnapshot` request.

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
use dprovdb::obs::MetricsRegistry;
use dprovdb::server::{QueryService, ServiceConfig};

const ANALYSTS: usize = 4;

fn build_system(mechanism: MechanismKind, seed: u64, metrics: MetricsRegistry) -> Arc<DProvDb> {
    let db = adult_database(1_500, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), (i + 1) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(50.0).unwrap().with_seed(seed);
    let mut system = DProvDb::new(db, catalog, registry, config, mechanism).unwrap();
    system.set_metrics(metrics);
    Arc::new(system)
}

/// Per-analyst scripts under the documented determinism conditions (ample
/// budget, one attribute per analyst — see `tests/determinism.rs`), with a
/// repeat at the end so the synopsis cache-hit path is exercised too.
fn script(analyst: usize) -> Vec<QueryRequest> {
    let mut requests: Vec<QueryRequest> = (0..10)
        .map(|i| {
            let query = match analyst % 4 {
                0 => Query::range_count("adult", "age", 20 + i, 40 + i),
                1 => Query::range_count("adult", "hours_per_week", 10 + i, 40 + i),
                2 => Query::range_count("adult", "education_num", 1 + (i % 8), 9 + (i % 8)),
                _ => Query::range_count("adult", "capital_loss", 0, 100 * (i + 1) - 1),
            };
            QueryRequest::with_accuracy(query, 400.0 + 150.0 * i as f64)
        })
        .collect();
    // Re-ask the first query with a looser demand: a cache hit.
    let repeat = requests[0].query.clone();
    requests.push(QueryRequest::with_accuracy(repeat, 50_000.0));
    requests
}

/// Everything an analyst observes about one answer, with floats as raw
/// bits so the comparison is exact.
type ObservedOutcome = (u64, Option<String>, u64, u64, bool, u64);

fn observe(outcome: QueryOutcome) -> ObservedOutcome {
    match outcome {
        QueryOutcome::Answered(a) => (
            a.value.to_bits(),
            a.view,
            a.epsilon_charged.to_bits(),
            a.noise_variance.to_bits(),
            a.from_cache,
            a.epoch,
        ),
        QueryOutcome::Rejected { reason } => panic!("unexpected rejection: {reason}"),
    }
}

/// Runs every analyst's script through a worker-pool service built over a
/// system carrying `metrics`, returning each analyst's ordered, fully
/// observable outcomes plus the service handle's final snapshot inputs.
fn run(mechanism: MechanismKind, seed: u64, metrics: MetricsRegistry) -> Vec<Vec<ObservedOutcome>> {
    let system = build_system(mechanism, seed, metrics);
    let service = Arc::new(QueryService::start(
        Arc::clone(&system),
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
                script(a)
                    .into_iter()
                    .map(|request| observe(service.submit_wait(session, request).unwrap()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn enabled_and_noop_registries_deliver_bit_identical_results() {
    for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
        let metrics = MetricsRegistry::new();
        let enabled = run(mechanism, 29, metrics.clone());
        let noop = run(mechanism, 29, MetricsRegistry::disabled());
        assert_eq!(
            enabled, noop,
            "{mechanism}: instrumentation changed an analyst-visible bit"
        );
        // The comparison covers the DP-arithmetic counters' bump sites:
        // every analyst's first query, at least, missed and translated.
        let translations = metrics.snapshot().counter("dp.translations");
        assert!(translations.unwrap() >= ANALYSTS as u64);
        // Sanity: the runs did real work (answers, charges, a cache hit).
        assert!(enabled.iter().all(|a| a.len() == 11));
        assert!(
            enabled.iter().any(|a| a.last().unwrap().4),
            "{mechanism}: the repeated query should have hit the synopsis cache"
        );
    }
}

#[test]
fn snapshot_agrees_with_service_stats_end_to_end() {
    let metrics = MetricsRegistry::new();
    let system = build_system(MechanismKind::AdditiveGaussian, 31, metrics.clone());
    let service = Arc::new(QueryService::start(
        Arc::clone(&system),
        ServiceConfig::builder().workers(2).build().unwrap(),
    ));
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "obs-test").unwrap();
    client.register("analyst-0").unwrap();
    for request in script(0) {
        client.query(&request).unwrap();
    }
    // The protocol snapshot is the same aggregation the in-process API
    // returns: counters must match the service's own bookkeeping.
    let wire = client.metrics().unwrap();
    let local = service.metrics_snapshot();
    let stats = service.stats();
    for snap in [&wire, &local] {
        assert_eq!(
            snap.counter("query.answered").unwrap(),
            stats.system.answered as u64
        );
        assert_eq!(
            snap.counter("service.submitted").unwrap(),
            stats.submitted as u64
        );
        assert!(snap.counter("synopsis.cache_hits").unwrap() >= 1);
        assert!(snap.counter("frontend.requests").unwrap() >= 11);
        // DP arithmetic per non-hit operation, from the service itself: a
        // miss runs the vanilla translation once, plus the friction-aware
        // search when it grows an existing global synopsis, and at most
        // one calibration (the growth's own epsilon); a hit runs neither.
        let misses = snap.counter("synopsis.cache_misses").unwrap();
        let translations = snap.counter("dp.translations").unwrap();
        assert!((misses..=2 * misses).contains(&translations));
        assert!(snap.counter("dp.calibrations").unwrap() <= misses);
        // ServiceStats reads the queue-depth high-watermark from the
        // registry, and every executed batch is size-accounted.
        assert_eq!(
            snap.gauge("queue.depth_hwm").unwrap(),
            stats.queue_depth_hwm as f64
        );
        assert_eq!(
            snap.histogram("batch.size").unwrap().count,
            stats.batches as u64
        );
        assert!(snap.histogram("query.execute_ns").unwrap().count >= 11);
        // Budget gauges cover the provenance matrix: the worked cell's
        // provenance entry has accumulated charges, with headroom left
        // (the script never exhausts its ample budget).
        let gauge = snap
            .budget("analyst-0", "adult.age")
            .expect("budget gauge for the worked (analyst, view) cell");
        assert!(gauge.entry_epsilon > 0.0);
        assert!(gauge.remaining_epsilon > 0.0);
        // An untouched cell carries no charge.
        let idle = snap.budget("analyst-3", "adult.age").unwrap();
        assert_eq!(idle.entry_epsilon, 0.0);
    }
    drop(client);
    listener.shutdown();
}

/// Runs `script(0)` through a one-worker service over a system carrying
/// `metrics`, every request queued (`submit_wait`, never inline).
fn queued_script_run(metrics: MetricsRegistry) -> Arc<QueryService> {
    let system = build_system(MechanismKind::Vanilla, 33, metrics);
    let service = Arc::new(QueryService::start(
        Arc::clone(&system),
        ServiceConfig::builder().workers(1).build().unwrap(),
    ));
    let session = service.open_session(AnalystId(0)).unwrap();
    for request in script(0) {
        service.submit_wait(session, request).unwrap();
    }
    service
}

#[test]
fn noop_registry_snapshot_still_serves_always_on_stats() {
    let service = queued_script_run(MetricsRegistry::disabled());
    let snap = service.metrics_snapshot();
    let stats = service.stats();
    // A disabled registry reads no clock, so the timed series stay
    // empty...
    assert_eq!(snap.histogram("query.execute_ns").unwrap().count, 0);
    assert_eq!(snap.histogram("queue.wait_ns").unwrap().count, 0);
    // ...but it still counts: outcomes, DP arithmetic and budget gauges.
    assert_eq!(snap.counter("query.answered").unwrap(), 11);
    assert!(snap.counter("dp.translations").unwrap() >= 1);
    let gauge = snap
        .budget("analyst-0", "adult.age")
        .expect("budget gauge for the worked (analyst, view) cell");
    assert!(gauge.entry_epsilon > 0.0);
    // The ServiceStats surface is live.
    assert!(stats.queue_depth_hwm >= 1);
    assert_eq!(
        snap.gauge("queue.depth_hwm").unwrap(),
        stats.queue_depth_hwm as f64
    );
    assert_eq!(
        snap.histogram("batch.size").unwrap().count,
        stats.batches as u64
    );
    assert_eq!(
        snap.counter("service.completed").unwrap(),
        stats.completed as u64
    );
}

#[test]
fn a_disabled_registry_is_the_one_tally() {
    let service = queued_script_run(MetricsRegistry::disabled());
    let snap = service.metrics_snapshot();
    let stats = service.stats();
    // The stats are read from the registry, so the two agree on every
    // outcome count, and the run did real work.
    assert_eq!(stats.system.answered, 11);
    assert!(stats.system.cache_hits >= 1);
    assert!(stats.batches >= 1);
    let counts = [
        ("query.answered", stats.system.answered),
        ("query.rejected", stats.system.rejected),
        ("synopsis.cache_hits", stats.system.cache_hits),
        ("batch.executed", stats.batches),
    ];
    for (name, count) in counts {
        assert_eq!(snap.counter(name), Some(count as u64), "{name}");
    }
    assert_eq!(
        snap.gauge("queue.depth_hwm"),
        Some(stats.queue_depth_hwm as f64)
    );
    // Every metric is reported once: no pulled twin of a registry series.
    let mut names: Vec<&str> = snap
        .counters
        .iter()
        .map(|(name, _)| name.as_str())
        .chain(snap.gauges.iter().map(|(name, _)| name.as_str()))
        .chain(snap.histograms.iter().map(|(name, _)| name.as_str()))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a metric name is reported twice");
    // Nothing was journaled.
    assert!(service.metrics().trace_events().is_empty());
    assert_eq!(service.metrics().trace_recorded(), 0);
}

#[test]
fn scan_time_records_one_sample_per_batch() {
    // The `exec.scan_ns` histogram carries a batch's scan busy time,
    // recorded exactly once per executed batch — never once per query or
    // per table pass.
    let metrics = MetricsRegistry::new();
    let system = build_system(MechanismKind::Vanilla, 41, metrics.clone());
    let queries: Vec<Query> = (0..6)
        .map(|i| Query::range_count("adult", "age", 20 + i, 40 + i))
        .collect();
    for _ in 0..3 {
        system.true_answers(&queries).unwrap();
    }
    system.true_answer(&queries[0]).unwrap();
    system.true_answer(&queries[1]).unwrap();
    let scan = metrics
        .snapshot()
        .histogram("exec.scan_ns")
        .expect("scan histogram present");
    // 3 six-query batches + 2 single-query batches = 5 samples.
    assert_eq!(scan.count, 5, "one exec.scan_ns sample per batch");
    assert!(scan.sum > 0, "scans accumulated busy nanoseconds");
}

#[test]
fn trace_journal_capacity_is_bounded_and_export_is_valid() {
    let metrics = MetricsRegistry::with_journal_capacity(16);
    let system = build_system(MechanismKind::Vanilla, 37, metrics.clone());
    let service = Arc::new(QueryService::start(
        Arc::clone(&system),
        ServiceConfig::builder().workers(2).build().unwrap(),
    ));
    let session = service.open_session(AnalystId(0)).unwrap();
    for request in script(0) {
        service.submit_wait(session, request).unwrap();
    }
    // 11 queries × ≥2 stages (queue-wait + execute) overflow 16 slots: the
    // ring keeps the most recent 16 and counts everything it saw.
    let events = metrics.trace_events();
    assert!(
        events.len() <= 16,
        "journal exceeded capacity: {}",
        events.len()
    );
    assert!(metrics.trace_recorded() > 16);
    let trace = service.dump_trace();
    assert!(trace.starts_with('[') && trace.trim_end().ends_with(']'));
    assert!(
        trace.contains("\"ph\": \"X\""),
        "chrome events are complete-phase"
    );
    assert!(trace.contains("execute"), "execute stages present: {trace}");
}

/// Drives a single-analyst workload through a `DProvDb` whose commit path
/// is gated by a `ReplicatedRecorder` over a 3-replica `SimCluster`, with
/// `metrics` wired into the system, the cluster and the recorder.
fn cluster_run(metrics: MetricsRegistry) -> Vec<ObservedOutcome> {
    use dprovdb::cluster::{ReplicatedRecorder, SimCluster};
    use std::sync::Mutex;
    let db = adult_database(800, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("analyst-0", 2).unwrap();
    let config = SystemConfig::new(50.0).unwrap().with_seed(43);
    let mut system = DProvDb::new(db, catalog, registry, config, MechanismKind::Vanilla).unwrap();
    system.set_metrics(metrics.clone());
    let cluster = Arc::new(Mutex::new(SimCluster::with_metrics(3, 43, metrics.clone())));
    let recorder = ReplicatedRecorder::new(cluster).with_metrics(metrics);
    system.set_recorder(Arc::new(recorder));
    let mut rng = dprovdb::dp::rng::DpRng::for_stream(43, 0);
    (0..5)
        .map(|i| {
            let query = Query::range_count("adult", "age", 20 + i, 40 + i);
            // Tightening variance: each round recharges (no cache hit).
            let request = QueryRequest::with_accuracy(query, 1200.0 - 150.0 * i as f64);
            observe(
                system
                    .submit_with_rng(AnalystId(0), &request, &mut rng)
                    .unwrap(),
            )
        })
        .collect()
}

#[test]
fn cluster_metrics_are_inert_and_their_ids_are_pinned() {
    // Inertness: the replication-path instrumentation (quorum-ack timings,
    // election counters, lag gauge) must not change an analyst-visible bit.
    let metrics = MetricsRegistry::new();
    let enabled = cluster_run(metrics.clone());
    let noop = cluster_run(MetricsRegistry::disabled());
    assert_eq!(
        enabled, noop,
        "cluster instrumentation changed an analyst-visible bit"
    );
    // Pin the replication series names and that the workload fed them:
    // every submission replicates one admission record (its commit with
    // the access riding in it), so the quorum-ack histogram holds one
    // sample per query.
    let snap = metrics.snapshot();
    assert!(
        snap.counter("cluster.leader_elections").unwrap() >= 1,
        "the replica group must have elected at least once"
    );
    let ack = snap
        .histogram("cluster.quorum_ack_ns")
        .expect("quorum-ack histogram present");
    assert_eq!(ack.count, 5, "one quorum ack per admission");
    assert!(ack.sum > 0, "acks accumulated wall nanoseconds");
    assert!(
        snap.gauge("cluster.replication_lag").is_some(),
        "replication-lag gauge present"
    );
}
