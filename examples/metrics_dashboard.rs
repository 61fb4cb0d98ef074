//! Live telemetry walk-through: polling `MetricsSnapshot` over the wire
//! while a streaming workload (analyst queries + update batches + epoch
//! seals) runs against the service.
//!
//! A monitor connection — session-free, like an ops dashboard — polls the
//! protocol's `MetricsSnapshot` request on an interval and renders a few
//! one-line samples: answered/rejected totals, synopsis cache hits, queue
//! depth against its high-watermark, and the execute-latency p95. After
//! the workload drains, the full catalog is dumped once — counters,
//! gauges, histogram summaries and the per-(analyst, view)
//! remaining-budget matrix — followed by the retained request trace in
//! chrome://tracing form.
//!
//! The registry is on by default and is designed to be inert: polling it
//! observes the run without perturbing answers, noise or charges (see
//! `tests/metrics_determinism.rs`).
//!
//! ```text
//! cargo run --release --example metrics_dashboard
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dprovdb::api::DProvClient;
use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::system::DProvDb;
use dprovdb::delta::EpochPolicy;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::net::listen;
use dprovdb::server::{QueryService, ServiceConfig};
use dprovdb::workloads::skew::{generate_stream, StreamEvent, StreamingConfig};

const ANALYSTS: usize = 4;

fn build_service() -> Arc<QueryService> {
    let db = adult_database(20_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), ((i % 4) + 1) as u8)
            .unwrap();
    }
    // Carry-forward serving makes the staleness histogram interesting:
    // post-seal answers may reflect a bounded number of epochs back.
    let config = SystemConfig::new(16.0)
        .unwrap()
        .with_seed(7)
        .with_epoch_policy(EpochPolicy::CarryForward { max_staleness: 3 });
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
            .workers(2)
            .updaters(&["loader"])
            .build()
            .unwrap(),
    ))
}

fn main() {
    let service = build_service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut monitor = DProvClient::connect_tcp(listener.local_addr(), "dashboard").unwrap();

    let db = adult_database(20_000, 1);
    let config = StreamingConfig::update_heavy("adult", ANALYSTS, 30).with_seed(7);
    let events = generate_stream(&db, &config).unwrap();
    println!(
        "metrics_dashboard: {} stream events against a 2-worker service; monitor polls \
         MetricsSnapshot over loopback TCP\n",
        events.len()
    );

    // The workload driver: one thread replays the stream through the
    // embedding API while the monitor connection watches from outside.
    let done = Arc::new(AtomicBool::new(false));
    let driver = {
        let service = Arc::clone(&service);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let sessions: Vec<_> = (0..ANALYSTS)
                .map(|a| service.open_session(AnalystId(a)).unwrap())
                .collect();
            for event in events {
                match event {
                    StreamEvent::Query { analyst, request } => {
                        service.submit_wait(sessions[analyst], request).unwrap();
                    }
                    StreamEvent::Update(batch) => {
                        service.apply_update(&batch).unwrap();
                    }
                    StreamEvent::Seal => {
                        service.seal_epoch().unwrap();
                    }
                }
                // Pace the stream so the poller catches it mid-flight.
                std::thread::sleep(Duration::from_micros(200));
            }
            done.store(true, Ordering::Release);
        })
    };

    println!(
        "{:<8} {:>8} {:>8} {:>10} {:>12} {:>14}",
        "sample", "answered", "rejected", "cache_hits", "queue(now/hwm)", "execute_p95_us"
    );
    let mut sample = 0usize;
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(25));
        sample += 1;
        let snap = monitor.metrics().unwrap();
        let execute = snap.histogram("query.execute_ns").unwrap_or_default();
        println!(
            "{:<8} {:>8} {:>8} {:>10} {:>9}/{:<4} {:>14.1}",
            sample,
            snap.counter("query.answered").unwrap_or(0),
            snap.counter("query.rejected").unwrap_or(0),
            snap.counter("synopsis.cache_hits").unwrap_or(0),
            snap.gauge("queue.depth").unwrap_or(0.0),
            snap.gauge("queue.depth_hwm").unwrap_or(0.0),
            execute.p95 as f64 / 1_000.0,
        );
    }
    driver.join().unwrap();

    // One final, complete catalog dump.
    let snap = monitor.metrics().unwrap();
    println!("\nfinal counters:");
    for (name, value) in &snap.counters {
        println!("  {name:<28} {value}");
    }
    println!("final gauges:");
    for (name, value) in &snap.gauges {
        println!("  {name:<28} {value:.3}");
    }
    println!("histograms (count / p50 / p95 / p99 / max, ns or units):");
    for (name, h) in &snap.histograms {
        println!(
            "  {name:<28} {} / {} / {} / {} / {}",
            h.count, h.p50, h.p95, h.p99, h.max
        );
    }
    println!("remaining budget per (analyst, view) — first {ANALYSTS} cells:");
    for gauge in snap.budgets.iter().filter(|b| b.view == "adult.age") {
        println!(
            "  {:<12} {:<12} spent {:.4}  remaining {:.4}",
            gauge.analyst, gauge.view, gauge.entry_epsilon, gauge.remaining_epsilon
        );
    }

    // The retained per-request trace, ready for chrome://tracing.
    let trace = service.dump_trace();
    let events_retained = trace.matches("\"ph\": \"X\"").count();
    println!("\ntrace journal: {events_retained} events retained (chrome://tracing format)");
    for line in trace.lines().skip(1).take(3) {
        println!("  {}", line.trim_end_matches(','));
    }
    println!("  ...");
    listener.shutdown();
}
