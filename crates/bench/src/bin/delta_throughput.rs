//! Throughput of the dynamic-data subsystem (`dprov-delta`): update
//! ingest rate, epoch-seal latency, and incremental patching vs full
//! rebuild at growing table sizes.
//!
//! The point of incremental maintenance is that a seal's cost scales with
//! the **delta**, not with the table: patching a view's histogram from
//! `k` delta rows is `O(k)`, while a full rebuild re-scans all `N` rows
//! of every affected view. This bin times each seal (the `incremental`
//! rows) and, right after it, a rebuild of the same views with
//! `ColumnarExecutor::materialize_histograms` (the `full-rebuild` rows —
//! what the seal would cost without patching), and reports the widening
//! gap as the base table grows. Latency percentiles are per seal (the
//! pause an updater experiences at each epoch boundary).
//!
//! ```text
//! cargo run --release --bin delta_throughput [-- epochs [rows_per_batch]]
//! ```

use dprov_bench::report::{cell, cell_fmt, fmt_f64, BenchReport, Latencies};
use dprov_core::analyst::AnalystRegistry;
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::system::DProvDb;
use dprov_delta::UpdateBatch;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
use dprov_engine::value::Value;
use dprov_engine::view::ViewDef;

const TABLE_SIZES: [usize; 3] = [10_000, 100_000, 400_000];

/// The system plus the view definitions every seal patches.
fn build_system(rows: usize) -> (DProvDb, Vec<ViewDef>) {
    let db = adult_database(rows, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let views = catalog.views().to_vec();
    let mut registry = AnalystRegistry::new();
    registry.register("analyst", 4).unwrap();
    let config = SystemConfig::new(8.0).unwrap().with_seed(7);
    let system = DProvDb::new(
        db,
        catalog,
        registry,
        config,
        MechanismKind::AdditiveGaussian,
    )
    .unwrap();
    (system, views)
}

fn adult_row(age: i64, hours: i64) -> Vec<Value> {
    vec![
        Value::Int(age),
        Value::text("Private"),
        Value::text("HS-grad"),
        Value::Int(9),
        Value::text("Never-married"),
        Value::text("Sales"),
        Value::text("Not-in-family"),
        Value::text("White"),
        Value::text("Male"),
        Value::Int(0),
        Value::Int(0),
        Value::Int(hours),
        Value::text("<=50K"),
    ]
}

fn batch(epoch: usize, rows_per_batch: usize) -> UpdateBatch {
    UpdateBatch::insert(
        "adult",
        (0..rows_per_batch)
            .map(|i| adult_row(17 + ((epoch * 7 + i) % 74) as i64, 1 + (i % 99) as i64))
            .collect(),
    )
}

/// Runs `epochs` seals of `rows_per_batch`-row batches; returns the
/// per-seal latencies of the incremental patch and of rebuilding the same
/// views from the updated shard set (their sums are the total times).
fn run(
    system: &DProvDb,
    views: &[ViewDef],
    epochs: usize,
    rows_per_batch: usize,
) -> (Latencies, Latencies) {
    let (patch, rebuild) = (Latencies::new(), Latencies::new());
    for epoch in 0..epochs {
        system.apply_update(&batch(epoch, rows_per_batch)).unwrap();
        patch.time(|| system.seal_epoch()).unwrap();
        let rebuilt = rebuild
            .time(|| system.exec().materialize_histograms(views))
            .unwrap();
        // The rebuild scanned the sealed epoch: every view counts every row.
        let rows = system.true_answer(&Query::count("adult")).unwrap();
        assert!(rebuilt.iter().all(|h| h.total() == rows));
    }
    (patch, rebuild)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let epochs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let rows_per_batch: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);

    println!(
        "delta_throughput: {epochs} epochs x {rows_per_batch}-row insert batches over the adult \
         table (13 one-way views patched per seal)"
    );
    let mut report = BenchReport::new("delta_throughput");
    report
        .arg("epochs", epochs)
        .arg("rows_per_batch", rows_per_batch);

    report.section(
        "epoch seal cost — incremental patch vs full rebuild",
        &[
            "base_rows",
            "mode",
            "seal_ms_avg",
            "seals_per_s",
            "delta_rows_per_s",
            "speedup",
            "p50_us",
            "p95_us",
            "p99_us",
            "max_us",
        ],
    );
    for rows in TABLE_SIZES {
        let (system, views) = build_system(rows);
        let (patch, rebuild) = run(&system, &views, epochs, rows_per_batch);
        let rebuild_avg_ms = rebuild.total_seconds() * 1e3 / epochs as f64;
        for (label, latencies) in [("full-rebuild", rebuild), ("incremental", patch)] {
            let seal_s = latencies.total_seconds();
            let avg_ms = seal_s * 1e3 / epochs as f64;
            let seals_per_s = epochs as f64 / seal_s;
            let delta_rows_per_s = (epochs * rows_per_batch) as f64 / seal_s;
            let speedup = rebuild_avg_ms / avg_ms;
            let mut row = vec![
                cell("base_rows", rows),
                cell("mode", label),
                cell_fmt("seal_ms_avg", avg_ms, fmt_f64(avg_ms, 3)),
                cell_fmt("seals_per_s", seals_per_s, fmt_f64(seals_per_s, 0)),
                cell_fmt(
                    "delta_rows_per_s",
                    delta_rows_per_s,
                    fmt_f64(delta_rows_per_s, 0),
                ),
                cell_fmt("speedup_vs_rebuild", speedup, format!("{speedup:.2}x")),
            ];
            row.extend(latencies.percentile_cells());
            report.row(&row);
        }
    }
    report.finish();
    println!(
        "\nincremental seal cost tracks the delta (rows_per_batch), not the base table; \
         the full-rebuild rows time materialize_histograms over the same views"
    );
}
