//! Sweep helpers used by the experiment binaries.

use std::time::Instant;

use dprov_core::config::SystemConfig;
use dprov_core::Result as CoreResult;
use dprov_engine::database::Database;
use dprov_workloads::metrics::{aggregate, AggregatedMetrics, RunMetrics};
use dprov_workloads::rrq::{generate, RrqConfig, RrqWorkload};
use dprov_workloads::runner::ExperimentRunner;
use dprov_workloads::sequence::Interleaving;

use crate::report::{banner, fmt_f64, Table};
use crate::setup::{build_system, default_privileges, Dataset, SystemKind};

/// Fresh runs per system behind each cell of the runtime tables.
const RUNTIME_REPEATS: usize = 5;

/// The configuration of one end-to-end comparison cell.
#[derive(Debug, Clone)]
pub struct ComparisonSpec {
    /// Overall budget ψ_P.
    pub epsilon: f64,
    /// Per-query δ.
    pub delta: f64,
    /// Analyst privilege levels.
    pub privileges: Vec<u8>,
    /// Interleaving of analyst submissions.
    pub interleaving: Interleaving,
    /// Seeds to repeat the run with (the paper averages 4 seeds).
    pub seeds: Vec<u64>,
}

impl ComparisonSpec {
    /// A spec with the experiments' defaults (2 analysts, privileges 1 & 4,
    /// round-robin, 2 seeds to keep CI time reasonable).
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        ComparisonSpec {
            epsilon,
            delta: 1e-9,
            privileges: vec![1, 4],
            interleaving: Interleaving::RoundRobin,
            seeds: vec![1, 2],
        }
    }

    fn config(&self, seed: u64) -> CoreResult<SystemConfig> {
        Ok(SystemConfig::new(self.epsilon)?
            .with_delta(self.delta)?
            .with_seed(seed))
    }
}

/// Runs one system over one RRQ workload for every seed in the spec and
/// aggregates the runs.
pub fn run_rrq_comparison_cell(
    kind: SystemKind,
    db: &Database,
    workload: &RrqWorkload,
    spec: &ComparisonSpec,
) -> CoreResult<(AggregatedMetrics, Vec<RunMetrics>)> {
    let runner = ExperimentRunner::new(&spec.privileges).with_ground_truth(db);
    let mut runs = Vec::with_capacity(spec.seeds.len());
    for &seed in &spec.seeds {
        let config = spec.config(seed)?;
        let mut system = build_system(kind, db, &spec.privileges, &config)?;
        runs.push(runner.run_rrq(system.as_mut(), workload, spec.interleaving)?);
    }
    Ok((aggregate(&runs), runs))
}

/// Runs every system of [`SystemKind::ALL`] over the same workload.
pub fn run_rrq_comparison(
    db: &Database,
    workload: &RrqWorkload,
    spec: &ComparisonSpec,
) -> CoreResult<Vec<(SystemKind, AggregatedMetrics)>> {
    let mut out = Vec::new();
    for kind in SystemKind::ALL {
        let (agg, _) = run_rrq_comparison_cell(kind, db, workload, spec)?;
        out.push((kind, agg));
    }
    Ok(out)
}

/// One system's timings over repeated fresh runs of one workload.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeRuns {
    /// Build time per repeat (view materialisation + static synopses).
    pub(crate) setup_ms: Vec<f64>,
    /// Workload time per repeat.
    pub(crate) running_ms: Vec<f64>,
    /// Workload time per processed query, per repeat.
    pub(crate) per_query_ms: Vec<f64>,
    /// Queries answered, the same in every repeat.
    pub(crate) answered: usize,
}

/// Builds `kind` fresh `repeats` times from the same `config` (so with the
/// same seeds) and runs `workload` round-robin on each, timing setup and
/// running.
///
/// # Panics
/// If two repeats answer a different number of queries: the runs are
/// meant to be the same run timed again.
pub(crate) fn time_runs(
    kind: SystemKind,
    db: &Database,
    workload: &RrqWorkload,
    config: &SystemConfig,
    repeats: usize,
) -> CoreResult<RuntimeRuns> {
    let privileges = default_privileges();
    let runner = ExperimentRunner::new(&privileges);
    let mut runs = RuntimeRuns {
        setup_ms: Vec::with_capacity(repeats),
        running_ms: Vec::with_capacity(repeats),
        per_query_ms: Vec::with_capacity(repeats),
        answered: 0,
    };
    for repeat in 0..repeats {
        let setup_start = Instant::now();
        let mut system = build_system(kind, db, &privileges, config)?;
        runs.setup_ms
            .push(setup_start.elapsed().as_secs_f64() * 1e3);
        let metrics = runner.run_rrq(system.as_mut(), workload, Interleaving::RoundRobin)?;
        runs.running_ms.push(metrics.elapsed.as_secs_f64() * 1e3);
        runs.per_query_ms.push(metrics.per_query_ms());
        if repeat == 0 {
            runs.answered = metrics.total_answered();
        }
        assert_eq!(
            metrics.total_answered(),
            runs.answered,
            "{} answered a different count on repeat {repeat}",
            kind.label()
        );
    }
    Ok(runs)
}

/// `median (min–max)` of `ms`, each with `decimals` places.
#[must_use]
pub(crate) fn median_range(ms: &[f64], decimals: usize) -> String {
    let mut sorted = ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    format!(
        "{} ({}–{})",
        fmt_f64(median, decimals),
        fmt_f64(sorted[0], decimals),
        fmt_f64(sorted[n - 1], decimals)
    )
}

/// Prints a runtime table (Tables 1 and 3): per system, setup time,
/// running time, queries answered and per-query time, each time the
/// median (min–max) of five fresh runs with the same seeds.
pub fn print_runtime_table(dataset: Dataset, rows: usize, queries: usize, title: &str) {
    banner(&format!(
        "{title}: runtime performance on {} ({rows} rows, {queries} queries/analyst, ε = 6.4; \
         median (min–max) ms of {RUNTIME_REPEATS} runs)",
        dataset.label()
    ));
    let db = dataset.build(rows, 42);
    let workload = generate(&db, &RrqConfig::new(dataset.table(), queries, 7), 2)
        .expect("workload generation");
    let config = SystemConfig::new(6.4).expect("epsilon").with_seed(3);

    let mut table = Table::new(&[
        "System",
        "Setup Time (ms)",
        "Running Time (ms)",
        "No. of Queries",
        "Per Query (ms)",
    ]);
    for kind in SystemKind::ALL {
        let runs = time_runs(kind, &db, &workload, &config, RUNTIME_REPEATS).expect("run");
        let setup_cell = match kind {
            SystemKind::Chorus | SystemKind::ChorusP => "N/A".to_owned(),
            _ => median_range(&runs.setup_ms, 2),
        };
        table.add_row(&[
            kind.label().to_owned(),
            setup_cell,
            median_range(&runs.running_ms, 2),
            format!("{}", runs.answered),
            median_range(&runs.per_query_ms, 3),
        ]);
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_every_system_and_dprovdb_wins() {
        // The cached-view advantage needs a workload that is large relative
        // to the number of views (the paper uses 4,000 queries per analyst);
        // 150 per analyst is enough for the ordering to emerge.
        let db = Dataset::Adult.build(800, 1);
        let workload = generate(&db, &RrqConfig::new("adult", 150, 3), 2).unwrap();
        let mut spec = ComparisonSpec::new(0.8);
        spec.seeds = vec![1];
        let results = run_rrq_comparison(&db, &workload, &spec).unwrap();
        assert_eq!(results.len(), 5);
        let answered = |kind: SystemKind| {
            results
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, a)| a.mean_answered)
                .unwrap()
        };
        // The headline shape of Fig. 3 under a tight budget: DProvDB answers
        // at least as many queries as the vanilla approach, and strictly
        // more than plain Chorus and the static sPrivateSQL split.
        assert!(answered(SystemKind::DProvDb) >= answered(SystemKind::Vanilla));
        assert!(answered(SystemKind::DProvDb) > answered(SystemKind::Chorus));
        assert!(answered(SystemKind::DProvDb) > answered(SystemKind::SPrivateSql));
    }

    #[test]
    fn repeated_runs_answer_the_same_count() {
        let db = Dataset::Adult.build(400, 1);
        let workload = generate(&db, &RrqConfig::new("adult", 10, 3), 2).unwrap();
        let config = SystemConfig::new(6.4).unwrap().with_seed(3);
        let runs = time_runs(SystemKind::DProvDb, &db, &workload, &config, 3).unwrap();
        assert_eq!(runs.setup_ms.len(), 3);
        assert_eq!(runs.running_ms.len(), 3);
        assert_eq!(runs.per_query_ms.len(), 3);
        assert!(runs.answered > 0);
    }

    #[test]
    fn median_range_prints_the_middle_and_the_spread() {
        assert_eq!(median_range(&[1.47, 0.87, 1.06], 2), "1.06 (0.87–1.47)");
        assert_eq!(median_range(&[4.0, 1.0, 2.0, 3.0], 1), "2.5 (1.0–4.0)");
    }
}
