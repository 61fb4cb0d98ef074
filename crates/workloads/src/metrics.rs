//! Evaluation metrics (§6.1.3).

use std::time::Duration;

/// Everything a single experiment run records.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// The system under test (e.g. "DProvDB", "Vanilla", "Chorus").
    pub system: String,
    /// The interleaving label ("round-robin" / "randomized").
    pub interleaving: String,
    /// Queries answered per analyst (indexed by analyst id).
    pub answered_per_analyst: Vec<usize>,
    /// Total number of rejected queries.
    pub rejected: usize,
    /// nDCFG fairness score of the run (Definition 18).
    pub ndcfg: f64,
    /// The system's worst-case cumulative privacy loss when the run ended.
    pub cumulative_epsilon: f64,
    /// Cumulative privacy loss after each submission (the Fig. 4 trace).
    pub budget_trace: Vec<f64>,
    /// Relative error of every answered query (when ground truth was
    /// available to the harness).
    pub relative_errors: Vec<f64>,
    /// `v_q − v_i` for every answered accuracy-mode query: the delivered
    /// noise variance minus the requested bound (Fig. 9a; never positive
    /// when the translation is correct).
    pub translation_gaps: Vec<f64>,
    /// Wall-clock time spent submitting the workload.
    pub elapsed: Duration,
}

impl RunMetrics {
    /// Total number of answered queries.
    #[must_use]
    pub fn total_answered(&self) -> usize {
        self.answered_per_analyst.iter().sum()
    }

    /// Mean relative error over answered queries (0 when none recorded).
    #[must_use]
    pub fn mean_relative_error(&self) -> f64 {
        mean(&self.relative_errors)
    }

    /// Mean translation gap (negative or zero when the accuracy translation
    /// is correct).
    #[must_use]
    pub fn mean_translation_gap(&self) -> f64 {
        mean(&self.translation_gaps)
    }

    /// The largest translation gap observed (should stay ≤ 0).
    #[must_use]
    pub fn max_translation_gap(&self) -> f64 {
        self.translation_gaps
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Average per-query latency in milliseconds.
    #[must_use]
    pub fn per_query_ms(&self) -> f64 {
        let total = self.total_answered() + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() * 1e3 / total as f64
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Aggregates repeated runs (different seeds) of the same configuration:
/// reports the mean of the headline numbers, as the paper averages 4 runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedMetrics {
    /// The system under test.
    pub system: String,
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean number of answered queries.
    pub mean_answered: f64,
    /// Mean nDCFG.
    pub mean_ndcfg: f64,
    /// Mean cumulative epsilon.
    pub mean_cumulative_epsilon: f64,
    /// Mean of the per-run mean relative error.
    pub mean_relative_error: f64,
}

/// Aggregates a slice of runs of the same system.
#[must_use]
pub fn aggregate(runs: &[RunMetrics]) -> AggregatedMetrics {
    let n = runs.len().max(1) as f64;
    AggregatedMetrics {
        system: runs.first().map(|r| r.system.clone()).unwrap_or_default(),
        runs: runs.len(),
        mean_answered: runs.iter().map(|r| r.total_answered() as f64).sum::<f64>() / n,
        mean_ndcfg: runs.iter().map(|r| r.ndcfg).sum::<f64>() / n,
        mean_cumulative_epsilon: runs.iter().map(|r| r.cumulative_epsilon).sum::<f64>() / n,
        mean_relative_error: runs.iter().map(|r| r.mean_relative_error()).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(answered: Vec<usize>, rejected: usize) -> RunMetrics {
        RunMetrics {
            system: "Test".into(),
            interleaving: "round-robin".into(),
            answered_per_analyst: answered,
            rejected,
            ndcfg: 2.0,
            cumulative_epsilon: 1.5,
            budget_trace: vec![0.5, 1.0, 1.5],
            relative_errors: vec![0.1, 0.3],
            translation_gaps: vec![-5.0, -1.0],
            elapsed: Duration::from_millis(10),
        }
    }

    #[test]
    fn totals_and_means() {
        let m = metrics(vec![3, 4], 3);
        assert_eq!(m.total_answered(), 7);
        assert!((m.mean_relative_error() - 0.2).abs() < 1e-12);
        assert!((m.mean_translation_gap() + 3.0).abs() < 1e-12);
        assert_eq!(m.max_translation_gap(), -1.0);
        assert!((m.per_query_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = RunMetrics {
            system: "Test".into(),
            interleaving: "round-robin".into(),
            answered_per_analyst: vec![],
            rejected: 0,
            ndcfg: 0.0,
            cumulative_epsilon: 0.0,
            budget_trace: vec![],
            relative_errors: vec![],
            translation_gaps: vec![],
            elapsed: Duration::ZERO,
        };
        assert_eq!(m.total_answered(), 0);
        assert_eq!(m.mean_relative_error(), 0.0);
        assert_eq!(m.per_query_ms(), 0.0);
    }

    #[test]
    fn aggregation_averages_headline_numbers() {
        let a = metrics(vec![2, 2], 0);
        let b = metrics(vec![4, 4], 2);
        let agg = aggregate(&[a, b]);
        assert_eq!(agg.runs, 2);
        assert!((agg.mean_answered - 6.0).abs() < 1e-12);
        assert!((agg.mean_ndcfg - 2.0).abs() < 1e-12);
        assert!((agg.mean_cumulative_epsilon - 1.5).abs() < 1e-12);
    }
}
