//! Noisy synopses.
//!
//! A synopsis is the DP release of a histogram view: the exact cell counts
//! plus i.i.d. Gaussian noise of a known per-bin variance. DProvDB keeps one
//! *global* synopsis per view and derives *local* per-analyst synopses from
//! it (see `dprov-core::synopsis_manager`); both are represented by this
//! type, which only knows its counts and its noise level.

use crate::transform::LinearQuery;

/// A noisy answer to a histogram view.
#[derive(Debug, Clone, PartialEq)]
pub struct Synopsis {
    /// Name of the view this synopsis answers.
    pub(crate) view: String,
    /// Noisy cell counts (flat, row-major, same layout as the histogram).
    pub counts: Vec<f64>,
    /// The per-bin noise variance of these counts.
    pub per_bin_variance: f64,
}

impl Synopsis {
    /// Creates a synopsis from noisy counts.
    #[must_use]
    pub fn new(view: &str, counts: Vec<f64>, per_bin_variance: f64) -> Self {
        Synopsis {
            view: view.to_owned(),
            counts,
            per_bin_variance,
        }
    }

    /// Number of cells.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Answers a linear query from the noisy counts.
    #[must_use]
    pub fn answer(&self, query: &LinearQuery) -> f64 {
        debug_assert_eq!(query.view, self.view);
        query.evaluate(&self.counts)
    }

    /// The expected squared error of the answer to a linear query
    /// (Definition 4): the sum of squared coefficients times the per-bin
    /// variance, since the noise is independent across bins.
    #[must_use]
    pub fn answer_variance(&self, query: &LinearQuery) -> f64 {
        query.answer_variance(self.per_bin_variance)
    }

    /// Combines this synopsis with another one over the same view using
    /// weights `(1 - w)` and `w` (Eq. (2)); the result's per-bin variance is
    /// `(1-w)² v_self + w² v_other` assuming independent noise.
    #[must_use]
    pub fn combine(&self, other: &Synopsis, w: f64) -> Synopsis {
        debug_assert_eq!(self.view, other.view);
        debug_assert_eq!(self.counts.len(), other.counts.len());
        debug_assert!((0.0..=1.0).contains(&w));
        let counts = self
            .counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| (1.0 - w) * a + w * b)
            .collect();
        let variance =
            (1.0 - w) * (1.0 - w) * self.per_bin_variance + w * w * other.per_bin_variance;
        Synopsis {
            view: self.view.clone(),
            counts,
            per_bin_variance: variance,
        }
    }

    /// The inverse-variance-optimal combination weight for merging `self`
    /// (variance `v_{t-1}`) with a fresh synopsis of variance `fresh_variance`
    /// (UMVUE weighting, §5.2.2): `w_t = v_{t-1} / (v_Δ + v_{t-1})`.
    #[must_use]
    pub fn optimal_combination_weight(&self, fresh_variance: f64) -> f64 {
        self.per_bin_variance / (fresh_variance + self.per_bin_variance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lq(view: &str, cells: &[(usize, f64)], total: usize) -> LinearQuery {
        LinearQuery {
            view: view.to_owned(),
            coefficients: cells.to_vec(),
            view_cells: total,
        }
    }

    #[test]
    fn answering_linear_queries() {
        let s = Synopsis::new("v", vec![10.0, 20.0, 30.0], 4.0);
        let q = lq("v", &[(0, 1.0), (2, 1.0)], 3);
        assert_eq!(s.answer(&q), 40.0);
        assert_eq!(s.answer_variance(&q), 8.0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn combination_weights_average_counts_and_variances() {
        let a = Synopsis::new("v", vec![10.0, 0.0], 9.0);
        let b = Synopsis::new("v", vec![20.0, 10.0], 1.0);
        let c = a.combine(&b, 0.9);
        assert!((c.counts[0] - (0.1 * 10.0 + 0.9 * 20.0)).abs() < 1e-12);
        assert!((c.per_bin_variance - (0.01 * 9.0 + 0.81 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn optimal_weight_minimises_combined_variance() {
        let old = Synopsis::new("v", vec![0.0], 9.0);
        let fresh_variance = 3.0;
        let w = old.optimal_combination_weight(fresh_variance);
        assert!((w - 0.75).abs() < 1e-12);
        let combined = |w: f64| (1.0 - w) * (1.0 - w) * 9.0 + w * w * 3.0;
        let at_opt = combined(w);
        for test_w in [0.0, 0.25, 0.5, 0.6, 0.9, 1.0] {
            assert!(at_opt <= combined(test_w) + 1e-12);
        }
        // Combined variance is below both inputs.
        assert!(at_opt < 3.0);
        assert!(at_opt < 9.0);
    }

    #[test]
    fn combine_with_weight_zero_or_one_returns_an_endpoint() {
        let a = Synopsis::new("v", vec![1.0], 5.0);
        let b = Synopsis::new("v", vec![7.0], 2.0);
        assert_eq!(a.combine(&b, 0.0).counts, a.counts);
        assert_eq!(a.combine(&b, 1.0).counts, b.counts);
    }
}
