//! The query-processor interface shared by DProvDB and the baselines.
//!
//! The experiment runner (in `dprov-workloads`) drives every system through
//! this trait, so the end-to-end comparisons of Section 6 are apples to
//! apples: same workloads, same submission modes, same metrics.

use dprov_engine::group::GroupByQuery;
use dprov_engine::query::Query;
use dprov_engine::value::Value;

use crate::analyst::AnalystId;
use crate::error::{RejectReason, Result};

/// The dual query-submission modes (Principle 3, §4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmissionMode {
    /// Accuracy-oriented: the analyst specifies the maximum expected squared
    /// error of the query answer; the system translates it into the minimal
    /// budget.
    Accuracy {
        /// Upper bound on the expected squared error of the answer.
        variance: f64,
    },
    /// Privacy-oriented: the analyst attaches an explicit epsilon.
    Privacy {
        /// The epsilon to spend on this query.
        epsilon: f64,
    },
}

/// A query submission.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query.
    pub query: Query,
    /// How the budget for it is specified.
    pub mode: SubmissionMode,
}

impl QueryRequest {
    /// An accuracy-oriented request.
    #[must_use]
    pub fn with_accuracy(query: Query, variance: f64) -> Self {
        QueryRequest {
            query,
            mode: SubmissionMode::Accuracy { variance },
        }
    }

    /// A privacy-oriented request.
    #[must_use]
    pub fn with_privacy(query: Query, epsilon: f64) -> Self {
        QueryRequest {
            query,
            mode: SubmissionMode::Privacy { epsilon },
        }
    }
}

/// A successfully answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnsweredQuery {
    /// The noisy answer returned to the analyst.
    pub value: f64,
    /// The view the answer was computed from (None for view-less baselines).
    pub view: Option<String>,
    /// The incremental epsilon charged to the analyst for this query (zero
    /// when answered entirely from an existing synopsis).
    pub epsilon_charged: f64,
    /// The expected squared error of the returned answer (`v_q`).
    pub noise_variance: f64,
    /// True when the answer came from a cached/local synopsis without
    /// spending new budget.
    pub from_cache: bool,
    /// The update epoch the answer's synopsis was released against
    /// (0 = the immutable setup state). Under a carry-forward epoch
    /// policy this may lag the system's current epoch by up to the
    /// configured staleness bound; under re-noise it always equals the
    /// epoch current at release time.
    pub epoch: u64,
}

/// A grouped query submission: one aggregate per combination of the
/// grouping attributes' domains ("GROUP BY*" — empty groups included, so
/// the output shape is data-independent).
///
/// Semantically a `GroupedRequest` *is* the sequence of per-group scalar
/// [`QueryRequest`]s produced by [`GroupByQuery::scalar_queries`] in
/// canonical enumeration order, sharing one [`SubmissionMode`] (the
/// accuracy/privacy target applies to each cell individually). The grouped
/// answering path is bit-identical to submitting those one by one — same
/// answers, same noise draws, same ledger charges — it just resolves the
/// view and walks its histogram once instead of per group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedRequest {
    /// The grouped query.
    pub query: GroupByQuery,
    /// How the per-cell budget is specified.
    pub mode: SubmissionMode,
}

impl GroupedRequest {
    /// An accuracy-oriented grouped request (`variance` bounds each cell's
    /// expected squared error).
    #[must_use]
    pub fn with_accuracy(query: GroupByQuery, variance: f64) -> Self {
        GroupedRequest {
            query,
            mode: SubmissionMode::Accuracy { variance },
        }
    }

    /// A privacy-oriented grouped request (`epsilon` is spent per released
    /// cell, under the normal provenance pricing).
    #[must_use]
    pub fn with_privacy(query: GroupByQuery, epsilon: f64) -> Self {
        GroupedRequest {
            query,
            mode: SubmissionMode::Privacy { epsilon },
        }
    }
}

/// The outcome of a grouped submission: one [`QueryOutcome`] per group
/// cell, in canonical enumeration order. Cells are admitted independently,
/// so a grouped answer can be partially rejected (e.g. the budget runs out
/// halfway through the enumeration) — exactly as the per-group oracle
/// would be.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedOutcome {
    /// The group keys, in canonical enumeration order.
    pub keys: Vec<Vec<Value>>,
    /// Per-cell outcomes, parallel to `keys`.
    pub outcomes: Vec<QueryOutcome>,
}

impl GroupedOutcome {
    /// Number of answered cells.
    #[must_use]
    pub fn answered_cells(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_answered()).count()
    }

    /// Total epsilon charged across the released cells.
    #[must_use]
    pub fn epsilon_charged(&self) -> f64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.answered().map(|a| a.epsilon_charged))
            .sum()
    }
}

/// The outcome of a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The query was answered.
    Answered(AnsweredQuery),
    /// The query was rejected.
    Rejected {
        /// Why it was rejected.
        reason: RejectReason,
    },
}

impl QueryOutcome {
    /// True when the query was answered.
    #[must_use]
    pub fn is_answered(&self) -> bool {
        matches!(self, QueryOutcome::Answered(_))
    }

    /// The answered payload, if any.
    #[must_use]
    pub fn answered(&self) -> Option<&AnsweredQuery> {
        match self {
            QueryOutcome::Answered(a) => Some(a),
            QueryOutcome::Rejected { .. } => None,
        }
    }
}

/// A multi-analyst query-processing system.
pub trait QueryProcessor {
    /// Human-readable system name (used as the series label in experiment
    /// outputs).
    fn name(&self) -> String;

    /// Processes one query submitted by `analyst`.
    fn submit(&mut self, analyst: AnalystId, request: &QueryRequest) -> Result<QueryOutcome>;

    /// The total privacy loss consumed so far under the system's own
    /// worst-case accounting (used for the cumulative-budget plots, Fig. 4).
    fn cumulative_epsilon(&self) -> f64;

    /// The privacy loss consumed on behalf of a specific analyst.
    fn analyst_epsilon(&self, analyst: AnalystId) -> f64;

    /// Number of registered analysts.
    fn num_analysts(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::query::Query;

    #[test]
    fn request_constructors() {
        let q = Query::count("adult");
        let a = QueryRequest::with_accuracy(q.clone(), 100.0);
        assert_eq!(a.mode, SubmissionMode::Accuracy { variance: 100.0 });
        let p = QueryRequest::with_privacy(q, 0.1);
        assert_eq!(p.mode, SubmissionMode::Privacy { epsilon: 0.1 });
    }

    #[test]
    fn outcome_helpers() {
        let answered = QueryOutcome::Answered(AnsweredQuery {
            value: 1.0,
            view: None,
            epsilon_charged: 0.1,
            noise_variance: 2.0,
            from_cache: false,
            epoch: 0,
        });
        assert!(answered.is_answered());
        assert!(answered.answered().is_some());
        let rejected = QueryOutcome::Rejected {
            reason: crate::error::RejectReason::TableConstraint,
        };
        assert!(!rejected.is_answered());
        assert!(rejected.answered().is_none());
    }
}
