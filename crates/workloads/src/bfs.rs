//! The breadth-first search exploration task (§6.1.2).
//!
//! Each analyst explores an integer attribute's domain through its binary
//! decomposition tree, looking for under-represented sub-regions: the
//! analyst queries the count of a region, and only descends into its two
//! halves when the (noisy) count lies outside a stopping threshold range.
//! The workload is therefore *adaptive* — the next query depends on the
//! previous noisy answer — which is why the runner drives it through a
//! pull-style iterator rather than a pre-generated batch.

use std::collections::VecDeque;

use dprov_core::processor::QueryRequest;
use dprov_engine::database::Database;
use dprov_engine::query::Query;
use dprov_engine::schema::AttributeType;
use dprov_engine::Result as EngineResult;

/// Configuration of one analyst's BFS task.
#[derive(Debug, Clone, PartialEq)]
pub struct BfsConfig {
    /// The table explored.
    pub(crate) table: String,
    /// The integer attribute whose domain is decomposed.
    pub(crate) attribute: String,
    /// Descend into a region only when its noisy count is strictly greater
    /// than this threshold (regions at or below it are "found").
    pub(crate) threshold: f64,
    /// Accuracy requirement attached to every count query.
    pub(crate) accuracy_variance: f64,
    /// Do not split regions narrower than this many domain values.
    pub(crate) min_width: i64,
    /// Hard cap on the number of queries the task may issue.
    pub(crate) max_queries: usize,
}

impl BfsConfig {
    /// A BFS task over the given attribute with the paper's defaults
    /// (accuracy requirement above 10,000, §6.2 "other experiments").
    #[must_use]
    pub fn new(table: &str, attribute: &str, threshold: f64) -> Self {
        BfsConfig {
            table: table.to_owned(),
            attribute: attribute.to_owned(),
            threshold,
            accuracy_variance: 12_000.0,
            min_width: 1,
            max_queries: 2_000,
        }
    }
}

/// The state of one analyst's BFS exploration.
#[derive(Debug, Clone)]
pub(crate) struct BfsTask {
    config: BfsConfig,
    /// Regions (inclusive bounds) still to be examined.
    frontier: VecDeque<(i64, i64)>,
    /// The region whose answer we are waiting for.
    pending: Option<(i64, i64)>,
    issued: usize,
    /// Regions identified as under-represented (noisy count ≤ threshold).
    found: Vec<(i64, i64)>,
}

impl BfsTask {
    /// Creates the task, seeding the frontier with the attribute's full
    /// domain.
    pub(crate) fn new(db: &Database, config: BfsConfig) -> EngineResult<Self> {
        let table = db.table(&config.table)?;
        let attr = table.schema().attribute(&config.attribute)?;
        let (min, max) = match attr.attr_type {
            AttributeType::Integer { min, max, .. } => (min, max),
            AttributeType::Categorical { .. } => {
                return Err(dprov_engine::EngineError::InvalidQuery(format!(
                    "BFS requires an integer attribute, {} is categorical",
                    config.attribute
                )))
            }
        };
        let mut frontier = VecDeque::new();
        frontier.push_back((min, max));
        Ok(BfsTask {
            config,
            frontier,
            pending: None,
            issued: 0,
            found: Vec::new(),
        })
    }

    /// The next query to submit, or `None` when the exploration finished.
    /// Callers must report the outcome of the previous query through
    /// [`Self::report_answer`] / [`Self::report_rejection`] before asking
    /// for the next one.
    pub(crate) fn next_request(&mut self) -> Option<QueryRequest> {
        assert!(
            self.pending.is_none(),
            "report the previous answer before requesting the next query"
        );
        if self.issued >= self.config.max_queries {
            return None;
        }
        let region = self.frontier.pop_front()?;
        self.pending = Some(region);
        self.issued += 1;
        Some(QueryRequest::with_accuracy(
            Query::range_count(
                &self.config.table,
                &self.config.attribute,
                region.0,
                region.1,
            ),
            self.config.accuracy_variance,
        ))
    }

    /// Reports the noisy answer of the pending query, expanding the
    /// frontier when the region is still over-represented.
    pub(crate) fn report_answer(&mut self, noisy_count: f64) {
        let (lo, hi) = self
            .pending
            .take()
            .expect("an answer without a pending query");
        if noisy_count <= self.config.threshold {
            self.found.push((lo, hi));
            return;
        }
        let width = hi - lo + 1;
        if width <= self.config.min_width || width <= 1 {
            return;
        }
        let mid = lo + (width / 2) - 1;
        self.frontier.push_back((lo, mid));
        self.frontier.push_back((mid + 1, hi));
    }

    /// Reports that the pending query was rejected: the branch is abandoned
    /// (the analyst cannot learn anything more about it).
    pub(crate) fn report_rejection(&mut self) {
        self.pending = None;
    }

    /// True when the exploration has finished (frontier exhausted or query
    /// cap reached).
    #[must_use]
    pub(crate) fn is_done(&self) -> bool {
        self.pending.is_none()
            && (self.frontier.is_empty() || self.issued >= self.config.max_queries)
    }

    /// Number of queries issued so far.
    #[cfg(test)]
    pub(crate) fn issued(&self) -> usize {
        self.issued
    }

    /// The under-represented regions found so far.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn found_regions(&self) -> &[(i64, i64)] {
        &self.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_engine::exec::execute;

    #[test]
    fn exploration_descends_only_into_dense_regions() {
        let db = adult_database(5_000, 1);
        let config = BfsConfig::new("adult", "age", 200.0);
        let mut task = BfsTask::new(&db, config).unwrap();

        // Drive the task with *exact* answers so the behaviour is
        // deterministic and verifiable.
        let mut issued = 0;
        while let Some(request) = task.next_request() {
            issued += 1;
            let truth = execute(&db, &request.query).unwrap().scalar().unwrap();
            task.report_answer(truth);
            assert!(issued < 1_000, "BFS failed to terminate");
        }
        assert!(task.is_done());
        assert_eq!(task.issued(), issued);
        // The exploration must have gone at least two levels deep (the full
        // domain count of 5000 far exceeds the threshold).
        assert!(issued > 3, "only {issued} queries issued");
        // Every found region is genuinely at or below the threshold.
        for &(lo, hi) in task.found_regions() {
            let count = execute(&db, &Query::range_count("adult", "age", lo, hi))
                .unwrap()
                .scalar()
                .unwrap();
            assert!(count <= 200.0, "region [{lo},{hi}] has count {count}");
        }
        assert!(!task.found_regions().is_empty());
    }

    #[test]
    fn rejection_abandons_the_branch() {
        let db = adult_database(1_000, 2);
        let mut task = BfsTask::new(&db, BfsConfig::new("adult", "age", 10.0)).unwrap();
        let first = task.next_request().unwrap();
        assert_eq!(first.query.table, "adult");
        task.report_rejection();
        // The root was abandoned, nothing else to explore.
        assert!(task.next_request().is_none());
        assert!(task.is_done());
    }

    #[test]
    fn query_cap_is_respected() {
        let db = adult_database(5_000, 3);
        let mut config = BfsConfig::new("adult", "age", 0.0);
        config.max_queries = 5;
        let mut task = BfsTask::new(&db, config).unwrap();
        let mut count = 0;
        while let Some(_request) = task.next_request() {
            count += 1;
            // Always descend (report a huge count).
            task.report_answer(1e9);
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn categorical_attribute_is_rejected() {
        let db = adult_database(100, 4);
        assert!(BfsTask::new(&db, BfsConfig::new("adult", "sex", 10.0)).is_err());
    }
}
