//! Declared workloads: query templates with relative frequencies.
//!
//! A [`DeclaredWorkload`] is the planner's input — the analyst population
//! announces *what it intends to ask* (templates) and *how often* (weights)
//! before any budget is spent, so the system can decide which views and
//! synopses to materialise at which granularity. Declaring a workload never
//! charges budget and never constrains later submissions: it is advisory
//! input to planning, nothing more.

use dprov_engine::group::GroupByQuery;
use dprov_engine::query::Query;

/// One query template with a relative frequency.
///
/// A template whose `group_by` field is non-empty is a *grouped* template:
/// it stands for one admission per group cell (see
/// [`GroupByQuery::scalar_queries`]), which is exactly how the planner
/// prices it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    /// The template query (scalar when `group_by` is empty).
    pub query: Query,
    /// Relative frequency of the template within the workload. Only ratios
    /// matter; weights need not sum to one.
    pub weight: f64,
}

impl QueryTemplate {
    /// The grouped form of the template, when it has grouping attributes.
    #[must_use]
    pub fn grouped(&self) -> Option<GroupByQuery> {
        if self.query.group_by.is_empty() {
            return None;
        }
        Some(GroupByQuery {
            table: self.query.table.clone(),
            group_cols: self.query.group_by.clone(),
            aggregate: self.query.aggregate.clone(),
            predicate: self.query.predicate.clone(),
        })
    }
}

/// A declared workload: templates plus frequencies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeclaredWorkload {
    /// The templates, in declaration order.
    pub templates: Vec<QueryTemplate>,
}

impl DeclaredWorkload {
    /// An empty declaration.
    #[must_use]
    pub fn new() -> Self {
        DeclaredWorkload::default()
    }

    /// Adds a template (builder style).
    #[must_use]
    pub fn template(mut self, query: Query, weight: f64) -> Self {
        self.templates.push(QueryTemplate { query, weight });
        self
    }

    /// Sum of the template weights.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.templates.iter().map(|t| t.weight).sum()
    }

    /// The share of the workload a template represents (uniform when every
    /// weight is zero).
    #[must_use]
    pub fn share(&self, index: usize) -> f64 {
        let total = self.total_weight();
        if total <= 0.0 {
            if self.templates.is_empty() {
                0.0
            } else {
                1.0 / self.templates.len() as f64
            }
        } else {
            self.templates[index].weight / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_templates_convert() {
        let w = DeclaredWorkload::new()
            .template(Query::count("sales_wide").group_by(&["store.region"]), 3.0)
            .template(Query::count("sales_wide"), 1.0);
        assert_eq!(w.templates.len(), 2);
        let g = w.templates[0].grouped().unwrap();
        assert_eq!(g.group_cols, vec!["store.region".to_owned()]);
        assert!(w.templates[1].grouped().is_none());
        assert!((w.share(0) - 0.75).abs() < 1e-12);
        assert!((w.share(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_fall_back_to_uniform_shares() {
        let w = DeclaredWorkload::new()
            .template(Query::count("t"), 0.0)
            .template(Query::count("t"), 0.0);
        assert!((w.share(0) - 0.5).abs() < 1e-12);
        assert_eq!(DeclaredWorkload::new().total_weight(), 0.0);
    }
}
