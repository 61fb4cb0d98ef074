//! The aggregate query AST.
//!
//! DProvDB answers *statistical* queries: COUNT, SUM and AVG aggregates over
//! a single relation with a selection predicate and an optional GROUP BY.
//! This is the same query class PINQ / Chorus / PrivateSQL evaluate in the
//! paper's experiments (randomized range queries and BFS exploration
//! counts).

use crate::expr::Predicate;

/// The aggregate being computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateKind {
    /// `COUNT(*)`.
    Count,
    /// `SUM(attribute)` over an integer attribute.
    Sum(String),
    /// `AVG(attribute)` over an integer attribute (answered as SUM/COUNT).
    Avg(String),
}

impl AggregateKind {
    /// The attribute the aggregate reads, if any.
    #[must_use]
    pub(crate) fn target_attribute(&self) -> Option<&str> {
        match self {
            AggregateKind::Count => None,
            AggregateKind::Sum(a) | AggregateKind::Avg(a) => Some(a),
        }
    }
}

/// An aggregate query over one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The relation being queried.
    pub table: String,
    /// The aggregate to compute.
    pub aggregate: AggregateKind,
    /// The selection predicate (`Predicate::True` for no WHERE clause).
    pub predicate: Predicate,
    /// GROUP BY attributes (empty for a scalar query).
    pub group_by: Vec<String>,
}

impl Query {
    /// A `COUNT(*)` query with no predicate.
    #[must_use]
    pub fn count(table: &str) -> Self {
        Query {
            table: table.to_owned(),
            aggregate: AggregateKind::Count,
            predicate: Predicate::True,
            group_by: Vec::new(),
        }
    }

    /// A `SUM(attribute)` query with no predicate.
    #[must_use]
    pub fn sum(table: &str, attribute: &str) -> Self {
        Query {
            table: table.to_owned(),
            aggregate: AggregateKind::Sum(attribute.to_owned()),
            predicate: Predicate::True,
            group_by: Vec::new(),
        }
    }

    /// A `AVG(attribute)` query with no predicate.
    #[must_use]
    pub fn avg(table: &str, attribute: &str) -> Self {
        Query {
            table: table.to_owned(),
            aggregate: AggregateKind::Avg(attribute.to_owned()),
            predicate: Predicate::True,
            group_by: Vec::new(),
        }
    }

    /// A range-count query `COUNT(*) WHERE attr BETWEEN low AND high`, the
    /// shape used by the RRQ and BFS workloads.
    #[must_use]
    pub fn range_count(table: &str, attribute: &str, low: i64, high: i64) -> Self {
        Query::count(table).filter(Predicate::range(attribute, low, high))
    }

    /// Adds (conjoins) a predicate.
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = std::mem::replace(&mut self.predicate, Predicate::True).and(predicate);
        self
    }

    /// Adds GROUP BY attributes.
    #[must_use]
    pub fn group_by<S: AsRef<str>>(mut self, attributes: &[S]) -> Self {
        self.group_by = attributes.iter().map(|s| s.as_ref().to_owned()).collect();
        self
    }

    /// All attributes the query touches (predicate + aggregate target +
    /// group-by), used for view selection.
    #[must_use]
    pub fn referenced_attributes(&self) -> Vec<String> {
        let mut attrs: Vec<String> = self.predicate.attributes().into_iter().collect();
        if let Some(a) = self.aggregate.target_attribute() {
            if !attrs.iter().any(|x| x == a) {
                attrs.push(a.to_owned());
            }
        }
        for g in &self.group_by {
            if !attrs.iter().any(|x| x == g) {
                attrs.push(g.clone());
            }
        }
        attrs
    }

    /// A short human-readable rendering used in error messages and logs.
    #[must_use]
    pub fn describe(&self) -> String {
        let agg = match &self.aggregate {
            AggregateKind::Count => "COUNT(*)".to_owned(),
            AggregateKind::Sum(a) => format!("SUM({a})"),
            AggregateKind::Avg(a) => format!("AVG({a})"),
        };
        let group = if self.group_by.is_empty() {
            String::new()
        } else {
            format!(" GROUP BY {}", self.group_by.join(", "))
        };
        format!("{agg} FROM {}{group}", self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let q =
            Query::range_count("adult", "age", 20, 29).filter(Predicate::equals("sex", "Female"));
        assert_eq!(q.table, "adult");
        assert_eq!(q.aggregate, AggregateKind::Count);
        let attrs = q.referenced_attributes();
        assert!(attrs.contains(&"age".to_owned()) && attrs.contains(&"sex".to_owned()));
    }

    #[test]
    fn referenced_attributes_include_aggregate_and_group_by() {
        let q = Query::sum("adult", "hours_per_week")
            .filter(Predicate::range("age", 30, 40))
            .group_by(&["education"]);
        let attrs = q.referenced_attributes();
        assert_eq!(
            attrs,
            vec![
                "age".to_owned(),
                "hours_per_week".to_owned(),
                "education".to_owned()
            ]
        );
    }

    #[test]
    fn describe_is_readable() {
        let q = Query::count("adult").group_by(&["sex"]);
        assert_eq!(q.describe(), "COUNT(*) FROM adult GROUP BY sex");
        assert_eq!(Query::avg("t", "x").describe(), "AVG(x) FROM t");
    }

    #[test]
    fn aggregate_target_attribute() {
        assert_eq!(AggregateKind::Count.target_attribute(), None);
        assert_eq!(AggregateKind::Sum("x".into()).target_attribute(), Some("x"));
    }
}
