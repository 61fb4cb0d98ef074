//! GROUP BY queries over view attributes.
//!
//! The full-domain histogram views the system materialises *are* group-bys:
//! a histogram over `(a, b)` holds one exact cell per `(a, b)` domain
//! combination. [`GroupByQuery`] exposes that structure to analysts: it asks
//! for one aggregate per combination of the grouping attributes' domains
//! ("GROUP BY*" semantics — every combination appears in the output,
//! including empty groups, so the output shape is data-independent and safe
//! to release under DP).
//!
//! The contract that makes grouped answering auditable is the **oracle
//! decomposition**: a `GroupByQuery` is *defined* as the sequence of scalar
//! queries produced by [`GroupByQuery::scalar_queries`], one per group cell
//! in canonical enumeration order ([`MultiIndexIter`] — row-major, last
//! grouping attribute fastest). Any optimised evaluation path (one-pass
//! histogram reads, grouped gathers over domain maps) must produce answers
//! bit-identical to running those scalar queries one by one.

use crate::expr::Predicate;
use crate::query::{AggregateKind, Query};
use crate::schema::{Attribute, Schema};
use crate::value::Value;
use crate::view::{for_each_cell, MultiIndexIter};
use crate::{EngineError, Result};

/// The most group cells one GROUP BY may ask for: the largest count whose
/// reply fits one wire frame (`dprov_api::frame::MAX_FRAME_LEN`, 16 MiB)
/// even with every cell in its smallest encoding (an empty one-value key
/// plus a payload-free rejection, 11 B) inside the largest reply envelope
/// (a multiplexed grouped answer, 40 B). `dprov-api` pins the arithmetic.
/// [`GroupByQuery::num_groups`] refuses anything larger before a single
/// key is enumerated.
pub const MAX_GROUP_CELLS: usize = ((1 << 24) - 40) / 11;

/// An aggregate query grouped by one or more finite-domain attributes.
///
/// Unlike [`Query`]'s `group_by` field (used only for exact evaluation in
/// [`crate::exec`]), a `GroupByQuery` is the admission-facing form: each
/// group cell is priced and released individually through the normal
/// budget path, in the canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByQuery {
    /// The relation being queried.
    pub table: String,
    /// Grouping attributes, in output-ordering significance (first is the
    /// slowest-varying dimension of the canonical enumeration).
    pub group_cols: Vec<String>,
    /// The aggregate computed per group.
    pub aggregate: AggregateKind,
    /// Selection predicate applied before grouping.
    pub predicate: Predicate,
}

impl GroupByQuery {
    /// A grouped `COUNT(*)`.
    #[must_use]
    pub fn count<S: AsRef<str>>(table: &str, group_cols: &[S]) -> Self {
        GroupByQuery {
            table: table.to_owned(),
            group_cols: group_cols.iter().map(|s| s.as_ref().to_owned()).collect(),
            aggregate: AggregateKind::Count,
            predicate: Predicate::True,
        }
    }

    /// A grouped `SUM(attribute)`.
    #[must_use]
    pub fn sum<S: AsRef<str>>(table: &str, attribute: &str, group_cols: &[S]) -> Self {
        GroupByQuery {
            table: table.to_owned(),
            group_cols: group_cols.iter().map(|s| s.as_ref().to_owned()).collect(),
            aggregate: AggregateKind::Sum(attribute.to_owned()),
            predicate: Predicate::True,
        }
    }

    /// Adds (conjoins) a predicate.
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = std::mem::replace(&mut self.predicate, Predicate::True).and(predicate);
        self
    }

    /// Validates the grouping columns against a schema and returns their
    /// positions. Grouping must be over at least one attribute and no
    /// attribute may repeat.
    pub fn group_positions(&self, schema: &Schema) -> Result<Vec<usize>> {
        if self.group_cols.is_empty() {
            return Err(EngineError::InvalidQuery(
                "GROUP BY requires at least one grouping attribute".to_owned(),
            ));
        }
        let mut positions = Vec::with_capacity(self.group_cols.len());
        for (i, col) in self.group_cols.iter().enumerate() {
            if self.group_cols[..i].contains(col) {
                return Err(EngineError::InvalidQuery(format!(
                    "duplicate grouping attribute {col}"
                )));
            }
            positions.push(schema.position(col)?);
        }
        Ok(positions)
    }

    /// Domain sizes of the grouping attributes, in `group_cols` order.
    pub(crate) fn group_sizes(&self, schema: &Schema) -> Result<Vec<usize>> {
        Ok(self
            .group_positions(schema)?
            .into_iter()
            .map(|p| schema.attributes()[p].domain_size())
            .collect())
    }

    /// Number of group cells (product of the grouping domains); a product
    /// above [`MAX_GROUP_CELLS`] (or past `usize`) is an invalid query.
    pub fn num_groups(&self, schema: &Schema) -> Result<usize> {
        self.group_sizes(schema)?
            .iter()
            .try_fold(1usize, |n, &size| n.checked_mul(size))
            .filter(|&n| n <= MAX_GROUP_CELLS)
            .ok_or_else(|| {
                EngineError::InvalidQuery(format!(
                    "GROUP BY {} asks for more than {MAX_GROUP_CELLS} group cells",
                    self.group_cols.join(", ")
                ))
            })
    }

    /// Group keys in canonical enumeration order (row-major over the
    /// grouping domains, last attribute fastest).
    pub fn group_keys(&self, schema: &Schema) -> Result<Vec<Vec<Value>>> {
        let num_groups = self.num_groups(schema)?;
        let attrs: Vec<&Attribute> = self
            .group_positions(schema)?
            .into_iter()
            .map(|p| &schema.attributes()[p])
            .collect();
        let sizes: Vec<usize> = attrs.iter().map(|a| a.domain_size()).collect();
        let mut keys = Vec::with_capacity(num_groups);
        for_each_cell(&sizes, |_, cell| {
            keys.push(
                attrs
                    .iter()
                    .zip(cell)
                    .map(|(a, &i)| a.value_at(i))
                    .collect(),
            );
        });
        Ok(keys)
    }

    /// The scalar query that defines one group cell: the base predicate
    /// conjoined with an equality selection per grouping attribute.
    ///
    /// `indices` are domain indices into the grouping attributes, in
    /// `group_cols` order. This is the *oracle*: grouped answering is
    /// correct iff it is bit-identical to running these queries one by one.
    pub fn group_query(&self, schema: &Schema, indices: &[usize]) -> Result<Query> {
        if indices.len() != self.group_cols.len() {
            return Err(EngineError::InvalidQuery(format!(
                "group index arity mismatch: {} grouping attributes, {} indices",
                self.group_cols.len(),
                indices.len()
            )));
        }
        let mut query = Query {
            table: self.table.clone(),
            aggregate: self.aggregate.clone(),
            predicate: self.predicate.clone(),
            group_by: Vec::new(),
        };
        for (col, &idx) in self.group_cols.iter().zip(indices) {
            let attr = schema.attribute(col)?;
            if idx >= attr.domain_size() {
                return Err(EngineError::ValueOutOfDomain {
                    attribute: col.clone(),
                    value: format!("domain index {idx}"),
                });
            }
            query = query.filter(Predicate::equals(col, attr.value_at(idx)));
        }
        Ok(query)
    }

    /// All per-group scalar queries in canonical enumeration order.
    pub fn scalar_queries(&self, schema: &Schema) -> Result<Vec<Query>> {
        self.num_groups(schema)?;
        let sizes = self.group_sizes(schema)?;
        MultiIndexIter::new(&sizes)
            .map(|cell| self.group_query(schema, &cell))
            .collect()
    }

    /// The equivalent grouped [`Query`] for exact evaluation via
    /// [`crate::exec::execute`], whose output rows follow the same
    /// canonical order.
    #[must_use]
    pub fn as_grouped_query(&self) -> Query {
        Query {
            table: self.table.clone(),
            aggregate: self.aggregate.clone(),
            predicate: self.predicate.clone(),
            group_by: self.group_cols.clone(),
        }
    }

    /// All attributes the query touches (predicate + aggregate target +
    /// grouping), used for view selection and micro-batch keying.
    #[must_use]
    pub fn referenced_attributes(&self) -> Vec<String> {
        self.as_grouped_query().referenced_attributes()
    }

    /// A short human-readable rendering.
    #[must_use]
    pub fn describe(&self) -> String {
        self.as_grouped_query().describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::exec::execute;
    use crate::schema::{Attribute, AttributeType};
    use crate::table::Table;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("age", AttributeType::integer(17, 20)),
            Attribute::new("sex", AttributeType::categorical(&["Female", "Male"])),
            Attribute::new("hours", AttributeType::integer(1, 3)),
        ])
    }

    fn db() -> Database {
        let mut t = Table::new("adult", schema());
        for (age, sex, hours) in [
            (17, "Male", 1),
            (18, "Female", 2),
            (18, "Male", 3),
            (20, "Female", 1),
        ] {
            t.insert_row(&[Value::Int(age), Value::text(sex), Value::Int(hours)])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    #[test]
    fn canonical_order_is_row_major_last_fastest() {
        let q = GroupByQuery::count("adult", &["age", "sex"]);
        let keys = q.group_keys(&schema()).unwrap();
        assert_eq!(keys.len(), 8);
        assert_eq!(keys[0], vec![Value::Int(17), Value::text("Female")]);
        assert_eq!(keys[1], vec![Value::Int(17), Value::text("Male")]);
        assert_eq!(keys[2], vec![Value::Int(18), Value::text("Female")]);
        assert_eq!(keys[7], vec![Value::Int(20), Value::text("Male")]);
    }

    #[test]
    fn scalar_queries_match_grouped_execute() {
        let db = db();
        let q = GroupByQuery::count("adult", &["sex"]).filter(Predicate::range("age", 17, 18));
        let grouped = execute(&db, &q.as_grouped_query()).unwrap();
        let scalars = q.scalar_queries(&schema()).unwrap();
        assert_eq!(grouped.rows.len(), scalars.len());
        for (row, scalar) in grouped.rows.iter().zip(&scalars) {
            let direct = execute(&db, scalar).unwrap().scalar().unwrap();
            assert_eq!(row.1, direct);
        }
    }

    #[test]
    fn sum_decomposition_matches() {
        let db = db();
        let q = GroupByQuery::sum("adult", "hours", &["age"]);
        let grouped = execute(&db, &q.as_grouped_query()).unwrap();
        for (cell, scalar) in q.scalar_queries(&schema()).unwrap().iter().enumerate() {
            let direct = execute(&db, scalar).unwrap().scalar().unwrap();
            assert_eq!(grouped.rows[cell].1, direct);
        }
    }

    #[test]
    fn validation_rejects_bad_grouping() {
        let s = schema();
        assert!(matches!(
            GroupByQuery::count("adult", &[] as &[&str]).group_positions(&s),
            Err(EngineError::InvalidQuery(_))
        ));
        assert!(matches!(
            GroupByQuery::count("adult", &["sex", "sex"]).group_positions(&s),
            Err(EngineError::InvalidQuery(_))
        ));
        assert!(matches!(
            GroupByQuery::count("adult", &["salary"]).group_positions(&s),
            Err(EngineError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn oversized_groupings_are_refused_before_enumeration() {
        let max = MAX_GROUP_CELLS as i64;
        let wide = Schema::new(vec![
            Attribute::new("at_cap", AttributeType::integer(1, max)),
            Attribute::new("past_cap", AttributeType::integer(0, max)),
            Attribute::new("huge", AttributeType::integer(0, 1 << 40)),
            Attribute::new("huge2", AttributeType::integer(0, 1 << 40)),
        ]);
        let at_cap = GroupByQuery::count("t", &["at_cap"]);
        assert_eq!(at_cap.num_groups(&wide).unwrap(), MAX_GROUP_CELLS);
        // One cell past the cap, and a product past `usize`: refused by
        // every enumerator, without allocating a key.
        for cols in [&["past_cap"][..], &["huge", "huge2", "at_cap"]] {
            let q = GroupByQuery::count("t", cols);
            assert!(matches!(
                q.num_groups(&wide),
                Err(EngineError::InvalidQuery(_))
            ));
            assert!(matches!(
                q.group_keys(&wide),
                Err(EngineError::InvalidQuery(_))
            ));
            assert!(matches!(
                q.scalar_queries(&wide),
                Err(EngineError::InvalidQuery(_))
            ));
        }
    }

    #[test]
    fn group_query_bounds_checked() {
        let q = GroupByQuery::count("adult", &["sex"]);
        assert!(q.group_query(&schema(), &[2]).is_err());
        assert!(q.group_query(&schema(), &[0, 0]).is_err());
    }

    #[test]
    fn describe_and_attrs() {
        let q = GroupByQuery::count("adult", &["sex"]).filter(Predicate::range("age", 20, 30));
        assert_eq!(q.describe(), "COUNT(*) FROM adult GROUP BY sex");
        let attrs = q.referenced_attributes();
        assert!(attrs.contains(&"age".to_owned()) && attrs.contains(&"sex".to_owned()));
    }
}
