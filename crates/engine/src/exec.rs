//! Exact (non-private) query evaluation.
//!
//! Used in three places: to materialise histogram views, to compute the
//! ground truth for the relative-error experiment (Fig. 9b), and in tests
//! that validate the view-based answering path against direct evaluation.

use crate::database::Database;
use crate::query::{AggregateKind, Query};
use crate::table::Table;
use crate::value::Value;
use crate::{EngineError, Result};

/// The result of exact query evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// One entry per output row: the group key (empty for scalar queries)
    /// and the aggregate value.
    pub(crate) rows: Vec<(Vec<Value>, f64)>,
}

impl QueryResult {
    /// The scalar value of a non-grouped query.
    #[must_use]
    pub fn scalar(&self) -> Option<f64> {
        if self.rows.len() == 1 && self.rows[0].0.is_empty() {
            Some(self.rows[0].1)
        } else {
            None
        }
    }
}

/// Evaluates a query exactly against the database.
pub fn execute(db: &Database, query: &Query) -> Result<QueryResult> {
    let table = db.table(&query.table)?;
    validate(table, query)?;

    if query.group_by.is_empty() {
        let value = aggregate_rows(table, query, None)?;
        return Ok(QueryResult {
            rows: vec![(Vec::new(), value)],
        });
    }

    // GROUP BY evaluation over the full cross-product of the grouping
    // attributes' domains ("GROUP BY*" semantics, Appendix D): every domain
    // combination appears in the output, including empty groups, so the
    // output shape is data-independent.
    let positions: Vec<usize> = query
        .group_by
        .iter()
        .map(|g| table.schema().position(g))
        .collect::<Result<_>>()?;
    let sizes: Vec<usize> = positions
        .iter()
        .map(|&p| table.schema().attributes()[p].domain_size())
        .collect();

    let mut rows = Vec::new();
    let mut indices = vec![0usize; positions.len()];
    loop {
        let key: Vec<Value> = positions
            .iter()
            .zip(&indices)
            .map(|(&p, &i)| table.schema().attributes()[p].value_at(i))
            .collect();
        let value = aggregate_rows(table, query, Some((&positions, &indices)))?;
        rows.push((key, value));

        // Advance the multi-index.
        let mut dim = indices.len();
        loop {
            if dim == 0 {
                return Ok(QueryResult { rows });
            }
            dim -= 1;
            indices[dim] += 1;
            if indices[dim] < sizes[dim] {
                break;
            }
            indices[dim] = 0;
        }
    }
}

fn validate(table: &Table, query: &Query) -> Result<()> {
    for attr in query.referenced_attributes() {
        table.schema().position(&attr)?;
    }
    if let Some(target) = query.aggregate.target_attribute() {
        if !table.schema().attribute(target)?.attr_type.is_numeric() {
            return Err(EngineError::InvalidQuery(format!(
                "aggregate over non-numeric attribute {target}"
            )));
        }
    }
    Ok(())
}

fn aggregate_rows(
    table: &Table,
    query: &Query,
    group: Option<(&[usize], &[usize])>,
) -> Result<f64> {
    let mut count = 0.0f64;
    let mut sum = 0.0f64;
    let target_pos = match query.aggregate.target_attribute() {
        Some(a) => Some(table.schema().position(a)?),
        None => None,
    };

    for row in 0..table.num_rows() {
        if let Some((positions, indices)) = group {
            let in_group = positions
                .iter()
                .zip(indices)
                .all(|(&p, &i)| table.column_at(p)[row] as usize == i);
            if !in_group {
                continue;
            }
        }
        if !query.predicate.evaluate_row(table, row)? {
            continue;
        }
        count += 1.0;
        if let Some(pos) = target_pos {
            let attr = &table.schema().attributes()[pos];
            let idx = table.column_at(pos)[row] as usize;
            sum += attr.numeric_at(idx).unwrap_or(0.0);
        }
    }

    Ok(match &query.aggregate {
        AggregateKind::Count => count,
        AggregateKind::Sum(_) => sum,
        AggregateKind::Avg(_) => {
            if count == 0.0 {
                0.0
            } else {
                sum / count
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Predicate;
    use crate::schema::{Attribute, AttributeType, Schema};

    fn db() -> Database {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(17, 90)),
            Attribute::new("sex", AttributeType::categorical(&["Female", "Male"])),
            Attribute::new("hours", AttributeType::integer(1, 99)),
        ]);
        let mut t = Table::new("adult", schema);
        let rows = [
            (25, "Male", 40),
            (31, "Female", 38),
            (47, "Female", 50),
            (62, "Male", 20),
            (25, "Female", 45),
        ];
        for (age, sex, hours) in rows {
            t.insert_row(&[Value::Int(age), Value::text(sex), Value::Int(hours)])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    #[test]
    fn count_all() {
        let r = execute(&db(), &Query::count("adult")).unwrap();
        assert_eq!(r.scalar(), Some(5.0));
    }

    #[test]
    fn range_count() {
        let q = Query::range_count("adult", "age", 20, 35);
        assert_eq!(execute(&db(), &q).unwrap().scalar(), Some(3.0));
    }

    #[test]
    fn predicate_conjunction() {
        let q = Query::count("adult")
            .filter(Predicate::range("age", 20, 35))
            .filter(Predicate::equals("sex", "Female"));
        assert_eq!(execute(&db(), &q).unwrap().scalar(), Some(2.0));
    }

    #[test]
    fn sum_and_avg() {
        let q = Query::sum("adult", "hours").filter(Predicate::equals("sex", "Male"));
        assert_eq!(execute(&db(), &q).unwrap().scalar(), Some(60.0));
        let q = Query::avg("adult", "hours").filter(Predicate::equals("sex", "Male"));
        assert_eq!(execute(&db(), &q).unwrap().scalar(), Some(30.0));
    }

    #[test]
    fn avg_of_empty_selection_is_zero() {
        let q = Query::avg("adult", "hours").filter(Predicate::range("age", 80, 90));
        assert_eq!(execute(&db(), &q).unwrap().scalar(), Some(0.0));
    }

    #[test]
    fn group_by_covers_full_domain() {
        let q = Query::count("adult").group_by(&["sex"]);
        let r = execute(&db(), &q).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0, vec![Value::text("Female")]);
        assert_eq!(r.rows[0].1, 3.0);
        assert_eq!(r.rows[1].1, 2.0);
        assert!(r.scalar().is_none());
    }

    #[test]
    fn group_by_includes_empty_groups() {
        // Grouping by age yields 74 output rows even though only 4 distinct
        // ages are present — the output shape is data-independent.
        let q = Query::count("adult").group_by(&["age"]);
        let r = execute(&db(), &q).unwrap();
        assert_eq!(r.rows.len(), 74);
        let total: f64 = r.rows.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 5.0);
    }

    #[test]
    fn sum_over_categorical_is_rejected() {
        let q = Query::sum("adult", "sex");
        assert!(matches!(
            execute(&db(), &q),
            Err(EngineError::InvalidQuery(_))
        ));
    }

    #[test]
    fn unknown_table_and_attribute_error() {
        assert!(execute(&db(), &Query::count("nope")).is_err());
        let q = Query::count("adult").filter(Predicate::range("salary", 0, 1));
        assert!(execute(&db(), &q).is_err());
    }
}
