//! Query answerability and transformation (Definition 6).
//!
//! A query `q` is *answerable* over a histogram view `V` when there exists a
//! linear query `q̂` over the view's cells with `q(D) = q̂(V(D))`. For the
//! query class supported here the transformation is syntactic:
//!
//! * every attribute the query references must be covered by the view;
//! * `COUNT(*) WHERE P` becomes a 0/1 coefficient vector selecting the cells
//!   whose domain values satisfy `P`;
//! * `SUM(a) WHERE P` additionally multiplies each selected cell by the
//!   numeric value of `a` in that cell;
//! * `AVG` and `GROUP BY` are not answerable as a *single* linear query and
//!   are decomposed by the system layer (AVG = SUM / COUNT), so `transform`
//!   returns `None` for them.

use crate::database::Database;
use crate::query::{AggregateKind, Query};
use crate::schema::Schema;
use crate::view::{flat_index, MultiIndexIter, ViewDef};
use crate::Result;

/// A linear query over a view's histogram cells: a sparse coefficient
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearQuery {
    /// The view the coefficients are defined over.
    pub view: String,
    /// `(flat cell index, coefficient)` pairs, sorted by cell index.
    pub coefficients: Vec<(usize, f64)>,
    /// Total number of cells of the view (the dense dimension).
    pub view_cells: usize,
}

impl LinearQuery {
    /// Number of cells with non-zero coefficient — the `bins touched` factor
    /// used when translating a query-level accuracy bound into a per-bin
    /// bound (Algorithm 2, line 9).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn bins_touched(&self) -> usize {
        self.coefficients.len()
    }

    /// Evaluates the linear query against a dense cell-count vector.
    #[must_use]
    pub(crate) fn evaluate(&self, counts: &[f64]) -> f64 {
        self.coefficients
            .iter()
            .map(|&(idx, coeff)| coeff * counts[idx])
            .sum()
    }

    /// The variance of the linear query's answer when every cell carries
    /// independent noise of variance `per_bin_variance`.
    #[must_use]
    pub fn answer_variance(&self, per_bin_variance: f64) -> f64 {
        let coeff_sq: f64 = self.coefficients.iter().map(|&(_, c)| c * c).sum();
        coeff_sq * per_bin_variance
    }
}

/// Attempts to rewrite `query` into a linear query over `view`.
///
/// Returns `Ok(None)` when the query is well formed but not answerable over
/// this particular view (wrong table, uncovered attribute, or an aggregate
/// shape that needs decomposition).
pub(crate) fn transform(
    query: &Query,
    view: &ViewDef,
    schema: &Schema,
) -> Result<Option<LinearQuery>> {
    if query.table != view.table {
        return Ok(None);
    }
    if !query.group_by.is_empty() {
        return Ok(None);
    }
    if matches!(query.aggregate, AggregateKind::Avg(_)) {
        return Ok(None);
    }
    if !view.covers(&query.referenced_attributes()) {
        return Ok(None);
    }

    let attrs: Vec<_> = view
        .attributes
        .iter()
        .map(|a| schema.attribute(a))
        .collect::<Result<Vec<_>>>()?;
    let dims = view.dimensions(schema)?;
    let sum_position = match &query.aggregate {
        AggregateKind::Count => None,
        AggregateKind::Sum(a) => Some(
            view.attributes
                .iter()
                .position(|v| v == a)
                .expect("covered attribute"),
        ),
        AggregateKind::Avg(_) => unreachable!("handled above"),
    };

    let mut coefficients = Vec::new();
    for cell in MultiIndexIter::new(&dims) {
        if !query.predicate.matches_cell(&attrs, &cell) {
            continue;
        }
        let coeff = match sum_position {
            None => 1.0,
            Some(pos) => match attrs[pos].numeric_at(cell[pos]) {
                Some(v) => v,
                // SUM over a categorical attribute is not answerable.
                None => return Ok(None),
            },
        };
        if coeff != 0.0 {
            coefficients.push((flat_index(&dims, &cell), coeff));
        }
    }

    Ok(Some(LinearQuery {
        view: view.name.clone(),
        coefficients,
        view_cells: dims.iter().product(),
    }))
}

/// Convenience wrapper resolving the schema through the database.
pub(crate) fn transform_in(
    query: &Query,
    view: &ViewDef,
    db: &Database,
) -> Result<Option<LinearQuery>> {
    let table = db.table(&view.table)?;
    transform(query, view, table.schema())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::expr::Predicate;
    use crate::histogram::Histogram;
    use crate::schema::{Attribute, AttributeType, Schema};
    use crate::table::Table;
    use crate::value::Value;

    fn db() -> Database {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(20, 29)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
            Attribute::new("hours", AttributeType::integer(1, 10)),
        ]);
        let mut t = Table::new("adult", schema);
        let rows = [
            (20, "F", 5),
            (22, "M", 8),
            (25, "F", 3),
            (25, "M", 10),
            (29, "F", 7),
            (23, "F", 2),
        ];
        for (age, sex, hours) in rows {
            t.insert_row(&[Value::Int(age), Value::text(sex), Value::Int(hours)])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    fn answer_via_view(q: &Query, view: &ViewDef, db: &Database) -> Option<f64> {
        let lq = transform_in(q, view, db).unwrap()?;
        let h = Histogram::materialize(db, view).unwrap();
        Some(lq.evaluate(&h.counts))
    }

    #[test]
    fn range_count_matches_direct_execution() {
        let db = db();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let q = Query::range_count("adult", "age", 22, 26);
        let via_view = answer_via_view(&q, &view, &db).unwrap();
        let direct = execute(&db, &q).unwrap().scalar().unwrap();
        assert_eq!(via_view, direct);
        assert_eq!(via_view, 4.0);
    }

    #[test]
    fn multi_attribute_predicate_over_two_way_view() {
        let db = db();
        let view = ViewDef::histogram("v_age_sex", "adult", &["age", "sex"]);
        let q = Query::count("adult")
            .filter(Predicate::range("age", 20, 25))
            .filter(Predicate::equals("sex", "F"));
        let via_view = answer_via_view(&q, &view, &db).unwrap();
        let direct = execute(&db, &q).unwrap().scalar().unwrap();
        assert_eq!(via_view, direct);
        assert_eq!(via_view, 3.0);
    }

    #[test]
    fn sum_query_uses_value_coefficients() {
        let db = db();
        let view = ViewDef::histogram("v_hours", "adult", &["hours"]);
        let q = Query::sum("adult", "hours");
        let via_view = answer_via_view(&q, &view, &db).unwrap();
        let direct = execute(&db, &q).unwrap().scalar().unwrap();
        assert_eq!(via_view, direct);
        assert_eq!(via_view, 35.0);
    }

    #[test]
    fn uncovered_attribute_makes_query_unanswerable() {
        let db = db();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let q = Query::count("adult").filter(Predicate::equals("sex", "F"));
        assert!(transform_in(&q, &view, &db).unwrap().is_none());
    }

    #[test]
    fn wrong_table_group_by_and_avg_are_not_single_linear_queries() {
        let db = db();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let other_table = Query::count("tpch");
        assert!(transform_in(&other_table, &view, &db).is_ok());
        assert!(transform_in(&other_table, &view, &db).unwrap().is_none());

        let grouped = Query::count("adult").group_by(&["age"]);
        assert!(transform_in(&grouped, &view, &db).unwrap().is_none());

        let avg = Query::avg("adult", "age");
        assert!(transform_in(&avg, &view, &db).unwrap().is_none());
    }

    #[test]
    fn bins_touched_and_variance_propagation() {
        let db = db();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let q = Query::range_count("adult", "age", 22, 26);
        let lq = transform_in(&q, &view, &db).unwrap().unwrap();
        assert_eq!(lq.bins_touched(), 5);
        // Unit coefficients: query variance = bins * per-bin variance.
        assert_eq!(lq.answer_variance(2.0), 10.0);
        assert_eq!(lq.view_cells, 10);
    }

    #[test]
    fn full_count_touches_every_bin() {
        let db = db();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let lq = transform_in(&Query::count("adult"), &view, &db)
            .unwrap()
            .unwrap();
        assert_eq!(lq.bins_touched(), 10);
        let h = Histogram::materialize(&db, &view).unwrap();
        assert_eq!(lq.evaluate(&h.counts), 6.0);
    }
}
