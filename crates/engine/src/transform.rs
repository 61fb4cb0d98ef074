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
//!   are decomposed by the system layer (AVG = SUM / COUNT), so no view is a
//!   candidate for them.
//!
//! The catalog ([`crate::catalog`]) decides which views are candidates and
//! in what order; this module walks one view's cells in place.

use crate::expr::Predicate;
use crate::query::{AggregateKind, Query};
use crate::schema::{Attribute, Schema};
use crate::view::{for_each_cell, ViewDef};
use crate::Result;

/// A linear query over a view's histogram cells: a sparse coefficient
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearQuery {
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

/// Walks `view`'s cells once, in place and in ascending flat order, and
/// hands each cell `predicate` selects to `visit` as `(flat index, cell,
/// coefficient)`: 1 under COUNT, the cell's value of the target attribute
/// under SUM; a zero coefficient is skipped. This is the one coefficient
/// rule: scalar selection ([`crate::catalog::ViewCatalog::select`])
/// collects the visits into a [`LinearQuery`], and the grouped resolution
/// in `dprov-core` routes each to its group.
///
/// Returns the view's cell count, or `Ok(None)` when the aggregate has no
/// linear form over the view: AVG (decomposed by the system layer), or SUM
/// over a categorical attribute with at least one selected cell — then
/// nothing was visited, since such a SUM fails on its first selected cell.
/// The view must cover every attribute `predicate` and `aggregate` read.
pub fn for_each_coefficient(
    predicate: &Predicate,
    aggregate: &AggregateKind,
    view: &ViewDef,
    schema: &Schema,
    mut visit: impl FnMut(usize, &[usize], f64),
) -> Result<Option<usize>> {
    let attrs: Vec<&Attribute> = view
        .attributes
        .iter()
        .map(|a| schema.attribute(a))
        .collect::<Result<_>>()?;
    let dims: Vec<usize> = attrs.iter().map(|a| a.domain_size()).collect();
    let sum_position = match aggregate {
        AggregateKind::Count => None,
        AggregateKind::Sum(a) => Some(
            view.attributes
                .iter()
                .position(|v| v == a)
                .expect("the view covers the aggregate target"),
        ),
        AggregateKind::Avg(_) => return Ok(None),
    };
    let mut linear = true;
    for_each_cell(&dims, |flat, cell| {
        if !linear || !predicate.matches_cell(&attrs, cell) {
            return;
        }
        let coeff = match sum_position {
            None => 1.0,
            Some(pos) => match attrs[pos].numeric_at(cell[pos]) {
                Some(v) => v,
                None => {
                    linear = false;
                    return;
                }
            },
        };
        if coeff != 0.0 {
            visit(flat, cell, coeff);
        }
    });
    Ok(linear.then(|| dims.iter().product()))
}

/// Rewrites `query` into a linear query over `view`, a view on the query's
/// table that covers every attribute the query reads; `Ok(None)` when the
/// query has no linear form there (see [`for_each_coefficient`]). The
/// catalog decides which views are candidates (same table, coverage, no
/// GROUP BY) before it calls this.
pub(crate) fn transform(
    query: &Query,
    view: &ViewDef,
    schema: &Schema,
) -> Result<Option<LinearQuery>> {
    let mut coefficients = Vec::new();
    let view_cells = for_each_coefficient(
        &query.predicate,
        &query.aggregate,
        view,
        schema,
        |flat, _, coeff| coefficients.push((flat, coeff)),
    )?;
    Ok(view_cells.map(|view_cells| LinearQuery {
        coefficients,
        view_cells,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ViewCatalog;
    use crate::database::Database;
    use crate::exec::execute;
    use crate::histogram::Histogram;
    use crate::schema::AttributeType;
    use crate::table::Table;
    use crate::value::Value;
    use crate::EngineError;

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

    /// Selection over a catalog holding only `view`: `None` when the query
    /// is not answerable over it.
    fn transform_in(q: &Query, view: &ViewDef, db: &Database) -> Option<LinearQuery> {
        let mut catalog = ViewCatalog::new();
        catalog.add_view(view.clone());
        match catalog.select_view(q, db) {
            Ok((_, lq)) => Some(lq),
            Err(EngineError::NotAnswerable(_)) => None,
            Err(e) => panic!("{e}"),
        }
    }

    fn answer_via_view(q: &Query, view: &ViewDef, db: &Database) -> Option<f64> {
        let lq = transform_in(q, view, db)?;
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
        assert!(transform_in(&q, &view, &db).is_none());
    }

    #[test]
    fn wrong_table_group_by_and_avg_are_not_single_linear_queries() {
        let db = db();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let other_table = Query::count("tpch");
        assert!(transform_in(&other_table, &view, &db).is_none());

        let grouped = Query::count("adult").group_by(&["age"]);
        assert!(transform_in(&grouped, &view, &db).is_none());

        let avg = Query::avg("adult", "age");
        assert!(transform_in(&avg, &view, &db).is_none());
    }

    #[test]
    fn bins_touched_and_variance_propagation() {
        let db = db();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let q = Query::range_count("adult", "age", 22, 26);
        let lq = transform_in(&q, &view, &db).unwrap();
        assert_eq!(lq.bins_touched(), 5);
        // Unit coefficients: query variance = bins * per-bin variance.
        assert_eq!(lq.answer_variance(2.0), 10.0);
        assert_eq!(lq.view_cells, 10);
    }

    #[test]
    fn full_count_touches_every_bin() {
        let db = db();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let lq = transform_in(&Query::count("adult"), &view, &db).unwrap();
        assert_eq!(lq.bins_touched(), 10);
        let h = Histogram::materialize(&db, &view).unwrap();
        assert_eq!(lq.evaluate(&h.counts), 6.0);
    }
}
