//! The view catalog and view selection.
//!
//! The administrator registers a set of views that together can answer all
//! incoming queries (the paper's experiments use one 1-way full-domain
//! histogram per attribute, §6.1.2). Given an incoming query the catalog
//! picks the answerable view with the smallest domain — a small domain
//! means fewer noisy cells contribute to the answer, hence lower error for
//! the same per-bin variance.
//!
//! Selection ranks before it transforms. The candidates are the views on
//! the query's table that cover every attribute the query reads (borrowed
//! from the query once); they are ranked by (domain size, registration
//! order), and the query is transformed over them in that order until one
//! transform succeeds — the first candidate, unless the query is a SUM over
//! a categorical attribute. That is the smallest answerable domain, the
//! first registered on a tie, found without transforming the losers.

use crate::database::Database;
use crate::expr::Predicate;
use crate::group::GroupByQuery;
use crate::query::{AggregateKind, Query};
use crate::schema::Schema;
use crate::transform::{transform, LinearQuery};
use crate::view::ViewDef;
use crate::{EngineError, Result};

/// A catalog of registered views.
#[derive(Debug, Clone, Default)]
pub struct ViewCatalog {
    views: Vec<ViewDef>,
}

impl ViewCatalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        ViewCatalog { views: Vec::new() }
    }

    /// Builds the paper's default catalog: one full-domain histogram view
    /// per attribute of the given table.
    pub fn one_per_attribute(db: &Database, table: &str) -> Result<Self> {
        let t = db.table(table)?;
        let mut catalog = ViewCatalog::new();
        for attr in t.schema().attributes() {
            catalog.add_view(ViewDef::histogram(
                &format!("{table}.{}", attr.name),
                table,
                &[attr.name.as_str()],
            ));
        }
        Ok(catalog)
    }

    /// Registers a view. Adding a view with an existing name replaces it
    /// (views can be added over time under the water-filling constraint
    /// specification, §5.3.2).
    pub fn add_view(&mut self, view: ViewDef) {
        if let Some(existing) = self.views.iter_mut().find(|v| v.name == view.name) {
            *existing = view;
        } else {
            self.views.push(view);
        }
    }

    /// The registered views.
    #[must_use]
    pub fn views(&self) -> &[ViewDef] {
        &self.views
    }

    /// Number of registered views.
    #[must_use]
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no views are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Looks up a view by name.
    pub fn view(&self, name: &str) -> Result<&ViewDef> {
        self.views
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| EngineError::UnknownView(name.to_owned()))
    }

    /// Selects the view a scalar query is answered over and transforms the
    /// query into a linear query over it: among the views the query is
    /// answerable over, the one with the smallest domain, the first
    /// registered on a tie. `schema` is the query table's schema; views on
    /// other tables are never candidates. Nothing is cloned: the view is
    /// borrowed from the catalog.
    pub fn select(&self, query: &Query, schema: &Schema) -> Result<(&ViewDef, LinearQuery)> {
        select_in(&self.views, query, schema)
    }

    /// The view a GROUP BY's cells are answered over, chosen without
    /// transforming anything: the candidate each cell's scalar query
    /// ([`GroupByQuery::group_query`]) ranks first, since every cell reads
    /// the same attributes. A COUNT or a SUM over an integer attribute is
    /// linear over every candidate, so this is the view [`Self::select`]
    /// picks for each cell; a SUM over a categorical attribute has no
    /// linear form wherever a cell is selected, which the grouped walk
    /// ([`crate::transform::for_each_coefficient`]) reports.
    pub fn select_grouped(&self, query: &GroupByQuery, schema: &Schema) -> Result<&ViewDef> {
        if let Some(attributes) =
            read_attributes(&query.predicate, &query.aggregate, &query.group_cols)
        {
            if let Some(view) = ranked(&self.views, &query.table, &attributes, schema)?.next() {
                return Ok(view);
            }
        }
        Err(EngineError::NotAnswerable(query.describe()))
    }

    /// [`Self::select`] resolving the schema through the database, with an
    /// owned copy of the view. Every view's table must exist: as when each
    /// view was transformed in turn, the first view (in registration
    /// order) that names an unknown table, or whose attributes are unknown
    /// while it covers the query, is the error.
    pub fn select_view(&self, query: &Query, db: &Database) -> Result<(ViewDef, LinearQuery)> {
        let known = self
            .views
            .iter()
            .position(|v| db.table(&v.table).is_err())
            .unwrap_or(self.views.len());
        let selected = match db.table(&query.table) {
            Ok(table) => select_in(&self.views[..known], query, table.schema()),
            Err(_) => Err(EngineError::NotAnswerable(query.describe())),
        };
        match (selected, self.views.get(known)) {
            (Ok(_) | Err(EngineError::NotAnswerable(_)), Some(unknown)) => {
                Err(EngineError::UnknownTable(unknown.table.clone()))
            }
            (selected, _) => selected.map(|(view, linear)| (view.clone(), linear)),
        }
    }
}

/// The attributes a query reads — its predicate's, its aggregate target
/// and its grouping — borrowed from it, or `None` for an AVG, which no view
/// answers as one linear query.
fn read_attributes<'a>(
    predicate: &'a Predicate,
    aggregate: &'a AggregateKind,
    group_cols: &'a [String],
) -> Option<Vec<&'a str>> {
    if matches!(aggregate, AggregateKind::Avg(_)) {
        return None;
    }
    let mut attributes = Vec::new();
    predicate.attribute_names(&mut attributes);
    attributes.extend(aggregate.target_attribute());
    attributes.extend(group_cols.iter().map(String::as_str));
    Some(attributes)
}

/// Selection over a slice of views (the catalog, or a prefix of it).
fn select_in<'a>(
    views: &'a [ViewDef],
    query: &Query,
    schema: &Schema,
) -> Result<(&'a ViewDef, LinearQuery)> {
    if query.group_by.is_empty() {
        if let Some(attributes) = read_attributes(&query.predicate, &query.aggregate, &[]) {
            for view in ranked(views, &query.table, &attributes, schema)? {
                if let Some(linear) = transform(query, view, schema)? {
                    return Ok((view, linear));
                }
            }
        }
    }
    Err(EngineError::NotAnswerable(query.describe()))
}

/// The views on `table` that cover every one of `attributes`, ranked by
/// (domain size, registration order). A candidate naming an attribute the
/// schema lacks is an error — the first such candidate in registration
/// order. One allocation, whatever the size of the catalog; the unstable
/// sort allocates nothing, and the keys are distinct.
fn ranked<'a>(
    views: &'a [ViewDef],
    table: &str,
    attributes: &[&str],
    schema: &Schema,
) -> Result<impl Iterator<Item = &'a ViewDef>> {
    let mut ranked = Vec::with_capacity(views.len());
    for (order, view) in views.iter().enumerate() {
        if view.table == table && view.covers(attributes) {
            ranked.push((view.domain_size(schema)?, order, view));
        }
    }
    ranked.sort_unstable_by_key(|&(size, order, _)| (size, order));
    Ok(ranked.into_iter().map(|(_, _, view)| view))
}

/// Selection as it stood before ranking, kept as the differential tests'
/// oracle: every view is transformed in registration order — each
/// transform rebuilding the query's attribute list and enumerating the
/// view's cells one `Vec` at a time — and the smallest domain among the
/// answerable ones wins, the first registered on a tie.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::database::Database;
    use crate::query::{AggregateKind, Query};
    use crate::schema::Schema;
    use crate::transform::LinearQuery;
    use crate::view::{flat_index, MultiIndexIter, ViewDef};
    use crate::{EngineError, Result};

    /// The old `ViewCatalog::select_view` over `views`.
    pub(crate) fn select_view(
        views: &[ViewDef],
        query: &Query,
        db: &Database,
    ) -> Result<(ViewDef, LinearQuery)> {
        let mut best: Option<(usize, ViewDef, LinearQuery)> = None;
        for view in views {
            let schema = db.table(&view.table)?.schema();
            if let Some(lq) = transform(query, view, schema)? {
                let size = view.domain_size(schema)?;
                let better = match &best {
                    None => true,
                    Some((best_size, _, _)) => size < *best_size,
                };
                if better {
                    best = Some((size, view.clone(), lq));
                }
            }
        }
        best.map(|(_, v, lq)| (v, lq))
            .ok_or_else(|| EngineError::NotAnswerable(query.describe()))
    }

    /// The old `transform`: every check, then one walk over the cells.
    fn transform(query: &Query, view: &ViewDef, schema: &Schema) -> Result<Option<LinearQuery>> {
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
            coefficients,
            view_cells: dims.iter().product(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Predicate;
    use crate::schema::{Attribute, AttributeType, Schema};
    use crate::table::Table;
    use crate::value::Value;

    fn db() -> Database {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(20, 29)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
        ]);
        let mut t = Table::new("adult", schema);
        for (age, sex) in [(20, "F"), (25, "M"), (27, "F")] {
            t.insert_row(&[Value::Int(age), Value::text(sex)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    #[test]
    fn one_per_attribute_builds_a_view_per_column() {
        let db = db();
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        assert_eq!(catalog.len(), 2);
        assert!(catalog.view("adult.age").is_ok());
        assert!(catalog.view("adult.sex").is_ok());
        assert!(catalog.view("adult.zzz").is_err());
    }

    #[test]
    fn select_view_prefers_the_smallest_answerable_domain() {
        let db = db();
        let mut catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        // A big 2-way view also answers sex-only queries but should lose to
        // the 1-way sex view (domain 2 < 20).
        catalog.add_view(ViewDef::histogram(
            "adult.age_sex",
            "adult",
            &["age", "sex"],
        ));
        let q = Query::count("adult").filter(Predicate::equals("sex", "F"));
        let (view, lq) = catalog.select_view(&q, &db).unwrap();
        assert_eq!(view.name, "adult.sex");
        assert_eq!(lq.bins_touched(), 1);

        // A query touching both attributes can only use the 2-way view.
        let q2 = Query::count("adult")
            .filter(Predicate::equals("sex", "F"))
            .filter(Predicate::range("age", 20, 24));
        let (view2, _) = catalog.select_view(&q2, &db).unwrap();
        assert_eq!(view2.name, "adult.age_sex");
    }

    #[test]
    fn unanswerable_queries_are_reported() {
        let db = db();
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        // Touches two attributes but only 1-way views exist.
        let q = Query::count("adult")
            .filter(Predicate::equals("sex", "F"))
            .filter(Predicate::range("age", 20, 24));
        assert!(matches!(
            catalog.select_view(&q, &db),
            Err(EngineError::NotAnswerable(_))
        ));
    }

    #[test]
    fn adding_a_view_with_same_name_replaces_it() {
        let mut catalog = ViewCatalog::new();
        catalog.add_view(ViewDef::histogram("v", "adult", &["age"]));
        catalog.add_view(ViewDef::histogram("v", "adult", &["sex"]));
        assert_eq!(catalog.len(), 1);
        assert_eq!(
            catalog.view("v").unwrap().attributes,
            vec!["sex".to_owned()]
        );
    }

    // ----- the differential against the pre-ranking oracle -----

    use crate::view::ViewKind;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Two tables: `adult` (an empty-domain attribute among them) and
    /// `other`. Views and queries may also name a table that does not
    /// exist (`missing`) or an attribute no schema has (`bogus`).
    fn differential_db() -> Database {
        let adult = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(20, 29)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
            Attribute::new("hours", AttributeType::binned_integer(0, 11, 4)),
            Attribute::new("race", AttributeType::categorical(&["a", "b", "c"])),
            Attribute::new("void", AttributeType::integer(1, 0)),
        ]);
        let other = Schema::new(vec![
            Attribute::new("x", AttributeType::integer(-1, 2)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
        ]);
        let mut db = Database::new();
        db.add_table(Table::new("adult", adult));
        db.add_table(Table::new("other", other));
        db
    }

    const ADULT: [&str; 5] = ["age", "sex", "hours", "race", "void"];
    const OTHER: [&str; 2] = ["x", "sex"];

    fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
        items[rng.below(items.len() as u64) as usize]
    }

    fn chance(rng: &mut TestRng, percent: u64) -> bool {
        rng.below(100) < percent
    }

    fn random_view(rng: &mut TestRng, name: String) -> ViewDef {
        let (table, attrs) = match rng.below(100) {
            0..=1 => ("missing", &ADULT[..]),
            2..=16 => ("other", &OTHER[..]),
            _ => ("adult", &ADULT[..4]),
        };
        let mut chosen: Vec<&str> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let attr = if chance(rng, 4) {
                "bogus"
            } else if table == "adult" && chance(rng, 1) {
                "void"
            } else {
                pick(rng, attrs)
            };
            if !chosen.contains(&attr) {
                chosen.push(attr);
            }
        }
        if chosen.len() == 1 && chance(rng, 25) {
            ViewDef::clipped(&name, table, chosen[0], -5, 5)
        } else {
            ViewDef::histogram(&name, table, &chosen)
        }
    }

    /// Mostly a value of `attribute`'s domain, sometimes one just outside
    /// it or of the other type.
    fn random_value(rng: &mut TestRng, attribute: &str) -> Value {
        let int = |rng: &mut TestRng, low: i64, span: u64| Value::Int(low + rng.below(span) as i64);
        match (attribute, rng.below(10)) {
            (_, 0) => Value::text(pick(rng, &["F", "a", "zz"])),
            (_, 1) => int(rng, -2, 34),
            ("sex", _) => Value::text(pick(rng, &["F", "M"])),
            ("race", _) => Value::text(pick(rng, &["a", "b", "c"])),
            ("x", _) => int(rng, -2, 6),
            ("hours", _) => int(rng, -1, 14),
            _ => int(rng, 18, 14),
        }
    }

    fn random_predicate(rng: &mut TestRng, attrs: &[&str], depth: u32) -> Predicate {
        let leaf = depth == 0 || chance(rng, 55);
        let attribute = pick(rng, attrs).to_owned();
        match rng.below(if leaf { 4 } else { 7 }) {
            0 => Predicate::True,
            1 => {
                let low = match random_value(rng, &attribute) {
                    Value::Int(v) => v,
                    Value::Text(_) => 0,
                };
                Predicate::Range {
                    attribute,
                    low,
                    high: low + rng.below(8) as i64 - 1,
                }
            }
            2 => Predicate::Equals {
                value: random_value(rng, &attribute),
                attribute,
            },
            3 => Predicate::InSet {
                values: (0..rng.below(4))
                    .map(|_| random_value(rng, &attribute))
                    .collect(),
                attribute,
            },
            4 => Predicate::Not(Box::new(random_predicate(rng, attrs, depth - 1))),
            5 => Predicate::And(
                (0..1 + rng.below(3))
                    .map(|_| random_predicate(rng, attrs, depth - 1))
                    .collect(),
            ),
            _ => Predicate::Or(
                (0..1 + rng.below(3))
                    .map(|_| random_predicate(rng, attrs, depth - 1))
                    .collect(),
            ),
        }
    }

    /// A query over one or two attributes — most often those of a view in
    /// `catalog`, so that most queries have candidates.
    fn random_query(rng: &mut TestRng, catalog: &ViewCatalog) -> Query {
        let (table, attrs) = match rng.below(100) {
            0..=3 => ("missing", &ADULT[..]),
            4..=13 => ("other", &OTHER[..]),
            _ => ("adult", &ADULT[..4]),
        };
        let (table, pool) = match catalog
            .views()
            .get(rng.below(catalog.len() as u64 + 1) as usize)
        {
            Some(view) if chance(rng, 70) => (
                view.table.as_str(),
                view.attributes.iter().map(String::as_str).collect(),
            ),
            _ => (table, attrs.to_vec()),
        };
        let mut attrs: Vec<&str> = (0..1 + rng.below(2)).map(|_| pick(rng, &pool)).collect();
        if chance(rng, 5) {
            attrs.push("bogus");
        }
        let mut query = Query::count(table);
        query.aggregate = match rng.below(20) {
            0..=9 => AggregateKind::Count,
            10..=13 => AggregateKind::Sum(pick(rng, &attrs).to_owned()),
            14..=17 => AggregateKind::Sum(if table == "other" { "x" } else { "age" }.to_owned()),
            _ => AggregateKind::Avg(pick(rng, &attrs).to_owned()),
        };
        query.predicate = random_predicate(rng, &attrs, 3);
        if chance(rng, 5) {
            query.group_by = vec![pick(rng, &attrs).to_owned()];
        }
        query
    }

    fn random_catalog(rng: &mut TestRng) -> ViewCatalog {
        let mut catalog = ViewCatalog::new();
        for i in 0..rng.below(9) {
            catalog.add_view(random_view(rng, format!("v{i}")));
        }
        catalog
    }

    /// An outcome compared bit for bit: the view's name, every `(index,
    /// coefficient bits)` pair and the cell count, or the whole error.
    type Observed = std::result::Result<(String, Vec<(usize, u64)>, usize), EngineError>;

    fn observed(selected: Result<(ViewDef, LinearQuery)>) -> Observed {
        selected.map(|(view, linear)| {
            let coefficients = linear
                .coefficients
                .iter()
                .map(|&(index, c)| (index, c.to_bits()))
                .collect();
            (view.name, coefficients, linear.view_cells)
        })
    }

    fn assert_matches_oracle(catalog: &ViewCatalog, query: &Query, db: &Database) -> Observed {
        let expected = observed(oracle::select_view(catalog.views(), query, db));
        let got = observed(catalog.select_view(query, db));
        assert_eq!(got, expected, "{query:?} over {:?}", catalog.views());
        // With every table known, the borrowing selection agrees too.
        if let (Ok(table), None) = (
            db.table(&query.table),
            catalog.views().iter().find(|v| db.table(&v.table).is_err()),
        ) {
            let borrowed = catalog
                .select(query, table.schema())
                .map(|(view, linear)| (view.clone(), linear));
            assert_eq!(observed(borrowed), expected, "{query:?}");
        }
        expected
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        /// Ranking then transforming picks what transforming every view
        /// picked: the same view, coefficients and cell count, or the same
        /// error, over random catalogs and queries.
        #[test]
        fn ranked_selection_matches_the_transform_every_view_oracle(seed in 0u64..u64::MAX) {
            let db = differential_db();
            let mut rng = TestRng::for_test(&seed.to_string());
            let catalog = random_catalog(&mut rng);
            let query = random_query(&mut rng, &catalog);
            let _ = assert_matches_oracle(&catalog, &query, &db);
        }

        /// A GROUP BY's view, chosen without transforming, is the view the
        /// oracle selects for each of its cells' scalar queries whenever the
        /// aggregate is linear everywhere (COUNT, or SUM over an integer).
        #[test]
        fn grouped_selection_matches_the_oracle_per_cell(seed in 0u64..u64::MAX) {
            let db = differential_db();
            let schema = db.table("adult").unwrap().schema();
            let mut rng = TestRng::for_test(&format!("grouped-{seed}"));
            let mut catalog = ViewCatalog::new();
            for i in 0..1 + rng.below(6) {
                let view = random_view(&mut rng, format!("v{i}"));
                if view.table != "missing" {
                    catalog.add_view(view);
                }
            }
            let mut group_cols = vec![pick(&mut rng, &ADULT[..4])];
            if chance(&mut rng, 40) {
                group_cols.push(pick(&mut rng, &ADULT[..4]));
                group_cols.dedup();
            }
            let query = match rng.below(3) {
                0 => GroupByQuery::sum("adult", pick(&mut rng, &["age", "hours"]), &group_cols),
                _ => GroupByQuery::count("adult", &group_cols),
            }
            .filter(random_predicate(&mut rng, &ADULT[..4], 2));
            let selected = catalog.select_grouped(&query, schema);
            for cell in query.scalar_queries(schema).unwrap() {
                match oracle::select_view(catalog.views(), &cell, &db) {
                    Ok((view, _)) => prop_assert_eq!(&selected.as_ref().unwrap().name, &view.name),
                    Err(_) => prop_assert!(selected.is_err()),
                }
            }
        }
    }

    /// The cases the random arm must not miss, each pinned to its outcome.
    #[test]
    fn pinned_selection_cases_match_the_oracle() {
        let db = differential_db();
        let mut catalog = ViewCatalog::new();
        catalog.add_view(ViewDef::histogram("age_sex", "adult", &["age", "sex"]));
        catalog.add_view(ViewDef::histogram("age", "adult", &["age"]));
        catalog.add_view(ViewDef::clipped("age_clipped", "adult", "age", 20, 25));
        catalog.add_view(ViewDef::histogram("sex", "adult", &["sex"]));
        catalog.add_view(ViewDef::histogram("sex_again", "adult", &["sex"]));
        catalog.add_view(ViewDef::histogram("other_sex", "other", &["sex"]));
        catalog.add_view(ViewDef::histogram("race_sex", "adult", &["race", "sex"]));
        let view_of = |query: &Query| assert_matches_oracle(&catalog, query, &db).map(|o| o.0);
        let not_answerable = |query: &Query| {
            matches!(
                assert_matches_oracle(&catalog, query, &db),
                Err(EngineError::NotAnswerable(_))
            )
        };

        // Domain ties: the first registered wins, a clipped view included.
        assert_eq!(
            view_of(&Query::range_count("adult", "age", 22, 24)).unwrap(),
            "age"
        );
        let sex = Query::count("adult").filter(Predicate::equals("sex", "M"));
        assert_eq!(view_of(&sex).unwrap(), "sex");
        // A view over another table answers that table only.
        let other = Query::count("other").filter(Predicate::equals("sex", "M"));
        assert_eq!(view_of(&other).unwrap(), "other_sex");
        // SUM over an integer attribute, with a NOT/OR/IN predicate.
        let sum = Query::sum("adult", "age").filter(Predicate::Not(Box::new(Predicate::Or(vec![
            Predicate::equals("sex", "F"),
            Predicate::InSet {
                attribute: "age".to_owned(),
                values: vec![Value::Int(21), Value::Int(22)],
            },
        ]))));
        assert_eq!(view_of(&sum).unwrap(), "age_sex");
        // SUM over a categorical attribute: no selected cell is answered
        // with no coefficients; a selected cell makes the query
        // unanswerable over every view.
        let nothing = Query::sum("adult", "sex").filter(Predicate::equals("sex", "X"));
        let selected = assert_matches_oracle(&catalog, &nothing, &db).unwrap();
        assert_eq!((selected.0.as_str(), selected.1.len()), ("sex", 0));
        assert!(not_answerable(
            &Query::sum("adult", "sex").filter(Predicate::equals("sex", "F"))
        ));
        // AVG and GROUP BY are no single linear query.
        assert!(not_answerable(&Query::avg("adult", "age")));
        assert!(not_answerable(&Query::count("adult").group_by(&["age"])));
        // Unknown tables and attributes.
        assert!(not_answerable(&Query::count("missing")));
        assert!(not_answerable(&Query::range_count("adult", "bogus", 0, 1)));
        let mut broken = catalog.clone();
        broken.add_view(ViewDef::histogram("broken", "adult", &["age", "bogus"]));
        let age = Query::range_count("adult", "age", 22, 24);
        assert_eq!(
            observed(broken.select_view(&age, &db)),
            Err(EngineError::UnknownAttribute("bogus".to_owned()))
        );
        broken.add_view(ViewDef::histogram("lost", "missing", &["age"]));
        for query in [&age, &sex, &Query::count("missing")] {
            let _ = assert_matches_oracle(&broken, query, &db);
        }
        let mut lost_first = ViewCatalog::new();
        lost_first.add_view(ViewDef::histogram("lost", "missing", &["age"]));
        lost_first.add_view(ViewDef::histogram("broken", "adult", &["age", "bogus"]));
        assert_eq!(
            observed(lost_first.select_view(&age, &db)),
            Err(EngineError::UnknownTable("missing".to_owned()))
        );
        assert_eq!(
            broken.views()[2].kind,
            ViewKind::Clipped {
                lower: 20,
                upper: 25
            }
        );
    }
}
