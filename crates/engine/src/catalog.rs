//! The view catalog and view selection.
//!
//! The administrator registers a set of views that together can answer all
//! incoming queries (the paper's experiments use one 1-way full-domain
//! histogram per attribute, §6.1.2). Given an incoming query the catalog
//! picks the answerable view with the smallest domain — a small domain
//! means fewer noisy cells contribute to the answer, hence lower error for
//! the same per-bin variance.

use crate::database::Database;
use crate::query::Query;
use crate::transform::{transform_in, LinearQuery};
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

    /// Selects the view used to answer a query: among all views the query is
    /// answerable over, the one with the smallest domain. Returns the view
    /// and the transformed linear query.
    pub fn select_view(&self, query: &Query, db: &Database) -> Result<(ViewDef, LinearQuery)> {
        let mut best: Option<(usize, ViewDef, LinearQuery)> = None;
        for view in &self.views {
            if let Some(lq) = transform_in(query, view, db)? {
                let size = view.domain_size(db.table(&view.table)?.schema())?;
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
}
