//! Exact histogram materialisation.

use crate::database::Database;
use crate::view::{flat_index, ViewDef, ViewKind};
use crate::Result;

/// The exact (non-private) answer to a histogram view.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Name of the view this histogram materialises.
    pub view: String,
    /// Per-dimension domain sizes, in the view's attribute order.
    pub dims: Vec<usize>,
    /// Flat, row-major cell counts.
    pub counts: Vec<f64>,
}

impl Histogram {
    /// Materialises a view against a database instance.
    pub fn materialize(db: &Database, view: &ViewDef) -> Result<Self> {
        let table = db.table(&view.table)?;
        let schema = table.schema();
        let dims = view.dimensions(schema)?;
        let positions = view.positions(schema)?;

        let total: usize = dims.iter().product();
        let mut counts = vec![0.0f64; total.max(1)];

        // Clipping bounds (if any) expressed as per-attribute index bounds.
        let clip = match view.kind {
            ViewKind::Clipped { lower, upper } => {
                let attr = schema.attribute(&view.attributes[0])?;
                attr.index_range(lower, upper)
            }
            ViewKind::FullDomainHistogram => None,
        };

        let mut cell = vec![0usize; positions.len()];
        for row in 0..table.num_rows() {
            for (d, &pos) in positions.iter().enumerate() {
                let mut idx = table.column_at(pos)[row] as usize;
                if let Some((lo, hi)) = clip {
                    idx = idx.clamp(lo, hi);
                }
                cell[d] = idx;
            }
            counts[flat_index(&dims, &cell)] += 1.0;
        }

        Ok(Histogram {
            view: view.name.clone(),
            dims,
            counts,
        })
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if the histogram has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Sum of all cell counts (the number of contributing rows).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// The count of a cell addressed by its multi-dimensional index.
    #[must_use]
    pub fn count_at(&self, indices: &[usize]) -> f64 {
        self.counts[flat_index(&self.dims, indices)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, AttributeType, Schema};
    use crate::table::Table;
    use crate::value::Value;

    fn db() -> Database {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(20, 24)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
        ]);
        let mut t = Table::new("adult", schema);
        for (age, sex) in [(20, "F"), (20, "M"), (21, "F"), (24, "M"), (24, "M")] {
            t.insert_row(&[Value::Int(age), Value::text(sex)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    #[test]
    fn one_way_marginal() {
        let v = ViewDef::histogram("v_age", "adult", &["age"]);
        let h = Histogram::materialize(&db(), &v).unwrap();
        assert_eq!(h.dims, vec![5]);
        assert_eq!(h.counts, vec![2.0, 1.0, 0.0, 0.0, 2.0]);
        assert_eq!(h.total(), 5.0);
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn two_way_marginal() {
        let v = ViewDef::histogram("v_age_sex", "adult", &["age", "sex"]);
        let h = Histogram::materialize(&db(), &v).unwrap();
        assert_eq!(h.dims, vec![5, 2]);
        assert_eq!(h.count_at(&[0, 0]), 1.0); // age 20, F
        assert_eq!(h.count_at(&[0, 1]), 1.0); // age 20, M
        assert_eq!(h.count_at(&[4, 1]), 2.0); // age 24, M
        assert_eq!(h.count_at(&[2, 0]), 0.0);
        assert_eq!(h.total(), 5.0);
    }

    #[test]
    fn clipped_view_clamps_out_of_range_values_into_boundary_bins() {
        let v = ViewDef::clipped("v_age_clip", "adult", "age", 21, 23);
        let h = Histogram::materialize(&db(), &v).unwrap();
        // Clip range [21, 23] corresponds to indices 1..=3; ages 20 fall into
        // index 1, ages 24 into index 3.
        assert_eq!(h.dims, vec![5]);
        assert_eq!(h.counts, vec![0.0, 3.0, 0.0, 2.0, 0.0]);
        assert_eq!(h.total(), 5.0);
    }

    #[test]
    fn unknown_view_attribute_errors() {
        let v = ViewDef::histogram("bad", "adult", &["salary"]);
        assert!(Histogram::materialize(&db(), &v).is_err());
    }
}
