//! View definitions.
//!
//! DProvDB answers queries through *histogram views*: full-domain k-way
//! marginals over a subset of attributes (Definition 16). A view's exact
//! answer is a [`crate::histogram::Histogram`]; its noisy answer is a
//! [`crate::synopsis::Synopsis`]. The provenance table tracks privacy loss
//! per view, so every view carries a stable name.

use dprov_dp::sensitivity::Sensitivity;

use crate::database::Database;
use crate::schema::Schema;
use crate::Result;

/// How the view's histogram domain is derived.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewKind {
    /// A full-domain counting histogram over the view's attributes.
    FullDomainHistogram,
    /// A counting histogram over a single integer attribute whose values are
    /// clipped to `[lower, upper]` before binning (Appendix D). The clipping
    /// bounds the sensitivity of SUM queries answered over the view.
    Clipped {
        /// Inclusive lower clipping bound.
        lower: i64,
        /// Inclusive upper clipping bound.
        upper: i64,
    },
}

/// A view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// Stable view name (the provenance-table column key).
    pub name: String,
    /// The base relation.
    pub table: String,
    /// The attributes the marginal is built over, in order.
    pub attributes: Vec<String>,
    /// The kind of histogram.
    pub kind: ViewKind,
}

impl ViewDef {
    /// A full-domain histogram view over the given attributes.
    #[must_use]
    pub fn histogram<S: AsRef<str>>(name: &str, table: &str, attributes: &[S]) -> Self {
        ViewDef {
            name: name.to_owned(),
            table: table.to_owned(),
            attributes: attributes.iter().map(|s| s.as_ref().to_owned()).collect(),
            kind: ViewKind::FullDomainHistogram,
        }
    }

    /// A clipped histogram view over a single integer attribute.
    #[must_use]
    pub fn clipped(name: &str, table: &str, attribute: &str, lower: i64, upper: i64) -> Self {
        ViewDef {
            name: name.to_owned(),
            table: table.to_owned(),
            attributes: vec![attribute.to_owned()],
            kind: ViewKind::Clipped { lower, upper },
        }
    }

    /// The per-attribute domain sizes of the view, in attribute order.
    pub fn dimensions(&self, schema: &Schema) -> Result<Vec<usize>> {
        self.attributes
            .iter()
            .map(|a| Ok(schema.attribute(a)?.domain_size()))
            .collect()
    }

    /// Total number of histogram cells.
    pub fn domain_size(&self, schema: &Schema) -> Result<usize> {
        Ok(self.dimensions(schema)?.iter().product())
    }

    /// Schema positions of the view's attributes, in view order — shared by
    /// the engine's row-at-a-time histogram materialisation and the
    /// `dprov-exec` columnar path.
    pub fn positions(&self, schema: &Schema) -> Result<Vec<usize>> {
        self.attributes.iter().map(|a| schema.position(a)).collect()
    }

    /// The ℓ2 sensitivity of releasing this view under bounded DP: one
    /// tuple changing value moves one unit between two cells, so √2 for any
    /// counting histogram.
    #[must_use]
    pub fn sensitivity(&self) -> Sensitivity {
        Sensitivity::histogram_bounded()
    }

    /// Looks up the view's dimensions against a database.
    pub fn dimensions_in(&self, db: &Database) -> Result<Vec<usize>> {
        self.dimensions(db.table(&self.table)?.schema())
    }

    /// True if the view covers all of the given attributes.
    #[must_use]
    pub fn covers<S: AsRef<str>>(&self, attributes: &[S]) -> bool {
        attributes
            .iter()
            .all(|a| self.attributes.iter().any(|v| v == a.as_ref()))
    }
}

/// Iterates the multi-dimensional cell indices of a histogram with the given
/// per-dimension sizes, in row-major order.
#[derive(Debug, Clone)]
pub struct MultiIndexIter {
    sizes: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl MultiIndexIter {
    /// Creates an iterator over the cross product of the dimension sizes.
    #[must_use]
    pub fn new(sizes: &[usize]) -> Self {
        let done = sizes.contains(&0);
        MultiIndexIter {
            sizes: sizes.to_vec(),
            current: vec![0; sizes.len()],
            done,
        }
    }
}

impl Iterator for MultiIndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        // Advance, last dimension fastest (row-major).
        let mut dim = self.sizes.len();
        loop {
            if dim == 0 {
                self.done = true;
                break;
            }
            dim -= 1;
            self.current[dim] += 1;
            if self.current[dim] < self.sizes[dim] {
                break;
            }
            self.current[dim] = 0;
        }
        if self.sizes.is_empty() {
            self.done = true;
        }
        Some(out)
    }
}

/// Converts a multi-dimensional cell index into a flat, row-major offset.
#[must_use]
pub fn flat_index(sizes: &[usize], indices: &[usize]) -> usize {
    debug_assert_eq!(sizes.len(), indices.len());
    let mut flat = 0usize;
    for (size, &idx) in sizes.iter().zip(indices) {
        debug_assert!(idx < *size);
        flat = flat * size + idx;
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, AttributeType};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("age", AttributeType::integer(17, 90)),
            Attribute::new("sex", AttributeType::categorical(&["Female", "Male"])),
            Attribute::new("edu", AttributeType::integer(1, 16)),
        ])
    }

    #[test]
    fn view_dimensions_and_domain_size() {
        let v = ViewDef::histogram("v1", "adult", &["age", "sex"]);
        let s = schema();
        assert_eq!(v.dimensions(&s).unwrap(), vec![74, 2]);
        assert_eq!(v.domain_size(&s).unwrap(), 148);
        assert_eq!(v.positions(&s).unwrap(), vec![0, 1]);
        assert!(v.covers(&["age"]));
        assert!(v.covers(&["age", "sex"]));
        assert!(!v.covers(&["edu"]));
    }

    #[test]
    fn unknown_attribute_in_view_errors() {
        let v = ViewDef::histogram("v1", "adult", &["salary"]);
        assert!(v.domain_size(&schema()).is_err());
    }

    #[test]
    fn sensitivity_is_sqrt_two() {
        let v = ViewDef::histogram("v1", "adult", &["age"]);
        assert!((v.sensitivity().value() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn clipped_view_records_bounds() {
        let v = ViewDef::clipped("v_hours", "adult", "edu", 1, 10);
        assert_eq!(
            v.kind,
            ViewKind::Clipped {
                lower: 1,
                upper: 10
            }
        );
        assert_eq!(v.attributes, vec!["edu".to_owned()]);
    }

    #[test]
    fn multi_index_iterates_row_major() {
        let cells: Vec<Vec<usize>> = MultiIndexIter::new(&[2, 3]).collect();
        assert_eq!(
            cells,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn multi_index_handles_empty_and_zero_dims() {
        assert_eq!(MultiIndexIter::new(&[]).count(), 1);
        assert_eq!(MultiIndexIter::new(&[0, 3]).count(), 0);
    }

    #[test]
    fn flat_index_matches_iteration_order() {
        let sizes = [3usize, 4, 2];
        for (i, cell) in MultiIndexIter::new(&sizes).enumerate() {
            assert_eq!(flat_index(&sizes, &cell), i);
        }
    }
}
