//! Selection predicates.
//!
//! A [`Predicate`] is evaluated in two places:
//!
//! * row-at-a-time against a [`Table`] during exact (non-private) execution;
//! * cell-at-a-time against a histogram view's multi-dimensional domain when
//!   a query is rewritten into a linear query (see [`crate::transform`]).
//!
//! For binned integer attributes a histogram cell "matches" a range
//! predicate if the cell's bin *intersects* the requested range; with unit
//! bins (the default for every dataset in the experiments) this is exact.

use std::collections::BTreeSet;

use crate::schema::{Attribute, AttributeType};
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// A boolean selection predicate over a single relation.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// `attribute BETWEEN low AND high` (inclusive) on an integer attribute.
    Range {
        /// The integer attribute being constrained.
        attribute: String,
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
    },
    /// `attribute = value`.
    Equals {
        /// The attribute being constrained.
        attribute: String,
        /// The value it must equal.
        value: Value,
    },
    /// `attribute IN (values…)`.
    InSet {
        /// The attribute being constrained.
        attribute: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// Conjunction of sub-predicates.
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates.
    Or(Vec<Predicate>),
    /// Negation of a sub-predicate.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for a range predicate.
    #[must_use]
    pub fn range(attribute: &str, low: i64, high: i64) -> Self {
        Predicate::Range {
            attribute: attribute.to_owned(),
            low,
            high,
        }
    }

    /// Convenience constructor for an equality predicate.
    #[must_use]
    pub fn equals(attribute: &str, value: impl Into<Value>) -> Self {
        Predicate::Equals {
            attribute: attribute.to_owned(),
            value: value.into(),
        }
    }

    /// Conjunction of two predicates (flattening nested `And`s).
    #[must_use]
    pub fn and(self, other: Predicate) -> Self {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// The set of attribute names referenced by the predicate.
    #[must_use]
    pub(crate) fn attributes(&self) -> BTreeSet<String> {
        let mut names = Vec::new();
        self.attribute_names(&mut names);
        names.into_iter().map(str::to_owned).collect()
    }

    /// Pushes the name of every attribute the predicate references onto
    /// `out`, borrowed and in predicate order (repeats included).
    pub(crate) fn attribute_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True => {}
            Predicate::Range { attribute, .. }
            | Predicate::Equals { attribute, .. }
            | Predicate::InSet { attribute, .. } => out.push(attribute),
            Predicate::And(children) | Predicate::Or(children) => {
                for c in children {
                    c.attribute_names(out);
                }
            }
            Predicate::Not(inner) => inner.attribute_names(out),
        }
    }

    /// Evaluates the predicate against one row of a table.
    pub(crate) fn evaluate_row(&self, table: &Table, row: usize) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Range {
                attribute,
                low,
                high,
            } => {
                let v = table.value_at(row, attribute)?;
                Ok(v.as_int().is_some_and(|x| x >= *low && x <= *high))
            }
            Predicate::Equals { attribute, value } => Ok(&table.value_at(row, attribute)? == value),
            Predicate::InSet { attribute, values } => {
                let v = table.value_at(row, attribute)?;
                Ok(values.contains(&v))
            }
            Predicate::And(children) => {
                for c in children {
                    if !c.evaluate_row(table, row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::Or(children) => {
                for c in children {
                    if c.evaluate_row(table, row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Predicate::Not(inner) => Ok(!inner.evaluate_row(table, row)?),
        }
    }

    /// Evaluates the predicate against one histogram cell, described by the
    /// view's attributes and the cell's per-attribute domain indices.
    /// Attributes not present in the view make the predicate unanswerable;
    /// callers (the transform module) must check answerability first — here
    /// an unknown attribute simply evaluates to `false`.
    #[must_use]
    pub fn matches_cell(&self, attrs: &[&Attribute], indices: &[usize]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Range {
                attribute,
                low,
                high,
            } => match lookup(attrs, indices, attribute) {
                Some((attr, idx)) => match &attr.attr_type {
                    AttributeType::Integer { min, bin_width, .. } => {
                        let bin_lo = min + idx as i64 * bin_width;
                        let bin_hi = bin_lo + bin_width - 1;
                        bin_hi >= *low && bin_lo <= *high
                    }
                    AttributeType::Categorical { .. } => false,
                },
                None => false,
            },
            Predicate::Equals { attribute, value } => match lookup(attrs, indices, attribute) {
                Some((attr, idx)) => attr.value_at_is(idx, value),
                None => false,
            },
            Predicate::InSet { attribute, values } => match lookup(attrs, indices, attribute) {
                Some((attr, idx)) => values.iter().any(|v| attr.value_at_is(idx, v)),
                None => false,
            },
            Predicate::And(children) => children.iter().all(|c| c.matches_cell(attrs, indices)),
            Predicate::Or(children) => children.iter().any(|c| c.matches_cell(attrs, indices)),
            Predicate::Not(inner) => !inner.matches_cell(attrs, indices),
        }
    }
}

fn lookup<'a>(
    attrs: &[&'a Attribute],
    indices: &[usize],
    name: &str,
) -> Option<(&'a Attribute, usize)> {
    attrs
        .iter()
        .position(|a| a.name == name)
        .map(|pos| (attrs[pos], indices[pos]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, AttributeType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(17, 90)),
            Attribute::new("sex", AttributeType::categorical(&["Female", "Male"])),
        ]);
        let mut t = Table::new("people", schema);
        for (age, sex) in [(25, "Male"), (40, "Female"), (67, "Female")] {
            t.insert_row(&[Value::Int(age), Value::text(sex)]).unwrap();
        }
        t
    }

    #[test]
    fn range_predicate_on_rows() {
        let t = table();
        let p = Predicate::range("age", 30, 50);
        assert!(!p.evaluate_row(&t, 0).unwrap());
        assert!(p.evaluate_row(&t, 1).unwrap());
        assert!(!p.evaluate_row(&t, 2).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let t = table();
        let p = Predicate::range("age", 30, 90).and(Predicate::equals("sex", "Female"));
        assert!(!p.evaluate_row(&t, 0).unwrap());
        assert!(p.evaluate_row(&t, 1).unwrap());
        let not_p = Predicate::Not(Box::new(p));
        assert!(not_p.evaluate_row(&t, 0).unwrap());

        let or = Predicate::Or(vec![
            Predicate::equals("age", 25i64),
            Predicate::equals("age", 67i64),
        ]);
        assert!(or.evaluate_row(&t, 0).unwrap());
        assert!(!or.evaluate_row(&t, 1).unwrap());
    }

    #[test]
    fn and_with_true_is_identity() {
        let p = Predicate::range("age", 0, 10);
        assert_eq!(Predicate::True.and(p.clone()), p);
        assert_eq!(p.clone().and(Predicate::True), p);
    }

    #[test]
    fn attribute_collection() {
        let p = Predicate::range("age", 30, 50).and(Predicate::equals("sex", "Female"));
        let attrs = p.attributes();
        assert!(attrs.contains("age") && attrs.contains("sex"));
        assert_eq!(attrs.len(), 2);

        let p = Predicate::Or(vec![
            p,
            Predicate::Not(Box::new(Predicate::range("age", 0, 1))),
        ]);
        let mut names = Vec::new();
        p.attribute_names(&mut names);
        assert_eq!(names, ["age", "sex", "age"]);
    }

    #[test]
    fn cell_matching_with_unit_bins_is_exact() {
        let age = Attribute::new("age", AttributeType::integer(17, 90));
        let attrs = vec![&age];
        let p = Predicate::range("age", 20, 29);
        // index 3 -> age 20, index 12 -> age 29, index 13 -> age 30.
        assert!(p.matches_cell(&attrs, &[3]));
        assert!(p.matches_cell(&attrs, &[12]));
        assert!(!p.matches_cell(&attrs, &[13]));
        assert!(!p.matches_cell(&attrs, &[0]));
    }

    #[test]
    fn cell_matching_uses_bin_intersection_for_wide_bins() {
        let hours = Attribute::new("hours", AttributeType::binned_integer(0, 99, 10));
        let attrs = vec![&hours];
        // Bin 2 covers [20, 29]; a range [25, 40] intersects bins 2, 3, 4.
        let p = Predicate::range("hours", 25, 40);
        assert!(p.matches_cell(&attrs, &[2]));
        assert!(p.matches_cell(&attrs, &[4]));
        assert!(!p.matches_cell(&attrs, &[1]));
        assert!(!p.matches_cell(&attrs, &[5]));
    }

    #[test]
    fn cell_matching_unknown_attribute_is_false() {
        let age = Attribute::new("age", AttributeType::integer(17, 90));
        let attrs = vec![&age];
        let p = Predicate::equals("sex", "Male");
        assert!(!p.matches_cell(&attrs, &[0]));
    }

    #[test]
    fn equality_on_categorical_cells() {
        let sex = Attribute::new("sex", AttributeType::categorical(&["Female", "Male"]));
        let attrs = vec![&sex];
        let p = Predicate::equals("sex", "Male");
        assert!(!p.matches_cell(&attrs, &[0]));
        assert!(p.matches_cell(&attrs, &[1]));
    }
}
