//! Columnar table storage.
//!
//! Rows are encoded at insertion time: each cell is stored as the domain
//! index of its value within its attribute's finite domain (a `u32`). This
//! makes histogram materialisation a single pass of index arithmetic and
//! keeps predicate evaluation branch-light.

use crate::schema::Schema;
use crate::value::Value;
use crate::{EngineError, Result};

/// A relation with columnar, domain-index-encoded storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    /// One vector per attribute, each of length `num_rows`.
    columns: Vec<Vec<u32>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(name: &str, schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.arity()];
        Table {
            name: name.to_owned(),
            schema,
            columns,
        }
    }

    /// The table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Inserts a row of decoded values; the arity and every value's domain
    /// membership are validated.
    pub fn insert_row(&mut self, values: &[Value]) -> Result<()> {
        self.check_arity(values.len())?;
        // Validate all cells before mutating any column so a failed insert
        // leaves the table untouched.
        let mut encoded = Vec::with_capacity(values.len());
        for (attr, value) in self.schema.attributes().iter().zip(values) {
            encoded.push(attr.index_of(value)? as u32);
        }
        for (col, idx) in self.columns.iter_mut().zip(encoded) {
            col.push(idx);
        }
        Ok(())
    }

    /// Inserts a row of pre-encoded domain indices without validation.
    /// Intended for the synthetic data generators, which sample indices
    /// directly.
    pub fn insert_encoded_row(&mut self, indices: &[u32]) -> Result<()> {
        self.check_arity(indices.len())?;
        for ((col, &idx), attr) in self
            .columns
            .iter_mut()
            .zip(indices)
            .zip(self.schema.attributes())
        {
            debug_assert!((idx as usize) < attr.domain_size());
            col.push(idx);
        }
        Ok(())
    }

    /// Deletes the newest row whose encoded cells equal `indices`,
    /// returning `true` when a match was found and removed. Multiset
    /// semantics: each call removes at most one occurrence, and a table is
    /// a multiset, so which copy goes changes no aggregate. The probe runs
    /// from the last row backwards, so removing a recently inserted row
    /// costs the distance back to it, not a pass over the table. The
    /// remaining rows keep their relative order.
    pub fn delete_encoded_row(&mut self, indices: &[u32]) -> Result<bool> {
        self.check_arity(indices.len())?;
        let Some(row) = self.matches_newest_first(indices).next() else {
            return Ok(false);
        };
        for col in &mut self.columns {
            col.remove(row);
        }
        Ok(true)
    }

    /// True when at least `at_least` rows have encoded cells equal to
    /// `indices` (multiset multiplicity — what update validation checks
    /// before accepting a delete). The probe runs from the last row
    /// backwards and stops at the `at_least`-th match, so a row inserted
    /// recently is found without scanning the whole table.
    pub fn has_encoded_rows(&self, indices: &[u32], at_least: usize) -> Result<bool> {
        self.check_arity(indices.len())?;
        Ok(at_least == 0
            || self
                .matches_newest_first(indices)
                .nth(at_least - 1)
                .is_some())
    }

    fn check_arity(&self, found: usize) -> Result<()> {
        if found != self.schema.arity() {
            return Err(EngineError::ArityMismatch {
                expected: self.schema.arity(),
                found,
            });
        }
        Ok(())
    }

    /// Positions of the rows equal to `indices`, last row first.
    fn matches_newest_first<'a>(&'a self, indices: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
        (0..self.num_rows()).rev().filter(move |&row| {
            self.columns
                .iter()
                .zip(indices)
                .all(|(col, &want)| col[row] == want)
        })
    }

    /// Applies one update batch — encoded inserts appended in order, then
    /// encoded deletes each removing the newest matching row. The mutable
    /// table handle of the dynamic-data subsystem: `dprov-delta` seals
    /// epochs through this after validating every row. Errors on an arity
    /// mismatch; a delete with no matching row is reported in the returned
    /// count (callers that validated beforehand treat it as a bug).
    pub fn apply_encoded_updates(
        &mut self,
        inserts: &[Vec<u32>],
        deletes: &[Vec<u32>],
    ) -> Result<usize> {
        for row in inserts {
            self.insert_encoded_row(row)?;
        }
        let mut deleted = 0usize;
        for row in deletes {
            if self.delete_encoded_row(row)? {
                deleted += 1;
            }
        }
        Ok(deleted)
    }

    /// The encoded column for an attribute.
    pub fn column(&self, attribute: &str) -> Result<&[u32]> {
        let pos = self.schema.position(attribute)?;
        Ok(&self.columns[pos])
    }

    /// The encoded column by position.
    #[must_use]
    pub fn column_at(&self, position: usize) -> &[u32] {
        &self.columns[position]
    }

    /// All encoded columns in schema order — the zero-copy ingest path the
    /// `dprov-exec` columnar execution layer converts tables through (it
    /// re-partitions these columns into fixed-size shards).
    #[must_use]
    pub fn columns(&self) -> &[Vec<u32>] {
        &self.columns
    }

    /// Decodes the cell at `(row, attribute)`.
    pub fn value_at(&self, row: usize, attribute: &str) -> Result<Value> {
        let pos = self.schema.position(attribute)?;
        let attr = &self.schema.attributes()[pos];
        Ok(attr.value_at(self.columns[pos][row] as usize))
    }

    /// Decodes a full row.
    #[must_use]
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, attr)| attr.value_at(self.columns[i][row] as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, AttributeType};

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(17, 90)),
            Attribute::new("sex", AttributeType::categorical(&["Female", "Male"])),
        ]);
        Table::new("people", schema)
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = sample_table();
        t.insert_row(&[Value::Int(30), Value::text("Male")])
            .unwrap();
        t.insert_row(&[Value::Int(45), Value::text("Female")])
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value_at(0, "age").unwrap(), Value::Int(30));
        assert_eq!(t.value_at(1, "sex").unwrap(), Value::text("Female"));
        assert_eq!(t.row(1), vec![Value::Int(45), Value::text("Female")]);
        assert_eq!(t.column("age").unwrap(), &[13, 28]);
        assert_eq!(t.columns().len(), 2);
        assert_eq!(t.columns()[1], vec![1, 0]);
    }

    #[test]
    fn invalid_rows_are_rejected_atomically() {
        let mut t = sample_table();
        assert!(matches!(
            t.insert_row(&[Value::Int(30)]),
            Err(EngineError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert_row(&[Value::Int(12), Value::text("Male")]),
            Err(EngineError::ValueOutOfDomain { .. })
        ));
        // Second cell invalid: the first column must not have grown.
        assert!(t
            .insert_row(&[Value::Int(30), Value::text("Other")])
            .is_err());
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn encoded_rows_bypass_decoding() {
        let mut t = sample_table();
        t.insert_encoded_row(&[0, 1]).unwrap();
        assert_eq!(t.value_at(0, "age").unwrap(), Value::Int(17));
        assert_eq!(t.value_at(0, "sex").unwrap(), Value::text("Male"));
        assert!(t.insert_encoded_row(&[0]).is_err());
    }

    #[test]
    fn unknown_attribute_errors() {
        let t = sample_table();
        assert!(t.column("salary").is_err());
    }

    #[test]
    fn delete_removes_one_matching_row_and_preserves_order() {
        let mut t = sample_table();
        for (age, sex) in [(30, "Male"), (45, "Female"), (30, "Male"), (50, "Male")] {
            t.insert_row(&[Value::Int(age), Value::text(sex)]).unwrap();
        }
        let target = [13u32, 1]; // age 30, Male
        assert!(t.has_encoded_rows(&target, 2).unwrap());
        assert!(!t.has_encoded_rows(&target, 3).unwrap());
        assert!(t.delete_encoded_row(&target).unwrap());
        assert_eq!(t.num_rows(), 3);
        assert!(t.has_encoded_rows(&target, 1).unwrap());
        assert!(!t.has_encoded_rows(&target, 2).unwrap());
        // The newest copy (row 2) went; the rest keep their relative order.
        assert_eq!(t.row(0), vec![Value::Int(30), Value::text("Male")]);
        assert_eq!(t.row(1), vec![Value::Int(45), Value::text("Female")]);
        assert_eq!(t.row(2), vec![Value::Int(50), Value::text("Male")]);
        // Deleting a row that is not present reports false, mutates nothing.
        assert!(!t.delete_encoded_row(&[0, 0]).unwrap());
        assert!(!t.has_encoded_rows(&[0, 0], 1).unwrap());
        assert!(t.has_encoded_rows(&[0, 0], 0).unwrap());
        assert_eq!(t.num_rows(), 3);
        assert!(t.delete_encoded_row(&[0]).is_err());
        assert!(t.has_encoded_rows(&[0], 1).is_err());
        assert!(t.has_encoded_rows(&[0], 0).is_err());
    }

    #[test]
    fn apply_encoded_updates_inserts_then_deletes() {
        let mut t = sample_table();
        t.insert_row(&[Value::Int(40), Value::text("Female")])
            .unwrap();
        let deleted = t
            .apply_encoded_updates(
                &[vec![13, 1], vec![14, 0]],
                &[vec![23, 0], vec![99, 1]], // second delete matches nothing
            )
            .unwrap();
        assert_eq!(deleted, 1);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0), vec![Value::Int(30), Value::text("Male")]);
        assert_eq!(t.row(1), vec![Value::Int(31), Value::text("Female")]);
    }
}
