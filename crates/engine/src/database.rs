//! A database instance: a named collection of tables.

use std::collections::BTreeMap;

use crate::table::Table;
use crate::{EngineError, Result};

/// An in-memory database instance.
///
/// Instances are **epoch-versioned**: the database carries the id of the
/// last sealed update epoch (0 = the immutable setup state). The dynamic
/// data subsystem (`dprov-delta`) mutates tables through
/// [`Database::table_mut`] / [`crate::table::Table::apply_encoded_updates`]
/// and advances the epoch once per sealed batch set, so every consumer can
/// tag the state it answered against. Tables are multisets: a delete
/// removes the newest matching row, and no answer depends on row order.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    epoch: u64,
}

impl Database {
    /// Creates an empty database (at epoch 0).
    #[must_use]
    pub fn new() -> Self {
        Database {
            tables: BTreeMap::new(),
            epoch: 0,
        }
    }

    /// The id of the last sealed update epoch this instance reflects.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch id after a sealed batch of updates has been
    /// applied, returning the new epoch.
    pub fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Sets the epoch id directly (recovery replays use this to land on
    /// the exact pre-crash epoch).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Registers a table, replacing any previous table with the same name.
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_owned(), table);
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_owned()))
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_owned()))
    }

    /// Names of all registered tables.
    #[must_use]
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Total number of rows across all tables (used to cap the system-wide
    /// delta at `1 / |D|` as the paper recommends).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::num_rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, AttributeType, Schema};
    use crate::value::Value;

    fn make_table(name: &str, rows: usize) -> Table {
        let schema = Schema::new(vec![Attribute::new("x", AttributeType::integer(0, 9))]);
        let mut t = Table::new(name, schema);
        for i in 0..rows {
            t.insert_row(&[Value::Int((i % 10) as i64)]).unwrap();
        }
        t
    }

    #[test]
    fn add_and_lookup() {
        let mut db = Database::new();
        db.add_table(make_table("a", 5));
        db.add_table(make_table("b", 7));
        assert_eq!(db.table_names(), vec!["a", "b"]);
        assert_eq!(db.table("a").unwrap().num_rows(), 5);
        assert!(db.table("c").is_err());
        assert_eq!(db.total_rows(), 12);
    }

    #[test]
    fn epoch_starts_at_zero_and_advances() {
        let mut db = Database::new();
        assert_eq!(db.epoch(), 0);
        assert_eq!(db.advance_epoch(), 1);
        assert_eq!(db.advance_epoch(), 2);
        db.set_epoch(7);
        assert_eq!(db.epoch(), 7);
    }

    #[test]
    fn replacing_a_table_overwrites_it() {
        let mut db = Database::new();
        db.add_table(make_table("a", 5));
        db.add_table(make_table("a", 9));
        assert_eq!(db.table("a").unwrap().num_rows(), 9);
        assert_eq!(db.total_rows(), 9);
    }
}
