//! Star-schema declarations and join folding.
//!
//! DProvDB's views are single-relation histograms, and the exec hot path
//! (compiled kernels, compressed columns, precombined domain maps) is
//! single-table by design. Multi-relation schemas are supported by folding
//! foreign-key joins into the relation *at ingest*: a [`StarSchema`]
//! declares a fact table and its dimension joins, and [`StarSchema::fold`]
//! materialises one widened fact table with the dimension attributes
//! denormalised onto it — **before** columnar encoding, so every downstream
//! kernel and compression codec applies unchanged.
//!
//! Widened dimension attributes are named `"<dimension>.<attribute>"` so
//! they never collide with fact attributes and queries can reference them
//! unambiguously (`Predicate::equals("region.name", "EU")`).
//!
//! Correctness contract: folding is bit-identical to hand-building the
//! denormalised table row by row (asserted in the equivalence battery) —
//! the widened cells literally copy the dimension's encoded domain indices,
//! because the widened attribute *is* the dimension attribute.

use std::collections::HashMap;

use crate::database::Database;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::{EngineError, Result};

/// A foreign-key edge from the fact table to one dimension table.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignKey {
    /// The fact-table attribute holding the key.
    pub fact_attribute: String,
    /// The dimension table joined through this key.
    pub dimension: String,
    /// The key attribute on the dimension table. Must be unique per row.
    pub dimension_key: String,
}

/// A star-schema declaration: one fact table plus its dimension joins.
#[derive(Debug, Clone, PartialEq)]
pub struct StarSchema {
    /// Name of the widened output table produced by [`StarSchema::fold`].
    pub name: String,
    /// The fact table.
    pub fact: String,
    /// Dimension joins, applied in declaration order.
    pub foreign_keys: Vec<ForeignKey>,
}

impl StarSchema {
    /// Declares a star schema over `fact`, producing a widened table named
    /// `name` when folded.
    #[must_use]
    pub fn new(name: &str, fact: &str) -> Self {
        StarSchema {
            name: name.to_owned(),
            fact: fact.to_owned(),
            foreign_keys: Vec::new(),
        }
    }

    /// Adds a dimension join: `fact.fact_attribute = dimension.dimension_key`.
    #[must_use]
    pub fn join(mut self, fact_attribute: &str, dimension: &str, dimension_key: &str) -> Self {
        self.foreign_keys.push(ForeignKey {
            fact_attribute: fact_attribute.to_owned(),
            dimension: dimension.to_owned(),
            dimension_key: dimension_key.to_owned(),
        });
        self
    }

    /// The name the widened attribute for `(dimension, attribute)` gets on
    /// the folded table.
    #[must_use]
    pub fn widened_name(dimension: &str, attribute: &str) -> String {
        format!("{dimension}.{attribute}")
    }

    /// Materialises the denormalised (join-folded) table without modifying
    /// the database.
    ///
    /// Every fact row must resolve through every foreign key: a fact key
    /// with no matching dimension row is a [`EngineError::ForeignKeyViolation`]
    /// (inner-join semantics would silently change row counts — and with
    /// them, DP sensitivities — so dangling keys are rejected instead).
    pub fn denormalise(&self, db: &Database) -> Result<Table> {
        let fact = db.table(&self.fact)?;

        // Per foreign key: the dimension table, the fact-side column
        // position, and a lookup from fact-side domain index to the
        // matching dimension row.
        struct Join<'a> {
            dim: &'a Table,
            fact_pos: usize,
            // Indexed by the fact attribute's domain index; `None` marks a
            // key value no dimension row carries.
            row_for_key: Vec<Option<usize>>,
        }

        let mut joins = Vec::with_capacity(self.foreign_keys.len());
        for fk in &self.foreign_keys {
            let fact_pos = fact.schema().position(&fk.fact_attribute)?;
            let fact_attr = &fact.schema().attributes()[fact_pos];
            let dim = db.table(&fk.dimension)?;
            let key_pos = dim.schema().position(&fk.dimension_key)?;
            let key_attr = &dim.schema().attributes()[key_pos];

            // Dimension key value -> dimension row, rejecting duplicates.
            let mut by_value: HashMap<Value, usize> = HashMap::new();
            let key_col = dim.column_at(key_pos);
            for (row, &idx) in key_col.iter().enumerate() {
                let value = key_attr.value_at(idx as usize);
                if by_value.insert(value.clone(), row).is_some() {
                    return Err(EngineError::DuplicateDimensionKey {
                        dimension: fk.dimension.clone(),
                        value: value.to_string(),
                    });
                }
            }

            let row_for_key = (0..fact_attr.domain_size())
                .map(|i| by_value.get(&fact_attr.value_at(i)).copied())
                .collect();
            joins.push(Join {
                dim,
                fact_pos,
                row_for_key,
            });
        }

        // Widened schema: all fact attributes (keys included, so the fact's
        // own query surface is untouched), then each dimension's non-key
        // attributes under their widened names.
        let mut attributes = fact.schema().attributes().to_vec();
        // (dimension position in `joins`, attribute position in dimension)
        let mut widened_sources: Vec<(usize, usize)> = Vec::new();
        for (j, fk) in self.foreign_keys.iter().enumerate() {
            for (pos, attr) in joins[j].dim.schema().attributes().iter().enumerate() {
                if attr.name == fk.dimension_key {
                    continue;
                }
                let mut widened = attr.clone();
                widened.name = Self::widened_name(&fk.dimension, &attr.name);
                if attributes.iter().any(|a| a.name == widened.name) {
                    return Err(EngineError::InvalidStarSchema(format!(
                        "duplicate attribute {} on widened table {}",
                        widened.name, self.name
                    )));
                }
                attributes.push(widened);
                widened_sources.push((j, pos));
            }
        }

        let mut out = Table::new(&self.name, Schema::new(attributes));
        let fact_arity = fact.schema().arity();
        let mut encoded = vec![0u32; fact_arity + widened_sources.len()];
        for row in 0..fact.num_rows() {
            for (pos, cell) in encoded.iter_mut().enumerate().take(fact_arity) {
                *cell = fact.column_at(pos)[row];
            }
            // Resolve each join once per row; widened cells copy the
            // dimension's encoded indices verbatim.
            let mut dim_rows = Vec::with_capacity(joins.len());
            for (fk, join) in self.foreign_keys.iter().zip(&joins) {
                let key_idx = fact.column_at(join.fact_pos)[row] as usize;
                match join.row_for_key[key_idx] {
                    Some(dim_row) => dim_rows.push(dim_row),
                    None => {
                        let fact_attr = &fact.schema().attributes()[join.fact_pos];
                        return Err(EngineError::ForeignKeyViolation {
                            table: self.fact.clone(),
                            attribute: fk.fact_attribute.clone(),
                            value: fact_attr.value_at(key_idx).to_string(),
                        });
                    }
                }
            }
            for (slot, &(j, pos)) in widened_sources.iter().enumerate() {
                encoded[fact_arity + slot] = joins[j].dim.column_at(pos)[dim_rows[j]];
            }
            out.insert_encoded_row(&encoded)?;
        }
        Ok(out)
    }

    /// Denormalises and registers the widened table in the database.
    /// Replaces any existing table of the same name.
    pub fn fold(&self, db: &mut Database) -> Result<()> {
        let widened = self.denormalise(db)?;
        db.add_table(widened);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, AttributeType};

    fn star_db() -> Database {
        let mut db = Database::new();

        let mut region = Table::new(
            "region",
            Schema::new(vec![
                Attribute::new("id", AttributeType::integer(0, 3)),
                Attribute::new("name", AttributeType::categorical(&["NA", "EU", "APAC"])),
            ]),
        );
        for (id, name) in [(0, "NA"), (1, "EU"), (2, "APAC"), (3, "EU")] {
            region
                .insert_row(&[Value::Int(id), Value::text(name)])
                .unwrap();
        }
        db.add_table(region);

        let mut sales = Table::new(
            "sales",
            Schema::new(vec![
                Attribute::new("region_id", AttributeType::integer(0, 3)),
                Attribute::new("amount", AttributeType::integer(1, 9)),
            ]),
        );
        for (rid, amount) in [(0, 5), (1, 3), (3, 7), (2, 1), (0, 9)] {
            sales
                .insert_row(&[Value::Int(rid), Value::Int(amount)])
                .unwrap();
        }
        db.add_table(sales);
        db
    }

    #[test]
    fn fold_widens_fact_with_dimension_attributes() {
        let mut db = star_db();
        let star = StarSchema::new("sales_star", "sales").join("region_id", "region", "id");
        star.fold(&mut db).unwrap();

        let widened = db.table("sales_star").unwrap();
        assert_eq!(widened.num_rows(), 5);
        let names: Vec<&str> = widened
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["region_id", "amount", "region.name"]);
        // Row 2 joins region_id=3 -> region "EU".
        assert_eq!(
            widened.value_at(2, "region.name").unwrap(),
            Value::text("EU")
        );
        // Fact columns are untouched.
        assert_eq!(widened.value_at(4, "amount").unwrap(), Value::Int(9));
    }

    #[test]
    fn fold_matches_hand_denormalisation() {
        let mut db = star_db();
        let star = StarSchema::new("sales_star", "sales").join("region_id", "region", "id");
        let folded = star.denormalise(&db).unwrap();

        let mut hand = Table::new("sales_star", folded.schema().clone());
        let names = ["NA", "EU", "EU", "APAC", "NA"];
        let sales = db.table("sales").unwrap().clone();
        for (row, name) in names.iter().enumerate().take(sales.num_rows()) {
            hand.insert_row(&[
                sales.value_at(row, "region_id").unwrap(),
                sales.value_at(row, "amount").unwrap(),
                Value::text(name),
            ])
            .unwrap();
        }
        for pos in 0..folded.schema().arity() {
            assert_eq!(folded.column_at(pos), hand.column_at(pos));
        }
        star.fold(&mut db).unwrap();
    }

    #[test]
    fn dangling_key_is_rejected() {
        let mut db = star_db();
        // A region id with no dimension row.
        let mut region = db.table("region").unwrap().clone();
        region = {
            let schema = region.schema().clone();
            let mut fresh = Table::new("region", schema);
            // Keep only ids 0..=2: key 3 dangles.
            for (id, name) in [(0, "NA"), (1, "EU"), (2, "APAC")] {
                fresh
                    .insert_row(&[Value::Int(id), Value::text(name)])
                    .unwrap();
            }
            fresh
        };
        db.add_table(region);
        let star = StarSchema::new("sales_star", "sales").join("region_id", "region", "id");
        assert!(matches!(
            star.denormalise(&db),
            Err(EngineError::ForeignKeyViolation { .. })
        ));
    }

    #[test]
    fn duplicate_dimension_key_is_rejected() {
        let mut db = star_db();
        let mut region = db.table("region").unwrap().clone();
        region
            .insert_row(&[Value::Int(0), Value::text("EU")])
            .unwrap();
        db.add_table(region);
        let star = StarSchema::new("sales_star", "sales").join("region_id", "region", "id");
        assert!(matches!(
            star.denormalise(&db),
            Err(EngineError::DuplicateDimensionKey { .. })
        ));
    }

    #[test]
    fn unknown_pieces_error() {
        let db = star_db();
        assert!(StarSchema::new("s", "nope")
            .join("region_id", "region", "id")
            .denormalise(&db)
            .is_err());
        assert!(StarSchema::new("s", "sales")
            .join("nope", "region", "id")
            .denormalise(&db)
            .is_err());
        assert!(StarSchema::new("s", "sales")
            .join("region_id", "nope", "id")
            .denormalise(&db)
            .is_err());
    }
}
