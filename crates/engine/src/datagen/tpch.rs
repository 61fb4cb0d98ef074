//! Synthetic stand-in for the TPC-H benchmark data.
//!
//! The paper loads TPC-H SF-1 (1 GB) into PostgreSQL and runs its range
//! workloads over the fact table's low-cardinality attributes. This
//! generator produces a denormalised `lineitem` relation with the TPC-H
//! attribute domains (quantity, discount, tax, flags, modes, priorities);
//! the row count is configurable so tests can stay small while the
//! benchmark harness can approach SF-1 scale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::database::Database;
use crate::schema::{Attribute, AttributeType, Schema};
use crate::table::Table;

use super::{clamped_normal, weighted_index};

/// The table name used by the TPC-H workloads.
pub const TPCH_TABLE: &str = "lineitem";

const RETURN_FLAG: &[&str] = &["A", "N", "R"];
const LINE_STATUS: &[&str] = &["F", "O"];
const SHIP_MODE: &[&str] = &["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const SHIP_INSTRUCT: &[&str] = &[
    "COLLECT COD",
    "DELIVER IN PERSON",
    "NONE",
    "TAKE BACK RETURN",
];
const ORDER_PRIORITY: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const ORDER_STATUS: &[&str] = &["F", "O", "P"];
const SEGMENT: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

/// The denormalised lineitem schema.
#[must_use]
pub(crate) fn tpch_lineitem_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("quantity", AttributeType::integer(1, 50)),
        Attribute::new("discount", AttributeType::integer(0, 10)),
        Attribute::new("tax", AttributeType::integer(0, 8)),
        Attribute::new(
            "extendedprice",
            AttributeType::binned_integer(900, 105_000, 1000),
        ),
        Attribute::new("returnflag", AttributeType::categorical(RETURN_FLAG)),
        Attribute::new("linestatus", AttributeType::categorical(LINE_STATUS)),
        Attribute::new("shipmode", AttributeType::categorical(SHIP_MODE)),
        Attribute::new("shipinstruct", AttributeType::categorical(SHIP_INSTRUCT)),
        Attribute::new("orderpriority", AttributeType::categorical(ORDER_PRIORITY)),
        Attribute::new("orderstatus", AttributeType::categorical(ORDER_STATUS)),
        Attribute::new("mktsegment", AttributeType::categorical(SEGMENT)),
        Attribute::new("shipdate_month", AttributeType::integer(1, 84)),
    ])
}

/// Generates a synthetic lineitem table with `rows` rows under the given
/// seed.
#[must_use]
pub(crate) fn tpch_lineitem_table(rows: usize, seed: u64) -> Table {
    let schema = tpch_lineitem_schema();
    let mut table = Table::new(TPCH_TABLE, schema);
    let mut rng = StdRng::seed_from_u64(seed);

    let returnflag_w = [0.25, 0.5, 0.25];
    let linestatus_w = [0.5, 0.5];
    let orderstatus_w = [0.48, 0.48, 0.04];

    for _ in 0..rows {
        let quantity = rng.gen_range(1..=50i64);
        let discount = rng.gen_range(0..=10i64);
        let tax = rng.gen_range(0..=8i64);
        let extendedprice = clamped_normal(&mut rng, 38_000.0, 23_000.0, 900, 105_000);
        let returnflag = weighted_index(&mut rng, &returnflag_w);
        let linestatus = weighted_index(&mut rng, &linestatus_w);
        let shipmode = rng.gen_range(0..SHIP_MODE.len());
        let shipinstruct = rng.gen_range(0..SHIP_INSTRUCT.len());
        let orderpriority = rng.gen_range(0..ORDER_PRIORITY.len());
        let orderstatus = weighted_index(&mut rng, &orderstatus_w);
        let segment = rng.gen_range(0..SEGMENT.len());
        let shipdate_month = rng.gen_range(1..=84i64);

        let encoded = [
            (quantity - 1) as u32,
            discount as u32,
            tax as u32,
            ((extendedprice - 900) / 1000) as u32,
            returnflag as u32,
            linestatus as u32,
            shipmode as u32,
            shipinstruct as u32,
            orderpriority as u32,
            orderstatus as u32,
            segment as u32,
            (shipdate_month - 1) as u32,
        ];
        table
            .insert_encoded_row(&encoded)
            .expect("generated row matches schema");
    }
    table
}

/// Generates a database containing only the lineitem table.
#[must_use]
pub fn tpch_database(rows: usize, seed: u64) -> Database {
    let mut db = Database::new();
    db.add_table(tpch_lineitem_table(rows, seed));
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::query::Query;

    #[test]
    fn schema_domains() {
        let s = tpch_lineitem_schema();
        assert_eq!(s.arity(), 12);
        assert_eq!(s.attribute("quantity").unwrap().domain_size(), 50);
        assert_eq!(s.attribute("discount").unwrap().domain_size(), 11);
        assert_eq!(s.attribute("shipmode").unwrap().domain_size(), 7);
        assert_eq!(s.attribute("shipdate_month").unwrap().domain_size(), 84);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(tpch_lineitem_table(300, 1), tpch_lineitem_table(300, 1));
        assert_ne!(tpch_lineitem_table(300, 1), tpch_lineitem_table(300, 2));
    }

    #[test]
    fn quantity_is_roughly_uniform() {
        let db = tpch_database(10_000, 5);
        let total = execute(&db, &Query::count(TPCH_TABLE))
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(total, 10_000.0);
        let low_half = execute(&db, &Query::range_count(TPCH_TABLE, "quantity", 1, 25))
            .unwrap()
            .scalar()
            .unwrap();
        let frac = low_half / total;
        assert!((0.42..0.58).contains(&frac), "fraction {frac}");
    }
}
