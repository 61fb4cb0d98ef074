//! Synthetic stand-in for the UCI Adult census dataset.
//!
//! Matches the Adult schema the paper queries (15 attributes, 45,222 usable
//! rows): demographic attributes with their real domain sizes and marginals
//! loosely matching the published dataset statistics.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::database::Database;
use crate::schema::{Attribute, AttributeType, Schema};
use crate::table::Table;

use super::{clamped_normal, weighted_index};

/// The table name used by the Adult workloads.
pub const ADULT_TABLE: &str = "adult";

const WORKCLASS: &[&str] = &[
    "Private",
    "Self-emp-not-inc",
    "Self-emp-inc",
    "Federal-gov",
    "Local-gov",
    "State-gov",
    "Without-pay",
    "Never-worked",
];
const EDUCATION: &[&str] = &[
    "Bachelors",
    "Some-college",
    "11th",
    "HS-grad",
    "Prof-school",
    "Assoc-acdm",
    "Assoc-voc",
    "9th",
    "7th-8th",
    "12th",
    "Masters",
    "1st-4th",
    "10th",
    "Doctorate",
    "5th-6th",
    "Preschool",
];
const MARITAL: &[&str] = &[
    "Married-civ-spouse",
    "Divorced",
    "Never-married",
    "Separated",
    "Widowed",
    "Married-spouse-absent",
    "Married-AF-spouse",
];
const OCCUPATION: &[&str] = &[
    "Tech-support",
    "Craft-repair",
    "Other-service",
    "Sales",
    "Exec-managerial",
    "Prof-specialty",
    "Handlers-cleaners",
    "Machine-op-inspct",
    "Adm-clerical",
    "Farming-fishing",
    "Transport-moving",
    "Priv-house-serv",
    "Protective-serv",
    "Armed-Forces",
];
const RELATIONSHIP: &[&str] = &[
    "Wife",
    "Own-child",
    "Husband",
    "Not-in-family",
    "Other-relative",
    "Unmarried",
];
const RACE: &[&str] = &[
    "White",
    "Asian-Pac-Islander",
    "Amer-Indian-Eskimo",
    "Other",
    "Black",
];
const SEX: &[&str] = &["Female", "Male"];
const INCOME: &[&str] = &["<=50K", ">50K"];

/// The Adult relation schema.
#[must_use]
pub(crate) fn adult_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("age", AttributeType::integer(17, 90)),
        Attribute::new("workclass", AttributeType::categorical(WORKCLASS)),
        Attribute::new("education", AttributeType::categorical(EDUCATION)),
        Attribute::new("education_num", AttributeType::integer(1, 16)),
        Attribute::new("marital_status", AttributeType::categorical(MARITAL)),
        Attribute::new("occupation", AttributeType::categorical(OCCUPATION)),
        Attribute::new("relationship", AttributeType::categorical(RELATIONSHIP)),
        Attribute::new("race", AttributeType::categorical(RACE)),
        Attribute::new("sex", AttributeType::categorical(SEX)),
        Attribute::new(
            "capital_gain",
            AttributeType::binned_integer(0, 99_999, 1000),
        ),
        Attribute::new("capital_loss", AttributeType::binned_integer(0, 4_499, 100)),
        Attribute::new("hours_per_week", AttributeType::integer(1, 99)),
        Attribute::new("income", AttributeType::categorical(INCOME)),
    ])
}

/// Generates a synthetic Adult table with `rows` rows under the given seed.
#[must_use]
pub(crate) fn adult_table(rows: usize, seed: u64) -> Table {
    let schema = adult_schema();
    let mut table = Table::new(ADULT_TABLE, schema.clone());
    let mut rng = StdRng::seed_from_u64(seed);

    // Approximate marginal weights from the published dataset statistics.
    let workclass_w = [0.74, 0.08, 0.035, 0.03, 0.065, 0.04, 0.0005, 0.0005];
    let education_w = [
        0.165, 0.225, 0.037, 0.325, 0.018, 0.033, 0.043, 0.016, 0.02, 0.013, 0.054, 0.005, 0.029,
        0.012, 0.01, 0.002,
    ];
    let marital_w = [0.46, 0.136, 0.328, 0.031, 0.03, 0.013, 0.001];
    let occupation_w = [
        0.03, 0.135, 0.108, 0.12, 0.134, 0.136, 0.045, 0.066, 0.124, 0.033, 0.052, 0.005, 0.021,
        0.0005,
    ];
    let relationship_w = [0.048, 0.155, 0.405, 0.255, 0.03, 0.107];
    let race_w = [0.854, 0.031, 0.0096, 0.0083, 0.096];
    let sex_w = [0.33, 0.67];

    for _ in 0..rows {
        let age = clamped_normal(&mut rng, 38.6, 13.6, 17, 90);
        let workclass = weighted_index(&mut rng, &workclass_w);
        let education = weighted_index(&mut rng, &education_w);
        // education_num correlates with the education category.
        let education_num = (16 - (education as i64 * 16 / EDUCATION.len() as i64)).clamp(1, 16);
        let marital = weighted_index(&mut rng, &marital_w);
        let occupation = weighted_index(&mut rng, &occupation_w);
        let relationship = weighted_index(&mut rng, &relationship_w);
        let race = weighted_index(&mut rng, &race_w);
        let sex = weighted_index(&mut rng, &sex_w);
        let capital_gain = if weighted_index(&mut rng, &[0.92, 0.08]) == 1 {
            clamped_normal(&mut rng, 12_000.0, 15_000.0, 0, 99_999)
        } else {
            0
        };
        let capital_loss = if weighted_index(&mut rng, &[0.95, 0.05]) == 1 {
            clamped_normal(&mut rng, 1_900.0, 400.0, 0, 4_499)
        } else {
            0
        };
        let hours = clamped_normal(&mut rng, 40.4, 12.3, 1, 99);
        // Income correlates with education_num and hours (coarsely).
        let income_p_high = 0.05 + 0.02 * education_num as f64 + 0.002 * hours as f64;
        let income = weighted_index(&mut rng, &[1.0 - income_p_high, income_p_high]);

        let encoded = [
            (age - 17) as u32,
            workclass as u32,
            education as u32,
            (education_num - 1) as u32,
            marital as u32,
            occupation as u32,
            relationship as u32,
            race as u32,
            sex as u32,
            (capital_gain / 1000) as u32,
            (capital_loss / 100) as u32,
            (hours - 1) as u32,
            income as u32,
        ];
        table
            .insert_encoded_row(&encoded)
            .expect("generated row matches schema");
    }
    table
}

/// Generates a database containing only the Adult table.
#[must_use]
pub fn adult_database(rows: usize, seed: u64) -> Database {
    let mut db = Database::new();
    db.add_table(adult_table(rows, seed));
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::query::Query;

    #[test]
    fn schema_matches_expected_domains() {
        let s = adult_schema();
        assert_eq!(s.arity(), 13);
        assert_eq!(s.attribute("age").unwrap().domain_size(), 74);
        assert_eq!(s.attribute("education").unwrap().domain_size(), 16);
        assert_eq!(s.attribute("sex").unwrap().domain_size(), 2);
        assert_eq!(s.attribute("hours_per_week").unwrap().domain_size(), 99);
        assert_eq!(s.attribute("capital_gain").unwrap().domain_size(), 100);
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let a = adult_table(500, 7);
        let b = adult_table(500, 7);
        let c = adult_table(500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_rows(), 500);
    }

    #[test]
    fn marginals_are_plausible() {
        let db = adult_database(5_000, 42);
        let total = execute(&db, &Query::count(ADULT_TABLE))
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(total, 5_000.0);

        // Majority of working-age adults work 30-60 hours.
        let hours = execute(
            &db,
            &Query::range_count(ADULT_TABLE, "hours_per_week", 30, 60),
        )
        .unwrap()
        .scalar()
        .unwrap();
        assert!(hours / total > 0.6, "hours fraction {}", hours / total);

        // Age is concentrated between 20 and 60.
        let age = execute(&db, &Query::range_count(ADULT_TABLE, "age", 20, 60))
            .unwrap()
            .scalar()
            .unwrap();
        assert!(age / total > 0.8);
    }
}
