//! Incremental view maintenance: patching exact histograms from delta
//! rows alone.
//!
//! A view's exact histogram is a vector of integer cell counts stored in
//! `f64`. Applying `+1` per inserted row and `−1` per deleted row — with
//! the view's clipping applied exactly as materialisation applies it —
//! yields the same integers a full rebuild over the updated table would
//! produce, and integers up to 2⁵³ are exact in `f64`, so the patched
//! histogram is **bit-identical** to the rebuilt one (the
//! `incremental` proptest suite enforces this).

use dprov_engine::histogram::Histogram;
use dprov_engine::schema::Schema;
use dprov_engine::view::{flat_index, ViewDef, ViewKind};
use dprov_engine::EngineError;

use crate::log::{DeltaError, EncodedBatch, Result};

/// Patches a view's exact histogram in place from the delta rows of the
/// given batches. Only batches targeting the view's base table
/// contribute; others are skipped. The histogram's dimensions must match
/// the view/schema (they were materialised from it).
pub fn patch_histogram(
    hist: &mut Histogram,
    view: &ViewDef,
    schema: &Schema,
    batches: &[EncodedBatch],
) -> Result<()> {
    let dims = view.dimensions(schema).map_err(DeltaError::Engine)?;
    if dims != hist.dims {
        return Err(DeltaError::Engine(EngineError::InvalidQuery(format!(
            "histogram dimensions {:?} do not match view {} ({:?})",
            hist.dims, view.name, dims
        ))));
    }
    let positions = view.positions(schema).map_err(DeltaError::Engine)?;
    let clip = match view.kind {
        ViewKind::Clipped { lower, upper } => {
            let attr = schema
                .attribute(&view.attributes[0])
                .map_err(DeltaError::Engine)?;
            attr.index_range(lower, upper)
        }
        ViewKind::FullDomainHistogram => None,
    };

    let mut cell = vec![0usize; positions.len()];
    let mut apply = |row: &[u32], weight: f64| {
        for (d, &pos) in positions.iter().enumerate() {
            let mut idx = row[pos] as usize;
            if let Some((lo, hi)) = clip {
                idx = idx.clamp(lo, hi);
            }
            cell[d] = idx;
        }
        hist.counts[flat_index(&dims, &cell)] += weight;
    };
    for batch in batches.iter().filter(|b| b.table == view.table) {
        for row in &batch.inserts {
            apply(row, 1.0);
        }
        for row in &batch.deletes {
            apply(row, -1.0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::database::Database;
    use dprov_engine::schema::{Attribute, AttributeType};
    use dprov_engine::table::Table;
    use dprov_engine::value::Value;

    fn setup() -> (Database, Schema) {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(20, 24)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
        ]);
        let mut t = Table::new("adult", schema.clone());
        for (age, sex) in [(20, "F"), (20, "M"), (21, "F"), (24, "M"), (24, "M")] {
            t.insert_row(&[Value::Int(age), Value::text(sex)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        (db, schema)
    }

    fn batch(inserts: Vec<Vec<u32>>, deletes: Vec<Vec<u32>>) -> EncodedBatch {
        EncodedBatch {
            seq: 0,
            table: "adult".to_owned(),
            inserts,
            deletes,
        }
    }

    #[test]
    fn patch_equals_rebuild_for_plain_and_clipped_views() {
        let (mut db, schema) = setup();
        let views = [
            ViewDef::histogram("v_age", "adult", &["age"]),
            ViewDef::histogram("v_age_sex", "adult", &["age", "sex"]),
            ViewDef::clipped("v_clip", "adult", "age", 21, 23),
        ];
        // Insert (22, F) twice, delete one (24, M).
        let b = batch(vec![vec![2, 0], vec![2, 0]], vec![vec![4, 1]]);

        let mut patched: Vec<Histogram> = views
            .iter()
            .map(|v| Histogram::materialize(&db, v).unwrap())
            .collect();
        for (view, hist) in views.iter().zip(&mut patched) {
            patch_histogram(hist, view, &schema, std::slice::from_ref(&b)).unwrap();
        }

        // Physically rebuild.
        db.table_mut("adult")
            .unwrap()
            .apply_encoded_updates(&b.inserts, &b.deletes)
            .unwrap();
        for (view, hist) in views.iter().zip(&patched) {
            let rebuilt = Histogram::materialize(&db, view).unwrap();
            assert_eq!(hist, &rebuilt, "{}", view.name);
        }
    }

    #[test]
    fn batches_for_other_tables_are_skipped_and_dims_are_checked() {
        let (db, schema) = setup();
        let view = ViewDef::histogram("v_age", "adult", &["age"]);
        let mut hist = Histogram::materialize(&db, &view).unwrap();
        let untouched = hist.clone();
        let other = EncodedBatch {
            seq: 0,
            table: "other".to_owned(),
            inserts: vec![vec![0, 0]],
            deletes: Vec::new(),
        };
        patch_histogram(&mut hist, &view, &schema, &[other]).unwrap();
        assert_eq!(hist, untouched);

        let mut wrong = Histogram {
            view: "v_age".to_owned(),
            dims: vec![3],
            counts: vec![0.0; 3],
        };
        assert!(patch_histogram(&mut wrong, &view, &schema, &[]).is_err());
    }
}
