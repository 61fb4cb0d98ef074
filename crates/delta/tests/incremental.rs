//! Property suite: incremental maintenance is bit-identical to a full
//! rebuild over random tables, random update batches and random epoch
//! counts — for the exact histograms (patch vs re-materialise) and for
//! the columnar scan path (weighted delta segments vs a physically
//! rebuilt table). A differential battery checks the newest-first delete
//! validation and seal against an oracle that counts every copy and
//! removes the first match.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprov_delta::{build_segments, patch_histogram, DeltaError, UpdateBatch, UpdateLog};
use dprov_engine::database::Database;
use dprov_engine::exec::execute;
use dprov_engine::histogram::Histogram;
use dprov_engine::query::Query;
use dprov_engine::schema::{Attribute, AttributeType, Schema};
use dprov_engine::table::Table;
use dprov_engine::value::Value;
use dprov_engine::view::ViewDef;
use dprov_exec::{ColumnarExecutor, EncodingKind, EpochSegment, ExecConfig};

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::new("a", AttributeType::integer(0, 14)),
        Attribute::new("b", AttributeType::categorical(&["x", "y", "z"])),
        Attribute::new("c", AttributeType::binned_integer(0, 29, 5)),
    ])
}

fn random_db(rng: &mut StdRng, rows: usize) -> Database {
    let mut table = Table::new("t", schema());
    for _ in 0..rows {
        table
            .insert_encoded_row(&[
                rng.gen_range(0..15u32),
                rng.gen_range(0..3u32),
                rng.gen_range(0..6u32),
            ])
            .unwrap();
    }
    let mut db = Database::new();
    db.add_table(table);
    db
}

fn decode_row(row: &[u32]) -> Vec<Value> {
    let schema = schema();
    schema
        .attributes()
        .iter()
        .zip(row)
        .map(|(attr, &idx)| attr.value_at(idx as usize))
        .collect()
}

/// A random batch against the *current logical state* `live` (a physically
/// maintained mirror): inserts are random rows, deletes pick existing
/// rows, so validation always passes.
fn random_batch(rng: &mut StdRng, live: &Table) -> UpdateBatch {
    let n_ins = rng.gen_range(0..6usize);
    let inserts: Vec<Vec<Value>> = (0..n_ins)
        .map(|_| {
            decode_row(&[
                rng.gen_range(0..15u32),
                rng.gen_range(0..3u32),
                rng.gen_range(0..6u32),
            ])
        })
        .collect();
    let max_del = live.num_rows().min(4);
    let n_del = if max_del == 0 {
        0
    } else {
        rng.gen_range(0..=max_del)
    };
    // Pick delete victims among live rows, without replacement.
    let mut victims: Vec<usize> = (0..live.num_rows()).collect();
    let mut deletes = Vec::with_capacity(n_del);
    for _ in 0..n_del {
        let pick = rng.gen_range(0..victims.len());
        let row = victims.swap_remove(pick);
        deletes.push(live.row(row));
    }
    UpdateBatch {
        table: "t".to_owned(),
        inserts,
        deletes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Patched histograms == full rebuild, bit for bit, over random
    /// tables, random batches and random epoch counts. The columnar scan
    /// path over the appended delta segments agrees too.
    #[test]
    fn patched_state_is_bit_identical_to_full_rebuild(
        seed in 0u64..u64::MAX / 2,
        rows in 0usize..120,
        epochs in 1usize..5,
        batches_per_epoch in 1usize..4,
        shard_rows in 1usize..64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(&mut rng, rows);
        let exec = ColumnarExecutor::ingest(&db, &ExecConfig { shard_rows, ..ExecConfig::default() });
        let views = vec![
            ViewDef::histogram("v_a", "t", &["a"]),
            ViewDef::histogram("v_ab", "t", &["a", "b"]),
            ViewDef::clipped("v_clip", "t", "a", 3, 11),
        ];
        let mut patched: Vec<Histogram> = views
            .iter()
            .map(|v| Histogram::materialize(&db, v).unwrap())
            .collect();

        // `sealed_db` mirrors the engine database the real system
        // maintains: updated only at epoch seals. `live` additionally has
        // the pending batches applied (the logical state deletes validate
        // against — used here to pick guaranteed-present delete victims).
        let mut sealed_db = db.clone();
        let mut live = db.table("t").unwrap().clone();
        let mut log = UpdateLog::new();
        let sch = schema();

        for _ in 0..epochs {
            for _ in 0..batches_per_epoch {
                let batch = random_batch(&mut rng, &live);
                if batch.is_empty() {
                    continue;
                }
                let encoded = log
                    .encode_batch(&sealed_db, &batch)
                    .expect("victims are picked from the live state");
                live.apply_encoded_updates(&encoded.inserts, &encoded.deletes)
                    .unwrap();
                log.push_pending(encoded);
            }
            let sealed = log.seal();
            // Incremental path: segments into the executor, patches into
            // the histograms.
            let segments = build_segments(&sealed_db, &sealed.batches);
            exec.append_epoch(sealed.epoch, &segments).unwrap();
            for (view, hist) in views.iter().zip(&mut patched) {
                patch_histogram(hist, view, &sch, &sealed.batches).unwrap();
            }
            // Full-rebuild oracle: apply the sealed batches physically.
            for batch in &sealed.batches {
                sealed_db
                    .table_mut("t")
                    .unwrap()
                    .apply_encoded_updates(&batch.inserts, &batch.deletes)
                    .unwrap();
            }
            sealed_db.advance_epoch();

            // Bit-identical counts after every epoch.
            for (view, hist) in views.iter().zip(&patched) {
                let rebuilt = Histogram::materialize(&sealed_db, view).unwrap();
                prop_assert_eq!(hist, &rebuilt, "view {} epoch {}", &view.name, sealed.epoch);
            }
            // The executor's shared-scan materialisation agrees as well.
            let from_exec = exec.materialize_histograms(&views).unwrap();
            for (hist, exec_hist) in patched.iter().zip(&from_exec) {
                prop_assert_eq!(hist, exec_hist);
            }
        }

        // Scan path: weighted delta segments answer like the rebuilt table.
        for q in [
            Query::count("t"),
            Query::range_count("t", "a", 2, 9),
            Query::sum("t", "c"),
            Query::avg("t", "a"),
        ] {
            let columnar = exec.execute(&q).unwrap();
            let reference = execute(&sealed_db, &q).unwrap().scalar().unwrap();
            prop_assert_eq!(
                columnar.to_bits(),
                reference.to_bits(),
                "{} diverged: {} vs {}",
                q.describe(),
                columnar,
                reference
            );
        }
        prop_assert_eq!(exec.sealed_epoch(), epochs as u64);
    }
}

/// The update path before newest-first probing, kept as the oracle: every
/// delete counts all copies in the sealed table, and a seal removes the
/// first matching row. Rows are stored row-major in insertion order.
#[derive(Default)]
struct FullCountOracle {
    sealed: Rows,
    /// Pending `(inserts, deletes)`, in submission order.
    pending: Vec<(Rows, Rows)>,
}

type Rows = Vec<Vec<u32>>;

impl FullCountOracle {
    fn count(rows: &[Vec<u32>], row: &[u32]) -> i64 {
        rows.iter().filter(|r| r.as_slice() == row).count() as i64
    }

    /// Accepts the batch (making it pending) or names the first delete
    /// that finds no copy, as `UpdateLog::encode_batch` reports it.
    fn submit(&mut self, batch: &UpdateBatch) -> Result<(), DeltaError> {
        let encode =
            |rows: &[Vec<Value>]| -> Rows { rows.iter().map(|row| encode_row(row)).collect() };
        let (inserts, deletes) = (encode(&batch.inserts), encode(&batch.deletes));
        for (i, row) in deletes.iter().enumerate() {
            let mut available = Self::count(&self.sealed, row);
            for (ins, del) in &self.pending {
                available += Self::count(ins, row) - Self::count(del, row);
            }
            available += Self::count(&inserts, row) - Self::count(&deletes[..i], row);
            if available <= 0 {
                return Err(DeltaError::MissingRow {
                    table: batch.table.clone(),
                    row: format!("{:?}", batch.deletes[i]),
                });
            }
        }
        self.pending.push((inserts, deletes));
        Ok(())
    }

    fn seal(&mut self) {
        for (inserts, deletes) in std::mem::take(&mut self.pending) {
            self.sealed.extend(inserts);
            for row in deletes {
                let first = self.sealed.iter().position(|r| *r == row).unwrap();
                self.sealed.remove(first);
            }
        }
    }

    fn database(&self) -> Database {
        let mut table = Table::new("t", schema());
        for row in &self.sealed {
            table.insert_encoded_row(row).unwrap();
        }
        let mut db = Database::new();
        db.add_table(table);
        db
    }
}

fn encode_row(row: &[Value]) -> Vec<u32> {
    schema()
        .attributes()
        .iter()
        .zip(row)
        .map(|(attr, value)| attr.index_of(value).unwrap() as u32)
        .collect()
}

/// A row from a pool of four, so small tables hold many duplicates.
fn pooled_row(rng: &mut StdRng) -> Vec<u32> {
    let k = rng.gen_range(0..4u32);
    vec![k, k % 3, k % 2]
}

fn sorted_rows(table: &Table) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = (0..table.num_rows())
        .map(|row| table.columns().iter().map(|col| col[row]).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// A batch whose deletes mix setup rows, absent rows, rows pending
/// batches insert, rows this batch inserts earlier and repeats of the
/// previous delete. Many are refused; the rest are accepted.
fn mixed_batch(rng: &mut StdRng, setup: &[Vec<u32>], pending: &[UpdateBatch]) -> UpdateBatch {
    let inserts: Vec<Vec<Value>> = (0..rng.gen_range(0..4usize))
        .map(|_| decode_row(&pooled_row(rng)))
        .collect();
    let pending_rows: Vec<&Vec<Value>> = pending.iter().flat_map(|b| &b.inserts).collect();
    let mut deletes: Vec<Vec<Value>> = Vec::new();
    for _ in 0..rng.gen_range(0..5usize) {
        let row = match rng.gen_range(0..5u32) {
            0 if !setup.is_empty() => decode_row(&setup[rng.gen_range(0..setup.len())]),
            1 => decode_row(&[
                rng.gen_range(0..15u32),
                rng.gen_range(0..3u32),
                rng.gen_range(0..6u32),
            ]),
            2 if !pending_rows.is_empty() => {
                pending_rows[rng.gen_range(0..pending_rows.len())].clone()
            }
            3 if !inserts.is_empty() => inserts[rng.gen_range(0..inserts.len())].clone(),
            4 if !deletes.is_empty() => deletes[deletes.len() - 1].clone(),
            _ => decode_row(&pooled_row(rng)),
        };
        deletes.push(row);
    }
    UpdateBatch {
        table: "t".to_owned(),
        inserts,
        deletes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Newest-first delete validation and seal agree with the full-count,
    /// first-match oracle: the same accept or refuse decision (and the
    /// same missing row) for every batch, and after every seal the same
    /// row multiset and the same histograms, patched or rebuilt.
    #[test]
    fn newest_first_deletes_match_the_full_count_oracle(
        seed in 0u64..u64::MAX / 2,
        rows in 0usize..24,
        epochs in 1usize..5,
        batches_per_epoch in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let setup: Vec<Vec<u32>> = (0..rows).map(|_| pooled_row(&mut rng)).collect();
        let mut oracle = FullCountOracle { sealed: setup.clone(), ..Default::default() };
        let mut db = oracle.database();
        let views = [
            ViewDef::histogram("v_a", "t", &["a"]),
            ViewDef::histogram("v_abc", "t", &["a", "b", "c"]),
        ];
        let mut patched: Vec<Histogram> = views
            .iter()
            .map(|v| Histogram::materialize(&db, v).unwrap())
            .collect();
        let mut log = UpdateLog::new();
        let mut pending: Vec<UpdateBatch> = Vec::new();
        let (mut accepted, mut refused) = (0usize, 0usize);

        for _ in 0..epochs {
            for _ in 0..batches_per_epoch {
                let batch = mixed_batch(&mut rng, &setup, &pending);
                if batch.is_empty() {
                    continue;
                }
                let production = log.encode_batch(&db, &batch);
                let expected = oracle.submit(&batch);
                match (production, expected) {
                    (Ok(encoded), Ok(())) => {
                        let (inserts, deletes) = oracle.pending.last().unwrap();
                        prop_assert_eq!(&encoded.inserts, inserts);
                        prop_assert_eq!(&encoded.deletes, deletes);
                        log.push_pending(encoded);
                        pending.push(batch);
                        accepted += 1;
                    }
                    (Err(got), Err(want)) => {
                        prop_assert_eq!(got, want);
                        refused += 1;
                    }
                    (got, want) => {
                        prop_assert!(false, "decision diverged: {:?} vs {:?}", got, want);
                    }
                }
            }
            let sealed = log.seal();
            for batch in &sealed.batches {
                db.table_mut("t")
                    .unwrap()
                    .apply_encoded_updates(&batch.inserts, &batch.deletes)
                    .unwrap();
            }
            for (view, hist) in views.iter().zip(&mut patched) {
                patch_histogram(hist, view, &schema(), &sealed.batches).unwrap();
            }
            oracle.seal();
            pending.clear();

            let reference = oracle.database();
            prop_assert_eq!(
                sorted_rows(db.table("t").unwrap()),
                sorted_rows(reference.table("t").unwrap()),
                "row multiset at epoch {}", sealed.epoch
            );
            for (view, hist) in views.iter().zip(&patched) {
                let rebuilt = Histogram::materialize(&db, view).unwrap();
                prop_assert_eq!(&rebuilt, &Histogram::materialize(&reference, view).unwrap());
                prop_assert_eq!(hist, &rebuilt, "view {} epoch {}", &view.name, sealed.epoch);
            }
        }
        prop_assert!(accepted + refused > 0);
    }
}

/// Sealed-epoch delta segments go through the same per-column compression
/// as the base ingest: the appended shard stores *encoded* columns (under
/// the default `Auto` policy a small-domain segment never stays plain),
/// carries its weights, and decodes back to exactly the appended rows.
#[test]
fn sealed_delta_segments_are_stored_encoded() {
    let mut rng = StdRng::seed_from_u64(99);
    let db = random_db(&mut rng, 60);
    let exec = ColumnarExecutor::ingest(&db, &ExecConfig::default());

    let columns: Vec<Vec<u32>> = vec![
        (0..40).map(|i| (i % 15) as u32).collect(),
        (0..40).map(|i| (i % 3) as u32).collect(),
        (0..40).map(|i| (i % 6) as u32).collect(),
    ];
    let weights: Vec<f64> = (0..40)
        .map(|i| if i % 5 == 0 { -1.0 } else { 1.0 })
        .collect();
    exec.append_epoch(
        1,
        &[EpochSegment {
            table: "t".to_owned(),
            columns: columns.clone(),
            weights: weights.clone(),
        }],
    )
    .unwrap();

    exec.with_table("t", |table| {
        let delta: Vec<_> = table.shards().iter().filter(|s| s.epoch() > 0).collect();
        assert_eq!(delta.len(), 1, "one appended shard for the sealed epoch");
        let shard = delta[0];
        assert_eq!(shard.epoch(), 1);
        assert_eq!(shard.weights(), Some(&weights[..]));
        for (pos, expected) in columns.iter().enumerate() {
            let col = shard.column(pos);
            assert_ne!(
                col.kind(),
                EncodingKind::Plain,
                "delta column {pos} must arrive compressed"
            );
            assert_eq!(&col.to_vec(), expected, "column {pos} decodes losslessly");
        }
        assert!(
            shard.encoded_bytes() < shard.plain_bytes(),
            "encoded delta shard is smaller than the plain layout"
        );
    })
    .unwrap();
}
