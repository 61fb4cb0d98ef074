//! Property suite: batched columnar execution is bit-identical to the
//! engine's row-at-a-time evaluation over random tables, random predicate
//! trees, random batches, random shard partitions, every column encoding,
//! and random weighted delta segments from sealed epochs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprov_engine::database::Database;
use dprov_engine::exec::execute;
use dprov_engine::expr::Predicate;
use dprov_engine::histogram::Histogram;
use dprov_engine::query::Query;
use dprov_engine::schema::{Attribute, AttributeType, Schema};
use dprov_engine::table::Table;
use dprov_engine::value::Value;
use dprov_engine::view::ViewDef;
use dprov_exec::{ColumnEncoding, ColumnarExecutor, EpochSegment, ExecConfig};

/// The encoding axis of the matrix ("row" is the engine reference every
/// case compares against).
const ENCODINGS: [ColumnEncoding; 4] = [
    ColumnEncoding::Plain,
    ColumnEncoding::BitPacked,
    ColumnEncoding::Dictionary,
    ColumnEncoding::Auto,
];

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::new("a", AttributeType::integer(0, 19)),
        Attribute::new("b", AttributeType::categorical(&["w", "x", "y", "z"])),
        Attribute::new("c", AttributeType::binned_integer(0, 49, 5)),
    ])
}

fn random_row(rng: &mut StdRng) -> Vec<u32> {
    vec![
        rng.gen_range(0..20u32),
        rng.gen_range(0..4u32),
        rng.gen_range(0..10u32),
    ]
}

fn random_db(rng: &mut StdRng, rows: usize) -> Database {
    let mut table = Table::new("t", schema());
    for _ in 0..rows {
        table.insert_encoded_row(&random_row(rng)).unwrap();
    }
    let mut db = Database::new();
    db.add_table(table);
    db
}

/// Seals `epochs` random update epochs into the executor (weighted delta
/// segments: `+1` inserts, `-1` delete-by-value of currently live rows)
/// and mirrors them into the engine database by physical rebuild, so the
/// row path stays the ground truth.
fn apply_random_epochs(rng: &mut StdRng, db: &mut Database, exec: &ColumnarExecutor, epochs: u64) {
    let mut live: Vec<Vec<u32>> = {
        let t = db.table("t").unwrap();
        (0..t.num_rows())
            .map(|r| (0..3).map(|c| t.column_at(c)[r]).collect())
            .collect()
    };
    for epoch in 1..=epochs {
        let inserts: Vec<Vec<u32>> = (0..rng.gen_range(0..16usize))
            .map(|_| random_row(rng))
            .collect();
        let mut deletes: Vec<Vec<u32>> = Vec::new();
        for _ in 0..rng.gen_range(0..8usize) {
            if live.is_empty() {
                break;
            }
            let victim = rng.gen_range(0..live.len());
            deletes.push(live.swap_remove(victim));
        }
        live.extend(inserts.iter().cloned());

        let mut columns: Vec<Vec<u32>> = vec![Vec::new(); 3];
        let mut weights = Vec::new();
        for row in inserts.iter().chain(&deletes) {
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        weights.extend(std::iter::repeat_n(1.0, inserts.len()));
        weights.extend(std::iter::repeat_n(-1.0, deletes.len()));
        exec.append_epoch(
            epoch,
            &[EpochSegment {
                table: "t".to_owned(),
                columns,
                weights,
            }],
        )
        .unwrap();

        let table = db.table_mut("t").unwrap();
        let removed = table.apply_encoded_updates(&inserts, &deletes).unwrap();
        assert_eq!(removed, deletes.len(), "every delete targets a live row");
    }
}

/// A random predicate tree of bounded depth over the fixed schema,
/// including degenerate leaves (empty ranges, out-of-domain constants,
/// ranges over categorical attributes).
fn random_predicate(rng: &mut StdRng, depth: usize) -> Predicate {
    let leaf = depth == 0 || rng.gen_range(0..10usize) < 4;
    if leaf {
        match rng.gen_range(0..5usize) {
            0 => {
                let lo = rng.gen_range(-5..25i64);
                let hi = lo + rng.gen_range(-2..20i64);
                Predicate::range("a", lo, hi)
            }
            1 => {
                let lo = rng.gen_range(-10..60i64);
                let hi = lo + rng.gen_range(0..30i64);
                Predicate::range("c", lo, hi)
            }
            2 => {
                let labels = ["w", "x", "y", "z", "not-a-label"];
                Predicate::equals("b", labels[rng.gen_range(0..labels.len())])
            }
            3 => Predicate::equals("a", rng.gen_range(-3..23i64)),
            _ => {
                let n = rng.gen_range(0..4usize);
                Predicate::InSet {
                    attribute: "a".to_owned(),
                    values: (0..n)
                        .map(|_| Value::Int(rng.gen_range(-3..23i64)))
                        .collect(),
                }
            }
        }
    } else {
        match rng.gen_range(0..3usize) {
            0 => Predicate::And(
                (0..rng.gen_range(1..4usize))
                    .map(|_| random_predicate(rng, depth - 1))
                    .collect(),
            ),
            1 => Predicate::Or(
                (0..rng.gen_range(1..4usize))
                    .map(|_| random_predicate(rng, depth - 1))
                    .collect(),
            ),
            _ => Predicate::Not(Box::new(random_predicate(rng, depth - 1))),
        }
    }
}

fn random_query(rng: &mut StdRng) -> Query {
    let base = match rng.gen_range(0..4usize) {
        0 => Query::count("t"),
        1 => Query::sum("t", "a"),
        2 => Query::sum("t", "c"),
        _ => Query::avg("t", "a"),
    };
    base.filter(random_predicate(rng, 3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full matrix: batched == single-query columnar == row-at-a-time,
    /// bit for bit, for every encoding, at a random shard
    /// partition and batch composition, over a table carrying random
    /// weighted delta segments from sealed epochs.
    #[test]
    fn full_matrix_is_bit_identical_to_the_row_path(
        seed in 0u64..u64::MAX / 2,
        rows in 0usize..250,
        shard_rows in 1usize..80,
        batch_size in 1usize..12,
        encoding_idx in 0usize..ENCODINGS.len(),
        epochs in 0u64..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = random_db(&mut rng, rows);
        let exec = ColumnarExecutor::ingest(&db, &ExecConfig {
            shard_rows,
            encoding: ENCODINGS[encoding_idx],
        });
        apply_random_epochs(&mut rng, &mut db, &exec, epochs);
        let batch: Vec<Query> = (0..batch_size).map(|_| random_query(&mut rng)).collect();

        let batched = exec.execute_batch(&batch).unwrap();
        for (query, &from_batch) in batch.iter().zip(&batched) {
            let single = exec.execute(query).unwrap();
            let reference = execute(&db, query).unwrap().scalar().unwrap();
            prop_assert_eq!(
                from_batch.to_bits(), reference.to_bits(),
                "batched {} != row-at-a-time {} for {} ({:?})",
                from_batch, reference, query.describe(), ENCODINGS[encoding_idx]
            );
            prop_assert_eq!(single.to_bits(), reference.to_bits());
        }
        // One scan per batch for the shared table (plus one per single
        // re-execution above).
        prop_assert_eq!(exec.stats().scans, 1 + batch_size as u64);
    }

    /// Histogram materialisation through the executor equals the engine's
    /// row loop for full-domain and clipped views at any shard size and
    /// encoding, including over sealed delta epochs.
    #[test]
    fn histogram_materialisation_matches_the_engine(
        seed in 0u64..u64::MAX / 2,
        rows in 0usize..250,
        shard_rows in 1usize..80,
        encoding_idx in 0usize..ENCODINGS.len(),
        epochs in 0u64..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = random_db(&mut rng, rows);
        let exec = ColumnarExecutor::ingest(&db, &ExecConfig {
            shard_rows,
            encoding: ENCODINGS[encoding_idx],
        });
        apply_random_epochs(&mut rng, &mut db, &exec, epochs);
        let lo = rng.gen_range(0..40i64);
        let views = vec![
            ViewDef::histogram("v_a", "t", &["a"]),
            ViewDef::histogram("v_ab", "t", &["a", "b"]),
            ViewDef::histogram("v_cb", "t", &["c", "b"]),
            ViewDef::clipped("v_clip", "t", "c", lo, lo + rng.gen_range(0..15i64)),
        ];
        let shared = exec.materialize_histograms(&views).unwrap();
        for (view, columnar) in views.iter().zip(&shared) {
            let reference = Histogram::materialize(&db, view).unwrap();
            prop_assert_eq!(columnar, &reference, "view {}", &view.name);
        }
        prop_assert_eq!(exec.stats().histogram_scans, 1);
    }
}
