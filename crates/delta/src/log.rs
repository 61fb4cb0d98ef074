//! The epoch-versioned update log.
//!
//! Analyst-facing updates arrive as [`UpdateBatch`]es of decoded values.
//! Validation encodes every row against the table schema and checks
//! delete multiplicities against the *logical* table state (base table
//! plus all pending batches), producing an [`EncodedBatch`] — after which
//! everything downstream (WAL frames, delta segments, histogram patches,
//! recovery replay) is deterministic integer work over encoded rows.
//!
//! Sealing drains the pending batches into a numbered [`SealedEpoch`].
//! The log keeps the sealed history so durable snapshots can rebuild the
//! whole segment/histogram state from scratch; because that history grows
//! with the total number of updates, [`UpdateLog::compact_history`] can
//! merge the epochs below a retention watermark into one baseline epoch
//! whose replay is bit-identical to replaying what it replaced.

use dprov_engine::database::Database;
use dprov_engine::table::Table;
use dprov_engine::value::Value;
use dprov_engine::EngineError;
use dprov_exec::EpochSegment;

/// Errors raised by update validation and sealing.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The engine rejected a row (unknown table/attribute, arity mismatch,
    /// value outside the attribute domain).
    Engine(EngineError),
    /// A delete names a row that does not exist in the logical table state
    /// (base table plus pending updates). Accepting it would drive a
    /// histogram cell negative and break rebuild equivalence.
    MissingRow {
        /// The table the delete targeted.
        table: String,
        /// Human-readable rendering of the missing row.
        row: String,
    },
    /// An update batch was empty (no inserts and no deletes).
    EmptyBatch,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Engine(e) => write!(f, "engine error: {e}"),
            DeltaError::MissingRow { table, row } => {
                write!(f, "delete names a row not present in {table}: {row}")
            }
            DeltaError::EmptyBatch => write!(f, "update batch carries no inserts and no deletes"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<EngineError> for DeltaError {
    fn from(e: EngineError) -> Self {
        DeltaError::Engine(e)
    }
}

/// Result alias for the delta layer.
pub type Result<T> = std::result::Result<T, DeltaError>;

/// One analyst-facing update batch: decoded rows to insert and decoded
/// rows to delete (multiset semantics — each delete removes one matching
/// occurrence).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch {
    /// The updated table.
    pub table: String,
    /// Rows to insert, in order.
    pub inserts: Vec<Vec<Value>>,
    /// Rows to delete (by full-row value match), in order.
    pub deletes: Vec<Vec<Value>>,
}

impl UpdateBatch {
    /// An insert-only batch.
    #[must_use]
    pub fn insert(table: &str, rows: Vec<Vec<Value>>) -> Self {
        UpdateBatch {
            table: table.to_owned(),
            inserts: rows,
            deletes: Vec::new(),
        }
    }

    /// A delete-only batch.
    #[must_use]
    pub fn delete(table: &str, rows: Vec<Vec<Value>>) -> Self {
        UpdateBatch {
            table: table.to_owned(),
            inserts: Vec::new(),
            deletes: rows,
        }
    }

    /// Total number of rows the batch touches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when the batch touches no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A validated, schema-encoded update batch: the durable/wire form. Every
/// cell is the domain index of its value (`u32`), exactly as the engine
/// stores rows.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedBatch {
    /// Monotone batch sequence number (assigned at submission; WAL frames
    /// and snapshots are reconciled through it).
    pub seq: u64,
    /// The updated table.
    pub table: String,
    /// Encoded rows to insert, in order.
    pub inserts: Vec<Vec<u32>>,
    /// Encoded rows to delete, in order.
    pub deletes: Vec<Vec<u32>>,
}

impl EncodedBatch {
    /// Total number of delta rows (inserts + deletes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when the batch touches no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One sealed epoch: its number and the batches it applied, in submission
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedEpoch {
    /// The epoch number (1 = first seal after setup).
    pub epoch: u64,
    /// Batches with `seq < through_seq` not in an earlier epoch belong to
    /// this epoch (the recovery reconciliation watermark).
    pub through_seq: u64,
    /// The batches, in submission order.
    pub batches: Vec<EncodedBatch>,
}

fn encode_row(table: &Table, row: &[Value]) -> Result<Vec<u32>> {
    let schema = table.schema();
    if row.len() != schema.arity() {
        return Err(DeltaError::Engine(EngineError::ArityMismatch {
            expected: schema.arity(),
            found: row.len(),
        }));
    }
    let mut encoded = Vec::with_capacity(row.len());
    for (attr, value) in schema.attributes().iter().zip(row) {
        encoded.push(attr.index_of(value).map_err(DeltaError::Engine)? as u32);
    }
    Ok(encoded)
}

/// The epoch-versioned update log: pending validated batches plus the
/// sealed epoch history. Plain serialisable data — this type doubles as
/// the durable snapshot state of the dynamic-data subsystem.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateLog {
    /// The next batch sequence number to assign.
    pub next_seq: u64,
    /// The last sealed epoch (0 = setup state only).
    pub current_epoch: u64,
    /// Validated batches awaiting the next seal, in submission order.
    pub pending: Vec<EncodedBatch>,
    /// Every sealed epoch, in order (rebuilt verbatim at recovery).
    pub sealed: Vec<SealedEpoch>,
}

impl UpdateLog {
    /// An empty log at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        UpdateLog::default()
    }

    /// Validates and encodes a batch against the database, checking every
    /// value's domain membership and every delete's multiplicity against
    /// the logical state (base table + pending batches). Does **not**
    /// enqueue — callers journal the returned batch durably first, then
    /// [`UpdateLog::push_pending`] it.
    ///
    /// Each delete first nets the copies the pending batches and this
    /// batch's earlier rows supply, and probes the base table only for the
    /// copies still missing, newest row first
    /// ([`Table::has_encoded_rows`]). A delete of a recently inserted row
    /// therefore costs the distance back to it; a delete of a setup-time
    /// row, or one that is refused, costs one pass over the table.
    pub fn encode_batch(&self, db: &Database, batch: &UpdateBatch) -> Result<EncodedBatch> {
        if batch.is_empty() {
            return Err(DeltaError::EmptyBatch);
        }
        let table = db.table(&batch.table).map_err(DeltaError::Engine)?;
        let inserts = batch
            .inserts
            .iter()
            .map(|row| encode_row(table, row))
            .collect::<Result<Vec<_>>>()?;
        let deletes = batch
            .deletes
            .iter()
            .map(|row| encode_row(table, row))
            .collect::<Result<Vec<_>>>()?;

        // Multiplicity check: each delete must find a row in the logical
        // state formed by the base table, all pending batches, and the
        // earlier rows of this batch. The pending and earlier rows are
        // netted first (inserts supply a copy, deletes consume one); the
        // base table is probed only for the copies still missing.
        let same = |rows: &[Vec<u32>], row: &[u32]| {
            rows.iter().filter(|r| r.as_slice() == row).count() as i64
        };
        for (i, row) in deletes.iter().enumerate() {
            let mut net = same(&inserts, row) - same(&deletes[..i], row);
            for pending in self.pending.iter().filter(|b| b.table == batch.table) {
                net += same(&pending.inserts, row) - same(&pending.deletes, row);
            }
            let need = 1 - net;
            if need > 0 && !table.has_encoded_rows(row, need as usize)? {
                return Err(DeltaError::MissingRow {
                    table: batch.table.clone(),
                    row: format!("{:?}", batch.deletes[i]),
                });
            }
        }

        Ok(EncodedBatch {
            seq: self.next_seq,
            table: batch.table.clone(),
            inserts,
            deletes,
        })
    }

    /// Enqueues a validated batch (after its WAL frame is durable). The
    /// batch's `seq` must be the log's `next_seq` — callers hold one lock
    /// across encode → journal → push, so this is an internal sequencing
    /// invariant, not an input condition.
    ///
    /// # Panics
    ///
    /// Panics when the sequence number is out of order.
    pub fn push_pending(&mut self, batch: EncodedBatch) {
        assert_eq!(
            batch.seq, self.next_seq,
            "update batches must be sequential"
        );
        self.next_seq = batch.seq + 1;
        self.pending.push(batch);
    }

    /// Re-enqueues a batch during recovery replay (sequence numbers come
    /// from the write-ahead ledger and may skip voided ranges).
    pub fn replay_pending(&mut self, batch: EncodedBatch) {
        self.next_seq = self.next_seq.max(batch.seq + 1);
        self.pending.push(batch);
    }

    /// Seals the pending batches into the next epoch and records it in the
    /// history. An empty pending set still seals (an empty epoch), which
    /// keeps epoch numbering deterministic under replay.
    pub fn seal(&mut self) -> SealedEpoch {
        self.current_epoch += 1;
        let sealed = SealedEpoch {
            epoch: self.current_epoch,
            through_seq: self.next_seq,
            batches: std::mem::take(&mut self.pending),
        };
        self.sealed.push(sealed.clone());
        sealed
    }

    /// Merges every sealed epoch at or below `watermark` into one
    /// baseline epoch, capping the history a snapshot has to carry.
    /// Returns the number of epochs merged away (0 when fewer than two
    /// epochs sit at or below the watermark).
    ///
    /// The merged epoch keeps the **last** merged epoch's number and
    /// `through_seq` and concatenates every merged epoch's batches in
    /// seal order, so replaying it applies exactly the same encoded rows
    /// in exactly the same order as replaying the epochs it replaced —
    /// segment rows, histogram patches and recovered answers stay
    /// bit-identical (delta arithmetic is integer-exact, and the
    /// executor fast-forwards the skipped epoch numbers with empty
    /// segments). `current_epoch`, `next_seq` and the pending set are
    /// untouched: compaction rewrites history, never state.
    pub fn compact_history(&mut self, watermark: u64) -> usize {
        let split = self.sealed.partition_point(|e| e.epoch <= watermark);
        if split < 2 {
            return 0;
        }
        let tail = self.sealed.split_off(split);
        let last = self.sealed.last().expect("split >= 2");
        let (epoch, through_seq) = (last.epoch, last.through_seq);
        let merged = SealedEpoch {
            epoch,
            through_seq,
            batches: self.sealed.drain(..).flat_map(|e| e.batches).collect(),
        };
        self.sealed.push(merged);
        self.sealed.extend(tail);
        split - 1
    }

    /// Tables touched by the given batches, in first-appearance order.
    #[must_use]
    pub fn touched_tables(batches: &[EncodedBatch]) -> Vec<String> {
        let mut tables: Vec<String> = Vec::new();
        for batch in batches {
            if !tables.contains(&batch.table) {
                tables.push(batch.table.clone());
            }
        }
        tables
    }

    /// Total updates (rows) across pending and sealed state.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.pending.iter().map(EncodedBatch::len).sum::<usize>()
            + self
                .sealed
                .iter()
                .flat_map(|e| e.batches.iter())
                .map(EncodedBatch::len)
                .sum::<usize>()
    }
}

/// Builds the per-table delta segments of one epoch from its batches:
/// rows appear in submission order, each batch's inserts (weight `+1`)
/// before its deletes (weight `−1`). The fixed order is what makes seal
/// replay bit-identical.
#[must_use]
pub fn build_segments(db: &Database, batches: &[EncodedBatch]) -> Vec<EpochSegment> {
    let mut segments: Vec<EpochSegment> = Vec::new();
    for batch in batches {
        let arity = db
            .table(&batch.table)
            .map(|t| t.schema().arity())
            .unwrap_or(0);
        let segment = match segments.iter_mut().find(|s| s.table == batch.table) {
            Some(s) => s,
            None => {
                segments.push(EpochSegment {
                    table: batch.table.clone(),
                    columns: vec![Vec::new(); arity],
                    weights: Vec::new(),
                });
                segments.last_mut().expect("just pushed")
            }
        };
        for row in &batch.inserts {
            for (col, &v) in segment.columns.iter_mut().zip(row) {
                col.push(v);
            }
            segment.weights.push(1.0);
        }
        for row in &batch.deletes {
            for (col, &v) in segment.columns.iter_mut().zip(row) {
                col.push(v);
            }
            segment.weights.push(-1.0);
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::schema::{Attribute, AttributeType, Schema};

    fn db() -> Database {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(20, 29)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
        ]);
        let mut t = Table::new("adult", schema);
        for (age, sex) in [(20, "F"), (25, "M"), (25, "M"), (27, "F")] {
            t.insert_row(&[Value::Int(age), Value::text(sex)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    fn row(age: i64, sex: &str) -> Vec<Value> {
        vec![Value::Int(age), Value::text(sex)]
    }

    #[test]
    fn encode_validates_domains_and_arity() {
        let db = db();
        let log = UpdateLog::new();
        let ok = log
            .encode_batch(&db, &UpdateBatch::insert("adult", vec![row(22, "F")]))
            .unwrap();
        assert_eq!(ok.seq, 0);
        assert_eq!(ok.inserts, vec![vec![2, 0]]);
        assert!(matches!(
            log.encode_batch(&db, &UpdateBatch::insert("nope", vec![row(22, "F")])),
            Err(DeltaError::Engine(EngineError::UnknownTable(_)))
        ));
        assert!(matches!(
            log.encode_batch(&db, &UpdateBatch::insert("adult", vec![row(99, "F")])),
            Err(DeltaError::Engine(EngineError::ValueOutOfDomain { .. }))
        ));
        assert!(matches!(
            log.encode_batch(
                &db,
                &UpdateBatch::insert("adult", vec![vec![Value::Int(22)]])
            ),
            Err(DeltaError::Engine(EngineError::ArityMismatch { .. }))
        ));
        assert!(matches!(
            log.encode_batch(&db, &UpdateBatch::insert("adult", Vec::new())),
            Err(DeltaError::EmptyBatch)
        ));
    }

    #[test]
    fn delete_multiplicity_counts_base_pending_and_intra_batch_state() {
        let db = db();
        let mut log = UpdateLog::new();
        // Two (25, M) rows exist: deleting two is fine, three is not.
        let two = UpdateBatch::delete("adult", vec![row(25, "M"), row(25, "M")]);
        assert!(log.encode_batch(&db, &two).is_ok());
        let three = UpdateBatch::delete("adult", vec![row(25, "M"), row(25, "M"), row(25, "M")]);
        assert!(matches!(
            log.encode_batch(&db, &three),
            Err(DeltaError::MissingRow { .. })
        ));
        // An intra-batch insert makes the third delete legal.
        let mixed = UpdateBatch {
            table: "adult".to_owned(),
            inserts: vec![row(25, "M")],
            deletes: vec![row(25, "M"), row(25, "M"), row(25, "M")],
        };
        assert!(log.encode_batch(&db, &mixed).is_ok());
        // A pending delete consumes multiplicity for later batches.
        let first = log.encode_batch(&db, &two).unwrap();
        log.push_pending(first);
        assert!(matches!(
            log.encode_batch(&db, &UpdateBatch::delete("adult", vec![row(25, "M")])),
            Err(DeltaError::MissingRow { .. })
        ));
        // ...and a pending insert provides it.
        let ins = log
            .encode_batch(&db, &UpdateBatch::insert("adult", vec![row(21, "F")]))
            .unwrap();
        log.push_pending(ins);
        assert!(log
            .encode_batch(&db, &UpdateBatch::delete("adult", vec![row(21, "F")]))
            .is_ok());
    }

    #[test]
    fn seal_drains_pending_into_numbered_epochs() {
        let db = db();
        let mut log = UpdateLog::new();
        let b0 = log
            .encode_batch(&db, &UpdateBatch::insert("adult", vec![row(21, "F")]))
            .unwrap();
        log.push_pending(b0);
        let e1 = log.seal();
        assert_eq!(e1.epoch, 1);
        assert_eq!(e1.through_seq, 1);
        assert_eq!(e1.batches.len(), 1);
        assert!(log.pending.is_empty());
        assert_eq!(log.current_epoch, 1);
        // Empty seal still advances the epoch.
        let e2 = log.seal();
        assert_eq!(e2.epoch, 2);
        assert!(e2.batches.is_empty());
        assert_eq!(log.sealed.len(), 2);
        assert_eq!(log.total_rows(), 1);
    }

    #[test]
    fn compact_history_merges_epochs_below_the_watermark() {
        let db = db();
        let mut log = UpdateLog::new();
        for rows in [vec![row(21, "F")], vec![row(22, "M")], vec![row(23, "F")]] {
            let b = log
                .encode_batch(&db, &UpdateBatch::insert("adult", rows))
                .unwrap();
            log.push_pending(b);
            log.seal();
        }
        // Watermark below the second epoch: nothing to merge.
        assert_eq!(log.clone().compact_history(0), 0);
        assert_eq!(log.clone().compact_history(1), 0);
        let rows_before = log.total_rows();
        assert_eq!(log.compact_history(2), 1);
        assert_eq!(log.sealed.len(), 2);
        let merged = &log.sealed[0];
        assert_eq!(merged.epoch, 2);
        assert_eq!(merged.through_seq, 2);
        // Batches of epochs 1 and 2, in seal order.
        assert_eq!(
            merged.batches.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(log.sealed[1].epoch, 3);
        assert_eq!(log.current_epoch, 3);
        assert_eq!(log.total_rows(), rows_before);
        // Idempotent at the same watermark; a later watermark folds the
        // baseline and the next epoch together.
        assert_eq!(log.compact_history(2), 0);
        assert_eq!(log.compact_history(3), 1);
        assert_eq!(log.sealed.len(), 1);
        assert_eq!(log.sealed[0].epoch, 3);
    }

    #[test]
    fn segments_order_rows_and_group_tables() {
        let db = db();
        let mut log = UpdateLog::new();
        let b0 = log
            .encode_batch(
                &db,
                &UpdateBatch {
                    table: "adult".to_owned(),
                    inserts: vec![row(21, "F"), row(22, "M")],
                    deletes: vec![row(20, "F")],
                },
            )
            .unwrap();
        log.push_pending(b0);
        let b1 = log
            .encode_batch(&db, &UpdateBatch::insert("adult", vec![row(29, "M")]))
            .unwrap();
        log.push_pending(b1);
        let sealed = log.seal();
        let segments = build_segments(&db, &sealed.batches);
        assert_eq!(segments.len(), 1);
        let s = &segments[0];
        assert_eq!(s.table, "adult");
        // Batch 0 inserts, batch 0 delete, batch 1 insert — in order.
        assert_eq!(s.weights, vec![1.0, 1.0, -1.0, 1.0]);
        assert_eq!(s.columns[0], vec![1, 2, 0, 9]);
        assert_eq!(s.columns[1], vec![0, 1, 0, 1]);
        assert_eq!(UpdateLog::touched_tables(&sealed.batches), vec!["adult"]);
    }
}
