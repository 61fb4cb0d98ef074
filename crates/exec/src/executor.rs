//! The columnar executor: shared scans, multi-query batch evaluation,
//! and epoch-versioned delta segments.
//!
//! [`ColumnarExecutor::ingest`] converts every table of a
//! [`Database`] into the sharded columnar format once, encoding each
//! column under the configured [`ColumnEncoding`] policy. Base shards are
//! immutable; dynamic data arrives through
//! [`ColumnarExecutor::append_epoch`], which appends one epoch's delta
//! segment per updated table behind a per-table `RwLock` — readers (query
//! scans, histogram materialisation) take the read side, so the executor
//! stays freely shareable across threads and a scan always sees a whole
//! number of sealed epochs (never a torn segment).
//!
//! The central operation is [`ColumnarExecutor::execute_batch`]: all
//! queries in a batch that target the same table are answered in **one
//! pass** over its shards — each shard is visited once and every query's
//! kernel folds it into its partial aggregate while the shard is hot in
//! cache — so a batch of `B` same-table queries costs 1 scan instead of
//! `B`. [`ExecStats::scans_per_query`] reports the amortisation. A pass
//! runs on the calling thread and folds each query's shards in shard
//! order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use dprov_engine::database::Database;
use dprov_engine::expr::Predicate;
use dprov_engine::group::GroupByQuery;
use dprov_engine::histogram::Histogram;
use dprov_engine::query::{AggregateKind, Query};
use dprov_engine::schema::Schema;
use dprov_engine::view::{flat_index, ViewDef, ViewKind};
use dprov_engine::{EngineError, Result};

use crate::encode::ColumnEncoding;
use crate::kernel::{CompiledQuery, PartialAggregate, ShardOutcome};
use crate::store::ColumnarTable;

/// Tuning knobs for the columnar store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Rows per shard. Shards are the unit of zone-map pruning and of
    /// cache-resident batch evaluation; values much smaller than a few
    /// thousand rows pay per-shard overhead without pruning any better.
    pub shard_rows: usize,
    /// Per-column compression policy applied at ingest and to every delta
    /// segment (see [`ColumnEncoding`]).
    pub encoding: ColumnEncoding,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            shard_rows: 4096,
            encoding: ColumnEncoding::Auto,
        }
    }
}

/// Point-in-time executor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Table passes performed to answer queries (one per (batch, table)
    /// pair — the number batching amortises).
    pub scans: u64,
    /// Queries answered.
    pub queries: u64,
    /// Batches executed (an [`ColumnarExecutor::execute`] call counts as a
    /// batch of one).
    pub batches: u64,
    /// Table passes performed to materialise histogram views.
    pub histogram_scans: u64,
    /// Histogram views materialised.
    pub histograms: u64,
    /// Shards visited by query scans (counted once per shard per pass,
    /// however many queries share the pass).
    pub shards_visited: u64,
    /// (query, shard) pairs skipped by a zone-map proof during query scans.
    pub shards_pruned: u64,
    /// Delta segments appended (one per (epoch, updated table) pair).
    pub segments_appended: u64,
}

impl ExecStats {
    /// Scans per answered query — `1.0` for one-at-a-time execution, `1/B`
    /// for fully shared batches of `B` same-table queries.
    #[must_use]
    pub fn scans_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.scans as f64 / self.queries as f64
        }
    }
}

/// One table's delta segment for an epoch seal: the encoded delta rows
/// (inserts then deletes, in submission order) and their signed weights.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSegment {
    /// The updated table.
    pub table: String,
    /// One vector per attribute (schema order), all the same length.
    pub columns: Vec<Vec<u32>>,
    /// One signed weight per delta row (`+1` insert, `-1` delete).
    pub weights: Vec<f64>,
}

/// Groups item indices by their table name, in first-appearance order
/// (the shared-scan unit: one pass per group).
fn group_by_table<'a>(keys: impl Iterator<Item = &'a str>) -> Vec<(&'a str, Vec<usize>)> {
    let mut groups: Vec<(&'a str, Vec<usize>)> = Vec::new();
    for (i, key) in keys.enumerate() {
        match groups.iter_mut().find(|(name, _)| *name == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups
}

/// One shared pass of `members` (indices into `compiled`) over a table's
/// shard set. Returns `(shards_visited, (query, shard) pairs pruned,
/// busy nanoseconds)`.
///
/// Every query folds its shards in shard order. Queries inside the
/// reassociation envelope may take the gather fast paths (the table-level
/// domain map, then per-shard maps), which regroup exact integer
/// additions; queries outside it fold strictly row by row.
fn scan_table(
    compiled: &[CompiledQuery],
    members: &[usize],
    table: &ColumnarTable,
    partials: &mut [PartialAggregate],
) -> (u64, u64, u64) {
    let shards = table.shards();
    if shards.is_empty() {
        return (0, 0, 0);
    }
    let t0 = Instant::now();
    let rows = table.num_rows();
    // Table-level gather: queries whose plan folds the precombined
    // domain map answer in O(domain) — independent of the shard count —
    // and drop out of the shard walk entirely. Only reassociation-exact
    // queries may take it (the precombination regroups additions).
    let mut walk = Vec::with_capacity(members.len());
    for &i in members {
        let relaxed = compiled[i].reassociation_exact(rows);
        if !(relaxed && compiled[i].eval_gather_table(table, &mut partials[i])) {
            walk.push((i, relaxed));
        }
    }
    let mut pruned = 0u64;
    for shard in shards {
        for &(i, relaxed) in &walk {
            if compiled[i].eval_shard(shard, &mut partials[i], relaxed) == ShardOutcome::Pruned {
                pruned += 1;
            }
        }
    }
    (shards.len() as u64, pruned, t0.elapsed().as_nanos() as u64)
}

#[derive(Debug, Default)]
struct StatsCells {
    scans: AtomicU64,
    queries: AtomicU64,
    batches: AtomicU64,
    histogram_scans: AtomicU64,
    histograms: AtomicU64,
    shards_visited: AtomicU64,
    shards_pruned: AtomicU64,
    segments_appended: AtomicU64,
}

/// The columnar execution engine over one ingested database.
#[derive(Debug)]
pub struct ColumnarExecutor {
    /// Per-table shard sets behind read-write locks: scans share the read
    /// side; epoch seals take the write side of each updated table.
    tables: HashMap<String, RwLock<ColumnarTable>>,
    /// Schemas are immutable after ingest (updates never alter a schema),
    /// so compilation reads them without touching a table lock.
    schemas: HashMap<String, Schema>,
    /// The last sealed epoch visible to scans.
    epoch: AtomicU64,
    stats: StatsCells,
}

impl ColumnarExecutor {
    /// Ingests every table of the database into the sharded columnar
    /// format, encoding columns under the configured policy.
    #[must_use]
    pub fn ingest(db: &Database, config: &ExecConfig) -> Self {
        let mut tables = HashMap::new();
        let mut schemas = HashMap::new();
        for name in db.table_names() {
            let table = db.table(name).expect("listed table exists");
            schemas.insert(name.to_owned(), table.schema().clone());
            tables.insert(
                name.to_owned(),
                RwLock::new(ColumnarTable::ingest_with(
                    table,
                    config.shard_rows,
                    config.encoding,
                )),
            );
        }
        ColumnarExecutor {
            tables,
            schemas,
            epoch: AtomicU64::new(db.epoch()),
            stats: StatsCells::default(),
        }
    }

    /// The schema of an ingested table (immutable across epochs).
    pub fn schema(&self, name: &str) -> Result<&Schema> {
        self.schemas
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_owned()))
    }

    /// Runs `f` against the current shard set of a table (read-locked:
    /// concurrent scans proceed in parallel, epoch seals wait).
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&ColumnarTable) -> R) -> Result<R> {
        let lock = self
            .tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_owned()))?;
        Ok(f(&lock.read().expect("table lock poisoned")))
    }

    /// The last sealed update epoch visible to scans.
    #[must_use]
    pub fn sealed_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Heap bytes of all encoded column payloads across every table.
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        self.tables
            .values()
            .map(|t| t.read().expect("table lock poisoned").encoded_bytes())
            .sum()
    }

    /// Bytes the same payloads would occupy un-encoded (4 bytes/cell).
    #[must_use]
    pub fn plain_bytes(&self) -> usize {
        self.tables
            .values()
            .map(|t| t.read().expect("table lock poisoned").plain_bytes())
            .sum()
    }

    /// Un-encoded bytes over encoded bytes (> 1 means the encodings are
    /// saving memory; ∞ if every column collapsed to width 0).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let plain = self.plain_bytes();
        if plain == 0 {
            1.0
        } else {
            plain as f64 / self.encoded_bytes() as f64
        }
    }

    /// Appends one epoch's delta segments: for every updated table a new
    /// immutable shard run is appended after its existing shard set (old
    /// shards are never rewritten), then the executor's epoch advances.
    /// Tables not named keep serving their existing shards at the new
    /// epoch. Callers serialise seals (epochs arrive in order) and are
    /// responsible for quiescing in-flight *multi-table* readers; a
    /// single-table scan is internally consistent either way because it
    /// holds the table's read lock for the whole pass.
    pub fn append_epoch(&self, epoch: u64, segments: &[EpochSegment]) -> Result<()> {
        for segment in segments {
            let lock = self
                .tables
                .get(&segment.table)
                .ok_or_else(|| EngineError::UnknownTable(segment.table.clone()))?;
            let mut table = lock.write().expect("table lock poisoned");
            // Tables untouched by earlier epochs lag behind; fast-forward
            // them with empty segments so shard epoch tags stay truthful.
            while table.sealed_epoch() + 1 < epoch {
                let arity = table.schema().arity();
                let next = table.sealed_epoch() + 1;
                table.append_delta_segment(&vec![Vec::new(); arity], &[], next);
            }
            table.append_delta_segment(&segment.columns, &segment.weights, epoch);
            self.stats.segments_appended.fetch_add(1, Ordering::Relaxed);
        }
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
        Ok(())
    }

    /// Compiles a query against its table's schema.
    pub fn compile(&self, query: &Query) -> Result<CompiledQuery> {
        CompiledQuery::compile(query, self.schema(&query.table)?)
    }

    /// Executes one scalar query (a batch of one: exactly one table pass).
    pub fn execute(&self, query: &Query) -> Result<f64> {
        Ok(self.execute_batch(std::slice::from_ref(query))?[0])
    }

    /// Executes a batch of scalar queries. Queries targeting the same
    /// table share a single pass over its shards; results come back in
    /// submission order. The whole batch fails if any query fails to
    /// compile (nothing is scanned in that case).
    pub fn execute_batch(&self, queries: &[Query]) -> Result<Vec<f64>> {
        Ok(self.execute_batch_timed(queries)?.0)
    }

    /// Like [`Self::execute_batch`], also returning the scan busy time in
    /// nanoseconds summed over every table pass of the batch, so
    /// instrumentation records **one** sample per batch.
    pub fn execute_batch_timed(&self, queries: &[Query]) -> Result<(Vec<f64>, u64)> {
        let compiled = queries
            .iter()
            .map(|q| self.compile(q))
            .collect::<Result<Vec<_>>>()?;
        self.execute_compiled_timed(&compiled)
    }

    /// Executes pre-compiled queries (the recompilation-free path for
    /// benchmarks and repeated workloads). Shares scans like
    /// [`Self::execute_batch`].
    pub fn execute_compiled(&self, compiled: &[CompiledQuery]) -> Result<Vec<f64>> {
        Ok(self.execute_compiled_timed(compiled)?.0)
    }

    /// Timed form of [`Self::execute_compiled`]; see
    /// [`Self::execute_batch_timed`] for the nanosecond semantics.
    pub fn execute_compiled_timed(&self, compiled: &[CompiledQuery]) -> Result<(Vec<f64>, u64)> {
        if compiled.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let groups = group_by_table(compiled.iter().map(CompiledQuery::table));

        let mut partials = vec![PartialAggregate::default(); compiled.len()];
        let mut pruned = 0u64;
        let mut visited = 0u64;
        let mut busy_ns = 0u64;
        for (name, members) in &groups {
            self.with_table(name, |table| {
                let (v, p, ns) = scan_table(compiled, members, table, &mut partials);
                visited += v;
                pruned += p;
                busy_ns += ns;
            })?;
        }

        self.stats
            .scans
            .fetch_add(groups.len() as u64, Ordering::Relaxed);
        self.stats
            .queries
            .fetch_add(compiled.len() as u64, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .shards_visited
            .fetch_add(visited, Ordering::Relaxed);
        self.stats
            .shards_pruned
            .fetch_add(pruned, Ordering::Relaxed);

        Ok((
            compiled
                .iter()
                .zip(&partials)
                .map(|(q, p)| q.finish(p))
                .collect(),
            busy_ns,
        ))
    }

    /// Answers a GROUP BY* query exactly: one aggregate per cell of the
    /// grouping attributes' domain cross-product, in canonical enumeration
    /// order (empty groups included). Bit-identical to executing the
    /// per-group scalar decomposition [`GroupByQuery::scalar_queries`] one
    /// query at a time — the grouped path only shares work: the general
    /// route runs the decomposition as **one** batch (a single table pass
    /// for all groups), and an unfiltered single-attribute grouping
    /// compatible with the aggregate reads every group's answer off the
    /// table's precombined domain map in one `O(domain)` gather.
    pub fn execute_group_by(&self, query: &GroupByQuery) -> Result<Vec<f64>> {
        Ok(self.execute_group_by_timed(query)?.0)
    }

    /// Timed form of [`Self::execute_group_by`]; the nanosecond component
    /// follows [`Self::execute_batch_timed`] semantics.
    pub fn execute_group_by_timed(&self, query: &GroupByQuery) -> Result<(Vec<f64>, u64)> {
        let scalars = query.scalar_queries(self.schema(&query.table)?)?;
        if let Some(timed) = self.try_grouped_gather(query, &scalars)? {
            return Ok(timed);
        }
        self.execute_batch_timed(&scalars)
    }

    /// The grouped-gather fast path: an unfiltered grouping by exactly one
    /// attribute whose aggregate the domain map can answer (COUNT, or
    /// SUM/AVG over the grouping attribute itself) reads all `G` answers
    /// off the table's precombined domain map in a single `O(domain)`
    /// pass, instead of `G` per-group map folds. Each per-domain-value
    /// step performs exactly the additions the decomposed query's
    /// single-bit gather would, so the answers are bit-identical. Returns
    /// `Ok(None)` — the caller falls back to the batched decomposition —
    /// when the shape doesn't qualify, the table lacks a combined map, or
    /// the query sits outside the reassociation envelope.
    fn try_grouped_gather(
        &self,
        query: &GroupByQuery,
        scalars: &[Query],
    ) -> Result<Option<(Vec<f64>, u64)>> {
        if query.group_cols.len() != 1 || query.predicate != Predicate::True {
            return Ok(None);
        }
        let average = match &query.aggregate {
            AggregateKind::Count => false,
            AggregateKind::Sum(target) | AggregateKind::Avg(target) => {
                if *target != query.group_cols[0] {
                    return Ok(None);
                }
                matches!(query.aggregate, AggregateKind::Avg(_))
            }
        };
        // Compiling the first cell's scalar runs the same validation every
        // decomposed cell would hit (the cells differ only in the selected
        // domain value), so error behaviour matches the fallback path.
        let first = self.compile(&scalars[0])?;
        let schema = self.schema(&query.table)?;
        let col = schema.position(&query.group_cols[0])?;
        let weighted = !matches!(query.aggregate, AggregateKind::Count);
        let weights: Vec<f64> = if weighted {
            let attr = &schema.attributes()[col];
            (0..attr.domain_size())
                .map(|i| attr.numeric_at(i).unwrap_or(0.0))
                .collect()
        } else {
            Vec::new()
        };

        let t0 = Instant::now();
        let gathered = self.with_table(&query.table, |table| {
            if !first.reassociation_exact(table.num_rows()) {
                return None;
            }
            let map = table.combined_map(col)?;
            let mut answers = Vec::with_capacity(map.len());
            for (v, &m) in map.iter().enumerate() {
                // Mirror `fold_domain_map` with a one-bit accept set plus
                // the scalar `finish`: start from zero, fold the single
                // accepted term, then finish the aggregate.
                let mut count = 0.0f64;
                let mut sum = 0.0f64;
                if m != 0.0 {
                    count += m;
                    if weighted {
                        sum += weights[v] * m;
                    }
                }
                answers.push(match (&query.aggregate, average) {
                    (AggregateKind::Count, _) => count,
                    (_, false) => sum,
                    (_, true) => {
                        if count == 0.0 {
                            0.0
                        } else {
                            sum / count
                        }
                    }
                });
            }
            Some((answers, table.shards().len() as u64))
        })?;
        let Some((answers, shard_count)) = gathered else {
            return Ok(None);
        };
        let busy_ns = t0.elapsed().as_nanos() as u64;

        // Book the same stats the batched decomposition would: one shared
        // pass answering every cell of one batch.
        self.stats.scans.fetch_add(1, Ordering::Relaxed);
        self.stats
            .queries
            .fetch_add(scalars.len() as u64, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .shards_visited
            .fetch_add(shard_count, Ordering::Relaxed);

        Ok(Some((answers, busy_ns)))
    }

    /// Materialises one histogram view (see
    /// [`Self::materialize_histograms`] for the shared-scan form).
    pub fn materialize_histogram(&self, view: &ViewDef) -> Result<Histogram> {
        Ok(self
            .materialize_histograms(std::slice::from_ref(view))?
            .pop()
            .expect("one view in, one histogram out"))
    }

    /// Materialises many histogram views, sharing one pass per base table
    /// among all views over it (the setup-time cost of Tables 1/3: a
    /// catalog of `k` views over one table costs 1 scan instead of `k`).
    /// Results are bit-identical to
    /// [`dprov_engine::histogram::Histogram::materialize`] against the
    /// logically equivalent (physically rebuilt) table: delta rows fold
    /// their signed weight into the addressed cell, and every cell count
    /// is exact integer arithmetic in `f64`.
    pub fn materialize_histograms(&self, views: &[ViewDef]) -> Result<Vec<Histogram>> {
        struct Build {
            dims: Vec<usize>,
            positions: Vec<usize>,
            clip: Option<(usize, usize)>,
            counts: Vec<f64>,
        }

        let mut builds: Vec<Build> = Vec::with_capacity(views.len());
        for view in views {
            let schema = self.schema(&view.table)?;
            let dims = view.dimensions(schema)?;
            let positions = view.positions(schema)?;
            let clip = match view.kind {
                ViewKind::Clipped { lower, upper } => {
                    let attr = schema.attribute(&view.attributes[0])?;
                    attr.index_range(lower, upper)
                }
                ViewKind::FullDomainHistogram => None,
            };
            let total: usize = dims.iter().product();
            builds.push(Build {
                dims,
                positions,
                clip,
                counts: vec![0.0f64; total.max(1)],
            });
        }

        let groups = group_by_table(views.iter().map(|v| v.table.as_str()));

        for (name, members) in &groups {
            self.with_table(name, |table| {
                let arity = table.schema().arity();
                let mut decoded: Vec<Vec<u32>> = vec![Vec::new(); arity];
                for shard in table.shards() {
                    // Decode each attribute any member view addresses once
                    // per shard; views then index the scratch like the old
                    // raw columns.
                    let mut have = vec![false; arity];
                    for &i in members {
                        for &pos in &builds[i].positions {
                            if !have[pos] {
                                decoded[pos].clear();
                                shard.column(pos).decode_into(&mut decoded[pos]);
                                have[pos] = true;
                            }
                        }
                    }
                    for &i in members {
                        let build = &mut builds[i];
                        let mut cell = vec![0usize; build.positions.len()];
                        let weights = shard.weights();
                        for row in 0..shard.rows() {
                            for (d, &pos) in build.positions.iter().enumerate() {
                                let mut idx = decoded[pos][row] as usize;
                                if let Some((lo, hi)) = build.clip {
                                    idx = idx.clamp(lo, hi);
                                }
                                cell[d] = idx;
                            }
                            let w = weights.map_or(1.0, |ws| ws[row]);
                            build.counts[flat_index(&build.dims, &cell)] += w;
                        }
                    }
                }
            })?;
        }

        self.stats
            .histogram_scans
            .fetch_add(groups.len() as u64, Ordering::Relaxed);
        self.stats
            .histograms
            .fetch_add(views.len() as u64, Ordering::Relaxed);

        Ok(views
            .iter()
            .zip(builds)
            .map(|(view, build)| Histogram {
                view: view.name.clone(),
                dims: build.dims,
                counts: build.counts,
            })
            .collect())
    }

    /// A snapshot of the executor counters.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            scans: self.stats.scans.load(Ordering::Relaxed),
            queries: self.stats.queries.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            histogram_scans: self.stats.histogram_scans.load(Ordering::Relaxed),
            histograms: self.stats.histograms.load(Ordering::Relaxed),
            shards_visited: self.stats.shards_visited.load(Ordering::Relaxed),
            shards_pruned: self.stats.shards_pruned.load(Ordering::Relaxed),
            segments_appended: self.stats.segments_appended.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (benchmarks isolate phases with this).
    pub fn reset_stats(&self) {
        self.stats.scans.store(0, Ordering::Relaxed);
        self.stats.queries.store(0, Ordering::Relaxed);
        self.stats.batches.store(0, Ordering::Relaxed);
        self.stats.histogram_scans.store(0, Ordering::Relaxed);
        self.stats.histograms.store(0, Ordering::Relaxed);
        self.stats.shards_visited.store(0, Ordering::Relaxed);
        self.stats.shards_pruned.store(0, Ordering::Relaxed);
        self.stats.segments_appended.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_engine::exec::execute;
    use dprov_engine::expr::Predicate;

    fn executor(shard_rows: usize) -> (Database, ColumnarExecutor) {
        let db = adult_database(2_000, 7);
        let exec = ColumnarExecutor::ingest(
            &db,
            &ExecConfig {
                shard_rows,
                ..ExecConfig::default()
            },
        );
        (db, exec)
    }

    #[test]
    fn single_query_matches_row_at_a_time_bit_for_bit() {
        let (db, exec) = executor(256);
        let queries = [
            Query::count("adult"),
            Query::range_count("adult", "age", 25, 44),
            Query::sum("adult", "hours_per_week"),
            Query::avg("adult", "hours_per_week"),
            Query::sum("adult", "hours_per_week").filter(Predicate::equals("sex", "Female")),
            Query::count("adult").filter(Predicate::Not(Box::new(Predicate::range("age", 30, 90)))),
        ];
        for q in &queries {
            let columnar = exec.execute(q).unwrap();
            let reference = execute(&db, q).unwrap().scalar().unwrap();
            assert_eq!(columnar.to_bits(), reference.to_bits(), "{}", q.describe());
        }
    }

    #[test]
    fn group_by_matches_per_group_oracle_bit_for_bit() {
        let (_db, exec) = executor(256);
        let grouped = [
            // Fast-path shapes: unfiltered single-attribute grouping.
            dprov_engine::group::GroupByQuery::count("adult", &["sex"]),
            dprov_engine::group::GroupByQuery::sum("adult", "hours_per_week", &["hours_per_week"]),
            // General shapes: multi-attribute, filtered, SUM over another
            // attribute.
            dprov_engine::group::GroupByQuery::count("adult", &["sex", "race"]),
            dprov_engine::group::GroupByQuery::count("adult", &["sex"])
                .filter(Predicate::range("age", 25, 44)),
            dprov_engine::group::GroupByQuery::sum("adult", "hours_per_week", &["sex"]),
        ];
        for q in &grouped {
            let answers = exec.execute_group_by(q).unwrap();
            let scalars = q.scalar_queries(exec.schema("adult").unwrap()).unwrap();
            assert_eq!(answers.len(), scalars.len(), "{}", q.describe());
            for (cell, scalar) in scalars.iter().enumerate() {
                let oracle = exec.execute(scalar).unwrap();
                assert_eq!(
                    answers[cell].to_bits(),
                    oracle.to_bits(),
                    "cell {cell} of {}",
                    q.describe()
                );
            }
        }
    }

    #[test]
    fn group_by_costs_one_scan_and_books_per_cell_queries() {
        let (_db, exec) = executor(256);
        let q = dprov_engine::group::GroupByQuery::count("adult", &["sex", "race"]);
        let cells = q.num_groups(exec.schema("adult").unwrap()).unwrap();
        let before = exec.stats();
        exec.execute_group_by(&q).unwrap();
        let after = exec.stats();
        assert_eq!(after.scans - before.scans, 1);
        assert_eq!(after.batches - before.batches, 1);
        assert_eq!(after.queries - before.queries, cells as u64);

        // The single-attribute gather books the same shape.
        let fast = dprov_engine::group::GroupByQuery::count("adult", &["sex"]);
        let before = exec.stats();
        exec.execute_group_by(&fast).unwrap();
        let after = exec.stats();
        assert_eq!(after.scans - before.scans, 1);
        assert_eq!(after.batches - before.batches, 1);
        assert_eq!(after.queries - before.queries, 2);
    }

    #[test]
    fn group_by_after_epoch_append_matches_oracle() {
        let (_db, exec) = executor(128);
        // One insert and one delete on the "sex" column keep weights signed.
        let schema = exec.schema("adult").unwrap().clone();
        let arity = schema.arity();
        let rows = exec
            .with_table("adult", |t| {
                (0..arity)
                    .map(|pos| {
                        let mut out = Vec::new();
                        t.shards()[0].column(pos).decode_into(&mut out);
                        vec![out[0]; 2]
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap();
        exec.append_epoch(
            1,
            &[EpochSegment {
                table: "adult".to_owned(),
                columns: rows,
                weights: vec![1.0, -1.0],
            }],
        )
        .unwrap();
        let q = dprov_engine::group::GroupByQuery::count("adult", &["sex"]);
        let answers = exec.execute_group_by(&q).unwrap();
        for (cell, scalar) in q.scalar_queries(&schema).unwrap().iter().enumerate() {
            let oracle = exec.execute(scalar).unwrap();
            assert_eq!(answers[cell].to_bits(), oracle.to_bits());
        }
    }

    #[test]
    fn every_encoding_matches_bit_for_bit() {
        let db = adult_database(1_500, 23);
        let queries = [
            Query::count("adult"),
            Query::range_count("adult", "age", 25, 44),
            Query::sum("adult", "hours_per_week"),
            Query::avg("adult", "hours_per_week").filter(Predicate::equals("sex", "Male")),
        ];
        let reference: Vec<u64> = queries
            .iter()
            .map(|q| execute(&db, q).unwrap().scalar().unwrap().to_bits())
            .collect();
        for encoding in [
            ColumnEncoding::Auto,
            ColumnEncoding::Plain,
            ColumnEncoding::BitPacked,
            ColumnEncoding::Dictionary,
        ] {
            let exec = ColumnarExecutor::ingest(
                &db,
                &ExecConfig {
                    shard_rows: 97,
                    encoding,
                },
            );
            let got = exec.execute_batch(&queries).unwrap();
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.to_bits(), *r, "{encoding:?}");
            }
        }
    }

    #[test]
    fn timed_batches_report_thread_busy_time_once_per_batch() {
        let (_, exec) = executor(64);
        let batch: Vec<Query> = (0..8)
            .map(|i| Query::range_count("adult", "age", 20 + i, 50))
            .collect();
        let (results, ns) = exec.execute_batch_timed(&batch).unwrap();
        assert_eq!(results.len(), 8);
        // One summed figure for the whole batch.
        assert!(ns > 0);
    }

    #[test]
    fn auto_encoding_compresses_the_adult_table() {
        let (_, exec) = executor(4096);
        assert!(exec.encoded_bytes() < exec.plain_bytes());
        assert!(exec.compression_ratio() > 2.0);
    }

    #[test]
    fn batch_shares_one_scan_and_matches_sequential_execution() {
        let (_, exec) = executor(128);
        let batch: Vec<Query> = (0..16)
            .map(|i| Query::range_count("adult", "age", 20 + i, 40 + 2 * i))
            .collect();
        let sequential: Vec<f64> = batch.iter().map(|q| exec.execute(q).unwrap()).collect();
        exec.reset_stats();
        let batched = exec.execute_batch(&batch).unwrap();
        for (a, b) in batched.iter().zip(&sequential) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let stats = exec.stats();
        assert_eq!(stats.scans, 1, "16 same-table queries must share one scan");
        assert_eq!(stats.queries, 16);
        assert_eq!(stats.batches, 1);
        assert!((stats.scans_per_query() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn batch_over_two_tables_costs_one_scan_per_table() {
        let (mut db, _) = executor(64);
        // Clone the adult table under a second name to get two tables.
        let mut other = db.table("adult").unwrap().clone();
        other = {
            let mut t = dprov_engine::table::Table::new("adult2", other.schema().clone());
            for row in 0..other.num_rows().min(100) {
                let values = other.row(row);
                t.insert_row(&values).unwrap();
            }
            t
        };
        db.add_table(other);
        let exec = ColumnarExecutor::ingest(
            &db,
            &ExecConfig {
                shard_rows: 64,
                ..ExecConfig::default()
            },
        );
        let batch = vec![
            Query::count("adult"),
            Query::count("adult2"),
            Query::range_count("adult", "age", 20, 30),
            Query::range_count("adult2", "age", 20, 30),
        ];
        exec.execute_batch(&batch).unwrap();
        assert_eq!(exec.stats().scans, 2);
        assert_eq!(exec.stats().queries, 4);
    }

    #[test]
    fn histograms_match_the_engine_materialisation() {
        let (db, exec) = executor(100);
        let views = vec![
            ViewDef::histogram("v_age", "adult", &["age"]),
            ViewDef::histogram("v_age_sex", "adult", &["age", "sex"]),
            ViewDef::clipped("v_hours_clip", "adult", "hours_per_week", 10, 60),
        ];
        let shared = exec.materialize_histograms(&views).unwrap();
        for (view, columnar) in views.iter().zip(&shared) {
            let reference = Histogram::materialize(&db, view).unwrap();
            assert_eq!(columnar, &reference, "{}", view.name);
        }
        // All three views over one table: one shared pass.
        assert_eq!(exec.stats().histogram_scans, 1);
        assert_eq!(exec.stats().histograms, 3);
        // The single-view wrapper agrees.
        let single = exec.materialize_histogram(&views[0]).unwrap();
        assert_eq!(&single, &shared[0]);
    }

    #[test]
    fn errors_mirror_the_engine() {
        let (_, exec) = executor(64);
        assert!(matches!(
            exec.execute(&Query::count("nope")),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            exec.execute(&Query::count("adult").filter(Predicate::range("salary", 0, 1))),
            Err(EngineError::UnknownAttribute(_))
        ));
        assert!(matches!(
            exec.execute(&Query::sum("adult", "sex")),
            Err(EngineError::InvalidQuery(_))
        ));
        // A failing query poisons its whole batch before any scan.
        let before = exec.stats().scans;
        assert!(exec
            .execute_batch(&[Query::count("adult"), Query::count("nope")])
            .is_err());
        assert_eq!(exec.stats().scans, before);
        assert!(exec.execute_batch(&[]).unwrap().is_empty());
        // Unknown tables are also refused at epoch-append time.
        assert!(exec
            .append_epoch(
                1,
                &[EpochSegment {
                    table: "nope".to_owned(),
                    columns: Vec::new(),
                    weights: Vec::new(),
                }]
            )
            .is_err());
    }

    #[test]
    fn zone_pruning_skips_shards_without_changing_answers() {
        // adult rows are generated in random order, but a selective range
        // over a binned attribute still prunes some shards at small shard
        // sizes; correctness is the invariant that matters here.
        let (db, exec) = executor(32);
        let q = Query::range_count("adult", "capital_gain", 90_000, 99_999);
        let columnar = exec.execute(&q).unwrap();
        let reference = execute(&db, &q).unwrap().scalar().unwrap();
        assert_eq!(columnar.to_bits(), reference.to_bits());
        let stats = exec.stats();
        assert!(stats.shards_visited > 0);
    }

    #[test]
    fn epoch_appends_update_answers_and_histograms_exactly() {
        let (mut db, exec) = executor(256);
        // Build one epoch of updates: insert 5 rows (copies of row 0 with
        // age forced to 30), delete 3 existing rows by value.
        let adult = db.table("adult").unwrap();
        let schema = adult.schema().clone();
        let age_pos = schema.position("age").unwrap();
        let arity = schema.arity();
        let mut columns: Vec<Vec<u32>> = vec![Vec::new(); arity];
        let mut weights = Vec::new();
        let encoded_row = |t: &dprov_engine::table::Table, row: usize| -> Vec<u32> {
            (0..arity).map(|c| t.column_at(c)[row]).collect()
        };
        for _ in 0..5 {
            let mut row = encoded_row(adult, 0);
            row[age_pos] = 13; // age 30
            for (c, v) in row.into_iter().enumerate() {
                columns[c].push(v);
            }
            weights.push(1.0);
        }
        for del in 1..4 {
            let row = encoded_row(adult, del);
            for (c, v) in row.into_iter().enumerate() {
                columns[c].push(v);
            }
            weights.push(-1.0);
        }
        exec.append_epoch(
            1,
            &[EpochSegment {
                table: "adult".to_owned(),
                columns: columns.clone(),
                weights: weights.clone(),
            }],
        )
        .unwrap();
        assert_eq!(exec.sealed_epoch(), 1);
        assert_eq!(exec.stats().segments_appended, 1);

        // Physically rebuild the reference table.
        {
            let table = db.table_mut("adult").unwrap();
            let inserts: Vec<Vec<u32>> = (0..5)
                .map(|i| (0..arity).map(|c| columns[c][i]).collect())
                .collect();
            let deletes: Vec<Vec<u32>> = (5..8)
                .map(|i| (0..arity).map(|c| columns[c][i]).collect())
                .collect();
            assert_eq!(table.apply_encoded_updates(&inserts, &deletes).unwrap(), 3);
        }

        for q in [
            Query::count("adult"),
            Query::range_count("adult", "age", 30, 30),
            Query::sum("adult", "hours_per_week"),
            Query::avg("adult", "hours_per_week"),
        ] {
            let columnar = exec.execute(&q).unwrap();
            let reference = execute(&db, &q).unwrap().scalar().unwrap();
            assert_eq!(columnar.to_bits(), reference.to_bits(), "{}", q.describe());
        }
        for view in [
            ViewDef::histogram("v_age", "adult", &["age"]),
            ViewDef::clipped("v_hours", "adult", "hours_per_week", 10, 60),
        ] {
            let patched = exec.materialize_histogram(&view).unwrap();
            let rebuilt = Histogram::materialize(&db, &view).unwrap();
            assert_eq!(patched, rebuilt, "{}", view.name);
        }
    }
}
