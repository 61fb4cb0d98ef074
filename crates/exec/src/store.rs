//! The sharded column-store: immutable base shards plus append-only,
//! epoch-tagged delta segments, with per-column compressed encodings.
//!
//! `ColumnarTable::ingest_with` converts a [`dprov_engine::table::Table`] —
//! whose cells are already domain-index encoded `u32`s — into fixed-size
//! row shards. Each shard owns one [`EncodedColumn`] per attribute
//! (bit-packed / dictionary / plain, chosen per column at ingest by the
//! configured [`ColumnEncoding`] policy) plus a per-attribute *zone map*
//! (the min/max encoded index present in the shard), so kernels can skip
//! whole shards whose value ranges provably cannot satisfy a predicate.
//! Small-domain columns additionally carry a **domain map** — the
//! weighted per-value row count of the shard — which lets single-column
//! aggregates fold a shard in `O(domain)` instead of `O(rows)`.
//!
//! Base shards are immutable after ingest. Dynamic data arrives as
//! **delta segments** (`ColumnarTable::append_delta_segment`): per-epoch
//! immutable shard runs appended after the existing shard set — old shards
//! are **never rewritten**. A delta shard carries a per-row signed weight
//! (`+1` insert, `-1` delete-by-value) and its columns are encoded exactly
//! like base shards; kernels fold `weight` (COUNT) and `weight × value`
//! (SUM) so a deleted row's contribution cancels exactly. All domain
//! values are integers, so the weighted aggregates stay exact integer
//! arithmetic in `f64` — bit-identical to re-scanning a physically
//! rebuilt table.

use dprov_engine::schema::Schema;
use dprov_engine::table::Table;

use crate::encode::{ColumnEncoding, EncodedColumn};

/// Columns whose domain is at most this large carry a per-shard domain
/// map (weighted per-value counts). Larger domains would spend more on
/// the map than a scan costs.
const MAX_DOMAIN_MAP: usize = 16_384;

/// One horizontal partition of a table: an encoded slice of every column
/// plus per-column zone maps and domain maps, and — for delta segments —
/// per-row signed weights.
#[derive(Debug, Clone)]
pub struct ColumnShard {
    /// One encoded column per attribute (schema order), each `rows` long.
    columns: Vec<EncodedColumn>,
    /// `(min, max)` encoded index per attribute over this shard's rows.
    zones: Vec<(u32, u32)>,
    rows: usize,
    /// Per-row signed weights (`None` for base shards — implicitly all
    /// `+1.0`). Delta shards carry `+1.0` per inserted row and `-1.0` per
    /// deleted row.
    weights: Option<Vec<f64>>,
    /// The update epoch that sealed this shard (`0` for base shards).
    epoch: u64,
    /// Per-attribute weighted value histogram (`map[v]` = summed weight
    /// of the shard's rows holding domain index `v`), present for
    /// attributes whose domain is at most [`MAX_DOMAIN_MAP`]. Every entry
    /// is an exact integer in `f64`.
    domain_maps: Vec<Option<Vec<f64>>>,
    /// Summed weight of every row (`rows as f64` for base shards).
    weight_total: f64,
}

impl ColumnShard {
    fn build(
        raw: &[&[u32]],
        weights: Option<&[f64]>,
        domains: &[usize],
        encoding: ColumnEncoding,
        epoch: u64,
    ) -> Self {
        let rows = raw.first().map_or(0, |c| c.len());
        let zones = zone_maps(raw);
        let columns: Vec<EncodedColumn> = raw
            .iter()
            .map(|c| EncodedColumn::encode(c, encoding))
            .collect();
        let domain_maps: Vec<Option<Vec<f64>>> = raw
            .iter()
            .zip(domains)
            .map(|(column, &domain)| {
                if domain > MAX_DOMAIN_MAP {
                    return None;
                }
                let mut map = vec![0.0f64; domain];
                match weights {
                    None => {
                        for &v in *column {
                            map[v as usize] += 1.0;
                        }
                    }
                    Some(ws) => {
                        for (&v, &w) in column.iter().zip(ws) {
                            map[v as usize] += w;
                        }
                    }
                }
                Some(map)
            })
            .collect();
        let weight_total = match weights {
            None => rows as f64,
            Some(ws) => {
                let mut total = 0.0;
                for &w in ws {
                    total += w;
                }
                total
            }
        };
        ColumnShard {
            columns,
            zones,
            rows,
            weights: weights.map(<[f64]>::to_vec),
            epoch,
            domain_maps,
            weight_total,
        }
    }

    /// Number of rows in the shard (always ≥ 1: empty shards are never
    /// created).
    #[must_use]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The shard's encoded slice of the attribute at `position` (schema
    /// order). Decoding yields exactly the ingested domain indices.
    #[must_use]
    pub fn column(&self, position: usize) -> &EncodedColumn {
        &self.columns[position]
    }

    /// The `(min, max)` encoded-index zone of the attribute at `position`.
    #[must_use]
    pub(crate) fn zone(&self, position: usize) -> (u32, u32) {
        self.zones[position]
    }

    /// The weighted value histogram of the attribute at `position`
    /// (`map[v]` = summed weight of rows holding domain index `v`), if
    /// the attribute's domain is small enough to carry one.
    #[must_use]
    pub(crate) fn domain_map(&self, position: usize) -> Option<&[f64]> {
        self.domain_maps[position].as_deref()
    }

    /// Summed weight of every row in the shard (`rows as f64` for base
    /// shards; inserts minus deletes for delta shards).
    #[must_use]
    pub(crate) fn weight_total(&self) -> f64 {
        self.weight_total
    }

    /// Per-row signed weights; `None` means every row weighs `+1.0` (base
    /// shards).
    #[must_use]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// The update epoch that sealed this shard (`0` for base shards).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Heap bytes of the encoded column payloads (dictionaries included;
    /// zone maps, domain maps and weights are auxiliary index structures
    /// and excluded, as they are from [`Self::plain_bytes`]).
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        self.columns.iter().map(EncodedColumn::heap_bytes).sum()
    }

    /// Bytes the same column payloads occupy un-encoded (4 bytes per
    /// cell).
    #[must_use]
    pub fn plain_bytes(&self) -> usize {
        self.rows * self.columns.len() * 4
    }
}

fn zone_maps(columns: &[&[u32]]) -> Vec<(u32, u32)> {
    columns
        .iter()
        .map(|c| {
            let mut lo = u32::MAX;
            let mut hi = 0u32;
            for &v in *c {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (lo, hi)
        })
        .collect()
}

/// A columnar table: the schema, the immutable base shards, and the
/// append-only epoch-tagged delta segments.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    schema: Schema,
    shards: Vec<ColumnShard>,
    /// Physical rows across all shards (delta rows count once each,
    /// whether they carry weight `+1` or `-1`).
    rows: usize,
    shard_rows: usize,
    /// Per-attribute domain sizes (schema order), cached for shard
    /// construction.
    domains: Vec<usize>,
    /// The encoding policy applied to every shard (base and delta).
    encoding: ColumnEncoding,
    /// The last update epoch whose segment was appended (0 = base only).
    sealed_epoch: u64,
    /// Table-level domain maps: per attribute, the sum of every shard's
    /// weighted value histogram (`None` when the domain exceeds
    /// [`MAX_DOMAIN_MAP`]). Every entry is an exact `f64` integer, so the
    /// precombination is bit-identical to folding the shards one by one —
    /// it lets a gather-eligible query answer in `O(domain)` independent
    /// of the table's shard count.
    combined_maps: Vec<Option<Vec<f64>>>,
    /// Sum of every shard's weight total: the logical `COUNT(*)`.
    weight_total: f64,
}

/// Adds `shard`'s domain maps and weight total onto the table-level
/// accumulators (exact integer arithmetic throughout).
fn accumulate_combined(
    combined: &mut [Option<Vec<f64>>],
    weight_total: &mut f64,
    shard: &ColumnShard,
) {
    *weight_total += shard.weight_total();
    for (pos, slot) in combined.iter_mut().enumerate() {
        let Some(acc) = slot else { continue };
        match shard.domain_map(pos) {
            Some(map) => {
                for (a, &m) in acc.iter_mut().zip(map) {
                    *a += m;
                }
            }
            None => *slot = None,
        }
    }
}

impl ColumnarTable {
    /// [`Self::ingest_with`] under the default [`ColumnEncoding::Auto`]
    /// policy.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn ingest(table: &Table, shard_rows: usize) -> Self {
        Self::ingest_with(table, shard_rows, ColumnEncoding::Auto)
    }

    /// Converts an engine table into the sharded columnar format under the
    /// per-column `encoding` policy. Rows keep their original order (shard
    /// `i` holds rows `[i·shard_rows, (i+1)·shard_rows)`), which is what
    /// makes columnar aggregation bit-identical to the engine's
    /// row-at-a-time evaluation: both accumulate floating-point partials in
    /// the same row order.
    #[must_use]
    pub(crate) fn ingest_with(table: &Table, shard_rows: usize, encoding: ColumnEncoding) -> Self {
        let shard_rows = shard_rows.max(1);
        let rows = table.num_rows();
        let schema = table.schema().clone();
        let domains: Vec<usize> = schema
            .attributes()
            .iter()
            .map(|a| a.domain_size())
            .collect();
        let columns = table.columns();
        let mut shards = Vec::with_capacity(rows.div_ceil(shard_rows));
        let mut combined_maps: Vec<Option<Vec<f64>>> = domains
            .iter()
            .map(|&d| (d <= MAX_DOMAIN_MAP).then(|| vec![0.0f64; d]))
            .collect();
        let mut weight_total = 0.0f64;
        let mut start = 0;
        while start < rows {
            let end = (start + shard_rows).min(rows);
            let slices: Vec<&[u32]> = columns.iter().map(|c| &c[start..end]).collect();
            let shard = ColumnShard::build(&slices, None, &domains, encoding, 0);
            accumulate_combined(&mut combined_maps, &mut weight_total, &shard);
            shards.push(shard);
            start = end;
        }
        ColumnarTable {
            schema,
            shards,
            rows,
            shard_rows,
            domains,
            encoding,
            sealed_epoch: 0,
            combined_maps,
            weight_total,
        }
    }

    /// Appends one epoch's delta segment: `columns` holds the delta rows
    /// (inserts and deletes, in submission order) and `weights` one signed
    /// weight per row. Existing shards are untouched — the segment becomes
    /// new shards after the current shard set, partitioned by the table's
    /// configured shard size and encoded under the table's policy. Epochs
    /// must arrive in order (`epoch == sealed_epoch + 1`); empty segments
    /// still advance the epoch.
    ///
    /// # Panics
    ///
    /// Panics when the column count does not match the schema arity, when
    /// column lengths and the weight count disagree, or when the epoch is
    /// out of sequence — these are internal sequencing bugs, not inputs.
    pub(crate) fn append_delta_segment(
        &mut self,
        columns: &[Vec<u32>],
        weights: &[f64],
        epoch: u64,
    ) {
        assert_eq!(
            columns.len(),
            self.schema.arity(),
            "delta segment arity mismatch"
        );
        assert_eq!(
            epoch,
            self.sealed_epoch + 1,
            "delta segments must seal consecutive epochs"
        );
        let rows = weights.len();
        for col in columns {
            assert_eq!(col.len(), rows, "delta column length mismatch");
        }
        let mut start = 0;
        while start < rows {
            let end = (start + self.shard_rows).min(rows);
            let slices: Vec<&[u32]> = columns.iter().map(|c| &c[start..end]).collect();
            let shard = ColumnShard::build(
                &slices,
                Some(&weights[start..end]),
                &self.domains,
                self.encoding,
                epoch,
            );
            accumulate_combined(&mut self.combined_maps, &mut self.weight_total, &shard);
            self.shards.push(shard);
            start = end;
        }
        self.rows += rows;
        self.sealed_epoch = epoch;
    }

    /// The table schema.
    #[must_use]
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of physical rows across all shards (delta delete
    /// markers count as rows; the *logical* row count is the weighted sum
    /// a COUNT(*) scan returns).
    #[must_use]
    pub(crate) fn num_rows(&self) -> usize {
        self.rows
    }

    /// The shards, in row order: base shards first, then each epoch's
    /// delta shards in seal order.
    #[must_use]
    pub fn shards(&self) -> &[ColumnShard] {
        &self.shards
    }

    /// Heap bytes of all encoded column payloads across the shard set.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.shards.iter().map(ColumnShard::encoded_bytes).sum()
    }

    /// Bytes the same payloads occupy un-encoded (4 bytes per cell).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn plain_bytes(&self) -> usize {
        self.shards.iter().map(ColumnShard::plain_bytes).sum()
    }

    /// The last update epoch whose segment was appended (0 = base only).
    #[must_use]
    pub(crate) fn sealed_epoch(&self) -> u64 {
        self.sealed_epoch
    }

    /// The table-level weighted value histogram of one attribute — the
    /// exact sum of every shard's domain map — or `None` when the domain
    /// exceeds the map cap.
    #[must_use]
    pub(crate) fn combined_map(&self, position: usize) -> Option<&[f64]> {
        self.combined_maps[position].as_deref()
    }

    /// Summed weight of every row across all shards: the logical
    /// `COUNT(*)` of the table (deletes cancel their inserts).
    #[must_use]
    pub(crate) fn weight_total(&self) -> f64 {
        self.weight_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncodingKind;
    use dprov_engine::schema::{Attribute, AttributeType};
    use dprov_engine::value::Value;

    fn table(rows: usize) -> Table {
        let schema = Schema::new(vec![
            Attribute::new("age", AttributeType::integer(0, 99)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..rows {
            t.insert_row(&[
                Value::Int((i * 7 % 100) as i64),
                Value::text(if i % 3 == 0 { "F" } else { "M" }),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn ingest_partitions_rows_in_order() {
        let t = table(10);
        let c = ColumnarTable::ingest(&t, 4);
        assert_eq!(c.num_rows(), 10);
        assert_eq!(c.shards().len(), 3);
        assert_eq!(
            c.shards().iter().map(ColumnShard::rows).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        // Concatenating the decoded shards reproduces the original columns.
        let rebuilt: Vec<u32> = c
            .shards()
            .iter()
            .flat_map(|s| s.column(0).to_vec())
            .collect();
        assert_eq!(rebuilt, t.columns()[0]);
        // Base shards carry no weights and epoch 0.
        for shard in c.shards() {
            assert!(shard.weights().is_none());
            assert_eq!(shard.epoch(), 0);
            assert_eq!(shard.weight_total(), shard.rows() as f64);
        }
        assert_eq!(c.sealed_epoch(), 0);
    }

    #[test]
    fn every_encoding_policy_round_trips_the_rows() {
        let t = table(37);
        for encoding in [
            ColumnEncoding::Auto,
            ColumnEncoding::Plain,
            ColumnEncoding::BitPacked,
            ColumnEncoding::Dictionary,
        ] {
            let c = ColumnarTable::ingest_with(&t, 8, encoding);
            for pos in 0..2 {
                let rebuilt: Vec<u32> = c
                    .shards()
                    .iter()
                    .flat_map(|s| s.column(pos).to_vec())
                    .collect();
                assert_eq!(rebuilt, t.columns()[pos], "{encoding:?} col {pos}");
            }
        }
        // The auto policy actually compresses this small-domain table.
        let auto = ColumnarTable::ingest_with(&t, 8, ColumnEncoding::Auto);
        assert!(auto.encoded_bytes() < auto.plain_bytes());
        let plain = ColumnarTable::ingest_with(&t, 8, ColumnEncoding::Plain);
        assert_eq!(plain.encoded_bytes(), plain.plain_bytes());
        assert_eq!(
            plain.shards()[0].column(0).kind(),
            EncodingKind::Plain,
            "plain policy keeps raw vectors"
        );
    }

    #[test]
    fn zone_maps_bound_the_shard_contents() {
        let c = ColumnarTable::ingest(&table(64), 16);
        for shard in c.shards() {
            for pos in 0..2 {
                let (lo, hi) = shard.zone(pos);
                let decoded = shard.column(pos).to_vec();
                assert!(decoded.iter().all(|&v| v >= lo && v <= hi));
                assert!(decoded.contains(&lo));
                assert!(decoded.contains(&hi));
            }
        }
    }

    #[test]
    fn domain_maps_are_weighted_value_histograms() {
        let mut c = ColumnarTable::ingest(&table(20), 8);
        c.append_delta_segment(&[vec![5, 5, 7], vec![0, 1, 1]], &[1.0, 1.0, -1.0], 1);
        for shard in c.shards() {
            for pos in 0..2 {
                let map = shard.domain_map(pos).expect("small domains carry maps");
                let decoded = shard.column(pos).to_vec();
                let mut expect = vec![0.0f64; map.len()];
                for (row, &v) in decoded.iter().enumerate() {
                    expect[v as usize] += shard.weights().map_or(1.0, |w| w[row]);
                }
                assert_eq!(map, &expect[..]);
                assert_eq!(map.iter().sum::<f64>(), shard.weight_total());
            }
        }
    }

    #[test]
    fn empty_table_has_no_shards_and_zero_shard_rows_is_clamped() {
        let c = ColumnarTable::ingest(&table(0), 0);
        assert_eq!(c.num_rows(), 0);
        assert!(c.shards().is_empty());
        let c = ColumnarTable::ingest(&table(3), 0);
        assert_eq!(c.shards().len(), 3);
    }

    #[test]
    fn delta_segments_append_without_rewriting_base_shards() {
        let mut c = ColumnarTable::ingest(&table(6), 4);
        let base_shards = c.shards().len();
        let base_rows = c.num_rows();
        // Epoch 1: two inserts and one delete-by-value.
        let columns = vec![vec![5u32, 9, 0], vec![1u32, 0, 0]];
        let weights = vec![1.0, 1.0, -1.0];
        c.append_delta_segment(&columns, &weights, 1);
        assert_eq!(c.sealed_epoch(), 1);
        assert_eq!(c.num_rows(), base_rows + 3);
        assert_eq!(c.shards().len(), base_shards + 1);
        let delta = c.shards().last().unwrap();
        assert_eq!(delta.epoch(), 1);
        assert_eq!(delta.weights(), Some(&[1.0, 1.0, -1.0][..]));
        assert_eq!(delta.zone(0), (0, 9));
        assert_eq!(delta.weight_total(), 1.0);
        assert_eq!(delta.column(0).to_vec(), vec![5, 9, 0]);
        // Epoch 2: empty segment still advances the epoch, adds no shard.
        c.append_delta_segment(&[Vec::new(), Vec::new()], &[], 2);
        assert_eq!(c.sealed_epoch(), 2);
        assert_eq!(c.shards().len(), base_shards + 1);
        // Segments larger than the shard size split like base ingestion.
        let columns = vec![vec![1u32; 10], vec![0u32; 10]];
        let weights = vec![1.0; 10];
        c.append_delta_segment(&columns, &weights, 3);
        assert_eq!(c.shards().len(), base_shards + 1 + 3);
    }

    #[test]
    #[should_panic(expected = "consecutive epochs")]
    fn out_of_sequence_epochs_panic() {
        let mut c = ColumnarTable::ingest(&table(3), 4);
        c.append_delta_segment(&[Vec::new(), Vec::new()], &[], 5);
    }
}
