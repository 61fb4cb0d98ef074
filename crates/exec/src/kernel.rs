//! Compiled, vectorised query kernels.
//!
//! `CompiledQuery::compile` lowers an aggregate [`Query`] into a form the
//! shard scanner can evaluate without touching the AST again:
//!
//! * every predicate **leaf** (range / equality / set membership) becomes an
//!   *accept bitset* over the referenced attribute's finite domain, built by
//!   running the exact row-at-a-time comparison on every decoded domain
//!   value — so the compiled kernel matches precisely the rows
//!   [`Predicate::evaluate_row`] would match, by construction;
//! * boolean combinators become bitwise AND / OR / NOT over per-shard row
//!   masks, built 64 rows per word directly over the encoded columns
//!   (dictionary leaves pre-translate their accept bits into code space,
//!   one bit per dictionary entry);
//! * the aggregate becomes a per-domain-index weight table (SUM / AVG) or a
//!   popcount (COUNT);
//! * predicate trees that only reference **one** column additionally fold
//!   into a single accept bitset over that column's domain (AND/OR/NOT
//!   applied value-wise), enabling the *gather* fast path below.
//!
//! Evaluation is shard-at-a-time: a zone-map pre-check can prove a shard
//! matches no row (skip it) or every row (skip the mask build); otherwise a
//! row mask is materialised and the aggregate accumulates over its set bits
//! **in ascending row order**, which keeps floating-point partials
//! bit-identical to the engine's sequential row loop.
//!
//! # The gather fast path, and why reordering stays bit-identical
//!
//! When a query's predicate folds to a single column and its aggregate
//! weights are that same column's values (or it is a COUNT), the shard's
//! domain map (`ColumnShard::domain_map`) answers it in
//! `O(domain)`: `count = Σ map[v]` and `sum = Σ weights[v]·map[v]` over the
//! accepted values `v` — no row is touched. This *regroups* the
//! floating-point additions of the row loop, which is safe because every
//! term is an exact integer in `f64` (domain values are integers, row
//! weights are ±1) and `CompiledQuery::reassociation_exact` proves all
//! partials stay below 2⁵³, where f64 addition of integers is exact and
//! therefore associative. Queries outside that envelope take the strict
//! sequential path.

use dprov_engine::expr::Predicate;
use dprov_engine::query::{AggregateKind, Query};
use dprov_engine::schema::{Attribute, Schema};
use dprov_engine::{EngineError, Result};

use crate::encode::EncodedColumn;
use crate::store::{ColumnShard, ColumnarTable};

/// Largest magnitude at which every integer-valued `f64` is exactly
/// representable (2⁵³): below it, integer addition in `f64` is exact and
/// associative.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A predicate leaf compiled into an accept bitset over one attribute's
/// domain indices.
#[derive(Debug, Clone)]
struct Leaf {
    /// Schema position of the attribute.
    col: usize,
    /// Accept bitset: bit `i` set iff domain index `i` satisfies the leaf.
    bits: Vec<u64>,
    /// Fast path when the accepted indices are one contiguous run.
    range: Option<(u32, u32)>,
}

impl Leaf {
    fn from_accept(col: usize, domain: usize, accept: impl Fn(usize) -> bool) -> CompiledPredicate {
        let mut bits = vec![0u64; domain.div_ceil(64).max(1)];
        let mut accepted = 0usize;
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for i in 0..domain {
            if accept(i) {
                bits[i / 64] |= 1 << (i % 64);
                accepted += 1;
                lo = lo.min(i as u32);
                hi = hi.max(i as u32);
            }
        }
        if accepted == 0 {
            return CompiledPredicate::Const(false);
        }
        if accepted == domain {
            return CompiledPredicate::Const(true);
        }
        let range = (accepted == (hi - lo + 1) as usize).then_some((lo, hi));
        CompiledPredicate::Leaf(Leaf { col, bits, range })
    }

    #[inline]
    fn accepts(&self, index: u32) -> bool {
        match self.range {
            Some((lo, hi)) => index >= lo && index <= hi,
            None => {
                let i = index as usize;
                self.bits[i / 64] & (1 << (i % 64)) != 0
            }
        }
    }

    /// Whether any / every domain index in `[lo, hi]` is accepted.
    fn coverage(&self, lo: u32, hi: u32) -> (bool, bool) {
        // Contiguous accept runs answer in O(1) interval arithmetic.
        if let Some((a, b)) = self.range {
            return (a <= hi && b >= lo, a <= lo && b >= hi);
        }
        let mut any = false;
        let mut all = true;
        for i in lo..=hi {
            if self.accepts(i) {
                any = true;
            } else {
                all = false;
            }
            if any && !all {
                break;
            }
        }
        (any, all)
    }

    /// ORs the leaf's row hits into `mask`, walking the encoded column
    /// word-at-a-time.
    fn fill_mask(&self, shard: &ColumnShard, mask: &mut [u64]) {
        match shard.column(self.col) {
            EncodedColumn::Plain(values) => match self.range {
                Some((lo, hi)) => {
                    for (row, &v) in values.iter().enumerate() {
                        mask[row / 64] |= u64::from(v >= lo && v <= hi) << (row % 64);
                    }
                }
                None => {
                    for (row, &v) in values.iter().enumerate() {
                        let i = v as usize;
                        let hit = self.bits[i / 64] >> (i % 64) & 1;
                        mask[row / 64] |= hit << (row % 64);
                    }
                }
            },
            EncodedColumn::Packed { base, codes } => {
                if codes.width() == 0 {
                    // All-equal column: one accept test decides every row.
                    if self.accepts(*base) {
                        for w in mask.iter_mut() {
                            *w = !0;
                        }
                        clear_tail(mask, shard.rows());
                    }
                    return;
                }
                match self.range {
                    // Contiguous accepts translate into code space once.
                    Some((lo, hi)) if hi >= *base => {
                        let lo_c = u64::from(lo.saturating_sub(*base));
                        let hi_c = u64::from(hi - *base);
                        codes.for_each(|row, c| {
                            mask[row / 64] |= u64::from(c >= lo_c && c <= hi_c) << (row % 64);
                        });
                    }
                    Some(_) => {}
                    None => {
                        codes.for_each(|row, c| {
                            let i = (*base + c as u32) as usize;
                            let hit = self.bits[i / 64] >> (i % 64) & 1;
                            mask[row / 64] |= hit << (row % 64);
                        });
                    }
                }
            }
            EncodedColumn::Dict { dict, codes } => {
                // Translate the accept set into code space: one bit per
                // dictionary entry, then a single bit test per row.
                let mut accept = vec![0u64; dict.len().div_ceil(64).max(1)];
                for (c, &v) in dict.iter().enumerate() {
                    if self.accepts(v) {
                        accept[c / 64] |= 1 << (c % 64);
                    }
                }
                codes.for_each(|row, c| {
                    let c = c as usize;
                    let hit = accept[c / 64] >> (c % 64) & 1;
                    mask[row / 64] |= hit << (row % 64);
                });
            }
        }
    }
}

/// Three-valued zone-map verdict for a whole shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ZoneVerdict {
    /// No row of the shard can match.
    NoRow,
    /// Every row of the shard matches.
    EveryRow,
    /// The shard must be scanned.
    Scan,
}

/// A compiled predicate tree.
#[derive(Debug, Clone)]
enum CompiledPredicate {
    Const(bool),
    Leaf(Leaf),
    And(Vec<CompiledPredicate>),
    Or(Vec<CompiledPredicate>),
    Not(Box<CompiledPredicate>),
}

/// A predicate tree folded down to a single column: either a constant or
/// one accept bitset over that column's domain.
#[derive(Debug, Clone)]
enum Folded {
    Const(bool),
    Col {
        col: usize,
        bits: Vec<u64>,
        domain: usize,
    },
}

impl CompiledPredicate {
    fn compile(predicate: &Predicate, schema: &Schema) -> Result<CompiledPredicate> {
        Ok(match predicate {
            Predicate::True => CompiledPredicate::Const(true),
            Predicate::Range {
                attribute,
                low,
                high,
            } => {
                let (col, attr) = lookup(schema, attribute)?;
                Leaf::from_accept(col, attr.domain_size(), |i| {
                    attr.value_at(i)
                        .as_int()
                        .is_some_and(|x| x >= *low && x <= *high)
                })
            }
            Predicate::Equals { attribute, value } => {
                let (col, attr) = lookup(schema, attribute)?;
                Leaf::from_accept(col, attr.domain_size(), |i| &attr.value_at(i) == value)
            }
            Predicate::InSet { attribute, values } => {
                let (col, attr) = lookup(schema, attribute)?;
                Leaf::from_accept(col, attr.domain_size(), |i| {
                    values.contains(&attr.value_at(i))
                })
            }
            Predicate::And(children) => CompiledPredicate::And(
                children
                    .iter()
                    .map(|c| CompiledPredicate::compile(c, schema))
                    .collect::<Result<_>>()?,
            ),
            Predicate::Or(children) => CompiledPredicate::Or(
                children
                    .iter()
                    .map(|c| CompiledPredicate::compile(c, schema))
                    .collect::<Result<_>>()?,
            ),
            Predicate::Not(inner) => {
                CompiledPredicate::Not(Box::new(CompiledPredicate::compile(inner, schema)?))
            }
        })
    }

    /// Folds a tree that references at most one column into a value-wise
    /// accept bitset over that column's domain (`None` when more than one
    /// column is involved). Sound because for a single-column predicate,
    /// row acceptance is a function of that column's value alone, and the
    /// boolean combinators distribute over the per-value bits.
    fn fold_single_column(&self, schema: &Schema) -> Option<Folded> {
        match self {
            CompiledPredicate::Const(b) => Some(Folded::Const(*b)),
            CompiledPredicate::Leaf(leaf) => {
                let domain = schema.attributes()[leaf.col].domain_size();
                Some(Folded::Col {
                    col: leaf.col,
                    bits: leaf.bits.clone(),
                    domain,
                })
            }
            CompiledPredicate::And(children) => {
                let mut acc = Folded::Const(true);
                for c in children {
                    acc = combine(acc, c.fold_single_column(schema)?, true)?;
                }
                Some(acc)
            }
            CompiledPredicate::Or(children) => {
                let mut acc = Folded::Const(false);
                for c in children {
                    acc = combine(acc, c.fold_single_column(schema)?, false)?;
                }
                Some(acc)
            }
            CompiledPredicate::Not(inner) => Some(match inner.fold_single_column(schema)? {
                Folded::Const(b) => Folded::Const(!b),
                Folded::Col {
                    col,
                    mut bits,
                    domain,
                } => {
                    for w in &mut bits {
                        *w = !*w;
                    }
                    clear_tail(&mut bits, domain);
                    Folded::Col { col, bits, domain }
                }
            }),
        }
    }

    /// Conservative zone-map evaluation: may answer [`ZoneVerdict::Scan`]
    /// even when a scan would find nothing, but `NoRow` / `EveryRow` are
    /// always exact.
    fn zone_verdict(&self, shard: &ColumnShard) -> ZoneVerdict {
        match self {
            CompiledPredicate::Const(true) => ZoneVerdict::EveryRow,
            CompiledPredicate::Const(false) => ZoneVerdict::NoRow,
            CompiledPredicate::Leaf(leaf) => {
                let (lo, hi) = shard.zone(leaf.col);
                match leaf.coverage(lo, hi) {
                    (false, _) => ZoneVerdict::NoRow,
                    (true, true) => ZoneVerdict::EveryRow,
                    (true, false) => ZoneVerdict::Scan,
                }
            }
            CompiledPredicate::And(children) => {
                let mut verdict = ZoneVerdict::EveryRow;
                for c in children {
                    match c.zone_verdict(shard) {
                        ZoneVerdict::NoRow => return ZoneVerdict::NoRow,
                        ZoneVerdict::Scan => verdict = ZoneVerdict::Scan,
                        ZoneVerdict::EveryRow => {}
                    }
                }
                verdict
            }
            CompiledPredicate::Or(children) => {
                let mut verdict = ZoneVerdict::NoRow;
                for c in children {
                    match c.zone_verdict(shard) {
                        ZoneVerdict::EveryRow => return ZoneVerdict::EveryRow,
                        ZoneVerdict::Scan => verdict = ZoneVerdict::Scan,
                        ZoneVerdict::NoRow => {}
                    }
                }
                verdict
            }
            CompiledPredicate::Not(inner) => match inner.zone_verdict(shard) {
                ZoneVerdict::NoRow => ZoneVerdict::EveryRow,
                ZoneVerdict::EveryRow => ZoneVerdict::NoRow,
                ZoneVerdict::Scan => ZoneVerdict::Scan,
            },
        }
    }

    /// Materialises the row mask of the shard (`words.len() ==
    /// ceil(rows/64)`, tail bits clear).
    fn eval_mask(&self, shard: &ColumnShard) -> Vec<u64> {
        let rows = shard.rows();
        let words = rows.div_ceil(64);
        match self {
            CompiledPredicate::Const(b) => {
                let mut mask = vec![if *b { !0u64 } else { 0 }; words];
                clear_tail(&mut mask, rows);
                mask
            }
            CompiledPredicate::Leaf(leaf) => {
                let mut mask = vec![0u64; words];
                leaf.fill_mask(shard, &mut mask);
                mask
            }
            CompiledPredicate::And(children) => {
                let mut iter = children.iter();
                let mut mask = match iter.next() {
                    Some(first) => first.eval_mask(shard),
                    None => {
                        let mut m = vec![!0u64; words];
                        clear_tail(&mut m, rows);
                        m
                    }
                };
                for c in iter {
                    if mask.iter().all(|&w| w == 0) {
                        break;
                    }
                    let other = c.eval_mask(shard);
                    for (a, b) in mask.iter_mut().zip(other) {
                        *a &= b;
                    }
                }
                mask
            }
            CompiledPredicate::Or(children) => {
                let mut mask = vec![0u64; words];
                for c in children {
                    let other = c.eval_mask(shard);
                    for (a, b) in mask.iter_mut().zip(other) {
                        *a |= b;
                    }
                }
                mask
            }
            CompiledPredicate::Not(inner) => {
                let mut mask = inner.eval_mask(shard);
                for w in &mut mask {
                    *w = !*w;
                }
                clear_tail(&mut mask, rows);
                mask
            }
        }
    }
}

fn clear_tail(mask: &mut [u64], rows: usize) {
    if !rows.is_multiple_of(64) {
        if let Some(last) = mask.last_mut() {
            *last &= (1u64 << (rows % 64)) - 1;
        }
    }
}

/// Combines two folded single-column predicates under AND (`conj`) or OR.
fn combine(a: Folded, b: Folded, conj: bool) -> Option<Folded> {
    Some(match (a, b) {
        (Folded::Const(x), Folded::Const(y)) => Folded::Const(if conj { x && y } else { x || y }),
        (Folded::Const(c), other) | (other, Folded::Const(c)) => {
            if c == conj {
                // true∧x = x, false∨x = x.
                other
            } else {
                // false∧x = false, true∨x = true.
                Folded::Const(c)
            }
        }
        (
            Folded::Col {
                col: ca,
                mut bits,
                domain,
            },
            Folded::Col {
                col: cb,
                bits: other,
                ..
            },
        ) => {
            if ca != cb {
                return None;
            }
            for (x, y) in bits.iter_mut().zip(other) {
                if conj {
                    *x &= y;
                } else {
                    *x |= y;
                }
            }
            Folded::Col {
                col: ca,
                bits,
                domain,
            }
        }
    })
}

fn lookup<'a>(schema: &'a Schema, attribute: &str) -> Result<(usize, &'a Attribute)> {
    let col = schema.position(attribute)?;
    Ok((col, &schema.attributes()[col]))
}

/// The compiled aggregate.
#[derive(Debug, Clone)]
enum CompiledAggregate {
    Count,
    /// SUM / AVG over a numeric attribute: `weights[i]` is the numeric value
    /// of domain index `i`.
    Weighted {
        col: usize,
        weights: Vec<f64>,
        average: bool,
    },
}

/// The `O(domain)` evaluation plan for queries whose predicate folds to a
/// single column compatible with the aggregate: fold the shard's domain
/// map instead of its rows.
#[derive(Debug, Clone)]
struct GatherPlan {
    /// The column whose domain map drives the fold; `None` for an
    /// unfiltered COUNT, which only needs the shard's weight total.
    col: Option<usize>,
    /// Accept bitset over `col`'s domain; `None` accepts every value.
    accept: Option<Vec<u64>>,
}

/// Running partial aggregate of one query, folded shard-by-shard in shard
/// order (which preserves bit-identity with sequential row evaluation).
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialAggregate {
    count: f64,
    sum: f64,
}

/// The outcome of evaluating one query over one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardOutcome {
    /// The zone map proved no row matches; the shard's data was not read.
    Pruned,
    /// The shard contributed to the partial aggregate.
    Scanned,
}

/// A query compiled against one table's schema, ready for shard-at-a-time
/// evaluation.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    table: String,
    predicate: CompiledPredicate,
    aggregate: CompiledAggregate,
    gather: Option<GatherPlan>,
}

impl CompiledQuery {
    /// Compiles a scalar aggregate query. Fails like the engine's
    /// validator: unknown attributes and aggregates over non-numeric
    /// attributes are rejected; GROUP BY queries are not scalar and stay on
    /// the engine's row-at-a-time path.
    pub(crate) fn compile(query: &Query, schema: &Schema) -> Result<CompiledQuery> {
        if !query.group_by.is_empty() {
            return Err(EngineError::InvalidQuery(
                "GROUP BY queries are not supported by the columnar executor".to_owned(),
            ));
        }
        // Match the engine's validation order: every referenced attribute
        // must exist, and the aggregate target must be numeric.
        for attr in query.referenced_attributes() {
            schema.position(&attr)?;
        }
        let aggregate = match &query.aggregate {
            AggregateKind::Count => CompiledAggregate::Count,
            AggregateKind::Sum(target) | AggregateKind::Avg(target) => {
                let (col, attr) = lookup(schema, target)?;
                if !attr.attr_type.is_numeric() {
                    return Err(EngineError::InvalidQuery(format!(
                        "aggregate over non-numeric attribute {target}"
                    )));
                }
                let weights = (0..attr.domain_size())
                    .map(|i| attr.numeric_at(i).unwrap_or(0.0))
                    .collect();
                CompiledAggregate::Weighted {
                    col,
                    weights,
                    average: matches!(query.aggregate, AggregateKind::Avg(_)),
                }
            }
        };
        let predicate = CompiledPredicate::compile(&query.predicate, schema)?;
        let gather = match (&aggregate, predicate.fold_single_column(schema)) {
            // A constant-false predicate prunes every shard via the zone
            // verdict; no plan needed.
            (_, None) | (_, Some(Folded::Const(false))) => None,
            (CompiledAggregate::Count, Some(Folded::Const(true))) => Some(GatherPlan {
                col: None,
                accept: None,
            }),
            (CompiledAggregate::Count, Some(Folded::Col { col, bits, .. })) => Some(GatherPlan {
                col: Some(col),
                accept: Some(bits),
            }),
            (CompiledAggregate::Weighted { col, .. }, Some(Folded::Const(true))) => {
                Some(GatherPlan {
                    col: Some(*col),
                    accept: None,
                })
            }
            (
                CompiledAggregate::Weighted { col: wcol, .. },
                Some(Folded::Col { col, bits, .. }),
            ) if col == *wcol => Some(GatherPlan {
                col: Some(col),
                accept: Some(bits),
            }),
            _ => None,
        };
        Ok(CompiledQuery {
            table: query.table.clone(),
            predicate,
            aggregate,
            gather,
        })
    }

    /// The table the query scans.
    #[must_use]
    pub(crate) fn table(&self) -> &str {
        &self.table
    }

    /// Whether regrouping this query's floating-point additions is exact,
    /// i.e. whether the domain-map gathers (per shard and table-level) are
    /// provably bit-identical to the strict sequential row loop: all
    /// aggregate terms must be integers and every partial (bounded by
    /// `max |weight| × physical rows`) must stay below 2⁵³, where integer
    /// f64 addition is exact and associative. COUNT
    /// terms are ±1, so it always qualifies; SUM/AVG qualifies for every
    /// realistic schema (a 10⁹-valued domain would need ~9·10⁶ billion
    /// rows to overflow the envelope).
    #[must_use]
    pub(crate) fn reassociation_exact(&self, physical_rows: usize) -> bool {
        match &self.aggregate {
            CompiledAggregate::Count => true,
            CompiledAggregate::Weighted { weights, .. } => {
                let mut max_w = 0.0f64;
                for &w in weights {
                    if w.fract() != 0.0 {
                        return false;
                    }
                    max_w = max_w.max(w.abs());
                }
                max_w * (physical_rows as f64 + 1.0) < EXACT_INT_LIMIT
            }
        }
    }

    /// Folds the shard's domain map under the gather plan. Returns `false`
    /// when the plan needs a domain map the shard doesn't carry (domain
    /// too large) and the caller must fall back to the row path.
    fn eval_gather(
        &self,
        plan: &GatherPlan,
        shard: &ColumnShard,
        p: &mut PartialAggregate,
    ) -> bool {
        let Some(col) = plan.col else {
            // Unfiltered COUNT: the shard's weight total is the answer.
            p.count += shard.weight_total();
            return true;
        };
        let Some(map) = shard.domain_map(col) else {
            return false;
        };
        self.fold_domain_map(plan.accept.as_ref(), map, p);
        true
    }

    /// Folds a weighted value histogram (one shard's, or the table-level
    /// combination) into the partial.
    fn fold_domain_map(&self, accept: Option<&Vec<u64>>, map: &[f64], p: &mut PartialAggregate) {
        let accepted = |v: usize| accept.is_none_or(|bits| bits[v / 64] >> (v % 64) & 1 != 0);
        match &self.aggregate {
            CompiledAggregate::Count => {
                for (v, &m) in map.iter().enumerate() {
                    if m != 0.0 && accepted(v) {
                        p.count += m;
                    }
                }
            }
            CompiledAggregate::Weighted { weights, .. } => {
                for (v, &m) in map.iter().enumerate() {
                    if m != 0.0 && accepted(v) {
                        p.count += m;
                        p.sum += weights[v] * m;
                    }
                }
            }
        }
    }

    /// Answers the query from the table's precombined domain map in
    /// `O(domain)`, independent of the shard count. Returns `false` —
    /// caller falls back to the shard walk — when the query has no gather
    /// plan or the table lacks the combined map. Callers must only invoke
    /// this when [`Self::reassociation_exact`] holds: the table-level map
    /// regroups the same exact-integer additions the per-shard fold
    /// performs, so the answer is bit-identical.
    pub(crate) fn eval_gather_table(
        &self,
        table: &ColumnarTable,
        p: &mut PartialAggregate,
    ) -> bool {
        let Some(plan) = &self.gather else {
            return false;
        };
        let Some(col) = plan.col else {
            p.count += table.weight_total();
            return true;
        };
        let Some(map) = table.combined_map(col) else {
            return false;
        };
        self.fold_domain_map(plan.accept.as_ref(), map, p);
        true
    }

    /// Folds one shard into the partial aggregate. Base shards take the
    /// unweighted fast path (popcounts, whole-shard row counts); delta
    /// shards fold each row's signed weight into COUNT and `weight ×
    /// value` into SUM, so a delete-by-value row cancels the contribution
    /// of the row it deletes. Every accumulated term is an exact integer
    /// in `f64` (all domain values are integers), so the weighted fold is
    /// bit-identical to scanning a physically rebuilt table.
    ///
    /// With `allow_gather` the single-column gather plan may answer the
    /// shard from its domain map in `O(domain)`; callers must only enable
    /// it when [`Self::reassociation_exact`] holds for the table.
    pub(crate) fn eval_shard(
        &self,
        shard: &ColumnShard,
        partial: &mut PartialAggregate,
        allow_gather: bool,
    ) -> ShardOutcome {
        let verdict = self.predicate.zone_verdict(shard);
        if verdict == ZoneVerdict::NoRow {
            return ShardOutcome::Pruned;
        }
        if allow_gather {
            if let Some(plan) = &self.gather {
                if self.eval_gather(plan, shard, partial) {
                    return ShardOutcome::Scanned;
                }
            }
        }
        match verdict {
            ZoneVerdict::NoRow => unreachable!("handled above"),
            ZoneVerdict::EveryRow => match shard.weights() {
                None => {
                    partial.count += shard.rows() as f64;
                    if let CompiledAggregate::Weighted { col, weights, .. } = &self.aggregate {
                        shard
                            .column(*col)
                            .for_each(|_, v| partial.sum += weights[v as usize]);
                    }
                }
                Some(row_weights) => {
                    for &w in row_weights {
                        partial.count += w;
                    }
                    if let CompiledAggregate::Weighted { col, weights, .. } = &self.aggregate {
                        shard.column(*col).for_each(|row, v| {
                            partial.sum += row_weights[row] * weights[v as usize];
                        });
                    }
                }
            },
            ZoneVerdict::Scan => {
                let mask = self.predicate.eval_mask(shard);
                match shard.weights() {
                    None => {
                        let matched: u32 = mask.iter().map(|w| w.count_ones()).sum();
                        partial.count += f64::from(matched);
                        if let CompiledAggregate::Weighted { col, weights, .. } = &self.aggregate {
                            let column = shard.column(*col);
                            // Ascending row order keeps the floating-point
                            // sum bit-identical to the row-at-a-time loop.
                            for (word_idx, mut word) in mask.iter().copied().enumerate() {
                                while word != 0 {
                                    let row = word_idx * 64 + word.trailing_zeros() as usize;
                                    partial.sum += weights[column.get(row) as usize];
                                    word &= word - 1;
                                }
                            }
                        }
                    }
                    Some(row_weights) => {
                        let value_weights = match &self.aggregate {
                            CompiledAggregate::Weighted { col, weights, .. } => {
                                Some((shard.column(*col), weights))
                            }
                            CompiledAggregate::Count => None,
                        };
                        for (word_idx, mut word) in mask.iter().copied().enumerate() {
                            while word != 0 {
                                let row = word_idx * 64 + word.trailing_zeros() as usize;
                                let w = row_weights[row];
                                partial.count += w;
                                if let Some((column, weights)) = value_weights {
                                    partial.sum += w * weights[column.get(row) as usize];
                                }
                                word &= word - 1;
                            }
                        }
                    }
                }
            }
        }
        ShardOutcome::Scanned
    }

    /// Finishes a partial aggregate into the query's scalar answer, with
    /// the engine's conventions (AVG of an empty selection is 0).
    #[must_use]
    pub(crate) fn finish(&self, partial: &PartialAggregate) -> f64 {
        match &self.aggregate {
            CompiledAggregate::Count => partial.count,
            CompiledAggregate::Weighted { average: false, .. } => partial.sum,
            CompiledAggregate::Weighted { average: true, .. } => {
                if partial.count == 0.0 {
                    0.0
                } else {
                    partial.sum / partial.count
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::ColumnEncoding;
    use crate::store::ColumnarTable;
    use dprov_engine::schema::{Attribute, AttributeType};
    use dprov_engine::table::Table;
    use dprov_engine::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("age", AttributeType::integer(20, 29)),
            Attribute::new("sex", AttributeType::categorical(&["F", "M"])),
            Attribute::new("hours", AttributeType::binned_integer(0, 99, 10)),
        ])
    }

    fn store(shard_rows: usize, encoding: ColumnEncoding) -> ColumnarTable {
        let mut t = Table::new("t", schema());
        let rows = [
            (20, "F", 5),
            (22, "M", 18),
            (25, "F", 33),
            (25, "M", 47),
            (29, "F", 52),
            (23, "F", 95),
        ];
        for (age, sex, hours) in rows {
            t.insert_row(&[Value::Int(age), Value::text(sex), Value::Int(hours)])
                .unwrap();
        }
        ColumnarTable::ingest_with(&t, shard_rows, encoding)
    }

    fn run_with(query: &Query, shard_rows: usize, encoding: ColumnEncoding, gather: bool) -> f64 {
        let table = store(shard_rows, encoding);
        let compiled = CompiledQuery::compile(query, table.schema()).unwrap();
        let mut partial = PartialAggregate::default();
        for shard in table.shards() {
            compiled.eval_shard(shard, &mut partial, gather);
        }
        compiled.finish(&partial)
    }

    fn run(query: &Query, shard_rows: usize) -> f64 {
        let encodings = [
            ColumnEncoding::Auto,
            ColumnEncoding::Plain,
            ColumnEncoding::BitPacked,
            ColumnEncoding::Dictionary,
        ];
        let mut answers = encodings.iter().flat_map(|&e| {
            [
                run_with(query, shard_rows, e, false),
                run_with(query, shard_rows, e, true),
            ]
        });
        let first = answers.next().unwrap();
        // Every encoding, with and without the gather fast path, agrees
        // bit-for-bit.
        assert!(
            answers.all(|a| a.to_bits() == first.to_bits()),
            "encodings/gather disagree for {}",
            query.describe()
        );
        first
    }

    #[test]
    fn count_sum_avg_match_hand_computed_answers() {
        for shard_rows in [1, 2, 4, 64] {
            assert_eq!(run(&Query::count("t"), shard_rows), 6.0);
            // Weights are bin lower edges: 0, 10, 30, 40, 50, 90.
            assert_eq!(run(&Query::sum("t", "hours"), shard_rows), 220.0);
            let q = Query::avg("t", "hours").filter(Predicate::equals("sex", "F"));
            assert_eq!(run(&q, shard_rows), 170.0 / 4.0);
        }
    }

    #[test]
    fn predicate_combinators_match_row_semantics() {
        let q = Query::count("t").filter(Predicate::Or(vec![
            Predicate::range("age", 20, 21),
            Predicate::Not(Box::new(Predicate::equals("sex", "F"))),
        ]));
        assert_eq!(run(&q, 2), 3.0);
        // Range over a categorical attribute matches nothing, like
        // `evaluate_row` (as_int() is None).
        let q = Query::count("t").filter(Predicate::range("sex", 0, 1));
        assert_eq!(run(&q, 2), 0.0);
        // InSet over decoded values.
        let q = Query::count("t").filter(Predicate::InSet {
            attribute: "age".to_owned(),
            values: vec![Value::Int(25), Value::Int(29)],
        });
        assert_eq!(run(&q, 3), 3.0);
    }

    #[test]
    fn single_column_trees_fold_into_a_gather_plan() {
        let schema = schema();
        // AND/OR/NOT over one column folds; mixed columns don't.
        let single = Query::count("t").filter(Predicate::And(vec![
            Predicate::range("age", 21, 27),
            Predicate::Not(Box::new(Predicate::equals("age", 25))),
        ]));
        let compiled = CompiledQuery::compile(&single, &schema).unwrap();
        assert!(compiled.gather.is_some());
        assert_eq!(run(&single, 2), 2.0); // ages 22, 23

        let mixed = Query::count("t").filter(Predicate::And(vec![
            Predicate::range("age", 21, 27),
            Predicate::equals("sex", "F"),
        ]));
        let compiled = CompiledQuery::compile(&mixed, &schema).unwrap();
        assert!(compiled.gather.is_none());
        assert_eq!(run(&mixed, 2), 2.0); // (25,F,33), (23,F,95)

        // SUM gathers only when the filter column IS the aggregate column.
        let sum_same = Query::sum("t", "hours").filter(Predicate::range("hours", 10, 59));
        let compiled = CompiledQuery::compile(&sum_same, &schema).unwrap();
        assert!(compiled.gather.is_some());
        assert_eq!(run(&sum_same, 2), 130.0); // bins 10, 30, 40, 50

        let sum_other = Query::sum("t", "hours").filter(Predicate::range("age", 20, 24));
        let compiled = CompiledQuery::compile(&sum_other, &schema).unwrap();
        assert!(compiled.gather.is_none());
        assert_eq!(run(&sum_other, 2), 100.0); // bins 0, 10, 90
    }

    #[test]
    fn reassociation_envelope_covers_realistic_tables_only() {
        let schema = schema();
        let count = CompiledQuery::compile(&Query::count("t"), &schema).unwrap();
        assert!(count.reassociation_exact(usize::MAX >> 10));
        let sum = CompiledQuery::compile(&Query::sum("t", "hours"), &schema).unwrap();
        assert!(sum.reassociation_exact(1 << 40));
        // A domain value of ~90 overflows 2^53 at ~10^14 rows.
        assert!(!sum.reassociation_exact(1 << 50));
    }

    #[test]
    fn zone_maps_prune_impossible_shards() {
        let table = store(2, ColumnEncoding::Auto); // shards: ages [20,22], [25,25], [29,23]
        let q = Query::range_count("t", "age", 25, 25);
        let compiled = CompiledQuery::compile(&q, table.schema()).unwrap();
        let mut partial = PartialAggregate::default();
        let outcomes: Vec<ShardOutcome> = table
            .shards()
            .iter()
            .map(|s| compiled.eval_shard(s, &mut partial, false))
            .collect();
        assert_eq!(compiled.finish(&partial), 2.0);
        assert_eq!(outcomes[0], ShardOutcome::Pruned);
        assert_eq!(outcomes[1], ShardOutcome::Scanned);
    }

    #[test]
    fn weighted_delta_shards_cancel_deleted_rows_exactly() {
        // Table + a delta segment (insert (24, M, 18), delete (25, F, 33))
        // must answer exactly like a physically rebuilt table.
        let mut base = Table::new("t", schema());
        let rows = [
            (20, "F", 5),
            (22, "M", 18),
            (25, "F", 33),
            (25, "M", 47),
            (29, "F", 52),
        ];
        for (age, sex, hours) in rows {
            base.insert_row(&[Value::Int(age), Value::text(sex), Value::Int(hours)])
                .unwrap();
        }
        let mut rebuilt = Table::new("t", schema());
        for (age, sex, hours) in [
            (20, "F", 5),
            (22, "M", 18),
            (25, "M", 47),
            (29, "F", 52),
            (24, "M", 18),
        ] {
            rebuilt
                .insert_row(&[Value::Int(age), Value::text(sex), Value::Int(hours)])
                .unwrap();
        }
        let mut rebuilt_db = dprov_engine::database::Database::new();
        rebuilt_db.add_table(rebuilt);

        let queries = [
            Query::count("t"),
            Query::sum("t", "hours"),
            Query::avg("t", "hours"),
            Query::count("t").filter(Predicate::equals("sex", "F")),
            Query::range_count("t", "age", 24, 26),
            Query::sum("t", "hours").filter(Predicate::range("age", 25, 29)),
        ];
        for encoding in [
            ColumnEncoding::Auto,
            ColumnEncoding::Plain,
            ColumnEncoding::BitPacked,
            ColumnEncoding::Dictionary,
        ] {
            for gather in [false, true] {
                let mut store = ColumnarTable::ingest_with(&base, 3, encoding);
                // Encoded: age 24 -> 4, M -> 1, hours 18 -> bin 1; delete
                // row (25, F, 33) -> (5, 0, 3).
                store.append_delta_segment(&[vec![4, 5], vec![1, 0], vec![1, 3]], &[1.0, -1.0], 1);
                for q in &queries {
                    let compiled = CompiledQuery::compile(q, store.schema()).unwrap();
                    let mut partial = PartialAggregate::default();
                    for shard in store.shards() {
                        compiled.eval_shard(shard, &mut partial, gather);
                    }
                    let got = compiled.finish(&partial);
                    let want = dprov_engine::exec::execute(&rebuilt_db, q)
                        .unwrap()
                        .scalar()
                        .unwrap();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} under {encoding:?} gather={gather}",
                        q.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn compile_rejects_what_the_engine_rejects() {
        let schema = schema();
        assert!(matches!(
            CompiledQuery::compile(&Query::count("t").group_by(&["sex"]), &schema),
            Err(EngineError::InvalidQuery(_))
        ));
        assert!(matches!(
            CompiledQuery::compile(&Query::sum("t", "sex"), &schema),
            Err(EngineError::InvalidQuery(_))
        ));
        assert!(matches!(
            CompiledQuery::compile(
                &Query::count("t").filter(Predicate::range("salary", 0, 1)),
                &schema
            ),
            Err(EngineError::UnknownAttribute(_))
        ));
    }
}
