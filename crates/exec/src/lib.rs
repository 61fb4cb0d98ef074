//! # `dprov-exec` — batched columnar execution for DProvDB
//!
//! The multi-analyst setting concentrates many concurrent analysts on a
//! small set of shared views and base tables. This crate is the execution
//! subsystem that makes that concentration cheap instead of expensive:
//!
//! * [`encode`] — **compressed column codecs**: frame-of-reference
//!   bit-packing and sorted-dictionary encoding over a fixed-width
//!   [`encode::PackedVec`] payload (`⌈log2(domain)⌉` bits per value,
//!   64-bit words, all-equal columns collapse to width 0), chosen per
//!   column at ingest by the [`encode::ColumnEncoding`] policy;
//! * [`store`] — an **immutable, sharded column-store**:
//!   [`store::ColumnarTable::ingest`] re-partitions an engine table's
//!   domain-index-encoded columns into fixed-size row shards of encoded
//!   columns with per-column zone maps (min/max encoded index) and
//!   small-domain **domain maps** (weighted per-value row counts), the
//!   units of pruning, cache-resident evaluation and `O(domain)` gather
//!   aggregation;
//! * [`kernel`] — **compiled query kernels**:
//!   [`kernel::CompiledQuery::compile`] lowers a scalar aggregate query
//!   into per-attribute accept bitsets, bitwise mask combinators built
//!   64 rows per word directly over the packed columns, per-domain-index
//!   weight tables, and — for single-column predicate trees — a gather
//!   plan that folds a shard's domain map instead of its rows;
//! * [`executor`] — the **batch executor**:
//!   [`executor::ColumnarExecutor::execute_batch`] answers every query of
//!   a batch that targets the same table in a *single pass* over its
//!   shards (each query's partial aggregate folded shard-by-shard, in
//!   shard order), and
//!   [`executor::ColumnarExecutor::materialize_histograms`] materialises a
//!   whole view catalog in one pass per base table.
//!
//! # Equivalence guarantee
//!
//! Columnar evaluation is **bit-identical** to the engine's row-at-a-time
//! [`dprov_engine::exec::execute`] at every encoding: kernels are compiled
//! by running the exact row comparison over every decoded domain value,
//! encodings decode to exactly the ingested indices, shards preserve row
//! order, and aggregates accumulate over mask bits in ascending row order
//! — so the floating-point additions happen in the same sequence. The
//! fast paths that *regroup* additions (the per-shard and table-level
//! domain-map gathers) are gated by
//! [`kernel::CompiledQuery::reassociation_exact`]: all terms are exact
//! `f64` integers and all partials stay below 2⁵³, where integer addition
//! is exact and associative, so the regrouped result is the same bit
//! pattern. The crate's `equivalence` proptest suite checks random tables
//! × predicate trees × encodings × shard partitions, and `tests/encode.rs`
//! batters the codec across every field width.
//!
//! [`executor::ExecStats::scans_per_query`] quantifies the batching win:
//! a batch of `B` same-table queries costs `1/B` scans per query instead
//! of 1.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod encode;
pub mod executor;
pub mod kernel;
pub mod store;

pub use encode::{ColumnEncoding, EncodedColumn, EncodingKind, PackedVec};
pub use executor::{ColumnarExecutor, EpochSegment, ExecConfig, ExecStats};
pub use kernel::{CompiledQuery, PartialAggregate};
pub use store::{ColumnShard, ColumnarTable};
