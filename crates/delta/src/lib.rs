//! # `dprov-delta` — dynamic data: epoch-versioned updates and
//! incremental view maintenance
//!
//! The source paper scopes its provenance-driven budget management to
//! *static* databases and names dynamic data as the open extension. This
//! crate is that extension's data layer:
//!
//! * [`log`] — the [`UpdateLog`]: validated insert/delete batches
//!   accumulate as *pending* state and seal into numbered **epochs**
//!   (epoch 0 is the immutable setup state). Batches carry
//!   domain-index-encoded rows, so sealing is deterministic integer
//!   work — no randomness, no floating-point rounding;
//! * [`maintain`] — **incremental synopsis maintenance**:
//!   [`maintain::patch_histogram`] patches a view's exact histogram from
//!   the delta rows alone (`+1` per insert, `−1` per delete, with the
//!   view's clipping applied), provably **bit-identical** to a full
//!   rebuild because every cell count is exact integer arithmetic in
//!   `f64`;
//! * [`policy`] — the per-epoch **budget policy** for noisy synopses:
//!   [`policy::EpochPolicy::ReNoise`] invalidates every synopsis of a
//!   changed view at the seal (the next query re-buys it through the
//!   normal admission path, so multi-analyst constraints keep holding
//!   across epochs), while [`policy::EpochPolicy::CarryForward`] keeps
//!   serving stale synopses within a bounded number of epochs before
//!   forcing a re-release.
//!
//! The execution side (per-epoch immutable column-store segments appended
//! to the `dprov-exec` shard set) is built from [`log::EncodedBatch`]es
//! via [`log::build_segments`]; the orchestration (WAL-first durability,
//! quiescing analysts at the seal, charging re-releases) lives in
//! `dprov-core` and `dprov-server`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod log;
pub mod maintain;
pub mod policy;

pub use log::{build_segments, DeltaError, EncodedBatch, SealedEpoch, UpdateBatch, UpdateLog};
pub use maintain::patch_histogram;
pub use policy::EpochPolicy;
