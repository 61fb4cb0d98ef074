//! # `dprov-workloads` — workload generators and the experiment runner
//!
//! Reproduces the two use cases of §6.1.2:
//!
//! * [`rrq`] — randomized range queries: per-analyst batches of range-count
//!   queries over a biased choice of attribute, with normally distributed
//!   range start and offset;
//! * [`bfs`] — the breadth-first search exploration task: each analyst
//!   adaptively traverses the decomposition tree of an attribute's domain,
//!   descending only into regions whose noisy count exceeds a threshold;
//! * [`skew`] — skewed multi-analyst scenarios: Zipfian view popularity
//!   with a configurable analyst count, producing both batch-friendly
//!   (concentrated) and batch-hostile (uniform) traffic mixes for the
//!   batched execution subsystem;
//! * [`star`] — a synthetic star-schema dataset (`sales` fact + `store`/
//!   `item` dimensions) with the grouped-workload presets;
//! * [`sequence`] — the round-robin and random analyst interleavings;
//! * [`runner`] — drives any [`dprov_core::processor::QueryProcessor`] over
//!   a workload and collects the metrics of §6.1.3 ([`metrics`]): number of
//!   queries answered, cumulative budget traces, nDCFG, relative error and
//!   translation gaps.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bfs;
pub mod metrics;
pub mod rrq;
pub mod runner;
pub mod sequence;
pub mod skew;
pub mod star;
