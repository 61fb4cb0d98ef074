//! # `dprov-bench` — the paper's experiment binaries
//!
//! One binary per table/figure of the paper's evaluation (the README's
//! "Reproducing the paper" table maps each to its bin and scale knobs).
//! The service's own speed is measured end to end by `dprovbench`, not
//! here. The shared plumbing lives here:
//!
//! * [`setup`] — dataset and system construction for all five compared
//!   systems (DProvDB, Vanilla, sPrivateSQL, Chorus, ChorusP);
//! * [`harness`] — sweep helpers that run one workload across systems and
//!   collect [`dprov_workloads::metrics::RunMetrics`];
//! * [`report`] — fixed-width table printing for the experiment binaries.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod harness;
pub mod report;
pub mod setup;
