//! # `dprov-core` — the DProvDB system
//!
//! This crate implements the paper's contribution proper, on top of the
//! `dprov-dp` primitives and the `dprov-engine` relational substrate:
//!
//! * [`analyst`] — analyst identities and privilege levels (1–10);
//! * [`provenance`] — the privacy provenance table (Definition 8): the
//!   per-analyst × per-view privacy-loss matrix, its row / column / table
//!   constraints, and the constraint specifications of Definitions 10–12
//!   plus the expansion factor τ;
//! * [`synopsis_manager`] — global and local DP synopses, additive-Gaussian
//!   local releases, and UMVUE-weighted view combination (Eq. 2);
//! * [`mechanism`] — the mechanism selector (vanilla Algorithm 2 vs additive
//!   Gaussian Algorithm 4);
//! * [`system`] — the `DProvDb` middleware orchestrator (Algorithm 1) with
//!   the dual query-submission modes;
//! * [`baselines`] — the comparison systems from §6.1.1: Chorus, ChorusP and
//!   a simulated PrivateSQL;
//! * [`accounting`] — multi-analyst DP accounting and the collusion bounds
//!   of Theorem 3.2;
//! * [`fairness`] — the DCFG / nDCFG fairness metrics (Definitions 17–18)
//!   and a proportional-fairness audit (Definition 7);
//! * [`corruption`] — the (t, n)-compromised threat-model extension of §7.1;
//! * [`recorder`] — the durable-commit hook: write-ahead records for every
//!   admission charge and the serialisable state types the `dprov-storage`
//!   crate snapshots and replays at recovery.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod accounting;
pub mod admission;
pub mod analyst;
pub mod baselines;
pub mod config;
pub mod corruption;
pub mod error;
pub mod fairness;
pub mod mechanism;
pub mod processor;
pub mod provenance;
pub mod recorder;
pub mod synopsis_manager;
pub mod system;

pub use error::{CoreError, Result, StorageError};
