//! # `dprov-cluster` — replicated budget ledger
//!
//! DProvDB's provenance ledger is the ground truth for every analyst's
//! remaining privacy budget; losing an acknowledged charge would let an
//! analyst re-spend budget the system already granted. This crate
//! replicates the ledger across a majority-quorum replica group that
//! tolerates replica crashes and network partitions *inside one process*,
//! around one headline correctness property:
//!
//! > **No charge is acknowledged to an analyst unless it is replicated
//! > to a majority of budget-ledger replicas.**
//!
//! Three pieces, bottom-up:
//!
//! * [`raft`] — a deterministic, tick-driven simplified Raft core whose
//!   log entries are exactly the storage layer's
//!   [`dprov_storage::wal::WalRecord`] frames. Recovery from any
//!   surviving majority reproduces every acknowledged charge.
//! * [`sim`] + [`recorder`] — the replica group, in-process, with
//!   jepsen-style fault injection (crash, restart, partition, message
//!   loss/delay) and each replica's persisted Raft state held in memory,
//!   and the **replication gate**: [`recorder::ReplicatedRecorder`] plugs
//!   into the core's provenance critical section via
//!   `DProvDb::set_recorder`, so an in-memory charge commit becomes
//!   visible only after a majority ack — and a refused ack aborts the
//!   submission with no state change.
//! * [`gateway`] — the wiring for one serving process: a replica group
//!   plus its replication gate attached to a `DProvDb`.
//!
//! **Durability limit.** Quorum mode keeps nothing on disk:
//! `Gateway::attach` *replaces* the store's write-ahead recorder with the
//! replication gate, and every replica's Raft state lives in the serving
//! process's memory. A crash of that process therefore loses every charge
//! acknowledged in quorum mode, where the write-ahead ledger alone would
//! have kept it (a traced `commit-quorum` benchmark run shows
//! `storage.wal_appends 0`).
//!
//! The fault harness lives in this crate's `tests/nemesis.rs`: seeded
//! crash/partition schedules drive real analyst workloads and assert,
//! after every schedule, that recovered spend covers everything
//! acknowledged, per-analyst constraints hold, and every acknowledged
//! answer is bit-identical to a fault-free oracle run.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod gateway;
pub mod raft;
pub mod recorder;
pub mod sim;

pub use gateway::Gateway;
pub use raft::{is_noop, NodeId, PersistentState, RaftConfig, RaftCore, Role};
pub use recorder::ReplicatedRecorder;
pub use sim::{ClusterError, SimCluster};
