//! # DProvDB (Rust reproduction)
//!
//! Umbrella crate re-exporting the workspace crates that make up the
//! DProvDB reproduction:
//!
//! * [`dp`] — differential-privacy primitives (mechanisms, accountants,
//!   accuracy→privacy translation).
//! * [`engine`] — the in-memory relational engine, histogram views and
//!   synthetic dataset generators.
//! * [`exec`] — the batched columnar execution subsystem: immutable
//!   sharded column-stores ingested from engine tables, compiled
//!   predicate/aggregate kernels, and multi-query batch evaluation that
//!   amortises one shard scan over every query in the batch.
//! * [`delta`] — dynamic data: the epoch-versioned update log
//!   (insert/delete batches sealing into numbered epochs), incremental
//!   view maintenance (histogram patches proven bit-identical to full
//!   rebuilds), and the per-epoch synopsis budget policies.
//! * [`core`] — the DProvDB system itself: privacy provenance table,
//!   synopsis management, the vanilla and additive-Gaussian mechanisms,
//!   baselines and fairness metrics.
//! * [`workloads`] — the RRQ and BFS workload generators and the
//!   experiment runner used to regenerate the paper's figures.
//! * [`api`] — the versioned analyst wire protocol: typed
//!   requests/responses, CRC-checked frames, the TCP transport, the
//!   stable `ApiError` taxonomy and the blocking
//!   `DProvClient`.
//! * [`server`] — the concurrent multi-analyst query service: analyst
//!   sessions, a bounded job queue, a worker pool over the shared,
//!   thread-safe `DProvDb`, a session reaper, and the protocol state
//!   machine that `net` serves.
//! * [`storage`] — the durable provenance ledger: checksummed write-ahead
//!   log, versioned snapshots, crash-safe recovery and the crash-injection
//!   test harness.
//! * [`obs`] — observability: lock-free counters/gauges/histograms, the
//!   per-request trace journal with chrome-trace export, and the typed
//!   `MetricsSnapshot` served over the wire protocol.
//! * [`net`] — the TCP frontend, a C10k event loop: a fixed pool of
//!   readiness-driven loop threads (over the hand-rolled epoll shim)
//!   serving thousands of multiplexed, non-blocking connections with
//!   incremental frame decode, queue-coupled backpressure and
//!   idle-connection reaping — proven bit-identical to the service's
//!   queued in-process path.
//! * [`cluster`] — the replicated budget ledger: majority-quorum
//!   replication (simplified Raft over the storage WAL records), the
//!   gateway's replication gate, and the in-process nemesis used by the
//!   partition/crash harness.
//!
//! See `examples/quickstart.rs` for an end-to-end walk-through,
//! `examples/concurrent_service.rs` for the multi-analyst service,
//! `examples/remote_client.rs` for the client/server split over TCP,
//! `examples/multiplexed_clients.rs` for many sessions on one socket and
//! `examples/recover_service.rs` for durable restarts.

pub use dprov_api as api;
pub use dprov_cluster as cluster;
pub use dprov_core as core;
pub use dprov_delta as delta;
pub use dprov_dp as dp;
pub use dprov_engine as engine;
pub use dprov_exec as exec;
pub use dprov_net as net;
pub use dprov_obs as obs;
pub use dprov_server as server;
pub use dprov_storage as storage;
pub use dprov_workloads as workloads;

/// Convenience prelude exporting the most commonly used types.
pub mod prelude {
    pub use dprov_api::{
        ApiError, BudgetReport, Connection, DProvClient, ErrorKind, MuxConnection,
    };
    pub use dprov_core::analyst::{AnalystId, AnalystRegistry, Privilege};
    pub use dprov_core::config::SystemConfig;
    pub use dprov_core::mechanism::MechanismKind;
    pub use dprov_core::processor::{QueryOutcome, QueryProcessor, QueryRequest};
    pub use dprov_core::system::{DProvDb, EpochReport};
    pub use dprov_delta::{EpochPolicy, UpdateBatch};
    pub use dprov_dp::budget::{Budget, Delta, Epsilon};
    pub use dprov_engine::database::Database;
    pub use dprov_engine::query::{AggregateKind, Query};
    pub use dprov_exec::{ColumnarExecutor, ExecConfig};
    pub use dprov_net::{NetConfig, ServiceListener};
    pub use dprov_obs::{MetricsRegistry, MetricsSnapshot};
    pub use dprov_server::{QueryService, ServiceConfig, SessionId};
    pub use dprov_workloads::runner::ExperimentRunner;
}
