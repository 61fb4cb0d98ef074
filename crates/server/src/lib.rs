//! # `dprov-server` — the concurrent multi-analyst query service
//!
//! The paper's setting is inherently multi-analyst: several analysts with
//! distinct privilege levels query the same protected database through one
//! provenance table and synopsis cache. This crate provides the service
//! layer that actually serves them **concurrently**, fronting the
//! thread-safe [`dprov_core::system::DProvDb`] orchestrator:
//!
//! * [`session`] — the analyst **session registry**: register / heartbeat /
//!   expire, a per-session deterministic noise stream
//!   ([`dprov_dp::rng::DpRng::for_stream`]), and the analyst-facing
//!   remaining-budget view; per-session FIFO ordering comes from the
//!   service's session lanes (at most one runnable job per session);
//! * [`queue`] — a bounded MPMC **job queue** (`Mutex` + `Condvar`)
//!   providing backpressure between submitters and workers;
//! * [`service`] — the **worker pool** ([`service::QueryService`]): `N`
//!   threads drain the queue in **micro-batches** (whatever is already
//!   queued, up to eight jobs and a fair share of the backlog per worker)
//!   and execute each job — one [`service::Work`] item, scalar or
//!   GROUP BY — in queue order through `DProvDb::submit_with_rng` /
//!   `answer_group_by_with_rng`; each [`service::Reply`] travels back
//!   through the job's [`service::Completion`];
//! * [`proto`] — the versioned `dprov-api` **protocol state machine**:
//!   session registration authenticated against the analyst roster,
//!   control requests, mux channels. `dprov-net`'s event loop serves it
//!   over TCP; same-process embedders call
//!   [`service::QueryService::submit`] directly.
//!
//! **Budget safety under concurrency** is enforced one layer down, in
//! `dprov-core`'s admission control: constraint checks and charges commit
//! atomically under the provenance mutex, guarded by per-(analyst, view)
//! entry locks and per-view locks for additive-Gaussian synopsis growth.
//! The stress test in `tests/stress.rs` hammers a single view from 8
//! analysts × 8 workers and asserts no row, column or table constraint is
//! ever overspent.
//!
//! **Determinism**: each session's noise stream depends only on the system
//! seed, the session registration order and the session's own submission
//! order — never on thread scheduling or on how the queue was cut into
//! micro-batches: the session lanes admit at most one job per session
//! into any batch, so batching can only interleave work *across*
//! sessions. Answers are therefore identical across runs and worker
//! counts under the vanilla mechanism, and under the additive mechanism
//! whenever sessions work disjoint views, provided the budget is
//! uncontended (validated by the workspace's `determinism.rs` and
//! `batch_equivalence.rs` integration tests). Two quantities remain
//! scheduling-sensitive: the additive mechanism's hidden global synopsis
//! on a view *shared* by racing sessions grows in cross-session arrival
//! order, and near budget exhaustion the provenance checks' cross-analyst
//! row/column/table totals make accept-vs-reject decisions
//! arrival-order dependent (budget *safety* holds regardless).
//!
//! **Durability**: [`service::QueryService::start_durable`] opens (or
//! recovers) a `dprov-storage` provenance store: every budget commit is
//! appended to a checksummed, fsync'd write-ahead ledger *before* it
//! becomes visible in memory, session noise-stream positions are
//! checkpointed before each answer is acknowledged, and the whole state is
//! periodically compacted into a snapshot with ledger truncation. A
//! restarted service replays snapshot + ledger into the exact pre-crash
//! budget state — recovered spend is never below anything an analyst saw
//! acknowledged — and restored sessions continue their deterministic
//! noise streams bit-for-bit instead of reusing randomness. See the
//! repository README's "Durability & recovery" section.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod proto;
pub mod queue;
pub mod service;
pub mod session;

pub use queue::{SpaceListener, TryPushError};
pub use service::{
    Completion, DurabilityConfig, DurabilityConfigBuilder, FrontendMode, Pending, QueryService,
    RecoveryReport, Reply, ServerError, ServiceConfig, ServiceConfigBuilder, ServiceStats,
    TrySubmitError, Work,
};
pub use session::{SessionError, SessionId, SessionInfo, SessionRegistry};
