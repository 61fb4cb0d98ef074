//! # `dprov-storage` — the durable provenance ledger
//!
//! DProvDB's guarantee that provenance-tracked budget constraints are never
//! exceeded is only meaningful if the spent budget survives the process.
//! This crate persists every committed admission charge in a checksummed,
//! fsync'd **write-ahead ledger** — one frame per admission, the data
//! access riding in its commit — and periodically compacts the full system
//! state — provenance matrix with each analyst's release count, tight
//! accountant state, synopsis cache and session noise-stream positions —
//! into a **versioned snapshot**, giving crash-safe recovery with two
//! invariants:
//!
//! 1. **Prefix durability** — recovery rebuilds a state equal to a prefix
//!    of the committed history: each commit is either wholly present or
//!    wholly absent (frames are atomic under their CRC; a torn tail is
//!    discarded, and damage anywhere before it refuses to open rather
//!    than drop the acknowledged charges after it).
//! 2. **No undercount** — the write-ahead append happens *before* the
//!    in-memory charge becomes visible ([`dprov_core::recorder`]), so every
//!    spend an analyst ever saw acknowledged is on disk: recovered spend ≥
//!    acknowledged spend, and rollback tombstones are best-effort in the
//!    over-counting (safe) direction.
//!
//! Modules:
//!
//! * [`codec`] — little-endian encoding helpers, CRC-32, and the one
//!   `len | crc | payload` frame layout and damage rule shared by the
//!   ledger and the wire;
//! * [`wal`] — the write-ahead ledger format, scan and torn-tail handling;
//! * [`snapshot`] — versioned, atomically-replaced snapshot files;
//! * [`store`] — the [`store::ProvenanceStore`] directory lifecycle
//!   (open → recover → serve as the live [`dprov_core::recorder::Recorder`]
//!   → compact);
//! * [`failpoint`] — the crash-injection harness killing the recorder at
//!   any chosen append, cleanly or with a torn tail.
//!
//! The `dprov-server` crate wires this into `QueryService::start_durable`;
//! see the repository README's "Durability & recovery" section for the
//! end-to-end walkthrough.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod failpoint;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use failpoint::{CrashMode, FailpointRecorder};
pub use snapshot::{SnapshotState, SNAPSHOT_VERSION};
pub use store::{
    analysts_digest, config_fingerprint, DeltaReplay, ProvenanceStore, RecoveredState, StoreOptions,
};
pub use wal::{SessionCheckpoint, WalRecord};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Creates a unique scratch directory for tests, benches and examples.
/// Rooted at `$DPROV_STORAGE_SCRATCH` when set (CI points this at a
/// workspace path so write-ahead artifacts can be uploaded on failure),
/// else the system temp dir.
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root =
        std::env::var_os("DPROV_STORAGE_SCRATCH").map_or_else(std::env::temp_dir, PathBuf::from);
    let dir = root.join(format!(
        "dprov-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("failed to create scratch dir");
    dir
}
