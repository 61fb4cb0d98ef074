//! Error types for the DProvDB system layer.

use dprov_dp::DpError;
use dprov_engine::EngineError;

use crate::analyst::AnalystId;

/// Why a query was rejected by the system.
///
/// Marked `#[non_exhaustive]`: new rejection classes may be added without a
/// breaking change, so downstream matches must carry a wildcard arm. The
/// stable wire representation lives in `dprov-api`.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// Answering would exceed the analyst's (row) constraint ψ_Ai.
    AnalystConstraint {
        /// The analyst whose constraint would be violated.
        analyst: AnalystId,
    },
    /// Answering would exceed the view's (column) constraint ψ_Vj.
    ViewConstraint {
        /// The view whose constraint would be violated.
        view: String,
    },
    /// Answering would exceed the overall table constraint ψ_P.
    TableConstraint,
    /// The requested accuracy cannot be met within the remaining budget.
    AccuracyUnreachable,
    /// No registered view can answer the query.
    NotAnswerable,
    /// The system's static synopses (sPrivateSQL baseline) are not accurate
    /// enough for the requested accuracy.
    InsufficientSynopsis,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::AnalystConstraint { analyst } => {
                write!(f, "analyst constraint violated for analyst {analyst}")
            }
            RejectReason::ViewConstraint { view } => {
                write!(f, "view constraint violated for {view}")
            }
            RejectReason::TableConstraint => write!(f, "table (overall) constraint violated"),
            RejectReason::AccuracyUnreachable => {
                write!(f, "accuracy requirement unreachable within the budget")
            }
            RejectReason::NotAnswerable => write!(f, "no registered view answers the query"),
            RejectReason::InsufficientSynopsis => {
                write!(f, "static synopsis not accurate enough for the request")
            }
        }
    }
}

/// Errors raised by the durable-storage subsystem (write-ahead ledger and
/// snapshots). Defined here so the [`crate::recorder::Recorder`] hook on the
/// commit path can surface them without the core crate depending on the
/// storage crate.
///
/// Marked `#[non_exhaustive]`: variants may grow (new corruption classes,
/// new media) without breaking downstream matches or the stable `dprov-api`
/// error codes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// An operating-system I/O failure (the `std::io::Error` rendered to a
    /// string so the variant stays `Clone + PartialEq`).
    Io(String),
    /// A checksum, magic-number or length check failed while reading the
    /// write-ahead ledger or a snapshot.
    Corrupt {
        /// Which file failed verification (e.g. `"wal"`, `"snapshot"`).
        file: String,
        /// Byte offset of the first record that failed verification.
        offset: u64,
        /// What exactly failed (checksum, magic, truncated payload...).
        reason: String,
    },
    /// A snapshot or ledger was written by an incompatible format version.
    UnsupportedVersion {
        /// The version found on disk.
        found: u32,
        /// The newest version this build understands.
        supported: u32,
    },
    /// Durable state does not match the live system (different seed,
    /// budget, mechanism, or unknown analysts/views).
    IncompatibleState(String),
    /// The recorder was killed by an injected failpoint (crash testing) or
    /// closed by shutdown; the in-memory commit was not applied.
    Unavailable(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StorageError::Corrupt {
                file,
                offset,
                reason,
            } => {
                write!(f, "corrupt {file} at byte {offset}: {reason}")
            }
            StorageError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported storage version {found} (supported <= {supported})"
                )
            }
            StorageError::IncompatibleState(msg) => {
                write!(f, "durable state incompatible with live system: {msg}")
            }
            StorageError::Unavailable(msg) => write!(f, "recorder unavailable: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Errors raised by the DProvDB system layer.
///
/// Marked `#[non_exhaustive]`: the system grows subsystems (and with them
/// error variants) over time; downstream matches must carry a wildcard arm
/// so additions are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An error from the DP primitives.
    Dp(DpError),
    /// An error from the relational engine.
    Engine(EngineError),
    /// An unknown analyst id was used.
    UnknownAnalyst(AnalystId),
    /// A privilege level outside `1..=10` was supplied.
    InvalidPrivilege(u8),
    /// The system was configured inconsistently.
    InvalidConfig(String),
    /// A corruption-graph policy was invalid (e.g. a component of size >= t).
    InvalidCorruptionGraph(String),
    /// The durable recorder refused or failed a write-ahead append; the
    /// associated in-memory commit was not applied.
    Storage(StorageError),
    /// An update batch failed validation (see `dprov-delta`): bad rows,
    /// a delete naming a row the logical table does not hold, or an
    /// empty batch.
    Delta(dprov_delta::DeltaError),
}

impl From<DpError> for CoreError {
    fn from(e: DpError) -> Self {
        CoreError::Dp(e)
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<dprov_delta::DeltaError> for CoreError {
    fn from(e: dprov_delta::DeltaError) -> Self {
        CoreError::Delta(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Dp(e) => write!(f, "dp error: {e}"),
            CoreError::Engine(e) => write!(f, "engine error: {e}"),
            CoreError::UnknownAnalyst(a) => write!(f, "unknown analyst: {a}"),
            CoreError::InvalidPrivilege(p) => write!(f, "privilege must be in 1..=10, got {p}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::InvalidCorruptionGraph(msg) => write!(f, "invalid corruption graph: {msg}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Delta(e) => write!(f, "update error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
