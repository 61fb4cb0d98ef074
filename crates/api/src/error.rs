//! The stable, analyst-facing error taxonomy.
//!
//! Every error the service can hand an analyst — session lookups, protocol
//! violations, budget-system failures, storage faults — is reported as one
//! [`ApiError`] with a **stable numeric code** ([`codes`]), a broad
//! [`ErrorKind`], a human-readable message and a `retryable` hint. The
//! codes are wire-stable: a code, once assigned a meaning, never changes
//! it, so clients may switch on `code` without fearing a re-numbering.
//! Everything else (the message text, which internal enum produced the
//! error) is explicitly *not* part of the contract.
//!
//! The internal error enums (`CoreError`, `DpError`, `EngineError`,
//! `StorageError`, and `dprov-server`'s `ServerError`/`SessionError`) all
//! map into `ApiError` via `From` impls — the first four here, the server
//! ones next to their definitions (the orphan rule puts each impl in the
//! crate that owns the source type). All of those enums are
//! `#[non_exhaustive]`, so each mapping carries a wildcard arm folding
//! unknown variants into a generic code instead of breaking at compile
//! time when a variant is added.

use dprov_core::{CoreError, StorageError};
use dprov_dp::DpError;
use dprov_engine::EngineError;

/// Stable numeric error codes, grouped by hundreds into [`ErrorKind`]
/// bands. Codes are append-only: a published code never changes meaning.
pub mod codes {
    /// A frame or message body could not be decoded.
    pub const MALFORMED_FRAME: u16 = 100;
    /// The message's protocol version byte is not supported.
    pub const UNSUPPORTED_VERSION: u16 = 101;
    /// The message is not valid in the connection's current state (e.g.
    /// a query before `Hello`/`RegisterSession`, or a second `Hello`).
    pub const UNEXPECTED_MESSAGE: u16 = 102;
    /// A frame's declared length exceeds [`crate::frame::MAX_FRAME_LEN`].
    pub const FRAME_TOO_LARGE: u16 = 103;
    /// A frame's CRC-32 check failed.
    pub const CHECKSUM_MISMATCH: u16 = 104;
    /// The connection asked for more multiplexed channels than the server
    /// allows on one socket.
    pub const CHANNEL_LIMIT: u16 = 105;

    /// No analyst with the presented name is in the roster.
    pub const UNKNOWN_ANALYST: u16 = 200;
    /// A session-resume attempt named a session owned by another analyst.
    pub const SESSION_OWNERSHIP: u16 = 201;
    /// The presented name is not in the configured updater roster, or the
    /// connection is not registered as an updater.
    pub const NOT_UPDATER: u16 = 202;

    /// The session id is not registered.
    pub const UNKNOWN_SESSION: u16 = 300;
    /// The session's heartbeat is older than its time-to-live.
    pub const SESSION_EXPIRED: u16 = 301;
    /// The request needs a registered session and the connection has none.
    pub const NO_SESSION: u16 = 302;

    /// A request argument was invalid (catch-all for the 4xx band).
    pub const INVALID_ARGUMENT: u16 = 400;
    /// An epsilon value was not strictly positive and finite.
    pub const INVALID_EPSILON: u16 = 401;
    /// A delta value was outside `(0, 1)`.
    pub const INVALID_DELTA: u16 = 402;
    /// A sensitivity value was not strictly positive and finite.
    pub const INVALID_SENSITIVITY: u16 = 403;
    /// A variance / accuracy bound was not strictly positive and finite.
    pub const INVALID_VARIANCE: u16 = 404;
    /// The requested accuracy cannot be met within the allowed range.
    pub const TRANSLATION_OUT_OF_RANGE: u16 = 405;
    /// A numerical routine failed to converge.
    pub const NO_CONVERGENCE: u16 = 406;
    /// The additive Gaussian mechanism was handed an empty budget set.
    pub const EMPTY_BUDGET_SET: u16 = 407;
    /// A referenced table does not exist.
    pub const UNKNOWN_TABLE: u16 = 420;
    /// A referenced attribute does not exist.
    pub const UNKNOWN_ATTRIBUTE: u16 = 421;
    /// A value does not belong to an attribute's domain.
    pub const VALUE_OUT_OF_DOMAIN: u16 = 422;
    /// A row had the wrong number of values for the schema.
    pub const ARITY_MISMATCH: u16 = 423;
    /// The query cannot be answered over any registered view.
    pub const NOT_ANSWERABLE: u16 = 424;
    /// A view with this name does not exist (or already exists).
    pub const UNKNOWN_VIEW: u16 = 425;
    /// The SQL text could not be parsed.
    pub const SQL_PARSE: u16 = 426;
    /// The query is malformed (e.g. SUM over a categorical attribute).
    pub const INVALID_QUERY: u16 = 427;
    /// An update's delete names a row the logical table does not hold.
    pub const UPDATE_MISSING_ROW: u16 = 428;
    /// An update batch carried no inserts and no deletes.
    pub const UPDATE_EMPTY: u16 = 429;
    /// A star-schema declaration was structurally invalid (e.g. a foreign
    /// key naming a missing table or attribute).
    pub const INVALID_STAR_SCHEMA: u16 = 430;
    /// A dimension table carried the same key value in two rows.
    pub const DUPLICATE_DIMENSION_KEY: u16 = 431;
    /// A fact row referenced a dimension key with no matching row.
    pub const FOREIGN_KEY_VIOLATION: u16 = 432;
    // 433 and 434 were the retired workload planner's refusals; they are
    // never reissued.

    /// The service is shutting down and accepts no new work.
    pub const SHUTTING_DOWN: u16 = 500;

    /// An operating-system I/O failure in the durable store.
    pub const STORAGE_IO: u16 = 600;
    /// The durable store found corrupt data.
    pub const STORAGE_CORRUPT: u16 = 601;
    /// The durable store was written by an incompatible format version.
    pub const STORAGE_UNSUPPORTED_VERSION: u16 = 602;
    /// The durable store does not match the live system configuration.
    pub const STORAGE_INCOMPATIBLE: u16 = 603;
    /// The durable recorder is unavailable (closed or crash-injected).
    pub const STORAGE_UNAVAILABLE: u16 = 604;

    /// A transport-level I/O failure.
    pub const TRANSPORT_IO: u16 = 700;
    /// The connection closed while a response was outstanding.
    pub const CONNECTION_CLOSED: u16 = 701;

    /// An unclassified server-side failure.
    pub const INTERNAL: u16 = 900;
}

/// The broad class of an [`ApiError`], derived from its code band.
///
/// Marked `#[non_exhaustive]`: new bands may be added; match with a
/// wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Framing or message-state violations (1xx).
    Protocol,
    /// Authentication / authorisation failures (2xx).
    Auth,
    /// Session lifecycle errors (3xx).
    Session,
    /// Invalid request arguments (4xx).
    InvalidRequest,
    /// The service cannot take work right now (5xx).
    Unavailable,
    /// Durable-store failures (6xx).
    Storage,
    /// Transport-level failures (7xx).
    Transport,
    /// Unclassified server-side failures (9xx and unknown bands).
    Internal,
}

impl ErrorKind {
    /// The kind implied by a stable error code's hundreds band.
    #[must_use]
    pub fn for_code(code: u16) -> Self {
        match code / 100 {
            1 => ErrorKind::Protocol,
            2 => ErrorKind::Auth,
            3 => ErrorKind::Session,
            4 => ErrorKind::InvalidRequest,
            5 => ErrorKind::Unavailable,
            6 => ErrorKind::Storage,
            7 => ErrorKind::Transport,
            _ => ErrorKind::Internal,
        }
    }

    /// Stable wire tag for the kind.
    #[must_use]
    pub(crate) fn wire_tag(self) -> u8 {
        match self {
            ErrorKind::Protocol => 0,
            ErrorKind::Auth => 1,
            ErrorKind::Session => 2,
            ErrorKind::InvalidRequest => 3,
            ErrorKind::Unavailable => 4,
            ErrorKind::Storage => 5,
            ErrorKind::Transport => 6,
            ErrorKind::Internal => 7,
        }
    }

    /// Inverse of [`ErrorKind::wire_tag`]; unknown tags (a newer peer's
    /// kind) fold into [`ErrorKind::Internal`] — the code still carries
    /// the precise class.
    #[must_use]
    pub(crate) fn from_wire_tag(tag: u8) -> Self {
        match tag {
            0 => ErrorKind::Protocol,
            1 => ErrorKind::Auth,
            2 => ErrorKind::Session,
            3 => ErrorKind::InvalidRequest,
            4 => ErrorKind::Unavailable,
            5 => ErrorKind::Storage,
            6 => ErrorKind::Transport,
            _ => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Auth => "auth",
            ErrorKind::Session => "session",
            ErrorKind::InvalidRequest => "invalid-request",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Storage => "storage",
            ErrorKind::Transport => "transport",
            ErrorKind::Internal => "internal",
        };
        write!(f, "{name}")
    }
}

/// True when a client may reasonably retry the failed request (possibly
/// over a fresh connection) without changing it.
#[must_use]
pub fn code_is_retryable(code: u16) -> bool {
    matches!(
        code,
        codes::SHUTTING_DOWN
            | codes::STORAGE_IO
            | codes::STORAGE_UNAVAILABLE
            | codes::TRANSPORT_IO
            | codes::CONNECTION_CLOSED
    )
}

/// The one error type the analyst-facing API surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Stable numeric code (see [`codes`]); the only machine contract.
    pub code: u16,
    /// Broad class, derived from the code band.
    pub kind: ErrorKind,
    /// Human-readable description. Not part of the stable contract.
    pub message: String,
    /// Whether retrying the same request may succeed.
    pub retryable: bool,
}

impl ApiError {
    /// An error with `code`, deriving kind and retryability from it.
    #[must_use]
    pub fn new(code: u16, message: impl Into<String>) -> Self {
        ApiError {
            code,
            kind: ErrorKind::for_code(code),
            message: message.into(),
            retryable: code_is_retryable(code),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} {}{}] {}",
            self.code,
            self.kind,
            if self.retryable { ", retryable" } else { "" },
            self.message
        )
    }
}

impl std::error::Error for ApiError {}

impl From<DpError> for ApiError {
    fn from(e: DpError) -> Self {
        let code = match &e {
            DpError::InvalidEpsilon(_) => codes::INVALID_EPSILON,
            DpError::InvalidDelta(_) => codes::INVALID_DELTA,
            DpError::InvalidSensitivity(_) => codes::INVALID_SENSITIVITY,
            DpError::InvalidVariance(_) => codes::INVALID_VARIANCE,
            DpError::TranslationOutOfRange { .. } => codes::TRANSLATION_OUT_OF_RANGE,
            DpError::NoConvergence(_) => codes::NO_CONVERGENCE,
            DpError::EmptyBudgetSet => codes::EMPTY_BUDGET_SET,
            _ => codes::INVALID_ARGUMENT,
        };
        ApiError::new(code, e.to_string())
    }
}

impl From<EngineError> for ApiError {
    fn from(e: EngineError) -> Self {
        let code = match &e {
            EngineError::UnknownTable(_) => codes::UNKNOWN_TABLE,
            EngineError::UnknownAttribute(_) => codes::UNKNOWN_ATTRIBUTE,
            EngineError::ValueOutOfDomain { .. } => codes::VALUE_OUT_OF_DOMAIN,
            EngineError::ArityMismatch { .. } => codes::ARITY_MISMATCH,
            EngineError::NotAnswerable(_) => codes::NOT_ANSWERABLE,
            EngineError::UnknownView(_) => codes::UNKNOWN_VIEW,
            EngineError::SqlParse(_) => codes::SQL_PARSE,
            EngineError::InvalidQuery(_) => codes::INVALID_QUERY,
            EngineError::InvalidStarSchema(_) => codes::INVALID_STAR_SCHEMA,
            EngineError::DuplicateDimensionKey { .. } => codes::DUPLICATE_DIMENSION_KEY,
            EngineError::ForeignKeyViolation { .. } => codes::FOREIGN_KEY_VIOLATION,
            _ => codes::INVALID_ARGUMENT,
        };
        ApiError::new(code, e.to_string())
    }
}

impl From<StorageError> for ApiError {
    fn from(e: StorageError) -> Self {
        let code = match &e {
            StorageError::Io(_) => codes::STORAGE_IO,
            StorageError::Corrupt { .. } => codes::STORAGE_CORRUPT,
            StorageError::UnsupportedVersion { .. } => codes::STORAGE_UNSUPPORTED_VERSION,
            StorageError::IncompatibleState(_) => codes::STORAGE_INCOMPATIBLE,
            StorageError::Unavailable(_) => codes::STORAGE_UNAVAILABLE,
            _ => codes::INTERNAL,
        };
        ApiError::new(code, e.to_string())
    }
}

impl From<dprov_delta::DeltaError> for ApiError {
    fn from(e: dprov_delta::DeltaError) -> Self {
        let code = match &e {
            dprov_delta::DeltaError::Engine(engine) => {
                return ApiError {
                    message: e.to_string(),
                    ..ApiError::from(engine.clone())
                }
            }
            dprov_delta::DeltaError::MissingRow { .. } => codes::UPDATE_MISSING_ROW,
            dprov_delta::DeltaError::EmptyBatch => codes::UPDATE_EMPTY,
            _ => codes::INVALID_ARGUMENT,
        };
        ApiError::new(code, e.to_string())
    }
}

impl From<CoreError> for ApiError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Dp(dp) => dp.into(),
            CoreError::Engine(engine) => engine.into(),
            CoreError::Storage(storage) => storage.into(),
            CoreError::Delta(delta) => delta.into(),
            CoreError::UnknownAnalyst(a) => {
                ApiError::new(codes::UNKNOWN_ANALYST, format!("unknown analyst: {a}"))
            }
            CoreError::InvalidPrivilege(_)
            | CoreError::InvalidConfig(_)
            | CoreError::InvalidCorruptionGraph(_) => {
                ApiError::new(codes::INVALID_ARGUMENT, e.to_string())
            }
            _ => ApiError::new(codes::INTERNAL, e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_follow_code_bands() {
        assert_eq!(
            ErrorKind::for_code(codes::MALFORMED_FRAME),
            ErrorKind::Protocol
        );
        assert_eq!(ErrorKind::for_code(codes::UNKNOWN_ANALYST), ErrorKind::Auth);
        assert_eq!(
            ErrorKind::for_code(codes::SESSION_EXPIRED),
            ErrorKind::Session
        );
        assert_eq!(
            ErrorKind::for_code(codes::INVALID_VARIANCE),
            ErrorKind::InvalidRequest
        );
        assert_eq!(
            ErrorKind::for_code(codes::SHUTTING_DOWN),
            ErrorKind::Unavailable
        );
        assert_eq!(
            ErrorKind::for_code(codes::STORAGE_CORRUPT),
            ErrorKind::Storage
        );
        assert_eq!(
            ErrorKind::for_code(codes::TRANSPORT_IO),
            ErrorKind::Transport
        );
        assert_eq!(ErrorKind::for_code(codes::INTERNAL), ErrorKind::Internal);
        assert_eq!(ErrorKind::for_code(8_42), ErrorKind::Internal);
    }

    #[test]
    fn retryability_is_code_derived() {
        assert!(ApiError::new(codes::SHUTTING_DOWN, "x").retryable);
        assert!(ApiError::new(codes::CONNECTION_CLOSED, "x").retryable);
        assert!(!ApiError::new(codes::UNKNOWN_SESSION, "x").retryable);
        assert!(!ApiError::new(codes::INVALID_VARIANCE, "x").retryable);
    }

    #[test]
    fn internal_enums_map_to_stable_codes() {
        let e: ApiError = DpError::InvalidEpsilon(-1.0).into();
        assert_eq!(e.code, codes::INVALID_EPSILON);
        let e: ApiError = EngineError::UnknownTable("t".into()).into();
        assert_eq!(e.code, codes::UNKNOWN_TABLE);
        let e: ApiError = StorageError::Unavailable("closed".into()).into();
        assert_eq!((e.code, e.retryable), (codes::STORAGE_UNAVAILABLE, true));
        let e: ApiError = CoreError::UnknownAnalyst(dprov_core::analyst::AnalystId(3)).into();
        assert_eq!((e.code, e.kind), (codes::UNKNOWN_ANALYST, ErrorKind::Auth));
        // Nested storage errors keep their storage code through CoreError.
        let e: ApiError = CoreError::Storage(StorageError::Io("disk".into())).into();
        assert_eq!(e.code, codes::STORAGE_IO);
    }

    #[test]
    fn display_carries_code_kind_and_message() {
        let e = ApiError::new(codes::SESSION_EXPIRED, "session S3 expired");
        assert_eq!(e.to_string(), "[301 session] session S3 expired");
        let e = ApiError::new(codes::SHUTTING_DOWN, "bye");
        assert!(e.to_string().contains("retryable"));
    }
}
