//! # `dprov-api` — the versioned analyst wire protocol
//!
//! DProvDB is a multi-analyst *service*: analysts with distinct privilege
//! levels query one provenance-governed database. This crate is the
//! service's front door — the stable, serializable contract between
//! analyst clients and the `dprov-server` worker pool:
//!
//! * [`protocol`] — the **versioned message set**: typed requests
//!   (`Hello`/`RegisterSession`, `SubmitQuery`, `Heartbeat`,
//!   `BudgetStatus`, `CloseSession`) and responses, each payload carrying
//!   a version byte, a type tag and a pipelining request id;
//! * [`error`] — the **stable error taxonomy**: one [`ApiError`] with
//!   append-only numeric codes, a broad kind and a retryability hint,
//!   which every internal error enum (`CoreError`, `DpError`,
//!   `EngineError`, `StorageError`, and the server's
//!   `ServerError`/`SessionError`) maps into;
//! * [`frame`] — **length-prefixed, CRC-32-checked frames** for byte
//!   streams, reusing the codec discipline of `dprov-storage`'s
//!   write-ahead ledger;
//! * [`transport`] — the [`Connection`] abstraction, with TCP (one socket
//!   per analyst session) built in and other transports plugged in
//!   through [`Connection::from_halves`];
//! * [`mux`] — **connection multiplexing** (protocol v3): a
//!   [`MuxConnection`] shares one socket between many channels, each a
//!   virtual [`Connection`] running its own session — so a fleet of
//!   analysts no longer costs a socket per session;
//! * [`client`] — the blocking [`DProvClient`]: synchronous
//!   [`DProvClient::query`], pipelined
//!   [`DProvClient::submit`]/[`DProvClient::poll`], budget
//!   introspection via [`DProvClient::budget`], and the service-wide
//!   observability snapshot via [`DProvClient::metrics`].
//!
//! The server side of the contract — the protocol state machine that
//! serves these messages over the worker pool — lives in `dprov-server`
//! (with the TCP event loop in `dprov-net`); this crate
//! deliberately has no dependency on it, so clients can be built (and
//! cross-compiled) without linking the service.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod error;
pub mod frame;
pub mod mux;
pub mod protocol;
pub mod transport;
mod wire;

pub use client::{DProvClient, EpochSealReport, RequestId, SessionDescriptor};
pub use error::{codes, ApiError, ErrorKind};
pub use mux::MuxConnection;
pub use protocol::{BudgetReport, Request, Response, PROTOCOL_VERSION};
pub use transport::{Connection, FrameSink, FrameSource};
pub use wire::MAX_PREDICATE_DEPTH;
