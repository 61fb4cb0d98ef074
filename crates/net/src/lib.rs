//! # `dprov-net` — the C10k event-loop frontend
//!
//! The TCP frontend of the service. It serves the versioned analyst
//! protocol from a *fixed* pool of readiness-driven loop threads
//! ([`EventLoopFrontend`]): every connection is a non-blocking socket
//! registered with a level-triggered poller (the workspace `epoll` shim —
//! raw `epoll(7)` on Linux, `poll(2)` elsewhere), frames are decoded
//! incrementally with `dprov_api::frame::FrameDecoder`, and thread count
//! is independent of connection count, so tens of thousands of mostly
//! idle connections cost two threads, not sixty thousand.
//!
//! **Protocol semantics are not reimplemented here.** They live in
//! [`dprov_server::proto`]; this crate only contributes transport
//! plumbing. The differential test suite drives identical per-session
//! scripts over TCP through the event loop and, on a fresh service,
//! through [`dprov_server::QueryService::submit`] (the queued path,
//! which never answers inline), asserting bit-identical answers, noise
//! streams and budget charges.
//!
//! **Scalar requests stay on the loop while the pool is idle.** Every
//! submission is first offered to
//! [`dprov_server::QueryService::try_answer_inline`]. On an idle session
//! with durable draws, while no job is queued or running and no
//! compaction is due, a scalar request — accuracy or privacy mode, hit,
//! miss or refusal — is admitted, journalled, checkpointed and encoded on
//! the loop thread, skipping the queue, the worker wake-up and the
//! completion mailbox; while the pool is busy only a provable cache hit
//! is. The path only *tries* the locks a request could hold for its
//! whole work, so a loop thread waits on nothing but its own request's
//! admission, journal append and session checkpoint, and on the
//! provenance and (additive) view locks, which another admission holds
//! for part of its own; everything it refuses is dispatched to the worker
//! pool as below. [`dprov_server::QueryService::submit`] always queues,
//! which keeps it a differential oracle for this path too.
//!
//! **Backpressure end to end.** The worker pool's bounded queue blocks a
//! blocking submitter. Here nothing may block, so the loop converts queue
//! pressure into socket pressure instead:
//!
//! * a submission hitting a full queue is **parked** on its connection
//!   and the connection's read interest is dropped — TCP flow control
//!   then pushes back on the client; a queue-space listener
//!   ([`dprov_server::QueryService::add_queue_space_listener`]) wakes the
//!   loops to retry parked work the moment a worker frees a slot;
//! * a connection whose output buffer passes the high-water mark
//!   ([`NetConfig::output_hwm`]) stops being read until the buffer drains
//!   below half the mark — a slow-loris reader cannot balloon server
//!   memory;
//! * a connection with no inbound traffic for the service's session TTL
//!   ([`dprov_server::QueryService::session_ttl`]) is closed, so
//!   transport lifetime and session lifetime expire together. The loop
//!   checks every `min(250 ms, TTL / 4)`. Sessions are not the loop's to
//!   reap: the service's own reaper thread removes a session whose
//!   heartbeat is older than its TTL within another half TTL, whatever
//!   drives the service.
//!
//! Two limits are fixed rather than tuned: a read takes at most 64 KiB
//! from a socket, and one connection carries at most 1 024 mux channels
//! (the next is refused with `CHANNEL_LIMIT`, and the connection stays
//! open).
//!
//! **Multiplexing.** Protocol v3 `Mux` frames are handled by the shared
//! state machine, so one socket carries many independent sessions
//! (`dprov_api::MuxConnection`).

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;

use dprov_server::QueryService;

mod event_loop;

pub use event_loop::{EventLoopFrontend, EventLoopListener};

/// Tuning knobs for the event-loop frontend. `Default` is sized for a
/// small host (two loop threads).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Loop threads serving all connections. Loop 0 additionally owns the
    /// accept path; connections are handed out round-robin. Thread count
    /// never grows with connection count.
    pub loop_threads: usize,
    /// Per-connection output-buffer high-water mark in bytes. At or above
    /// the mark the connection stops being read; reading resumes once the
    /// buffer drains below half the mark.
    pub output_hwm: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            loop_threads: 2,
            output_hwm: 1 << 20,
        }
    }
}

/// A running TCP listener (see [`listen`]).
pub type ServiceListener = EventLoopListener;

/// Binds a TCP listener and serves the analyst protocol from the event
/// loop with the default [`NetConfig`].
pub fn listen(
    service: &Arc<QueryService>,
    addr: impl ToSocketAddrs,
) -> io::Result<ServiceListener> {
    EventLoopFrontend::new(service, NetConfig::default()).listen(addr)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dprov_core::analyst::AnalystRegistry;
    use dprov_core::config::SystemConfig;
    use dprov_core::mechanism::MechanismKind;
    use dprov_core::system::DProvDb;
    use dprov_engine::catalog::ViewCatalog;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_server::{QueryService, ServiceConfig};

    use super::*;

    fn service() -> Arc<QueryService> {
        let db = adult_database(100, 1);
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        let mut registry = AnalystRegistry::new();
        registry.register("alice", 2).unwrap();
        let config = SystemConfig::new(4.0).unwrap().with_seed(3);
        let system =
            Arc::new(DProvDb::new(db, catalog, registry, config, MechanismKind::Vanilla).unwrap());
        Arc::new(QueryService::start(
            system,
            ServiceConfig::builder().workers(1).build().unwrap(),
        ))
    }

    #[test]
    fn default_config_is_fixed_thread() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.loop_threads, 2);
        assert!(
            cfg.output_hwm >= 2 * event_loop::READ_CHUNK,
            "HWM admits one read"
        );
    }

    #[test]
    fn listen_starts_the_event_loop_with_the_default_config() {
        let service = service();
        let listener = listen(&service, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        assert_ne!(addr.port(), 0, "bound a real port");
        assert_eq!(listener.loop_threads(), NetConfig::default().loop_threads);
        assert!(listener.take_fatal_error().is_none());
        listener.shutdown();
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "a shut-down listener refuses new connections"
        );
    }
}
