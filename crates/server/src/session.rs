//! Analyst sessions: registration, heartbeat, expiry, and per-session
//! deterministic noise streams.
//!
//! A **session** is one analyst's connection to the query service. It owns
//!
//! * a dedicated [`DpRng`] noise stream, seeded deterministically from the
//!   system seed and the session id ([`DpRng::for_stream`]) — the noise
//!   *drawn from the session's own stream* is a pure function of
//!   `(system seed, session id, submission index)`, never of
//!   worker-thread scheduling;
//! * FIFO execution through the service's **session lanes** (see
//!   `service.rs`): at most one of a session's jobs is ever runnable at a
//!   time and the rest wait in the lane's pending queue, so submissions
//!   execute in submission order without ever parking a worker. Together
//!   with the per-session streams this makes answers reproducible
//!   regardless of the worker count under the vanilla mechanism with an
//!   uncontended budget (every release uses only the session's stream),
//!   and under the additive mechanism whenever sessions touch disjoint
//!   views; on a *shared* view the additive mechanism's hidden global
//!   synopsis grows in cross-session arrival order, which scheduling can
//!   reorder, and near budget exhaustion the cross-analyst constraint
//!   checks make accept/reject decisions arrival-order dependent too;
//! * a heartbeat timestamp with a time-to-live, so abandoned sessions can
//!   be expired and their queue capacity reclaimed.
//!
//! The registry itself is a `RwLock`ed map: lookups (every submission) take
//! the read lock; registration and expiry take the write lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use dprov_core::analyst::AnalystId;
use dprov_dp::rng::{DpRng, RngCheckpoint};

/// Identifier of a registered session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One analyst session.
#[derive(Debug)]
pub struct Session {
    id: SessionId,
    analyst: AnalystId,
    /// The session's private noise stream. Locked for the duration of one
    /// submission's execution, which also serialises the session's queries.
    pub(crate) rng: Mutex<DpRng>,
    /// Whether the noise stream's current position is durable: set by
    /// the worker from each session checkpoint's result (always true on a
    /// volatile service), so a reader never needs the store lock to know.
    draws_durable: AtomicBool,
    ttl: Duration,
    last_heartbeat: Mutex<Instant>,
    submitted: AtomicUsize,
    answered: AtomicUsize,
    rejected: AtomicUsize,
}

impl Session {
    fn new(id: SessionId, analyst: AnalystId, base_seed: u64, ttl: Duration) -> Self {
        Session {
            id,
            analyst,
            rng: Mutex::new(DpRng::for_stream(base_seed, id.0)),
            draws_durable: AtomicBool::new(true),
            ttl,
            last_heartbeat: Mutex::new(Instant::now()),
            submitted: AtomicUsize::new(0),
            answered: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
        }
    }

    /// The session id.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The analyst this session belongs to.
    #[must_use]
    pub fn analyst(&self) -> AnalystId {
        self.analyst
    }

    /// Refreshes the heartbeat timestamp.
    pub fn heartbeat(&self) {
        *self.last_heartbeat.lock().expect("heartbeat poisoned") = Instant::now();
    }

    /// The current position of the session's noise stream (for durable
    /// session checkpoints). Blocks while a worker is executing one of the
    /// session's queries, so the returned position is never mid-draw.
    #[must_use]
    pub fn rng_checkpoint(&self) -> RngCheckpoint {
        self.rng.lock().expect("session rng poisoned").checkpoint()
    }

    /// Records whether the latest session checkpoint succeeded. The
    /// worker stores before it retires the session's lane under the lane
    /// map's mutex, and a reader loads after finding the lane retired
    /// under that mutex, so the mutex orders the two.
    pub(crate) fn set_draws_durable(&self, durable: bool) {
        self.draws_durable.store(durable, Ordering::Release);
    }

    /// Whether every draw from the session's stream is checkpointed (see
    /// [`Self::set_draws_durable`]).
    pub(crate) fn draws_durable(&self) -> bool {
        self.draws_durable.load(Ordering::Acquire)
    }

    /// True when the heartbeat is older than the session's time-to-live.
    #[must_use]
    pub fn is_expired(&self) -> bool {
        self.last_heartbeat
            .lock()
            .expect("heartbeat poisoned")
            .elapsed()
            > self.ttl
    }

    /// Counts a submission that was actually accepted by the service
    /// (called only after the job is queued or laned, so a
    /// shutdown-rejected submission never inflates the counter).
    pub(crate) fn mark_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an execution outcome for the per-session counters.
    pub(crate) fn record_outcome(&self, answered: bool) {
        if answered {
            self.answered.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of submissions accepted into the queue.
    #[must_use]
    pub fn submitted(&self) -> usize {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Number of answered queries.
    #[must_use]
    pub fn answered(&self) -> usize {
        self.answered.load(Ordering::Relaxed)
    }

    /// Number of rejected queries.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }
}

/// A point-in-time, analyst-facing view of one session (the "remaining
/// budget" panel of the paper's multi-analyst interface).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// The session id.
    pub id: SessionId,
    /// The analyst the session belongs to.
    pub analyst: AnalystId,
    /// The analyst's privilege level.
    pub privilege: u8,
    /// The analyst's row constraint ψ_Ai.
    pub budget_constraint: f64,
    /// Privacy budget already consumed against the row constraint.
    pub budget_consumed: f64,
    /// Remaining room under the row constraint.
    pub budget_remaining: f64,
    /// Submissions accepted from this session.
    pub submitted: usize,
    /// Queries answered to this session.
    pub answered: usize,
    /// Queries rejected for this session.
    pub rejected: usize,
}

/// The registry of live sessions.
#[derive(Debug)]
pub struct SessionRegistry {
    sessions: RwLock<HashMap<u64, std::sync::Arc<Session>>>,
    next_id: AtomicU64,
    base_seed: u64,
    default_ttl: Duration,
}

/// Errors from session lookups.
///
/// Marked `#[non_exhaustive]`: the session lifecycle may grow states (and
/// with them error variants); downstream matches must carry a wildcard
/// arm. The stable analyst-facing form is `dprov_api::ApiError`.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The session id is not registered (never existed or already expired).
    Unknown(SessionId),
    /// The session's heartbeat is older than its time-to-live.
    Expired(SessionId),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Unknown(id) => write!(f, "unknown session {id}"),
            SessionError::Expired(id) => write!(f, "session {id} expired"),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionRegistry {
    /// Creates a registry whose sessions derive their noise streams from
    /// `base_seed` and expire after `default_ttl` without a heartbeat.
    #[must_use]
    pub fn new(base_seed: u64, default_ttl: Duration) -> Self {
        SessionRegistry {
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            base_seed,
            default_ttl,
        }
    }

    /// Registers a session for `analyst` and returns its id. Session ids
    /// are dense and assigned in registration order, so a fixed
    /// registration sequence reproduces the same noise streams run after
    /// run.
    pub fn register(&self, analyst: AnalystId) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let session =
            std::sync::Arc::new(Session::new(id, analyst, self.base_seed, self.default_ttl));
        self.sessions
            .write()
            .expect("session registry poisoned")
            .insert(id.0, session);
        id
    }

    /// Restores a recovered session under its original id, with its noise
    /// stream fast-forwarded to `checkpoint` — the recovered session
    /// continues its deterministic stream bit-for-bit instead of replaying
    /// randomness the pre-crash process already consumed. The id counter is
    /// advanced past the restored id so new registrations never collide.
    pub fn restore(&self, id: SessionId, analyst: AnalystId, checkpoint: RngCheckpoint) {
        let mut session = Session::new(id, analyst, self.base_seed, self.default_ttl);
        session.rng = Mutex::new(DpRng::restore_stream(self.base_seed, id.0, checkpoint));
        self.sessions
            .write()
            .expect("session registry poisoned")
            .insert(id.0, std::sync::Arc::new(session));
        self.next_id.fetch_max(id.0 + 1, Ordering::SeqCst);
    }

    /// Advances the id counter to at least `next` (recovery uses this so
    /// ids of sessions that died *without* a restorable checkpoint are
    /// never reissued — reissuing one would replay its noise stream).
    pub fn reserve_ids(&self, next: u64) {
        self.next_id.fetch_max(next, Ordering::SeqCst);
    }

    /// Looks up a live session, refusing expired ones.
    pub fn get(&self, id: SessionId) -> Result<std::sync::Arc<Session>, SessionError> {
        let sessions = self.sessions.read().expect("session registry poisoned");
        let session = sessions.get(&id.0).ok_or(SessionError::Unknown(id))?;
        if session.is_expired() {
            return Err(SessionError::Expired(id));
        }
        Ok(std::sync::Arc::clone(session))
    }

    /// Refreshes a live session's heartbeat. An expired session is
    /// refused like [`Self::get`] refuses it, reaped or not, so expiry
    /// depends on the clock alone and never on when the reaper runs.
    pub fn heartbeat(&self, id: SessionId) -> Result<(), SessionError> {
        self.get(id)?.heartbeat();
        Ok(())
    }

    /// Removes one session outright (used when durable registration of a
    /// fresh session fails — the id stays burned, never reissued).
    pub fn remove(&self, id: SessionId) {
        self.sessions
            .write()
            .expect("session registry poisoned")
            .remove(&id.0);
    }

    /// Removes every expired session and returns their ids.
    pub fn expire_stale(&self) -> Vec<SessionId> {
        let mut sessions = self.sessions.write().expect("session registry poisoned");
        let stale: Vec<u64> = sessions
            .iter()
            .filter(|(_, s)| s.is_expired())
            .map(|(&id, _)| id)
            .collect();
        for id in &stale {
            sessions.remove(id);
        }
        let mut ids: Vec<SessionId> = stale.into_iter().map(SessionId).collect();
        ids.sort();
        ids
    }

    /// Number of registered (non-expired-and-removed) sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions
            .read()
            .expect("session registry poisoned")
            .len()
    }

    /// True when no sessions are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of all registered sessions, in registration order.
    #[must_use]
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .sessions
            .read()
            .expect("session registry poisoned")
            .keys()
            .map(|&id| SessionId(id))
            .collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_dense_and_lookup_works() {
        let reg = SessionRegistry::new(7, Duration::from_secs(60));
        let a = reg.register(AnalystId(0));
        let b = reg.register(AnalystId(1));
        assert_eq!(a, SessionId(0));
        assert_eq!(b, SessionId(1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(a).unwrap().analyst(), AnalystId(0));
        assert_eq!(
            reg.get(SessionId(9)).unwrap_err(),
            SessionError::Unknown(SessionId(9))
        );
        assert_eq!(reg.session_ids(), vec![a, b]);
    }

    #[test]
    fn sessions_expire_without_heartbeat_and_survive_with_it() {
        let reg = SessionRegistry::new(7, Duration::from_millis(30));
        let id = reg.register(AnalystId(0));
        assert!(reg.get(id).is_ok());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(reg.get(id).unwrap_err(), SessionError::Expired(id));
        // A heartbeat after expiry is refused, although the registry has
        // not reaped the session yet: expiry follows the clock alone.
        assert_eq!(reg.heartbeat(id).unwrap_err(), SessionError::Expired(id));
        assert_eq!(reg.get(id).unwrap_err(), SessionError::Expired(id));
        assert_eq!(reg.expire_stale(), vec![id]);
        assert!(reg.is_empty());
        assert_eq!(reg.heartbeat(id).unwrap_err(), SessionError::Unknown(id));

        // A session heartbeaten within its TTL outlives it.
        let reg = SessionRegistry::new(7, Duration::from_millis(200));
        let kept = reg.register(AnalystId(0));
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(50));
            reg.heartbeat(kept).unwrap();
        }
        assert!(reg.get(kept).is_ok());
        assert!(reg.expire_stale().is_empty());
    }

    #[test]
    fn session_rng_streams_are_deterministic_per_id() {
        let reg_a = SessionRegistry::new(7, Duration::from_secs(60));
        let reg_b = SessionRegistry::new(7, Duration::from_secs(60));
        let a = reg_a.register(AnalystId(0));
        let b = reg_b.register(AnalystId(0));
        let va: Vec<f64> = {
            let s = reg_a.get(a).unwrap();
            let mut rng = s.rng.lock().unwrap();
            (0..8).map(|_| rng.uniform()).collect()
        };
        let vb: Vec<f64> = {
            let s = reg_b.get(b).unwrap();
            let mut rng = s.rng.lock().unwrap();
            (0..8).map(|_| rng.uniform()).collect()
        };
        assert_eq!(va, vb);
        // A different base seed gives a different stream.
        let reg_c = SessionRegistry::new(8, Duration::from_secs(60));
        let c = reg_c.register(AnalystId(0));
        let vc: Vec<f64> = {
            let s = reg_c.get(c).unwrap();
            let mut rng = s.rng.lock().unwrap();
            (0..8).map(|_| rng.uniform()).collect()
        };
        assert_ne!(va, vc);
    }

    #[test]
    fn restored_sessions_continue_their_noise_stream_exactly() {
        let reg = SessionRegistry::new(7, Duration::from_secs(60));
        let id = reg.register(AnalystId(0));
        // Consume an odd number of normals so a spare is cached.
        let live: Vec<f64> = {
            let s = reg.get(id).unwrap();
            let mut rng = s.rng.lock().unwrap();
            (0..9).map(|_| rng.gaussian(2.0)).collect()
        };
        assert!(!live.is_empty());
        let checkpoint = reg.get(id).unwrap().rng_checkpoint();

        // A second registry (the restarted process) restores the session.
        let reg2 = SessionRegistry::new(7, Duration::from_secs(60));
        reg2.restore(id, AnalystId(0), checkpoint);
        reg2.reserve_ids(5);
        // Continuations agree bit-for-bit.
        let a: Vec<f64> = {
            let s = reg.get(id).unwrap();
            let mut rng = s.rng.lock().unwrap();
            (0..16).map(|_| rng.gaussian(1.0)).collect()
        };
        let b: Vec<f64> = {
            let s = reg2.get(id).unwrap();
            let mut rng = s.rng.lock().unwrap();
            (0..16).map(|_| rng.gaussian(1.0)).collect()
        };
        assert_eq!(a, b);
        // New registrations never collide with reserved ids.
        assert_eq!(reg2.register(AnalystId(0)), SessionId(5));
    }

    #[test]
    fn per_session_counters_track_accepted_and_executed_work() {
        let reg = SessionRegistry::new(7, Duration::from_secs(60));
        let id = reg.register(AnalystId(0));
        let session = reg.get(id).unwrap();
        assert_eq!(session.submitted(), 0);
        session.mark_submitted();
        session.mark_submitted();
        assert_eq!(session.submitted(), 2);
        session.record_outcome(true);
        session.record_outcome(false);
        assert_eq!(session.answered(), 1);
        assert_eq!(session.rejected(), 1);
    }
}
