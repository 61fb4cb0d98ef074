//! The event-loop frontend internals: loop threads, per-connection state
//! machines and the queue/socket backpressure coupling.
//!
//! Layout: [`EventLoopFrontend::listen`] spawns a fixed set of
//! [`LoopCore`] threads, each owning a poller, a cross-thread waker and a
//! mailbox ([`Inbox`]). Loop 0 also owns the (non-blocking) TCP listener
//! and deals accepted sockets out round-robin. Every connection lives on
//! exactly one loop — its state is plain owned data, never locked — and
//! worker-pool completions find their way home through the owning loop's
//! mailbox plus a waker nudge. `process_frames` offers every submission
//! to [`QueryService::try_answer_inline`] first and writes its reply
//! directly: while the worker pool is idle a scalar request (a hit, a
//! miss, a refusal or a privacy-mode commit) never leaves the loop, and
//! while it is busy a provable cache hit does not. Only what that refuses
//! — GROUP BY, a contended lock, an unresolvable request, a due
//! compaction — is dispatched to the pool. An inline request holds its
//! loop for one scalar admission, its journal append and its session
//! checkpoint (in fsync mode, the fsyncs of those two appends); inside
//! the admission it may wait for the provenance lock and, under the
//! additive mechanism, the view lock, each held by another admission for
//! part of its own work.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dprov_api::frame::{frame, FrameDecoder};
use dprov_api::protocol::Response;
use dprov_obs::{CounterId, GaugeId, HistId, MetricsRegistry};
use dprov_server::proto::{encode_reply, reply_to_protocol, ConnProto, PayloadOutcome};
use dprov_server::{Completion, QueryService, ServerError, SessionId, TrySubmitError, Work};
use epoll::{Event, Interest, Poller, Waker};

use crate::NetConfig;

/// Token for each loop's waker registration.
const WAKE_TOKEN: u64 = 0;
/// Token for the TCP listener (loop 0 only).
const LISTENER_TOKEN: u64 = 1;
/// First token handed to a connection; tokens below this are reserved.
const FIRST_CONN_TOKEN: u64 = 16;
/// Trace lanes: workers occupy lanes `0..N`; connections start here.
const LANE_BASE: u64 = 1_000;

/// Classifies an `accept(2)` failure: transient errors (descriptor
/// exhaustion, an aborted in-flight handshake, interrupted syscalls,
/// transient kernel memory pressure) clear on their own and merit a
/// paused retry; anything else means the listening socket itself is
/// broken and retrying can only spin.
fn accept_error_is_transient(e: &io::Error) -> bool {
    // Raw codes (Linux values) because `io::ErrorKind` has no stable
    // mapping for several of these: EINTR(4), EAGAIN(11), ENOMEM(12),
    // ENFILE(23), EMFILE(24), EPROTO(71), ECONNABORTED(103), ENOBUFS(105).
    matches!(
        e.raw_os_error(),
        Some(4 | 11 | 12 | 23 | 24 | 71 | 103 | 105)
    ) || matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
    )
}

/// The readiness-driven analyst-protocol server over a
/// [`QueryService`] (see the crate docs for the architecture).
///
/// The service reference is held weakly: dropping the last owning
/// `Arc<QueryService>` invalidates the frontend gracefully — live
/// connections get retryable `SHUTTING_DOWN` errors. Session expiry is
/// the service's own reaper's job, not the loop's.
pub struct EventLoopFrontend {
    service: Weak<QueryService>,
    server_name: String,
    metrics: MetricsRegistry,
    config: NetConfig,
    /// Resolved idle horizon ([`NetConfig::idle_timeout`] or the
    /// service's session TTL).
    idle_timeout: Duration,
    /// Connection-token sequence, globally unique across loops.
    next_token: AtomicU64,
}

impl EventLoopFrontend {
    /// A frontend over `service` with the given tuning.
    #[must_use]
    pub fn new(service: &Arc<QueryService>, config: NetConfig) -> Arc<Self> {
        let idle_timeout = config.idle_timeout.unwrap_or_else(|| service.session_ttl());
        Arc::new(EventLoopFrontend {
            service: Arc::downgrade(service),
            server_name: format!("dprov-server/{}", env!("CARGO_PKG_VERSION")),
            metrics: service.metrics().clone(),
            config,
            idle_timeout,
            next_token: AtomicU64::new(FIRST_CONN_TOKEN),
        })
    }

    /// Binds a TCP listener and starts the loop threads. Bind port 0 to
    /// let the OS pick; the bound address is on the returned handle.
    pub fn listen(self: &Arc<Self>, addr: impl ToSocketAddrs) -> io::Result<EventLoopListener> {
        let service = self.service.upgrade().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "query service has shut down")
        })?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let threads = self.config.loop_threads.max(1);
        let mut pollers = Vec::with_capacity(threads);
        let mut peers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let mut poller = Poller::new()?;
            let waker = Arc::new(Waker::new(&mut poller, WAKE_TOKEN)?);
            pollers.push(poller);
            peers.push(LoopHandle {
                inbox: Arc::new(Mutex::new(Inbox::default())),
                waker,
            });
        }
        pollers[0].register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;

        // Queue pressure → socket pressure: the moment a worker frees a
        // slot in the full submission queue, every loop wakes and retries
        // its parked submissions (re-arming read interest on success).
        {
            let peers = peers.clone();
            service.add_queue_space_listener(Arc::new(move || {
                for peer in &peers {
                    peer.inbox.lock().expect("loop inbox poisoned").queue_space = true;
                    peer.waker.wake();
                }
            }));
        }
        drop(service);

        let shutdown = Arc::new(AtomicBool::new(false));
        let fatal: Arc<Mutex<Option<io::Error>>> = Arc::new(Mutex::new(None));
        let registered = Arc::new(AtomicI64::new(0));
        let mut listener_slot = Some(listener);
        let mut handles = Vec::with_capacity(threads);
        for (i, poller) in pollers.into_iter().enumerate() {
            let core = LoopCore {
                frontend: Arc::clone(self),
                poller,
                waker: Arc::clone(&peers[i].waker),
                inbox: Arc::clone(&peers[i].inbox),
                conns: HashMap::new(),
                listener: if i == 0 { listener_slot.take() } else { None },
                accept_paused: false,
                peers: peers.clone(),
                next_peer: 0,
                shutdown: Arc::clone(&shutdown),
                fatal: Arc::clone(&fatal),
                registered: Arc::clone(&registered),
                scratch: vec![0; self.config.read_chunk.max(1)],
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("dprov-net-loop-{i}"))
                    .spawn(move || core.run())?,
            );
        }
        Ok(EventLoopListener {
            local_addr,
            shutdown,
            wakers: peers.into_iter().map(|p| p.waker).collect(),
            handles,
            fatal,
        })
    }
}

/// Handle to a running event-loop frontend (see
/// [`EventLoopFrontend::listen`]).
pub struct EventLoopListener {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    handles: Vec<JoinHandle<()>>,
    fatal: Arc<Mutex<Option<io::Error>>>,
}

impl EventLoopListener {
    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How many loop threads are serving (fixed for the listener's life —
    /// the C10k invariant the throughput bench asserts).
    #[must_use]
    pub fn loop_threads(&self) -> usize {
        self.handles.len()
    }

    /// Takes the fatal accept/poll error, if one occurred. Transient
    /// accept failures (EMFILE and friends) pause accepting for one tick
    /// and count into `frontend.accept_transient_errors` instead.
    #[must_use]
    pub fn take_fatal_error(&self) -> Option<io::Error> {
        self.fatal.lock().expect("fatal slot poisoned").take()
    }

    /// Stops the loops: live connections are closed, the listener fd is
    /// released and every loop thread is joined.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EventLoopListener {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The shared face of one loop: where other threads put work for it.
#[derive(Clone)]
struct LoopHandle {
    inbox: Arc<Mutex<Inbox>>,
    waker: Arc<Waker>,
}

/// Cross-thread mailbox, drained once per wakeup.
#[derive(Default)]
struct Inbox {
    /// Sockets dealt to this loop by the accept path.
    new_conns: Vec<TcpStream>,
    /// Finished query responses: (connection token, encoded payload).
    completions: Vec<(u64, Vec<u8>)>,
    /// The submission queue went full → non-full; retry parked work.
    queue_space: bool,
}

/// A submission on its way into the worker pool; held on the connection
/// while the full queue refuses it (until a queue-space wakeup).
struct Parked {
    session: SessionId,
    work: Work,
    on_done: Completion,
    request_id: u64,
    scope: Option<u64>,
}

/// One connection's entire state, owned by exactly one loop thread.
struct Conn {
    stream: TcpStream,
    lane: u64,
    decoder: FrameDecoder,
    proto: ConnProto,
    /// Encoded wire frames awaiting write; the front one may be partially
    /// written (`out_head` bytes already gone).
    out: VecDeque<Vec<u8>>,
    out_head: usize,
    /// Total unwritten bytes across `out` (the HWM accounting).
    out_bytes: usize,
    /// The interest currently registered with the poller.
    interest: Interest,
    last_activity: Instant,
    /// The protocol asked to close (flush, then drop).
    closing: bool,
    /// The peer half-closed its write side (serve in-flight work, then
    /// drop once everything is answered and flushed).
    read_closed: bool,
    /// Submissions accepted by the worker pool, not yet completed.
    inflight: usize,
    /// A submission the full queue bounced (stalls reading).
    parked: Option<Parked>,
    /// Output buffer passed the high-water mark (stalls reading).
    stalled_output: bool,
}

impl Conn {
    /// Whether the loop should read (and process) more of this socket.
    fn wants_read(&self) -> bool {
        !self.closing && !self.read_closed && !self.stalled_output && self.parked.is_none()
    }

    /// Whether the connection has fully drained and can be dropped.
    fn done(&self) -> bool {
        (self.closing || self.read_closed)
            && self.inflight == 0
            && self.parked.is_none()
            && self.out.is_empty()
    }
}

/// One loop thread's owned world.
struct LoopCore {
    frontend: Arc<EventLoopFrontend>,
    poller: Poller,
    waker: Arc<Waker>,
    inbox: Arc<Mutex<Inbox>>,
    conns: HashMap<u64, Conn>,
    /// Loop 0 owns the listener; `None` elsewhere (and after a fatal
    /// accept error).
    listener: Option<TcpListener>,
    /// Accepting is paused until the next tick (transient accept error).
    accept_paused: bool,
    peers: Vec<LoopHandle>,
    next_peer: usize,
    shutdown: Arc<AtomicBool>,
    fatal: Arc<Mutex<Option<io::Error>>>,
    /// Live connections across all loops (drives the gauge).
    registered: Arc<AtomicI64>,
    scratch: Vec<u8>,
}

impl LoopCore {
    fn run(mut self) {
        let tick = self.frontend.config.tick;
        let mut events: Vec<Event> = Vec::new();
        let mut last_reap = Instant::now();
        loop {
            let ready = match self.poller.wait(&mut events, Some(tick)) {
                Ok(n) => n,
                Err(e) => {
                    *self.fatal.lock().expect("fatal slot poisoned") = Some(e);
                    break;
                }
            };
            if ready > 0 {
                self.frontend
                    .metrics
                    .observe(HistId::ReadyEventsPerWake, ready as u64);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Drain the mailbox before touching events so a completion
            // enqueued just ahead of this wakeup is not missed.
            self.waker.drain();
            let (new_conns, completions, queue_space) = {
                let mut inbox = self.inbox.lock().expect("loop inbox poisoned");
                (
                    std::mem::take(&mut inbox.new_conns),
                    std::mem::take(&mut inbox.completions),
                    std::mem::take(&mut inbox.queue_space),
                )
            };
            for stream in new_conns {
                self.add_conn(stream);
            }
            for &ev in &events {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_event(token, ev),
                }
            }
            for (token, payload) in completions {
                self.complete(token, payload);
            }
            if queue_space {
                self.retry_parked_all();
            }
            if last_reap.elapsed() >= tick {
                last_reap = Instant::now();
                self.reap_idle();
                if self.accept_paused {
                    if let Some(listener) = &self.listener {
                        let _ = self.poller.modify(
                            listener.as_raw_fd(),
                            LISTENER_TOKEN,
                            Interest::READ,
                        );
                    }
                    self.accept_paused = false;
                }
            }
        }
        // Wind down: close every connection this loop owns.
        for (_, conn) in std::mem::take(&mut self.conns) {
            self.teardown(conn);
        }
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
    }

    /// Accepts until the backlog is dry, dealing sockets round-robin.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let idx = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    if idx == 0 {
                        self.add_conn(stream);
                    } else {
                        let peer = &self.peers[idx];
                        peer.inbox
                            .lock()
                            .expect("loop inbox poisoned")
                            .new_conns
                            .push(stream);
                        peer.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient (EMFILE-style) failures: pause the accept
                // path until the next tick. Sleeping here would stall
                // every live connection on this loop, so interest is
                // dropped instead and re-armed by the tick.
                Err(e) if accept_error_is_transient(&e) => {
                    self.frontend.metrics.incr(CounterId::AcceptTransientErrors);
                    let fd = listener.as_raw_fd();
                    let _ = self.poller.modify(fd, LISTENER_TOKEN, Interest::NONE);
                    self.accept_paused = true;
                    return;
                }
                // The listening socket itself is broken; park the error
                // for operators and stop accepting. Live connections
                // keep being served.
                Err(e) => {
                    self.frontend.metrics.incr(CounterId::AcceptFatalErrors);
                    *self.fatal.lock().expect("fatal slot poisoned") = Some(e);
                    if let Some(listener) = self.listener.take() {
                        let _ = self.poller.deregister(listener.as_raw_fd());
                    }
                    return;
                }
            }
        }
    }

    /// Registers a freshly accepted socket with this loop.
    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.frontend.next_token.fetch_add(1, Ordering::Relaxed);
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.frontend.metrics.incr(CounterId::FrontendConnections);
        let live = self.registered.fetch_add(1, Ordering::Relaxed) + 1;
        self.frontend
            .metrics
            .gauge_set(GaugeId::RegisteredConnections, live as f64);
        self.conns.insert(
            token,
            Conn {
                stream,
                lane: LANE_BASE + token,
                decoder: FrameDecoder::new(),
                proto: ConnProto::new(self.frontend.config.max_channels_per_conn),
                out: VecDeque::new(),
                out_head: 0,
                out_bytes: 0,
                interest: Interest::READ,
                last_activity: Instant::now(),
                closing: false,
                read_closed: false,
                inflight: 0,
                parked: None,
                stalled_output: false,
            },
        );
    }

    /// Handles one readiness event for a connection.
    fn conn_event(&mut self, token: u64, ev: Event) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let tried_read = ev.readable && conn.wants_read();
        let mut alive = true;
        if tried_read {
            alive = self.read_ready(&mut conn, token);
        }
        if alive {
            alive = self.pump(&mut conn, token);
        }
        if alive && ev.closed && !tried_read {
            // Pure error/hangup with nothing readable to drain.
            alive = false;
        }
        self.finish(token, conn, alive);
    }

    /// Re-inserts a live connection (updating poller interest) or tears
    /// it down.
    fn finish(&mut self, token: u64, mut conn: Conn, alive: bool) {
        if !alive || conn.done() {
            self.teardown(conn);
            return;
        }
        let want = Interest::NONE
            .with_read(conn.wants_read())
            .with_write(!conn.out.is_empty());
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
        self.conns.insert(token, conn);
    }

    /// Deregisters and drops a connection. Sessions are NOT closed here —
    /// a reconnecting client resumes by id; an abandoned session is
    /// removed by the service's reaper once its TTL passes.
    fn teardown(&mut self, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let live = self.registered.fetch_sub(1, Ordering::Relaxed) - 1;
        self.frontend
            .metrics
            .gauge_set(GaugeId::RegisteredConnections, live as f64);
    }

    /// Reads one chunk (level-triggered readiness re-reports a socket
    /// with more pending, so one chunk per wake bounds how long a chatty
    /// peer holds the loop) and processes any completed frames.
    fn read_ready(&mut self, conn: &mut Conn, token: u64) -> bool {
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // Half-close: drain buffered complete frames (they
                    // arrived before the FIN) and serve what's in flight;
                    // `done()` collects the connection afterwards.
                    let alive = self.process_frames(conn, token);
                    conn.read_closed = true;
                    return alive;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.feed(&self.scratch[..n]);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.process_frames(conn, token)
    }

    /// Drains completed frames from the decoder through the shared
    /// protocol state machine, stopping at any stall (parked submission,
    /// output high-water mark, protocol close).
    fn process_frames(&mut self, conn: &mut Conn, token: u64) -> bool {
        while !conn.closing && conn.parked.is_none() && !conn.stalled_output {
            match conn.decoder.next_frame() {
                Ok(Some(payload)) => {
                    let outcome = conn.proto.handle_payload(
                        &self.frontend.service,
                        &self.frontend.server_name,
                        &self.frontend.metrics,
                        conn.lane,
                        &payload,
                    );
                    match outcome {
                        PayloadOutcome::Reply(reply) => self.push_out(conn, reply),
                        PayloadOutcome::ReplyClose(reply) => {
                            self.push_out(conn, reply);
                            conn.closing = true;
                        }
                        PayloadOutcome::Submit {
                            session,
                            work,
                            request_id,
                            scope,
                        } => {
                            if self.answer_inline(conn, session, &work, request_id, scope) {
                                continue;
                            }
                            let on_done = self.make_callback(token, conn.lane, request_id, scope);
                            self.dispatch(
                                conn,
                                Parked {
                                    session,
                                    work,
                                    on_done,
                                    request_id,
                                    scope,
                                },
                            );
                        }
                    }
                }
                Ok(None) => break,
                // Oversized or corrupt framing: tear the connection down,
                // exactly like the blocking transport does — the client
                // surfaces a typed connection error locally.
                Err(_) => return false,
            }
        }
        true
    }

    /// Alternates flushing and frame processing until no further progress
    /// is possible: either the decoder ran out of complete frames, or a
    /// stall persists (full submission queue, output buffer over the
    /// high-water mark with a full socket) — in which case the matching
    /// wakeup (queue-space, writable readiness) resumes the pump later.
    /// Without this loop a flush that *clears* a stall would leave already
    /// buffered frames unprocessed with no future event to revisit them.
    fn pump(&mut self, conn: &mut Conn, token: u64) -> bool {
        loop {
            if !self.flush_out(conn) {
                return false;
            }
            let before = conn.decoder.buffered_len();
            if !self.process_frames(conn, token) {
                return false;
            }
            if conn.decoder.buffered_len() == before {
                return true;
            }
        }
    }

    /// Queues an encoded response payload for writing (framing it for the
    /// wire) and applies the output high-water mark.
    fn push_out(&mut self, conn: &mut Conn, payload: Vec<u8>) {
        let wire = frame(&payload);
        conn.out_bytes += wire.len();
        conn.out.push_back(wire);
        self.frontend
            .metrics
            .gauge_max(GaugeId::OutputBufferHwm, conn.out_bytes as f64);
        if conn.out_bytes >= self.frontend.config.output_hwm {
            conn.stalled_output = true;
        }
    }

    /// Writes as much buffered output as the socket accepts; resumes
    /// reading once the buffer drains below half the high-water mark.
    fn flush_out(&mut self, conn: &mut Conn) -> bool {
        while let Some(front) = conn.out.front() {
            match conn.stream.write(&front[conn.out_head..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.out_head += n;
                    conn.out_bytes -= n;
                    if conn.out_head == front.len() {
                        conn.out.pop_front();
                        conn.out_head = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.stalled_output && conn.out_bytes < self.frontend.config.output_hwm / 2 {
            conn.stalled_output = false;
        }
        true
    }

    /// Writes the reply to a request answered on this thread (see
    /// [`QueryService::try_answer_inline`]); `false` leaves the submission
    /// to [`Self::dispatch`].
    fn answer_inline(
        &mut self,
        conn: &mut Conn,
        session: SessionId,
        work: &Work,
        request_id: u64,
        scope: Option<u64>,
    ) -> bool {
        let Some(reply) =
            self.frontend.service.upgrade().and_then(|service| {
                service.try_answer_inline(session, work, request_id, conn.lane)
            })
        else {
            return false;
        };
        let reply = encode_reply(
            &self.frontend.metrics,
            conn.lane,
            request_id,
            scope,
            &reply_to_protocol(reply),
        );
        self.push_out(conn, reply);
        true
    }

    /// Hands a submission (fresh or previously parked) to the worker pool
    /// without blocking; a full queue parks it on the connection (read
    /// interest drops via `wants_read`) until the queue-space wakeup.
    fn dispatch(&mut self, conn: &mut Conn, submission: Parked) {
        let Parked {
            session,
            work,
            on_done,
            request_id,
            scope,
        } = submission;
        let rejected = match self.frontend.service.upgrade() {
            None => ServerError::ShuttingDown,
            Some(service) => match service.try_submit(session, work, request_id, on_done) {
                Ok(()) => {
                    conn.inflight += 1;
                    return;
                }
                Err(TrySubmitError::Full { work, on_done }) => {
                    conn.parked = Some(Parked {
                        session,
                        work,
                        on_done,
                        request_id,
                        scope,
                    });
                    return;
                }
                Err(TrySubmitError::Rejected(e)) => e,
            },
        };
        let reply = encode_reply(
            &self.frontend.metrics,
            conn.lane,
            request_id,
            scope,
            &Response::Error(rejected.into()),
        );
        self.push_out(conn, reply);
    }

    /// The completion handler run on the worker thread: encode the reply
    /// there (keeping serialisation off the loop threads) and route it
    /// home through the owning loop's mailbox.
    fn make_callback(
        &self,
        token: u64,
        lane: u64,
        request_id: u64,
        scope: Option<u64>,
    ) -> Completion {
        let inbox = Arc::clone(&self.inbox);
        let waker = Arc::clone(&self.waker);
        let metrics = self.frontend.metrics.clone();
        Box::new(move |response| {
            let reply = encode_reply(
                &metrics,
                lane,
                request_id,
                scope,
                &reply_to_protocol(response),
            );
            inbox
                .lock()
                .expect("loop inbox poisoned")
                .completions
                .push((token, reply));
            waker.wake();
        })
    }

    /// Routes one finished query response onto its connection.
    fn complete(&mut self, token: u64, payload: Vec<u8>) {
        let Some(mut conn) = self.conns.remove(&token) else {
            // The connection died while the query ran; the charge stands
            // (it was admitted), the bytes have nowhere to go.
            return;
        };
        conn.inflight = conn.inflight.saturating_sub(1);
        self.push_out(&mut conn, payload);
        let alive = self.pump(&mut conn, token);
        self.finish(token, conn, alive);
    }

    /// Retries every parked submission after a queue-space wakeup.
    fn retry_parked_all(&mut self) {
        let parked: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.parked.is_some())
            .map(|(t, _)| *t)
            .collect();
        for token in parked {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            // Someone else may take the freed slot first, in which case
            // the submission parks again for the next wakeup; otherwise
            // the pump resumes the frames buffered behind it.
            if let Some(parked) = conn.parked.take() {
                self.dispatch(&mut conn, parked);
            }
            let alive = self.pump(&mut conn, token);
            self.finish(token, conn, alive);
        }
    }

    /// Drops connections with no inbound traffic for the idle horizon.
    /// In-flight or parked work exempts a connection (its silence is the
    /// server's doing, not the client's).
    fn reap_idle(&mut self) {
        let horizon = self.frontend.idle_timeout;
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.inflight == 0 && c.parked.is_none() && c.last_activity.elapsed() >= horizon
            })
            .map(|(t, _)| *t)
            .collect();
        for token in dead {
            if let Some(conn) = self.conns.remove(&token) {
                self.frontend.metrics.incr(CounterId::IdleConnectionsReaped);
                self.teardown(conn);
            }
        }
    }
}
