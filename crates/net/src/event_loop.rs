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
//!
//! Replies leave in as few `write(2)` calls as the socket allows: each
//! connection frames its replies in place into one contiguous output
//! buffer ([`OutBuf`]), and the pump flushes it only after the frames of
//! a read are all processed, so the replies to everything one read
//! brought leave in one write. The written prefix is compacted past
//! 64 KiB and a drained buffer gives back capacity above 64 KiB.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dprov_api::frame::{frame_into, frame_span, FrameDecoder};
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
/// Bytes read per `read(2)` call. Level-triggered readiness re-reports a
/// socket with more pending bytes, so a bounded chunk bounds how long one
/// chatty connection can hold its loop.
pub(crate) const READ_CHUNK: usize = 64 * 1024;
/// An output buffer compacts its written prefix once it passes this many
/// bytes, and a drained one shrinks its capacity back to it.
const OUT_COMPACT: usize = 64 * 1024;
/// Per-connection cap on live mux channels (guards the per-channel state
/// map against a hostile client opening channels forever).
const MAX_CHANNELS_PER_CONN: usize = 1024;
/// Longest housekeeping cadence: poll-wait timeout, idle-reap scan
/// interval and the retry delay after transient accept failures. A short
/// session TTL shortens it to a quarter of the TTL.
const MAX_TICK: Duration = Duration::from_millis(250);

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
    /// Close connections with no inbound traffic for this long: the
    /// service's session TTL, so a connection whose session would have
    /// expired anyway is collected with it.
    idle_horizon: Duration,
    /// Housekeeping cadence: `min(MAX_TICK, idle_horizon / 4)`, at least
    /// 1 ms so a tiny TTL cannot turn the poll wait into a spin.
    tick: Duration,
    /// Connection-token sequence, globally unique across loops.
    next_token: AtomicU64,
}

impl EventLoopFrontend {
    /// A frontend over `service` with the given tuning.
    #[must_use]
    pub fn new(service: &Arc<QueryService>, config: NetConfig) -> Arc<Self> {
        let idle_horizon = service.session_ttl();
        let tick = MAX_TICK.min(idle_horizon / 4).max(Duration::from_millis(1));
        Arc::new(EventLoopFrontend {
            service: Arc::downgrade(service),
            server_name: format!("dprov-server/{}", env!("CARGO_PKG_VERSION")),
            metrics: service.metrics().clone(),
            config,
            idle_horizon,
            tick,
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
                scratch: vec![0; READ_CHUNK],
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

/// Cross-thread mailbox, drained on every wakeup that reports the waker.
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

/// One connection's reply bytes: whole frames appended in place at the
/// tail and written from `head`, every pending byte in one `write(2)`.
struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written; `buf.len() - head` are pending
    /// (the high-water-mark accounting).
    head: usize,
    /// End offset in `buf` of the first frame not yet completely written
    /// (0 while nothing is pending).
    frame_end: usize,
    /// The high-water mark: pending bytes at or over it stall reading.
    hwm: usize,
    /// Pending bytes reached `hwm`; cleared once they fall below half.
    stalled: bool,
}

impl OutBuf {
    fn new(hwm: usize) -> Self {
        OutBuf {
            buf: Vec::new(),
            head: 0,
            frame_end: 0,
            hwm,
            stalled: false,
        }
    }

    /// Bytes framed but not yet written.
    fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Frames `payload` in place behind the pending bytes and applies the
    /// high-water mark. A written prefix past [`OUT_COMPACT`] is compacted
    /// away first, as [`FrameDecoder`] does with its consumed prefix.
    fn push(&mut self, payload: &[u8]) {
        if self.head >= OUT_COMPACT {
            self.buf.drain(..self.head);
            self.frame_end -= self.head;
            self.head = 0;
        }
        let was_empty = self.pending() == 0;
        frame_into(&mut self.buf, payload);
        if was_empty {
            self.frame_end = self.buf.len();
        }
        if self.pending() >= self.hwm {
            self.stalled = true;
        }
    }

    /// Writes until nothing is pending or `w` would block: one `write`
    /// over every pending byte, repeated only after a short write. Each
    /// write observes how many frames it completed; the stall clears once
    /// the pending bytes fall below half the mark. An error other than
    /// `WouldBlock` (a zero-byte write included) means the peer is gone.
    ///
    /// Every push is followed by a flush and pushes only add bytes, so the
    /// buffer's peak is recorded here, once per flush, not once per push.
    fn flush(&mut self, w: &mut impl Write, metrics: &MetricsRegistry) -> io::Result<()> {
        if self.pending() > 0 {
            metrics.gauge_max(GaugeId::OutputBufferHwm, self.pending() as f64);
        }
        while self.pending() > 0 {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.head += n;
                    metrics.observe(HistId::FramesPerWrite, self.complete_frames());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.pending() == 0 {
            self.buf.clear();
            self.buf.shrink_to(OUT_COMPACT);
            self.head = 0;
            self.frame_end = 0;
        }
        if self.stalled && self.pending() < self.hwm / 2 {
            self.stalled = false;
        }
        Ok(())
    }

    /// Moves `frame_end` past every frame the written head has passed and
    /// counts them.
    fn complete_frames(&mut self) -> u64 {
        let mut frames = 0;
        while self.frame_end <= self.head {
            frames += 1;
            match frame_span(&self.buf[self.frame_end..]) {
                Some(span) => self.frame_end += span,
                None => break,
            }
        }
        frames
    }
}

/// One connection's entire state, owned by exactly one loop thread.
struct Conn {
    stream: TcpStream,
    lane: u64,
    decoder: FrameDecoder,
    proto: ConnProto,
    /// Framed replies awaiting write, in one contiguous buffer; its stall
    /// flag (output high-water mark) stalls reading.
    out: OutBuf,
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
}

impl Conn {
    /// Whether the loop should read (and process) more of this socket.
    fn wants_read(&self) -> bool {
        !self.closing && !self.read_closed && !self.out.stalled && self.parked.is_none()
    }

    /// Whether the connection has fully drained and can be dropped.
    fn done(&self) -> bool {
        (self.closing || self.read_closed)
            && self.inflight == 0
            && self.parked.is_none()
            && self.out.pending() == 0
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
        let tick = self.frontend.tick;
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
            // Only a waker nudge puts anything in the mailbox, so the
            // mailbox is read only when the waker fired. Drain the waker
            // before taking the mailbox: readiness is level-triggered, so
            // a `wake()` that lands after the take leaves the waker
            // readable and the next wait reports its token again.
            let (new_conns, completions, queue_space) =
                if events.iter().any(|ev| ev.token == WAKE_TOKEN) {
                    self.waker.drain();
                    let mut inbox = self.inbox.lock().expect("loop inbox poisoned");
                    (
                        std::mem::take(&mut inbox.new_conns),
                        std::mem::take(&mut inbox.completions),
                        std::mem::take(&mut inbox.queue_space),
                    )
                } else {
                    Default::default()
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
                proto: ConnProto::new(MAX_CHANNELS_PER_CONN),
                out: OutBuf::new(self.frontend.config.output_hwm),
                interest: Interest::READ,
                last_activity: Instant::now(),
                closing: false,
                read_closed: false,
                inflight: 0,
                parked: None,
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
            .with_write(conn.out.pending() > 0);
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
        while !conn.closing && conn.parked.is_none() && !conn.out.stalled {
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
                        PayloadOutcome::Reply(reply) => conn.out.push(&reply),
                        PayloadOutcome::ReplyClose(reply) => {
                            conn.out.push(&reply);
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
            if conn
                .out
                .flush(&mut conn.stream, &self.frontend.metrics)
                .is_err()
            {
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
        conn.out.push(&reply);
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
        conn.out.push(&reply);
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
        conn.out.push(&payload);
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
        let horizon = self.frontend.idle_horizon;
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

#[cfg(test)]
mod tests {
    use dprov_api::frame::frame;

    use super::*;

    /// A socket stand-in that takes at most `max_chunk` bytes per call and
    /// answers `WouldBlock` on about one call in three (xorshift, fixed
    /// seed), so every flush ends at an arbitrary byte.
    struct Dribble {
        got: Vec<u8>,
        max_chunk: usize,
        state: u64,
    }

    impl Dribble {
        fn new(max_chunk: usize) -> Self {
            Dribble {
                got: Vec::new(),
                max_chunk,
                state: 0x9E37_79B9_7F4A_7C15,
            }
        }

        fn next(&mut self) -> u64 {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            self.state
        }
    }

    impl Write for Dribble {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            let roll = self.next();
            if roll.is_multiple_of(3) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = bytes.len().min(1 + (roll >> 8) as usize % self.max_chunk);
            self.got.extend_from_slice(&bytes[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A socket stand-in that takes up to `room` more bytes, then blocks.
    struct Window {
        room: usize,
    }

    impl Write for Window {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = bytes.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn payload(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j) as u8).collect()
    }

    /// Flushes until nothing is pending (the writer blocks at random).
    fn drain(out: &mut OutBuf, w: &mut impl Write, metrics: &MetricsRegistry) {
        for _ in 0..1_000_000 {
            if out.pending() == 0 {
                return;
            }
            out.flush(w, metrics).unwrap();
        }
        panic!("output never drained");
    }

    #[test]
    fn output_bytes_arrive_exactly_and_in_order_across_partial_writes() {
        let metrics = MetricsRegistry::new();
        let mut out = OutBuf::new(usize::MAX);
        let mut w = Dribble::new(7);
        let mut expected = Vec::new();
        for i in 0..300 {
            let p = payload(i, i % 41);
            expected.extend_from_slice(&frame(&p));
            out.push(&p);
            if i % 5 == 4 {
                out.flush(&mut w, &metrics).unwrap();
            }
        }
        drain(&mut out, &mut w, &metrics);
        assert_eq!(w.got, expected);
        let per_write = metrics.histogram(HistId::FramesPerWrite);
        assert_eq!(per_write.sum, 300, "every frame end is counted once");
        assert!(
            per_write.count > 300 / 2,
            "the writer took a few bytes a call"
        );
    }

    #[test]
    fn one_write_carries_every_pending_frame() {
        let metrics = MetricsRegistry::new();
        let mut out = OutBuf::new(usize::MAX);
        for i in 0..4 {
            out.push(&payload(i, 20));
        }
        out.flush(&mut Window { room: usize::MAX }, &metrics)
            .unwrap();
        let per_write = metrics.histogram(HistId::FramesPerWrite);
        assert_eq!((per_write.count, per_write.max), (1, 4));
        assert_eq!(out.pending(), 0);
    }

    #[test]
    fn the_output_stall_trips_at_the_mark_and_clears_below_half() {
        let metrics = MetricsRegistry::new();
        let hwm = 1000;
        let mut out = OutBuf::new(hwm);
        let p = payload(0, 92); // 100 bytes framed
        for _ in 0..9 {
            out.push(&p);
            assert!(!out.stalled, "under the mark at {} bytes", out.pending());
        }
        out.push(&p);
        assert_eq!(out.pending(), hwm);
        assert!(out.stalled, "the mark itself stalls");

        // Draining to exactly half the mark keeps the stall.
        out.flush(&mut Window { room: hwm / 2 }, &metrics).unwrap();
        assert_eq!(out.pending(), hwm / 2);
        assert!(out.stalled, "half the mark is not below half");
        out.flush(&mut Window { room: 1 }, &metrics).unwrap();
        assert_eq!(out.pending(), hwm / 2 - 1);
        assert!(!out.stalled, "below half resumes reading");
        assert_eq!(metrics.gauge(GaugeId::OutputBufferHwm), hwm as f64);
    }

    #[test]
    fn the_written_prefix_is_compacted() {
        let metrics = MetricsRegistry::new();
        let mut out = OutBuf::new(usize::MAX);
        let p = payload(1, 1016); // 1 KiB framed
        let mut expected = Vec::new();
        for _ in 0..100 {
            out.push(&p);
            expected.extend_from_slice(&frame(&p));
        }
        // Write 70 KiB and a half frame: past the compaction threshold,
        // mid-frame.
        let written = 70 * 1024 + 512;
        out.flush(&mut Window { room: written }, &metrics).unwrap();
        assert_eq!(out.head, written);
        out.push(&p);
        expected.extend_from_slice(&frame(&p));
        assert_eq!(out.head, 0, "the written prefix is gone");
        assert_eq!(out.buf.len(), out.pending());
        assert_eq!(out.buf[..], expected[written..]);

        // The half-written frame still counts once it completes.
        let before = metrics.histogram(HistId::FramesPerWrite).sum;
        assert_eq!(before, 70);
        out.flush(&mut Window { room: usize::MAX }, &metrics)
            .unwrap();
        assert_eq!(metrics.histogram(HistId::FramesPerWrite).sum, 101);
    }

    #[test]
    fn a_drained_burst_gives_its_capacity_back() {
        let metrics = MetricsRegistry::new();
        let mut out = OutBuf::new(usize::MAX);
        let mut w = Dribble::new(64 * 1024);
        let p = payload(2, 4088); // 4 KiB framed
        for _ in 0..512 {
            out.push(&p);
        }
        assert!(out.buf.capacity() >= 2 << 20, "a 2 MiB burst");
        drain(&mut out, &mut w, &metrics);
        assert_eq!(w.got.len(), 2 << 20);
        assert!(
            out.buf.capacity() <= OUT_COMPACT,
            "capacity {} kept after draining",
            out.buf.capacity()
        );
    }
}
