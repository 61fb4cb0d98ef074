//! The traced run: a *serial replay* of one round, one request in flight,
//! so outcomes and charges are exact and spans never overlap.
//!
//! * Pass A sends each operation over TCP and times its round trip.
//! * Pass B replays the same operations on an identical fresh system
//!   in-process (`submit`) and, around each, calls the single layers on
//!   that operation's own inputs (resolve, translate, release, append).
//!
//! Every span is recorded by this file around a call into a layer; the
//! program itself is not instrumented. Stage model of one query:
//!
//! ```text
//! rtt = net.rtt + server.dispatch + api.codec + core.submit + residual
//! core.submit = resolve + translate + release + append|quorum + core.self
//! ```
//!
//! `net.rtt` is a heartbeat round trip (socket, loop wake, small frame);
//! `server.dispatch` is measured with a probe query that crosses queue
//! and worker but does no core work; `residual` is what the model leaves
//! unexplained, and must stay small for the attribution to count.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::driver::Counts;
use crate::stats::{self, metric, Digest, Metric, Spans, NO_PARENT};
use crate::surface::{self, Class, Lane, Layers, Op, Replay, Reply, Stack, ANALYSTS};
use crate::workloads::{Event, Sender, Workload};
use crate::{timed, Args, Report, WorkDir, PER_LAYER};

/// Heartbeats and probe queries sent for `net.rtt_us` / `server.dispatch_us`.
const PROBES: usize = 1_000;
/// How long everything is left idle before the idle heartbeat. An
/// operation whose core work lasts at least this long leaves the loop
/// thread and the client idle at least this long too.
const IDLE_PROBE: Duration = Duration::from_micros(150);
/// Operations whose spans are written to `trace.json` (all are aggregated).
const TRACE_FILE_OPS: u32 = 2_000;

/// Per-operation result of pass A.
struct Wire {
    rtt_ns: u64,
    codec_ns: u64,
    bytes: usize,
    reply: Option<Reply>,
}

/// Per-operation result of pass B.
#[derive(Default, Clone, Copy)]
struct Inner {
    submit_ns: u64,
    resolve_ns: u64,
    translate_ns: u64,
    /// Translations replayed for this operation (one per uncached cell).
    translations: usize,
    calibrate_ns: u64,
    release_ns: u64,
    append_ns: u64,
    cells: usize,
}

impl Inner {
    fn layers_ns(&self) -> u64 {
        self.resolve_ns + self.translate_ns + self.calibrate_ns + self.release_ns + self.append_ns
    }

    /// Submit time no standalone layer call accounts for: locks,
    /// provenance check, ledger, stats.
    fn self_ns(&self) -> u64 {
        self.submit_ns.saturating_sub(self.layers_ns())
    }
}

fn class_code(class: Class) -> u64 {
    match class {
        Class::Hit => 1,
        Class::Miss => 2,
        Class::Ack => 3,
        Class::Refused => 4,
        Class::Failed => 5,
    }
}

fn digest_of<'a>(replies: impl Iterator<Item = Option<&'a Reply>>) -> (Digest, Counts) {
    let mut digest = Digest::new();
    let mut counts = Counts::default();
    for reply in replies {
        let class = reply.map_or(Class::Failed, Reply::class);
        counts.record(class);
        digest.push(class_code(class));
        digest.push(reply.map_or(0, Reply::epsilon_bits));
    }
    (digest, counts)
}

fn lane_for<'a>(
    sender: Sender,
    lanes: &'a mut [Lane],
    updater: &'a mut Option<Lane>,
) -> &'a mut Lane {
    match sender {
        Sender::Analyst(a) => &mut lanes[a],
        Sender::Updater => updater.as_mut().expect("updater session was registered"),
    }
}

fn analyst_of(sender: Sender) -> usize {
    match sender {
        Sender::Analyst(a) => a,
        Sender::Updater => 0,
    }
}

struct PassA {
    wire: Vec<Wire>,
    spans: Spans,
    heartbeat_us: f64,
    idle_heartbeat_us: f64,
    probe_us: f64,
    probe_codec_us: f64,
    probes_sent: usize,
    /// Answers checked against the exact answer.
    audited: usize,
    /// Time the server's own histogram says the core spent executing
    /// between the first and the last operation (probes included).
    server_execute_us: f64,
    counters: surface::ServerCounters,
    snapshot_ms: f64,
    wal_appends: f64,
    scan_us: f64,
    materialise_ms: f64,
    problems: Vec<String>,
    first_failure: Option<String>,
}

/// Median in microseconds; 0 when nothing was sampled.
fn median_us(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let samples: Vec<f64> = samples_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
    stats::median(&samples)
}

fn pass_a(workload: &Workload, events: &[Event], dir: &Path) -> PassA {
    let stack = Stack::start(&workload.data, &workload.spec, dir).expect("stack starts");
    let everyone: Vec<usize> = (0..ANALYSTS).collect();
    let (mut lanes, mut updater) =
        surface::connect(stack.addr(), &everyone, workload.has_updater())
            .expect("sessions register");
    let mut problems = Vec::new();
    let mut first_failure = None;
    for event in workload.warm_up() {
        let lane = lane_for(event.sender, &mut lanes, &mut updater);
        if let Err(e) = lane.send(&event.op).and_then(|p| lane.wait(p)) {
            problems.push(format!("warm-up failed: {e}"));
        }
    }

    // Heartbeats (network floor) and probe queries (dispatch path) are
    // interleaved with the operations, on analyst 0's session, so they
    // meet the same thread wake-up pattern the operations do. A probe is
    // refused before it touches budget or noise: outcomes are unaffected.
    let stride = (events.len() / PROBES).max(1);
    let probe = surface::probe_op(&workload.data);
    let mut heartbeats = Vec::with_capacity(PROBES);
    let mut probes = Vec::with_capacity(PROBES);
    let mut idle_heartbeats = Vec::with_capacity(PROBES);
    let mut probe_reply = None;
    let before = lanes[0].server_counters().unwrap_or_default();

    let mut spans = Spans::new(true);
    let mut wire = Vec::with_capacity(events.len());
    let mut audited = surface::Audit::default();
    for (i, event) in events.iter().enumerate() {
        let lane = lane_for(event.sender, &mut lanes, &mut updater);
        let (reply, rtt_ns) = spans.time("rtt", i as u32, NO_PARENT, || {
            lane.send(&event.op).and_then(|p| lane.wait(p))
        });
        let reply = match reply {
            Ok(reply) => Some(reply),
            Err(e) => {
                first_failure.get_or_insert(e);
                None
            }
        };
        let (codec_ns, bytes) = match &reply {
            Some(reply) => {
                let (bytes, ns) = spans.time("api.codec", i as u32, NO_PARENT, || {
                    surface::codec_round_trip(&event.op, reply)
                });
                (ns, bytes)
            }
            None => (0, 0),
        };
        if workload.has_updater() {
            // The data moves under this workload: audit each answer now,
            // while the exact answer is still the one it was noised from.
            if let Some(reply) = &reply {
                audited.absorb(stack.audit(&workload.data, &[(&event.op, reply)]));
            }
        }
        wire.push(Wire {
            rtt_ns,
            codec_ns,
            bytes,
            reply,
        });
        if i % stride == stride - 1 {
            let (beat, ns) = spans.time("net.rtt", i as u32, NO_PARENT, || lanes[0].heartbeat());
            match beat {
                Ok(()) => heartbeats.push(ns),
                Err(e) => problems.push(format!("heartbeat failed: {e}")),
            }
            let (probed, ns) = spans.time("probe", i as u32, NO_PARENT, || {
                lanes[0].send(&probe).and_then(|p| lanes[0].wait(p))
            });
            match probed {
                Ok(reply) => {
                    probes.push(ns);
                    probe_reply = Some(reply);
                }
                Err(e) => problems.push(format!("probe failed: {e}")),
            }
            // The same heartbeat after everything has been idle for a
            // while: what one thread wake-up costs more once the
            // processor has stopped polling for work.
            std::thread::sleep(IDLE_PROBE);
            let (beat, ns) =
                spans.time("net.rtt_idle", i as u32, NO_PARENT, || lanes[0].heartbeat());
            if beat.is_ok() {
                idle_heartbeats.push(ns);
            }
        }
    }
    let after = lanes[0].server_counters().unwrap_or_else(|e| {
        problems.push(format!("metrics fetch failed: {e}"));
        surface::ServerCounters::default()
    });
    if !workload.has_updater() {
        let items: Vec<(&Op, &Reply)> = events
            .iter()
            .zip(&wire)
            .filter_map(|(e, w)| Some((&e.op, w.reply.as_ref()?)))
            .collect();
        audited = stack.audit(&workload.data, &items);
    }
    if audited.violations > 0 {
        problems.push(format!(
            "{} of {} answers lie beyond 8 sigma of the exact answer",
            audited.violations, audited.checked
        ));
    }
    let probe_codec_us = probe_reply.as_ref().map_or(0.0, |reply| {
        let samples: Vec<u64> = (0..100)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(surface::codec_round_trip(&probe, reply));
                start.elapsed().as_nanos() as u64
            })
            .collect();
        median_us(&samples)
    });
    drop(lanes);
    drop(updater);

    problems.extend(stack.constraint_violations());
    let wal_appends = stack.wal_appends().map_or(0.0, |appends| appends as f64);
    let snapshot_ms = stack.checkpoint_ms().unwrap_or(0.0);
    let materialise_ms = stack.materialise_ms;
    if workload.is_durable() {
        problems.extend(timed::check_recovery(workload, stack, dir));
    } else {
        stack.shutdown();
    }
    PassA {
        wire,
        spans,
        heartbeat_us: median_us(&heartbeats),
        idle_heartbeat_us: median_us(&idle_heartbeats),
        probe_us: median_us(&probes),
        probe_codec_us,
        probes_sent: probes.len(),
        audited: audited.checked,
        server_execute_us: after.execute_us - before.execute_us,
        counters: after,
        snapshot_ms,
        wal_appends,
        scan_us: if audited.scalar_queries == 0 {
            0.0
        } else {
            audited.scan_ns as f64 / 1e3 / audited.scalar_queries as f64
        },
        materialise_ms,
        problems,
        first_failure,
    }
}

struct PassB {
    inner: Vec<Inner>,
    replies: Vec<Option<Reply>>,
    spans: Spans,
    probe_submit_us: f64,
    bytes_per_commit: f64,
    quorum: bool,
    elapsed_s: f64,
}

fn pass_b(
    workload: &Workload,
    events: &[Event],
    system_dir: &Path,
    scratch_dir: &Path,
    record_spans: bool,
) -> PassB {
    let replay = Replay::new(&workload.data, &workload.spec, system_dir).expect("replay system");
    let mut layers =
        Layers::new(&workload.data, &workload.spec, scratch_dir).expect("layer probes");
    for event in workload.warm_up() {
        replay
            .submit(analyst_of(event.sender), &event.op)
            .expect("warm-up replays");
    }
    let mut spans = Spans::new(record_spans);
    let mut inner = Vec::with_capacity(events.len());
    let mut replies = Vec::with_capacity(events.len());
    let start = Instant::now();
    for (i, event) in events.iter().enumerate() {
        let op = i as u32;
        let analyst = analyst_of(event.sender);
        let mut this = Inner::default();
        let root = spans.open("replay", op, NO_PARENT);
        let (resolved, ns) = spans.time("engine.resolve", op, root, || layers.resolve(&event.op));
        if resolved.is_some() {
            this.resolve_ns = ns;
        }
        let (reply, ns) = spans.time("core.submit", op, root, || {
            replay.submit(analyst, &event.op).ok()
        });
        this.submit_ns = ns;
        let class = reply.as_ref().map_or(Class::Failed, Reply::class);
        this.cells = reply.as_ref().map_or(1, Reply::cells);
        if let Some(resolved) = &resolved {
            // What this outcome class pays for inside `submit`, replayed
            // standalone on the operation's own inputs.
            if matches!(class, Class::Miss | Class::Refused) {
                let (translated, ns) =
                    spans.time("dp.translate", op, root, || layers.translate(resolved));
                if translated {
                    // Every uncached cell of a grouped query translates
                    // its own (identical) target: one timed call, scaled.
                    this.translations = reply.as_ref().map_or(1, Reply::uncached_cells);
                    this.translate_ns = ns * this.translations as u64;
                }
            }
            if class == Class::Miss {
                let bits = reply.as_ref().map_or(0, Reply::epsilon_bits);
                let (calibrated, ns) = spans.time("dp.calibrate", op, root, || {
                    layers.calibrate(resolved, bits)
                });
                if calibrated {
                    this.calibrate_ns = ns;
                }
                this.release_ns = spans
                    .time("dp.release", op, root, || layers.release(resolved))
                    .1;
                let name = if layers.is_quorum() {
                    "cluster.quorum"
                } else {
                    "storage.append"
                };
                this.append_ns = spans
                    .time(name, op, root, || {
                        layers.record_commit(analyst, resolved, bits)
                    })
                    .1;
            }
        }
        spans.close(root);
        inner.push(this);
        replies.push(reply);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let probe = surface::probe_op(&workload.data);
    let probe_samples: Vec<u64> = (0..PROBES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(replay.submit(0, &probe).ok());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    PassB {
        inner,
        replies,
        spans,
        probe_submit_us: median_us(&probe_samples),
        bytes_per_commit: layers.bytes_per_commit(),
        quorum: layers.is_quorum(),
        elapsed_s,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Mean of `f` over the operations selected by `pick`, in microseconds.
fn mean_us(inner: &[Inner], pick: impl Fn(&Inner) -> bool, f: impl Fn(&Inner) -> u64) -> f64 {
    let samples: Vec<f64> = inner.iter().filter(|i| pick(i)).map(|i| us(f(i))).collect();
    stats::mean(&samples)
}

pub fn run(workload: &Workload, args: &Args, work: &WorkDir) -> Report {
    let events = workload.traced_round(args.seed);
    let a = pass_a(workload, &events, &work.sub("pass-a"));
    let b = pass_b(
        workload,
        &events,
        &work.sub("pass-b"),
        &work.sub("scratch-b"),
        true,
    );
    // The same replay with span recording off prices the tracing itself.
    let untraced = pass_b(
        workload,
        &events,
        &work.sub("pass-c"),
        &work.sub("scratch-c"),
        false,
    );
    let trace_overhead_pct = 100.0 * (b.elapsed_s - untraced.elapsed_s) / untraced.elapsed_s;

    let (digest_a, counts_a) = digest_of(a.wire.iter().map(|w| w.reply.as_ref()));
    let (digest_b, counts_b) = digest_of(b.replies.iter().map(Option::as_ref));
    let mut problems = a.problems;
    if digest_a.hex() != digest_b.hex() || counts_a != counts_b {
        problems.push(format!(
            "outcome digest differs between TCP pass ({} {counts_a:?}) and replay ({} {counts_b:?})",
            digest_a.hex(),
            digest_b.hex()
        ));
    }
    if let Some(failure) = &a.first_failure {
        problems.push(format!(
            "{} operations failed, first: {failure}",
            counts_a.failed
        ));
    }

    // Stage model, per operation.
    let classes: Vec<Class> = a
        .wire
        .iter()
        .map(|w| w.reply.as_ref().map_or(Class::Failed, Reply::class))
        .collect();
    let dispatch_us = (a.probe_us - a.heartbeat_us - b.probe_submit_us - a.probe_codec_us).max(0.0);
    // The replay runs the core on a hot thread with nothing else awake;
    // the server's workers run it after a wake-up. The server's own
    // execute-time sum (exact, probes taken out) against the replay's
    // says by how much that differs, and scales the replayed stages.
    let replayed_us: f64 = (0..events.len())
        .filter(|i| classes[*i] != Class::Ack)
        .map(|i| us(b.inner[i].submit_ns))
        .sum();
    let server_execute_us =
        (a.server_execute_us - a.probes_sent as f64 * b.probe_submit_us).max(0.0);
    let replay_ratio = if replayed_us > 0.0 && server_execute_us > 0.0 {
        server_execute_us / replayed_us
    } else {
        1.0
    };
    let idle_wake_us = (a.idle_heartbeat_us - a.heartbeat_us).max(0.0);
    // While a worker computes for longer than the idle probe slept, the
    // loop thread and the client both go idle: two slow wake-ups on the
    // way back.
    let idle_wakes_us = |core_us: f64| {
        if core_us >= IDLE_PROBE.as_secs_f64() * 1e6 {
            2.0 * idle_wake_us
        } else {
            0.0
        }
    };
    let staged_us = |i: usize| {
        let inner = &b.inner[i];
        let core_us = us(inner.layers_ns().max(inner.submit_ns));
        if classes[i] == Class::Ack {
            // Updates and seals are answered inline by the loop thread:
            // they cross no queue and no worker, and only the client
            // idles meanwhile.
            a.heartbeat_us + us(a.wire[i].codec_ns) + core_us + idle_wakes_us(core_us) / 2.0
        } else {
            let core_us = replay_ratio * core_us;
            a.heartbeat_us + dispatch_us + us(a.wire[i].codec_ns) + core_us + idle_wakes_us(core_us)
        }
    };
    let rtt_us: Vec<f64> = a.wire.iter().map(|w| us(w.rtt_ns)).collect();
    let residuals: Vec<f64> = (0..events.len())
        .map(|i| rtt_us[i] - staged_us(i))
        .collect();
    let rtt_mean = stats::mean(&rtt_us);
    let residual_us = stats::mean(&residuals);
    let residual_pct = 100.0 * residual_us.abs() / rtt_mean;

    let by_class = |class: Class| -> Vec<usize> {
        (0..events.len()).filter(|i| classes[*i] == class).collect()
    };
    let submit_median = |class: Class| {
        let samples: Vec<u64> = by_class(class)
            .iter()
            .map(|i| b.inner[*i].submit_ns)
            .collect();
        median_us(&samples)
    };
    let queries = counts_a.hit + counts_a.miss + counts_a.refused;
    let is_update = |i: usize| matches!(events[i].op, Op::Update(_));
    let is_seal = |i: usize| matches!(events[i].op, Op::Seal);
    let mean_submit_us = |pick: &dyn Fn(usize) -> bool| {
        let samples: Vec<f64> = (0..events.len())
            .filter(|i| pick(*i))
            .map(|i| us(b.inner[i].submit_ns))
            .collect();
        stats::mean(&samples)
    };
    let grouped: Vec<&Inner> = events
        .iter()
        .zip(&b.inner)
        .filter(|(e, _)| matches!(e.op, Op::Grouped(_)))
        .map(|(_, i)| i)
        .collect();
    let grouped_cells: usize = grouped.iter().map(|i| i.cells).sum();
    let grouped_s: f64 = grouped.iter().map(|i| i.submit_ns as f64 / 1e9).sum();
    let translations: usize = b.inner.iter().map(|i| i.translations).sum();
    let ledger_us = mean_us(&b.inner, |i| i.append_ns > 0, |i| i.append_ns);

    let metrics: Vec<Metric> = vec![
        metric("rtt_us", rtt_mean, "us"),
        metric("net.rtt_us", a.heartbeat_us, "us"),
        metric("net.idle_wake_us", idle_wake_us, "us"),
        metric(
            "net.ready_events_per_wake",
            a.counters.ready_events_per_wake,
            "count",
        ),
        metric("server.dispatch_us", dispatch_us, "us"),
        metric(
            "server.queue_wait_p50_us",
            a.counters.queue_wait_p50_us,
            "us",
        ),
        metric(
            "server.batch_size_mean",
            a.counters.batch_size_mean,
            "count",
        ),
        metric(
            "api.codec_us",
            stats::mean(&a.wire.iter().map(|w| us(w.codec_ns)).collect::<Vec<_>>()),
            "us",
        ),
        metric(
            "api.bytes_per_op",
            stats::mean(&a.wire.iter().map(|w| w.bytes as f64).collect::<Vec<_>>()),
            "B",
        ),
        metric("core.submit_hit_us", submit_median(Class::Hit), "us"),
        metric("core.submit_miss_us", submit_median(Class::Miss), "us"),
        metric(
            "core.submit_refused_us",
            submit_median(Class::Refused),
            "us",
        ),
        metric("core.hits", counts_a.hit as f64, "count"),
        metric("core.misses", counts_a.miss as f64, "count"),
        metric("core.refusals", counts_a.refused as f64, "count"),
        metric(
            "core.cache_hit_ratio",
            if queries == 0 {
                0.0
            } else {
                counts_a.hit as f64 / queries as f64
            },
            "ratio",
        ),
        metric(
            "core.self_us",
            mean_us(&b.inner, |_| true, Inner::self_ns),
            "us",
        ),
        metric(
            "core.server_execute_us",
            if queries == 0 {
                0.0
            } else {
                server_execute_us / queries as f64
            },
            "us",
        ),
        metric("core.replay_ratio", replay_ratio, "ratio"),
        metric(
            "engine.resolve_us",
            mean_us(&b.inner, |i| i.resolve_ns > 0, |i| i.resolve_ns),
            "us",
        ),
        metric(
            "dp.translate_us",
            if translations == 0 {
                0.0
            } else {
                b.inner.iter().map(|i| us(i.translate_ns)).sum::<f64>() / translations as f64
            },
            "us",
        ),
        metric("dp.translate_calls", translations as f64, "count"),
        metric(
            "dp.calibrate_us",
            mean_us(&b.inner, |i| i.calibrate_ns > 0, |i| i.calibrate_ns),
            "us",
        ),
        metric(
            "dp.release_us",
            mean_us(&b.inner, |i| i.release_ns > 0, |i| i.release_ns),
            "us",
        ),
        metric(
            "storage.append_us",
            if b.quorum { 0.0 } else { ledger_us },
            "us",
        ),
        metric("storage.bytes_per_commit", b.bytes_per_commit, "B"),
        metric("storage.snapshot_ms", a.snapshot_ms, "ms"),
        metric("storage.wal_appends", a.wal_appends, "count"),
        metric(
            "cluster.quorum_us",
            if b.quorum { ledger_us } else { 0.0 },
            "us",
        ),
        metric("exec.scan_us", a.scan_us, "us"),
        metric("exec.materialise_ms", a.materialise_ms, "ms"),
        metric("delta.apply_us", mean_submit_us(&is_update), "us"),
        metric("delta.seal_ms", mean_submit_us(&is_seal) / 1e3, "ms"),
        metric(
            "grouped.cells_per_query",
            if grouped.is_empty() {
                0.0
            } else {
                grouped_cells as f64 / grouped.len() as f64
            },
            "count",
        ),
        metric(
            "grouped.cells_per_s",
            if grouped_s > 0.0 {
                grouped_cells as f64 / grouped_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric("residual_us", residual_us, "us"),
        metric("residual_pct", residual_pct, "%"),
        metric("trace_overhead_pct", trace_overhead_pct, "%"),
    ];

    if !metrics
        .iter()
        .map(|m| (m.name, m.unit))
        .eq(PER_LAYER.iter().map(|(name, unit, _)| (*name, *unit)))
    {
        problems.push("per-layer metrics differ from the PER_LAYER table".to_owned());
    }

    let mut notes = vec![
        format!(
            "serial ops {} hit {} miss {} acked {} refused {} failed {}",
            counts_a.sent,
            counts_a.hit,
            counts_a.miss,
            counts_a.acked,
            counts_a.refused,
            counts_a.failed
        ),
        format!("outcome_digest {}", digest_a.hex()),
        format!("audited {} answers against the exact scan", a.audited),
        format!(
            "attribution: {} (residual {:.1} % of serial rtt)",
            if residual_pct < 10.0 {
                "resolved"
            } else {
                "unresolved"
            },
            residual_pct
        ),
        "class        n   rtt_us  net.rtt dispatch    codec  resolve translate calibrate  release   ledger core.self residual"
            .to_owned(),
    ];
    for (label, class) in [
        ("hit", Class::Hit),
        ("miss", Class::Miss),
        ("refused", Class::Refused),
        ("ack", Class::Ack),
    ] {
        let ops = by_class(class);
        if ops.is_empty() {
            continue;
        }
        let avg =
            |f: &dyn Fn(usize) -> f64| ops.iter().map(|i| f(*i)).sum::<f64>() / ops.len() as f64;
        notes.push(format!(
            "{label:<8} {:>5} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>9.1} {:>8.1} {:>8.1} {:>9.1} {:>8.1}",
            ops.len(),
            avg(&|i| rtt_us[i]),
            a.heartbeat_us,
            if class == Class::Ack { 0.0 } else { dispatch_us },
            avg(&|i| us(a.wire[i].codec_ns)),
            avg(&|i| us(b.inner[i].resolve_ns)),
            avg(&|i| us(b.inner[i].translate_ns)),
            avg(&|i| us(b.inner[i].calibrate_ns)),
            avg(&|i| us(b.inner[i].release_ns)),
            avg(&|i| us(b.inner[i].append_ns)),
            avg(&|i| us(b.inner[i].self_ns())),
            avg(&|i| residuals[i]),
        ));
    }
    for problem in &problems {
        notes.push(format!("FAILED {problem}"));
    }
    notes.push(format!(
        "checks {}",
        if problems.is_empty() { "green" } else { "RED" }
    ));

    if let Some(out) = &args.out {
        let path = out.join(format!("trace_{}.json", workload.name));
        let json = Spans::chrome_trace(&[("tcp", &a.spans), ("replay", &b.spans)], TRACE_FILE_OPS);
        if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, json)) {
            notes.push(format!("could not write {}: {e}", path.display()));
        }
    }

    Report {
        workload: workload.name,
        correct: problems.is_empty() && counts_a.failed == 0,
        attempted: counts_a.sent,
        failed: counts_a.failed,
        metrics,
        notes,
    }
}
