//! A fixed-capacity, lock-free ring buffer of per-request stage events.
//!
//! Each recorded event is one seqlock-guarded slot of five `AtomicU64`s.
//! Writers claim a slot with a single `fetch_add` on the write cursor and
//! never block or allocate; once the journal wraps, the oldest events are
//! overwritten. Readers ([`TraceJournal::snapshot`]) detect in-flight or
//! torn slots via the per-slot sequence word and simply skip them, so a
//! snapshot never observes a half-written event and never stalls a
//! writer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A pipeline stage a request passes through, as recorded in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Stage {
    /// Frontend: decoding the request off the wire.
    Decode,
    /// Waiting in the bounded job queue for a worker.
    QueueWait,
    /// Mechanism execution inside the worker (admission + DP answer).
    Execute,
    /// Frontend: encoding and writing the response.
    Reply,
}

impl Stage {
    /// Stable wire/trace name of the stage.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::Execute => "execute",
            Stage::Reply => "reply",
        }
    }

    fn to_u64(self) -> u64 {
        match self {
            Stage::Decode => 0,
            Stage::QueueWait => 1,
            Stage::Execute => 2,
            Stage::Reply => 3,
        }
    }

    fn from_u64(v: u64) -> Option<Stage> {
        Some(match v {
            0 => Stage::Decode,
            1 => Stage::QueueWait,
            2 => Stage::Execute,
            3 => Stage::Reply,
            _ => return None,
        })
    }
}

/// One completed stage of one request, read back out of the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The request id the stage belongs to (protocol request id on the
    /// frontend path, an internal submission id for embedded callers).
    pub(crate) request_id: u64,
    /// Which stage completed.
    pub(crate) stage: Stage,
    /// The lane (session id, or 0 when no session applies) the stage ran
    /// under — becomes the `tid` of the chrome-trace row.
    pub(crate) lane: u64,
    /// Stage start, in nanoseconds since the registry was created.
    pub(crate) start_ns: u64,
    /// Stage duration in nanoseconds.
    pub(crate) dur_ns: u64,
}

#[derive(Debug)]
struct Slot {
    /// Seqlock word: odd while a writer owns the slot, even when the
    /// payload is consistent. Each (re)write bumps it past all previous
    /// values, so a reader that sees the same even value before and after
    /// reading the payload saw a coherent event.
    seq: AtomicU64,
    request_id: AtomicU64,
    /// `stage | lane << 8`.
    meta: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

/// The fixed-capacity trace journal. See the module docs.
#[derive(Debug)]
pub struct TraceJournal {
    slots: Vec<Slot>,
    cursor: AtomicU64,
}

impl TraceJournal {
    /// A journal retaining the most recent `capacity` events (minimum 1).
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceJournal {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    request_id: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    start_ns: AtomicU64::new(0),
                    dur_ns: AtomicU64::new(0),
                })
                .collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Total number of events ever recorded (recorded − retained =
    /// overwritten).
    #[must_use]
    pub(crate) fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records one completed stage. One `fetch_add` plus five relaxed
    /// stores; never blocks, never allocates.
    pub(crate) fn record(
        &self,
        request_id: u64,
        stage: Stage,
        lane: u64,
        start_ns: u64,
        dur: Duration,
    ) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Claim: distinct tickets write distinct odd values, so a reader
        // racing two writers on a wrapped slot still sees seq change.
        slot.seq
            .store(ticket.wrapping_mul(2) | 1, Ordering::Release);
        slot.request_id.store(request_id, Ordering::Relaxed);
        slot.meta
            .store(stage.to_u64() | (lane << 8), Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(
            dur.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        // Publish: even, still ticket-distinct.
        slot.seq
            .store(ticket.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    /// All currently retained, fully written events, ordered by start
    /// time. Slots being concurrently rewritten are skipped rather than
    /// returned torn.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let seq0 = slot.seq.load(Ordering::Acquire);
            if seq0 == 0 || seq0 & 1 == 1 {
                continue; // never written, or a writer owns it right now
            }
            let request_id = slot.request_id.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq0 {
                continue; // torn by a concurrent rewrite
            }
            let Some(stage) = Stage::from_u64(meta & 0xff) else {
                continue;
            };
            out.push(TraceEvent {
                request_id,
                stage,
                lane: meta >> 8,
                start_ns,
                dur_ns,
            });
        }
        out.sort_by_key(|e| (e.start_ns, e.request_id));
        out
    }
}

/// Renders events as a chrome://tracing / Perfetto "trace event" JSON
/// array of complete (`"ph": "X"`) events. Timestamps and durations are
/// microseconds; the lane becomes the `tid` so each session gets its own
/// timeline row.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"cat\": \"dprov\", \"ph\": \"X\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \
             \"args\": {{\"request_id\": {}}}}}",
            e.stage.name(),
            e.start_ns as f64 / 1_000.0,
            e.dur_ns as f64 / 1_000.0,
            e.lane,
            e.request_id,
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_bounds_retention() {
        let j = TraceJournal::new(4);
        for i in 0..10u64 {
            j.record(i, Stage::Execute, 1, i * 100, Duration::from_nanos(50));
        }
        assert_eq!(j.recorded(), 10);
        let events = j.snapshot();
        assert_eq!(events.len(), 4);
        // Only the newest four survive the wrap.
        let ids: Vec<u64> = events.iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn events_round_trip_all_fields() {
        let j = TraceJournal::new(8);
        j.record(42, Stage::QueueWait, 7, 1_000, Duration::from_nanos(250));
        let events = j.snapshot();
        assert_eq!(
            events,
            vec![TraceEvent {
                request_id: 42,
                stage: Stage::QueueWait,
                lane: 7,
                start_ns: 1_000,
                dur_ns: 250,
            }]
        );
    }

    #[test]
    fn snapshot_orders_by_start_time() {
        let j = TraceJournal::new(8);
        j.record(1, Stage::Reply, 0, 300, Duration::ZERO);
        j.record(2, Stage::Decode, 0, 100, Duration::ZERO);
        j.record(3, Stage::Execute, 0, 200, Duration::ZERO);
        let starts: Vec<u64> = j.snapshot().iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, vec![100, 200, 300]);
    }

    #[test]
    fn concurrent_writers_never_tear_a_snapshot() {
        let j = std::sync::Arc::new(TraceJournal::new(64));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let j = std::sync::Arc::clone(&j);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Writer t always writes request_id == start_ns
                        // == dur so tearing is detectable.
                        let v = t * 1_000_000 + i;
                        j.record(v, Stage::Execute, t, v, Duration::from_nanos(v));
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for e in j.snapshot() {
                assert_eq!(e.request_id, e.start_ns, "torn slot escaped the seqlock");
                assert_eq!(e.request_id, e.dur_ns, "torn slot escaped the seqlock");
                assert_eq!(e.request_id / 1_000_000, e.lane);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let j = TraceJournal::new(4);
        j.record(5, Stage::Decode, 2, 1_500, Duration::from_nanos(500));
        let json = chrome_trace(&j.snapshot());
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\": \"decode\""));
        assert!(json.contains("\"ts\": 1.500"));
        assert!(json.contains("\"dur\": 0.500"));
        assert!(json.contains("\"tid\": 2"));
        assert!(json.contains("\"request_id\": 5"));
        assert!(chrome_trace(&[]).contains("[\n]"));
    }
}
