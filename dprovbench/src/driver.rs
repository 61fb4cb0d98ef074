//! The closed-loop load generator. Analysts wait for replies (exploration
//! is adaptive), so callers-that-wait is the honest model: `G = min(nproc,
//! 2)` generator threads, each owning one TCP socket that carries `8 / G`
//! multiplexed analyst sessions. A thread sends one request per session,
//! then collects each reply — 8 requests in flight, no more threads or
//! sockets than cores (a thread per session was tried: twelve threads on
//! two cores made a round's throughput a lottery of thread placement).
//! An operation's latency is its send → reply-collected interval.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

use crate::surface::{self, Class, Lane, Op, ANALYSTS};
use crate::workloads::{Event, Sender};

/// Generator threads and sockets: one per core, at most two.
pub fn sockets() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// What a generator thread does next.
enum Step<'a> {
    /// Send one request on each listed local lane, then collect them all.
    Batch(Vec<(usize, &'a Op)>),
    /// An update batch or a seal on the updater session; it blocks.
    Updater(&'a Op),
}

/// One generator thread's socket and the sessions it carries.
pub struct Connection {
    /// Analysts whose sessions this socket carries, in lane order.
    analysts: Vec<usize>,
    lanes: Vec<Lane>,
    updater: Option<Lane>,
}

pub type Connections = Vec<Connection>;

/// Opens the sockets and registers all eight analyst sessions, spread
/// evenly over them (and the updater's, on socket 0). Part of set-up, not
/// of the timed phase.
pub fn connect(addr: SocketAddr, updater: bool) -> Result<Connections, String> {
    let share = ANALYSTS.div_ceil(sockets());
    (0..sockets())
        .map(|socket| {
            let analysts: Vec<usize> =
                (socket * share..((socket + 1) * share).min(ANALYSTS)).collect();
            let (mut lanes, updater) = surface::connect(addr, &analysts, updater && socket == 0)?;
            for lane in &mut lanes {
                lane.heartbeat()?;
            }
            Ok(Connection {
                analysts,
                lanes,
                updater,
            })
        })
        .collect()
}

#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub sent: usize,
    pub hit: usize,
    pub miss: usize,
    pub acked: usize,
    pub refused: usize,
    pub failed: usize,
}

impl Counts {
    pub fn record(&mut self, class: Class) {
        self.sent += 1;
        match class {
            Class::Hit => self.hit += 1,
            Class::Miss => self.miss += 1,
            Class::Ack => self.acked += 1,
            Class::Refused => self.refused += 1,
            Class::Failed => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: &Counts) {
        self.sent += other.sent;
        self.hit += other.hit;
        self.miss += other.miss;
        self.acked += other.acked;
        self.refused += other.refused;
        self.failed += other.failed;
    }

    /// Operations that got what they asked for.
    pub fn answered(&self) -> usize {
        self.hit + self.miss + self.acked
    }

    /// Every operation has exactly one outcome.
    pub fn add_up(&self) -> bool {
        self.sent == self.answered() + self.refused + self.failed
    }
}

pub struct Outcome {
    pub counts: Counts,
    pub latencies_ns: Vec<u64>,
    /// Wall time from releasing the sessions to the last one finishing.
    pub elapsed_s: f64,
    /// First failure message, if any operation failed.
    pub first_failure: Option<String>,
}

/// Splits a round into per-thread steps: a thread takes the events of its
/// own sessions in arrival order, batching consecutive queries until a
/// session would repeat; thread 0 also takes the updater's events, each of
/// which ends the batch before it.
fn plan<'a>(events: &'a [Event], connections: &[Connection]) -> Vec<Vec<Step<'a>>> {
    connections
        .iter()
        .map(|connection| {
            let mut steps = Vec::new();
            let mut batch: Vec<(usize, &Op)> = Vec::new();
            for event in events {
                match event.sender {
                    Sender::Analyst(analyst) => {
                        let Some(lane) = connection.analysts.iter().position(|a| *a == analyst)
                        else {
                            continue;
                        };
                        if batch.iter().any(|(l, _)| *l == lane) {
                            steps.push(Step::Batch(std::mem::take(&mut batch)));
                        }
                        batch.push((lane, &event.op));
                    }
                    Sender::Updater if connection.updater.is_some() => {
                        if !batch.is_empty() {
                            steps.push(Step::Batch(std::mem::take(&mut batch)));
                        }
                        steps.push(Step::Updater(&event.op));
                    }
                    Sender::Updater => {}
                }
            }
            if !batch.is_empty() {
                steps.push(Step::Batch(batch));
            }
            steps
        })
        .collect()
}

fn drive(connection: &mut Connection, steps: &[Step<'_>]) -> (Counts, Vec<u64>, Option<String>) {
    let mut counts = Counts::default();
    let mut latencies = Vec::new();
    let mut first_failure = None;
    let mut finish = |start: Instant, reply: Result<surface::Reply, String>| {
        latencies.push(start.elapsed().as_nanos() as u64);
        match reply {
            Ok(reply) => counts.record(reply.class()),
            Err(e) => {
                counts.record(Class::Failed);
                first_failure.get_or_insert(e);
            }
        }
    };
    let mut in_flight = Vec::with_capacity(connection.lanes.len());
    for step in steps {
        match step {
            Step::Batch(items) => {
                for (lane, op) in items {
                    let start = Instant::now();
                    in_flight.push((*lane, start, connection.lanes[*lane].send(op)));
                }
                for (lane, start, sent) in in_flight.drain(..) {
                    let reply = sent.and_then(|pending| connection.lanes[lane].wait(pending));
                    finish(start, reply);
                }
            }
            Step::Updater(op) => {
                let updater = connection
                    .updater
                    .as_mut()
                    .expect("plan gives updater steps to its owner");
                let start = Instant::now();
                let reply = updater.send(op).and_then(|pending| updater.wait(pending));
                finish(start, reply);
            }
        }
    }
    (counts, latencies, first_failure)
}

/// Runs `events` through the connections, closed loop, and times it.
pub fn run(events: &[Event], connections: &mut Connections) -> Outcome {
    let plans = plan(events, connections);
    let barrier = Barrier::new(connections.len() + 1);
    let (results, elapsed_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .zip(&plans)
            .map(|(connection, steps)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    drive(connection, steps)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (results, start.elapsed().as_secs_f64())
    });
    let mut outcome = Outcome {
        counts: Counts::default(),
        latencies_ns: Vec::with_capacity(events.len()),
        elapsed_s,
        first_failure: None,
    };
    for (counts, latencies, failure) in results {
        outcome.counts.add(&counts);
        outcome.latencies_ns.extend(latencies);
        if outcome.first_failure.is_none() {
            outcome.first_failure = failure;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_add_up() {
        let mut counts = Counts::default();
        for class in [
            Class::Hit,
            Class::Hit,
            Class::Miss,
            Class::Refused,
            Class::Failed,
        ] {
            counts.record(class);
        }
        assert_eq!(counts.sent, 5);
        assert_eq!(counts.answered(), 3);
        assert!(counts.add_up());
        counts.sent += 1;
        assert!(!counts.add_up());
        counts.record(Class::Ack);
        counts.sent -= 1;
        assert!(counts.add_up());
        let mut total = Counts::default();
        total.add(&counts);
        total.add(&counts);
        assert_eq!(total.sent, 12);
        assert_eq!(total.refused, 2);
    }
}
