//! The six workloads: which system each runs against and which
//! operations one round sends. A round's operations are a pure function
//! of the round's seed; the program under test receives nothing else.

use crate::surface::{self, Dataset, Ledger, Op, SystemSpec, ANALYSTS};

/// Who sends an operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sender {
    Analyst(usize),
    Updater,
}

/// One operation of a round, in arrival order.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    pub sender: Sender,
    pub op: Op,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Explore,
    CacheHit,
    CommitWal,
    CommitQuorum,
    EpochStream,
    Grouped,
}

/// `(name, kind, why)` — the names later issues refer to.
pub const ALL: [(&str, Kind, &str); 6] = [
    (
        "explore",
        Kind::Explore,
        "multi-analyst exploration: mostly cache hits, the rest pay the accuracy-to-epsilon translation and are answered or refused",
    ),
    (
        "cache-hit",
        Kind::CacheHit,
        "every query is answered from a warmed synopsis: wire, queue and cache lookup only, no translation and no commit",
    ),
    (
        "commit-wal",
        Kind::CommitWal,
        "every query commits a fresh charge to the write-ahead ledger and releases noise: the durable write path with compactions",
    ),
    (
        "commit-quorum",
        Kind::CommitQuorum,
        "the commit-wal stream with the ledger replaced by the 3-replica quorum gate: the price of consensus",
    ),
    (
        "epoch-stream",
        Kind::EpochStream,
        "queries interleaved with update batches and epoch seals: cache invalidation and incremental maintenance beside reads",
    ),
    (
        "grouped",
        Kind::Grouped,
        "GROUP BY queries over the folded star schema: the resolve-once, admit-per-cell grouped path",
    ),
];

const ADULT_ROWS: usize = 100_000;
const STAR_FACT_ROWS: usize = 50_000;
/// Variance range of `explore`'s accuracy requests.
const EXPLORE_VARIANCE: (f64, f64) = (5_000.0, 50_000.0);
/// `cache-hit` asks for looser answers than its warm-up bought. The
/// warm-up buys the lower end on full-domain queries, which the least
/// privileged analyst can still afford on every view.
const CACHE_HIT_VARIANCE: (f64, f64) = (200_000.0, 2_000_000.0);

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub data: Dataset,
    pub spec: SystemSpec,
}

impl Workload {
    /// Generates the workload's dataset; `None` for an unknown name.
    pub fn new(name: &str) -> Option<Workload> {
        let (name, kind, _) = ALL.iter().find(|(n, _, _)| *n == name)?;
        let data = match kind {
            Kind::Grouped => surface::star_dataset(STAR_FACT_ROWS),
            _ => surface::adult_dataset(ADULT_ROWS),
        };
        let spec = SystemSpec {
            psi: match kind {
                Kind::Explore | Kind::CacheHit => 25.6,
                // Roomy: the commit path is measured, not refusals.
                Kind::CommitWal | Kind::CommitQuorum => 1e6,
                Kind::EpochStream | Kind::Grouped => 25.6,
            },
            ledger: match kind {
                Kind::CommitQuorum => Ledger::Quorum,
                // Small enough that several compactions fall inside
                // every timed round of the commit path.
                Kind::CommitWal => Ledger::Wal {
                    snapshot_every: 2_048,
                },
                _ => Ledger::Wal {
                    snapshot_every: 4_096,
                },
            },
            extra_views: match kind {
                Kind::Grouped => surface::grouped_views(&data),
                _ => Vec::new(),
            },
        };
        Some(Workload {
            name,
            kind: *kind,
            data,
            spec,
        })
    }

    pub fn has_updater(&self) -> bool {
        self.kind == Kind::EpochStream
    }

    pub fn is_durable(&self) -> bool {
        matches!(self.spec.ledger, Ledger::Wal { .. })
    }

    /// Operations per analyst in one round, sized so a round's timed
    /// phase is between half a second and a second on the 2-thread box
    /// this was written on.
    fn per_analyst(&self) -> usize {
        match self.kind {
            Kind::Explore => 400,
            Kind::CacheHit => 5_000,
            Kind::CommitWal => 750,
            Kind::CommitQuorum => 120,
            Kind::EpochStream => 50,
            Kind::Grouped => 50,
        }
    }

    /// Operations per analyst replayed by the traced run: longer than a
    /// timed round, so the serial replay sees every outcome class often.
    fn per_analyst_traced(&self) -> usize {
        match self.kind {
            Kind::Explore => 1_000,
            Kind::CacheHit => 2_000,
            Kind::CommitWal => 1_000,
            Kind::CommitQuorum => 120,
            Kind::EpochStream => 160,
            Kind::Grouped => 200,
        }
    }

    /// Untimed operations sent before the timed phase of every round.
    pub fn warm_up(&self) -> Vec<Event> {
        match self.kind {
            Kind::CacheHit => interleave(surface::warm_ops(&self.data, CACHE_HIT_VARIANCE.0)),
            _ => Vec::new(),
        }
    }

    /// One round's operations, in arrival order.
    pub fn round(&self, seed: u64) -> Vec<Event> {
        self.events(seed, self.per_analyst())
    }

    /// The (shorter) serial list the traced run replays.
    pub fn traced_round(&self, seed: u64) -> Vec<Event> {
        self.events(seed, self.per_analyst_traced())
    }

    fn events(&self, seed: u64, per_analyst: usize) -> Vec<Event> {
        match self.kind {
            Kind::Explore => interleave(surface::explore_ops(
                &self.data,
                seed,
                per_analyst,
                EXPLORE_VARIANCE,
            )),
            Kind::CacheHit => interleave(surface::explore_ops(
                &self.data,
                seed,
                per_analyst,
                CACHE_HIT_VARIANCE,
            )),
            Kind::CommitWal | Kind::CommitQuorum => {
                interleave(surface::commit_ops(&self.data, seed, per_analyst))
            }
            Kind::Grouped => interleave(surface::grouped_ops(&self.data, seed, per_analyst)),
            Kind::EpochStream => surface::stream_ops(&self.data, seed, per_analyst)
                .into_iter()
                .map(|(analyst, op)| Event {
                    sender: analyst.map_or(Sender::Updater, Sender::Analyst),
                    op,
                })
                .collect(),
        }
    }
}

/// Round-robin over the analysts' lists: analyst 0's first operation,
/// analyst 1's first, ..., then the seconds.
fn interleave(per_analyst: Vec<Vec<Op>>) -> Vec<Event> {
    assert_eq!(per_analyst.len(), ANALYSTS);
    let longest = per_analyst.iter().map(Vec::len).max().unwrap_or(0);
    let mut lists: Vec<_> = per_analyst.into_iter().map(Vec::into_iter).collect();
    let mut events = Vec::with_capacity(longest * ANALYSTS);
    for _ in 0..longest {
        for (analyst, list) in lists.iter_mut().enumerate() {
            if let Some(op) = list.next() {
                events.push(Event {
                    sender: Sender::Analyst(analyst),
                    op,
                });
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{Class, Replay};
    use crate::WorkDir;

    #[test]
    fn same_seed_same_operations_other_seed_other_operations() {
        for (name, _, _) in ALL {
            let workload = Workload::new(name).unwrap();
            let round = workload.round(7);
            assert!(!round.is_empty());
            assert_eq!(round, workload.round(7), "{name}: same seed");
            assert_ne!(round, workload.round(8), "{name}: other seed");
            // The traced replay starts out as the timed round does.
            assert_eq!(workload.traced_round(7)[0], round[0], "{name}");
        }
        assert!(Workload::new("no-such-workload").is_none());
    }

    #[test]
    fn every_operation_has_a_sender_the_driver_knows() {
        let stream = Workload::new("epoch-stream").unwrap();
        assert!(stream.has_updater());
        let round = stream.round(3);
        assert!(round.iter().any(|e| e.sender == Sender::Updater));
        assert!(round.iter().all(|e| match e.sender {
            Sender::Analyst(a) => a < ANALYSTS,
            Sender::Updater => matches!(e.op, Op::Update(_) | Op::Seal),
        }));
        let explore = Workload::new("explore").unwrap();
        assert!(!explore.has_updater());
        for (i, event) in explore.round(3).iter().enumerate() {
            assert_eq!(event.sender, Sender::Analyst(i % ANALYSTS));
        }
    }

    /// Serially replays the traced round in-process and counts classes.
    fn mix(name: &str) -> (usize, usize, usize, usize) {
        let workload = Workload::new(name).unwrap();
        let work = WorkDir::new().unwrap();
        let replay = Replay::new(&workload.data, &workload.spec, &work.sub("ledger")).unwrap();
        let analyst = |sender| match sender {
            Sender::Analyst(a) => a,
            Sender::Updater => 0,
        };
        for event in workload.warm_up() {
            replay.submit(analyst(event.sender), &event.op).unwrap();
        }
        let (mut hit, mut miss, mut refused, mut total) = (0, 0, 0, 0);
        for event in workload.traced_round(1) {
            total += 1;
            match replay
                .submit(analyst(event.sender), &event.op)
                .unwrap()
                .class()
            {
                Class::Hit => hit += 1,
                Class::Miss => miss += 1,
                Class::Refused => refused += 1,
                Class::Ack | Class::Failed => {}
            }
        }
        (hit, miss, refused, total)
    }

    /// The workloads keep the mixes their names promise. `explore` must
    /// keep its translation-paying share between 10 % and 35 %, so that
    /// its p50 is a cache hit and its p99 a translation.
    #[test]
    fn mix_guards() {
        let (hit, miss, refused, total) = mix("explore");
        let paying = (miss + refused) as f64 / total as f64;
        assert!((0.10..=0.35).contains(&paying), "explore pays on {paying}");
        assert!(hit > total / 2);

        let (hit, _, _, total) = mix("cache-hit");
        assert_eq!(hit, total, "cache-hit must hit every time");

        for name in ["commit-wal", "commit-quorum"] {
            let (hit, miss, refused, total) = mix(name);
            assert_eq!((hit, refused), (0, 0), "{name} never hits, never refuses");
            assert_eq!(miss, total, "{name} commits every time");
        }
    }
}
