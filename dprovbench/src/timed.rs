//! The end-to-end run (tracing off): rounds of fixed work against a fresh
//! system each, so budgets never carry over and a round's mix does not
//! depend on how fast the program is. Rounds repeat until the timed
//! phases add up to `--seconds`.
//!
//! Rounds are short (under a second) and many, and every timing is
//! reported as the median over rounds: a round disturbed by the machine
//! moves no number, and the draw of one seed weighs little.

use std::path::Path;
use std::time::Instant;

use crate::driver::{self, Counts};
use crate::stats::{self, metric};
use crate::surface::{self, Stack};
use crate::workloads::Workload;
use crate::{Args, Report, WorkDir};

/// At least this many rounds, so `setup_s` is a median of several set-ups.
const MIN_ROUNDS: usize = 3;
/// At most this many: bounds the set-up work of a run when the program
/// gets much faster than it was when the rounds were sized.
const MAX_ROUNDS: usize = 60;

/// One round: set up (untimed), drive (timed), check.
struct Round {
    setup_s: f64,
    timed_s: f64,
    counts: Counts,
    latencies_ns: Vec<u64>,
    problems: Vec<String>,
}

/// Runs one round and hands back the still-running stack, so the caller
/// can decide whether this was the last round and, if so, put the store
/// through a restart before shutting down.
fn run_round(workload: &Workload, seed: u64, dir: &Path) -> (Round, Stack) {
    let events = workload.round(seed);
    let warm_up = workload.warm_up();
    let mut problems = Vec::new();

    let setup_start = Instant::now();
    let stack = Stack::start(&workload.data, &workload.spec, dir).expect("stack starts");
    let mut connections =
        driver::connect(stack.addr(), workload.has_updater()).expect("sessions register");
    if !warm_up.is_empty() {
        let warmed = driver::run(&warm_up, &mut connections);
        if warmed.counts.answered() != warmed.counts.sent {
            problems.push(format!("warm-up not fully answered: {:?}", warmed.counts));
        }
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let outcome = driver::run(&events, &mut connections);
    drop(connections);

    let c = outcome.counts;
    if c.sent != events.len() || !c.add_up() {
        problems.push(format!("counts do not add up: {c:?} of {}", events.len()));
    }
    if let Some(failure) = outcome.first_failure {
        problems.push(format!("{} operations failed, first: {failure}", c.failed));
    }
    problems.extend(stack.constraint_violations());

    let round = Round {
        setup_s,
        timed_s: outcome.elapsed_s,
        counts: c,
        latencies_ns: outcome.latencies_ns,
        problems,
    };
    (round, stack)
}

/// A restart must recover the provenance matrix bit for bit.
pub fn check_recovery(workload: &Workload, stack: Stack, dir: &Path) -> Option<String> {
    let live = stack.provenance_bits();
    stack.shutdown();
    match surface::recovered_provenance_bits(&workload.data, &workload.spec, dir) {
        Ok(recovered) if recovered == live => None,
        Ok(_) => Some("recovered provenance differs from live".to_owned()),
        Err(e) => Some(format!("recovery failed: {e}")),
    }
}

pub fn run(workload: &Workload, args: &Args, work: &WorkDir) -> Report {
    let mut rounds: Vec<Round> = Vec::new();
    let mut timed_total = 0.0;
    loop {
        let done = rounds.len();
        let dir = work.sub("ledger");
        let (mut round, stack) = run_round(workload, args.seed.wrapping_add(done as u64), &dir);
        timed_total += round.timed_s;
        // Stop when one more round would overshoot `--seconds` by more
        // than the run undershoots it now.
        let last = args.quick
            || done + 1 >= MAX_ROUNDS
            || (done + 1 >= MIN_ROUNDS && timed_total + round.timed_s / 2.0 >= args.seconds);
        if last && workload.is_durable() {
            round.problems.extend(check_recovery(workload, stack, &dir));
        } else {
            stack.shutdown();
        }
        rounds.push(round);
        if last {
            break;
        }
    }

    let mut counts = Counts::default();
    let mut notes = Vec::new();
    let mut correct = true;
    let (mut qps, mut p50_us, mut p99_us) = (Vec::new(), Vec::new(), Vec::new());
    for (r, round) in rounds.iter_mut().enumerate() {
        counts.add(&round.counts);
        round.latencies_ns.sort_unstable();
        qps.push(round.counts.sent as f64 / round.timed_s);
        p50_us.push(stats::percentile(&round.latencies_ns, 50.0) as f64 / 1e3);
        p99_us.push(stats::percentile(&round.latencies_ns, 99.0) as f64 / 1e3);
        for problem in &round.problems {
            correct = false;
            notes.push(format!("FAILED round {r}: {problem}"));
        }
    }
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let per_round = counts.sent / rounds.len();
    notes.push(format!(
        "rounds {} timed_s {:.3}{} sockets {} samples_per_round {} beyond_p99_per_round {}",
        rounds.len(),
        timed_total,
        if timed_total < args.seconds / 2.0 && !args.quick {
            " undersized"
        } else {
            ""
        },
        driver::sockets(),
        per_round,
        per_round / 100,
    ));
    notes.push(format!(
        "sent {} hit {} miss {} acked {} refused {} failed {}",
        counts.sent, counts.hit, counts.miss, counts.acked, counts.refused, counts.failed
    ));
    notes.push(format!("checks {}", if correct { "green" } else { "RED" }));

    Report {
        workload: workload.name,
        correct: correct && counts.failed == 0,
        attempted: counts.sent,
        failed: counts.failed,
        metrics: vec![
            metric("qps", stats::median(&qps), "1/s"),
            metric("p50_us", stats::median(&p50_us), "us"),
            metric("p99_us", stats::median(&p99_us), "us"),
            metric(
                "answered_frac",
                counts.answered() as f64 / counts.sent as f64,
                "ratio",
            ),
            metric("setup_s", stats::median(&setups), "s"),
            metric("rss_peak_mb", stats::rss_peak_mb(), "MiB"),
        ],
        notes,
    }
}
