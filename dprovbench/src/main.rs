//! `dprovbench` — the repo's one end-to-end benchmark.
//!
//! Starts the real stack in-process (durable `QueryService` + the
//! `dprov-net` event-loop listener) and drives it only over TCP through
//! the analyst client, so every end-to-end number is what an analyst
//! sees. See `README.md` beside this package for the command line and
//! `bench/README.md` for what each metric means.

mod driver;
mod stats;
mod suite;
mod surface;
mod timed;
mod trace;
mod workloads;

use std::path::PathBuf;

use stats::Metric;

/// The end-to-end metrics: `(name, unit, higher is better, bound)`.
/// `bound` is the share of the reference value by which the metric may
/// get worse before a change counts as a regression; `BENCHMARK.json`
/// states the same table (a unit test keeps the two in step).
pub const END_TO_END: [(&str, &str, bool, f64); 6] = [
    ("qps", "1/s", true, 0.2),
    ("p50_us", "us", false, 0.2),
    ("p99_us", "us", false, 0.25),
    ("answered_frac", "ratio", true, 0.02),
    ("setup_s", "s", false, 0.25),
    ("rss_peak_mb", "MiB", false, 0.15),
];

/// The per-layer metrics of the traced run, in printed order:
/// `(name, unit, higher is better)`. The prefix names the crate.
pub const PER_LAYER: [(&str, &str, bool); 38] = [
    ("rtt_us", "us", false),
    ("net.rtt_us", "us", false),
    ("net.idle_wake_us", "us", false),
    ("net.ready_events_per_wake", "count", true),
    ("server.dispatch_us", "us", false),
    ("server.queue_wait_p50_us", "us", false),
    ("server.batch_size_mean", "count", true),
    ("api.codec_us", "us", false),
    ("api.bytes_per_op", "B", false),
    ("core.submit_hit_us", "us", false),
    ("core.submit_miss_us", "us", false),
    ("core.submit_refused_us", "us", false),
    ("core.hits", "count", true),
    ("core.misses", "count", false),
    ("core.refusals", "count", false),
    ("core.cache_hit_ratio", "ratio", true),
    ("core.self_us", "us", false),
    ("core.server_execute_us", "us", false),
    ("core.replay_ratio", "ratio", false),
    ("engine.resolve_us", "us", false),
    ("dp.translate_us", "us", false),
    ("dp.translate_calls", "count", false),
    ("dp.calibrate_us", "us", false),
    ("dp.release_us", "us", false),
    ("storage.append_us", "us", false),
    ("storage.bytes_per_commit", "B", false),
    ("storage.snapshot_ms", "ms", false),
    ("storage.wal_appends", "count", false),
    ("cluster.quorum_us", "us", false),
    ("exec.scan_us", "us", false),
    ("exec.materialise_ms", "ms", false),
    ("delta.apply_us", "us", false),
    ("delta.seal_ms", "ms", false),
    ("grouped.cells_per_query", "count", true),
    ("grouped.cells_per_s", "1/s", true),
    ("residual_us", "us", false),
    ("residual_pct", "%", false),
    ("trace_overhead_pct", "%", false),
];

/// The result of one workload run, as printed on the last line.
pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable notes: check results, counts, digests.
    pub notes: Vec<String>,
}

impl Report {
    /// One line per note and metric, then the one-line JSON result.
    fn print(&self) {
        for note in &self.notes {
            println!("# {} {note}", self.workload);
        }
        for m in &self.metrics {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            stats::json_metrics(&self.metrics)
        );
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One round per workload, all checks on.
    pub quick: bool,
    pub selfcheck: bool,
    /// Where `BENCH_dprovbench.json` and `trace_<workload>.json` go;
    /// nothing is written without it.
    pub out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        quick: false,
        selfcheck: false,
        out: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            // `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok(args)
}

/// Scratch space for ledgers, inside the current directory and removed
/// on the way out.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> std::io::Result<WorkDir> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(".dprovbench_work").join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("work directory is writable");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Goes too unless a concurrent run still has its own entry in it.
        let _ = std::fs::remove_dir(".dprovbench_work");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dprovbench: {e}");
            std::process::exit(2);
        }
    };
    if args.selfcheck || args.workload == "all" {
        std::process::exit(i32::from(!suite::run(&args)));
    }
    let Some(workload) = workloads::Workload::new(&args.workload) else {
        eprintln!("dprovbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let work = WorkDir::new().expect("cannot create .dprovbench_work");
    let report = if args.trace {
        trace::run(&workload, &args, &work)
    } else {
        timed::run(&workload, &args, &work)
    };
    drop(work);
    report.print();
    if let Some(out) = &args.out {
        suite::write_results(
            out,
            &args,
            &[suite::Parsed::from_report(&report, args.trace)],
        );
    }
    std::process::exit(i32::from(!report.correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the outside world reads; the tables in
    /// this package are what the code uses. They must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit, higher, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                if higher { "higher" } else { "lower" }
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, higher) in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                if higher { "higher" } else { "lower" }
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _, why) in workloads::ALL {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(why.len() <= 200);
        }
    }
}
