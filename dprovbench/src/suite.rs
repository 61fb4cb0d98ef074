//! `--workload all` and `--selfcheck`: every workload in its own child
//! process (so `rss_peak_mb` is per workload), results collected from the
//! children's output and, with `--out`, written to `BENCH_dprovbench.json`.

use std::path::Path;
use std::process::Command;

use crate::stats::{json_number, json_string};
use crate::workloads;
use crate::{Args, Report, END_TO_END};

/// One run's results, as read back from its printed lines.
pub struct Parsed {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
    /// The `# <workload> ...` note lines, without the prefix.
    pub notes: Vec<String>,
}

impl Parsed {
    pub fn from_report(report: &Report, trace: bool) -> Parsed {
        Parsed {
            workload: report.workload.to_owned(),
            trace,
            correct: report.correct,
            metrics: report
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.value, m.unit.to_owned()))
                .collect(),
            notes: report.notes.clone(),
        }
    }

    /// Parses a child's standard output: `# w note`, `w metric value unit`
    /// and the closing JSON line (only its `"correct"` field is read).
    fn from_stdout(workload: &str, trace: bool, stdout: &str, exit_ok: bool) -> Parsed {
        let mut parsed = Parsed {
            workload: workload.to_owned(),
            trace,
            correct: false,
            metrics: Vec::new(),
            notes: Vec::new(),
        };
        let note_prefix = format!("# {workload} ");
        for line in stdout.lines() {
            if let Some(note) = line.strip_prefix(&note_prefix) {
                parsed.notes.push(note.to_owned());
            } else if line.starts_with('{') {
                parsed.correct = exit_ok && line.contains("\"correct\": true");
            } else {
                let fields: Vec<&str> = line.split_whitespace().collect();
                if let [w, name, value, unit] = fields[..] {
                    if let (true, Ok(value)) = (w == workload, value.parse::<f64>()) {
                        parsed
                            .metrics
                            .push((name.to_owned(), value, unit.to_owned()));
                    }
                }
            }
        }
        parsed
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The note that starts with `key `, e.g. `outcome_digest`.
    fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find_map(|n| n.strip_prefix(key)?.strip_prefix(' '))
    }
}

/// Runs one workload in a child process, echoing its lines (all but the
/// closing JSON object) as they are collected.
fn child(args: &Args, workload: &str, trace: bool) -> Parsed {
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    if let Some(out) = &args.out {
        // For the child's trace file; its one-run results file is
        // overwritten by the parent's at the end.
        command.arg("--out").arg(out);
    }
    // `output` waits for the child and collects what it printed.
    let output = command.output().expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    Parsed::from_stdout(workload, trace, &stdout, output.status.success())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Writes `BENCH_dprovbench.json` into `out`.
pub fn write_results(out: &Path, args: &Args, runs: &[Parsed]) {
    let runs_json: Vec<String> = runs
        .iter()
        .map(|run| {
            let metrics: Vec<String> = run
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_string(name),
                        json_number(*value),
                        json_string(unit)
                    )
                })
                .collect();
            let notes: Vec<String> = run.notes.iter().map(|n| json_string(n)).collect();
            format!(
                "    {{\"workload\": {}, \"trace\": {}, \"correct\": {},\n     \"metrics\": {{{}}},\n     \"notes\": [{}]}}",
                json_string(&run.workload),
                u8::from(run.trace),
                run.correct,
                metrics.join(", "),
                notes.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"dprovbench\",\n  \"commit\": {},\n  \"nproc\": {},\n  \"kernel\": {},\n  \
         \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        json_string(&std::env::var("DPROVBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned())),
        std::thread::available_parallelism().map_or(1, usize::from),
        json_string(&kernel()),
        args.seed,
        json_number(args.seconds),
        args.quick,
        runs_json.join(",\n")
    );
    let path = out.join("BENCH_dprovbench.json");
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("dprovbench: could not write {}: {e}", path.display());
    }
}

/// Worsening of `b` against `a` as a share of `a`, in either direction
/// (the two sets are the same code: neither is the reference).
fn spread(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE)
}

/// Every workload twice, in alternating order; fails unless each
/// end-to-end pair agrees within the metric's own bound and the serial
/// replay's counts and digest are identical.
fn selfcheck(args: &Args) -> (Vec<Parsed>, bool) {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.0).collect();
    let mut sets: Vec<Vec<Parsed>> = Vec::new();
    for reverse in [false, true] {
        let mut order = names.clone();
        if reverse {
            order.reverse();
        }
        let mut set = Vec::new();
        for name in order {
            set.push(child(args, name, false));
            set.push(child(args, name, true));
        }
        sets.push(set);
    }
    let mut ok = true;
    let find = |set: &'_ [Parsed], name: &str, trace: bool| -> usize {
        set.iter()
            .position(|p| p.workload == name && p.trace == trace)
            .expect("every workload ran in every set")
    };
    println!("selfcheck workload metric first second spread bound verdict");
    for name in &names {
        let (a, b) = (
            &sets[0][find(&sets[0], name, false)],
            &sets[1][find(&sets[1], name, false)],
        );
        for (metric, _, _, bound) in END_TO_END {
            let verdict = match (a.metric(metric), b.metric(metric)) {
                (Some(x), Some(y)) => {
                    let s = spread(x, y);
                    let within = s <= bound;
                    println!(
                        "selfcheck {name} {metric} {x} {y} {s:.4} {bound} {}",
                        if within { "ok" } else { "OUTSIDE" }
                    );
                    within
                }
                _ => {
                    println!("selfcheck {name} {metric} missing");
                    false
                }
            };
            ok &= verdict;
        }
        let (a, b) = (
            &sets[0][find(&sets[0], name, true)],
            &sets[1][find(&sets[1], name, true)],
        );
        for key in ["serial", "outcome_digest"] {
            let same = a.note(key).is_some() && a.note(key) == b.note(key);
            println!(
                "selfcheck {name} {key} {} {} {}",
                a.note(key).unwrap_or("missing"),
                b.note(key).unwrap_or("missing"),
                if same { "identical" } else { "DIFFERENT" }
            );
            ok &= same;
        }
    }
    let runs: Vec<Parsed> = sets.into_iter().flatten().collect();
    ok &= runs.iter().all(|r| r.correct);
    (runs, ok)
}

/// `--workload all` (each workload once) or `--selfcheck`.
pub fn run(args: &Args) -> bool {
    let (runs, ok) = if args.selfcheck {
        selfcheck(args)
    } else {
        let runs: Vec<Parsed> = workloads::ALL
            .iter()
            .map(|(name, _, _)| child(args, name, args.trace))
            .collect();
        let ok = runs.iter().all(|r| r.correct);
        (runs, ok)
    };
    if let Some(out) = &args.out {
        write_results(out, args, &runs);
    }
    println!(
        "dprovbench {} runs, {}",
        runs.len(),
        if ok {
            "all checks green"
        } else {
            "CHECKS FAILED"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_childs_lines() {
        let stdout = "# explore serial ops 10 hit 8\n# explore outcome_digest abc\n\
                      explore qps 5000.5 1/s\nexplore p50_us 12 us\nother qps 1 1/s\n\
                      {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}\n";
        let parsed = Parsed::from_stdout("explore", false, stdout, true);
        assert!(parsed.correct);
        assert_eq!(parsed.metric("qps"), Some(5000.5));
        assert_eq!(parsed.metric("p50_us"), Some(12.0));
        assert_eq!(parsed.metrics.len(), 2);
        assert_eq!(parsed.note("outcome_digest"), Some("abc"));
        assert_eq!(parsed.note("serial"), Some("ops 10 hit 8"));
        assert!(!Parsed::from_stdout("explore", false, stdout, false).correct);
    }

    #[test]
    fn spread_is_symmetric_and_relative() {
        assert!((spread(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(spread(100.0, 110.0), spread(110.0, 100.0));
        assert_eq!(spread(5.0, 5.0), 0.0);
    }
}
