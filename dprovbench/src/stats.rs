//! The benchmark's own small measuring kit: exact percentiles, a stable
//! digest, a JSON writer and in-memory spans. Kept inside the benchmark so
//! that no file outside it can change what is measured.

use std::fmt::Write as _;
use std::time::Instant;

/// Exact nearest-rank percentile (`p` in 0..=100) of an ascending slice:
/// the smallest sample with at least `p` % of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered samples (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a over 64-bit words: the outcome digest. Order-sensitive, stable
/// across runs, platforms and `HashMap` seeds.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported number.
#[derive(Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON with every digit it was measured to.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

// ----- spans -----------------------------------------------------------------

pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval: a call into a layer, or the round trip around it.
pub struct Span {
    pub name: &'static str,
    /// Index of the operation this span belongs to.
    pub op: u32,
    /// Index of the enclosing span in the recorder, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends. When disabled, `time` still
/// runs and times the call but records nothing, which is how the traced
/// run measures its own overhead.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Times `f` as a child span of `parent` and returns its result with
    /// the elapsed nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, op, parent);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_nanos() as u64;
        self.close(id);
        (out, elapsed)
    }

    /// Chrome `chrome://tracing` JSON of the spans of the first
    /// `max_ops` operations (`tid` separates the two passes).
    pub fn chrome_trace(passes: &[(&str, &Spans)], max_ops: u32) -> String {
        let mut events = Vec::new();
        for (tid, (pass, recorder)) in passes.iter().enumerate() {
            for span in recorder.spans.iter().filter(|s| s.op < max_ops) {
                events.push(format!(
                    "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                     \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"op\": {}, \"parent\": {}}}}}",
                    json_string(span.name),
                    json_string(pass),
                    tid + 1,
                    span.start_ns as f64 / 1e3,
                    (span.end_ns - span.start_ns) as f64 / 1e3,
                    span.op,
                    if span.parent == NO_PARENT {
                        -1
                    } else {
                        i64::from(span.parent)
                    },
                ));
            }
        }
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        // Nearest rank never interpolates: with 4 samples p50 is the 2nd.
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 51.0), 30);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::new();
        a.push(1);
        a.push(2);
        let mut b = Digest::new();
        b.push(1);
        b.push(2);
        let mut c = Digest::new();
        c.push(2);
        c.push(1);
        assert_eq!(a.hex(), b.hex());
        assert_ne!(a.hex(), c.hex());
        // Pinned: the digest must not drift between builds.
        assert_eq!(a.hex(), "7717980363c8e066");
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
    }

    #[test]
    fn json_escapes_and_keeps_digits() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(f64::NAN), "0");
        let m = [metric("qps", 5000.5, "1/s")];
        assert_eq!(
            json_metrics(&m),
            "{\"qps\": {\"value\": 5000.5, \"unit\": \"1/s\"}}"
        );
    }

    #[test]
    fn disabled_spans_record_nothing_but_still_time() {
        let mut spans = Spans::new(false);
        let (out, ns) = spans.time("x", 0, NO_PARENT, || 41 + 1);
        assert_eq!(out, 42);
        assert!(ns < 1_000_000_000);
        assert!(spans.spans.is_empty());
        let mut spans = Spans::new(true);
        let root = spans.open("root", 3, NO_PARENT);
        spans.time("child", 3, root, || ());
        spans.close(root);
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[1].parent, root);
        assert!(spans.spans[0].end_ns >= spans.spans[1].end_ns);
        assert!(Spans::chrome_trace(&[("a", &spans)], 10).contains("\"child\""));
        assert!(!Spans::chrome_trace(&[("a", &spans)], 3).contains("\"child\""));
    }
}
