//! Metric records, summary statistics and the result line.

use std::fmt::Write as _;
use std::time::Duration;

use crate::Scale;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `us`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric record.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness failures; empty when every check passed.
    pub problems: Vec<String>,
    /// Operations attempted in the measured passes.
    pub attempted: u64,
    /// Operations that returned `Err` or `ERR`.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line (sample
    /// counts, pass counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a failed check.
    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Records `problem` unless `a == b`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        if a != b {
            self.problem(format!("{what}: {a:?} != {b:?}"));
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// The metric called `name`, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Formats a value as a JSON number with all its digits. Non-finite values
/// (a percentile that lands on a failed operation) print as the largest
/// finite double, so the line stays valid JSON and reads as "missed".
fn json_number(value: f64) -> String {
    let value = if value.is_finite() { value } else { f64::MAX };
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Median of the values (mean of the middle pair for even counts); `0.0`
/// for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Per-operation latencies of a run, with failed operations counted as
/// infinitely slow: a failure misses every latency percentile.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    micros: Vec<f64>,
    failed: u64,
}

impl Latencies {
    /// Records a completed operation.
    pub fn record(&mut self, elapsed: Duration) {
        self.micros.push(elapsed.as_secs_f64() * 1e6);
    }

    /// Records a failed operation.
    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// Appends another set of samples.
    pub fn extend(&mut self, other: &Latencies) {
        self.micros.extend_from_slice(&other.micros);
        self.failed += other.failed;
    }

    /// Samples recorded, failures included.
    pub fn samples(&self) -> usize {
        self.micros.len() + self.failed as usize
    }

    /// Nearest-rank percentile `q` in `(0, 1]` and how many samples lie
    /// strictly above it.
    pub fn percentile(&self, q: f64) -> (f64, usize) {
        let n = self.samples();
        if n == 0 {
            return (0.0, 0);
        }
        let mut sorted = self.micros.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let value = sorted[rank - 1];
        let above = sorted.iter().filter(|&&v| v > value).count();
        (value, above)
    }

    /// Mean of the completed operations, in microseconds.
    pub fn mean(&self) -> f64 {
        if self.micros.is_empty() {
            0.0
        } else {
            self.micros.iter().sum::<f64>() / self.micros.len() as f64
        }
    }
}

/// Everything the untraced run measures, turned into the end-to-end
/// metrics by [`EndToEnd::finish`]. Every timing is taken per pass and the
/// median across passes is reported, so a slow stretch of the host that
/// covers a minority of passes does not move the figure.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Results per second of each measured pass.
    pub pass_rates: Vec<f64>,
    /// Median latency of each pass, µs.
    pass_p50: Vec<f64>,
    /// 99th-percentile latency of each pass, µs.
    pass_p99: Vec<f64>,
    /// Latency samples over all passes, and the fewest any pass left
    /// above its p99.
    samples: usize,
    min_above_p99: Option<usize>,
    /// Set-up samples in seconds (each already a mean over a batch when
    /// one set-up is too short to time alone).
    pub setup_s: Vec<f64>,
    /// Peak RSS at the end of the measured loop, before reference runs.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// Records a pass of `results` results that took `elapsed`, with the
    /// latency of each result.
    pub fn pass(&mut self, results: usize, elapsed: Duration, latencies: &Latencies) {
        self.pass_rates
            .push(results as f64 / elapsed.as_secs_f64().max(1e-9));
        let (p50, _) = latencies.percentile(0.50);
        let (p99, above) = latencies.percentile(0.99);
        self.pass_p50.push(p50);
        self.pass_p99.push(p99);
        self.samples += latencies.samples();
        self.min_above_p99 = Some(self.min_above_p99.map_or(above, |m| m.min(above)));
    }

    /// Records the process's peak RSS so far; call when the measured loop
    /// ends, before any reference computation allocates.
    pub fn capture_rss(&mut self) {
        self.peak_rss_mib = peak_rss_mib();
    }

    /// Appends the six end-to-end metrics and their sample counts to
    /// `outcome`. At full scale every pass must leave at least ten latency
    /// samples above its p99, or the percentile is not supported.
    pub fn finish(&self, outcome: &mut Outcome, scale: Scale) {
        let above = self.min_above_p99.unwrap_or(0);
        outcome.push("frames_per_s", median(&self.pass_rates), "1/s");
        outcome.push("frame_p50_us", median(&self.pass_p50), "us");
        outcome.push("frame_p99_us", median(&self.pass_p99), "us");
        outcome.push("setup_s", median(&self.setup_s), "s");
        outcome.push("peak_rss_mib", self.peak_rss_mib, "MiB");
        let ok = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.push("ok_op_share", ok, "ratio");
        outcome.notes.push(format!(
            "passes={} latency_samples={} min_above_p99_per_pass={above} setup_samples={} attempted={} failed={}",
            self.pass_rates.len(),
            self.samples,
            self.setup_s.len(),
            outcome.attempted,
            outcome.failed
        ));
        let rates: Vec<String> = self.pass_rates.iter().map(|r| format!("{r:.0}")).collect();
        outcome
            .notes
            .push(format!("pass rates (1/s): {}", rates.join(" ")));
        if above < 10 && scale == Scale::Full {
            outcome.problem(format!(
                "a pass left only {above} latency samples above its p99 (need >= 10)"
            ));
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB; `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_count_failures_as_misses() {
        let mut l = Latencies::default();
        for us in 1..=100u64 {
            l.record(Duration::from_micros(us));
        }
        assert_eq!(l.percentile(0.5).0, 50.0);
        assert_eq!(l.percentile(0.99), (99.0, 1));
        for _ in 0..2 {
            l.record_failure();
        }
        let (p99, above) = l.percentile(0.99);
        assert!(p99.is_infinite() && above == 0);
    }

    #[test]
    fn json_line_keeps_digits_and_stays_valid() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("a", 1.25, "us");
        o.push("b", 2.0, "s");
        o.push("c", f64::INFINITY, "us");
        let line = o.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"a\": {\"value\": 1.25, \"unit\": \"us\"}"));
        assert!(line.contains("\"b\": {\"value\": 2.0, \"unit\": \"s\"}"));
        assert!(!line.contains("inf"));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
