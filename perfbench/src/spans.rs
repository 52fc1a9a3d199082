//! In-memory span log for traced runs.
//!
//! A span is one timed call into a layer's public functions, recorded from
//! the benchmark's side of the boundary: the layer name, start and end (ns
//! since the log was created), the span that caused it, and the request
//! (frame or command) it belongs to. Spans stay in memory during the run
//! and are written out once at the end, so file IO never lands inside a
//! measured section.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request the span belongs to (frame sequence number or command index).
    pub request: u64,
    /// Layer (or layer operation) name, e.g. `mcos.advance`.
    pub layer: &'static str,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

/// The span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        request: u64,
        layer: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            request,
            layer,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Total duration of `layer`'s spans, in microseconds.
    pub fn total_us(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans as tab-separated lines
    /// (`request layer parent start_ns end_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tlayer\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.request,
                s.layer,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
