//! The repository benchmark: three closed-loop workloads against the public
//! APIs of `tvq-engine`, `tvq-server` and `tvq-store`.
//!
//! * [`crowd`] — one dense camera on the embedded engine, in memory;
//! * [`gateway`] — a durable TCP server restarted from a prepared data dir;
//! * [`fleet`] — the sharded multi-feed engine over many cameras.
//!
//! An untraced run reports the end-to-end metrics; a traced run (`--trace
//! 1`) times the calls into each layer from outside and reports the
//! per-layer metrics ([`layers::LayerReport`]). See `README.md` beside
//! this crate for the metric map and how the runs are kept steady.

#![forbid(unsafe_code)]

pub mod crowd;
pub mod fleet;
pub mod gateway;
pub mod layers;
pub mod pipeline;
pub mod report;
pub mod spans;
pub mod timing_io;
pub mod transcript;

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use report::Outcome;

/// Input size. `Full` is what the benchmark measures; `Tiny` runs the same
/// code on inputs small enough for the crate's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A few hundred frames, for tests.
    Tiny,
}

/// The workloads, by their `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense single camera, embedded engine.
    Crowd,
    /// Durable server, restarted per pass.
    Gateway,
    /// Multi-feed engine, two workers.
    Fleet,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "crowd" => Some(Workload::Crowd),
            "gateway" => Some(Workload::Gateway),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Crowd => "crowd",
            Workload::Gateway => "gateway",
            Workload::Fleet => "fleet",
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Negative control for the crate's tests: drop one match from the
    /// reference every check compares against, so every check must fail.
    pub corrupt_reference: bool,
}

impl RunArgs {
    /// The measured loop's deadline, counted from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Runs one workload. Errors are set-up failures (the run could not
/// happen at all); failed operations and wrong outputs are recorded in the
/// [`Outcome`].
pub fn run(args: &RunArgs) -> tvq_common::Result<Outcome> {
    match args.workload {
        Workload::Crowd => crowd::run(args),
        Workload::Gateway => gateway::run(args),
        Workload::Fleet => fleet::run(args),
    }
}

/// The negative control's corruption: while `armed`, drops one match from
/// `matches` and disarms.
pub fn drop_one_match(armed: &mut bool, matches: &mut Vec<tvq_query::QueryMatch>) {
    if *armed && matches.pop().is_some() {
        *armed = false;
    }
}

/// Where runs leave their span logs and scratch data: `out/` beside this
/// crate's manifest, inside the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's span log, noting the file in `outcome`.
pub fn write_spans(args: &RunArgs, spans: &spans::SpanLog, outcome: &mut Outcome) {
    // One file per workload, overwritten by its next traced run, so the
    // logs of many runs do not pile up.
    let path = out_dir().join(format!("spans-{}.tsv", args.workload.name()));
    match spans.write_tsv(&path) {
        Ok(()) => outcome.notes.push(format!(
            "spans={} written to {}",
            spans.len(),
            path.display()
        )),
        Err(err) => outcome
            .notes
            .push(format!("spans={} not written: {err}", spans.len())),
    }
}

/// Loops `pass` until the deadline has passed and at least `min_passes`
/// passes ran. `pass` receives the pass index.
pub fn passes_until(
    deadline: Instant,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> tvq_common::Result<()>,
) -> tvq_common::Result<usize> {
    let mut index = 0;
    while index < min_passes || Instant::now() < deadline {
        pass(index)?;
        index += 1;
    }
    Ok(index)
}

/// `segments` independently generated runs of `profile` back to back, the
/// paper's `po` id reuse applied within each. Segment `i` uses object ids
/// from `i << 20` and the frame ids continue across segments, so a pass
/// averages over several scenes of the same shape.
pub fn segmented_feed(
    profile: &tvq_video::DatasetProfile,
    seed: u64,
    segments: usize,
    po: u32,
) -> Vec<tvq_common::FrameObjects> {
    use tvq_common::{FeedId, FrameId, FrameObjects, ObjectId};
    let mut frames = Vec::new();
    for segment in 0..segments {
        let relation = tvq_video::generate_with_id_reuse(
            profile,
            po,
            tvq_video::feed_seed(seed, FeedId(segment as u32)),
        );
        let id_base = (segment as u32) << 20;
        for frame in relation.frames() {
            let detections = frame
                .classes
                .iter()
                .map(|&(id, class)| (ObjectId(id.0 + id_base), class))
                .collect();
            frames.push(FrameObjects::new(FrameId(frames.len() as u64), detections));
        }
    }
    frames
}

/// SplitMix64: a small seeded generator for the query texts.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
