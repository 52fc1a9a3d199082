//! `crowd`: one dense traffic camera replayed as fast as the embedded
//! engine accepts it (the paper's offline setting).
//!
//! The scene is the V2 profile raised to about eight objects per frame
//! (the Figure-8 density axis), several independently generated segments
//! back to back so a pass averages over many scenes. SSG with ≥-only
//! pruning (SSG_O) maintains the window. The paper's 300/240 window yields
//! no match on this scene at all, which would leave the query layer idle,
//! so the window is shorter. MCOS maintenance dominates the per-frame cost
//! and its tail; `store`, `multi` and `server` are not involved.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tvq_common::{ClassRegistry, FrameObjects, QueryId, Result, WindowSpec};
use tvq_core::MaintainerKind;
use tvq_engine::{EngineConfig, TemporalVideoQueryEngine};
use tvq_query::CnfQuery;
use tvq_video::DatasetProfile;

use crate::layers::LayerReport;
use crate::pipeline::{LayerCosts, Pipeline};
use crate::report::{median, EndToEnd, Latencies, Outcome};
use crate::spans::SpanLog;
use crate::transcript::Transcript;
use crate::{drop_one_match, passes_until, segmented_feed, write_spans, RunArgs, Scale};

/// Window length and minimum duration (frames).
const WINDOW: (usize, usize) = (40, 20);
/// The ≥-only query workload.
const QUERIES: [&str; 3] = [
    "car >= 5",
    "car >= 3 AND truck >= 1",
    "bus >= 1 AND person >= 1",
];
/// Engine builds per set-up sample: one build takes microseconds, too
/// short to time alone.
const SETUP_BATCH: usize = 256;
/// Set-up samples per pass.
const SETUP_SAMPLES: usize = 4;

/// The generated input of one seed.
pub struct Input {
    /// The frames, in order.
    pub frames: Vec<FrameObjects>,
    /// The registered queries.
    pub queries: Vec<CnfQuery>,
    /// The class registry the queries were parsed against.
    pub registry: ClassRegistry,
}

/// Engine configuration of the workload.
pub fn config(kind: MaintainerKind) -> EngineConfig {
    EngineConfig::new(WindowSpec::new(WINDOW.0, WINDOW.1).expect("valid window"))
        .with_maintainer(kind)
}

/// Generates the frames and queries of `seed`.
pub fn input(seed: u64, scale: Scale) -> Result<Input> {
    let (segments, frames_per_segment) = match scale {
        Scale::Full => (16, 1700),
        Scale::Tiny => (2, 400),
    };
    let profile = DatasetProfile::v2()
        .with_objects_per_frame(8.0)
        .truncated(frames_per_segment);
    let frames = segmented_feed(&profile, seed, segments, 0);
    let mut registry = ClassRegistry::with_default_classes();
    let queries = QUERIES
        .iter()
        .enumerate()
        .map(|(i, text)| tvq_query::parse_query(text, QueryId(i as u32), &mut registry))
        .collect::<Result<Vec<_>>>()?;
    Ok(Input {
        frames,
        queries,
        registry,
    })
}

/// Builds the embedded engine of the workload.
pub fn build_engine(input: &Input, kind: MaintainerKind) -> Result<TemporalVideoQueryEngine> {
    input
        .queries
        .iter()
        .cloned()
        .fold(
            TemporalVideoQueryEngine::builder(config(kind)).with_registry(input.registry.clone()),
            |builder, query| builder.with_query(query),
        )
        .build()
}

/// Runs every frame through a fresh engine of `kind`, returning the
/// transcript (untimed; used as the reference). With `corrupt`, one match
/// is dropped from it (the negative control).
pub fn engine_transcript(input: &Input, kind: MaintainerKind, corrupt: bool) -> Result<Transcript> {
    let mut engine = build_engine(input, kind)?;
    let mut transcript = Transcript::default();
    let mut armed = corrupt;
    for frame in &input.frames {
        let mut result = engine.observe(frame)?;
        drop_one_match(&mut armed, &mut result.matches);
        transcript.frame(0, result.frame.0, &result.matches);
    }
    Ok(transcript)
}

/// One traced pass through the rebuilt pipeline.
pub struct TracedPass {
    /// The pipeline after the pass (its counters cover exactly the pass).
    pub pipeline: Pipeline,
    /// Its transcript.
    pub transcript: Transcript,
    /// Wall time per frame around each `observe`, summed.
    pub elapsed: Duration,
}

/// Replays the input through the rebuilt pipeline, recording spans.
pub fn traced_pass(input: &Input, spans: &mut SpanLog, request_base: u64) -> Result<TracedPass> {
    let mut pipeline = Pipeline::new(
        &config(MaintainerKind::Ssg),
        MaintainerKind::Ssg,
        input.registry.clone(),
        input.queries.clone(),
    )?;
    let mut transcript = Transcript::default();
    let mut elapsed = Duration::ZERO;
    for (i, frame) in input.frames.iter().enumerate() {
        let t0 = Instant::now();
        let matches = pipeline.observe(frame, request_base + i as u64, spans)?;
        elapsed += t0.elapsed();
        transcript.frame(0, frame.fid.0, &matches);
    }
    Ok(TracedPass {
        pipeline,
        transcript,
        elapsed,
    })
}

/// One pass of the real engine: set-up samples, then every frame timed.
fn engine_pass(input: &Input, e2e: &mut EndToEnd, outcome: &mut Outcome) -> Result<Transcript> {
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            black_box(build_engine(black_box(input), MaintainerKind::Ssg)?);
        }
        e2e.setup_s
            .push(t0.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    let mut engine = build_engine(input, MaintainerKind::Ssg)?;
    let mut transcript = Transcript::default();
    let mut busy = Duration::ZERO;
    let mut latencies = Latencies::default();
    for frame in &input.frames {
        outcome.attempted += 1;
        let t0 = Instant::now();
        let result = engine.observe(black_box(frame));
        let elapsed = t0.elapsed();
        busy += elapsed;
        match result {
            Ok(result) => {
                latencies.record(elapsed);
                transcript.frame(0, result.frame.0, &result.matches);
            }
            Err(_) => {
                outcome.failed += 1;
                latencies.record_failure();
            }
        }
    }
    e2e.pass(input.frames.len(), busy, &latencies);
    Ok(transcript)
}

/// The MFS_O transcript every pass is checked against.
fn reference(input: &Input, args: &RunArgs, outcome: &mut Outcome) -> Result<Transcript> {
    let reference = engine_transcript(input, MaintainerKind::Mfs, args.corrupt_reference)?;
    outcome.notes.push(format!(
        "crowd: {} frames/pass, {} matches/pass, window {}/{}",
        input.frames.len(),
        reference.matches,
        WINDOW.0,
        WINDOW.1
    ));
    if reference.matches == 0 {
        outcome.problem("the crowd scene produced no match; the query layer would idle");
    }
    Ok(reference)
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome> {
    let input = input(args.seed, args.scale)?;
    let mut outcome = Outcome::default();
    let deadline = args.deadline();
    let frames = input.frames.len();

    if !args.trace {
        let mut e2e = EndToEnd::default();
        let mut transcripts = Vec::new();
        passes_until(deadline, 3, |_| {
            transcripts.push(engine_pass(&input, &mut e2e, &mut outcome)?);
            Ok(())
        })?;
        e2e.capture_rss();
        let reference = reference(&input, args, &mut outcome)?;
        for transcript in &transcripts {
            outcome.expect_eq("SSG_O engine vs MFS_O engine", &reference, transcript);
        }
        e2e.finish(&mut outcome, args.scale);
        return Ok(outcome);
    }

    let reference = reference(&input, args, &mut outcome)?;
    // Traced run: untraced and traced passes alternate, so both see the
    // same machine conditions; the gap between them is the tracing cost.
    let mut e2e = EndToEnd::default();
    let mut traced_rates = Vec::new();
    let mut spans = SpanLog::default();
    let mut last = None;
    let mut requests = 0u64;
    passes_until(deadline, 2, |_| {
        let transcript = engine_pass(&input, &mut e2e, &mut outcome)?;
        outcome.expect_eq("SSG_O engine vs MFS_O engine", &reference, &transcript);
        let traced = traced_pass(&input, &mut spans, requests)?;
        requests += frames as u64;
        outcome.expect_eq(
            "traced pipeline vs MFS_O engine",
            &reference,
            &traced.transcript,
        );
        traced_rates.push(frames as f64 / traced.elapsed.as_secs_f64().max(1e-9));
        last = Some(traced);
        Ok(())
    })?;
    let last = last.expect("at least two passes ran");
    let mut layers = LayerReport::default();
    let costs = LayerCosts::from_spans(&spans, requests);
    // Counters come from one pass (each pass starts from a fresh pipeline,
    // so they repeat exactly); times average over every traced pass.
    let per_pass = LayerCosts {
        frames: frames as u64,
        ..costs
    };
    layers.engine_layers(&per_pass, &[&last.pipeline], last.transcript.matches);
    layers.trace_overhead_share = 1.0 - median(&traced_rates) / median(&e2e.pass_rates);
    layers.finish(&mut outcome);
    write_spans(args, &spans, &mut outcome);
    Ok(outcome)
}
