//! `fleet`: the sharded `MultiFeedEngine` with two workers, in memory, fed
//! round-robin batches from many cameras of mixed Table-6 profiles.
//!
//! Two heavy pedestrian cameras sit on even feed ids, so the static
//! `feed mod 2` sharding piles them onto one worker and the scheduler has
//! to migrate feeds. The multi-feed layer (dispatch, per-worker shares,
//! rebalancing) sets throughput; a per-frame engine gain shows here diluted
//! by the schedule. `store` and `server` are idle.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tvq_common::{Result, WindowSpec};
use tvq_core::MaintainerKind;
use tvq_engine::{
    EngineConfig, FeedFrame, FeedFrameResult, MultiFeedConfig, MultiFeedEngine, SchedulingStats,
};
use tvq_video::{generate_feeds, interleave, DatasetProfile};

use crate::layers::LayerReport;
use crate::pipeline::{LayerCosts, Pipeline};
use crate::report::{median, EndToEnd, Latencies, Outcome};
use crate::spans::SpanLog;
use crate::transcript::Transcript;
use crate::{drop_one_match, passes_until, write_spans, RunArgs, Scale};

/// Window length and minimum duration (frames).
const WINDOW: (usize, usize) = (20, 10);
/// The ≥-only query workload.
const QUERIES: [&str; 3] = [
    "person >= 3",
    "truck >= 1 AND bus >= 1",
    "(bus >= 2 OR truck >= 2)",
];
/// Worker threads.
const WORKERS: usize = 2;
/// Tagged frames per `push_batch`.
const BATCH: usize = 288;
/// Engine builds per set-up sample (one build takes well under a
/// millisecond).
const SETUP_BATCH: usize = 16;
/// Set-up samples per pass.
const SETUP_SAMPLES: usize = 4;

/// The generated input of one seed.
pub struct Input {
    /// `push_batch` batches, in order.
    pub batches: Vec<Vec<FeedFrame>>,
    /// Number of cameras.
    pub feeds: usize,
    /// Tagged frames across all batches.
    pub frames: usize,
}

/// Camera profiles: eight traffic cameras, light under the catalog (it
/// asks for people, rare in traffic, and the rare truck and bus classes),
/// and two pedestrian cameras (M1) on feeds 0 and 2 that cost tens of
/// times more per frame, so static `feed mod 2` sharding is skewed.
fn profiles(frames: usize) -> Vec<DatasetProfile> {
    [
        DatasetProfile::m1(),
        DatasetProfile::v1(),
        DatasetProfile::m1(),
        DatasetProfile::d1(),
        DatasetProfile::d2(),
        DatasetProfile::v2(),
        DatasetProfile::v1(),
        DatasetProfile::d1(),
        DatasetProfile::d2(),
        DatasetProfile::v2(),
    ]
    .iter()
    .map(|p| p.truncated(frames))
    .collect()
}

/// Generates the batches of `seed`.
pub fn input(seed: u64, scale: Scale) -> Input {
    let frames_per_feed = match scale {
        Scale::Full => 48000,
        Scale::Tiny => 120,
    };
    let feeds = generate_feeds(&profiles(frames_per_feed), seed);
    let batches: Vec<Vec<FeedFrame>> = interleave(&feeds, BATCH)
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|(feed, frame)| FeedFrame::new(feed, frame))
                .collect()
        })
        .collect();
    let frames = batches.iter().map(Vec::len).sum();
    Input {
        batches,
        feeds: feeds.len(),
        frames,
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(WindowSpec::new(WINDOW.0, WINDOW.1).expect("valid window"))
        .with_maintainer(MaintainerKind::Ssg)
}

/// Builds the multi-feed engine with `workers` workers and registers the
/// catalog.
pub fn build(workers: usize) -> Result<MultiFeedEngine> {
    QUERIES
        .iter()
        .try_fold(
            MultiFeedEngine::builder(MultiFeedConfig::new(engine_config()).with_workers(workers)),
            |builder, text| builder.with_query_text(text),
        )?
        .build()
}

/// One transcript per camera: each feed's results come back in frame
/// order, while results of different feeds may interleave differently.
pub type FeedTranscripts = Vec<Transcript>;

fn record(transcripts: &mut FeedTranscripts, results: &[FeedFrameResult]) {
    for r in results {
        let feed = r.feed.raw();
        transcripts[feed as usize].frame(feed, r.result.frame.0, &r.result.matches);
    }
}

/// Runs every batch through a fresh engine with `workers` workers. With
/// `corrupt`, one match is dropped from the transcripts (the negative
/// control).
pub fn transcripts(input: &Input, workers: usize, corrupt: bool) -> Result<FeedTranscripts> {
    let mut engine = build(workers)?;
    let mut transcripts = vec![Transcript::default(); input.feeds];
    let mut armed = corrupt;
    for batch in &input.batches {
        let mut results = engine.push_batch(batch)?;
        for r in &mut results {
            drop_one_match(&mut armed, &mut r.result.matches);
        }
        record(&mut transcripts, &results);
    }
    Ok(transcripts)
}

/// What a traced pass read from the scheduler.
#[derive(Default)]
struct Schedule {
    busy_ns: u64,
    critical_ns: u64,
    wall: Duration,
    feeds_migrated: u64,
    peak_shard_depth: u64,
}

/// One pass: a timed set-up sample, then every batch with its latency.
fn pass(
    input: &Input,
    e2e: &mut EndToEnd,
    outcome: &mut Outcome,
    traced: Option<&mut Schedule>,
) -> Result<FeedTranscripts> {
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            black_box(build(WORKERS)?);
        }
        e2e.setup_s
            .push(t0.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    let mut engine = build(WORKERS)?;
    let mut transcripts = vec![Transcript::default(); input.feeds];
    let mut busy = Duration::ZERO;
    let mut stats = SchedulingStats::default();
    let mut schedule = Schedule::default();
    let mut latencies = Latencies::default();
    for batch in &input.batches {
        outcome.attempted += 1;
        let t0 = Instant::now();
        let results = engine.push_batch(black_box(batch));
        let elapsed = t0.elapsed();
        busy += elapsed;
        if traced.is_some() {
            let now = engine.scheduling_stats();
            schedule.busy_ns += now.busy_nanos - stats.busy_nanos;
            schedule.critical_ns += now.critical_path_nanos - stats.critical_path_nanos;
            stats = now;
        }
        match results {
            Ok(results) => {
                latencies.record(elapsed);
                record(&mut transcripts, &results);
            }
            Err(_) => {
                outcome.failed += 1;
                latencies.record_failure();
            }
        }
    }
    if let Some(traced) = traced {
        let metrics = engine.report()?.metrics;
        traced.busy_ns += schedule.busy_ns;
        traced.critical_ns += schedule.critical_ns;
        traced.wall += busy;
        traced.feeds_migrated = metrics.feeds_migrated;
        traced.peak_shard_depth = metrics.per_shard_queue_depth;
    } else {
        e2e.pass(input.frames, busy, &latencies);
    }
    Ok(transcripts)
}

/// Replays every feed through its own rebuilt pipeline, in batch order.
fn pipeline_replay(input: &Input, spans: &mut SpanLog) -> Result<(Vec<Pipeline>, FeedTranscripts)> {
    let mut registry = tvq_common::ClassRegistry::with_default_classes();
    let queries = QUERIES
        .iter()
        .enumerate()
        .map(|(i, text)| tvq_query::parse_query(text, tvq_common::QueryId(i as u32), &mut registry))
        .collect::<Result<Vec<_>>>()?;
    let mut pipelines = (0..input.feeds)
        .map(|_| {
            Pipeline::new(
                &engine_config(),
                MaintainerKind::Ssg,
                registry.clone(),
                queries.clone(),
            )
        })
        .collect::<Result<Vec<_>>>()?;
    let mut transcripts = vec![Transcript::default(); input.feeds];
    for (request, frame) in input.batches.iter().flatten().enumerate() {
        let feed = frame.feed.raw();
        let matches = pipelines[feed as usize].observe(&frame.frame, request as u64, spans)?;
        transcripts[feed as usize].frame(feed, frame.frame.fid.0, &matches);
    }
    Ok((pipelines, transcripts))
}

/// The one-worker transcripts every pass is checked against.
fn reference(input: &Input, args: &RunArgs, outcome: &mut Outcome) -> Result<FeedTranscripts> {
    let reference = transcripts(input, 1, args.corrupt_reference)?;
    outcome.notes.push(format!(
        "fleet: {} feeds, {} frames in {} batches/pass, {} matches/pass, {WORKERS} workers",
        input.feeds,
        input.frames,
        input.batches.len(),
        matches(&reference)
    ));
    Ok(reference)
}

fn matches(transcripts: &FeedTranscripts) -> u64 {
    transcripts.iter().map(|t| t.matches).sum()
}

const CHECK: &str = "2-worker transcripts vs 1-worker run";

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome> {
    let input = input(args.seed, args.scale);
    let mut outcome = Outcome::default();
    let deadline = args.deadline();
    let mut e2e = EndToEnd::default();

    if !args.trace {
        let mut transcripts = Vec::new();
        passes_until(deadline, 3, |_| {
            transcripts.push(pass(&input, &mut e2e, &mut outcome, None)?);
            Ok(())
        })?;
        e2e.capture_rss();
        let reference = reference(&input, args, &mut outcome)?;
        for got in &transcripts {
            outcome.expect_eq(CHECK, &reference, got);
        }
        e2e.finish(&mut outcome, args.scale);
        return Ok(outcome);
    }

    let reference = reference(&input, args, &mut outcome)?;
    let mut schedule = Schedule::default();
    let mut traced_passes = 0u64;
    passes_until(deadline, 2, |_| {
        let got = pass(&input, &mut e2e, &mut outcome, None)?;
        outcome.expect_eq(CHECK, &reference, &got);
        let got = pass(&input, &mut e2e, &mut outcome, Some(&mut schedule))?;
        outcome.expect_eq(CHECK, &reference, &got);
        traced_passes += 1;
        Ok(())
    })?;
    let mut spans = SpanLog::default();
    let (pipelines, replayed) = pipeline_replay(&input, &mut spans)?;
    outcome.expect_eq(
        "traced pipelines vs 1-worker run, per feed",
        &reference,
        &replayed,
    );
    let mut layers = LayerReport::default();
    let costs = LayerCosts::from_spans(&spans, input.frames as u64);
    layers.engine_layers(
        &costs,
        &pipelines.iter().collect::<Vec<_>>(),
        matches(&replayed),
    );
    let traced_frames = (input.frames as u64 * traced_passes) as f64;
    layers.multi_worker_busy_us_per_frame = schedule.busy_ns as f64 / 1e3 / traced_frames;
    layers.multi_schedule_parallelism = SchedulingStats {
        busy_nanos: schedule.busy_ns,
        critical_path_nanos: schedule.critical_ns,
        batches: 0,
    }
    .schedule_parallelism();
    layers.multi_dispatch_share =
        1.0 - schedule.critical_ns as f64 / (schedule.wall.as_nanos() as f64).max(1.0);
    layers.multi_feeds_migrated = schedule.feeds_migrated as f64;
    layers.multi_peak_shard_depth = schedule.peak_shard_depth as f64;
    let traced_rate = traced_frames / schedule.wall.as_secs_f64().max(1e-9);
    layers.trace_overhead_share = 1.0 - traced_rate / median(&e2e.pass_rates);
    layers.finish(&mut outcome);
    write_spans(args, &spans, &mut outcome);
    Ok(outcome)
}
