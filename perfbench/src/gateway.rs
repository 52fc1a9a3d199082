//! `gateway`: a durable `tvq-server` on real disk, restarted from a
//! prepared data directory before every pass.
//!
//! Set-up is a real restart: `QueryServer::bind_with_store` recovers a
//! data dir that an untimed earlier ingest filled (snapshot load plus WAL
//! replay), then the client connects. One TCP connection keeps a fixed
//! number of commands in flight over a sparse pedestrian scene (M1 with
//! tracker-id reuse, so the object lifecycle churns), a catalog of dozens
//! of CNF queries, an ADD/REMOVE every few hundred frames that toggles
//! ≥-only pruning, and a POLL draining the one subscriber at fixed
//! intervals.
//! The store (append + fsync per operation, a snapshot per compaction
//! epoch) and query evaluation over the large catalog carry the cost.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tvq_common::{ClassRegistry, Error, FeedId, FrameObjects, QueryId, Result, WindowSpec};
use tvq_core::{CompactionPolicy, MaintainerKind};
use tvq_engine::{EngineConfig, SubscriptionHub, TemporalVideoQueryEngine};
use tvq_server::protocol::{read_frame, write_frame};
use tvq_server::{QueryServer, ServerHandle};
use tvq_store::{RealIo, SharedIo};
use tvq_video::DatasetProfile;

use crate::layers::{ratio, LayerReport};
use crate::pipeline::{LayerCosts, Pipeline};
use crate::report::{median, EndToEnd, Latencies, Outcome};
use crate::spans::SpanLog;
use crate::timing_io::{IoSnapshot, TimingIo};
use crate::transcript::Transcript;
use crate::{
    drop_one_match, out_dir, passes_until, segmented_feed, write_spans, RunArgs, Scale, SplitMix,
};

/// Window length and minimum duration (frames).
const WINDOW: (usize, usize) = (16, 6);
/// Queries in the catalog the prepared data dir holds.
const BASE_QUERIES: usize = 48;
/// Commands the client keeps in flight on its one connection.
const IN_FLIGHT: usize = 4;
/// Frames between catalog swaps (alternately ADD a query with a `<=`
/// condition, which turns pruning off, and REMOVE it again).
const SWAP_EVERY: usize = 250;
/// Frames between POLLs; each POLL drains everything queued.
const POLL_EVERY: usize = 8;
/// The subscriber's queue capacity.
const SUB_CAP: usize = 1024;
/// How long the client waits for a reply (or to send) before it counts
/// the operation as failed and ends the pass.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Timed restarts per pass.
const RESTARTS: usize = 4;
/// Compaction policy: frequent enough that the pass crosses epochs, so
/// snapshots are part of the measured store work.
const COMPACTION: CompactionPolicy = CompactionPolicy {
    check_interval: 128,
    max_live_ratio: 0.5,
    min_interned: 256,
};

/// One client command of the measured stream.
#[derive(Debug, Clone)]
pub enum Command {
    /// `FRAME`: index into [`Input::frames`] plus the wire text.
    Frame(usize, String),
    /// `ADD <text>`; the payload is the add's ordinal among the stream's adds.
    Add(usize, String),
    /// `REMOVE` of the query the add with this ordinal registered.
    Remove(usize),
    /// `POLL` of the stream's subscriber.
    Poll,
}

/// The generated input of one seed.
pub struct Input {
    /// Frames the prepared data dir already holds.
    pub history: Vec<FrameObjects>,
    /// Frames of the measured stream.
    pub frames: Vec<FrameObjects>,
    /// Catalog registered before the history.
    pub base_queries: Vec<String>,
    /// The measured command stream.
    pub stream: Vec<Command>,
    /// Labels of the frames' class ids.
    pub registry: ClassRegistry,
}

/// Engine configuration the data dir is created with.
pub fn config() -> EngineConfig {
    EngineConfig::new(WindowSpec::new(WINDOW.0, WINDOW.1).expect("valid window"))
        .with_maintainer(MaintainerKind::Ssg)
        .with_compaction(Some(COMPACTION))
}

/// Query `index` of a catalog over the pedestrian scene: a group of people,
/// mostly together with a vehicle. The group's bound and the query's shape
/// cycle with `index`, so every seed's catalog has the same mix (the mix
/// sets how many events a frame publishes) and only the vehicles are drawn
/// at random. With `allow_leq` the group is bounded above instead
/// (`person <= n`), which turns ≥-only pruning off while the query is
/// registered.
fn query_text(index: usize, rng: &mut SplitMix, allow_leq: bool) -> String {
    const VEHICLES: [&str; 3] = ["car", "truck", "bus"];
    let people = if allow_leq {
        format!("person <= {}", 1 + index % 3)
    } else {
        format!("person >= {}", 5 + index % 4)
    };
    match (index / 4) % 4 {
        0 => people,
        1 => format!("{people} AND {} >= 1", VEHICLES[rng.below(3) as usize]),
        _ => {
            let a = VEHICLES[rng.below(3) as usize];
            let b = VEHICLES[rng.below(3) as usize];
            format!("{people} AND ({a} >= 1 OR {b} >= {})", 1 + rng.below(2))
        }
    }
}

/// The wire text of a frame.
fn frame_text(frame: &FrameObjects, registry: &ClassRegistry) -> String {
    let mut text = format!("FRAME {}", frame.fid.0);
    for &(id, class) in &frame.classes {
        let label = registry.label(class).map_or("unknown", |l| l.as_str());
        text.push_str(&format!(" {}:{label}", id.0));
    }
    if !frame.track_ends.is_empty() {
        let ends: Vec<String> = frame.track_ends.iter().map(|o| o.0.to_string()).collect();
        text.push_str(&format!(" END {}", ends.join(",")));
    }
    text
}

/// Generates the history, catalog and command stream of `seed`.
pub fn input(seed: u64, scale: Scale) -> Input {
    let (segments, history_frames) = match scale {
        Scale::Full => (8, 1200),
        Scale::Tiny => (1, 200),
    };
    let registry = ClassRegistry::with_default_classes();
    let profile = DatasetProfile::m1();
    let mut all = segmented_feed(&profile, seed, segments, 2);
    let frames = all.split_off(history_frames.min(all.len()));
    let history = all;
    let mut rng = SplitMix(seed ^ 0x0067_6174_6577_6179);
    let base_queries = (0..BASE_QUERIES)
        .map(|i| query_text(i, &mut rng, false))
        .collect();
    let mut stream = Vec::new();
    let mut adds = 0;
    for (i, frame) in frames.iter().enumerate() {
        if i > 0 && i % SWAP_EVERY == 0 {
            if (i / SWAP_EVERY) % 2 == 1 {
                stream.push(Command::Add(adds, query_text(adds, &mut rng, true)));
                adds += 1;
            } else {
                stream.push(Command::Remove(adds - 1));
            }
        }
        stream.push(Command::Frame(i, frame_text(frame, &registry)));
        if (i + 1) % POLL_EVERY == 0 {
            stream.push(Command::Poll);
        }
    }
    stream.push(Command::Poll);
    Input {
        history,
        frames,
        base_queries,
        stream,
        registry,
    }
}

/// Fills `dir` with a durable engine that registered the base catalog and
/// ingested the history, then shut down cleanly.
pub fn prepare(input: &Input, dir: &Path) -> Result<()> {
    let mut engine = TemporalVideoQueryEngine::builder(config())
        .allow_empty_catalog()
        .build()?;
    engine.attach_durability(RealIo::shared(), dir)?;
    for text in &input.base_queries {
        engine.add_query_text(text)?;
    }
    for frame in &input.history {
        engine.observe(frame)?;
    }
    engine.sync_store()
}

/// A data-dir path under `base` that no earlier restart used. A stopped
/// server's connection thread can keep its engine, and with it the
/// process-wide claim on the engine's data dir, alive for a moment after
/// `stop` returns, so a restart must never reuse a path.
fn fresh_dir(base: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    base.join(NEXT.fetch_add(1, Ordering::Relaxed).to_string())
}

/// Copies a flat data directory.
fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// What one pass over the command stream observed, in protocol terms.
/// The server pass and the in-process replay both fill one, and they must
/// agree exactly.
#[derive(Debug, Default)]
pub struct StreamLog {
    /// Fingerprint of every response: per FRAME its match and event
    /// counts, per ADD the minted id, per POLL every delivered event plus
    /// the drop and queue counts.
    pub transcript: Transcript,
    /// Per-FRAME latency.
    pub frames: Latencies,
    /// Per-ADD/REMOVE latency.
    pub swaps: Latencies,
    /// Per-POLL latency.
    pub polls: Latencies,
    /// Events published (sum of FRAME `events=`).
    pub events: u64,
    /// Drops the subscriber reported last.
    pub dropped: u64,
    /// Frames acknowledged.
    pub frames_ok: u64,
    /// First send to last response.
    pub wall: Duration,
}

impl StreamLog {
    fn on_frame(&mut self, matches: u64, events: u64) {
        self.transcript.entries += 1;
        self.transcript.word(1);
        self.transcript.word(matches);
        self.transcript.word(events);
        self.transcript.matches += matches;
        self.events += events;
        self.frames_ok += 1;
    }

    fn on_add(&mut self, id: u32) {
        self.transcript.entries += 1;
        self.transcript.word(2);
        self.transcript.word(u64::from(id));
    }

    fn on_remove(&mut self) {
        self.transcript.entries += 1;
        self.transcript.word(3);
    }

    /// Counts a command that got no usable reply as a missed latency sample.
    fn on_failure(&mut self, command: &Command) {
        match command {
            Command::Frame(..) => self.frames.record_failure(),
            Command::Add(..) | Command::Remove(_) => self.swaps.record_failure(),
            Command::Poll => self.polls.record_failure(),
        }
    }

    fn on_poll(&mut self, events: &[(u64, u64, u32, Vec<u32>)], dropped: u64, remaining: u64) {
        self.transcript.entries += 1;
        self.transcript.word(4);
        self.transcript.word(events.len() as u64);
        for (seq, frame, query, objects) in events {
            self.transcript.word(*seq);
            self.transcript.word(*frame);
            self.transcript.word(u64::from(*query));
            self.transcript.word(objects.len() as u64);
            objects
                .iter()
                .for_each(|&o| self.transcript.word(u64::from(o)));
        }
        self.transcript.word(dropped);
        self.transcript.word(remaining);
        self.dropped = dropped;
    }
}

/// Value of `key=` in a response line.
fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Parses a POLL response into its events and counts.
#[allow(clippy::type_complexity)]
fn parse_poll(response: &str) -> Option<(Vec<(u64, u64, u32, Vec<u32>)>, u64, u64)> {
    let mut lines = response.lines();
    let head = lines.next()?;
    let dropped = field(head, "dropped")?;
    let remaining = field(head, "remaining")?;
    let mut events = Vec::new();
    for line in lines {
        let objects = line
            .split_whitespace()
            .find_map(|t| t.strip_prefix("objects="))?;
        let objects = objects
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().ok())
            .collect::<Option<Vec<u32>>>()?;
        events.push((
            field(line, "seq")?,
            field(line, "frame")?,
            u32::try_from(field(line, "query")?).ok()?,
            objects,
        ));
    }
    Some((events, dropped, remaining))
}

/// A pipelining client on one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, command: &str) -> Result<()> {
        Ok(write_frame(&mut self.writer, command)?)
    }

    fn recv(&mut self) -> Result<String> {
        read_frame(&mut self.reader)?.ok_or_else(|| {
            Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })
    }

    fn request(&mut self, command: &str) -> Result<String> {
        self.send(command)?;
        self.recv()
    }

    /// Sends `command` and waits for its reply, counting the operation in
    /// `outcome` and, unless the reply is `OK`, its failure (an `ERR`, an
    /// I/O error or a timeout).
    fn exchange(&mut self, command: &str, outcome: &mut Outcome) -> Option<String> {
        outcome.attempted += 1;
        match self.request(command) {
            Ok(response) if response.starts_with("OK") => Some(response),
            _ => {
                outcome.failed += 1;
                None
            }
        }
    }
}

/// Runs the command stream over `client` with [`IN_FLIGHT`] commands
/// outstanding, counting every operation and every `ERR`. A send or
/// receive that fails or times out ends the pass: every command still
/// waiting for its reply counts as failed.
fn run_stream(client: &mut Client, input: &Input, sub: u64, outcome: &mut Outcome) -> StreamLog {
    let mut log = StreamLog::default();
    let mut ids: Vec<Option<u32>> = Vec::new();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let poll = format!("POLL {sub}");
    let start = Instant::now();
    let mut next = 0;
    'stream: loop {
        while next < input.stream.len() && pending.len() < IN_FLIGHT {
            let text = match &input.stream[next] {
                Command::Frame(_, text) => text.clone(),
                Command::Add(_, text) => format!("ADD {text}"),
                Command::Remove(ordinal) => {
                    // The ADD went out SWAP_EVERY frames earlier; wait for
                    // its id only if its response is still in flight.
                    if ids.get(*ordinal).copied().flatten().is_none() && !pending.is_empty() {
                        break;
                    }
                    match ids.get(*ordinal).copied().flatten() {
                        Some(id) => format!("REMOVE {id}"),
                        None => "REMOVE none".to_string(),
                    }
                }
                Command::Poll => poll.clone(),
            };
            outcome.attempted += 1;
            pending.push_back((next, Instant::now()));
            next += 1;
            if client.send(&text).is_err() {
                break 'stream;
            }
        }
        let Some(&(index, sent)) = pending.front() else {
            break;
        };
        let Ok(response) = client.recv() else {
            break;
        };
        pending.pop_front();
        let elapsed = sent.elapsed();
        let ok = response.starts_with("OK");
        if !ok {
            outcome.failed += 1;
        }
        let command = &input.stream[index];
        match command {
            Command::Frame(..) => match (field(&response, "matches"), field(&response, "events")) {
                (Some(matches), Some(events)) if ok => {
                    log.frames.record(elapsed);
                    log.on_frame(matches, events);
                }
                _ => log.on_failure(command),
            },
            Command::Add(ordinal, _) => {
                let id = field(&response, "id").and_then(|v| u32::try_from(v).ok());
                if ids.len() <= *ordinal {
                    ids.resize(*ordinal + 1, None);
                }
                ids[*ordinal] = id.filter(|_| ok);
                match ids[*ordinal] {
                    Some(id) => {
                        log.swaps.record(elapsed);
                        log.on_add(id);
                    }
                    None => log.on_failure(command),
                }
            }
            Command::Remove(_) if ok => {
                log.swaps.record(elapsed);
                log.on_remove();
            }
            Command::Remove(_) => log.on_failure(command),
            Command::Poll => match parse_poll(&response).filter(|_| ok) {
                Some((events, dropped, remaining)) => {
                    log.polls.record(elapsed);
                    log.on_poll(&events, dropped, remaining);
                }
                None => log.on_failure(command),
            },
        }
    }
    for (index, _) in pending {
        outcome.failed += 1;
        log.on_failure(&input.stream[index]);
    }
    log.wall = start.elapsed();
    log
}

/// One server pass: restart from a copy of the prepared dir (timed set-up),
/// subscribe, run the stream, check the restart, shut down.
struct ServerPass {
    setup: Vec<Duration>,
    log: StreamLog,
    /// Store IO during the stream only (traced passes).
    io: IoSnapshot,
}

fn server_pass(
    input: &Input,
    prepared: &Path,
    work: &Path,
    traced: bool,
    outcome: &mut Outcome,
) -> Result<ServerPass> {
    // One restart takes about a millisecond: time several (each from a
    // fresh copy of the prepared dir, so each replays the same WAL tail)
    // and serve the stream from the last.
    let mut setup = Vec::with_capacity(RESTARTS);
    let (mut handle, mut client, mut counters) = (None, None, None);
    let mut dir = PathBuf::new();
    for restart in 0..RESTARTS {
        if let (Some(c), Some(h)) = (client.take(), handle.take()) {
            drop::<Client>(c);
            ServerHandle::stop(h)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = fresh_dir(work);
        copy_dir(prepared, &dir)?;
        let io: SharedIo = if traced && restart + 1 == RESTARTS {
            let (io, c) = TimingIo::shared();
            counters = Some(c);
            io
        } else {
            RealIo::shared()
        };
        let t0 = Instant::now();
        let server = QueryServer::bind_with_store("127.0.0.1:0", config(), io, &dir)?;
        let h = server.spawn()?;
        client = Some(Client::connect(h.addr())?);
        setup.push(t0.elapsed());
        handle = Some(h);
    }
    let (mut client, handle) = (
        client.expect("at least one restart"),
        handle.expect("at least one restart"),
    );

    let sub = client
        .exchange(&format!("SUBSCRIBE cap={SUB_CAP}"), outcome)
        .and_then(|subscribed| field(&subscribed, "sub"))
        .unwrap_or(0);
    let before = counters.as_ref().map(|c| c.snapshot()).unwrap_or_default();
    let log = run_stream(&mut client, input, sub, outcome);
    let io = counters
        .as_ref()
        .map(|c| c.snapshot().since(&before))
        .unwrap_or_default();

    let stats = client.exchange("STATS", outcome).unwrap_or_default();
    outcome.expect_eq(
        "server restarted from the prepared dir (STATS recoveries)",
        field(&stats, "recoveries"),
        Some(1),
    );
    outcome.expect_eq(
        "frames the restarted server acknowledged",
        field(&stats, "frames"),
        Some(input.frames.len() as u64),
    );
    let _ = client.request("QUIT");
    drop(client);
    handle.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ServerPass { setup, log, io })
}

/// The in-process replay: the same commands through a recovered durable
/// engine and a subscription hub, as the server would execute them.
pub struct Replay {
    /// What the replay answered.
    pub log: StreamLog,
    /// Every stream frame's matches.
    pub frames: Transcript,
    /// `recover` wall time.
    pub recover: Duration,
    /// WAL records `recover` replayed.
    pub records_replayed: u64,
    /// Frames the recovered engine had processed (its frame cursor).
    pub recovered_frames: u64,
    /// Time inside engine and hub calls across the whole stream.
    pub busy: Duration,
}

/// Replays the stream in process against a copy of the prepared dir. With
/// `corrupt`, one match is dropped from the answers (the negative control).
pub fn replay(input: &Input, prepared: &Path, work: &Path, corrupt: bool) -> Result<Replay> {
    copy_dir(prepared, work)?;
    let t0 = Instant::now();
    let (mut engine, report) = TemporalVideoQueryEngine::recover(RealIo::shared(), work)?;
    let recover = t0.elapsed();
    let recovered_frames = engine.metrics().frames_processed;
    let mut hub = SubscriptionHub::new();
    let sub = hub.subscribe(SUB_CAP, None);
    let mut log = StreamLog::default();
    let mut frames = Transcript::default();
    let mut armed = corrupt;
    let mut ids: Vec<QueryId> = Vec::new();
    let mut busy = Duration::ZERO;
    for command in &input.stream {
        match command {
            Command::Frame(index, _) => {
                let source = &input.frames[*index];
                let detections = source
                    .classes
                    .iter()
                    .filter_map(|&(id, class)| {
                        let label = input.registry.label(class)?;
                        Some((id, engine.registry().id(label.as_str())?))
                    })
                    .collect();
                let frame = FrameObjects::new(source.fid, detections)
                    .with_track_ends(source.track_ends.clone());
                let t0 = Instant::now();
                let mut result = engine.observe(&frame)?;
                drop_one_match(&mut armed, &mut result.matches);
                let events = hub.publish(FeedId(0), result.frame, &result.matches);
                busy += t0.elapsed();
                frames.frame(0, result.frame.0, &result.matches);
                log.on_frame(result.matches.len() as u64, events as u64);
            }
            Command::Add(_, text) => {
                let t0 = Instant::now();
                let id = engine.add_query_text(text)?;
                busy += t0.elapsed();
                ids.push(id);
                log.on_add(id.0);
            }
            Command::Remove(ordinal) => {
                let id = ids[*ordinal];
                let t0 = Instant::now();
                engine.remove_query(id)?;
                hub.retract_query(id);
                busy += t0.elapsed();
                log.on_remove();
            }
            Command::Poll => {
                let t0 = Instant::now();
                let events = hub.poll(sub, usize::MAX)?;
                let (dropped, remaining) = hub
                    .subscription(sub)
                    .map_or((0, 0), |s| (s.dropped(), s.queued() as u64));
                busy += t0.elapsed();
                let events: Vec<_> = events
                    .iter()
                    .map(|e| {
                        (
                            e.seq,
                            e.frame.0,
                            e.matched.query.0,
                            e.matched.objects.iter().map(|o| o.0).collect(),
                        )
                    })
                    .collect();
                log.on_poll(&events, dropped, remaining);
            }
        }
    }
    engine.sync_store()?;
    drop(engine);
    let _ = std::fs::remove_dir_all(work);
    Ok(Replay {
        log,
        frames,
        recover,
        records_replayed: report.records_replayed,
        recovered_frames,
        busy,
    })
}

/// The rebuilt pipeline after replaying history and stream.
struct PipelineReplay {
    pipeline: Pipeline,
    /// Maintainer counters when the stream started.
    base: tvq_core::MaintenanceMetrics,
    /// Lifecycle generations started and tracks ended when the stream
    /// started.
    base_lifecycle: (u64, u64),
    /// Every stream frame's matches.
    frames: Transcript,
}

/// Replays history and stream through the rebuilt pipeline; spans cover
/// the stream only.
fn pipeline_replay(input: &Input, spans: &mut SpanLog) -> Result<PipelineReplay> {
    let mut pipeline = Pipeline::new(
        &config(),
        MaintainerKind::Ssg,
        ClassRegistry::with_default_classes(),
        Vec::new(),
    )?;
    for text in &input.base_queries {
        pipeline.add_query_text(text)?;
    }
    let mut history_spans = SpanLog::default();
    for frame in &input.history {
        pipeline.observe(frame, 0, &mut history_spans)?;
    }
    let base = pipeline.maintainer_metrics().clone();
    let base_lifecycle = (
        pipeline.lifecycle().generations_started(),
        pipeline.lifecycle().tracks_ended(),
    );
    let mut ids = Vec::new();
    let mut frames = Transcript::default();
    for (request, command) in input.stream.iter().enumerate() {
        match command {
            Command::Frame(index, _) => {
                let frame = &input.frames[*index];
                let matches = pipeline.observe(frame, request as u64, spans)?;
                frames.frame(0, frame.fid.0, &matches);
            }
            Command::Add(_, text) => ids.push(pipeline.add_query_text(text)?),
            Command::Remove(ordinal) => pipeline.remove_query(ids[*ordinal])?,
            Command::Poll => {}
        }
    }
    Ok(PipelineReplay {
        pipeline,
        base,
        base_lifecycle,
        frames,
    })
}

/// Scratch directories of one run, removed when dropped.
struct WorkDirs {
    root: PathBuf,
}

impl WorkDirs {
    fn new() -> Result<Self> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let root = out_dir().join(format!("gateway-{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDirs { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for WorkDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome> {
    let input = input(args.seed, args.scale);
    let dirs = WorkDirs::new()?;
    let prepared = dirs.path("prepared");
    prepare(&input, &prepared)?;
    let mut outcome = Outcome::default();

    let reference = replay(
        &input,
        &prepared,
        &dirs.path("replay"),
        args.corrupt_reference,
    )?;
    outcome.expect_eq(
        "recovered frame cursor",
        reference.recovered_frames,
        input.history.len() as u64,
    );
    outcome.notes.push(format!(
        "gateway: {} history frames, {} stream frames, {} commands/pass, {} matches/pass, {} WAL records replayed on restart",
        input.history.len(),
        input.frames.len(),
        input.stream.len(),
        reference.log.transcript.matches,
        reference.records_replayed
    ));
    if reference.log.transcript.matches == 0 {
        outcome.problem("the gateway stream produced no match; the query layer would idle");
    }
    let deadline = args.deadline();
    let work = dirs.path("server");
    let mut e2e = EndToEnd::default();
    let frames = input.frames.len();
    let check = |outcome: &mut Outcome, pass: &ServerPass| {
        outcome.expect_eq(
            "server responses vs in-process replay",
            reference.log.transcript,
            pass.log.transcript,
        );
    };

    if !args.trace {
        passes_until(deadline, 3, |_| {
            let pass = server_pass(&input, &prepared, &work, false, &mut outcome)?;
            check(&mut outcome, &pass);
            e2e.setup_s
                .extend(pass.setup.iter().map(Duration::as_secs_f64));
            e2e.pass(pass.log.frames_ok as usize, pass.log.wall, &pass.log.frames);
            Ok(())
        })?;
        e2e.capture_rss();
        e2e.finish(&mut outcome, args.scale);
        return Ok(outcome);
    }

    // Traced run: untraced and traced passes alternate; the traced ones
    // run over the timing store and time every verb's round trip.
    let mut traced_rates = Vec::new();
    let mut frame_rtt = Latencies::default();
    let mut swap_rtt = Latencies::default();
    let mut poll_rtt = Latencies::default();
    let mut io = IoSnapshot::default();
    let mut traced_wall = Duration::ZERO;
    let mut traced_passes = 0u64;
    let mut last_log = StreamLog::default();
    passes_until(deadline, 2, |_| {
        let pass = server_pass(&input, &prepared, &work, false, &mut outcome)?;
        check(&mut outcome, &pass);
        e2e.pass(pass.log.frames_ok as usize, pass.log.wall, &pass.log.frames);
        let pass = server_pass(&input, &prepared, &work, true, &mut outcome)?;
        check(&mut outcome, &pass);
        traced_rates.push(pass.log.frames_ok as f64 / pass.log.wall.as_secs_f64().max(1e-9));
        frame_rtt.extend(&pass.log.frames);
        swap_rtt.extend(&pass.log.swaps);
        poll_rtt.extend(&pass.log.polls);
        io = io.plus(&pass.io);
        traced_wall += pass.log.wall;
        traced_passes += 1;
        last_log = pass.log;
        Ok(())
    })?;

    let timed_replay = replay(&input, &prepared, &dirs.path("replay"), false)?;
    let mut spans = SpanLog::default();
    let PipelineReplay {
        pipeline,
        base,
        base_lifecycle: (generations0, ended0),
        frames: replayed,
    } = pipeline_replay(&input, &mut spans)?;
    outcome.expect_eq(
        "traced pipeline vs in-process replay, per frame",
        reference.frames,
        replayed,
    );

    let mut layers = LayerReport::default();
    let costs = LayerCosts::from_spans(&spans, frames as u64);
    layers.engine_layers(&costs, &[&pipeline], replayed.matches);
    // The pipeline also replayed the history; count the stream only.
    let m = pipeline.maintainer_metrics();
    let per_frame = |now: u64, then: u64| (now - then) as f64 / frames as f64;
    layers.mcos_states_visited_per_frame = per_frame(m.states_visited, base.states_visited);
    layers.mcos_intersections_per_frame = per_frame(m.intersections, base.intersections);
    let hits = m.intersection_cache_hits - base.intersection_cache_hits;
    let misses = m.intersection_cache_misses - base.intersection_cache_misses;
    layers.mcos_memo_hit_ratio = ratio(hits, hits + misses);
    layers.mcos_prune_ratio = ratio(
        m.states_terminated - base.states_terminated,
        m.states_created - base.states_created,
    );
    layers.lifecycle_generations_started =
        (pipeline.lifecycle().generations_started() - generations0) as f64;
    layers.lifecycle_tracks_ended = (pipeline.lifecycle().tracks_ended() - ended0) as f64;

    let traced_frames = (frames as u64 * traced_passes).max(1) as f64;
    layers.store_fsyncs_per_frame = io.fsyncs as f64 / traced_frames;
    layers.store_fsync_us_per_frame = io.fsync_ns as f64 / 1e3 / traced_frames;
    layers.store_append_bytes_per_frame = io.append_bytes as f64 / traced_frames;
    layers.store_snapshot_bytes_per_frame = io.file_bytes as f64 / traced_frames;
    layers.store_io_us_per_frame = io.io_ns as f64 / 1e3 / traced_frames;
    layers.store_recover_records_replayed = timed_replay.records_replayed as f64;
    layers.store_recover_s = timed_replay.recover.as_secs_f64();
    layers.catalog_swaps = input
        .stream
        .iter()
        .filter(|c| matches!(c, Command::Add(..) | Command::Remove(_)))
        .count() as f64;
    layers.catalog_swap_rtt_us = swap_rtt.mean();
    layers.subscribe_events_per_frame = last_log.events as f64 / frames as f64;
    layers.subscribe_dropped_share = ratio(last_log.dropped, last_log.events);
    layers.subscribe_poll_rtt_us = poll_rtt.mean();
    layers.server_frame_rtt_us = frame_rtt.mean();
    let server_us_per_frame = traced_wall.as_secs_f64() * 1e6 / traced_frames;
    let inproc_us_per_frame = timed_replay.busy.as_secs_f64() * 1e6 / frames as f64;
    layers.server_overhead_us_per_frame = server_us_per_frame - inproc_us_per_frame;
    layers.trace_overhead_share = 1.0 - median(&traced_rates) / median(&e2e.pass_rates);
    layers.finish(&mut outcome);
    write_spans(args, &spans, &mut outcome);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that accepts and reads but never replies: the client gives
    /// up after its timeout, and every command in flight counts as failed.
    #[test]
    fn a_silent_server_fails_the_commands_in_flight_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Read until the client hangs up; never reply.
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        });
        let input = input(1, Scale::Tiny);
        let mut client = Client::connect(addr).unwrap();
        let mut outcome = Outcome::default();
        let log = run_stream(&mut client, &input, 0, &mut outcome);
        drop(client);
        silent.join().unwrap();
        assert_eq!(
            (outcome.attempted, outcome.failed),
            (IN_FLIGHT as u64, IN_FLIGHT as u64)
        );
        assert_eq!(log.frames_ok, 0);
        assert_eq!(log.frames.samples(), IN_FLIGHT);
        assert!(log.frames.percentile(0.5).0.is_infinite());
    }
}
