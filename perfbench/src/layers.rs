//! The per-layer metrics every traced run reports.
//!
//! Each workload fills in the layers it exercises; every other field stays
//! zero, so all three traced runs print the same metric names (a layer a
//! workload does not reach reads 0, which is the prediction for it).

use crate::pipeline::{LayerCosts, Pipeline};
use crate::report::Outcome;

/// Per-layer measurements of one traced run. Field names follow the
/// metric names with `.` replaced by `_`.
#[derive(Debug, Default, Clone)]
#[allow(missing_docs)]
pub struct LayerReport {
    pub lifecycle_us_per_frame: f64,
    pub lifecycle_generations_started: f64,
    pub lifecycle_tracks_ended: f64,
    pub mcos_advance_us_per_frame: f64,
    pub mcos_compact_us_per_frame: f64,
    pub mcos_states_visited_per_frame: f64,
    pub mcos_intersections_per_frame: f64,
    pub mcos_memo_hit_ratio: f64,
    pub mcos_prune_ratio: f64,
    pub mcos_peak_live_states: f64,
    pub mcos_arena_bytes: f64,
    pub query_eval_us_per_frame: f64,
    pub query_matches_per_frame: f64,
    pub engine_observe_us_per_frame: f64,
    pub engine_residual_us_per_frame: f64,
    pub store_fsyncs_per_frame: f64,
    pub store_fsync_us_per_frame: f64,
    pub store_append_bytes_per_frame: f64,
    pub store_snapshot_bytes_per_frame: f64,
    pub store_io_us_per_frame: f64,
    pub store_recover_records_replayed: f64,
    pub store_recover_s: f64,
    pub catalog_swaps: f64,
    pub catalog_swap_rtt_us: f64,
    pub subscribe_events_per_frame: f64,
    pub subscribe_dropped_share: f64,
    pub subscribe_poll_rtt_us: f64,
    pub server_frame_rtt_us: f64,
    pub server_overhead_us_per_frame: f64,
    pub multi_worker_busy_us_per_frame: f64,
    pub multi_schedule_parallelism: f64,
    pub multi_dispatch_share: f64,
    pub multi_feeds_migrated: f64,
    pub multi_peak_shard_depth: f64,
    pub trace_overhead_share: f64,
}

impl LayerReport {
    /// Fills the `lifecycle`, `mcos`, `query` and `engine` layers from
    /// traced pipeline replays: `costs` from their span log, counters
    /// summed over `pipelines` (one per feed), `frames` frames in total.
    pub fn engine_layers(&mut self, costs: &LayerCosts, pipelines: &[&Pipeline], matches: u64) {
        let frames = costs.frames.max(1) as f64;
        let mut visited = 0u64;
        let mut intersections = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut created = 0u64;
        let mut terminated = 0u64;
        let mut peak_live = 0u64;
        let mut arena = 0u64;
        let mut generations = 0u64;
        let mut ended = 0u64;
        for p in pipelines {
            let m = p.maintainer_metrics();
            visited += m.states_visited;
            intersections += m.intersections;
            hits += m.intersection_cache_hits;
            misses += m.intersection_cache_misses;
            created += m.states_created;
            terminated += m.states_terminated;
            peak_live += m.peak_live_states;
            arena += p.peak_arena_bytes();
            generations += p.lifecycle().generations_started();
            ended += p.lifecycle().tracks_ended();
        }
        self.lifecycle_us_per_frame = costs.lifecycle_us;
        self.lifecycle_generations_started = generations as f64;
        self.lifecycle_tracks_ended = ended as f64;
        self.mcos_advance_us_per_frame = costs.advance_us;
        self.mcos_compact_us_per_frame = costs.compact_us;
        self.mcos_states_visited_per_frame = visited as f64 / frames;
        self.mcos_intersections_per_frame = intersections as f64 / frames;
        self.mcos_memo_hit_ratio = ratio(hits, hits + misses);
        self.mcos_prune_ratio = ratio(terminated, created);
        self.mcos_peak_live_states = peak_live as f64;
        self.mcos_arena_bytes = arena as f64;
        self.query_eval_us_per_frame = costs.query_us;
        self.query_matches_per_frame = matches as f64 / frames;
        self.engine_observe_us_per_frame = costs.observe_us;
        self.engine_residual_us_per_frame = costs.residual_us();
    }

    /// Appends every per-layer metric to `outcome`, in a fixed order.
    pub fn finish(&self, outcome: &mut Outcome) {
        let rows: [(&str, f64, &'static str); 35] = [
            ("lifecycle.us_per_frame", self.lifecycle_us_per_frame, "us"),
            (
                "lifecycle.generations_started",
                self.lifecycle_generations_started,
                "count",
            ),
            (
                "lifecycle.tracks_ended",
                self.lifecycle_tracks_ended,
                "count",
            ),
            (
                "mcos.advance_us_per_frame",
                self.mcos_advance_us_per_frame,
                "us",
            ),
            (
                "mcos.compact_us_per_frame",
                self.mcos_compact_us_per_frame,
                "us",
            ),
            (
                "mcos.states_visited_per_frame",
                self.mcos_states_visited_per_frame,
                "count",
            ),
            (
                "mcos.intersections_per_frame",
                self.mcos_intersections_per_frame,
                "count",
            ),
            ("mcos.memo_hit_ratio", self.mcos_memo_hit_ratio, "ratio"),
            ("mcos.prune_ratio", self.mcos_prune_ratio, "ratio"),
            ("mcos.peak_live_states", self.mcos_peak_live_states, "count"),
            ("mcos.arena_bytes", self.mcos_arena_bytes, "B"),
            (
                "query.eval_us_per_frame",
                self.query_eval_us_per_frame,
                "us",
            ),
            (
                "query.matches_per_frame",
                self.query_matches_per_frame,
                "count",
            ),
            (
                "engine.observe_us_per_frame",
                self.engine_observe_us_per_frame,
                "us",
            ),
            (
                "engine.residual_us_per_frame",
                self.engine_residual_us_per_frame,
                "us",
            ),
            (
                "store.fsyncs_per_frame",
                self.store_fsyncs_per_frame,
                "count",
            ),
            (
                "store.fsync_us_per_frame",
                self.store_fsync_us_per_frame,
                "us",
            ),
            (
                "store.append_bytes_per_frame",
                self.store_append_bytes_per_frame,
                "B",
            ),
            (
                "store.snapshot_bytes_per_frame",
                self.store_snapshot_bytes_per_frame,
                "B",
            ),
            ("store.io_us_per_frame", self.store_io_us_per_frame, "us"),
            (
                "store.recover_records_replayed",
                self.store_recover_records_replayed,
                "count",
            ),
            ("store.recover_s", self.store_recover_s, "s"),
            ("catalog.swaps", self.catalog_swaps, "count"),
            ("catalog.swap_rtt_us", self.catalog_swap_rtt_us, "us"),
            (
                "subscribe.events_per_frame",
                self.subscribe_events_per_frame,
                "count",
            ),
            (
                "subscribe.dropped_share",
                self.subscribe_dropped_share,
                "ratio",
            ),
            ("subscribe.poll_rtt_us", self.subscribe_poll_rtt_us, "us"),
            ("server.frame_rtt_us", self.server_frame_rtt_us, "us"),
            (
                "server.overhead_us_per_frame",
                self.server_overhead_us_per_frame,
                "us",
            ),
            (
                "multi.worker_busy_us_per_frame",
                self.multi_worker_busy_us_per_frame,
                "us",
            ),
            (
                "multi.schedule_parallelism",
                self.multi_schedule_parallelism,
                "ratio",
            ),
            ("multi.dispatch_share", self.multi_dispatch_share, "ratio"),
            ("multi.feeds_migrated", self.multi_feeds_migrated, "count"),
            (
                "multi.peak_shard_depth",
                self.multi_peak_shard_depth,
                "count",
            ),
            ("trace.overhead_share", self.trace_overhead_share, "ratio"),
        ];
        for (name, value, unit) in rows {
            outcome.push(name, value, unit);
        }
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
