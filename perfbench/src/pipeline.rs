//! The engine's per-frame pipeline, rebuilt from its public parts so each
//! layer call can be timed from outside.
//!
//! This mirrors `TemporalVideoQueryEngine::assemble` and `observe`: an
//! [`ObjectLifecycle`] resolves tracker ids, a maintainer built by
//! [`MaintainerKind::build_with_options`] (interner sharing the class
//! store, a catalog-following pruner) advances the window and compacts
//! between frames, and [`evaluate_result_set`] plus alias translation turn
//! the Result State Set into matches. The benchmark checks that its
//! transcript equals the real engine's, so the per-layer times describe
//! the code the engine runs.

use std::sync::{Arc, PoisonError};
use std::time::Instant;

use tvq_common::{
    shared_class_store, ClassCounts, ClassRegistry, FrameObjects, ObjectId, ObjectSet, QueryId,
    Result, SetInterner, SharedClassMap,
};
use tvq_core::{
    CompactionPolicy, MaintainerKind, MaintenanceMetrics, ObjectLifecycle, SharedPruner,
    StateMaintainer, StatePruner,
};
use tvq_engine::{EngineConfig, QueryCatalog, SharedCatalog};
use tvq_query::{evaluate_result_set, CnfQuery, QueryMatch};

use crate::spans::SpanLog;

/// Span names of the pipeline layers.
pub const OBSERVE: &str = "engine.observe";
/// Tracker-id resolution, track ends and retirement.
pub const LIFECYCLE: &str = "lifecycle";
/// `StateMaintainer::advance`.
pub const ADVANCE: &str = "mcos.advance";
/// `StateMaintainer::maybe_compact`.
pub const COMPACT: &str = "mcos.compact";
/// Result-set evaluation plus alias translation.
pub const QUERY: &str = "query";

/// A pruner that follows the catalog's current snapshot, judging exactly
/// as the engine's own pruner does: keep everything while the catalog
/// cannot prune, otherwise terminate sets no query can ever satisfy.
struct CatalogPruner {
    catalog: SharedCatalog,
    classes: SharedClassMap,
}

impl CatalogPruner {
    fn active_evaluator(&self) -> Option<Arc<tvq_query::CnfEvaluator>> {
        let snapshot = self.catalog.read().unwrap_or_else(PoisonError::into_inner);
        snapshot
            .prune_active()
            .then(|| Arc::clone(snapshot.evaluator()))
    }
}

impl StatePruner for CatalogPruner {
    fn should_terminate(&self, objects: &ObjectSet) -> bool {
        let Some(evaluator) = self.active_evaluator() else {
            return false;
        };
        let store = self.classes.read().unwrap_or_else(PoisonError::into_inner);
        !evaluator.any_satisfied(&ClassCounts::of(objects, store.classes()))
    }

    fn should_terminate_with(&self, objects: &ObjectSet, counts: Option<&ClassCounts>) -> bool {
        match counts {
            Some(counts) => self
                .active_evaluator()
                .is_some_and(|evaluator| !evaluator.any_satisfied(counts)),
            None => self.should_terminate(objects),
        }
    }
}

/// One feed's rebuilt pipeline.
pub struct Pipeline {
    registry: ClassRegistry,
    catalog: QueryCatalog,
    maintainer: Box<dyn StateMaintainer>,
    lifecycle: ObjectLifecycle,
    compaction: Option<CompactionPolicy>,
    since_check: u64,
    peak_arena_bytes: u64,
}

impl Pipeline {
    /// Wires a pipeline the way the engine's builder does.
    pub fn new(
        config: &EngineConfig,
        kind: MaintainerKind,
        registry: ClassRegistry,
        queries: Vec<CnfQuery>,
    ) -> Result<Self> {
        let catalog = QueryCatalog::new(queries, 0)?;
        let classes = shared_class_store();
        let interner =
            SetInterner::with_classes(Arc::clone(&classes)).with_memo_config(config.memo);
        let pruner: Option<SharedPruner> = config.pruning.then(|| {
            Arc::new(CatalogPruner {
                catalog: catalog.shared(),
                classes: Arc::clone(&classes),
            }) as SharedPruner
        });
        Ok(Pipeline {
            registry,
            catalog,
            maintainer: kind.build_with_options(config.window, pruner, interner),
            lifecycle: ObjectLifecycle::new(classes),
            compaction: config.compaction,
            since_check: 0,
            peak_arena_bytes: 0,
        })
    }

    /// Registers a textual query under the next free id.
    pub fn add_query_text(&mut self, text: &str) -> Result<QueryId> {
        let id = self.catalog.next_query_id();
        let query = tvq_query::parse_query(text, id, &mut self.registry)?;
        self.catalog.add_query(query)?;
        self.maintainer.pruner_changed();
        Ok(id)
    }

    /// Cancels a query.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        self.catalog.remove_query(id)?;
        self.maintainer.pruner_changed();
        Ok(())
    }

    /// The maintainer's work counters.
    pub fn maintainer_metrics(&self) -> &MaintenanceMetrics {
        self.maintainer.metrics()
    }

    /// The object lifecycle (generation and track-end counters).
    pub fn lifecycle(&self) -> &ObjectLifecycle {
        &self.lifecycle
    }

    /// Largest interner arena seen after any frame, in bytes.
    pub fn peak_arena_bytes(&self) -> u64 {
        self.peak_arena_bytes
    }

    /// Processes one frame, recording a span per layer call under
    /// `request` in `spans`.
    pub fn observe(
        &mut self,
        frame: &FrameObjects,
        request: u64,
        spans: &mut SpanLog,
    ) -> Result<Vec<QueryMatch>> {
        let parent = Some(OBSERVE);
        let start = Instant::now();
        let t0 = Instant::now();
        if !frame.track_ends.is_empty() {
            self.lifecycle.end_tracks(&frame.track_ends);
        }
        let snapshot = Arc::clone(self.catalog.snapshot());
        let mut internal: Vec<ObjectId> = Vec::with_capacity(frame.classes.len());
        self.lifecycle
            .resolve_frame(&frame.classes, snapshot.relevant_classes(), &mut internal);
        let t1 = Instant::now();
        spans.record(request, LIFECYCLE, parent, t0, t1);

        let objects = ObjectSet::from_ids(internal);
        let t0 = Instant::now();
        let advanced = self.maintainer.advance(frame.fid, &objects);
        let t1 = Instant::now();
        spans.record(request, ADVANCE, parent, t0, t1);
        advanced?;
        self.peak_arena_bytes = self
            .peak_arena_bytes
            .max(self.maintainer.metrics().arena_bytes);

        if let Some(policy) = &self.compaction {
            self.since_check += 1;
            if self.since_check >= policy.check_interval {
                self.since_check = 0;
                let t0 = Instant::now();
                let outcome = self.maintainer.maybe_compact(policy);
                let t1 = Instant::now();
                spans.record(request, COMPACT, parent, t0, t1);
                if let Some(outcome) = outcome {
                    let t0 = Instant::now();
                    self.lifecycle.retire(&outcome.retired_objects);
                    spans.record(request, LIFECYCLE, parent, t0, Instant::now());
                }
            }
        }

        let t0 = Instant::now();
        let mut matches = {
            let store = self
                .lifecycle
                .store()
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            evaluate_result_set(
                snapshot.evaluator(),
                self.maintainer.results(),
                store.classes(),
            )
        };
        if self.lifecycle.has_aliases() {
            for m in &mut matches {
                if m.objects
                    .iter()
                    .any(|id| self.lifecycle.external_of(id) != id)
                {
                    let translated: Vec<ObjectId> = m
                        .objects
                        .iter()
                        .map(|id| self.lifecycle.external_of(id))
                        .collect();
                    m.objects = ObjectSet::from_ids(translated);
                }
            }
        }
        let end = Instant::now();
        spans.record(request, QUERY, parent, t0, end);
        spans.record(request, OBSERVE, None, start, end);
        Ok(matches)
    }
}

/// Per-frame layer costs of a traced pipeline replay, from its span log.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCosts {
    /// Frames the spans cover.
    pub frames: u64,
    /// `lifecycle` self time per frame, µs.
    pub lifecycle_us: f64,
    /// `mcos.advance` per frame, µs.
    pub advance_us: f64,
    /// `mcos.compact` per frame, µs.
    pub compact_us: f64,
    /// `query` per frame, µs.
    pub query_us: f64,
    /// The enclosing observe span per frame, µs.
    pub observe_us: f64,
}

impl LayerCosts {
    /// Sums the span log into per-frame costs.
    pub fn from_spans(spans: &SpanLog, frames: u64) -> Self {
        let per = |layer: &str| spans.total_us(layer) / frames.max(1) as f64;
        LayerCosts {
            frames,
            lifecycle_us: per(LIFECYCLE),
            advance_us: per(ADVANCE),
            compact_us: per(COMPACT),
            query_us: per(QUERY),
            observe_us: per(OBSERVE),
        }
    }

    /// The observe span's self time: what the child spans do not cover.
    pub fn residual_us(&self) -> f64 {
        self.observe_us - self.lifecycle_us - self.advance_us - self.compact_us - self.query_us
    }
}
