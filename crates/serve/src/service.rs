//! The service façade: one struct that owns K partitions of the app-id
//! space (each a feature store, a verdict cache and a metrics registry),
//! the [`ControlPlane`] they share (model epoch pointer and
//! known-malicious names), and exposes the two verbs that matter —
//! `ingest(event)` and `classify(app)`.
//!
//! ## Concurrency shape
//!
//! Both verbs run to completion on the caller's thread; the service owns
//! no threads.
//!
//! * **Ingest** applies the event to its owner partition's store:
//!   wait-free apart from one shard write lock, and it never touches the
//!   cache (invalidation is by generation stamp, see [`crate::cache`]).
//!   An app has exactly one owner partition, so the caller's order is the
//!   per-app apply order.
//! * **Classify** probes the owner partition's verdict cache and, on a
//!   miss, snapshots the features and evaluates the model right there —
//!   about a microsecond of work, less than any thread hand-off would
//!   cost. Concurrent callers contend only on shard locks. A panic while
//!   scoring is caught and answered with [`ServeError::Internal`]: it
//!   costs that one call, never the caller's thread. Overload is the
//!   transport's business (the network edge's accept gate and TCP flow
//!   control), not a queue in here.
//! * **Known-name growth** ([`FrappeService::flag_name`]) takes the one
//!   write lock and bumps the shared known-generation, lazily
//!   invalidating every cached verdict in every partition (a new name
//!   can flip any app's collision bit).
//!
//! ## Partitions
//!
//! [`ServeConfig::groups`] sets K (default 1). At K = 1 the one partition
//! is the whole service: no hash, no route spans, and
//! [`FrappeService::obs_registry`] is the partition's own registry. At
//! K > 1 an app's owner comes from `router::group_index`, classify
//! traces record the routing decision, and the per-partition registries
//! merge into one scrape ([`FrappeService::exposition`]). Swaps and name
//! flags go through the shared control plane, so they stay atomic across
//! partitions.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel, SharedKnownNames, SharedModel, VersionedModel};
use frappe_obs::{
    AuditLog, AuditSource, Counter, Registry, RegistrySnapshot, SpanId, TraceCollector, TraceFlag,
    TraceHandle,
};
use osn_types::ids::AppId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use url_services::shortener::Shortener;

use crate::cache::{CacheLookup, VerdictCache};
use crate::control::{ControlPlane, ControlStamp};
use crate::event::ServeEvent;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::router::{group_index, merge_expositions, SHARED_FAMILIES};
use crate::store::{FeatureSnapshot, FeatureStore};

/// Tuning knobs for one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Partitions of the app-id space (K). Each owns a store, cache and
    /// registry.
    pub groups: usize,
    /// Feature-store and cache shards per partition (lock granularity).
    pub shards: usize,
    /// Retry hint a transport hands to the clients it sheds (ms).
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            groups: 1,
            shards: 4,
            retry_after_ms: 5,
        }
    }
}

/// The service's answer for one app.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The classified app.
    pub app: AppId,
    /// FRAppE's call: malicious?
    pub malicious: bool,
    /// Raw SVM decision value (positive ⇒ malicious); ranks severity.
    pub decision_value: f64,
    /// Feature-store generation the verdict scored — pin it to the
    /// evidence it was based on.
    pub generation: u64,
    /// Registry version of the model that scored it — pins the verdict
    /// to the model across hot swaps.
    pub model_version: u64,
}

/// Why a classify call did not produce a verdict.
///
/// Serializes externally tagged — `{"UnknownApp": 404}`,
/// `{"Overloaded": {"retry_after_ms": 5}}`, `"ShuttingDown"`,
/// `"Internal"` — which is the wire format the network edge's
/// [`ErrorEnvelope`] carries; the envelope test pins it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeError {
    /// No event has ever mentioned this app.
    UnknownApp(AppId),
    /// The transport is at capacity; retry after the hinted delay. The
    /// service itself never sheds: the network edge answers with this
    /// at its accept gate.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The service is shutting down.
    ShuttingDown,
    /// Scoring panicked; this request failed, the service did not.
    Internal,
}

/// The stable JSON error body every transport shares: the HTTP edge
/// (`frappe-net`) writes it, `loadgen --connect` parses it back, and the
/// wire format is pinned by a unit test here so neither can drift.
///
/// `retry_after_ms` is hoisted to the top level for [`ServeError::Overloaded`]
/// (and `null` otherwise) so a client can honour backpressure without
/// knowing the full error vocabulary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// The error, externally tagged (see [`ServeError`]).
    pub error: ServeError,
    /// Copy of the retry hint when the error is `Overloaded`.
    pub retry_after_ms: Option<u64>,
}

impl ErrorEnvelope {
    /// Wraps an error, hoisting the retry hint.
    pub fn new(error: ServeError) -> Self {
        let retry_after_ms = match &error {
            ServeError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        };
        ErrorEnvelope {
            error,
            retry_after_ms,
        }
    }
}

impl From<ServeError> for ErrorEnvelope {
    fn from(error: ServeError) -> Self {
        ErrorEnvelope::new(error)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownApp(app) => write!(f, "app {app:?} has never been observed"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "at capacity; retry after {retry_after_ms}ms")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Internal => write!(f, "internal error while scoring"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One partition of the app-id space: a private store, verdict cache and
/// metrics registry, plus the control-plane handles every partition
/// scores through (partitions share nothing else).
pub(crate) struct ScoreEngine {
    model: SharedModel,
    store: FeatureStore,
    cache: VerdictCache,
    known: SharedKnownNames,
    shortener: Shortener,
    metrics: Metrics,
    audit: RwLock<Option<Arc<AuditLog>>>,
}

impl ScoreEngine {
    fn new(control: &ControlPlane, shortener: Shortener, config: &ServeConfig) -> Self {
        let engine = ScoreEngine {
            model: control.model_handle(),
            store: FeatureStore::new(config.shards),
            cache: VerdictCache::new(config.shards),
            known: control.known_names(),
            shortener,
            metrics: Metrics::default(),
            audit: RwLock::new(None),
        };
        engine.metrics.set_model_version(engine.model.version());
        engine
    }

    /// Cache-or-score one app on the caller's thread, recording
    /// serve-side spans into the request's trace when one rides along: a
    /// zero-length `serve/queue` (nothing queues, but trace readers keep
    /// one shape), then `serve/score`, with `serve/model_eval` under it
    /// when the verdict is scored fresh.
    fn score_traced(
        &self,
        app: AppId,
        trace: Option<&ClassifyTrace>,
    ) -> Result<Verdict, ServeError> {
        let score_span = trace.map(|ctx| {
            let now = ctx.handle.now_micros();
            ctx.handle.span_at("serve/queue", ctx.parent(), now, now);
            ctx.handle.start_span("serve/score", ctx.parent())
        });
        let outcome = self.score_inner(app, trace, score_span);
        if let (Some(ctx), Some(span)) = (trace, score_span) {
            ctx.handle.end_span(span);
        }
        outcome
    }

    fn score_inner(
        &self,
        app: AppId,
        trace: Option<&ClassifyTrace>,
        score_span: Option<SpanId>,
    ) -> Result<Verdict, ServeError> {
        let _span = frappe_obs::span("serve/score");
        // the probe: store generation, known-names generation, model
        // epoch, then the stamped lookup — no feature build
        let app_gen = self
            .store
            .generation_of(app)
            .ok_or(ServeError::UnknownApp(app))?;
        let model_epoch = self.model.epoch();
        match self
            .cache
            .lookup(app, app_gen, self.known.generation(), model_epoch)
        {
            CacheLookup::Hit(hit) => {
                self.metrics.cache_hit();
                if let Some(ctx) = trace {
                    ctx.handle
                        .event("cache_hit", format!("gen={app_gen} epoch={model_epoch}"));
                }
                return Ok(hit);
            }
            CacheLookup::MissCold => {
                self.metrics.cache_miss();
                if let Some(ctx) = trace {
                    ctx.handle.event("cache_miss", "cold");
                }
            }
            CacheLookup::MissStale { epoch_stale } => {
                self.metrics.cache_miss();
                if epoch_stale {
                    self.metrics.stale_epoch_rescore();
                }
                if let Some(ctx) = trace {
                    // a stale-epoch re-score is tail-sampling-interesting:
                    // it is the request that pays for a hot swap
                    if epoch_stale {
                        ctx.handle.flag(TraceFlag::StaleEpoch);
                    }
                    ctx.handle.event(
                        "cache_miss",
                        if epoch_stale {
                            "stale_epoch"
                        } else {
                            "stale_generation"
                        },
                    );
                }
            }
        }

        // slow path: pin the model once (version, epoch, and weights stay
        // consistent even if a swap lands mid-score), then snapshot under
        // the known-names read lock so the generation we stamp matches
        // the set we actually consulted
        let eval_span = trace.map(|ctx| ctx.handle.start_span("serve/model_eval", score_span));
        let vm = self.model.current();
        let (snapshot, known_gen) = self
            .known
            .with(|known, known_gen| (self.store.snapshot(app, known), known_gen));
        let FeatureSnapshot {
            features,
            generation,
        } = match snapshot {
            Some(snapshot) => snapshot,
            None => {
                if let (Some(ctx), Some(span)) = (trace, eval_span) {
                    ctx.handle.end_span(span);
                }
                return Err(ServeError::UnknownApp(app));
            }
        };
        self.metrics.lanes_unobserved(&features);
        // Scores on the packed SIMD engine (warmed at install/swap time);
        // backend selection — exact / simd / rff — is process-wide, see
        // `frappe::scoring`.
        let decision_value = vm.model().decision_value(&features);
        if let (Some(ctx), Some(span)) = (trace, eval_span) {
            ctx.handle.end_span(span);
        }
        let verdict = Verdict {
            app,
            malicious: decision_value >= 0.0,
            decision_value,
            generation,
            model_version: vm.version(),
        };
        // Fresh scores are auditable: linear models decompose into
        // per-feature contributions (cache hits replay an already-audited
        // score, so they do not re-emit).
        if let Some(log) = self.audit.read().clone() {
            if let Some(explanation) = vm.model().explain(&features) {
                let mut record =
                    explanation.into_audit_record(AuditSource::Online, Some(generation));
                record.model_version = Some(vm.version());
                log.record(record);
            }
        }
        self.cache
            .put(app, verdict.clone(), generation, known_gen, vm.epoch());
        Ok(verdict)
    }
}

/// The trace one classify records into.
///
/// `owned == true` means the service minted it (an in-process caller, no
/// edge) and finishes it before returning; `false` means an edge handed
/// its own trace in and finishes it once the response is written.
/// `group_span` is the `route/group_score` span of a query routed to one
/// of several partitions: it parents the serve-side spans.
struct ClassifyTrace {
    handle: TraceHandle,
    root: Option<SpanId>,
    owned: bool,
    group_span: Option<SpanId>,
}

impl ClassifyTrace {
    /// The span serve-side spans hang off: the group span when routed,
    /// else the root (the edge's request span or the self-minted one).
    fn parent(&self) -> Option<SpanId> {
        self.group_span.or(self.root)
    }

    /// Records the outcome and closes what this classify opened; a
    /// self-minted trace finishes here.
    fn settle(&self, outcome: &Result<Verdict, ServeError>) {
        match outcome {
            Ok(v) => self.handle.event(
                "verdict",
                format!(
                    "malicious={} model_version={}",
                    v.malicious, v.model_version
                ),
            ),
            Err(e) => self.handle.event("serve_error", e.to_string()),
        }
        if let Some(span) = self.group_span {
            self.handle.end_span(span);
        }
        if self.owned {
            if let Some(root) = self.root {
                self.handle.end_span(root);
            }
            self.handle.finish(match outcome {
                Ok(_) => "ok",
                Err(ServeError::UnknownApp(_)) => "unknown_app",
                Err(ServeError::Overloaded { .. }) => "overloaded",
                Err(ServeError::ShuttingDown) => "shutting_down",
                Err(ServeError::Internal) => "internal",
            });
        }
    }
}

/// The online FRAppE classification service.
pub struct FrappeService {
    control: ControlPlane,
    /// One engine per partition; index = group.
    parts: Vec<ScoreEngine>,
    config: ServeConfig,
    /// The one partition's registry at K = 1; at K > 1 a base registry
    /// whose scrape [`exposition`](Self::exposition) merges with every
    /// partition's.
    registry: Arc<Registry>,
    /// `route_classify_forwarded{group}`, one lane per partition; empty at
    /// K = 1, where a single partition routes nothing.
    classify_forwarded: Vec<Arc<Counter>>,
    trace: RwLock<Option<TraceCollector>>,
}

impl FrappeService {
    /// Builds a service around a pre-trained model.
    ///
    /// `known` seeds the name-collision list (it grows via
    /// [`flag_name`](Self::flag_name)); `shortener` resolves shortened
    /// links at ingest, exactly as the batch extractor does.
    ///
    /// # Panics
    /// Panics if `config` has zero groups or shards.
    pub fn new(
        model: FrappeModel,
        known: KnownMaliciousNames,
        shortener: Shortener,
        config: ServeConfig,
    ) -> Self {
        Self::with_shared_model(SharedModel::new(model, 1), known, shortener, config)
    }

    /// Builds a service that scores through an externally owned
    /// [`SharedModel`] handle — the lifecycle layer's entry point. A
    /// registry keeps a clone of the handle and promotes or rolls back by
    /// swapping it; the service observes every swap through the epoch
    /// stamp, so no cached verdict survives a swap.
    ///
    /// # Panics
    /// Panics if `config` has zero groups or shards.
    pub fn with_shared_model(
        model: SharedModel,
        known: KnownMaliciousNames,
        shortener: Shortener,
        config: ServeConfig,
    ) -> Self {
        assert!(config.groups > 0, "a service needs at least one group");
        // Pack the scoring representation now, not on the first verdict:
        // the hot path (`score_inner`) should only ever see a warmed model.
        model.current().model().warm();
        // One control plane, every partition scoring through its handles:
        // a swap or a flagged name reaches all of them at the same instant.
        let control = ControlPlane::with_shared_model(model, known);
        let parts: Vec<ScoreEngine> = (0..config.groups)
            .map(|_| ScoreEngine::new(&control, shortener.clone(), &config))
            .collect();
        let (registry, classify_forwarded) = if config.groups == 1 {
            (Arc::clone(parts[0].metrics.registry()), Vec::new())
        } else {
            let registry = Arc::new(Registry::new());
            let lanes = (0..config.groups)
                .map(|g| {
                    registry.counter_with("route_classify_forwarded", &[("group", &g.to_string())])
                })
                .collect();
            (registry, lanes)
        };
        registry
            .gauge("route_groups")
            .set(config.groups.min(i64::MAX as usize) as i64);
        control.publish(&registry);
        FrappeService {
            control,
            parts,
            config,
            registry,
            classify_forwarded,
            trace: RwLock::new(None),
        }
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of partitions (K, from [`ServeConfig::groups`]).
    pub fn group_count(&self) -> usize {
        self.parts.len()
    }

    /// The partition that owns `app` (always 0 at K = 1).
    pub fn group_of(&self, app: AppId) -> usize {
        match self.parts.len() {
            1 => 0,
            groups => group_index(app, groups),
        }
    }

    /// Whether classifies are routed across more than one partition.
    fn routed(&self) -> bool {
        self.parts.len() > 1
    }

    /// Current control version vector.
    pub fn control_stamp(&self) -> ControlStamp {
        self.control.stamp()
    }

    /// Applies one event to its owner partition's feature store, on the
    /// caller's thread. Per-app order is the caller's order: an app has
    /// exactly one owner partition.
    pub fn ingest(&self, event: &ServeEvent) {
        let _span = frappe_obs::span("serve/ingest");
        let engine = &self.parts[self.group_of(event.app())];
        engine.store.apply(event, &engine.shortener);
        engine.metrics.event_ingested();
    }

    /// Classifies one app on the caller's thread: a verdict-cache probe
    /// and, on a miss, one feature snapshot and one model evaluation.
    ///
    /// A panic while scoring is caught and answered with
    /// [`ServeError::Internal`] (counted in the `rejected` metric): it
    /// costs this call, not the caller's thread.
    pub fn classify(&self, app: AppId) -> Result<Verdict, ServeError> {
        self.classify_traced(app, None)
    }

    /// [`classify`](Self::classify) with explicit trace plumbing. The edge
    /// passes its own `(handle, parent span)` so serve-side spans
    /// (`serve/queue`, `serve/score`, `serve/model_eval`) land causally
    /// under the edge's request span; with `None` and a collector
    /// attached (see [`set_trace_collector`](Self::set_trace_collector))
    /// the service mints a `classify` trace of its own and finishes it
    /// before returning.
    ///
    /// With more than one partition the trace also records the routing
    /// decision (a `route` event naming the owner group), a
    /// `route/forward` span over the hand-off, and a `route/group_score`
    /// span over the owner's work that parents the serve-side spans.
    pub fn classify_traced(
        &self,
        app: AppId,
        edge_trace: Option<(TraceHandle, Option<SpanId>)>,
    ) -> Result<Verdict, ServeError> {
        let start = Instant::now();
        let g = self.group_of(app);
        let mut trace = match edge_trace {
            Some((handle, parent)) => Some(ClassifyTrace {
                handle,
                root: parent,
                owned: false,
                group_span: None,
            }),
            None => self.trace.read().clone().map(|collector| {
                let handle = collector.begin("classify");
                let root = if self.routed() {
                    handle.start_span("route/classify", None)
                } else {
                    handle.start_span("serve/classify", None)
                };
                ClassifyTrace {
                    handle,
                    root: Some(root),
                    owned: true,
                    group_span: None,
                }
            }),
        };
        if let Some(forwarded) = self.classify_forwarded.get(g) {
            forwarded.inc();
            if let Some(t) = &mut trace {
                t.handle.event("route", format!("group={g}"));
                let forward = t.handle.start_span("route/forward", t.root);
                t.group_span = Some(t.handle.start_span("route/group_score", t.root));
                t.handle.end_span(forward);
            }
        }
        let engine = &self.parts[g];
        // Nothing the scorer touches is left half-written by a panic: the
        // store and cache locks are not poisoned (`parking_lot`), and the
        // cache put is the last step.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            engine.score_traced(app, trace.as_ref())
        }))
        .unwrap_or(Err(ServeError::Internal));
        match &outcome {
            Ok(_) => {
                let exemplar = trace.as_ref().map_or(0, |t| t.handle.id().as_u64());
                engine
                    .metrics
                    .query_served_traced(start.elapsed(), exemplar);
            }
            Err(ServeError::Internal) => engine.metrics.rejected(),
            Err(_) => {}
        }
        if let Some(t) = &trace {
            t.settle(&outcome);
        }
        outcome
    }

    /// Adds an app name to the known-malicious collision list (§4.2.1's
    /// online growth: flag an app, catch its look-alikes immediately).
    /// Returns whether the normalized name was new.
    ///
    /// Bumps the shared known-generation, so every cached verdict in
    /// every partition is invalidated lazily — a new name can flip any
    /// app's collision feature.
    pub fn flag_name(&self, name: &str) -> bool {
        self.control.flag_name(name)
    }

    /// Hot-swaps the scoring model (a promotion or a rollback), returning
    /// the displaced `(version, epoch, model)` triple. The swap is one
    /// store to the shared epoch pointer, observed by every partition at
    /// the same instant; the epoch bump lazily invalidates every cached
    /// verdict — in-flight scores finish on whichever model they pinned,
    /// but their cache entries can never satisfy a post-swap lookup. Each
    /// partition republishes its model-version gauge and bumps its swap
    /// counter.
    pub fn swap_model(&self, model: Arc<FrappeModel>, version: u64) -> Arc<VersionedModel> {
        // Pack before the pointer flip: the first post-swap verdict must
        // not pay the flatten while a burst is in flight.
        model.warm();
        let old = self.control.swap_model(model, version);
        for engine in &self.parts {
            engine.metrics.model_swapped(version);
        }
        old
    }

    /// The shared model handle the service scores through. A lifecycle
    /// registry holds a clone and swaps it; swaps through either handle
    /// are observed identically.
    pub fn model_handle(&self) -> SharedModel {
        self.control.model_handle()
    }

    /// Eagerly drops every cached verdict (fresh or stale) in every
    /// partition, returning the eviction count. Stale entries normally
    /// die lazily by stamp mismatch; this reclaims their memory after a
    /// model retires.
    pub fn clear_verdict_cache(&self) -> usize {
        self.parts
            .iter()
            .map(|engine| {
                let dropped = engine.cache.clear();
                engine.metrics.cache_evicted(dropped as u64);
                dropped
            })
            .sum()
    }

    /// Shared handle to the known-malicious name set the service scores
    /// against. Batch extraction over the same corpus should read through
    /// this handle (not a private copy), so a name flagged mid-stream
    /// flips the collision feature identically on both paths — the
    /// asymmetry `tests/serve_parity.rs` guards against.
    pub fn known_names(&self) -> SharedKnownNames {
        self.control.known_names()
    }

    /// Current feature row for one app, read from its owner partition
    /// without scoring it. This is the parity-test window into the
    /// incremental store.
    pub fn features(&self, app: AppId) -> Option<AppFeatures> {
        let engine = &self.parts[self.group_of(app)];
        engine
            .known
            .with(|known, _| engine.store.snapshot(app, known))
            .map(|s| s.features)
    }

    /// Apps the service has evidence for, sorted (each app has one owner
    /// partition, so this is a disjoint union).
    pub fn tracked_apps(&self) -> Vec<AppId> {
        let mut apps: Vec<AppId> = self
            .parts
            .iter()
            .flat_map(|engine| engine.store.tracked_apps())
            .collect();
        apps.sort_unstable();
        apps
    }

    /// Point-in-time metrics, summed over partitions where additive;
    /// `model_swaps` is the per-partition maximum, since every partition
    /// books each shared swap once.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshots = self.parts.iter().map(|engine| engine.metrics.snapshot());
        let mut merged = snapshots
            .next()
            .expect("a service has at least one partition");
        for snapshot in snapshots {
            merged.absorb(&snapshot);
        }
        merged
    }

    /// The base registry: where the network edge and the lifecycle layer
    /// register their own instruments, so one scrape shows the whole
    /// process. At K = 1 it also holds the `serve_*` families; at K > 1
    /// those live in per-partition registries and
    /// [`exposition`](Self::exposition) merges them in.
    pub fn obs_registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The whole service's scrape: the base registry with fresh
    /// `control_*` gauges and, at K > 1, every partition's families
    /// merged in `group="<i>"` lanes plus an unlabelled sum per additive
    /// family. Gauges and `serve_model_swaps` (K views of one shared
    /// swap) are never summed.
    pub fn exposition(&self) -> RegistrySnapshot {
        self.control.publish(&self.registry);
        let base = self.registry.snapshot();
        if !self.routed() {
            return base;
        }
        let groups: Vec<RegistrySnapshot> = self
            .parts
            .iter()
            .map(|engine| engine.metrics.registry().snapshot())
            .collect();
        merge_expositions(base, &groups, SHARED_FAMILIES)
    }

    /// Attach an audit sink: every *freshly scored* verdict (cache misses
    /// only) emits a per-feature contribution record, provided the model
    /// has a linear kernel. Non-linear models (the paper's RBF default)
    /// emit nothing — their decision values have no exact per-feature
    /// decomposition.
    pub fn set_audit_log(&self, log: Arc<AuditLog>) {
        for engine in &self.parts {
            *engine.audit.write() = Some(Arc::clone(&log));
        }
    }

    /// Detach the audit sink, returning it if one was attached.
    pub fn take_audit_log(&self) -> Option<Arc<AuditLog>> {
        self.parts
            .iter()
            .fold(None, |log, engine| log.or(engine.audit.write().take()))
    }

    /// Attach a trace collector: every in-process
    /// [`classify`](Self::classify) call mints a `classify` trace (edges
    /// pass their own trace through
    /// [`classify_traced`](Self::classify_traced) instead and are
    /// unaffected). Tracing only observes — verdicts are bit-identical
    /// with and without a collector attached.
    pub fn set_trace_collector(&self, collector: TraceCollector) {
        *self.trace.write() = Some(collector);
    }

    /// The attached trace collector, if any (clones share state).
    pub fn trace_collector(&self) -> Option<TraceCollector> {
        self.trace.read().clone()
    }

    /// Detach the trace collector, returning it if one was attached.
    pub fn take_trace_collector(&self) -> Option<TraceCollector> {
        self.trace.write().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frappe::features::aggregation::AggregationFeatures;
    use frappe::{FeatureSet, OnDemandFeatures};
    use frappe_obs::TraceConfig;

    fn prototypes() -> (AppFeatures, AppFeatures) {
        let benign = AppFeatures {
            app: AppId(1),
            on_demand: OnDemandFeatures {
                has_category: Some(true),
                has_company: Some(true),
                has_description: Some(true),
                has_profile_posts: Some(true),
                permission_count: Some(6),
                client_id_mismatch: Some(false),
                redirect_wot_score: Some(94.0),
            },
            aggregation: AggregationFeatures {
                name_matches_known_malicious: false,
                external_link_ratio: Some(0.0),
            },
        };
        let malicious = AppFeatures {
            app: AppId(2),
            on_demand: OnDemandFeatures {
                has_category: Some(false),
                has_company: Some(false),
                has_description: Some(false),
                has_profile_posts: Some(false),
                permission_count: Some(1),
                client_id_mismatch: Some(true),
                redirect_wot_score: Some(-1.0),
            },
            aggregation: AggregationFeatures {
                name_matches_known_malicious: true,
                external_link_ratio: Some(1.0),
            },
        };
        (benign, malicious)
    }

    fn tiny_model() -> FrappeModel {
        let (benign, malicious) = prototypes();
        let samples: Vec<AppFeatures> = (0..4).flat_map(|_| [benign, malicious]).collect();
        let labels: Vec<bool> = (0..4).flat_map(|_| [false, true]).collect();
        FrappeModel::train(&samples, &labels, FeatureSet::Full, None)
    }

    /// Same prototypes, labels flipped: calls textbook-malicious apps
    /// benign. Swapping to it must visibly change verdicts.
    fn inverted_model() -> FrappeModel {
        let (benign, malicious) = prototypes();
        let samples: Vec<AppFeatures> = (0..4).flat_map(|_| [benign, malicious]).collect();
        let labels: Vec<bool> = (0..4).flat_map(|_| [true, false]).collect();
        FrappeModel::train(&samples, &labels, FeatureSet::Full, None)
    }

    fn service() -> FrappeService {
        FrappeService::new(
            tiny_model(),
            KnownMaliciousNames::from_names(["profile viewer"]),
            Shortener::bitly(),
            ServeConfig {
                groups: 1,
                shards: 2,
                retry_after_ms: 1,
            },
        )
    }

    fn feed_malicious(svc: &FrappeService, app: AppId) {
        svc.ingest(&ServeEvent::Registered {
            app,
            name: "Profile Viewer".into(),
        });
        svc.ingest(&ServeEvent::OnDemand {
            app,
            features: OnDemandFeatures {
                has_category: Some(false),
                has_company: Some(false),
                has_description: Some(false),
                has_profile_posts: Some(false),
                permission_count: Some(1),
                client_id_mismatch: Some(true),
                redirect_wot_score: Some(-1.0),
            },
        });
        for _ in 0..3 {
            svc.ingest(&ServeEvent::Post {
                app,
                link: Some(osn_types::url::Url::parse("http://scam.com/x").unwrap()),
            });
        }
    }

    #[test]
    fn classify_answers_and_caches() {
        let svc = service();
        let app = AppId(7);
        feed_malicious(&svc, app);
        let v1 = svc.classify(app).unwrap();
        assert!(v1.malicious, "textbook-malicious evidence");
        let v2 = svc.classify(app).unwrap();
        assert_eq!(v1, v2);
        let m = svc.metrics();
        assert_eq!(m.queries_served, 2);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 1);
        assert!((m.cache_hit_ratio - 0.5).abs() < 1e-12);
        assert_eq!(m.events_ingested, 5);
    }

    #[test]
    fn unknown_app_is_an_error_not_a_guess() {
        let svc = service();
        assert_eq!(
            svc.classify(AppId(404)),
            Err(ServeError::UnknownApp(AppId(404)))
        );
    }

    #[test]
    fn new_evidence_invalidates_the_cached_verdict() {
        let svc = service();
        let app = AppId(3);
        feed_malicious(&svc, app);
        let _ = svc.classify(app).unwrap();
        svc.ingest(&ServeEvent::Post { app, link: None }); // bumps generation
        let _ = svc.classify(app).unwrap();
        let m = svc.metrics();
        assert_eq!(m.cache_misses, 2, "second query re-scored");
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn flagging_a_name_flips_lookalikes_and_invalidates() {
        let svc = service();
        let app = AppId(11);
        svc.ingest(&ServeEvent::Registered {
            app,
            name: "Totally Fine Game".into(),
        });
        let before = svc.features(app).unwrap();
        assert!(!before.aggregation.name_matches_known_malicious);
        let _ = svc.classify(app).unwrap();

        assert!(svc.flag_name("TOTALLY  fine game"));
        assert!(!svc.flag_name("totally fine game"), "already known");
        let after = svc.features(app).unwrap();
        assert!(after.aggregation.name_matches_known_malicious);

        let _ = svc.classify(app).unwrap();
        let m = svc.metrics();
        assert_eq!(m.cache_misses, 2, "known-generation bump evicted");
    }

    #[test]
    fn mid_stream_model_swap_serves_no_stale_verdicts() {
        let svc = service();
        let app = AppId(41);
        feed_malicious(&svc, app);
        let v1 = svc.classify(app).unwrap();
        assert!(v1.malicious, "incumbent flags the evidence");
        assert_eq!(v1.model_version, 1);
        let _ = svc.classify(app).unwrap(); // warm hit on the incumbent

        let old = svc.swap_model(Arc::new(inverted_model()), 2);
        assert_eq!(old.version(), 1);
        assert_eq!(old.epoch(), 0);

        let v2 = svc.classify(app).unwrap();
        assert_eq!(
            v2.model_version, 2,
            "post-swap verdict carries the new version"
        );
        assert!(!v2.malicious, "the inverted model flips the call");
        let m = svc.metrics();
        assert_eq!(m.cache_misses, 2, "the swap forced a re-score");
        assert_eq!(
            m.cache_hits, 1,
            "only the pre-swap hit; zero stale hits after"
        );
        assert_eq!(m.model_swaps, 1);
        assert_eq!(m.model_version, 2);
    }

    #[test]
    fn clearing_the_cache_counts_evictions() {
        let svc = service();
        for raw in [51u64, 52, 53] {
            let app = AppId(raw);
            feed_malicious(&svc, app);
            let _ = svc.classify(app).unwrap();
        }
        assert_eq!(svc.clear_verdict_cache(), 3);
        assert_eq!(svc.clear_verdict_cache(), 0, "already empty");
        assert_eq!(svc.metrics().cache_evictions, 3);
    }

    #[test]
    fn rbf_service_emits_no_audit_records() {
        // tiny_model trains the paper-default RBF kernel, which has no
        // per-feature decomposition — the sink must stay silent.
        let svc = service();
        let log = Arc::new(AuditLog::default());
        svc.set_audit_log(Arc::clone(&log));
        let app = AppId(21);
        feed_malicious(&svc, app);
        let _ = svc.classify(app).unwrap();
        assert!(log.is_empty());
        assert!(svc.take_audit_log().is_some());
        assert!(svc.take_audit_log().is_none());
    }

    #[test]
    fn registry_export_tracks_service_counters() {
        let svc = service();
        let app = AppId(31);
        feed_malicious(&svc, app);
        let _ = svc.classify(app).unwrap();
        let _ = svc.metrics();
        let text = svc.obs_registry().snapshot().to_prometheus_text();
        assert!(text.contains("serve_events_ingested 5"));
        assert!(text.contains("serve_queries_served 1"));
        assert!(text.contains("serve_query_latency_micros_count 1"));
    }

    /// The envelope is a wire contract between the HTTP edge and every
    /// client (`loadgen --connect`, curl users): these exact byte strings
    /// are what travels, so a serde or field-order change here is a
    /// breaking API change and must fail loudly.
    #[test]
    fn error_envelope_wire_format_is_pinned() {
        let overloaded = ErrorEnvelope::new(ServeError::Overloaded { retry_after_ms: 7 });
        let json = serde_json::to_string(&overloaded).unwrap();
        assert_eq!(
            json,
            r#"{"error":{"Overloaded":{"retry_after_ms":7}},"retry_after_ms":7}"#
        );
        assert_eq!(
            serde_json::from_str::<ErrorEnvelope>(&json).unwrap(),
            overloaded
        );

        let unknown = ErrorEnvelope::new(ServeError::UnknownApp(AppId(404)));
        let json = serde_json::to_string(&unknown).unwrap();
        assert_eq!(
            json,
            r#"{"error":{"UnknownApp":404},"retry_after_ms":null}"#
        );
        assert_eq!(
            serde_json::from_str::<ErrorEnvelope>(&json).unwrap(),
            unknown
        );

        let down = ErrorEnvelope::new(ServeError::ShuttingDown);
        let json = serde_json::to_string(&down).unwrap();
        assert_eq!(json, r#"{"error":"ShuttingDown","retry_after_ms":null}"#);
        assert_eq!(serde_json::from_str::<ErrorEnvelope>(&json).unwrap(), down);

        let internal = ErrorEnvelope::new(ServeError::Internal);
        let json = serde_json::to_string(&internal).unwrap();
        assert_eq!(json, r#"{"error":"Internal","retry_after_ms":null}"#);
        assert_eq!(
            serde_json::from_str::<ErrorEnvelope>(&json).unwrap(),
            internal
        );
    }

    /// A model whose SVM was fitted on another feature dimension: every
    /// fresh score trips `svm`'s dimension-mismatch assertion.
    fn panicking_model() -> FrappeModel {
        let good = tiny_model();
        let wrong_dim =
            svm::SvmModel::new(svm::Kernel::linear(), vec![vec![0.5; 3]], vec![1.0], 0.0);
        FrappeModel::from_parts(
            FeatureSet::Full,
            good.imputation().clone(),
            good.scaler().clone(),
            wrong_dim,
        )
    }

    #[test]
    fn a_scoring_panic_costs_one_classify_and_is_counted() {
        let svc = service();
        let tc = TraceCollector::new(TraceConfig {
            head_every: 1,
            slow_us: 0,
            ..TraceConfig::default()
        });
        svc.set_trace_collector(tc.clone());
        let app = AppId(141);
        feed_malicious(&svc, app);
        let good = svc.classify(app).unwrap();

        svc.swap_model(Arc::new(panicking_model()), 2);
        assert_eq!(svc.classify(app), Err(ServeError::Internal));
        assert_eq!(svc.classify(app), Err(ServeError::Internal), "and again");
        let m = svc.metrics();
        assert_eq!(m.rejected, 2);
        assert_eq!(m.queries_served, 1, "only the good verdict was served");
        let failed = tc.snapshot().pop().unwrap();
        assert_eq!(failed.outcome, "internal");
        assert!(failed.events.iter().any(|e| e.name == "serve_error"));

        svc.swap_model(Arc::new(tiny_model()), 3);
        let again = svc.classify(app).unwrap();
        assert_eq!(
            again.decision_value.to_bits(),
            good.decision_value.to_bits()
        );
        assert_eq!(again.model_version, 3);
    }

    #[test]
    fn an_inline_hit_keeps_the_queued_trace_shape() {
        let svc = service();
        let tc = TraceCollector::new(TraceConfig {
            head_every: 1,
            slow_us: 0,
            ..TraceConfig::default()
        });
        svc.set_trace_collector(tc.clone());
        let app = AppId(131);
        feed_malicious(&svc, app);
        svc.classify(app).unwrap();
        svc.classify(app).unwrap();
        let kept = tc.snapshot();
        assert_eq!(kept.len(), 2);
        let (fresh, hit) = (&kept[0], &kept[1]);
        let span_names = |t: &frappe_obs::CompletedTrace| {
            let mut names: Vec<String> = t.spans.iter().map(|s| s.name.clone()).collect();
            names.sort_unstable();
            names
        };
        assert_eq!(
            span_names(hit),
            ["serve/classify", "serve/queue", "serve/score"],
            "a hit records the miss's spans minus the model eval"
        );
        assert!(span_names(fresh).iter().any(|n| n == "serve/model_eval"));
        let root = hit.span("serve/classify").unwrap();
        let queue = hit.span("serve/queue").unwrap();
        let score = hit.span("serve/score").unwrap();
        assert_eq!(queue.parent, Some(root.id));
        assert_eq!(score.parent, Some(root.id));
        assert_eq!(queue.start_us, queue.end_us, "nothing queues");
        assert!(score.start_us >= queue.end_us, "score follows the queue");
        assert!(hit.events.iter().any(|e| e.name == "cache_hit"));
        assert_eq!(hit.outcome, "ok");
    }

    #[test]
    fn tracked_apps_are_sorted() {
        let svc = service();
        for raw in [9u64, 2, 5] {
            svc.ingest(&ServeEvent::Registered {
                app: AppId(raw),
                name: format!("app {raw}"),
            });
        }
        assert_eq!(svc.tracked_apps(), vec![AppId(2), AppId(5), AppId(9)]);
    }

    #[test]
    fn traced_classify_records_causal_spans_and_cache_events() {
        let svc = service();
        let tc = TraceCollector::new(TraceConfig {
            head_every: 1, // keep everything — this test is about structure
            slow_us: 0,
            ..TraceConfig::default()
        });
        svc.set_trace_collector(tc.clone());
        let app = AppId(81);
        feed_malicious(&svc, app);
        let v1 = svc.classify(app).unwrap();
        let v2 = svc.classify(app).unwrap();
        assert_eq!(v1, v2, "tracing only observes");

        let kept = tc.snapshot();
        assert_eq!(kept.len(), 2);
        let fresh = &kept[0];
        assert_eq!(fresh.kind, "classify");
        assert_eq!(fresh.outcome, "ok");
        let root = fresh.span("serve/classify").unwrap();
        let queue = fresh.span("serve/queue").unwrap();
        let score = fresh.span("serve/score").unwrap();
        let eval = fresh.span("serve/model_eval").unwrap();
        assert_eq!(queue.parent, Some(root.id));
        assert_eq!(score.parent, Some(root.id));
        assert_eq!(eval.parent, Some(score.id), "model eval nests under score");
        assert!(fresh
            .events
            .iter()
            .any(|e| e.name == "cache_miss" && e.detail == "cold"));
        assert!(fresh.events.iter().any(|e| e.name == "verdict"));
        assert!(kept[1].events.iter().any(|e| e.name == "cache_hit"));

        // the settled latency observation carried the trace id, so the
        // scraped histogram names a real request per bucket
        let text = svc.obs_registry().snapshot().to_prometheus_text();
        assert!(
            text.contains("# {trace_id="),
            "latency bucket exemplar rendered:\n{text}"
        );
    }

    #[test]
    fn stale_epoch_rescore_is_tail_sampled_after_a_swap() {
        let svc = service();
        let tc = TraceCollector::new(TraceConfig {
            head_every: 0,
            slow_us: 0,
            ..TraceConfig::default()
        });
        svc.set_trace_collector(tc.clone());
        let app = AppId(95);
        feed_malicious(&svc, app);
        let _ = svc.classify(app).unwrap(); // cold miss: no flag, dropped
        svc.swap_model(Arc::new(inverted_model()), 2);
        let _ = svc.classify(app).unwrap(); // pays for the swap: tail-kept
        let kept = tc.snapshot();
        assert_eq!(kept.len(), 1);
        assert!(kept[0].has_flag(TraceFlag::StaleEpoch));
        assert!(kept[0].events.iter().any(|e| e.detail == "stale_epoch"));
        let text = svc.obs_registry().snapshot().to_prometheus_text();
        assert!(text.contains("serve_stale_epoch_rescores 1"));
    }
}
