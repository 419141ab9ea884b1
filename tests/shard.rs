//! Partitioned-service lifecycle: fenced swaps and shared control state
//! across K partitions (`ServeConfig::groups`).
//!
//! Two scenarios pin the shared-control invariants at the lifecycle
//! layer:
//!
//! * a **fenced promotion and rollback land on every group at once**,
//!   under concurrent classify load — no hammer thread ever observes a
//!   model version going backwards (the stale-epoch signature), the
//!   installed [`SwapFence`] runs exactly once per transition, and the
//!   whole deployment's lifecycle counters surface in one merged scrape;
//! * a **mid-stream known-names flip** reaches every group exactly like
//!   it reaches a single service: verdicts stay bit-identical between a
//!   one-group service and a K-group service before the flip, right
//!   after it (warm caches invalidated everywhere), and over the rest of
//!   the stream.
//!
//! The group count defaults to 3 (so apps genuinely span a group
//! boundary) and can be pinned with `FRAPPE_SHARD_GROUPS` — ci.sh runs
//! the suite at 1 and 4 to cover the degenerate and the scaled shapes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FrappeModel};
use frappe_lifecycle::{
    DriftConfig, DriftDetector, LifecycleManager, ModelRegistry, ModelSource, PromotionGate,
    PromotionOutcome, SwapFence,
};
use frappe_serve::{serve_events, FeatureStore, FrappeService, ServeConfig, ServeEvent};
use osn_types::ids::AppId;
use synth_workload::scenario::ScenarioWorld;
use synth_workload::{run_scenario, ScenarioConfig};

/// Group count under test: `FRAPPE_SHARD_GROUPS` pins it (ci.sh runs 1
/// and 4); the default of 3 guarantees a multi-group deployment.
fn shard_groups() -> usize {
    match std::env::var("FRAPPE_SHARD_GROUPS") {
        Ok(v) => v
            .parse()
            .expect("FRAPPE_SHARD_GROUPS must be a positive integer"),
        Err(_) => 3,
    }
}

fn shard_config() -> ServeConfig {
    ServeConfig {
        groups: shard_groups(),
        ..ServeConfig::default()
    }
}

/// Known-malicious name list from the world's ground truth.
fn known_names(world: &ScenarioWorld) -> KnownMaliciousNames {
    KnownMaliciousNames::from_names(
        world
            .truth
            .malicious
            .iter()
            .filter_map(|&a| world.platform.app(a))
            .map(|r| r.name().to_string()),
    )
}

/// Labelled feature rows computed through the incremental store (how a
/// retraining driver assembles its batch).
fn labelled_rows(
    world: &ScenarioWorld,
    known: &KnownMaliciousNames,
) -> (Vec<AppFeatures>, Vec<bool>) {
    let store = FeatureStore::new(4);
    for event in serve_events(world) {
        store.apply(&event, &world.shortener);
    }
    let mut samples = Vec::new();
    let mut labels = Vec::new();
    for app in store.tracked_apps() {
        let snap = store.snapshot(app, known).expect("tracked app has state");
        samples.push(snap.features);
        labels.push(world.truth.malicious.contains(&app));
    }
    (samples, labels)
}

/// A [`SwapFence`] that counts how often it ran. In-process classifies
/// score on their callers' threads and leave nothing queued between
/// calls, so unlike the network edge's drain/resume protocol there is
/// nothing to wait out: the swap runs at once.
struct CountingFence {
    entered: AtomicU64,
}

impl SwapFence for CountingFence {
    fn fenced(&self, swap: &mut dyn FnMut()) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        swap();
    }
}

#[test]
fn fenced_promote_and_rollback_are_atomic_across_groups_under_load() {
    let world = run_scenario(&ScenarioConfig::small());
    let known = known_names(&world);
    let (samples, labels) = labelled_rows(&world, &known);
    let apps: Vec<AppId> = samples.iter().map(|s| s.app).collect();

    // Incumbent trained on a stale half of the batch (every other row);
    // the candidate gets all of it.
    let half_samples: Vec<AppFeatures> = samples.iter().step_by(2).cloned().collect();
    let half_labels: Vec<bool> = labels.iter().step_by(2).copied().collect();
    let incumbent = FrappeModel::train(&half_samples, &half_labels, frappe::FeatureSet::Full, None);
    let candidate = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);

    let registry = ModelRegistry::new(incumbent, ModelSource::default());
    let service = Arc::new(FrappeService::with_shared_model(
        registry.handle(),
        known,
        world.shortener.clone(),
        shard_config(),
    ));
    for event in serve_events(&world) {
        service.ingest(&event);
    }
    let groups_hit: std::collections::BTreeSet<usize> =
        apps.iter().map(|&a| service.group_of(a)).collect();
    assert_eq!(
        groups_hit.len(),
        service.group_count().min(apps.len()),
        "the world's apps must exercise every group"
    );

    let manager = LifecycleManager::new(
        Arc::clone(&service),
        registry,
        // The gate is not under test — let the shadow through.
        PromotionGate {
            min_scored: 10,
            max_disagreement_rate: 1.0,
            max_false_positive_increase: 1.0,
            max_false_negative_increase: 1.0,
        },
        DriftDetector::new(DriftConfig::default()),
    );
    let fence = Arc::new(CountingFence {
        entered: AtomicU64::new(0),
    });
    manager.set_swap_fence(Arc::clone(&fence) as Arc<dyn SwapFence>);

    assert_eq!(
        manager.begin_shadow(Arc::new(candidate.clone()), ModelSource::default()),
        2
    );
    for (&app, &label) in apps.iter().zip(&labels) {
        manager
            .classify_labelled(app, Some(label))
            .expect("tracked app");
    }

    // Hammer every group while the promotion lands. The zero-stale
    // invariant, per thread: once any verdict carries v2, no later one
    // may carry v1 — the swap is one shared pointer, and the epoch bump
    // kills every pre-swap cache entry in every group.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..3)
            .map(|t| {
                let service = &service;
                let apps = &apps;
                let stop = &stop;
                s.spawn(move || {
                    let mut versions = Vec::new();
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let app = apps[i % apps.len()];
                        i += 7;
                        match service.classify(app) {
                            Ok(v) => versions.push(v.model_version),
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                    versions
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(manager.try_promote(), PromotionOutcome::Promoted(2));
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        for worker in workers {
            let versions = worker.join().expect("hammer thread");
            assert!(!versions.is_empty(), "thread observed no verdicts");
            for pair in versions.windows(2) {
                assert!(
                    pair[0] <= pair[1],
                    "stale-epoch verdict: v{} served after v{}",
                    pair[1],
                    pair[0]
                );
            }
            assert_eq!(*versions.last().unwrap(), 2, "promotion reached the thread");
        }
    });
    assert_eq!(fence.entered.load(Ordering::SeqCst), 1, "promote fenced");

    // Settled: every app, whatever its owner group, serves the candidate
    // bit-exactly.
    for &app in &apps {
        let verdict = service.classify(app).expect("tracked app");
        assert_eq!(verdict.model_version, 2);
        assert_eq!(
            verdict.decision_value.to_bits(),
            candidate
                .decision_value(&service.features(app).expect("tracked"))
                .to_bits(),
            "post-swap verdicts come from the candidate"
        );
    }

    // Rollback runs through the same fence; v1 serves again at a fresh
    // epoch, so nothing cached under v2 survives in any group.
    let epoch_before = service.control_stamp().model_epoch;
    assert_eq!(manager.rollback().expect("history has v1"), 1);
    assert_eq!(fence.entered.load(Ordering::SeqCst), 2, "rollback fenced");
    let stamp = service.control_stamp();
    assert_eq!(stamp.model_version, 1);
    assert_eq!(stamp.model_epoch, epoch_before + 1);
    for &app in &apps {
        assert_eq!(service.classify(app).expect("tracked").model_version, 1);
    }

    // Merged metrics: each group booked the two shared swaps once (max,
    // not sum), and the lifecycle counters — which live on the service's
    // base registry — surface in the one merged scrape.
    let merged = service.metrics();
    assert_eq!(merged.model_swaps, 2);
    assert_eq!(merged.model_version, 1);
    let text = service.exposition().to_prometheus_text();
    assert!(text.contains("lifecycle_promotions 1"), "scrape: {text}");
    assert!(text.contains("lifecycle_rollbacks 1"));
    assert!(text.contains("control_model_version 1"));
    assert!(text.contains(&format!("route_groups {}", service.group_count())));
}

#[test]
fn a_mid_stream_name_flip_reaches_every_group_exactly_like_a_single_service() {
    let world = run_scenario(&ScenarioConfig::small());
    // Both deployments start with NO known names — the flip arrives live,
    // against warm caches.
    let (samples, labels) = labelled_rows(&world, &KnownMaliciousNames::default());
    let model = FrappeModel::train(&samples, &labels, frappe::FeatureSet::Full, None);

    let single = FrappeService::new(
        model.clone(),
        KnownMaliciousNames::default(),
        world.shortener.clone(),
        ServeConfig::default(),
    );
    let grouped = FrappeService::new(
        model,
        KnownMaliciousNames::default(),
        world.shortener.clone(),
        shard_config(),
    );

    let events: Vec<ServeEvent> = serve_events(&world);
    let (first, second) = events.split_at(events.len() / 2);
    for event in first {
        single.ingest(event);
        grouped.ingest(event);
    }

    let parity = |phase: &str| {
        let tracked = grouped.tracked_apps();
        assert_eq!(tracked, single.tracked_apps(), "{phase}: same ownership");
        for app in tracked {
            let a = single.classify(app).expect("tracked on the service");
            let b = grouped.classify(app).expect("tracked on the grouped");
            assert_eq!(
                (
                    a.decision_value.to_bits(),
                    a.malicious,
                    a.generation,
                    a.model_version
                ),
                (
                    b.decision_value.to_bits(),
                    b.malicious,
                    b.generation,
                    b.model_version
                ),
                "{phase}: app {app:?} diverged across the group boundary"
            );
        }
    };
    parity("pre-flip");

    // Flag a tracked app's own name on both deployments: its collision
    // feature must flip, in whichever group owns it.
    let victim = grouped.tracked_apps()[0];
    let flagged = world
        .platform
        .app(victim)
        .expect("tracked apps exist in the platform")
        .name()
        .to_string();
    assert!(
        single.flag_name(&flagged),
        "fresh name on the one-group service"
    );
    assert!(
        grouped.flag_name(&flagged),
        "fresh name on the shared plane"
    );
    assert_eq!(grouped.control_stamp().known_generation, 1);
    assert!(
        grouped
            .features(victim)
            .expect("tracked")
            .aggregation
            .name_matches_known_malicious,
        "the flip reached the victim's owner group"
    );
    parity("post-flip (warm caches invalidated everywhere)");

    // The rest of the stream lands on post-flip state; parity must hold
    // through it.
    for event in second {
        single.ingest(event);
        grouped.ingest(event);
    }
    parity("post-flip, stream complete");
}
