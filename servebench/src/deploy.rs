//! Inputs and set-up.
//!
//! [`Inputs::generate`] is the generator's cost: it runs the paper-scale
//! world for the seed and keeps only what the system is fed (labelled
//! rows, the event stream as NDJSON request bytes, the names and the
//! shortener). [`stand_up`] is the system's cost, timed as `setup_s`:
//! train, build the service, bind the edge, replay the backlog over the
//! socket, and warm the verdict cache with one in-process classify per
//! app, as a service would before it opens for traffic.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use frappe::features::aggregation::KnownMaliciousNames;
use frappe::{AppFeatures, FeatureSet, FrappeModel};
use frappe_bench::lab::{Archive, Lab};
use frappe_lifecycle::{
    DriftConfig, DriftDetector, LifecycleManager, ModelRegistry, ModelSource, PromotionGate,
};
use frappe_net::{NetConfig, Server};
use frappe_obs::TraceCollector;
use frappe_serve::{serve_events, FrappeService, ServeConfig, ServeEvent, Verdict};
use osn_types::ids::AppId;
use synth_workload::ScenarioConfig;
use url_services::shortener::Shortener;

use crate::wire::{ingest_request, Generator, Reply};

/// Events per `POST /v1/events` batch.
pub const BATCH_EVENTS: usize = 400;

/// One NDJSON ingest request.
pub struct Batch {
    /// The whole HTTP request.
    pub request: Vec<u8>,
    /// Events it carries.
    pub events: usize,
    /// Distinct apps it touches.
    pub apps: Vec<u64>,
}

/// Everything the system is fed, generated from one seed.
pub struct Inputs {
    /// The seed.
    pub seed: u64,
    /// Labelled feature rows (D-Sample, extended archive).
    pub samples: Vec<AppFeatures>,
    /// One label per row (`true` = malicious).
    pub labels: Vec<bool>,
    /// Known-malicious names from the labelled malicious apps.
    pub known: KnownMaliciousNames,
    /// The world's URL shortener.
    pub shortener: Shortener,
    /// The event stream, in arrival order.
    pub events: Vec<ServeEvent>,
    /// The same stream as `POST /v1/events` requests.
    pub batches: Vec<Batch>,
    /// Distinct apps the stream mentions, ascending.
    pub apps: Vec<u64>,
    /// Seconds spent generating all of the above.
    pub generate_s: f64,
}

impl Inputs {
    /// Runs the paper-scale scenario under `seed` and extracts the inputs.
    pub fn generate(seed: u64) -> Inputs {
        let t = Instant::now();
        let lab = Lab::build(&ScenarioConfig {
            seed,
            ..ScenarioConfig::paper_scale()
        });
        let (samples, labels) = lab.labelled_features(
            &lab.bundle.d_sample.malicious,
            &lab.bundle.d_sample.benign,
            Archive::Extended,
        );
        let known = lab.known_malicious_names();
        let shortener = lab.world.shortener.clone();
        let events = serve_events(&lab.world);
        drop(lab);
        let lines: Vec<String> = events
            .iter()
            .map(|e| serde_json::to_string(e).expect("events serialize"))
            .collect();
        let batches = events
            .chunks(BATCH_EVENTS)
            .zip(lines.chunks(BATCH_EVENTS))
            .map(|(events, lines)| {
                let mut seen = BTreeSet::new();
                let apps = events
                    .iter()
                    .map(|e| e.app().raw())
                    .filter(|a| seen.insert(*a))
                    .collect();
                Batch {
                    request: ingest_request(&lines.join("\n")),
                    events: events.len(),
                    apps,
                }
            })
            .collect();
        let apps: Vec<u64> = events
            .iter()
            .map(|e| e.app().raw())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        Inputs {
            seed,
            samples,
            labels,
            known,
            shortener,
            events,
            batches,
            apps,
            generate_s: t.elapsed().as_secs_f64(),
        }
    }
}

/// A running edge over a registry-backed service.
pub struct Deployment {
    /// The service behind the edge.
    pub service: Arc<FrappeService>,
    /// The lifecycle caller's manager (registry + swap fence).
    pub manager: LifecycleManager,
    /// The edge.
    pub server: Server,
    /// The warm-up verdicts, one per app in [`Inputs::apps`] order.
    pub warm: Vec<Verdict>,
}

/// What one set-up measured.
pub struct SetupReport {
    /// Inputs to first servable request, seconds.
    pub seconds: f64,
    /// Backlog replay share of it, seconds.
    pub replay_s: f64,
    /// Cache warm-up share of it, seconds.
    pub warm_s: f64,
}

/// A promotion gate that always passes: the benchmark times the swap
/// mechanics, not the promotion policy.
fn open_gate() -> PromotionGate {
    PromotionGate {
        min_scored: 0,
        max_disagreement_rate: 1.0,
        max_false_positive_increase: 1.0,
        max_false_negative_increase: 1.0,
    }
}

/// Stands the system up from `inputs`. A collector, when given, is
/// attached before the edge binds so the edge traces every request.
pub fn stand_up(
    inputs: &Inputs,
    collector: Option<TraceCollector>,
) -> Result<(Deployment, SetupReport), String> {
    let t = Instant::now();
    let model = FrappeModel::train(&inputs.samples, &inputs.labels, FeatureSet::Full, None);
    let registry = ModelRegistry::new(
        model,
        ModelSource {
            parent: None,
            seed: inputs.seed,
            training_size: inputs.samples.len(),
            cv: None,
        },
    );
    let service = Arc::new(FrappeService::with_shared_model(
        registry.handle(),
        inputs.known.clone(),
        inputs.shortener.clone(),
        ServeConfig::default(),
    ));
    if let Some(collector) = collector {
        service.set_trace_collector(collector);
    }
    let manager = LifecycleManager::new(
        Arc::clone(&service),
        registry,
        open_gate(),
        DriftDetector::new(DriftConfig::default()),
    );
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind the edge: {e}"))?;
    let addr = server.local_addr();

    let replay_start = Instant::now();
    let mut feeder = Generator::connect(addr, 1).map_err(|e| format!("connect: {e}"))?;
    let mut replies = Vec::new();
    for (i, batch) in inputs.batches.iter().enumerate() {
        let reply = round_trip(&mut feeder, 0, &batch.request, i as u64, &mut replies)?;
        if reply.status != 202 || reply.body != ingested_body(batch.events) {
            return Err(format!(
                "backlog batch {i} answered {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
        }
    }
    let replay_s = replay_start.elapsed().as_secs_f64();

    let warm_start = Instant::now();
    let warm = inputs
        .apps
        .iter()
        .map(|&app| {
            service
                .classify(AppId(app))
                .map_err(|e| format!("warm-up classify of app {app}: {e}"))
        })
        .collect::<Result<Vec<Verdict>, String>>()?;
    let warm_s = warm_start.elapsed().as_secs_f64();
    let seconds = t.elapsed().as_secs_f64();
    Ok((
        Deployment {
            service,
            manager,
            server,
            warm,
        },
        SetupReport {
            seconds,
            replay_s,
            warm_s,
        },
    ))
}

/// The edge's acknowledgement body for a batch of `n` events.
pub fn ingested_body(n: usize) -> Vec<u8> {
    format!("{{\"ingested\":{n}}}").into_bytes()
}

/// Sends one request on `conn` and waits for its response.
pub fn round_trip(
    gen: &mut Generator,
    conn: usize,
    request: &[u8],
    tag: u64,
    replies: &mut Vec<Reply>,
) -> Result<Reply, String> {
    gen.send(conn, request, Instant::now(), tag)
        .map_err(|e| format!("transport: {e}"))?;
    replies.clear();
    let deadline = Instant::now() + Duration::from_secs(30);
    while replies.is_empty() {
        if Instant::now() > deadline {
            return Err("no response within 30 s".into());
        }
        gen.poll(Some(deadline), replies)
            .map_err(|e| format!("transport: {e}"))?;
    }
    Ok(replies.remove(0))
}
