//! The traced run's per-layer numbers: public calls into each layer,
//! timed from here on the workload's own inputs, plus what the workload
//! run itself recorded (cache deltas, and the drains inside fenced swaps).
//!
//! `net.residual_*` is what the socket path adds beyond the layers timed
//! in process: the run's open-loop classify latency minus the in-process
//! `FrappeService::classify` latency of the same kind (hits, misses, or
//! the swap mix) minus request parse and verdict encode. It covers the
//! reactor's scheduling and poll tick, loopback, and the edge's
//! connection bookkeeping.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use frappe::{AppFeatures, FrappeModel};
use frappe_net::http::{Limits, RequestParser, Response};
use frappe_obs::{TraceCollector, TraceConfig};
use frappe_serve::{ServeEvent, Verdict};
use osn_types::ids::AppId;

use crate::check::expected_bodies;
use crate::deploy::{stand_up, Deployment, Inputs, BATCH_EVENTS};
use crate::stats::{median, Tail};
use crate::wire::classify_request;
use crate::workloads::{hot_open_loop, retrain_candidate, Outcome, SWAP_EVERY, SWAP_RATE};

/// Repetitions of each micro-timing; the median is reported.
const REPS: usize = 5;
/// Requests parsed or verdicts encoded per repetition.
const CALLS: usize = 20_000;
/// Batches replayed in process for the ingest-side timings.
const INGEST_BATCHES: usize = 150;
/// Traced/untraced pairs behind `obs.trace_overhead`.
const TRACE_PAIRS: usize = 3;
/// First model version the in-process swaps stamp.
const IN_PROCESS_VERSIONS: u64 = 1_000_000;
/// Drain/resume calls timed on an idle edge.
const IDLE_DRAINS: usize = 200;

fn nanos_per(elapsed: Duration, calls: usize) -> f64 {
    elapsed.as_secs_f64() * 1e9 / calls.max(1) as f64
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `RequestParser::next_request`, fed the way the edge feeds it: the
/// generator's request bytes in read-sized chunks.
fn parse_ns(picks: &[u64]) -> f64 {
    let requests: Vec<Vec<u8>> = picks
        .iter()
        .take(CALLS)
        .map(|&a| classify_request(a))
        .collect();
    let chunks: Vec<Vec<u8>> = requests.chunks(64).map(<[Vec<u8>]>::concat).collect();
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut parser = RequestParser::new(Limits::default());
            let mut busy = Duration::ZERO;
            let mut parsed = 0;
            for chunk in &chunks {
                parser.push(chunk);
                let t = Instant::now();
                while let Ok(Some(request)) = parser.next_request() {
                    black_box(request);
                    parsed += 1;
                }
                busy += t.elapsed();
            }
            assert_eq!(parsed, requests.len(), "every generated request parses");
            nanos_per(busy, parsed)
        })
        .collect();
    median(&runs)
}

/// `serde_json::to_string(&Verdict)` plus `Response::write_into`, the
/// edge's verdict encoding.
fn encode_ns(verdicts: &[Verdict]) -> f64 {
    let mut out = Vec::with_capacity(512);
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for verdict in verdicts {
                out.clear();
                let body = serde_json::to_string(verdict).expect("verdicts serialize");
                Response::json(200, body.into_bytes()).write_into(&mut out);
                black_box(&out);
            }
            nanos_per(t.elapsed(), verdicts.len())
        })
        .collect();
    median(&runs)
}

/// `serde_json::from_str::<ServeEvent>` per NDJSON line of the stream.
fn decode_ns(inputs: &Inputs) -> f64 {
    let lines: Vec<&str> = inputs
        .batches
        .iter()
        .take(INGEST_BATCHES)
        .flat_map(|b| {
            let text = std::str::from_utf8(&b.request).expect("requests are UTF-8");
            let body = &text[text.find("\r\n\r\n").map_or(0, |i| i + 4)..];
            body.split('\n')
        })
        .collect();
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for line in &lines {
                let event: ServeEvent = serde_json::from_str(line).expect("stream lines decode");
                black_box(event);
            }
            nanos_per(t.elapsed(), lines.len())
        })
        .collect();
    median(&runs)
}

/// `FrappeModel::decision_value` over feature rows.
fn eval_ns(model: &FrappeModel, rows: &[AppFeatures]) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for row in rows {
                black_box(model.decision_value(black_box(row)));
            }
            nanos_per(t.elapsed(), rows.len())
        })
        .collect();
    median(&runs)
}

/// In-process classify of each app, one timing per call (µs).
fn classify_us(deployment: &Deployment, apps: &[u64]) -> Result<Vec<f64>, String> {
    apps.iter()
        .map(|&app| {
            let t = Instant::now();
            let verdict = deployment.service.classify(AppId(app));
            let us = micros(t.elapsed());
            verdict
                .map(|_| us)
                .map_err(|e| format!("in-process classify of app {app}: {e}"))
        })
        .collect()
}

/// `BATCH_EVENTS`-event batches of the stream, ingested in process one
/// by one, each followed by a snapshot and a classify of apps it touched
/// (the classifies miss: the ingest made their verdicts stale).
struct IngestSide {
    ingest_ns: f64,
    snapshot_ns: f64,
    rows: Vec<AppFeatures>,
    misses_us: Vec<f64>,
}

fn ingest_side(deployment: &Deployment, inputs: &Inputs) -> Result<IngestSide, String> {
    let service = &deployment.service;
    let mut ingest = Duration::ZERO;
    let mut ingested = 0;
    let mut snapshot = Duration::ZERO;
    let mut rows = Vec::new();
    let mut misses_us = Vec::new();
    for (b, batch) in inputs.batches.iter().enumerate().take(INGEST_BATCHES) {
        let events = &inputs.events[b * BATCH_EVENTS..b * BATCH_EVENTS + batch.events];
        let t = Instant::now();
        for event in events {
            service.ingest(event);
        }
        ingest += t.elapsed();
        ingested += events.len();
        let touched: Vec<u64> = batch.apps.iter().take(8).copied().collect();
        let t = Instant::now();
        for &app in &touched {
            rows.extend(service.features(AppId(app)));
        }
        snapshot += t.elapsed();
        misses_us.extend(classify_us(deployment, &touched)?);
    }
    Ok(IngestSide {
        ingest_ns: nanos_per(ingest, ingested),
        snapshot_ns: nanos_per(snapshot, rows.len()),
        rows,
        misses_us,
    })
}

/// In-process swaps, each followed by a classify pass.
struct SwapSide {
    /// `FrappeService::swap_model` times, µs.
    swap_us: Vec<f64>,
    /// Cache misses of each pass.
    misses: Vec<f64>,
    /// The passes' classify times, µs.
    classify_us: Vec<f64>,
}

/// In-process swaps alternating `candidate` and `base`, each followed by
/// the classifies of one swap interval at [`SWAP_RATE`]. Leaves `base`
/// serving.
fn swap_side(
    deployment: &Deployment,
    candidate: &Arc<FrappeModel>,
    base: &Arc<FrappeModel>,
    apps: &[u64],
) -> Result<SwapSide, String> {
    let service = &deployment.service;
    let per_swap = (SWAP_RATE * SWAP_EVERY.as_secs_f64()).round().max(1.0) as usize;
    let mut swaps = Vec::new();
    let mut misses = Vec::new();
    let mut mixed = Vec::new();
    // versions of their own, clear of any the registry handed out
    let mut version = IN_PROCESS_VERSIONS;
    for (i, pass) in apps.chunks(per_swap).enumerate() {
        let next = if i % 2 == 0 { candidate } else { base };
        version += 1;
        let t = Instant::now();
        service.swap_model(Arc::clone(next), version);
        swaps.push(micros(t.elapsed()));
        let before = service.metrics().cache_misses;
        mixed.extend(classify_us(deployment, pass)?);
        misses.push((service.metrics().cache_misses - before) as f64);
    }
    service.swap_model(Arc::clone(base), version + 1);
    Ok(SwapSide {
        swap_us: swaps,
        misses,
        classify_us: mixed,
    })
}

/// `EdgeHandle::drain` (and `resume`) on the edge with no traffic, µs.
fn idle_drains_us(deployment: &Deployment) -> Vec<f64> {
    let edge = deployment.server.handle();
    (0..IDLE_DRAINS)
        .map(|_| {
            let waited = edge.drain();
            edge.resume();
            micros(waited)
        })
        .collect()
}

/// The per-layer metrics after a run of `workload` (`outcome`). Every
/// workload reports every layer: the calls are timed in process on this
/// workload's inputs and deployment, after its run. `net.residual_*`
/// subtracts the in-process classify of the kind this workload's
/// classifies were (hits, misses, or the swap mix), and the drains are
/// the run's own on `swap_under_load` and idle ones elsewhere.
pub fn per_layer(
    workload: &str,
    deployment: &Deployment,
    inputs: &Inputs,
    outcome: &mut Outcome,
    seconds: f64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let live = &outcome.live;
    let service = &deployment.service;
    let base = Arc::clone(service.model_handle().current().model());
    let apps: Vec<u64> = if live.picks.is_empty() {
        inputs.apps.clone()
    } else {
        live.picks.iter().take(CALLS).copied().collect()
    };
    let mut layers: Vec<(&'static str, f64)> = vec![
        ("serve.cache_hit_ratio", live.hit_ratio),
        ("serve.rejected", live.rejected),
    ];

    // the first pass fills the cache, so the second is all hits
    let verdicts: Vec<Verdict> = apps
        .iter()
        .take(CALLS)
        .filter_map(|&a| service.classify(AppId(a)).ok())
        .collect();
    let hits = classify_us(deployment, &apps)?;
    let parse = parse_ns(&apps);
    let encode = encode_ns(&verdicts);
    layers.push(("net.parse_ns", parse));
    layers.push(("net.verdict_encode_ns", encode));
    layers.push(("serve.classify_hit_us", median(&hits)));

    let (candidate, retrain_ms) = match &live.candidate {
        Some(candidate) => (Arc::clone(candidate), live.retrain_ms),
        None => {
            let (outcome, ms) = retrain_candidate(inputs);
            (Arc::new(outcome.model), ms)
        }
    };
    let swapped = swap_side(deployment, &candidate, &base, &apps)?;
    layers.push(("lifecycle.swap_us", median(&swapped.swap_us)));
    layers.push(("lifecycle.retrain_ms", retrain_ms));
    layers.push(("lifecycle.rescore_misses", median(&swapped.misses)));

    let ingest = ingest_side(deployment, inputs)?;
    layers.push(("net.event_decode_ns", decode_ns(inputs)));
    layers.push(("serve.ingest_ns", ingest.ingest_ns));
    layers.push(("serve.snapshot_ns", ingest.snapshot_ns));
    layers.push(("serve.classify_miss_us", median(&ingest.misses_us)));
    layers.push(("svm.eval_ns", eval_ns(&base, &ingest.rows)));

    let drains_us = if live.drain_us.is_empty() {
        idle_drains_us(deployment)
    } else {
        live.drain_us.clone()
    };
    let drains = Tail::of(&drains_us).ok_or("too few drains to summarize")?;
    outcome.notes.push(format!(
        "EdgeHandle::drain ({}): {}",
        if live.drain_us.is_empty() {
            "idle edge"
        } else {
            "inside the run's fenced swaps"
        },
        drains.describe("us")
    ));
    layers.push(("net.drain_p50_us", drains.p50));
    layers.push(("net.drain_p99_us", drains.tail));

    let serve = match workload {
        "classify_hot" => hits,
        "ingest_mixed" => ingest.misses_us,
        _ => swapped.classify_us,
    };
    let e2e = outcome
        .live
        .classify
        .ok_or("the run recorded no classify latency")?;
    let serve = Tail::of(&serve).ok_or("too few in-process classifies")?;
    let socket_layers_us = (parse + encode) / 1e3;
    outcome.notes.push(format!(
        "in-process classify of the same kind: {}; parse {parse:.0} ns, encode {encode:.0} ns",
        serve.describe("us")
    ));
    layers.push((
        "net.residual_p50_us",
        e2e.p50 - serve.p50 - socket_layers_us,
    ));
    layers.push((
        "net.residual_p99_us",
        e2e.tail - serve.tail - socket_layers_us,
    ));
    layers.push((
        "obs.trace_overhead",
        trace_overhead(inputs, seconds, outcome)?,
    ));
    Ok(layers)
}

/// `classify_hot`'s open loop against a fresh edge over these inputs and
/// against a second one whose service carries a `TraceCollector`,
/// alternated; the ratio of their p99s, median over the pairs.
fn trace_overhead(inputs: &Inputs, seconds: f64, outcome: &mut Outcome) -> Result<f64, String> {
    let (plain, _) = stand_up(inputs, None)?;
    let (traced, _) = stand_up(inputs, Some(TraceCollector::new(TraceConfig::default())))?;
    let plain_expected = expected_bodies(&plain.warm);
    let traced_expected = expected_bodies(&traced.warm);
    let phase = seconds / (2 * TRACE_PAIRS) as f64;
    let mut ratios = Vec::new();
    for pair in 0..TRACE_PAIRS {
        let seed = inputs.seed.wrapping_add(pair as u64 + 1);
        let label = format!("untraced phase {}", pair + 1);
        let (without, _) = hot_open_loop(
            &plain,
            inputs,
            &plain_expected,
            phase,
            seed,
            &label,
            outcome,
        )?;
        let label = format!("traced phase {}", pair + 1);
        let (with, _) = hot_open_loop(
            &traced,
            inputs,
            &traced_expected,
            phase,
            seed,
            &label,
            outcome,
        )?;
        let (without, with) = (
            Tail::of(&without).ok_or("too few untraced samples")?,
            Tail::of(&with).ok_or("too few traced samples")?,
        );
        ratios.push(with.tail / without.tail);
    }
    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    outcome.notes.push(format!(
        "trace overhead, classify p99 traced/untraced over {TRACE_PAIRS} pairs: {:?} (spread {:.3}..{:.3})",
        ratios.iter().map(|r| format!("{r:.3}")).collect::<Vec<_>>(),
        sorted[0],
        sorted[sorted.len() - 1]
    ));
    Ok(median(&ratios))
}
