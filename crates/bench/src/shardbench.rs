//! Partition scaling benchmark: one `FrappeService` at K = 1, 2, 4, 8.
//!
//! This module produces one machine-readable [`ShardBenchReport`] that
//! `repro --shard-bench-out` serializes to `BENCH_shard.json`: ingest
//! throughput (events/s applied inline to each event's owner partition)
//! and classify throughput with p50/p99 latency, each measured at
//! partition counts {1, 2, 4, 8} (`ServeConfig::groups`) over the same
//! world, the same model, and the same per-partition configuration — so
//! the only variable is K. Every timed classify is a verdict-cache miss
//! (the cache is cleared, untimed, before each sweep), so the curve
//! measures partition scoring — store snapshot plus model evaluation —
//! not cache probes. A final leg hammers classify across repeated hot
//! swaps on the largest deployment and counts **stale-epoch verdicts**
//! (a model version observed going backwards on any thread); the
//! invariant is that the count is zero.
//!
//! Honesty note: the scaling curve is whatever *this machine* delivers —
//! a box with fewer cores than hammer threads flattens early, which is
//! why `threads_available` and `parallel_mode` ride along in the report
//! (same convention as the other BENCH files).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use frappe::{FeatureSet, FrappeModel};
use frappe_jobs::JobPool;
use frappe_serve::{serve_events, FrappeService, ServeConfig};
use osn_types::ids::AppId;
use serde::{Deserialize, Serialize};

use crate::edgebench::quantile_us;
use crate::lab::{Archive, Lab};

/// Group counts every sweep measures.
pub const GROUP_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One group-count point on the scaling curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupRunBench {
    /// Partitions (K, `ServeConfig::groups`).
    pub groups: usize,
    /// Events ingested.
    pub ingest_events: usize,
    /// Wall-clock of the ingest, milliseconds.
    pub ingest_wall_ms: f64,
    /// `ingest_events / ingest_wall`.
    pub ingest_events_per_s: f64,
    /// Classify calls timed across all hammer threads.
    pub classify_queries: usize,
    /// Timed classifies answered from the verdict cache; zero by
    /// construction (each sweep follows a cache clear and classifies
    /// every app once), reported so the miss-only claim is checked.
    pub classify_cache_hits: u64,
    /// Hammer threads issuing them.
    pub classify_threads: usize,
    /// Wall-clock of the classify sweep, milliseconds.
    pub classify_wall_ms: f64,
    /// `classify_queries / classify_wall`.
    pub classify_per_s: f64,
    /// Median per-call classify latency, microseconds.
    pub classify_p50_us: f64,
    /// 99th-percentile per-call classify latency, microseconds.
    pub classify_p99_us: f64,
    /// `classify_per_s` relative to the K=1 run in the same sweep.
    pub classify_speedup_vs_one_group: f64,
}

/// The hot-swap-under-load leg: repeated promotions against concurrent
/// classify traffic on the largest deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwapUnderLoadBench {
    /// Partitions the leg ran with.
    pub groups: usize,
    /// Hot swaps applied while the hammer threads ran.
    pub swaps: usize,
    /// Verdicts observed across all hammer threads.
    pub verdicts_observed: u64,
    /// Verdicts whose model version went *backwards* on some thread —
    /// the stale-epoch signature. The shared control plane makes this
    /// structurally zero; the report carries the measured count so the
    /// claim is checked, not assumed.
    pub stale_epoch_verdicts: u64,
}

/// The full partition benchmark report (`BENCH_shard.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardBenchReport {
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// read this before reading the scaling curve.
    pub threads_available: usize,
    /// Quick mode (CI-sized sweeps) or the full configuration.
    pub quick: bool,
    /// How a `for_machine(8)` job pool would execute here (the same
    /// machine-clamp disclosure the other reports carry).
    pub parallel_mode: String,
    /// The scaling curve, one entry per group count in [`GROUP_COUNTS`].
    pub runs: Vec<GroupRunBench>,
    /// Zero-stale proof under repeated hot swaps.
    pub swap_under_load: SwapUnderLoadBench,
}

/// Runs the partition benchmark on the small deterministic world.
/// `quick` shrinks the classify sweep and swap counts to CI size; the
/// ingest leg always replays the world's full event stream.
pub fn run(quick: bool) -> ShardBenchReport {
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (queries_per_k, swaps) = if quick {
        (2_000usize, 25usize)
    } else {
        (40_000, 250)
    };

    let lab = Lab::build(&synth_workload::ScenarioConfig::small());
    let (samples, labels) = lab.labelled_features(
        &lab.bundle.d_sample.malicious,
        &lab.bundle.d_sample.benign,
        Archive::Extended,
    );
    let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
    // The alternate model for the swap leg: trained on every other row.
    let half_samples: Vec<_> = samples.iter().step_by(2).cloned().collect();
    let half_labels: Vec<bool> = labels.iter().step_by(2).copied().collect();
    let alt = Arc::new(FrappeModel::train(
        &half_samples,
        &half_labels,
        FeatureSet::Full,
        None,
    ));
    let main = Arc::new(model.clone());
    let events = serve_events(&lab.world);

    let hammer_threads = threads_available.clamp(2, 8);
    let mut runs: Vec<GroupRunBench> = Vec::with_capacity(GROUP_COUNTS.len());
    let mut largest: Option<FrappeService> = None;
    for &groups in &GROUP_COUNTS {
        let service = FrappeService::new(
            model.clone(),
            lab.known_malicious_names(),
            lab.world.shortener.clone(),
            ServeConfig {
                groups,
                ..ServeConfig::default()
            },
        );

        // Ingest: one feeder applies the whole stream, each event to its
        // owner partition's store.
        let t = Instant::now();
        for event in &events {
            service.ingest(event);
        }
        let ingest_wall_ms = t.elapsed().as_secs_f64() * 1e3;

        // Classify: timed sweeps in which the hammer threads split the
        // tracked apps between them and classify each exactly once. The
        // verdict cache is cleared, untimed, before every sweep, so every
        // timed classify scores fresh.
        let apps = service.tracked_apps();
        let sweeps = queries_per_k.div_ceil(apps.len());
        let hits_before = service.metrics().cache_hits;
        let mut latencies: Vec<u64> = Vec::with_capacity(sweeps * apps.len());
        let mut classify_wall = Duration::ZERO;
        for _ in 0..sweeps {
            service.clear_verdict_cache();
            let t = Instant::now();
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..hammer_threads)
                    .map(|tid| {
                        let service = &service;
                        let apps = &apps;
                        s.spawn(move || {
                            let mine = apps.iter().skip(tid).step_by(hammer_threads);
                            mine.map(|&app| {
                                let t = Instant::now();
                                service.classify(app).expect("tracked app");
                                t.elapsed().as_micros() as u64
                            })
                            .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for worker in workers {
                    latencies.extend(worker.join().expect("hammer thread"));
                }
            });
            classify_wall += t.elapsed();
        }
        let classify_cache_hits = service.metrics().cache_hits - hits_before;
        let classify_wall_ms = classify_wall.as_secs_f64() * 1e3;
        latencies.sort_unstable();

        let classify_per_s = latencies.len() as f64 / (classify_wall_ms / 1e3).max(1e-9);
        let baseline = runs.first().map_or(classify_per_s, |r| r.classify_per_s);
        runs.push(GroupRunBench {
            groups,
            ingest_events: events.len(),
            ingest_wall_ms,
            ingest_events_per_s: events.len() as f64 / (ingest_wall_ms / 1e3).max(1e-9),
            classify_queries: latencies.len(),
            classify_cache_hits,
            classify_threads: hammer_threads,
            classify_wall_ms,
            classify_per_s,
            classify_p50_us: quantile_us(&latencies, 0.50),
            classify_p99_us: quantile_us(&latencies, 0.99),
            classify_speedup_vs_one_group: classify_per_s / baseline.max(1e-9),
        });
        largest = Some(service);
    }

    // Swap-under-load: repeated hot swaps on the largest deployment with
    // every hammer thread recording the version of every verdict it sees.
    // A version observed going backwards would mean some group served a
    // pre-swap epoch after another group served the post-swap one.
    let service = largest.expect("GROUP_COUNTS is non-empty");
    let apps = service.tracked_apps();
    let stop = AtomicBool::new(false);
    let observed = AtomicU64::new(0);
    let stale = AtomicU64::new(0);
    std::thread::scope(|s| {
        for tid in 0..hammer_threads {
            let service = &service;
            let apps: &[AppId] = &apps;
            let (stop, observed, stale) = (&stop, &observed, &stale);
            s.spawn(move || {
                let mut last = 0u64;
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    let app = apps[i % apps.len()];
                    i += 7;
                    let verdict = service.classify(app).expect("tracked app");
                    observed.fetch_add(1, Ordering::Relaxed);
                    if verdict.model_version < last {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }
                    last = verdict.model_version;
                }
            });
        }
        for i in 0..swaps {
            let next = if i % 2 == 0 { &alt } else { &main };
            service.swap_model(Arc::clone(next), 2 + i as u64);
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let swap_under_load = SwapUnderLoadBench {
        groups: service.group_count(),
        swaps,
        verdicts_observed: observed.load(Ordering::Relaxed),
        stale_epoch_verdicts: stale.load(Ordering::Relaxed),
    };

    ShardBenchReport {
        threads_available,
        quick,
        parallel_mode: JobPool::for_machine(8).mode(),
        runs,
        swap_under_load,
    }
}

impl ShardBenchReport {
    /// Human-readable summary (what `repro --shard-bench-out` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "shard bench ({} mode, {} threads available, {})\n",
            if self.quick { "quick" } else { "full" },
            self.threads_available,
            self.parallel_mode,
        );
        for run in &self.runs {
            out.push_str(&format!(
                "  K={}: ingest {:.0} events/s; classify {:.0}/s \
                 (p50 {:.0} us, p99 {:.0} us, {:.2}x vs K=1)\n",
                run.groups,
                run.ingest_events_per_s,
                run.classify_per_s,
                run.classify_p50_us,
                run.classify_p99_us,
                run.classify_speedup_vs_one_group,
            ));
        }
        out.push_str(&format!(
            "  hot swap under load (K={}): {} swaps, {} verdicts, {} stale-epoch",
            self.swap_under_load.groups,
            self.swap_under_load.swaps,
            self.swap_under_load.verdicts_observed,
            self.swap_under_load.stale_epoch_verdicts,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_roundtrips() {
        let report = run(true);
        assert_eq!(report.runs.len(), GROUP_COUNTS.len());
        for (run, &groups) in report.runs.iter().zip(&GROUP_COUNTS) {
            assert_eq!(run.groups, groups);
            assert!(run.ingest_events > 0);
            assert!(run.classify_queries > 0);
            assert_eq!(
                run.classify_cache_hits, 0,
                "K={groups}: a timed classify hit"
            );
            assert!(run.classify_p50_us <= run.classify_p99_us);
        }
        assert!(report.swap_under_load.verdicts_observed > 0);
        assert_eq!(
            report.swap_under_load.stale_epoch_verdicts, 0,
            "a hot swap leaked a stale epoch across groups"
        );
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ShardBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.runs.len(), report.runs.len());
        assert!(!report.render().is_empty());
    }
}
