//! Online-serving throughput: classification queries per second at 1, 4,
//! and 8 feature-store shards, measured **while a concurrent ingest
//! thread replays the event stream** — the contention profile the
//! service actually runs under. The point of sharding is that query
//! threads and the ingest thread only collide when they touch the same
//! shard, so throughput should climb from 1 → 4 shards.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frappe::{FeatureSet, FrappeModel};
use frappe_bench::lab::{Archive, Lab};
use frappe_serve::{serve_events, FrappeService, ServeConfig, ServeEvent};

const QUERY_THREADS: usize = 4;
const QUERIES_PER_ITER: usize = 256;

struct Rig {
    service: Arc<FrappeService>,
    apps: Vec<osn_types::AppId>,
}

fn build_rig(lab: &Lab, model: &FrappeModel, events: &[ServeEvent], shards: usize) -> Rig {
    let service = Arc::new(FrappeService::new(
        model.clone(),
        lab.known_malicious_names(),
        lab.world.shortener.clone(),
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    ));
    for event in events {
        service.ingest(event);
    }
    let apps = service.tracked_apps();
    Rig { service, apps }
}

/// `QUERY_THREADS` threads split a burst of classify calls; total
/// wall-clock is what the bencher times.
fn query_burst(rig: &Rig) {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..QUERY_THREADS {
            scope.spawn(|| {
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= QUERIES_PER_ITER {
                        break;
                    }
                    let app = rig.apps[i % rig.apps.len()];
                    // under concurrent ingest a query can race a
                    // generation bump; both hit and miss are valid work
                    rig.service.classify(app).expect("tracked app");
                }
            });
        }
    });
}

fn bench_serve(c: &mut Criterion) {
    let lab = Lab::small();
    let (samples, labels) = lab.labelled_features(
        &lab.bundle.d_sample.malicious,
        &lab.bundle.d_sample.benign,
        Archive::Extended,
    );
    let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
    let events = serve_events(&lab.world);
    // ingest keeps replaying only the post events: they are the high-rate
    // stream in production and each one bumps a generation (cache churn)
    let posts: Vec<ServeEvent> = events
        .iter()
        .filter(|e| matches!(e, ServeEvent::Post { .. }))
        .cloned()
        .collect();

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    for &shards in &[1usize, 4, 8] {
        let rig = build_rig(&lab, &model, &events, shards);
        let stop = Arc::new(AtomicBool::new(false));
        let ingester = {
            let service = Arc::clone(&rig.service);
            let posts = posts.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ingested = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for event in &posts {
                        service.ingest(event);
                        ingested += 1;
                    }
                }
                ingested
            })
        };

        group.bench_with_input(
            BenchmarkId::new("classify_under_ingest", shards),
            &shards,
            |b, _| b.iter(|| query_burst(&rig)),
        );

        // headline number: sustained queries/sec for this shard count
        let start = Instant::now();
        let rounds = 20;
        for _ in 0..rounds {
            query_burst(&rig);
        }
        let elapsed = start.elapsed();
        let qps = (rounds * QUERIES_PER_ITER) as f64 / elapsed.as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let ingested = ingester.join().expect("ingester joins");
        println!(
            "serve/{shards} shards: {qps:.0} queries/sec sustained \
             ({ingested} events ingested concurrently, {} apps tracked)",
            rig.apps.len()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
