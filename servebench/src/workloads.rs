//! The three traffic mixes, each driven over loopback against a running
//! [`Deployment`] by one generator thread on two connections.
//!
//! | workload          | open loop                             | beside it                           |
//! |-------------------|---------------------------------------|-------------------------------------|
//! | `classify_hot`    | Zipf-picked classifies, all cached    | then a closed-loop classify phase   |
//! | `ingest_mixed`    | classifies of just-ingested apps      | open-loop NDJSON ingest (1 conn)    |
//! | `swap_under_load` | Zipf-picked classifies                | fenced promote/rollback every 2 ms  |
//!
//! Offered rates are fixed per workload (see [`HOT_RATE`] and the other
//! constants) and sit well below what the edge sustains, so no backlog
//! grows. Latency is timed from each request's due time, and a run is
//! invalid if the generator itself fell behind its schedule.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use frappe::FrappeModel;
use frappe_lifecycle::{retrain, PromotionOutcome, RetrainConfig, RetrainOutcome, SwapFence};
use frappe_net::EdgeHandle;
use frappe_serve::{MetricsSnapshot, Verdict};
use osn_types::ids::AppId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::check::{expected_bodies, sample_check, Tally};
use crate::deploy::{ingested_body, Deployment, Inputs};
use crate::stats::{median, quantile, window_tails, Tail, DIAGNOSTIC_WINDOWS};
use crate::sys;
use crate::traffic::{self, Arrivals, Zipf};
use crate::wire::{classify_request, Generator, Reply};

/// `classify_hot` open-loop rate, requests/s over both connections.
pub const HOT_RATE: f64 = 1000.0;
/// `ingest_mixed` open-loop classify rate, requests/s.
pub const MIX_RATE: f64 = 500.0;
/// `ingest_mixed` open-loop batch rate, 400-event POSTs/s: 40k events/s,
/// under a tenth of what the edge's single reactor thread decodes and
/// applies in a closed loop. Batches still block the classifies that
/// arrive behind them; at 250/s a slow phase of the host let queues grow
/// to 100 ms and more.
pub const INGEST_RATE: f64 = 100.0;
/// `swap_under_load` open-loop rate, requests/s over both connections.
pub const SWAP_RATE: f64 = 1000.0;
/// `swap_under_load` interval between fenced swaps.
pub const SWAP_EVERY: Duration = Duration::from_millis(2);
/// Requests each connection keeps outstanding in `classify_hot`'s closed
/// loop. Throughput at the parent flips between two regimes (a verdict
/// is either picked up when the other connection's next request wakes
/// the reactor, or waits for the poll tick), within a run and from run
/// to run: with one outstanding it ranged 5k-35k req/s between runs,
/// with four 8k-57k; sixteen keep the edge's pipeline full.
pub const CLOSED_DEPTH: usize = 16;
/// Zipf exponent of the app pick.
pub const ZIPF_S: f64 = 1.0;
/// Generator lateness (median) allowed, as a share of the mean request spacing.
pub const MAX_LATENESS_SHARE: f64 = 0.25;
/// Share of the labelled rows the swap candidate is retrained on.
const CANDIDATE_SHARE: f64 = 0.9;
/// How long the generator waits for answers after a phase ends.
const GRACE: Duration = Duration::from_secs(5);
/// A throughput phase is cut into windows this long; the rate reported
/// is their median. The closed loop at 2 connections switches between
/// fast and slow regimes within a second, so many short windows.
const RATE_WINDOW: Duration = Duration::from_millis(100);

/// Per-layer evidence gathered while the workload ran.
#[derive(Debug, Default)]
pub struct Live {
    /// Open-loop classify latency from due time, µs.
    pub classify: Option<Tail>,
    /// Verdict-cache hit ratio over the measured phases.
    pub hit_ratio: f64,
    /// Classifies the scorer queue rejected over the measured phases.
    pub rejected: f64,
    /// `EdgeHandle::drain` times, µs (swap workload, traced runs).
    pub drain_us: Vec<f64>,
    /// `frappe_lifecycle::retrain` wall time, ms.
    pub retrain_ms: f64,
    /// Apps picked in the open loop, in order.
    pub picks: Vec<u64>,
    /// The retrained swap candidate.
    pub candidate: Option<Arc<FrappeModel>>,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Evidence for the per-layer report.
    pub live: Live,
    /// Attempts and failures.
    pub tally: Tally,
    /// Validity checks that failed.
    pub invalid: Vec<String>,
    /// Report lines.
    pub notes: Vec<String>,
}

/// One traffic mix over the generator's connections.
trait Mix {
    /// The request to send at the next open-loop arrival: `(connection,
    /// tag, request bytes)`.
    fn arrival(&mut self) -> (usize, u64, Vec<u8>);
    /// Handles one response; sends nothing once `running` is false.
    fn reply(&mut self, gen: &mut Generator, reply: Reply, running: bool) -> io::Result<()>;
    /// Where failures are booked.
    fn tally(&mut self) -> &mut Tally;
}

/// Drives `mix` until `end`: open-loop arrivals (when given) are sent at
/// their due time whatever is still in flight; closed-loop traffic is
/// sent from [`Mix::reply`]. Then waits out in-flight requests and books
/// those still unanswered as lost. Returns how late (µs) each open-loop
/// request went out.
fn drive(
    gen: &mut Generator,
    mix: &mut dyn Mix,
    mut arrivals: Option<Arrivals>,
    start: Instant,
    end: Instant,
) -> Vec<f64> {
    let mut replies = Vec::new();
    let mut lateness = Vec::new();
    let mut due = arrivals.as_mut().map(|a| start + a.next_offset());
    let outcome = (|| -> io::Result<()> {
        while Instant::now() < end {
            while let (Some(d), Some(a)) = (due, arrivals.as_mut()) {
                if d > Instant::now() || d >= end {
                    break;
                }
                let (conn, tag, request) = mix.arrival();
                lateness.push(micros(Instant::now().saturating_duration_since(d)));
                gen.send(conn, &request, d, tag)?;
                due = Some(start + a.next_offset());
            }
            gen.poll(Some(due.map_or(end, |d| d.min(end))), &mut replies)?;
            for reply in replies.drain(..) {
                mix.reply(gen, reply, true)?;
            }
        }
        let grace_end = Instant::now() + GRACE;
        while gen.total_in_flight() > 0 && Instant::now() < grace_end {
            gen.poll(Some(grace_end), &mut replies)?;
            for reply in replies.drain(..) {
                mix.reply(gen, reply, false)?;
            }
        }
        Ok(())
    })();
    let lost = gen.total_in_flight() as u64;
    match outcome {
        Ok(()) => mix.tally().lost(lost, "unanswered after the phase"),
        Err(e) => mix
            .tally()
            .lost(lost.max(1), &format!("transport error: {e}")),
    }
    lateness
}

fn parse_verdict(body: &[u8]) -> Result<Verdict, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median over [`RATE_WINDOW`]-long windows of `[start, end)` of the
/// weight completed per second in each.
fn windowed_rate(start: Instant, end: Instant, done: &[(Instant, f64)]) -> f64 {
    let windows = (end.saturating_duration_since(start).as_secs_f64() / RATE_WINDOW.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let span = RATE_WINDOW.as_secs_f64();
    let mut sums = vec![0.0; windows];
    for &(at, weight) in done {
        let w = (at.saturating_duration_since(start).as_secs_f64() / span) as usize;
        if at >= start && w < windows {
            sums[w] += weight;
        }
    }
    median(&sums.iter().map(|s| s / span).collect::<Vec<_>>())
}

/// Books the verdict-cache hit ratio and scorer-queue rejections
/// between two snapshots.
fn cache_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, out: &mut Outcome) {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let rejected = (after.rejected - before.rejected) as f64;
    out.notes.push(format!(
        "cache: {hits} hits, {misses} misses (hit ratio {ratio:.4}); {rejected} rejected by the scorer queue"
    ));
    out.live.hit_ratio = ratio;
    out.live.rejected = rejected;
}

/// Reports the generator's lateness against the mean spacing of requests
/// at `rate`. The run is invalid when the median request went out later
/// than [`MAX_LATENESS_SHARE`] of the spacing: the generator, not the
/// edge, then set the pace. A host stall that delays a few sends shows
/// in the p99 and maximum reported here, and in the latencies, which
/// are timed from the due time.
fn lateness_check(mut sorted: Vec<f64>, rate: f64, phase: &str, out: &mut Outcome) {
    sorted.sort_by(f64::total_cmp);
    let spacing_us = 1e6 / rate;
    let (p50, p99) = (quantile(&sorted, 0.5), quantile(&sorted, 0.99));
    let max = sorted.last().copied().unwrap_or(0.0);
    out.notes.push(format!(
        "{phase}: generator lateness p50 {p50:.1} us, p99 {p99:.1} us, max {max:.1} us; \
         mean spacing {spacing_us:.0} us"
    ));
    if p50.is_nan() || p50 > MAX_LATENESS_SHARE * spacing_us {
        out.invalid.push(format!(
            "{phase}: generator fell behind, median lateness {p50:.1} us is over {:.0}% of the \
             {spacing_us:.0} us spacing",
            MAX_LATENESS_SHARE * 100.0
        ));
    }
}

/// Reports the open-loop classify latency (unbounded, see README.md) and
/// keeps it for `net.residual_*`.
fn open_loop_latency(out: &mut Outcome, latency_us: &[f64]) {
    match Tail::of(latency_us) {
        Some(tail) => {
            out.notes.push(format!(
                "open-loop classify latency from due time: {}; tails of {DIAGNOSTIC_WINDOWS} \
                 consecutive windows {:?}",
                tail.describe("us"),
                window_tails(latency_us, DIAGNOSTIC_WINDOWS)
            ));
            out.live.classify = Some(tail);
        }
        None => out
            .invalid
            .push(format!("only {} classify latencies", latency_us.len())),
    }
}

/// Reports the workload's own operation (unbounded, see README.md): its
/// completion rate and latency.
fn op_report(out: &mut Outcome, what: &str, rate: f64, latency_us: &[f64]) {
    match Tail::of(latency_us) {
        Some(tail) => out.notes.push(format!(
            "{what}: {rate:.1}/s (median of {} ms windows); latency {}; tails of \
             {DIAGNOSTIC_WINDOWS} consecutive windows {:?}",
            RATE_WINDOW.as_millis(),
            tail.describe("us"),
            window_tails(latency_us, DIAGNOSTIC_WINDOWS)
        )),
        None => out
            .invalid
            .push(format!("{what}: only {} completed", latency_us.len())),
    }
}

/// The service's CPU time over a phase: the process's CPU time less the
/// generator thread's own. Started and read on the generator thread.
struct ServiceCpu {
    process: Duration,
    generator: Duration,
}

impl ServiceCpu {
    fn start() -> ServiceCpu {
        ServiceCpu {
            process: sys::process_cpu(),
            generator: sys::thread_cpu(),
        }
    }

    /// Seconds of service CPU since [`ServiceCpu::start`].
    fn seconds(&self) -> f64 {
        let process = sys::process_cpu() - self.process;
        let generator = sys::thread_cpu() - self.generator;
        process.saturating_sub(generator).as_secs_f64()
    }
}

/// Books `cpu_us_per_req`: service CPU per open-loop request answered
/// correctly.
fn cpu_metric(out: &mut Outcome, cpu_s: f64, answered: usize) {
    let per_req = cpu_s * 1e6 / answered.max(1) as f64;
    out.notes.push(format!(
        "service CPU: {cpu_s:.3} s over {answered} answered requests, {per_req:.2} us each"
    ));
    out.e2e.push(("cpu_us_per_req", per_req));
}

fn connect(deployment: &Deployment, n: usize) -> Result<Generator, String> {
    Generator::connect(deployment.server.local_addr(), n).map_err(|e| format!("connect: {e}"))
}

/// Zipf-picked classifies whose every answer is known in advance.
struct Classify<'a> {
    picks: Zipf,
    expected: &'a HashMap<u64, Vec<u8>>,
    tally: Tally,
    latency_us: Vec<f64>,
    done: Vec<(Instant, f64)>,
    sent: Vec<u64>,
    next_conn: usize,
    closed: bool,
}

impl<'a> Classify<'a> {
    fn new(inputs: &Inputs, seed: u64, expected: &'a HashMap<u64, Vec<u8>>, closed: bool) -> Self {
        Classify {
            picks: Zipf::new(&inputs.apps, ZIPF_S, seed),
            expected,
            tally: Tally::default(),
            latency_us: Vec::new(),
            done: Vec::new(),
            sent: Vec::new(),
            next_conn: 1,
            closed,
        }
    }

    fn next(&mut self) -> u64 {
        self.tally.attempted += 1;
        let app = self.picks.pick();
        if !self.closed {
            self.sent.push(app);
        }
        app
    }
}

impl Mix for Classify<'_> {
    fn arrival(&mut self) -> (usize, u64, Vec<u8>) {
        let app = self.next();
        self.next_conn = (self.next_conn + 1) % 2;
        (self.next_conn, app, classify_request(app))
    }

    fn reply(&mut self, gen: &mut Generator, reply: Reply, running: bool) -> io::Result<()> {
        let app = reply.req.tag;
        if reply.status != 200 {
            self.tally
                .status(reply.status, 200, &format!("classify of app {app}"));
        } else if self.expected.get(&app).map(Vec::as_slice) != Some(reply.body.as_slice()) {
            self.tally.mismatch(format!(
                "app {app}: edge sent {}",
                String::from_utf8_lossy(&reply.body)
            ));
        } else {
            self.latency_us
                .push(micros(reply.at.saturating_duration_since(reply.req.due)));
            self.done.push((reply.at, 1.0));
        }
        if self.closed && running {
            let app = self.next();
            gen.send(reply.conn, &classify_request(app), Instant::now(), app)?;
        }
        Ok(())
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

/// An open-loop phase of Zipf-picked classifies at [`HOT_RATE`] over two
/// fresh connections, checking every answer against `expected`.
/// Returns the latencies from due time (µs), the picks, and the tally.
pub fn hot_open_loop(
    deployment: &Deployment,
    inputs: &Inputs,
    expected: &HashMap<u64, Vec<u8>>,
    seconds: f64,
    seed: u64,
    phase: &str,
    out: &mut Outcome,
) -> Result<(Vec<f64>, Vec<u64>), String> {
    let mut gen = connect(deployment, 2)?;
    let mut mix = Classify::new(inputs, seed, expected, false);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let lateness = drive(
        &mut gen,
        &mut mix,
        Some(Arrivals::new(HOT_RATE, seed)),
        start,
        end,
    );
    lateness_check(lateness, HOT_RATE, phase, out);
    out.tally.absorb(mix.tally);
    Ok((mix.latency_us, mix.sent))
}

/// `classify_hot`: an open-loop phase (half the run) of Zipf-picked
/// classifies at [`HOT_RATE`], then a closed-loop phase (the other half)
/// with [`CLOSED_DEPTH`] requests outstanding on each of two connections.
/// Set-up warmed the cache, so every verdict is a hit.
pub fn classify_hot(
    deployment: &Deployment,
    inputs: &Inputs,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let expected = expected_bodies(&deployment.warm);
    let before = deployment.service.metrics();
    let cpu = ServiceCpu::start();
    let (latency_us, picks) = hot_open_loop(
        deployment,
        inputs,
        &expected,
        seconds * 0.5,
        inputs.seed,
        "open loop",
        &mut out,
    )?;
    cpu_metric(&mut out, cpu.seconds(), latency_us.len());
    open_loop_latency(&mut out, &latency_us);
    out.live.picks = picks;

    let mut gen = connect(deployment, 2)?;
    let mut mix = Classify::new(inputs, inputs.seed ^ 0x5A5A, &expected, true);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds * 0.5);
    for conn in 0..2 {
        for _ in 0..CLOSED_DEPTH {
            let app = mix.next();
            if let Err(e) = gen.send(conn, &classify_request(app), start, app) {
                mix.tally.lost(1, &format!("transport error: {e}"));
            }
        }
    }
    drive(&mut gen, &mut mix, None, start, end);
    let rps = windowed_rate(start, end, &mix.done);
    op_report(
        &mut out,
        "closed-loop classify over 2 connections, requests",
        rps,
        &mix.latency_us,
    );
    out.tally.absorb(mix.tally);

    let after = deployment.service.metrics();
    cache_delta(&before, &after, &mut out);
    let ratio = out.live.hit_ratio;
    if ratio < 0.99 {
        out.invalid
            .push(format!("cache hit ratio {ratio:.4} is not near 1"));
    }
    sample_check(deployment, &inputs.apps, inputs.seed, &mut out.tally)?;
    Ok(out)
}

/// Open-loop ingest on connection 0 beside open-loop classifies of
/// just-ingested apps on connection 1, as one arrival stream.
struct Mixed<'a> {
    inputs: &'a Inputs,
    /// Next batch to post (the stream is replayed cyclically).
    next_batch: usize,
    /// Most recently acknowledged batch.
    latest: usize,
    rng: SmallRng,
    tally: Tally,
    classify_us: Vec<f64>,
    ingest_us: Vec<f64>,
    acked: Vec<(Instant, f64)>,
}

impl Mix for Mixed<'_> {
    fn arrival(&mut self) -> (usize, u64, Vec<u8>) {
        self.tally.attempted += 1;
        if self.rng.gen_bool(INGEST_RATE / (INGEST_RATE + MIX_RATE)) {
            let i = self.next_batch;
            self.next_batch = (i + 1) % self.inputs.batches.len();
            return (0, i as u64, self.inputs.batches[i].request.clone());
        }
        let apps = &self.inputs.batches[self.latest].apps;
        let app = apps[self.rng.gen_range(0..apps.len())];
        (1, app, classify_request(app))
    }

    fn reply(&mut self, _gen: &mut Generator, reply: Reply, _running: bool) -> io::Result<()> {
        let tag = reply.req.tag;
        let latency_us = micros(reply.at.saturating_duration_since(reply.req.due));
        if reply.conn == 0 {
            let events = self.inputs.batches[tag as usize].events;
            if reply.status != 202 {
                self.tally
                    .status(reply.status, 202, &format!("batch {tag}"));
            } else if reply.body != ingested_body(events) {
                self.tally.mismatch(format!(
                    "batch {tag} of {events} events acknowledged as {}",
                    String::from_utf8_lossy(&reply.body)
                ));
            } else {
                self.ingest_us.push(latency_us);
                self.acked.push((reply.at, events as f64));
                self.latest = tag as usize;
            }
            return Ok(());
        }
        if reply.status != 200 {
            self.tally
                .status(reply.status, 200, &format!("classify of app {tag}"));
            return Ok(());
        }
        match parse_verdict(&reply.body) {
            Ok(v) if v.app == AppId(tag) && v.model_version == 1 => {
                self.classify_us.push(latency_us)
            }
            _ => self.tally.mismatch(format!(
                "app {tag}: edge sent {}",
                String::from_utf8_lossy(&reply.body)
            )),
        }
        Ok(())
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

/// `ingest_mixed`: for the whole run, connection 0 posts the seeded event
/// stream again (400-event NDJSON batches at [`INGEST_RATE`], wrapping at
/// the end), while connection 1 sends classifies at [`MIX_RATE`] for apps
/// touched by the latest acknowledged batch; both are open loop. Their
/// cached verdicts are generation-stale, so nearly every classify scores.
pub fn ingest_mixed(
    deployment: &Deployment,
    inputs: &Inputs,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut gen = connect(deployment, 2)?;
    let mut mix = Mixed {
        inputs,
        next_batch: 0,
        latest: inputs.batches.len() - 1,
        rng: traffic::stream(inputs.seed, 4),
        tally: Tally::default(),
        classify_us: Vec::new(),
        ingest_us: Vec::new(),
        acked: Vec::new(),
    };
    let before = deployment.service.metrics();
    let cpu = ServiceCpu::start();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let lateness = drive(
        &mut gen,
        &mut mix,
        Some(Arrivals::new(INGEST_RATE + MIX_RATE, inputs.seed)),
        start,
        end,
    );
    let after = deployment.service.metrics();
    cpu_metric(
        &mut out,
        cpu.seconds(),
        mix.classify_us.len() + mix.ingest_us.len(),
    );
    lateness_check(lateness, INGEST_RATE + MIX_RATE, "open loop", &mut out);
    open_loop_latency(&mut out, &mix.classify_us);

    let eps = windowed_rate(start, end, &mix.acked);
    op_report(
        &mut out,
        "ingest, events acknowledged; per batch, due time to 202",
        eps,
        &mix.ingest_us,
    );
    cache_delta(&before, &after, &mut out);
    let ratio = out.live.hit_ratio;
    if ratio > 0.05 {
        out.invalid
            .push(format!("cache hit ratio {ratio:.4} is not near 0"));
    }
    out.tally.absorb(mix.tally);
    sample_check(deployment, &inputs.apps, inputs.seed, &mut out.tally)?;
    Ok(out)
}

/// One fenced swap, as the lifecycle caller saw it.
#[derive(Debug, Clone, Copy)]
struct SwapRecord {
    start: Instant,
    end: Instant,
    /// Version serving once the swap returned.
    version: u64,
}

/// The edge's drain/resume fence, timing each drain.
struct TimedFence {
    edge: EdgeHandle,
    drains_us: Mutex<Vec<f64>>,
}

impl SwapFence for TimedFence {
    fn fenced(&self, swap: &mut dyn FnMut()) {
        let waited = self.edge.drain();
        swap();
        self.edge.resume();
        self.drains_us
            .lock()
            .expect("drain log lock")
            .push(micros(waited));
    }
}

/// Reply evidence kept for the after-the-fact stale-epoch check.
struct Answer {
    app: u64,
    sent: Instant,
    at: Instant,
    body: Vec<u8>,
}

/// Open-loop Zipf classifies whose answers are checked once the swap log
/// is complete.
struct Swapping {
    picks: Zipf,
    next_conn: usize,
    tally: Tally,
    latency_us: Vec<f64>,
    answers: Vec<Answer>,
    sent: Vec<u64>,
}

impl Mix for Swapping {
    fn arrival(&mut self) -> (usize, u64, Vec<u8>) {
        self.tally.attempted += 1;
        let app = self.picks.pick();
        self.sent.push(app);
        self.next_conn = (self.next_conn + 1) % 2;
        (self.next_conn, app, classify_request(app))
    }

    fn reply(&mut self, _gen: &mut Generator, reply: Reply, _running: bool) -> io::Result<()> {
        let app = reply.req.tag;
        if reply.status != 200 {
            self.tally
                .status(reply.status, 200, &format!("classify of app {app}"));
            return Ok(());
        }
        self.latency_us
            .push(micros(reply.at.saturating_duration_since(reply.req.due)));
        self.answers.push(Answer {
            app,
            sent: reply.req.sent,
            at: reply.at,
            body: reply.body,
        });
        Ok(())
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

/// Versions an answer may carry: the one serving when the request was
/// sent, or one installed by a swap that began before the answer came.
fn allowed_versions(swaps: &[SwapRecord], sent: Instant, at: Instant) -> Vec<u64> {
    let done_before = swaps.iter().take_while(|s| s.end <= sent).count();
    let serving = done_before.checked_sub(1).map_or(1, |i| swaps[i].version);
    let mut allowed = vec![serving];
    allowed.extend(
        swaps[done_before..]
            .iter()
            .take_while(|s| s.start <= at)
            .map(|s| s.version),
    );
    allowed
}

/// The swap candidate: a retrain on a seeded share of the labelled rows,
/// and how long `frappe_lifecycle::retrain` took (ms).
pub fn retrain_candidate(inputs: &Inputs) -> (RetrainOutcome, f64) {
    let mut rows: Vec<usize> = (0..inputs.samples.len()).collect();
    rows.shuffle(&mut traffic::stream(inputs.seed, 5));
    rows.truncate((rows.len() as f64 * CANDIDATE_SHARE) as usize);
    let samples: Vec<_> = rows.iter().map(|&i| inputs.samples[i]).collect();
    let labels: Vec<bool> = rows.iter().map(|&i| inputs.labels[i]).collect();
    let t = Instant::now();
    let outcome = retrain(&samples, &labels, &RetrainConfig::default());
    (outcome, t.elapsed().as_secs_f64() * 1e3)
}

/// `swap_under_load`: open-loop Zipf classifies at [`SWAP_RATE`] while a
/// second thread, the lifecycle caller, alternates a fenced promote of a
/// retrained candidate with a fenced rollback every [`SWAP_EVERY`],
/// through the [`frappe_lifecycle::LifecycleManager`] with the edge's
/// [`EdgeHandle`] as its swap fence. Every answer must carry the verdict
/// of a model that was serving while it was in flight.
pub fn swap_under_load(
    deployment: &Deployment,
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let service = &deployment.service;
    let manager = &deployment.manager;

    let (outcome, retrain_ms) = retrain_candidate(inputs);
    out.live.retrain_ms = retrain_ms;
    let source = outcome.source(Some(1));
    let candidate = Arc::new(outcome.model);

    // what each app's verdict must be under either model
    let mut expected: HashMap<u64, (Verdict, f64)> = HashMap::new();
    for verdict in &deployment.warm {
        let features = service
            .features(verdict.app)
            .ok_or_else(|| format!("no features for app {}", verdict.app))?;
        let rescored = candidate.decision_value(&features);
        expected.insert(verdict.app.raw(), (verdict.clone(), rescored));
    }

    let fence = Arc::new(TimedFence {
        edge: deployment.server.handle(),
        drains_us: Mutex::new(Vec::new()),
    });
    if traced {
        manager.set_swap_fence(Arc::clone(&fence) as Arc<dyn SwapFence>);
    } else {
        manager.set_swap_fence(Arc::new(deployment.server.handle()));
    }

    let mut gen = connect(deployment, 2)?;
    let mut mix = Swapping {
        picks: Zipf::new(&inputs.apps, ZIPF_S, inputs.seed),
        next_conn: 1,
        tally: Tally::default(),
        latency_us: Vec::new(),
        answers: Vec::new(),
        sent: Vec::new(),
    };
    let before = service.metrics();
    let cpu = ServiceCpu::start();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (lateness, (swaps, swap_us, swap_error)) = std::thread::scope(|scope| {
        let lifecycle = scope.spawn(|| {
            let mut swaps: Vec<SwapRecord> = Vec::new();
            let mut swap_us = Vec::new();
            let mut next = start + SWAP_EVERY;
            while next < end {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                let t0 = Instant::now();
                let version = if swaps.len().is_multiple_of(2) {
                    manager.begin_shadow(Arc::clone(&candidate), source);
                    match manager.try_promote() {
                        PromotionOutcome::Promoted(v) => v,
                        other => return (swaps, swap_us, Some(format!("{other:?}"))),
                    }
                } else {
                    match manager.rollback() {
                        Ok(v) => v,
                        Err(e) => return (swaps, swap_us, Some(e.to_string())),
                    }
                };
                let t1 = Instant::now();
                swaps.push(SwapRecord {
                    start: t0,
                    end: t1,
                    version,
                });
                swap_us.push(micros(t1 - t0));
                next = (next + SWAP_EVERY).max(t1);
            }
            (swaps, swap_us, None)
        });
        let lateness = drive(
            &mut gen,
            &mut mix,
            Some(Arrivals::new(SWAP_RATE, inputs.seed)),
            start,
            end,
        );
        let swaps = lifecycle
            .join()
            .expect("the lifecycle thread does not panic");
        (lateness, swaps)
    });
    let after = service.metrics();
    cpu_metric(&mut out, cpu.seconds(), mix.latency_us.len());
    manager.take_swap_fence();
    if let Some(e) = swap_error {
        out.invalid.push(format!("a fenced swap failed: {e}"));
    }

    lateness_check(lateness, SWAP_RATE, "open loop", &mut out);
    open_loop_latency(&mut out, &mix.latency_us);
    for answer in &mix.answers {
        let allowed = allowed_versions(&swaps, answer.sent, answer.at);
        let Ok(served) = parse_verdict(&answer.body) else {
            mix.tally.mismatch(format!(
                "app {}: unparsable verdict {}",
                answer.app,
                String::from_utf8_lossy(&answer.body)
            ));
            continue;
        };
        if !allowed.contains(&served.model_version) {
            mix.tally.stale(format!(
                "app {}: version {} served, but {allowed:?} were current",
                answer.app, served.model_version
            ));
            continue;
        }
        let (base_verdict, candidate_dv) = &expected[&answer.app];
        let mut want = base_verdict.clone();
        if served.model_version != 1 {
            want.decision_value = *candidate_dv;
            want.malicious = *candidate_dv >= 0.0;
        }
        want.model_version = served.model_version;
        if answer.body
            != serde_json::to_string(&want)
                .expect("verdicts serialize")
                .as_bytes()
        {
            mix.tally.mismatch(format!(
                "app {}: edge sent {}",
                answer.app,
                String::from_utf8_lossy(&answer.body)
            ));
        }
    }
    let swaps_done: Vec<(Instant, f64)> = swaps.iter().map(|s| (s.end, 1.0)).collect();
    op_report(
        &mut out,
        "fenced swaps, alternating promote and rollback",
        windowed_rate(start, end, &swaps_done),
        &swap_us,
    );
    if mix.tally.stale > 0 {
        out.invalid
            .push(format!("{} stale-epoch verdicts served", mix.tally.stale));
    }
    cache_delta(&before, &after, &mut out);
    out.live.drain_us = std::mem::take(&mut *fence.drains_us.lock().expect("drain log lock"));
    out.live.picks = std::mem::take(&mut mix.sent);
    out.live.candidate = Some(candidate);
    // leave the base model serving for the end-of-run sample
    if manager.registry().active_version() != 1 {
        manager
            .rollback()
            .map_err(|e| format!("final rollback: {e}"))?;
    }
    out.tally.absorb(mix.tally);
    sample_check(deployment, &inputs.apps, inputs.seed, &mut out.tally)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_versions_follow_the_swap_log() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let swaps = [
            SwapRecord {
                start: at(10),
                end: at(12),
                version: 2,
            },
            SwapRecord {
                start: at(20),
                end: at(22),
                version: 1,
            },
        ];
        // before any swap: the seed version, or a swap that began meanwhile
        assert_eq!(allowed_versions(&swaps, at(1), at(5)), vec![1]);
        assert_eq!(allowed_versions(&swaps, at(9), at(11)), vec![1, 2]);
        // sent after the promote returned: only the promoted version
        assert_eq!(allowed_versions(&swaps, at(13), at(15)), vec![2]);
        assert_eq!(allowed_versions(&swaps, at(12), at(21)), vec![2, 1]);
        assert_eq!(allowed_versions(&swaps, at(30), at(31)), vec![1]);
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs(8);
        // 10 completions in each one-second window, one window doubled
        let mut done: Vec<(Instant, f64)> = (0..80)
            .map(|i| (t0 + Duration::from_millis(i * 100 + 5), 1.0))
            .collect();
        done.extend((0..10).map(|i| (t0 + Duration::from_millis(i * 100 + 7), 1.0)));
        assert!((windowed_rate(t0, end, &done) - 10.0).abs() < 1e-9);
    }
}
