//! The scorer worker pool.
//!
//! Classification requests flow through one bounded crossbeam channel to
//! N worker threads. A worker that wakes up drains up to `batch_size`
//! queued requests before scoring any of them — under load this amortizes
//! the wake-up and keeps hot cache lines (model support vectors) resident
//! across consecutive scores; under light load batches degenerate to size
//! 1 and latency stays minimal.
//!
//! Only cache misses ever enter the queue: a classify whose verdict is
//! already cached is answered on the caller's thread before it reaches
//! the pool (see `FrappeService::classify_traced`). Queue backpressure
//! and the `serve_queue_depth` / `serve_batches_scored` metrics
//! therefore cover misses (and unknown apps) only.
//!
//! Backpressure is *reject, not block*: `submit` uses `try_send`, and a
//! full queue surfaces [`ServeError::Overloaded`] with a retry-after hint
//! immediately. The alternative — blocking the caller — would let a
//! scoring stall back up into the ingest path, which must never lose
//! events.
//!
//! Each request carries a one-shot completion [`Slot`]: the worker fills
//! it, then fires the request's [`Notify`] hook, if it came with one (the
//! network edge passes its reactor waker this way). A request dropped
//! unscored resolves to [`ServeError::ShuttingDown`] and fires the hook
//! all the same, so a caller waiting on it can never wedge.
//!
//! Shutdown: dropping the pool closes the channel; workers drain what
//! is still queued, then exit, and are joined.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use osn_types::ids::AppId;

use crate::service::{Notify, ScoreEngine, ServeError, TraceCtx, Verdict};

type Outcome = Result<Verdict, ServeError>;

/// One classification's answer: written once by a scorer, taken once by
/// the caller's `PendingVerdict`. A poisoned lock is recovered: every
/// write is one whole `Option` store, so the value is always valid.
#[derive(Default)]
pub(crate) struct Slot {
    outcome: Mutex<Option<Outcome>>,
    filled: Condvar,
}

impl Slot {
    /// The outcome, if the scorer has written it.
    pub(crate) fn try_take(&self) -> Option<Outcome> {
        self.outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Parks until the scorer writes the outcome.
    pub(crate) fn wait(&self) -> Outcome {
        let mut outcome = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = outcome.take() {
                return outcome;
            }
            outcome = self
                .filled
                .wait(outcome)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The scorer's half of a [`Slot`]. Filling it publishes the outcome and
/// then fires the notifier; dropping it unfilled publishes
/// [`ServeError::ShuttingDown`] the same way.
struct Completion {
    slot: Option<Arc<Slot>>,
    notify: Option<Notify>,
}

impl Completion {
    fn fill(mut self, outcome: Outcome) {
        self.publish(outcome);
    }

    fn disarm(mut self) {
        self.slot = None;
    }

    fn publish(&mut self, outcome: Outcome) {
        let Some(slot) = self.slot.take() else {
            return;
        };
        *slot.outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        slot.filled.notify_one();
        // only once the verdict is readable: a woken caller must find it
        if let Some(notify) = self.notify.take() {
            notify();
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        self.publish(Err(ServeError::ShuttingDown));
    }
}

/// One queued classification request.
struct Request {
    app: AppId,
    done: Completion,
    /// Trace context riding with the request across the pool boundary;
    /// the worker records the queue-wait and scoring spans into it.
    trace: Option<TraceCtx>,
}

/// Fixed-size pool of scorer threads behind a bounded queue.
pub(crate) struct ScorerPool {
    tx: Option<Sender<Request>>,
    // kept so `try_send` distinguishes Full from Disconnected even with
    // zero workers (shutdown is signalled by dropping `tx`, not this)
    _rx: Receiver<Request>,
    workers: Vec<JoinHandle<()>>,
    retry_after_ms: u64,
}

impl ScorerPool {
    pub(crate) fn new(
        workers: usize,
        queue_capacity: usize,
        batch_size: usize,
        retry_after_ms: u64,
        engine: Arc<ScoreEngine>,
    ) -> Self {
        let (tx, rx) = bounded::<Request>(queue_capacity);
        let workers = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("frappe-scorer-{i}"))
                    .spawn(move || worker_loop(rx, engine, batch_size))
                    .expect("spawning a scorer thread")
            })
            .collect();
        ScorerPool {
            tx: Some(tx),
            _rx: rx,
            workers,
            retry_after_ms,
        }
    }

    /// Enqueues a request; returns the slot its answer will land in, or
    /// rejects immediately if the queue is full. `notify` fires once the
    /// slot is filled (or abandoned).
    pub(crate) fn submit(
        &self,
        app: AppId,
        trace: Option<TraceCtx>,
        notify: Option<Notify>,
    ) -> Result<Arc<Slot>, ServeError> {
        let tx = self.tx.as_ref().ok_or(ServeError::ShuttingDown)?;
        let slot = Arc::new(Slot::default());
        let request = Request {
            app,
            done: Completion {
                slot: Some(Arc::clone(&slot)),
                notify,
            },
            trace,
        };
        match tx.try_send(request) {
            Ok(()) => Ok(slot),
            Err(err) => {
                let rejection = match &err {
                    TrySendError::Full(_) => ServeError::Overloaded {
                        retry_after_ms: self.retry_after_ms,
                    },
                    TrySendError::Disconnected(_) => ServeError::ShuttingDown,
                };
                // the caller hears the rejection right here: the bounced
                // request must neither publish nor notify
                err.into_inner().done.disarm();
                Err(rejection)
            }
        }
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub(crate) fn queue_depth(&self) -> usize {
        self.tx.as_ref().map_or(0, Sender::len)
    }
}

impl Drop for ScorerPool {
    fn drop(&mut self) {
        // closing the channel is the shutdown signal
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: Receiver<Request>, engine: Arc<ScoreEngine>, batch_size: usize) {
    let mut batch = Vec::with_capacity(batch_size);
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < batch_size {
            match rx.try_recv() {
                Ok(request) => batch.push(request),
                Err(_) => break,
            }
        }
        engine.metrics().batch_scored();
        for request in batch.drain(..) {
            // a caller that gave up (dropped its handle) just never reads it
            let outcome = engine.score_traced(request.app, request.trace.as_ref());
            request.done.fill(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    // The happy path is exercised end-to-end through `FrappeService`
    // (service tests + tests/serve_parity.rs); what needs direct coverage
    // here is the backpressure contract, made deterministic with a
    // zero-worker pool (nothing ever drains the queue).
    use super::*;
    use crate::event::ServeEvent;
    use crate::service::{FrappeService, ServeConfig};
    use frappe::features::aggregation::{AggregationFeatures, KnownMaliciousNames};
    use frappe::{AppFeatures, FeatureSet, FrappeModel, OnDemandFeatures};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use url_services::shortener::Shortener;

    fn one_worker_service(queue_capacity: usize) -> FrappeService {
        let row = |app: u64, malicious: bool| AppFeatures {
            app: AppId(app),
            on_demand: OnDemandFeatures {
                has_description: Some(!malicious),
                permission_count: Some(if malicious { 1 } else { 5 }),
                ..Default::default()
            },
            aggregation: AggregationFeatures {
                name_matches_known_malicious: malicious,
                external_link_ratio: Some(if malicious { 1.0 } else { 0.0 }),
            },
        };
        let samples: Vec<AppFeatures> = (0..6).map(|i| row(i, i % 2 == 1)).collect();
        let labels: Vec<bool> = (0..6).map(|i| i % 2 == 1).collect();
        let model = FrappeModel::train(&samples, &labels, FeatureSet::Full, None);
        FrappeService::new(
            model,
            KnownMaliciousNames::default(),
            Shortener::bitly(),
            ServeConfig {
                groups: 1,
                shards: 1,
                workers: 1,
                queue_capacity,
                batch_size: 2,
                retry_after_ms: 3,
            },
        )
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let svc = one_worker_service(1);
        svc.ingest(&ServeEvent::Registered {
            app: AppId(1),
            name: "a".into(),
        });
        // a stalled pool: zero workers, capacity 1 — the second submit
        // must be shed immediately with the configured retry hint
        let stalled = ScorerPool::new(0, 1, 4, 3, svc.engine_for_test());
        let first = stalled.submit(AppId(1), None, None);
        assert!(first.is_ok(), "capacity 1 admits one request");
        let fired = Arc::new(AtomicUsize::new(0));
        let notify: Notify = {
            let fired = Arc::clone(&fired);
            Arc::new(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            })
        };
        match stalled.submit(AppId(1), None, Some(notify)) {
            Err(ServeError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 3),
            Err(other) => panic!("expected Overloaded, got {other:?}"),
            Ok(_) => panic!("expected Overloaded, got a queued slot"),
        }
        assert_eq!(stalled.queue_depth(), 1);
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "a rejected request is answered by the rejection, never notified"
        );
    }

    #[test]
    fn dropping_the_pool_resolves_queued_slots_and_notifies() {
        let svc = one_worker_service(1);
        let stalled = ScorerPool::new(0, 2, 4, 3, svc.engine_for_test());
        let fired = Arc::new(AtomicUsize::new(0));
        let notify: Notify = {
            let fired = Arc::clone(&fired);
            Arc::new(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            })
        };
        let slot = stalled
            .submit(AppId(1), None, Some(notify))
            .expect("an empty queue admits");
        assert!(slot.try_take().is_none(), "nothing drains a 0-worker pool");
        drop(stalled);
        assert_eq!(slot.wait(), Err(ServeError::ShuttingDown));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sequential_callers_are_never_shed() {
        // classify() blocks on the reply, so one caller can hold at most
        // one queue slot — even capacity 1 must serve it every time
        let svc = one_worker_service(1);
        svc.ingest(&ServeEvent::Registered {
            app: AppId(1),
            name: "a".into(),
        });
        for _ in 0..200 {
            svc.classify(AppId(1))
                .expect("uncontended path never sheds");
        }
        assert_eq!(svc.metrics().rejected, 0);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let svc = one_worker_service(4);
        svc.ingest(&ServeEvent::Registered {
            app: AppId(2),
            name: "b".into(),
        });
        let _ = svc.classify(AppId(2));
        drop(svc); // must not hang or panic
    }
}
