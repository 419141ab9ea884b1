//! # frappe-serve — FRAppE as an always-on service
//!
//! The paper closes by arguing FRAppE should run "as a service to which
//! one can query any app ID" (§8). The batch pipeline in [`frappe`]
//! answers that question after the fact, over a finished trace; this
//! crate answers it **while the trace is happening**: it subscribes to
//! the platform event stream, folds every observation into per-app
//! running aggregates, and classifies any app on demand with a
//! pre-trained [`frappe::FrappeModel`].
//!
//! ```text
//!  platform tap ──► ServeEvent ──► ingest ─► owner partition's FeatureStore
//!  scenario replay ─┘                         (N shards, RwLock) │ snapshot
//!                                                                ▼
//!  classify(app) ─► owner partition ─► VerdictCache probe ── hit ──► Verdict
//!                                        │ miss (generation-stamped)   ▲
//!                                        ▼                             │
//!                                   snapshot + SVM eval ─► cache put ──┘
//!                                   (caller's thread; a panic here is
//!                                    ServeError::Internal, not a crash)
//!
//!  K partitions (ServeConfig::groups, default 1) share one ControlPlane:
//!  the model epoch pointer and the known-malicious names.
//! ```
//!
//! The load-bearing invariant is **batch parity**: after ingesting a
//! world's event stream, every feature snapshot is bit-for-bit equal to
//! what the offline extractors compute from the same world, so online
//! verdicts coincide with `FrappeModel::predict` exactly
//! (`tests/serve_parity.rs`). Incrementality buys speed, never drift.
//!
//! Module map: [`event`] is the input vocabulary, [`store`] the sharded
//! incremental feature state, [`cache`] the generation-stamped verdict
//! memo, [`control`] the model pointer and known names every
//! partition shares, [`metrics`] the observability layer (a thin view
//! over a per-partition [`frappe_obs::Registry`], exportable as
//! Prometheus text or JSONL), `router` (private) the partition hash and
//! the scrape merge, [`service`] the façade, and [`bridge`] the adapter
//! from synthetic scenarios. The service can also stream explained
//! verdicts into an [`frappe_obs::AuditLog`]
//! (see [`FrappeService::set_audit_log`]).
//!
//! The service scores through a [`frappe::SharedModel`] epoch-pointer,
//! so a lifecycle layer (`frappe-lifecycle`) can retrain, hot-swap,
//! and roll back models behind a running instance
//! ([`FrappeService::swap_model`]); every verdict is stamped with the
//! model version that produced it, and the cache's model-epoch stamp
//! guarantees no swap ever serves a stale verdict.
//!
//! ## Scale-out: partitions
//!
//! One partition's callers contend on its store and cache locks.
//! [`ServeConfig::groups`] splits the app-id space across K partitions
//! behind the same [`FrappeService`]: each owns a private store, cache
//! and registry, and ingest and classify go straight to the owner
//! partition on the caller's thread — the service owns no threads. The
//! [`control::ControlPlane`] (model epoch pointer and known-names
//! generation) is shared by construction, so hot swaps and name flags stay globally atomic, and
//! [`FrappeService::exposition`] merges the K registries into one scrape
//! with `group="<i>"` lanes. Verdicts are bit-identical at every K
//! (`tests/catalog_parity.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod cache;
pub mod control;
pub mod event;
pub mod metrics;
pub(crate) mod router;
pub mod service;
pub mod store;

pub use bridge::{serve_events, service_from_world};
pub use cache::CacheLookup;
pub use control::{ControlPlane, ControlStamp};
pub use event::ServeEvent;
pub use metrics::{LatencySnapshot, MetricsSnapshot};
pub use service::{ErrorEnvelope, FrappeService, ServeConfig, ServeError, Verdict};
pub use store::{FeatureSnapshot, FeatureStore};
