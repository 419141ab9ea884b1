//! Routing helpers for a [`FrappeService`](crate::FrappeService) with
//! K > 1 partitions: which partition owns an app ([`group_index`]), and
//! how the K partition registries merge into one scrape
//! ([`merge_expositions`]).
//!
//! ## Why the group hash is *not* the store hash
//!
//! Each partition internally re-shards its apps with
//! `store::shard_index`. If the group hash used the same mixer with
//! the same seed, then for group count K and inner shard count S with
//! `gcd(K, S) > 1` the two hashes would correlate perfectly: every app
//! owned by group `g` satisfies `h ≡ g (mod K)`, so at `K == S` all of a
//! group's apps land on **one** inner shard and the group's lock
//! striping degenerates to a single lock. `group_index` therefore runs
//! the same rotate–xor–multiply mixer under a different seed, which
//! decorrelates the two partitions (a unit test pins this).
//!
//! ## Metrics
//!
//! Every partition owns a private registry (its `serve_*` lanes count
//! only its apps). The service's base registry holds the `route_*` and
//! `control_*` families plus whatever the edge and the lifecycle layer
//! register, and [`merge_expositions`] folds all of them into one
//! scrape: base families verbatim, each group's families re-labelled
//! `group="<idx>"`, plus an unlabelled sum per additive family.
//! Non-additive families (gauges, and counters that are K views of one
//! shared mutation, like `serve_model_swaps`) are exempt from summing —
//! that is the no-double-count rule, pinned byte-exactly in a test below.

use std::collections::BTreeMap;

use frappe_obs::{HistogramSnapshot, MetricSnapshot, MetricValue, RegistrySnapshot};
use osn_types::ids::AppId;

/// Counter families that every group bumps once per *shared* control
/// mutation: summing them across groups would report one swap K times.
/// They still appear per group; the control plane's `control_*` gauges
/// carry the authoritative shared value.
pub(crate) const SHARED_FAMILIES: &[&str] = &["serve_model_swaps"];

/// Maps an app id onto its owner group.
///
/// Same rotate–xor–multiply mixer as [`crate::store::shard_index`] but
/// under a distinct seed, so group ownership and a group's *inner* store
/// sharding are decorrelated (see the module docs for why reusing the
/// store seed degenerates at `groups == shards`). Pure arithmetic on the
/// id and a compile-time seed: deterministic across runs and processes.
pub(crate) fn group_index(app: AppId, groups: usize) -> usize {
    const SEED: u64 = 0xC2B2_AE3D_27D4_EB4F; // distinct from the store seed
    const FX: u64 = 0x517C_C1B7_2722_0A95; // FxHash 64-bit multiplier
    let mut h = (SEED.rotate_left(5) ^ app.raw()).wrapping_mul(FX);
    h ^= h >> 32;
    h = h.wrapping_mul(FX);
    h ^= h >> 32;
    (h % groups as u64) as usize
}

/// Merges per-group registry snapshots into one exposition.
///
/// * `base` families pass through untouched (router-owned, exactly one
///   writer — never doubled).
/// * every group metric is re-emitted with a `group="<idx>"` label
///   appended, one lane per group.
/// * additive families — counters and histograms not listed in
///   `shared` — additionally get an unlabelled sum, *unless* the family
///   name already exists in `base` (summing into a base family would
///   double-count it). Gauges never sum: a level is not additive in
///   general, and the shared ones (model version) would multiply by K.
pub(crate) fn merge_expositions(
    base: RegistrySnapshot,
    groups: &[RegistrySnapshot],
    shared: &[&str],
) -> RegistrySnapshot {
    let base_families: std::collections::BTreeSet<&str> =
        base.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut totals: BTreeMap<(String, Vec<(String, String)>), MetricValue> = BTreeMap::new();
    let mut merged = Vec::new();
    for (g, snap) in groups.iter().enumerate() {
        for m in &snap.metrics {
            let aggregates = !base_families.contains(m.name.as_str())
                && !shared.contains(&m.name.as_str())
                && !matches!(m.value, MetricValue::Gauge(_));
            if aggregates {
                let key = (m.name.clone(), m.labels.clone());
                match totals.entry(key) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(m.value.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        accumulate(slot.get_mut(), &m.value);
                    }
                }
            }
            let mut labels = m.labels.clone();
            labels.push(("group".to_owned(), g.to_string()));
            merged.push(MetricSnapshot {
                name: m.name.clone(),
                labels,
                value: m.value.clone(),
            });
        }
    }
    merged.extend(base.metrics);
    merged.extend(
        totals
            .into_iter()
            .map(|((name, labels), value)| MetricSnapshot {
                name,
                labels,
                value,
            }),
    );
    merged.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    RegistrySnapshot { metrics: merged }
}

/// Folds `next` into `acc`; both sides must be the same kind (they come
/// from identically constructed per-group registries).
fn accumulate(acc: &mut MetricValue, next: &MetricValue) {
    match (acc, next) {
        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => merge_histograms(a, b),
        (acc, next) => {
            debug_assert!(false, "metric kind mismatch: {acc:?} vs {next:?}");
        }
    }
}

fn merge_histograms(acc: &mut HistogramSnapshot, next: &HistogramSnapshot) {
    debug_assert_eq!(acc.bounds, next.bounds, "same family, same bounds");
    for (a, b) in acc.counts.iter_mut().zip(next.counts.iter()) {
        *a += b;
    }
    for (a, b) in acc.exemplars.iter_mut().zip(next.exemplars.iter()) {
        if a.is_none() {
            *a = *b;
        }
    }
    acc.sum += next.sum;
    acc.count += next.count;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::shard_index;
    use frappe_obs::Registry;

    #[test]
    fn group_index_is_deterministic_and_in_range() {
        for groups in [1usize, 2, 4, 8, 13] {
            for raw in [0u64, 1, 42, u64::MAX, 1 << 33] {
                let a = group_index(AppId(raw), groups);
                let b = group_index(AppId(raw), groups);
                assert_eq!(a, b, "same app, same group, every time");
                assert!(a < groups);
            }
        }
    }

    /// The router-balance satellite: clustered/sequential app ids (the
    /// stride-allocated ranges that broke modulo sharding in PR 3) must
    /// spread ≤2× uniform across groups, for every supported group
    /// count.
    #[test]
    fn clustered_app_ids_spread_within_2x_of_uniform_across_groups() {
        for groups in [2usize, 4, 8] {
            for (stride, offset) in [(1u64, 0u64), (16, 0), (64, 3), (1 << 20, 7)] {
                let n = 256u64;
                let mut occupancy = vec![0usize; groups];
                for i in 0..n {
                    occupancy[group_index(AppId(offset + i * stride), groups)] += 1;
                }
                let mean = n as usize / groups;
                let mut occupied = 0;
                for (g, &got) in occupancy.iter().enumerate() {
                    assert!(
                        got <= 2 * mean,
                        "groups={groups} stride={stride}: group {g} holds {got}, \
                         2x-uniform bound is {}",
                        2 * mean
                    );
                    occupied += usize::from(got > 0);
                }
                assert!(
                    occupied > groups / 2,
                    "groups={groups} stride={stride}: only {occupied}/{groups} groups used"
                );
            }
        }
    }

    /// The reason [`group_index`] has its own seed: with the store's
    /// seed, an app's group and its inner shard would satisfy
    /// `group ≡ shard (mod gcd(K, S))`, collapsing each group's
    /// partition onto a single inner shard at `K == S`. With the
    /// distinct seed, every group's apps must keep using *most* of its
    /// inner shards.
    #[test]
    fn group_hash_is_decorrelated_from_the_inner_store_hash() {
        let groups = 4usize;
        let shards = 4usize; // the degenerate case for a shared seed
        let mut inner: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); groups];
        for raw in 0..512u64 {
            let app = AppId(raw);
            inner[group_index(app, groups)].insert(shard_index(app, shards));
        }
        for (g, used) in inner.iter().enumerate() {
            assert!(
                used.len() >= shards - 1,
                "group {g} funnels into only {} of {shards} inner shards",
                used.len()
            );
        }
    }

    /// The merged-exposition contract, pinned byte-exactly (the
    /// multi-group analogue of the registry's own escaping test): base
    /// families verbatim, per-group lanes labelled `group="i"`, additive
    /// families summed once, shared counters and gauges never summed.
    #[test]
    fn merged_exposition_bytes_are_pinned() {
        let base = Registry::new();
        base.counter("lifecycle_promotions").add(2);
        base.gauge("control_model_version").set(3);

        let g0 = Registry::new();
        g0.counter("serve_queries_served").add(5);
        g0.counter("serve_model_swaps").add(1); // shared: one swap, K views
        g0.gauge("serve_queue_depth").set(4);
        let h0 = g0.histogram("serve_query_latency_micros", &[10, 100]);
        h0.observe(7);
        h0.observe_with_exemplar(50, 0xabc);

        let g1 = Registry::new();
        g1.counter("serve_queries_served").add(3);
        g1.counter("serve_model_swaps").add(1);
        g1.gauge("serve_queue_depth").set(1);
        let h1 = g1.histogram("serve_query_latency_micros", &[10, 100]);
        h1.observe(5_000);

        let merged = merge_expositions(
            base.snapshot(),
            &[g0.snapshot(), g1.snapshot()],
            &["serve_model_swaps"],
        );
        assert_eq!(
            merged.to_prometheus_text(),
            "# TYPE control_model_version gauge\n\
             control_model_version 3\n\
             # TYPE lifecycle_promotions counter\n\
             lifecycle_promotions 2\n\
             # TYPE serve_model_swaps counter\n\
             serve_model_swaps{group=\"0\"} 1\n\
             serve_model_swaps{group=\"1\"} 1\n\
             # TYPE serve_queries_served counter\n\
             serve_queries_served 8\n\
             serve_queries_served{group=\"0\"} 5\n\
             serve_queries_served{group=\"1\"} 3\n\
             # TYPE serve_query_latency_micros histogram\n\
             serve_query_latency_micros_bucket{le=\"10\"} 1\n\
             serve_query_latency_micros_bucket{le=\"100\"} 2 # {trace_id=\"0000000000000abc\"} 50\n\
             serve_query_latency_micros_bucket{le=\"+Inf\"} 3\n\
             serve_query_latency_micros_sum 5057\n\
             serve_query_latency_micros_count 3\n\
             serve_query_latency_micros_bucket{group=\"0\",le=\"10\"} 1\n\
             serve_query_latency_micros_bucket{group=\"0\",le=\"100\"} 2 # {trace_id=\"0000000000000abc\"} 50\n\
             serve_query_latency_micros_bucket{group=\"0\",le=\"+Inf\"} 2\n\
             serve_query_latency_micros_sum{group=\"0\"} 57\n\
             serve_query_latency_micros_count{group=\"0\"} 2\n\
             serve_query_latency_micros_bucket{group=\"1\",le=\"10\"} 0\n\
             serve_query_latency_micros_bucket{group=\"1\",le=\"100\"} 0\n\
             serve_query_latency_micros_bucket{group=\"1\",le=\"+Inf\"} 1\n\
             serve_query_latency_micros_sum{group=\"1\"} 5000\n\
             serve_query_latency_micros_count{group=\"1\"} 1\n\
             # TYPE serve_queue_depth gauge\n\
             serve_queue_depth{group=\"0\"} 4\n\
             serve_queue_depth{group=\"1\"} 1\n"
        );
    }

    /// A base-registry family with the same name as a group family must
    /// suppress the aggregate — summing into it would double-count.
    #[test]
    fn base_families_suppress_the_group_aggregate() {
        let base = Registry::new();
        base.counter("serve_queries_served").add(100);
        let g0 = Registry::new();
        g0.counter("serve_queries_served").add(5);
        let merged = merge_expositions(base.snapshot(), &[g0.snapshot()], &[]);
        assert_eq!(
            merged.to_prometheus_text(),
            "# TYPE serve_queries_served counter\n\
             serve_queries_served 100\n\
             serve_queries_served{group=\"0\"} 5\n"
        );
    }
}
