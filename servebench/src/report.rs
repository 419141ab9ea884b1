//! Metric definitions and the result line.

use std::fmt::Write as _;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["classify_hot", "ingest_mixed", "swap_under_load"];

/// An end-to-end metric: what a user of the service sees. Every workload
/// reports every one. Latencies and rates are reported beside them,
/// unbounded (see README.md).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd { name, unit, better }
}

/// Every end-to-end metric (untraced runs).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("cpu_us_per_req", "us", "lower"),
    e2e("success_ratio", "ratio", "higher"),
    e2e("setup_s", "s", "lower"),
    e2e("rss_mb", "MiB", "lower"),
];

/// A per-layer metric: one public call, timed from the benchmark.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The call it times.
    pub call: &'static str,
    /// End-to-end metrics it should move; latencies named without an
    /// underscore are the run's unbounded ones.
    pub moves: &'static str,
    /// Workloads on which it should move them (every workload reports it).
    pub on: &'static [&'static str],
}

/// Every per-layer metric (traced runs).
pub const LAYERS: &[Layer] = &[
    Layer {
        name: "net.parse_ns",
        unit: "ns",
        better: "lower",
        call: "http::RequestParser::next_request on the generator's request bytes",
        moves: "cpu_us_per_req, classify p50",
        on: &["classify_hot"],
    },
    Layer {
        name: "net.event_decode_ns",
        unit: "ns",
        better: "lower",
        call: "serde_json::from_str::<ServeEvent> per NDJSON line",
        moves: "cpu_us_per_req, ingest batch p50",
        on: &["ingest_mixed"],
    },
    Layer {
        name: "net.verdict_encode_ns",
        unit: "ns",
        better: "lower",
        call: "serde_json::to_string(&Verdict) + Response::write_into",
        moves: "cpu_us_per_req, classify p50",
        on: &["classify_hot"],
    },
    Layer {
        name: "net.residual_p50_us",
        unit: "us",
        better: "lower",
        call: "classify p50 minus serve.classify_* p50, parse and encode",
        moves: "classify p50",
        on: &WORKLOADS,
    },
    Layer {
        name: "net.residual_p99_us",
        unit: "us",
        better: "lower",
        call: "classify p99 minus serve.classify_* p99, parse and encode",
        moves: "classify p99",
        on: &WORKLOADS,
    },
    Layer {
        name: "net.drain_p50_us",
        unit: "us",
        better: "lower",
        call: "EdgeHandle::drain inside the run's fenced swaps (on an idle edge off swap_under_load)",
        moves: "fenced swap p99",
        on: &["swap_under_load"],
    },
    Layer {
        name: "net.drain_p99_us",
        unit: "us",
        better: "lower",
        call: "EdgeHandle::drain inside the run's fenced swaps (on an idle edge off swap_under_load)",
        moves: "fenced swap p99",
        on: &["swap_under_load"],
    },
    Layer {
        name: "serve.ingest_ns",
        unit: "ns",
        better: "lower",
        call: "FrappeService::ingest per event",
        moves: "cpu_us_per_req, ingest batch p50",
        on: &["ingest_mixed"],
    },
    Layer {
        name: "serve.snapshot_ns",
        unit: "ns",
        better: "lower",
        call: "FrappeService::features",
        moves: "cpu_us_per_req, classify p50",
        on: &["ingest_mixed"],
    },
    Layer {
        name: "serve.classify_hit_us",
        unit: "us",
        better: "lower",
        call: "in-process FrappeService::classify, cache hit (median)",
        moves: "cpu_us_per_req, classify p50",
        on: &["classify_hot"],
    },
    Layer {
        name: "serve.classify_miss_us",
        unit: "us",
        better: "lower",
        call: "in-process FrappeService::classify, generation-stale miss (median)",
        moves: "cpu_us_per_req, classify p50",
        on: &["ingest_mixed"],
    },
    Layer {
        name: "serve.cache_hit_ratio",
        unit: "ratio",
        better: "higher",
        call: "MetricsSnapshot cache hits over lookups during the run",
        moves: "cpu_us_per_req, classify p50",
        on: &WORKLOADS,
    },
    Layer {
        name: "serve.rejected",
        unit: "count",
        better: "lower",
        call: "MetricsSnapshot rejected during the run",
        moves: "success_ratio",
        on: &WORKLOADS,
    },
    Layer {
        name: "svm.eval_ns",
        unit: "ns",
        better: "lower",
        call: "FrappeModel::decision_value on the workload's snapshot features",
        moves: "cpu_us_per_req, classify p50 (no change predicted on classify_hot)",
        on: &["ingest_mixed", "swap_under_load"],
    },
    Layer {
        name: "lifecycle.swap_us",
        unit: "us",
        better: "lower",
        call: "FrappeService::swap_model (median)",
        moves: "fenced swap p50",
        on: &["swap_under_load"],
    },
    Layer {
        name: "lifecycle.retrain_ms",
        unit: "ms",
        better: "lower",
        call: "frappe_lifecycle::retrain on the labelled rows",
        moves: "setup_s",
        on: &["swap_under_load"],
    },
    Layer {
        name: "lifecycle.rescore_misses",
        unit: "count",
        better: "lower",
        call: "cache misses in the in-process classify pass after each FrappeService::swap_model (median)",
        moves: "cpu_us_per_req, classify p99",
        on: &["swap_under_load"],
    },
    Layer {
        name: "obs.trace_overhead",
        unit: "ratio",
        better: "lower",
        call: "classify p99 with a TraceCollector attached over without (median of pairs)",
        moves: "classify p99",
        on: &["classify_hot"],
    },
];

/// The unit of a metric, by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| LAYERS.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("{name} is not a defined metric"))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = serde_json::to_string(value).expect("finite metric values serialize");
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// Whether a metric name is well formed.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        assert!(!valid_name("net/parse"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get_field(key)
            .unwrap_or_else(|| panic!("no {key} in {v:?}"))
    }

    fn array(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_these_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = serde_json::parse_value(&text).unwrap();
        assert_eq!(
            field(&json, "run_seconds").as_f64(),
            Some(crate::RUN_SECONDS)
        );
        let workloads: Vec<&str> = array(field(&json, "workloads"))
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = array(field(&json, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (def, entry) in END_TO_END.iter().zip(e2e) {
            assert_eq!(field(entry, "name").as_str(), Some(def.name));
            assert_eq!(field(entry, "unit").as_str(), Some(def.unit));
            assert_eq!(field(entry, "better").as_str(), Some(def.better));
            let bound = field(entry, "bound").as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        let layers = array(field(&json, "per_layer"));
        assert_eq!(layers.len(), LAYERS.len());
        for (def, entry) in LAYERS.iter().zip(layers) {
            assert_eq!(field(entry, "name").as_str(), Some(def.name));
            assert_eq!(field(entry, "unit").as_str(), Some(def.unit));
            assert_eq!(field(entry, "better").as_str(), Some(def.better));
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 0, 0, &[("setup_s", 1.25), ("net.parse_ns", 80.5)]);
        let json = serde_json::parse_value(&line).unwrap();
        let Value::Object(entries) = &json else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&json, "attempted").as_u64(), Some(1));
        let metrics = field(&json, "metrics");
        assert_eq!(
            field(field(metrics, "setup_s"), "value").as_f64(),
            Some(1.25)
        );
        assert_eq!(
            field(field(metrics, "net.parse_ns"), "unit").as_str(),
            Some("ns")
        );
    }
}
