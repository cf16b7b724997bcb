//! Metric names, units, directions and bounds, and the result line that
//! carries their values. `BENCHMARK.json` lists the same metrics; a unit
//! test keeps the two in step.

use qca_telemetry::json::JsonValue;
use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by
    /// which the metric may get worse before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by untraced runs (`--trace 0`). A metric is end-to-end only
/// if ten runs of the same code agree within 10% on every workload; set-up
/// time is end-to-end regardless, with the largest bound BENCHMARK.json
/// allows (README.md, "Noise").
pub const END_TO_END: [Metric; 1] = [e2e("setup_s", "s", Better::Lower, 0.25)];

/// Reported by traced runs (`--trace 1`). The first four are what a
/// client sees, demoted because they failed that test on some workload;
/// every run measures them on its untraced phase. The rest are layer
/// metrics, which README.md maps to the client-seen metric and workload
/// each should move.
pub const PER_LAYER: [Metric; 23] = [
    layer("jobs_per_s", "jobs/s", Better::Higher),
    layer("latency_p50_ms", "ms", Better::Lower),
    layer("latency_tail_ms", "ms", Better::Lower),
    layer("peak_rss_mb", "MiB", Better::Lower),
    layer("service.submit_ms.p50", "ms", Better::Lower),
    layer("service.queue_wait_ms.p50", "ms", Better::Lower),
    layer("service.queue_wait_ms.p99", "ms", Better::Lower),
    layer("service.exec_ms.p50", "ms", Better::Lower),
    layer("service.compile_ms.p50", "ms", Better::Lower),
    layer("service.cache_hit_ratio", "ratio", Better::Higher),
    layer("service.cache_evictions", "count", Better::Lower),
    layer("service.coalesced_ratio", "ratio", Better::Higher),
    layer("service.shards_mean", "count", Better::Lower),
    layer("wire.residual_ms.p50", "ms", Better::Lower),
    layer("cqasm.parse_ms.p50", "ms", Better::Lower),
    layer("openql.compile_ms.p50", "ms", Better::Lower),
    layer("openql.swaps_mean", "count", Better::Lower),
    layer("openql.gates_out_mean", "count", Better::Lower),
    layer("plan.compile_ms.p50", "ms", Better::Lower),
    layer("plan.kernels_mean", "count", Better::Lower),
    layer("engine.run_ms.p50", "ms", Better::Lower),
    layer("gen.lateness_ms.p99", "ms", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Higher),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"value": v, "unit": u}` for every metric in `metrics`.
///
/// # Errors
///
/// A metric without a finite value.
pub fn metrics_json(metrics: &[Metric], values: &Values) -> Result<JsonValue, String> {
    let mut out = BTreeMap::new();
    for m in metrics {
        let value = values
            .get(m.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        out.insert(
            m.name.to_string(),
            object([
                ("value", JsonValue::Number(value)),
                ("unit", JsonValue::String(m.unit.to_string())),
            ]),
        );
    }
    Ok(JsonValue::Object(out))
}

/// The line a run prints last: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
///
/// # Errors
///
/// See [`metrics_json`].
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &Values,
) -> Result<String, String> {
    Ok(object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Number(attempted as f64)),
        ("failed", JsonValue::Number(failed as f64)),
        ("metrics", metrics_json(metrics, values)?),
    ])
    .to_compact())
}

/// A JSON object from key/value pairs.
pub fn object<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_telemetry::json;

    const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

    fn listed(section: &str) -> Vec<JsonValue> {
        match json::parse(BENCHMARK_JSON).unwrap().get(section) {
            Some(JsonValue::Array(items)) => items.clone(),
            other => panic!("BENCHMARK.json has no {section} list: {other:?}"),
        }
    }

    fn check_listing(section: &str, metrics: &[Metric]) {
        let entries = listed(section);
        assert_eq!(entries.len(), metrics.len(), "{section}");
        for (entry, m) in entries.iter().zip(metrics) {
            assert_eq!(entry.get("name").and_then(JsonValue::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(JsonValue::as_str),
                Some(m.better.name())
            );
            assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), m.bound);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        check_listing("end_to_end", &END_TO_END);
        check_listing("per_layer", &PER_LAYER);
        let field = |w: &JsonValue, k| w.get(k).and_then(JsonValue::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = listed("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn result_line_parses_and_names_every_listed_metric() {
        for (section, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let values: Values = metrics.iter().map(|m| (m.name, 0.125)).collect();
            let line = result_line(true, 12, 0, metrics, &values).unwrap();
            let parsed = json::parse(&line).unwrap();
            let JsonValue::Object(top) = &parsed else {
                panic!("not an object: {line}")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            for entry in listed(section) {
                let name = entry.get("name").and_then(JsonValue::as_str).unwrap();
                let m = parsed.get("metrics").and_then(|ms| ms.get(name));
                assert_eq!(
                    m.and_then(|m| m.get("value")).and_then(JsonValue::as_f64),
                    Some(0.125)
                );
                assert_eq!(
                    m.and_then(|m| m.get("unit")).and_then(JsonValue::as_str),
                    entry.get("unit").and_then(JsonValue::as_str)
                );
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let mut values: Values = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values.insert("setup_s", f64::NAN);
        assert!(result_line(true, 1, 0, &END_TO_END, &values).is_err());
        values.remove("setup_s");
        assert!(result_line(true, 1, 0, &END_TO_END, &values).is_err());
    }
}
