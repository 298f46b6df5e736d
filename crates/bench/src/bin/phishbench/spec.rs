//! The benchmark's metric definitions, read from the repository's
//! `BENCHMARK.json` at build time so names, units and bounds have one
//! source.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One metric's definition.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit it is reported in.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the old median by which an end-to-end metric may get
    /// worse before a change counts as a regression (`None` for
    /// per-layer metrics).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself uses.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures by default.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, from the traced run.
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Value, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("metric has name, unit and better")
                    .to_string()
            };
            MetricSpec {
                name: field("name"),
                unit: field("unit"),
                lower_is_better: field("better") == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

/// The parsed `BENCHMARK.json`.
pub fn spec() -> Spec {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_u64)
            .expect("BENCHMARK.json has run_seconds"),
        workloads: doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload has a name")
                    .to_string()
            })
            .collect(),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn spec_names_the_workloads_the_code_runs() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec().workloads, names);
    }

    /// Memory may worsen by 5% before a change counts as a regression,
    /// iteration times and rates by 20%. Set-up time has the widest
    /// bound, at most 25%.
    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let s = spec();
        let bound = |m: &MetricSpec| m.bound.expect("end-to-end metrics carry a bound");
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .map(bound)
            .expect("setup_s is an end-to-end metric");
        assert!(setup <= 0.25, "setup_s: {setup}");
        for m in s.end_to_end.iter().filter(|m| m.name != "setup_s") {
            let b = bound(m);
            let ceiling = if m.unit == "MB" { 0.05 } else { 0.20 };
            assert!(b > 0.0 && b <= ceiling, "{}: {b}", m.name);
            assert!(
                b <= setup,
                "{}: {b} is wider than setup_s's {setup}",
                m.name
            );
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
