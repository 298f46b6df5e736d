//! `trace`: the per-layer metrics, from a run separate from `run`.
//!
//! Per workload: one untraced warm-up iteration whose outputs are the
//! reference, `n` untraced iterations, then `n` traced ones whose every
//! public call runs with `ObsSink::tee` into a [`SpanTap`]. Every
//! iteration's outputs must equal the reference, so tracing has no
//! observer effect. Span self times and registry counters are reported
//! per iteration; `obs.trace_overhead` compares the traced and untraced
//! medians. Layers without spans are timed around public calls: the
//! feed walks (with `VmHWM` reset before each call) and the sweeps'
//! thread scaling.

use crate::host;
use crate::stats::Summary;
use crate::tap::SpanTap;
use crate::workloads::{
    canonical, feed_config, feed_walks, iterate, Outcome, Plan, Size, Workload, CALL_SPANS,
    FEED_THREADS, WALKS,
};
use phishsim_core::experiment::{
    run_main_experiment, run_sb_scale_50m_with_threads, run_sb_scale_with_threads, SbScaleConfig,
};
use phishsim_simnet::{MetricsRegistry, ObsSink, ObsTap};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Program span names and the metric prefix each is reported under;
/// other names report under their own name.
const SPANS: [(&str, &str); 4] = [
    ("http.request", "http.hosting.request"),
    ("engine.report", "antiphish.engine.report"),
    ("engine.crawl", "antiphish.engine.crawl"),
    ("fleet.crawl", "antiphish.fleet.crawl"),
];

/// Registry counters reported per iteration.
const COUNTERS: [&str; 5] = [
    "fetch.delivered",
    "engine.classifications",
    "engine.dedup_hits",
    "sched.scheduled",
    "sched.dispatched",
];

/// What one traced workload produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Iterations and timed calls run.
    pub attempted: u64,
    /// Those whose outputs failed a check.
    pub failed: u64,
    /// Distinct check failures.
    pub problems: Vec<String>,
}

impl Traced {
    /// The form a `trace-child` process reports in.
    pub fn to_json(&self) -> Value {
        json!({
            "metrics": self.metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        })
    }

    /// Read back what [`Traced::to_json`] wrote.
    pub fn from_json(v: &Value) -> Traced {
        let number = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        Traced {
            metrics: v
                .get("metrics")
                .and_then(Value::as_object)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default(),
            attempted: number("attempted"),
            failed: number("failed"),
            problems: v
                .get("problems")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
        }
    }

    fn check(&mut self, problems: &[String], digest: &str, reference: &str, what: &str) {
        self.attempted += 1;
        let mut bad = problems.to_vec();
        if digest != reference {
            bad.push(format!("{what}: outputs differ from the untraced warm-up"));
        }
        if !bad.is_empty() {
            self.failed += 1;
            for p in bad {
                if !self.problems.contains(&p) {
                    self.problems.push(p);
                }
            }
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Traced iterations per workload.
fn iterations(plan: &Plan) -> usize {
    match (plan.size, plan.workload) {
        (Size::Smoke, _) | (_, Workload::FeedCohort) => 1,
        (_, Workload::PaperTables) => 2,
        (_, Workload::SeedSweep) => 3,
        (_, Workload::FleetBurst) => 5,
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    Summary::of(&values.collect::<Vec<_>>()).median
}

/// Trace one workload.
pub fn trace(plan: &Plan) -> Traced {
    let null = || ObsSink::Null;
    let n = iterations(plan);
    let mut t = Traced::default();

    let warm = iterate(plan, &null);
    t.check(&warm.problems, &warm.digest, &warm.digest, "warm-up");
    let untraced: Vec<Outcome> = (0..n).map(|_| iterate(plan, &null)).collect();
    for o in &untraced {
        t.check(&o.problems, &o.digest, &warm.digest, "untraced");
    }

    let tap = Arc::new(SpanTap::default());
    let tee: Arc<dyn ObsTap> = tap.clone();
    let sinks = Mutex::new(Vec::new());
    let factory = || {
        let sink = ObsSink::tee(tee.clone());
        sinks.lock().expect("sink list lock").push(sink.clone());
        sink
    };
    let mut registry = MetricsRegistry::new();
    let mut traced = Vec::new();
    for _ in 0..n {
        let o = iterate(plan, &factory);
        for sink in sinks.lock().expect("sink list lock").drain(..) {
            registry.merge(&sink.metrics());
        }
        t.check(&o.problems, &o.digest, &warm.digest, "traced");
        traced.push(o);
    }

    let per = n as f64;
    for (name, stats) in tap.report() {
        let prefix = SPANS
            .iter()
            .find(|(span, _)| *span == name)
            .map_or(name.as_str(), |(_, p)| p);
        if !CALL_SPANS.contains(&prefix) {
            t.set(&format!("{prefix}.count"), stats.count as f64 / per);
        }
        if let Some(s) = stats.self_s {
            t.set(&format!("{prefix}.self_s"), s / per);
            if prefix == "http.hosting.request" && stats.count > 0 {
                t.set(
                    "http.hosting.request.ns_per_op",
                    s * 1e9 / stats.count as f64,
                );
            }
        }
    }
    for c in COUNTERS {
        t.set(c, registry.counter(c) as f64 / per);
    }
    for (name, v) in &warm.counts {
        t.set(name, *v as f64);
    }
    for cache in ["render_cache", "verdict_store"] {
        let hits = warm
            .counts
            .get(&format!("{cache}.hits"))
            .copied()
            .unwrap_or(0);
        let misses = warm
            .counts
            .get(&format!("{cache}.misses"))
            .copied()
            .unwrap_or(0);
        let ratio = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        t.set(&format!("{cache}.hit_ratio"), ratio);
    }
    let untraced_s = median(untraced.iter().map(|o| o.secs));
    t.set(
        "obs.trace_overhead",
        median(traced.iter().map(|o| o.secs)) / untraced_s - 1.0,
    );

    match plan.workload {
        Workload::SeedSweep => {
            let serial = median(
                untraced
                    .iter()
                    .filter_map(|o| o.serial)
                    .map(|(r, s)| r as f64 / s),
            );
            let wide = median(untraced.iter().map(|o| o.runs.0 as f64 / o.runs.1));
            t.set("runner.runs_per_s_1t", serial);
            t.set(
                "runner.parallel_efficiency",
                wide / (plan.threads as f64 * serial),
            );
        }
        Workload::FeedCohort => feed_layers(plan, &warm, untraced_s, &mut t),
        Workload::PaperTables | Workload::FleetBurst => {}
    }
    t
}

/// Time `f` and take the peak resident set while it ran.
fn timed_peak<R>(t: &mut Traced, f: impl FnOnce() -> R) -> (f64, f64, R) {
    if let Err(e) = host::reset_peak_rss() {
        let p = format!("cannot reset VmHWM: {e}");
        if !t.problems.contains(&p) {
            t.problems.push(p);
        }
    }
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), host::peak_rss_mb(), out)
}

/// feed_cohort's layers, timed around public calls: the main leg, each
/// walk as a one-population `sb_scale` run minus the main leg, and the
/// whole sweep again at `nproc` threads for the runner's efficiency.
fn feed_layers(plan: &Plan, warm: &Outcome, untraced_s: f64, t: &mut Traced) {
    let cfg = feed_config(plan);
    let reference: Value = serde_json::from_str(&warm.digest).expect("digest is JSON");
    let points = reference
        .get("points")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    let walked = std::iter::once(reference.get("baseline").cloned())
        .chain(points.iter().map(|p| p.get("population").cloned()));

    let (main_s, _, _) = timed_peak(t, || run_main_experiment(&cfg.scale.main).table);
    t.set("core.main_leg.s", main_s);
    for ((prefix, population), want) in WALKS.iter().zip(feed_walks(&cfg)).zip(walked) {
        let scale = SbScaleConfig {
            population,
            ..cfg.scale.clone()
        };
        let (secs, peak, r) = timed_peak(t, || {
            run_sb_scale_with_threads(&scale, FEED_THREADS).population
        });
        t.set(&format!("{prefix}.s"), secs - main_s);
        t.set(&format!("{prefix}.peak_rss_mb"), peak);
        let got = canonical(json!(r));
        let want = want.map(canonical).unwrap_or_default();
        t.check(&[], &got, &want, prefix);
    }

    let start = Instant::now();
    let wide = run_sb_scale_50m_with_threads(&cfg, plan.threads);
    let wide_s = start.elapsed().as_secs_f64();
    t.check(&[], &canonical(json!(wide)), &warm.digest, "all-core sweep");
    t.set(
        "runner.parallel_efficiency",
        untraced_s / (plan.threads as f64 * wide_s),
    );
}
