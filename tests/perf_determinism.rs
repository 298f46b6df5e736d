//! The parallel sweep runner must never change results.
//!
//! A `run_sweep` over N configs returns byte-identical output whether
//! it ran on 1 thread or many: work stealing reorders execution, never
//! results. The tests below hold seed-sweep JSON, trace-log queries
//! and merged metrics registries to that bar, and the `sb_scale`
//! population run too: its report (blind-window percentiles, protocol
//! counters, protected-fraction curves) must not depend on the
//! worker-thread count.
//!
//! The render and verdict caches are held to their own bar, that a
//! cached product equals its uncached computation, by the unit tests
//! beside them (`rendercache`, `sharedcache`, `engine`).

use phishsim::experiment::{
    run_main_experiment, run_preliminary, run_sb_scale_with_threads, MainConfig, PreliminaryConfig,
    SbScaleConfig,
};
use phishsim::feedserve::PopulationConfig;
use phishsim::simnet::{MetricsRegistry, ObsSink, SimDuration};
use phishsim_simnet::runner::run_sweep_with_threads;

/// One sweep cell: a seeded fast main-experiment run, serialized the
/// way the sweep binaries write their JSON records.
fn sweep_cell(seed: &u64) -> String {
    let r = run_main_experiment(&MainConfig {
        seed: *seed,
        ..MainConfig::fast()
    });
    serde_json::to_string(&serde_json::json!({
        "seed": seed,
        "table": r.table,
        "traffic_within_2h": r.traffic_within_2h,
    }))
    .expect("serializable")
}

#[test]
fn sweep_json_is_byte_identical_across_thread_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let serial = run_sweep_with_threads(&seeds, 1, sweep_cell);
    for threads in [2, 4, 8, 16] {
        assert_eq!(
            serial,
            run_sweep_with_threads(&seeds, threads, sweep_cell),
            "1 thread and {threads} threads must agree byte-for-byte"
        );
    }
}

#[test]
fn sb_scale_report_is_byte_identical_across_thread_counts() {
    let cfg = SbScaleConfig {
        baseline_hashes: 1_000,
        churn_add: 25,
        population: PopulationConfig {
            clients: 600,
            batch: 64,
            horizon: SimDuration::from_hours(4),
            ..PopulationConfig::default()
        },
        ..SbScaleConfig::fast()
    };
    let json = |threads: usize| {
        serde_json::to_string(&run_sb_scale_with_threads(&cfg, threads)).expect("serializable")
    };
    let serial = json(1);
    assert_eq!(serial, json(4), "1 vs 4 threads");
    assert_eq!(serial, json(16), "1 vs 16 (oversubscribed) threads");
}

/// A trace-query digest: every TraceLog read path the analysis code
/// uses, serialized into one string. `snapshot()` sorts by the
/// content-keyed total order, so this digest must not depend on the
/// interleaving that produced the log.
fn trace_digest(seed: &u64) -> String {
    let r = run_preliminary(&PreliminaryConfig {
        seed: *seed,
        ..PreliminaryConfig::fast()
    });
    let log = &r.world.log;
    let mut out = String::new();
    for e in log.snapshot() {
        out.push_str(&format!("{:?}|{}|{}|{:?}\n", e.at, e.actor, e.src, e.kind));
    }
    out.push_str(&format!("gsb={}\n", log.requests_for("gsb", None)));
    out.push_str(&format!("paths={:?}\n", log.paths_for("netcraft")));
    out
}

#[test]
fn trace_query_digest_is_byte_identical_across_thread_counts() {
    let seeds: Vec<u64> = (17..20).collect();
    let serial = run_sweep_with_threads(&seeds, 1, trace_digest);
    let parallel = run_sweep_with_threads(&seeds, 4, trace_digest);
    assert_eq!(
        serial, parallel,
        "trace queries must not depend on the worker-thread count"
    );
}

#[test]
fn merged_metrics_registry_is_byte_identical_across_thread_counts() {
    // Each sweep cell runs with its own memory sink; the per-run
    // registries are merged in input order, so the merged registry —
    // counters, histograms and gauges alike — must serialize to the
    // same bytes no matter how many threads executed the sweep.
    let merged_json = |threads: usize| {
        let seeds: Vec<u64> = (17..21).collect();
        let registries = run_sweep_with_threads(&seeds, threads, |&seed| {
            let sink = ObsSink::memory();
            let mut c = MainConfig::fast();
            c.seed = seed;
            c.obs = sink.clone();
            run_main_experiment(&c);
            sink.buffer().expect("memory sink").metrics()
        });
        let mut merged = MetricsRegistry::new();
        for m in &registries {
            merged.merge(m);
        }
        serde_json::to_string(&merged).expect("serializable")
    };
    let serial = merged_json(1);
    assert_eq!(serial, merged_json(4), "1 vs 4 threads");
    assert_eq!(serial, merged_json(16), "1 vs 16 (oversubscribed) threads");
}
