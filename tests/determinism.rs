//! Reproducibility contract: the same seed regenerates byte-identical
//! experiment tables, different seeds genuinely differ, and observing a
//! run changes nothing it computes.

use phishsim::prelude::*;
use phishsim::simnet::ObsSink;

#[test]
fn main_experiment_is_byte_identical_per_seed() {
    let a = run_main_experiment(&MainConfig::fast());
    let b = run_main_experiment(&MainConfig::fast());
    assert_eq!(a.table.render(), b.table.render());
    assert_eq!(
        serde_json::to_string(&a.table).unwrap(),
        serde_json::to_string(&b.table).unwrap()
    );
    // Arm-level detail is identical too.
    assert_eq!(a.arms.len(), b.arms.len());
    for (x, y) in a.arms.iter().zip(&b.arms) {
        assert_eq!(x.url, y.url);
        assert_eq!(x.outcome.detected_at, y.outcome.detected_at);
        assert_eq!(x.outcome.requests_made, y.outcome.requests_made);
    }
}

#[test]
fn different_seeds_vary_details_not_shape() {
    let mut cfg = MainConfig::fast();
    cfg.seed = 1;
    let a = run_main_experiment(&cfg);
    cfg.seed = 2;
    let b = run_main_experiment(&cfg);
    // Domains differ...
    assert_ne!(a.arms[0].url, b.arms[0].url);
    // ...but the structural outcome is stable.
    assert_eq!(a.table.total.total, 105);
    assert_eq!(b.table.total.total, 105);
}

#[test]
fn preliminary_is_deterministic() {
    let a = run_preliminary(&PreliminaryConfig::fast());
    let b = run_preliminary(&PreliminaryConfig::fast());
    assert_eq!(a.table.render(), b.table.render());
    assert_eq!(a.observations.len(), b.observations.len());
    assert_eq!(a.world.log.len(), b.world.log.len());
}

#[test]
fn extension_experiment_is_deterministic() {
    let a = run_extension_experiment(&ExtensionConfig::paper());
    let b = run_extension_experiment(&ExtensionConfig::paper());
    assert_eq!(a.table.render(), b.table.render());
    assert_eq!(a.capture.records().len(), b.capture.records().len());
}

#[test]
fn cloaking_baseline_is_deterministic() {
    let a = run_cloaking_baseline(&CloakingConfig::fast());
    let b = run_cloaking_baseline(&CloakingConfig::fast());
    assert_eq!(a.naked.detection, b.naked.detection);
    assert_eq!(a.cloaked.detection, b.cloaked.detection);
}

/// The observer-effect guard (DESIGN §9.4): the obs layer never
/// touches a `DetRng`, so a run with a memory sink attached serializes
/// to the same Table 1 and Table 2 as a run with the default Null sink.
#[test]
fn memory_sink_changes_neither_table() {
    let null_run = run_preliminary(&PreliminaryConfig::fast());
    let mut observed = PreliminaryConfig::fast();
    observed.obs = ObsSink::memory();
    let memory_run = run_preliminary(&observed);
    assert!(!observed.obs.events().is_empty(), "the sink saw the run");
    assert_eq!(
        serde_json::to_string(&null_run.table).unwrap(),
        serde_json::to_string(&memory_run.table).unwrap(),
        "attaching a memory sink changed Table 1: observer effect"
    );

    let null_main = run_main_experiment(&MainConfig::fast());
    let mut observed_main = MainConfig::fast();
    observed_main.obs = ObsSink::memory();
    let memory_main = run_main_experiment(&observed_main);
    assert!(
        !observed_main.obs.events().is_empty(),
        "the sink saw the run"
    );
    assert_eq!(
        serde_json::to_string(&null_main.table).unwrap(),
        serde_json::to_string(&memory_main.table).unwrap(),
        "attaching a memory sink changed Table 2: observer effect"
    );
}
