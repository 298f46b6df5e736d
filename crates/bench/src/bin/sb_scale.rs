//! Population-scale blacklist-propagation harness: `results/sb_scale.json`.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin sb_scale [--clients N]
//! ```
//!
//! Runs the `sb_scale` scenario — the main experiment's per-technique
//! listing delays propagated to N Safe-Browsing clients (default one
//! million) over the versioned-diff update protocol — and writes the
//! full result record. The record is deterministic: byte-identical for
//! any `PHISHSIM_SWEEP_THREADS`, which `scripts/check.sh` verifies on
//! a reduced population.

use phishsim_bench::{write_pack, write_record};
use phishsim_core::experiment::{record_run, run_sb_scale, RecordedConfig, SbScaleConfig};
use phishsim_simnet::runner::sweep_threads;
use phishsim_simnet::FaultInjector;
use std::time::Instant;

fn main() {
    let mut clients: usize = 1_000_000;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--clients" {
            clients = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--clients takes a number");
        }
    }

    let mut cfg = SbScaleConfig::paper();
    cfg.population.clients = clients;
    let threads = sweep_threads();
    eprintln!("sb_scale: {clients} clients, {threads} threads");

    let start = Instant::now();
    let result = run_sb_scale(&cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    println!("listing → population propagation ({clients} clients)");
    println!(
        "feed: {} versions published, {} accepted fetches",
        result.versions_published, result.population.fetches
    );
    let c = &result.population.counters;
    println!(
        "updates: {} diffs ({} B), {} full resets ({} B), {} backoffs",
        c.get("update.diff"),
        c.get("bytes.diff"),
        c.get("update.full_reset"),
        c.get("bytes.full_reset"),
        c.get("update.backoff"),
    );
    println!();
    println!(
        "{:<12} {:>10} {:>11} {:>10} {:>8} {:>8} {:>8}",
        "technique", "listed_in", "protected", "exposed", "mean", "p95", "p99"
    );
    println!(
        "{:<12} {:>10} {:>11} {:>10} {:>8} {:>8} {:>8}",
        "", "(mins)", "", "@horizon", "(mins)", "(mins)", "(mins)"
    );
    for (delay, event) in result.delays.iter().zip(&result.population.events) {
        let listed = delay
            .median_listing_delay_mins
            .map(|m| m.to_string())
            .unwrap_or_else(|| "never".into());
        println!(
            "{:<12} {:>10} {:>11} {:>10} {:>8.1} {:>8.1} {:>8.1}",
            delay.technique,
            listed,
            event.protected,
            event.unprotected_at_horizon,
            event.mean_exposure_mins,
            event.p95_exposure_mins,
            event.p99_exposure_mins,
        );
    }
    eprintln!("\nwall time: {wall_ms:.0} ms");

    // The record holds only deterministic fields — check.sh diffs it
    // across thread counts.
    write_record(
        "sb_scale",
        &serde_json::json!({
            "bench": "sb_scale",
            "result": result,
        }),
    );

    // Replay artifact: always the fast config, so the committed pack
    // verifies in seconds and is identical whether this binary ran
    // full or reduced.
    eprintln!("recording results/sb_scale.runpack (fast config)...");
    let pack = record_run(
        &RecordedConfig::SbScale(SbScaleConfig::fast()),
        &FaultInjector::none(),
        threads,
    );
    write_pack("sb_scale", &pack);
}
