//! Resilience sweep harness: `results/resilience.json`.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin resilience [--clients N]
//! ```
//!
//! Re-runs the coupled main-experiment + population scenario across
//! the escalating chaos ladder (crawl loss × feed-server outage ×
//! feed-channel loss) and writes the per-technique listing-delay
//! deltas and blind-window inflation. The record is deterministic:
//! byte-identical for any `PHISHSIM_SWEEP_THREADS`, which
//! `scripts/check.sh` verifies on a reduced population.

use phishsim_bench::write_record;
use phishsim_core::experiment::{run_resilience, ResilienceConfig};
use phishsim_simnet::runner::sweep_threads;
use std::time::Instant;

fn main() {
    let mut clients: usize = 200_000;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--clients" {
            clients = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--clients takes a number");
        }
    }

    let mut cfg = ResilienceConfig::paper();
    cfg.scale.population.clients = clients;
    let threads = sweep_threads();
    eprintln!(
        "resilience: {} levels x {clients} clients, {threads} threads",
        cfg.levels.len()
    );

    let start = Instant::now();
    let result = run_resilience(&cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    println!("detection pipeline vs fault intensity ({clients} clients/level)");
    for level in &result.levels {
        let i = &level.intensity;
        println!(
            "\n[{}] crawl_loss={:.0}% outage={}min feed_loss={:.0}% — {} detections, {} unavailable, {} lost",
            i.label,
            i.crawl_loss * 100.0,
            i.outage_mins,
            i.feed_loss * 100.0,
            level.detections,
            level.updates_unavailable,
            level.updates_lost,
        );
        println!(
            "{:<12} {:>9} {:>8} {:>10} {:>8} {:>10}",
            "technique", "listed_in", "Δlist", "p50 blind", "Δp50", "protected"
        );
        for t in &level.techniques {
            let listed = t
                .median_listing_delay_mins
                .map(|m| format!("{m}m"))
                .unwrap_or_else(|| "never".into());
            let delta = t
                .listing_delay_delta_mins
                .map(|d| format!("{d:+}m"))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<12} {:>9} {:>8} {:>9}m {:>+7}m {:>10}",
                t.technique,
                listed,
                delta,
                t.p50_exposure_mins,
                t.blind_window_inflation_mins,
                t.protected,
            );
        }
    }
    eprintln!("\nwall time: {wall_ms:.0} ms");

    // The record holds only deterministic fields — check.sh diffs it
    // across thread counts.
    write_record(
        "resilience",
        &serde_json::json!({
            "bench": "resilience",
            "result": result,
        }),
    );
}
