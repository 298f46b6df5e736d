//! Seed-sensitivity analysis: how stable are the paper's results under
//! the simulator's stochasticity?
//!
//! The main experiment has exactly one stochastic cell family —
//! NetCraft's unreliable post-form-submission classification. This
//! harness runs the experiment across many seeds **in parallel** through
//! the shared sweep runner (`phishsim_simnet::runner`; every run is
//! fully independent and deterministic) and reports the distribution of
//! the headline numbers.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin seed_sensitivity [n_seeds]
//! ```

use phishsim_antiphish::EngineId;
use phishsim_core::experiment::{run_main_experiment, MainConfig};
use phishsim_phishgen::{Brand, EvasionTechnique};
use phishsim_simnet::runner::{run_sweep, sweep_threads};
use std::collections::BTreeMap;

fn main() {
    let n_seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(48);
    eprintln!("running {n_seeds} seeds on {} threads...", sweep_threads());

    let seeds: Vec<u64> = (0..n_seeds).collect();
    let rows: Vec<(u64, u64, u64)> = run_sweep(&seeds, |&seed| {
        let mut config = MainConfig::fast();
        config.seed = seed;
        let r = run_main_experiment(&config);
        let nc_sessions: u64 = [Brand::Facebook, Brand::PayPal]
            .iter()
            .map(|b| {
                r.table
                    .cell(EngineId::NetCraft, *b, EvasionTechnique::SessionGate)
                    .hits
            })
            .sum();
        (seed, r.table.total.hits, nc_sessions)
    });

    let mut total_hist: BTreeMap<u64, u64> = BTreeMap::new();
    let mut session_hist: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, total, sessions) in &rows {
        *total_hist.entry(*total).or_default() += 1;
        *session_hist.entry(*sessions).or_default() += 1;
    }

    println!("Distribution over {n_seeds} seeds (fast config):");
    println!("\n  total detections / 105:");
    for (total, count) in &total_hist {
        println!("    {total:>3}  {}", "#".repeat(*count as usize));
    }
    println!("\n  NetCraft session detections / 6 (binomial p=1/3 expected):");
    for (sessions, count) in &session_hist {
        println!("    {sessions:>3}  {}", "#".repeat(*count as usize));
    }
    let mean_sessions: f64 =
        rows.iter().map(|(_, _, s)| *s as f64).sum::<f64>() / rows.len() as f64;
    println!(
        "\n  mean NetCraft session hits: {mean_sessions:.2} (expected 2.0 = 6 x 1/3; paper observed 2)"
    );
    println!("  every run: GSB alert 6/6, reCAPTCHA 0/35 — deterministic across seeds.");

    phishsim_bench::write_record(
        "seed_sensitivity",
        &serde_json::json!({
            "experiment": "seed_sensitivity",
            "n_seeds": n_seeds,
            "total_histogram": total_hist,
            "netcraft_session_histogram": session_hist,
            "mean_netcraft_sessions": mean_sessions,
        }),
    );
}
