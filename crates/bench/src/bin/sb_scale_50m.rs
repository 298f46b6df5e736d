//! Cohort scale sweep: `results/sb_scale_50m.json` + the BENCH_5
//! guard record.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin sb_scale_50m          # 1M/10M/50M
//! cargo run --release -p phishsim-bench --bin sb_scale_50m -- fast  # reduced
//! ```
//!
//! Runs the `sb_scale` scenario in cohort mode behind the regional
//! mirror tier at escalating populations (default one / ten / fifty
//! million clients) and holds the smallest cohort point against the
//! exact per-client walk of the same population. Two artifacts:
//!
//! * `results/sb_scale_50m.json` — the deterministic sweep record,
//!   byte-identical for any `PHISHSIM_SWEEP_THREADS` (`scripts/
//!   check.sh` verifies this on the fast config);
//! * `results/BENCH_5.json` — the guarded scale numbers: peak RSS
//!   (host-measured, `VmHWM`), per-point wall time, walker-state
//!   bytes, and sync-bytes-per-client. On a full run the binary
//!   asserts its own floors: the 50M point completes, cohort
//!   percentiles stay within one sample step of the exact baseline,
//!   peak RSS stays under 512 MiB (measured up to 64 worker threads;
//!   see `PEAK_RSS_CEILING`), and sync traffic stays under
//!   256 KB/client (one initial full-reset snapshot — ~134 KB against
//!   the 50 k-entry feed — plus the horizon's incremental diffs).

use phishsim_bench::{write_pack, write_record};
use phishsim_core::experiment::{
    record_run, run_sb_scale_50m_with_threads, RecordedConfig, SbScale50mConfig,
};
use phishsim_simnet::runner::sweep_threads;
use phishsim_simnet::FaultInjector;
use std::time::Instant;

/// Peak resident-set high-water mark in bytes (`VmHWM`), if the host
/// exposes it (Linux procfs; other hosts report `None` and skip the
/// memory guard).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak RSS of the full sweep on a 2-vCPU host: 68 MB on one thread,
/// 70 MB on two, 168 MB on 16, 266-283 MB on 32 and 448 MB on 64. The
/// cohort table build holds one row map per thread (never an entry per
/// client), and past two threads each adds about 6 MB, so this ceiling
/// holds up to 64 threads. On a larger host, cap the count with
/// `PHISHSIM_SWEEP_MAX_THREADS=64` or pin `PHISHSIM_SWEEP_THREADS`.
const PEAK_RSS_CEILING: u64 = 512 << 20;
const SYNC_BYTES_PER_CLIENT_CEILING: f64 = 256_000.0;

fn main() {
    let fast = std::env::args().any(|a| a == "fast");
    let cfg = if fast {
        SbScale50mConfig::fast()
    } else {
        SbScale50mConfig::paper()
    };
    let threads = sweep_threads();
    eprintln!(
        "sb_scale_50m: populations {:?}, {} mirrors, {} threads",
        cfg.populations, cfg.mirrors.mirrors, threads
    );

    let start = Instant::now();
    let result = run_sb_scale_50m_with_threads(&cfg, threads);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let peak_rss = peak_rss_bytes();

    println!(
        "cohort scale sweep — exact baseline {} clients, {} mirrors",
        result.baseline_clients, cfg.mirrors.mirrors
    );
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "clients", "cohort rows", "clients/row", "state bytes", "sync B/cli", "fetches"
    );
    for p in &result.points {
        println!(
            "{:>12} {:>12} {:>12.1} {:>14} {:>12.1} {:>12}",
            p.clients,
            p.cohort_rows,
            p.clients_per_row,
            p.state_bytes,
            p.sync_bytes_per_client,
            p.population.fetches,
        );
    }
    println!();
    println!(
        "cohort-vs-exact guard at {} clients: max |delta| {:.2} min (step {} min) — {}",
        result.baseline_clients,
        result.max_abs_delta_mins,
        result.sample_step_mins,
        if result.within_one_sample_step {
            "PASS"
        } else {
            "FAIL"
        }
    );
    assert!(
        result.within_one_sample_step,
        "cohort percentiles drifted {} mins past one sample step",
        result.max_abs_delta_mins
    );

    let headline = result.points.last().expect("sweep has points");
    let guards_asserted = !fast;
    if guards_asserted {
        assert!(
            headline.sync_bytes_per_client < SYNC_BYTES_PER_CLIENT_CEILING,
            "sync traffic {} B/client exceeds the {} B ceiling",
            headline.sync_bytes_per_client,
            SYNC_BYTES_PER_CLIENT_CEILING
        );
        if let Some(rss) = peak_rss {
            assert!(
                rss < PEAK_RSS_CEILING,
                "peak RSS {} B exceeds the {} B ceiling",
                rss,
                PEAK_RSS_CEILING
            );
            println!(
                "PASS: {}M clients in {:.1} MiB peak RSS, {:.1} sync B/client",
                headline.clients / 1_000_000,
                rss as f64 / (1 << 20) as f64,
                headline.sync_bytes_per_client
            );
        }
    }
    eprintln!("wall time: {wall_ms:.0} ms");

    // The deterministic record — check.sh diffs it across thread
    // counts on the fast config.
    write_record(
        "sb_scale_50m",
        &serde_json::json!({
            "bench": "sb_scale_50m",
            "result": result,
        }),
    );

    // The guard record: everything host-dependent lives here, next to
    // the deterministic figures it contextualizes.
    write_record(
        "BENCH_5",
        &serde_json::json!({
            "bench": "BENCH_5",
            "quick": fast,
            "guards_asserted": guards_asserted,
            "threads": threads,
            "wall_ms": wall_ms,
            "peak_rss_bytes": peak_rss,
            "peak_rss_ceiling_bytes": PEAK_RSS_CEILING,
            "sync_bytes_per_client_ceiling": SYNC_BYTES_PER_CLIENT_CEILING,
            "determinism": {
                "cohorts_within_one_sample_step": result.within_one_sample_step,
                "max_abs_delta_mins": result.max_abs_delta_mins,
            },
            "points": result
                .points
                .iter()
                .map(|p| {
                    serde_json::json!({
                        "clients": p.clients,
                        "cohort_rows": p.cohort_rows,
                        "clients_per_row": p.clients_per_row,
                        "state_bytes": p.state_bytes,
                        "exact_state_bytes": p.exact_state_bytes,
                        "sync_bytes_per_client": p.sync_bytes_per_client,
                    })
                })
                .collect::<Vec<_>>(),
        }),
    );

    // Replay artifact: always the fast config, so the committed pack
    // verifies in seconds and is identical whether this binary ran
    // full or reduced.
    eprintln!("recording results/sb_scale_50m.runpack (fast config)...");
    let pack = record_run(
        &RecordedConfig::SbScale50m(SbScale50mConfig::fast()),
        &FaultInjector::none(),
        threads,
    );
    write_pack("sb_scale_50m", &pack);
}
