//! The `runpack` command-line interface: record/replay audit tooling.
//!
//! ```text
//! runpack info results/table2.runpack             # header + digest tree
//! runpack verify results/table2.runpack           # re-execute, compare
//! runpack bisect left.runpack right.runpack       # earliest divergence
//! runpack seek results/table2.runpack --at 20160  # state at t=20160min
//! ```
//!
//! `verify` re-runs the experiment from nothing but the pack's own
//! recorded config and fault schedule, then holds every section digest
//! against the original; a mismatch exits non-zero and names the first
//! divergent span. Thread count is taken from `PHISHSIM_SWEEP_THREADS`
//! as usual — by the determinism contract it must not matter.

use phishsim::experiment::rerun_pack;
use phishsim::runpack::{
    bisect, metrics_divergence, seek, verify_against, MetricsDivergence, RunPack,
};
use phishsim::simnet::runner::sweep_threads;
use phishsim::simnet::SimTime;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: runpack <verb> ...");
    eprintln!("  info   <pack>                    header, sections, runs");
    eprintln!("  verify <pack>                    re-execute and compare digests");
    eprintln!("  bisect <left> <right>            earliest divergent record");
    eprintln!("  seek   <pack> --at <mins> [--run <label>]   state at an instant");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<RunPack, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    RunPack::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn info(pack: &RunPack) {
    println!("experiment:  {}", pack.experiment);
    println!("root digest: {:#018x}", pack.root_digest());
    println!("sections:");
    for d in pack.section_digests() {
        println!(
            "  {:<9} {:>9} B  {:#018x}",
            d.section.name(),
            d.len,
            d.digest
        );
    }
    println!("runs:");
    for run in &pack.runs {
        println!("  {:<12} {} events", run.label, run.events.len());
    }
    println!("snapshots:   {}", pack.snapshots.len());
}

fn verify(path: &str) -> ExitCode {
    let recorded = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("runpack: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = sweep_threads();
    eprintln!(
        "replaying {} ({} runs, {} events) on {threads} thread(s)...",
        recorded.experiment,
        recorded.runs.len(),
        recorded.total_events()
    );
    let reproduced = match rerun_pack(&recorded, threads) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("runpack: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = verify_against(&recorded, &reproduced);
    for check in &report.sections {
        println!(
            "{:<9} recorded {:#018x}  reproduced {:#018x}  {}",
            check.section.name(),
            check.recorded,
            check.reproduced,
            if check.matches { "ok" } else { "MISMATCH" }
        );
    }
    if let Some(m) = &report.metrics {
        print_metrics_divergence(m);
    }
    if let Some(e) = &report.metrics_error {
        eprintln!("runpack: {e}");
    }
    match (&report.ok, &report.divergence) {
        (true, _) => {
            println!("verified: byte-for-byte");
            ExitCode::SUCCESS
        }
        (false, Some(d)) => {
            eprintln!(
                "first divergence: run {} index {} at={}ms seq={} span {:?} layer {} ({})",
                d.run,
                d.index,
                d.at.as_millis(),
                d.seq,
                d.name,
                d.layer,
                d.detail
            );
            ExitCode::FAILURE
        }
        (false, None) if report.metrics.is_some() || report.metrics_error.is_some() => {
            ExitCode::FAILURE
        }
        (false, None) => {
            eprintln!("sections differ but event streams match (config/metadata drift)");
            ExitCode::FAILURE
        }
    }
}

fn print_metrics_divergence(m: &MetricsDivergence) {
    eprintln!(
        "first metrics divergence: {} {:?} layer {} (recorded {} vs reproduced {})",
        m.kind, m.label, m.layer, m.recorded, m.reproduced
    );
}

fn bisect_cmd(left_path: &str, right_path: &str) -> ExitCode {
    let (left, right) = match (load(left_path), load(right_path)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("runpack: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match metrics_divergence(&left, &right) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("runpack: {e}");
            return ExitCode::FAILURE;
        }
    };
    match bisect(&left, &right) {
        None => {
            match &metrics {
                None => println!("streams identical: no divergence"),
                Some(m) => print_metrics_divergence(m),
            }
            ExitCode::SUCCESS
        }
        Some(report) => {
            println!(
                "first divergence: run {} index {} at={}ms seq={} span {:?} layer {}",
                report.run,
                report.index,
                report.at.as_millis(),
                report.seq,
                report.name,
                report.layer
            );
            if let Some(l) = &report.left {
                println!("  left:  {l}");
            }
            if let Some(r) = &report.right {
                println!("  right: {r}");
            }
            if let Some(m) = &metrics {
                print_metrics_divergence(m);
            }
            ExitCode::SUCCESS
        }
    }
}

fn seek_cmd(path: &str, rest: &[String]) -> ExitCode {
    let mut at: Option<u64> = None;
    let mut run: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--at", Some(v)) => match v.parse() {
                Ok(mins) => at = Some(mins),
                Err(_) => {
                    eprintln!("runpack: --at wants minutes, got {v:?}");
                    return ExitCode::from(2);
                }
            },
            ("--run", Some(v)) => run = Some(v.clone()),
            _ => return usage(),
        }
    }
    let Some(mins) = at else {
        return usage();
    };
    let pack = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("runpack: {e}");
            return ExitCode::FAILURE;
        }
    };
    let label = run.unwrap_or_else(|| {
        pack.runs
            .first()
            .map(|r| r.label.clone())
            .unwrap_or_else(|| "main".to_string())
    });
    match seek(&pack, &label, SimTime::from_mins(mins)) {
        Some(report) => {
            let json = serde_json::to_string_pretty(&report).expect("seek report serializes");
            println!("{json}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "runpack: no run {label:?} in {path} (has: {})",
                pack.runs
                    .iter()
                    .map(|r| r.label.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("info") if args.len() == 2 => match load(&args[1]) {
            Ok(pack) => {
                info(&pack);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("runpack: {e}");
                ExitCode::FAILURE
            }
        },
        Some("verify") if args.len() == 2 => verify(&args[1]),
        Some("bisect") if args.len() == 3 => bisect_cmd(&args[1], &args[2]),
        Some("seek") if args.len() >= 2 => seek_cmd(&args[1], &args[2..]),
        _ => usage(),
    }
}
