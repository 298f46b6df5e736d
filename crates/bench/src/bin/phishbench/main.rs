//! `phishbench`: phishsim's benchmark. It measures end-to-end metrics on
//! four workloads with tracing off, takes per-layer metrics from a
//! separate traced run, and compares two runs against the bounds in
//! `BENCHMARK.json`.
//!
//! ```text
//! phishbench run     [--workload W] [--seed S] [--seconds T] [--repeat N] [--smoke] [--out FILE]
//! phishbench trace   [--workload W] [--seed S] [--smoke] [--out FILE]
//! phishbench compare A.json B.json
//! phishbench --workload W --seed S --seconds T --trace 0|1
//! ```
//!
//! The last form is the one `BENCHMARK.json`'s command takes: `--trace
//! 0` is `run` and `--trace 1` is `trace`. Every form prints a table,
//! writes a JSON record under `target/phishbench/` and ends its output
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics`.
//! See `README.md` beside this file for the workloads and metrics.

mod compare;
mod host;
mod probe;
mod run;
mod spec;
mod stats;
mod tap;
mod trace;
mod workloads;

use phishsim_core::DEFAULT_SEED;
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Plan, Size, Workload};

const USAGE: &str = "usage:
  phishbench run     [--workload W] [--seed S] [--seconds T] [--repeat N] [--smoke] [--out FILE]
  phishbench trace   [--workload W] [--seed S] [--smoke] [--out FILE]
  phishbench compare A.json B.json
  phishbench --workload W --seed S --seconds T --trace 0|1
workloads: paper_tables, seed_sweep, fleet_burst, feed_cohort (default: all)";

/// Seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Trace,
    Compare,
    /// One measured process of `run` (internal).
    Child,
    /// One workload's process of `trace` (internal).
    TraceChild,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    repeat: usize,
    size: Size,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse(args: &[String], default_seconds: f64) -> Result<Args, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("run") => (Mode::Run, &args[1..]),
        Some("trace") => (Mode::Trace, &args[1..]),
        Some("compare") => (Mode::Compare, &args[1..]),
        Some("child") => (Mode::Child, &args[1..]),
        Some("trace-child") => (Mode::TraceChild, &args[1..]),
        _ => (Mode::Run, args),
    };
    let mut a = Args {
        mode,
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: f64::NAN,
        repeat: 1,
        size: Size::Full,
        out: None,
        files: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workloads =
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?;
            }
            "--seconds" => a.seconds = number(value()?)?,
            "--repeat" => a.repeat = (number(value()?)? as usize).max(1),
            "--trace" => match value()?.as_str() {
                "0" if a.mode == Mode::Run => {}
                "1" if a.mode == Mode::Run => a.mode = Mode::Trace,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--smoke" => a.size = Size::Smoke,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            file if a.mode == Mode::Compare && !file.starts_with("--") => {
                a.files.push(file.to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() {
        a.seconds = if a.size == Size::Smoke {
            SMOKE_SECONDS
        } else {
            default_seconds
        };
    }
    if a.mode == Mode::Compare && a.files.len() != 2 {
        return Err("compare takes two run records".to_string());
    }
    Ok(a)
}

fn plan(args: &Args, workload: Workload) -> Plan {
    Plan {
        workload,
        seed: args.seed,
        size: args.size,
        threads: host::nproc(),
    }
}

/// Write a JSON record, creating its directory. A record that cannot be
/// written is reported and skipped: the printed results stand alone.
fn write_record(path: &Path, record: &Value) {
    let text = serde_json::to_string_pretty(record).expect("record serialises");
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text + "\n"));
    match written {
        Ok(()) => println!("[record written to {}]", path.display()),
        Err(e) => eprintln!("phishbench: cannot write {}: {e}", path.display()),
    }
}

/// The final output line: the result in the benchmark's line format.
/// With one workload, metrics are keyed by name; with several, by
/// `workload.metric`.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: Map) {
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serialises")
    );
}

fn metric_key(args: &Args, workload: Workload, metric: &str) -> String {
    if args.workloads.len() == 1 {
        metric.to_string()
    } else {
        format!("{}.{metric}", workload.name())
    }
}

fn provenance(args: &Args) -> Value {
    json!({
        "host": host::provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "processes": run::PROCESSES,
        "probe_reference_s": probe::REFERENCE_S,
        "repeat": args.repeat,
        "size": format!("{:?}", args.size).to_lowercase(),
    })
}

fn run_command(args: &Args) -> ExitCode {
    let spec = spec::spec();
    println!(
        "phishbench run: seed {}, {} s per workload over {} processes, \
         {} repetition(s); {} cores ({}), commit {}",
        args.seed,
        args.seconds,
        run::PROCESSES,
        args.repeat,
        host::nproc(),
        host::cpu_model(),
        host::commit()
    );
    let mut runs = Vec::new();
    for &w in &args.workloads {
        let r = run::measure(&plan(args, w), args.seconds, args.repeat);
        run::print_table(&spec, &r);
        runs.push(r);
    }
    write_record(
        args.out
            .as_deref()
            .unwrap_or(Path::new("target/phishbench/run.json")),
        &run::record(&spec, &runs, provenance(args)),
    );
    let mut metrics = Map::new();
    for r in &runs {
        for m in &spec.end_to_end {
            metrics.insert(
                metric_key(args, r.workload, &m.name),
                json!({ "value": r.value(&m.name), "unit": m.unit }),
            );
        }
    }
    let correct = runs.iter().all(run::WorkloadRun::correct);
    print_result(
        correct,
        runs.iter().map(|r| r.attempted).sum(),
        runs.iter().map(|r| r.failed).sum(),
        metrics,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_command(args: &Args) -> ExitCode {
    let spec = spec::spec();
    println!(
        "phishbench trace: seed {}; {} cores ({}), commit {}",
        args.seed,
        host::nproc(),
        host::cpu_model(),
        host::commit()
    );
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Map::new();
    let mut workloads = Map::new();
    for &w in &args.workloads {
        let t = match run::spawn_child("trace-child", &plan(args, w), 0.0) {
            Ok(c) => trace::Traced::from_json(&c.body),
            Err(e) => trace::Traced {
                attempted: 1,
                failed: 1,
                problems: vec![e],
                ..Default::default()
            },
        };
        println!("{:<13} {:<40} {:>16}  unit", w.name(), "metric", "value");
        let mut values = Map::new();
        for m in &spec.per_layer {
            let v = t.metrics.get(&m.name).copied().unwrap_or(0.0);
            println!("{:<13} {:<40} {:>16.6}  {}", "", m.name, v, m.unit);
            values.insert(m.name.clone(), json!(v));
            metrics.insert(
                metric_key(args, w, &m.name),
                json!({ "value": v, "unit": m.unit }),
            );
        }
        for name in t.metrics.keys() {
            if !spec.per_layer.iter().any(|m| &m.name == name) {
                eprintln!(
                    "phishbench: {} measured {name}, which BENCHMARK.json does not list",
                    w.name()
                );
            }
        }
        for p in &t.problems {
            println!("{:<13} CHECK FAILED: {p}", "");
        }
        correct &= t.failed == 0 && t.problems.is_empty();
        attempted += t.attempted;
        failed += t.failed;
        workloads.insert(
            w.name().to_string(),
            json!({ "problems": t.problems, "metrics": values }),
        );
    }
    write_record(
        args.out
            .as_deref()
            .unwrap_or(Path::new("target/phishbench/trace.json")),
        &json!({ "kind": "trace", "provenance": provenance(args), "workloads": workloads }),
    );
    print_result(correct, attempted, failed, metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_command(args: &Args) -> ExitCode {
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (read(&args.files[0]), read(&args.files[1])) {
        (Ok(a), Ok(b)) => {
            if compare::compare(&spec::spec(), &a, &b) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("phishbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv, spec::spec().run_seconds as f64) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("phishbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.mode != Mode::Compare {
        let set = host::phishsim_env();
        if !set.is_empty() {
            eprintln!(
                "phishbench: refusing to measure with {} set: each PHISHSIM_* variable \
                 selects a different program; unset it and run again",
                set.join(", ")
            );
            return ExitCode::from(2);
        }
    }
    match args.mode {
        Mode::Run => run_command(&args),
        Mode::Trace => trace_command(&args),
        Mode::Compare => compare_command(&args),
        Mode::Child => {
            run::child(&plan(&args, args.workloads[0]), args.seconds);
            ExitCode::SUCCESS
        }
        Mode::TraceChild => {
            let t = trace::trace(&plan(&args, args.workloads[0]));
            println!(
                "{}",
                serde_json::to_string(&t.to_json()).expect("trace serialises")
            );
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn benchmark_command_form_selects_run_or_trace() {
        let a = parse(
            &argv("--workload fleet_burst --seed 3 --seconds 8 --trace 1"),
            5.0,
        )
        .expect("parses");
        assert_eq!(a.mode, Mode::Trace);
        assert_eq!(a.workloads, vec![Workload::FleetBurst]);
        assert_eq!((a.seed, a.seconds), (3, 8.0));
        let a = parse(&argv("--trace 0"), 5.0).expect("parses");
        assert_eq!((a.mode, a.seconds), (Mode::Run, 5.0));
        assert_eq!(a.workloads.len(), 4);
        assert!(parse(&argv("--workload nope"), 5.0).is_err());
        assert!(parse(&argv("--trace 2"), 5.0).is_err());
    }

    #[test]
    fn run_reports_every_end_to_end_metric() {
        let names: Vec<String> = spec::spec()
            .end_to_end
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, run::END_TO_END);
    }

    /// The `--smoke` sizes: every workload's checks pass, outputs repeat
    /// exactly, and the traced runs between them produce every
    /// per-layer metric `BENCHMARK.json` lists, and no other.
    #[test]
    fn smoke_runs_and_traces_every_workload() {
        let listed: BTreeSet<String> = spec::spec().per_layer.into_iter().map(|m| m.name).collect();
        let mut measured = BTreeSet::new();
        for w in Workload::ALL {
            let plan = Plan {
                workload: w,
                seed: DEFAULT_SEED,
                size: Size::Smoke,
                threads: 2,
            };
            let null = || phishsim_simnet::ObsSink::Null;
            let (a, b) = (
                workloads::iterate(&plan, &null),
                workloads::iterate(&plan, &null),
            );
            assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
            assert_eq!(a.digest, b.digest, "{} repeats exactly", w.name());
            let t = trace::trace(&plan);
            assert_eq!(t.failed, 0, "{}: {:?}", w.name(), t.problems);
            assert!(t.problems.is_empty(), "{}: {:?}", w.name(), t.problems);
            let names: BTreeSet<String> = t.metrics.keys().cloned().collect();
            let unlisted: Vec<_> = names.difference(&listed).collect();
            assert!(unlisted.is_empty(), "{} measured {unlisted:?}", w.name());
            measured.extend(names);
        }
        let missing: Vec<_> = listed.difference(&measured).collect();
        assert!(missing.is_empty(), "never measured: {missing:?}");
    }
}
