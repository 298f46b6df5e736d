//! `run`: the end-to-end metrics, with tracing off.
//!
//! Each repetition of a workload starts [`PROCESSES`] child processes,
//! one after another, each with an equal share of `--seconds`. A child
//! builds its inputs from the seed, runs one untimed warm-up iteration,
//! prints `ready`, then alternates the reference probe (`probe.rs`) with
//! timed iterations, starting another iteration only while it expects it
//! to end within its share, and reports its samples, its `VmHWM` at the
//! end of the warm-up and a hash of its outputs. Separate processes keep
//! `VmHWM` and allocator state apart between workloads, and give
//! `setup_s` several samples in every run.
//!
//! Every time is scaled to the probe's reference speed: an iteration by
//! the mean of the probe just before it and the probe just after it, a
//! process's set-up by the probe that follows it. A repetition reports
//! the median over its processes of set-up time and peak memory, and the
//! median over all their iterations of `iter_s` and `runs_per_s`. The
//! unscaled wall-clock medians are printed and recorded beside them.

use crate::host;
use crate::probe::{probe, scaled, REFERENCE_S};
use crate::spec::Spec;
use crate::stats::Summary;
use crate::workloads::{iterate, Plan, Size, Workload};
use phishsim_simnet::ObsSink;
use serde_json::{json, Map, Value};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Child processes per workload and repetition.
pub const PROCESSES: usize = 3;

/// The end-to-end metrics `run` computes, in report order.
pub const END_TO_END: [&str; 4] = ["setup_s", "iter_s", "runs_per_s", "peak_rss_mb"];

/// The body of one child process: warm up, say `ready`, then probe and
/// run timed iterations until `budget_s` seconds from its start are
/// spent (at least one iteration), and report.
pub fn child(plan: &Plan, budget_s: f64) {
    let start = Instant::now();
    let null = || ObsSink::Null;
    let warm = iterate(plan, &null);
    // Read before any probe runs: the probe's allocations between
    // iterations change how the heap fragments, which moved later
    // readings of one workload by 8% from process to process.
    let peak_rss_mb = host::peak_rss_mb();
    let mut failed = u64::from(!warm.problems.is_empty());
    let mut problems: BTreeSet<String> = warm.problems.iter().cloned().collect();
    println!("ready");
    std::io::stdout().flush().expect("stdout writable");

    let mut probes = vec![probe()];
    let (mut iter_s, mut run_s) = (Vec::new(), Vec::new());
    loop {
        let o = iterate(plan, &null);
        probes.push(probe());
        iter_s.push(o.secs);
        run_s.push(o.runs.1);
        // Every iteration must repeat the warm-up's outputs.
        let mut bad = o.problems;
        if o.digest != warm.digest {
            bad.push("outputs differ from the warm-up iteration".to_string());
        }
        failed += u64::from(!bad.is_empty());
        problems.extend(bad);
        let next = o.secs + probes[probes.len() - 1];
        if start.elapsed().as_secs_f64() + next > budget_s {
            break;
        }
    }
    let report = json!({
        "probe_s": probes,
        "iter_s": iter_s,
        "run_s": run_s,
        "runs": warm.runs.0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": 1 + iter_s.len() as u64,
        "failed": failed,
        "digest": format!("{:016x}", fnv1a(warm.digest.as_bytes())),
        "problems": problems.into_iter().collect::<Vec<_>>(),
    });
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serialises")
    );
}

/// FNV-1a: a short fingerprint of a child's outputs for comparing
/// processes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the parent learned from one child process.
pub struct ChildReport {
    /// Spawn to the child's `ready` line (0 for a `trace-child`, which
    /// prints none).
    ready_s: f64,
    /// The child's last output line, parsed.
    pub body: Value,
}

impl ChildReport {
    fn samples(&self, key: &str) -> Vec<f64> {
        self.body
            .get(key)
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    }

    fn number(&self, key: &str) -> f64 {
        self.body.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    /// The child's samples of each end-to-end metric, in [`END_TO_END`]
    /// order: scaled to the reference speed, and as measured.
    fn metric_samples(&self) -> ([Vec<f64>; 4], [Vec<f64>; 4]) {
        let probes = self.samples("probe_s");
        let (iters, run_s) = (self.samples("iter_s"), self.samples("run_s"));
        let runs = self.number("runs");
        let peak = vec![self.number("peak_rss_mb")];
        let (mut scaled_iters, mut scaled_rates) = (Vec::new(), Vec::new());
        for ((pair, &t), &r) in probes.windows(2).zip(&iters).zip(&run_s) {
            scaled_iters.push(scaled(t, pair[0], pair[1]));
            scaled_rates.push(runs / scaled(r, pair[0], pair[1]));
        }
        let setup = probes
            .first()
            .map(|&p| scaled(self.ready_s, p, p))
            .into_iter()
            .collect();
        let wall_rates = run_s.iter().map(|r| runs / r).collect();
        (
            [setup, scaled_iters, scaled_rates, peak.clone()],
            [vec![self.ready_s], iters, wall_rates, peak],
        )
    }
}

/// Run `plan` in a child process of this binary, in `mode` (`child` or
/// `trace-child`), and collect its report.
pub fn spawn_child(mode: &str, plan: &Plan, budget_s: f64) -> Result<ChildReport, String> {
    let name = plan.workload.name();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([mode, "--workload", name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &budget_s.to_string()]);
    if plan.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let start = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {name} child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut lines = BufReader::new(stdout).lines().map_while(Result::ok);
    let first = lines.next();
    let ready = first.as_deref() == Some("ready");
    let ready_s = start.elapsed().as_secs_f64();
    let last = lines.last().or(first);
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for {name} child: {e}"))?;
    if !status.success() {
        return Err(format!("{name} child failed: {status}"));
    }
    if mode == "child" && !ready {
        return Err(format!("{name} child never reported ready"));
    }
    let body = last
        .as_deref()
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .ok_or_else(|| format!("{name} child printed no report"))?;
    Ok(ChildReport {
        ready_s: if ready { ready_s } else { 0.0 },
        body,
    })
}

/// One workload's measurements over all repetitions.
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Each repetition's end-to-end metrics, in [`END_TO_END`] order.
    reps: Vec<[f64; 4]>,
    /// Scaled samples behind each metric, pooled over repetitions.
    samples: [Vec<f64>; 4],
    /// The same samples as measured, before scaling.
    wall: [Vec<f64>; 4],
    /// Every probe's time, pooled over processes and repetitions.
    probes: Vec<f64>,
    /// Iterations run, warm-ups included.
    pub attempted: u64,
    /// Iterations whose output check failed.
    pub failed: u64,
    /// Distinct check failures.
    pub problems: Vec<String>,
}

fn metric_index(metric: &str) -> usize {
    END_TO_END
        .iter()
        .position(|m| *m == metric)
        .expect("an end-to-end metric run computes")
}

impl WorkloadRun {
    /// Whether every iteration of every process passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// A metric's value in each repetition.
    fn per_rep(&self, metric: &str) -> Vec<f64> {
        let i = metric_index(metric);
        self.reps.iter().map(|r| r[i]).collect()
    }

    /// A metric's reported value: the median over repetitions.
    pub fn value(&self, metric: &str) -> f64 {
        median(&self.per_rep(metric))
    }
}

/// The median of `values`; NaN when there are none.
fn median(values: &[f64]) -> f64 {
    summary(values).median
}

/// Median and quartiles of `values`; NaN when there are none.
fn summary(values: &[f64]) -> Summary {
    if values.is_empty() {
        Summary {
            median: f64::NAN,
            q1: f64::NAN,
            q3: f64::NAN,
            n: 0,
        }
    } else {
        Summary::of(values)
    }
}

/// Measure one workload: `repeat` repetitions of [`PROCESSES`] child
/// processes sharing `seconds`. A process that fails or prints no
/// report counts as one failed attempt; the others are still measured.
pub fn measure(plan: &Plan, seconds: f64, repeat: usize) -> WorkloadRun {
    let mut run = WorkloadRun {
        workload: plan.workload,
        reps: Vec::new(),
        samples: Default::default(),
        wall: Default::default(),
        probes: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut digests = BTreeSet::new();
    let mut problems = BTreeSet::new();
    for _ in 0..repeat {
        let mut rep: [Vec<f64>; 4] = Default::default();
        for _ in 0..PROCESSES {
            let c = match spawn_child("child", plan, seconds / PROCESSES as f64) {
                Ok(c) => c,
                Err(e) => {
                    run.attempted += 1;
                    run.failed += 1;
                    problems.insert(e);
                    continue;
                }
            };
            let (scaled, wall) = c.metric_samples();
            for (i, (s, w)) in scaled.into_iter().zip(wall).enumerate() {
                rep[i].extend(&s);
                run.samples[i].extend(s);
                run.wall[i].extend(w);
            }
            run.probes.extend(c.samples("probe_s"));
            run.attempted += c.number("attempted") as u64;
            run.failed += c.number("failed") as u64;
            if let Some(d) = c.body.get("digest").and_then(Value::as_str) {
                digests.insert(d.to_string());
            }
            if let Some(list) = c.body.get("problems").and_then(Value::as_array) {
                problems.extend(list.iter().filter_map(Value::as_str).map(String::from));
            }
        }
        run.reps.push(rep.map(|s| median(&s)));
    }
    if digests.len() > 1 {
        problems.insert(format!(
            "outputs differ between processes ({} distinct)",
            digests.len()
        ));
    }
    run.problems = problems.into_iter().collect();
    run
}

/// Print one workload's metrics as a table: each reported value, the
/// quartiles and count of the scaled samples behind it, and their
/// median as measured, before scaling.
pub fn print_table(spec: &Spec, run: &WorkloadRun) {
    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>12} {:>4} {:>12}  unit",
        run.workload.name(),
        "metric",
        "value",
        "q1",
        "q3",
        "n",
        "as measured"
    );
    for m in &spec.end_to_end {
        let i = metric_index(&m.name);
        let s = summary(&run.samples[i]);
        println!(
            "{:<13} {:<12} {:>12.4} {:>12.4} {:>12.4} {:>4} {:>12.4}  {}",
            "",
            m.name,
            run.value(&m.name),
            s.q1,
            s.q3,
            s.n,
            median(&run.wall[i]),
            m.unit
        );
    }
    println!(
        "{:<13} {:<12} {:>12.4} {:>12} {:>12} {:>4} {:>12}  ratio ({} of {} iterations failed)",
        "",
        "failed_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        "",
        "",
        run.attempted,
        "",
        run.failed,
        run.attempted
    );
    let p = summary(&run.probes);
    println!(
        "{:<13} {:<12} {:>12.4} {:>12.4} {:>12.4} {:>4} {:>12}  s (reference {} s)",
        "", "probe", p.median, p.q1, p.q3, p.n, "", REFERENCE_S
    );
    for p in &run.problems {
        println!("{:<13} CHECK FAILED: {p}", "");
    }
}

/// The record `run` writes for `compare`.
pub fn record(spec: &Spec, runs: &[WorkloadRun], provenance: Value) -> Value {
    let mut workloads = Map::new();
    for run in runs {
        let mut metrics = Map::new();
        for m in &spec.end_to_end {
            let i = metric_index(&m.name);
            metrics.insert(
                m.name.clone(),
                json!({
                    "unit": m.unit,
                    "value": run.value(&m.name),
                    "runs": run.per_rep(&m.name),
                    "samples": run.samples[i],
                    "as_measured": run.wall[i],
                }),
            );
        }
        workloads.insert(
            run.workload.name().to_string(),
            json!({
                "correct": run.correct(),
                "attempted": run.attempted,
                "failed": run.failed,
                "failed_frac": run.failed as f64 / run.attempted.max(1) as f64,
                "problems": run.problems,
                "metrics": metrics,
                "probe_s": run.probes,
            }),
        );
    }
    json!({ "kind": "run", "provenance": provenance, "workloads": workloads })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Under `cargo test` this binary is the test harness, which rejects
    /// a child's arguments and exits non-zero: every process fails, and
    /// the run still reports them instead of giving up.
    #[test]
    fn a_failed_process_counts_as_a_failed_attempt() {
        let plan = Plan {
            workload: Workload::FleetBurst,
            seed: 1,
            size: Size::Smoke,
            threads: 1,
        };
        let r = measure(&plan, 0.0, 1);
        let n = PROCESSES as u64;
        assert_eq!((r.attempted, r.failed), (n, n));
        assert!(!r.correct());
        assert!(r.problems.iter().all(|p| p.contains("child failed")));
        assert!(r.value("iter_s").is_nan());
    }

    /// Each iteration is scaled by the probes on either side of it, and
    /// set-up by the first probe.
    #[test]
    fn child_samples_are_scaled_by_the_probes_around_them() {
        let p = REFERENCE_S;
        let c = ChildReport {
            ready_s: 3.0,
            body: json!({
                "probe_s": [2.0 * p, 2.0 * p, p],
                "iter_s": [1.0, 0.75],
                "run_s": [0.5, 0.75],
                "runs": 3,
                "peak_rss_mb": 40.0,
            }),
        };
        let (scaled, wall) = c.metric_samples();
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12);
        assert!(close(&scaled[0], &[1.5]));
        assert!(close(&scaled[1], &[0.5, 0.5]));
        assert!(close(&scaled[2], &[12.0, 6.0]));
        assert_eq!(scaled[3], vec![40.0]);
        assert_eq!(wall[1], vec![1.0, 0.75]);
        assert!(close(&wall[2], &[6.0, 4.0]));
    }
}
