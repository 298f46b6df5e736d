//! The four workloads: what one iteration runs, the outputs it must
//! produce, and the checks every iteration passes.
//!
//! Every workload is a closed loop with one caller: the next iteration
//! starts only after the previous one returned. An iteration's timed
//! region covers the public calls, taking the small outputs the checks
//! need, and dropping the rest; serialising and checking those outputs
//! happens after the clock stops.
//!
//! Each public call runs with an observability sink from the caller's
//! factory (`ObsSink::Null` when measuring, a tee into the span tap when
//! tracing) and inside a root span of the benchmark's own, so the trace
//! charges the call's time outside every program span to that span.

use phishsim_core::experiment::{
    fleet_points, run_fleet_point, run_main_experiment, run_preliminary,
    run_sb_scale_50m_with_threads, FleetSweepConfig, MainConfig, PreliminaryConfig,
    SbScale50mConfig,
};
use phishsim_core::tables::Table2;
use phishsim_core::DEFAULT_SEED;
use phishsim_feedserve::{PopulationConfig, PopulationReport};
use phishsim_simnet::metrics::CounterSet;
use phishsim_simnet::runner::run_sweep_with_threads;
use phishsim_simnet::{ObsSink, SimTime};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 then Table 2 at full paper volume, one thread.
    PaperTables,
    /// Fast (no background traffic) main-experiment seed sweeps at all
    /// cores and at one thread.
    SeedSweep,
    /// The four crawl-fleet points of the fleet sweep, one thread.
    FleetBurst,
    /// The feed-population sweep: exact 100k walk plus cohort walks at
    /// 100k and 2M, one thread.
    FeedCohort,
}

impl Workload {
    /// Every workload, in the order `run` and `trace` visit them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::SeedSweep,
        Workload::FleetBurst,
        Workload::FeedCohort,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::SeedSweep => "seed_sweep",
            Workload::FleetBurst => "fleet_burst",
            Workload::FeedCohort => "feed_cohort",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the benchmark's own, or the tiny one `--smoke` and the
/// tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` and the README describe.
    Full,
    /// Tiny sizes that exercise the same calls in well under a second.
    Smoke,
}

/// Everything that fixes a workload's inputs: the same plan gives the
/// same outputs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Problem size.
    pub size: Size,
    /// Worker threads for the parallel legs (`nproc`).
    pub threads: usize,
}

/// What one iteration produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time of the timed region, in seconds.
    pub secs: f64,
    /// Simulation runs completed at the workload's own thread count
    /// (seed_sweep: its all-core sweep), with the seconds they took.
    pub runs: (u64, f64),
    /// seed_sweep's one-thread sweep: runs and seconds.
    pub serial: Option<(u64, f64)>,
    /// Deterministic work counts, named as the per-layer metrics.
    pub counts: BTreeMap<String, u64>,
    /// Canonical JSON of every output; identical across iterations,
    /// processes and thread counts for one plan.
    pub digest: String,
    /// Failed output checks; empty when the iteration is correct.
    pub problems: Vec<String>,
}

/// Makes the sink each public call runs with.
pub type SinkFactory<'a> = &'a (dyn Fn() -> ObsSink + Sync);

/// The benchmark's own root spans: `core.experiment` around experiment
/// calls, `antiphish.fleet.loop` around fleet points. Their self time is
/// the call's time outside every program span.
pub const CALL_SPANS: [&str; 2] = ["core.experiment", "antiphish.fleet.loop"];

/// Run `f` inside a root span of the benchmark's own on `sink`.
fn within<R>(sink: &ObsSink, name: &str, f: impl FnOnce() -> R) -> R {
    let span = sink.span_start(None, name, "phishbench", SimTime::ZERO);
    let out = f();
    sink.span_end(span, SimTime::ZERO);
    out
}

/// Seeds in seed_sweep's all-core and one-thread sweeps. About 1.5 s
/// together, so each of `run`'s processes fits its warm-up and several
/// timed iterations into its share of a run, and probes come at least
/// that often (see `probe.rs`).
fn sweep_seeds(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (40, 20),
        Size::Smoke => (6, 3),
    }
}

/// The paper-table configs for a plan.
fn paper_configs(plan: &Plan) -> (PreliminaryConfig, MainConfig) {
    let (pre, main) = match plan.size {
        Size::Full => (PreliminaryConfig::paper(), MainConfig::paper()),
        Size::Smoke => (PreliminaryConfig::fast(), MainConfig::fast()),
    };
    (
        PreliminaryConfig {
            seed: plan.seed,
            ..pre
        },
        MainConfig {
            seed: plan.seed,
            ..main
        },
    )
}

/// The fleet-sweep config for a plan.
fn fleet_config(plan: &Plan) -> FleetSweepConfig {
    let base = match plan.size {
        Size::Full => FleetSweepConfig::paper(),
        Size::Smoke => FleetSweepConfig::fast(),
    };
    FleetSweepConfig {
        seed: plan.seed,
        ..base
    }
}

/// The feed-population config for a plan: the 50M sweep's scenario with
/// an exact 100k baseline and cohort points at 100k and 2M, about 2 s
/// in all. The paper sweep's 1M exact walk alone takes about 4 s and its
/// 10M point 4-5 s more, too long to repeat several times in each
/// process of a run. The cohort walk's memory grows with the population
/// the same way at 2M (about 155 MB peak) as at 10M (about 660 MB).
pub fn feed_config(plan: &Plan) -> SbScale50mConfig {
    let mut cfg = match plan.size {
        Size::Full => SbScale50mConfig {
            populations: vec![100_000, 2_000_000],
            ..SbScale50mConfig::paper()
        },
        Size::Smoke => SbScale50mConfig {
            populations: vec![2_000, 10_000],
            ..SbScale50mConfig::fast()
        },
    };
    cfg.scale.seed = plan.seed;
    cfg.scale.main.seed = plan.seed;
    cfg
}

/// Worker threads of feed_cohort's walks. At two threads on a 2-vCPU
/// host the paper sweep's 10M cohort walk took about 3 s or 6 s of wall
/// time from one iteration to the next, with both threads busy
/// throughout; on one thread it did not. `trace` still times the sweep
/// at `nproc` threads for `runner.parallel_efficiency`.
pub const FEED_THREADS: usize = 1;

/// Metric prefixes of feed_cohort's population walks, in the order the
/// sweep runs them: the exact baseline, then each cohort point.
pub const WALKS: [&str; 3] = [
    "feedserve.exact_walk",
    "feedserve.cohort_walk_100k",
    "feedserve.cohort_walk_2m",
];

/// The population config of each walk in [`WALKS`], as the sweep
/// derives them from its config.
pub fn feed_walks(cfg: &SbScale50mConfig) -> Vec<PopulationConfig> {
    let point = |clients: usize| PopulationConfig {
        clients,
        cohorts: Some(cfg.cohorts.clone()),
        mirrors: Some(cfg.mirrors.clone()),
        ..cfg.scale.population.clone()
    };
    let exact = PopulationConfig {
        cohorts: None,
        ..point(cfg.baseline_clients())
    };
    std::iter::once(exact)
        .chain(cfg.populations.iter().map(|&c| point(c)))
        .collect()
}

/// Run one iteration of a plan.
pub fn iterate(plan: &Plan, sinks: SinkFactory) -> Outcome {
    match plan.workload {
        Workload::PaperTables => paper_tables(plan, sinks),
        Workload::SeedSweep => seed_sweep(plan, sinks),
        Workload::FleetBurst => fleet_burst(plan, sinks),
        Workload::FeedCohort => feed_cohort(plan, sinks),
    }
}

/// Render and verdict cache traffic of one main-experiment run.
fn cache_counts(caches: Option<CounterSet>) -> [u64; 4] {
    let c = caches.unwrap_or_default();
    [
        c.get("render_cache.hit"),
        c.get("render_cache.miss"),
        c.get("verdict_store.hit"),
        c.get("verdict_store.miss"),
    ]
}

fn cache_count_map(c: [u64; 4]) -> BTreeMap<String, u64> {
    [
        "render_cache.hits",
        "render_cache.misses",
        "verdict_store.hits",
        "verdict_store.misses",
    ]
    .into_iter()
    .map(String::from)
    .zip(c)
    .collect()
}

fn paper_tables(plan: &Plan, sinks: SinkFactory) -> Outcome {
    let (pre, main) = paper_configs(plan);
    let (s1, s2) = (sinks(), sinks());
    let start = Instant::now();
    let table1 = within(&s1, "core.experiment", || {
        run_preliminary(&PreliminaryConfig {
            obs: s1.clone(),
            ..pre
        })
        .table
    });
    let (table2, caches) = within(&s2, "core.experiment", || {
        let r = run_main_experiment(&MainConfig {
            obs: s2.clone(),
            ..main
        });
        (r.table, r.run_caches.map(|c| c.counters()))
    });
    let secs = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if plan.seed == DEFAULT_SEED && plan.size == Size::Full {
        problems.extend(paper_table2_mismatches(&table2));
    }
    Outcome {
        secs,
        runs: (2, secs),
        serial: None,
        counts: cache_count_map(cache_counts(caches)),
        digest: canonical(json!({ "table1": table1, "table2": table2 })),
        problems,
    }
}

/// Cells of the paper's Table 2 that detect anything, as
/// `(cell, detected, reported)`; every other cell detects nothing.
const PAPER_TABLE2_HITS: [(&str, u64, u64); 3] =
    [("gsb|F|A", 3, 3), ("gsb|P|A", 3, 3), ("netcraft|F|S", 2, 3)];

/// How a Table 2 differs from the paper's (empty when it matches).
fn paper_table2_mismatches(t: &Table2) -> Vec<String> {
    let mut out = Vec::new();
    if (t.total.hits, t.total.total) != (8, 105) {
        out.push(format!(
            "table2 total {}/{} != 8/105",
            t.total.hits, t.total.total
        ));
    }
    for (key, rate) in &t.cells {
        let want = PAPER_TABLE2_HITS
            .iter()
            .find(|(k, _, _)| k == key)
            .map_or(0, |&(_, hits, _)| hits);
        if rate.hits != want {
            out.push(format!("table2 cell {key}: {} hits != {want}", rate.hits));
        }
    }
    for (key, _, total) in PAPER_TABLE2_HITS {
        if t.cells.get(key).map(|r| r.total) != Some(total) {
            out.push(format!("table2 cell {key} missing or not out of {total}"));
        }
    }
    out
}

fn seed_sweep(plan: &Plan, sinks: SinkFactory) -> Outcome {
    let (wide, narrow) = sweep_seeds(plan.size);
    let one = |seed: &u64| {
        let sink = sinks();
        within(&sink, "core.experiment", || {
            let r = run_main_experiment(&MainConfig {
                seed: *seed,
                obs: sink.clone(),
                ..MainConfig::fast()
            });
            (
                canonical(json!(r.table)),
                cache_counts(r.run_caches.map(|c| c.counters())),
            )
        })
    };
    let wide_seeds: Vec<u64> = (plan.seed..plan.seed + wide).collect();
    let narrow_seeds: Vec<u64> = (plan.seed..plan.seed + narrow).collect();
    let start = Instant::now();
    let parallel = run_sweep_with_threads(&wide_seeds, plan.threads, one);
    let parallel_secs = start.elapsed().as_secs_f64();
    let serial = run_sweep_with_threads(&narrow_seeds, 1, one);
    let secs = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if parallel[..serial.len()] != serial[..] {
        problems.push(format!(
            "per-seed results at {} threads differ from the one-thread pass",
            plan.threads
        ));
    }
    let mut caches = [0u64; 4];
    for (_, c) in &parallel {
        for (total, n) in caches.iter_mut().zip(c) {
            *total += n;
        }
    }
    let tables: Vec<&str> = parallel.iter().map(|(t, _)| t.as_str()).collect();
    Outcome {
        secs,
        runs: (wide, parallel_secs),
        serial: Some((narrow, secs - parallel_secs)),
        counts: cache_count_map(caches),
        digest: canonical(json!({ "tables": tables })),
        problems,
    }
}

/// Sustained intake the 256-worker FIFO fleet must reach, reports per
/// simulated day.
const FLEET_FLOOR_PER_DAY: f64 = 1_000_000.0;

fn fleet_burst(plan: &Plan, sinks: SinkFactory) -> Outcome {
    let cfg = fleet_config(plan);
    let points = fleet_points(&cfg);
    let start = Instant::now();
    let reports: Vec<_> = points
        .iter()
        .map(|p| {
            let sink = sinks();
            within(&sink, "antiphish.fleet.loop", || {
                run_fleet_point(&cfg, p, &sink)
            })
        })
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    for r in &reports {
        if r.completed != cfg.reports as u64 {
            problems.push(format!(
                "fleet {}/{}: completed {} of {} reports",
                r.workers, r.discipline, r.completed, cfg.reports
            ));
        }
        if plan.size == Size::Full
            && r.workers == 256
            && r.discipline == "fifo"
            && r.sustained_per_day < FLEET_FLOOR_PER_DAY
        {
            problems.push(format!(
                "fleet 256/fifo sustains {:.0} reports/day, under 1M",
                r.sustained_per_day
            ));
        }
    }
    let counts = [
        ("fleet.stolen", reports.iter().map(|r| r.stolen).sum()),
        ("fleet.spilled", reports.iter().map(|r| r.spilled).sum()),
        ("fleet.shed", reports.iter().map(|r| r.shed).sum()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    Outcome {
        secs,
        runs: (points.len() as u64, secs),
        serial: None,
        counts,
        digest: canonical(json!({ "points": reports })),
        problems,
    }
}

/// Update-protocol bytes a population walk shipped.
fn sync_bytes(p: &PopulationReport) -> u64 {
    p.counters.get("bytes.diff") + p.counters.get("bytes.full_reset")
}

fn feed_cohort(plan: &Plan, sinks: SinkFactory) -> Outcome {
    let mut cfg = feed_config(plan);
    let sink = sinks();
    cfg.scale.main.obs = sink.clone();
    let start = Instant::now();
    let r = within(&sink, "core.experiment", || {
        run_sb_scale_50m_with_threads(&cfg, FEED_THREADS)
    });
    let secs = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if !r.within_one_sample_step {
        problems.push(format!(
            "cohort percentiles drifted {} min from the exact walk (step {} min)",
            r.max_abs_delta_mins, r.sample_step_mins
        ));
    }
    let walked = std::iter::once(&r.baseline).chain(r.points.iter().map(|p| &p.population));
    let mut counts = BTreeMap::new();
    for (prefix, p) in WALKS.iter().zip(walked) {
        counts.insert(format!("{prefix}.fetches"), p.fetches);
        if let Some(rows) = p.cohorts {
            counts.insert(format!("{prefix}.cohort_rows"), rows);
        }
        counts.insert(format!("{prefix}.state_bytes"), p.state_bytes);
        counts.insert(format!("{prefix}.sync_bytes"), sync_bytes(p));
    }
    Outcome {
        secs,
        runs: (1 + r.points.len() as u64, secs),
        serial: None,
        counts,
        digest: canonical(json!(r)),
        problems,
    }
}

/// Compact JSON text of an output: the form outputs are compared in.
/// Object keys are sorted, so equal outputs give equal text.
pub fn canonical(value: Value) -> String {
    serde_json::to_string(&value).expect("benchmark outputs serialise")
}
