//! Population-scale cohort sweep (`sb_scale_50m`): the `sb_scale`
//! scenario pushed past fifty million clients.
//!
//! The exact per-client walk tops out around 10⁶–10⁷ clients — every
//! client costs a schedule derivation *and* a full horizon walk.
//! Cohort mode ([`phishsim_feedserve::CohortSpec`]) collapses clients
//! with the same quantized (mirror, period, phase, aggressive)
//! schedule into one weighted walk, so the walk cost scales with the
//! *schedule grid* (~10⁵ rows) instead of the population, and the
//! per-event exposure state is sorted `(exposure_ms, clients)` runs
//! instead of a per-client vector. This module sweeps that machinery over
//! escalating populations (default 10⁶ / 10⁷ / 5×10⁷) behind a
//! regional mirror tier and holds the smallest cohort point against
//! the *exact* walk of the same population:
//!
//! * every cohort blind-window percentile must sit within one
//!   protected-fraction sample step (`sample_every`) of the exact
//!   baseline — the quantization error bound
//!   ([`phishsim_feedserve::CohortSpec::error_bound`]) made
//!   observable; and
//! * `state_bytes` / `sync-bytes-per-client` are reported per point —
//!   the deterministic halves of the `results/BENCH_5.json` guard
//!   (peak RSS is measured by the bench bin, which owns everything
//!   host-dependent).
//!
//! Byte-identical for any `PHISHSIM_SWEEP_THREADS`: the feed timeline
//! is built once, cohort construction fills one row map per thread
//! range and sums them key by key into canonical key order, and row
//! walks merge their exposure runs by summing equal exposures.

use crate::experiment::main_experiment::run_main_experiment;
use crate::experiment::sb_scale::{build_feed, delays_from_result, SbScaleConfig, TechniqueDelay};
use phishsim_feedserve::{
    run_population_with_threads, CohortSpec, MirrorConfig, PopulationConfig, PopulationReport,
};
use phishsim_simnet::runner::sweep_threads;
use serde::{Deserialize, Serialize};

/// Knobs for the cohort scale sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SbScale50mConfig {
    /// The base scenario: feed content, churn, report instant, and the
    /// main-experiment leg the listing delays come from. Its
    /// `population` block supplies every knob except `clients`,
    /// `cohorts`, and `mirrors`, which this sweep overrides per point.
    pub scale: SbScaleConfig,
    /// Cohort populations swept, smallest first. The first entry is
    /// also the exact-baseline population the error guard compares
    /// against.
    pub populations: Vec<usize>,
    /// Schedule quantization shared by every cohort point.
    pub cohorts: CohortSpec,
    /// The regional mirror tier both the baseline and every cohort
    /// point route through (tier parity keeps the comparison honest).
    pub mirrors: MirrorConfig,
}

impl SbScale50mConfig {
    /// Full-scale configuration: 10⁶ / 10⁷ / 5×10⁷ clients, default
    /// quanta, an eight-mirror tier.
    pub fn paper() -> Self {
        SbScale50mConfig {
            scale: SbScaleConfig::paper(),
            populations: vec![1_000_000, 10_000_000, 50_000_000],
            cohorts: CohortSpec::default(),
            mirrors: MirrorConfig::default(),
        }
    }

    /// Reduced configuration for tests, CI smoke runs, and the
    /// committed replay pack.
    pub fn fast() -> Self {
        SbScale50mConfig {
            scale: SbScaleConfig::fast(),
            populations: vec![2_000, 10_000, 50_000],
            cohorts: CohortSpec::default(),
            mirrors: MirrorConfig {
                mirrors: 4,
                ..MirrorConfig::default()
            },
        }
    }

    /// The population config for one cohort point.
    fn point_population(&self, clients: usize) -> PopulationConfig {
        PopulationConfig {
            clients,
            cohorts: Some(self.cohorts.clone()),
            mirrors: Some(self.mirrors.clone()),
            ..self.scale.population.clone()
        }
    }

    /// The exact-walk config the guard compares against: identical to
    /// the smallest cohort point except `cohorts: None`.
    fn baseline_population(&self) -> PopulationConfig {
        PopulationConfig {
            cohorts: None,
            ..self.point_population(self.baseline_clients())
        }
    }

    /// The exact-baseline population size (smallest sweep point).
    pub fn baseline_clients(&self) -> usize {
        *self
            .populations
            .first()
            .expect("sweep needs at least one population")
    }
}

/// One population size's cohort run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Clients simulated at this point.
    pub clients: usize,
    /// Cohort rows the population collapsed into.
    pub cohort_rows: u64,
    /// Clients per cohort row — the compression the quantized grid
    /// buys (grows with the population; the grid is bounded).
    pub clients_per_row: f64,
    /// Walker-state footprint in bytes (struct-of-arrays rows).
    pub state_bytes: u64,
    /// What the exact walk's degenerate one-row-per-client table would
    /// occupy, for the same accounting.
    pub exact_state_bytes: u64,
    /// Update-protocol bytes shipped (diff + full reset), total.
    pub sync_bytes: u64,
    /// The guarded BENCH_5 figure: update bytes per simulated client
    /// over the whole horizon.
    pub sync_bytes_per_client: f64,
    /// The full population report (counters, per-event percentiles,
    /// protected-fraction curves).
    pub population: PopulationReport,
}

/// Cohort-vs-exact percentile deltas for one listing event at the
/// baseline population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineDelta {
    /// Event label (the evasion technique).
    pub label: String,
    /// `cohort p50 − exact p50`, fractional minutes.
    pub d_p50_mins: f64,
    /// `cohort p95 − exact p95`, fractional minutes.
    pub d_p95_mins: f64,
    /// `cohort p99 − exact p99`, fractional minutes.
    pub d_p99_mins: f64,
}

/// The full sweep record (`results/sb_scale_50m.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SbScale50mResult {
    /// Feed seed used.
    pub seed: u64,
    /// Report→listing delays per technique (shared by every point).
    pub delays: Vec<TechniqueDelay>,
    /// The exact-walk baseline at the smallest population.
    pub baseline_clients: usize,
    /// The exact baseline's full report.
    pub baseline: PopulationReport,
    /// One cohort run per population, smallest first.
    pub points: Vec<ScalePoint>,
    /// Per-event percentile deltas: cohort point at `baseline_clients`
    /// vs the exact baseline.
    pub baseline_deltas: Vec<BaselineDelta>,
    /// Largest absolute percentile delta across all events, minutes.
    pub max_abs_delta_mins: f64,
    /// The protected-fraction sample step, minutes — the guard bound.
    pub sample_step_mins: u64,
    /// The guard: every delta within one sample step.
    pub within_one_sample_step: bool,
}

/// Run the sweep on the default thread count.
pub fn run_sb_scale_50m(cfg: &SbScale50mConfig) -> SbScale50mResult {
    run_sb_scale_50m_with_threads(cfg, sweep_threads())
}

/// Run the sweep on exactly `threads` workers. Byte-identical output
/// for any thread count.
pub fn run_sb_scale_50m_with_threads(cfg: &SbScale50mConfig, threads: usize) -> SbScale50mResult {
    // One main-experiment leg and one feed timeline, shared by the
    // baseline and every sweep point.
    let delays = delays_from_result(&run_main_experiment(&cfg.scale.main));
    let (server, events) = build_feed(&cfg.scale, &delays);

    let baseline_clients = cfg.baseline_clients();
    let baseline =
        run_population_with_threads(&cfg.baseline_population(), &server, &events, threads);

    let mut points = Vec::with_capacity(cfg.populations.len());
    for &clients in &cfg.populations {
        let pop_cfg = cfg.point_population(clients);
        let population = run_population_with_threads(&pop_cfg, &server, &events, threads);
        let cohort_rows = population.cohorts.unwrap_or(0);
        let sync_bytes =
            population.counters.get("bytes.diff") + population.counters.get("bytes.full_reset");
        points.push(ScalePoint {
            clients,
            cohort_rows,
            clients_per_row: clients as f64 / cohort_rows.max(1) as f64,
            state_bytes: population.state_bytes,
            exact_state_bytes: clients as u64 * phishsim_feedserve::COHORT_ROW_BYTES,
            sync_bytes,
            sync_bytes_per_client: sync_bytes as f64 / clients.max(1) as f64,
            population,
        });
    }

    // The guard: the cohort point at the baseline population must sit
    // within one protected-fraction sample step of the exact walk on
    // every percentile of every event.
    let guard_point = &points[0].population;
    let baseline_deltas: Vec<BaselineDelta> = baseline
        .events
        .iter()
        .zip(&guard_point.events)
        .map(|(exact, cohort)| BaselineDelta {
            label: exact.label.clone(),
            d_p50_mins: cohort.p50_exposure_mins - exact.p50_exposure_mins,
            d_p95_mins: cohort.p95_exposure_mins - exact.p95_exposure_mins,
            d_p99_mins: cohort.p99_exposure_mins - exact.p99_exposure_mins,
        })
        .collect();
    let max_abs_delta_mins = baseline_deltas
        .iter()
        .flat_map(|d| [d.d_p50_mins, d.d_p95_mins, d.d_p99_mins])
        .fold(0.0_f64, |acc, d| acc.max(d.abs()));
    let sample_step_mins = cfg.scale.population.sample_every.as_mins();

    SbScale50mResult {
        seed: cfg.scale.seed,
        delays,
        baseline_clients,
        baseline,
        points,
        baseline_deltas,
        max_abs_delta_mins,
        sample_step_mins,
        within_one_sample_step: max_abs_delta_mins <= sample_step_mins as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_simnet::SimDuration;

    fn tiny() -> SbScale50mConfig {
        let mut cfg = SbScale50mConfig::fast();
        cfg.scale.baseline_hashes = 500;
        cfg.scale.churn_add = 20;
        cfg.scale.population.horizon = SimDuration::from_hours(6);
        cfg.scale.population.batch = 64;
        // A tighter jitter shrinks the schedule grid so the largest
        // point saturates it — compression becomes visible at test
        // scale the same way 50M clients saturate the default grid.
        cfg.scale.population.period_jitter = SimDuration::from_mins(2);
        cfg.populations = vec![400, 4_000, 40_000];
        cfg
    }

    #[test]
    fn sweep_scales_rows_sublinearly_and_passes_the_guard() {
        let r = run_sb_scale_50m(&tiny());
        assert_eq!(r.points.len(), 3);
        assert_eq!(r.baseline_clients, 400);
        assert_eq!(r.baseline.clients, 400);
        assert!(r.baseline.cohorts.is_none(), "baseline walks exact");
        for p in &r.points {
            assert!(p.cohort_rows > 0);
            assert_eq!(p.state_bytes, p.cohort_rows * 29);
            assert!(p.population.fetches > 0);
            assert!(p.sync_bytes > 0);
        }
        // The schedule grid is bounded: growing the population 100x
        // grows rows far slower, and the largest point compresses at
        // least 2:1 (grid saturated, rows now shared).
        let (small, large) = (&r.points[0], &r.points[2]);
        assert!(large.clients_per_row > small.clients_per_row);
        assert!(
            large.cohort_rows * 2 < large.clients as u64,
            "rows {} at {} clients should compress at least 2:1",
            large.cohort_rows,
            large.clients
        );
        // The headline guard.
        assert!(
            r.within_one_sample_step,
            "cohort percentiles drifted {} mins (step {})",
            r.max_abs_delta_mins, r.sample_step_mins
        );
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = tiny();
        let a = run_sb_scale_50m_with_threads(&cfg, 1);
        let b = run_sb_scale_50m_with_threads(&cfg, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
