//! Resilience sweep: the whole detection pipeline under escalating
//! chaos.
//!
//! The paper's measurements assume a well-behaved network; this
//! experiment asks how gracefully the *conclusions* degrade when it is
//! not. Each fault-intensity level stresses all three layers at once:
//!
//! 1. **Crawl path** — every engine exchange can be dropped with
//!    `crawl_loss` (the `World` fault model); engines recover through
//!    the browser- and engine-level retry policies instead of aborting
//!    reports.
//! 2. **Feed server** — the blacklist-distribution edge goes dark for
//!    an `outage_mins`-long window anchored shortly before the main
//!    listings land, so clients ride out the outage on stale stores.
//! 3. **Feed channel** — each client update exchange is lost with
//!    `feed_loss`, exercising the degraded-client backoff.
//!
//! Per level the sweep reports the per-technique listing delays (and
//! their delta against the fault-free baseline level) plus the
//! population blind-window percentiles (and their inflation). Two
//! invariants are pinned by tests and visible in
//! `results/resilience.json`:
//!
//! * the reCAPTCHA technique is **never listed at any intensity** —
//!   chaos only loses crawls, it cannot conjure detections; and
//! * the reference listing's median blind window is **monotone
//!   non-decreasing in fault intensity** (the outage windows are
//!   nested, so every client's first successful post-listing sync can
//!   only move later).
//!
//! The record is byte-identical for any `PHISHSIM_SWEEP_THREADS`: the
//! main-experiment leg is serial per level and the population leg
//! merges in input order.

use crate::experiment::main_experiment::run_main_experiment;
use crate::experiment::sb_scale::{build_feed, delays_from_result, SbScaleConfig};
use phishsim_feedserve::run_population_with_threads;
use phishsim_simnet::runner::sweep_threads;
use phishsim_simnet::{FaultInjector, OutageWindow, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One point on the chaos ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultIntensity {
    /// Human-readable level name.
    pub label: String,
    /// Crawl-path exchange loss probability.
    pub crawl_loss: f64,
    /// Feed-server outage duration in minutes (0: no outage).
    pub outage_mins: u64,
    /// Feed-channel update-exchange loss probability.
    pub feed_loss: f64,
}

impl FaultIntensity {
    /// The fault-free baseline every delta is measured against.
    pub fn baseline() -> Self {
        FaultIntensity {
            label: "baseline".into(),
            crawl_loss: 0.0,
            outage_mins: 0,
            feed_loss: 0.0,
        }
    }

    /// The default escalating ladder. Outage windows are nested
    /// (shared anchor, growing duration), which is what makes the
    /// blind-window metric structurally monotone.
    pub fn ladder() -> Vec<FaultIntensity> {
        let mk = |label: &str, crawl_loss: f64, outage_mins: u64, feed_loss: f64| FaultIntensity {
            label: label.into(),
            crawl_loss,
            outage_mins,
            feed_loss,
        };
        vec![
            Self::baseline(),
            mk("light", 0.05, 30, 0.05),
            mk("moderate", 0.10, 60, 0.10),
            mk("heavy", 0.20, 120, 0.20),
        ]
    }
}

/// Sweep configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Intensity levels, weakest first; `levels[0]` is the baseline
    /// deltas are computed against.
    pub levels: Vec<FaultIntensity>,
    /// The coupled main-experiment + population scenario each level
    /// re-runs (fault knobs are overridden per level).
    pub scale: SbScaleConfig,
    /// Where outage windows start, measured from the report instant.
    /// Chosen to sit just before the reference listing lands so that
    /// growing the window provably delays its propagation.
    pub outage_anchor: SimDuration,
}

impl ResilienceConfig {
    /// Full-scale configuration (million-client population per level).
    pub fn paper() -> Self {
        ResilienceConfig {
            levels: FaultIntensity::ladder(),
            scale: SbScaleConfig::paper(),
            outage_anchor: SimDuration::from_mins(120),
        }
    }

    /// Reduced configuration for tests and CI smoke runs.
    pub fn fast() -> Self {
        ResilienceConfig {
            scale: SbScaleConfig::fast(),
            ..Self::paper()
        }
    }
}

/// One technique's row at one intensity level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TechniqueResilience {
    /// Technique label.
    pub technique: String,
    /// Arms deployed with this technique.
    pub arms: usize,
    /// Arms whose URL ever listed at this intensity.
    pub listed_arms: usize,
    /// Median report→listing delay in minutes (`None`: never listed).
    pub median_listing_delay_mins: Option<u64>,
    /// Listing-delay change against the baseline level (`None` when
    /// unlisted on either side).
    pub listing_delay_delta_mins: Option<i64>,
    /// Clients protected before the horizon.
    pub protected: usize,
    /// Median client blind window in minutes.
    pub p50_exposure_mins: f64,
    /// 95th-percentile client blind window in minutes.
    pub p95_exposure_mins: f64,
    /// Median blind-window inflation against the baseline level, in
    /// minutes.
    pub blind_window_inflation_mins: f64,
}

/// Everything measured at one intensity level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelReport {
    /// The intensity that produced this row.
    pub intensity: FaultIntensity,
    /// Total detections in the main experiment (fault-free: 8/105).
    pub detections: u64,
    /// Feed fetches the outage left unanswered.
    pub updates_unavailable: u64,
    /// Update exchanges lost on the feed channel.
    pub updates_lost: u64,
    /// Per-technique rows, reference row (`none`) first.
    pub techniques: Vec<TechniqueResilience>,
}

/// The full sweep record (`results/resilience.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceResult {
    /// Clients simulated per level.
    pub clients: usize,
    /// Feed seed.
    pub seed: u64,
    /// One report per intensity level, in ladder order.
    pub levels: Vec<LevelReport>,
}

/// Run the sweep on the default thread count.
pub fn run_resilience(cfg: &ResilienceConfig) -> ResilienceResult {
    run_resilience_with_threads(cfg, sweep_threads())
}

/// Run the sweep on exactly `threads` workers. Byte-identical output
/// for any thread count.
pub fn run_resilience_with_threads(cfg: &ResilienceConfig, threads: usize) -> ResilienceResult {
    let mut levels = Vec::with_capacity(cfg.levels.len());
    // Baseline lookups: technique → (listing delay, p50 exposure).
    let mut base: BTreeMap<String, (Option<u64>, f64)> = BTreeMap::new();

    for intensity in &cfg.levels {
        let mut scale = cfg.scale.clone();
        scale.main.faults = FaultInjector {
            drop_chance: intensity.crawl_loss,
            ..FaultInjector::none()
        }
        .validated();
        scale.population.feed_loss = intensity.feed_loss;

        let main = run_main_experiment(&scale.main);
        let delays = delays_from_result(&main);

        let (server, events) = build_feed(&scale, &delays);
        let server = if intensity.outage_mins > 0 {
            let from = scale.report_at + cfg.outage_anchor;
            server.with_outages(vec![OutageWindow::new(
                from,
                from + SimDuration::from_mins(intensity.outage_mins),
            )])
        } else {
            server
        };
        let population = run_population_with_threads(&scale.population, &server, &events, threads);

        let techniques: Vec<TechniqueResilience> = delays
            .iter()
            .zip(&population.events)
            .map(|(d, e)| {
                let p50 = e.p50_exposure_mins;
                let (base_delay, base_p50) = base
                    .get(&d.technique)
                    .copied()
                    .unwrap_or((d.median_listing_delay_mins, p50));
                TechniqueResilience {
                    technique: d.technique.clone(),
                    arms: d.arms,
                    listed_arms: d.listed_arms,
                    median_listing_delay_mins: d.median_listing_delay_mins,
                    listing_delay_delta_mins: match (d.median_listing_delay_mins, base_delay) {
                        (Some(now), Some(before)) => Some(now as i64 - before as i64),
                        _ => None,
                    },
                    protected: e.protected,
                    p50_exposure_mins: p50,
                    p95_exposure_mins: e.p95_exposure_mins,
                    blind_window_inflation_mins: p50 - base_p50,
                }
            })
            .collect();
        if base.is_empty() {
            for t in &techniques {
                base.insert(
                    t.technique.clone(),
                    (t.median_listing_delay_mins, t.p50_exposure_mins),
                );
            }
        }

        levels.push(LevelReport {
            intensity: intensity.clone(),
            detections: main.table.total.hits,
            updates_unavailable: population.counters.get("update.unavailable"),
            updates_lost: population.counters.get("update.lost"),
            techniques,
        });
    }

    ResilienceResult {
        clients: cfg.scale.population.clients,
        seed: cfg.scale.seed,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_feedserve::PopulationConfig;

    fn tiny() -> ResilienceConfig {
        let mut cfg = ResilienceConfig::fast();
        cfg.scale.baseline_hashes = 500;
        cfg.scale.churn_add = 20;
        cfg.scale.population = PopulationConfig {
            clients: 300,
            batch: 64,
            horizon: SimDuration::from_hours(8),
            ..PopulationConfig::default()
        };
        cfg
    }

    #[test]
    fn recaptcha_never_lists_at_any_intensity() {
        let r = run_resilience_with_threads(&tiny(), 2);
        assert_eq!(r.levels.len(), 4);
        for level in &r.levels {
            let row = level
                .techniques
                .iter()
                .find(|t| t.technique == "recaptcha")
                .expect("recaptcha row present");
            assert_eq!(
                row.listed_arms, 0,
                "chaos must not conjure listings at {}",
                level.intensity.label
            );
            assert_eq!(row.median_listing_delay_mins, None);
            assert_eq!(row.protected, 0, "everyone stays exposed");
        }
    }

    #[test]
    fn reference_blind_window_is_monotone_in_intensity() {
        let r = run_resilience_with_threads(&tiny(), 2);
        let p50s: Vec<f64> = r
            .levels
            .iter()
            .map(|l| {
                l.techniques
                    .iter()
                    .find(|t| t.technique == "none")
                    .expect("reference row")
                    .p50_exposure_mins
            })
            .collect();
        assert!(
            p50s.windows(2).all(|w| w[0] <= w[1]),
            "blind window must not shrink under chaos: {p50s:?}"
        );
        // The heavy level's two-hour outage visibly inflates it.
        assert!(
            p50s[3] >= p50s[0] + 60.0,
            "heavy chaos should add an hour-plus: {p50s:?}"
        );
        // Baseline deltas are zero by construction.
        for t in &r.levels[0].techniques {
            assert_eq!(t.blind_window_inflation_mins, 0.0);
            assert!(t.listing_delay_delta_mins.unwrap_or(0) == 0);
        }
    }

    #[test]
    fn fault_levels_count_staleness_and_loss() {
        let r = run_resilience_with_threads(&tiny(), 2);
        assert_eq!(r.levels[0].updates_unavailable, 0);
        assert_eq!(r.levels[0].updates_lost, 0);
        assert_eq!(r.levels[0].detections, 8, "fault-free level is Table 2");
        for level in &r.levels[1..] {
            assert!(level.updates_unavailable > 0, "{}", level.intensity.label);
            assert!(level.updates_lost > 0, "{}", level.intensity.label);
            assert!(
                level.detections <= 8,
                "chaos can only lose detections ({})",
                level.intensity.label
            );
        }
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = tiny();
        let a = run_resilience_with_threads(&cfg, 1);
        let b = run_resilience_with_threads(&cfg, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
