//! The main experiment (§4.2, Table 2).
//!
//! 105 domains, each hosting one phishing URL protected by one of the
//! three human-verification techniques and targeting Facebook or
//! PayPal, reported to exactly one of the six engines, over a two-week
//! window. The expected (paper) outcome: GSB detects all six alert-box
//! URLs (mean 132 minutes); NetCraft bypasses all six session gates
//! but flags only two (6 and 9 minutes); nothing else is detected —
//! 8 of 105 in total.

use crate::deploy::{deploy_armed_site, Deployment};
use crate::experiment::{register_spread, synth_domains};
use crate::monitor::{monitor_listings, Observation};
use crate::tables::Table2;
use crate::world::{World, DEFAULT_SEED};
use phishsim_antiphish::{
    CapabilityUpgrade, Engine, EngineId, EngineProfile, FeedNetwork, ReportOutcome, RunCaches,
};
use phishsim_http::Url;
use phishsim_phishgen::{Brand, EvasionTechnique};
use phishsim_runpack::StateSnapshot;
use phishsim_simnet::{
    FaultInjector, Ipv4Sim, ObsSink, SimDuration, SimTime, TraceEvent, TraceKind,
};
use serde::{Deserialize, Serialize};

/// Configuration of the main experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MainConfig {
    /// Experiment seed (the default reproduces Table 2 exactly).
    pub seed: u64,
    /// Background-traffic scale.
    pub volume_scale: f64,
    /// Experiment window (paper: two weeks).
    pub horizon: SimDuration,
    /// Optional §5.1 mitigation package applied to every engine
    /// (the "what if the engines adopted the counter-measures" rerun).
    pub upgrade: Option<CapabilityUpgrade>,
    /// Network fault profile (robustness sweeps; none by default).
    #[serde(skip)]
    pub faults: FaultInjector,
    /// Observability sink threaded through the world, the hosting farm
    /// and every engine. Skipped on (de)serialization like `faults`.
    #[serde(skip)]
    pub obs: ObsSink,
    /// Capture per-arm engine state snapshots plus end-of-run engine
    /// and world snapshots into [`MainResult::state_snapshots`]
    /// (runpack time-travel audit). Capture is read-only — it draws no
    /// RNG — so toggling this never changes a run's outcome, but it
    /// *is* part of a recorded run's identity, so it serializes.
    #[serde(default)]
    pub snapshots: bool,
}

impl MainConfig {
    /// Full paper configuration.
    pub fn paper() -> Self {
        MainConfig {
            seed: DEFAULT_SEED,
            volume_scale: 1.0,
            horizon: SimDuration::from_days(14),
            upgrade: None,
            faults: FaultInjector::none(),
            obs: ObsSink::Null,
            snapshots: false,
        }
    }

    /// Reduced-traffic configuration for tests.
    pub fn fast() -> Self {
        MainConfig {
            volume_scale: 0.0,
            ..Self::paper()
        }
    }
}

/// One arm of the main experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Arm {
    /// Reporting target.
    pub engine: EngineId,
    /// Payload brand.
    pub brand: Brand,
    /// Evasion technique.
    pub technique: EvasionTechnique,
    /// The deployed phishing URL.
    pub url: Url,
    /// The report's outcome.
    pub outcome: ReportOutcome,
}

/// The main experiment's full output.
#[derive(Debug)]
pub struct MainResult {
    /// Table 2.
    pub table: Table2,
    /// Every arm with its deployment and outcome.
    pub arms: Vec<Arm>,
    /// Deployments (probes alive for log analysis).
    pub deployments: Vec<Deployment>,
    /// Blacklist appearances as monitored.
    pub observations: Vec<Observation>,
    /// Mean fraction of a URL's traffic arriving within two hours of
    /// its report (paper: ~90 %).
    pub traffic_within_2h: f64,
    /// The feed network after the run.
    pub feeds: FeedNetwork,
    /// The world (trace log etc.).
    pub world: World,
    /// The render cache and verdict store every engine of the run
    /// shared, with their hit/miss counters. Always `Some`.
    pub run_caches: Option<RunCaches>,
    /// Timestamped layer-state snapshots, captured only when
    /// [`MainConfig::snapshots`] is set; sorted by `(at, layer)`.
    pub state_snapshots: Vec<StateSnapshot>,
}

/// The paper's assignment: 3 URLs per (engine, brand, technique) cell,
/// except SmartScreen×Facebook which got 2 — 105 URLs in total.
pub fn assignment() -> Vec<(EngineId, Brand, EvasionTechnique, usize)> {
    let mut cells = Vec::new();
    for engine in EngineId::main_experiment() {
        for brand in [Brand::Facebook, Brand::PayPal] {
            for technique in EvasionTechnique::main_experiment() {
                let n = if engine == EngineId::SmartScreen && brand == Brand::Facebook {
                    2
                } else {
                    3
                };
                cells.push((engine, brand, technique, n));
            }
        }
    }
    cells
}

/// Render a snapshot value as compact JSON text.
fn json_string(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("snapshot value serializes")
}

/// Run the main experiment.
pub fn run_main_experiment(config: &MainConfig) -> MainResult {
    let mut world = World::new(config.seed)
        .with_faults(config.faults.clone())
        .with_obs(config.obs.clone());
    let mut feeds = FeedNetwork::paper_topology(&world.rng);

    let cells = assignment();
    let total_urls: usize = cells.iter().map(|(_, _, _, n)| n).sum();
    debug_assert_eq!(total_urls, 105);

    // Register all domains spread over the two weeks *before* the
    // reporting window, then deploy.
    let domains = synth_domains(&world.rng, &world.registry, total_urls, "main");
    let reg_rng = world.rng.fork("main-registration");
    register_spread(
        &mut world.registry,
        &domains,
        SimTime::ZERO,
        SimDuration::from_days(14),
        &reg_rng,
    );
    let deploy_at = SimTime::ZERO + SimDuration::from_days(14);

    // One cache pair for the whole run: all six engines share renders
    // and verdicts (both pure in their keys).
    let run_caches = RunCaches::fresh();

    // Deploy one armed site per URL and report it.
    let mut engines: std::collections::BTreeMap<EngineId, Engine> = EngineId::main_experiment()
        .into_iter()
        .map(|id| {
            let profile = match &config.upgrade {
                Some(up) => EngineProfile::of(id).upgraded(up),
                None => EngineProfile::of(id),
            };
            let engine = Engine::with_profile(profile, &world.rng)
                .with_captcha_provider(world.captcha.clone())
                .with_obs(config.obs.clone())
                .with_run_caches(&run_caches);
            (id, engine)
        })
        .collect();

    let mut report_rng = world.rng.fork("main-report-times");
    let mut state_snapshots: Vec<StateSnapshot> = Vec::new();
    let mut arms = Vec::new();
    let mut deployments = Vec::new();
    let mut table = Table2::default();
    let mut all_urls = Vec::new();
    let mut gsb_alert_delays: Vec<f64> = Vec::new();
    let mut netcraft_session_delays: Vec<f64> = Vec::new();
    let mut domain_iter = domains.iter();
    let report_start = deploy_at + SimDuration::from_days(7); // sites online a week first

    for (engine_id, brand, technique, n) in cells {
        for _ in 0..n {
            let domain = domain_iter.next().expect("enough domains").clone();
            let deployment = deploy_armed_site(&mut world, &domain, brand, technique, deploy_at);
            let url = deployment.url.clone();
            // Reports spread across the two-week window.
            let reported_at =
                report_start + SimDuration::from_mins(report_rng.range(0..(12 * 24 * 60) as u64));
            world.log.record(TraceEvent {
                at: reported_at,
                kind: TraceKind::Report,
                src: Ipv4Sim::new(192, 0, 2, 1),
                host: url.host.clone(),
                path: url.target(),
                user_agent: None,
                actor: engine_id.key().to_string(),
            });
            let engine = engines.get_mut(&engine_id).expect("engine exists");
            let outcome = engine.process_report(&mut world, &url, reported_at, config.volume_scale);
            if config.snapshots {
                state_snapshots.push(StateSnapshot {
                    at: reported_at,
                    layer: format!("antiphish.engine.{}", engine_id.key()),
                    state: json_string(&engine.snapshot()),
                });
            }
            // Per-technique phase timings: how long each pipeline phase
            // took in simulated time, keyed by the arm's technique.
            config.obs.observe(
                &format!("phase.intake.{technique}"),
                outcome.first_visit_at.since(reported_at).as_mins(),
            );
            if let Some(at) = outcome.detected_at {
                config.obs.observe(
                    &format!("phase.detect.{technique}"),
                    at.since(reported_at).as_mins(),
                );
            }
            let detected = outcome.detected_at.is_some();
            if let Some(at) = outcome.detected_at {
                feeds.publish(engine_id, &url, at);
                let delay_mins = at.since(reported_at).as_mins_f64();
                if engine_id == EngineId::Gsb && technique == EvasionTechnique::AlertBox {
                    gsb_alert_delays.push(delay_mins);
                }
                if engine_id == EngineId::NetCraft && technique == EvasionTechnique::SessionGate {
                    netcraft_session_delays.push(delay_mins);
                }
            }
            table.record(engine_id, brand, technique, detected);
            all_urls.push(url.clone());
            arms.push(Arm {
                engine: engine_id,
                brand,
                technique,
                url,
                outcome,
            });
            deployments.push(deployment);
        }
    }

    if !gsb_alert_delays.is_empty() {
        table.gsb_alert_mean_mins =
            Some(gsb_alert_delays.iter().sum::<f64>() / gsb_alert_delays.len() as f64);
    }
    netcraft_session_delays.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    table.netcraft_session_delays_mins = netcraft_session_delays;

    // Monitor for the full horizon.
    let horizon = report_start + config.horizon;
    let observations = monitor_listings(&feeds, &all_urls, deploy_at, horizon, &world.log);

    // End-of-run state capture: the final picture of every engine plus
    // the world's shared services, timestamped at the horizon so a
    // `runpack seek` past the last report still lands on fresh state.
    if config.snapshots {
        for (engine_id, engine) in &engines {
            state_snapshots.push(StateSnapshot {
                at: horizon,
                layer: format!("antiphish.engine.{}", engine_id.key()),
                state: json_string(&engine.snapshot()),
            });
        }
        state_snapshots.push(StateSnapshot {
            at: horizon,
            layer: "core.world".to_string(),
            state: json_string(&world.snapshot()),
        });
        state_snapshots.sort_by(|a, b| (a.at, &a.layer).cmp(&(b.at, &b.layer)));
    }

    // Traffic-timing analysis: fraction of each URL's host traffic
    // within 2 h of its report, all arms in one pass over the log.
    let queries: Vec<(&str, SimTime)> = arms
        .iter()
        .map(|arm| (arm.url.host.as_str(), arm.outcome.reported_at))
        .collect();
    let fractions = world
        .log
        .fractions_within(&queries, SimDuration::from_hours(2));
    let traffic_within_2h = if fractions.is_empty() {
        0.0
    } else {
        fractions.iter().sum::<f64>() / fractions.len() as f64
    };

    MainResult {
        table,
        arms,
        deployments,
        observations,
        traffic_within_2h,
        feeds,
        world,
        run_caches: Some(run_caches),
        state_snapshots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> MainResult {
        run_main_experiment(&MainConfig::fast())
    }

    #[test]
    fn assignment_is_105_urls() {
        let total: usize = assignment().iter().map(|(_, _, _, n)| n).sum();
        assert_eq!(total, 105);
        // SmartScreen gets 15, everyone else 18.
        let per_engine = |id: EngineId| -> usize {
            assignment()
                .iter()
                .filter(|(e, _, _, _)| *e == id)
                .map(|(_, _, _, n)| n)
                .sum()
        };
        assert_eq!(per_engine(EngineId::SmartScreen), 15);
        assert_eq!(per_engine(EngineId::Gsb), 18);
    }

    #[test]
    fn gsb_detects_all_alert_box_urls() {
        let r = result();
        assert_eq!(
            r.table
                .cell(EngineId::Gsb, Brand::Facebook, EvasionTechnique::AlertBox)
                .as_cell(),
            "3/3"
        );
        assert_eq!(
            r.table
                .cell(EngineId::Gsb, Brand::PayPal, EvasionTechnique::AlertBox)
                .as_cell(),
            "3/3"
        );
    }

    #[test]
    fn gsb_alert_mean_near_132_minutes() {
        let r = result();
        let mean = r.table.gsb_alert_mean_mins.expect("six detections");
        assert!(
            (100.0..180.0).contains(&mean),
            "GSB alert mean {mean:.0} min should be near the paper's 132"
        );
    }

    #[test]
    fn captcha_defeats_every_engine() {
        let r = result();
        for engine in EngineId::main_experiment() {
            for brand in [Brand::Facebook, Brand::PayPal] {
                let cell = r.table.cell(engine, brand, EvasionTechnique::CaptchaGate);
                assert_eq!(
                    cell.hits, 0,
                    "{engine}/{brand} reCAPTCHA must be undetected"
                );
            }
        }
    }

    #[test]
    fn netcraft_is_the_only_session_detector() {
        let r = result();
        let mut netcraft_hits = 0;
        for engine in EngineId::main_experiment() {
            for brand in [Brand::Facebook, Brand::PayPal] {
                let cell = r.table.cell(engine, brand, EvasionTechnique::SessionGate);
                if engine == EngineId::NetCraft {
                    netcraft_hits += cell.hits;
                } else {
                    assert_eq!(cell.hits, 0, "{engine} must not detect session gates");
                }
            }
        }
        assert!(
            (1..=3).contains(&netcraft_hits),
            "NetCraft session hits {netcraft_hits} should be near the paper's 2"
        );
    }

    #[test]
    fn netcraft_reaches_all_session_payloads() {
        let r = result();
        for arm in &r.arms {
            if arm.engine == EngineId::NetCraft && arm.technique == EvasionTechnique::SessionGate {
                assert!(
                    arm.outcome.payload_reached,
                    "NetCraft bypassed all six session pages in the paper"
                );
            }
        }
    }

    #[test]
    fn default_seed_reproduces_table2_exactly() {
        let r = result();
        // The paper's Table 2, cell by cell.
        let expect = |e: EngineId, b: Brand, t: EvasionTechnique, cell: &str| {
            assert_eq!(
                r.table.cell(e, b, t).as_cell(),
                cell,
                "{e}/{b}/{t} mismatch"
            );
        };
        use EvasionTechnique::*;
        expect(EngineId::Gsb, Brand::Facebook, AlertBox, "3/3");
        expect(EngineId::Gsb, Brand::Facebook, SessionGate, "0/3");
        expect(EngineId::Gsb, Brand::Facebook, CaptchaGate, "0/3");
        expect(EngineId::Gsb, Brand::PayPal, AlertBox, "3/3");
        expect(EngineId::Gsb, Brand::PayPal, SessionGate, "0/3");
        expect(EngineId::Gsb, Brand::PayPal, CaptchaGate, "0/3");
        expect(EngineId::NetCraft, Brand::Facebook, AlertBox, "0/3");
        expect(EngineId::NetCraft, Brand::Facebook, SessionGate, "2/3");
        expect(EngineId::NetCraft, Brand::Facebook, CaptchaGate, "0/3");
        expect(EngineId::NetCraft, Brand::PayPal, AlertBox, "0/3");
        expect(EngineId::NetCraft, Brand::PayPal, SessionGate, "0/3");
        expect(EngineId::NetCraft, Brand::PayPal, CaptchaGate, "0/3");
        for e in [EngineId::Apwg, EngineId::OpenPhish, EngineId::PhishTank] {
            for b in [Brand::Facebook, Brand::PayPal] {
                for t in [AlertBox, SessionGate, CaptchaGate] {
                    expect(e, b, t, "0/3");
                }
            }
        }
        for t in [AlertBox, SessionGate, CaptchaGate] {
            expect(EngineId::SmartScreen, Brand::Facebook, t, "0/2");
            expect(EngineId::SmartScreen, Brand::PayPal, t, "0/3");
        }
        assert_eq!(r.table.total.as_cell(), "8/105");
        assert_eq!(r.table.netcraft_session_delays_mins.len(), 2);
    }

    #[test]
    fn netcraft_session_detections_are_fast() {
        let r = result();
        for d in &r.table.netcraft_session_delays_mins {
            assert!(
                *d <= 30.0,
                "NetCraft session detections were minutes-scale (paper: 6 and 9): got {d:.0}"
            );
        }
    }

    #[test]
    fn observations_cover_all_detections() {
        let r = result();
        let detected: usize = r
            .arms
            .iter()
            .filter(|a| a.outcome.detected_at.is_some())
            .count();
        // Observations include propagation listings, so at least the
        // primary detections must be observed.
        assert!(r.observations.len() >= detected);
        assert_eq!(detected, 8);
    }
}
