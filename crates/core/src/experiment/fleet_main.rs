//! The fleet-backed Table 1 / Table 2 runner.
//!
//! The paper's experiments drive each engine serially: one report at a
//! time through [`Engine::process_report`]. The crawl fleet
//! (`phishsim_antiphish::fleet`) adds sharded queues, work stealing,
//! per-farm rate limiting, egress rotation, and (since the chaos PR)
//! lease-based supervision — none of which may change a verdict. This
//! module re-runs the paper's report sets *through the fleet
//! scheduler* and exposes a serial single-engine baseline over the
//! same world, so tests can assert the two paths produce byte-identical
//! verdict streams — with and without supervision.
//!
//! Parity holds because the fleet crawls each report via
//! [`Engine::process_report_keyed`] (outcome a pure function of the
//! engine seed, the `r{idx}` key, the URL, and the dispatch time) and
//! the paper-scale report sets leave the fleet unloaded, so every
//! report dispatches the instant it arrives: `dispatched_at ==
//! arrived_at`, no stealing, no throttling. The baseline replays the
//! same keys at the same times with the same egress rotation — any
//! scheduler-induced divergence (queueing, a throttle, a stolen
//! report, a supervision bug re-crawling a committed report) breaks
//! byte equality.

use crate::deploy::deploy_armed_site;
use crate::experiment::main_experiment::assignment;
use crate::experiment::{register_spread, synth_domains};
use crate::tables::Table2;
use crate::world::{World, DEFAULT_SEED};
use phishsim_antiphish::fleet::{
    run_fleet, EgressPool, FleetConfig, ReportArrival, SupervisorConfig,
};
use phishsim_antiphish::{Engine, EngineId};
use phishsim_http::{hosting_shard, Url};
use phishsim_phishgen::{
    Brand, CompromisedSite, EvasionTechnique, FakeSiteGenerator, GateConfig, PhishKit,
};
use phishsim_simnet::{Ipv4Sim, ObsSink, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Which report set the fleet replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetMainTable {
    /// Table 1's shape: naked Gmail / Facebook / PayPal payloads, one
    /// fresh host per engine, all engines.
    Preliminary,
    /// Table 2's shape: the 105-arm armed assignment over the six
    /// main-experiment engines.
    Main,
}

/// Configuration of a fleet-backed table run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetMainConfig {
    /// Experiment seed.
    pub seed: u64,
    /// Background-traffic scale.
    pub volume_scale: f64,
    /// The report set replayed through the fleet.
    pub table: FleetMainTable,
    /// Run the fleet under a fault-free supervisor (leases, heartbeats,
    /// commit protocol) instead of the legacy unsupervised path.
    pub supervised: bool,
    /// Fleet template shared by every engine's run.
    pub fleet: FleetConfig,
}

impl FleetMainConfig {
    /// Table 2 through an unsupervised fleet, no background traffic.
    pub fn fast() -> Self {
        FleetMainConfig {
            seed: DEFAULT_SEED,
            volume_scale: 0.0,
            table: FleetMainTable::Main,
            supervised: false,
            fleet: FleetConfig {
                volume_scale: 0.0,
                ..FleetConfig::default()
            },
        }
    }
}

/// One report's identity and verdict, shaped identically by the fleet
/// path and the serial baseline — the byte-compared unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArmOutcome {
    /// Reporting target.
    pub engine: EngineId,
    /// Payload brand.
    pub brand: Brand,
    /// Evasion technique (`None` in the preliminary set).
    pub technique: EvasionTechnique,
    /// The deployed phishing URL.
    pub url: Url,
    /// When the report arrived at intake.
    pub arrived_at: SimTime,
    /// When its crawl was dispatched (must equal `arrived_at` on an
    /// unloaded fleet — part of the byte comparison).
    pub dispatched_at: SimTime,
    /// Blacklist-publication time, if detected.
    pub detected_at: Option<SimTime>,
    /// Requests the crawl made.
    pub requests_made: u64,
}

/// A fleet-backed table run's output.
#[derive(Debug)]
pub struct FleetMainResult {
    /// Every arm's verdict, in per-engine arrival order.
    pub arms: Vec<ArmOutcome>,
    /// Detection grid (meaningful for [`FleetMainTable::Main`]).
    pub table: Table2,
    /// Detected arms.
    pub detections: usize,
    /// Crawls beyond the first per report, summed over engines (must
    /// stay 0 on a fault-free fleet).
    pub duplicate_crawls: u64,
    /// Worker restarts, summed over engines (0 without faults).
    pub restarts: u64,
}

/// One report to be filed: deployment identity plus its report time.
#[derive(Debug, Clone)]
struct ArmSpec {
    brand: Brand,
    technique: EvasionTechnique,
    url: Url,
    reported_at: SimTime,
}

/// Build the world and the per-engine report sets for `cfg.table`,
/// deterministically from `cfg.seed`. Called once per path so the
/// fleet run and the serial baseline crawl identical worlds.
fn build_world(cfg: &FleetMainConfig) -> (World, Vec<(EngineId, Vec<ArmSpec>)>) {
    match cfg.table {
        FleetMainTable::Main => build_main_world(cfg),
        FleetMainTable::Preliminary => build_preliminary_world(cfg),
    }
}

/// The 105-arm armed deployment, mirroring the main experiment's
/// registration spread and deploy schedule.
fn build_main_world(cfg: &FleetMainConfig) -> (World, Vec<(EngineId, Vec<ArmSpec>)>) {
    let mut world = World::new(cfg.seed);
    let cells = assignment();
    let total_urls: usize = cells.iter().map(|(_, _, _, n)| n).sum();
    let domains = synth_domains(&world.rng, &world.registry, total_urls, "fleet-main");
    let reg_rng = world.rng.fork("fleet-main-registration");
    register_spread(
        &mut world.registry,
        &domains,
        SimTime::ZERO,
        SimDuration::from_days(14),
        &reg_rng,
    );
    let deploy_at = SimTime::ZERO + SimDuration::from_days(14);
    let report_start = deploy_at + SimDuration::from_days(7);
    // Millisecond-granularity spread: report times never collide, so
    // the unloaded-fleet precondition (instant dispatch) holds.
    let mut report_rng = world.rng.fork("fleet-main-report-times");
    let window_ms = SimDuration::from_days(12).as_millis();

    let mut per_engine: Vec<(EngineId, Vec<ArmSpec>)> = EngineId::main_experiment()
        .into_iter()
        .map(|id| (id, Vec::new()))
        .collect();
    let mut domain_iter = domains.iter();
    for (engine_id, brand, technique, n) in cells {
        for _ in 0..n {
            let domain = domain_iter.next().expect("enough domains").clone();
            let deployment = deploy_armed_site(&mut world, &domain, brand, technique, deploy_at);
            let reported_at =
                report_start + SimDuration::from_millis(report_rng.range(0..window_ms));
            let arms = &mut per_engine
                .iter_mut()
                .find(|(id, _)| *id == engine_id)
                .expect("engine in set")
                .1;
            arms.push(ArmSpec {
                brand,
                technique,
                url: deployment.url,
                reported_at,
            });
        }
    }
    sort_arms(&mut per_engine);
    (world, per_engine)
}

/// The naked three-brand deployment, mirroring the preliminary test's
/// one-fresh-host-per-engine layout. Reports are spaced five minutes
/// apart (all three URLs share a host, hence a queue shard — spacing
/// keeps the fleet unloaded).
fn build_preliminary_world(cfg: &FleetMainConfig) -> (World, Vec<(EngineId, Vec<ArmSpec>)>) {
    const BRANDS: [(Brand, &str); 3] = [
        (Brand::Gmail, "/secure/gmail.php"),
        (Brand::Facebook, "/secure/facebook.php"),
        (Brand::PayPal, "/secure/paypal.php"),
    ];
    let mut world = World::new(cfg.seed);
    let engine_ids = EngineId::all();
    let domains = synth_domains(
        &world.rng,
        &world.registry,
        engine_ids.len(),
        "fleet-preliminary",
    );
    let mut report_rng = world.rng.fork("fleet-preliminary-report-times");
    let mut per_engine = Vec::new();
    for (i, id) in engine_ids.iter().enumerate() {
        let domain = &domains[i];
        world
            .registry
            .register(
                domain.clone(),
                "ovh",
                SimTime::ZERO,
                SimDuration::from_days(365),
            )
            .expect("fresh preliminary domain");
        let host = domain.to_string();
        let bundle = FakeSiteGenerator::new(&world.rng).generate(&host);
        let kits: Vec<PhishKit> = BRANDS
            .iter()
            .map(|(brand, path)| {
                PhishKit::at_path(*brand, GateConfig::simple(EvasionTechnique::None), path)
            })
            .collect();
        let urls: Vec<Url> = kits.iter().map(|k| k.phishing_url(&host)).collect();
        let site = CompromisedSite::new_multi(bundle, kits, &world.rng);
        let cert = world.ca.issue(&host, SimTime::ZERO);
        let addr = world.farm.install_site(&host, Box::new(site), Some(cert));
        world
            .registry
            .delegate(
                domain,
                phishsim_dns::Zone::hosting(domain.clone(), addr, 1, true),
                SimTime::ZERO,
            )
            .expect("registered above");
        let arms = BRANDS
            .iter()
            .zip(urls)
            .enumerate()
            .map(|(j, ((brand, _), url))| ArmSpec {
                brand: *brand,
                technique: EvasionTechnique::None,
                url,
                reported_at: SimTime::from_hours(1)
                    + SimDuration::from_mins(j as u64 * 5)
                    + SimDuration::from_millis(report_rng.range(0..60_000u64)),
            })
            .collect();
        per_engine.push((*id, arms));
    }
    sort_arms(&mut per_engine);
    (world, per_engine)
}

/// Sort each engine's arms by report time (then URL): arrival order is
/// dispatch order on an unloaded fleet, and the `r{idx}` keys must
/// agree between the fleet and the baseline.
fn sort_arms(per_engine: &mut [(EngineId, Vec<ArmSpec>)]) {
    for (_, arms) in per_engine.iter_mut() {
        arms.sort_by(|a, b| {
            (a.reported_at, a.url.target(), &a.url.host).cmp(&(
                b.reported_at,
                b.url.target(),
                &b.url.host,
            ))
        });
    }
}

/// The engine an arm set reports to, constructed identically on both
/// paths.
fn build_engine(id: EngineId, world: &World) -> Engine {
    Engine::new(id, &world.rng).with_captcha_provider(world.captcha.clone())
}

fn arrivals_of(arms: &[ArmSpec]) -> Vec<ReportArrival> {
    arms.iter()
        .map(|a| ReportArrival {
            url: a.url.clone(),
            at: a.reported_at,
            feed: "fleet-report".to_string(),
            reputation: 500,
        })
        .collect()
}

/// Run the report sets through the fleet scheduler.
pub fn run_fleet_main(cfg: &FleetMainConfig) -> FleetMainResult {
    let (mut world, per_engine) = build_world(cfg);
    let mut arms_out = Vec::new();
    let mut table = Table2::default();
    let mut duplicate_crawls = 0;
    let mut restarts = 0;
    for (id, arms) in &per_engine {
        let mut engine = build_engine(*id, &world);
        let arrivals = arrivals_of(arms);
        let mut fleet_cfg = FleetConfig {
            volume_scale: cfg.volume_scale,
            ..cfg.fleet.clone()
        };
        if cfg.supervised {
            fleet_cfg = fleet_cfg.with_supervisor(SupervisorConfig::default());
        }
        let fleet_rng = world.rng.fork(&format!("fleet-main:{}", id.key()));
        let r = run_fleet(
            &mut engine,
            &mut world,
            &fleet_cfg,
            &arrivals,
            &fleet_rng,
            &ObsSink::Null,
        );
        duplicate_crawls += r.duplicate_crawls;
        restarts += r.counters.get("fleet.restarts");
        let mut by_idx: Vec<Option<&phishsim_antiphish::fleet::FleetOutcome>> =
            vec![None; arrivals.len()];
        for o in &r.outcomes {
            by_idx[o.idx as usize] = Some(o);
        }
        for (i, arm) in arms.iter().enumerate() {
            let o = by_idx[i].expect("fault-free fleet completes every report");
            table.record(*id, arm.brand, arm.technique, o.detected_at.is_some());
            arms_out.push(ArmOutcome {
                engine: *id,
                brand: arm.brand,
                technique: arm.technique,
                url: arm.url.clone(),
                arrived_at: o.arrived_at,
                dispatched_at: o.dispatched_at,
                detected_at: o.detected_at,
                requests_made: o.requests_made,
            });
        }
    }
    let detections = arms_out.iter().filter(|a| a.detected_at.is_some()).count();
    FleetMainResult {
        arms: arms_out,
        table,
        detections,
        duplicate_crawls,
        restarts,
    }
}

/// The serial single-engine path over the same world: each engine
/// crawls its reports in arrival order via the same keyed RNG streams,
/// dispatch times, and egress rotation the unloaded fleet would use —
/// no scheduler in the loop.
pub fn run_single_engine_baseline(cfg: &FleetMainConfig) -> Vec<ArmOutcome> {
    let (mut world, per_engine) = build_world(cfg);
    let mut arms_out = Vec::new();
    for (id, arms) in &per_engine {
        let mut engine = build_engine(*id, &world);
        let fleet_rng = world.rng.fork(&format!("fleet-main:{}", id.key()));
        let mut egress_rng = fleet_rng.fork("fleet-egress");
        let mut egress = EgressPool::allocate(
            Ipv4Sim::new(203, 0, 0, 0),
            cfg.fleet.egress_identities,
            cfg.fleet.egress_per_report,
            cfg.fleet.rotation,
            &mut egress_rng,
        );
        for (i, arm) in arms.iter().enumerate() {
            let w = hosting_shard(&arm.url.host, cfg.fleet.workers);
            engine.set_crawl_pool(egress.pool_for(w, arm.reported_at));
            let outcome = engine.process_report_keyed(
                &mut world,
                &arm.url,
                arm.reported_at,
                cfg.volume_scale,
                i,
            );
            arms_out.push(ArmOutcome {
                engine: *id,
                brand: arm.brand,
                technique: arm.technique,
                url: arm.url.clone(),
                arrived_at: arm.reported_at,
                dispatched_at: arm.reported_at,
                detected_at: outcome.detected_at,
                requests_made: outcome.requests_made,
            });
        }
    }
    arms_out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(arms: &[ArmOutcome]) -> String {
        serde_json::to_string(arms).expect("arm outcomes serialize")
    }

    #[test]
    fn fleet_verdicts_match_single_engine_path_byte_for_byte() {
        let cfg = FleetMainConfig::fast();
        let fleet = run_fleet_main(&cfg);
        let baseline = run_single_engine_baseline(&cfg);
        assert_eq!(fleet.arms.len(), 105);
        assert_eq!(
            json(&fleet.arms),
            json(&baseline),
            "the fleet scheduler must not change any Table 2 verdict"
        );
        assert_eq!(fleet.duplicate_crawls, 0);
        assert_eq!(fleet.restarts, 0);
    }

    #[test]
    fn supervision_changes_no_verdict() {
        let cfg = FleetMainConfig::fast();
        let unsupervised = run_fleet_main(&cfg);
        let supervised = run_fleet_main(&FleetMainConfig {
            supervised: true,
            ..cfg
        });
        assert_eq!(
            json(&unsupervised.arms),
            json(&supervised.arms),
            "a fault-free supervisor must be invisible in the verdict stream"
        );
        assert_eq!(supervised.restarts, 0);
    }

    #[test]
    fn preliminary_set_matches_too() {
        let cfg = FleetMainConfig {
            table: FleetMainTable::Preliminary,
            supervised: true,
            ..FleetMainConfig::fast()
        };
        let fleet = run_fleet_main(&cfg);
        let baseline = run_single_engine_baseline(&cfg);
        assert_eq!(fleet.arms.len(), EngineId::all().len() * 3);
        assert_eq!(json(&fleet.arms), json(&baseline));
        assert!(
            fleet.detections > 0,
            "naked payloads must be detectable through the fleet"
        );
    }

    #[test]
    fn fleet_table_preserves_the_capability_structure() {
        let fleet = run_fleet_main(&FleetMainConfig::fast());
        for brand in [Brand::Facebook, Brand::PayPal] {
            assert_eq!(
                fleet
                    .table
                    .cell(EngineId::Gsb, brand, EvasionTechnique::AlertBox)
                    .hits,
                3,
                "GSB dismisses alert boxes regardless of the scheduler"
            );
            for engine in EngineId::main_experiment() {
                assert_eq!(
                    fleet
                        .table
                        .cell(engine, brand, EvasionTechnique::CaptchaGate)
                        .hits,
                    0,
                    "reCAPTCHA must hold against {engine} through the fleet"
                );
            }
        }
    }
}
