//! Fleet-vs-serial verdict parity.
//!
//! The crawl fleet adds sharded queues, work stealing, per-farm rate
//! limiting, egress rotation and lease supervision; none of them may
//! change a verdict. The fleet crawls each report through
//! [`Engine::process_report_keyed`], whose outcome is a pure function of
//! the engine seed, the report index, the URL and the dispatch time, and
//! on an unloaded fleet every report dispatches the instant it arrives.
//! So a serial loop over the same reports, with the same indices, times
//! and egress rotation, must reach byte-equal outcomes — for the six
//! engines of the main experiment against every brand behind every
//! evasion technique, CAPTCHA gates included, and for every engine, YSB
//! too, against the naked payloads. Any scheduler-induced divergence
//! (queueing, a throttle, a stolen report, a supervision bug re-crawling
//! a committed report) breaks the equality.

use parking_lot::Mutex;
use phishsim_antiphish::fleet::{EgressPool, SupervisorConfig};
use phishsim_antiphish::{run_fleet, Engine, EngineId, FleetConfig, ReportArrival};
use phishsim_browser::transport::DirectTransport;
use phishsim_captcha::CaptchaProvider;
use phishsim_http::{hosting_shard, Url, VirtualHosting};
use phishsim_phishgen::{
    Brand, CompromisedSite, EvasionTechnique, FakeSiteGenerator, GateConfig, PhishKit,
};
use phishsim_simnet::{DetRng, Ipv4Sim, ObsSink, SimDuration, SimTime};
use serde::Serialize;
use std::sync::Arc;

const SEED: u64 = 17;

const BRANDS: [Brand; 3] = [Brand::PayPal, Brand::Facebook, Brand::Gmail];

const TECHNIQUES: [EvasionTechnique; 5] = [
    EvasionTechnique::None,
    EvasionTechnique::AlertBox,
    EvasionTechnique::SessionGate,
    EvasionTechnique::CaptchaGate,
    EvasionTechnique::Cloaking,
];

/// One deployed phishing URL and what sits behind it.
struct Target {
    url: Url,
    brand: Brand,
    technique: EvasionTechnique,
}

/// One report's verdict, shaped identically by both paths: the
/// byte-compared unit.
#[derive(Serialize)]
struct Verdict {
    engine: EngineId,
    brand: Brand,
    technique: EvasionTechnique,
    idx: u32,
    dispatched_at: SimTime,
    detected_at: Option<SimTime>,
    requests_made: u64,
}

/// Every brand behind each of `techniques`, one host each, with the
/// CAPTCHA provider the gates registered with. Built once per path, so
/// both paths crawl identical sites.
fn deploy(
    techniques: &[EvasionTechnique],
) -> (DirectTransport, Arc<Mutex<CaptchaProvider>>, Vec<Target>) {
    let rng = DetRng::new(SEED);
    let captcha = Arc::new(Mutex::new(CaptchaProvider::new(&rng.fork("captcha"))));
    let mut vhosts = VirtualHosting::new();
    let mut targets = Vec::new();
    for brand in BRANDS {
        for &technique in techniques {
            let host = format!("parity-{}.com", targets.len());
            let gate = match technique {
                EvasionTechnique::CaptchaGate => GateConfig::captcha_gate(&captcha),
                EvasionTechnique::Cloaking => GateConfig::cloaking(Vec::new()),
                t => GateConfig::simple(t),
            };
            let site_rng = rng.fork(&format!("site:{host}"));
            let bundle = FakeSiteGenerator::new(&site_rng).generate(&host);
            let kit = PhishKit::new(brand, gate);
            targets.push(Target {
                url: kit.phishing_url(&host),
                brand,
                technique,
            });
            vhosts.install(
                &host,
                Box::new(CompromisedSite::new(bundle, kit, &site_rng)),
            );
        }
    }
    (DirectTransport::new(vhosts), captcha, targets)
}

/// The `k`-th engine's reports: every URL once, ten minutes apart — far
/// longer than a crawl occupies a worker, so the fleet stays unloaded.
fn arrivals(targets: &[Target], k: usize) -> Vec<ReportArrival> {
    targets
        .iter()
        .enumerate()
        .map(|(i, target)| ReportArrival {
            url: target.url.clone(),
            at: SimTime::from_hours(1)
                + SimDuration::from_mins(10 * (k * targets.len() + i) as u64),
            feed: "parity".into(),
            reputation: 500,
        })
        .collect()
}

fn engine(id: EngineId, captcha: &Arc<Mutex<CaptchaProvider>>) -> Engine {
    Engine::new(id, &DetRng::new(SEED)).with_captcha_provider(Arc::clone(captcha))
}

fn fleet_rng(id: EngineId) -> DetRng {
    DetRng::new(SEED).fork(&format!("fleet:{}", id.key()))
}

/// Verdicts of a fleet run, with the heartbeats its supervisor counted.
struct FleetRun {
    verdicts: Vec<Verdict>,
    heartbeats: u64,
}

/// Each engine's reports through its own fleet, in engine then report
/// order. Every report must be crawled once, dispatched on arrival, and
/// no worker may restart or lose its lease.
fn through_fleet(
    engines: &[EngineId],
    techniques: &[EvasionTechnique],
    cfg: &FleetConfig,
) -> FleetRun {
    let (mut t, captcha, targets) = deploy(techniques);
    let mut run = FleetRun {
        verdicts: Vec::new(),
        heartbeats: 0,
    };
    for (k, &id) in engines.iter().enumerate() {
        let arrivals = arrivals(&targets, k);
        let r = run_fleet(
            &mut engine(id, &captcha),
            &mut t,
            cfg,
            &arrivals,
            &fleet_rng(id),
            &ObsSink::Null,
        );
        assert_eq!(r.outcomes.len(), arrivals.len(), "{id}");
        assert_eq!(r.duplicate_crawls, 0, "{id}");
        assert_eq!(r.counters.get("fleet.restarts"), 0, "{id}");
        assert_eq!(r.counters.get("fleet.lease_revoked"), 0, "{id}");
        run.heartbeats += r.counters.get("fleet.heartbeats");
        let mut outcomes = r.outcomes;
        outcomes.sort_by_key(|o| o.idx);
        for o in outcomes {
            assert_eq!(o.dispatched_at, o.arrived_at, "{id} report {}", o.idx);
            let target = &targets[o.idx as usize];
            run.verdicts.push(Verdict {
                engine: id,
                brand: target.brand,
                technique: target.technique,
                idx: o.idx,
                dispatched_at: o.dispatched_at,
                detected_at: o.detected_at,
                requests_made: o.requests_made,
            });
        }
    }
    run
}

/// The same reports through a serial loop of
/// [`Engine::process_report_keyed`], with the report indices, times and
/// egress rotation an unloaded fleet would use: no scheduler in the loop.
fn through_serial_loop(
    engines: &[EngineId],
    techniques: &[EvasionTechnique],
    cfg: &FleetConfig,
) -> Vec<Verdict> {
    let (mut t, captcha, targets) = deploy(techniques);
    let mut verdicts = Vec::new();
    for (k, &id) in engines.iter().enumerate() {
        let mut engine = engine(id, &captcha);
        let mut egress = EgressPool::allocate(
            Ipv4Sim::new(203, 0, 0, 0),
            cfg.egress_identities,
            cfg.egress_per_report,
            cfg.rotation,
            &mut fleet_rng(id).fork("fleet-egress"),
        );
        for (i, a) in arrivals(&targets, k).iter().enumerate() {
            // An unloaded fleet hands each report to its home shard's
            // owner.
            let worker = hosting_shard(&a.url.host, cfg.workers);
            egress.fill_pool(worker, a.at, engine.crawl_pool_mut());
            let o = engine.process_report_keyed(&mut t, &a.url, a.at, cfg.volume_scale, i);
            verdicts.push(Verdict {
                engine: id,
                brand: targets[i].brand,
                technique: targets[i].technique,
                idx: i as u32,
                dispatched_at: a.at,
                detected_at: o.detected_at,
                requests_made: o.requests_made,
            });
        }
    }
    verdicts
}

fn json(verdicts: &[Verdict]) -> String {
    serde_json::to_string(verdicts).expect("verdicts serialize")
}

#[test]
fn fleet_verdicts_match_single_engine_path_byte_for_byte() {
    let cfg = FleetConfig::default();
    let engines = EngineId::main_experiment();
    let fleet = through_fleet(&engines, &TECHNIQUES, &cfg);
    assert_eq!(fleet.verdicts.len(), engines.len() * 15);
    assert_eq!(
        json(&fleet.verdicts),
        json(&through_serial_loop(&engines, &TECHNIQUES, &cfg)),
        "the fleet scheduler must not change any verdict"
    );
}

#[test]
fn supervision_changes_no_verdict() {
    let engines = EngineId::main_experiment();
    let relaxed = through_fleet(&engines, &TECHNIQUES, &FleetConfig::default());
    // A 2 ms lease against crawls of at least 4 s: the supervisor beats
    // all through every crawl, and a bug that revoked a healthy lease
    // would re-crawl the report.
    let tight = through_fleet(
        &engines,
        &TECHNIQUES,
        &FleetConfig {
            supervisor: SupervisorConfig {
                heartbeat_every: SimDuration::from_millis(1),
                lease_timeout: SimDuration::from_millis(2),
                ..SupervisorConfig::default()
            },
            ..FleetConfig::default()
        },
    );
    assert!(
        tight.heartbeats > relaxed.heartbeats,
        "the tight lease must beat more: {} against {}",
        tight.heartbeats,
        relaxed.heartbeats
    );
    assert_eq!(
        json(&relaxed.verdicts),
        json(&tight.verdicts),
        "a fault-free supervisor must be invisible in the verdict stream"
    );
}

#[test]
fn preliminary_set_matches_too() {
    let cfg = FleetConfig::default();
    let engines = EngineId::all();
    let naked = [EvasionTechnique::None];
    let fleet = through_fleet(&engines, &naked, &cfg);
    assert_eq!(fleet.verdicts.len(), engines.len() * BRANDS.len());
    assert_eq!(
        json(&fleet.verdicts),
        json(&through_serial_loop(&engines, &naked, &cfg))
    );
    assert!(
        fleet.verdicts.iter().any(|v| v.detected_at.is_some()),
        "naked payloads must be detectable through the fleet"
    );
}

#[test]
fn fleet_table_preserves_the_capability_structure() {
    let fleet = through_fleet(
        &EngineId::main_experiment(),
        &TECHNIQUES,
        &FleetConfig::default(),
    );
    for v in &fleet.verdicts {
        match (v.engine, v.technique) {
            (EngineId::Gsb, EvasionTechnique::AlertBox) => assert!(
                v.detected_at.is_some(),
                "GSB dismisses the {:?} alert box regardless of the scheduler",
                v.brand
            ),
            (engine, EvasionTechnique::CaptchaGate) => assert!(
                v.detected_at.is_none(),
                "reCAPTCHA must hold against {engine} through the fleet"
            ),
            _ => {}
        }
    }
}
