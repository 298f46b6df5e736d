//! Fleet chaos: crash/restart fault injection vs supervised recovery.
//!
//! The paper's pipeline silently loses coverage when an individual
//! crawler dies mid-verification; production fleets face exactly that
//! (crawlers are detected and blocked per-instance). This experiment
//! drives the supervised crawl fleet
//! (`phishsim_antiphish::fleet::supervisor`) through a deterministic
//! worker-fault schedule and sweeps crash rate × restart delay × lease
//! timeout against a fault-free baseline point. Per point it charts
//! throughput retention, duplicate-crawl rate (work repeated because a
//! lease was revoked mid-crawl), recovery latency, and
//! time-to-blacklist inflation — and it accounts for every report:
//! `completed + poisoned` must equal the arrival count at every point.
//!
//! The sweep is byte-identical at any `PHISHSIM_SWEEP_THREADS`: fault
//! plans are pre-generated per point from the seed, each point is one
//! serial fleet simulation, and the merge is input-ordered.

use phishsim_antiphish::fleet::{run_fleet, FleetConfig, ReportArrival, SupervisorConfig};
use phishsim_antiphish::{Engine, EngineId};
use phishsim_browser::transport::DirectTransport;
use phishsim_http::{Url, VirtualHosting};
use phishsim_phishgen::{
    Brand, CompromisedSite, EvasionTechnique, FakeSiteGenerator, GateConfig, PhishKit,
};
use phishsim_simnet::runner::{run_sweep_with_threads, sweep_threads};
use phishsim_simnet::{
    DetRng, LogHistogram, ObsSink, SimDuration, SimTime, WorkerFault, WorkerFaultPlan,
};
use serde::{Deserialize, Serialize};

/// The feeds reporting into the fleet (reputation is irrelevant here —
/// the chaos sweep runs FIFO — but arrival shape mirrors `fleet_sweep`).
const FEEDS: [(&str, u16); 3] = [
    ("user-report", 120),
    ("honeypot", 380),
    ("partner-feed", 650),
];

/// Sweep configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetChaosConfig {
    /// Master seed (sites, arrival stream, engine, fault plans).
    pub seed: u64,
    /// The engine whose fleet is simulated.
    pub engine: EngineId,
    /// Distinct phishing sites deployed (reports cycle over them).
    pub sites: usize,
    /// Reports in the arrival stream.
    pub reports: usize,
    /// Span of the arrival stream in virtual time; also the horizon
    /// inside which worker faults are scheduled.
    pub window: SimDuration,
    /// Fleet size (fixed across the sweep — the swept axes are the
    /// fault and recovery knobs, not capacity).
    pub workers: usize,
    /// Per-worker crash probabilities to sweep (the fault-free
    /// baseline point is added implicitly; a listed `0.0` is skipped).
    pub crash_rates: Vec<f64>,
    /// Supervisor restart delays to sweep.
    pub restart_delays: Vec<SimDuration>,
    /// Lease timeouts to sweep.
    pub lease_timeouts: Vec<SimDuration>,
    /// Per-worker hang probability applied at every chaos point.
    pub hang_rate: f64,
    /// Per-worker graceful-restart probability applied at every chaos
    /// point.
    pub graceful_rate: f64,
    /// Base fleet template; `workers`, `worker_faults` and the
    /// supervisor's `lease_timeout` and `restart_delay` are overridden
    /// per point.
    pub fleet: FleetConfig,
}

impl FleetChaosConfig {
    /// Full-scale configuration: a 128-worker fleet under escalating
    /// crash rates, crossed with two restart delays and two lease
    /// timeouts.
    pub fn paper() -> Self {
        FleetChaosConfig {
            seed: 29,
            engine: EngineId::Gsb,
            sites: 96,
            reports: 6_000,
            window: SimDuration::from_mins(15),
            workers: 128,
            crash_rates: vec![0.01, 0.10, 0.50],
            restart_delays: vec![SimDuration::from_secs(10), SimDuration::from_secs(60)],
            lease_timeouts: vec![SimDuration::from_secs(30), SimDuration::from_secs(90)],
            hang_rate: 0.02,
            graceful_rate: 0.05,
            fleet: FleetConfig::default(),
        }
    }

    /// Reduced configuration for tests, CI smoke runs, and the
    /// committed replay pack.
    pub fn fast() -> Self {
        FleetChaosConfig {
            sites: 16,
            reports: 300,
            window: SimDuration::from_mins(4),
            workers: 8,
            crash_rates: vec![0.01, 0.50],
            restart_delays: vec![SimDuration::from_secs(10), SimDuration::from_secs(30)],
            lease_timeouts: vec![SimDuration::from_secs(30)],
            fleet: FleetConfig {
                workers: 8,
                shard_capacity: 16,
                egress_identities: 64,
                egress_per_report: 4,
                volume_scale: 0.0,
                ..FleetConfig::default()
            },
            ..Self::paper()
        }
    }
}

/// One cell of the chaos sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Per-worker crash probability (0 for the baseline).
    pub crash_rate: f64,
    /// Supervisor restart delay at this point.
    pub restart_delay: SimDuration,
    /// Lease timeout at this point.
    pub lease_timeout: SimDuration,
    /// The implicit fault-free reference point.
    pub baseline: bool,
}

/// The baseline point followed by the cross product of
/// `crash_rates` × `restart_delays` × `lease_timeouts`, in config
/// order — the sweep's job list.
pub fn chaos_points(cfg: &FleetChaosConfig) -> Vec<ChaosPoint> {
    let first_delay = cfg
        .restart_delays
        .first()
        .copied()
        .unwrap_or(SimDuration::from_secs(30));
    let first_lease = cfg
        .lease_timeouts
        .first()
        .copied()
        .unwrap_or(SimDuration::from_secs(45));
    let mut points = vec![ChaosPoint {
        crash_rate: 0.0,
        restart_delay: first_delay,
        lease_timeout: first_lease,
        baseline: true,
    }];
    for &crash_rate in cfg.crash_rates.iter().filter(|&&r| r > 0.0) {
        for &restart_delay in &cfg.restart_delays {
            for &lease_timeout in &cfg.lease_timeouts {
                points.push(ChaosPoint {
                    crash_rate,
                    restart_delay,
                    lease_timeout,
                    baseline: false,
                });
            }
        }
    }
    points
}

/// Everything measured at one chaos point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosPointReport {
    /// Per-worker crash probability.
    pub crash_rate: f64,
    /// Restart delay, seconds.
    pub restart_delay_secs: u64,
    /// Lease timeout, seconds.
    pub lease_timeout_secs: u64,
    /// Whether this is the fault-free baseline.
    pub baseline: bool,
    /// Reports in the arrival stream.
    pub arrivals: u64,
    /// Reports committed exactly once.
    pub completed: u64,
    /// Reports parked after exhausting the crawl budget.
    pub poisoned: u64,
    /// Reports neither committed nor parked — must be 0 everywhere.
    pub lost: u64,
    /// Crashes that hit a live worker.
    pub crashes: u64,
    /// Hangs that wedged a busy worker.
    pub hangs: u64,
    /// Graceful recycle requests.
    pub graceful: u64,
    /// Leases the supervisor revoked.
    pub leases_revoked: u64,
    /// Reports requeued after a revocation.
    pub requeued: u64,
    /// Worker restarts (crash recovery and graceful recycles).
    pub restarts: u64,
    /// Engine crawls beyond the first per report.
    pub duplicate_crawls: u64,
    /// `duplicate_crawls / completed` (0 when nothing completed).
    pub duplicate_crawl_rate: f64,
    /// Completed reports per simulated day over the makespan.
    pub sustained_per_day: f64,
    /// `sustained_per_day / baseline.sustained_per_day`.
    pub throughput_retention: f64,
    /// Mean crash-to-restart latency, ms (`None` without recoveries).
    pub mean_recovery_ms: Option<u64>,
    /// Recovery-latency histogram (log buckets, ms).
    pub recovery_ms: LogHistogram,
    /// Reports whose URL was blacklisted.
    pub detections: u64,
    /// Median arrival-to-blacklist time over detected reports, mins.
    pub p50_time_to_blacklist_mins: Option<u64>,
    /// `p50_time_to_blacklist_mins - baseline's`, minutes (`None` when
    /// either side has no detections).
    pub blacklist_inflation_mins: Option<i64>,
}

/// The full sweep record (`results/fleet_chaos.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetChaosResult {
    /// Master seed.
    pub seed: u64,
    /// Engine simulated.
    pub engine: EngineId,
    /// Reports per point.
    pub reports: usize,
    /// Distinct sites deployed.
    pub sites: usize,
    /// Fleet size.
    pub workers: usize,
    /// One report per sweep point, baseline first.
    pub points: Vec<ChaosPointReport>,
}

/// Deploy the site population: `sites` compromised hosts cycling over
/// the human-verification techniques the supervised re-crawl must
/// still defeat.
fn deploy_sites(cfg: &FleetChaosConfig, rng: &DetRng) -> (VirtualHosting, Vec<Url>) {
    let techniques = [
        EvasionTechnique::None,
        EvasionTechnique::AlertBox,
        EvasionTechnique::SessionGate,
    ];
    let brands = [Brand::PayPal, Brand::Facebook];
    let mut vhosts = VirtualHosting::new();
    let mut urls = Vec::with_capacity(cfg.sites);
    for i in 0..cfg.sites {
        let host = format!("chaos-target-{i}.com");
        let site_rng = rng.fork(&format!("site:{host}"));
        let bundle = FakeSiteGenerator::new(&site_rng).generate(&host);
        let kit = PhishKit::new(
            brands[i % brands.len()],
            GateConfig::simple(techniques[i % techniques.len()]),
        );
        urls.push(kit.phishing_url(&host));
        vhosts.install(
            &host,
            Box::new(CompromisedSite::new(bundle, kit, &site_rng)),
        );
    }
    (vhosts, urls)
}

/// Build a steady arrival stream uniform over the window; URLs cycle
/// over the site list, feeds over [`FEEDS`].
fn build_arrivals(cfg: &FleetChaosConfig, urls: &[Url], rng: &DetRng) -> Vec<ReportArrival> {
    let mut rng = rng.fork("chaos-arrivals");
    let window_ms = cfg.window.as_millis().max(1);
    let mut ats: Vec<u64> = (0..cfg.reports).map(|_| rng.range(0..window_ms)).collect();
    ats.sort_unstable();
    ats.iter()
        .enumerate()
        .map(|(i, &at)| {
            let (feed, reputation) = FEEDS[i % FEEDS.len()];
            ReportArrival {
                url: urls[i % urls.len()].clone(),
                at: SimTime::from_millis(at),
                feed: feed.to_string(),
                reputation,
            }
        })
        .collect()
}

/// Stable label for a point's RNG forks (crash rate in basis points so
/// the label is integral).
fn point_label(point: &ChaosPoint) -> String {
    format!(
        "chaos:{}:{}:{}",
        (point.crash_rate * 10_000.0).round() as u64,
        point.restart_delay.as_millis(),
        point.lease_timeout.as_millis()
    )
}

/// Generate the deterministic worker-fault plan for one point: crashes
/// at the point's swept rate, hangs and graceful recycles at the
/// config-wide rates (chaos points only).
fn fault_plan(cfg: &FleetChaosConfig, point: &ChaosPoint, rng: &DetRng) -> WorkerFaultPlan {
    if point.baseline {
        return WorkerFaultPlan::none();
    }
    let plan_rng = rng.fork(&format!("plan:{}", point_label(point)));
    let workers = cfg.workers as u32;
    let horizon = SimTime::ZERO + cfg.window;
    let mut plan = WorkerFaultPlan::generate(
        &plan_rng,
        workers,
        horizon,
        point.crash_rate,
        WorkerFault::Crash,
    );
    plan.faults.extend(
        WorkerFaultPlan::generate(
            &plan_rng,
            workers,
            horizon,
            cfg.hang_rate,
            WorkerFault::Hang,
        )
        .faults,
    );
    plan.faults.extend(
        WorkerFaultPlan::generate(
            &plan_rng,
            workers,
            horizon,
            cfg.graceful_rate,
            WorkerFault::Restart,
        )
        .faults,
    );
    plan.validated()
}

/// Median of a sorted slice (`None` when empty).
fn p50(sorted: &[u64]) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[sorted.len() / 2])
}

/// Run one chaos point: deploy, build the stream, generate the fault
/// plan, run the supervised fleet, summarize. Self-contained per
/// point — the thread-invariance requirement. Cross-point derived
/// metrics (`throughput_retention`, `blacklist_inflation_mins`) are
/// filled by [`summarize`].
pub fn run_chaos_point(
    cfg: &FleetChaosConfig,
    point: &ChaosPoint,
    obs: &ObsSink,
) -> ChaosPointReport {
    let rng = DetRng::new(cfg.seed);
    let (vhosts, urls) = deploy_sites(cfg, &rng);
    let mut transport = DirectTransport::new(vhosts);
    let arrivals = build_arrivals(cfg, &urls, &rng);
    let mut fleet_cfg = cfg.fleet.clone();
    fleet_cfg.workers = cfg.workers;
    fleet_cfg.supervisor = SupervisorConfig {
        lease_timeout: point.lease_timeout,
        restart_delay: point.restart_delay,
        ..fleet_cfg.supervisor
    }
    .validated();
    fleet_cfg.worker_faults = fault_plan(cfg, point, &rng);
    let mut engine = Engine::new(cfg.engine, &rng).with_obs(obs.clone());
    let fleet_rng = rng.fork(&format!("fleet:{}", point_label(point)));
    let r = run_fleet(
        &mut engine,
        &mut transport,
        &fleet_cfg,
        &arrivals,
        &fleet_rng,
        obs,
    );

    let completed = r.outcomes.len() as u64;
    let poisoned = r.poisoned.len() as u64;
    let mut blacklist: Vec<u64> = r
        .outcomes
        .iter()
        .filter_map(|o| o.detected_at.map(|d| d.since(o.arrived_at).as_mins()))
        .collect();
    blacklist.sort_unstable();

    ChaosPointReport {
        crash_rate: point.crash_rate,
        restart_delay_secs: point.restart_delay.as_secs(),
        lease_timeout_secs: point.lease_timeout.as_secs(),
        baseline: point.baseline,
        arrivals: arrivals.len() as u64,
        completed,
        poisoned,
        lost: (arrivals.len() as u64).saturating_sub(completed + poisoned),
        crashes: r.counters.get("fleet.faults.crash"),
        hangs: r.counters.get("fleet.faults.hang"),
        graceful: r.counters.get("fleet.faults.restart"),
        leases_revoked: r.counters.get("fleet.lease_revoked"),
        requeued: r.counters.get("fleet.requeued"),
        restarts: r.counters.get("fleet.restarts"),
        duplicate_crawls: r.duplicate_crawls,
        duplicate_crawl_rate: if completed == 0 {
            0.0
        } else {
            r.duplicate_crawls as f64 / completed as f64
        },
        sustained_per_day: r.sustained_per_day,
        throughput_retention: 1.0,
        mean_recovery_ms: (r.recovery_ms.count > 0)
            .then(|| r.recovery_ms.sum / r.recovery_ms.count),
        recovery_ms: r.recovery_ms,
        detections: blacklist.len() as u64,
        p50_time_to_blacklist_mins: p50(&blacklist),
        blacklist_inflation_mins: None,
    }
}

/// Run the sweep on the default thread count.
pub fn run_fleet_chaos(cfg: &FleetChaosConfig) -> FleetChaosResult {
    run_fleet_chaos_with_threads(cfg, sweep_threads())
}

/// Run the sweep on exactly `threads` workers. Byte-identical output
/// for any thread count.
pub fn run_fleet_chaos_with_threads(cfg: &FleetChaosConfig, threads: usize) -> FleetChaosResult {
    let points = chaos_points(cfg);
    let reports = run_sweep_with_threads(&points, threads, |p| {
        run_chaos_point(cfg, p, &ObsSink::Null)
    });
    summarize(cfg, reports)
}

/// Assemble the sweep record (in point order) and fill the
/// baseline-relative metrics.
pub fn summarize(cfg: &FleetChaosConfig, mut points: Vec<ChaosPointReport>) -> FleetChaosResult {
    let base_sustained = points
        .iter()
        .find(|p| p.baseline)
        .map(|p| p.sustained_per_day)
        .unwrap_or(0.0);
    let base_ttb = points
        .iter()
        .find(|p| p.baseline)
        .and_then(|p| p.p50_time_to_blacklist_mins);
    for p in &mut points {
        p.throughput_retention = if base_sustained > 0.0 {
            p.sustained_per_day / base_sustained
        } else {
            0.0
        };
        p.blacklist_inflation_mins = match (p.p50_time_to_blacklist_mins, base_ttb) {
            (Some(own), Some(base)) => Some(own as i64 - base as i64),
            _ => None,
        };
    }
    FleetChaosResult {
        seed: cfg.seed,
        engine: cfg.engine,
        reports: cfg.reports,
        sites: cfg.sites,
        workers: cfg.workers,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetChaosConfig {
        FleetChaosConfig {
            sites: 6,
            reports: 60,
            window: SimDuration::from_mins(2),
            workers: 4,
            crash_rates: vec![0.5],
            restart_delays: vec![SimDuration::from_secs(10)],
            lease_timeouts: vec![SimDuration::from_secs(30)],
            hang_rate: 0.25,
            graceful_rate: 0.25,
            fleet: FleetConfig {
                workers: 4,
                shard_capacity: 8,
                egress_identities: 16,
                egress_per_report: 2,
                volume_scale: 0.0,
                ..FleetConfig::default()
            },
            ..FleetChaosConfig::fast()
        }
    }

    #[test]
    fn no_point_loses_a_report() {
        let r = run_fleet_chaos_with_threads(&tiny(), 2);
        assert_eq!(r.points.len(), 2, "baseline + one chaos cell");
        for p in &r.points {
            assert_eq!(p.lost, 0, "crash_rate {}", p.crash_rate);
            assert_eq!(p.completed + p.poisoned, p.arrivals);
        }
        let base = &r.points[0];
        assert!(base.baseline);
        assert_eq!(base.crashes, 0);
        assert_eq!(base.duplicate_crawls, 0);
        assert!((base.throughput_retention - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chaos_point_actually_faults_and_recovers() {
        let r = run_fleet_chaos_with_threads(&tiny(), 1);
        let chaos = &r.points[1];
        assert!(
            chaos.crashes + chaos.hangs + chaos.graceful > 0,
            "a 50% crash rate over 4 workers must schedule something"
        );
        assert!(chaos.restarts >= chaos.leases_revoked);
        assert!(chaos.throughput_retention > 0.0);
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = tiny();
        let a = run_fleet_chaos_with_threads(&cfg, 1);
        let b = run_fleet_chaos_with_threads(&cfg, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
