//! A deterministic multi-worker crawl fleet.
//!
//! The paper's engines crawl each reported URL in isolation, but the
//! quantity the paper actually measures — time-to-blacklist — is a
//! queueing phenomenon at intake scale: real engines run crawler
//! *fleets* fed by report queues, and evasion pays off exactly when it
//! stretches a crawl long enough to matter under load. This module
//! restructures [`Engine`] intake into such a fleet:
//!
//! * [`queue`] — sharded, bounded report deques (one per worker) with
//!   seeded work-stealing and a pluggable [`QueueDiscipline`].
//! * [`ratelimit`] — per-hosting-farm GCRA token buckets keyed off
//!   [`phishsim_http::hosting_shard`], so the fleet never hammers one
//!   provider at full speed.
//! * [`egress`] — an egress-IP/proxy pool with a rotation policy, so
//!   cloaking kits keyed on requester identity see realistic churn.
//!
//! # Determinism
//!
//! The fleet is a *simulation of parallelism*, not host parallelism: a
//! single event loop over a [`Scheduler`] advances W simulated workers
//! in virtual time, so every run is serial and byte-replayable, and
//! host threads only ever fan out across independent fleet runs (via
//! `simnet::runner::run_sweep`, which is already thread-invariant).
//! Work-stealing reorders *which worker* crawls a report and *when* —
//! it must not reorder the report's random choices. That is what
//! [`Engine::process_report_keyed`] guarantees: each report runs on an
//! RNG stream forked from the engine seed and the report key alone, so
//! an outcome is independent of its position in the schedule.
//!
//! # Backpressure
//!
//! Shards are bounded. An arrival that finds its home shard full
//! spills to the least-loaded shard; if the whole fleet is full it is
//! *deferred* — scheduled for redelivery on exponential backoff, never
//! dropped. Arrivals during a feed outage window are parked and
//! redelivered when the outage lifts. Both paths are non-lossy: every
//! report is eventually crawled exactly once.

pub mod egress;
pub mod queue;
pub mod ratelimit;
pub mod supervisor;

pub use egress::{EgressIdentity, EgressPool, RotationPolicy};
pub use queue::{QueueDiscipline, QueuedReport, ShardFull, ShardedQueue};
pub use ratelimit::{FarmLimiter, TokenBucket};
pub use supervisor::SupervisorConfig;

use crate::engine::Engine;
use phishsim_browser::Transport;
use phishsim_http::{hosting_shard, Url};
use phishsim_simnet::metrics::CounterSet;
use phishsim_simnet::{
    BuildSymHasher, DetRng, FaultInjector, Ipv4Sim, LogHistogram, ObsSink, OutageWindow, Scheduler,
    SimDuration, SimTime, SpanId, WorkerFault, WorkerFaultPlan,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use supervisor::SupervisorState;

/// One report entering the fleet's intake queue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportArrival {
    /// The reported URL.
    pub url: Url,
    /// When the report arrives at intake.
    pub at: SimTime,
    /// The feed that submitted it (`"apwg-feed"`, `"user-report"`).
    pub feed: String,
    /// The feed's reputation (0..=u16::MAX; higher is more trusted).
    /// Only the priority discipline reads this.
    pub reputation: u16,
}

/// How long a worker slot is occupied driving one report's crawl.
///
/// The engine's own timeline (intake delay, rechecks spread over a
/// day) describes *when traffic hits the site*; the service model
/// describes *worker occupancy* — the synchronous share of the crawl a
/// fleet slot drives before handing the report's background schedule
/// to timers and moving on.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Fixed per-report occupancy (browser spin-up, page settle).
    pub base: SimDuration,
    /// Additional occupancy per request the crawl made.
    pub per_request_ms: u64,
}

impl ServiceModel {
    /// Occupancy for a crawl that made `requests` requests.
    pub fn occupancy(&self, requests: u64) -> SimDuration {
        self.base + SimDuration::from_millis(self.per_request_ms * requests)
    }
}

/// Fleet shape and policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Simulated crawl workers (one queue shard each).
    pub workers: usize,
    /// Bounded capacity of each worker's shard.
    pub shard_capacity: usize,
    /// Queue ordering policy.
    pub discipline: QueueDiscipline,
    /// Victim shards an idle worker probes before parking.
    pub steal_attempts: usize,
    /// Worker-occupancy model.
    pub service: ServiceModel,
    /// Hosting-farm shards for rate limiting.
    pub farms: usize,
    /// Token refill rate per farm, tokens per simulated second.
    pub farm_rate_per_sec: f64,
    /// Token-bucket depth per farm.
    pub farm_burst: u64,
    /// Tokens one report's crawl reserves against its farm.
    pub tokens_per_report: u64,
    /// Egress identities in the fleet-wide pool.
    pub egress_identities: usize,
    /// Identities backing each report's crawls.
    pub egress_per_report: usize,
    /// Egress rotation policy.
    pub rotation: RotationPolicy,
    /// Base redelivery backoff when the whole fleet is full.
    pub defer_base: SimDuration,
    /// Background-traffic budget scale passed to the engine.
    pub volume_scale: f64,
    /// Feed outage windows: arrivals inside one are parked until it
    /// lifts (the chaos layer taking the intake pipeline down).
    pub outages: Vec<OutageWindow>,
    /// Scheduled faults against individual workers. Requires
    /// [`FleetConfig::supervisor`]; not serialized (the workspace derive
    /// has no `skip_serializing_if`, and configs recorded before worker
    /// faults existed must round-trip byte-identically) — experiment
    /// configs carry fault *parameters* and regenerate the plan.
    #[serde(skip)]
    pub worker_faults: WorkerFaultPlan,
    /// Worker supervision (heartbeats, leases, restarts). `None` runs
    /// the legacy unsupervised path, byte-identical to fleets recorded
    /// before supervision existed. Not serialized, like
    /// [`FleetConfig::worker_faults`].
    #[serde(skip)]
    pub supervisor: Option<SupervisorConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 256,
            shard_capacity: 64,
            discipline: QueueDiscipline::Fifo,
            steal_attempts: 4,
            service: ServiceModel {
                base: SimDuration::from_secs(4),
                per_request_ms: 2,
            },
            farms: 24,
            farm_rate_per_sec: 4.0,
            farm_burst: 16,
            tokens_per_report: 1,
            egress_identities: 512,
            egress_per_report: 8,
            rotation: RotationPolicy::PerReport,
            defer_base: SimDuration::from_secs(5),
            volume_scale: 0.01,
            outages: Vec::new(),
            worker_faults: WorkerFaultPlan::none(),
            supervisor: None,
        }
    }
}

impl FleetConfig {
    /// Bridge from the chaos layer: copy an injector's outage windows
    /// and worker-fault schedule onto this fleet config (builder
    /// style). Transport-level probabilities are ignored — they apply
    /// to links, not to the fleet's intake.
    pub fn with_faults(mut self, faults: &FaultInjector) -> Self {
        self.outages.extend_from_slice(&faults.outages);
        self.worker_faults = faults.worker_faults.clone().validated();
        self
    }

    /// Enable worker supervision (builder style).
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = Some(supervisor.validated());
        self
    }
}

/// What happened to one report in the fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Index into the arrival list.
    pub idx: u32,
    /// Worker that crawled it.
    pub worker: u32,
    /// Whether it was stolen from another worker's shard.
    pub stolen: bool,
    /// When it arrived at intake.
    pub arrived_at: SimTime,
    /// When a worker began driving its crawl (post rate limit).
    pub dispatched_at: SimTime,
    /// When the worker slot freed up.
    pub completed_at: SimTime,
    /// Time from intake arrival to dequeue (includes outage parking).
    pub queue_wait_ms: u64,
    /// Extra wait imposed by the farm rate limiter.
    pub throttle_ms: u64,
    /// Redelivery attempts before a shard accepted it (0 = first try).
    pub redeliveries: u32,
    /// Blacklist-publication time, if detected.
    pub detected_at: Option<SimTime>,
    /// Requests the crawl made.
    pub requests_made: u64,
}

/// Aggregate result of one fleet run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetResult {
    /// Per-report outcomes, in completion order.
    pub outcomes: Vec<FleetOutcome>,
    /// Fleet counters (`fleet.completed`, `fleet.stolen`,
    /// `fleet.shed`, `fleet.spilled`, `fleet.outage_parked`, …).
    pub counters: CounterSet,
    /// Distribution of intake-to-dispatch waits, in ms.
    pub queue_wait_ms: LogHistogram,
    /// Distribution of report-to-blacklist delays, in minutes.
    pub detection_delay_mins: LogHistogram,
    /// First arrival to last worker-slot release.
    pub makespan: SimDuration,
    /// Completed reports per simulated day, over the makespan.
    pub sustained_per_day: f64,
    /// High-water mark of total queued reports.
    pub deepest_queue: usize,
    /// Hosting farms the rate limiter touched.
    pub farms_touched: usize,
    /// Distinct egress identities that carried at least one report.
    pub identities_used: usize,
    /// Reports parked after exhausting the per-report crawl budget
    /// (supervised runs only; sorted by index). Parked reports are
    /// accounted, never silently lost.
    pub poisoned: Vec<u32>,
    /// Engine crawls beyond the first per report — work repeated
    /// because a lease was revoked mid-crawl (supervised runs only).
    pub duplicate_crawls: u64,
    /// Distribution of crash-to-restart recovery latencies, in ms
    /// (supervised runs only).
    pub recovery_ms: LogHistogram,
}

#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    /// Report `idx` arrives at intake.
    Arrival(u32),
    /// Report `idx` re-enters intake after parking/deferral.
    Redeliver { idx: u32, tries: u32 },
    /// Worker finished its crawl and looks for more work.
    WorkerFree(u32),
    /// A scheduled worker fault fires (supervised runs only).
    Fault { worker: u32, fault: WorkerFault },
    /// A busy worker proves liveness to the supervisor.
    Heartbeat { worker: u32, token: u64 },
    /// The supervisor checks a claimed report's lease.
    LeaseCheck { worker: u32, token: u64 },
    /// A worker's crawl completes and its outcome commits.
    Commit { worker: u32, token: u64 },
    /// A downed or recycling worker comes back up.
    Restart(u32),
}

/// Redelivery backoff doubles up to this exponent, then stays flat —
/// deferral is never lossy, only increasingly patient.
const MAX_BACKOFF_DOUBLINGS: u32 = 6;

struct Fleet<'a> {
    cfg: &'a FleetConfig,
    arrivals: &'a [ReportArrival],
    obs: &'a ObsSink,
    sched: Scheduler<FleetEvent>,
    queue: ShardedQueue,
    limiter: FarmLimiter,
    egress: EgressPool,
    idle: BTreeSet<u32>,
    steal_rng: DetRng,
    counters: CounterSet,
    /// Open `fleet.report` span per report index, and the redelivery
    /// count of each redelivered report: one insert per arrival, so
    /// both hash with the simulation's fast hasher.
    spans: HashMap<u32, SpanId, BuildSymHasher>,
    redeliveries: HashMap<u32, u32, BuildSymHasher>,
    outcomes: Vec<FleetOutcome>,
    queue_wait_ms: LogHistogram,
    detection_delay_mins: LogHistogram,
    last_completion: SimTime,
    /// Worker supervision state; `None` on the legacy unsupervised path.
    sup: Option<SupervisorState>,
}

impl Fleet<'_> {
    /// An arrival (or redelivered report) enters intake at `now`.
    fn handle_intake(&mut self, idx: u32, tries: u32, now: SimTime) -> Option<u32> {
        let arrival = &self.arrivals[idx as usize];
        if tries == 0 {
            let span = self
                .obs
                .span_start(None, "fleet.report", &arrival.feed, now);
            self.spans.insert(idx, span);
        }
        // Feed outage: park the report until the window lifts.
        if let Some(w) = self.cfg.outages.iter().find(|w| w.contains(now)) {
            self.counters.incr("fleet.outage_parked");
            self.sched
                .schedule_at(w.until, FleetEvent::Redeliver { idx, tries });
            return None;
        }
        let home = hosting_shard(&arrival.url.host, self.queue.shard_count());
        let report = QueuedReport {
            idx,
            enqueued_at: now,
            reputation: arrival.reputation,
        };
        let shard = match self.queue.push(home, report) {
            Ok(()) => home,
            Err(ShardFull) => {
                // Home shard full: spill to the least-loaded shard.
                let spill = self.queue.least_loaded();
                match self.queue.push(spill, report) {
                    Ok(()) => {
                        self.counters.incr("fleet.spilled");
                        spill
                    }
                    Err(ShardFull) => {
                        // Whole fleet at capacity: shed via deferral.
                        self.counters.incr("fleet.shed");
                        let backoff = SimDuration::from_millis(
                            self.cfg.defer_base.as_millis() << tries.min(MAX_BACKOFF_DOUBLINGS),
                        );
                        self.sched.schedule_at(
                            now + backoff,
                            FleetEvent::Redeliver {
                                idx,
                                tries: tries + 1,
                            },
                        );
                        return None;
                    }
                }
            }
        };
        if tries > 0 {
            self.redeliveries.insert(idx, tries);
        }
        self.obs.point("fleet.enqueue", &arrival.feed, now);
        self.obs
            .gauge("fleet.queue_depth", now, self.queue.total_depth() as i64);
        // Wake an idle worker — the shard's owner if it is idle, else
        // the lowest idle id (deterministic choice).
        let owner = shard as u32;
        if self.idle.contains(&owner) {
            Some(owner)
        } else {
            self.idle.iter().next().copied()
        }
    }

    /// Worker `w` (not in the idle set) looks for a report: own shard
    /// first, then up to `steal_attempts` victims starting at a seeded
    /// offset. Returns the report and whether it was stolen.
    fn find_work(&mut self, w: u32) -> Option<(QueuedReport, bool)> {
        if let Some(r) = self.queue.pop_local(w as usize) {
            return Some((r, false));
        }
        if self.cfg.steal_attempts == 0 || self.queue.total_depth() == 0 {
            return None;
        }
        let shards = self.queue.shard_count();
        let start = self.steal_rng.range(0..shards as u32) as usize;
        for k in 0..self.cfg.steal_attempts {
            let victim = (start + k) % shards;
            if victim == w as usize {
                continue;
            }
            if let Some(r) = self.queue.steal_from(victim) {
                return Some((r, true));
            }
        }
        None
    }

    /// Worker `w` crawls `report` starting no earlier than `now`.
    fn crawl(
        &mut self,
        engine: &mut Engine,
        t: &mut dyn Transport,
        w: u32,
        report: QueuedReport,
        stolen: bool,
        now: SimTime,
    ) {
        let arrival = &self.arrivals[report.idx as usize];
        let dispatched_at =
            self.limiter
                .reserve(&arrival.url.host, now, self.cfg.tokens_per_report);
        let throttle_ms = dispatched_at.since(now).as_millis();
        if stolen {
            self.counters.incr("fleet.stolen");
            self.obs.point("fleet.steal", &arrival.feed, now);
        }
        self.egress
            .fill_pool(w as usize, dispatched_at, engine.crawl_pool_mut());
        let parent = self.spans.get(&report.idx).copied();
        let crawl_span = self
            .obs
            .span_start(parent, "fleet.crawl", &arrival.feed, dispatched_at);
        let outcome = engine.process_report_keyed(
            t,
            &arrival.url,
            dispatched_at,
            self.cfg.volume_scale,
            report.idx as usize,
        );
        let completed_at = dispatched_at + self.cfg.service.occupancy(outcome.requests_made);
        self.obs.span_end(crawl_span, completed_at);
        self.obs.point("fleet.verdict", &arrival.feed, completed_at);
        if let Some(span) = parent {
            self.obs.span_end(span, completed_at);
        }
        let queue_wait = now.since(arrival.at).as_millis();
        self.queue_wait_ms.record(queue_wait);
        self.obs.observe("fleet.queue_wait_ms", queue_wait);
        if let Some(d) = outcome.detection_delay() {
            let mins = d.as_millis() / 60_000;
            self.detection_delay_mins.record(mins);
            self.obs.observe("fleet.detection_delay_mins", mins);
        }
        self.counters.incr("fleet.completed");
        self.counters.add("fleet.requests", outcome.requests_made);
        self.outcomes.push(FleetOutcome {
            idx: report.idx,
            worker: w,
            stolen,
            arrived_at: arrival.at,
            dispatched_at,
            completed_at,
            queue_wait_ms: queue_wait,
            throttle_ms,
            redeliveries: self.redeliveries.get(&report.idx).copied().unwrap_or(0),
            detected_at: outcome.detected_at,
            requests_made: outcome.requests_made,
        });
        self.last_completion = self.last_completion.max(completed_at);
        self.sched
            .schedule_at(completed_at, FleetEvent::WorkerFree(w));
    }

    /// Remove `w` from the idle set, find it work, and either crawl or
    /// park it back in the idle set.
    fn dispatch(&mut self, engine: &mut Engine, t: &mut dyn Transport, w: u32, now: SimTime) {
        if self.sup.is_some() {
            return self.dispatch_supervised(engine, t, w, now);
        }
        self.idle.remove(&w);
        match self.find_work(w) {
            Some((report, stolen)) => self.crawl(engine, t, w, report, stolen, now),
            None => {
                self.idle.insert(w);
            }
        }
    }
}

/// Run the fleet over `arrivals`, crawling through `engine` against
/// transport `t`. Serial, deterministic, and replayable: the same
/// `(engine state, cfg, arrivals, rng seed)` produces a byte-identical
/// [`FleetResult`] on every host and at every sweep thread count.
pub fn run_fleet(
    engine: &mut Engine,
    t: &mut dyn Transport,
    cfg: &FleetConfig,
    arrivals: &[ReportArrival],
    rng: &DetRng,
    obs: &ObsSink,
) -> FleetResult {
    assert!(cfg.workers > 0, "fleet needs at least one worker");
    assert!(
        cfg.worker_faults.is_empty() || cfg.supervisor.is_some(),
        "worker faults require a supervisor to detect and recover them"
    );
    let mut egress_rng = rng.fork("fleet-egress");
    let mut fleet = Fleet {
        cfg,
        arrivals,
        obs,
        sched: Scheduler::new().with_obs(obs.clone()),
        queue: ShardedQueue::new(cfg.workers, cfg.shard_capacity, cfg.discipline),
        limiter: FarmLimiter::new(cfg.farms, cfg.farm_rate_per_sec, cfg.farm_burst),
        egress: EgressPool::allocate(
            Ipv4Sim::new(203, 0, 0, 0),
            cfg.egress_identities,
            cfg.egress_per_report,
            cfg.rotation,
            &mut egress_rng,
        ),
        idle: (0..cfg.workers as u32).collect(),
        steal_rng: rng.fork("fleet-steal"),
        counters: CounterSet::new(),
        spans: HashMap::default(),
        redeliveries: HashMap::default(),
        outcomes: Vec::with_capacity(arrivals.len()),
        queue_wait_ms: LogHistogram::default(),
        detection_delay_mins: LogHistogram::default(),
        last_completion: SimTime::ZERO,
        sup: cfg
            .supervisor
            .as_ref()
            .map(|sc| SupervisorState::new(sc.clone().validated(), cfg.workers, rng)),
    };
    for (i, a) in arrivals.iter().enumerate() {
        fleet.sched.schedule_at(a.at, FleetEvent::Arrival(i as u32));
    }
    if fleet.sup.is_some() {
        for f in &cfg.worker_faults.clone().validated().faults {
            if (f.worker as usize) < cfg.workers {
                fleet.sched.schedule_at(
                    f.at,
                    FleetEvent::Fault {
                        worker: f.worker,
                        fault: f.fault,
                    },
                );
            }
        }
    }
    while let Some((now, ev)) = fleet.sched.pop() {
        match ev {
            FleetEvent::Arrival(idx) => {
                if let Some(w) = fleet.handle_intake(idx, 0, now) {
                    fleet.dispatch(engine, t, w, now);
                }
            }
            FleetEvent::Redeliver { idx, tries } => {
                if let Some(w) = fleet.handle_intake(idx, tries, now) {
                    fleet.dispatch(engine, t, w, now);
                }
            }
            FleetEvent::WorkerFree(w) => fleet.dispatch(engine, t, w, now),
            FleetEvent::Fault { worker, fault } => fleet.on_fault(worker, fault, now),
            FleetEvent::Heartbeat { worker, token } => fleet.on_heartbeat(worker, token, now),
            FleetEvent::LeaseCheck { worker, token } => fleet.on_lease_check(worker, token, now),
            FleetEvent::Commit { worker, token } => fleet.on_commit(engine, t, worker, token, now),
            FleetEvent::Restart(worker) => fleet.on_restart(engine, t, worker, now),
        }
    }
    let first_arrival = arrivals.iter().map(|a| a.at).min().unwrap_or(SimTime::ZERO);
    let makespan = fleet.last_completion.since(first_arrival);
    let completed = fleet.outcomes.len() as f64;
    let sustained_per_day = if makespan.as_millis() == 0 {
        0.0
    } else {
        completed * 86_400_000.0 / makespan.as_millis() as f64
    };
    let (throttled, throttle_ms) = fleet.limiter.throttle_totals();
    fleet.counters.add("fleet.throttled", throttled);
    fleet.counters.add("fleet.throttle_ms", throttle_ms);
    fleet
        .counters
        .add("fleet.egress_rotations", fleet.egress.rotations());
    let (poisoned, duplicate_crawls, recovery_ms) = match fleet.sup {
        Some(sup) => sup.into_result_parts(),
        None => (Vec::new(), 0, LogHistogram::default()),
    };
    FleetResult {
        makespan,
        sustained_per_day,
        deepest_queue: fleet.queue.deepest_total(),
        farms_touched: fleet.limiter.farms_touched(),
        identities_used: fleet.egress.identities_used(),
        outcomes: fleet.outcomes,
        counters: fleet.counters,
        queue_wait_ms: fleet.queue_wait_ms,
        detection_delay_mins: fleet.detection_delay_mins,
        poisoned,
        duplicate_crawls,
        recovery_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::EngineId;
    use phishsim_browser::transport::DirectTransport;
    use phishsim_http::VirtualHosting;
    use phishsim_phishgen::{
        Brand, CompromisedSite, EvasionTechnique, FakeSiteGenerator, GateConfig, PhishKit,
    };

    fn deploy(hosts: usize) -> (DirectTransport, Vec<Url>) {
        let mut vhosts = VirtualHosting::new();
        let mut urls = Vec::new();
        for i in 0..hosts {
            let host = format!("fleet-site-{i}.com");
            let rng = DetRng::new(9_000 + i as u64);
            let bundle = FakeSiteGenerator::new(&rng).generate(&host);
            let kit = PhishKit::new(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
            urls.push(kit.phishing_url(&host));
            vhosts.install(&host, Box::new(CompromisedSite::new(bundle, kit, &rng)));
        }
        (DirectTransport::new(vhosts), urls)
    }

    fn arrivals_for(urls: &[Url], n: usize, spacing_ms: u64) -> Vec<ReportArrival> {
        (0..n)
            .map(|i| ReportArrival {
                url: urls[i % urls.len()].clone(),
                at: SimTime::from_millis(i as u64 * spacing_ms),
                feed: format!("feed-{}", i % 3),
                reputation: [50u16, 500, 900][i % 3],
            })
            .collect()
    }

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            workers: 4,
            shard_capacity: 8,
            egress_identities: 16,
            egress_per_report: 2,
            volume_scale: 0.0,
            ..FleetConfig::default()
        }
    }

    fn run_once(cfg: &FleetConfig, n: usize, spacing_ms: u64) -> FleetResult {
        let (mut t, urls) = deploy(6);
        let arrivals = arrivals_for(&urls, n, spacing_ms);
        let rng = DetRng::new(11);
        let mut engine = Engine::new(EngineId::Gsb, &rng);
        run_fleet(
            &mut engine,
            &mut t,
            cfg,
            &arrivals,
            &rng.fork("fleet"),
            &ObsSink::Null,
        )
    }

    #[test]
    fn every_arrival_completes_exactly_once() {
        let r = run_once(&small_cfg(), 40, 500);
        assert_eq!(r.outcomes.len(), 40);
        let mut seen: Vec<u32> = r.outcomes.iter().map(|o| o.idx).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        assert_eq!(r.counters.get("fleet.completed"), 40);
        assert!(r.sustained_per_day > 0.0);
    }

    #[test]
    fn reruns_are_byte_identical() {
        let cfg = small_cfg();
        let a = run_once(&cfg, 30, 300);
        let b = run_once(&cfg, 30, 300);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn a_slow_intake_never_queues_deep() {
        // Arrivals far slower than service: no queue buildup, no steals
        // needed for correctness (workers mostly idle).
        let r = run_once(&small_cfg(), 10, 20_000);
        assert!(r.deepest_queue <= 2, "deepest {}", r.deepest_queue);
        for o in &r.outcomes {
            assert_eq!(o.redeliveries, 0);
        }
    }

    #[test]
    fn burst_overload_defers_without_losing_reports() {
        // 40 simultaneous arrivals into 2 workers x 4 slots: most of
        // the burst cannot be queued and must ride the deferral path —
        // and still every report completes exactly once.
        let cfg = FleetConfig {
            workers: 2,
            shard_capacity: 4,
            steal_attempts: 2,
            egress_identities: 8,
            egress_per_report: 2,
            volume_scale: 0.0,
            ..FleetConfig::default()
        };
        let r = run_once(&cfg, 40, 0);
        assert_eq!(r.outcomes.len(), 40);
        assert!(
            r.counters.get("fleet.shed") > 0,
            "the burst must overflow both shards: {:?}",
            r.counters
        );
        assert!(r.outcomes.iter().any(|o| o.redeliveries > 0));
    }

    #[test]
    fn egress_rotation_reaches_beyond_one_static_pool() {
        let r = run_once(&small_cfg(), 40, 500);
        assert!(
            r.identities_used > 2,
            "per-report rotation must spread identities: {}",
            r.identities_used
        );
    }
}
