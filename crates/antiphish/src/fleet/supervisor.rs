//! Worker supervision: heartbeats, leases, crash detection, restarts.
//!
//! The supervisor runs *inside* the fleet's single deterministic event
//! loop — it is not a thread, it is more events. Each claimed report
//! carries a lease: the claiming worker heartbeats while the crawl is
//! in flight, and the supervisor revokes the lease when the heartbeats
//! stop for longer than the configured timeout. A revoked report is
//! requeued (bounded by a per-report crawl budget shared with the
//! engine's [`RetryPolicy`]); the dead worker is restarted after a
//! delay, with cold per-run caches and a fresh RNG fork, exactly as a
//! respawned crawler process would come up.
//!
//! # Lease protocol
//!
//! On claim the worker's lease token is bumped and three timers start:
//! a heartbeat chain (every `heartbeat_every`, stopping before the
//! crawl's completion), one lease check at `lease_timeout`, and the
//! commit at the crawl's completion time. Every timer carries the
//! token; any state transition bumps the token, so stale timers
//! no-op. The lease check either observes a fresh heartbeat and
//! re-arms itself at `last_beat + lease_timeout`, or revokes. The
//! commit only lands while the worker is up and the token current —
//! a crawl interrupted by a crash or hang is computed but never
//! committed, so a report is convicted at most once.
//!
//! # Fault semantics
//!
//! * [`WorkerFault::Crash`] — the process dies now. A busy worker's
//!   lease expires (detection within `lease_timeout` of the last
//!   beat) and the report is requeued; an idle worker is detected by
//!   the same liveness bound. Restart follows `restart_delay` later.
//! * [`WorkerFault::Hang`] — the process wedges mid-crawl: same
//!   detection and recovery as a crash, but only bites while busy.
//! * [`WorkerFault::Restart`] — a graceful recycle: in-flight work
//!   commits first, nothing is requeued, the worker is simply
//!   unavailable for `restart_delay`.
//!
//! # Determinism
//!
//! Every timer is scheduled at a virtual time computed from config and
//! prior events; fault times come from a pre-validated
//! [`WorkerFaultPlan`]. Restart RNG forks are keyed by
//! `(worker, generation)` — position-independent, like every fork in
//! the workspace — and generations advance deterministically, so a
//! supervised run is as replayable as an unsupervised one at any
//! `PHISHSIM_SWEEP_THREADS`.

use super::*;
use phishsim_simnet::RetryPolicy;

/// Supervision knobs: liveness cadence, detection bound, recovery
/// delay, and the per-report crawl budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// How often a busy worker proves liveness.
    pub heartbeat_every: SimDuration,
    /// Silence longer than this revokes the worker's lease.
    pub lease_timeout: SimDuration,
    /// Down time between detection (or a graceful recycle request) and
    /// the worker rejoining the fleet.
    pub restart_delay: SimDuration,
    /// Maximum engine crawls per report before it is parked as poison.
    /// Defaults to [`RetryPolicy::crawl_default`]'s `max_attempts`, so
    /// redelivery and engine retries share one budget: a report can
    /// never be crawled more times than the retry policy allows.
    pub max_crawl_attempts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_every: SimDuration::from_secs(10),
            lease_timeout: SimDuration::from_secs(45),
            restart_delay: SimDuration::from_secs(30),
            max_crawl_attempts: RetryPolicy::crawl_default().max_attempts,
        }
    }
}

impl SupervisorConfig {
    /// Clamp the config into a usable shape: the heartbeat period and
    /// lease timeout are at least 1 ms, the lease timeout strictly
    /// exceeds the heartbeat period (otherwise every healthy lease
    /// would be revoked), and at least one crawl attempt is allowed.
    pub fn validated(mut self) -> Self {
        if self.heartbeat_every < SimDuration::from_millis(1) {
            self.heartbeat_every = SimDuration::from_millis(1);
        }
        let floor = self.heartbeat_every + SimDuration::from_millis(1);
        if self.lease_timeout < floor {
            self.lease_timeout = floor;
        }
        self.max_crawl_attempts = self.max_crawl_attempts.max(1);
        self
    }
}

/// A claimed report whose crawl is in flight: the computed-but-
/// uncommitted outcome plus the lease bookkeeping around it.
struct InFlight {
    outcome: FleetOutcome,
    /// Detection delay in minutes, precomputed from the engine outcome
    /// (committed into the histogram only if the crawl commits).
    detection_mins: Option<u64>,
    crawl_span: SpanId,
    last_beat: SimTime,
}

/// One worker as the supervisor sees it.
struct WorkerState {
    /// Lease generation: bumped on claim, revoke, commit, and restart,
    /// so timers from a previous lease cannot act on the current one.
    token: u64,
    /// Process incarnation; keys the post-restart RNG fork.
    generation: u32,
    busy: Option<InFlight>,
    /// Crashed, hung, or recycling — not eligible for work.
    downed: bool,
    /// When the current outage began (crash/hang only; recovery
    /// latency is observed from here at restart).
    crashed_at: Option<SimTime>,
    /// A graceful restart was requested mid-crawl; recycle after the
    /// commit lands.
    pending_restart: bool,
    /// The worker's own RNG (steal-probe offsets); re-forked fresh on
    /// every restart.
    rng: DetRng,
}

/// Fleet-level supervision state.
pub(super) struct SupervisorState {
    cfg: SupervisorConfig,
    workers: Vec<WorkerState>,
    /// Engine crawls per report index (claims, not redeliveries).
    attempts: HashMap<u32, u32>,
    poisoned: Vec<u32>,
    duplicate_crawls: u64,
    recovery_ms: LogHistogram,
    /// Root for per-worker forks, so restarts can mint fresh streams.
    rng_root: DetRng,
}

impl SupervisorState {
    pub(super) fn new(cfg: SupervisorConfig, workers: usize, rng: &DetRng) -> Self {
        let rng_root = rng.fork("fleet-workers");
        SupervisorState {
            cfg,
            workers: (0..workers)
                .map(|w| WorkerState {
                    token: 0,
                    generation: 0,
                    busy: None,
                    downed: false,
                    crashed_at: None,
                    pending_restart: false,
                    rng: rng_root.fork(&format!("w{w}:gen0")),
                })
                .collect(),
            attempts: HashMap::new(),
            poisoned: Vec::new(),
            duplicate_crawls: 0,
            recovery_ms: LogHistogram::default(),
            rng_root,
        }
    }

    /// Tear down into the pieces [`FleetResult`] carries.
    pub(super) fn into_result_parts(mut self) -> (Vec<u32>, u64, LogHistogram) {
        self.poisoned.sort_unstable();
        (self.poisoned, self.duplicate_crawls, self.recovery_ms)
    }
}

impl Fleet<'_> {
    fn sup(&mut self) -> &mut SupervisorState {
        self.sup
            .as_mut()
            .expect("supervised path needs a supervisor")
    }

    /// Supervised work loop for `w`: claim the next report, parking
    /// poison reports (crawl budget exhausted) along the way; idle if
    /// the queues are dry.
    pub(super) fn dispatch_supervised(
        &mut self,
        engine: &mut Engine,
        t: &mut dyn Transport,
        w: u32,
        now: SimTime,
    ) {
        self.idle.remove(&w);
        if self.sup().workers[w as usize].downed {
            return;
        }
        loop {
            let Some((report, stolen)) = self.find_work_supervised(w) else {
                self.idle.insert(w);
                return;
            };
            let idx = report.idx;
            let max = self.sup().cfg.max_crawl_attempts;
            let attempts = self.sup().attempts.get(&idx).copied().unwrap_or(0);
            if attempts >= max {
                self.sup().poisoned.push(idx);
                self.counters.incr("fleet.poisoned");
                let feed = self.arrivals[idx as usize].feed.clone();
                self.obs.point("fleet.poisoned", &feed, now);
                if let Some(span) = self.spans.remove(&idx) {
                    self.obs.span_end(span, now);
                }
                continue;
            }
            self.sup().attempts.insert(idx, attempts + 1);
            if attempts > 0 {
                self.sup().duplicate_crawls += 1;
                self.counters.incr("fleet.duplicate_crawls");
            }
            self.claim(engine, t, w, report, stolen, now);
            return;
        }
    }

    /// [`Fleet::find_work`], but steal-probe offsets come from the
    /// worker's *own* RNG stream — the one a restart re-forks.
    fn find_work_supervised(&mut self, w: u32) -> Option<(QueuedReport, bool)> {
        if let Some(r) = self.queue.pop_local(w as usize) {
            return Some((r, false));
        }
        if self.cfg.steal_attempts == 0 || self.queue.total_depth() == 0 {
            return None;
        }
        let shards = self.queue.shard_count();
        let start = self.sup().workers[w as usize].rng.range(0..shards as u32) as usize;
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

    /// Worker `w` claims `report` at `now`: run the crawl eagerly (the
    /// outcome is a pure function of the report key), hold the outcome
    /// uncommitted, and start the lease timers.
    fn claim(
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
        engine.set_crawl_pool(self.egress.pool_for(w as usize, dispatched_at));
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
        let in_flight = InFlight {
            outcome: FleetOutcome {
                idx: report.idx,
                worker: w,
                stolen,
                arrived_at: arrival.at,
                dispatched_at,
                completed_at,
                queue_wait_ms: now.since(arrival.at).as_millis(),
                throttle_ms,
                redeliveries: self.redeliveries.get(&report.idx).copied().unwrap_or(0),
                detected_at: outcome.detected_at,
                requests_made: outcome.requests_made,
            },
            detection_mins: outcome.detection_delay().map(|d| d.as_millis() / 60_000),
            crawl_span,
            last_beat: now,
        };
        let (heartbeat_every, lease_timeout) = {
            let c = &self.sup().cfg;
            (c.heartbeat_every, c.lease_timeout)
        };
        let ws = &mut self.sup().workers[w as usize];
        ws.token += 1;
        let token = ws.token;
        ws.busy = Some(in_flight);
        let first_beat = now + heartbeat_every;
        if first_beat < completed_at {
            self.sched
                .schedule_at(first_beat, FleetEvent::Heartbeat { worker: w, token });
        }
        self.sched.schedule_at(
            now + lease_timeout,
            FleetEvent::LeaseCheck { worker: w, token },
        );
        self.sched
            .schedule_at(completed_at, FleetEvent::Commit { worker: w, token });
    }

    /// A heartbeat fires: if the lease is current and the worker is
    /// still up, refresh the beat and chain the next one.
    pub(super) fn on_heartbeat(&mut self, w: u32, token: u64, now: SimTime) {
        let heartbeat_every = self.sup().cfg.heartbeat_every;
        let ws = &mut self.sup().workers[w as usize];
        if ws.token != token || ws.downed {
            return;
        }
        let Some(f) = ws.busy.as_mut() else { return };
        f.last_beat = now;
        let completed_at = f.outcome.completed_at;
        self.counters.incr("fleet.heartbeats");
        let next = now + heartbeat_every;
        if next < completed_at {
            self.sched
                .schedule_at(next, FleetEvent::Heartbeat { worker: w, token });
        }
    }

    /// A lease check fires: re-arm if a beat landed recently, revoke
    /// the lease otherwise — requeue the report, schedule the restart.
    pub(super) fn on_lease_check(&mut self, w: u32, token: u64, now: SimTime) {
        let (lease_timeout, restart_delay) = {
            let c = &self.sup().cfg;
            (c.lease_timeout, c.restart_delay)
        };
        let ws = &mut self.sup().workers[w as usize];
        if ws.token != token || ws.busy.is_none() {
            return;
        }
        let deadline = ws.busy.as_ref().expect("checked").last_beat + lease_timeout;
        if now < deadline {
            self.sched
                .schedule_at(deadline, FleetEvent::LeaseCheck { worker: w, token });
            return;
        }
        let f = ws.busy.take().expect("checked");
        ws.token += 1;
        let idx = f.outcome.idx;
        self.counters.incr("fleet.lease_revoked");
        let actor = format!("w{w}");
        self.obs.point("lease.revoke", &actor, now);
        self.obs.span_end(f.crawl_span, now);
        let tries = self.redeliveries.get(&idx).copied().unwrap_or(0) + 1;
        self.counters.incr("fleet.requeued");
        self.sched
            .schedule_at(now, FleetEvent::Redeliver { idx, tries });
        self.sched
            .schedule_at(now + restart_delay, FleetEvent::Restart(w));
    }

    /// A crawl's completion time arrives: commit the outcome if the
    /// lease is current and the worker still up, then look for more
    /// work (or recycle, if a graceful restart is pending).
    pub(super) fn on_commit(
        &mut self,
        engine: &mut Engine,
        t: &mut dyn Transport,
        w: u32,
        token: u64,
        now: SimTime,
    ) {
        let restart_delay = self.sup().cfg.restart_delay;
        let ws = &mut self.sup().workers[w as usize];
        if ws.token != token || ws.downed {
            return;
        }
        let Some(f) = ws.busy.take() else { return };
        ws.token += 1;
        let recycle = ws.pending_restart;
        if recycle {
            ws.pending_restart = false;
            ws.downed = true;
        }
        let idx = f.outcome.idx;
        let feed = self.arrivals[idx as usize].feed.clone();
        self.obs.span_end(f.crawl_span, now);
        self.obs.point("fleet.verdict", &feed, now);
        if let Some(span) = self.spans.remove(&idx) {
            self.obs.span_end(span, now);
        }
        self.queue_wait_ms.record(f.outcome.queue_wait_ms);
        self.obs
            .observe("fleet.queue_wait_ms", f.outcome.queue_wait_ms);
        if let Some(mins) = f.detection_mins {
            self.detection_delay_mins.record(mins);
            self.obs.observe("fleet.detection_delay_mins", mins);
        }
        self.counters.incr("fleet.completed");
        self.counters.add("fleet.requests", f.outcome.requests_made);
        self.last_completion = self.last_completion.max(now);
        self.outcomes.push(f.outcome);
        if recycle {
            self.sched
                .schedule_at(now + restart_delay, FleetEvent::Restart(w));
        } else {
            self.dispatch(engine, t, w, now);
        }
    }

    /// A scheduled worker fault fires.
    pub(super) fn on_fault(&mut self, w: u32, fault: WorkerFault, now: SimTime) {
        let (lease_timeout, restart_delay) = {
            let c = &self.sup().cfg;
            (c.lease_timeout, c.restart_delay)
        };
        let (downed, busy) = {
            let ws = &self.sup().workers[w as usize];
            (ws.downed, ws.busy.is_some())
        };
        if downed {
            return; // already down; the fault hits a dead process
        }
        match fault {
            WorkerFault::Crash | WorkerFault::Hang => {
                if fault == WorkerFault::Hang && !busy {
                    // Nothing to wedge: an idle hang is unobservable.
                    return;
                }
                {
                    let ws = &mut self.sup().workers[w as usize];
                    ws.downed = true;
                    ws.crashed_at = Some(now);
                }
                let (counter, point) = match fault {
                    WorkerFault::Crash => ("fleet.faults.crash", "worker.crash"),
                    _ => ("fleet.faults.hang", "worker.hang"),
                };
                self.counters.incr(counter);
                let actor = format!("w{w}");
                self.obs.point(point, &actor, now);
                if !busy {
                    // No lease to miss: the supervisor's generic
                    // liveness probe detects an idle death within the
                    // same lease-timeout bound.
                    self.idle.remove(&w);
                    self.sched
                        .schedule_at(now + lease_timeout + restart_delay, FleetEvent::Restart(w));
                }
                // Busy: heartbeats stop now; the pending lease check
                // revokes, requeues, and schedules the restart.
            }
            WorkerFault::Restart => {
                self.counters.incr("fleet.faults.restart");
                if busy {
                    self.sup().workers[w as usize].pending_restart = true;
                } else {
                    self.sup().workers[w as usize].downed = true;
                    self.idle.remove(&w);
                    self.sched
                        .schedule_at(now + restart_delay, FleetEvent::Restart(w));
                }
            }
        }
    }

    /// A worker comes back up: new generation, fresh RNG fork, cold
    /// per-run engine caches — then straight back to work.
    pub(super) fn on_restart(
        &mut self,
        engine: &mut Engine,
        t: &mut dyn Transport,
        w: u32,
        now: SimTime,
    ) {
        let recovered = {
            let sup = self.sup();
            let generation = sup.workers[w as usize].generation + 1;
            let rng = sup.rng_root.fork(&format!("w{w}:gen{generation}"));
            let ws = &mut sup.workers[w as usize];
            ws.generation = generation;
            ws.token += 1;
            ws.downed = false;
            ws.pending_restart = false;
            ws.busy = None;
            ws.rng = rng;
            ws.crashed_at.take()
        };
        engine.reset_run_caches();
        self.counters.incr("fleet.restarts");
        let actor = format!("w{w}");
        self.obs.point("worker.restart", &actor, now);
        if let Some(c) = recovered {
            let ms = now.since(c).as_millis();
            self.sup().recovery_ms.record(ms);
            self.obs.observe("fleet.recovery_ms", ms);
        }
        self.dispatch(engine, t, w, now);
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
    use phishsim_simnet::ScheduledWorkerFault;

    fn deploy(hosts: usize) -> (DirectTransport, Vec<Url>) {
        let mut vhosts = VirtualHosting::new();
        let mut urls = Vec::new();
        for i in 0..hosts {
            let host = format!("fleet-sup-{i}.com");
            let rng = DetRng::new(41_000 + i as u64);
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

    fn supervised_cfg() -> FleetConfig {
        FleetConfig {
            workers: 4,
            shard_capacity: 8,
            egress_identities: 16,
            egress_per_report: 2,
            volume_scale: 0.0,
            supervisor: Some(SupervisorConfig::default()),
            ..FleetConfig::default()
        }
    }

    fn run_with_faults(cfg: &FleetConfig, n: usize, spacing_ms: u64) -> FleetResult {
        let (mut t, urls) = deploy(6);
        let arrivals = arrivals_for(&urls, n, spacing_ms);
        let rng = DetRng::new(23);
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

    fn crash(worker: u32, at_ms: u64) -> ScheduledWorkerFault {
        ScheduledWorkerFault {
            worker,
            at: SimTime::from_millis(at_ms),
            fault: WorkerFault::Crash,
        }
    }

    #[test]
    fn supervised_fault_free_run_completes_everything() {
        let r = run_with_faults(&supervised_cfg(), 30, 500);
        assert_eq!(r.outcomes.len(), 30);
        assert!(r.poisoned.is_empty());
        assert_eq!(r.duplicate_crawls, 0);
        assert_eq!(r.counters.get("fleet.restarts"), 0);
        let mut seen: Vec<u32> = r.outcomes.iter().map(|o| o.idx).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn crash_mid_crawl_requeues_and_completes() {
        // Worker crashes early while crawls are in flight; the lease
        // expires, the report is requeued, the worker restarts, and
        // every report still completes exactly once.
        let cfg = FleetConfig {
            worker_faults: WorkerFaultPlan {
                faults: vec![crash(0, 1_000), crash(1, 2_000)],
            },
            ..supervised_cfg()
        };
        let r = run_with_faults(&cfg, 30, 200);
        assert_eq!(r.outcomes.len() + r.poisoned.len(), 30);
        assert!(r.poisoned.is_empty(), "budget of 4 survives one crash");
        let mut seen: Vec<u32> = r.outcomes.iter().map(|o| o.idx).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 30, "no report may commit twice");
        assert_eq!(r.counters.get("fleet.faults.crash"), 2);
        assert_eq!(r.counters.get("fleet.restarts"), 2);
        assert_eq!(r.recovery_ms.count, 2);
    }

    #[test]
    fn hang_is_detected_like_a_crash_but_noops_when_idle() {
        let busy_hang = FleetConfig {
            worker_faults: WorkerFaultPlan {
                faults: vec![ScheduledWorkerFault {
                    worker: 0,
                    at: SimTime::from_millis(500),
                    fault: WorkerFault::Hang,
                }],
            },
            ..supervised_cfg()
        };
        let r = run_with_faults(&busy_hang, 20, 100);
        assert_eq!(r.outcomes.len(), 20);
        assert_eq!(r.counters.get("fleet.faults.hang"), 1);
        assert_eq!(r.counters.get("fleet.lease_revoked"), 1);

        // Scheduled long after the stream drains: nothing to wedge.
        let idle_hang = FleetConfig {
            worker_faults: WorkerFaultPlan {
                faults: vec![ScheduledWorkerFault {
                    worker: 0,
                    at: SimTime::from_hours(12),
                    fault: WorkerFault::Hang,
                }],
            },
            ..supervised_cfg()
        };
        let r = run_with_faults(&idle_hang, 10, 100);
        assert_eq!(r.outcomes.len(), 10);
        assert_eq!(r.counters.get("fleet.faults.hang"), 0);
    }

    #[test]
    fn graceful_restart_never_loses_or_repeats_work() {
        let cfg = FleetConfig {
            worker_faults: WorkerFaultPlan {
                faults: vec![
                    ScheduledWorkerFault {
                        worker: 0,
                        at: SimTime::from_millis(800),
                        fault: WorkerFault::Restart,
                    },
                    ScheduledWorkerFault {
                        worker: 2,
                        at: SimTime::from_millis(1_500),
                        fault: WorkerFault::Restart,
                    },
                ],
            },
            ..supervised_cfg()
        };
        let r = run_with_faults(&cfg, 30, 200);
        assert_eq!(r.outcomes.len(), 30);
        assert_eq!(r.duplicate_crawls, 0, "graceful recycle repeats nothing");
        assert_eq!(r.counters.get("fleet.lease_revoked"), 0);
        assert_eq!(r.counters.get("fleet.faults.restart"), 2);
        assert!(r.counters.get("fleet.restarts") >= 1);
    }

    #[test]
    fn supervised_runs_are_byte_identical() {
        let cfg = FleetConfig {
            worker_faults: WorkerFaultPlan {
                faults: vec![crash(0, 700), crash(3, 1_400)],
            },
            ..supervised_cfg()
        };
        let a = run_with_faults(&cfg, 25, 300);
        let b = run_with_faults(&cfg, 25, 300);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn crawl_budget_parks_poison_reports() {
        // A one-attempt budget with a crash mid-flight: the re-crawl
        // would be attempt 2, which the budget forbids — the report is
        // parked as poison, visibly, rather than looping forever.
        let cfg = FleetConfig {
            supervisor: Some(
                SupervisorConfig {
                    max_crawl_attempts: 1,
                    ..SupervisorConfig::default()
                }
                .validated(),
            ),
            worker_faults: WorkerFaultPlan {
                faults: vec![crash(0, 1_000)],
            },
            ..supervised_cfg()
        };
        let r = run_with_faults(&cfg, 12, 200);
        assert_eq!(
            r.outcomes.len() + r.poisoned.len(),
            12,
            "every report is either committed or visibly parked"
        );
        assert!(
            !r.poisoned.is_empty(),
            "the crashed crawl must exhaust the one-attempt budget"
        );
        assert_eq!(r.counters.get("fleet.poisoned"), r.poisoned.len() as u64);
    }

    #[test]
    fn worker_faults_without_supervisor_panic() {
        let result = std::panic::catch_unwind(|| {
            let cfg = FleetConfig {
                workers: 2,
                volume_scale: 0.0,
                worker_faults: WorkerFaultPlan {
                    faults: vec![crash(0, 100)],
                },
                ..FleetConfig::default()
            };
            run_with_faults(&cfg, 2, 100)
        });
        assert!(result.is_err(), "unsupervised worker faults must panic");
    }

    #[test]
    fn validation_keeps_lease_above_heartbeat() {
        let c = SupervisorConfig {
            heartbeat_every: SimDuration::from_secs(30),
            lease_timeout: SimDuration::from_secs(10),
            restart_delay: SimDuration::ZERO,
            max_crawl_attempts: 0,
        }
        .validated();
        assert!(c.lease_timeout > c.heartbeat_every);
        assert_eq!(c.max_crawl_attempts, 1);
    }
}
