//! Worker supervision: leases, crash detection, restarts.
//!
//! The supervisor runs *inside* the fleet's single deterministic event
//! loop — it is not a thread, it is more events. Each claimed report
//! carries a lease: the claiming worker heartbeats while the crawl is
//! in flight, and the supervisor revokes the lease once the heartbeats
//! have stopped for longer than the configured timeout. A revoked
//! report is requeued (bounded by a per-report crawl budget shared with
//! the engine's [`RetryPolicy`]); the dead worker is restarted after a
//! delay with cold per-run caches, as a respawned crawler process would
//! come up.
//!
//! # Leases as arithmetic
//!
//! A busy worker beats at `claim + k·heartbeat_every` (k ≥ 1) until its
//! crawl completes or a fault stops it, so no beat needs an event of
//! its own:
//!
//! * [`SupervisorConfig::validated`] keeps `lease_timeout` above
//!   `heartbeat_every`, so a healthy lease is never revoked. A claim
//!   schedules only its commit, at the crawl's completion time.
//! * A crash or hang of a busy worker is revoked exactly at
//!   `last_beat + lease_timeout`, where `last_beat` is the last beat
//!   strictly before the fault, or the claim time if there was none.
//!   Faults are scheduled before any claim, so they win ties with beats
//!   and commits. The fault schedules that one revoke.
//! * `fleet.heartbeats` counts the beats strictly before the commit or
//!   the fault.
//!
//! Commits and revokes carry the worker's lease token; any state
//! transition bumps the token, so a stale event no-ops. The commit only
//! lands while the worker is up and the token current — a crawl
//! interrupted by a crash or hang is computed but never committed, so a
//! report is convicted at most once.
//!
//! # Fault semantics
//!
//! * [`WorkerFault::Crash`] — the process dies now. A busy worker's
//!   lease expires as above and the report is requeued; an idle worker
//!   is detected by the same liveness bound, `lease_timeout` after the
//!   crash. Restart follows `restart_delay` later.
//! * [`WorkerFault::Hang`] — the process wedges mid-crawl: same
//!   detection and recovery as a crash, but only bites while busy.
//! * [`WorkerFault::Restart`] — a graceful recycle: in-flight work
//!   commits first, nothing is requeued, the worker is simply
//!   unavailable for `restart_delay`.
//!
//! A restart resets the engine's per-run caches and nothing else: steal
//! victims come from the fleet's one `fleet-steal` stream whichever
//! worker draws them.
//!
//! # Determinism
//!
//! Every event is scheduled at a virtual time computed from config and
//! prior events, and fault times come from a pre-validated
//! [`WorkerFaultPlan`], so a run with faults is as replayable as one
//! without at any `PHISHSIM_SWEEP_THREADS`.

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

    /// Beats a worker that claimed its report at `claimed_at` sends
    /// strictly before `until`.
    fn beats_before(&self, claimed_at: SimTime, until: SimTime) -> u64 {
        let held = until.since(claimed_at).as_millis();
        held.saturating_sub(1) / self.heartbeat_every.as_millis()
    }
}

/// A claimed report whose crawl is in flight: the computed-but-
/// uncommitted outcome and when its lease began.
struct InFlight {
    outcome: FleetOutcome,
    /// Detection delay in minutes, precomputed from the engine outcome
    /// (committed into the histogram only if the crawl commits).
    detection_mins: Option<u64>,
    /// When the worker claimed the report; its beats follow every
    /// `heartbeat_every` from here.
    claimed_at: SimTime,
}

/// One worker as the supervisor sees it.
#[derive(Default)]
struct WorkerState {
    /// Lease generation: bumped on claim, revoke, commit, and restart,
    /// so events from a previous lease cannot act on the current one.
    token: u64,
    busy: Option<InFlight>,
    /// Crashed, hung, or recycling — not eligible for work.
    downed: bool,
    /// When the current outage began (crash/hang only; recovery
    /// latency is observed from here at restart).
    crashed_at: Option<SimTime>,
    /// A graceful restart was requested mid-crawl; recycle after the
    /// commit lands.
    pending_restart: bool,
}

/// Fleet-level supervision state.
pub(super) struct SupervisorState {
    cfg: SupervisorConfig,
    workers: Vec<WorkerState>,
    /// Engine crawls per report (claims, not redeliveries), by index.
    attempts: Vec<u32>,
    poisoned: Vec<u32>,
    duplicate_crawls: u64,
    recovery_ms: LogHistogram,
}

impl SupervisorState {
    pub(super) fn new(cfg: SupervisorConfig, workers: usize, reports: usize) -> Self {
        SupervisorState {
            cfg: cfg.validated(),
            workers: std::iter::repeat_with(WorkerState::default)
                .take(workers)
                .collect(),
            attempts: vec![0; reports],
            poisoned: Vec::new(),
            duplicate_crawls: 0,
            recovery_ms: LogHistogram::default(),
        }
    }

    /// Tear down into the pieces [`FleetResult`] carries.
    pub(super) fn into_result_parts(mut self) -> (Vec<u32>, u64, LogHistogram) {
        self.poisoned.sort_unstable();
        (self.poisoned, self.duplicate_crawls, self.recovery_ms)
    }
}

impl Fleet<'_> {
    /// Worker `w` looks for work: claim the next report, parking poison
    /// reports (crawl budget exhausted) along the way; idle if the
    /// queues are dry.
    pub(super) fn dispatch(
        &mut self,
        engine: &mut Engine,
        t: &mut dyn Transport,
        w: u32,
        now: SimTime,
    ) {
        self.idle.remove(&w);
        if self.sup.workers[w as usize].downed {
            return;
        }
        let arrivals = self.arrivals;
        while let Some((report, stolen)) = self.find_work(w) {
            let idx = report.idx;
            let attempts = self.sup.attempts[idx as usize];
            if attempts >= self.sup.cfg.max_crawl_attempts {
                self.sup.poisoned.push(idx);
                self.counters.incr("fleet.poisoned");
                self.obs
                    .point("fleet.poisoned", &arrivals[idx as usize].feed, now);
                self.end_report_span(idx, now);
                continue;
            }
            self.sup.attempts[idx as usize] = attempts + 1;
            if attempts > 0 {
                self.sup.duplicate_crawls += 1;
                self.counters.incr("fleet.duplicate_crawls");
            }
            return self.claim(engine, t, w, report, stolen, now);
        }
        self.idle.insert(w);
    }

    /// Worker `w` claims `report` at `now`: run the crawl eagerly (the
    /// outcome is a pure function of the report key), hold the outcome
    /// uncommitted, and schedule its commit.
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
        if stolen {
            self.counters.incr("fleet.stolen");
            self.obs.point("fleet.steal", &arrival.feed, now);
        }
        self.egress
            .fill_pool(w as usize, dispatched_at, engine.crawl_pool_mut());
        // The crawl span brackets the engine call, so host-time taps
        // can time it; its simulated end is the completion time. A
        // crawl whose lease is later revoked is marked by the
        // `lease.revoke` point.
        let report_span = self.spans[report.idx as usize];
        let crawl_span = self.obs.span_start(
            (report_span != SpanId::NONE).then_some(report_span),
            "fleet.crawl",
            &arrival.feed,
            dispatched_at,
        );
        let outcome = engine.process_report_keyed(
            t,
            &arrival.url,
            dispatched_at,
            self.cfg.volume_scale,
            report.idx as usize,
        );
        let completed_at = dispatched_at + self.cfg.service.occupancy(outcome.requests_made);
        self.obs.span_end(crawl_span, completed_at);
        let ws = &mut self.sup.workers[w as usize];
        ws.token += 1;
        ws.busy = Some(InFlight {
            outcome: FleetOutcome {
                idx: report.idx,
                worker: w,
                stolen,
                arrived_at: arrival.at,
                dispatched_at,
                completed_at,
                queue_wait_ms: now.since(arrival.at).as_millis(),
                throttle_ms: dispatched_at.since(now).as_millis(),
                redeliveries: self.redeliveries.get(&report.idx).copied().unwrap_or(0),
                detected_at: outcome.detected_at,
                requests_made: outcome.requests_made,
            },
            detection_mins: outcome.detection_delay().map(|d| d.as_millis() / 60_000),
            claimed_at: now,
        });
        let token = ws.token;
        self.sched
            .schedule_at(completed_at, FleetEvent::Commit { worker: w, token });
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
        let ws = &mut self.sup.workers[w as usize];
        if ws.token != token || ws.downed {
            return;
        }
        let Some(f) = ws.busy.take() else { return };
        ws.token += 1;
        let recycle = std::mem::take(&mut ws.pending_restart);
        if recycle {
            ws.downed = true;
        }
        self.count_beats(f.claimed_at, now);
        let idx = f.outcome.idx;
        self.obs
            .point("fleet.verdict", &self.arrivals[idx as usize].feed, now);
        self.end_report_span(idx, now);
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
                .schedule_at(now + self.sup.cfg.restart_delay, FleetEvent::Restart(w));
        } else {
            self.dispatch(engine, t, w, now);
        }
    }

    /// A scheduled worker fault fires.
    pub(super) fn on_fault(&mut self, w: u32, fault: WorkerFault, now: SimTime) {
        let cfg = &self.sup.cfg;
        let (lease_timeout, restart_delay) = (cfg.lease_timeout, cfg.restart_delay);
        let ws = &mut self.sup.workers[w as usize];
        if ws.downed {
            return; // already down; the fault hits a dead process
        }
        let busy = ws.busy.as_ref().map(|f| f.claimed_at);
        match fault {
            WorkerFault::Crash | WorkerFault::Hang => {
                if fault == WorkerFault::Hang && busy.is_none() {
                    // Nothing to wedge: an idle hang is unobservable.
                    return;
                }
                ws.downed = true;
                ws.crashed_at = Some(now);
                let token = ws.token;
                let (counter, point) = match fault {
                    WorkerFault::Crash => ("fleet.faults.crash", "worker.crash"),
                    _ => ("fleet.faults.hang", "worker.hang"),
                };
                self.counters.incr(counter);
                self.worker_point(point, w, now);
                match busy {
                    // The beats stop now: the lease runs out one
                    // timeout after the last beat before the fault.
                    Some(claimed_at) => {
                        let beats = self.count_beats(claimed_at, now);
                        let last_beat = claimed_at
                            + SimDuration::from_millis(
                                beats * self.sup.cfg.heartbeat_every.as_millis(),
                            );
                        self.sched.schedule_at(
                            last_beat + lease_timeout,
                            FleetEvent::Revoke { worker: w, token },
                        );
                    }
                    // No lease to miss: the supervisor's generic
                    // liveness probe detects an idle death within the
                    // same lease-timeout bound.
                    None => {
                        self.idle.remove(&w);
                        self.sched.schedule_at(
                            now + lease_timeout + restart_delay,
                            FleetEvent::Restart(w),
                        );
                    }
                }
            }
            WorkerFault::Restart => {
                self.counters.incr("fleet.faults.restart");
                if busy.is_some() {
                    ws.pending_restart = true;
                } else {
                    ws.downed = true;
                    self.idle.remove(&w);
                    self.sched
                        .schedule_at(now + restart_delay, FleetEvent::Restart(w));
                }
            }
        }
    }

    /// A downed worker's lease runs out: requeue its report and
    /// schedule the restart.
    pub(super) fn on_revoke(&mut self, w: u32, token: u64, now: SimTime) {
        let ws = &mut self.sup.workers[w as usize];
        if ws.token != token {
            return;
        }
        let Some(f) = ws.busy.take() else { return };
        ws.token += 1;
        let idx = f.outcome.idx;
        self.counters.incr("fleet.lease_revoked");
        self.worker_point("lease.revoke", w, now);
        let tries = self.redeliveries.get(&idx).copied().unwrap_or(0) + 1;
        self.counters.incr("fleet.requeued");
        self.sched
            .schedule_at(now, FleetEvent::Redeliver { idx, tries });
        self.sched
            .schedule_at(now + self.sup.cfg.restart_delay, FleetEvent::Restart(w));
    }

    /// A worker comes back up with cold per-run engine caches, then
    /// goes straight back to work.
    pub(super) fn on_restart(
        &mut self,
        engine: &mut Engine,
        t: &mut dyn Transport,
        w: u32,
        now: SimTime,
    ) {
        let ws = &mut self.sup.workers[w as usize];
        ws.token += 1;
        ws.downed = false;
        ws.pending_restart = false;
        ws.busy = None;
        let recovered = ws.crashed_at.take();
        engine.reset_run_caches();
        self.counters.incr("fleet.restarts");
        self.worker_point("worker.restart", w, now);
        if let Some(c) = recovered {
            let ms = now.since(c).as_millis();
            self.sup.recovery_ms.record(ms);
            self.obs.observe("fleet.recovery_ms", ms);
        }
        self.dispatch(engine, t, w, now);
    }

    /// Count the beats of a lease claimed at `claimed_at` that fell
    /// strictly before `until`, and return them.
    fn count_beats(&mut self, claimed_at: SimTime, until: SimTime) -> u64 {
        let beats = self.sup.cfg.beats_before(claimed_at, until);
        if beats > 0 {
            self.counters.add("fleet.heartbeats", beats);
        }
        beats
    }

    /// A point whose actor is worker `w` (the label is only formatted
    /// when the sink records).
    fn worker_point(&self, name: &str, w: u32, now: SimTime) {
        if self.obs.enabled() {
            self.obs.point(name, &format!("w{w}"), now);
        }
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
    use phishsim_simnet::{ObsKind, ScheduledWorkerFault};

    fn deploy(prefix: &str, seed: u64, hosts: usize) -> (DirectTransport, Vec<Url>) {
        let mut vhosts = VirtualHosting::new();
        let mut urls = Vec::new();
        for i in 0..hosts {
            let host = format!("{prefix}-{i}.com");
            let rng = DetRng::new(seed + i as u64);
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
            ..FleetConfig::default()
        }
    }

    fn run_with_faults(cfg: &FleetConfig, n: usize, spacing_ms: u64) -> FleetResult {
        let (mut t, urls) = deploy("fleet-sup", 41_000, 6);
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
            worker_faults: WorkerFaultPlan {
                faults: vec![crash(0, 1_000)],
            },
            ..supervised_cfg()
        }
        .with_supervisor(SupervisorConfig {
            max_crawl_attempts: 1,
            ..SupervisorConfig::default()
        });
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

    /// What the supervisor did in one lease-pin scenario.
    #[derive(Debug, PartialEq)]
    struct LeasePin {
        /// When each `lease.revoke` fired, in ms.
        revokes: Vec<u64>,
        /// `fleet.recovery_ms`: (count, sum).
        recovery_ms: (u64, u64),
        heartbeats: u64,
        requeued: u64,
        duplicate_crawls: u64,
    }

    /// One worker (no stealing) crawling reports arriving at `reports`
    /// (ms) with a flat 10 s occupancy — so a crawl claimed at `c`
    /// beats at `c + 1 s, c + 2 s, …` and completes at `c + 10 s` —
    /// under worker-0 faults at `faults` (ms).
    fn lease_pin(faults: &[(u64, WorkerFault)], reports: &[u64]) -> LeasePin {
        let (mut t, urls) = deploy("lease-pin", 5_100, reports.len());
        let arrivals: Vec<ReportArrival> = reports
            .iter()
            .zip(&urls)
            .map(|(&at, url)| ReportArrival {
                url: url.clone(),
                at: SimTime::from_millis(at),
                feed: "pin".into(),
                reputation: 500,
            })
            .collect();
        let cfg = FleetConfig {
            workers: 1,
            steal_attempts: 0,
            egress_identities: 4,
            egress_per_report: 2,
            volume_scale: 0.0,
            service: ServiceModel {
                base: SimDuration::from_secs(10),
                per_request_ms: 0,
            },
            worker_faults: WorkerFaultPlan {
                faults: faults
                    .iter()
                    .map(|&(at, fault)| ScheduledWorkerFault {
                        worker: 0,
                        at: SimTime::from_millis(at),
                        fault,
                    })
                    .collect(),
            }
            .validated(),
            ..FleetConfig::default()
        }
        .with_supervisor(SupervisorConfig {
            heartbeat_every: SimDuration::from_secs(1),
            lease_timeout: SimDuration::from_secs(3),
            restart_delay: SimDuration::from_secs(2),
            ..SupervisorConfig::default()
        });
        let rng = DetRng::new(61);
        let mut engine = Engine::new(EngineId::Gsb, &rng);
        let sink = ObsSink::memory();
        let r = run_fleet(
            &mut engine,
            &mut t,
            &cfg,
            &arrivals,
            &rng.fork("fleet"),
            &sink,
        );
        LeasePin {
            revokes: sink
                .events()
                .iter()
                .filter(
                    |e| matches!(&e.kind, ObsKind::Point { name, .. } if name == "lease.revoke"),
                )
                .map(|e| e.at.as_millis())
                .collect(),
            recovery_ms: (r.recovery_ms.count, r.recovery_ms.sum),
            heartbeats: r.counters.get("fleet.heartbeats"),
            requeued: r.counters.get("fleet.requeued"),
            duplicate_crawls: r.duplicate_crawls,
        }
    }

    fn pin(
        revokes: &[u64],
        recovery_ms: (u64, u64),
        heartbeats: u64,
        requeued: u64,
        duplicate_crawls: u64,
    ) -> LeasePin {
        LeasePin {
            revokes: revokes.to_vec(),
            recovery_ms,
            heartbeats,
            requeued,
            duplicate_crawls,
        }
    }

    /// Revoke times, recovery latencies and beat counts of crashed and
    /// hung leases, pinned from the timer-driven supervisor (one
    /// heartbeat event per beat, a re-arming lease check per claim)
    /// that the lease arithmetic replaced.
    #[test]
    fn lease_arithmetic_matches_the_timer_driven_supervisor() {
        use WorkerFault::{Crash, Hang, Restart};
        // Every requeued crawl is claimed again at its restart and
        // beats 9 more times before it commits.
        let cases = [
            ("healthy lease", vec![], vec![0], pin(&[], (0, 0), 9, 0, 0)),
            (
                "crash before the first beat",
                vec![(500, Crash)],
                vec![0],
                pin(&[3_000], (1, 4_500), 9, 1, 1),
            ),
            (
                "hang between beats",
                vec![(2_500, Hang)],
                vec![0],
                pin(&[5_000], (1, 4_500), 11, 1, 1),
            ),
            (
                "crash exactly on a beat",
                vec![(3_000, Crash)],
                vec![0],
                pin(&[5_000], (1, 4_000), 11, 1, 1),
            ),
            (
                "hang exactly on a beat",
                vec![(7_000, Hang)],
                vec![0],
                pin(&[9_000], (1, 4_000), 15, 1, 1),
            ),
            (
                "crash on the completion instant",
                vec![(10_000, Crash)],
                vec![0],
                pin(&[12_000], (1, 4_000), 18, 1, 1),
            ),
            (
                "hang on the completion instant",
                vec![(10_000, Hang)],
                vec![0],
                pin(&[12_000], (1, 4_000), 18, 1, 1),
            ),
            (
                "crash with a graceful restart pending",
                vec![(4_000, Restart), (6_500, Crash)],
                vec![0],
                pin(&[9_000], (1, 4_500), 15, 1, 1),
            ),
            (
                "hang on a beat with a graceful restart pending",
                vec![(4_000, Restart), (6_000, Hang)],
                vec![0],
                pin(&[8_000], (1, 4_000), 14, 1, 1),
            ),
            (
                "crash with a report queued behind the lease",
                vec![(2_500, Crash)],
                vec![0, 1_000],
                pin(&[5_000], (1, 4_500), 20, 1, 1),
            ),
            (
                "idle crash",
                vec![(12_000, Crash)],
                vec![0, 13_000],
                pin(&[], (1, 5_000), 18, 0, 0),
            ),
        ];
        for (name, faults, reports, want) in cases {
            assert_eq!(lease_pin(&faults, &reports), want, "{name}");
        }
    }
}
