//! Link models: latency, loss, and fault injection.
//!
//! Every simulated HTTP exchange crosses a [`Link`], which samples a
//! round-trip latency and may drop the exchange entirely. Fault injection
//! follows the smoltcp examples: configurable drop chance and rate
//! limiting, so tests can exercise how the experiment framework behaves
//! under adverse network conditions (e.g. a crawler visit that never
//! arrives).
//!
//! The fault taxonomy distinguishes *transient* outcomes a client may
//! retry (drops, server error responses, outage windows) from *content*
//! faults that deliver a damaged payload (truncation) — the consumer
//! decides what each outcome means for its protocol. All probabilities
//! are validated on construction: NaN is treated as 0 and values are
//! clamped into `[0, 1]`.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A latency distribution for one direction of a link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Always exactly this latency.
    Constant(SimDuration),
    /// Uniform between the two bounds (inclusive of low, exclusive of high).
    Uniform(SimDuration, SimDuration),
    /// Truncated normal: mean, standard deviation, and a floor; useful for
    /// Internet-path RTTs which cluster around a mean with a long tail.
    Normal {
        /// Mean latency.
        mean: SimDuration,
        /// Standard deviation.
        std_dev: SimDuration,
        /// Values below this floor are clamped up to it.
        floor: SimDuration,
    },
}

impl LatencyModel {
    /// Sample a latency from the model.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform(lo, hi) => {
                assert!(lo <= hi, "uniform latency bounds inverted");
                if lo == hi {
                    *lo
                } else {
                    SimDuration::from_millis(rng.range(lo.as_millis()..hi.as_millis()))
                }
            }
            LatencyModel::Normal {
                mean,
                std_dev,
                floor,
            } => {
                let v = rng.normal_clamped(
                    mean.as_millis() as f64,
                    std_dev.as_millis() as f64,
                    floor.as_millis() as f64,
                    (mean.as_millis() as f64) * 10.0 + 1.0,
                );
                SimDuration::from_millis(v as u64)
            }
        }
    }

    /// A typical intra-European Internet path (the paper hosted in one
    /// European country; most crawlers are a few dozen ms away).
    pub fn internet_default() -> Self {
        LatencyModel::Normal {
            mean: SimDuration::from_millis(45),
            std_dev: SimDuration::from_millis(15),
            floor: SimDuration::from_millis(5),
        }
    }
}

/// A half-open interval `[from, until)` during which a server is down.
///
/// Exchanges attempted inside the window fail deterministically (no RNG
/// draw): outages model scheduled maintenance or a crashed process, not
/// random loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// First instant of the outage.
    pub from: SimTime,
    /// First instant *after* the outage (exclusive bound).
    pub until: SimTime,
}

impl OutageWindow {
    /// Construct a window covering `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        OutageWindow { from, until }
    }

    /// Whether `t` falls inside the outage.
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }

    /// Length of the window (zero if the bounds are inverted).
    pub fn duration(&self) -> SimDuration {
        self.until.since(self.from)
    }
}

/// What happens to a fleet worker when a scheduled fault fires.
///
/// Transport faults (above) damage *traffic*; worker faults damage the
/// *process* doing the crawling. The distinction matters for recovery:
/// a dropped exchange is retried by the same worker, while a crashed
/// worker needs a supervisor to notice the silence, revoke its lease,
/// and requeue whatever it had claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerFault {
    /// The worker process dies instantly. Any in-flight crawl is lost
    /// and only a missed heartbeat reveals the death.
    Crash,
    /// The worker wedges mid-crawl: it keeps heart-beating nothing and
    /// never commits a verdict, so only lease expiry reclaims its work.
    /// A hang scheduled while the worker is idle is a no-op.
    Hang,
    /// A graceful restart: the worker finishes its in-flight crawl,
    /// then recycles with cold per-run caches and a fresh RNG fork.
    Restart,
}

impl WorkerFault {
    /// Stable key for counters and result tables.
    pub fn key(self) -> &'static str {
        match self {
            WorkerFault::Crash => "crash",
            WorkerFault::Hang => "hang",
            WorkerFault::Restart => "restart",
        }
    }
}

/// One fault scheduled against one worker at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledWorkerFault {
    /// Fleet worker the fault targets.
    pub worker: u32,
    /// Virtual time at which the fault fires.
    pub at: SimTime,
    /// What happens to the worker.
    pub fault: WorkerFault,
}

/// A deterministic schedule of worker faults for one run.
///
/// The plan is data, not a random process: every fault is pinned to a
/// `(worker, at)` pair before the run starts, so the same plan replays
/// byte-identically regardless of sweep threading. Use
/// [`WorkerFaultPlan::generate`] to synthesize a plan from a rate.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerFaultPlan {
    /// The scheduled faults, sorted by `(at, worker)`.
    pub faults: Vec<ScheduledWorkerFault>,
}

impl WorkerFaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        WorkerFaultPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Faults scheduled against `worker`, in schedule order.
    pub fn for_worker(&self, worker: u32) -> impl Iterator<Item = &ScheduledWorkerFault> {
        self.faults.iter().filter(move |f| f.worker == worker)
    }

    /// Return a copy sorted by `(at, worker, fault-kind)` so plans
    /// built from unordered sources schedule deterministically.
    pub fn validated(mut self) -> Self {
        self.faults.sort_by_key(|f| (f.at, f.worker, f.fault.key()));
        self
    }

    /// Synthesize a plan from a per-worker fault probability.
    ///
    /// Each of `workers` workers independently suffers `fault` with
    /// probability `per_worker_chance` (clamped into `[0, 1]`), at a
    /// time drawn uniformly over `[0, horizon)`. The draw order is
    /// fixed (one chance draw, then one time draw per faulty worker),
    /// so a given `(rng, workers, horizon, chance)` always yields the
    /// same plan — a "1% crash rate" is one deterministic plan, not a
    /// distribution.
    pub fn generate(
        rng: &DetRng,
        workers: u32,
        horizon: SimTime,
        per_worker_chance: f64,
        fault: WorkerFault,
    ) -> Self {
        let chance = clamp_probability(per_worker_chance);
        let mut rng = rng.fork(&format!("worker-faults:{}:{workers}", fault.key()));
        let span = horizon.as_millis().max(1);
        let mut faults = Vec::new();
        for worker in 0..workers {
            if rng.chance(chance) {
                let at = SimTime::from_millis(rng.range(0..span));
                faults.push(ScheduledWorkerFault { worker, at, fault });
            }
        }
        WorkerFaultPlan { faults }.validated()
    }
}

/// One scheduled outage against one mirror of a distribution tier.
///
/// The feedserve mirror tier (origin → regional mirrors → clients)
/// fails per *mirror*, not per link: a regional edge going dark takes
/// down every client homed on it while the rest of the tier keeps
/// serving. Like [`ScheduledWorkerFault`], the outage is data pinned
/// before the run starts, so plans replay byte-identically at any
/// sweep threading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierOutage {
    /// Index of the mirror the outage targets.
    pub mirror: u32,
    /// The downtime window `[from, until)`.
    pub window: OutageWindow,
}

/// A deterministic schedule of per-mirror outages for one tier.
///
/// The chaos hook for tiered feed distribution: the population
/// simulator consults the plan on every client→mirror exchange and on
/// every mirror→origin refresh, so staleness under partial-tier loss
/// falls out of the same half-open window semantics the flat
/// [`FaultInjector::outages`] use.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierOutagePlan {
    /// The scheduled outages, sorted by `(window.from, mirror)`.
    pub outages: Vec<TierOutage>,
}

impl TierOutagePlan {
    /// A plan with no outages.
    pub fn none() -> Self {
        TierOutagePlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// Number of scheduled outages.
    pub fn len(&self) -> usize {
        self.outages.len()
    }

    /// Whether `mirror` is inside one of its outage windows at `t`.
    /// Inline: a feed walk asks on every client exchange, and an empty
    /// plan then costs one compare.
    #[inline]
    pub fn down_at(&self, mirror: u32, t: SimTime) -> bool {
        self.outages
            .iter()
            .any(|o| o.mirror == mirror && o.window.contains(t))
    }

    /// Return a copy with inverted windows dropped and the rest sorted
    /// by `(from, mirror)` so plans built from unordered sources
    /// schedule deterministically.
    pub fn validated(mut self) -> Self {
        self.outages.retain(|o| o.window.from < o.window.until);
        self.outages.sort_by_key(|o| (o.window.from, o.mirror));
        self
    }

    /// Synthesize a plan from a per-mirror outage probability.
    ///
    /// Each of `mirrors` mirrors independently suffers one outage of
    /// `duration` with probability `per_mirror_chance` (clamped into
    /// `[0, 1]`), starting at a time drawn uniformly over
    /// `[0, horizon)`. The draw order is fixed (one chance draw, then
    /// one start draw per down mirror), so a given
    /// `(rng, mirrors, horizon, chance, duration)` always yields the
    /// same plan.
    pub fn generate(
        rng: &DetRng,
        mirrors: u32,
        horizon: SimTime,
        per_mirror_chance: f64,
        duration: SimDuration,
    ) -> Self {
        let chance = clamp_probability(per_mirror_chance);
        let mut rng = rng.fork(&format!("tier-outages:{mirrors}"));
        let span = horizon.as_millis().max(1);
        let mut outages = Vec::new();
        for mirror in 0..mirrors {
            if rng.chance(chance) {
                let from = SimTime::from_millis(rng.range(0..span));
                outages.push(TierOutage {
                    mirror,
                    window: OutageWindow::new(from, from + duration),
                });
            }
        }
        TierOutagePlan { outages }.validated()
    }
}

/// Random faults applied to traffic crossing a link.
///
/// Probabilities outside `[0, 1]` (including NaN) are clamped by
/// [`FaultInjector::validated`], which every constructor applies.
/// Struct-literal construction is still possible because the fields are
/// public; consumers that accept externally-built injectors should call
/// `validated()` before use.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultInjector {
    /// Probability in `[0, 1]` that an exchange is dropped outright.
    pub drop_chance: f64,
    /// Probability in `[0, 1]` that an exchange is duplicated (delivered
    /// twice; relevant for idempotence of report intake).
    pub duplicate_chance: f64,
    /// Probability in `[0, 1]` that the server answers with a transient
    /// error response (a 5xx-style failure the client may retry).
    pub error_chance: f64,
    /// Probability in `[0, 1]` that a delivered response is truncated in
    /// flight, corrupting the payload the client parses.
    pub truncate_chance: f64,
    /// Extra latency added to a random subset of exchanges, modelling
    /// transient congestion: `(probability, extra_delay)`.
    pub congestion: Option<(f64, SimDuration)>,
    /// Scheduled windows during which the far end is down entirely.
    pub outages: Vec<OutageWindow>,
    /// Scheduled faults against individual fleet workers.
    pub worker_faults: WorkerFaultPlan,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::none()
    }
}

/// Outcome of passing one exchange through a fault injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver normally with the given extra delay.
    Deliver {
        /// Additional latency injected by congestion, if any.
        extra_delay: SimDuration,
        /// Whether the exchange should be delivered a second time.
        duplicated: bool,
        /// Whether the response payload is truncated in flight.
        truncated: bool,
    },
    /// The server answered with a transient error response; the client
    /// may retry.
    ErrorResponse,
    /// The exchange is lost.
    Dropped,
    /// The exchange fell inside a scheduled outage window; the server
    /// is down and every attempt until the window closes will fail.
    Outage,
}

/// Clamp a probability into `[0, 1]`, mapping NaN to 0.
fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

impl FaultInjector {
    /// No faults at all (the default for calibrated experiment runs).
    pub fn none() -> Self {
        FaultInjector {
            drop_chance: 0.0,
            duplicate_chance: 0.0,
            error_chance: 0.0,
            truncate_chance: 0.0,
            congestion: None,
            outages: Vec::new(),
            worker_faults: WorkerFaultPlan::none(),
        }
    }

    /// A lossy profile useful in robustness tests.
    pub fn lossy(drop_chance: f64) -> Self {
        FaultInjector {
            drop_chance,
            ..FaultInjector::none()
        }
        .validated()
    }

    /// The chaos preset used by the resilience experiment: moderate loss,
    /// occasional error responses and truncation, mild congestion, and a
    /// duplicate rate high enough to exercise intake idempotence.
    pub fn chaos_profile() -> Self {
        FaultInjector {
            drop_chance: 0.15,
            duplicate_chance: 0.05,
            error_chance: 0.05,
            truncate_chance: 0.02,
            congestion: Some((0.10, SimDuration::from_millis(750))),
            outages: Vec::new(),
            worker_faults: WorkerFaultPlan::none(),
        }
        .validated()
    }

    /// Add a scheduled outage window.
    pub fn with_outage(mut self, window: OutageWindow) -> Self {
        self.outages.push(window);
        self
    }

    /// Attach a schedule of worker faults (validated on entry).
    pub fn with_worker_faults(mut self, plan: WorkerFaultPlan) -> Self {
        self.worker_faults = plan.validated();
        self
    }

    /// Return a copy with every probability clamped into `[0, 1]` (NaN
    /// becomes 0) and inverted outage windows discarded. Constructors
    /// apply this; call it yourself when accepting struct-literal configs.
    pub fn validated(mut self) -> Self {
        self.drop_chance = clamp_probability(self.drop_chance);
        self.duplicate_chance = clamp_probability(self.duplicate_chance);
        self.error_chance = clamp_probability(self.error_chance);
        self.truncate_chance = clamp_probability(self.truncate_chance);
        if let Some((p, d)) = self.congestion {
            self.congestion = Some((clamp_probability(p), d));
        }
        self.outages.retain(|w| w.from < w.until);
        self.worker_faults = std::mem::take(&mut self.worker_faults).validated();
        self
    }

    /// Whether any scheduled outage covers `t`.
    pub fn in_outage(&self, t: SimTime) -> bool {
        self.outages.iter().any(|w| w.contains(t))
    }

    /// Whether this injector can never produce a fault (the `none()`
    /// configuration, regardless of how it was built).
    pub fn is_none(&self) -> bool {
        self.drop_chance <= 0.0
            && self.duplicate_chance <= 0.0
            && self.error_chance <= 0.0
            && self.truncate_chance <= 0.0
            && self.congestion.is_none_or(|(p, _)| p <= 0.0)
            && self.outages.is_empty()
            && self.worker_faults.is_empty()
    }

    /// Decide the fate of one exchange, ignoring outage windows (for
    /// callers without a clock). Prefer [`FaultInjector::apply_at`].
    ///
    /// Draw order is fixed (drop, error, congestion, duplicate,
    /// truncate) and each draw is skipped entirely when its probability
    /// is 0, so a `none()` injector consumes no RNG at all.
    pub fn apply(&self, rng: &mut DetRng) -> FaultOutcome {
        if rng.chance(self.drop_chance) {
            return FaultOutcome::Dropped;
        }
        if rng.chance(self.error_chance) {
            return FaultOutcome::ErrorResponse;
        }
        let extra_delay = match self.congestion {
            Some((p, d)) if rng.chance(p) => d,
            _ => SimDuration::ZERO,
        };
        FaultOutcome::Deliver {
            extra_delay,
            duplicated: rng.chance(self.duplicate_chance),
            truncated: rng.chance(self.truncate_chance),
        }
    }

    /// Decide the fate of one exchange attempted at `now`. Outage
    /// windows are consulted first and deterministically (no RNG draw);
    /// outside an outage this behaves exactly like
    /// [`FaultInjector::apply`].
    pub fn apply_at(&self, rng: &mut DetRng, now: SimTime) -> FaultOutcome {
        if self.in_outage(now) {
            return FaultOutcome::Outage;
        }
        self.apply(rng)
    }
}

/// Configuration of a bidirectional link between two network actors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkConfig {
    /// One-way latency model (applied twice for a round trip).
    pub latency: LatencyModel,
    /// Fault injection profile.
    pub faults: FaultInjector,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: LatencyModel::internet_default(),
            faults: FaultInjector::none(),
        }
    }
}

/// A live link with its own RNG stream.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    rng: DetRng,
}

/// The result of sending one request/response exchange across a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeResult {
    /// The exchange completed with this round-trip time.
    Completed {
        /// Total round-trip time including injected congestion delay.
        rtt: SimDuration,
        /// Whether fault injection duplicated the delivery.
        duplicated: bool,
        /// Whether the response payload arrived truncated.
        truncated: bool,
    },
    /// The server answered, but with a transient error; the RTT was
    /// still paid.
    Errored {
        /// Round trip consumed by the failed exchange.
        rtt: SimDuration,
    },
    /// The exchange was lost to fault injection.
    Lost,
    /// The far end is inside a scheduled outage window.
    Down,
}

impl Link {
    /// Create a link from a config, forking the RNG under a stable label.
    /// The fault profile is validated (probabilities clamped) on entry.
    pub fn new(mut config: LinkConfig, rng: &DetRng, label: &str) -> Self {
        config.faults = config.faults.validated();
        Link {
            config,
            rng: rng.fork(&format!("link:{label}")),
        }
    }

    /// Simulate one request/response exchange, returning its RTT or loss.
    /// Outage windows are ignored (no clock); see
    /// [`Link::exchange_at`].
    pub fn exchange(&mut self) -> ExchangeResult {
        self.exchange_inner(None)
    }

    /// Simulate one exchange attempted at `now`, honouring scheduled
    /// outage windows.
    pub fn exchange_at(&mut self, now: SimTime) -> ExchangeResult {
        self.exchange_inner(Some(now))
    }

    fn exchange_inner(&mut self, now: Option<SimTime>) -> ExchangeResult {
        let outcome = match now {
            Some(t) => self.config.faults.apply_at(&mut self.rng, t),
            None => self.config.faults.apply(&mut self.rng),
        };
        match outcome {
            FaultOutcome::Outage => ExchangeResult::Down,
            FaultOutcome::Dropped => ExchangeResult::Lost,
            FaultOutcome::ErrorResponse => {
                let out = self.config.latency.sample(&mut self.rng);
                let back = self.config.latency.sample(&mut self.rng);
                ExchangeResult::Errored { rtt: out + back }
            }
            FaultOutcome::Deliver {
                extra_delay,
                duplicated,
                truncated,
            } => {
                let out = self.config.latency.sample(&mut self.rng);
                let back = self.config.latency.sample(&mut self.rng);
                ExchangeResult::Completed {
                    rtt: out + back + extra_delay,
                    duplicated,
                    truncated,
                }
            }
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_is_constant() {
        let mut rng = DetRng::new(1);
        let m = LatencyModel::Constant(SimDuration::from_millis(30));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(30));
        }
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let mut rng = DetRng::new(2);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(50);
        let m = LatencyModel::Uniform(lo, hi);
        for _ in 0..200 {
            let s = m.sample(&mut rng);
            assert!(s >= lo && s < hi);
        }
        // Degenerate bounds.
        let m = LatencyModel::Uniform(lo, lo);
        assert_eq!(m.sample(&mut rng), lo);
    }

    #[test]
    fn normal_latency_respects_floor() {
        let mut rng = DetRng::new(3);
        let m = LatencyModel::Normal {
            mean: SimDuration::from_millis(20),
            std_dev: SimDuration::from_millis(50),
            floor: SimDuration::from_millis(5),
        };
        for _ in 0..500 {
            assert!(m.sample(&mut rng) >= SimDuration::from_millis(5));
        }
    }

    #[test]
    fn no_faults_always_delivers() {
        let mut rng = DetRng::new(4);
        let f = FaultInjector::none();
        for _ in 0..100 {
            assert!(matches!(f.apply(&mut rng), FaultOutcome::Deliver { .. }));
        }
    }

    #[test]
    fn full_drop_always_drops() {
        let mut rng = DetRng::new(5);
        let f = FaultInjector::lossy(1.0);
        for _ in 0..100 {
            assert_eq!(f.apply(&mut rng), FaultOutcome::Dropped);
        }
    }

    #[test]
    fn lossy_drop_rate_roughly_matches() {
        let mut rng = DetRng::new(6);
        let f = FaultInjector::lossy(0.15);
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| f.apply(&mut rng) == FaultOutcome::Dropped)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.15).abs() < 0.01, "drop rate {rate}");
    }

    #[test]
    fn congestion_adds_delay() {
        let mut rng = DetRng::new(7);
        let f = FaultInjector {
            congestion: Some((1.0, SimDuration::from_millis(500))),
            ..FaultInjector::none()
        };
        match f.apply(&mut rng) {
            FaultOutcome::Deliver { extra_delay, .. } => {
                assert_eq!(extra_delay, SimDuration::from_millis(500))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn validation_clamps_nan_and_out_of_range() {
        let f = FaultInjector {
            drop_chance: f64::NAN,
            duplicate_chance: 1.5,
            error_chance: -0.2,
            truncate_chance: 2.0,
            congestion: Some((f64::INFINITY, SimDuration::from_millis(1))),
            outages: vec![OutageWindow::new(
                SimTime::from_mins(5),
                SimTime::from_mins(2),
            )],
            worker_faults: WorkerFaultPlan::none(),
        }
        .validated();
        assert_eq!(f.drop_chance, 0.0);
        assert_eq!(f.duplicate_chance, 1.0);
        assert_eq!(f.error_chance, 0.0);
        assert_eq!(f.truncate_chance, 1.0);
        assert_eq!(f.congestion, Some((1.0, SimDuration::from_millis(1))));
        assert!(f.outages.is_empty(), "inverted outage windows are dropped");
    }

    #[test]
    fn error_chance_yields_error_responses() {
        let mut rng = DetRng::new(11);
        let f = FaultInjector {
            error_chance: 1.0,
            ..FaultInjector::none()
        };
        for _ in 0..20 {
            assert_eq!(f.apply(&mut rng), FaultOutcome::ErrorResponse);
        }
    }

    #[test]
    fn truncate_chance_marks_deliveries() {
        let mut rng = DetRng::new(12);
        let f = FaultInjector {
            truncate_chance: 1.0,
            ..FaultInjector::none()
        };
        match f.apply(&mut rng) {
            FaultOutcome::Deliver { truncated, .. } => assert!(truncated),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn outage_window_is_half_open_and_deterministic() {
        let mut rng = DetRng::new(13);
        let f = FaultInjector::none().with_outage(OutageWindow::new(
            SimTime::from_mins(10),
            SimTime::from_mins(20),
        ));
        assert!(matches!(
            f.apply_at(&mut rng, SimTime::from_mins(9)),
            FaultOutcome::Deliver { .. }
        ));
        assert_eq!(
            f.apply_at(&mut rng, SimTime::from_mins(10)),
            FaultOutcome::Outage
        );
        assert_eq!(
            f.apply_at(&mut rng, SimTime::from_mins(19)),
            FaultOutcome::Outage
        );
        assert!(matches!(
            f.apply_at(&mut rng, SimTime::from_mins(20)),
            FaultOutcome::Deliver { .. }
        ));
    }

    #[test]
    fn none_injector_consumes_no_rng() {
        // The zero-impact guarantee: a disabled injector must not draw
        // from the stream, so enabling the chaos layer cannot perturb
        // calibrated runs.
        let root = DetRng::new(14);
        let mut with_faults = root.fork("probe");
        let mut without = root.fork("probe");
        let f = FaultInjector::none();
        for i in 0..50 {
            let _ = f.apply_at(&mut with_faults, SimTime::from_mins(i));
        }
        use rand::RngCore;
        assert_eq!(with_faults.next_u64(), without.next_u64());
    }

    #[test]
    fn chaos_profile_is_valid_and_faulty() {
        let f = FaultInjector::chaos_profile();
        assert!(!f.is_none());
        for p in [
            f.drop_chance,
            f.duplicate_chance,
            f.error_chance,
            f.truncate_chance,
        ] {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn worker_fault_plan_sorts_and_marks_injector_faulty() {
        let plan = WorkerFaultPlan {
            faults: vec![
                ScheduledWorkerFault {
                    worker: 3,
                    at: SimTime::from_mins(10),
                    fault: WorkerFault::Crash,
                },
                ScheduledWorkerFault {
                    worker: 1,
                    at: SimTime::from_mins(2),
                    fault: WorkerFault::Hang,
                },
                ScheduledWorkerFault {
                    worker: 0,
                    at: SimTime::from_mins(10),
                    fault: WorkerFault::Restart,
                },
            ],
        };
        let f = FaultInjector::none().with_worker_faults(plan);
        assert!(!f.is_none(), "a scheduled worker fault is a fault");
        let order: Vec<(u32, u64)> = f
            .worker_faults
            .faults
            .iter()
            .map(|s| (s.worker, s.at.as_mins()))
            .collect();
        assert_eq!(order, vec![(1, 2), (0, 10), (3, 10)]);
        assert_eq!(f.worker_faults.for_worker(3).count(), 1);
    }

    #[test]
    fn worker_fault_generation_is_deterministic_and_rate_shaped() {
        let rng = DetRng::new(99);
        let horizon = SimTime::from_hours(4);
        let a = WorkerFaultPlan::generate(&rng, 1_000, horizon, 0.25, WorkerFault::Crash);
        let b = WorkerFaultPlan::generate(&rng, 1_000, horizon, 0.25, WorkerFault::Crash);
        assert_eq!(a, b, "same inputs must yield the same plan");
        let rate = a.len() as f64 / 1_000.0;
        assert!((rate - 0.25).abs() < 0.05, "fault rate {rate}");
        assert!(a.faults.iter().all(|f| f.at < horizon));
        // Degenerate rates.
        assert!(WorkerFaultPlan::generate(&rng, 64, horizon, 0.0, WorkerFault::Crash).is_empty());
        assert_eq!(
            WorkerFaultPlan::generate(&rng, 64, horizon, f64::NAN, WorkerFault::Hang).len(),
            0
        );
        assert_eq!(
            WorkerFaultPlan::generate(&rng, 64, horizon, 2.0, WorkerFault::Restart).len(),
            64
        );
    }

    #[test]
    fn tier_outage_plan_generates_deterministically_and_answers_down_at() {
        let rng = DetRng::new(7);
        let horizon = SimTime::from_hours(8);
        let dur = SimDuration::from_mins(45);
        let a = TierOutagePlan::generate(&rng, 500, horizon, 0.2, dur);
        let b = TierOutagePlan::generate(&rng, 500, horizon, 0.2, dur);
        assert_eq!(a, b, "same inputs must yield the same plan");
        let rate = a.len() as f64 / 500.0;
        assert!((rate - 0.2).abs() < 0.06, "outage rate {rate}");
        for o in &a.outages {
            assert_eq!(o.window.duration(), dur);
            assert!(a.down_at(o.mirror, o.window.from));
            assert!(!a.down_at(o.mirror, o.window.until), "half-open bound");
        }
        // A mirror with no scheduled outage is never down.
        let quiet = (0..500u32).find(|m| a.outages.iter().all(|o| o.mirror != *m));
        if let Some(m) = quiet {
            assert!(!a.down_at(m, SimTime::from_hours(1)));
        }
        assert!(TierOutagePlan::generate(&rng, 16, horizon, 0.0, dur).is_empty());
        assert_eq!(
            TierOutagePlan::generate(&rng, 16, horizon, 2.0, dur).len(),
            16
        );
    }

    #[test]
    fn tier_outage_plan_validation_drops_inverted_windows_and_sorts() {
        let plan = TierOutagePlan {
            outages: vec![
                TierOutage {
                    mirror: 2,
                    window: OutageWindow::new(SimTime::from_mins(30), SimTime::from_mins(40)),
                },
                TierOutage {
                    mirror: 9,
                    window: OutageWindow::new(SimTime::from_mins(50), SimTime::from_mins(10)),
                },
                TierOutage {
                    mirror: 0,
                    window: OutageWindow::new(SimTime::from_mins(5), SimTime::from_mins(25)),
                },
            ],
        }
        .validated();
        let order: Vec<u32> = plan.outages.iter().map(|o| o.mirror).collect();
        assert_eq!(order, vec![0, 2], "inverted window dropped, rest sorted");
    }

    #[test]
    fn injectors_round_trip_through_json_with_and_without_a_plan() {
        let plan = WorkerFaultPlan {
            faults: vec![ScheduledWorkerFault {
                worker: 2,
                at: SimTime::from_millis(1_500),
                fault: WorkerFault::Hang,
            }],
        };
        for f in [
            FaultInjector::none(),
            FaultInjector::chaos_profile().with_worker_faults(plan),
        ] {
            let json = serde_json::to_string(&f).unwrap();
            assert!(json.contains("\"worker_faults\""), "got {json}");
            let back: FaultInjector = serde_json::from_str(&json).unwrap();
            assert_eq!(back.worker_faults, f.worker_faults);
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn link_exchange_produces_rtt() {
        let rng = DetRng::new(8);
        let mut link = Link::new(LinkConfig::default(), &rng, "gsb->host");
        match link.exchange() {
            ExchangeResult::Completed { rtt, .. } => {
                assert!(rtt > SimDuration::ZERO);
                assert!(rtt < SimDuration::from_secs(5));
            }
            other => panic!("no-fault link failed an exchange: {other:?}"),
        }
    }

    #[test]
    fn link_is_deterministic_per_label() {
        let rng = DetRng::new(8);
        let mut a = Link::new(LinkConfig::default(), &rng, "x");
        let mut b = Link::new(LinkConfig::default(), &rng, "x");
        for _ in 0..10 {
            assert_eq!(a.exchange(), b.exchange());
        }
    }
}
