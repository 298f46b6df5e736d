//! The client-population simulator.
//!
//! The paper measures *listing time* — when a URL appears on a
//! blacklist. What decides victim exposure at scale is the second leg:
//! how long until each of the millions of deployed clients actually
//! *holds* that listing in its local prefix store. This module drives
//! N clients (default one million, cohort mode scales past fifty
//! million) with staggered, jittered update schedules against a
//! [`FeedServer`] timeline — optionally through a regional
//! [`MirrorTier`] — and reports population-level blind-window metrics:
//! the fraction of clients protected as a function of time since
//! listing, and mean/p50/p95/p99 per-client exposure windows per
//! listing event.
//!
//! ## Scale strategy
//!
//! Work flows through the shared work-stealing sweep runner
//! ([`phishsim_simnet::runner::run_sweep_with_threads`]). A full
//! [`crate::client::FeedClient`] per client would allocate a store per
//! sync (terabytes of traffic for 10⁷ syncs); instead each client's
//! state is compressed to its *version number* — sound because a
//! synced client's store is exactly the server's snapshot at that
//! version (the proptests in `tests/diff_properties.rs` pin
//! `apply(diff)` to snapshot equality), so "does client hold the
//! listing" reduces to `version >= first_version_containing(prefix)`.
//! Wire bytes are accounted from the servers' cached encoded sizes.
//! Every client derives its schedule from `fork_indexed(seed, index)`,
//! and batch results merge in input order, so the whole report is
//! byte-identical at any thread count.
//!
//! Two walk modes share one step function ([`walk_schedule`]):
//!
//! * **exact** — one weight-1 walk per client index (the default);
//! * **cohort** ([`PopulationConfig::cohorts`]) — clients collapse
//!   onto a quantized schedule grid ([`crate::cohort::CohortTable`])
//!   and each cohort walks once with every counter weighted by its
//!   size. Per-event exposures accumulate as weighted histograms
//!   rather than per-client vectors, which is what makes 50M+ clients
//!   fit in memory; the quantization error is bounded by
//!   [`crate::cohort::CohortSpec::error_bound`].

use crate::client::FeedClient;
use crate::cohort::{CohortSpec, CohortTable, COHORT_ROW_BYTES};
use crate::mirror::{MirrorConfig, MirrorTier};
use crate::server::{FeedServer, UpdateResponse};
use crate::store::prefix_of;
use phishsim_simnet::metrics::CounterSet;
use phishsim_simnet::runner::{run_sweep_with_threads, sweep_threads};
use phishsim_simnet::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Population-simulation knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of simulated clients.
    pub clients: usize,
    /// Root seed; client i's schedule comes from
    /// `DetRng::new(seed).fork_indexed("feedserve-client", i)`.
    pub seed: u64,
    /// Nominal update period (SB clients: ~30 minutes).
    pub base_period: SimDuration,
    /// Uniform ± jitter applied to each client's period.
    pub period_jitter: SimDuration,
    /// Simulation horizon.
    pub horizon: SimDuration,
    /// Clients per work-stealing batch of the exact walk (the cohort
    /// table build splits clients into one range per thread instead).
    pub batch: usize,
    /// Fraction of clients that re-fetch inside the minimum wait and
    /// get backed off (exercises the server's throttle path).
    pub aggressive_fraction: f64,
    /// Resolution of the protected-fraction curve.
    pub sample_every: SimDuration,
    /// How far past each listing the curve is sampled.
    pub sample_window: SimDuration,
    /// Chance that one update exchange is lost on the feed channel
    /// (the client treats it like an unanswered fetch and backs off).
    /// Defaults to 0.0, which consumes no RNG draws at all. Exact mode
    /// only — cohort mode rejects a non-zero loss because per-client
    /// coin flips cannot be collapsed.
    #[serde(default)]
    pub feed_loss: f64,
    /// Collapse clients into quantized schedule cohorts
    /// (`None`: exact per-client walk). Configs predating the knob
    /// deserialize as exact.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cohorts: Option<CohortSpec>,
    /// Route client fetches through a regional mirror tier
    /// (`None`: clients talk to the origin directly, consuming no
    /// extra RNG draws — the pre-tier streams are preserved bit for
    /// bit).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mirrors: Option<MirrorConfig>,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            clients: 1_000_000,
            seed: 17,
            base_period: SimDuration::from_mins(30),
            period_jitter: SimDuration::from_mins(10),
            horizon: SimDuration::from_hours(8),
            batch: 4096,
            aggressive_fraction: 0.01,
            sample_every: SimDuration::from_mins(5),
            sample_window: SimDuration::from_mins(120),
            feed_loss: 0.0,
            cohorts: None,
            mirrors: None,
        }
    }
}

/// One blacklist listing whose propagation is measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ListingEvent {
    /// Human-readable label (the evasion technique, in `sb_scale`).
    pub label: String,
    /// The listed URL's full 64-bit hash.
    pub full_hash: u64,
    /// When the listing was published server-side.
    pub listed_at: SimTime,
}

/// One point of the protected-fraction curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtectedSample {
    /// Minutes after the listing was published.
    pub mins_after_listing: u64,
    /// Fraction of the population whose local store held the listing.
    pub fraction: f64,
}

/// Per-event population metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventReport {
    /// The event's label.
    pub label: String,
    /// When it was listed, in simulation minutes.
    pub listed_at_mins: u64,
    /// First server version whose store carried the listing.
    pub first_version: Option<u64>,
    /// Clients protected before the horizon.
    pub protected: usize,
    /// Clients still exposed when the simulation ended (their
    /// exposure is counted as `horizon - listed_at`, a lower bound).
    pub unprotected_at_horizon: usize,
    /// Mean exposure window in fractional minutes.
    pub mean_exposure_mins: f64,
    /// Median exposure window in fractional minutes.
    pub p50_exposure_mins: f64,
    /// 95th-percentile exposure window in fractional minutes.
    pub p95_exposure_mins: f64,
    /// 99th-percentile exposure window in fractional minutes.
    pub p99_exposure_mins: f64,
    /// Protected fraction vs time since listing.
    pub protected_fraction: Vec<ProtectedSample>,
}

/// The whole population run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationReport {
    /// Number of clients simulated.
    pub clients: usize,
    /// Accepted update fetches across the population.
    pub fetches: u64,
    /// Merged protocol counters (diff vs full-reset served, bytes
    /// shipped, backoffs, full-hash lookups, mirror staleness).
    pub counters: CounterSet,
    /// Cohort rows the population collapsed into (`None`: exact mode).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cohorts: Option<u64>,
    /// Deterministic walker-state footprint in bytes: the cohort
    /// table's struct-of-arrays size, or the degenerate one-row-per-
    /// client equivalent in exact mode. The BENCH_5 memory guard's
    /// machine-independent component.
    #[serde(default)]
    pub state_bytes: u64,
    /// Per-event blind-window metrics, in input order.
    pub events: Vec<EventReport>,
}

/// One client's derived schedule. The RNG is returned mid-stream,
/// positioned after the schedule draws, so the exact walker can keep
/// drawing feed-loss coin flips from it.
pub(crate) struct ClientSchedule {
    pub period_ms: u64,
    pub phase_ms: u64,
    pub aggressive: bool,
    pub mirror: u32,
    pub rng: DetRng,
}

/// Derive client `idx`'s schedule — the single source both the exact
/// walker and the cohort builder draw from, so the two modes can never
/// disagree about who syncs when.
pub(crate) fn client_schedule(
    cfg: &PopulationConfig,
    min_wait: SimDuration,
    root: &DetRng,
    idx: usize,
) -> ClientSchedule {
    let mut rng = root.fork_indexed("feedserve-client", idx);
    let base = cfg.base_period.as_millis();
    let jitter_ms = cfg.period_jitter.as_millis();
    let offset = if jitter_ms > 0 {
        rng.range(0..=2 * jitter_ms)
    } else {
        jitter_ms
    };
    // base ± jitter, floored at the server's minimum wait so a
    // well-behaved client never trips the throttle on its own.
    let period_ms = (base + offset)
        .saturating_sub(jitter_ms)
        .max(min_wait.as_millis().max(60_000));
    let phase_ms = rng.range(0..period_ms);
    let aggressive = rng.chance(cfg.aggressive_fraction);
    // The mirror draw exists only when a tier is configured, so
    // mirror-less configs keep their original RNG streams bit for bit.
    let mirror = match &cfg.mirrors {
        Some(m) => rng.range(0..u64::from(m.mirrors.max(1))) as u32,
        None => 0,
    };
    ClientSchedule {
        period_ms,
        phase_ms,
        aggressive,
        mirror,
        rng,
    }
}

/// Everything a walk needs read-only access to.
struct WalkCtx<'a> {
    cfg: &'a PopulationConfig,
    server: &'a FeedServer,
    tier: Option<&'a MirrorTier>,
    events: &'a [ListingEvent],
    first_versions: &'a [Option<u64>],
    horizon: SimTime,
    min_wait: SimDuration,
}

/// One schedule's walk parameters: a single client (weight 1, with
/// its feed-loss RNG) or a whole cohort (weight N, no per-client
/// RNG — cohort mode requires `feed_loss == 0`).
struct WalkParams<'a> {
    period_ms: u64,
    phase_ms: u64,
    aggressive: bool,
    mirror: u32,
    weight: u64,
    feed_rng: Option<&'a mut DetRng>,
}

struct BatchOut {
    /// Per event: weighted histogram of protected clients' exposure
    /// windows (exposure ms → clients).
    protected: Vec<BTreeMap<u64, u64>>,
    /// Per event: clients still unprotected at the horizon.
    unprotected: Vec<u64>,
    counters: CounterSet,
    fetches: u64,
}

impl BatchOut {
    fn new(events: usize) -> Self {
        BatchOut {
            protected: vec![BTreeMap::new(); events],
            unprotected: vec![0; events],
            counters: CounterSet::new(),
            fetches: 0,
        }
    }
}

/// Walk one schedule through the sync loop: the shared step function
/// of both modes. `protected_at` is a caller-reused scratch buffer.
fn walk_schedule(
    ctx: &WalkCtx<'_>,
    mut p: WalkParams<'_>,
    out: &mut BatchOut,
    protected_at: &mut Vec<Option<SimTime>>,
) {
    let period = SimDuration::from_millis(p.period_ms);
    let mut version: u64 = 0;
    let mut last_fetch: Option<SimTime> = None;
    let mut streak: u32 = 0;
    protected_at.clear();
    protected_at.resize(ctx.events.len(), None);

    let mut t = SimTime::from_millis(p.phase_ms);
    while t <= ctx.horizon {
        // Feed-channel loss: the exchange never completes and the
        // client backs off exactly as it does for a server outage.
        // With feed_loss == 0.0 this consumes no RNG draws.
        if let Some(rng) = p.feed_rng.as_deref_mut() {
            if rng.chance(ctx.cfg.feed_loss) {
                out.counters.incr("update.lost");
                streak = streak.saturating_add(1);
                t += FeedClient::outage_backoff(streak, period);
                continue;
            }
        }
        let client_version = (version > 0).then_some(version);
        let resp = match ctx.tier {
            Some(tier) => tier.fetch_weighted(
                ctx.server,
                p.mirror,
                client_version,
                last_fetch,
                t,
                p.weight,
                &mut out.counters,
            ),
            None => ctx.server.fetch_update_weighted(
                client_version,
                last_fetch,
                t,
                p.weight,
                &mut out.counters,
            ),
        };
        match resp {
            UpdateResponse::Backoff { retry_after } => {
                t += retry_after;
                continue;
            }
            UpdateResponse::Unavailable => {
                // The serving tier already counted the refusal; the
                // client keeps its stale version and retries.
                streak = streak.saturating_add(1);
                t += FeedClient::outage_backoff(streak, period);
                continue;
            }
            other => {
                streak = 0;
                if let Some(v) = other.new_version() {
                    version = v;
                }
                last_fetch = Some(t);
                out.fetches += p.weight;
            }
        }
        // Did this sync close any blind window?
        for (e, first_version) in ctx.first_versions.iter().enumerate() {
            if protected_at[e].is_none() {
                if let Some(v) = first_version {
                    if version >= *v {
                        protected_at[e] = Some(t);
                        // The user's next visit now prefix-hits and
                        // resolves through a full-hash lookup.
                        ctx.server.full_hashes_weighted(
                            prefix_of(ctx.events[e].full_hash),
                            t,
                            p.weight,
                            &mut out.counters,
                        );
                    }
                }
            }
        }
        // Aggressive clients immediately re-poll inside the minimum
        // wait; the server backs them off and they settle on the
        // min-wait cadence.
        t = if p.aggressive {
            t + SimDuration::from_millis(ctx.min_wait.as_millis() / 2)
        } else {
            t + period
        };
    }
}

/// Fold one walked schedule's outcome into the batch accumulators.
fn record_outcome(
    out: &mut BatchOut,
    events: &[ListingEvent],
    protected_at: &[Option<SimTime>],
    weight: u64,
) {
    for (e, event) in events.iter().enumerate() {
        match protected_at[e] {
            Some(when) => {
                let exposure = when.since(event.listed_at).as_millis();
                *out.protected[e].entry(exposure).or_insert(0) += weight;
            }
            None => out.unprotected[e] += weight,
        }
    }
}

/// Exact mode: one weight-1 walk per client index.
fn walk_batch(ctx: &WalkCtx<'_>, root: &DetRng, start: usize, end: usize) -> BatchOut {
    let mut out = BatchOut::new(ctx.events.len());
    let mut protected_at: Vec<Option<SimTime>> = Vec::with_capacity(ctx.events.len());
    for idx in start..end {
        let mut sched = client_schedule(ctx.cfg, ctx.min_wait, root, idx);
        walk_schedule(
            ctx,
            WalkParams {
                period_ms: sched.period_ms,
                phase_ms: sched.phase_ms,
                aggressive: sched.aggressive,
                mirror: sched.mirror,
                weight: 1,
                feed_rng: Some(&mut sched.rng),
            },
            &mut out,
            &mut protected_at,
        );
        record_outcome(&mut out, ctx.events, &protected_at, 1);
    }
    out
}

/// Cohort rows per work-stealing batch. Fixed (not thread-derived) so
/// the batching — and therefore the merged output — is identical at
/// any thread count.
const COHORT_ROW_BATCH: usize = 256;

/// Cohort mode: one weighted walk per table row.
fn walk_cohort_rows(ctx: &WalkCtx<'_>, table: &CohortTable, start: usize, end: usize) -> BatchOut {
    let mut out = BatchOut::new(ctx.events.len());
    let mut protected_at: Vec<Option<SimTime>> = Vec::with_capacity(ctx.events.len());
    for row in start..end {
        let r = table.record(row);
        walk_schedule(
            ctx,
            WalkParams {
                period_ms: r.period_ms,
                phase_ms: r.phase_ms,
                aggressive: r.aggressive,
                mirror: r.mirror,
                weight: r.count,
                feed_rng: None,
            },
            &mut out,
            &mut protected_at,
        );
        record_outcome(&mut out, ctx.events, &protected_at, r.count);
    }
    out
}

/// Run the population on the default thread count.
pub fn run_population(
    cfg: &PopulationConfig,
    server: &FeedServer,
    events: &[ListingEvent],
) -> PopulationReport {
    run_population_with_threads(cfg, server, events, sweep_threads())
}

/// Run the population on exactly `threads` worker threads. The report
/// is byte-identical for any thread count.
pub fn run_population_with_threads(
    cfg: &PopulationConfig,
    server: &FeedServer,
    events: &[ListingEvent],
    threads: usize,
) -> PopulationReport {
    // Which server version first carries each event (None: never
    // listed, the population stays blind for the whole horizon).
    let first_versions: Vec<Option<u64>> = events
        .iter()
        .map(|e| server.first_version_containing(prefix_of(e.full_hash)))
        .collect();

    let horizon = SimTime::ZERO + cfg.horizon;
    let tier = cfg
        .mirrors
        .as_ref()
        .map(|m| MirrorTier::build(m, server, horizon));
    let ctx = WalkCtx {
        cfg,
        server,
        tier: tier.as_ref(),
        events,
        first_versions: &first_versions,
        horizon,
        min_wait: server.config().min_wait,
    };

    let (outs, cohort_rows, state_bytes) = if cfg.cohorts.is_some() {
        assert!(
            cfg.feed_loss == 0.0,
            "cohort mode cannot model per-client feed loss (feed_loss must be 0.0)"
        );
        let table = CohortTable::from_population(cfg, ctx.min_wait, threads);
        let row_batches: Vec<(usize, usize)> = (0..table.len())
            .step_by(COHORT_ROW_BATCH)
            .map(|s| (s, (s + COHORT_ROW_BATCH).min(table.len())))
            .collect();
        let outs = run_sweep_with_threads(&row_batches, threads, |&(s, e)| {
            walk_cohort_rows(&ctx, &table, s, e)
        });
        let state_bytes = table.state_bytes();
        (outs, Some(table.len() as u64), state_bytes)
    } else {
        let batches: Vec<(usize, usize)> = {
            let batch = cfg.batch.max(1);
            (0..cfg.clients)
                .step_by(batch)
                .map(|start| (start, (start + batch).min(cfg.clients)))
                .collect()
        };
        let root = DetRng::new(cfg.seed);
        let outs = run_sweep_with_threads(&batches, threads, |&(start, end)| {
            walk_batch(&ctx, &root, start, end)
        });
        (outs, None, cfg.clients as u64 * COHORT_ROW_BYTES)
    };

    // Merge in input order: histogram addition and counter sums are
    // both order-fixed, so the report does not depend on scheduling.
    let mut protected: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); events.len()];
    let mut unprotected = vec![0u64; events.len()];
    let mut counters = CounterSet::new();
    let mut fetches = 0u64;
    for out in outs {
        for (acc, part) in protected.iter_mut().zip(&out.protected) {
            for (&v, &c) in part {
                *acc.entry(v).or_insert(0) += c;
            }
        }
        for (acc, part) in unprotected.iter_mut().zip(&out.unprotected) {
            *acc += part;
        }
        counters.merge(&out.counters);
        fetches += out.fetches;
    }
    if let Some(tier) = &tier {
        counters.add("mirror.refreshes", tier.completed_refreshes());
        counters.add("mirror.refreshes_skipped", tier.skipped_refreshes());
    }
    server.absorb_counters(&counters);

    let reports = events
        .iter()
        .enumerate()
        .map(|(i, event)| {
            summarize_event(cfg, event, first_versions[i], &protected[i], unprotected[i])
        })
        .collect();

    PopulationReport {
        clients: cfg.clients,
        fetches,
        counters,
        cohorts: cohort_rows,
        state_bytes,
        events: reports,
    }
}

/// Summarize one event from its weighted exposure histogram.
///
/// Percentiles and the mean run over the *full* population — censored
/// clients contribute their `horizon - listed_at` lower bound, as
/// before. The protected-fraction curve counts **only genuinely
/// protected clients** by construction: censored clients are carried
/// separately instead of being mixed into the sorted exposures and
/// capped back out (the old `covered.min(clients - unprotected)`
/// arithmetic, which this replaces).
fn summarize_event(
    cfg: &PopulationConfig,
    event: &ListingEvent,
    first_version: Option<u64>,
    protected: &BTreeMap<u64, u64>,
    unprotected: u64,
) -> EventReport {
    let protected_total: u64 = protected.values().sum();
    let clients = protected_total + unprotected;
    let horizon_ms = (SimTime::ZERO + cfg.horizon)
        .since(event.listed_at)
        .as_millis();

    // Full distribution as sorted (exposure_ms, clients) runs. Every
    // protected exposure is ≤ horizon_ms, so the censored run merges
    // at the end.
    let mut runs: Vec<(u64, u64)> = protected.iter().map(|(&v, &c)| (v, c)).collect();
    if unprotected > 0 {
        match runs.last_mut() {
            Some(last) if last.0 == horizon_ms => last.1 += unprotected,
            _ => runs.push((horizon_ms, unprotected)),
        }
    }

    let percentile = |p: f64| -> f64 {
        if clients == 0 {
            return 0.0;
        }
        let rank = (((p / 100.0) * clients as f64).ceil() as u64).clamp(1, clients);
        let mut seen = 0u64;
        for &(v, c) in &runs {
            seen += c;
            if seen >= rank {
                return v as f64 / 60_000.0;
            }
        }
        runs.last().map_or(0.0, |&(v, _)| v as f64 / 60_000.0)
    };
    let mean_exposure_mins = if clients == 0 {
        0.0
    } else {
        let sum: u128 = runs
            .iter()
            .map(|&(v, c)| u128::from(v) * u128::from(c))
            .sum();
        (sum as f64 / clients as f64) / 60_000.0
    };

    let mut protected_fraction = Vec::new();
    let step = cfg.sample_every.as_millis().max(1);
    let mut offset = 0u64;
    let mut covered = 0u64;
    let mut remaining = protected.iter().peekable();
    while offset <= cfg.sample_window.as_millis() {
        while let Some(&(&v, &c)) = remaining.peek() {
            if v <= offset {
                covered += c;
                remaining.next();
            } else {
                break;
            }
        }
        let fraction = if clients == 0 {
            0.0
        } else {
            covered as f64 / clients as f64
        };
        protected_fraction.push(ProtectedSample {
            mins_after_listing: offset / 60_000,
            fraction,
        });
        offset += step;
    }

    EventReport {
        label: event.label.clone(),
        listed_at_mins: event.listed_at.as_mins(),
        first_version,
        protected: protected_total as usize,
        unprotected_at_horizon: unprotected as usize,
        mean_exposure_mins,
        p50_exposure_mins: percentile(50.0),
        p95_exposure_mins: percentile(95.0),
        p99_exposure_mins: percentile(99.0),
        protected_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use phishsim_simnet::link::TierOutage;
    use phishsim_simnet::{OutageWindow, TierOutagePlan};

    fn tiny_cfg(clients: usize) -> PopulationConfig {
        PopulationConfig {
            clients,
            batch: 64,
            horizon: SimDuration::from_hours(3),
            ..PopulationConfig::default()
        }
    }

    fn scenario() -> (FeedServer, Vec<ListingEvent>) {
        let mut server = FeedServer::new(ServerConfig::default());
        let baseline: Vec<u64> = (0..2_000u64).map(|i| i << 40).collect();
        server.publish(baseline.iter().copied(), SimTime::ZERO);
        let target = (0xfeedu64 << 48) | 0xbeef;
        let mut grown = baseline;
        grown.push(target);
        server.publish(grown, SimTime::from_mins(45));
        let events = vec![ListingEvent {
            label: "recaptcha".into(),
            full_hash: target,
            listed_at: SimTime::from_mins(45),
        }];
        (server, events)
    }

    #[test]
    fn population_converges_to_protected() {
        let (server, events) = scenario();
        let report = run_population_with_threads(&tiny_cfg(500), &server, &events, 2);
        let ev = &report.events[0];
        assert_eq!(ev.protected + ev.unprotected_at_horizon, 500);
        // With a 30±10 min period and a 3 h horizon, essentially the
        // whole population updates after the listing.
        assert!(
            ev.protected >= 495,
            "only {} of 500 protected",
            ev.protected
        );
        // Exposure windows are bounded by roughly one update period.
        assert!(ev.p95_exposure_mins <= 45.0, "{}", ev.p95_exposure_mins);
        // The curve is monotone non-decreasing.
        let fr: Vec<f64> = ev.protected_fraction.iter().map(|s| s.fraction).collect();
        assert!(fr.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.fetches > 0);
        assert!(report.counters.get("update.diff") > 0);
        assert!(report.counters.get("update.full_reset") >= 500);
        assert_eq!(report.cohorts, None);
        assert_eq!(report.state_bytes, 500 * COHORT_ROW_BYTES);
    }

    #[test]
    fn thread_count_invariance() {
        let (server_a, events) = scenario();
        let a = run_population_with_threads(&tiny_cfg(300), &server_a, &events, 1);
        let (server_b, _) = scenario();
        let b = run_population_with_threads(&tiny_cfg(300), &server_b, &events, 8);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn never_listed_event_leaves_population_exposed() {
        let (server, _) = scenario();
        let events = vec![ListingEvent {
            label: "session".into(),
            full_hash: 0x1234_5678_9abc_def0,
            listed_at: SimTime::from_mins(10),
        }];
        let report = run_population_with_threads(&tiny_cfg(100), &server, &events, 2);
        let ev = &report.events[0];
        assert_eq!(ev.first_version, None);
        assert_eq!(ev.protected, 0);
        assert_eq!(ev.unprotected_at_horizon, 100);
        assert!(ev.protected_fraction.iter().all(|s| s.fraction == 0.0));
        // Every censored client carries the horizon lower bound.
        assert_eq!(ev.p50_exposure_mins, 170.0);
        assert_eq!(ev.mean_exposure_mins, 170.0);
    }

    #[test]
    fn feed_loss_delays_but_does_not_strand_clients() {
        let (server, events) = scenario();
        let clean = run_population_with_threads(&tiny_cfg(300), &server, &events, 2);
        let (server, _) = scenario();
        let cfg = PopulationConfig {
            feed_loss: 0.25,
            ..tiny_cfg(300)
        };
        let lossy = run_population_with_threads(&cfg, &server, &events, 2);
        assert!(lossy.counters.get("update.lost") > 0);
        // Lost exchanges inflate exposure, never reduce protection to
        // zero: the backoff keeps clients converging.
        assert!(lossy.events[0].protected >= 250);
        assert!(
            lossy.events[0].mean_exposure_mins >= clean.events[0].mean_exposure_mins,
            "loss cannot shrink the blind window: {} < {}",
            lossy.events[0].mean_exposure_mins,
            clean.events[0].mean_exposure_mins
        );
    }

    #[test]
    fn zero_feed_loss_is_byte_identical_to_the_default() {
        // feed_loss = 0.0 must consume no RNG draws, so the report is
        // bitwise what it was before the knob existed.
        let (server_a, events) = scenario();
        let a = run_population_with_threads(&tiny_cfg(200), &server_a, &events, 2);
        let (server_b, _) = scenario();
        let cfg = PopulationConfig {
            feed_loss: 0.0,
            ..tiny_cfg(200)
        };
        let b = run_population_with_threads(&cfg, &server_b, &events, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn aggressive_clients_get_backed_off() {
        let (server, events) = scenario();
        let cfg = PopulationConfig {
            aggressive_fraction: 1.0,
            ..tiny_cfg(50)
        };
        let report = run_population_with_threads(&cfg, &server, &events, 2);
        assert!(report.counters.get("update.backoff") > 0);
    }

    #[test]
    fn cohort_mode_at_unit_quanta_matches_exact_bit_for_bit() {
        let (server_a, events) = scenario();
        let exact = run_population_with_threads(&tiny_cfg(400), &server_a, &events, 2);
        let (server_b, _) = scenario();
        let cfg = PopulationConfig {
            cohorts: Some(CohortSpec::exact()),
            ..tiny_cfg(400)
        };
        let cohort = run_population_with_threads(&cfg, &server_b, &events, 3);
        // Identical except the cohort bookkeeping fields.
        assert_eq!(
            serde_json::to_string(&exact.events).unwrap(),
            serde_json::to_string(&cohort.events).unwrap()
        );
        assert_eq!(exact.fetches, cohort.fetches);
        assert_eq!(
            serde_json::to_string(&exact.counters).unwrap(),
            serde_json::to_string(&cohort.counters).unwrap()
        );
        let rows = cohort.cohorts.expect("cohort mode reports rows");
        assert!(rows > 0 && rows <= 400);
        assert_eq!(cohort.state_bytes, rows * COHORT_ROW_BYTES);
    }

    #[test]
    fn default_quanta_stay_within_one_sample_step_of_exact() {
        let (server_a, events) = scenario();
        let exact = run_population_with_threads(&tiny_cfg(600), &server_a, &events, 2);
        let (server_b, _) = scenario();
        let cfg = PopulationConfig {
            cohorts: Some(CohortSpec::default()),
            ..tiny_cfg(600)
        };
        let cohort = run_population_with_threads(&cfg, &server_b, &events, 2);
        let step_mins = cfg.sample_every.as_millis() as f64 / 60_000.0;
        for (a, b) in exact.events.iter().zip(&cohort.events) {
            for (pa, pb) in [
                (a.p50_exposure_mins, b.p50_exposure_mins),
                (a.p95_exposure_mins, b.p95_exposure_mins),
                (a.p99_exposure_mins, b.p99_exposure_mins),
            ] {
                assert!(
                    (pa - pb).abs() <= step_mins,
                    "{}: exact {pa} vs cohort {pb} drifted past one sample step",
                    a.label
                );
            }
        }
        // The collapse is real: far fewer rows than clients.
        assert!(cohort.cohorts.unwrap() < 600);
    }

    #[test]
    fn cohort_mode_rejects_feed_loss() {
        let (server, events) = scenario();
        let cfg = PopulationConfig {
            cohorts: Some(CohortSpec::default()),
            feed_loss: 0.1,
            ..tiny_cfg(50)
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_population_with_threads(&cfg, &server, &events, 1)
        }));
        assert!(err.is_err(), "non-zero feed loss must be refused");
    }

    #[test]
    fn mirror_tier_adds_staleness_but_still_converges() {
        let (server_a, events) = scenario();
        let direct = run_population_with_threads(&tiny_cfg(400), &server_a, &events, 2);
        let (server_b, _) = scenario();
        let cfg = PopulationConfig {
            mirrors: Some(MirrorConfig {
                mirrors: 4,
                refresh_every: SimDuration::from_mins(10),
                outages: TierOutagePlan::none(),
            }),
            ..tiny_cfg(400)
        };
        let mirrored = run_population_with_threads(&cfg, &server_b, &events, 2);
        let ev = &mirrored.events[0];
        assert!(ev.protected >= 390, "mirrors must not strand clients");
        // Staleness is visible and bounded: mirrored propagation lags
        // direct by at most the refresh period.
        assert!(mirrored.counters.get("mirror.stale_serves") > 0);
        assert!(mirrored.counters.get("mirror.refreshes") > 0);
        assert!(
            ev.mean_exposure_mins >= direct.events[0].mean_exposure_mins,
            "a refresh tier cannot speed propagation up"
        );
        assert!(
            ev.mean_exposure_mins <= direct.events[0].mean_exposure_mins + 10.0,
            "staleness is bounded by the refresh period: {} vs {}",
            ev.mean_exposure_mins,
            direct.events[0].mean_exposure_mins
        );
    }

    #[test]
    fn mirror_outages_delay_their_clients_only() {
        let (server, events) = scenario();
        let cfg = PopulationConfig {
            mirrors: Some(MirrorConfig {
                mirrors: 2,
                refresh_every: SimDuration::from_mins(5),
                outages: TierOutagePlan {
                    outages: vec![TierOutage {
                        mirror: 0,
                        window: OutageWindow::new(SimTime::from_mins(45), SimTime::from_mins(100)),
                    }],
                },
            }),
            ..tiny_cfg(300)
        };
        let report = run_population_with_threads(&cfg, &server, &events, 2);
        assert!(report.counters.get("mirror.unavailable") > 0);
        assert!(report.counters.get("mirror.refreshes_skipped") > 0);
        // The unaffected mirror keeps the population converging.
        assert!(report.events[0].protected >= 150);
    }

    #[test]
    fn mirrored_cohort_walk_is_thread_invariant() {
        let mk_cfg = || PopulationConfig {
            cohorts: Some(CohortSpec::default()),
            mirrors: Some(MirrorConfig::default()),
            ..tiny_cfg(500)
        };
        let (server_a, events) = scenario();
        let a = run_population_with_threads(&mk_cfg(), &server_a, &events, 1);
        let (server_b, _) = scenario();
        let b = run_population_with_threads(&mk_cfg(), &server_b, &events, 8);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    mod summarize_properties {
        use super::*;
        use proptest::prelude::*;

        /// Brute-force reference: expand the weighted histogram to
        /// per-client values and recompute every metric the slow,
        /// obvious way with explicit censored accounting.
        fn reference(
            cfg: &PopulationConfig,
            event: &ListingEvent,
            protected: &BTreeMap<u64, u64>,
            unprotected: u64,
        ) -> EventReport {
            let horizon_ms = (SimTime::ZERO + cfg.horizon)
                .since(event.listed_at)
                .as_millis();
            let mut protected_values: Vec<u64> = Vec::new();
            for (&v, &c) in protected {
                for _ in 0..c {
                    protected_values.push(v);
                }
            }
            let mut full = protected_values.clone();
            full.extend(std::iter::repeat_n(horizon_ms, unprotected as usize));
            full.sort_unstable();
            let clients = full.len();
            let pct = |p: f64| -> f64 {
                if full.is_empty() {
                    return 0.0;
                }
                let rank = ((p / 100.0) * clients as f64).ceil() as usize;
                full[rank.clamp(1, clients) - 1] as f64 / 60_000.0
            };
            let mean = if full.is_empty() {
                0.0
            } else {
                let sum: u128 = full.iter().map(|&v| u128::from(v)).sum();
                (sum as f64 / clients as f64) / 60_000.0
            };
            let mut curve = Vec::new();
            let step = cfg.sample_every.as_millis().max(1);
            let mut offset = 0u64;
            while offset <= cfg.sample_window.as_millis() {
                let covered = protected_values.iter().filter(|&&v| v <= offset).count();
                curve.push(ProtectedSample {
                    mins_after_listing: offset / 60_000,
                    fraction: if clients == 0 {
                        0.0
                    } else {
                        covered as f64 / clients as f64
                    },
                });
                offset += step;
            }
            EventReport {
                label: event.label.clone(),
                listed_at_mins: event.listed_at.as_mins(),
                first_version: Some(2),
                protected: protected_values.len(),
                unprotected_at_horizon: unprotected as usize,
                mean_exposure_mins: mean,
                p50_exposure_mins: pct(50.0),
                p95_exposure_mins: pct(95.0),
                p99_exposure_mins: pct(99.0),
                protected_fraction: curve,
            }
        }

        proptest! {
            #[test]
            fn summary_matches_brute_force_and_converges(
                exposures in proptest::collection::vec((0u64..180, 1u64..5), 0..12),
                unprotected in 0u64..6,
                listed_at_mins in 0u64..120,
            ) {
                let horizon = SimDuration::from_hours(3);
                let cfg = PopulationConfig {
                    horizon,
                    // Sample far enough to reach the horizon for every
                    // listed_at: convergence is checked at the end.
                    sample_window: SimDuration::from_hours(3),
                    ..PopulationConfig::default()
                };
                let event = ListingEvent {
                    label: "prop".into(),
                    full_hash: 1,
                    listed_at: SimTime::from_mins(listed_at_mins),
                };
                let horizon_ms = (SimTime::ZERO + horizon)
                    .since(event.listed_at)
                    .as_millis();
                // Exposure values in minutes, clamped into the feasible
                // range (protected exposures never exceed the horizon
                // lower bound).
                let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
                for (mins, count) in exposures {
                    let v = (mins * 60_000).min(horizon_ms);
                    *hist.entry(v).or_insert(0) += count;
                }
                let got = summarize_event(&cfg, &event, Some(2), &hist, unprotected);
                let want = reference(&cfg, &event, &hist, unprotected);
                prop_assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&want).unwrap()
                );
                // Monotone non-decreasing in offset.
                let fr: Vec<f64> =
                    got.protected_fraction.iter().map(|s| s.fraction).collect();
                prop_assert!(fr.windows(2).all(|w| w[0] <= w[1]));
                // Converges to exactly protected/clients at the horizon
                // — censored clients never leak into the curve even
                // though their horizon-valued lower bound sits inside
                // the sample window.
                let clients = got.protected + got.unprotected_at_horizon;
                if clients > 0 {
                    let expected = got.protected as f64 / clients as f64;
                    let last = fr.last().copied().unwrap();
                    prop_assert!(
                        (last - expected).abs() < 1e-12,
                        "curve must converge to protected/clients: {} vs {}",
                        last,
                        expected
                    );
                }
            }
        }
    }
}
