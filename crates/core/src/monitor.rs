//! Reporting and monitoring.
//!
//! §3 "Reporting and Monitoring Process": reports go out via online
//! form or email (never publishing the URLs anywhere else); the
//! framework then watches for blacklist appearances by calling the GSB
//! Lookup API, downloading the OpenPhish/PhishTank/APWG feeds every
//! half hour, reading NetCraft's notification emails, and — for
//! SmartScreen, which has no API — loading the URL in Edge and taking
//! screenshots every 10 minutes for the first 72 hours and every
//! 5 hours afterwards.
//!
//! [`monitor_listings`] reproduces that polling loop: each engine has
//! its own polling cadence, and a listing is *observed* at the first
//! poll tick at or after it was published. The gap between listing and
//! observation is the measurement error the paper's methodology
//! accepts.

use phishsim_antiphish::{EngineId, FeedNetwork};
use phishsim_http::Url;
use phishsim_simnet::{Ipv4Sim, SimDuration, SimTime, TraceEvent, TraceKind, TraceLog};
use serde::{Deserialize, Serialize};

/// How the framework watches one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MonitorMethod {
    /// GSB Lookup API calls.
    LookupApi,
    /// Half-hourly feed downloads (OpenPhish, PhishTank, APWG).
    FeedDownload,
    /// Notification emails (NetCraft).
    NotificationEmail,
    /// Screenshot polling in a real browser (SmartScreen).
    Screenshot,
}

impl MonitorMethod {
    /// The method the paper uses for each engine.
    pub fn for_engine(engine: EngineId) -> MonitorMethod {
        match engine {
            EngineId::Gsb | EngineId::Ysb => MonitorMethod::LookupApi,
            EngineId::OpenPhish | EngineId::PhishTank | EngineId::Apwg => {
                MonitorMethod::FeedDownload
            }
            EngineId::NetCraft => MonitorMethod::NotificationEmail,
            EngineId::SmartScreen => MonitorMethod::Screenshot,
        }
    }

    /// Polling period for the method. Screenshot polling uses the
    /// paper's dense phase (10 minutes, first 72 h); email
    /// notifications are effectively push (1 minute granularity).
    pub fn poll_period(self) -> SimDuration {
        self.poll_period_at(SimDuration::ZERO)
    }

    /// Polling period a given time into the monitoring run. The paper's
    /// SmartScreen screenshots go from every 10 minutes (first 72 h) to
    /// every 5 hours "for the rest of the experiment".
    pub fn poll_period_at(self, elapsed: SimDuration) -> SimDuration {
        let phases = self.schedule();
        let phase = phases.partition_point(|&(from, _)| from <= elapsed) - 1;
        phases[phase].1
    }

    /// The polling schedule as `(from, period)` phases, `from` ascending
    /// and the first at zero: a poll made `elapsed` into the run is
    /// followed by the next one the period of the last phase with
    /// `from <= elapsed` later. The first poll comes one period after
    /// the run starts.
    fn schedule(self) -> &'static [(SimDuration, SimDuration)] {
        const ZERO: SimDuration = SimDuration::ZERO;
        const SCREENSHOT: &[(SimDuration, SimDuration)] = &[
            (ZERO, SimDuration::from_mins(10)),
            (SimDuration::from_hours(72), SimDuration::from_hours(5)),
        ];
        match self {
            MonitorMethod::LookupApi => const { &[(ZERO, SimDuration::from_mins(5))] },
            MonitorMethod::FeedDownload => const { &[(ZERO, SimDuration::from_mins(30))] },
            MonitorMethod::NotificationEmail => const { &[(ZERO, SimDuration::from_mins(1))] },
            MonitorMethod::Screenshot => SCREENSHOT,
        }
    }

    /// The first poll at or after `target` into the run, and the poll
    /// before it (zero, the run's start, for the first poll), both as
    /// time since the run's start. A phase's polls are `prev + k·period`
    /// for `k >= 1` while the poll they follow is before the next
    /// phase's `from`, so each phase is one division.
    fn first_poll_at_or_after(self, target: SimDuration) -> (SimDuration, SimDuration) {
        let phases = self.schedule();
        let target = target.as_millis();
        let mut prev = 0u64;
        for (i, &(_, period)) in phases.iter().enumerate() {
            let period = period.as_millis();
            let end = phases
                .get(i + 1)
                .map_or(u64::MAX, |&(from, _)| from.as_millis());
            // With this phase's period, the first poll at or after
            // `target` follows `before`: `prev` or a later poll below
            // `target`. It does if `before` was made before `end`.
            let k = target.saturating_sub(prev).div_ceil(period).max(1);
            let before = prev + (k - 1) * period;
            if before < end {
                return (
                    SimDuration::from_millis(before.saturating_add(period)),
                    SimDuration::from_millis(before),
                );
            }
            // Every poll this phase schedules is before `target`: move on
            // from the last of them.
            prev += end.saturating_sub(prev).div_ceil(period) * period;
        }
        unreachable!("the last phase runs forever")
    }
}

/// One observed blacklist appearance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// The engine whose list carried the URL.
    pub engine: EngineId,
    /// The URL observed.
    pub url: Url,
    /// When the listing was actually published.
    pub listed_at: SimTime,
    /// When the monitoring loop first saw it.
    pub observed_at: SimTime,
}

impl Observation {
    /// Monitoring lag (observation minus publication).
    pub fn lag(&self) -> SimDuration {
        self.observed_at.since(self.listed_at)
    }
}

/// Poll all engines' lists for `urls` from `start` until `horizon`,
/// returning every appearance with its observation time. Appends
/// `Blacklist` trace events to `log` as appearances are observed.
///
/// The feeds are frozen while the monitor polls, so each (engine, URL)
/// listing's observation is computed directly: the engine's first poll
/// at or after the listing, kept if it is at or before `horizon`.
/// Observations come out in the order an event loop popping every poll
/// from a FIFO scheduler reports them, sorted by `(poll, previous poll,
/// engine, URL)`: polls due at one instant run in the order they were
/// scheduled, which is the order of the polls that scheduled them, and
/// engines whose polls coincide twice in a row share a method, so they
/// were scheduled in engine order. `crates/core/tests/monitor_model.rs`
/// checks this against that event loop.
pub fn monitor_listings(
    feeds: &FeedNetwork,
    urls: &[Url],
    start: SimTime,
    horizon: SimTime,
    log: &TraceLog,
) -> Vec<Observation> {
    let engines = EngineId::all();
    let mut seen: Vec<(SimTime, SimTime, usize, usize, SimTime)> = Vec::new();
    for (engine_idx, &engine) in engines.iter().enumerate() {
        let method = MonitorMethod::for_engine(engine);
        for (url_idx, url) in urls.iter().enumerate() {
            let Some(listed_at) = feeds.listed_at(engine, url) else {
                continue;
            };
            let (poll, prev) = method.first_poll_at_or_after(listed_at.since(start));
            let observed_at = start.saturating_add(poll);
            if observed_at <= horizon {
                let prev = start.saturating_add(prev);
                seen.push((observed_at, prev, engine_idx, url_idx, listed_at));
            }
        }
    }
    seen.sort_unstable();
    seen.into_iter()
        .map(|(observed_at, _, engine_idx, url_idx, listed_at)| {
            let engine = engines[engine_idx];
            let url = &urls[url_idx];
            log.record(TraceEvent {
                at: observed_at,
                kind: TraceKind::Blacklist,
                src: Ipv4Sim::new(0, 0, 0, 0),
                host: url.host.clone(),
                path: url.target(),
                user_agent: None,
                actor: engine.key().to_string(),
            });
            Observation {
                engine,
                url: url.clone(),
                listed_at,
                observed_at,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_simnet::DetRng;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn methods_match_paper() {
        assert_eq!(
            MonitorMethod::for_engine(EngineId::Gsb),
            MonitorMethod::LookupApi
        );
        assert_eq!(
            MonitorMethod::for_engine(EngineId::OpenPhish),
            MonitorMethod::FeedDownload
        );
        assert_eq!(
            MonitorMethod::for_engine(EngineId::NetCraft),
            MonitorMethod::NotificationEmail
        );
        assert_eq!(
            MonitorMethod::for_engine(EngineId::SmartScreen),
            MonitorMethod::Screenshot
        );
        assert_eq!(
            MonitorMethod::FeedDownload.poll_period(),
            SimDuration::from_mins(30),
            "feeds are downloaded every half hour"
        );
    }

    #[test]
    fn screenshot_polling_has_two_phases() {
        let m = MonitorMethod::Screenshot;
        assert_eq!(
            m.poll_period_at(SimDuration::from_hours(1)),
            SimDuration::from_mins(10)
        );
        assert_eq!(
            m.poll_period_at(SimDuration::from_hours(71)),
            SimDuration::from_mins(10)
        );
        assert_eq!(
            m.poll_period_at(SimDuration::from_hours(72)),
            SimDuration::from_hours(5)
        );
        assert_eq!(
            m.poll_period_at(SimDuration::from_hours(200)),
            SimDuration::from_hours(5)
        );
        // Other methods are phase-less.
        assert_eq!(
            MonitorMethod::FeedDownload.poll_period_at(SimDuration::from_hours(100)),
            SimDuration::from_mins(30)
        );
    }

    #[test]
    fn computed_polls_match_stepping_the_period() {
        let methods = [
            MonitorMethod::LookupApi,
            MonitorMethod::FeedDownload,
            MonitorMethod::NotificationEmail,
            MonitorMethod::Screenshot,
        ];
        for method in methods {
            // Step the schedule the way an event loop does.
            let mut polls = vec![SimDuration::ZERO];
            while *polls.last().unwrap() < SimDuration::from_hours(100) {
                let last = *polls.last().unwrap();
                polls.push(last + method.poll_period_at(last));
            }
            for minute in (0..95 * 60).step_by(7).chain([72 * 60, 72 * 60 + 1]) {
                for extra_ms in [0, 1, 59_999] {
                    let target = SimDuration::from_millis(minute * 60_000 + extra_ms);
                    let k = polls[1..].partition_point(|&p| p < target) + 1;
                    assert_eq!(
                        method.first_poll_at_or_after(target),
                        (polls[k], polls[k - 1]),
                        "{method:?} at {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn late_smartscreen_listing_observed_on_sparse_grid() {
        // A SmartScreen listing landing after the 72 h dense phase is
        // observed with up-to-5-hour lag, not 10 minutes.
        let mut feeds = FeedNetwork::isolated(&DetRng::new(9));
        let u = url("https://late-listing.com/p");
        feeds.publish(EngineId::SmartScreen, &u, SimTime::from_hours(80));
        let log = TraceLog::new();
        let obs = monitor_listings(&feeds, &[u], SimTime::ZERO, SimTime::from_hours(120), &log);
        let o = obs
            .iter()
            .find(|o| o.engine == EngineId::SmartScreen)
            .expect("observed");
        assert!(o.lag() > SimDuration::from_mins(10), "lag {}", o.lag());
        assert!(o.lag() <= SimDuration::from_hours(5));
    }

    #[test]
    fn listing_observed_at_next_poll_tick() {
        let mut feeds = FeedNetwork::isolated(&DetRng::new(1));
        let u = url("https://bad.com/p");
        // Listed at minute 41; the 30-minute feed poll (ticks at 30,
        // 60, ...) observes it at minute 60.
        feeds.publish(EngineId::OpenPhish, &u, SimTime::from_mins(41));
        let log = TraceLog::new();
        let obs = monitor_listings(
            &feeds,
            std::slice::from_ref(&u),
            SimTime::ZERO,
            SimTime::from_hours(24),
            &log,
        );
        let op: Vec<&Observation> = obs
            .iter()
            .filter(|o| o.engine == EngineId::OpenPhish)
            .collect();
        assert_eq!(op.len(), 1);
        assert_eq!(op[0].listed_at, SimTime::from_mins(41));
        assert_eq!(op[0].observed_at, SimTime::from_mins(60));
        assert_eq!(op[0].lag(), SimDuration::from_mins(19));
    }

    #[test]
    fn each_appearance_observed_once() {
        let mut feeds = FeedNetwork::paper_topology(&DetRng::new(2));
        let u = url("https://bad.com/p");
        feeds.publish(EngineId::NetCraft, &u, SimTime::from_mins(10));
        let log = TraceLog::new();
        let obs = monitor_listings(&feeds, &[u], SimTime::ZERO, SimTime::from_hours(24), &log);
        // NetCraft listing + GSB propagation = exactly two observations.
        assert_eq!(obs.len(), 2);
        let engines: Vec<EngineId> = obs.iter().map(|o| o.engine).collect();
        assert!(engines.contains(&EngineId::NetCraft));
        assert!(engines.contains(&EngineId::Gsb));
        assert_eq!(log.count(|e| e.kind == TraceKind::Blacklist), 2);
    }

    #[test]
    fn unlisted_urls_never_observed() {
        let feeds = FeedNetwork::isolated(&DetRng::new(3));
        let log = TraceLog::new();
        let obs = monitor_listings(
            &feeds,
            &[url("https://clean.com/")],
            SimTime::ZERO,
            SimTime::from_hours(24),
            &log,
        );
        assert!(obs.is_empty());
        assert!(log.is_empty());
    }

    #[test]
    fn listings_after_horizon_missed() {
        let mut feeds = FeedNetwork::isolated(&DetRng::new(4));
        let u = url("https://late.com/p");
        feeds.publish(EngineId::Gsb, &u, SimTime::from_hours(30));
        let log = TraceLog::new();
        let obs = monitor_listings(&feeds, &[u], SimTime::ZERO, SimTime::from_hours(24), &log);
        assert!(obs.is_empty(), "24 h horizon must not see a 30 h listing");
    }
}
