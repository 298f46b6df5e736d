//! The tiered distribution topology: origin → regional mirror → client.
//!
//! Real Safe-Browsing deployments do not serve fifty million clients
//! from one origin: updates fan out through a CDN of regional mirrors
//! that refresh from the origin on their own cadence. That tier is
//! where *staleness* enters the pipeline — a client can be perfectly
//! punctual and still hold an old list because its mirror has not
//! refreshed yet — and it is a second place for outages to hide.
//!
//! [`MirrorTier`] models the tier deterministically: every mirror's
//! refresh timeline is a pure function of the configuration and the
//! origin's publication history, precomputed once before the
//! population walk. A refresh attempt that lands inside an origin
//! outage window *or* inside the mirror's own
//! [`TierOutagePlan`] window is skipped, so the mirror keeps serving
//! whatever origin version it last captured. Client fetches against a
//! down mirror go unanswered exactly like an origin outage, feeding
//! the existing client backoff discipline.

use crate::server::{FeedServer, Serve, TimelineCursor, UpdateResponse};
use crate::tally::{Counter, Tally};
use phishsim_simnet::{SimDuration, SimTime, TierOutagePlan};
use serde::{Deserialize, Serialize};

/// Mirror-tier knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MirrorConfig {
    /// Number of regional mirrors; clients hash onto one uniformly.
    pub mirrors: u32,
    /// How often each mirror refreshes from the origin. Mirror `m`
    /// first refreshes at `m * refresh_every / mirrors` (staggered so
    /// the whole tier never hits the origin simultaneously), then
    /// every `refresh_every`.
    pub refresh_every: SimDuration,
    /// Scheduled per-mirror downtime windows (the chaos layer's
    /// [`TierOutagePlan`]). A down mirror answers no client fetches
    /// and skips its own refreshes.
    pub outages: TierOutagePlan,
}

impl Default for MirrorConfig {
    fn default() -> Self {
        MirrorConfig {
            mirrors: 8,
            refresh_every: SimDuration::from_mins(5),
            outages: TierOutagePlan::none(),
        }
    }
}

/// One mirror's precomputed refresh timeline plus the tier-wide
/// bookkeeping. Built once per run; all queries are read-only (binary
/// searches, or a walk's own cursor), so the parallel population walk
/// shares it freely.
#[derive(Debug, Clone)]
pub struct MirrorTier {
    outages: TierOutagePlan,
    /// Per mirror: `(refreshed_at, origin_version)` ascending. Every
    /// mirror starts at `(ZERO, 1)` — version 1 is the empty list the
    /// origin is born with — so every instant has a served version.
    timelines: Vec<Vec<(SimTime, u64)>>,
    /// Refresh attempts skipped because the origin or the mirror was
    /// down at the scheduled instant.
    skipped_refreshes: u64,
    /// Refresh attempts that completed.
    completed_refreshes: u64,
}

impl MirrorTier {
    /// Precompute every mirror's refresh timeline against `server`'s
    /// publication history up to `horizon`.
    pub fn build(cfg: &MirrorConfig, server: &FeedServer, horizon: SimTime) -> Self {
        let mirrors = cfg.mirrors.max(1);
        let every = cfg.refresh_every.as_millis().max(1);
        let outages = cfg.outages.clone().validated();
        let mut timelines = Vec::with_capacity(mirrors as usize);
        let mut skipped = 0u64;
        let mut completed = 0u64;
        for m in 0..mirrors {
            let stagger = every * u64::from(m) / u64::from(mirrors);
            let mut tl = vec![(SimTime::ZERO, 1u64)];
            let mut at = SimTime::from_millis(stagger);
            while at <= horizon {
                if server.down_at(at) || outages.down_at(m, at) {
                    skipped += 1;
                } else {
                    completed += 1;
                    tl.push((at, server.version_at(at)));
                }
                at += SimDuration::from_millis(every);
            }
            timelines.push(tl);
        }
        MirrorTier {
            outages,
            timelines,
            skipped_refreshes: skipped,
            completed_refreshes: completed,
        }
    }

    /// Number of mirrors in the tier.
    pub fn mirrors(&self) -> u32 {
        self.timelines.len() as u32
    }

    /// Whether mirror `m` is inside one of its outage windows.
    pub fn down_at(&self, mirror: u32, now: SimTime) -> bool {
        self.outages.down_at(mirror, now)
    }

    /// The origin version mirror `m` serves at `now`: whatever its
    /// last completed refresh captured.
    pub fn version_at(&self, mirror: u32, now: SimTime) -> u64 {
        let tl = &self.timelines[mirror as usize];
        let idx = tl.partition_point(|&(at, _)| at <= now);
        tl[idx - 1].1
    }

    /// The origin version mirror `m` serves at `now`, found by stepping
    /// `cursor` forward through its refreshes: [`MirrorTier::version_at`]
    /// for a walk whose clock never goes back.
    pub(crate) fn version_from(
        &self,
        mirror: u32,
        cursor: &mut TimelineCursor,
        now: SimTime,
    ) -> u64 {
        cursor
            .seek(&self.timelines[mirror as usize], now, |&(at, _)| at)
            .1
    }

    /// How stale mirror `m` is at `now`: time since its last completed
    /// refresh (mirrors that never refreshed are stale since ZERO).
    pub fn staleness_at(&self, mirror: u32, now: SimTime) -> SimDuration {
        let tl = &self.timelines[mirror as usize];
        let idx = tl.partition_point(|&(at, _)| at <= now);
        now.since(tl[idx - 1].0)
    }

    /// Refresh attempts skipped because of origin or mirror outages.
    pub fn skipped_refreshes(&self) -> u64 {
        self.skipped_refreshes
    }

    /// Refresh attempts that completed.
    pub fn completed_refreshes(&self) -> u64 {
        self.completed_refreshes
    }

    /// An update fetch routed through mirror `mirror` on behalf of
    /// `weight` identical clients, where `served` is the version the
    /// mirror serves at `now` and `visible` the origin's. A down mirror
    /// answers nothing (counted as `update.unavailable`, same as an
    /// origin outage, so client backoff behaviour is tier-agnostic);
    /// otherwise the origin's serving decision runs against the
    /// mirror's possibly stale refreshed version. Serves that hand out
    /// an older version than the origin currently holds are counted as
    /// `mirror.stale_serves`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve(
        &self,
        server: &FeedServer,
        mirror: u32,
        served: u64,
        visible: u64,
        client_version: Option<u64>,
        last_fetch: Option<SimTime>,
        now: SimTime,
        weight: u64,
        tally: &mut Tally,
    ) -> Serve {
        if self.down_at(mirror, now) {
            tally.add(Counter::UpdateUnavailable, weight);
            tally.add(Counter::MirrorUnavailable, weight);
            return Serve::Unavailable;
        }
        if served < visible {
            tally.add(Counter::MirrorStaleServes, weight);
        }
        server.decide(client_version, last_fetch, now, served, weight, tally)
    }

    /// One client's update fetch through mirror `mirror`, counted
    /// into the server's own counters.
    pub fn fetch(
        &self,
        server: &FeedServer,
        mirror: u32,
        client_version: Option<u64>,
        last_fetch: Option<SimTime>,
        now: SimTime,
    ) -> UpdateResponse {
        let mut tally = Tally::default();
        let serve = self.serve(
            server,
            mirror,
            self.version_at(mirror, now),
            server.version_at(now),
            client_version,
            last_fetch,
            now,
            1,
            &mut tally,
        );
        server.absorb(&tally);
        server.response(serve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use phishsim_simnet::link::TierOutage;
    use phishsim_simnet::OutageWindow;

    fn origin() -> FeedServer {
        let mut s = FeedServer::new(ServerConfig::default());
        let h = |i: u64| (i << 33) | 0x77;
        s.publish((0..100).map(h), SimTime::from_mins(10));
        s.publish((0..110).map(h), SimTime::from_mins(40));
        s
    }

    #[test]
    fn mirrors_serve_the_origin_version_with_bounded_staleness() {
        let server = origin();
        let cfg = MirrorConfig {
            mirrors: 4,
            refresh_every: SimDuration::from_mins(5),
            outages: TierOutagePlan::none(),
        };
        let tier = MirrorTier::build(&cfg, &server, SimTime::from_hours(2));
        assert_eq!(tier.mirrors(), 4);
        // Before any refresh sees v2, mirrors still serve v1.
        assert_eq!(tier.version_at(0, SimTime::from_mins(9)), 1);
        // One refresh period after publication every mirror has caught
        // up; staleness never exceeds the refresh period.
        for m in 0..4 {
            assert_eq!(tier.version_at(m, SimTime::from_mins(16)), 2);
            assert_eq!(tier.version_at(m, SimTime::from_mins(46)), 3);
            assert!(
                tier.staleness_at(m, SimTime::from_mins(46)) <= SimDuration::from_mins(5),
                "mirror {m} stale too long"
            );
        }
        assert!(tier.completed_refreshes() > 0);
        assert_eq!(tier.skipped_refreshes(), 0);
    }

    #[test]
    fn origin_outage_freezes_mirror_refreshes() {
        // Origin down minutes 8..25: refreshes in that window are
        // skipped and mirrors keep serving v1 even though v2 published
        // at minute 10.
        let server = origin().with_outages(vec![OutageWindow::new(
            SimTime::from_mins(8),
            SimTime::from_mins(25),
        )]);
        let cfg = MirrorConfig {
            mirrors: 1,
            refresh_every: SimDuration::from_mins(5),
            outages: TierOutagePlan::none(),
        };
        let tier = MirrorTier::build(&cfg, &server, SimTime::from_hours(1));
        assert_eq!(tier.version_at(0, SimTime::from_mins(24)), 1, "frozen");
        assert_eq!(tier.version_at(0, SimTime::from_mins(26)), 2, "caught up");
        assert!(tier.skipped_refreshes() >= 3);
        // Yet the *mirror* stays answerable during the origin outage —
        // clients just get the stale version. A cohort of seven counts
        // seven times.
        let mut tally = Tally::default();
        let now = SimTime::from_mins(20);
        let (served, visible) = (tier.version_at(0, now), server.version_at(now));
        let serve = tier.serve(&server, 0, served, visible, None, None, now, 7, &mut tally);
        let Serve::FullReset { version, .. } = serve else {
            panic!("expected a (stale) full reset, got {serve:?}");
        };
        assert_eq!(version, 1);
        assert_eq!(tally.get(Counter::UpdateFullReset), 7);
        assert_eq!(tally.get(Counter::MirrorStaleServes), 7);
        // A single client's fetch gets the same decision, with the
        // stale store as its payload.
        let resp = tier.fetch(&server, 0, None, None, SimTime::from_mins(20));
        let UpdateResponse::FullReset { version, store, .. } = resp else {
            panic!("expected a (stale) full reset, got {resp:?}");
        };
        assert_eq!((version, store.len()), (1, 0));
        assert_eq!(server.counters().get("mirror.stale_serves"), 1);
    }

    #[test]
    fn mirror_outage_refuses_clients_and_skips_refreshes() {
        let server = origin();
        let plan = TierOutagePlan {
            outages: vec![TierOutage {
                mirror: 0,
                window: OutageWindow::new(SimTime::from_mins(8), SimTime::from_mins(25)),
            }],
        };
        let cfg = MirrorConfig {
            mirrors: 2,
            refresh_every: SimDuration::from_mins(5),
            outages: plan,
        };
        let tier = MirrorTier::build(&cfg, &server, SimTime::from_hours(1));
        // Mirror 0 is down: unavailable to clients, refreshes skipped.
        let mut tally = Tally::default();
        let now = SimTime::from_mins(20);
        let (served, visible) = (tier.version_at(0, now), server.version_at(now));
        let serve = tier.serve(&server, 0, served, visible, None, None, now, 3, &mut tally);
        assert_eq!(serve, Serve::Unavailable);
        assert_eq!(tally.get(Counter::UpdateUnavailable), 3);
        assert_eq!(tally.get(Counter::MirrorUnavailable), 3);
        let resp = tier.fetch(&server, 0, None, None, SimTime::from_mins(20));
        assert!(matches!(resp, UpdateResponse::Unavailable));
        assert_eq!(server.counters().get("mirror.unavailable"), 1);
        assert_eq!(tier.version_at(0, SimTime::from_mins(24)), 1);
        // Mirror 1 is unaffected.
        assert!(!tier.down_at(1, SimTime::from_mins(20)));
        assert_eq!(tier.version_at(1, SimTime::from_mins(24)), 2);
        // After the window, mirror 0 recovers on its next refresh.
        assert_eq!(tier.version_at(0, SimTime::from_mins(30)), 2);
    }

    #[test]
    fn stale_mirror_never_hands_out_a_newer_client_a_downgrade() {
        let server = origin();
        let cfg = MirrorConfig {
            mirrors: 2,
            refresh_every: SimDuration::from_mins(30),
            outages: TierOutagePlan::none(),
        };
        let tier = MirrorTier::build(&cfg, &server, SimTime::from_hours(2));
        // A client that already holds v3 (say it synced through a
        // fresher path) asks a mirror still on v2: up-to-date, not a
        // downgrade reset.
        let now = SimTime::from_mins(44);
        let stale_m = (0..2)
            .find(|&m| tier.version_at(m, now) == 2)
            .expect("some mirror still stale");
        let resp = tier.fetch(&server, stale_m, Some(3), None, now);
        let UpdateResponse::UpToDate { version } = resp else {
            panic!("expected up-to-date, got {resp:?}");
        };
        assert_eq!(version, 3);
    }
}
