//! The versioned update server.
//!
//! [`FeedServer`] is the distribution side of the subsystem: it holds
//! every published blacklist version as a [`PrefixStore`] snapshot,
//! answers update requests with an incremental [`PrefixDiff`] when the
//! client's version is inside the bounded history window and a full
//! reset otherwise (SB v4's behaviour), enforces a minimum wait
//! between a client's update fetches, and serves full-hash lookups
//! with positive/negative cache TTLs. Every served response is
//! instrumented through a [`CounterSet`].
//!
//! One function decides every serve, `FeedServer::decide`. It returns
//! a `Serve`, which carries no payload, and counts into a typed
//! `Tally`. The population walk needs nothing more: it takes no lock,
//! looks up no counter by string, clones no `Arc` and allocates nothing
//! per exchange. The client-facing calls build their payloads from the
//! same decision. They find the visible version by a binary search; a
//! walk, whose clock only grows, steps a `TimelineCursor` forward
//! instead, and reads its full-hash answers from a table built once by
//! the same lookup (`FeedServer::negative_answers`).

use crate::diff::PrefixDiff;
use crate::store::{prefix_of, PrefixStore};
use crate::tally::{Counter, Tally};
use parking_lot::Mutex;
use phishsim_simnet::metrics::CounterSet;
use phishsim_simnet::{ObsSink, OutageWindow, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Server tuning knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerConfig {
    /// How many versions back a diff may reach; older clients get a
    /// full reset.
    pub history_window: u64,
    /// Minimum wait a client must respect between update fetches
    /// (requests inside the window are answered with a backoff).
    pub min_wait: SimDuration,
    /// Cache TTL for a full-hash response that carried hashes.
    pub positive_ttl: SimDuration,
    /// Cache TTL for a full-hash response that carried none (the
    /// prefix was a collision).
    pub negative_ttl: SimDuration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            history_window: 16,
            min_wait: SimDuration::from_mins(5),
            positive_ttl: SimDuration::from_mins(30),
            negative_ttl: SimDuration::from_mins(5),
        }
    }
}

/// A diff with its wire-encoded size.
type CachedDiff = (Arc<PrefixDiff>, usize);

/// One published version.
#[derive(Debug)]
struct VersionEntry {
    version: u64,
    published_at: SimTime,
    store: Arc<PrefixStore>,
    /// Sorted full hashes backing the store (full-hash lookups range-
    /// scan this by prefix).
    full_hashes: Vec<u64>,
    /// Cached wire size of a full reset at this version.
    encoded_len: usize,
    /// The diffs into this version, computed on first use and shared
    /// by every client that asks: slot `lag - 1` holds the diff from
    /// `version - lag`. There is one slot per version a diff may start
    /// from, `min(history_window, version - 1)` in all.
    diffs: Box<[OnceLock<CachedDiff>]>,
}

impl VersionEntry {
    /// The run of this version's sorted full hashes under `prefix`.
    fn hashes_under(&self, prefix: u32) -> &[u64] {
        let full = &self.full_hashes;
        let start = full.partition_point(|&h| h < u64::from(prefix) << 32);
        let len = full[start..].partition_point(|&h| prefix_of(h) == prefix);
        &full[start..start + len]
    }
}

/// A forward-only position in a time-ordered list whose first entry
/// is at `SimTime::ZERO`: the origin's published versions or one
/// mirror's refreshes. A schedule walk's clock only grows, so each
/// exchange steps the cursor past the entries that became visible
/// since the last one instead of searching the whole list.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TimelineCursor(usize);

impl TimelineCursor {
    /// The last entry of `list` at or before `now`, where `at` gives an
    /// entry's instant. `now` must not be earlier than the entry the
    /// cursor stopped at.
    pub(crate) fn seek<'a, T>(
        &mut self,
        list: &'a [T],
        now: SimTime,
        at: impl Fn(&T) -> SimTime,
    ) -> &'a T {
        debug_assert!(at(&list[self.0]) <= now, "a timeline cursor moved back");
        while list.get(self.0 + 1).is_some_and(|next| at(next) <= now) {
            self.0 += 1;
        }
        &list[self.0]
    }
}

/// What an update fetch returned.
#[derive(Debug, Clone)]
pub enum UpdateResponse {
    /// The client already holds the current version.
    UpToDate {
        /// The (unchanged) current version.
        version: u64,
    },
    /// An incremental diff from the client's version to current.
    Diff {
        /// The diff to apply.
        diff: Arc<PrefixDiff>,
        /// Wire bytes this response cost.
        wire_bytes: usize,
    },
    /// The client was too far behind (or brand new): full snapshot.
    FullReset {
        /// The version the snapshot represents.
        version: u64,
        /// The complete store.
        store: Arc<PrefixStore>,
        /// Wire bytes this response cost.
        wire_bytes: usize,
    },
    /// The client violated the minimum wait; try again later.
    Backoff {
        /// How long the client must wait before retrying.
        retry_after: SimDuration,
    },
    /// The server is inside a scheduled outage window: no answer at
    /// all. Clients keep serving their stale local store and retry
    /// with their own backoff.
    Unavailable,
}

impl UpdateResponse {
    /// The version the client holds after applying this response, if
    /// it changed.
    pub fn new_version(&self) -> Option<u64> {
        match self {
            UpdateResponse::Diff { diff, .. } => Some(diff.to_version),
            UpdateResponse::FullReset { version, .. } => Some(*version),
            UpdateResponse::UpToDate { .. }
            | UpdateResponse::Backoff { .. }
            | UpdateResponse::Unavailable => None,
        }
    }
}

/// One serving decision, without its payload.
/// [`FeedServer::response`] turns it into the [`UpdateResponse`] a
/// client applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Serve {
    /// The serving edge is down: no answer.
    Unavailable,
    /// Inside the minimum wait: retry after this long.
    Backoff { retry_after: SimDuration },
    /// The client already holds the serving version, or a newer one.
    UpToDate { version: u64 },
    /// An incremental diff `from → to`.
    Diff {
        from: u64,
        to: u64,
        wire_bytes: usize,
    },
    /// A full snapshot of `version`.
    FullReset { version: u64, wire_bytes: usize },
}

impl Serve {
    /// The version the client holds after this serve, if it changed.
    pub(crate) fn new_version(self) -> Option<u64> {
        match self {
            Serve::Diff { to, .. } => Some(to),
            Serve::FullReset { version, .. } => Some(version),
            Serve::Unavailable | Serve::Backoff { .. } | Serve::UpToDate { .. } => None,
        }
    }
}

/// A full-hash lookup answer.
#[derive(Debug, Clone)]
pub struct FullHashResponse {
    /// Full hashes under the queried prefix (possibly empty — a
    /// collision).
    pub hashes: Vec<u64>,
    /// How long a non-empty answer may be cached.
    pub positive_ttl: SimDuration,
    /// How long an empty answer may be cached.
    pub negative_ttl: SimDuration,
}

impl FullHashResponse {
    /// The TTL that applies to this response.
    pub fn cache_ttl(&self) -> SimDuration {
        if self.hashes.is_empty() {
            self.negative_ttl
        } else {
            self.positive_ttl
        }
    }
}

/// The versioned blacklist-distribution server.
#[derive(Debug)]
pub struct FeedServer {
    cfg: ServerConfig,
    /// All published versions, ascending. `entries[0]` is version 1,
    /// published empty at `SimTime::ZERO`, so every instant has a
    /// visible version.
    entries: Vec<VersionEntry>,
    /// Scheduled downtime: inside any of these windows every request
    /// (update fetch or full-hash lookup) goes unanswered.
    outages: Vec<OutageWindow>,
    counters: Mutex<CounterSet>,
    /// Observability sink mirroring the served-response mix (update
    /// kinds, wire bytes, outage refusals) into the run-wide registry.
    obs: ObsSink,
}

impl FeedServer {
    /// A server holding only the empty version 1.
    pub fn new(cfg: ServerConfig) -> Self {
        let empty = Arc::new(PrefixStore::new());
        let encoded_len = empty.encoded_len();
        FeedServer {
            cfg,
            entries: vec![VersionEntry {
                version: 1,
                published_at: SimTime::ZERO,
                store: empty,
                full_hashes: Vec::new(),
                encoded_len,
                diffs: Box::new([]),
            }],
            outages: Vec::new(),
            counters: Mutex::new(CounterSet::new()),
            obs: ObsSink::Null,
        }
    }

    /// Attach an observability sink (builder style).
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Schedule outage windows (inverted windows are dropped).
    /// Publication is unaffected — the backend keeps versioning while
    /// the serving edge is down, which is exactly the failure mode the
    /// resilience experiment measures.
    pub fn with_outages(mut self, outages: Vec<OutageWindow>) -> Self {
        self.outages = outages.into_iter().filter(|w| w.from < w.until).collect();
        self
    }

    /// Whether the serving edge is down at `now`.
    pub fn down_at(&self, now: SimTime) -> bool {
        self.outages.iter().any(|w| w.contains(now))
    }

    /// Publish the complete current full-hash set as a new version at
    /// `at`. Publication times must be monotone. Returns the new
    /// version number.
    pub fn publish<I: IntoIterator<Item = u64>>(&mut self, hashes: I, at: SimTime) -> u64 {
        let last = self.entries.last().expect("version 1 always exists");
        assert!(
            at >= last.published_at,
            "publications must be time-ordered ({at} < {})",
            last.published_at
        );
        let mut full: Vec<u64> = hashes.into_iter().collect();
        full.sort_unstable();
        full.dedup();
        let store = Arc::new(PrefixStore::from_hashes(full.iter().copied()));
        let version = last.version + 1;
        let encoded_len = store.encoded_len();
        let diff_slots = (version - 1).min(self.cfg.history_window) as usize;
        self.entries.push(VersionEntry {
            version,
            published_at: at,
            store,
            full_hashes: full,
            encoded_len,
            diffs: (0..diff_slots).map(|_| OnceLock::new()).collect(),
        });
        version
    }

    /// The newest version published at or before `now`.
    pub fn version_at(&self, now: SimTime) -> u64 {
        self.visible_entry(now).version
    }

    /// The newest version overall.
    pub fn current_version(&self) -> u64 {
        self.entries.last().expect("non-empty").version
    }

    /// The store snapshot for `version`, if it was ever published.
    pub fn store_at(&self, version: u64) -> Option<Arc<PrefixStore>> {
        self.entry(version).map(|e| Arc::clone(&e.store))
    }

    /// When `version` was published.
    pub fn published_at(&self, version: u64) -> Option<SimTime> {
        self.entry(version).map(|e| e.published_at)
    }

    /// The earliest version whose store contains `prefix`, if any —
    /// the population simulator uses this to turn "client synced to
    /// version v" into "client is protected against this URL".
    pub fn first_version_containing(&self, prefix: u32) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.store.contains(prefix))
            .map(|e| e.version)
    }

    fn entry(&self, version: u64) -> Option<&VersionEntry> {
        // Versions are dense starting at 1.
        let idx = usize::try_from(version.checked_sub(1)?).ok()?;
        self.entries.get(idx)
    }

    fn visible_entry(&self, now: SimTime) -> &VersionEntry {
        let idx = self.entries.partition_point(|e| e.published_at <= now);
        // entries[0] is published at ZERO, so idx >= 1.
        &self.entries[idx - 1]
    }

    /// The version visible at `now`, found by stepping `cursor` forward
    /// from where it last stopped: [`FeedServer::version_at`] for a
    /// walk whose clock never goes back.
    pub(crate) fn version_from(&self, cursor: &mut TimelineCursor, now: SimTime) -> u64 {
        cursor.seek(&self.entries, now, |e| e.published_at).version
    }

    /// Handle an update fetch, counting into the server's own
    /// counters. `client_version` is what the client holds (`None` for
    /// a fresh install), `last_fetch` its previous *accepted* fetch.
    pub fn fetch_update(
        &self,
        client_version: Option<u64>,
        last_fetch: Option<SimTime>,
        now: SimTime,
    ) -> UpdateResponse {
        let mut tally = Tally::default();
        let visible = self.version_at(now);
        let serve = self.serve(visible, client_version, last_fetch, now, 1, &mut tally);
        self.absorb(&tally);
        self.response(serve)
    }

    /// An update fetch at the origin on behalf of `weight` identical
    /// clients: refused inside an outage window, else decided against
    /// `visible`, the version visible at `now`.
    pub(crate) fn serve(
        &self,
        visible: u64,
        client_version: Option<u64>,
        last_fetch: Option<SimTime>,
        now: SimTime,
        weight: u64,
        tally: &mut Tally,
    ) -> Serve {
        if self.down_at(now) {
            tally.add(Counter::UpdateUnavailable, weight);
            self.obs.add("feedsrv.unavailable", weight);
            return Serve::Unavailable;
        }
        self.decide(client_version, last_fetch, now, visible, weight, tally)
    }

    /// The serving decision, toward the published version `target`:
    /// a backoff inside the minimum wait, else up-to-date, a diff, or
    /// a full reset. It counts on behalf of `weight` identical clients,
    /// byte totals included, and mirrors the mix into the obs sink.
    /// Outages are the caller's to check: the origin refuses inside
    /// its own windows ([`FeedServer::serve`]), a mirror inside its
    /// tier's, where it serves the origin version it last refreshed to.
    pub(crate) fn decide(
        &self,
        client_version: Option<u64>,
        last_fetch: Option<SimTime>,
        now: SimTime,
        target: u64,
        weight: u64,
        tally: &mut Tally,
    ) -> Serve {
        if let Some(lf) = last_fetch {
            let elapsed = now.since(lf);
            if elapsed < self.cfg.min_wait {
                tally.add(Counter::UpdateBackoff, weight);
                self.obs.add("feedsrv.backoff", weight);
                return Serve::Backoff {
                    retry_after: SimDuration::from_millis(
                        self.cfg.min_wait.as_millis() - elapsed.as_millis(),
                    ),
                };
            }
        }
        match client_version {
            // A client already at (or, through a fresher mirror, past)
            // the serving version has nothing to download.
            Some(v) if v >= target => {
                tally.add(Counter::UpdateUpToDate, weight);
                self.obs.add("feedsrv.up_to_date", weight);
                return Serve::UpToDate { version: v };
            }
            Some(v) => {
                if let Some(&(_, wire_bytes)) = self.cached_diff(v, target) {
                    tally.add(Counter::UpdateDiff, weight);
                    tally.add(
                        Counter::BytesDiff,
                        (wire_bytes as u64).saturating_mul(weight),
                    );
                    self.obs.add("feedsrv.diff", weight);
                    self.obs.observe("feedsrv.diff_bytes", wire_bytes as u64);
                    return Serve::Diff {
                        from: v,
                        to: target,
                        wire_bytes,
                    };
                }
            }
            None => {}
        }
        let wire_bytes = self
            .entry(target)
            .expect("serving a published version")
            .encoded_len;
        tally.add(Counter::UpdateFullReset, weight);
        tally.add(
            Counter::BytesFullReset,
            (wire_bytes as u64).saturating_mul(weight),
        );
        self.obs.add("feedsrv.full_reset", weight);
        self.obs.observe("feedsrv.reset_bytes", wire_bytes as u64);
        Serve::FullReset {
            version: target,
            wire_bytes,
        }
    }

    /// The diff `from → to`, if `from` is inside `to`'s history window
    /// (`1 <= to - from <= history_window`), computed on first use.
    fn cached_diff(&self, from: u64, to: u64) -> Option<&CachedDiff> {
        let to_entry = self.entry(to)?;
        let lag = usize::try_from(to.checked_sub(from)?).ok()?;
        let slot = to_entry.diffs.get(lag.checked_sub(1)?)?;
        Some(slot.get_or_init(|| {
            let from_entry = self.entry(from).expect("a slot's source is published");
            let diff = PrefixDiff::between(&from_entry.store, &to_entry.store, from, to);
            let bytes = diff.encoded_len();
            (Arc::new(diff), bytes)
        }))
    }

    /// The payload of a serving decision, as a client receives it.
    pub(crate) fn response(&self, serve: Serve) -> UpdateResponse {
        match serve {
            Serve::Unavailable => UpdateResponse::Unavailable,
            Serve::Backoff { retry_after } => UpdateResponse::Backoff { retry_after },
            Serve::UpToDate { version } => UpdateResponse::UpToDate { version },
            Serve::Diff {
                from,
                to,
                wire_bytes,
            } => UpdateResponse::Diff {
                diff: Arc::clone(&self.cached_diff(from, to).expect("decided in the window").0),
                wire_bytes,
            },
            Serve::FullReset {
                version,
                wire_bytes,
            } => UpdateResponse::FullReset {
                version,
                store: self
                    .store_at(version)
                    .expect("decided on a published version"),
                wire_bytes,
            },
        }
    }

    /// Answer a full-hash lookup as of `now`, counting into the
    /// server's own counters.
    pub fn full_hashes(&self, prefix: u32, now: SimTime) -> FullHashResponse {
        let hashes = self.lookup_full_hashes(prefix, now).to_vec();
        let mut tally = Tally::default();
        self.count_full_hash_lookup(hashes.is_empty(), 1, &mut tally);
        self.absorb(&tally);
        FullHashResponse {
            hashes,
            positive_ttl: self.cfg.positive_ttl,
            negative_ttl: self.cfg.negative_ttl,
        }
    }

    /// Outage-aware full-hash lookup: `None` while the serving edge is
    /// down (the client must fall back on whatever it has cached).
    pub fn try_full_hashes(&self, prefix: u32, now: SimTime) -> Option<FullHashResponse> {
        if self.down_at(now) {
            self.counters.lock().incr("fullhash.unavailable");
            self.obs.incr("feedsrv.fullhash_unavailable");
            return None;
        }
        Some(self.full_hashes(prefix, now))
    }

    /// The full hashes under `prefix` in the version visible at `now`,
    /// as a slice of that version's sorted hashes.
    pub(crate) fn lookup_full_hashes(&self, prefix: u32, now: SimTime) -> &[u64] {
        self.visible_entry(now).hashes_under(prefix)
    }

    /// Per published version, at index `version - 1`: whether a
    /// full-hash lookup of `prefix` answers nothing there. A walk
    /// reads a lookup's answer from this table at its origin cursor.
    pub(crate) fn negative_answers(&self, prefix: u32) -> Vec<bool> {
        self.entries
            .iter()
            .map(|e| e.hashes_under(prefix).is_empty())
            .collect()
    }

    /// Count one full-hash lookup, and its answer if `negative`, on
    /// behalf of `weight` identical clients.
    pub(crate) fn count_full_hash_lookup(&self, negative: bool, weight: u64, tally: &mut Tally) {
        tally.add(Counter::FullhashLookups, weight);
        self.obs.add("feedsrv.fullhash_lookups", weight);
        if negative {
            tally.add(Counter::FullhashNegative, weight);
        }
    }

    /// Snapshot of the server's counters.
    pub fn counters(&self) -> CounterSet {
        self.counters.lock().clone()
    }

    /// Fold a caller-accumulated counter set (a population walk's
    /// merged counters) into the server's.
    pub fn absorb_counters(&self, other: &CounterSet) {
        self.counters.lock().merge(other);
    }

    /// Fold one client-facing exchange's tally into the server's
    /// counters.
    pub(crate) fn absorb(&self, tally: &Tally) {
        tally.add_to(&mut self.counters.lock());
    }

    /// Deterministic JSON state snapshot (the runpack `seek` hook):
    /// current version, its store size/checksum, and the serving
    /// counters. Read-only — draws no RNG, mutates nothing.
    pub fn snapshot(&self) -> serde_json::Value {
        let version = self.current_version();
        let store = self.store_at(version);
        let counters: std::collections::BTreeMap<String, u64> = self
            .counters()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        serde_json::json!({
            "version": version,
            "prefix_count": store.as_ref().map(|s| s.len()).unwrap_or(0),
            "checksum": store.as_ref().map(|s| s.checksum()).unwrap_or(0),
            "counters": counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with_growth() -> FeedServer {
        let mut s = FeedServer::new(ServerConfig::default());
        // v2: hashes 0..100; v3: 0..110; v4: 0..120 (spread prefixes).
        let h = |i: u64| (i << 33) | 0xabc;
        s.publish((0..100).map(h), SimTime::from_mins(10));
        s.publish((0..110).map(h), SimTime::from_mins(40));
        s.publish((0..120).map(h), SimTime::from_mins(70));
        s
    }

    #[test]
    fn version_visibility_follows_time() {
        let s = server_with_growth();
        assert_eq!(s.version_at(SimTime::ZERO), 1);
        assert_eq!(s.version_at(SimTime::from_mins(10)), 2);
        assert_eq!(s.version_at(SimTime::from_mins(39)), 2);
        assert_eq!(s.version_at(SimTime::from_mins(100)), 4);
        assert_eq!(s.current_version(), 4);
    }

    #[test]
    fn fresh_client_gets_full_reset_then_diffs() {
        let s = server_with_growth();
        let now = SimTime::from_mins(15);
        let r = s.fetch_update(None, None, now);
        let UpdateResponse::FullReset { version, store, .. } = r else {
            panic!("fresh client must get a full reset, got {r:?}");
        };
        assert_eq!(version, 2);
        assert_eq!(store.len(), 100);

        let later = SimTime::from_mins(45);
        let r = s.fetch_update(Some(2), Some(now), later);
        let UpdateResponse::Diff { diff, wire_bytes } = r else {
            panic!("one version behind must get a diff, got {r:?}");
        };
        assert_eq!((diff.from_version, diff.to_version), (2, 3));
        assert_eq!(diff.additions().len(), 10);
        assert!(wire_bytes > 0);
        let applied = diff.apply(&store).unwrap();
        assert_eq!(Some(applied), s.store_at(3).map(|a| (*a).clone()));
        assert_eq!(s.counters().get("update.diff"), 1);
        assert_eq!(s.counters().get("update.full_reset"), 1);
    }

    #[test]
    fn clients_outside_the_history_window_get_reset() {
        let mut s = FeedServer::new(ServerConfig {
            history_window: 2,
            ..ServerConfig::default()
        });
        for i in 0..6u64 {
            s.publish(
                (0..10 + i).map(|x| x << 34),
                SimTime::from_mins(10 * (i + 1)),
            );
        }
        let now = SimTime::from_hours(2);
        // current = 7; a client at version 5 is within the window...
        assert!(matches!(
            s.fetch_update(Some(5), None, now),
            UpdateResponse::Diff { .. }
        ));
        // ...a client at version 2 is not.
        assert!(matches!(
            s.fetch_update(Some(2), None, now),
            UpdateResponse::FullReset { .. }
        ));
        assert_eq!(s.counters().get("update.full_reset"), 1);
    }

    #[test]
    fn min_wait_is_enforced() {
        let s = server_with_growth();
        let first = SimTime::from_mins(20);
        let r = s.fetch_update(Some(2), Some(first), first + SimDuration::from_mins(2));
        let UpdateResponse::Backoff { retry_after } = r else {
            panic!("violation must back off, got {r:?}");
        };
        assert_eq!(retry_after, SimDuration::from_mins(3));
        assert_eq!(s.counters().get("update.backoff"), 1);
        // At exactly min_wait the request is accepted.
        assert!(matches!(
            s.fetch_update(Some(2), Some(first), first + SimDuration::from_mins(5)),
            UpdateResponse::UpToDate { .. }
        ));
    }

    #[test]
    fn full_hash_lookup_range_scans_by_prefix() {
        let mut s = FeedServer::new(ServerConfig::default());
        let hashes = [
            0x0000_0001_0000_0001u64,
            0x0000_0001_0000_0002,
            0x0000_0002_0000_0001,
        ];
        s.publish(hashes, SimTime::from_mins(1));
        let now = SimTime::from_mins(2);
        let r = s.full_hashes(1, now);
        assert_eq!(r.hashes, vec![hashes[0], hashes[1]]);
        assert_eq!(r.cache_ttl(), s.config().positive_ttl);
        let miss = s.full_hashes(0xdead_beef, now);
        assert!(miss.hashes.is_empty());
        assert_eq!(miss.cache_ttl(), s.config().negative_ttl);
        let c = s.counters();
        assert_eq!(c.get("fullhash.lookups"), 2);
        assert_eq!(c.get("fullhash.negative"), 1);
    }

    #[test]
    fn first_version_containing_tracks_listings() {
        let s = server_with_growth();
        let h105 = 105u64 << 33 | 0xabc;
        assert_eq!(s.first_version_containing(prefix_of(h105)), Some(3));
        assert_eq!(s.first_version_containing(0xffff_ffff), None);
    }

    #[test]
    fn outage_windows_make_the_server_unavailable() {
        let s = server_with_growth().with_outages(vec![
            OutageWindow::new(SimTime::from_mins(20), SimTime::from_mins(30)),
            // Inverted window: dropped by validation.
            OutageWindow::new(SimTime::from_mins(90), SimTime::from_mins(80)),
        ]);
        assert!(s.down_at(SimTime::from_mins(25)));
        assert!(!s.down_at(SimTime::from_mins(30)), "half-open bound");
        assert!(!s.down_at(SimTime::from_mins(85)));
        let r = s.fetch_update(Some(2), None, SimTime::from_mins(25));
        assert!(matches!(r, UpdateResponse::Unavailable));
        assert_eq!(r.new_version(), None);
        assert!(s
            .try_full_hashes(prefix_of(0xabc), SimTime::from_mins(25))
            .is_none());
        // The edge comes back and serves the same state as before.
        assert!(matches!(
            s.fetch_update(Some(2), None, SimTime::from_mins(45)),
            UpdateResponse::Diff { .. }
        ));
        assert!(s
            .try_full_hashes(prefix_of(0xabc), SimTime::from_mins(45))
            .is_some());
        let c = s.counters();
        assert_eq!(c.get("update.unavailable"), 1);
        assert_eq!(c.get("fullhash.unavailable"), 1);
    }

    #[test]
    fn diff_bytes_are_cheaper_than_reset_bytes() {
        let s = server_with_growth();
        let now = SimTime::from_hours(2);
        let UpdateResponse::Diff {
            wire_bytes: diff_bytes,
            ..
        } = s.fetch_update(Some(3), None, now)
        else {
            panic!("expected diff");
        };
        let UpdateResponse::FullReset {
            wire_bytes: reset_bytes,
            ..
        } = s.fetch_update(None, None, now)
        else {
            panic!("expected reset");
        };
        assert!(
            diff_bytes < reset_bytes,
            "diff {diff_bytes} >= reset {reset_bytes}"
        );
    }
}
