//! Per-engine blacklists.
//!
//! The experiment's measured quantity is *time of appearance on a
//! blacklist*. [`Blacklist`] stores URL → first-listed time,
//! idempotently, and can answer "was this URL listed as of time T" —
//! which is what the monitoring loop (GSB Lookup API calls, half-hourly
//! feed downloads) asks.

use phishsim_http::{CanonicalKey, Url};
use phishsim_simnet::{BuildSymHasher, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;

/// One engine's blacklist.
///
/// ```
/// use phishsim_antiphish::Blacklist;
/// use phishsim_http::Url;
/// use phishsim_simnet::SimTime;
///
/// let mut list = Blacklist::new();
/// let url = Url::parse("https://bad.com/kit.php").unwrap();
/// list.add(&url, SimTime::from_mins(90));
/// assert!(!list.is_listed(&url, SimTime::from_mins(89)));
/// assert!(list.is_listed(&url, SimTime::from_mins(90)));
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct Blacklist {
    /// First-listed time by canonical URL ([`Url::canonical`]): a
    /// lookup finds its entry from the borrowed form, building no key.
    entries: HashMap<CanonicalKey, SimTime, BuildSymHasher>,
    /// Bumped on every effective mutation; lets derived structures
    /// (the Safe-Browsing prefix store, feedserve snapshots) memoize
    /// per version instead of rebuilding per call.
    version: u64,
}

/// The derived layout: `{"entries": {text: time, ...}, "version": n}`.
impl Deserialize for Blacklist {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Layout {
            entries: HashMap<String, SimTime>,
            version: u64,
        }
        let Layout { entries, version } = Layout::from_value(value)?;
        Ok(Blacklist {
            entries: entries
                .into_iter()
                .map(|(text, t)| (CanonicalKey::from_text(text), t))
                .collect(),
            version,
        })
    }
}

impl Blacklist {
    /// An empty blacklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// List a URL at `at`. Earlier listings win (idempotent; re-adding
    /// never moves the timestamp forward or backward to a later time).
    /// Only a URL new to the list allocates: its key.
    pub fn add(&mut self, url: &Url, at: SimTime) {
        let canonical = url.canonical();
        let changed = match self.entries.get_mut(canonical.as_key()) {
            Some(t) if at < *t => {
                *t = at;
                true
            }
            Some(_) => false,
            None => {
                self.entries.insert(canonical.to_key(), at);
                true
            }
        };
        if changed {
            self.version += 1;
        }
    }

    /// The list's mutation version: bumped on every add that changed
    /// an entry, unchanged by no-op re-adds. `(version, listed count)`
    /// keys the memoized Safe-Browsing prefix store.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of entries listed at or before `now`. Because listings
    /// accumulate as a filtration (the set of entries with `t <= now`
    /// grows monotonically and ties cross the threshold together),
    /// this count uniquely identifies the as-of-`now` membership for a
    /// fixed version — an O(n) scan with no allocation, used as the
    /// memoization key for snapshot rebuilds.
    pub fn listed_count_at(&self, now: SimTime) -> usize {
        self.entries.values().filter(|&&t| t <= now).count()
    }

    /// When the URL was first listed, if ever. Allocates nothing.
    pub fn listed_at(&self, url: &Url) -> Option<SimTime> {
        self.entries.get(url.canonical().as_key()).copied()
    }

    /// Whether the URL was on the list as of `now` (the Lookup-API /
    /// feed-download view).
    pub fn is_listed(&self, url: &Url, now: SimTime) -> bool {
        self.listed_at(url).is_some_and(|t| t <= now)
    }

    /// Number of listed URLs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot of the feed as of `now` (what a half-hourly download
    /// returns).
    pub fn feed_snapshot(&self, now: SimTime) -> Vec<(String, SimTime)> {
        let mut v: Vec<(String, SimTime)> = self
            .entries
            .iter()
            .filter(|(_, &t)| t <= now)
            .map(|(k, &t)| (k.as_str().to_string(), t))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn add_and_query() {
        let mut b = Blacklist::new();
        let u = url("https://bad.com/secure/login.php");
        assert!(!b.is_listed(&u, SimTime::from_hours(10)));
        b.add(&u, SimTime::from_mins(90));
        assert_eq!(b.listed_at(&u), Some(SimTime::from_mins(90)));
        assert!(
            !b.is_listed(&u, SimTime::from_mins(89)),
            "not listed before listing time"
        );
        assert!(b.is_listed(&u, SimTime::from_mins(90)));
    }

    #[test]
    fn earliest_listing_wins() {
        let mut b = Blacklist::new();
        let u = url("https://bad.com/p");
        b.add(&u, SimTime::from_mins(100));
        b.add(&u, SimTime::from_mins(50));
        b.add(&u, SimTime::from_mins(200));
        assert_eq!(b.listed_at(&u), Some(SimTime::from_mins(50)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn query_parameters_canonicalised() {
        let mut b = Blacklist::new();
        b.add(&url("https://bad.com/p?x=1"), SimTime::from_mins(1));
        assert!(b.is_listed(&url("https://bad.com/p?x=2"), SimTime::from_mins(2)));
        assert!(!b.is_listed(&url("https://bad.com/other"), SimTime::from_mins(2)));
    }

    #[test]
    fn version_bumps_only_on_effective_mutation() {
        let mut b = Blacklist::new();
        assert_eq!(b.version(), 0);
        let u = url("https://bad.com/p");
        b.add(&u, SimTime::from_mins(100));
        assert_eq!(b.version(), 1);
        // Later re-add: no-op, no bump.
        b.add(&u, SimTime::from_mins(200));
        assert_eq!(b.version(), 1);
        // Earlier re-add: moves the timestamp, bumps.
        b.add(&u, SimTime::from_mins(50));
        assert_eq!(b.version(), 2);
    }

    #[test]
    fn listed_count_tracks_time() {
        let mut b = Blacklist::new();
        b.add(&url("https://a.com/1"), SimTime::from_mins(10));
        b.add(&url("https://b.com/2"), SimTime::from_mins(90));
        assert_eq!(b.listed_count_at(SimTime::from_mins(9)), 0);
        assert_eq!(b.listed_count_at(SimTime::from_mins(10)), 1);
        assert_eq!(b.listed_count_at(SimTime::from_hours(2)), 2);
    }

    #[test]
    fn feed_snapshot_respects_time() {
        let mut b = Blacklist::new();
        b.add(&url("https://a.com/1"), SimTime::from_mins(10));
        b.add(&url("https://b.com/2"), SimTime::from_mins(90));
        let snap = b.feed_snapshot(SimTime::from_mins(30));
        assert_eq!(snap.len(), 1);
        assert!(snap[0].0.contains("a.com"));
        let later = b.feed_snapshot(SimTime::from_hours(2));
        assert_eq!(later.len(), 2);
    }
}
