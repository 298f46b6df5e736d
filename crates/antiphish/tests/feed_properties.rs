//! Property-based tests on blacklists and feed propagation.

use phishsim_antiphish::{Blacklist, EngineId, FeedNetwork};
use phishsim_http::Url;
use phishsim_simnet::{DetRng, SimTime};
use proptest::prelude::*;
use serde::Serialize;
use std::collections::HashMap;

fn url_strategy() -> impl Strategy<Value = Url> {
    "[a-z][a-z0-9-]{0,16}\\.(com|net|org)".prop_map(|h| Url::https(&h, "/kit.php"))
}

/// http and https URLs over two hosts and two paths, the root path
/// among them, with query pairs (empty values among them) on top: many
/// distinct URLs share a canonical form.
fn colliding_url_strategy() -> impl Strategy<Value = Url> {
    (
        any::<bool>(),
        0usize..2,
        0usize..2,
        proptest::collection::vec(("[a-z]{1,3}", "[a-z0-9]{0,2}"), 0..3),
    )
        .prop_map(|(https, host, path, params)| {
            let scheme = if https { "https" } else { "http" };
            let host = ["bad.com", "bad.co"][host];
            let path = ["", "/kit/login.php"][path];
            let mut u = Url::parse(&format!("{scheme}://{host}{path}")).unwrap();
            for (k, v) in params {
                u = u.with_param(&k, &v);
            }
            u
        })
}

/// The blacklist as it was first written: first-listed times in a
/// `HashMap<String, SimTime>` keyed by the text of the URL without its
/// query, spelled out from its fields, with the same derived serde
/// layout.
#[derive(Default, Serialize)]
struct Reference {
    entries: HashMap<String, SimTime>,
    version: u64,
}

impl Reference {
    fn key(url: &Url) -> String {
        let scheme = if url.https { "https" } else { "http" };
        format!("{scheme}://{}{}", url.host, url.path)
    }

    fn add(&mut self, url: &Url, at: SimTime) {
        let mut changed = false;
        self.entries
            .entry(Self::key(url))
            .and_modify(|t| {
                if at < *t {
                    *t = at;
                    changed = true;
                }
            })
            .or_insert_with(|| {
                changed = true;
                at
            });
        if changed {
            self.version += 1;
        }
    }

    fn listed_at(&self, url: &Url) -> Option<SimTime> {
        self.entries.get(&Self::key(url)).copied()
    }

    fn feed_snapshot(&self, now: SimTime) -> Vec<(String, SimTime)> {
        let mut v: Vec<(String, SimTime)> = self
            .entries
            .iter()
            .filter(|(_, &t)| t <= now)
            .map(|(k, &t)| (k.clone(), t))
            .collect();
        v.sort();
        v
    }
}

proptest! {
    /// Blacklist listing time is the minimum of all add() calls,
    /// regardless of order.
    #[test]
    fn blacklist_keeps_earliest_time(mut times in proptest::collection::vec(0u64..1_000_000, 1..20)) {
        let mut b = Blacklist::new();
        let u = Url::https("bad.com", "/p");
        for &t in &times {
            b.add(&u, SimTime::from_millis(t));
        }
        times.sort_unstable();
        prop_assert_eq!(b.listed_at(&u), Some(SimTime::from_millis(times[0])));
        prop_assert_eq!(b.len(), 1);
    }

    /// is_listed is monotone in time: once listed, listed forever.
    #[test]
    fn listing_is_monotone(t_list in 0u64..1_000_000, probes in proptest::collection::vec(0u64..2_000_000, 1..30)) {
        let mut b = Blacklist::new();
        let u = Url::https("bad.com", "/p");
        b.add(&u, SimTime::from_millis(t_list));
        for &p in &probes {
            let expected = p >= t_list;
            prop_assert_eq!(b.is_listed(&u, SimTime::from_millis(p)), expected);
        }
    }

    /// Propagated listings never precede the primary listing, and the
    /// primary engine always carries the URL.
    #[test]
    fn propagation_is_causal(seed in any::<u64>(), url in url_strategy(), t in 0u64..10_000_000) {
        let mut net = FeedNetwork::paper_topology(&DetRng::new(seed));
        let at = SimTime::from_millis(t);
        for engine in EngineId::all() {
            let listed = net.publish(engine, &url, at);
            prop_assert_eq!(listed[0], (engine, at), "primary listing first");
            for (other, when) in &listed[1..] {
                prop_assert!(*when >= at, "{other:?} listed before the source");
                prop_assert!(*other != engine, "self-propagation");
            }
        }
    }

    /// Feed snapshots are consistent with point queries.
    #[test]
    fn snapshot_matches_queries(
        entries in proptest::collection::vec((url_strategy(), 0u64..1_000_000), 1..20),
        probe_t in 0u64..1_000_000,
    ) {
        let mut b = Blacklist::new();
        for (u, t) in &entries {
            b.add(u, SimTime::from_millis(*t));
        }
        let now = SimTime::from_millis(probe_t);
        let snap = b.feed_snapshot(now);
        for (key, t) in &snap {
            prop_assert!(*t <= now);
            let u = Url::parse(key).unwrap();
            prop_assert!(b.is_listed(&u, now));
        }
        // Every listed entry appears in the snapshot.
        for (u, _) in &entries {
            if b.is_listed(u, now) {
                let key = u.canonical().to_string();
                prop_assert!(snap.iter().any(|(k, _)| *k == key));
            }
        }
    }

    /// Every query, the snapshot and the serde layout agree with the
    /// string-keyed reference after any sequence of adds.
    #[test]
    fn blacklist_matches_the_string_keyed_reference(
        adds in proptest::collection::vec((colliding_url_strategy(), 0u64..1_000), 1..24),
        probes in proptest::collection::vec((colliding_url_strategy(), 0u64..1_200), 1..12),
    ) {
        let mut b = Blacklist::new();
        let mut reference = Reference::default();
        for (u, t) in &adds {
            b.add(u, SimTime::from_mins(*t));
            reference.add(u, SimTime::from_mins(*t));
            prop_assert_eq!(b.version(), reference.version);
            prop_assert_eq!(b.len(), reference.entries.len());
        }
        for (u, t) in &probes {
            let now = SimTime::from_mins(*t);
            prop_assert_eq!(b.listed_at(u), reference.listed_at(u));
            prop_assert_eq!(
                b.is_listed(u, now),
                reference.listed_at(u).is_some_and(|l| l <= now)
            );
            prop_assert_eq!(b.feed_snapshot(now), reference.feed_snapshot(now));
            prop_assert_eq!(b.listed_count_at(now), reference.feed_snapshot(now).len());
        }
        let json = serde_json::to_string(&b).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&reference).unwrap());
        let back: Blacklist = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    /// Carriers are sorted by listing time and bounded by the horizon.
    #[test]
    fn carriers_sorted_and_bounded(seed in any::<u64>(), url in url_strategy(), t in 0u64..1_000_000, horizon in 0u64..3_000_000) {
        let mut net = FeedNetwork::paper_topology(&DetRng::new(seed));
        net.publish(EngineId::OpenPhish, &url, SimTime::from_millis(t));
        let h = SimTime::from_millis(horizon);
        let carriers = net.carriers(&url, h);
        for w in carriers.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        for (_, when) in &carriers {
            prop_assert!(*when <= h);
        }
    }
}
