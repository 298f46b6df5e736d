//! Property-based tests on the browser's stateful components: the
//! Safe-Browsing verdict cache and (via phishsim-http) the cookie jar
//! as the browser exercises it.

use phishsim_browser::{Verdict, VerdictCache};
use phishsim_http::{CookieJar, Url};
use phishsim_simnet::{SimDuration, SimTime};
use proptest::prelude::*;

fn url_strategy() -> impl Strategy<Value = Url> {
    (
        "[a-z][a-z0-9-]{0,12}\\.(com|net)",
        "(/[a-z0-9]{1,8}){0,3}",
        proptest::option::of(("[a-z]{1,6}", "[a-z0-9]{0,8}")),
    )
        .prop_map(|(h, p, q)| {
            let mut u = Url::https(&h, if p.is_empty() { "/" } else { &p });
            if let Some((k, v)) = q {
                u = u.with_param(&k, &v);
            }
            u
        })
}

proptest! {
    /// Cache lookups never return an expired verdict, and always return
    /// the stored verdict within the TTL.
    #[test]
    fn cache_ttl_exact(
        url in url_strategy(),
        ttl_mins in 1u64..120,
        store_at in 0u64..10_000,
        probe_offset in 0u64..20_000,
        phishing in any::<bool>(),
    ) {
        let mut c = VerdictCache::new(SimDuration::from_mins(ttl_mins));
        let verdict = if phishing { Verdict::Phishing } else { Verdict::Safe };
        let t0 = SimTime::from_secs(store_at);
        c.store(&url, verdict, t0);
        let probe = t0 + SimDuration::from_secs(probe_offset);
        let hit = c.lookup(&url, probe);
        if SimDuration::from_secs(probe_offset) < SimDuration::from_mins(ttl_mins) {
            prop_assert_eq!(hit, Some(verdict));
        } else {
            prop_assert_eq!(hit, None);
        }
    }

    /// Query parameters never fragment the cache key.
    #[test]
    fn cache_ignores_query(url in url_strategy(), k in "[a-z]{1,6}", v in "[a-z0-9]{0,6}") {
        let mut c = VerdictCache::default_ttl();
        c.store(&url, Verdict::Phishing, SimTime::ZERO);
        let variant = url.clone().with_param(&k, &v);
        prop_assert_eq!(
            c.lookup(&variant, SimTime::from_mins(1)),
            Some(Verdict::Phishing)
        );
    }

    /// Hit/miss counters account for every lookup.
    #[test]
    fn cache_counters_conserve(lookups in proptest::collection::vec((url_strategy(), any::<bool>()), 1..40)) {
        let mut c = VerdictCache::default_ttl();
        for (u, store_first) in &lookups {
            if *store_first {
                c.store(u, Verdict::Safe, SimTime::ZERO);
            }
            let _ = c.lookup(u, SimTime::from_mins(1));
        }
        prop_assert_eq!(c.hits + c.misses, lookups.len() as u64);
    }

    /// The cookie jar never sends a cookie to a host that did not set
    /// it, for any mix of hosts.
    #[test]
    fn jar_isolates_hosts(
        cookies in proptest::collection::vec(("[a-z]{1,8}", "[a-z0-9]{1,8}", "[a-z]{1,8}\\.(com|net)"), 1..12),
    ) {
        let mut jar = CookieJar::new();
        let now = SimTime::ZERO;
        for (name, value, host) in &cookies {
            jar.ingest([format!("{name}={value}").as_str()], host, now);
        }
        for (_, _, host) in &cookies {
            let header = jar.cookie_header(host, "/", now);
            for (name, value, owner) in &cookies {
                let pair = format!("{name}={value}");
                if header.split("; ").any(|c| c == pair) {
                    // Some (name, value) may be set on several hosts;
                    // at least one matching owner must equal this host.
                    prop_assert!(
                        cookies.iter().any(|(n, v, h)| n == name && v == value && h == host),
                        "cookie {pair} leaked from {owner} to {host}"
                    );
                }
            }
        }
        // A host nobody set cookies on receives nothing.
        prop_assert_eq!(jar.cookie_header("uninvolved.org", "/", now), "");
    }
}
