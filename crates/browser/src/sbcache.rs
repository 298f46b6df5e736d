//! The Safe-Browsing verdict cache.
//!
//! §2.4 of the paper explains why reCAPTCHA evasion also defeats
//! *client-side* protection in practice: "Since the URL has not
//! changed, the built-in browser anti-phishing system (e.g., GSB in
//! Chrome) or the installed third-party extension (e.g., NetCraft
//! toolbar) does not resend it to the server and serves instead the
//! cached result usually valid for 5 to 60 minutes." [`VerdictCache`]
//! models that Update-API-style client cache; experiment E5 sweeps its
//! TTL to show the blind-spot window.
//!
//! [`SbLocalDb`] is the full client-resident state: the shared
//! `phishsim_feedserve::PrefixStore` downloaded by the update
//! protocol *plus* the verdict cache, mirroring how a real browser
//! first checks the local prefix list (free, private) and only
//! consults cache/server on a prefix hit. Both layers expose their
//! hit/miss/expiry counters as a `simnet::metrics::CounterSet`.

use phishsim_feedserve::PrefixStore;
use phishsim_http::{CanonicalKey, Url};
use phishsim_simnet::metrics::CounterSet;
use phishsim_simnet::{BuildSymHasher, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A cached Safe-Browsing verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The URL was not on any blacklist when checked.
    Safe,
    /// The URL was blacklisted when checked.
    Phishing,
}

#[derive(Debug, Clone)]
struct Entry {
    verdict: Verdict,
    expires_at: SimTime,
}

/// A per-client verdict cache keyed by the canonical URL
/// ([`Url::canonical`], the form the hashed-prefix scheme hashes).
///
/// ```
/// use phishsim_browser::{Verdict, VerdictCache};
/// use phishsim_http::Url;
/// use phishsim_simnet::{SimDuration, SimTime};
///
/// let mut cache = VerdictCache::new(SimDuration::from_mins(30));
/// let url = Url::parse("https://site.com/p").unwrap();
/// cache.store(&url, Verdict::Safe, SimTime::ZERO);
/// // Within the TTL the stale verdict masks any later listing (§2.4).
/// assert_eq!(cache.lookup(&url, SimTime::from_mins(29)), Some(Verdict::Safe));
/// assert_eq!(cache.lookup(&url, SimTime::from_mins(31)), None);
/// ```
#[derive(Debug, Clone)]
pub struct VerdictCache {
    ttl: SimDuration,
    entries: HashMap<CanonicalKey, Entry, BuildSymHasher>,
    /// Count of lookups answered from cache.
    pub hits: u64,
    /// Count of lookups that had to go to the server.
    pub misses: u64,
    /// Subset of `misses` where an entry existed but had expired (the
    /// client re-checks — the moment a §2.4 blind window closes).
    pub expiries: u64,
}

impl VerdictCache {
    /// A cache with the given TTL. The real cache TTL varies between 5
    /// and 60 minutes depending on the server's response.
    pub fn new(ttl: SimDuration) -> Self {
        VerdictCache {
            ttl,
            entries: HashMap::default(),
            hits: 0,
            misses: 0,
            expiries: 0,
        }
    }

    /// The conventional default (middle of the 5–60 minute range).
    pub fn default_ttl() -> Self {
        VerdictCache::new(SimDuration::from_mins(30))
    }

    /// Look up a verdict; `None` means the client must ask the server.
    pub fn lookup(&mut self, url: &Url, now: SimTime) -> Option<Verdict> {
        match self.entries.get(url.canonical().as_key()) {
            Some(e) if e.expires_at > now => {
                self.hits += 1;
                Some(e.verdict)
            }
            Some(_) => {
                self.expiries += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The cache's counters, in the shared `CounterSet` shape (same
    /// pattern as the crawl path's `RenderCache`).
    pub fn counters(&self) -> CounterSet {
        let mut c = CounterSet::new();
        c.add("verdict.hits", self.hits);
        c.add("verdict.misses", self.misses);
        c.add("verdict.expiries", self.expiries);
        c
    }

    /// Store a verdict obtained from the server at `now`. Only a URL
    /// new to the cache allocates: its key.
    pub fn store(&mut self, url: &Url, verdict: Verdict, now: SimTime) {
        let entry = Entry {
            verdict,
            expires_at: now + self.ttl,
        };
        let canonical = url.canonical();
        match self.entries.get_mut(canonical.as_key()) {
            Some(e) => *e = entry,
            None => {
                self.entries.insert(canonical.to_key(), entry);
            }
        }
    }

    /// The configured TTL.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Number of (possibly expired) entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The browser's full client-resident Safe-Browsing state: the prefix
/// store installed by the last update download, gated in front of the
/// [`VerdictCache`].
///
/// On navigation the real client hashes the URL and checks the local
/// prefix list first; most URLs miss there and never reach the verdict
/// cache or the network. Only on a prefix hit does the cached (or
/// freshly fetched) full-hash verdict come into play. Until a store is
/// installed via [`SbLocalDb::install`] the gate is open and the type
/// behaves exactly like a bare `VerdictCache`, so existing cache-only
/// scenarios (the E5 TTL sweep, the figure-3 walkthrough) are
/// unchanged.
///
/// The full hash is `url.canonical().hash()` — the same
/// convention the antiphish-side Update API server uses, so a store
/// produced there (or by a `feedserve::FeedServer`) matches here.
#[derive(Debug, Clone)]
pub struct SbLocalDb {
    prefix_store: Option<Arc<PrefixStore>>,
    version: u64,
    cache: VerdictCache,
    /// Navigations the prefix gate answered locally (prefix absent →
    /// safe, no cache lookup, nothing leaves the device).
    pub prefix_clean: u64,
    /// Navigations whose prefix was present (or no store installed),
    /// falling through to the verdict cache.
    pub prefix_pass: u64,
}

impl SbLocalDb {
    /// A local DB with no prefix store installed yet and the given
    /// verdict-cache TTL.
    pub fn new(ttl: SimDuration) -> Self {
        SbLocalDb {
            prefix_store: None,
            version: 0,
            cache: VerdictCache::new(ttl),
            prefix_clean: 0,
            prefix_pass: 0,
        }
    }

    /// The conventional default TTL (see [`VerdictCache::default_ttl`]).
    pub fn default_ttl() -> Self {
        SbLocalDb::new(SimDuration::from_mins(30))
    }

    /// Install a downloaded prefix store, tagged with its feed version.
    /// All clients of one feed state share the same `Arc`.
    pub fn install(&mut self, store: Arc<PrefixStore>, version: u64) {
        self.prefix_store = Some(store);
        self.version = version;
    }

    /// The installed prefix store, if any.
    pub fn prefix_store(&self) -> Option<&Arc<PrefixStore>> {
        self.prefix_store.as_ref()
    }

    /// The feed version of the installed store (0 before any install).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The inner verdict cache.
    pub fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    fn gate_passes(&mut self, url: &Url) -> bool {
        let pass = match &self.prefix_store {
            None => true,
            Some(store) => store.contains_hash(url.canonical().hash()),
        };
        if pass {
            self.prefix_pass += 1;
        } else {
            self.prefix_clean += 1;
        }
        pass
    }

    /// Look up a verdict. `Some(Safe)` from the prefix gate means the
    /// URL is not on the installed list; `None` means the client must
    /// ask the server (prefix hit, no live cached verdict).
    pub fn lookup(&mut self, url: &Url, now: SimTime) -> Option<Verdict> {
        if !self.gate_passes(url) {
            return Some(Verdict::Safe);
        }
        self.cache.lookup(url, now)
    }

    /// Cache a verdict obtained from the server at `now`.
    pub fn store(&mut self, url: &Url, verdict: Verdict, now: SimTime) {
        self.cache.store(url, verdict, now);
    }

    /// The verdict cache's TTL.
    pub fn ttl(&self) -> SimDuration {
        self.cache.ttl()
    }

    /// Deterministic JSON state snapshot (the runpack `seek` hook):
    /// installed feed version, prefix-gate counters, store checksum.
    pub fn snapshot(&self) -> serde_json::Value {
        serde_json::json!({
            "version": self.version,
            "prefix_clean": self.prefix_clean,
            "prefix_pass": self.prefix_pass,
            "cached_verdicts": self.cache.len(),
            "prefix_count": self.prefix_store.as_ref().map(|s| s.len()).unwrap_or(0),
            "prefix_checksum": self.prefix_store.as_ref().map(|s| s.checksum()).unwrap_or(0),
        })
    }

    /// Combined counters: the verdict cache's hit/miss/expiry plus the
    /// prefix gate's clean/pass split and the installed feed version.
    pub fn counters(&self) -> CounterSet {
        let mut c = self.cache.counters();
        c.add("prefix.clean", self.prefix_clean);
        c.add("prefix.pass", self.prefix_pass);
        c.add("store.version", self.version);
        c
    }
}

impl Default for SbLocalDb {
    fn default() -> Self {
        SbLocalDb::default_ttl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn miss_then_hit_within_ttl() {
        let mut c = VerdictCache::new(SimDuration::from_mins(30));
        let u = url("https://site.com/account/verify.php");
        let t0 = SimTime::from_mins(10);
        assert_eq!(c.lookup(&u, t0), None);
        c.store(&u, Verdict::Safe, t0);
        assert_eq!(
            c.lookup(&u, t0 + SimDuration::from_mins(29)),
            Some(Verdict::Safe)
        );
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn entry_expires_after_ttl() {
        let mut c = VerdictCache::new(SimDuration::from_mins(5));
        let u = url("https://site.com/p");
        c.store(&u, Verdict::Safe, SimTime::ZERO);
        assert_eq!(c.lookup(&u, SimTime::from_mins(5)), None);
    }

    #[test]
    fn query_parameters_do_not_split_entries() {
        let mut c = VerdictCache::default_ttl();
        let a = url("https://site.com/p?x=1");
        let b = url("https://site.com/p?x=2");
        c.store(&a, Verdict::Safe, SimTime::ZERO);
        assert_eq!(c.lookup(&b, SimTime::from_mins(1)), Some(Verdict::Safe));
    }

    #[test]
    fn the_recaptcha_blind_spot() {
        // The scenario from §2.4: the URL is checked (safe) when the
        // benign CAPTCHA page loads; the user solves the challenge and
        // the same URL now serves the phishing payload — but the client
        // serves the cached "safe" verdict instead of re-checking.
        let mut c = VerdictCache::new(SimDuration::from_mins(30));
        let u = url("https://victim.com/account/verify.php");
        let page_load = SimTime::from_mins(0);
        assert_eq!(
            c.lookup(&u, page_load),
            None,
            "first load checks the server"
        );
        c.store(&u, Verdict::Safe, page_load);
        // 45 seconds later the payload replaces the page content at the
        // same URL; the cached verdict hides it.
        let post_solve = page_load + SimDuration::from_secs(45);
        assert_eq!(c.lookup(&u, post_solve), Some(Verdict::Safe));
        // Only after the TTL does the client re-check.
        assert_eq!(c.lookup(&u, page_load + SimDuration::from_mins(31)), None);
    }

    #[test]
    fn store_overwrites() {
        let mut c = VerdictCache::default_ttl();
        let u = url("https://site.com/p");
        c.store(&u, Verdict::Safe, SimTime::ZERO);
        c.store(&u, Verdict::Phishing, SimTime::from_mins(1));
        assert_eq!(c.lookup(&u, SimTime::from_mins(2)), Some(Verdict::Phishing));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn expiry_counter_splits_misses() {
        let mut c = VerdictCache::new(SimDuration::from_mins(5));
        let u = url("https://site.com/p");
        assert_eq!(c.lookup(&u, SimTime::ZERO), None, "cold miss");
        c.store(&u, Verdict::Safe, SimTime::ZERO);
        assert_eq!(c.lookup(&u, SimTime::from_mins(6)), None, "expired miss");
        assert_eq!(c.misses, 2);
        assert_eq!(c.expiries, 1);
        let counters = c.counters();
        assert_eq!(counters.get("verdict.misses"), 2);
        assert_eq!(counters.get("verdict.expiries"), 1);
        assert_eq!(counters.get("verdict.hits"), 0);
    }

    #[test]
    fn local_db_without_store_is_a_plain_cache() {
        let mut db = SbLocalDb::default_ttl();
        let u = url("https://site.com/p");
        assert_eq!(db.lookup(&u, SimTime::ZERO), None);
        db.store(&u, Verdict::Phishing, SimTime::ZERO);
        assert_eq!(
            db.lookup(&u, SimTime::from_mins(1)),
            Some(Verdict::Phishing)
        );
        assert_eq!(db.prefix_pass, 2, "open gate passes everything");
        assert_eq!(db.prefix_clean, 0);
    }

    #[test]
    fn installed_store_answers_clean_urls_locally() {
        let listed = url("https://victim.com/account/verify.php");
        let clean = url("https://innocent.org/home");
        let store = Arc::new(PrefixStore::from_hashes([listed.canonical().hash()]));
        let mut db = SbLocalDb::default_ttl();
        db.install(store, 7);
        assert_eq!(db.version(), 7);
        // Clean URL: prefix gate answers Safe without touching the
        // verdict cache.
        assert_eq!(db.lookup(&clean, SimTime::ZERO), Some(Verdict::Safe));
        assert_eq!(db.prefix_clean, 1);
        assert_eq!(db.cache().misses, 0);
        // Listed URL: gate passes, cache miss → client must go to the
        // server; the fetched verdict is then cached.
        assert_eq!(db.lookup(&listed, SimTime::ZERO), None);
        db.store(&listed, Verdict::Phishing, SimTime::ZERO);
        assert_eq!(
            db.lookup(&listed, SimTime::from_mins(1)),
            Some(Verdict::Phishing)
        );
        let counters = db.counters();
        assert_eq!(counters.get("prefix.clean"), 1);
        assert_eq!(counters.get("prefix.pass"), 2);
        assert_eq!(counters.get("verdict.hits"), 1);
        assert_eq!(counters.get("store.version"), 7);
    }
}
