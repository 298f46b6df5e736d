//! Content-keyed render memoization.
//!
//! The crawl hot path renders the same HTML body over and over: every
//! recheck pass, deep pass and dedup revalidation of an unchanged page
//! re-parses the DOM, re-extracts the page summary and re-scans for
//! CAPTCHA widgets. A [`RenderCache`] memoizes the complete render
//! product ([`Rendered`]) keyed by a hash of the body, so within one
//! experiment run each distinct page body is parsed exactly once.
//!
//! Correctness note: the cache key is the page *content*, not the URL.
//! A session-gate kit swapping the payload in behind the same URL, or a
//! CAPTCHA gate serving a new body after the solve, changes the body
//! hash and therefore **misses** the cache — gated flows are never
//! served stale renders (see the unit tests).
//!
//! A served [`Body`] carries its hash, computed once per distinct body,
//! so [`RenderCache::render_body`] looks a page up without reading it.

use parking_lot::Mutex;
use phishsim_captcha::{find_widget, SiteKey};
use phishsim_html::{Document, PageSummary, ScriptEffect};
use phishsim_http::Body;
use phishsim_simnet::metrics::CounterSet;
use std::collections::HashMap;
use std::sync::Arc;

pub use phishsim_http::content_hash;

/// Everything the browser derives from one page body: the parsed
/// summary, the script effects, and the CAPTCHA widget scan.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// Hash of the body this render came from.
    pub body_hash: u64,
    /// Parsed page summary, shared by every view of this body.
    pub summary: Arc<PageSummary>,
    /// Script effects extracted from the document.
    pub effects: Vec<ScriptEffect>,
    /// CAPTCHA widget site key, if a widget is present.
    pub widget: Option<SiteKey>,
}

impl Rendered {
    /// Parse and summarize `body` (the uncached path).
    pub fn compute(body: &str) -> Rendered {
        Self::compute_hashed(body, content_hash(body))
    }

    fn compute_hashed(body: &str, body_hash: u64) -> Rendered {
        let doc = Document::parse(body);
        Rendered {
            body_hash,
            summary: Arc::new(PageSummary::extract(&doc)),
            effects: ScriptEffect::extract(&doc),
            widget: find_widget(body),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<u64, Arc<Rendered>>,
    hits: u64,
    misses: u64,
}

/// A shared, content-keyed cache of [`Rendered`] pages.
///
/// One cache serves one experiment run: engines attach it to every
/// browser they spawn, so the dozens of crawler visits to an unchanged
/// page body share a single parse. Thread-safe so a parallel sweep's
/// per-run caches can also back concurrently-driven browsers.
#[derive(Debug, Default)]
pub struct RenderCache {
    inner: Mutex<Inner>,
}

impl RenderCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render `body`, reusing the memoized product when this exact
    /// content was rendered before.
    pub fn render(&self, body: &str) -> Arc<Rendered> {
        self.render_hashed(body, content_hash(body))
    }

    /// [`render`](Self::render) keyed on the body's memoized hash, so a
    /// body served many times is hashed once.
    pub fn render_body(&self, body: &Body) -> Arc<Rendered> {
        self.render_hashed(body, body.content_hash())
    }

    fn render_hashed(&self, body: &str, hash: u64) -> Arc<Rendered> {
        let mut inner = self.inner.lock();
        if let Some(r) = inner.entries.get(&hash) {
            let r = Arc::clone(r);
            inner.hits += 1;
            return r;
        }
        inner.misses += 1;
        let r = Arc::new(Rendered::compute_hashed(body, hash));
        inner.entries.insert(hash, Arc::clone(&r));
        r
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Hit/miss counters in `simnet::metrics` form, for experiment
    /// instrumentation.
    pub fn counters(&self) -> CounterSet {
        let (hits, misses) = self.stats();
        let mut c = CounterSet::new();
        c.add("render_cache.hit", hits);
        c.add("render_cache.miss", misses);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_body_hits_cache() {
        let cache = RenderCache::new();
        let body = "<html><title>t</title><form><input type=password name=p></form></html>";
        let a = cache.render(body);
        let b = cache.render(body);
        assert!(Arc::ptr_eq(&a.summary, &b.summary), "summary is shared");
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.counters().get("render_cache.hit"), 1);
        assert_eq!(cache.counters().get("render_cache.miss"), 1);
    }

    #[test]
    fn mutated_body_misses_cache() {
        // The session-gate page swap and the post-solve CAPTCHA payload
        // both arrive as new bodies on the same URL; content keying must
        // treat them as distinct documents.
        let cache = RenderCache::new();
        let cover = "<html><title>Chat</title><form action=\"/join\">\
                     <input type=\"text\" name=\"user\"></form></html>";
        let payload = "<html><title>Log In</title><form action=\"/login\">\
                       <input type=\"text\" name=\"email\">\
                       <input type=\"password\" name=\"pass\"></form></html>";
        let before = cache.render(cover);
        let after = cache.render(payload);
        assert_ne!(before.body_hash, after.body_hash);
        assert!(!before.summary.has_login_form());
        assert!(after.summary.has_login_form());
        assert_eq!(cache.stats(), (0, 2), "two distinct bodies, no hits");
    }

    #[test]
    fn frozen_render_is_identical_to_direct_compute() {
        // A render the cache has stored is handed out on every later
        // lookup without recomputation; that stored product must equal
        // an uncached render.
        let body = "<html><title>x</title><a href=\"/a\">a</a></html>";
        let cache = RenderCache::new();
        let stored = cache.render(body);
        let served = cache.render(body);
        assert!(Arc::ptr_eq(&stored.summary, &served.summary));
        assert_eq!(cache.stats(), (1, 1), "second lookup is a hit");
        let direct = Rendered::compute(body);
        assert_eq!(served.body_hash, direct.body_hash);
        assert_eq!(served.summary.title, direct.summary.title);
        assert_eq!(served.summary.links, direct.summary.links);
        assert_eq!(served.widget, direct.widget);
    }

    #[test]
    fn body_and_text_renders_share_one_entry() {
        let text = "<html><title>x</title><form><input type=password name=p></form></html>";
        let body = Body::from(text);
        let cache = RenderCache::new();
        let by_body = cache.render_body(&body);
        let by_text = cache.render(text);
        assert!(Arc::ptr_eq(&by_body, &by_text));
        assert_eq!(cache.stats(), (1, 1), "one miss, then one hit");
        assert_eq!(by_body.body_hash, body.content_hash());
    }

    #[test]
    fn body_hash_matches_golden_fnv1a() {
        // FNV-1a of this page as the cache has always keyed it: where
        // the hash lives and how often it runs must not change the key.
        let page = "<html><head><title>Log In</title></head><body>\
                    <form action=\"/login\"><input type=\"email\" name=\"email\">\
                    <input type=\"password\" name=\"pass\"></form></body></html>";
        const GOLDEN: u64 = 0x3334_9306_a8e6_d1bc;
        assert_eq!(content_hash(page), GOLDEN);
        assert_eq!(Rendered::compute(page).body_hash, GOLDEN);
        let cache = RenderCache::new();
        assert_eq!(cache.render_body(&Body::from(page)).body_hash, GOLDEN);
    }

    #[test]
    fn cached_render_matches_direct_compute() {
        let body = "<html><title>x</title><a href=\"/a\">a</a>\
                    <img src=\"/logo.png\"></html>";
        let cache = RenderCache::new();
        let cached = cache.render(body);
        let direct = Rendered::compute(body);
        assert_eq!(cached.body_hash, direct.body_hash);
        assert_eq!(cached.summary.title, direct.summary.title);
        assert_eq!(cached.summary.links, direct.summary.links);
        assert_eq!(cached.effects.len(), direct.effects.len());
        assert_eq!(cached.widget, direct.widget);
    }
}
