//! The render cache and verdict store an [`Engine`](crate::Engine)
//! classifies through.
//!
//! Both cached products are pure functions of their keys — a render of
//! the body, a [`Classification`] of `(body, host)` (engine-specific
//! [`ClassifierMode`] scoring is applied *after* the lookup) — so one
//! [`RunCaches`] pair can serve every engine of an experiment run
//! without any result changing: six engines crawling the same page
//! bodies parse and classify each body once. Outside the main
//! experiment each engine holds a pair of its own.

use crate::classifier::{Classification, ClassifierMode};
use parking_lot::Mutex;
use phishsim_browser::RenderCache;
use phishsim_simnet::metrics::CounterSet;
use std::collections::HashMap;
use std::sync::Arc;

/// Key of one memoized classification: (body hash, host hash).
pub type VerdictKey = (u64, u64);

#[derive(Debug, Default)]
struct StoreInner {
    entries: HashMap<VerdictKey, Classification>,
    hits: u64,
    misses: u64,
}

/// A content-keyed store of page [`Classification`]s, shareable across
/// the engines of a run.
///
/// The classifier is pure in `(page summary, host)` and the summary is
/// fully determined by the body hash, so `(body_hash, host_hash)` keys
/// the verdict for every engine; each engine applies its own
/// [`ClassifierMode`] scoring to the shared classification.
#[derive(Debug, Default)]
pub struct VerdictStore {
    inner: Mutex<StoreInner>,
}

impl VerdictStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Score the classification stored under `key` in `mode`,
    /// computing and storing it via `compute` on a miss. Returns the
    /// score and whether the classification was served from the store.
    /// Scoring happens under the store's lock, so a hit copies out one
    /// `f64` and never clones the classification.
    pub fn score(
        &self,
        key: VerdictKey,
        mode: ClassifierMode,
        compute: impl FnOnce() -> Classification,
    ) -> (f64, bool) {
        let mut inner = self.inner.lock();
        if let Some(c) = inner.entries.get(&key) {
            let score = c.score(mode);
            inner.hits += 1;
            return (score, true);
        }
        inner.misses += 1;
        let c = compute();
        let score = c.score(mode);
        inner.entries.insert(key, c);
        (score, false)
    }

    /// Hit/miss counters (`verdict_store.*`) for instrumentation.
    pub fn counters(&self) -> CounterSet {
        let inner = self.inner.lock();
        let mut c = CounterSet::new();
        c.add("verdict_store.hit", inner.hits);
        c.add("verdict_store.miss", inner.misses);
        c
    }
}

/// A render cache and a verdict store: one engine's own pair, or one
/// run's pair attached to every engine of the run. Cloning shares the
/// caches.
#[derive(Debug, Clone, Default)]
pub struct RunCaches {
    /// Render products keyed by body hash.
    pub render: Arc<RenderCache>,
    /// Classifications keyed by (body hash, host hash).
    pub verdicts: Arc<VerdictStore>,
}

impl RunCaches {
    /// An empty pair.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// Combined cache counters for both members.
    pub fn counters(&self) -> CounterSet {
        let mut c = self.render.counters();
        c.merge(&self.verdicts.counters());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::classify;
    use phishsim_browser::Rendered;

    fn verdict(sig: f64) -> Classification {
        Classification {
            signature_score: sig,
            heuristic_score: sig / 2.0,
            evidence: vec![format!("test-evidence-{sig}")],
        }
    }

    #[test]
    fn store_memoizes_and_counts() {
        let store = VerdictStore::new();
        let key = (1, 2);
        let mode = ClassifierMode::SignatureOnly;
        let (a, hit_a) = store.score(key, mode, || verdict(0.9));
        let (b, hit_b) = store.score(key, mode, || panic!("must not recompute"));
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(a, b);
        assert_eq!(store.counters().get("verdict_store.hit"), 1);
        assert_eq!(store.counters().get("verdict_store.miss"), 1);
    }

    #[test]
    fn verdict_hits_score_like_direct_classification() {
        // A cached verdict scored under any mode must equal scoring a
        // fresh `classify` of the same page: the store is keyed by page
        // content only, and each engine's mode is applied after lookup.
        let host = "paypal-account-check.example";
        let body = "<html><title>PayPal: Log in to your account</title>\
                    <form action=\"/login\"><input type=\"text\" name=\"email\">\
                    <input type=\"password\" name=\"pass\"></form></html>";
        let page = Rendered::compute(body);
        let direct = classify(&page.summary, host);
        let key = (page.body_hash, 7);
        let store = VerdictStore::new();
        let modes = [
            ClassifierMode::SignatureAndHeuristics,
            ClassifierMode::SignatureOnly,
        ];
        let (first, hit) = store.score(key, modes[0], || classify(&page.summary, host));
        assert!(!hit);
        assert_eq!(first, direct.score(modes[0]));
        for mode in modes {
            let (score, hit) = store.score(key, mode, || panic!("must be a hit"));
            assert!(hit);
            assert_eq!(score, direct.score(mode), "{mode:?}");
        }
        assert!(direct.score(modes[0]) > 0.0, "the page must score");
        assert_eq!(store.counters().get("verdict_store.hit"), 2);
    }
}
