//! The crawl pipeline: what an engine does with one reported URL.
//!
//! ```text
//! report ──intake──► first visit ──► (dialog / forms / CAPTCHA per
//! profile) ──► classification ──► verdict delay ──► blacklist
//!          └──────── background crawl + probe traffic (90 % ≤ 2 h) ───┘
//! ```
//!
//! [`Engine::process_report`] executes the whole pipeline in virtual
//! time against a [`Transport`], returning a [`ReportOutcome`] that the
//! experiment framework turns into table rows. All traffic flows
//! through the transport, so the hosting farm's access log sees the
//! same request mix the paper analysed.

use crate::classifier::classify;
use crate::kit_probe;
use crate::profiles::{EngineId, EngineProfile};
use crate::sharedcache::RunCaches;
use parking_lot::Mutex;
use phishsim_browser::rendercache::content_hash;
use phishsim_browser::{
    BrowseStep, Browser, BrowserConfig, DialogPolicy, FetchError, PageView, PassSetup, Transport,
};
use phishsim_captcha::CaptchaProvider;
use phishsim_http::{Request, Url, UserAgent};
use phishsim_simnet::metrics::CounterSet;
use phishsim_simnet::{
    DetRng, IpPool, Ipv4Sim, ObsSink, RetryPolicy, Scheduler, SimDuration, SimTime,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the payload was reached, when it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PayloadPath {
    /// Served directly (naked page, or cloaking failed to block).
    Direct,
    /// Revealed by confirming the modal dialog.
    DialogConfirm,
    /// Revealed by auto-submitting a form (session gate).
    FormSubmit,
}

/// The result of processing one report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportOutcome {
    /// The engine that processed the report.
    pub engine: EngineId,
    /// The reported URL.
    pub url: Url,
    /// Submission time.
    pub reported_at: SimTime,
    /// When the first crawl request hit the site.
    pub first_visit_at: SimTime,
    /// Whether the phishing payload was ever fetched.
    pub payload_reached: bool,
    /// When, if it was.
    pub payload_reached_at: Option<SimTime>,
    /// How, if it was.
    pub payload_via: Option<PayloadPath>,
    /// Whether a CAPTCHA widget was recognised on the page.
    pub captcha_recognised: bool,
    /// Whether a leftover phishing-kit archive was discovered by probe
    /// traffic (the "sloppy phisher" giveaway OpenPhish hunts for).
    pub kit_archive_found: bool,
    /// Best classifier score observed.
    pub best_score: f64,
    /// Blacklist-publication time, if the engine detected the page.
    pub detected_at: Option<SimTime>,
    /// Total requests the engine sent for this report.
    pub requests_made: u64,
}

impl ReportOutcome {
    /// Time from report to blacklisting, if detected.
    pub fn detection_delay(&self) -> Option<SimDuration> {
        self.detected_at.map(|t| t.since(self.reported_at))
    }
}

/// One simulated anti-phishing engine.
#[derive(Debug)]
pub struct Engine {
    /// The engine's capability profile.
    pub profile: EngineProfile,
    pool: IpPool,
    rng: DetRng,
    captcha_provider: Option<Arc<Mutex<CaptchaProvider>>>,
    /// Recently processed URLs for report deduplication, keyed by a
    /// query-stripped URL hash (no per-check String materialization).
    recent_reports: std::collections::HashMap<u64, SimTime>,
    /// The render cache the engine's browser renders through, and the
    /// verdict store it classifies through: the engine's own pair, or
    /// its run's ([`Engine::with_run_caches`]).
    caches: RunCaches,
    classify_hits: u64,
    classify_misses: u64,
    /// Retry policy for transient crawl failures (lost exchanges,
    /// server errors, outages). Applied at two layers: the browser
    /// retries individual exchanges, and the engine re-drives whole
    /// failed visits through a retry-timer [`Scheduler`].
    retry_policy: RetryPolicy,
    /// The engine's one browser, reset for every crawl pass
    /// ([`Engine::start_pass`]).
    browser: Browser,
    /// Crawl passes started so far; labels each pass's retry stream.
    browser_seq: u64,
    /// Visits that needed engine-level recovery; labels their backoff
    /// schedules. Only advances when a transient failure occurs, so the
    /// fault-free path never touches it.
    visit_seq: u64,
    /// Observability sink shared with the engine's browser.
    /// `ObsSink::Null` (the default) is inert: no events, no RNG draws.
    obs: ObsSink,
}

/// Desktop browsers a stealthy crawl request masquerades as.
static DISGUISES: [UserAgent; 3] = [UserAgent::Firefox, UserAgent::Chrome, UserAgent::Edge];

impl Engine {
    /// Instantiate an engine from its calibrated profile.
    pub fn new(id: EngineId, rng: &DetRng) -> Self {
        Self::with_profile(EngineProfile::of(id), rng)
    }

    /// Instantiate an engine from a custom profile (mitigation and
    /// ablation studies upgrade capabilities this way).
    pub fn with_profile(profile: EngineProfile, rng: &DetRng) -> Self {
        let id = profile.id;
        let mut pool_rng = rng.fork(&format!("engine-pool:{}", id.key()));
        // Each engine's crawler fleet lives in its own /16.
        let base = Ipv4Sim::new(20 + (id as u8) * 10, 40 + (id as u8) * 7, 0, 0);
        let pool = IpPool::allocate(base, 16, profile.ip_pool_size, &mut pool_rng);
        let browser = Browser::new(
            BrowserConfig::plain_crawler(""),
            Ipv4Sim::new(0, 0, 0, 0),
            id.key(),
        );
        Engine {
            profile,
            pool,
            rng: rng.fork(&format!("engine:{}", id.key())),
            captcha_provider: None,
            recent_reports: std::collections::HashMap::new(),
            caches: RunCaches::fresh(),
            classify_hits: 0,
            classify_misses: 0,
            retry_policy: RetryPolicy::crawl_default(),
            browser,
            browser_seq: 0,
            visit_seq: 0,
            obs: ObsSink::Null,
        }
    }

    /// Attach an observability sink (builder style). The sink is shared
    /// with the engine's browser and with the retry-timer scheduler, so
    /// crawl/classify/convict spans, retry counters and scheduler gauges
    /// all land in one registry.
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// Replace the transient-failure retry policy (builder style).
    /// `RetryPolicy::no_retries()` restores the old abort-on-failure
    /// behaviour.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// Render and classify through a run's caches, shared with the
    /// run's other engines (builder style). Both cached products are
    /// pure in their keys, so sharing never changes an outcome.
    pub fn with_run_caches(mut self, caches: &RunCaches) -> Self {
        self.caches = caches.clone();
        self
    }

    /// Replace the engine's caches with an empty pair, as a freshly
    /// restarted worker process would start. Both cached products are
    /// pure in their keys, so a cold cache re-derives identical values
    /// and outcomes never change; only the hit/miss counters feel the
    /// restart.
    pub fn reset_run_caches(&mut self) {
        self.caches = RunCaches::fresh();
    }

    /// Deduplication key: the hash of the URL's canonical form
    /// ([`Url::canonical`]), computed without building the string.
    fn report_key(url: &Url) -> u64 {
        url.canonical().hash()
    }

    /// Whether a fresh report of `url` at `now` would be deduplicated
    /// (the engine already processed it within the last 24 hours).
    pub fn is_duplicate_report(&self, url: &Url, now: SimTime) -> bool {
        self.recent_reports
            .get(&Self::report_key(url))
            .is_some_and(|&t| now.since(t) < SimDuration::from_hours(24))
    }

    /// Classify `view` against `host`, memoized by page content. The
    /// classifier is pure in (summary, host), and the summary is fully
    /// determined by the body hash — so (body, host) keys the verdict.
    fn classify_score(&mut self, view: &PageView, host: &str) -> f64 {
        self.obs.incr("engine.classifications");
        let key = (view.body_hash, content_hash(host));
        let (score, hit) = self
            .caches
            .verdicts
            .score(key, self.profile.classifier_mode, || {
                classify(&view.summary, host)
            });
        if hit {
            self.classify_hits += 1;
        } else {
            self.classify_misses += 1;
        }
        score
    }

    /// Hit/miss counters for the render cache, plus this engine's own
    /// classification hits and misses.
    pub fn cache_counters(&self) -> CounterSet {
        let mut c = self.caches.render.counters();
        c.add("classify_cache.hit", self.classify_hits);
        c.add("classify_cache.miss", self.classify_misses);
        c
    }

    /// Deterministic JSON state snapshot (the runpack `seek` hook).
    ///
    /// Captures the engine's evolving run state — report dedup set
    /// size, browser/visit sequence counters, cache counters — purely
    /// by reading; taking a snapshot draws no RNG and mutates nothing,
    /// so recording snapshots cannot perturb an experiment.
    pub fn snapshot(&self) -> serde_json::Value {
        let cache_counters = self.cache_counters();
        let counters: std::collections::BTreeMap<&str, u64> = cache_counters.iter().collect();
        serde_json::json!({
            "engine": self.profile.id.key(),
            "recent_reports": self.recent_reports.len(),
            "browser_seq": self.browser_seq,
            "visit_seq": self.visit_seq,
            "classify_hits": self.classify_hits,
            "classify_misses": self.classify_misses,
            "caches": counters,
        })
    }

    /// Attach the CAPTCHA provider so an upgraded profile's solver can
    /// actually attempt challenges (builder style). Without a solver in
    /// the profile this is inert.
    pub fn with_captcha_provider(mut self, p: Arc<Mutex<CaptchaProvider>>) -> Self {
        self.captcha_provider = Some(p);
        self
    }

    /// The engine's crawler IP pool.
    pub fn pool(&self) -> &IpPool {
        &self.pool
    }

    /// The engine's crawler IP pool, to refill in place. The fleet
    /// scheduler (see [`crate::fleet`]) fills it with the egress
    /// identities its rotation policy selected for the current report,
    /// so cloaking kits keyed on requester identity see the fleet's
    /// churn instead of one static per-engine subnet.
    pub fn crawl_pool_mut(&mut self) -> &mut IpPool {
        &mut self.pool
    }

    /// Draw the user agent of one crawl request: a desktop browser's
    /// for the profile's stealth fraction of requests, else the engine's
    /// own bot agent.
    fn draw_user_agent(&mut self) -> &'static str {
        if self.rng.chance(self.profile.stealth_fraction) {
            self.rng.pick(&DISGUISES).as_str()
        } else {
            self.profile.id.bot_user_agent()
        }
    }

    /// Reset the engine's browser for one crawl pass (a first visit, a
    /// deep pass, a recheck or a dedup revalidation): the empty profile
    /// of a new browser, with a drawn user agent and source address
    /// (in that order). The pass's retry stream is the engine stream's
    /// `browser-retry:{n}` fork, forked only if an exchange fails.
    fn start_pass(&mut self, dialog_policy: DialogPolicy) {
        let user_agent = self.draw_user_agent();
        let src = self.pool.draw(&mut self.rng);
        self.browser_seq += 1;
        self.browser.reset(PassSetup {
            user_agent,
            dialog_policy,
            // None for every real engine — the paper's central finding.
            // Mitigation studies plug a farm solver into the profile.
            captcha_solver: self.profile.captcha_solver.as_ref(),
            captcha_provider: self.captcha_provider.as_ref(),
            src,
            obs: &self.obs,
            render_cache: &self.caches.render,
            retry_policy: &self.retry_policy,
            retry_parent: &self.rng,
            pass: self.browser_seq,
        });
    }

    /// Visit with engine-level recovery: a transiently failed visit is
    /// re-driven on a deterministic backoff schedule, with the waits
    /// materialised as events in a local retry-timer [`Scheduler`]
    /// (remaining timers are cancelled once an attempt succeeds). The
    /// schedule is computed lazily, so the fault-free path performs one
    /// visit and no RNG work. On success after recovery the view's
    /// `elapsed` includes the backoff waits, keeping `start + elapsed`
    /// equal to the real completion time.
    fn visit_with_retry(
        &mut self,
        t: &mut dyn Transport,
        url: &Url,
        start: SimTime,
    ) -> Result<PageView, FetchError> {
        let first = match self.browser.visit(t, url, start) {
            Err(e) if e.is_transient() => e,
            other => return other,
        };
        self.visit_seq += 1;
        let label = format!("visit:{}", self.visit_seq);
        let schedule = self
            .retry_policy
            .schedule_observed(&self.rng, &label, &self.obs);
        let mut timers: Scheduler<u32> = Scheduler::new().with_obs(self.obs.clone());
        timers.advance_to(start);
        let mut at = start;
        let mut pending = Vec::new();
        for (i, d) in schedule.iter().enumerate() {
            at += *d;
            pending.push(timers.schedule_at(at, i as u32));
        }
        let mut last = first;
        while let Some((retry_at, attempt)) = timers.pop() {
            self.obs.incr("engine.visit_retries");
            match self.browser.visit(t, url, retry_at) {
                Ok(mut view) => {
                    for id in pending.drain(attempt as usize + 1..) {
                        timers.cancel(id);
                    }
                    view.elapsed = view.elapsed + retry_at.since(start);
                    self.obs.incr("engine.visit_recovered");
                    return Ok(view);
                }
                Err(e) if e.is_transient() => last = e,
                Err(e) => return Err(e),
            }
        }
        self.obs.incr("engine.visit_giveups");
        Err(last)
    }

    fn exchanges_in(view: &PageView) -> u64 {
        view.steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    BrowseStep::Loaded { .. }
                        | BrowseStep::Redirected { .. }
                        | BrowseStep::AutoRedirected { .. }
                )
            })
            .count() as u64
    }

    /// Fetch a handful of page assets/links the way crawlers do after
    /// loading a page (favicon, logo images, first links).
    fn fetch_assets(&mut self, t: &mut dyn Transport, view: &PageView, at: SimTime) -> u64 {
        let summary = &view.summary;
        let paths = summary
            .favicon
            .iter()
            .chain(summary.images.iter().take(2))
            .chain(summary.links.iter().filter(|l| l.starts_with('/')).take(3))
            .filter(|p| p.starts_with('/'));
        let ua = self.draw_user_agent();
        let mut n = 0;
        for p in paths {
            let url = Url::https(&view.url.host, p);
            let req = Request::get(url).with_user_agent(ua);
            let src = self.pool.draw(&mut self.rng);
            let _ = t.fetch(src, self.profile.id.key(), &req, at);
            n += 1;
        }
        n
    }

    /// Process one reported URL with an order-independent RNG stream.
    ///
    /// [`Engine::process_report`] consumes the engine's sequential RNG,
    /// so the outcome of report *n+1* depends on how many draws report
    /// *n* made — fine for a serial intake queue, wrong for a fleet
    /// where work-stealing reorders reports. This variant runs the
    /// report on the child stream `report-key:r{key}` forked from the
    /// engine seed alone (labelled forks are position-independent; the
    /// label is hashed without being built), with the browser/visit
    /// sequence labels reset around the call, so the outcome is a pure
    /// function of `(engine seed, key, url, reported_at)` no matter
    /// where in the schedule it lands.
    ///
    /// Shared state that is *meant* to persist across reports — the
    /// dedup window, caches — still applies as in `process_report`.
    pub fn process_report_keyed(
        &mut self,
        t: &mut dyn Transport,
        url: &Url,
        reported_at: SimTime,
        volume_scale: f64,
        key: usize,
    ) -> ReportOutcome {
        let keyed = self.rng.numbered_forks("report-key:r").fork(key);
        let saved_rng = std::mem::replace(&mut self.rng, keyed);
        let saved_browser_seq = std::mem::take(&mut self.browser_seq);
        let saved_visit_seq = std::mem::take(&mut self.visit_seq);
        let outcome = self.process_report(t, url, reported_at, volume_scale);
        self.rng = saved_rng;
        self.browser_seq = saved_browser_seq;
        self.visit_seq = saved_visit_seq;
        outcome
    }

    /// Process one reported URL end to end.
    ///
    /// `volume_scale` scales the background-traffic budget (1.0 for
    /// table regeneration, small values for fast tests).
    pub fn process_report(
        &mut self,
        t: &mut dyn Transport,
        url: &Url,
        reported_at: SimTime,
        volume_scale: f64,
    ) -> ReportOutcome {
        // Real intake pipelines deduplicate: a URL re-reported within a
        // day gets a cheap revalidation, not a second full crawl.
        if self.is_duplicate_report(url, reported_at) {
            self.obs.incr("engine.reports");
            self.obs.incr("engine.dedup_hits");
            self.start_pass(self.profile.dialog_policy);
            let recheck_at = reported_at + self.profile.channel.intake_delay(&mut self.rng);
            let mut requests = 0;
            let mut best_score = 0.0;
            let mut payload_reached = false;
            let mut payload_reached_at = None;
            if let Ok(view) = self.visit_with_retry(t, url, recheck_at) {
                requests = Self::exchanges_in(&view);
                best_score = self.classify_score(&view, &url.host);
                if view.summary.has_login_form() {
                    payload_reached = true;
                    payload_reached_at = Some(recheck_at + view.elapsed);
                }
            }
            let detected_at = (best_score >= self.profile.threshold).then(|| {
                let (mean, sd) = self.profile.verdict_delay_mins;
                let delay = self.rng.normal_clamped(mean, sd, 1.0, mean * 4.0 + 10.0);
                payload_reached_at.unwrap_or(recheck_at)
                    + SimDuration::from_millis((delay * 60_000.0) as u64)
            });
            return ReportOutcome {
                engine: self.profile.id,
                url: url.clone(),
                reported_at,
                first_visit_at: recheck_at,
                payload_reached,
                payload_reached_at,
                payload_via: payload_reached.then_some(PayloadPath::Direct),
                captcha_recognised: false,
                kit_archive_found: false,
                best_score,
                detected_at,
                requests_made: requests,
            };
        }
        self.recent_reports
            .insert(Self::report_key(url), reported_at);

        let obs = self.obs.clone();
        let actor = self.profile.id.key();
        obs.incr("engine.reports");
        let report_span = obs.span_start(None, "engine.report", actor, reported_at);

        let intake_at = reported_at + self.profile.channel.intake_delay(&mut self.rng);
        let (lo, hi) = self.profile.first_visit_mins;
        let first_visit_at = intake_at + SimDuration::from_mins(self.rng.range(lo..=hi));

        let mut requests: u64 = 0;
        let mut best_score: f64 = 0.0;
        let mut payload_reached = false;
        let mut payload_reached_at = None;
        let mut payload_via = None;
        let mut captcha_recognised = false;
        let mut detection_score_path: Option<PayloadPath> = None;

        // ---- initial visit ----
        let crawl_span = obs.span_start(Some(report_span), "engine.crawl", actor, first_visit_at);
        let mut last_activity = first_visit_at;
        self.start_pass(self.profile.dialog_policy);
        let initial = self.visit_with_retry(t, url, first_visit_at);
        let mut site_paths: Vec<String> = vec![url.path.clone()];
        if let Ok(view) = &initial {
            last_activity = last_activity.max(first_visit_at + view.elapsed);
            requests += Self::exchanges_in(view);
            requests += self.fetch_assets(t, view, first_visit_at + view.elapsed);
            site_paths.extend(
                view.summary
                    .links
                    .iter()
                    .filter(|l| l.starts_with('/'))
                    .cloned(),
            );
            captcha_recognised |= view.has_step(|s| matches!(s, BrowseStep::CaptchaPresent));
            let score = self.classify_score(view, &url.host);
            if view.summary.has_login_form() {
                payload_reached = true;
                let at = first_visit_at + view.elapsed;
                payload_reached_at = Some(at);
                let via = if view.has_step(|s| matches!(s, BrowseStep::DialogConfirmed)) {
                    PayloadPath::DialogConfirm
                } else {
                    PayloadPath::Direct
                };
                payload_via = Some(via);
                if score > best_score {
                    best_score = score;
                    detection_score_path = Some(via);
                }
            }

            // ---- form submission (crawler probing) ----
            if !view.summary.has_login_form() && !view.summary.forms.is_empty() {
                let login_form = view
                    .summary
                    .forms
                    .iter()
                    .find(|f| f.looks_like_login())
                    .cloned();
                let any_form = view.summary.forms.first().cloned();
                let candidate = if self.profile.submits_login_forms && login_form.is_some() {
                    login_form
                } else if self.profile.submits_any_form {
                    any_form
                } else {
                    None
                };
                if let Some(form) = candidate {
                    let submit_at = first_visit_at + view.elapsed;
                    if let Ok(after) =
                        self.browser
                            .submit_form(t, view, &form, "probe-user", submit_at)
                    {
                        last_activity = last_activity.max(submit_at + after.elapsed);
                        requests += Self::exchanges_in(&after)
                            + after
                                .steps
                                .iter()
                                .filter(|s| matches!(s, BrowseStep::FormSubmitted { .. }))
                                .count() as u64;
                        let score = self.classify_score(&after, &url.host);
                        if after.summary.has_login_form() {
                            payload_reached = true;
                            let at = submit_at + after.elapsed;
                            payload_reached_at.get_or_insert(at);
                            payload_via.get_or_insert(PayloadPath::FormSubmit);
                            if score > best_score {
                                best_score = score;
                                detection_score_path = Some(PayloadPath::FormSubmit);
                            }
                        }
                    }
                }
            }
        }

        // ---- deep pass (GSB's browser simulation) ----
        if let Some(deep) = self.profile.deep_pass.clone() {
            if best_score < self.profile.threshold {
                let (dlo, dhi) = deep.delay_mins;
                let deep_at = reported_at + SimDuration::from_mins(self.rng.range(dlo..=dhi));
                self.start_pass(deep.dialog_policy);
                if let Ok(view) = self.visit_with_retry(t, url, deep_at) {
                    last_activity = last_activity.max(deep_at + view.elapsed);
                    requests += Self::exchanges_in(&view);
                    captcha_recognised |=
                        view.has_step(|s| matches!(s, BrowseStep::CaptchaPresent));
                    let score = self.classify_score(&view, &url.host);
                    if view.summary.has_login_form() {
                        payload_reached = true;
                        let at = deep_at + view.elapsed;
                        payload_reached_at.get_or_insert(at);
                        let via = if view.has_step(|s| matches!(s, BrowseStep::DialogConfirmed)) {
                            PayloadPath::DialogConfirm
                        } else {
                            PayloadPath::Direct
                        };
                        payload_via.get_or_insert(via);
                        if score > best_score {
                            best_score = score;
                            detection_score_path = Some(via);
                        }
                    }
                }
            }
        }

        // ---- recheck passes ----
        // Engines re-visit reported URLs several times over the first
        // day. Each recheck draws a fresh source IP and user agent,
        // which is what occasionally slips past cloaking kits (the
        // baseline's ~23 % detection rate) — while the human-verification
        // gates are immune to retries by construction.
        if best_score < self.profile.threshold {
            for _ in 0..3 {
                let recheck_at =
                    first_visit_at + SimDuration::from_mins(self.rng.range(60..1_200u64));
                self.start_pass(self.profile.dialog_policy);
                if let Ok(view) = self.visit_with_retry(t, url, recheck_at) {
                    last_activity = last_activity.max(recheck_at + view.elapsed);
                    requests += Self::exchanges_in(&view);
                    captcha_recognised |=
                        view.has_step(|s| matches!(s, BrowseStep::CaptchaPresent));
                    let score = self.classify_score(&view, &url.host);
                    if view.summary.has_login_form() {
                        payload_reached = true;
                        let at = recheck_at + view.elapsed;
                        payload_reached_at.get_or_insert(at);
                        payload_via.get_or_insert(PayloadPath::Direct);
                        if score > best_score {
                            best_score = score;
                            detection_score_path = Some(PayloadPath::Direct);
                            // Detection clocks from the visit that found
                            // the payload.
                            payload_reached_at = Some(at);
                        }
                    }
                }
                if best_score >= self.profile.threshold {
                    break;
                }
            }
        }

        obs.span_end(crawl_span, last_activity);

        // ---- verdict ----
        let mut detected_at = None;
        if best_score >= self.profile.threshold {
            let flaky_path = detection_score_path == Some(PayloadPath::FormSubmit);
            let reliable = if flaky_path {
                // Keyed per URL so the outcome is stable across reruns
                // of the same experiment seed.
                let mut url_rng = self.rng.fork(&format!("formpath:{url}"));
                url_rng.chance(self.profile.form_path_detect_prob)
            } else {
                true
            };
            if reliable {
                let (mean, sd) = self.profile.verdict_delay_mins;
                let delay_mins = self.rng.normal_clamped(mean, sd, 1.0, mean * 4.0 + 10.0);
                let base = payload_reached_at.unwrap_or(first_visit_at);
                detected_at = Some(base + SimDuration::from_millis((delay_mins * 60_000.0) as u64));
            }
        }

        // ---- background crawl / probe traffic ----
        let mut kit_archive_found_at: Option<SimTime> = None;
        let budget = ((self.profile.requests_per_report.saturating_sub(requests)) as f64
            * volume_scale) as u64;
        // The paper's server logs show ~90 % of all crawl traffic within
        // two hours *of the report*; the burst window therefore runs
        // from the first visit to report + 2 h.
        let burst_end = reported_at + SimDuration::from_hours(2);
        let burst_len = burst_end.since(first_visit_at).as_millis().max(1);
        if budget > 0 {
            let archives = kit_probe::kit_archives(&url.host);
            // One request serves the whole loop: each probe replaces its
            // path and user agent in place.
            let mut req = Request::get(Url::https(&url.host, "/"));
            for _ in 0..budget {
                let at = if self.rng.chance(0.9) {
                    first_visit_at + SimDuration::from_millis(self.rng.range(0..burst_len))
                } else {
                    burst_end + SimDuration::from_secs(self.rng.range(0..79_200u64))
                };
                let path = kit_probe::sample_path_with_archives(
                    &site_paths,
                    &archives,
                    self.profile.kit_probing,
                    &mut self.rng,
                );
                let ua = self.draw_user_agent();
                let probing = self.profile.kit_probing
                    && kit_probe::classify_path(path) != kit_probe::ProbeKind::Crawl;
                req.url.set_path(path);
                req.headers.set("User-Agent", ua);
                let src = self.pool.draw(&mut self.rng);
                match t.fetch(src, self.profile.id.key(), &req, at) {
                    Ok((resp, _))
                        if probing
                        // A 200 with zip content on a probe path is a
                        // live kit archive: the analyst pulls the kit's
                        // source, which exposes the payload regardless
                        // of any gate.
                        && resp.status.is_success()
                            && resp
                                .headers
                                .get("content-type")
                                .is_some_and(|ct| ct.contains("zip")) =>
                    {
                        let found = kit_archive_found_at.get_or_insert(at);
                        if at < *found {
                            *found = at;
                        }
                    }
                    _ => {}
                }
                last_activity = last_activity.max(at);
                requests += 1;
            }
        }

        // A discovered kit archive yields a detection even when the gate
        // kept the live payload hidden: the source *is* the evidence.
        if detected_at.is_none() {
            if let Some(found_at) = kit_archive_found_at {
                let analyst_delay = SimDuration::from_mins(self.rng.range(30..120u64));
                detected_at = Some(found_at + analyst_delay);
            }
        }

        if let Some(d) = detected_at {
            obs.point("engine.convict", actor, d);
            obs.observe(
                "engine.detection_delay_mins",
                d.since(reported_at).as_millis() / 60_000,
            );
            last_activity = last_activity.max(d);
        }
        obs.observe("engine.requests_per_report", requests);
        obs.span_end(report_span, last_activity);

        ReportOutcome {
            engine: self.profile.id,
            url: url.clone(),
            reported_at,
            first_visit_at,
            payload_reached,
            payload_reached_at,
            payload_via,
            captcha_recognised,
            kit_archive_found: kit_archive_found_at.is_some(),
            best_score,
            detected_at,
            requests_made: requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use phishsim_browser::transport::DirectTransport;
    use phishsim_captcha::CaptchaProvider;
    use phishsim_http::VirtualHosting;
    use phishsim_phishgen::{
        Brand, CompromisedSite, EvasionTechnique, FakeSiteGenerator, GateConfig, PhishKit,
    };
    use std::sync::Arc;

    const SCALE: f64 = 0.01;

    struct Deployed {
        transport: DirectTransport,
        url: Url,
        probe: phishsim_phishgen::SiteProbe,
    }

    fn deploy(brand: Brand, config: GateConfig) -> Deployed {
        let rng = DetRng::new(500);
        let host = "green-energy.com";
        let bundle = FakeSiteGenerator::new(&rng).generate(host);
        let kit = PhishKit::new(brand, config);
        let url = kit.phishing_url(host);
        let site = CompromisedSite::new(bundle, kit, &rng);
        let probe = site.probe();
        let mut vhosts = VirtualHosting::new();
        vhosts.install(host, Box::new(site));
        Deployed {
            transport: DirectTransport::new(vhosts),
            url,
            probe,
        }
    }

    fn run(engine_id: EngineId, brand: Brand, config: GateConfig) -> (ReportOutcome, Deployed) {
        let mut d = deploy(brand, config);
        let mut engine = Engine::new(engine_id, &DetRng::new(2020));
        let outcome =
            engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(60), SCALE);
        (outcome, d)
    }

    #[test]
    fn naked_paypal_detected_by_everyone_but_ysb() {
        for id in EngineId::all() {
            let (o, _) = run(
                id,
                Brand::PayPal,
                GateConfig::simple(EvasionTechnique::None),
            );
            assert!(o.payload_reached, "{id}: naked payload must be fetched");
            if id == EngineId::Ysb {
                assert!(o.detected_at.is_none(), "YSB detects nothing");
            } else {
                assert!(o.detected_at.is_some(), "{id} must detect the naked page");
                assert!(
                    o.detected_at.unwrap() > o.reported_at,
                    "{id}: detection after report"
                );
            }
        }
    }

    #[test]
    fn naked_gmail_detected_only_by_gsb_and_netcraft() {
        for id in EngineId::all() {
            let (o, _) = run(id, Brand::Gmail, GateConfig::simple(EvasionTechnique::None));
            let expected = matches!(id, EngineId::Gsb | EngineId::NetCraft);
            assert_eq!(
                o.detected_at.is_some(),
                expected,
                "{id} on scratch-built Gmail"
            );
        }
    }

    #[test]
    fn alert_box_defeats_everyone_but_gsb() {
        for id in EngineId::main_experiment() {
            let (o, d) = run(
                id,
                Brand::PayPal,
                GateConfig::simple(EvasionTechnique::AlertBox),
            );
            if id == EngineId::Gsb {
                assert!(o.payload_reached, "GSB confirms the dialog");
                assert_eq!(o.payload_via, Some(PayloadPath::DialogConfirm));
                assert!(o.detected_at.is_some());
                assert!(
                    d.probe.payload_reached_by("gsb"),
                    "server log must show GSB retrieved the payload"
                );
            } else {
                assert!(!o.payload_reached, "{id} must be stuck on the cover");
                assert!(o.detected_at.is_none(), "{id}");
                assert!(!d.probe.payload_reached_by(id.key()), "{id}");
            }
        }
    }

    #[test]
    fn gsb_alert_detection_lands_in_the_hours_range() {
        let (o, _) = run(
            EngineId::Gsb,
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
        );
        let delay = o.detection_delay().unwrap();
        assert!(
            delay >= SimDuration::from_mins(80) && delay <= SimDuration::from_mins(240),
            "GSB alert-box delay should be on the order of the paper's 132 min, got {delay}"
        );
    }

    #[test]
    fn session_gate_bypassed_only_by_netcraft() {
        for id in EngineId::main_experiment() {
            let (o, d) = run(
                id,
                Brand::Facebook,
                GateConfig::simple(EvasionTechnique::SessionGate),
            );
            if id == EngineId::NetCraft {
                assert!(o.payload_reached, "NetCraft submits the Join Chat form");
                assert_eq!(o.payload_via, Some(PayloadPath::FormSubmit));
                assert!(d.probe.payload_reached_by("netcraft"));
            } else {
                assert!(!o.payload_reached, "{id} must not bypass the session gate");
                assert!(o.detected_at.is_none(), "{id}");
            }
        }
    }

    #[test]
    fn netcraft_session_detection_is_flaky_one_third() {
        // Across many independent session URLs, NetCraft reaches every
        // payload but flags only ~1/3 (the paper saw 2 of 6).
        let rng = DetRng::new(77);
        let mut engine = Engine::new(EngineId::NetCraft, &rng);
        let mut reached = 0;
        let mut detected = 0;
        let n = 120;
        for i in 0..n {
            let host = format!("site-{i}.com");
            let site_rng = DetRng::new(i as u64);
            let bundle = FakeSiteGenerator::new(&site_rng).generate(&host);
            let kit = PhishKit::new(
                Brand::Facebook,
                GateConfig::simple(EvasionTechnique::SessionGate),
            );
            let url = kit.phishing_url(&host);
            let site = CompromisedSite::new(bundle, kit, &site_rng);
            let mut vhosts = VirtualHosting::new();
            vhosts.install(&host, Box::new(site));
            let mut t = DirectTransport::new(vhosts);
            let o = engine.process_report(&mut t, &url, SimTime::from_mins(60), 0.0);
            if o.payload_reached {
                reached += 1;
            }
            if o.detected_at.is_some() {
                detected += 1;
            }
        }
        assert_eq!(reached, n, "NetCraft bypasses every session gate");
        let rate = detected as f64 / n as f64;
        assert!(
            (rate - 1.0 / 3.0).abs() < 0.12,
            "detection rate {rate} should be near 1/3"
        );
    }

    #[test]
    fn captcha_defeats_every_engine() {
        let provider = Arc::new(Mutex::new(CaptchaProvider::new(&DetRng::new(9))));
        for id in EngineId::main_experiment() {
            let config = GateConfig::captcha_gate(&provider);
            let (o, d) = run(id, Brand::PayPal, config);
            assert!(!o.payload_reached, "{id} must not pass the CAPTCHA");
            assert!(o.detected_at.is_none(), "{id}");
            assert!(o.captcha_recognised, "{id} should at least see the widget");
            assert!(!d.probe.payload_reached_by(id.key()), "{id}");
        }
    }

    #[test]
    fn first_visit_is_within_thirty_minutes_of_intake() {
        let (o, _) = run(
            EngineId::Apwg,
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::None),
        );
        let gap = o.first_visit_at.since(o.reported_at);
        assert!(gap <= SimDuration::from_mins(40), "{gap}");
        assert!(gap >= SimDuration::from_mins(1));
    }

    #[test]
    fn request_budget_respected_and_logged() {
        let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
        let mut engine = Engine::new(EngineId::OpenPhish, &DetRng::new(4));
        let o = engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(30), 0.02);
        // 2 % of 27,322 plus the visit requests.
        assert!(o.requests_made >= 540, "{}", o.requests_made);
        assert!(o.requests_made <= 700, "{}", o.requests_made);
    }

    #[test]
    fn openphish_probes_for_kits() {
        let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
        let mut engine = Engine::new(EngineId::OpenPhish, &DetRng::new(4));
        // Use a probe of the vhost table via a wrapping transport that
        // records paths.
        struct Recorder<'a> {
            inner: &'a mut DirectTransport,
            paths: Vec<String>,
        }
        impl Transport for Recorder<'_> {
            fn fetch(
                &mut self,
                src: Ipv4Sim,
                actor: &str,
                req: &Request,
                now: SimTime,
            ) -> Result<(phishsim_http::Response, SimDuration), phishsim_browser::FetchError>
            {
                self.paths.push(req.url.path.clone());
                self.inner.fetch(src, actor, req, now)
            }
        }
        let mut rec = Recorder {
            inner: &mut d.transport,
            paths: Vec::new(),
        };
        engine.process_report(&mut rec, &d.url, SimTime::from_mins(30), 0.02);
        let shells = rec
            .paths
            .iter()
            .filter(|p| kit_probe::classify_path(p) == kit_probe::ProbeKind::WebShell)
            .count();
        let archives = rec
            .paths
            .iter()
            .filter(|p| kit_probe::classify_path(p) == kit_probe::ProbeKind::KitArchive)
            .count();
        assert!(shells > 0, "OpenPhish must probe for web shells");
        assert!(archives > 0, "OpenPhish must probe for kit archives");
    }

    #[test]
    fn render_and_classify_caches_hit_on_rechecks() {
        // YSB never crosses its threshold, so it runs the full recheck
        // schedule against the same static naked page: every revisit
        // after the first must be served from the render cache, and the
        // repeated classifications from the verdict cache.
        let (o, _) = run(
            EngineId::Ysb,
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::None),
        );
        assert!(o.payload_reached);
        let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
        let mut engine = Engine::new(EngineId::Ysb, &DetRng::new(2020));
        engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(60), SCALE);
        let c = engine.cache_counters();
        println!("cache counters: {c:?}");
        assert!(c.get("render_cache.miss") >= 1);
        assert!(
            c.get("render_cache.hit") >= 2,
            "rechecks of an unchanged page must hit the render cache: {c:?}"
        );
        assert!(
            c.get("classify_cache.hit") >= 2,
            "repeat classifications must hit the verdict cache: {c:?}"
        );
    }

    #[test]
    fn warm_caches_do_not_change_outcomes() {
        // The caches' correctness bar: a report processed on fresh
        // caches and the same report processed on caches already warmed
        // by an identical report must produce identical outcomes, and
        // the warm run must render and classify nothing anew.
        let run_with = |caches: &RunCaches| {
            let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
            let mut engine = Engine::new(EngineId::Gsb, &DetRng::new(2020)).with_run_caches(caches);
            engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(60), SCALE)
        };
        let cold = run_with(&RunCaches::fresh());
        let warm = RunCaches::fresh();
        run_with(&warm);
        let before = warm.counters();
        assert!(before.get("render_cache.miss") > 0 && before.get("verdict_store.miss") > 0);
        let rerun = run_with(&warm);
        assert_eq!(format!("{cold:?}"), format!("{rerun:?}"));
        let after = warm.counters();
        for miss in ["render_cache.miss", "verdict_store.miss"] {
            assert_eq!(
                after.get(miss),
                before.get(miss),
                "warm rerun added a {miss}"
            );
        }
        assert!(after.get("render_cache.hit") > before.get("render_cache.hit"));
    }

    #[test]
    fn engines_share_one_runs_caches() {
        // Two engines visiting the same page content through one
        // RunCaches: the second engine's parses and classifications
        // are served by the first's work.
        let caches = RunCaches::fresh();
        for id in [EngineId::Apwg, EngineId::PhishTank] {
            let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
            let mut engine = Engine::new(id, &DetRng::new(2020)).with_run_caches(&caches);
            engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(60), SCALE);
        }
        let c = caches.counters();
        assert!(
            c.get("verdict_store.hit") >= 1,
            "second engine must reuse the first's verdicts: {c:?}"
        );
        assert!(
            c.get("render_cache.hit") >= 1,
            "second engine must reuse the first's renders: {c:?}"
        );
    }

    /// Passes the first `skip` fetches, fails the next `failures` with
    /// a transient error, then delegates to the real transport.
    struct Flaky<'a> {
        inner: &'a mut DirectTransport,
        skip: u32,
        failures: u32,
        seen: u32,
    }

    impl Transport for Flaky<'_> {
        fn fetch(
            &mut self,
            src: Ipv4Sim,
            actor: &str,
            req: &Request,
            now: SimTime,
        ) -> Result<(phishsim_http::Response, SimDuration), phishsim_browser::FetchError> {
            self.seen += 1;
            if self.seen > self.skip && self.seen <= self.skip + self.failures {
                return Err(phishsim_browser::FetchError::ConnectionLost);
            }
            self.inner.fetch(src, actor, req, now)
        }
    }

    fn flaky(inner: &mut DirectTransport, skip: u32, failures: u32) -> Flaky<'_> {
        Flaky {
            inner,
            skip,
            failures,
            seen: 0,
        }
    }

    #[test]
    fn transient_failures_are_recovered_not_aborted() {
        // Enough consecutive failures to exhaust the browser-level
        // retries on the first visit, forcing the engine's
        // Scheduler-driven visit recovery to kick in.
        let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
        let mut t = flaky(&mut d.transport, 0, 5);
        let mut engine = Engine::new(EngineId::Gsb, &DetRng::new(2020));
        let o = engine.process_report(&mut t, &d.url, SimTime::from_mins(60), 0.0);
        assert!(o.payload_reached, "retries must recover the visit");
        assert!(o.detected_at.is_some());
    }

    #[test]
    fn no_retries_policy_restores_abort_on_failure() {
        let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
        let mut t = flaky(&mut d.transport, 0, 5);
        let mut engine = Engine::new(EngineId::Gsb, &DetRng::new(2020))
            .with_retry_policy(phishsim_simnet::RetryPolicy::no_retries());
        let o = engine.process_report(&mut t, &d.url, SimTime::from_mins(60), 0.0);
        assert!(!o.payload_reached, "without retries the first visit dies");
    }

    #[test]
    fn retry_wiring_is_rng_neutral_when_no_faults_occur() {
        // The zero-impact guarantee at engine level: against a clean
        // transport, an engine with the default retry policy and one
        // with retries disabled must produce identical outcomes.
        let run_with = |policy: phishsim_simnet::RetryPolicy| {
            let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
            let mut engine =
                Engine::new(EngineId::Gsb, &DetRng::new(2020)).with_retry_policy(policy);
            engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(60), SCALE)
        };
        let with_retries = run_with(phishsim_simnet::RetryPolicy::crawl_default());
        let without = run_with(phishsim_simnet::RetryPolicy::no_retries());
        assert_eq!(with_retries.detected_at, without.detected_at);
        assert_eq!(with_retries.requests_made, without.requests_made);
        assert_eq!(with_retries.best_score, without.best_score);
        assert_eq!(with_retries.first_visit_at, without.first_visit_at);
    }

    /// Outcomes recorded when every pass built its own browser with an
    /// eagerly forked `browser-retry:{n}` stream and each report key
    /// was a formatted label: the retry jitter of every pass and the
    /// keyed report stream must still be those streams.
    const RETRY_PINS: [&str; 4] = [
        r#"{"best_score":0.9500000000000001,"captcha_recognised":false,"detected_at":5665799,"engine":"Gsb","first_visit_at":4601000,"kit_archive_found":false,"payload_reached":true,"payload_reached_at":4605307,"payload_via":"Direct","reported_at":3600000,"requests_made":6,"url":{"host":"green-energy.com","https":true,"path":"/secure/login.php","query":[]}}"#,
        r#"{"best_score":0.9500000000000001,"captcha_recognised":false,"detected_at":11181219,"engine":"Gsb","first_visit_at":4789000,"kit_archive_found":false,"payload_reached":true,"payload_reached_at":10025921,"payload_via":"DialogConfirm","reported_at":3600000,"requests_made":4,"url":{"host":"green-energy.com","https":true,"path":"/secure/login.php","query":[]}}"#,
        r#"{"best_score":0.9500000000000001,"captcha_recognised":false,"detected_at":5944348,"engine":"Gsb","first_visit_at":4789000,"kit_archive_found":false,"payload_reached":true,"payload_reached_at":4789050,"payload_via":"Direct","reported_at":3600000,"requests_made":6,"url":{"host":"green-energy.com","https":true,"path":"/secure/login.php","query":[]}}"#,
        r#"{"best_score":0.9500000000000001,"captcha_recognised":false,"detected_at":6007809,"engine":"Gsb","first_visit_at":5457000,"kit_archive_found":false,"payload_reached":true,"payload_reached_at":5460694,"payload_via":"Direct","reported_at":5400000,"requests_made":1,"url":{"host":"green-energy.com","https":true,"path":"/secure/login.php","query":[]}}"#,
    ];

    #[test]
    fn retry_streams_match_the_recorded_outcomes() {
        let json = |o: &ReportOutcome| serde_json::to_string(o).unwrap();
        let sink = ObsSink::memory();
        let gsb = || Engine::new(EngineId::Gsb, &DetRng::new(2020)).with_obs(sink.clone());
        let naked = || deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
        let at = SimTime::from_mins(60);

        // First visit: the browser's retries give up, the engine's
        // visit recovery runs, and a browser retry recovers it.
        let mut d = naked();
        let o = gsb().process_report(&mut flaky(&mut d.transport, 0, 5), &d.url, at, 0.0);
        assert_eq!(json(&o), RETRY_PINS[0]);

        // Keyed report behind an alert box: the failures hit GSB's deep
        // pass, the second pass of the report.
        let mut d = deploy(
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
        );
        let o = gsb().process_report_keyed(&mut flaky(&mut d.transport, 1, 6), &d.url, at, 0.0, 3);
        assert_eq!(json(&o), RETRY_PINS[1]);

        // A clean keyed report, then a keyed dedup revalidation that
        // needs both kinds of recovery.
        let mut d = naked();
        let mut engine = gsb();
        let o = engine.process_report_keyed(&mut d.transport, &d.url, at, 0.0, 3);
        assert_eq!(json(&o), RETRY_PINS[2]);
        let later = SimTime::from_mins(90);
        let mut t = flaky(&mut d.transport, 0, 5);
        let o = engine.process_report_keyed(&mut t, &d.url, later, 0.0, 41);
        assert_eq!(json(&o), RETRY_PINS[3]);

        let m = sink.metrics();
        assert_eq!(m.counter("engine.visit_recovered"), 3, "{m:?}");
        assert!(m.counter("retry.recovered") >= 3, "{m:?}");
    }

    #[test]
    fn reset_run_caches_moves_the_next_pass_to_the_new_cache() {
        let mut d = deploy(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
        let mut engine = Engine::new(EngineId::Gsb, &DetRng::new(2020));
        engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(60), 0.0);
        assert!(engine.cache_counters().get("render_cache.miss") > 0);
        engine.reset_run_caches();
        let c = engine.cache_counters();
        assert_eq!(c.get("render_cache.miss") + c.get("render_cache.hit"), 0);
        // A dedup revalidation: one pass, rendered through the new cache.
        engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(90), 0.0);
        let c = engine.cache_counters();
        assert_eq!(c.get("render_cache.miss"), 1, "{c:?}");
    }

    #[test]
    fn cloaking_blocks_identifiable_crawlers() {
        // With the engine's own subnets on the kit's bot list and a
        // non-stealth UA, the payload stays hidden; the baseline bench
        // measures the aggregate ~23 % rate.
        let rng = DetRng::new(21);
        let mut engine = Engine::new(EngineId::Apwg, &rng);
        let bot_subnets = vec![(engine.pool().addrs()[0], 16u8)];
        let mut d = deploy(Brand::PayPal, GateConfig::cloaking(bot_subnets));
        let o = engine.process_report(&mut d.transport, &d.url, SimTime::from_mins(30), 0.0);
        assert!(
            !o.payload_reached,
            "crawler from a listed subnet must see the cloak page"
        );
    }
}

#[cfg(test)]
mod sloppy_phisher_tests {
    use super::*;
    use parking_lot::Mutex;
    use phishsim_browser::transport::DirectTransport;
    use phishsim_captcha::CaptchaProvider;
    use phishsim_http::VirtualHosting;
    use phishsim_phishgen::{Brand, CompromisedSite, FakeSiteGenerator, GateConfig, PhishKit};
    use std::sync::Arc;

    fn deploy_sloppy(captcha: bool) -> (DirectTransport, Url) {
        let rng = DetRng::new(88);
        let host = "sloppy-victim.com";
        let bundle = FakeSiteGenerator::new(&rng).generate(host);
        let provider = Arc::new(Mutex::new(CaptchaProvider::new(&rng)));
        let config = if captcha {
            GateConfig::captcha_gate(&provider)
        } else {
            GateConfig::simple(phishsim_phishgen::EvasionTechnique::None)
        };
        let kit = PhishKit::new(Brand::PayPal, config);
        let url = kit.phishing_url(host);
        let site = CompromisedSite::new(bundle, kit, &rng).with_leftover_archive("/kit.zip");
        let mut vhosts = VirtualHosting::new();
        vhosts.install(host, Box::new(site));
        (DirectTransport::new(vhosts), url)
    }

    #[test]
    fn openphish_finds_leftover_archive_behind_captcha() {
        // The CAPTCHA gate hides the live payload, but the forgotten
        // kit.zip gives the game away to the probing engine.
        let (mut t, url) = deploy_sloppy(true);
        let mut engine = Engine::new(EngineId::OpenPhish, &DetRng::new(2));
        let o = engine.process_report(&mut t, &url, SimTime::from_mins(30), 0.05);
        assert!(!o.payload_reached, "the gate still holds");
        assert!(o.kit_archive_found, "probing must find /kit.zip");
        assert!(o.detected_at.is_some(), "the archive is the evidence");
    }

    #[test]
    fn non_probing_engines_miss_the_archive() {
        let (mut t, url) = deploy_sloppy(true);
        let mut engine = Engine::new(EngineId::Apwg, &DetRng::new(2));
        let o = engine.process_report(&mut t, &url, SimTime::from_mins(30), 0.05);
        assert!(!o.kit_archive_found);
        assert!(o.detected_at.is_none());
    }

    #[test]
    fn tidy_captcha_site_stays_undetected_by_openphish() {
        // Without the leftover archive, the main-experiment result
        // holds even for the heaviest prober.
        let rng = DetRng::new(88);
        let host = "tidy-victim.com";
        let bundle = FakeSiteGenerator::new(&rng).generate(host);
        let provider = Arc::new(Mutex::new(CaptchaProvider::new(&rng)));
        let kit = PhishKit::new(Brand::PayPal, GateConfig::captcha_gate(&provider));
        let url = kit.phishing_url(host);
        let site = CompromisedSite::new(bundle, kit, &rng);
        let mut vhosts = VirtualHosting::new();
        vhosts.install(host, Box::new(site));
        let mut t = DirectTransport::new(vhosts);
        let mut engine = Engine::new(EngineId::OpenPhish, &DetRng::new(2));
        let o = engine.process_report(&mut t, &url, SimTime::from_mins(30), 0.05);
        assert!(!o.kit_archive_found);
        assert!(o.detected_at.is_none());
    }
}

#[cfg(test)]
mod multi_page_session_tests {
    use super::*;
    use phishsim_browser::transport::DirectTransport;
    use phishsim_http::VirtualHosting;
    use phishsim_phishgen::{Brand, CompromisedSite, FakeSiteGenerator, GateConfig, PhishKit};

    fn deploy_multipage() -> (DirectTransport, Url) {
        let rng = DetRng::new(61);
        let host = "signin-flow.com";
        let bundle = FakeSiteGenerator::new(&rng).generate(host);
        let kit = PhishKit::new(Brand::Facebook, GateConfig::multi_page_login());
        let url = kit.phishing_url(host);
        let site = CompromisedSite::new(bundle, kit, &rng);
        let mut vhosts = VirtualHosting::new();
        vhosts.install(host, Box::new(site));
        (DirectTransport::new(vhosts), url)
    }

    #[test]
    fn netcraft_advances_past_the_username_page() {
        // The username page is not a "login form" (no password field),
        // so login-form fillers skip it — but NetCraft submits any
        // form, lands on the credential page, and may flag it.
        let (mut t, url) = deploy_multipage();
        let mut engine = Engine::new(EngineId::NetCraft, &DetRng::new(3));
        let o = engine.process_report(&mut t, &url, SimTime::from_mins(30), 0.0);
        assert!(o.payload_reached, "NetCraft submits the stage-1 form");
        assert_eq!(o.payload_via, Some(PayloadPath::FormSubmit));
    }

    #[test]
    fn login_form_fillers_do_not_advance() {
        for id in [
            EngineId::OpenPhish,
            EngineId::PhishTank,
            EngineId::Apwg,
            EngineId::Gsb,
        ] {
            let (mut t, url) = deploy_multipage();
            let mut engine = Engine::new(id, &DetRng::new(3));
            let o = engine.process_report(&mut t, &url, SimTime::from_mins(30), 0.0);
            assert!(!o.payload_reached, "{id} must stay on the username page");
            assert!(o.detected_at.is_none(), "{id}");
        }
    }
}

#[cfg(test)]
mod dedup_tests {
    use super::*;
    use phishsim_browser::transport::DirectTransport;
    use phishsim_http::VirtualHosting;
    use phishsim_phishgen::{
        Brand, CompromisedSite, EvasionTechnique, FakeSiteGenerator, GateConfig, PhishKit,
    };

    fn deploy() -> (DirectTransport, Url) {
        let rng = DetRng::new(77);
        let host = "re-reported.com";
        let bundle = FakeSiteGenerator::new(&rng).generate(host);
        let kit = PhishKit::new(Brand::PayPal, GateConfig::simple(EvasionTechnique::None));
        let url = kit.phishing_url(host);
        let site = CompromisedSite::new(bundle, kit, &rng);
        let mut vhosts = VirtualHosting::new();
        vhosts.install(host, Box::new(site));
        (DirectTransport::new(vhosts), url)
    }

    #[test]
    fn duplicate_report_is_cheap_revalidation() {
        let (mut t, url) = deploy();
        let mut engine = Engine::new(EngineId::Gsb, &DetRng::new(5));
        let first = engine.process_report(&mut t, &url, SimTime::from_mins(60), 0.02);
        assert!(engine.is_duplicate_report(&url, SimTime::from_mins(90)));
        assert!(
            !engine.is_duplicate_report(&url, SimTime::from_mins(60 + 24 * 60)),
            "the dedup window expires after 24 h"
        );
        let second = engine.process_report(&mut t, &url, SimTime::from_mins(90), 0.02);
        assert!(
            second.requests_made * 10 < first.requests_made,
            "dedup run ({}) must be far cheaper than the full crawl ({})",
            second.requests_made,
            first.requests_made
        );
        // The revalidation still reaches the naked payload and detects.
        assert!(second.payload_reached);
        assert!(second.detected_at.is_some());
    }

    #[test]
    fn dedup_window_expires_after_a_day() {
        let (mut t, url) = deploy();
        let mut engine = Engine::new(EngineId::Gsb, &DetRng::new(5));
        engine.process_report(&mut t, &url, SimTime::from_mins(60), 0.0);
        let next_day = SimTime::from_mins(60) + SimDuration::from_hours(25);
        assert!(!engine.is_duplicate_report(&url, next_day));
    }

    #[test]
    fn different_urls_not_deduplicated() {
        let (mut t, url) = deploy();
        let mut engine = Engine::new(EngineId::Gsb, &DetRng::new(5));
        engine.process_report(&mut t, &url, SimTime::from_mins(60), 0.0);
        let other = Url::https("other-site.com", "/kit.php");
        assert!(!engine.is_duplicate_report(&other, SimTime::from_mins(61)));
    }
}
