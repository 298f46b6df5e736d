//! The browser driver: fetch, render, interact.
//!
//! [`Browser::visit`] performs the full page lifecycle a real visitor
//! (human or crawler) experiences: fetch with cookies and user-agent,
//! follow redirects, then interpret the page's script effects — modal
//! dialogs, CAPTCHA callbacks, timed redirects — according to the
//! browser's capability profile. Every interaction is recorded as a
//! [`BrowseStep`], which is what the experiment's log analysis and the
//! figure harnesses consume.

use crate::rendercache::{RenderCache, Rendered};
use crate::sbcache::SbLocalDb;
use crate::transport::{FetchError, Transport};
use parking_lot::Mutex;
use phishsim_captcha::{CaptchaProvider, SolverProfile};
use phishsim_html::{FormInfo, PageSummary, ScriptEffect};
use phishsim_http::{Body, CookieJar, Request, Response, Status, Url};
use phishsim_simnet::{DetRng, Ipv4Sim, ObsSink, RetryPolicy, SimDuration, SimTime, SpanId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the browser reacts to modal dialogs (alert/confirm boxes).
///
/// "Most browser emulation libraries, e.g., the Selenium project, can
/// distinguish the alert box window if it is present. They can also
/// confirm or cancel the alert box." (§2.2) — whether a crawler
/// actually does is the capability that separates GSB from the rest in
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DialogPolicy {
    /// The client never notices the dialog (plain HTTP fetcher).
    Ignore,
    /// The client cancels/dismisses the dialog.
    Dismiss,
    /// The client confirms the dialog (GSB's behaviour).
    Confirm,
}

/// A browser capability profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrowserConfig {
    /// `User-Agent` presented on every request.
    pub user_agent: String,
    /// Reaction to modal dialogs.
    pub dialog_policy: DialogPolicy,
    /// CAPTCHA-solving capability, if any.
    pub captcha_solver: Option<SolverProfile>,
    /// Maximum redirects followed per visit.
    pub max_redirects: usize,
    /// Maximum effect-processing rounds per visit (a page revealed by an
    /// interaction may itself carry effects).
    pub max_effect_rounds: usize,
}

impl BrowserConfig {
    /// A human-driven desktop Firefox: confirms dialogs, solves
    /// CAPTCHAs.
    pub fn human_firefox() -> Self {
        BrowserConfig {
            user_agent: phishsim_http::UserAgent::Firefox.as_str().to_string(),
            dialog_policy: DialogPolicy::Confirm,
            captcha_solver: Some(SolverProfile::human()),
            max_redirects: 5,
            max_effect_rounds: 3,
        }
    }

    /// A plain crawler: ignores dialogs, cannot solve CAPTCHAs.
    pub fn plain_crawler(user_agent: &str) -> Self {
        BrowserConfig {
            user_agent: user_agent.to_string(),
            dialog_policy: DialogPolicy::Ignore,
            captcha_solver: None,
            max_redirects: 5,
            max_effect_rounds: 3,
        }
    }
}

/// One observable step of a visit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BrowseStep {
    /// The browser received a page (after redirects resolved); the
    /// view's `url` is where the last one came from.
    Loaded {
        /// HTTP status.
        status: u16,
    },
    /// A redirect was followed.
    Redirected {
        /// Redirect target.
        to: String,
    },
    /// A modal dialog opened.
    DialogOpened {
        /// The dialog's message.
        message: String,
    },
    /// The dialog was confirmed (and the resulting form POSTed).
    DialogConfirmed,
    /// The dialog was dismissed.
    DialogDismissed,
    /// The dialog was present but the client never interacted with it.
    DialogIgnored,
    /// A CAPTCHA widget was present on the page.
    CaptchaPresent,
    /// The CAPTCHA was solved and the callback form POSTed.
    CaptchaSolved,
    /// A CAPTCHA solve attempt failed.
    CaptchaFailed,
    /// A timed redirect effect fired.
    AutoRedirected {
        /// Redirect target.
        to: String,
    },
    /// A form was submitted (crawler auto-submission or user action).
    FormSubmitted {
        /// The form's action (empty = same URL).
        action: String,
    },
}

/// The outcome of a visit: the final page plus the interaction trail.
#[derive(Debug, Clone)]
pub struct PageView {
    /// Final URL (after redirects; interactions stay on the same URL).
    pub url: Url,
    /// Final HTTP status.
    pub status: Status,
    /// Final HTML, shared with the response that served it.
    pub html: Body,
    /// Content hash of the final HTML (the render-cache key), reusable
    /// as a memoization key for downstream per-body work such as
    /// classification.
    pub body_hash: u64,
    /// Summary of the final page, shared with the render cache.
    pub summary: Arc<PageSummary>,
    /// Everything that happened, in order.
    pub steps: Vec<BrowseStep>,
    /// Simulated time the visit consumed (network + effect delays).
    pub elapsed: SimDuration,
}

impl PageView {
    /// Whether a step of this kind occurred.
    pub fn has_step(&self, pred: impl Fn(&BrowseStep) -> bool) -> bool {
        self.steps.iter().any(pred)
    }
}

/// What one pass of a reused browser presents and runs with
/// ([`Browser::reset`]).
#[derive(Debug, Clone, Copy)]
pub struct PassSetup<'a> {
    /// `User-Agent` of every request of the pass.
    pub user_agent: &'a str,
    /// Reaction to modal dialogs.
    pub dialog_policy: DialogPolicy,
    /// CAPTCHA-solving capability, if any.
    pub captcha_solver: Option<&'a SolverProfile>,
    /// Provider CAPTCHA attempts go to, if any.
    pub captcha_provider: Option<&'a Arc<Mutex<CaptchaProvider>>>,
    /// Source address of the pass.
    pub src: Ipv4Sim,
    /// Sink of the pass's spans and retry events.
    pub obs: &'a ObsSink,
    /// Cache the pass renders through.
    pub render_cache: &'a Arc<RenderCache>,
    /// Retry policy for transient fetch failures.
    pub retry_policy: &'a RetryPolicy,
    /// The stream the pass's retry stream forks from.
    pub retry_parent: &'a DetRng,
    /// Labels the pass's retry stream, `browser-retry:{pass}`.
    pub pass: u64,
}

/// A headless browser instance.
///
/// One browser can serve many passes: [`Browser::reset`] gives it back
/// the empty profile a new browser shows.
#[derive(Debug)]
pub struct Browser {
    /// Capability profile.
    pub config: BrowserConfig,
    /// Cookie jar (persists across visits; emptied by a reset).
    pub jar: CookieJar,
    /// The client's Safe-Browsing state: downloaded prefix store (when
    /// installed) gating the verdict cache.
    pub sb_cache: SbLocalDb,
    /// Source address of this client.
    pub src: Ipv4Sim,
    /// Ground-truth actor label for server logs.
    pub actor: String,
    /// Provider used to attempt CAPTCHA challenges, when present in the
    /// environment.
    pub captcha_provider: Option<Arc<Mutex<CaptchaProvider>>>,
    /// Shared render cache; without one, every page is parsed directly.
    render_cache: Option<Arc<RenderCache>>,
    /// Transient-failure recovery. `None` means failures are final.
    retry: Option<Retry>,
    /// Count of exchanges this pass that needed a retry schedule; feeds
    /// the schedule label so each recovery gets its own jitter stream.
    retry_seq: u64,
    /// Observability sink: fetch/render/challenge spans and retry
    /// attempt/give-up events. `Null` by default and free when disabled.
    obs: ObsSink,
}

/// A browser's retry policy and where its retry stream comes from.
#[derive(Debug)]
struct Retry {
    policy: RetryPolicy,
    /// The pass's retry stream is `parent.fork("browser-retry:{pass}")`.
    parent: DetRng,
    pass: u64,
    /// That stream, forked when an exchange of the pass first fails: a
    /// pass without failures builds no label and forks nothing.
    stream: Option<DetRng>,
}

impl Browser {
    /// Create a browser for `actor` at `src`.
    pub fn new(config: BrowserConfig, src: Ipv4Sim, actor: &str) -> Self {
        Browser {
            config,
            jar: CookieJar::new(),
            sb_cache: SbLocalDb::default_ttl(),
            src,
            actor: actor.to_string(),
            captcha_provider: None,
            render_cache: None,
            retry: None,
            retry_seq: 0,
            obs: ObsSink::Null,
        }
    }

    /// Begin a new pass as the empty profile a new browser shows: no
    /// cookies, no Safe-Browsing state, no retries counted, and every
    /// setting taken from `setup`. The user agent is copied into the
    /// existing buffer, and the render cache is replaced only when
    /// `setup` names another one.
    pub fn reset(&mut self, setup: PassSetup<'_>) {
        self.jar.clear();
        self.sb_cache = SbLocalDb::default_ttl();
        self.retry_seq = 0;
        self.config.user_agent.clear();
        self.config.user_agent.push_str(setup.user_agent);
        self.config.dialog_policy = setup.dialog_policy;
        self.config.captcha_solver = setup.captcha_solver.cloned();
        self.captcha_provider = setup.captcha_provider.cloned();
        self.src = setup.src;
        self.obs.clone_from(setup.obs);
        if !self
            .render_cache
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(c, setup.render_cache))
        {
            self.render_cache = Some(Arc::clone(setup.render_cache));
        }
        self.retry = Some(Retry {
            policy: setup.retry_policy.clone(),
            parent: setup.retry_parent.clone(),
            pass: setup.pass,
            stream: None,
        });
    }

    /// Attach an observability sink (builder style). Each visit emits a
    /// `browser.visit` span with `browser.fetch` / `browser.render` /
    /// `browser.challenge` children; retry recoveries emit
    /// `retry.attempt` / `retry.giveup` events.
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// Attach a retry policy for transient fetch failures (builder
    /// style). Schedules fork off `parent.fork("browser-retry:0")`,
    /// forked when an exchange first fails, so a browser that never
    /// hits a failure never touches the stream.
    pub fn with_retry(mut self, policy: RetryPolicy, parent: DetRng) -> Self {
        self.retry = Some(Retry {
            policy,
            parent,
            pass: 0,
            stream: None,
        });
        self
    }

    /// Attach the CAPTCHA provider (builder style).
    pub fn with_captcha_provider(mut self, p: Arc<Mutex<CaptchaProvider>>) -> Self {
        self.captcha_provider = Some(p);
        self
    }

    /// Render a body through the shared cache, or directly without one.
    fn render(&self, body: &Body) -> Arc<Rendered> {
        match &self.render_cache {
            Some(cache) => cache.render_body(body),
            None => Arc::new(Rendered::compute(body)),
        }
    }

    /// Fetch with transient-failure recovery. The backoff schedule is
    /// computed lazily — only once the first attempt has failed — so the
    /// fault-free path performs exactly one fetch and zero RNG work.
    fn fetch_with_retry(
        &mut self,
        t: &mut dyn Transport,
        req: &Request,
        now: &mut SimTime,
    ) -> Result<(Response, SimDuration), FetchError> {
        let first = match t.fetch(self.src, &self.actor, req, *now) {
            Err(e) if e.is_transient() && self.retry.is_some() => e,
            other => return other,
        };
        self.retry_seq += 1;
        let retry = self.retry.as_mut().expect("checked above");
        let (parent, pass) = (&retry.parent, retry.pass);
        let stream = retry
            .stream
            .get_or_insert_with(|| parent.fork(&format!("browser-retry:{pass}")));
        let label = format!("{}:{}", self.actor, self.retry_seq);
        let schedule = retry.policy.schedule_observed(stream, &label, &self.obs);
        let mut last = first;
        for delay in schedule {
            *now += delay;
            self.obs.incr("retry.attempts");
            self.obs.point("retry.attempt", &self.actor, *now);
            match t.fetch(self.src, &self.actor, req, *now) {
                Err(e) if e.is_transient() => last = e,
                other => {
                    if other.is_ok() {
                        self.obs.incr("retry.recovered");
                    }
                    return other;
                }
            }
        }
        self.obs.incr("retry.giveups");
        self.obs.point("retry.giveup", &self.actor, *now);
        Err(last)
    }

    /// Perform one raw exchange: the user agent and matching cookies
    /// go out on `req`, the response's cookies come into the jar.
    fn exchange(
        &mut self,
        t: &mut dyn Transport,
        req: &mut Request,
        now: &mut SimTime,
    ) -> Result<Response, FetchError> {
        req.headers.set("User-Agent", &self.config.user_agent);
        let cookie = self.jar.cookie_header(&req.url.host, &req.url.path, *now);
        if !cookie.is_empty() {
            req.headers.set("Cookie", &cookie);
        }
        let (resp, rtt) = self.fetch_with_retry(t, req, now)?;
        *now += rtt;
        self.jar.ingest(resp.set_cookies(), &req.url.host, *now);
        Ok(resp)
    }

    /// Fetch a URL following redirects. Each hop is one request, and
    /// the last hop's URL comes back with its response.
    fn fetch_following(
        &mut self,
        t: &mut dyn Transport,
        url: Url,
        now: &mut SimTime,
        steps: &mut Vec<BrowseStep>,
    ) -> Result<(Url, Response), FetchError> {
        let mut req = Request::get(url);
        let mut resp = self.exchange(t, &mut req, now)?;
        let mut hops = 0;
        while let Some(loc) = resp.location() {
            hops += 1;
            if hops > self.config.max_redirects {
                return Err(FetchError::TooManyRedirects);
            }
            let next = resolve_location(&req.url, loc)
                .ok_or_else(|| FetchError::BadRedirect(loc.to_string()))?;
            steps.push(BrowseStep::Redirected {
                to: next.to_string(),
            });
            req = Request::get(next);
            resp = self.exchange(t, &mut req, now)?;
        }
        Ok((req.url, resp))
    }

    /// POST `fields` to `url` and hand the URL back with the response
    /// (an interaction stays on the page it was made on).
    fn post_form(
        &mut self,
        t: &mut dyn Transport,
        url: Url,
        fields: &[(&str, &str)],
        now: &mut SimTime,
    ) -> Result<(Url, Response), FetchError> {
        let mut post = Request::post_form(url, fields);
        let resp = self.exchange(t, &mut post, now)?;
        Ok((post.url, resp))
    }

    /// Visit a URL and process its effects per the capability profile.
    pub fn visit(
        &mut self,
        t: &mut dyn Transport,
        url: &Url,
        start: SimTime,
    ) -> Result<PageView, FetchError> {
        // The span wrapper lives here so every early `?` return inside
        // the lifecycle still closes the visit span.
        let obs = self.obs.clone();
        let span = obs.span_start(None, "browser.visit", &self.actor, start);
        let mut now = start;
        let result = self.visit_inner(t, url, start, &mut now, span, &obs);
        obs.span_end(span, now);
        if result.is_err() {
            obs.incr("browser.visit_failures");
        }
        result
    }

    /// The visit lifecycle proper: fetch → render → challenge rounds.
    fn visit_inner(
        &mut self,
        t: &mut dyn Transport,
        url: &Url,
        start: SimTime,
        now: &mut SimTime,
        span: SpanId,
        obs: &ObsSink,
    ) -> Result<PageView, FetchError> {
        let mut steps = Vec::new();
        let fetch_span = obs.span_start(Some(span), "browser.fetch", &self.actor, *now);
        let fetched = self.fetch_following(t, url.clone(), now, &mut steps);
        obs.span_end(fetch_span, *now);
        let (mut current, mut resp) = fetched?;
        steps.push(BrowseStep::Loaded {
            status: resp.status.code(),
        });

        // One render per body: the parse, summary extraction and widget
        // scan are a single (cacheable) product instead of three
        // independent passes per effect round.
        let render_span = obs.span_start(Some(span), "browser.render", &self.actor, *now);
        let mut rendered = self.render(&resp.body);
        obs.span_end(render_span, *now);
        for _round in 0..self.config.max_effect_rounds {
            if rendered.effects.is_empty() && rendered.widget.is_none() {
                break;
            }
            let widget = rendered.widget.clone();
            let mut acted = false;
            for effect in rendered.effects.iter() {
                match effect {
                    ScriptEffect::AlertConfirm {
                        message,
                        delay_ms,
                        confirm_field,
                        guard_first_visit: _,
                    } => {
                        if self.config.dialog_policy == DialogPolicy::Ignore {
                            steps.push(BrowseStep::DialogIgnored);
                            continue;
                        }
                        // The dialog opens after the kit's delay and
                        // blocks until handled.
                        let challenge_from = *now;
                        *now += SimDuration::from_millis(*delay_ms);
                        steps.push(BrowseStep::DialogOpened {
                            message: message.clone(),
                        });
                        let confirm = [(confirm_field.0.as_str(), confirm_field.1.as_str())];
                        let fields: &[(&str, &str)] =
                            if self.config.dialog_policy == DialogPolicy::Confirm {
                                steps.push(BrowseStep::DialogConfirmed);
                                &confirm
                            } else {
                                steps.push(BrowseStep::DialogDismissed);
                                &[]
                            };
                        (current, resp) = self.post_form(t, current, fields, now)?;
                        steps.push(BrowseStep::Loaded {
                            status: resp.status.code(),
                        });
                        let c = obs.span_start(
                            Some(span),
                            "browser.challenge",
                            &self.actor,
                            challenge_from,
                        );
                        obs.span_end(c, *now);
                        acted = true;
                        break;
                    }
                    ScriptEffect::CaptchaCallback { field_name } => {
                        let Some(site_key) = widget.clone() else {
                            continue;
                        };
                        steps.push(BrowseStep::CaptchaPresent);
                        let Some(solver) = self.config.captcha_solver.clone() else {
                            continue;
                        };
                        let Some(provider) = self.captcha_provider.clone() else {
                            continue;
                        };
                        // Solving a checkbox challenge takes a moment;
                        // a visitor who fails the challenge simply tries
                        // again (up to three attempts).
                        let challenge_from = *now;
                        let mut token = None;
                        for _ in 0..3 {
                            *now += SimDuration::from_secs(4);
                            token = provider.lock().attempt(&site_key, &solver, *now);
                            if token.is_some() {
                                break;
                            }
                        }
                        match token {
                            None => steps.push(BrowseStep::CaptchaFailed),
                            Some(tok) => {
                                steps.push(BrowseStep::CaptchaSolved);
                                let fields = [(field_name.as_str(), tok.0.as_str())];
                                (current, resp) = self.post_form(t, current, &fields, now)?;
                                steps.push(BrowseStep::Loaded {
                                    status: resp.status.code(),
                                });
                                acted = true;
                            }
                        }
                        let c = obs.span_start(
                            Some(span),
                            "browser.challenge",
                            &self.actor,
                            challenge_from,
                        );
                        obs.span_end(c, *now);
                        if acted {
                            break;
                        }
                    }
                    ScriptEffect::AutoRedirect { to, delay_ms } => {
                        *now += SimDuration::from_millis(*delay_ms);
                        let next = resolve_location(&current, to)
                            .ok_or_else(|| FetchError::BadRedirect(to.clone()))?;
                        steps.push(BrowseStep::AutoRedirected {
                            to: next.to_string(),
                        });
                        (current, resp) = self.fetch_following(t, next, now, &mut steps)?;
                        steps.push(BrowseStep::Loaded {
                            status: resp.status.code(),
                        });
                        acted = true;
                        break;
                    }
                }
            }
            // A bare widget with no solver/effect progress: nothing more
            // to do this round.
            if !acted {
                if widget.is_some()
                    && !steps
                        .iter()
                        .any(|s| matches!(s, BrowseStep::CaptchaPresent))
                {
                    steps.push(BrowseStep::CaptchaPresent);
                }
                break;
            }
            // An interaction replaced the page; render the new body.
            rendered = self.render(&resp.body);
        }

        Ok(PageView {
            url: current,
            status: resp.status,
            html: resp.body,
            body_hash: rendered.body_hash,
            summary: Arc::clone(&rendered.summary),
            steps,
            elapsed: now.since(start),
        })
    }

    /// Submit a form found on `page`, filling text-like fields with the
    /// given dummy value (crawlers "submit the HTML form tags
    /// automatically by filling the 'username' field with different
    /// values", §4.1). Hidden fields keep their preset values.
    pub fn submit_form(
        &mut self,
        t: &mut dyn Transport,
        page: &PageView,
        form: &FormInfo,
        fill_value: &str,
        start: SimTime,
    ) -> Result<PageView, FetchError> {
        let mut now = start;
        let action_url = if form.action.is_empty() {
            page.url.clone()
        } else {
            resolve_location(&page.url, &form.action)
                .ok_or_else(|| FetchError::BadRedirect(form.action.clone()))?
        };
        let mut fields: Vec<(String, String)> = Vec::new();
        for f in &form.fields {
            if f.name.is_empty() {
                continue;
            }
            let value = match f.kind.as_str() {
                "hidden" | "submit" | "button" => f.value.clone().unwrap_or_default(),
                "password" => format!("{fill_value}-pw"),
                _ => fill_value.to_string(),
            };
            fields.push((f.name.clone(), value));
        }
        let borrowed: Vec<(&str, &str)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let mut steps = vec![BrowseStep::FormSubmitted {
            action: form.action.clone(),
        }];
        let (action_url, resp) = self.post_form(t, action_url, &borrowed, &mut now)?;
        // Follow a post-submit redirect if the server issues one.
        let (final_url, resp) = match resp.location() {
            Some(loc) => {
                let next = resolve_location(&action_url, loc)
                    .ok_or_else(|| FetchError::BadRedirect(loc.to_string()))?;
                steps.push(BrowseStep::Redirected {
                    to: next.to_string(),
                });
                let mut req = Request::get(next);
                let r = self.exchange(t, &mut req, &mut now)?;
                (req.url, r)
            }
            None => (action_url, resp),
        };
        steps.push(BrowseStep::Loaded {
            status: resp.status.code(),
        });
        let rendered = self.render(&resp.body);
        Ok(PageView {
            url: final_url,
            status: resp.status,
            body_hash: rendered.body_hash,
            summary: Arc::clone(&rendered.summary),
            html: resp.body,
            steps,
            elapsed: now.since(start),
        })
    }
}

/// Resolve a `Location`/href against the current URL.
fn resolve_location(base: &Url, location: &str) -> Option<Url> {
    if location.starts_with("http://") || location.starts_with("https://") {
        Url::parse(location).ok()
    } else if let Some(rest) = location.strip_prefix('/') {
        Some(Url::https(&base.host, &format!("/{rest}")))
    } else if location.is_empty() {
        Some(base.clone())
    } else {
        // Relative path: resolve against the base directory.
        let dir = match base.path.rfind('/') {
            Some(i) => &base.path[..=i],
            None => "/",
        };
        Some(Url::https(&base.host, &format!("{dir}{location}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::DirectTransport;
    use phishsim_http::{RequestCtx, Response, VirtualHosting};

    fn browser(policy: DialogPolicy) -> Browser {
        let mut config = BrowserConfig::human_firefox();
        config.dialog_policy = policy;
        config.captcha_solver = None;
        Browser::new(config, Ipv4Sim::new(8, 8, 8, 8), "test")
    }

    #[test]
    fn resolve_location_variants() {
        let base = Url::parse("https://h.com/a/b.php").unwrap();
        assert_eq!(
            resolve_location(&base, "https://x.com/p")
                .unwrap()
                .to_string(),
            "https://x.com/p"
        );
        assert_eq!(
            resolve_location(&base, "/root.php").unwrap().to_string(),
            "https://h.com/root.php"
        );
        assert_eq!(
            resolve_location(&base, "sibling.php").unwrap().to_string(),
            "https://h.com/a/sibling.php"
        );
        assert_eq!(resolve_location(&base, "").unwrap(), base);
    }

    #[test]
    fn visit_follows_redirects() {
        let mut v = VirtualHosting::new();
        v.install(
            "a.com",
            Box::new(|req: &Request, _: &RequestCtx| {
                if req.url.path == "/" {
                    Response::redirect("/final.php")
                } else {
                    Response::html("<title>done</title>")
                }
            }),
        );
        let mut t = DirectTransport::new(v);
        let mut b = browser(DialogPolicy::Ignore);
        let view = b
            .visit(&mut t, &Url::https("a.com", "/"), SimTime::ZERO)
            .unwrap();
        assert_eq!(view.url.path, "/final.php");
        assert!(view.has_step(|s| matches!(s, BrowseStep::Redirected { .. })));
        assert_eq!(view.summary.title, "done");
        assert!(view.elapsed >= SimDuration::from_millis(100), "two RTTs");
    }

    #[test]
    fn visit_emits_nested_spans_and_retry_counters() {
        use phishsim_simnet::{DetRng, ObsKind};
        let sink = ObsSink::memory();
        let mut t = flaky_host(2);
        let mut b = browser(DialogPolicy::Ignore)
            .with_retry(RetryPolicy::crawl_default(), DetRng::new(7))
            .with_obs(sink.clone());
        b.visit(&mut t, &Url::https("flaky.com", "/"), SimTime::ZERO)
            .unwrap();
        let buf = sink.buffer().unwrap();
        let events = buf.events();
        // Exactly one visit span, and fetch/render spans parented to it.
        let visit_ids: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                ObsKind::SpanStart { id, name, .. } if name == "browser.visit" => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(visit_ids.len(), 1);
        let children: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                ObsKind::SpanStart { parent, name, .. } if *parent == Some(visit_ids[0]) => {
                    Some(name.clone())
                }
                _ => None,
            })
            .collect();
        assert!(children.contains(&"browser.fetch".to_string()));
        assert!(children.contains(&"browser.render".to_string()));
        // Every span that starts also ends.
        let starts = events
            .iter()
            .filter(|e| matches!(e.kind, ObsKind::SpanStart { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, ObsKind::SpanEnd { .. }))
            .count();
        assert_eq!(starts, ends);
        // Two transient failures → two retry attempts, one recovery.
        let m = buf.metrics();
        assert_eq!(m.counter("retry.attempts"), 2);
        assert_eq!(m.counter("retry.recovered"), 1);
        assert_eq!(m.counter("retry.giveups"), 0);
    }

    #[test]
    fn redirect_loop_detected() {
        let mut v = VirtualHosting::new();
        v.install(
            "loop.com",
            Box::new(|_: &Request, _: &RequestCtx| Response::redirect("/again")),
        );
        let mut t = DirectTransport::new(v);
        let mut b = browser(DialogPolicy::Ignore);
        let err = b
            .visit(&mut t, &Url::https("loop.com", "/"), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, FetchError::TooManyRedirects);
    }

    /// A transport that fails the first `failures_left` fetches with a
    /// transient error, then delegates.
    struct FlakyTransport {
        inner: DirectTransport,
        failures_left: u32,
        attempts: u32,
    }

    impl Transport for FlakyTransport {
        fn fetch(
            &mut self,
            src: Ipv4Sim,
            actor: &str,
            req: &Request,
            now: SimTime,
        ) -> Result<(Response, SimDuration), FetchError> {
            self.attempts += 1;
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(FetchError::ConnectionLost);
            }
            self.inner.fetch(src, actor, req, now)
        }
    }

    fn flaky_host(failures: u32) -> FlakyTransport {
        let mut v = VirtualHosting::new();
        v.install(
            "flaky.com",
            Box::new(|_: &Request, _: &RequestCtx| Response::html("<title>up</title>")),
        );
        FlakyTransport {
            inner: DirectTransport::new(v),
            failures_left: failures,
            attempts: 0,
        }
    }

    #[test]
    fn transient_failure_recovers_with_retry_policy() {
        use phishsim_simnet::DetRng;
        let mut t = flaky_host(2);
        let mut b =
            browser(DialogPolicy::Ignore).with_retry(RetryPolicy::crawl_default(), DetRng::new(7));
        let view = b
            .visit(&mut t, &Url::https("flaky.com", "/"), SimTime::ZERO)
            .unwrap();
        assert_eq!(view.summary.title, "up");
        assert_eq!(t.attempts, 3, "two failures then one success");
        assert!(
            view.elapsed >= SimDuration::from_secs(2),
            "backoff delay must elapse: {}",
            view.elapsed
        );
    }

    #[test]
    fn retries_exhaust_and_surface_the_transient_error() {
        use phishsim_simnet::DetRng;
        let mut t = flaky_host(100);
        let mut b =
            browser(DialogPolicy::Ignore).with_retry(RetryPolicy::crawl_default(), DetRng::new(7));
        let err = b
            .visit(&mut t, &Url::https("flaky.com", "/"), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, FetchError::ConnectionLost);
        assert_eq!(
            t.attempts,
            RetryPolicy::crawl_default().max_attempts,
            "attempt cap respected"
        );
    }

    #[test]
    fn no_policy_means_failures_are_final() {
        let mut t = flaky_host(1);
        let mut b = browser(DialogPolicy::Ignore);
        let err = b
            .visit(&mut t, &Url::https("flaky.com", "/"), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, FetchError::ConnectionLost);
        assert_eq!(t.attempts, 1);
    }

    #[test]
    fn cookies_persist_across_visits() {
        let mut v = VirtualHosting::new();
        v.install(
            "c.com",
            Box::new(
                |req: &Request, _: &RequestCtx| match req.headers.get("Cookie") {
                    Some(c) => Response::html(format!("cookie:{c}")),
                    None => Response::html("no-cookie").with_set_cookie("sid=xyz; Path=/"),
                },
            ),
        );
        let mut t = DirectTransport::new(v);
        let mut b = browser(DialogPolicy::Ignore);
        let u = Url::https("c.com", "/");
        let first = b.visit(&mut t, &u, SimTime::ZERO).unwrap();
        assert_eq!(first.html, "no-cookie");
        let second = b.visit(&mut t, &u, SimTime::from_mins(1)).unwrap();
        assert_eq!(second.html, "cookie:sid=xyz");
    }

    #[test]
    fn alert_effect_confirmed_by_capable_browser() {
        let cover = format!(
            "<html><body>cover{}</body></html>",
            ScriptEffect::AlertConfirm {
                message: "Please sign in to continue...".into(),
                delay_ms: 2000,
                confirm_field: ("get_data".into(), "getData".into()),
                guard_first_visit: true,
            }
            .to_markup()
        );
        let mut v = VirtualHosting::new();
        v.install(
            "alert.com",
            Box::new(move |req: &Request, _: &RequestCtx| {
                if req.form_field("get_data").as_deref() == Some("getData") {
                    Response::html("<title>payload</title>")
                } else {
                    Response::html(cover.clone())
                }
            }),
        );
        let mut t = DirectTransport::new(v);
        // Confirming browser reaches the payload.
        let mut b = browser(DialogPolicy::Confirm);
        let view = b
            .visit(&mut t, &Url::https("alert.com", "/"), SimTime::ZERO)
            .unwrap();
        assert_eq!(view.summary.title, "payload");
        assert!(view.has_step(|s| matches!(s, BrowseStep::DialogConfirmed)));
        assert!(
            view.elapsed >= SimDuration::from_secs(2),
            "dialog delay must elapse: {:?}",
            view.elapsed
        );
        // Ignoring browser stays on the cover.
        let mut b = browser(DialogPolicy::Ignore);
        let view = b
            .visit(&mut t, &Url::https("alert.com", "/"), SimTime::ZERO)
            .unwrap();
        assert_ne!(view.summary.title, "payload");
        assert!(view.has_step(|s| matches!(s, BrowseStep::DialogIgnored)));
        // Dismissing browser POSTs the empty (cancel) form and stays benign.
        let mut b = browser(DialogPolicy::Dismiss);
        let view = b
            .visit(&mut t, &Url::https("alert.com", "/"), SimTime::ZERO)
            .unwrap();
        assert_ne!(view.summary.title, "payload");
        assert!(view.has_step(|s| matches!(s, BrowseStep::DialogDismissed)));
    }

    #[test]
    fn form_submission_fills_fields() {
        let mut v = VirtualHosting::new();
        v.install(
            "f.com",
            Box::new(|req: &Request, _: &RequestCtx| {
                if req.method == phishsim_http::Method::Post {
                    Response::html(format!(
                        "<title>got {} {}</title>",
                        req.form_field("username").unwrap_or_default(),
                        req.form_field("csrf").unwrap_or_default()
                    ))
                } else {
                    Response::html(
                        "<form action=\"/submit.php\" method=\"post\">\
                         <input type=\"text\" name=\"username\">\
                         <input type=\"hidden\" name=\"csrf\" value=\"tok\">\
                         <input type=\"submit\" value=\"Go\"></form>",
                    )
                }
            }),
        );
        let mut t = DirectTransport::new(v);
        let mut b = browser(DialogPolicy::Ignore);
        let page = b
            .visit(&mut t, &Url::https("f.com", "/"), SimTime::ZERO)
            .unwrap();
        let form = page.summary.forms[0].clone();
        let result = b
            .submit_form(&mut t, &page, &form, "probe1", SimTime::from_mins(1))
            .unwrap();
        assert_eq!(result.summary.title, "got probe1 tok");
        assert!(result.has_step(|s| matches!(s, BrowseStep::FormSubmitted { .. })));
    }

    #[test]
    fn captcha_without_solver_only_recognised() {
        let widget = "<div class=\"g-recaptcha\" data-sitekey=\"6Labc\"></div>\
             <script data-sim-effect=\"captcha-callback\"></script>";
        let mut v = VirtualHosting::new();
        let page = format!("<html><body>{widget}</body></html>");
        v.install(
            "cap.com",
            Box::new(move |_: &Request, _: &RequestCtx| Response::html(page.clone())),
        );
        let mut t = DirectTransport::new(v);
        let mut b = browser(DialogPolicy::Confirm);
        let view = b
            .visit(&mut t, &Url::https("cap.com", "/"), SimTime::ZERO)
            .unwrap();
        assert!(view.has_step(|s| matches!(s, BrowseStep::CaptchaPresent)));
        assert!(!view.has_step(|s| matches!(s, BrowseStep::CaptchaSolved)));
    }
}
