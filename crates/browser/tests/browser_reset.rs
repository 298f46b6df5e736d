//! A browser reset for each pass behaves as a new browser would.
//!
//! The anti-phishing engines keep one browser each and reset it for
//! every crawl pass. What a site sees of a crawler's profile decides
//! how the site treats it (a session gate keys on the `PHPSESSID`
//! cookie), so a reset browser must show every pass the empty profile
//! a new browser shows. These tests drive the same passes through one
//! reset browser and through a new browser per pass, each against its
//! own copy of the same deployment, and require equal page views and
//! equal server-side serve logs.

use parking_lot::Mutex;
use phishsim_browser::transport::DirectTransport;
use phishsim_browser::{
    BrowseStep, Browser, BrowserConfig, DialogPolicy, PageView, PassSetup, RenderCache,
};
use phishsim_captcha::CaptchaProvider;
use phishsim_http::{Request, RequestCtx, Response, Url, UserAgent, VirtualHosting};
use phishsim_phishgen::{
    Brand, CompromisedSite, EvasionTechnique, FakeSiteGenerator, GateConfig, PhishKit, ServeRecord,
    SiteProbe,
};
use phishsim_simnet::{DetRng, Ipv4Sim, ObsSink, RetryPolicy, SimDuration, SimTime};
use std::sync::Arc;

const SESSION: usize = 0;
const ALERT: usize = 1;
const CAPTCHA: usize = 2;
const REDIRECT: usize = 3;

/// The passes: which site, under which dialog policy.
const PASSES: [(usize, DialogPolicy); 9] = [
    (SESSION, DialogPolicy::Ignore),
    (SESSION, DialogPolicy::Ignore),
    (ALERT, DialogPolicy::Confirm),
    (ALERT, DialogPolicy::Dismiss),
    (REDIRECT, DialogPolicy::Ignore),
    (REDIRECT, DialogPolicy::Ignore),
    (CAPTCHA, DialogPolicy::Confirm),
    (SESSION, DialogPolicy::Confirm),
    (ALERT, DialogPolicy::Confirm),
];

struct Deployment {
    transport: DirectTransport,
    urls: Vec<Url>,
    probes: Vec<SiteProbe>,
}

/// A session gate, an alert box and a CAPTCHA gate, plus a host whose
/// `/` plants a cookie on a redirect to `/final.php`, or redirects to
/// `/seen.php` when the request already carries a cookie. Two calls
/// build identical deployments.
fn deploy() -> Deployment {
    let rng = DetRng::new(404);
    let provider = Arc::new(Mutex::new(CaptchaProvider::new(&rng)));
    let gates = [
        GateConfig::simple(EvasionTechnique::SessionGate),
        GateConfig::simple(EvasionTechnique::AlertBox),
        GateConfig::captcha_gate(&provider),
    ];
    let mut vhosts = VirtualHosting::new();
    let mut urls = Vec::new();
    let mut probes = Vec::new();
    for (i, gate) in gates.into_iter().enumerate() {
        let host = format!("gate-{i}.com");
        let site_rng = rng.fork_indexed("site", i);
        let bundle = FakeSiteGenerator::new(&site_rng).generate(&host);
        let kit = PhishKit::new(Brand::PayPal, gate);
        urls.push(kit.phishing_url(&host));
        let site = CompromisedSite::new(bundle, kit, &site_rng);
        probes.push(site.probe());
        vhosts.install(&host, Box::new(site));
    }
    vhosts.install(
        "hop.com",
        Box::new(|req: &Request, _: &RequestCtx| {
            match (req.url.path.as_str(), req.headers.get("Cookie")) {
                ("/", None) => Response::redirect("/final.php").with_set_cookie("hop=1; Path=/"),
                ("/", Some(_)) => Response::redirect("/seen.php"),
                (path, cookie) => Response::html(format!(
                    "<title>{path} {}</title>",
                    cookie.unwrap_or("none")
                )),
            }
        }),
    );
    urls.push(Url::https("hop.com", "/"));
    Deployment {
        transport: DirectTransport::new(vhosts),
        urls,
        probes,
    }
}

fn user_agent(pass: usize) -> &'static str {
    if pass.is_multiple_of(2) {
        UserAgent::Googlebot.as_str()
    } else {
        UserAgent::Firefox.as_str()
    }
}

fn src(pass: usize) -> Ipv4Sim {
    Ipv4Sim::new(20, 40, 1, pass as u8)
}

fn start(pass: usize) -> SimTime {
    SimTime::from_mins(10) + SimDuration::from_mins(pass as u64 * 7)
}

/// What a pass produced: URL, status, body hash, steps, elapsed, body.
type Seen = (String, u16, u64, Vec<BrowseStep>, SimDuration, String);

fn seen(view: PageView) -> Seen {
    (
        view.url.to_string(),
        view.status.code(),
        view.body_hash,
        view.steps,
        view.elapsed,
        view.html.to_string(),
    )
}

/// Every pass through one browser, reset before each.
fn through_one_reset_browser() -> (Vec<Seen>, Vec<Vec<ServeRecord>>) {
    let mut d = deploy();
    let cache = Arc::new(RenderCache::new());
    let retry_policy = RetryPolicy::crawl_default();
    let retry_parent = DetRng::new(7);
    let mut browser = Browser::new(
        BrowserConfig::plain_crawler(""),
        Ipv4Sim::new(0, 0, 0, 0),
        "crawler",
    );
    let mut views = Vec::new();
    for (pass, &(site, dialog_policy)) in PASSES.iter().enumerate() {
        browser.reset(PassSetup {
            user_agent: user_agent(pass),
            dialog_policy,
            captcha_solver: None,
            captcha_provider: None,
            src: src(pass),
            obs: &ObsSink::Null,
            render_cache: &cache,
            retry_policy: &retry_policy,
            retry_parent: &retry_parent,
            pass: pass as u64 + 1,
        });
        let view = browser
            .visit(&mut d.transport, &d.urls[site], start(pass))
            .expect("every pass loads");
        views.push(seen(view));
    }
    (views, d.probes.iter().map(SiteProbe::records).collect())
}

/// Every pass through a browser of its own.
fn through_new_browsers() -> (Vec<Seen>, Vec<Vec<ServeRecord>>) {
    let mut d = deploy();
    let mut views = Vec::new();
    for (pass, &(site, dialog_policy)) in PASSES.iter().enumerate() {
        let mut config = BrowserConfig::plain_crawler(user_agent(pass));
        config.dialog_policy = dialog_policy;
        let mut browser = Browser::new(config, src(pass), "crawler")
            .with_retry(RetryPolicy::crawl_default(), DetRng::new(7));
        let view = browser
            .visit(&mut d.transport, &d.urls[site], start(pass))
            .expect("every pass loads");
        views.push(seen(view));
    }
    (views, d.probes.iter().map(SiteProbe::records).collect())
}

#[test]
fn a_reset_browser_sees_and_is_seen_as_a_new_one() {
    let (reused, reused_logs) = through_one_reset_browser();
    let (fresh, fresh_logs) = through_new_browsers();
    for (pass, (r, f)) in reused.iter().zip(&fresh).enumerate() {
        assert_eq!(r, f, "pass {pass} ({:?})", PASSES[pass]);
    }
    assert_eq!(reused_logs, fresh_logs, "the sites saw different visitors");

    // The passes reach every behaviour they are meant to cover.
    let has = |pass: usize, step: BrowseStep| reused[pass].3.contains(&step);
    assert!(has(2, BrowseStep::DialogConfirmed));
    assert!(has(3, BrowseStep::DialogDismissed));
    assert!(has(6, BrowseStep::CaptchaPresent));
    for pass in [4, 5] {
        assert!(reused[pass].3.iter().any(|s| matches!(
            s,
            BrowseStep::Redirected { to } if to == "https://hop.com/final.php"
        )));
        assert_eq!(reused[pass].0, "https://hop.com/final.php");
        assert!(
            reused[pass].5.contains("hop=1"),
            "the hop's cookie goes out"
        );
    }
    assert!(reused_logs[ALERT].iter().any(|r| r.payload));
}

#[test]
fn a_session_planted_in_one_pass_is_not_presented_in_the_next() {
    let (_, logs) = through_one_reset_browser();
    let notes: Vec<&str> = logs[SESSION].iter().map(|r| r.note).collect();
    assert_eq!(notes, ["session-new"; 3], "each pass starts a new session");
}
