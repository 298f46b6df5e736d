//! The evasion gates: server-side logic of the paper's three
//! human-verification techniques plus the web-cloaking baseline.
//!
//! Each gate decides, per request, whether to serve the **phishing
//! payload** or **benign cover content**, exactly as the PHP kits in
//! Appendix C do:
//!
//! * [`EvasionTechnique::AlertBox`] — Listing 2: every GET serves benign
//!   content carrying a modal-confirm script effect; only a POST with
//!   `get_data=getData` (what the dialog's confirm handler submits)
//!   yields the payload. The server logs which visitors reached it.
//! * [`EvasionTechnique::SessionGate`] — §2.3: the first page plants a
//!   PHP session; the payload is only served to a POST from a session
//!   that passed through the cover page ("Join Chat").
//! * [`EvasionTechnique::CaptchaGate`] — Listing 1: the first page is
//!   completely benign *without an HTML form tag*; solving the CAPTCHA
//!   dynamically generates a form POSTing `gresponse`, and the server
//!   reveals the payload on a successful `siteverify` — same URL, no
//!   redirect.
//! * [`EvasionTechnique::Cloaking`] — the Oest et al. baseline:
//!   user-agent and source-IP cloaking.
//! * [`EvasionTechnique::None`] — the "naked" payload of the
//!   preliminary test.

use crate::brands::Brand;
use parking_lot::Mutex;
use phishsim_captcha::{widget_markup, CaptchaProvider, ResponseToken, SecretKey, SiteKey};
use phishsim_html::ScriptEffect;
use phishsim_http::{Body, Handler, Request, RequestCtx, Response, UserAgent};
use phishsim_simnet::{BuildSymHasher, DetRng, Ipv4Sim, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

/// The evasion technique protecting a phishing page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvasionTechnique {
    /// No protection ("naked" payload, preliminary test).
    None,
    /// JavaScript alert/confirm box (paper code letter **A**).
    AlertBox,
    /// PHP session gating (paper code letter **S**).
    SessionGate,
    /// Google reCAPTCHA v2 checkbox (paper code letter **R**).
    CaptchaGate,
    /// User-agent + IP web cloaking (the PhishFarm baseline).
    Cloaking,
}

impl EvasionTechnique {
    /// The paper's table code letter, if it has one.
    pub fn code(self) -> Option<char> {
        match self {
            EvasionTechnique::AlertBox => Some('A'),
            EvasionTechnique::SessionGate => Some('S'),
            EvasionTechnique::CaptchaGate => Some('R'),
            _ => None,
        }
    }

    /// The three techniques of the main experiment.
    pub fn main_experiment() -> [EvasionTechnique; 3] {
        [
            EvasionTechnique::AlertBox,
            EvasionTechnique::SessionGate,
            EvasionTechnique::CaptchaGate,
        ]
    }
}

impl std::fmt::Display for EvasionTechnique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EvasionTechnique::None => "none",
            EvasionTechnique::AlertBox => "alert-box",
            EvasionTechnique::SessionGate => "session",
            EvasionTechnique::CaptchaGate => "recaptcha",
            EvasionTechnique::Cloaking => "cloaking",
        };
        f.write_str(s)
    }
}

/// One server-side decision record (the kit's `log_data` call).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeRecord {
    /// When the request was handled.
    pub at: SimTime,
    /// Source address.
    pub src: Ipv4Sim,
    /// Ground-truth actor (engine name or "human").
    pub actor: String,
    /// Whether the phishing payload was served.
    pub payload: bool,
    /// What the gate decided ("alert-confirmed", "session-cover", ...).
    pub note: &'static str,
}

/// One stored serve: a [`ServeRecord`] whose actor is an index into
/// the log's actor table.
#[derive(Debug, Clone, Copy)]
struct Serve {
    at: SimTime,
    src: Ipv4Sim,
    actor: u32,
    payload: bool,
    note: &'static str,
}

/// A site's serve log: fixed-size entries over a table of the actors
/// it has seen. Bots probe a kit hundreds of thousands of times per
/// paper run, but a site only ever sees a handful of actors.
#[derive(Debug, Default)]
struct ServeLog {
    serves: Vec<Serve>,
    actors: Vec<Box<str>>,
}

impl ServeLog {
    /// The index of `actor`, if the site has seen it.
    fn lookup(&self, actor: &str) -> Option<u32> {
        self.actors
            .iter()
            .position(|a| **a == *actor)
            .map(|i| i as u32)
    }

    fn push(&mut self, ctx: &RequestCtx, payload: bool, note: &'static str) {
        let actor = match self.lookup(ctx.actor) {
            Some(i) => i,
            None => {
                self.actors.push(ctx.actor.into());
                (self.actors.len() - 1) as u32
            }
        };
        self.serves.push(Serve {
            at: ctx.now,
            src: ctx.src,
            actor,
            payload,
            note,
        });
    }

    fn to_record(&self, s: &Serve) -> ServeRecord {
        ServeRecord {
            at: s.at,
            src: s.src,
            actor: self.actors[s.actor as usize].to_string(),
            payload: s.payload,
            note: s.note,
        }
    }

    /// Payload serves to `actor`; an actor the site never saw matches
    /// nothing.
    fn payloads_to(&self, actor: &str) -> impl Iterator<Item = &Serve> {
        let actor = self.lookup(actor);
        self.serves
            .iter()
            .filter(move |s| s.payload && Some(s.actor) == actor)
    }
}

/// A shared view into a site's serve log, usable after the handler has
/// been boxed into the hosting farm.
#[derive(Debug, Clone, Default)]
pub struct SiteProbe {
    log: Arc<Mutex<ServeLog>>,
}

impl SiteProbe {
    fn record(&self, ctx: &RequestCtx, payload: bool, note: &'static str) {
        self.log.lock().push(ctx, payload, note);
    }

    /// All records, in the order they were served.
    pub fn records(&self) -> Vec<ServeRecord> {
        let log = self.log.lock();
        log.serves.iter().map(|s| log.to_record(s)).collect()
    }

    /// Records where the payload was served, in the order served.
    pub fn payload_serves(&self) -> Vec<ServeRecord> {
        let log = self.log.lock();
        log.serves
            .iter()
            .filter(|s| s.payload)
            .map(|s| log.to_record(s))
            .collect()
    }

    /// Whether `actor` ever reached the payload (the paper's log
    /// analysis: "GSB bots clicked on the 'confirm' button ... and
    /// successfully retrieved phishing content").
    pub fn payload_reached_by(&self, actor: &str) -> bool {
        self.log.lock().payloads_to(actor).next().is_some()
    }

    /// First time `actor` reached the payload.
    pub fn first_payload_at(&self, actor: &str) -> Option<SimTime> {
        self.log.lock().payloads_to(actor).map(|s| s.at).min()
    }

    /// Total requests seen by the site.
    pub fn request_count(&self) -> usize {
        self.log.lock().serves.len()
    }
}

/// Binding of a CAPTCHA-protected site to the provider.
#[derive(Clone)]
pub struct CaptchaBinding {
    /// Public site key embedded in the page.
    pub site_key: SiteKey,
    /// Server-side secret.
    pub secret: SecretKey,
    /// The shared provider (verifies tokens).
    pub provider: Arc<Mutex<CaptchaProvider>>,
}

impl std::fmt::Debug for CaptchaBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptchaBinding")
            .field("site_key", &self.site_key)
            .finish()
    }
}

/// Which flavour of session gating a kit uses (§2.3 describes both:
/// the "Join Chat" cover observed in the wild, and the multi-page
/// sign-in pattern of Google/Facebook that inspired it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionStyle {
    /// A cover page with a button ("Join Chat", Figure 2).
    CoverButton,
    /// Multi-page sign-in: a username page first, the credential page
    /// second. The first page carries brand markup but *no password
    /// field*, so content classifiers score it benign.
    MultiPageLogin,
}

/// Gate configuration.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Technique to apply.
    pub technique: EvasionTechnique,
    /// Session-gate flavour (ignored by other techniques).
    pub session_style: SessionStyle,
    /// Delay before the alert box fires ("after a random number of
    /// seconds"), in milliseconds.
    pub alert_delay_ms: u64,
    /// Known anti-phishing-bot subnets, for cloaking (phishing kits
    /// ship such lists).
    pub bot_subnets: Vec<(Ipv4Sim, u8)>,
    /// CAPTCHA binding; required when `technique` is `CaptchaGate`.
    pub captcha: Option<CaptchaBinding>,
}

impl GateConfig {
    /// Configuration for a technique with no external bindings.
    pub fn simple(technique: EvasionTechnique) -> Self {
        assert!(
            technique != EvasionTechnique::CaptchaGate,
            "CaptchaGate needs GateConfig::captcha_gate"
        );
        GateConfig {
            technique,
            session_style: SessionStyle::CoverButton,
            alert_delay_ms: 2_000,
            bot_subnets: Vec::new(),
            captcha: None,
        }
    }

    /// A session gate in the multi-page sign-in style.
    pub fn multi_page_login() -> Self {
        GateConfig {
            session_style: SessionStyle::MultiPageLogin,
            ..Self::simple(EvasionTechnique::SessionGate)
        }
    }

    /// Configuration for a CAPTCHA-protected site.
    pub fn captcha_gate(provider: &Arc<Mutex<CaptchaProvider>>) -> Self {
        let (site_key, secret) = provider.lock().register_site();
        GateConfig {
            technique: EvasionTechnique::CaptchaGate,
            session_style: SessionStyle::CoverButton,
            alert_delay_ms: 2_000,
            bot_subnets: Vec::new(),
            captcha: Some(CaptchaBinding {
                site_key,
                secret,
                provider: Arc::clone(provider),
            }),
        }
    }

    /// Cloaking configuration with the given bot-subnet list.
    pub fn cloaking(bot_subnets: Vec<(Ipv4Sim, u8)>) -> Self {
        GateConfig {
            technique: EvasionTechnique::Cloaking,
            session_style: SessionStyle::CoverButton,
            alert_delay_ms: 0,
            bot_subnets,
            captcha: None,
        }
    }
}

/// A deployed phishing page behind an evasion gate.
pub struct PhishingSite {
    host: String,
    brand: Brand,
    config: GateConfig,
    /// The payload and the gate's benign cover page, each rendered
    /// once (they are pure in the site's host, brand and config) and
    /// served by reference: bots fetch them thousands of times per
    /// report.
    payload_html: Body,
    cover_html: Body,
    probe: SiteProbe,
    /// PHP-style sessions: the ids this site issued. Each one passed
    /// through the cover page, which is where ids are issued.
    sessions: HashSet<u128, BuildSymHasher>,
    rng: DetRng,
}

impl PhishingSite {
    /// Create a site for `host` targeting `brand` behind `config`.
    pub fn new(host: &str, brand: Brand, config: GateConfig, rng: &DetRng) -> Self {
        let cover_html = match config.technique {
            EvasionTechnique::None => String::new(),
            EvasionTechnique::AlertBox => alert_cover_html(&config),
            EvasionTechnique::SessionGate => session_cover_html(&config, brand),
            EvasionTechnique::CaptchaGate => captcha_cover_html(&config),
            EvasionTechnique::Cloaking => cloak_cover_html(host),
        };
        PhishingSite {
            host: host.to_string(),
            brand,
            payload_html: brand.login_page_html().into(),
            cover_html: cover_html.into(),
            config,
            probe: SiteProbe::default(),
            sessions: HashSet::default(),
            rng: rng.fork(&format!("phishsite:{host}")),
        }
    }

    /// A probe into the serve log (clone before boxing the handler).
    pub fn probe(&self) -> SiteProbe {
        self.probe.clone()
    }

    /// The technique in force.
    pub fn technique(&self) -> EvasionTechnique {
        self.config.technique
    }

    /// The targeted brand.
    pub fn brand(&self) -> Brand {
        self.brand
    }

    fn serve_payload(&self, ctx: &RequestCtx, note: &'static str) -> Response {
        self.probe.record(ctx, true, note);
        Response::html(self.payload_html.clone())
    }

    /// Log a benign serve and answer with the gate's cover page.
    fn serve_cover(&self, ctx: &RequestCtx, note: &'static str) -> Response {
        self.probe.record(ctx, false, note);
        Response::html(self.cover_html.clone())
    }

    /// A new session id: two draws, the first the high half.
    fn fresh_session_id(&mut self) -> u128 {
        use rand::RngCore;
        let hi = self.rng.next_u64();
        let lo = self.rng.next_u64();
        (u128::from(hi) << 64) | u128::from(lo)
    }

    /// The session id of the request's first `PHPSESSID` cookie, if it
    /// has the form this site issues: exactly 32 lowercase hex digits.
    /// Any other value was never issued, so it names no session.
    fn session_of(req: &Request) -> Option<u128> {
        let header = req.headers.get("Cookie")?;
        let id = header.split(';').find_map(|kv| {
            let (k, v) = kv.trim().split_once('=')?;
            (k == "PHPSESSID").then_some(v)
        })?;
        let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
        if id.len() != 32 || !id.bytes().all(lower_hex) {
            return None;
        }
        u128::from_str_radix(id, 16).ok()
    }

    fn handle_alert_box(&mut self, req: &Request, ctx: &RequestCtx) -> Response {
        if req.form_field("get_data").as_deref() == Some("getData") {
            // "Anti-phishing engine or user managed to confirm the
            // alert box" — Listing 2, lines 4–9.
            self.serve_payload(ctx, "alert-confirmed")
        } else {
            self.serve_cover(ctx, "alert-cover")
        }
    }

    fn handle_session_gate(&mut self, req: &Request, ctx: &RequestCtx) -> Response {
        let session = Self::session_of(req);
        let proceed = match self.config.session_style {
            SessionStyle::CoverButton => req.form_field("proceed").as_deref() == Some("1"),
            // Stage 1 submits the username; only then does the second
            // (credential) page exist for this session.
            SessionStyle::MultiPageLogin => {
                req.form_field("login_email").is_some_and(|v| !v.is_empty())
            }
        };
        match session.filter(|id| self.sessions.contains(id)) {
            Some(_) if proceed => self.serve_payload(ctx, "session-pass"),
            // Valid session revisiting the cover.
            Some(_) => self.serve_cover(ctx, "session-cover"),
            None => {
                // No (valid) session: plant one and serve the cover.
                // A POST without a session gets no payload — the session
                // must be generated on the first page (§2.3).
                let id = self.fresh_session_id();
                self.sessions.insert(id);
                let resp = self.serve_cover(ctx, "session-new");
                resp.with_set_cookie(format!("PHPSESSID={id:032x}; Path=/"))
            }
        }
    }

    fn handle_captcha_gate(&mut self, req: &Request, ctx: &RequestCtx) -> Response {
        if let Some(token) = req.form_field("gresponse") {
            let binding = self
                .config
                .captcha
                .as_ref()
                .expect("captcha gate requires a binding")
                .clone();
            let outcome =
                binding
                    .provider
                    .lock()
                    .siteverify(&binding.secret, &ResponseToken(token), ctx.now);
            if outcome.success {
                // Same URL, no redirection — the payload replaces the
                // page content (Listing 1, lines 13–17).
                return self.serve_payload(ctx, "captcha-pass");
            }
            return self.serve_cover(ctx, "captcha-fail");
        }
        self.serve_cover(ctx, "captcha-cover")
    }

    fn handle_cloaking(&mut self, req: &Request, ctx: &RequestCtx) -> Response {
        let ua_is_bot = req
            .user_agent()
            .map(UserAgent::looks_like_bot)
            .unwrap_or(true);
        let ip_is_bot = self
            .config
            .bot_subnets
            .iter()
            .any(|(net, len)| ctx.src.in_subnet(*net, *len));
        if ua_is_bot || ip_is_bot {
            self.serve_cover(ctx, "cloak-block")
        } else {
            self.serve_payload(ctx, "cloak-pass")
        }
    }
}

/// Listing 2's benign page: generic content plus the modal-confirm
/// script effect.
fn alert_cover_html(config: &GateConfig) -> String {
    let effect = ScriptEffect::AlertConfirm {
        message: "Please sign in to continue...".to_string(),
        delay_ms: config.alert_delay_ms,
        confirm_field: ("get_data".to_string(), "getData".to_string()),
        guard_first_visit: true,
    };
    format!(
        "<!DOCTYPE html><html><head><title>Account Portal</title>\
         <link rel=\"icon\" href=\"/favicon.ico\"></head>\
         <body class=\"blurred\"><div class=\"overlay\"></div>\
         <p>Loading your account portal. One moment, please.</p>\
         {}</body></html>",
        effect.to_markup()
    )
}

/// The session-gate cover page ("Join Chat").
fn session_cover_html(config: &GateConfig, brand: Brand) -> String {
    match config.session_style {
        SessionStyle::CoverButton => {
            "<!DOCTYPE html><html><head><title>Group Invitation</title></head>\
             <body><h1>You have been invited to a group chat</h1>\
             <p>Press the button below to join the conversation.</p>\
             <form action=\"\" method=\"post\">\
             <input type=\"hidden\" name=\"proceed\" value=\"1\">\
             <button type=\"submit\">Join Chat</button>\
             </form></body></html>"
                .to_string()
        }
        SessionStyle::MultiPageLogin => {
            // Stage 1: the username page. Brand-shaped, but with no
            // password field — content classifiers score it benign.
            let name = brand.name();
            let asset = brand.asset_paths()[0];
            format!(
                "<!DOCTYPE html><html><head><title>Sign in</title></head>\
                 <body><img src=\"{asset}\" alt=\"{name}\">\
                 <h1>Sign in to continue</h1>\
                 <form action=\"\" method=\"post\">\
                 <input type=\"email\" name=\"login_email\" placeholder=\"Email or phone\">\
                 <button type=\"submit\">Next</button>\
                 </form></body></html>"
            )
        }
    }
}

/// Listing 1's CAPTCHA page: completely benign, **no form tag** —
/// the form is generated dynamically by the callback effect.
fn captcha_cover_html(config: &GateConfig) -> String {
    let binding = config
        .captcha
        .as_ref()
        .expect("captcha gate requires a binding");
    let effect = ScriptEffect::CaptchaCallback {
        field_name: "gresponse".to_string(),
    };
    format!(
        "<!DOCTYPE html><html><head><title>Verification Required</title></head>\
         <body><h1>Are you human?</h1>\
         <p>Please complete the verification below to continue.</p>\
         {}{}</body></html>",
        widget_markup(&binding.site_key),
        effect.to_markup()
    )
}

/// Generic benign page served to cloaked-away bots.
fn cloak_cover_html(host: &str) -> String {
    format!(
        "<!DOCTYPE html><html><head><title>{} — maintenance</title></head>\
         <body><h1>Scheduled maintenance</h1>\
         <p>This page is temporarily unavailable. Please check back later.</p>\
         </body></html>",
        host
    )
}

impl Handler for PhishingSite {
    fn handle(&mut self, req: &Request, ctx: &RequestCtx) -> Response {
        match self.config.technique {
            EvasionTechnique::None => self.serve_payload(ctx, "naked"),
            EvasionTechnique::AlertBox => self.handle_alert_box(req, ctx),
            EvasionTechnique::SessionGate => self.handle_session_gate(req, ctx),
            EvasionTechnique::CaptchaGate => self.handle_captcha_gate(req, ctx),
            EvasionTechnique::Cloaking => self.handle_cloaking(req, ctx),
        }
    }
}

impl std::fmt::Debug for PhishingSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhishingSite")
            .field("host", &self.host)
            .field("brand", &self.brand)
            .field("technique", &self.config.technique)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_captcha::SolverProfile;
    use phishsim_html::PageSummary;
    use phishsim_http::Url;

    fn ctx(actor: &str) -> RequestCtx<'_> {
        RequestCtx {
            src: Ipv4Sim::new(5, 5, 5, 5),
            actor,
            now: SimTime::from_mins(10),
        }
    }

    fn rng() -> DetRng {
        DetRng::new(99)
    }

    fn url() -> Url {
        Url::https("victim.com", "/secure/login.php")
    }

    #[test]
    fn naked_site_always_serves_payload() {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::None),
            &rng(),
        );
        let probe = site.probe();
        let resp = site.handle(&Request::get(url()), &ctx("gsb"));
        assert!(PageSummary::from_html(&resp.body).has_login_form());
        assert!(probe.payload_reached_by("gsb"));
    }

    #[test]
    fn alert_box_gates_payload_behind_confirm() {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
            &rng(),
        );
        let probe = site.probe();
        // Plain GET: benign page with the alert effect, no login form.
        let resp = site.handle(&Request::get(url()), &ctx("netcraft"));
        let summary = PageSummary::from_html(&resp.body);
        assert!(!summary.has_login_form());
        let effects = ScriptEffect::extract(&phishsim_html::Document::parse(&resp.body));
        assert!(matches!(effects[0], ScriptEffect::AlertConfirm { .. }));
        assert!(!probe.payload_reached_by("netcraft"));
        // Confirming posts get_data=getData: payload revealed.
        let confirm = Request::post_form(url(), &[("get_data", "getData")]);
        let resp = site.handle(&confirm, &ctx("gsb"));
        assert!(PageSummary::from_html(&resp.body).has_login_form());
        assert!(probe.payload_reached_by("gsb"));
        assert!(!probe.payload_reached_by("netcraft"));
        // Cancelling (empty form) stays benign.
        let cancel = Request::post_form(url(), &[]);
        let resp = site.handle(&cancel, &ctx("apwg"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
    }

    #[test]
    fn session_gate_requires_cover_visit() {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::Facebook,
            GateConfig::simple(EvasionTechnique::SessionGate),
            &rng(),
        );
        let probe = site.probe();
        // Direct POST without a session: cover page, session planted.
        let blind_post = Request::post_form(url(), &[("proceed", "1")]);
        let resp = site.handle(&blind_post, &ctx("openphish"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
        assert!(!probe.payload_reached_by("openphish"));
        // Proper flow: GET cover, extract cookie, then POST with it.
        let resp = site.handle(&Request::get(url()), &ctx("human"));
        let cookie = resp.set_cookies()[0].split(';').next().unwrap().to_string();
        let summary = PageSummary::from_html(&resp.body);
        assert!(summary.buttons.iter().any(|b| b == "Join Chat"));
        let proceed = Request::post_form(url(), &[("proceed", "1")]).with_cookie_header(&cookie);
        let resp = site.handle(&proceed, &ctx("human"));
        assert!(PageSummary::from_html(&resp.body).has_login_form());
        assert!(probe.payload_reached_by("human"));
    }

    #[test]
    fn session_gate_rejects_forged_session() {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::Facebook,
            GateConfig::simple(EvasionTechnique::SessionGate),
            &rng(),
        );
        let forged =
            Request::post_form(url(), &[("proceed", "1")]).with_cookie_header("PHPSESSID=deadbeef");
        let resp = site.handle(&forged, &ctx("bot"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
    }

    fn session_site() -> PhishingSite {
        PhishingSite::new(
            "victim.com",
            Brand::Facebook,
            GateConfig::simple(EvasionTechnique::SessionGate),
            &rng(),
        )
    }

    /// The `PHPSESSID=<id>` pair of a session-gate response.
    fn planted_cookie(resp: &Response) -> String {
        resp.set_cookies()[0].split(';').next().unwrap().to_string()
    }

    #[test]
    fn session_cookies_match_golden_values() {
        // The first three sessions at this seed. Recorded runs carry
        // these cookies, so the draws behind an id and its text are
        // fixed.
        let mut site = session_site();
        let cookies: Vec<String> = (0..3)
            .map(|_| {
                let resp = site.handle(&Request::get(url()), &ctx("bot"));
                resp.set_cookies()[0].to_string()
            })
            .collect();
        assert_eq!(
            cookies,
            [
                "PHPSESSID=f92036eb43473c7d93c32fe0266d032b; Path=/",
                "PHPSESSID=e8d25bb0d470cb345c46c3f136e2231d; Path=/",
                "PHPSESSID=74cd310f31186f9acd0fa4428e834510; Path=/",
            ]
        );
    }

    #[test]
    fn session_gate_passes_an_issued_id() {
        let mut site = session_site();
        let probe = site.probe();
        let cookie = planted_cookie(&site.handle(&Request::get(url()), &ctx("human")));
        // Revisiting the cover keeps the session: no new cookie.
        let revisit = Request::get(url()).with_cookie_header(&cookie);
        let resp = site.handle(&revisit, &ctx("human"));
        assert!(resp.set_cookies().is_empty());
        let proceed = Request::post_form(url(), &[("proceed", "1")])
            .with_cookie_header(&format!("theme=dark; {cookie}"));
        let resp = site.handle(&proceed, &ctx("human"));
        assert!(PageSummary::from_html(&resp.body).has_login_form());
        let notes: Vec<&str> = probe.records().iter().map(|r| r.note).collect();
        assert_eq!(notes, ["session-new", "session-cover", "session-pass"]);
    }

    #[test]
    fn session_gate_ignores_cookies_it_never_issued() {
        let mut site = session_site();
        let probe = site.probe();
        let issued = planted_cookie(&site.handle(&Request::get(url()), &ctx("human")));
        let hex = issued.strip_prefix("PHPSESSID=").unwrap().to_string();
        let never_issued = "0123456789abcdef0123456789abcdef";
        assert_ne!(hex, never_issued);
        let forged = [
            hex.to_ascii_uppercase(),
            hex[..31].to_string(),
            format!("{hex}0"),
            format!("{}g", &hex[..31]),
            format!("+{}", &hex[..31]),
            never_issued.to_string(),
        ];
        for id in &forged {
            let post = Request::post_form(url(), &[("proceed", "1")])
                .with_cookie_header(&format!("PHPSESSID={id}"));
            let resp = site.handle(&post, &ctx("bot"));
            assert!(!PageSummary::from_html(&resp.body).has_login_form(), "{id}");
            let fresh = planted_cookie(&resp);
            assert_ne!(fresh, issued, "{id} gets a fresh session");
            assert_ne!(fresh, format!("PHPSESSID={id}"));
        }
        assert!(!probe.payload_reached_by("bot"));
        let new_sessions = probe
            .records()
            .iter()
            .filter(|r| r.note == "session-new")
            .count();
        assert_eq!(new_sessions, 1 + forged.len());
    }

    #[test]
    fn captcha_gate_cover_has_no_form_tag() {
        let provider = Arc::new(Mutex::new(CaptchaProvider::new(&rng())));
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::captcha_gate(&provider),
            &rng(),
        );
        let resp = site.handle(&Request::get(url()), &ctx("gsb"));
        let summary = PageSummary::from_html(&resp.body);
        assert!(
            summary.forms.is_empty(),
            "Listing 1: the first page is completely benign without an HTML form tag"
        );
        assert!(resp.body.contains("g-recaptcha"));
    }

    #[test]
    fn captcha_gate_end_to_end_human_flow() {
        let provider = Arc::new(Mutex::new(CaptchaProvider::new(&rng())));
        let config = GateConfig::captcha_gate(&provider);
        let site_key = config.captcha.as_ref().unwrap().site_key.clone();
        let mut site = PhishingSite::new("victim.com", Brand::PayPal, config, &rng());
        let probe = site.probe();
        let now = SimTime::from_mins(10);
        // Human solves the challenge...
        let token = provider
            .lock()
            .attempt(&site_key, &SolverProfile::Human { skill: 1.0 }, now)
            .unwrap();
        // ...the callback effect POSTs gresponse to the same URL.
        let post = Request::post_form(url(), &[("gresponse", &token.0)]);
        let resp = site.handle(&post, &ctx("human"));
        assert!(PageSummary::from_html(&resp.body).has_login_form());
        assert!(probe.payload_reached_by("human"));
        // Replayed token fails.
        let replay = Request::post_form(url(), &[("gresponse", &token.0)]);
        let resp = site.handle(&replay, &ctx("human"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
    }

    #[test]
    fn captcha_gate_rejects_forged_tokens() {
        let provider = Arc::new(Mutex::new(CaptchaProvider::new(&rng())));
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::captcha_gate(&provider),
            &rng(),
        );
        let probe = site.probe();
        let post = Request::post_form(url(), &[("gresponse", "forged-token")]);
        let resp = site.handle(&post, &ctx("bot"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
        assert!(!probe.payload_reached_by("bot"));
    }

    #[test]
    fn cloaking_blocks_bots_serves_browsers() {
        let bot_net = (Ipv4Sim::new(66, 249, 0, 0), 16u8);
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::cloaking(vec![bot_net]),
            &rng(),
        );
        // Googlebot UA: benign.
        let bot_req = Request::get(url()).with_user_agent(UserAgent::Googlebot.as_str());
        let resp = site.handle(&bot_req, &ctx("gsb"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
        // Browser UA from a bot IP: benign.
        let stealth = Request::get(url()).with_user_agent(UserAgent::Firefox.as_str());
        let bot_ip_ctx = RequestCtx {
            src: Ipv4Sim::new(66, 249, 3, 9),
            actor: "gsb",
            now: SimTime::from_mins(1),
        };
        let resp = site.handle(&stealth, &bot_ip_ctx);
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
        // Browser UA from a residential IP: payload.
        let resp = site.handle(&stealth, &ctx("human"));
        assert!(PageSummary::from_html(&resp.body).has_login_form());
        // Missing UA is treated as a bot.
        let resp = site.handle(&Request::get(url()), &ctx("mystery"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
    }

    #[test]
    fn probe_times_and_counts() {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
            &rng(),
        );
        let probe = site.probe();
        let mut c = ctx("gsb");
        c.now = SimTime::from_mins(100);
        site.handle(&Request::get(url()), &c);
        c.now = SimTime::from_mins(132);
        site.handle(&Request::post_form(url(), &[("get_data", "getData")]), &c);
        assert_eq!(probe.request_count(), 2);
        assert_eq!(probe.payload_serves().len(), 1);
        assert_eq!(probe.first_payload_at("gsb"), Some(SimTime::from_mins(132)));
        assert_eq!(probe.first_payload_at("netcraft"), None);
    }

    #[test]
    fn technique_codes_match_paper() {
        assert_eq!(EvasionTechnique::AlertBox.code(), Some('A'));
        assert_eq!(EvasionTechnique::SessionGate.code(), Some('S'));
        assert_eq!(EvasionTechnique::CaptchaGate.code(), Some('R'));
        assert_eq!(EvasionTechnique::None.code(), None);
        assert_eq!(EvasionTechnique::Cloaking.code(), None);
    }
}

#[cfg(test)]
mod multi_page_tests {
    use super::*;
    use phishsim_html::PageSummary;
    use phishsim_http::Url;

    fn ctx(actor: &str) -> RequestCtx<'_> {
        RequestCtx {
            src: Ipv4Sim::new(5, 5, 5, 5),
            actor,
            now: SimTime::from_mins(10),
        }
    }

    fn url() -> Url {
        Url::https("victim.com", "/signin.php")
    }

    fn site() -> PhishingSite {
        PhishingSite::new(
            "victim.com",
            Brand::Facebook,
            GateConfig::multi_page_login(),
            &DetRng::new(41),
        )
    }

    #[test]
    fn stage1_is_brand_shaped_but_classifier_benign() {
        let mut s = site();
        let resp = s.handle(&Request::get(url()), &ctx("bot"));
        let summary = PageSummary::from_html(&resp.body);
        // Brand evidence present...
        assert!(summary.text_contains("facebook") || resp.body.contains("fb-logo"));
        // ...but no password field, so no "login form".
        assert!(!summary.has_login_form());
        assert_eq!(summary.forms.len(), 1);
        assert!(summary.forms[0].fields.iter().all(|f| f.kind != "password"));
    }

    #[test]
    fn username_submission_with_session_reveals_stage2() {
        let mut s = site();
        let probe = s.probe();
        // Stage 1: GET plants the session.
        let resp = s.handle(&Request::get(url()), &ctx("human"));
        let cookie = resp.set_cookies()[0].split(';').next().unwrap().to_string();
        // Stage 1 submit: the username goes up with the session.
        let post = Request::post_form(url(), &[("login_email", "victim@mail.com")])
            .with_cookie_header(&cookie);
        let resp = s.handle(&post, &ctx("human"));
        assert!(
            PageSummary::from_html(&resp.body).has_login_form(),
            "stage 2 is the payload"
        );
        assert!(probe.payload_reached_by("human"));
    }

    #[test]
    fn sessionless_username_submission_stays_on_stage1() {
        let mut s = site();
        let post = Request::post_form(url(), &[("login_email", "victim@mail.com")]);
        let resp = s.handle(&post, &ctx("bot"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
    }

    #[test]
    fn empty_username_does_not_advance() {
        let mut s = site();
        let resp = s.handle(&Request::get(url()), &ctx("bot"));
        let cookie = resp.set_cookies()[0].split(';').next().unwrap().to_string();
        let post = Request::post_form(url(), &[("login_email", "")]).with_cookie_header(&cookie);
        let resp = s.handle(&post, &ctx("bot"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
    }

    #[test]
    fn join_chat_field_means_nothing_to_multipage() {
        let mut s = site();
        let resp = s.handle(&Request::get(url()), &ctx("bot"));
        let cookie = resp.set_cookies()[0].split(';').next().unwrap().to_string();
        let post = Request::post_form(url(), &[("proceed", "1")]).with_cookie_header(&cookie);
        let resp = s.handle(&post, &ctx("bot"));
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
    }
}
