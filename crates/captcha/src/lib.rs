//! # phishsim-captcha
//!
//! A simulated reCAPTCHA-v2-checkbox-style human-verification service.
//!
//! The paper's strongest evasion result (Table 2) is that **no
//! anti-phishing engine detected any of the 35 reCAPTCHA-protected
//! URLs**, because no crawler can solve the challenge. The only property
//! the experiment relies on is "humans pass, bots fail" — but the *flow*
//! matters too, because the kit (Appendix C, Listing 1) reloads the same
//! URL with the `gresponse` token and relies on the server-side
//! `siteverify` call. This crate models the full flow:
//!
//! 1. A site registers and receives a `(site key, secret key)` pair.
//! 2. The page embeds the widget (`<div class="g-recaptcha"
//!    data-sitekey=...>`).
//! 3. A visitor attempts the challenge with a [`SolverProfile`]; humans
//!    succeed with high probability, automation fails.
//! 4. Success yields a single-use, short-lived [`ResponseToken`].
//! 5. The server calls [`CaptchaProvider::siteverify`] with its secret
//!    and the token; replays and expired tokens are rejected with the
//!    real API's error codes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use phishsim_simnet::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A public site key, embedded in page markup.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SiteKey(pub String);

/// The confidential counterpart of a [`SiteKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SecretKey(pub String);

/// A response token issued for one solved challenge.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResponseToken(pub String);

/// Who (or what) is attempting the challenge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverProfile {
    /// A human visitor; `skill` is the per-attempt success probability
    /// (checkbox challenges are nearly always passed).
    Human {
        /// Per-attempt success probability in `[0, 1]`.
        skill: f64,
    },
    /// A full browser driven by automation (Selenium-style). The
    /// checkbox risk analysis detects automation: always fails.
    AutomatedBrowser,
    /// A headless crawler that does not even render the widget.
    HeadlessBot,
    /// A paid human CAPTCHA-solving farm bridged into an automated
    /// pipeline — the hypothetical counter-measure discussed in §5.1.
    /// Succeeds with the farm's service rate.
    FarmService {
        /// Per-attempt success probability in `[0, 1]`.
        success_rate: f64,
    },
}

impl SolverProfile {
    /// A typical human visitor.
    pub fn human() -> Self {
        SolverProfile::Human { skill: 0.96 }
    }

    fn success_probability(&self) -> f64 {
        match self {
            SolverProfile::Human { skill } => *skill,
            SolverProfile::AutomatedBrowser | SolverProfile::HeadlessBot => 0.0,
            SolverProfile::FarmService { success_rate } => *success_rate,
        }
    }
}

/// Outcome of a `siteverify` call, mirroring the real API's shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyOutcome {
    /// Whether the token was valid for this site.
    pub success: bool,
    /// Error codes on failure (`invalid-input-secret`,
    /// `invalid-input-response`, `timeout-or-duplicate`).
    pub error_codes: Vec<String>,
}

impl VerifyOutcome {
    fn ok() -> Self {
        VerifyOutcome {
            success: true,
            error_codes: Vec::new(),
        }
    }
    fn err(code: &str) -> Self {
        VerifyOutcome {
            success: false,
            error_codes: vec![code.to_string()],
        }
    }
}

/// Token lifetime: the real API's tokens expire after two minutes.
pub const TOKEN_TTL: SimDuration = SimDuration::from_secs(120);

#[derive(Debug, Clone)]
struct TokenState {
    site: SiteKey,
    issued_at: SimTime,
    used: bool,
}

/// The CAPTCHA service: key registry plus token issuance/verification.
#[derive(Debug)]
pub struct CaptchaProvider {
    keys: HashMap<SiteKey, SecretKey>,
    tokens: HashMap<ResponseToken, TokenState>,
    rng: DetRng,
    next_site: u64,
}

impl CaptchaProvider {
    /// Create a provider with its own RNG stream.
    pub fn new(rng: &DetRng) -> Self {
        CaptchaProvider {
            keys: HashMap::new(),
            tokens: HashMap::new(),
            rng: rng.fork("captcha-provider"),
            next_site: 0,
        }
    }

    /// Register a site; returns its key pair.
    pub fn register_site(&mut self) -> (SiteKey, SecretKey) {
        self.next_site += 1;
        let site = SiteKey(format!("6Lsim{:012x}", self.next_site));
        let secret = SecretKey(format!("6Lsec{:012x}-{:08x}", self.next_site, {
            use rand::RngCore;
            self.rng.next_u32()
        }));
        self.keys.insert(site.clone(), secret.clone());
        (site, secret)
    }

    /// Whether a site key is registered.
    pub fn knows_site(&self, site: &SiteKey) -> bool {
        self.keys.contains_key(site)
    }

    /// One challenge attempt. Returns a token on success, `None` on
    /// failure (automation, unlucky human, unknown site key).
    pub fn attempt(
        &mut self,
        site: &SiteKey,
        solver: &SolverProfile,
        now: SimTime,
    ) -> Option<ResponseToken> {
        if !self.keys.contains_key(site) {
            return None;
        }
        if !self.rng.chance(solver.success_probability()) {
            return None;
        }
        let token = ResponseToken(format!("03simtok-{:016x}", {
            use rand::RngCore;
            self.rng.next_u64()
        }));
        self.tokens.insert(
            token.clone(),
            TokenState {
                site: site.clone(),
                issued_at: now,
                used: false,
            },
        );
        Some(token)
    }

    /// Server-side verification of a token against a secret.
    pub fn siteverify(
        &mut self,
        secret: &SecretKey,
        token: &ResponseToken,
        now: SimTime,
    ) -> VerifyOutcome {
        // Find which site this secret belongs to.
        let site = match self.keys.iter().find(|(_, s)| *s == secret) {
            Some((site, _)) => site.clone(),
            None => return VerifyOutcome::err("invalid-input-secret"),
        };
        let state = match self.tokens.get_mut(token) {
            Some(s) => s,
            None => return VerifyOutcome::err("invalid-input-response"),
        };
        if state.site != site {
            return VerifyOutcome::err("invalid-input-response");
        }
        if state.used || now.since(state.issued_at) > TOKEN_TTL {
            return VerifyOutcome::err("timeout-or-duplicate");
        }
        state.used = true;
        VerifyOutcome::ok()
    }
}

/// The widget markup a protected page embeds (step 2 of the flow).
pub fn widget_markup(site: &SiteKey) -> String {
    format!(
        "<div class=\"g-recaptcha\" data-sitekey=\"{}\"></div>",
        site.0
    )
}

/// Extract the site key from a page's widget markup, if present.
/// Crawlers use this to *recognise* CAPTCHA protection even though they
/// cannot solve it.
pub fn find_widget(html: &str) -> Option<SiteKey> {
    let marker = "class=\"g-recaptcha\"";
    if !html.contains(marker) {
        return None;
    }
    let key_marker = "data-sitekey=\"";
    let start = html.find(key_marker)? + key_marker.len();
    let end = html[start..].find('"')? + start;
    Some(SiteKey(html[start..end].to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> CaptchaProvider {
        CaptchaProvider::new(&DetRng::new(42))
    }

    #[test]
    fn human_solves_bot_fails() {
        let mut p = provider();
        let (site, _secret) = p.register_site();
        let now = SimTime::from_mins(1);
        // A perfect human always passes.
        let t = p.attempt(&site, &SolverProfile::Human { skill: 1.0 }, now);
        assert!(t.is_some());
        // Automation never passes.
        for _ in 0..50 {
            assert!(p
                .attempt(&site, &SolverProfile::AutomatedBrowser, now)
                .is_none());
            assert!(p.attempt(&site, &SolverProfile::HeadlessBot, now).is_none());
        }
    }

    #[test]
    fn typical_human_succeeds_with_high_probability() {
        let mut p = provider();
        let (site, _) = p.register_site();
        let now = SimTime::ZERO;
        let n = 2_000;
        let ok = (0..n)
            .filter(|_| p.attempt(&site, &SolverProfile::human(), now).is_some())
            .count();
        let rate = ok as f64 / n as f64;
        assert!((rate - 0.96).abs() < 0.03, "human success rate {rate}");
    }

    #[test]
    fn verify_happy_path() {
        let mut p = provider();
        let (site, secret) = p.register_site();
        let now = SimTime::from_mins(5);
        let token = p
            .attempt(&site, &SolverProfile::Human { skill: 1.0 }, now)
            .unwrap();
        let out = p.siteverify(&secret, &token, now + SimDuration::from_secs(3));
        assert!(out.success, "{:?}", out.error_codes);
    }

    #[test]
    fn token_is_single_use() {
        let mut p = provider();
        let (site, secret) = p.register_site();
        let now = SimTime::ZERO;
        let token = p
            .attempt(&site, &SolverProfile::Human { skill: 1.0 }, now)
            .unwrap();
        assert!(p.siteverify(&secret, &token, now).success);
        let replay = p.siteverify(&secret, &token, now);
        assert!(!replay.success);
        assert_eq!(replay.error_codes, vec!["timeout-or-duplicate"]);
    }

    #[test]
    fn token_expires() {
        let mut p = provider();
        let (site, secret) = p.register_site();
        let now = SimTime::ZERO;
        let token = p
            .attempt(&site, &SolverProfile::Human { skill: 1.0 }, now)
            .unwrap();
        let late = now + TOKEN_TTL + SimDuration::from_secs(1);
        let out = p.siteverify(&secret, &token, late);
        assert!(!out.success);
        assert_eq!(out.error_codes, vec!["timeout-or-duplicate"]);
    }

    #[test]
    fn wrong_secret_and_unknown_token_rejected() {
        let mut p = provider();
        let (site_a, secret_a) = p.register_site();
        let (_site_b, secret_b) = p.register_site();
        let now = SimTime::ZERO;
        let token = p
            .attempt(&site_a, &SolverProfile::Human { skill: 1.0 }, now)
            .unwrap();
        // Secret of another site: token does not belong to it.
        let cross = p.siteverify(&secret_b, &token, now);
        assert!(!cross.success);
        assert_eq!(cross.error_codes, vec!["invalid-input-response"]);
        // Completely unknown secret.
        let bad = p.siteverify(&SecretKey("nope".into()), &token, now);
        assert_eq!(bad.error_codes, vec!["invalid-input-secret"]);
        // Forged token.
        let forged = p.siteverify(&secret_a, &ResponseToken("forged".into()), now);
        assert_eq!(forged.error_codes, vec!["invalid-input-response"]);
        // Original still valid after failed attempts against it.
        assert!(p.siteverify(&secret_a, &token, now).success);
    }

    #[test]
    fn unknown_site_key_yields_no_token() {
        let mut p = provider();
        let t = p.attempt(
            &SiteKey("unregistered".into()),
            &SolverProfile::Human { skill: 1.0 },
            SimTime::ZERO,
        );
        assert!(t.is_none());
    }

    #[test]
    fn farm_service_rate() {
        let mut p = provider();
        let (site, _) = p.register_site();
        let n = 2_000;
        let ok = (0..n)
            .filter(|_| {
                p.attempt(
                    &site,
                    &SolverProfile::FarmService { success_rate: 0.8 },
                    SimTime::ZERO,
                )
                .is_some()
            })
            .count();
        let rate = ok as f64 / n as f64;
        assert!((rate - 0.8).abs() < 0.05, "farm rate {rate}");
    }

    #[test]
    fn widget_markup_round_trips() {
        let mut p = provider();
        let (site, _) = p.register_site();
        let html = format!("<html><body>{}</body></html>", widget_markup(&site));
        assert_eq!(find_widget(&html), Some(site));
        assert_eq!(find_widget("<html><body>no widget</body></html>"), None);
    }

    #[test]
    fn distinct_sites_get_distinct_keys() {
        let mut p = provider();
        let (s1, k1) = p.register_site();
        let (s2, k2) = p.register_site();
        assert_ne!(s1, s2);
        assert_ne!(k1, k2);
        assert!(p.knows_site(&s1));
        assert!(p.knows_site(&s2));
    }
}
