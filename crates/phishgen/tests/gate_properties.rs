//! Property-based tests on the evasion gates' security invariants:
//! no sequence of unauthenticated requests ever leaks the payload.

use phishsim_html::PageSummary;
use phishsim_http::{Handler, Request, RequestCtx, Url};
use phishsim_phishgen::{Brand, EvasionTechnique, GateConfig, PhishingSite};
use phishsim_simnet::{DetRng, Ipv4Sim, SimTime};
use proptest::prelude::*;

fn ctx(minute: u64) -> RequestCtx<'static> {
    RequestCtx {
        src: Ipv4Sim::new(9, 9, 9, 9),
        actor: "prop",
        now: SimTime::from_mins(minute),
    }
}

fn url() -> Url {
    Url::https("victim.com", "/kit.php")
}

/// An arbitrary form body that is NOT the alert-box confirmation.
fn non_confirm_body() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(("[a-z_]{1,12}", "[a-zA-Z0-9]{0,16}"), 0..4).prop_filter(
        "must not be the confirm field",
        |fields| {
            !fields
                .iter()
                .any(|(k, v)| k == "get_data" && v == "getData")
        },
    )
}

proptest! {
    /// The alert-box gate: no request without the exact confirm field
    /// ever sees the payload.
    #[test]
    fn alert_box_never_leaks_without_confirm(
        bodies in proptest::collection::vec(non_confirm_body(), 1..12),
        use_post in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
            &DetRng::new(1),
        );
        let probe = site.probe();
        for (i, (body, post)) in bodies.iter().zip(&use_post).enumerate() {
            let req = if *post {
                let fields: Vec<(&str, &str)> =
                    body.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                Request::post_form(url(), &fields)
            } else {
                Request::get(url())
            };
            let resp = site.handle(&req, &ctx(i as u64));
            prop_assert!(
                !PageSummary::from_html(&resp.body).has_login_form(),
                "leak on request {i}"
            );
        }
        prop_assert!(probe.payload_serves().is_empty());
    }

    /// The session gate: forged session cookies never see the payload;
    /// only ids issued by the server do.
    #[test]
    fn session_gate_rejects_forged_sessions(
        forged_ids in proptest::collection::vec("[0-9a-f]{1,32}", 1..10),
    ) {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::Facebook,
            GateConfig::simple(EvasionTechnique::SessionGate),
            &DetRng::new(2),
        );
        for (i, id) in forged_ids.iter().enumerate() {
            let req = Request::post_form(url(), &[("proceed", "1")])
                .with_cookie_header(&format!("PHPSESSID={id}"));
            let resp = site.handle(&req, &ctx(i as u64));
            // The forged POST plants a *new* session and serves the
            // cover; the forged id itself must never unlock anything.
            prop_assert!(!PageSummary::from_html(&resp.body).has_login_form());
        }
        // A legitimately issued session still works afterwards.
        let resp = site.handle(&Request::get(url()), &ctx(100));
        let cookie = resp.headers.get("Set-Cookie").unwrap().split(';').next().unwrap().to_string();
        let resp = site.handle(
            &Request::post_form(url(), &[("proceed", "1")]).with_cookie_header(&cookie),
            &ctx(101),
        );
        prop_assert!(PageSummary::from_html(&resp.body).has_login_form());
    }

    /// The CAPTCHA gate: arbitrary gresponse strings never verify.
    #[test]
    fn captcha_gate_rejects_arbitrary_tokens(
        tokens in proptest::collection::vec("[ -~]{0,48}", 1..10),
    ) {
        let provider = std::sync::Arc::new(parking_lot::Mutex::new(
            phishsim_captcha::CaptchaProvider::new(&DetRng::new(3)),
        ));
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::captcha_gate(&provider),
            &DetRng::new(3),
        );
        let probe = site.probe();
        for (i, t) in tokens.iter().enumerate() {
            let req = Request::post_form(url(), &[("gresponse", t.as_str())]);
            let resp = site.handle(&req, &ctx(i as u64));
            prop_assert!(
                !PageSummary::from_html(&resp.body).has_login_form(),
                "forged token {t:?} verified"
            );
        }
        prop_assert!(probe.payload_serves().is_empty());
    }

    /// The cloaking gate: bot-looking user agents never see the payload
    /// regardless of path or ordering.
    #[test]
    fn cloaking_never_serves_bot_uas(
        suffixes in proptest::collection::vec("[a-z]{0,8}", 1..8),
    ) {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::cloaking(vec![]),
            &DetRng::new(4),
        );
        for (i, s) in suffixes.iter().enumerate() {
            let ua = format!("Mozilla/5.0 (compatible; scanner-bot/{s})");
            let resp = site.handle(&Request::get(url()).with_user_agent(&ua), &ctx(i as u64));
            prop_assert!(!PageSummary::from_html(&resp.body).has_login_form());
        }
    }
}
