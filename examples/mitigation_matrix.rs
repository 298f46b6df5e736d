//! Mitigation ablation: which *single capability* fixes which evasion?
//!
//! §5.1 of the paper discusses counter-measures: alert boxes fall to
//! any crawler that drives a real browser automation stack (Selenium
//! confirms dialogs); session gates fall to form submission; CAPTCHA
//! falls to nothing server-side short of a human solving farm. This
//! example upgrades one capability at a time on a deliberately weak
//! crawler and shows the detection matrix shifting.
//!
//! ```text
//! cargo run --example mitigation_matrix
//! ```

use phishsim::antiphish::classify;
use phishsim::browser::{Browser, BrowserConfig, DialogPolicy};
use phishsim::captcha::SolverProfile;
use phishsim::deploy::deploy_armed_site;
use phishsim::prelude::*;
use phishsim::simnet::Ipv4Sim;
use phishsim_dns::DomainName;

struct Capability {
    name: &'static str,
    dialog: DialogPolicy,
    submits_forms: bool,
    solver: Option<SolverProfile>,
}

fn main() {
    let capabilities = [
        Capability {
            name: "plain fetcher (most engines)",
            dialog: DialogPolicy::Ignore,
            submits_forms: false,
            solver: None,
        },
        Capability {
            name: "+ dialog confirmation (GSB)",
            dialog: DialogPolicy::Confirm,
            submits_forms: false,
            solver: None,
        },
        Capability {
            name: "+ form submission (NetCraft)",
            dialog: DialogPolicy::Confirm,
            submits_forms: true,
            solver: None,
        },
        Capability {
            name: "+ CAPTCHA farm (hypothetical, $$)",
            dialog: DialogPolicy::Confirm,
            submits_forms: true,
            solver: Some(SolverProfile::FarmService { success_rate: 0.9 }),
        },
    ];
    let techniques = [
        EvasionTechnique::AlertBox,
        EvasionTechnique::SessionGate,
        EvasionTechnique::CaptchaGate,
    ];

    println!(
        "{:<36} {:>10} {:>10} {:>10}",
        "crawler capability", "AlertBox", "Session", "reCAPTCHA"
    );
    for cap in &capabilities {
        let mut row = format!("{:<36}", cap.name);
        for technique in techniques {
            let reached = payload_reached(cap, technique);
            row.push_str(&format!(
                " {:>10}",
                if reached { "PAYLOAD" } else { "blocked" }
            ));
        }
        println!("{row}");
    }
    println!("\n'PAYLOAD' means the crawler retrieved the phishing content and the");
    println!("classifier would flag it; 'blocked' means it only ever saw benign cover.");
}

fn payload_reached(cap: &Capability, technique: EvasionTechnique) -> bool {
    let mut world = World::new(0xab1e);
    let domain = DomainName::parse("harbor-summit.com").unwrap();
    world
        .registry
        .register(
            domain.clone(),
            "ovh",
            SimTime::ZERO,
            SimDuration::from_days(365),
        )
        .unwrap();
    let dep = deploy_armed_site(&mut world, &domain, Brand::PayPal, technique, SimTime::ZERO);

    let config = BrowserConfig {
        user_agent: phishsim::http::UserAgent::Chrome.as_str().into(),
        dialog_policy: cap.dialog,
        captcha_solver: cap.solver.clone(),
        max_redirects: 5,
        max_effect_rounds: 3,
    };
    let mut browser = Browser::new(config, Ipv4Sim::new(20, 40, 1, 1), "crawler")
        .with_captcha_provider(world.captcha.clone());
    let t0 = SimTime::from_mins(30);
    let Ok(view) = browser.visit(&mut world, &dep.url, t0) else {
        return false;
    };
    let mut final_view = view;
    if !final_view.summary.has_login_form()
        && cap.submits_forms
        && !final_view.summary.forms.is_empty()
    {
        let form = final_view.summary.forms[0].clone();
        if let Ok(after) = browser.submit_form(&mut world, &final_view, &form, "probe", t0) {
            final_view = after;
        }
    }
    let verdict = classify(&final_view.summary, &dep.url.host);
    final_view.summary.has_login_form() && verdict.signature_score >= 0.9
}
