//! Ablation: crawler capabilities (DESIGN.md §4.2).
//!
//! The reproduction's central modelling claim is that Table 2 is
//! explained by three per-engine capabilities — confirm-dialogs,
//! submit-forms, solve-CAPTCHA — plus the classifier mode. This
//! ablation toggles each capability on a single engine profile and
//! re-measures the three techniques, showing each capability unlocks
//! exactly one technique.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin ablation_capabilities
//! ```

use phishsim_antiphish::{classify, ClassifierMode};
use phishsim_browser::{Browser, BrowserConfig, DialogPolicy};
use phishsim_captcha::SolverProfile;
use phishsim_core::deploy::deploy_armed_site;
use phishsim_core::World;
use phishsim_dns::DomainName;
use phishsim_phishgen::{Brand, EvasionTechnique};
use phishsim_simnet::runner::run_sweep;
use phishsim_simnet::{Ipv4Sim, SimDuration, SimTime};

#[derive(Clone, Copy)]
struct Caps {
    dialogs: bool,
    forms: bool,
    captcha: bool,
}

fn main() {
    let variants: [(&str, Caps); 5] = [
        (
            "baseline (no capabilities)",
            Caps {
                dialogs: false,
                forms: false,
                captcha: false,
            },
        ),
        (
            "+dialogs only",
            Caps {
                dialogs: true,
                forms: false,
                captcha: false,
            },
        ),
        (
            "+forms only",
            Caps {
                dialogs: false,
                forms: true,
                captcha: false,
            },
        ),
        (
            "+captcha-farm only",
            Caps {
                dialogs: false,
                forms: false,
                captcha: true,
            },
        ),
        (
            "all three",
            Caps {
                dialogs: true,
                forms: true,
                captcha: true,
            },
        ),
    ];
    let techniques = [
        EvasionTechnique::AlertBox,
        EvasionTechnique::SessionGate,
        EvasionTechnique::CaptchaGate,
    ];

    println!(
        "{:<30} {:>9} {:>9} {:>9}",
        "capability set", "AlertBox", "Session", "reCAPTCHA"
    );
    // Every (capability set, technique) cell is an independent one-site
    // simulation; fan the whole grid out through the sweep runner.
    let grid: Vec<(Caps, EvasionTechnique)> = variants
        .iter()
        .flat_map(|(_, caps)| techniques.iter().map(move |t| (*caps, *t)))
        .collect();
    let cells = run_sweep(&grid, |&(caps, technique)| detects(caps, technique));
    let mut rows = Vec::new();
    for (v, (name, _)) in variants.iter().enumerate() {
        let detections = &cells[v * techniques.len()..(v + 1) * techniques.len()];
        println!(
            "{:<30} {:>9} {:>9} {:>9}",
            name,
            yn(detections[0]),
            yn(detections[1]),
            yn(detections[2])
        );
        rows.push(serde_json::json!({
            "variant": name,
            "alert_box": detections[0],
            "session": detections[1],
            "recaptcha": detections[2],
        }));
    }
    println!(
        "\nEach capability unlocks exactly one evasion technique — the paper's Table 2\n\
         pattern is the capability matrix of the real engines."
    );
    phishsim_bench::write_record(
        "ablation_capabilities",
        &serde_json::json!({ "experiment": "ablation_capabilities", "rows": rows }),
    );
}

fn yn(b: bool) -> &'static str {
    if b {
        "DETECT"
    } else {
        "miss"
    }
}

/// Would a crawler with `caps` detect a PayPal kit behind `technique`?
fn detects(caps: Caps, technique: EvasionTechnique) -> bool {
    let mut world = World::new(0xcafe);
    let domain = DomainName::parse("prairie-signal.com").unwrap();
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
        user_agent: phishsim_http::UserAgent::Chrome.as_str().into(),
        dialog_policy: if caps.dialogs {
            DialogPolicy::Confirm
        } else {
            DialogPolicy::Ignore
        },
        captcha_solver: caps
            .captcha
            .then_some(SolverProfile::FarmService { success_rate: 0.95 }),
        max_redirects: 5,
        max_effect_rounds: 3,
    };
    let mut browser = Browser::new(config, Ipv4Sim::new(21, 47, 0, 3), "ablation")
        .with_captcha_provider(world.captcha.clone());
    let t0 = SimTime::from_mins(10);
    let Ok(view) = browser.visit(&mut world, &dep.url, t0) else {
        return false;
    };
    let mut final_view = view;
    if caps.forms && !final_view.summary.has_login_form() && !final_view.summary.forms.is_empty() {
        let form = final_view.summary.forms[0].clone();
        if let Ok(after) = browser.submit_form(&mut world, &final_view, &form, "probe", t0) {
            final_view = after;
        }
    }
    classify(&final_view.summary, &dep.url.host).score(ClassifierMode::SignatureAndHeuristics)
        >= 0.5
}
