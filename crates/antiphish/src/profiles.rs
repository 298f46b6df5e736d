//! Per-engine capability profiles, calibrated from Tables 1 and 2.
//!
//! Every behavioural difference the paper measures is a field here:
//! Table 1's request volumes and unique-IP counts size the crawl
//! budget and IP pool; Table 2's detection pattern is produced by the
//! dialog policy (only GSB confirms), the form-submission flags
//! (NetCraft submits anything; OpenPhish/PhishTank fill credential
//! forms), the classifier mode (only GSB and NetCraft run heuristics),
//! and the verdict-latency models (GSB's alert-box detections averaged
//! 132 minutes; NetCraft's session detections landed at 6 and 9
//! minutes).

use crate::classifier::ClassifierMode;
use crate::intake::ReportChannel;
use phishsim_browser::DialogPolicy;
use phishsim_captcha::SolverProfile;
use phishsim_http::UserAgent;
use serde::{Deserialize, Serialize};

/// The seven evaluated engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EngineId {
    /// Google Safe Browsing.
    Gsb,
    /// NetCraft.
    NetCraft,
    /// Anti-Phishing Working Group.
    Apwg,
    /// OpenPhish.
    OpenPhish,
    /// PhishTank.
    PhishTank,
    /// Microsoft Defender SmartScreen.
    SmartScreen,
    /// Yandex Safe Browsing.
    Ysb,
}

impl EngineId {
    /// All seven engines (preliminary-test set).
    pub fn all() -> [EngineId; 7] {
        [
            EngineId::Gsb,
            EngineId::NetCraft,
            EngineId::Apwg,
            EngineId::OpenPhish,
            EngineId::PhishTank,
            EngineId::SmartScreen,
            EngineId::Ysb,
        ]
    }

    /// The six engines of the main experiment (YSB was excluded after
    /// failing the preliminary test).
    pub fn main_experiment() -> [EngineId; 6] {
        [
            EngineId::Gsb,
            EngineId::NetCraft,
            EngineId::Apwg,
            EngineId::OpenPhish,
            EngineId::PhishTank,
            EngineId::SmartScreen,
        ]
    }

    /// Lower-case identifier used in logs and traces.
    pub fn key(self) -> &'static str {
        match self {
            EngineId::Gsb => "gsb",
            EngineId::NetCraft => "netcraft",
            EngineId::Apwg => "apwg",
            EngineId::OpenPhish => "openphish",
            EngineId::PhishTank => "phishtank",
            EngineId::SmartScreen => "smartscreen",
            EngineId::Ysb => "ysb",
        }
    }

    /// The engine's own crawler `User-Agent`, sent by every request it
    /// does not disguise as a desktop browser's.
    pub fn bot_user_agent(self) -> &'static str {
        match self {
            EngineId::Gsb => UserAgent::Googlebot.as_str(),
            EngineId::Ysb => "Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)",
            EngineId::NetCraft => {
                "Mozilla/5.0 (compatible; netcraft-scanner/1.0; +https://netcraft.example/bot)"
            }
            EngineId::Apwg => "Mozilla/5.0 (compatible; apwg-scanner/1.0; +https://apwg.example/bot)",
            EngineId::OpenPhish => {
                "Mozilla/5.0 (compatible; openphish-scanner/1.0; +https://openphish.example/bot)"
            }
            EngineId::PhishTank => {
                "Mozilla/5.0 (compatible; phishtank-scanner/1.0; +https://phishtank.example/bot)"
            }
            EngineId::SmartScreen => {
                "Mozilla/5.0 (compatible; smartscreen-scanner/1.0; +https://smartscreen.example/bot)"
            }
        }
    }

    /// Display name as printed in the paper's tables.
    pub fn display(self) -> &'static str {
        match self {
            EngineId::Gsb => "GSB",
            EngineId::NetCraft => "NetCraft",
            EngineId::Apwg => "APWG",
            EngineId::OpenPhish => "OpenPhish",
            EngineId::PhishTank => "PhishTank",
            EngineId::SmartScreen => "SmartScreen",
            EngineId::Ysb => "YSB",
        }
    }
}

impl std::fmt::Display for EngineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display())
    }
}

/// A second, deeper crawl pass (GSB's browser simulation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepPass {
    /// Minutes after the report at which the deep pass runs (range).
    pub delay_mins: (u64, u64),
    /// Dialog policy of the deep pass.
    pub dialog_policy: DialogPolicy,
}

/// The full capability profile of one engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Which engine this is.
    pub id: EngineId,
    /// Crawler source-IP pool size (Table 1 "Unique IPs": 69, 63, 86,
    /// 852, 275, 81, 34).
    pub ip_pool_size: usize,
    /// Total requests generated per reported URL, including recheck and
    /// probe traffic (Table 1 volumes divided by the 3 reported URLs).
    pub requests_per_report: u64,
    /// Minutes until the first crawl visit (range; all engines arrived
    /// within 30 minutes in the preliminary test).
    pub first_visit_mins: (u64, u64),
    /// Dialog policy of the initial visit.
    pub dialog_policy: DialogPolicy,
    /// CAPTCHA-solving capability. `None` for every real engine — the
    /// paper's central finding. Mitigation studies (§5.1) plug in a
    /// [`SolverProfile::FarmService`] here.
    pub captcha_solver: Option<SolverProfile>,
    /// Optional deeper second pass.
    pub deep_pass: Option<DeepPass>,
    /// Submits credential-looking forms with probe values (§4.1:
    /// NetCraft, OpenPhish and PhishTank fill the username field).
    pub submits_login_forms: bool,
    /// Submits *any* form, including buttons like "Join Chat" (only
    /// NetCraft bypassed the session gates in the main experiment).
    pub submits_any_form: bool,
    /// Classifier paths the engine runs.
    pub classifier_mode: ClassifierMode,
    /// Detection threshold on the classifier score.
    pub threshold: f64,
    /// Reliability of classification when the payload was reached via
    /// an auto-submitted form at the same URL (NetCraft flagged only 2
    /// of the 6 session payloads it reached).
    pub form_path_detect_prob: f64,
    /// Minutes from payload classification to blacklist publication
    /// (mean, std-dev).
    pub verdict_delay_mins: (f64, f64),
    /// Probes the server for web shells, kit archives and credential
    /// logs (OpenPhish's 81,967-request burst).
    pub kit_probing: bool,
    /// How reports reach the engine.
    pub channel: ReportChannel,
    /// Fraction of crawl requests presenting a browser-like (stealth)
    /// user agent rather than an identifiable bot UA; also the fraction
    /// of pool IPs unknown to cloaking kits. Drives the web-cloaking
    /// baseline's ~23 % detection rate.
    pub stealth_fraction: f64,
}

impl EngineProfile {
    /// The calibrated profile for an engine.
    pub fn of(id: EngineId) -> EngineProfile {
        match id {
            EngineId::Gsb => EngineProfile {
                id,
                ip_pool_size: 69,
                requests_per_report: 2_799, // 8,396 / 3
                first_visit_mins: (5, 25),
                dialog_policy: DialogPolicy::Ignore,
                captcha_solver: None,
                deep_pass: Some(DeepPass {
                    delay_mins: (85, 150),
                    dialog_policy: DialogPolicy::Confirm,
                }),
                submits_login_forms: false,
                submits_any_form: false,
                classifier_mode: ClassifierMode::SignatureAndHeuristics,
                threshold: 0.5,
                form_path_detect_prob: 1.0,
                verdict_delay_mins: (14.0, 6.0),
                kit_probing: false,
                channel: ReportChannel::OnlineForm,
                stealth_fraction: 0.55,
            },
            EngineId::NetCraft => EngineProfile {
                id,
                ip_pool_size: 63,
                requests_per_report: 2_019, // 6,057 / 3
                first_visit_mins: (2, 6),
                dialog_policy: DialogPolicy::Ignore,
                captcha_solver: None,
                deep_pass: None,
                submits_login_forms: true,
                submits_any_form: true,
                classifier_mode: ClassifierMode::SignatureAndHeuristics,
                threshold: 0.5,
                form_path_detect_prob: 1.0 / 3.0,
                verdict_delay_mins: (3.0, 1.5),
                kit_probing: false,
                channel: ReportChannel::OnlineForm,
                stealth_fraction: 0.4,
            },
            EngineId::Apwg => EngineProfile {
                id,
                ip_pool_size: 86,
                requests_per_report: 794, // 2,381 / 3
                first_visit_mins: (8, 28),
                dialog_policy: DialogPolicy::Ignore,
                captcha_solver: None,
                deep_pass: None,
                submits_login_forms: false,
                submits_any_form: false,
                classifier_mode: ClassifierMode::SignatureOnly,
                threshold: 0.9,
                form_path_detect_prob: 1.0,
                verdict_delay_mins: (45.0, 20.0),
                kit_probing: false,
                channel: ReportChannel::Email,
                stealth_fraction: 0.25,
            },
            EngineId::OpenPhish => EngineProfile {
                id,
                ip_pool_size: 852,
                requests_per_report: 27_322, // 81,967 / 3
                first_visit_mins: (3, 15),
                dialog_policy: DialogPolicy::Ignore,
                captcha_solver: None,
                deep_pass: None,
                submits_login_forms: true,
                submits_any_form: false,
                classifier_mode: ClassifierMode::SignatureOnly,
                threshold: 0.9,
                form_path_detect_prob: 1.0,
                verdict_delay_mins: (30.0, 15.0),
                kit_probing: true,
                channel: ReportChannel::Email,
                stealth_fraction: 0.2,
            },
            EngineId::PhishTank => EngineProfile {
                id,
                ip_pool_size: 275,
                requests_per_report: 1_643, // 4,929 / 3
                first_visit_mins: (5, 25),
                dialog_policy: DialogPolicy::Ignore,
                captcha_solver: None,
                deep_pass: None,
                submits_login_forms: true,
                submits_any_form: false,
                classifier_mode: ClassifierMode::SignatureOnly,
                threshold: 0.9,
                form_path_detect_prob: 1.0,
                verdict_delay_mins: (60.0, 25.0),
                kit_probing: false,
                channel: ReportChannel::Email,
                stealth_fraction: 0.25,
            },
            EngineId::SmartScreen => EngineProfile {
                id,
                ip_pool_size: 81,
                requests_per_report: 530, // 1,590 / 3
                first_visit_mins: (10, 30),
                dialog_policy: DialogPolicy::Ignore,
                captcha_solver: None,
                deep_pass: None,
                submits_login_forms: false,
                submits_any_form: false,
                classifier_mode: ClassifierMode::SignatureOnly,
                threshold: 0.9,
                form_path_detect_prob: 1.0,
                verdict_delay_mins: (75.0, 30.0),
                kit_probing: false,
                channel: ReportChannel::OnlineForm,
                stealth_fraction: 0.3,
            },
            EngineId::Ysb => EngineProfile {
                id,
                ip_pool_size: 34,
                requests_per_report: 27, // 82 / 3
                first_visit_mins: (10, 30),
                dialog_policy: DialogPolicy::Ignore,
                captcha_solver: None,
                deep_pass: None,
                submits_login_forms: false,
                submits_any_form: false,
                classifier_mode: ClassifierMode::SignatureOnly,
                // YSB failed to detect even the naked payloads.
                threshold: 1.1,
                form_path_detect_prob: 1.0,
                verdict_delay_mins: (120.0, 30.0),
                kit_probing: false,
                channel: ReportChannel::OnlineForm,
                stealth_fraction: 0.1,
            },
        }
    }
}

/// A §5.1-style mitigation package: capabilities an engine could adopt
/// to defeat the evasion techniques.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapabilityUpgrade {
    /// Drive real browser automation that confirms modal dialogs
    /// ("the solution is trivial since most automation frameworks ...
    /// can interact with alert boxes").
    pub confirm_dialogs: bool,
    /// Simulate form submissions on suspicious pages ("one possible
    /// solution is to simulate form submissions").
    pub submit_any_form: bool,
    /// Route challenges through a human solving service; per-attempt
    /// success rate. `None` leaves CAPTCHA unsolved ("bypassing CAPTCHA
    /// by a server-side anti-phishing engine is not easy in general").
    pub captcha_farm: Option<f64>,
    /// Fix the unreliable classification of form-submitted content
    /// (NetCraft's 2-of-6 problem).
    pub reliable_form_classification: bool,
}

impl CapabilityUpgrade {
    /// Everything the paper's discussion proposes, including the farm.
    pub fn full() -> Self {
        CapabilityUpgrade {
            confirm_dialogs: true,
            submit_any_form: true,
            captcha_farm: Some(0.9),
            reliable_form_classification: true,
        }
    }

    /// The cheap server-side fixes only (no CAPTCHA farm).
    pub fn server_side_only() -> Self {
        CapabilityUpgrade {
            captcha_farm: None,
            ..Self::full()
        }
    }
}

impl EngineProfile {
    /// Apply a mitigation package to this profile.
    pub fn upgraded(mut self, up: &CapabilityUpgrade) -> EngineProfile {
        if up.confirm_dialogs {
            self.dialog_policy = phishsim_browser::DialogPolicy::Confirm;
        }
        if up.submit_any_form {
            self.submits_any_form = true;
            self.submits_login_forms = true;
        }
        if let Some(rate) = up.captcha_farm {
            self.captcha_solver = Some(SolverProfile::FarmService { success_rate: rate });
        }
        if up.reliable_form_classification {
            self.form_path_detect_prob = 1.0;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bot_user_agents_are_the_formatted_scanner_strings() {
        for id in EngineId::all() {
            let expected = match id {
                EngineId::Gsb => UserAgent::Googlebot.as_str().to_string(),
                EngineId::Ysb => {
                    "Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)".to_string()
                }
                id => format!(
                    "Mozilla/5.0 (compatible; {}-scanner/1.0; +https://{}.example/bot)",
                    id.key(),
                    id.key()
                ),
            };
            assert_eq!(id.bot_user_agent(), expected, "{id}");
        }
    }

    #[test]
    fn only_gsb_confirms_dialogs() {
        for id in EngineId::all() {
            let p = EngineProfile::of(id);
            let confirms = p.dialog_policy == DialogPolicy::Confirm
                || p.deep_pass
                    .as_ref()
                    .is_some_and(|d| d.dialog_policy == DialogPolicy::Confirm);
            assert_eq!(confirms, id == EngineId::Gsb, "{id}");
        }
    }

    #[test]
    fn only_netcraft_submits_arbitrary_forms() {
        for id in EngineId::all() {
            let p = EngineProfile::of(id);
            assert_eq!(p.submits_any_form, id == EngineId::NetCraft, "{id}");
        }
    }

    #[test]
    fn form_fillers_match_preliminary_observation() {
        // §4.1: NetCraft, OpenPhish, and PhishTank submit the HTML forms.
        let fillers: Vec<EngineId> = EngineId::all()
            .into_iter()
            .filter(|id| EngineProfile::of(*id).submits_login_forms)
            .collect();
        assert_eq!(
            fillers,
            vec![EngineId::NetCraft, EngineId::OpenPhish, EngineId::PhishTank]
        );
    }

    #[test]
    fn heuristics_limited_to_gsb_and_netcraft() {
        for id in EngineId::all() {
            let p = EngineProfile::of(id);
            let strong = p.classifier_mode == ClassifierMode::SignatureAndHeuristics;
            assert_eq!(
                strong,
                matches!(id, EngineId::Gsb | EngineId::NetCraft),
                "{id}"
            );
        }
    }

    #[test]
    fn nobody_solves_captchas() {
        for id in EngineId::all() {
            assert!(
                EngineProfile::of(id).captcha_solver.is_none(),
                "{id}: no production engine solves CAPTCHAs"
            );
        }
    }

    #[test]
    fn table1_volumes_and_pools() {
        let volumes: Vec<u64> = EngineId::all()
            .iter()
            .map(|id| EngineProfile::of(*id).requests_per_report * 3)
            .collect();
        assert_eq!(volumes, vec![8_397, 6_057, 2_382, 81_966, 4_929, 1_590, 81]);
        let pools: Vec<usize> = EngineId::all()
            .iter()
            .map(|id| EngineProfile::of(*id).ip_pool_size)
            .collect();
        assert_eq!(pools, vec![69, 63, 86, 852, 275, 81, 34]);
    }

    #[test]
    fn everyone_arrives_within_thirty_minutes() {
        for id in EngineId::all() {
            let p = EngineProfile::of(id);
            assert!(p.first_visit_mins.1 <= 30, "{id}");
            assert!(p.first_visit_mins.0 >= 1, "{id}");
        }
    }

    #[test]
    fn only_openphish_probes_for_kits() {
        for id in EngineId::all() {
            assert_eq!(
                EngineProfile::of(id).kit_probing,
                id == EngineId::OpenPhish,
                "{id}"
            );
        }
    }

    #[test]
    fn ysb_threshold_unreachable() {
        assert!(EngineProfile::of(EngineId::Ysb).threshold > 1.0);
    }

    #[test]
    fn main_experiment_excludes_ysb() {
        assert!(!EngineId::main_experiment().contains(&EngineId::Ysb));
        assert_eq!(EngineId::main_experiment().len(), 6);
    }
}

#[cfg(test)]
mod upgrade_tests {
    use super::*;

    #[test]
    fn full_upgrade_grants_all_capabilities() {
        let p = EngineProfile::of(EngineId::Apwg).upgraded(&CapabilityUpgrade::full());
        assert_eq!(p.dialog_policy, DialogPolicy::Confirm);
        assert!(p.submits_any_form);
        assert!(p.submits_login_forms);
        assert!(matches!(
            p.captcha_solver,
            Some(SolverProfile::FarmService { .. })
        ));
        assert_eq!(p.form_path_detect_prob, 1.0);
    }

    #[test]
    fn server_side_only_leaves_captcha_unsolved() {
        let p = EngineProfile::of(EngineId::SmartScreen)
            .upgraded(&CapabilityUpgrade::server_side_only());
        assert!(p.captcha_solver.is_none());
        assert!(p.submits_any_form);
    }
}
