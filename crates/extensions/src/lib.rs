//! # phishsim-extensions
//!
//! The six client-side anti-phishing extensions of Table 3.
//!
//! The paper's §5 finding is *architectural*: although extensions run
//! inside the browser and therefore see the same content the user sees
//! — including the phishing payload revealed after the user solves the
//! CAPTCHA — the six most popular extensions "only collect the URLs
//! visited by the user, send them to their servers, and check the URLs
//! against their own blacklists". Since the URL never changes and is
//! not blacklisted, they detect nothing (0/9 each).
//!
//! [`Extension::on_navigation`] receives the full page content and
//! *deliberately ignores it*, faithfully modelling that architecture.
//! The Burp-Suite-style [`TelemetryCapture`] records what each
//! extension exfiltrates — plain URLs with parameters for four of the
//! six, privacy-hashed URLs for Emsisoft and NetCraft.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use phishsim_antiphish::{EngineId, FeedNetwork};
use phishsim_browser::{Verdict, VerdictCache};
use phishsim_http::Url;
use phishsim_simnet::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The six evaluated extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExtensionId {
    /// Avast Online Security.
    AvastOnlineSecurity,
    /// Avira Browser Safety.
    AviraBrowserSafety,
    /// Bitdefender TrafficLight.
    TrafficLight,
    /// Emsisoft Browser Security.
    EmsisoftBrowserSecurity,
    /// NetCraft Anti-Phishing toolbar.
    NetcraftAntiPhishing,
    /// Comodo Online Security Pro.
    OnlineSecurityPro,
}

impl ExtensionId {
    /// All six, in Table 3 order.
    pub fn all() -> [ExtensionId; 6] {
        [
            ExtensionId::AvastOnlineSecurity,
            ExtensionId::AviraBrowserSafety,
            ExtensionId::TrafficLight,
            ExtensionId::EmsisoftBrowserSecurity,
            ExtensionId::NetcraftAntiPhishing,
            ExtensionId::OnlineSecurityPro,
        ]
    }
}

/// Static profile of one extension (Table 3 columns).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtensionProfile {
    /// Which extension.
    pub id: ExtensionId,
    /// Display name.
    pub display: &'static str,
    /// Vendor.
    pub company: &'static str,
    /// Chrome + Firefox installations (Table 3).
    pub installations: u64,
    /// Sends the URL in plain text (vs privacy-hashed).
    pub sends_plain_url: bool,
    /// Sends the URL's query parameters.
    pub sends_params: bool,
    /// Which server-side feed the backend consults.
    pub backend: EngineId,
}

impl ExtensionProfile {
    /// The calibrated profile (Table 3 rows).
    pub fn of(id: ExtensionId) -> ExtensionProfile {
        match id {
            ExtensionId::AvastOnlineSecurity => ExtensionProfile {
                id,
                display: "Avast Online Security",
                company: "Avast",
                installations: 10_800_000,
                sends_plain_url: true,
                sends_params: true,
                // AV vendors consume aggregated major feeds; modelled as
                // the widest-coverage list (GSB receives most propagation).
                backend: EngineId::Gsb,
            },
            ExtensionId::AviraBrowserSafety => ExtensionProfile {
                id,
                display: "Avira Browser safety",
                company: "Avira",
                installations: 7_350_000,
                sends_plain_url: true,
                sends_params: true,
                backend: EngineId::Gsb,
            },
            ExtensionId::TrafficLight => ExtensionProfile {
                id,
                display: "TrafficLight",
                company: "BitDefender",
                installations: 665_000,
                sends_plain_url: true,
                sends_params: true,
                backend: EngineId::Gsb,
            },
            ExtensionId::EmsisoftBrowserSecurity => ExtensionProfile {
                id,
                display: "Emsisoft Browser security",
                company: "Emsisoft",
                installations: 80_000,
                sends_plain_url: false,
                sends_params: false,
                backend: EngineId::PhishTank,
            },
            ExtensionId::NetcraftAntiPhishing => ExtensionProfile {
                id,
                display: "NetCraft Anti-phishing",
                company: "NetCraft",
                installations: 58_000,
                sends_plain_url: false,
                sends_params: false,
                backend: EngineId::NetCraft,
            },
            ExtensionId::OnlineSecurityPro => ExtensionProfile {
                id,
                display: "Online Security Pro",
                company: "Comodo",
                installations: 14_000,
                sends_plain_url: true,
                sends_params: true,
                backend: EngineId::OpenPhish,
            },
        }
    }
}

/// What an extension sends to its vendor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryPayload {
    /// The URL in the clear (with or without parameters).
    PlainUrl(String),
    /// A privacy hash of the URL.
    HashedUrl(u64),
}

/// One captured extension→server exchange (the Burp Suite view).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryRecord {
    /// When the exchange happened.
    pub at: SimTime,
    /// Which extension sent it.
    pub extension: ExtensionId,
    /// The vendor endpoint contacted.
    pub endpoint: String,
    /// What was sent.
    pub payload: TelemetryPayload,
    /// Whether the lookup was answered from the local verdict cache
    /// (no exchange actually leaves the machine then).
    pub from_cache: bool,
}

/// The TLS-intercepting proxy capture of all extension traffic.
#[derive(Debug, Clone, Default)]
pub struct TelemetryCapture {
    records: Vec<TelemetryRecord>,
}

impl TelemetryCapture {
    /// All records.
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.records
    }

    /// Records from one extension.
    pub fn for_extension(&self, id: ExtensionId) -> Vec<&TelemetryRecord> {
        self.records.iter().filter(|r| r.extension == id).collect()
    }

    /// Whether any plain-text record leaked `needle` (parameter-leak
    /// analysis).
    pub fn leaked(&self, needle: &str) -> bool {
        self.records.iter().any(|r| match &r.payload {
            TelemetryPayload::PlainUrl(u) => u.contains(needle),
            TelemetryPayload::HashedUrl(_) => false,
        })
    }
}

/// A running extension instance inside one browser profile.
#[derive(Debug)]
pub struct Extension {
    /// Static profile.
    pub profile: ExtensionProfile,
    cache: VerdictCache,
}

impl Extension {
    /// Install the extension (fresh profile, per the paper's separate
    /// Firefox profiles with GSB disabled).
    pub fn install(id: ExtensionId) -> Self {
        Extension {
            profile: ExtensionProfile::of(id),
            // Client caches in the 5–60 minute band (§2.4).
            cache: VerdictCache::new(SimDuration::from_mins(30)),
        }
    }

    /// Handle a page navigation.
    ///
    /// `page_html` is the content the user sees — the extension has full
    /// access to it, and ignores it (the paper's architectural finding).
    /// The verdict comes from a URL lookup against the vendor feed,
    /// short-circuited by the client-side verdict cache.
    pub fn on_navigation(
        &mut self,
        url: &Url,
        _page_html: &str,
        now: SimTime,
        feeds: &FeedNetwork,
        capture: &mut TelemetryCapture,
    ) -> Verdict {
        if let Some(v) = self.cache.lookup(url, now) {
            capture.records.push(TelemetryRecord {
                at: now,
                extension: self.profile.id,
                endpoint: format!(
                    "https://lookup.{}.example/v1/check",
                    self.profile.company.to_ascii_lowercase()
                ),
                payload: self.payload_for(url),
                from_cache: true,
            });
            return v;
        }
        let listed = feeds.list(self.profile.backend).is_listed(url, now);
        let verdict = if listed {
            Verdict::Phishing
        } else {
            Verdict::Safe
        };
        self.cache.store(url, verdict, now);
        capture.records.push(TelemetryRecord {
            at: now,
            extension: self.profile.id,
            endpoint: format!(
                "https://lookup.{}.example/v1/check",
                self.profile.company.to_ascii_lowercase()
            ),
            payload: self.payload_for(url),
            from_cache: false,
        });
        verdict
    }

    /// The URL as the extension sends it: whole, or in its canonical
    /// form when it strips parameters; as text, or hashed.
    fn payload_for(&self, url: &Url) -> TelemetryPayload {
        match (self.profile.sends_plain_url, self.profile.sends_params) {
            (true, true) => TelemetryPayload::PlainUrl(url.to_string()),
            (true, false) => TelemetryPayload::PlainUrl(url.canonical().to_string()),
            (false, true) => TelemetryPayload::HashedUrl(url.privacy_hash()),
            (false, false) => TelemetryPayload::HashedUrl(url.canonical().hash()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_simnet::DetRng;

    fn feeds() -> FeedNetwork {
        FeedNetwork::paper_topology(&DetRng::new(1))
    }

    fn url() -> Url {
        Url::parse("https://victim.com/account/verify.php?session=abc123&user=test").unwrap()
    }

    #[test]
    fn table3_profile_columns() {
        let rows: Vec<(bool, bool)> = ExtensionId::all()
            .iter()
            .map(|id| {
                let p = ExtensionProfile::of(*id);
                (p.sends_plain_url, p.sends_params)
            })
            .collect();
        // Avast, Avira, TrafficLight: plain + params; Emsisoft, NetCraft:
        // hashed, no params; Comodo: plain + params.
        assert_eq!(
            rows,
            vec![
                (true, true),
                (true, true),
                (true, true),
                (false, false),
                (false, false),
                (true, true),
            ]
        );
    }

    #[test]
    fn installation_counts_descend_like_table3() {
        let installs: Vec<u64> = ExtensionId::all()
            .iter()
            .map(|id| ExtensionProfile::of(*id).installations)
            .collect();
        assert_eq!(installs[0], 10_800_000);
        assert_eq!(installs[5], 14_000);
        for w in installs.windows(2) {
            assert!(w[0] >= w[1], "Table 3 is sorted by installations");
        }
    }

    #[test]
    fn plain_senders_leak_parameters() {
        let mut capture = TelemetryCapture::default();
        let f = feeds();
        let mut avast = Extension::install(ExtensionId::AvastOnlineSecurity);
        avast.on_navigation(&url(), "<html>page</html>", SimTime::ZERO, &f, &mut capture);
        assert!(
            capture.leaked("session=abc123"),
            "plain senders leak query params"
        );
    }

    #[test]
    fn hashed_senders_do_not_leak() {
        let mut capture = TelemetryCapture::default();
        let f = feeds();
        for id in [
            ExtensionId::EmsisoftBrowserSecurity,
            ExtensionId::NetcraftAntiPhishing,
        ] {
            let mut ext = Extension::install(id);
            ext.on_navigation(&url(), "<html>page</html>", SimTime::ZERO, &f, &mut capture);
        }
        assert!(!capture.leaked("session=abc123"));
        assert!(!capture.leaked("victim.com"));
        for r in capture.records() {
            assert!(matches!(r.payload, TelemetryPayload::HashedUrl(_)));
        }
    }

    #[test]
    fn content_is_ignored_even_when_payload_visible() {
        // The user solved the CAPTCHA; the page is now a PayPal clone.
        // The extension sees the full content and still says Safe.
        let phishing_html = phishsim_phishgen::Brand::PayPal.login_page_html();
        let f = feeds();
        let mut capture = TelemetryCapture::default();
        for id in ExtensionId::all() {
            let mut ext = Extension::install(id);
            let v = ext.on_navigation(
                &url(),
                &phishing_html,
                SimTime::from_mins(5),
                &f,
                &mut capture,
            );
            assert_eq!(
                v,
                Verdict::Safe,
                "{id:?} must be URL-only and miss the content"
            );
        }
    }

    #[test]
    fn blacklisted_url_is_flagged() {
        let mut f = feeds();
        let mut capture = TelemetryCapture::default();
        f.publish(EngineId::NetCraft, &url(), SimTime::from_mins(1));
        let mut ext = Extension::install(ExtensionId::NetcraftAntiPhishing);
        let v = ext.on_navigation(
            &url(),
            "<html></html>",
            SimTime::from_mins(10),
            &f,
            &mut capture,
        );
        assert_eq!(v, Verdict::Phishing);
    }

    #[test]
    fn verdict_cache_hides_late_blacklisting() {
        // §2.4's cache blind spot, client side: the extension checks the
        // URL (safe, cached); the URL is blacklisted minutes later; the
        // user revisits within the TTL and the extension still says Safe.
        let mut f = feeds();
        let mut capture = TelemetryCapture::default();
        let mut ext = Extension::install(ExtensionId::NetcraftAntiPhishing);
        let t0 = SimTime::from_mins(0);
        assert_eq!(
            ext.on_navigation(&url(), "", t0, &f, &mut capture),
            Verdict::Safe
        );
        f.publish(EngineId::NetCraft, &url(), SimTime::from_mins(2));
        let v = ext.on_navigation(&url(), "", SimTime::from_mins(10), &f, &mut capture);
        assert_eq!(v, Verdict::Safe, "cached verdict masks the new listing");
        assert!(capture.records()[1].from_cache);
        // After the TTL the listing is seen.
        let v = ext.on_navigation(&url(), "", SimTime::from_mins(31), &f, &mut capture);
        assert_eq!(v, Verdict::Phishing);
    }

    #[test]
    fn backends_differ_per_vendor() {
        assert_eq!(
            ExtensionProfile::of(ExtensionId::NetcraftAntiPhishing).backend,
            EngineId::NetCraft
        );
        assert_ne!(
            ExtensionProfile::of(ExtensionId::AvastOnlineSecurity).backend,
            EngineId::NetCraft
        );
    }
}

/// The counter-factual §5.1 proposes: an extension that *uses* its
/// content access.
///
/// "For client-side detection systems ... there is no need to
/// implement any extra mechanism. If the user solves the challenge and
/// visits a malicious page, it is also visible to extensions for the
/// detection process." None of the six shipped extensions does this —
/// [`ContentAwareExtension`] shows what happens if one did: it runs a
/// content classifier on every rendered page, so the payload revealed
/// after the human passes the gate is flagged on the spot, with no
/// server round-trip and no URL leak at all.
#[derive(Debug)]
pub struct ContentAwareExtension {
    /// Classifier score threshold for flagging a page.
    pub threshold: f64,
    /// Pages flagged so far (URL strings).
    pub flagged: Vec<String>,
}

impl Default for ContentAwareExtension {
    fn default() -> Self {
        ContentAwareExtension {
            threshold: 0.5,
            flagged: Vec::new(),
        }
    }
}

impl ContentAwareExtension {
    /// Handle a navigation: classify the rendered content locally.
    /// Returns the verdict; sends nothing anywhere.
    pub fn on_navigation(&mut self, url: &Url, page_html: &str, _now: SimTime) -> Verdict {
        let summary = phishsim_html::PageSummary::from_html(page_html);
        let classification = phishsim_antiphish::classify(&summary, &url.host);
        let score =
            classification.score(phishsim_antiphish::ClassifierMode::SignatureAndHeuristics);
        if score >= self.threshold {
            self.flagged.push(url.to_string());
            Verdict::Phishing
        } else {
            Verdict::Safe
        }
    }
}

#[cfg(test)]
mod content_aware_tests {
    use super::*;

    #[test]
    fn content_aware_extension_catches_revealed_payloads() {
        let mut ext = ContentAwareExtension::default();
        let url = Url::parse("https://victim.com/account/verify.php").unwrap();
        // Pre-challenge: the benign CAPTCHA cover.
        let cover = "<html><body><h1>Are you human?</h1>\
                     <div class=\"g-recaptcha\" data-sitekey=\"x\"></div></body></html>";
        assert_eq!(ext.on_navigation(&url, cover, SimTime::ZERO), Verdict::Safe);
        // Post-challenge: the payload at the same URL — flagged locally.
        let payload = phishsim_phishgen::Brand::PayPal.login_page_html();
        assert_eq!(
            ext.on_navigation(&url, &payload, SimTime::from_secs(45)),
            Verdict::Phishing
        );
        assert_eq!(ext.flagged.len(), 1);
    }

    #[test]
    fn content_aware_extension_spares_benign_sites() {
        let mut ext = ContentAwareExtension::default();
        let url = Url::parse("https://green-energy.com/articles/x.php").unwrap();
        let benign = "<html><title>Gardening</title><body><p>Plant in spring.</p></body></html>";
        assert_eq!(
            ext.on_navigation(&url, benign, SimTime::ZERO),
            Verdict::Safe
        );
        // Even a brand's real login page on its own host stays green.
        let real = phishsim_phishgen::Brand::Facebook.login_page_html();
        let fb = Url::parse("https://www.facebook.com/login").unwrap();
        assert_eq!(ext.on_navigation(&fb, &real, SimTime::ZERO), Verdict::Safe);
        assert!(ext.flagged.is_empty());
    }
}
