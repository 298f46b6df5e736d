//! Kit assembly: a compromised site = cover website + mounted kit.
//!
//! The paper emulates *compromised* domains: intrinsically legitimate
//! sites hacked to host malicious content *in addition to* their
//! legitimate content. [`CompromisedSite`] is exactly that composition:
//! the generated cover website answers most paths, and the phishing
//! kit answers its mount path (e.g. `/secure/login.php`). One phishing
//! URL per domain, as in the main experiment.

use crate::brands::Brand;
use crate::evasion::{EvasionTechnique, GateConfig, PhishingSite, SiteProbe};
use crate::sitegen::SiteBundle;
use phishsim_http::{Handler, Request, RequestCtx, Response, Url};
use phishsim_simnet::DetRng;

/// A phishing kit: brand + technique + mount path.
#[derive(Debug, Clone)]
pub struct PhishKit {
    /// Targeted brand.
    pub brand: Brand,
    /// Evasion gate configuration.
    pub config: GateConfig,
    /// Path the kit is mounted at.
    pub mount_path: String,
}

impl PhishKit {
    /// A kit at the conventional path for its technique.
    pub fn new(brand: Brand, config: GateConfig) -> Self {
        let mount_path = match config.technique {
            EvasionTechnique::CaptchaGate => "/account/verify.php".to_string(),
            EvasionTechnique::SessionGate => "/invite/chat.php".to_string(),
            _ => "/secure/login.php".to_string(),
        };
        PhishKit {
            brand,
            config,
            mount_path,
        }
    }

    /// A kit at an explicit mount path (the preliminary test mounts
    /// three kits — one per brand — on the same domain).
    pub fn at_path(brand: Brand, config: GateConfig, mount_path: &str) -> Self {
        PhishKit {
            brand,
            config,
            mount_path: mount_path.to_string(),
        }
    }

    /// The phishing URL for a deployment on `host` (the experiment
    /// generates exactly one per domain).
    pub fn phishing_url(&self, host: &str) -> Url {
        Url::https(host, &self.mount_path)
    }
}

/// A deployed compromised site: cover bundle + one or more mounted
/// kits (the preliminary test mounts three brands on one domain; the
/// main experiment mounts exactly one).
pub struct CompromisedSite {
    bundle: SiteBundle,
    kits: Vec<(String, PhishingSite)>,
    /// Path of a forgotten kit archive, if the "phisher" was sloppy.
    leftover_archive: Option<String>,
}

impl CompromisedSite {
    /// Compose a cover bundle with a single kit.
    pub fn new(bundle: SiteBundle, kit: PhishKit, rng: &DetRng) -> Self {
        Self::new_multi(bundle, vec![kit], rng)
    }

    /// Compose a cover bundle with several kits at distinct paths.
    pub fn new_multi(bundle: SiteBundle, kits: Vec<PhishKit>, rng: &DetRng) -> Self {
        let host = bundle.host().to_string();
        let mut mounted = Vec::with_capacity(kits.len());
        for kit in kits {
            assert!(
                !mounted.iter().any(|(p, _)| *p == kit.mount_path),
                "duplicate kit mount path {}",
                kit.mount_path
            );
            let site = PhishingSite::new(&host, kit.brand, kit.config, rng);
            mounted.push((kit.mount_path, site));
        }
        CompromisedSite {
            bundle,
            kits: mounted,
            leftover_archive: None,
        }
    }

    /// Leave the kit's source archive on the server (builder style).
    ///
    /// Real phishers routinely forget their `kit.zip` next to the
    /// deployed kit, and §4.1(3) shows OpenPhish systematically probes
    /// for exactly that. A leftover archive exposes the kit's full
    /// source — payload, gate logic, target brand — to any scanner
    /// that finds it, which defeats even a CAPTCHA gate.
    pub fn with_leftover_archive(mut self, path: &str) -> Self {
        assert!(path.starts_with('/'), "archive path must be absolute");
        self.leftover_archive = Some(path.to_string());
        self
    }

    /// The leftover archive path, if any.
    pub fn leftover_archive(&self) -> Option<&str> {
        self.leftover_archive.as_deref()
    }

    fn archive_response(&self) -> Response {
        // A manifest of the kit's contents — what an analyst pulling
        // the .zip learns: the brands, gates, and payload markup.
        let mut manifest = String::from(
            "PK phishing-kit-archive
manifest:
",
        );
        for (path, site) in &self.kits {
            manifest.push_str(&format!(
                "  {path} brand={} technique={}
",
                site.brand().name(),
                site.technique()
            ));
            manifest.push_str(
                "  includes: payload.html gate.php assets/
",
            );
        }
        let mut resp = Response::html(manifest);
        resp.headers.set("Content-Type", "application/zip");
        resp
    }

    /// Probe into the first kit's serve log.
    pub fn probe(&self) -> SiteProbe {
        self.kits
            .first()
            .map(|(_, site)| site.probe())
            .expect("compromised site has at least one kit")
    }

    /// Probe into the kit mounted at `path`.
    pub fn probe_at(&self, path: &str) -> Option<SiteProbe> {
        self.kits
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, site)| site.probe())
    }

    /// The first kit's mount path.
    pub fn kit_path(&self) -> &str {
        &self.kits.first().expect("at least one kit").0
    }

    /// All kit mount paths.
    pub fn kit_paths(&self) -> Vec<&str> {
        self.kits.iter().map(|(p, _)| p.as_str()).collect()
    }

    /// The cover bundle's host.
    pub fn host(&self) -> &str {
        self.bundle.host()
    }
}

impl Handler for CompromisedSite {
    fn handle(&mut self, req: &Request, ctx: &RequestCtx) -> Response {
        if self.leftover_archive.as_deref() == Some(req.url.path.as_str()) {
            return self.archive_response();
        }
        if let Some((_, site)) = self.kits.iter_mut().find(|(p, _)| *p == req.url.path) {
            return site.handle(req, ctx);
        }
        let lookup = if req.url.path == "/" {
            "/index.php"
        } else {
            req.url.path.as_str()
        };
        match self.bundle.page(lookup) {
            Some(page) => Response::html(page.html.clone()),
            None => Response::not_found(),
        }
    }
}

impl std::fmt::Debug for CompromisedSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompromisedSite")
            .field("host", &self.bundle.host())
            .field("kit_paths", &self.kit_paths())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sitegen::FakeSiteGenerator;
    use phishsim_html::PageSummary;
    use phishsim_http::Status;
    use phishsim_simnet::{Ipv4Sim, SimTime};

    fn deploy(technique: EvasionTechnique) -> CompromisedSite {
        let rng = DetRng::new(3);
        let bundle = FakeSiteGenerator::new(&rng).generate("green-energy.com");
        let kit = PhishKit::new(Brand::PayPal, GateConfig::simple(technique));
        CompromisedSite::new(bundle, kit, &rng)
    }

    fn ctx() -> RequestCtx<'static> {
        RequestCtx {
            src: Ipv4Sim::new(2, 2, 2, 2),
            actor: "human",
            now: SimTime::from_mins(5),
        }
    }

    #[test]
    fn cover_pages_still_served() {
        let mut site = deploy(EvasionTechnique::None);
        let resp = site.handle(&Request::get(Url::https("green-energy.com", "/")), &ctx());
        assert_eq!(resp.status, Status::Ok);
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
        assert_eq!(
            resp.body,
            site.bundle.page("/index.php").unwrap().html,
            "/ serves index.php"
        );
        let content = site
            .bundle
            .pages()
            .values()
            .find(|p| p.path != "/index.php")
            .unwrap()
            .clone();
        let resp = site.handle(
            &Request::get(Url::https("green-energy.com", &content.path)),
            &ctx(),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, content.html);
        let missing = site.handle(
            &Request::get(Url::https("green-energy.com", "/nope.php")),
            &ctx(),
        );
        assert_eq!(missing.status, Status::NotFound);
    }

    #[test]
    fn cover_site_is_built_on_first_cover_request_only() {
        let mut site = deploy(EvasionTechnique::None).with_leftover_archive("/kit.zip");
        let kit_path = site.kit_path().to_string();
        for (path, status) in [
            (kit_path.as_str(), Status::Ok),
            ("/img/green.jpg", Status::NotFound),
            ("/wso.php", Status::NotFound),
            ("/kit.zip", Status::Ok),
        ] {
            let resp = site.handle(&Request::get(Url::https("green-energy.com", path)), &ctx());
            assert_eq!(resp.status, status, "{path}");
            assert!(!site.bundle.is_built(), "{path} built the cover site");
        }
        let first = site.handle(&Request::get(Url::https("green-energy.com", "/")), &ctx());
        assert!(site.bundle.is_built());
        let built: *const _ = site.bundle.pages();
        let again = site.handle(&Request::get(Url::https("green-energy.com", "/")), &ctx());
        assert_eq!(first.body, again.body);
        assert!(
            std::ptr::eq(built, site.bundle.pages()),
            "the pages are built once and kept"
        );
    }

    #[test]
    fn kit_served_at_mount_path() {
        let mut site = deploy(EvasionTechnique::None);
        let url = Url::https("green-energy.com", site.kit_path());
        let resp = site.handle(&Request::get(url), &ctx());
        assert!(PageSummary::from_html(&resp.body).has_login_form());
        assert!(site.probe().payload_reached_by("human"));
    }

    #[test]
    fn unknown_paths_404() {
        let mut site = deploy(EvasionTechnique::None);
        let resp = site.handle(
            &Request::get(Url::https("green-energy.com", "/wp-admin.php")),
            &ctx(),
        );
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn alert_gate_applies_at_mount_path() {
        let mut site = deploy(EvasionTechnique::AlertBox);
        let url = Url::https("green-energy.com", site.kit_path());
        let resp = site.handle(&Request::get(url), &ctx());
        assert!(!PageSummary::from_html(&resp.body).has_login_form());
    }

    #[test]
    fn phishing_url_points_to_mount() {
        let kit = PhishKit::new(
            Brand::Facebook,
            GateConfig::simple(EvasionTechnique::SessionGate),
        );
        let url = kit.phishing_url("a.com");
        assert_eq!(url.host, "a.com");
        assert_eq!(url.path, "/invite/chat.php");
        assert!(url.https);
    }

    #[test]
    fn mount_paths_vary_by_technique() {
        let a = PhishKit::new(
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
        );
        let s = PhishKit::new(
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::SessionGate),
        );
        assert_ne!(a.mount_path, s.mount_path);
    }
}

#[cfg(test)]
mod multi_kit_tests {
    use super::*;
    use crate::sitegen::FakeSiteGenerator;
    use phishsim_html::PageSummary;
    use phishsim_simnet::{Ipv4Sim, SimTime};

    #[test]
    fn three_brands_on_one_domain() {
        let rng = DetRng::new(8);
        let bundle = FakeSiteGenerator::new(&rng).generate("prelim-host.com");
        let kits = vec![
            PhishKit::at_path(
                Brand::Gmail,
                GateConfig::simple(EvasionTechnique::None),
                "/secure/gmail.php",
            ),
            PhishKit::at_path(
                Brand::Facebook,
                GateConfig::simple(EvasionTechnique::None),
                "/secure/facebook.php",
            ),
            PhishKit::at_path(
                Brand::PayPal,
                GateConfig::simple(EvasionTechnique::None),
                "/secure/paypal.php",
            ),
        ];
        let mut site = CompromisedSite::new_multi(bundle, kits, &rng);
        assert_eq!(site.kit_paths().len(), 3);
        let ctx = RequestCtx {
            src: Ipv4Sim::new(1, 1, 1, 1),
            actor: "t",
            now: SimTime::ZERO,
        };
        for (path, brand) in [
            ("/secure/gmail.php", "gmail"),
            ("/secure/facebook.php", "facebook"),
            ("/secure/paypal.php", "paypal"),
        ] {
            let resp = site.handle(&Request::get(Url::https("prelim-host.com", path)), &ctx);
            let s = PageSummary::from_html(&resp.body);
            assert!(s.has_login_form(), "{path}");
            assert!(s.text_contains(brand), "{path} should be a {brand} page");
        }
        // Per-kit probes are independent.
        assert!(site
            .probe_at("/secure/gmail.php")
            .unwrap()
            .payload_reached_by("t"));
        assert!(site.probe_at("/nonexistent").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate kit mount path")]
    fn duplicate_mounts_rejected() {
        let rng = DetRng::new(8);
        let bundle = FakeSiteGenerator::new(&rng).generate("x-y.com");
        let kits = vec![
            PhishKit::at_path(
                Brand::Gmail,
                GateConfig::simple(EvasionTechnique::None),
                "/a.php",
            ),
            PhishKit::at_path(
                Brand::PayPal,
                GateConfig::simple(EvasionTechnique::None),
                "/a.php",
            ),
        ];
        CompromisedSite::new_multi(bundle, kits, &rng);
    }
}

#[cfg(test)]
mod leftover_archive_tests {
    use super::*;
    use crate::sitegen::FakeSiteGenerator;
    use phishsim_simnet::{Ipv4Sim, SimTime};

    #[test]
    fn leftover_archive_served_as_zip() {
        let rng = DetRng::new(12);
        let bundle = FakeSiteGenerator::new(&rng).generate("sloppy-host.com");
        let kit = PhishKit::new(
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
        );
        let mut site = CompromisedSite::new(bundle, kit, &rng).with_leftover_archive("/kit.zip");
        assert_eq!(site.leftover_archive(), Some("/kit.zip"));
        let ctx = RequestCtx {
            src: Ipv4Sim::new(1, 1, 1, 1),
            actor: "openphish",
            now: SimTime::ZERO,
        };
        let resp = site.handle(
            &Request::get(Url::https("sloppy-host.com", "/kit.zip")),
            &ctx,
        );
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.headers.get("content-type"), Some("application/zip"));
        assert!(resp.body.contains("PayPal"));
        assert!(resp.body.contains("alert-box"));
    }

    #[test]
    fn tidy_site_404s_archive_probes() {
        let rng = DetRng::new(12);
        let bundle = FakeSiteGenerator::new(&rng).generate("tidy-host.com");
        let kit = PhishKit::new(
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
        );
        let mut site = CompromisedSite::new(bundle, kit, &rng);
        let ctx = RequestCtx {
            src: Ipv4Sim::new(1, 1, 1, 1),
            actor: "openphish",
            now: SimTime::ZERO,
        };
        let resp = site.handle(&Request::get(Url::https("tidy-host.com", "/kit.zip")), &ctx);
        assert_eq!(resp.status.code(), 404);
    }
}
