//! The fake-website generator.
//!
//! Reproduces the paper's §3 "Website Content and Web Servers"
//! algorithm:
//!
//! 1. extract meaningful keywords from the registered domain name;
//! 2. for each keyword, find synonyms (Datamuse → [`crate::vocab`]);
//! 3. for each related keyword, fetch the related article and images
//!    (Wikipedia → [`crate::vocab::topic_paragraphs`]);
//! 4. generate 30 `.php` pages under different directories, hyperlinked
//!    into a fully functional website.
//!
//! The output bundle installs directly onto the hosting farm. It is a
//! plan until a cover page is asked for: [`FakeSiteGenerator::generate`]
//! forks the site's RNG stream, and the pages are built from that stream
//! on the first cover-page lookup.

use crate::vocab;
use phishsim_http::Body;
use phishsim_simnet::DetRng;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// One generated page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedPage {
    /// Path on the site (e.g. `/articles/verdant-power.php`).
    pub path: String,
    /// Page title.
    pub title: String,
    /// Full HTML, served by reference.
    pub html: Body,
}

/// A generated website, ready to install (the paper's ".zip package").
///
/// The bundle holds the site's forked RNG stream and builds its pages
/// from it the first time they are read, with the same draws in the
/// same order whenever that happens, so the pages do not depend on when
/// (or whether) they are built. Crawlers request a kit's mount path and
/// probes request kit, web-shell and archive paths; none of these can
/// name a cover page, so [`SiteBundle::page`] answers them without
/// building, and a site nobody browses is never built.
#[derive(Debug, Clone)]
pub struct SiteBundle {
    host: String,
    rng: DetRng,
    pages_per_site: usize,
    pages: OnceCell<BTreeMap<String, GeneratedPage>>,
}

impl SiteBundle {
    /// Host the site was generated for.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Pages by path; always contains `/index.php`. Builds the site on
    /// first call.
    pub fn pages(&self) -> &BTreeMap<String, GeneratedPage> {
        self.pages.get_or_init(|| self.build())
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages().len()
    }

    /// The page at `path`, if present. Builds the site only when `path`
    /// has the shape of one of its pages.
    pub fn page(&self, path: &str) -> Option<&GeneratedPage> {
        if self.could_hold(path) {
            self.pages().get(path)
        } else {
            None
        }
    }

    /// Whether the pages have been built.
    #[cfg(test)]
    pub(crate) fn is_built(&self) -> bool {
        self.pages.get().is_some()
    }

    /// Whether `path` is `/index.php` or has the shape of content page
    /// `i`'s path, `/{dir}/…-{i}.php` with `dir` the directory page `i`
    /// is filed under. Every page path passes; a path that fails cannot
    /// be a page.
    fn could_hold(&self, path: &str) -> bool {
        if path == "/index.php" {
            return true;
        }
        let Some((dir, name)) = path.strip_prefix('/').and_then(|p| p.split_once('/')) else {
            return false;
        };
        let Some((_, index)) = name.strip_suffix(".php").and_then(|n| n.rsplit_once('-')) else {
            return false;
        };
        index
            .parse::<usize>()
            .is_ok_and(|i| i < self.pages_per_site && DIRECTORIES[i % DIRECTORIES.len()] == dir)
    }
}

/// The generator. `generate` only forks the site's RNG stream; the
/// returned [`SiteBundle`] builds its pages when one is first read.
#[derive(Debug)]
pub struct FakeSiteGenerator {
    rng: DetRng,
    /// Number of content pages to generate (paper: 30).
    pub pages_per_site: usize,
}

const DIRECTORIES: &[&str] = &[
    "articles",
    "guides",
    "news",
    "archive",
    "resources",
    "topics",
];

impl FakeSiteGenerator {
    /// Create a generator with the paper's defaults (30 pages/site).
    pub fn new(rng: &DetRng) -> Self {
        FakeSiteGenerator {
            rng: rng.fork("sitegen"),
            pages_per_site: 30,
        }
    }

    /// Generate a complete website for `host` (a registrable domain
    /// name, e.g. `green-energy.com`).
    pub fn generate(&mut self, host: &str) -> SiteBundle {
        SiteBundle {
            host: host.to_string(),
            rng: self.rng.fork(&format!("site:{host}")),
            pages_per_site: self.pages_per_site,
            pages: OnceCell::new(),
        }
    }
}

impl SiteBundle {
    /// Build the pages from the site's forked stream.
    fn build(&self) -> BTreeMap<String, GeneratedPage> {
        let mut rng = self.rng.clone();
        let host = self.host.as_str();

        // Step 1: keywords from the domain name.
        let sld = host.split('.').next().unwrap_or(host);
        let mut keywords: Vec<String> = sld
            .split(|c: char| c == '-' || c.is_ascii_digit())
            .filter(|w| w.len() > 1)
            .map(|w| w.to_string())
            .collect();
        if keywords.is_empty() {
            // Random-keyword domains (the paper's non-drop-catch set):
            // pick topics from the dictionary instead.
            keywords.push((*rng.pick(&vocab::known_words())).to_string());
        }

        // Step 2: expand with synonyms.
        let mut topics: Vec<String> = Vec::new();
        for kw in &keywords {
            topics.push(kw.clone());
            for syn in vocab::synonyms(kw) {
                topics.push(syn.to_string());
            }
        }
        // Ensure enough topics for distinct pages.
        while topics.len() < self.pages_per_site {
            let w = *rng.pick(&vocab::known_words());
            if !topics.iter().any(|t| t == w) {
                topics.push(w.to_string());
            }
        }

        // Steps 3–4: generate pages with prose, images, and nav links.
        let mut paths: Vec<String> = Vec::with_capacity(self.pages_per_site);
        let mut titles: Vec<String> = Vec::with_capacity(self.pages_per_site);
        for i in 0..self.pages_per_site {
            let topic = &topics[i % topics.len()];
            let other = &topics[(i * 7 + 3) % topics.len()];
            let dir = DIRECTORIES[i % DIRECTORIES.len()];
            let path = format!("/{dir}/{topic}-{other}-{i}.php");
            titles.push(format!("{} {} — {}", vocab::capitalize(topic), other, host));
            paths.push(path);
        }

        let mut pages = BTreeMap::new();
        for i in 0..self.pages_per_site {
            let topic = topics[i % topics.len()].clone();
            let title = titles[i].clone();
            let paragraphs = vocab::topic_paragraphs(&topic, rng.range(2..5usize), &mut rng);
            // 3–5 nav links to other pages, deterministic sample.
            let link_count = rng.range(3..6usize).min(paths.len().saturating_sub(1));
            let link_idx = rng.sample_indices(paths.len(), link_count + 1);
            let links: Vec<&String> = link_idx
                .into_iter()
                .filter(|&j| j != i)
                .take(link_count)
                .map(|j| &paths[j])
                .collect();
            let html = render_page(&title, &topic, &paragraphs, &links, host);
            pages.insert(
                paths[i].clone(),
                GeneratedPage {
                    path: paths[i].clone(),
                    title,
                    html: html.into(),
                },
            );
        }

        // Index page linking into the site.
        let index_links: Vec<&String> = paths.iter().take(8).collect();
        let index_title = format!("{} — home", host);
        let index_html = render_page(
            &index_title,
            &keywords[0],
            &vocab::topic_paragraphs(&keywords[0], 2, &mut rng),
            &index_links,
            host,
        );
        pages.insert(
            "/index.php".to_string(),
            GeneratedPage {
                path: "/index.php".to_string(),
                title: index_title,
                html: index_html.into(),
            },
        );
        pages
    }
}

fn render_page(
    title: &str,
    topic: &str,
    paragraphs: &[String],
    links: &[&String],
    host: &str,
) -> String {
    let mut body = String::new();
    body.push_str(&format!("<h1>{}</h1>\n", vocab::capitalize(topic)));
    body.push_str(&format!("<img src=\"/img/{topic}.jpg\" alt=\"{topic}\">\n"));
    for p in paragraphs {
        body.push_str(&format!("<p>{p}</p>\n"));
    }
    body.push_str("<nav><ul>\n");
    for l in links {
        body.push_str(&format!("<li><a href=\"{l}\">{l}</a></li>\n"));
    }
    body.push_str("</ul></nav>\n");
    format!(
        "<!DOCTYPE html>\n<html><head><title>{title}</title>\
         <link rel=\"icon\" href=\"/favicon.ico\">\
         <meta name=\"generator\" content=\"{host}\"></head>\
         <body>{body}<footer>&copy; {host}</footer></body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_html::PageSummary;

    fn generate(host: &str) -> SiteBundle {
        FakeSiteGenerator::new(&DetRng::new(11)).generate(host)
    }

    /// FNV-1a over every page's path, title and HTML, in path order.
    fn site_digest(b: &SiteBundle) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for page in b.pages().values() {
            for field in [&page.path, &page.title, &*page.html] {
                for &byte in field.as_bytes().iter().chain(&[0xff]) {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn cover_pages_match_golden_digests() {
        // Recorded from the eager generator that built every page inside
        // `generate`; the lazy build must draw the same stream.
        assert_eq!(
            site_digest(&generate("green-energy.com")),
            0x5fe5_b218_e981_64b2
        );
        // Keywordless: the dictionary-pick branch draws first.
        assert_eq!(site_digest(&generate("x9z.com")), 0x7eb2_e0e0_13a0_9ac5);
    }

    #[test]
    fn generates_requested_page_count_plus_index() {
        let b = generate("green-energy.com");
        assert_eq!(b.page_count(), 31, "30 content pages + index");
        assert!(b.page("/index.php").is_some());
    }

    #[test]
    fn pages_live_in_different_directories() {
        let b = generate("green-energy.com");
        let dirs: std::collections::HashSet<&str> = b
            .pages()
            .keys()
            .filter(|p| *p != "/index.php")
            .map(|p| p.split('/').nth(1).unwrap())
            .collect();
        assert!(
            dirs.len() >= 4,
            "pages should spread over directories: {dirs:?}"
        );
    }

    #[test]
    fn pages_are_hyperlinked() {
        let b = generate("green-energy.com");
        let mut total_links = 0;
        for page in b.pages().values() {
            let s = PageSummary::from_html(&page.html);
            let internal: Vec<&String> = s
                .links
                .iter()
                .filter(|l| b.pages().contains_key(l.as_str()))
                .collect();
            total_links += internal.len();
        }
        assert!(
            total_links >= 60,
            "site must be densely interlinked, got {total_links}"
        );
    }

    #[test]
    fn pages_reflect_domain_keywords_or_synonyms() {
        let b = generate("green-energy.com");
        let mut related = 0;
        let mut vocab_words = vec!["green".to_string(), "energy".to_string()];
        vocab_words.extend(
            crate::vocab::synonyms("green")
                .iter()
                .map(|s| s.to_string()),
        );
        vocab_words.extend(
            crate::vocab::synonyms("energy")
                .iter()
                .map(|s| s.to_string()),
        );
        for page in b.pages().values() {
            if vocab_words
                .iter()
                .any(|w| page.title.to_lowercase().contains(w))
            {
                related += 1;
            }
        }
        assert!(
            related >= 8,
            "titles should echo domain keywords, got {related}"
        );
    }

    #[test]
    fn no_login_forms_on_cover_sites() {
        let b = generate("harbor-view.net");
        for page in b.pages().values() {
            let s = PageSummary::from_html(&page.html);
            assert!(
                !s.has_login_form(),
                "cover page {} has a login form",
                page.path
            );
        }
    }

    #[test]
    fn keywordless_domain_falls_back_to_dictionary() {
        let b = generate("x9z.com");
        assert_eq!(b.page_count(), 31);
    }

    #[test]
    fn generation_is_deterministic_per_host() {
        let a = generate("green-energy.com");
        let b = generate("green-energy.com");
        assert_eq!(a.pages(), b.pages());
        let c = generate("other-site.com");
        assert_ne!(
            a.pages().keys().collect::<Vec<_>>(),
            c.pages().keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_page_path_is_a_cover_path() {
        for pages_per_site in [0, 1, 7, 30] {
            for host in ["green-energy.com", "x9z.com", "a-b-c.org"] {
                let mut generator = FakeSiteGenerator::new(&DetRng::new(5));
                generator.pages_per_site = pages_per_site;
                let b = generator.generate(host);
                assert_eq!(b.page_count(), pages_per_site + 1);
                for path in b.pages().keys() {
                    assert!(b.could_hold(path), "{host}: {path} not recognised");
                    assert_eq!(b.page(path).map(|p| &p.path), Some(path));
                }
            }
        }
    }

    #[test]
    fn non_cover_paths_answer_without_building() {
        let b = generate("green-energy.com");
        for path in [
            "/",
            "/secure/login.php",
            "/account/verify.php",
            "/img/green.jpg",
            "/favicon.ico",
            "/wso.php",
            "/kit.zip",
            "/articles/green.php",
            "/articles/green-energy-1.php",
            "/articles/green-energy-30.php",
            "/articles/green-energy-x.php",
            "/articles/green-energy-0.html",
        ] {
            assert!(b.page(path).is_none(), "{path}");
            assert!(!b.is_built(), "{path} built the site");
        }
        assert!(b.page("/articles/nope-0.php").is_none());
        assert!(b.is_built(), "a cover-shaped path builds the site");
    }
}
