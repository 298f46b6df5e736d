//! URLs.
//!
//! The simulation's URLs are `scheme://host/path?query`. Query
//! parameters matter to the reproduction: Table 3 distinguishes
//! extensions that exfiltrate full URLs *with all query parameters* from
//! those that hash or strip them.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// Errors from URL parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlError {
    /// The scheme was missing or unsupported (only http/https exist here).
    BadScheme(String),
    /// The host component was empty.
    EmptyHost,
}

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlError::BadScheme(s) => write!(f, "unsupported scheme: {s:?}"),
            UrlError::EmptyHost => write!(f, "empty host"),
        }
    }
}

impl std::error::Error for UrlError {}

/// A parsed URL.
///
/// ```
/// use phishsim_http::Url;
///
/// let u = Url::parse("https://victim.com/login.php?step=2").unwrap();
/// assert_eq!(u.host, "victim.com");
/// assert_eq!(u.param("step"), Some("2"));
/// assert_eq!(u.canonical().to_string(), "https://victim.com/login.php");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    /// `true` for https.
    pub https: bool,
    /// Host name (lower-cased).
    pub host: String,
    /// Path, always beginning with `/`.
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
}

impl Url {
    /// Parse a URL string.
    pub fn parse(s: &str) -> Result<Self, UrlError> {
        let s = s.trim();
        let (https, rest) = if let Some(r) = s.strip_prefix("https://") {
            (true, r)
        } else if let Some(r) = s.strip_prefix("http://") {
            (false, r)
        } else {
            let scheme = s.split("://").next().unwrap_or(s);
            return Err(UrlError::BadScheme(scheme.to_string()));
        };
        let (host_part, path_part) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if host_part.is_empty() {
            return Err(UrlError::EmptyHost);
        }
        let (path, query) = match path_part.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (path_part.to_string(), Vec::new()),
        };
        Ok(Url {
            https,
            host: host_part.to_ascii_lowercase(),
            path,
            query,
        })
    }

    /// Build an https URL from host and path (no query).
    pub fn https(host: &str, path: &str) -> Self {
        let path = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        Url {
            https: true,
            host: host.to_ascii_lowercase(),
            path,
            query: Vec::new(),
        }
    }

    /// Add a query parameter (builder style).
    pub fn with_param(mut self, key: &str, value: &str) -> Self {
        self.query.push((key.to_string(), value.to_string()));
        self
    }

    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Path plus serialized query string — what a server logs as the
    /// request target.
    pub fn target(&self) -> String {
        let mut out = String::new();
        self.write_target(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Write the path and the query string to `out`.
    fn write_target(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(&self.path)?;
        self.write_query(out)
    }

    /// Write the query string (`?k=v&flag`, a parameter with an empty
    /// value spelled as its bare key) to `out`.
    fn write_query(&self, out: &mut impl fmt::Write) -> fmt::Result {
        for (i, (k, v)) in self.query.iter().enumerate() {
            out.write_str(if i == 0 { "?" } else { "&" })?;
            out.write_str(k)?;
            if !v.is_empty() {
                out.write_char('=')?;
                out.write_str(v)?;
            }
        }
        Ok(())
    }

    /// Replace the path in place, reusing its buffer; a path without a
    /// leading `/` gets one, as in [`Url::https`].
    pub fn set_path(&mut self, path: &str) {
        self.path.clear();
        if !path.starts_with('/') {
            self.path.push('/');
        }
        self.path.push_str(path);
    }

    /// The URL's canonical form, borrowed: scheme, host and path.
    pub fn canonical(&self) -> Canonical<'_> {
        let scheme = if self.https { "https://" } else { "http://" };
        Canonical {
            pieces: [scheme, &self.host, &self.path],
        }
    }

    /// A stable FNV-1a hash of the full URL string, as privacy-conscious
    /// extensions send it (Table 3, "Sending URLs (hashed)").
    pub fn privacy_hash(&self) -> u64 {
        let mut hash = Fnv1a::new();
        write!(hash, "{self}").expect("hashing cannot fail");
        hash.0
    }
}

/// FNV-1a state. Text fed in pieces hashes as the whole text; fed as a
/// `fmt::Write` sink, a value hashes as the text its `Display` writes
/// without that text being built.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.eat(s);
        Ok(())
    }
}

/// FNV-1a of the concatenation of `pieces`.
fn fnv1a_pieces(pieces: [&str; 3]) -> u64 {
    let mut hash = Fnv1a::new();
    pieces.iter().for_each(|p| hash.eat(p));
    hash.0
}

/// A URL's canonical form: `scheme://host/path`, the query dropped.
/// Feeds list full URLs, but kits vary query parameters to dodge
/// exact-match lists, so blacklists, verdict caches and the
/// Safe-Browsing full hash all key on this form.
///
/// The view borrows the URL's pieces: it writes, hashes and compares
/// the text without building it.
///
/// ```
/// use phishsim_http::Url;
///
/// let u = Url::parse("https://victim.com/login.php?step=2").unwrap();
/// let c = u.canonical();
/// assert_eq!(c.to_string(), "https://victim.com/login.php");
/// assert_eq!(c.hash(), Url::parse(&c.to_string()).unwrap().privacy_hash());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Canonical<'a> {
    pieces: [&'a str; 3],
}

impl<'a> Canonical<'a> {
    /// FNV-1a of the canonical text: the [`Url::privacy_hash`] of the
    /// URL without its query, and the Safe-Browsing full hash.
    pub fn hash(&self) -> u64 {
        fnv1a_pieces(self.pieces)
    }

    /// The canonical text as an owned map key (one allocation).
    pub fn to_key(&self) -> CanonicalKey {
        CanonicalKey(self.to_string())
    }

    /// The view as a lookup key into a map keyed by [`CanonicalKey`].
    pub fn as_key(&self) -> &(dyn CanonicalText + 'a) {
        self
    }
}

impl fmt::Display for Canonical<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.pieces.iter().try_for_each(|p| f.write_str(p))
    }
}

/// Canonical text owned as a map key. A map keyed by `CanonicalKey`
/// finds an entry from a borrowed [`Canonical`]
/// (`map.get(url.canonical().as_key())`), so a lookup builds no text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalKey(String);

impl CanonicalKey {
    /// A key holding `text`, taken as canonical as it is.
    pub fn from_text(text: String) -> Self {
        CanonicalKey(text)
    }

    /// The canonical text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CanonicalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// What a map keyed by [`CanonicalKey`] hashes and compares: canonical
/// text, stored whole in a key or in pieces in a [`Canonical`]. Both
/// hash and compare as the text, however it is split.
pub trait CanonicalText {
    /// The text, as the concatenation of three pieces.
    fn pieces(&self) -> [&str; 3];
}

impl CanonicalText for CanonicalKey {
    fn pieces(&self) -> [&str; 3] {
        [&self.0, "", ""]
    }
}

impl CanonicalText for Canonical<'_> {
    fn pieces(&self) -> [&str; 3] {
        self.pieces
    }
}

impl Hash for dyn CanonicalText + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(fnv1a_pieces(self.pieces()));
    }
}

impl PartialEq for dyn CanonicalText + '_ {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.pieces(), other.pieces());
        a.iter().map(|p| p.len()).sum::<usize>() == b.iter().map(|p| p.len()).sum::<usize>()
            && a.iter()
                .flat_map(|p| p.bytes())
                .eq(b.iter().flat_map(|p| p.bytes()))
    }
}

impl Eq for dyn CanonicalText + '_ {}

impl Hash for CanonicalKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn CanonicalText).hash(state);
    }
}

impl<'a> Borrow<dyn CanonicalText + 'a> for CanonicalKey {
    fn borrow(&self) -> &(dyn CanonicalText + 'a) {
        self
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.canonical().fmt(f)?;
        self.write_query(f)
    }
}

impl std::str::FromStr for Url {
    type Err = UrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_url() {
        let u = Url::parse("https://Example.COM/login.php?id=7&next=home").unwrap();
        assert!(u.https);
        assert_eq!(u.host, "example.com");
        assert_eq!(u.path, "/login.php");
        assert_eq!(u.param("id"), Some("7"));
        assert_eq!(u.param("next"), Some("home"));
        assert_eq!(u.param("missing"), None);
    }

    #[test]
    fn parse_bare_host() {
        let u = Url::parse("http://a.com").unwrap();
        assert_eq!(u.path, "/");
        assert!(!u.https);
        assert_eq!(u.to_string(), "http://a.com/");
    }

    #[test]
    fn rejects_bad_scheme() {
        assert!(matches!(
            Url::parse("ftp://x.com"),
            Err(UrlError::BadScheme(_))
        ));
        assert!(matches!(Url::parse("nourl"), Err(UrlError::BadScheme(_))));
        assert_eq!(Url::parse("https:///path"), Err(UrlError::EmptyHost));
    }

    #[test]
    fn display_round_trip() {
        let s = "https://site.org/a/b.php?x=1&y=2";
        let u = Url::parse(s).unwrap();
        assert_eq!(u.to_string(), s);
        assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
    }

    #[test]
    fn target_and_canonical_form() {
        let u = Url::https("h.com", "p.php").with_param("a", "1");
        assert_eq!(u.target(), "/p.php?a=1");
        assert_eq!(u.canonical().to_string(), "https://h.com/p.php");
        let plain = Url::parse("http://h.com").unwrap().with_param("flag", "");
        assert_eq!(plain.canonical().to_string(), "http://h.com/");
    }

    #[test]
    fn canonical_keys_find_entries_from_borrowed_views() {
        use std::collections::HashMap;
        let listed = Url::parse("https://bad.com/kit/login.php?x=1").unwrap();
        let mut map = HashMap::new();
        map.insert(listed.canonical().to_key(), 7);
        let same = Url::parse("https://bad.com/kit/login.php?y=2").unwrap();
        assert_eq!(map.get(same.canonical().as_key()), Some(&7));
        // A near miss in scheme, host or path is a miss.
        for other in [
            "http://bad.com/kit/login.php",
            "https://bad.co/m/kit/login.php",
            "https://bad.com/kit/login.ph",
            "https://bad.com/kit/login.php/",
        ] {
            let other = Url::parse(other).unwrap();
            assert_eq!(map.get(other.canonical().as_key()), None, "{other}");
        }
    }

    #[test]
    fn set_path_matches_constructor() {
        let mut u = Url::https("h.com", "/a/long/original/path.php");
        for p in ["/x.php", "y.zip", "/"] {
            u.set_path(p);
            assert_eq!(u, Url::https("h.com", p));
        }
    }

    #[test]
    fn valueless_params() {
        let u = Url::parse("https://h.com/p?flag&x=2").unwrap();
        assert_eq!(u.param("flag"), Some(""));
        assert_eq!(u.target(), "/p?flag&x=2");
    }

    #[test]
    fn display_matches_golden_strings() {
        let cases = [
            (
                Url::https("Site.org", "/a/b.php"),
                "https://site.org/a/b.php",
            ),
            (
                Url::parse("http://h.com/login.php").unwrap(),
                "http://h.com/login.php",
            ),
            (
                Url::https("h.com", "p.php").with_param("x", "1"),
                "https://h.com/p.php?x=1",
            ),
            (
                Url::parse("http://h.com/p?x=1&y=two&z=3").unwrap(),
                "http://h.com/p?x=1&y=two&z=3",
            ),
            (
                Url::https("h.com", "/p")
                    .with_param("flag", "")
                    .with_param("x", "2"),
                "https://h.com/p?flag&x=2",
            ),
            (
                Url::parse("https://h.com/p?a=&b=1").unwrap(),
                "https://h.com/p?a&b=1",
            ),
        ];
        for (url, golden) in cases {
            assert_eq!(url.to_string(), golden);
            let target = &golden[golden.find("://").unwrap() + 3..];
            assert_eq!(url.target(), target[target.find('/').unwrap()..]);
        }
    }

    #[test]
    fn privacy_hash_stable_and_sensitive() {
        let a = Url::parse("https://h.com/p?x=1").unwrap();
        let b = Url::parse("https://h.com/p?x=1").unwrap();
        let c = Url::parse("https://h.com/p?x=2").unwrap();
        assert_eq!(a.privacy_hash(), b.privacy_hash());
        assert_ne!(a.privacy_hash(), c.privacy_hash());
    }
}
