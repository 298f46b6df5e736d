//! Cookies and the client-side cookie jar.
//!
//! The session-based evasion technique (§2.3) rides on PHP sessions:
//! the cover page sets a `PHPSESSID` cookie, and the payload page is
//! only served to requests presenting a session that has passed through
//! the cover page. The browser's [`CookieJar`] therefore needs correct
//! host matching, path matching, and expiry.

use phishsim_simnet::SimTime;
use serde::{Deserialize, Serialize};

/// A single cookie as stored by a client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// Host the cookie was set by (exact host-only matching; the
    /// simulation does not model the `Domain` attribute's subdomain
    /// scoping since all sites live on registrable domains).
    pub host: String,
    /// Path scope.
    pub path: String,
    /// Absolute expiry, if any (session cookies have none).
    pub expires: Option<SimTime>,
}

/// Parse a cookie `Expires` date into simulated time, treating the
/// simulation epoch (t = 0) as 1970-01-01 00:00:00 GMT. Follows the
/// token-scanning spirit of RFC 6265 §5.1.1: the first time-of-day,
/// day-of-month, month-name and year tokens win, in any order. Dates
/// before the epoch collapse to `SimTime::ZERO` (already expired);
/// unparseable dates return `None` (attribute ignored).
fn parse_cookie_date(s: &str) -> Option<SimTime> {
    const MONTHS: [&str; 12] = [
        "jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec",
    ];
    let mut time: Option<(u64, u64, u64)> = None;
    let mut day: Option<u32> = None;
    let mut month: Option<u32> = None;
    let mut year: Option<i64> = None;
    for token in s.split(|c: char| !c.is_ascii_alphanumeric() && c != ':') {
        if token.is_empty() {
            continue;
        }
        if time.is_none() && token.contains(':') {
            let mut it = token.split(':');
            if let (Some(h), Some(m), Some(sec), None) =
                (it.next(), it.next(), it.next(), it.next())
            {
                if let (Ok(h), Ok(m), Ok(sec)) =
                    (h.parse::<u64>(), m.parse::<u64>(), sec.parse::<u64>())
                {
                    if h <= 23 && m <= 59 && sec <= 59 {
                        time = Some((h, m, sec));
                    }
                }
            }
            continue;
        }
        if month.is_none() && token.len() >= 3 {
            let lower = token[..3].to_ascii_lowercase();
            if let Some(idx) = MONTHS.iter().position(|m| *m == lower) {
                month = Some(idx as u32 + 1);
                continue;
            }
        }
        if let Ok(n) = token.parse::<i64>() {
            match token.len() {
                1 | 2 if day.is_none() => day = Some(n as u32),
                // RFC 6265: two-digit years 70–99 mean 19xx, 0–69 mean
                // 20xx — but a 1–2 digit number fills day first.
                1 | 2 if year.is_none() => {
                    year = Some(if n >= 70 { 1900 + n } else { 2000 + n });
                }
                4 if year.is_none() => year = Some(n),
                _ => {}
            }
        }
    }
    let (h, m, sec) = time?;
    let (day, month, year) = (day?, month?, year?);
    if !(1..=31).contains(&day) || year < 1601 {
        return None;
    }
    // Days since 1970-01-01 from a civil date (Howard Hinnant's
    // days_from_civil, shifted-era form).
    let y = if month <= 2 { year - 1 } else { year };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let mp = i64::from(if month > 2 { month - 3 } else { month + 9 });
    let doy = (153 * mp + 2) / 5 + i64::from(day) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    let secs = days * 86_400 + (h * 3600 + m * 60 + sec) as i64;
    if secs <= 0 {
        Some(SimTime::ZERO)
    } else {
        Some(SimTime::from_millis((secs as u64).saturating_mul(1000)))
    }
}

impl Cookie {
    /// Parse a `Set-Cookie` header value in the context of `host`.
    ///
    /// Supports the attributes the simulation uses: `Path`, `Max-Age`
    /// (seconds, relative to `now`) and `Expires` (absolute date, with
    /// t = 0 as 1970-01-01 00:00:00 GMT). Per RFC 6265 §5.2.2,
    /// `Max-Age` takes precedence over `Expires` regardless of
    /// attribute order, and a zero or negative `Max-Age` means "expire
    /// immediately" — it must not be ignored or saturate to a future
    /// time. Unknown attributes are ignored, like real clients do.
    pub fn parse_set_cookie(header: &str, host: &str, now: SimTime) -> Option<Cookie> {
        let mut parts = header.split(';').map(|s| s.trim());
        let (name, value) = parts.next()?.split_once('=')?;
        if name.is_empty() {
            return None;
        }
        let mut cookie = Cookie {
            name: name.to_string(),
            value: value.to_string(),
            host: host.to_ascii_lowercase(),
            path: "/".to_string(),
            expires: None,
        };
        let mut max_age: Option<i64> = None;
        let mut expires_attr: Option<SimTime> = None;
        for attr in parts {
            match attr.split_once('=') {
                Some((k, v)) if k.eq_ignore_ascii_case("path") && v.starts_with('/') => {
                    cookie.path = v.to_string();
                }
                Some((k, v)) if k.eq_ignore_ascii_case("max-age") => {
                    if let Ok(secs) = v.parse::<i64>() {
                        max_age = Some(secs);
                    }
                }
                Some((k, v)) if k.eq_ignore_ascii_case("expires") => {
                    if let Some(t) = parse_cookie_date(v) {
                        expires_attr = Some(t);
                    }
                }
                _ => {}
            }
        }
        cookie.expires = match (max_age, expires_attr) {
            // Max-Age wins whenever present (RFC 6265 §5.2.2 / §5.3
            // step 3), even if Expires came later in the header.
            (Some(secs), _) => Some(if secs <= 0 {
                // Expire immediately: `matches` treats `now >= exp` as
                // expired, so the cookie is never sent.
                now
            } else {
                now + phishsim_simnet::SimDuration::from_secs(secs as u64)
            }),
            (None, Some(t)) => Some(t),
            (None, None) => None,
        };
        Some(cookie)
    }

    /// Whether this cookie should be sent for `host`/`path` at `now`.
    pub fn matches(&self, host: &str, path: &str, now: SimTime) -> bool {
        if !self.host.eq_ignore_ascii_case(host) {
            return false;
        }
        if let Some(exp) = self.expires {
            if now >= exp {
                return false;
            }
        }
        path == self.path
            || (path.starts_with(&self.path)
                && (self.path.ends_with('/')
                    || path.as_bytes().get(self.path.len()) == Some(&b'/')))
    }
}

/// A client-side cookie store.
#[derive(Debug, Clone, Default)]
pub struct CookieJar {
    cookies: Vec<Cookie>,
}

impl CookieJar {
    /// An empty jar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a cookie, replacing any with the same (name, host, path).
    pub fn store(&mut self, cookie: Cookie) {
        self.cookies
            .retain(|c| !(c.name == cookie.name && c.host == cookie.host && c.path == cookie.path));
        self.cookies.push(cookie);
    }

    /// Process all `Set-Cookie` headers of a response from `host`, in
    /// order.
    pub fn ingest<'a>(
        &mut self,
        set_cookie_headers: impl IntoIterator<Item = &'a str>,
        host: &str,
        now: SimTime,
    ) {
        for h in set_cookie_headers {
            if let Some(c) = Cookie::parse_set_cookie(h, host, now) {
                self.store(c);
            }
        }
    }

    /// The `Cookie` header value for a request to `host`/`path`, or an
    /// empty string if no cookies match.
    pub fn cookie_header(&self, host: &str, path: &str, now: SimTime) -> String {
        let mut out = String::new();
        for c in self.cookies.iter().filter(|c| c.matches(host, path, now)) {
            if !out.is_empty() {
                out.push_str("; ");
            }
            out.push_str(&c.name);
            out.push('=');
            out.push_str(&c.value);
        }
        out
    }

    /// Look up a cookie value by name for a host.
    pub fn get(&self, host: &str, name: &str, now: SimTime) -> Option<&str> {
        self.cookies
            .iter()
            .find(|c| {
                c.host.eq_ignore_ascii_case(host) && c.name == name && c.matches(host, "/", now)
            })
            .map(|c| c.value.as_str())
    }

    /// Number of stored cookies (including expired ones not yet purged).
    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    /// True if the jar is empty.
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }

    /// Drop all cookies (a fresh browser profile).
    pub fn clear(&mut self) {
        self.cookies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_simnet::SimDuration;

    #[test]
    fn parse_basic_set_cookie() {
        let c = Cookie::parse_set_cookie("PHPSESSID=abc123; Path=/", "site.com", SimTime::ZERO)
            .unwrap();
        assert_eq!(c.name, "PHPSESSID");
        assert_eq!(c.value, "abc123");
        assert_eq!(c.path, "/");
        assert_eq!(c.expires, None);
    }

    #[test]
    fn parse_rejects_nameless() {
        assert!(Cookie::parse_set_cookie("=v", "h.com", SimTime::ZERO).is_none());
        assert!(Cookie::parse_set_cookie("novalue", "h.com", SimTime::ZERO).is_none());
    }

    #[test]
    fn max_age_expiry() {
        let now = SimTime::from_mins(10);
        let c = Cookie::parse_set_cookie("s=1; Max-Age=60", "h.com", now).unwrap();
        assert!(c.matches("h.com", "/", now + SimDuration::from_secs(59)));
        assert!(!c.matches("h.com", "/", now + SimDuration::from_secs(60)));
    }

    #[test]
    fn zero_and_negative_max_age_expire_immediately() {
        // RFC 6265 §5.2.2: a non-positive Max-Age means the earliest
        // representable time — the cookie must never be sent, not
        // saturate into the future or be silently ignored.
        let now = SimTime::from_mins(10);
        for header in ["s=1; Max-Age=0", "s=1; Max-Age=-1", "s=1; Max-Age=-99999"] {
            let c = Cookie::parse_set_cookie(header, "h.com", now).unwrap();
            assert!(
                !c.matches("h.com", "/", now),
                "{header} must be expired at once"
            );
            assert!(
                !c.matches("h.com", "/", now + SimDuration::from_secs(1)),
                "{header} must stay expired"
            );
        }
        // The session-gate implication: a server can delete a session
        // cookie by re-setting it with Max-Age=0.
        let mut jar = CookieJar::new();
        jar.ingest(["PHPSESSID=x; Path=/"], "phish.com", now);
        assert_eq!(jar.get("phish.com", "PHPSESSID", now), Some("x"));
        jar.ingest(["PHPSESSID=x; Path=/; Max-Age=0"], "phish.com", now);
        assert_eq!(jar.get("phish.com", "PHPSESSID", now), None);
    }

    #[test]
    fn expires_attribute_sets_absolute_expiry() {
        // Sim epoch is 1970-01-01 00:00:00 GMT.
        let c = Cookie::parse_set_cookie(
            "s=1; Expires=Thu, 01 Jan 1970 00:10:00 GMT",
            "h.com",
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(c.expires, Some(SimTime::from_mins(10)));
        assert!(c.matches("h.com", "/", SimTime::from_mins(9)));
        assert!(!c.matches("h.com", "/", SimTime::from_mins(10)));
        // A date before the epoch is already expired.
        let past = Cookie::parse_set_cookie(
            "s=1; Expires=Mon, 01 Jan 1900 00:00:00 GMT",
            "h.com",
            SimTime::from_mins(5),
        )
        .unwrap();
        assert!(!past.matches("h.com", "/", SimTime::from_mins(5)));
        // Two-digit years: 70 means 1970.
        let two_digit = Cookie::parse_set_cookie(
            "s=1; Expires=Thu, 01 Jan 70 00:00:30 GMT",
            "h.com",
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(two_digit.expires, Some(SimTime::from_millis(30_000)));
        // Garbage dates are ignored → session cookie.
        let bad =
            Cookie::parse_set_cookie("s=1; Expires=whenever", "h.com", SimTime::ZERO).unwrap();
        assert_eq!(bad.expires, None);
    }

    #[test]
    fn max_age_takes_precedence_over_expires() {
        let now = SimTime::from_mins(100);
        // Max-Age first, Expires second.
        let a = Cookie::parse_set_cookie(
            "s=1; Max-Age=60; Expires=Thu, 01 Jan 1970 00:00:01 GMT",
            "h.com",
            now,
        )
        .unwrap();
        assert_eq!(a.expires, Some(now + SimDuration::from_secs(60)));
        // Expires first, Max-Age second — order must not matter.
        let b = Cookie::parse_set_cookie(
            "s=1; Expires=Thu, 01 Jan 1970 00:00:01 GMT; Max-Age=60",
            "h.com",
            now,
        )
        .unwrap();
        assert_eq!(b.expires, Some(now + SimDuration::from_secs(60)));
        // Non-positive Max-Age overrides a far-future Expires.
        let c = Cookie::parse_set_cookie(
            "s=1; Expires=Fri, 01 Jan 2100 00:00:00 GMT; Max-Age=0",
            "h.com",
            now,
        )
        .unwrap();
        assert!(!c.matches("h.com", "/", now));
    }

    #[test]
    fn host_matching_is_exact() {
        let c = Cookie::parse_set_cookie("s=1", "site.com", SimTime::ZERO).unwrap();
        assert!(c.matches("site.com", "/", SimTime::ZERO));
        assert!(c.matches("SITE.com", "/", SimTime::ZERO));
        assert!(!c.matches("other.com", "/", SimTime::ZERO));
        assert!(!c.matches("sub.site.com", "/", SimTime::ZERO));
    }

    #[test]
    fn path_matching() {
        let c = Cookie::parse_set_cookie("s=1; Path=/app", "h.com", SimTime::ZERO).unwrap();
        assert!(c.matches("h.com", "/app", SimTime::ZERO));
        assert!(c.matches("h.com", "/app/page.php", SimTime::ZERO));
        assert!(!c.matches("h.com", "/application", SimTime::ZERO));
        assert!(!c.matches("h.com", "/", SimTime::ZERO));
    }

    #[test]
    fn jar_replaces_same_name_host_path() {
        let mut jar = CookieJar::new();
        jar.ingest(["s=old"], "h.com", SimTime::ZERO);
        jar.ingest(["s=new"], "h.com", SimTime::ZERO);
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.get("h.com", "s", SimTime::ZERO), Some("new"));
    }

    #[test]
    fn jar_header_joins_matching_cookies() {
        let mut jar = CookieJar::new();
        jar.ingest(["a=1", "b=2"], "h.com", SimTime::ZERO);
        jar.ingest(["c=3"], "other.com", SimTime::ZERO);
        let header = jar.cookie_header("h.com", "/", SimTime::ZERO);
        assert_eq!(header, "a=1; b=2");
        assert_eq!(jar.cookie_header("nowhere.com", "/", SimTime::ZERO), "");
    }

    #[test]
    fn jar_clear() {
        let mut jar = CookieJar::new();
        jar.ingest(["a=1"], "h.com", SimTime::ZERO);
        jar.clear();
        assert!(jar.is_empty());
    }

    #[test]
    fn php_session_flow() {
        // The session-gate pattern: server sets PHPSESSID on first visit,
        // client presents it on the next request.
        let mut jar = CookieJar::new();
        let now = SimTime::from_mins(1);
        jar.ingest(["PHPSESSID=deadbeef; Path=/"], "phish.com", now);
        let header = jar.cookie_header("phish.com", "/login.php", now);
        assert_eq!(header, "PHPSESSID=deadbeef");
    }
}
