//! HTTP requests and responses.

use crate::body::Body;
use crate::headers::Headers;
use crate::url::Url;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::LazyLock;

/// Request methods used in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// GET.
    Get,
    /// POST (form submissions, AJAX payload retrieval).
    Post,
    /// HEAD (some crawlers probe with HEAD).
    Head,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Get => write!(f, "GET"),
            Method::Post => write!(f, "POST"),
            Method::Head => write!(f, "HEAD"),
        }
    }
}

impl Method {
    /// Parse from the wire form.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }
}

/// Response status codes used in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Status {
    /// 200.
    Ok,
    /// 302 (redirection-based evasions and logout flows).
    Found,
    /// 403.
    Forbidden,
    /// 404.
    NotFound,
    /// 500.
    ServerError,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Found => 302,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::ServerError => 500,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Found => "Found",
            Status::Forbidden => "Forbidden",
            Status::NotFound => "Not Found",
            Status::ServerError => "Internal Server Error",
        }
    }

    /// Parse from a numeric code.
    pub fn from_code(code: u16) -> Option<Status> {
        match code {
            200 => Some(Status::Ok),
            302 => Some(Status::Found),
            403 => Some(Status::Forbidden),
            404 => Some(Status::NotFound),
            500 => Some(Status::ServerError),
            _ => None,
        }
    }

    /// 2xx check.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.code())
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Full URL (the `Host` header is derived from it on the wire).
    pub url: Url,
    /// Headers.
    pub headers: Headers,
    /// Body (form-encoded for POSTs in this simulation).
    pub body: String,
}

impl Request {
    /// A GET request for `url`.
    pub fn get(url: Url) -> Self {
        Request {
            method: Method::Get,
            url,
            headers: Headers::new(),
            body: String::new(),
        }
    }

    /// A POST request with a form-encoded body built from `fields`.
    pub fn post_form(url: Url, fields: &[(&str, &str)]) -> Self {
        let body = fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("&");
        let mut headers = Headers::new();
        headers.set("Content-Type", "application/x-www-form-urlencoded");
        Request {
            method: Method::Post,
            url,
            headers,
            body,
        }
    }

    /// Set the `User-Agent` header (builder style).
    pub fn with_user_agent(mut self, ua: &str) -> Self {
        self.headers.set("User-Agent", ua);
        self
    }

    /// Set the `Cookie` header (builder style).
    pub fn with_cookie_header(mut self, cookie: &str) -> Self {
        if !cookie.is_empty() {
            self.headers.set("Cookie", cookie);
        }
        self
    }

    /// The `User-Agent`, if present.
    pub fn user_agent(&self) -> Option<&str> {
        self.headers.get("User-Agent")
    }

    /// Parse the body as a form (POST) and return its fields. Later
    /// duplicates override earlier ones, matching PHP's `$_POST`.
    pub fn form_fields(&self) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        if self.method != Method::Post {
            return map;
        }
        for kv in self.body.split('&').filter(|s| !s.is_empty()) {
            match kv.split_once('=') {
                Some((k, v)) => map.insert(k.to_string(), v.to_string()),
                None => map.insert(kv.to_string(), String::new()),
            };
        }
        map
    }

    /// One form field from the body (PHP's `$_POST['key']`).
    pub fn form_field(&self, key: &str) -> Option<String> {
        self.form_fields().get(key).cloned()
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// Status.
    pub status: Status,
    /// Headers.
    pub headers: Headers,
    /// Body (HTML in most of the simulation), shared with every other
    /// response serving the same page.
    pub body: Body,
}

/// The one body every 404 shares.
static NOT_FOUND_BODY: LazyLock<Body> = LazyLock::new(|| {
    Body::from(
        "<html><head><title>404 Not Found</title></head><body><center><h1>404 Not Found</h1></center><hr><center>nginx</center></body></html>",
    )
});

/// The one (empty) body every redirect shares.
static EMPTY_BODY: LazyLock<Body> = LazyLock::new(|| Body::from(""));

/// The headers of an HTML response; their text is static, not copied.
fn html_headers() -> Headers {
    let mut headers = Headers::new();
    headers.append("Content-Type", "text/html; charset=utf-8");
    headers
}

impl Response {
    /// A 200 response with an HTML body. Passing a [`Body`] serves it
    /// without copying.
    pub fn html(body: impl Into<Body>) -> Self {
        Response {
            status: Status::Ok,
            headers: html_headers(),
            body: body.into(),
        }
    }

    /// A 404 response.
    pub fn not_found() -> Self {
        Response {
            status: Status::NotFound,
            headers: html_headers(),
            body: NOT_FOUND_BODY.clone(),
        }
    }

    /// A 302 redirect to `location`.
    pub fn redirect(location: &str) -> Self {
        let mut headers = Headers::new();
        headers.set("Location", location);
        Response {
            status: Status::Found,
            headers,
            body: EMPTY_BODY.clone(),
        }
    }

    /// Append a `Set-Cookie` header (builder style). The cookie is
    /// stored without copying.
    pub fn with_set_cookie(mut self, cookie: impl Into<Cow<'static, str>>) -> Self {
        self.headers.append("Set-Cookie", cookie);
        self
    }

    /// All `Set-Cookie` values, in order, read in place.
    pub fn set_cookies(&self) -> impl Iterator<Item = &str> {
        self.headers.get_all("Set-Cookie")
    }

    /// The redirect target, if this is a 302.
    pub fn location(&self) -> Option<&str> {
        if self.status == Status::Found {
            self.headers.get("Location")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_builder() {
        let r = Request::get(Url::https("a.com", "/x")).with_user_agent("Mozilla/5.0");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.user_agent(), Some("Mozilla/5.0"));
        assert!(r.form_fields().is_empty());
    }

    #[test]
    fn post_form_round_trip() {
        let r = Request::post_form(
            Url::https("a.com", "/login"),
            &[("login_email", "u@x.com"), ("login_pass", "hunter2")],
        );
        assert_eq!(r.form_field("login_email").as_deref(), Some("u@x.com"));
        assert_eq!(r.form_field("login_pass").as_deref(), Some("hunter2"));
        assert_eq!(r.form_field("other"), None);
        assert_eq!(
            r.headers.get("content-type"),
            Some("application/x-www-form-urlencoded")
        );
    }

    #[test]
    fn form_fields_only_for_post() {
        let mut r = Request::get(Url::https("a.com", "/x"));
        r.body = "a=1".into();
        assert!(r.form_fields().is_empty());
    }

    #[test]
    fn duplicate_form_fields_last_wins() {
        let mut r = Request::post_form(Url::https("a.com", "/x"), &[]);
        r.body = "k=1&k=2".into();
        assert_eq!(r.form_field("k").as_deref(), Some("2"));
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert!(Status::Ok.is_success());
        assert!(!Status::NotFound.is_success());
        assert_eq!(Status::from_code(302), Some(Status::Found));
        assert_eq!(Status::from_code(999), None);
    }

    #[test]
    fn response_builders() {
        let r = Response::html("<p>hi</p>");
        assert_eq!(r.status, Status::Ok);
        let nf = Response::not_found();
        assert_eq!(nf.status.code(), 404);
        assert!(nf.body.contains("404"));
        let red = Response::redirect("/next");
        assert_eq!(red.location(), Some("/next"));
        assert_eq!(Response::html("x").location(), None);
    }

    #[test]
    fn set_cookie_accumulates() {
        let r = Response::html("x")
            .with_set_cookie("PHPSESSID=abc; Path=/")
            .with_set_cookie("theme=dark");
        assert_eq!(r.set_cookies().count(), 2);
    }

    #[test]
    fn method_parse() {
        assert_eq!(Method::parse("GET"), Some(Method::Get));
        assert_eq!(Method::parse("POST"), Some(Method::Post));
        assert_eq!(Method::parse("PUT"), None);
    }
}
