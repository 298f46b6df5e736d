//! Page-level queries.
//!
//! These are the questions the rest of the workspace asks of a page:
//! anti-phishing classifiers look for login forms, password fields,
//! brand assets and titles; crawler bots look for forms to submit and
//! buttons to press; the fake-site generator's output is validated by
//! link extraction.

use crate::dom::{Document, Node};
use serde::{Deserialize, Serialize};

/// One form field (an `<input>` inside a form).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FormField {
    /// The `name` attribute.
    pub name: String,
    /// The `type` attribute (defaults to `text`).
    pub kind: String,
    /// The `value` attribute, if preset.
    pub value: Option<String>,
}

/// A summary of one `<form>` element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FormInfo {
    /// The `action` attribute (empty means "same URL", as PHP kits use).
    pub action: String,
    /// The `method` attribute, lower-cased (defaults to `get`).
    pub method: String,
    /// Fields in source order.
    pub fields: Vec<FormField>,
    /// Visible text of submit buttons inside the form.
    pub submit_labels: Vec<String>,
}

impl FormInfo {
    /// Whether the form contains a password input.
    pub fn has_password_field(&self) -> bool {
        self.fields.iter().any(|f| f.kind == "password")
    }

    /// Whether the form looks like a credential form (username/email
    /// plus password).
    pub fn looks_like_login(&self) -> bool {
        let has_user = self.fields.iter().any(|f| {
            f.kind == "text"
                || f.kind == "email"
                || contains_ignore_ascii_case(&f.name, "user")
                || contains_ignore_ascii_case(&f.name, "email")
        });
        has_user && self.has_password_field()
    }
}

/// Whether `haystack` contains `needle` when ASCII letters are compared
/// without case, as `haystack.to_ascii_lowercase().contains(needle)`
/// for a lower-case `needle`, without the copy.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    haystack
        .as_bytes()
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// Everything a classifier or crawler wants to know about a page.
///
/// ```
/// use phishsim_html::PageSummary;
///
/// let s = PageSummary::from_html(
///     "<title>Login</title><form method=\"post\">\
///      <input type=\"email\" name=\"user\"><input type=\"password\" name=\"pw\"></form>",
/// );
/// assert!(s.has_login_form());
/// assert_eq!(s.title, "Login");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageSummary {
    /// The `<title>` text.
    pub title: String,
    /// All forms.
    pub forms: Vec<FormInfo>,
    /// All link targets (`<a href>`).
    pub links: Vec<String>,
    /// All image sources (`<img src>`).
    pub images: Vec<String>,
    /// The favicon href (`<link rel="icon"|"shortcut icon">`), if any.
    pub favicon: Option<String>,
    /// Visible text of all buttons (inside or outside forms).
    pub buttons: Vec<String>,
    /// User-visible text content.
    pub text: String,
}

impl PageSummary {
    /// Extract a summary from a parsed document.
    pub fn extract(doc: &Document) -> PageSummary {
        let title = doc
            .find_first("title")
            .map(|t| {
                // Title is raw text: take child text verbatim.
                t.children()
                    .iter()
                    .filter_map(|c| match c {
                        Node::Text(s) => Some(s.as_str()),
                        _ => None,
                    })
                    .collect::<String>()
                    .trim()
                    .to_string()
            })
            .unwrap_or_default();

        let forms = doc.find_all("form").into_iter().map(extract_form).collect();

        let links = doc
            .find_all("a")
            .into_iter()
            .filter_map(|a| a.attr("href").map(|s| s.to_string()))
            .collect();

        let images = doc
            .find_all("img")
            .into_iter()
            .filter_map(|i| i.attr("src").map(|s| s.to_string()))
            .collect();

        let favicon = doc.find_all("link").into_iter().find_map(|l| {
            let rel = l.attr("rel")?.to_ascii_lowercase();
            if rel == "icon" || rel == "shortcut icon" {
                l.attr("href").map(|s| s.to_string())
            } else {
                None
            }
        });

        let buttons = doc
            .find_all("button")
            .into_iter()
            .map(|b| b.text_content().trim().to_string())
            .chain(doc.find_all("input").into_iter().filter_map(|i| {
                let kind = i.attr("type").unwrap_or("text");
                if kind.eq_ignore_ascii_case("submit") || kind.eq_ignore_ascii_case("button") {
                    Some(i.attr("value").unwrap_or("").to_string())
                } else {
                    None
                }
            }))
            .filter(|s| !s.is_empty())
            .collect();

        PageSummary {
            title,
            forms,
            links,
            images,
            favicon,
            buttons,
            text: doc.text_content(),
        }
    }

    /// Extract directly from HTML source.
    pub fn from_html(html: &str) -> PageSummary {
        PageSummary::extract(&Document::parse(html))
    }

    /// Whether any form on the page looks like a login form.
    pub fn has_login_form(&self) -> bool {
        self.forms.iter().any(|f| f.looks_like_login())
    }

    /// Case-insensitive text search over visible text and title.
    pub fn text_contains(&self, needle: &str) -> bool {
        let needle = needle.to_ascii_lowercase();
        self.text.to_ascii_lowercase().contains(&needle)
            || self.title.to_ascii_lowercase().contains(&needle)
    }
}

fn extract_form(form: &Node) -> FormInfo {
    let mut fields = Vec::new();
    let mut submit_labels = Vec::new();
    fn rec(node: &Node, fields: &mut Vec<FormField>, labels: &mut Vec<String>) {
        if node.tag() == Some("input") {
            let kind = node.attr("type").unwrap_or("text").to_ascii_lowercase();
            if kind == "submit" || kind == "button" {
                if let Some(v) = node.attr("value") {
                    if !v.is_empty() {
                        labels.push(v.to_string());
                    }
                }
            }
            fields.push(FormField {
                name: node.attr("name").unwrap_or("").to_string(),
                kind,
                value: node.attr("value").map(|s| s.to_string()),
            });
        } else if node.tag() == Some("button") {
            let label = node.text_content().trim().to_string();
            if !label.is_empty() {
                labels.push(label);
            }
        }
        for c in node.children() {
            rec(c, fields, labels);
        }
    }
    for c in form.children() {
        rec(c, &mut fields, &mut submit_labels);
    }
    FormInfo {
        action: form.attr("action").unwrap_or("").to_string(),
        method: form.attr("method").unwrap_or("get").to_ascii_lowercase(),
        fields,
        submit_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOGIN_PAGE: &str = r#"
      <html><head>
        <title>PayPal: Login</title>
        <link rel="icon" href="/favicon.ico">
      </head><body>
        <img src="/img/paypal-logo.png">
        <form action="/login.php" method="POST">
          <input type="email" name="login_email">
          <input type="password" name="login_pass">
          <input type="hidden" name="csrf" value="tok123">
          <button type="submit">Log In</button>
        </form>
        <a href="/help.php">Help</a>
        <a href="https://other.com/x">External</a>
      </body></html>"#;

    #[test]
    fn extracts_title_favicon_links_images() {
        let s = PageSummary::from_html(LOGIN_PAGE);
        assert_eq!(s.title, "PayPal: Login");
        assert_eq!(s.favicon.as_deref(), Some("/favicon.ico"));
        assert_eq!(s.links, vec!["/help.php", "https://other.com/x"]);
        assert_eq!(s.images, vec!["/img/paypal-logo.png"]);
    }

    #[test]
    fn extracts_form_structure() {
        let s = PageSummary::from_html(LOGIN_PAGE);
        assert_eq!(s.forms.len(), 1);
        let f = &s.forms[0];
        assert_eq!(f.action, "/login.php");
        assert_eq!(f.method, "post");
        assert_eq!(f.fields.len(), 3);
        assert_eq!(f.fields[0].kind, "email");
        assert_eq!(f.fields[2].value.as_deref(), Some("tok123"));
        assert_eq!(f.submit_labels, vec!["Log In"]);
        assert!(f.has_password_field());
        assert!(f.looks_like_login());
        assert!(s.has_login_form());
    }

    #[test]
    fn benign_page_has_no_login_form() {
        let s = PageSummary::from_html(
            "<html><title>Gardening tips</title><body><p>Plant in spring.</p>\
             <form action='/search'><input type='text' name='q'></form></body></html>",
        );
        assert!(!s.has_login_form());
        assert!(!s.forms.is_empty());
        assert!(!s.forms[0].has_password_field());
    }

    #[test]
    fn buttons_outside_forms_found() {
        let s = PageSummary::from_html(
            "<body><button id='join'>Join Chat</button>\
             <form><input type='submit' value='Proceed'></form></body>",
        );
        assert!(s.buttons.contains(&"Join Chat".to_string()));
        assert!(s.buttons.contains(&"Proceed".to_string()));
    }

    #[test]
    fn text_contains_is_case_insensitive() {
        let s = PageSummary::from_html("<title>PayPal</title><body>Sign in</body>");
        assert!(s.text_contains("paypal"));
        assert!(s.text_contains("SIGN IN"));
        assert!(!s.text_contains("facebook"));
    }

    #[test]
    fn shortcut_icon_rel_accepted() {
        let s = PageSummary::from_html(r#"<head><link rel="shortcut icon" href="/f.ico"></head>"#);
        assert_eq!(s.favicon.as_deref(), Some("/f.ico"));
    }

    #[test]
    fn login_heuristic_requires_both_fields() {
        let only_pass = PageSummary::from_html("<form><input type='password' name='p'></form>");
        // A lone password field with no user field: not a login form by
        // the heuristic... but note the password input's own name may
        // contain "user". Here it does not.
        assert!(!only_pass.forms[0].looks_like_login() || only_pass.forms[0].fields.len() > 1);
        let only_user = PageSummary::from_html("<form><input type='text' name='username'></form>");
        assert!(!only_user.forms[0].looks_like_login());
    }

    #[test]
    fn user_field_names_match_without_ascii_case() {
        // A `tel` input is not a user field by its type, so only the
        // name decides.
        let login = |name: &str| {
            let html = format!(
                "<form><input type='tel' name='{name}'><input type='password' name='p'></form>"
            );
            PageSummary::from_html(&html).forms[0].looks_like_login()
        };
        for name in [
            "UserName", "EMAIL", "e-Mail", "uSeR", "login", "", "ÄnUSER", "Ｕser", "ÜSER",
        ] {
            let lower = name.to_ascii_lowercase();
            let want = lower.contains("user") || lower.contains("email");
            assert_eq!(login(name), want, "{name:?}");
        }
        assert!(login("UserName") && login("EMAIL") && login("ÄnUSER"));
        assert!(!login("Ｕser") && !login("e-Mail"));
    }
}
