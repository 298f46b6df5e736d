//! Case-insensitive header map.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A header name or value: static text (the fixed headers every
/// response carries) is stored without copying.
type Text = Cow<'static, str>;

/// An ordered, case-insensitive multimap of HTTP headers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Headers {
    entries: Vec<(Text, Text)>,
}

impl Headers {
    /// An empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header (duplicates allowed, as for `Set-Cookie`). A
    /// `&'static str` is stored by reference and a `String` is moved
    /// in; neither is copied.
    pub fn append(&mut self, name: impl Into<Text>, value: impl Into<Text>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replace all values of `name` with a single value, appended last.
    /// As for [`Headers::append`], a `&'static str` is stored by
    /// reference and a `String` is moved in.
    ///
    /// When `name`, spelled the same, is already the last header and
    /// has no other value, its value is replaced in place: the same
    /// result without touching the rest of the list, which is what a
    /// request reused across many sends relies on.
    pub fn set(&mut self, name: impl Into<Text>, value: impl Into<Text>) {
        let name = name.into();
        if let Some(((last_name, last_value), rest)) = self.entries.split_last_mut() {
            if *last_name == name && !rest.iter().any(|(n, _)| n.eq_ignore_ascii_case(&name)) {
                *last_value = value.into();
                return;
            }
        }
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
        self.append(name, value);
    }

    /// First value of `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
    }

    /// All values of `name`, in order, read in place.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
    }

    /// Remove all values of `name`; returns whether anything was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.entries.len() != before
    }

    /// Whether `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// All `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (&**n, &**v))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_get() {
        let mut h = Headers::new();
        h.append("User-Agent", "bot/1.0");
        assert_eq!(h.get("user-agent"), Some("bot/1.0"));
        assert_eq!(h.get("USER-AGENT"), Some("bot/1.0"));
        assert!(h.contains("User-agent"));
        assert!(!h.contains("Host"));
    }

    #[test]
    fn append_keeps_duplicates_set_replaces() {
        let mut h = Headers::new();
        h.append("Set-Cookie", "a=1");
        h.append("Set-Cookie", "b=2");
        assert_eq!(h.get_all("set-cookie").collect::<Vec<_>>(), ["a=1", "b=2"]);
        h.set("Set-Cookie", "c=3");
        assert_eq!(h.get_all("set-cookie").collect::<Vec<_>>(), ["c=3"]);
    }

    #[test]
    fn set_moves_the_header_last_and_keeps_its_spelling() {
        let mut h = Headers::new();
        h.append("User-Agent", "a");
        h.append("Accept", "*/*");
        h.set("user-agent", "b");
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            [("Accept", "*/*"), ("user-agent", "b")]
        );
        // Overwriting the last header in place leaves the same result
        // as removing and appending.
        h.set("user-agent", "c");
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            [("Accept", "*/*"), ("user-agent", "c")]
        );
        h.set("User-Agent", "d");
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            [("Accept", "*/*"), ("User-Agent", "d")]
        );
        h.append("user-agent", "e");
        h.set("user-agent", "f");
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            [("Accept", "*/*"), ("user-agent", "f")]
        );
    }

    #[test]
    fn remove_reports_presence() {
        let mut h = Headers::new();
        h.append("X", "1");
        assert!(h.remove("x"));
        assert!(!h.remove("x"));
        assert!(h.is_empty());
    }

    #[test]
    fn iteration_order_is_insertion() {
        let mut h = Headers::new();
        h.append("A", "1");
        h.append("B", "2");
        let pairs: Vec<(&str, &str)> = h.iter().collect();
        assert_eq!(pairs, vec![("A", "1"), ("B", "2")]);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn serde_layout_is_the_derived_one() {
        use serde::Value;
        #[derive(Serialize)]
        struct Derived {
            entries: Vec<(String, String)>,
        }
        let mut h = Headers::new();
        h.append("Content-Type", "text/html");
        h.append("Set-Cookie".to_string(), format!("id={}", 7));
        h.set("X-Seen", "1");
        let derived = Derived {
            entries: h
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
        };
        assert_eq!(h.to_value(), derived.to_value());
        assert_eq!(Headers::from_value(&h.to_value()).unwrap(), h);
        assert!(Headers::from_value(&Value::Bool(true)).is_err());
    }
}
