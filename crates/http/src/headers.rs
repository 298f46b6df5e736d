//! Case-insensitive header map.

use serde::{DeError, Deserialize, Map, Serialize, Value};
use std::borrow::Cow;

/// A header name or value: static text (the fixed headers every
/// response carries) is stored without copying.
type Text = Cow<'static, str>;

/// An ordered, case-insensitive multimap of HTTP headers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    ///
    /// When `name`, spelled the same, is already the last header and
    /// has no other value, its value is overwritten in place, reusing
    /// the buffer: the same result without allocating, which is what a
    /// request reused across many sends relies on.
    pub fn set(&mut self, name: impl Into<Text>, value: &str) {
        let name = name.into();
        if let Some(((last_name, last_value), rest)) = self.entries.split_last_mut() {
            if *last_name == name && !rest.iter().any(|(n, _)| n.eq_ignore_ascii_case(&name)) {
                match last_value {
                    Cow::Owned(buf) => {
                        buf.clear();
                        buf.push_str(value);
                    }
                    Cow::Borrowed(_) => *last_value = Cow::Owned(value.to_string()),
                }
                return;
            }
        }
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
        self.append(name, value.to_string());
    }

    /// First value of `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
    }

    /// All values of `name`.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
            .collect()
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

/// The derived layout of a `Vec<(String, String)>` field:
/// `{"entries": [[name, value], ...]}`.
impl Serialize for Headers {
    fn to_value(&self) -> Value {
        let entries: Vec<(&str, &str)> = self.iter().collect();
        Value::Object(Map::from([("entries".to_string(), entries.to_value())]))
    }
}

impl Deserialize for Headers {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value
            .get("entries")
            .ok_or_else(|| DeError::custom("Headers: missing field `entries`"))?;
        let entries: Vec<(String, String)> = Vec::from_value(entries)?;
        Ok(Headers {
            entries: entries
                .into_iter()
                .map(|(n, v)| (n.into(), v.into()))
                .collect(),
        })
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
        assert_eq!(h.get_all("set-cookie"), vec!["a=1", "b=2"]);
        h.set("Set-Cookie", "c=3");
        assert_eq!(h.get_all("set-cookie"), vec!["c=3"]);
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
