//! Shared, immutable response bodies.
//!
//! The simulation serves the same page many times: a gate hands its
//! payload or cover page to every visitor, and crawlers revisit an
//! unchanged page on every recheck, deep pass and dedup revalidation.
//! A [`Body`] is built once and served by reference: cloning it bumps a
//! reference count, and its content hash (the render-cache key) is
//! computed at most once per distinct body, however often it is served.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Stable FNV-1a hash of a page body — the render-cache key.
pub fn content_hash(body: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in body.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Inner {
    text: String,
    hash: OnceLock<u64>,
}

/// An immutable body, shared by every clone, with its
/// [`content_hash`] memoized. Derefs to `str`; serializes and debugs
/// exactly as the same `String` does.
#[derive(Clone)]
pub struct Body(Arc<Inner>);

impl Body {
    /// The body's [`content_hash`], computed on first call and shared
    /// by every clone.
    pub fn content_hash(&self) -> u64 {
        *self.0.hash.get_or_init(|| content_hash(&self.0.text))
    }
}

impl Deref for Body {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0.text
    }
}

impl From<String> for Body {
    fn from(text: String) -> Self {
        Body(Arc::new(Inner {
            text,
            hash: OnceLock::new(),
        }))
    }
}

impl From<&str> for Body {
    fn from(text: &str) -> Self {
        Body::from(text.to_string())
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || **self == **other
    }
}

impl Eq for Body {}

impl PartialEq<&str> for Body {
    fn eq(&self, other: &&str) -> bool {
        &**self == *other
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Serialize for Body {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for Body {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        String::from_value(value).map(Body::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_response, encode_response};
    use crate::message::Response;
    use bytes::BytesMut;

    #[test]
    fn memoized_hash_equals_content_hash() {
        let text = "<html><title>t</title><p>caf\u{e9} \u{2014} \u{1f512}</p></html>";
        let wire = encode_response(&Response::html(text));
        let decoded = decode_response(&mut BytesMut::from(&wire[..]))
            .unwrap()
            .body;
        for body in [
            Body::from(text.to_string()),
            Body::from(text),
            decoded,
            Body::from(""),
            Body::from("\u{e9}\u{4e2d}\u{1f600}"),
        ] {
            assert_eq!(body.content_hash(), content_hash(&body));
            assert_eq!(body.content_hash(), content_hash(&body), "second read");
        }
        assert_eq!(Body::from("").content_hash(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn clones_share_one_allocation() {
        let a = Body::from("shared page");
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
        assert_eq!(
            Response::not_found().body.as_ptr(),
            Response::not_found().body.as_ptr()
        );
        assert_eq!(
            Response::redirect("/a").body.as_ptr(),
            Response::redirect("/b").body.as_ptr()
        );
    }

    #[test]
    fn serde_and_debug_match_string() {
        let text = "say \"hi\"\n\t<b>caf\u{e9}</b>".to_string();
        let body = Body::from(text.clone());
        assert_eq!(body.to_value(), text.to_value());
        assert_eq!(format!("{body:?}"), format!("{text:?}"));
        assert_eq!(Body::from_value(&text.to_value()).unwrap(), body);
        assert!(Body::from_value(&Value::Bool(true)).is_err());
    }

    #[test]
    fn compares_by_content() {
        assert_eq!(Body::from("x"), Body::from("x".to_string()));
        assert_ne!(Body::from("x"), Body::from("y"));
        assert_eq!(Body::from("x"), "x");
        assert_ne!(Body::from("x"), "y");
    }
}
