//! Domain names.
//!
//! The paper distinguishes *legacy* gTLDs (`.com`, `.net`, `.org`) from
//! *new* gTLDs (it registers 21 domains in new gTLDs), and its fake-site
//! generator extracts keywords from the registered name. [`DomainName`]
//! carries both concerns: validation/normalisation and keyword
//! extraction.

use serde::{DeError, Deserialize, Map, Serialize, Value};
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Classification of a top-level domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TldKind {
    /// `.com`, `.net`, `.org` — the paper's "legacy gTLDs".
    LegacyGtld,
    /// Post-2013 gTLDs such as `.xyz`, `.online`, `.site`.
    NewGtld,
    /// Country-code TLDs (present in the simulated Alexa population).
    CcTld,
}

const LEGACY: &[&str] = &["com", "net", "org"];
const NEW_GTLDS: &[&str] = &[
    "xyz", "online", "site", "top", "club", "shop", "app", "dev", "icu", "vip", "live", "work",
];
const CCTLDS: &[&str] = &["fr", "nl", "de", "uk", "ru", "io", "co", "us", "pl", "it"];

/// Errors from domain-name validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// The name had no dot / no TLD.
    MissingTld,
    /// A label was empty, too long, or contained invalid characters.
    BadLabel(String),
    /// The overall name exceeded 253 characters.
    TooLong,
    /// The TLD is not one the simulation knows.
    UnknownTld(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::MissingTld => write!(f, "domain name has no TLD"),
            NameError::BadLabel(l) => write!(f, "invalid label: {l:?}"),
            NameError::TooLong => write!(f, "domain name exceeds 253 characters"),
            NameError::UnknownTld(t) => write!(f, "unknown TLD: {t:?}"),
        }
    }
}

impl std::error::Error for NameError {}

/// A validated, lower-cased domain name (registrable domain, i.e. one
/// label plus a known TLD, e.g. `green-energy.com`).
///
/// A clone copies nothing: the label is shared and the TLD is one of
/// the simulation's known TLDs. Zones, registrations and resolver
/// cache entries each keep a clone of the name they are about.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName {
    sld: Arc<str>,
    tld: &'static str,
}

fn valid_label(label: &str) -> bool {
    !label.is_empty()
        && label.len() <= 63
        && !label.starts_with('-')
        && !label.ends_with('-')
        && label
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

impl DomainName {
    /// Parse and validate a registrable domain (`sld.tld`).
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let trimmed = s.trim().trim_end_matches('.');
        // Hosts usually arrive lower-cased already (every `Url` is), so
        // copy only when there is something to fold.
        let lower = if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(trimmed.to_ascii_lowercase())
        } else {
            Cow::Borrowed(trimmed)
        };
        if lower.len() > 253 {
            return Err(NameError::TooLong);
        }
        let (sld, tld) = lower.rsplit_once('.').ok_or(NameError::MissingTld)?;
        // We model registrable domains only: the SLD itself may contain
        // no further dots (subdomains are paths of the hosting setup).
        if sld.contains('.') {
            return Err(NameError::BadLabel(sld.to_string()));
        }
        if !valid_label(sld) {
            return Err(NameError::BadLabel(sld.to_string()));
        }
        if !valid_label(tld) || tld.chars().any(|c| c.is_ascii_digit()) {
            return Err(NameError::BadLabel(tld.to_string()));
        }
        let tld = LEGACY
            .iter()
            .chain(NEW_GTLDS)
            .chain(CCTLDS)
            .find(|&&known| known == tld)
            .ok_or_else(|| NameError::UnknownTld(tld.to_string()))?;
        Ok(DomainName {
            sld: Arc::from(sld),
            tld,
        })
    }

    /// The second-level label (left of the final dot).
    pub fn sld(&self) -> &str {
        &self.sld
    }

    /// The top-level domain (without dot).
    pub fn tld(&self) -> &'static str {
        self.tld
    }

    /// Classify the TLD.
    pub fn tld_kind(&self) -> TldKind {
        if LEGACY.contains(&self.tld) {
            TldKind::LegacyGtld
        } else if NEW_GTLDS.contains(&self.tld) {
            TldKind::NewGtld
        } else {
            TldKind::CcTld
        }
    }

    /// Extract meaningful keywords from the name, as the paper's fake
    /// website generator does (step 1 of its algorithm): split the SLD on
    /// hyphens and digits, drop one-character fragments.
    pub fn keywords(&self) -> Vec<String> {
        self.sld
            .split(|c: char| c == '-' || c.is_ascii_digit())
            .filter(|w| w.len() > 1)
            .map(|w| w.to_string())
            .collect()
    }

    /// All TLDs of the given kind known to the simulation.
    pub fn known_tlds(kind: TldKind) -> &'static [&'static str] {
        match kind {
            TldKind::LegacyGtld => LEGACY,
            TldKind::NewGtld => NEW_GTLDS,
            TldKind::CcTld => CCTLDS,
        }
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.sld, self.tld)
    }
}

/// The layout of two `String` fields, `{"sld": .., "tld": ..}`.
impl Serialize for DomainName {
    fn to_value(&self) -> Value {
        Value::Object(Map::from([
            ("sld".to_string(), self.sld().to_value()),
            ("tld".to_string(), self.tld.to_value()),
        ]))
    }
}

/// Reads the layout [`Serialize`] writes; the name must be valid.
impl Deserialize for DomainName {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(Value::as_str)
                .ok_or_else(|| DeError::custom(format!("DomainName: missing field `{name}`")))
        };
        DomainName::parse(&format!("{}.{}", field("sld")?, field("tld")?))
            .map_err(|e| DeError::custom(e.to_string()))
    }
}

impl FromStr for DomainName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and the resolver cache key on `DomainName` through
    /// `SymHasher`; these values were recorded before its methods were
    /// inlined, so equal values mean an unchanged table order.
    #[test]
    fn sym_hash_of_a_name_matches_its_recorded_pin() {
        use phishsim_simnet::BuildSymHasher;
        use std::hash::BuildHasher;
        let hash = |s: &str| BuildSymHasher::default().hash_one(DomainName::parse(s).unwrap());
        assert_eq!(hash("green-energy.com"), 0x1b17_5c32_f191_1bdb);
        assert_eq!(hash("paypal-secure-login.xyz"), 0xb888_6293_4086_3aad);
    }

    #[test]
    fn parse_valid_names() {
        let d = DomainName::parse("Green-Energy.COM").unwrap();
        assert_eq!(d.to_string(), "green-energy.com");
        assert_eq!(d.sld(), "green-energy");
        assert_eq!(d.tld(), "com");
        assert_eq!(d.tld_kind(), TldKind::LegacyGtld);
    }

    #[test]
    fn serde_layout_is_the_derived_one() {
        #[derive(Serialize)]
        struct Derived {
            sld: String,
            tld: String,
        }
        let d = DomainName::parse("green-energy.online").unwrap();
        let derived = Derived {
            sld: "green-energy".to_string(),
            tld: "online".to_string(),
        };
        assert_eq!(d.to_value(), derived.to_value());
        assert_eq!(DomainName::from_value(&d.to_value()).unwrap(), d);
        assert!(DomainName::from_value(&Value::Bool(true)).is_err());
    }

    #[test]
    fn clones_share_the_label() {
        let d = DomainName::parse("green-energy.com").unwrap();
        let c = d.clone();
        assert!(Arc::ptr_eq(&d.sld, &c.sld));
        assert_eq!(c, d);
    }

    #[test]
    fn trailing_dot_tolerated() {
        assert!(DomainName::parse("example.org.").is_ok());
    }

    #[test]
    fn tld_classification() {
        assert_eq!(
            DomainName::parse("a1.xyz").unwrap().tld_kind(),
            TldKind::NewGtld
        );
        assert_eq!(
            DomainName::parse("abc.fr").unwrap().tld_kind(),
            TldKind::CcTld
        );
        assert_eq!(
            DomainName::parse("abc.net").unwrap().tld_kind(),
            TldKind::LegacyGtld
        );
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(DomainName::parse("nodots"), Err(NameError::MissingTld));
        assert!(matches!(
            DomainName::parse("-bad.com"),
            Err(NameError::BadLabel(_))
        ));
        assert!(matches!(
            DomainName::parse("bad-.com"),
            Err(NameError::BadLabel(_))
        ));
        assert!(matches!(
            DomainName::parse("has space.com"),
            Err(NameError::BadLabel(_))
        ));
        assert!(matches!(
            DomainName::parse("a.b.com"),
            Err(NameError::BadLabel(_))
        ));
        assert!(matches!(
            DomainName::parse("x.zzzz"),
            Err(NameError::UnknownTld(_))
        ));
        let long = format!("{}.com", "a".repeat(64));
        assert!(matches!(
            DomainName::parse(&long),
            Err(NameError::BadLabel(_))
        ));
        let too_long = format!("{}.com", "a".repeat(300));
        assert_eq!(DomainName::parse(&too_long), Err(NameError::TooLong));
    }

    #[test]
    fn keywords_extracted() {
        let d = DomainName::parse("green-energy-2020.com").unwrap();
        assert_eq!(d.keywords(), vec!["green", "energy"]);
        let d = DomainName::parse("x9y.com").unwrap();
        assert!(d.keywords().is_empty());
    }

    #[test]
    fn from_str_impl() {
        let d: DomainName = "paypal-support.online".parse().unwrap();
        assert_eq!(d.tld_kind(), TldKind::NewGtld);
    }

    #[test]
    fn known_tld_lists_nonempty() {
        assert!(!DomainName::known_tlds(TldKind::LegacyGtld).is_empty());
        assert!(!DomainName::known_tlds(TldKind::NewGtld).is_empty());
        assert!(!DomainName::known_tlds(TldKind::CcTld).is_empty());
    }
}
