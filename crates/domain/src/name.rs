//! A validated, normalised domain name.

use crate::error::DomainError;
use rws_stats::memo::FnvHasher;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A syntactically valid, lower-cased, fully-qualified domain name without a
/// trailing dot, e.g. `www.example.co.uk`.
///
/// Invariants enforced on construction:
/// * non-empty, at most 253 bytes;
/// * every dot-separated label is 1–63 characters of `[a-z0-9-]`;
/// * no label starts or ends with `-`.
///
/// The type is ordering- and hashing-friendly so it can key maps in the
/// simulated web, the browser storage engine and the RWS list. The name
/// itself is a shared `Arc<str>`, so cloning — which the pair-universe and
/// survey sweeps do hundreds of thousands of times — is a refcount bump,
/// not a heap allocation.
///
/// The FNV-1a hash of the name's bytes is computed once, at construction,
/// and stored next to it ([`fnv1a`](DomainName::fnv1a)). `Hash` feeds the
/// hasher that one `u64`, not the name, so every map lookup hashes eight
/// bytes whatever the name's length, and equality rejects on a hash
/// mismatch before it compares bytes. Ordering is string order.
#[derive(Clone, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct DomainName {
    name: Arc<str>,
    /// FNV-1a over `name`'s bytes; fixed by construction.
    hash: u64,
}

impl DomainName {
    /// Parse and normalise a domain name.
    ///
    /// Normalisation lower-cases the input and strips a single trailing dot
    /// (the DNS root label), mirroring what browsers do before site
    /// computation.
    pub fn parse(input: &str) -> Result<DomainName, DomainError> {
        let trimmed = input.trim();
        let trimmed = trimmed.strip_suffix('.').unwrap_or(trimmed);
        if trimmed.is_empty() {
            return Err(DomainError::Empty);
        }
        let lower = trimmed.to_ascii_lowercase();
        if lower.len() > 253 {
            return Err(DomainError::TooLong { len: lower.len() });
        }
        for label in lower.split('.') {
            if label.is_empty() {
                return Err(DomainError::EmptyLabel);
            }
            if label.len() > 63 {
                return Err(DomainError::LabelTooLong {
                    label: label.to_string(),
                });
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(DomainError::HyphenAtEdge {
                    label: label.to_string(),
                });
            }
            if let Some(bad) = label
                .chars()
                .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-'))
            {
                return Err(DomainError::InvalidCharacter {
                    label: label.to_string(),
                    character: bad,
                });
            }
        }
        Ok(DomainName::from_normalised(lower.into()))
    }

    /// The one constructor every path funnels through: `name` is already
    /// validated and lower-cased, and its hash is taken here.
    fn from_normalised(name: Arc<str>) -> DomainName {
        let mut hasher = FnvHasher::new();
        hasher.write(name.as_bytes());
        DomainName {
            hash: hasher.finish(),
            name,
        }
    }

    /// The FNV-1a hash of the name's bytes, computed once at construction.
    /// This is the workspace's stable per-host hash: fault schedules key on
    /// it.
    pub fn fnv1a(&self) -> u64 {
        self.hash
    }

    /// The normalised name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// The labels of the name, left to right (`www`, `example`, `co`, `uk`).
    pub fn labels(&self) -> Vec<&str> {
        self.name.split('.').collect()
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.name.split('.').count()
    }

    /// The final (rightmost) label — the TLD in the DNS sense.
    pub fn tld_label(&self) -> &str {
        self.name
            .rsplit('.')
            .next()
            .expect("non-empty by invariant")
    }

    /// True if `self` equals `other` or is a DNS subdomain of it
    /// (`www.example.com` is a subdomain of `example.com`).
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        if self == other {
            return true;
        }
        self.name.len() > other.name.len()
            && self.name.ends_with(other.as_str())
            && self.name.as_bytes()[self.name.len() - other.name.len() - 1] == b'.'
    }

    /// The immediate parent domain (`example.com` for `www.example.com`), or
    /// `None` for a single-label name.
    pub fn parent(&self) -> Option<DomainName> {
        let (_, rest) = self.name.split_once('.')?;
        Some(DomainName::from_normalised(rest.into()))
    }

    /// Construct the name formed by the last `n` labels of this name.
    /// Returns `None` if `n` is zero or exceeds the label count.
    pub fn suffix_labels(&self, n: usize) -> Option<DomainName> {
        let labels = self.labels();
        if n == 0 || n > labels.len() {
            return None;
        }
        Some(DomainName::from_normalised(
            labels[labels.len() - n..].join(".").into(),
        ))
    }

    /// Prepend a label, e.g. `"www"` + `example.com` → `www.example.com`.
    pub fn with_subdomain(&self, label: &str) -> Result<DomainName, DomainError> {
        DomainName::parse(&format!("{label}.{}", self.name))
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &DomainName) -> bool {
        self.hash == other.hash && self.name == other.name
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Little-endian bytes, so FNV shard routing stays the same on
        // every platform.
        state.write(&self.hash.to_le_bytes());
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &DomainName) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &DomainName) -> Ordering {
        self.name.cmp(&other.name)
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The hash is derived from the name, so it is left out.
        f.debug_struct("DomainName")
            .field("name", &self.name)
            .finish()
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl TryFrom<String> for DomainName {
    type Error = DomainError;
    fn try_from(value: String) -> Result<Self, Self::Error> {
        DomainName::parse(&value)
    }
}

impl From<DomainName> for String {
    fn from(value: DomainName) -> String {
        value.name.as_ref().to_string()
    }
}

impl std::str::FromStr for DomainName {
    type Err = DomainError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalises_case_and_trailing_dot() {
        let d = DomainName::parse("WWW.Example.COM.").unwrap();
        assert_eq!(d.as_str(), "www.example.com");
        assert_eq!(d.to_string(), "www.example.com");
    }

    #[test]
    fn parse_rejects_empty() {
        assert_eq!(DomainName::parse(""), Err(DomainError::Empty));
        assert_eq!(DomainName::parse("   "), Err(DomainError::Empty));
        assert_eq!(DomainName::parse("."), Err(DomainError::Empty));
    }

    #[test]
    fn parse_rejects_empty_label() {
        assert_eq!(DomainName::parse("a..b"), Err(DomainError::EmptyLabel));
        assert_eq!(
            DomainName::parse(".example.com"),
            Err(DomainError::EmptyLabel)
        );
    }

    #[test]
    fn parse_rejects_bad_characters() {
        assert!(matches!(
            DomainName::parse("exa mple.com"),
            Err(DomainError::InvalidCharacter { .. })
        ));
        assert!(matches!(
            DomainName::parse("exam_ple.com"),
            Err(DomainError::InvalidCharacter { .. })
        ));
        assert!(matches!(
            DomainName::parse("https://example.com"),
            Err(DomainError::InvalidCharacter { .. })
        ));
    }

    #[test]
    fn parse_rejects_hyphen_at_edges() {
        assert!(matches!(
            DomainName::parse("-bad.example.com"),
            Err(DomainError::HyphenAtEdge { .. })
        ));
        assert!(matches!(
            DomainName::parse("bad-.example.com"),
            Err(DomainError::HyphenAtEdge { .. })
        ));
        // Interior hyphens are fine.
        assert!(DomainName::parse("my-site.example.com").is_ok());
    }

    #[test]
    fn parse_rejects_over_long_names_and_labels() {
        let long_label = format!("{}.com", "a".repeat(64));
        assert!(matches!(
            DomainName::parse(&long_label),
            Err(DomainError::LabelTooLong { .. })
        ));
        let long_name = format!("{}.com", vec!["abcdefgh"; 32].join("."));
        assert!(matches!(
            DomainName::parse(&long_name),
            Err(DomainError::TooLong { .. })
        ));
    }

    #[test]
    fn labels_and_tld() {
        let d = DomainName::parse("a.b.co.uk").unwrap();
        assert_eq!(d.labels(), vec!["a", "b", "co", "uk"]);
        assert_eq!(d.label_count(), 4);
        assert_eq!(d.tld_label(), "uk");
    }

    #[test]
    fn subdomain_relationship() {
        let site = DomainName::parse("example.com").unwrap();
        let www = DomainName::parse("www.example.com").unwrap();
        let other = DomainName::parse("badexample.com").unwrap();
        assert!(www.is_subdomain_of(&site));
        assert!(site.is_subdomain_of(&site));
        assert!(!site.is_subdomain_of(&www));
        // Suffix match without a dot boundary must not count.
        assert!(!other.is_subdomain_of(&site));
    }

    #[test]
    fn parent_and_suffix_labels() {
        let d = DomainName::parse("a.b.example.com").unwrap();
        assert_eq!(d.parent().unwrap().as_str(), "b.example.com");
        assert_eq!(d.suffix_labels(2).unwrap().as_str(), "example.com");
        assert_eq!(d.suffix_labels(4).unwrap().as_str(), "a.b.example.com");
        assert!(d.suffix_labels(5).is_none());
        assert!(d.suffix_labels(0).is_none());
        let single = DomainName::parse("com").unwrap();
        assert!(single.parent().is_none());
    }

    #[test]
    fn with_subdomain_builds_child() {
        let site = DomainName::parse("example.com").unwrap();
        assert_eq!(
            site.with_subdomain("www").unwrap().as_str(),
            "www.example.com"
        );
        assert!(site.with_subdomain("bad label").is_err());
    }

    #[test]
    fn serde_round_trip_via_string() {
        let d = DomainName::parse("example.org").unwrap();
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(json, "\"example.org\"");
        let back: DomainName = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        // Invalid names fail deserialisation.
        assert!(serde_json::from_str::<DomainName>("\"bad domain\"").is_err());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = DomainName::parse("alpha.com").unwrap();
        let b = DomainName::parse("beta.com").unwrap();
        assert!(a < b);
    }
}
