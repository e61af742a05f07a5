//! A case-insensitive HTTP header map.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A case-insensitive, order-stable map of HTTP headers.
///
/// Header names are normalised to lowercase on insertion (HTTP/2 style);
/// values are stored verbatim, one value per name — sufficient for the
/// headers the study inspects (`Content-Type`, `X-Robots-Tag`, `Location`;
/// `Set-Cookie` is handled by the browser crate separately).
///
/// Names and values are `Cow<'static, str>`, so the fetcher's standard
/// entries (a lowercase literal name, a literal `Content-Type` value) are
/// stored without a copy, and lookups by an already-lowercase name do not
/// copy the name either.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeaderMap {
    entries: BTreeMap<Cow<'static, str>, Cow<'static, str>>,
}

/// `name` lower-cased, borrowed back unchanged when it already is.
fn lowercase(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl HeaderMap {
    /// Create an empty header map.
    pub fn new() -> HeaderMap {
        HeaderMap::default()
    }

    /// Insert a header, replacing any existing value for the same
    /// (case-insensitive) name. A `'static` lowercase name and a `'static`
    /// value are stored as borrowed strings.
    pub fn set<N, V>(&mut self, name: N, value: V) -> &mut Self
    where
        N: Into<Cow<'static, str>>,
        V: Into<Cow<'static, str>>,
    {
        let mut name = name.into();
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            name = Cow::Owned(name.to_ascii_lowercase());
        }
        self.entries.insert(name, value.into());
        self
    }

    /// Get a header value by case-insensitive name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .get(lowercase(name).as_ref())
            .map(AsRef::as_ref)
    }

    /// True if the header is present.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(lowercase(name).as_ref())
    }

    /// Number of distinct header names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no headers are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(name, value)` pairs in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_ref(), v.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_are_case_insensitive() {
        let mut h = HeaderMap::new();
        h.set("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
        assert!(!h.contains("accept"));
    }

    #[test]
    fn set_replaces_existing_value() {
        let mut h = HeaderMap::new();
        h.set("X-Robots-Tag", "noindex");
        h.set("x-robots-tag", "none");
        assert_eq!(h.get("x-robots-tag"), Some("none"));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn empty_until_set() {
        let mut h = HeaderMap::new();
        assert!(h.is_empty());
        assert_eq!(h.get("location"), None);
        h.set("Location", String::from("/elsewhere"));
        assert!(!h.is_empty());
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("location"), Some("/elsewhere"));
    }

    #[test]
    fn lowercase_literals_are_stored_borrowed() {
        let mut h = HeaderMap::new();
        h.set("content-type", "text/html");
        h.set("X-Robots-Tag", "noindex");
        let borrowed: Vec<bool> = h
            .entries
            .iter()
            .map(|(k, v)| matches!(k, Cow::Borrowed(_)) && matches!(v, Cow::Borrowed(_)))
            .collect();
        // The mixed-case name had to be lower-cased into an owned copy.
        assert_eq!(borrowed, vec![true, false]);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = HeaderMap::new();
        h.set("content-type", "text/html");
        h.set("X-Robots-Tag", String::from("noindex"));
        let json = serde_json::to_string(&h).unwrap();
        let back: HeaderMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.get("X-ROBOTS-TAG"), Some("noindex"));
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut h = HeaderMap::new();
        h.set("b-header", "2");
        h.set("a-header", "1");
        let names: Vec<&str> = h.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a-header", "b-header"]);
    }
}
