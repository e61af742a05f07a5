//! A case-insensitive HTTP header map with a shared, copy-on-write backing.

use std::borrow::Cow;
use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// One `(lowercase name, value)` entry.
pub(crate) type HeaderEntry = (Cow<'static, str>, Cow<'static, str>);

/// The header a HEAD response carries inline.
const CONTENT_LENGTH: &str = "content-length";

/// Decimal digits of `u64::MAX`: room for any inline `content-length`.
const LENGTH_DIGITS: usize = 20;

/// Where a map's entries live. Both backings hold entries sorted by name.
#[derive(Clone)]
enum Backing {
    /// A process-wide static table (the standard `content-type` maps, the
    /// empty map): cloning copies a pointer.
    Static(&'static [HeaderEntry]),
    /// A refcounted table: cloning bumps the refcount, and
    /// [`set`](HeaderMap::set) copies it first while another map shares it.
    Shared(Arc<Vec<HeaderEntry>>),
}

/// A case-insensitive, order-stable map of HTTP headers.
///
/// Header names are normalised to lowercase on insertion (HTTP/2 style);
/// values are stored verbatim, one value per name — sufficient for the
/// headers the study inspects (`Content-Type`, `X-Robots-Tag`, `Location`;
/// `Set-Cookie` is handled by the browser crate separately).
///
/// Names and values are `Cow<'static, str>`, so literal entries are stored
/// without a copy, and lookups by an already-lowercase name do not copy the
/// name either. The entries sit behind a static or refcounted backing, so
/// the prebuilt maps a host serves are handed to every response by a
/// pointer copy or a refcount bump; writing to a map copies a shared
/// backing first and never reaches the maps it was cloned from. A HEAD
/// response's `content-length` is kept inline, so setting it copies and
/// allocates nothing. Equality and [`iter`](HeaderMap::iter) see only the
/// entries, never the backing.
#[derive(Clone)]
pub struct HeaderMap {
    backing: Backing,
    /// The inline `content-length`: its decimal digits are
    /// `length[..length_len]`, and `length_len == 0` means unset. While it
    /// is set, the backing holds no `content-length` entry.
    length: [u8; LENGTH_DIGITS],
    length_len: u8,
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
        HeaderMap::from_static(&[])
    }

    /// A map over a process-wide static table of lowercase names in
    /// sorted order: building and cloning it copy a pointer.
    pub(crate) fn from_static(entries: &'static [HeaderEntry]) -> HeaderMap {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|(name, _)| lowercase(name) == *name));
        HeaderMap {
            backing: Backing::Static(entries),
            length: [0; LENGTH_DIGITS],
            length_len: 0,
        }
    }

    fn entries(&self) -> &[HeaderEntry] {
        match &self.backing {
            Backing::Static(entries) => entries,
            Backing::Shared(entries) => entries,
        }
    }

    /// The entries, owned by this map alone: a static table or a backing
    /// another map shares is copied first.
    fn entries_mut(&mut self) -> &mut Vec<HeaderEntry> {
        if let Backing::Static(entries) = self.backing {
            self.backing = Backing::Shared(Arc::new(entries.to_vec()));
        }
        match &mut self.backing {
            Backing::Shared(entries) => Arc::make_mut(entries),
            Backing::Static(_) => unreachable!("a static backing was just copied"),
        }
    }

    /// Where `name` (already lowercase) sits in the entries, or would.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.entries()
            .binary_search_by(|(key, _)| key.as_ref().cmp(name))
    }

    fn inline_length(&self) -> Option<&str> {
        let digits = &self.length[..usize::from(self.length_len)];
        (!digits.is_empty()).then(|| std::str::from_utf8(digits).expect("decimal digits"))
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
        if name == CONTENT_LENGTH {
            self.length_len = 0;
        }
        let value = value.into();
        let at = self.position(&name);
        let entries = self.entries_mut();
        match at {
            Ok(i) => entries[i].1 = value,
            Err(i) => entries.insert(i, (name, value)),
        }
        self
    }

    /// Set `content-length` to `len`, kept inline: nothing is allocated,
    /// and the backing is copied only when it holds a `content-length`
    /// entry of its own, which this value replaces.
    pub(crate) fn set_content_length(&mut self, len: usize) {
        if let Ok(i) = self.position(CONTENT_LENGTH) {
            self.entries_mut().remove(i);
        }
        let mut rest = &mut self.length[..];
        write!(rest, "{len}").expect("a usize fits in twenty digits");
        let written = LENGTH_DIGITS - rest.len();
        self.length_len = written as u8;
    }

    /// Get a header value by case-insensitive name.
    pub fn get(&self, name: &str) -> Option<&str> {
        let name = lowercase(name);
        if name == CONTENT_LENGTH {
            if let Some(length) = self.inline_length() {
                return Some(length);
            }
        }
        let i = self.position(&name).ok()?;
        Some(self.entries()[i].1.as_ref())
    }

    /// True if the header is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of distinct header names.
    pub fn len(&self) -> usize {
        self.entries().len() + usize::from(self.length_len > 0)
    }

    /// True if no headers are set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when both maps read one backing table (pointer identity).
    #[cfg(test)]
    pub(crate) fn shares_entries_with(&self, other: &HeaderMap) -> bool {
        std::ptr::eq(self.entries(), other.entries())
    }

    /// Iterate `(name, value)` pairs in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let entries = self.entries();
        let length = self.inline_length();
        // The inline length goes where a `content-length` entry would sit.
        let split = match length {
            Some(_) => self.position(CONTENT_LENGTH).unwrap_or_else(|i| i),
            None => entries.len(),
        };
        let (head, tail) = entries.split_at(split);
        fn pair((name, value): &HeaderEntry) -> (&str, &str) {
            (name, value)
        }
        head.iter()
            .map(pair)
            .chain(length.map(|length| (CONTENT_LENGTH, length)))
            .chain(tail.iter().map(pair))
    }
}

impl Default for HeaderMap {
    fn default() -> Self {
        HeaderMap::new()
    }
}

impl PartialEq for HeaderMap {
    fn eq(&self, other: &HeaderMap) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for HeaderMap {}

impl fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static STATIC_HTML: [HeaderEntry; 1] =
        [(Cow::Borrowed("content-type"), Cow::Borrowed("text/html"))];

    /// The same two entries over each backing: static, shared (a clone
    /// holds the table too), and built by `set` alone.
    fn backings() -> Vec<HeaderMap> {
        static BOTH: [HeaderEntry; 2] = [
            (Cow::Borrowed("content-type"), Cow::Borrowed("text/html")),
            (Cow::Borrowed("x-robots-tag"), Cow::Borrowed("noindex")),
        ];
        let mut shared = HeaderMap::from_static(&STATIC_HTML);
        shared.set("X-Robots-Tag", "noindex");
        let holder = shared.clone();
        let mut built = HeaderMap::new();
        built.set("x-robots-tag", String::from("noindex"));
        built.set("Content-Type", String::from("text/html"));
        vec![HeaderMap::from_static(&BOTH), shared, holder, built]
    }

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
            .entries()
            .iter()
            .map(|(k, v)| matches!(k, Cow::Borrowed(_)) && matches!(v, Cow::Borrowed(_)))
            .collect();
        // The mixed-case name had to be lower-cased into an owned copy.
        assert_eq!(borrowed, vec![true, false]);
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut h = HeaderMap::new();
        h.set("b-header", "2");
        h.set("a-header", "1");
        let names: Vec<&str> = h.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a-header", "b-header"]);
    }

    #[test]
    fn set_on_a_clone_leaves_a_static_original_as_it_was() {
        let original = HeaderMap::from_static(&STATIC_HTML);
        let mut copy = original.clone();
        copy.set("content-type", "text/plain");
        copy.set("x-robots-tag", "noindex");
        copy.set_content_length(7);
        assert_eq!(original.get("content-type"), Some("text/html"));
        assert_eq!(original.len(), 1);
        assert_eq!(STATIC_HTML[0].1, "text/html");
        assert_eq!(copy.get("content-type"), Some("text/plain"));
        assert_eq!(copy.len(), 3);
    }

    #[test]
    fn set_on_a_clone_leaves_a_shared_original_as_it_was() {
        let mut original = HeaderMap::new();
        original.set("x-robots-tag", "noindex");
        let before: Vec<(String, String)> = original
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        let mut copy = original.clone();
        copy.set("x-robots-tag", "none");
        copy.set("location", "/elsewhere");
        copy.set_content_length(12);
        let after: Vec<(String, String)> = original
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        assert_eq!(after, before);
        assert_eq!(copy.get("x-robots-tag"), Some("none"));
        assert_eq!(copy.get("location"), Some("/elsewhere"));
        // Writing to the original after its clone leaves the clone alone.
        let snapshot = copy.clone();
        copy.set("x-robots-tag", "all");
        assert_eq!(snapshot.get("x-robots-tag"), Some("none"));
    }

    #[test]
    fn equality_and_iter_ignore_the_backing() {
        let maps = backings();
        for map in &maps {
            assert_eq!(map, &maps[0]);
            let pairs: Vec<(&str, &str)> = map.iter().collect();
            assert_eq!(
                pairs,
                vec![("content-type", "text/html"), ("x-robots-tag", "noindex")]
            );
            assert_eq!(format!("{map:?}"), format!("{:?}", maps[0]));
        }
        assert_ne!(maps[0], HeaderMap::from_static(&STATIC_HTML));
    }

    #[test]
    fn inline_length_reads_like_an_entry() {
        for mut map in backings() {
            let mut reference = map.clone();
            reference.set("content-length", "1234");
            map.set_content_length(1234);
            assert_eq!(map, reference);
            assert_eq!(map.get("Content-Length"), Some("1234"));
            assert_eq!(map.len(), 3);
            let names: Vec<&str> = map.iter().map(|(n, _)| n).collect();
            assert_eq!(
                names,
                vec!["content-length", "content-type", "x-robots-tag"]
            );
            // A later `set` replaces the inline value, and the inline
            // value replaces a registered entry.
            map.set("content-length", "5");
            assert_eq!(map.get("content-length"), Some("5"));
            assert_eq!(map.len(), 3);
            map.set_content_length(0);
            assert_eq!(map.get("content-length"), Some("0"));
            assert_eq!(map.len(), 3);
            map.set_content_length(usize::MAX);
            assert_eq!(
                map.get("content-length"),
                Some(usize::MAX.to_string().as_str())
            );
        }
    }
}
