//! A forgiving HTML tokenizer.
//!
//! Real-world HTML — which is what the paper's similarity analysis runs on —
//! is rarely well-formed, so this tokenizer never fails: it scans the input
//! once and produces a stream of [`Token`]s, skipping comments, doctypes and
//! the contents of `<script>`/`<style>` elements (their text would otherwise
//! pollute the text extraction), and tolerating unquoted or missing
//! attribute values.
//!
//! The raw scan [`RawTokens`] is the one scanner production runs: it
//! borrows every string from the document and leaves names and text as
//! written. The owned [`tokenize`] is the seed implementation and the
//! oracle the scan is checked against. [`Tokens`] is the raw scan with
//! names lower-cased and text collapsed; it is kept only for the benchmark
//! harness.

use crate::swar::{find_byte, has_ascii_uppercase, is_collapsed_ascii};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::str::{Split, SplitWhitespace};

/// A single HTML token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Token {
    /// An opening (or self-closing) tag with its attributes.
    Open {
        /// Lower-cased tag name.
        name: String,
        /// Attribute map (names lower-cased; value empty for bare attributes).
        attributes: BTreeMap<String, String>,
        /// True for `<br/>`-style self-closing syntax or void elements.
        self_closing: bool,
    },
    /// A closing tag.
    Close {
        /// Lower-cased tag name.
        name: String,
    },
    /// A run of text between tags (entity references left as-is).
    Text(String),
}

/// HTML void elements, which never have closing tags.
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Elements whose raw text content is skipped entirely.
const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style"];

/// Tokenize an HTML document.
pub fn tokenize(html: &str) -> Vec<Token> {
    let bytes = html.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let len = bytes.len();

    while i < len {
        if bytes[i] == b'<' {
            // Comment?
            if html[i..].starts_with("<!--") {
                match html[i + 4..].find("-->") {
                    Some(end) => {
                        i = i + 4 + end + 3;
                    }
                    None => break,
                }
                continue;
            }
            // Doctype or other declaration?
            if html[i..].starts_with("<!") || html[i..].starts_with("<?") {
                match html[i..].find('>') {
                    Some(end) => {
                        i += end + 1;
                    }
                    None => break,
                }
                continue;
            }
            // Find the end of the tag.
            let Some(rel_end) = html[i..].find('>') else {
                // Unterminated tag: treat the rest as text.
                push_text(&mut tokens, &html[i..]);
                break;
            };
            let tag_body = &html[i + 1..i + rel_end];
            i += rel_end + 1;
            if tag_body.is_empty() {
                continue;
            }
            if let Some(name) = tag_body.strip_prefix('/') {
                let name = name.trim().to_ascii_lowercase();
                if !name.is_empty() {
                    tokens.push(Token::Close { name });
                }
                continue;
            }
            let (name, attributes, explicit_self_close) = parse_tag_body(tag_body);
            if name.is_empty() {
                continue;
            }
            let self_closing = explicit_self_close || VOID_ELEMENTS.contains(&name.as_str());
            let is_raw_text = RAW_TEXT_ELEMENTS.contains(&name.as_str());
            tokens.push(Token::Open {
                name: name.clone(),
                attributes,
                self_closing,
            });
            // Skip the raw content of <script>/<style> up to the matching
            // closing tag.
            if is_raw_text && !self_closing {
                let close_marker = format!("</{name}");
                if let Some(rel) = html[i..].to_ascii_lowercase().find(&close_marker) {
                    i += rel;
                    if let Some(end) = html[i..].find('>') {
                        tokens.push(Token::Close { name });
                        i += end + 1;
                    }
                } else {
                    // Unterminated raw-text element: consume to the end.
                    break;
                }
            }
        } else {
            let next_tag = html[i..].find('<').map(|o| i + o).unwrap_or(len);
            push_text(&mut tokens, &html[i..next_tag]);
            i = next_tag;
        }
    }
    tokens
}

fn push_text(tokens: &mut Vec<Token>, raw: &str) {
    let collapsed = raw.split_whitespace().collect::<Vec<_>>().join(" ");
    if !collapsed.is_empty() {
        tokens.push(Token::Text(collapsed));
    }
}

/// `s` without its first character (empty stays empty). The stray-character
/// skip of the attribute loops goes through here so that a non-ASCII
/// character after a stray `=` is stepped over whole, not split mid-UTF-8.
fn skip_char(s: &str) -> &str {
    let mut chars = s.chars();
    chars.next();
    chars.as_str()
}

/// Parse the inside of a tag: name, attributes, self-closing marker.
fn parse_tag_body(body: &str) -> (String, BTreeMap<String, String>, bool) {
    let body = body.trim();
    let (body, self_closing) = match body.strip_suffix('/') {
        Some(rest) => (rest.trim(), true),
        None => (body, false),
    };
    // Tag name: up to the first whitespace.
    let mut name_end = body.len();
    for (idx, c) in body.char_indices() {
        if c.is_whitespace() {
            name_end = idx;
            break;
        }
    }
    let name = body[..name_end].to_ascii_lowercase();
    let mut attributes = BTreeMap::new();
    let attr_str = &body[name_end..];
    let mut rest = attr_str.trim_start();
    while !rest.is_empty() {
        // Attribute name.
        let name_len = rest
            .find(|c: char| c == '=' || c.is_whitespace())
            .unwrap_or(rest.len());
        let attr_name = rest[..name_len].trim().to_ascii_lowercase();
        rest = rest[name_len..].trim_start();
        if attr_name.is_empty() {
            // Defensive: skip a stray character to guarantee progress.
            rest = skip_char(rest);
            continue;
        }
        if let Some(after_eq) = rest.strip_prefix('=') {
            let after_eq = after_eq.trim_start();
            let (value, remainder) = if let Some(q) = after_eq.strip_prefix('"') {
                match q.find('"') {
                    Some(end) => (q[..end].to_string(), &q[end + 1..]),
                    None => (q.to_string(), ""),
                }
            } else if let Some(q) = after_eq.strip_prefix('\'') {
                match q.find('\'') {
                    Some(end) => (q[..end].to_string(), &q[end + 1..]),
                    None => (q.to_string(), ""),
                }
            } else {
                let end = after_eq.find(char::is_whitespace).unwrap_or(after_eq.len());
                (after_eq[..end].to_string(), &after_eq[end..])
            };
            attributes.insert(attr_name, value);
            rest = remainder.trim_start();
        } else {
            // Bare attribute (e.g. `disabled`).
            attributes.insert(attr_name, String::new());
        }
    }
    (name, attributes, self_closing)
}

/// A borrowed HTML token of [`Tokens`]: a [`RawToken`] with its tag name
/// lower-cased and its text collapsed, each borrowed unless that fix-up
/// changed it. It exists only so the frozen benchmark harness, which
/// imports it, keeps building; production reads [`RawToken`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamToken<'a> {
    /// An opening (or self-closing) tag.
    Open {
        /// Lower-cased tag name (borrowed when already lower-case).
        name: Cow<'a, str>,
        /// The unparsed attribute portion of the tag body.
        attributes: RawAttrs<'a>,
        /// True for `<br/>`-style self-closing syntax or void elements.
        self_closing: bool,
    },
    /// A closing tag.
    Close {
        /// Lower-cased tag name.
        name: Cow<'a, str>,
    },
    /// A run of text between tags, whitespace-collapsed (borrowed when the
    /// source was already collapsed).
    Text(Cow<'a, str>),
}

impl StreamToken<'_> {
    /// Convert to the owned [`Token`] representation. The result is exactly
    /// what [`tokenize`] produces for the same input position — the
    /// equivalence the property tests assert.
    pub fn to_token(&self) -> Token {
        match self {
            StreamToken::Open {
                name,
                attributes,
                self_closing,
            } => Token::Open {
                name: name.clone().into_owned(),
                attributes: attributes
                    .iter()
                    .map(|(n, v)| (n.into_owned(), v.to_owned()))
                    .collect(),
                self_closing: *self_closing,
            },
            StreamToken::Close { name } => Token::Close {
                name: name.clone().into_owned(),
            },
            StreamToken::Text(text) => Token::Text(text.clone().into_owned()),
        }
    }
}

/// The unparsed attribute section of an open tag, between the tag name and
/// the closing `>`. Attribute syntax is only scanned when [`get`](Self::get)
/// or [`iter`](Self::iter) is called. Values are always borrowed `&'a str`
/// slices of the document; a name is a [`Cow`] that only owns a copy when
/// it was written with upper-case letters.
///
/// [`get`](Self::get) walks the bytes once and compares names in place;
/// it hands off to the exact [`iter`](Self::iter) walk when it meets a
/// non-ASCII byte outside a quoted value, so both always agree.
///
/// Equality compares the raw underlying slice, not the parsed attribute
/// map; two differently-written tags with the same attributes compare
/// unequal here but equal after [`StreamToken::to_token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RawAttrs<'a> {
    raw: &'a str,
}

impl<'a> RawAttrs<'a> {
    /// The value of an attribute, if present. `name` is matched against the
    /// lower-cased attribute names, so it should be lower-case. Duplicate
    /// attribute names resolve to the last occurrence, matching the owned
    /// tokenizer's map insertion order. Bare attributes (`disabled`) yield
    /// an empty value.
    ///
    /// One byte-level walk with the rules of [`AttrIter`]: a name ends at
    /// `=` or whitespace (space and `0x09..=0x0d`, vertical tab included)
    /// and is compared case-insensitively without a lower-cased copy; a
    /// quoted value ends at its quote, found a word at a time, or runs to
    /// the end of the tag when unterminated. A non-ASCII byte outside a
    /// quoted value may be Unicode whitespace, so the lookup then defers
    /// to [`iter`](Self::iter), the exact char-level reference.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        match self.byte_walk(name) {
            Some(found) => found,
            None => self
                .iter()
                .filter(|(n, _)| n == name)
                .last()
                .map(|(_, v)| v),
        }
    }

    /// The byte walk behind [`get`](Self::get): `Some(found)` with the
    /// lookup's answer, or `None` when a non-ASCII byte outside a quoted
    /// value leaves the answer to the char-level walk.
    fn byte_walk(&self, name: &str) -> Option<Option<&'a str>> {
        let raw = self.raw;
        let b = raw.as_bytes();
        let len = b.len();
        let want = name.as_bytes();
        let mut found = None;
        let mut p = skip_ascii_ws(b, 0)?;
        while p < len {
            // The name stops at `=`, whitespace or a non-ASCII byte; the
            // skip below hands a non-ASCII stop to the char-level walk.
            let start = p;
            while p < len && ATTR_BYTE[b[p] as usize] == 0 {
                p += 1;
            }
            let attr = &b[start..p];
            p = skip_ascii_ws(b, p)?;
            if attr.is_empty() {
                // A stray `=`: step over it, as `AttrIter` does.
                p += 1;
                continue;
            }
            let matched = attr.len() == want.len()
                && attr
                    .iter()
                    .zip(want)
                    .all(|(a, w)| a.to_ascii_lowercase() == *w);
            if b.get(p) != Some(&b'=') {
                if matched {
                    found = Some("");
                }
                continue;
            }
            p = skip_ascii_ws(b, p + 1)?;
            let value = match b.get(p) {
                Some(&quote @ (b'"' | b'\'')) => match find_byte(&b[p + 1..], quote) {
                    Some(end) => {
                        let value = &raw[p + 1..p + 1 + end];
                        p = skip_ascii_ws(b, p + 1 + end + 1)?;
                        value
                    }
                    None => {
                        let value = &raw[p + 1..];
                        p = len;
                        value
                    }
                },
                _ => {
                    let start = p;
                    while p < len && ATTR_BYTE[b[p] as usize] & (WS | HIGH) == 0 {
                        p += 1;
                    }
                    let value = &raw[start..p];
                    p = skip_ascii_ws(b, p)?;
                    value
                }
            };
            if matched {
                found = Some(value);
            }
        }
        Some(found)
    }

    /// Iterate `(name, value)` pairs in document order. Names are
    /// lower-cased (borrowed unless the document wrote them with upper-case
    /// letters); values keep their case and always borrow.
    pub fn iter(&self) -> AttrIter<'a> {
        AttrIter {
            rest: self.raw.trim_start(),
        }
    }

    /// True when the tag carried no attribute text at all.
    pub fn is_empty(&self) -> bool {
        self.raw.trim_start().is_empty()
    }
}

/// The class names of a `class` attribute value, exactly as
/// `str::split_whitespace` yields them. A non-empty value that is ASCII
/// with single inner spaces and no other whitespace (the common case)
/// splits at its spaces; anything else, non-ASCII bytes that may encode
/// Unicode whitespace included, takes `split_whitespace` itself.
///
/// ```
/// use rws_html::class_names;
///
/// assert_eq!(class_names("nav main").collect::<Vec<_>>(), ["nav", "main"]);
/// assert_eq!(class_names(" a\u{a0}b ").collect::<Vec<_>>(), ["a", "b"]);
/// ```
pub fn class_names(value: &str) -> ClassNames<'_> {
    let split = if !value.is_empty() && is_collapsed_ascii(value.as_bytes()) {
        ClassSplit::Spaces(value.split(' '))
    } else {
        ClassSplit::Whitespace(value.split_whitespace())
    };
    ClassNames { split }
}

/// Iterator over the class names of a `class` value; see [`class_names`].
#[derive(Debug, Clone)]
pub struct ClassNames<'a> {
    split: ClassSplit<'a>,
}

#[derive(Debug, Clone)]
enum ClassSplit<'a> {
    Spaces(Split<'a, char>),
    Whitespace(SplitWhitespace<'a>),
}

impl<'a> Iterator for ClassNames<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        match &mut self.split {
            ClassSplit::Spaces(names) => names.next(),
            ClassSplit::Whitespace(names) => names.next(),
        }
    }
}

/// [`ATTR_BYTE`] flag: whitespace as `char::is_whitespace` judges an ASCII
/// byte, space and `0x09..=0x0d`. Unlike `u8::is_ascii_whitespace`,
/// vertical tab (`0x0b`) counts.
const WS: u8 = 1;
/// [`ATTR_BYTE`] flag: `=`.
const EQ: u8 = 2;
/// [`ATTR_BYTE`] flag: a non-ASCII byte, which may start Unicode whitespace.
const HIGH: u8 = 4;

/// What each byte means to the attribute byte walk; zero for a byte that
/// continues a name.
static ATTR_BYTE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = if i >= 0x80 {
            HIGH
        } else if i == b' ' as usize || matches!(i, 0x09..=0x0d) {
            WS
        } else if i == b'=' as usize {
            EQ
        } else {
            0
        };
        i += 1;
    }
    table
};

/// The index of the first non-whitespace byte at or after `p`, or `None`
/// when that byte is non-ASCII: it may start Unicode whitespace, which only
/// a char-level walk can judge.
#[inline]
fn skip_ascii_ws(b: &[u8], mut p: usize) -> Option<usize> {
    while p < b.len() && ATTR_BYTE[b[p] as usize] == WS {
        p += 1;
    }
    match b.get(p) {
        Some(&c) if c >= 0x80 => None,
        _ => Some(p),
    }
}

/// Iterator over a tag's attributes; see [`RawAttrs::iter`]. The exact,
/// char-level reference walk: Unicode whitespace (U+00A0, U+0085, …) ends
/// names and unquoted values here, and [`RawAttrs::get`] defers to it
/// whenever non-ASCII bytes make the byte walk unsure.
#[derive(Debug, Clone)]
pub struct AttrIter<'a> {
    rest: &'a str,
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = (Cow<'a, str>, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        // Mirrors the attribute loop of `parse_tag_body` exactly, borrowing
        // instead of allocating.
        loop {
            if self.rest.is_empty() {
                return None;
            }
            let name_len = self
                .rest
                .find(|c: char| c == '=' || c.is_whitespace())
                .unwrap_or(self.rest.len());
            let attr_name = self.rest[..name_len].trim();
            self.rest = self.rest[name_len..].trim_start();
            if attr_name.is_empty() {
                // Defensive: skip a stray character to guarantee progress.
                self.rest = skip_char(self.rest);
                continue;
            }
            let attr_name = lowercase_cow(attr_name);
            if let Some(after_eq) = self.rest.strip_prefix('=') {
                let after_eq = after_eq.trim_start();
                let (value, remainder) = if let Some(q) = after_eq.strip_prefix('"') {
                    match q.find('"') {
                        Some(end) => (&q[..end], &q[end + 1..]),
                        None => (q, ""),
                    }
                } else if let Some(q) = after_eq.strip_prefix('\'') {
                    match q.find('\'') {
                        Some(end) => (&q[..end], &q[end + 1..]),
                        None => (q, ""),
                    }
                } else {
                    let end = after_eq.find(char::is_whitespace).unwrap_or(after_eq.len());
                    (&after_eq[..end], &after_eq[end..])
                };
                self.rest = remainder.trim_start();
                return Some((attr_name, value));
            }
            return Some((attr_name, ""));
        }
    }
}

/// Lower-case a string, borrowing when it is already lower-case (the common
/// case for real-world tag and attribute names). The uppercase probe runs
/// eight bytes per step.
pub(crate) fn lowercase_cow(s: &str) -> Cow<'_, str> {
    if has_ascii_uppercase(s.as_bytes()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Collapse whitespace in a trimmed, non-empty text run, borrowing when it
/// is already collapsed (single spaces only).
fn collapse_trimmed(trimmed: &str) -> Cow<'_, str> {
    let mut prev_space = false;
    for c in trimmed.chars() {
        if c == ' ' {
            if prev_space {
                return Cow::Owned(trimmed.split_whitespace().collect::<Vec<_>>().join(" "));
            }
            prev_space = true;
        } else if c.is_whitespace() {
            return Cow::Owned(trimmed.split_whitespace().collect::<Vec<_>>().join(" "));
        } else {
            prev_space = false;
        }
    }
    Cow::Borrowed(trimmed)
}

/// Find the first case-insensitive `</name` in `haystack`, without building
/// a lower-cased copy of the remainder (the owned tokenizer's approach).
/// Candidate `<` positions come from the word-at-a-time scanner; the name
/// comparison only runs at those.
fn find_close_marker(haystack: &str, name: &str) -> Option<usize> {
    let hb = haystack.as_bytes();
    let nb = name.as_bytes();
    let total = nb.len() + 2;
    if hb.len() < total {
        return None;
    }
    let limit = hb.len() - total + 1;
    let mut j = 0;
    while let Some(off) = find_byte(&hb[j..limit], b'<') {
        let p = j + off;
        if hb[p + 1] == b'/' && hb[p + 2..p + 2 + nb.len()].eq_ignore_ascii_case(nb) {
            return Some(p);
        }
        j = p + 1;
    }
    None
}

/// End of a comment opened at `open` (the index of its `<`): the index just
/// past the first `-->` at or after `open + 4`, scanning for `>` a word at
/// a time and checking the two preceding bytes, which is equivalent to a
/// substring search for `-->` (the first `>` preceded by `--` is the `>` of
/// the first `-->` occurrence).
fn find_comment_end(bytes: &[u8], open: usize) -> Option<usize> {
    let mut j = open + 6;
    while j < bytes.len() {
        let p = j + find_byte(&bytes[j..], b'>')?;
        if bytes[p - 1] == b'-' && bytes[p - 2] == b'-' {
            return Some(p + 1);
        }
        j = p + 1;
    }
    None
}

/// `str::trim` with the char-iterator machinery skipped for the all-ASCII
/// common case: trim ASCII whitespace bytewise, then defer to the exact
/// Unicode trim only when an edge still holds a non-ASCII byte or a
/// vertical tab (0x0b — the one ASCII character `char::is_whitespace`
/// covers that `u8::is_ascii_whitespace` does not).
#[inline]
fn trim_fast(s: &str) -> &str {
    let t = s.trim_ascii();
    let b = t.as_bytes();
    match (b.first(), b.last()) {
        (Some(&f), Some(&l)) if f >= 0x80 || l >= 0x80 || f == 0x0b || l == 0x0b => t.trim(),
        _ => t,
    }
}

/// Split an already-trimmed tag body into its name, as written, and the
/// attribute remainder. The name ends at the first whitespace byte; the
/// walk defers to the exact char walk when a non-ASCII byte appears before
/// the name ends (Unicode whitespace such as U+00A0 must still terminate
/// the name, matching the owned oracle's `char::is_whitespace`).
#[inline]
fn split_tag_name(body: &str) -> (&str, &str) {
    let b = body.as_bytes();
    let mut k = 0;
    while k < b.len() {
        let c = b[k];
        if c >= 0x80 {
            let end = body[k..]
                .char_indices()
                .find(|(_, ch)| ch.is_whitespace())
                .map_or(body.len(), |(off, _)| k + off);
            return body.split_at(end);
        }
        if c == b' ' || (0x09..=0x0d).contains(&c) {
            break;
        }
        k += 1;
    }
    body.split_at(k)
}

/// A token of the raw scan [`RawTokens`]: the token boundaries of
/// [`tokenize`], with every string left as the document wrote it. Tag
/// names keep their case and text runs are trimmed but not collapsed, so a
/// consumer that compares names ignoring case, or only reads words, never
/// pays for a lower-cased or collapsed copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawToken<'a> {
    /// An opening (or self-closing) tag.
    Open {
        /// The tag name as written.
        name: &'a str,
        /// The unparsed attribute portion of the tag body.
        attributes: RawAttrs<'a>,
        /// True for `<br/>`-style self-closing syntax. Void elements are
        /// not flagged here.
        slash_closed: bool,
    },
    /// A closing tag.
    Close {
        /// The tag name as written, trimmed.
        name: &'a str,
    },
    /// A run of text between tags, trimmed and never empty; its whitespace
    /// is not collapsed.
    Text(&'a str),
}

/// The raw scan: an iterator over [`RawToken`]s borrowing from the input
/// document. It owns the tokenizer's skipping rules: comments,
/// declarations and processing instructions, and the raw text of
/// `<script>`/`<style>` up to the matching close tag, terminated or not.
/// Lower-casing its tag names, collapsing its text and flagging void
/// elements gives [`tokenize`]'s tokens, which the property tests check.
///
/// ```
/// use rws_html::{RawToken, RawTokens};
///
/// let raw: Vec<RawToken> = RawTokens::new("<P>a  b<script>x</script>").collect();
/// assert!(matches!(raw[0], RawToken::Open { name: "P", .. }));
/// assert_eq!(raw[1], RawToken::Text("a  b"));
/// assert!(matches!(raw[3], RawToken::Close { name: "script" }));
/// ```
#[derive(Debug, Clone)]
pub struct RawTokens<'a> {
    html: &'a str,
    i: usize,
    /// The name of a raw-text element whose skipped contents ended with a
    /// matching close tag; its `Close` token comes next.
    pending_close: Option<&'a str>,
}

impl<'a> RawTokens<'a> {
    /// Start scanning a document.
    pub fn new(html: &'a str) -> RawTokens<'a> {
        RawTokens {
            html,
            i: 0,
            pending_close: None,
        }
    }
}

impl<'a> Iterator for RawTokens<'a> {
    type Item = RawToken<'a>;

    #[inline]
    fn next(&mut self) -> Option<RawToken<'a>> {
        if let Some(name) = self.pending_close.take() {
            return Some(RawToken::Close { name });
        }
        let html = self.html;
        let bytes = html.as_bytes();
        let len = bytes.len();
        while self.i < len {
            let i = self.i;
            if bytes[i] == b'<' {
                // One peek at the byte after `<` dispatches comments,
                // declarations and processing instructions, instead of
                // re-slicing the remainder through a `starts_with` chain.
                match bytes.get(i + 1) {
                    Some(b'!') if bytes[i + 2..].starts_with(b"--") => {
                        // Comment: skip to just past the first `-->`.
                        self.i = find_comment_end(bytes, i).unwrap_or(len);
                        continue;
                    }
                    Some(b'!') | Some(b'?') => {
                        // Doctype or other declaration.
                        match find_byte(&bytes[i + 2..], b'>') {
                            Some(end) => self.i = i + 2 + end + 1,
                            None => self.i = len,
                        }
                        continue;
                    }
                    _ => {}
                }
                // Find the end of the tag.
                let Some(rel_end) = find_byte(&bytes[i + 1..], b'>') else {
                    // Unterminated tag: treat the rest as text (never empty:
                    // it starts with `<`).
                    self.i = len;
                    return Some(RawToken::Text(trim_fast(&html[i..])));
                };
                let tag_body = &html[i + 1..i + 1 + rel_end];
                self.i = i + 1 + rel_end + 1;
                if tag_body.is_empty() {
                    continue;
                }
                if let Some(name) = tag_body.strip_prefix('/') {
                    let name = trim_fast(name);
                    if name.is_empty() {
                        continue;
                    }
                    return Some(RawToken::Close { name });
                }
                let body = trim_fast(tag_body);
                let (body, slash_closed) = match body.strip_suffix('/') {
                    Some(rest) => (trim_fast(rest), true),
                    None => (body, false),
                };
                let (name, raw) = split_tag_name(body);
                if name.is_empty() {
                    continue;
                }
                let is_raw_text =
                    name.eq_ignore_ascii_case("script") || name.eq_ignore_ascii_case("style");
                // Skip the raw content of <script>/<style> (never void) up
                // to the matching closing tag, queueing the Close token.
                if is_raw_text && !slash_closed {
                    match find_close_marker(&html[self.i..], name) {
                        Some(rel) => {
                            self.i += rel;
                            if let Some(end) = find_byte(&bytes[self.i..], b'>') {
                                self.pending_close = Some(name);
                                self.i += end + 1;
                            }
                        }
                        // Unterminated raw-text element: consume to the end.
                        None => self.i = len,
                    }
                }
                return Some(RawToken::Open {
                    name,
                    attributes: RawAttrs { raw },
                    slash_closed,
                });
            }
            let next_tag = find_byte(&bytes[i..], b'<').map_or(len, |off| i + off);
            self.i = next_tag;
            let text = trim_fast(&html[i..next_tag]);
            if !text.is_empty() {
                return Some(RawToken::Text(text));
            }
        }
        None
    }
}

/// The [`RawTokens`] scan with tag names lower-cased, void elements
/// flagged and text runs collapsed: token for token what [`tokenize`]
/// yields, borrowed where the document already had that form.
///
/// No production path runs it. It exists only so the frozen benchmark
/// harness, which imports it, keeps building; the benchmark's next
/// revision deletes it with [`StreamToken`].
///
/// ```
/// use rws_html::tokenizer::{StreamToken, Tokens};
///
/// let mut names = Vec::new();
/// for token in Tokens::new("<div class=\"nav\"><p>hi</p></div>") {
///     if let StreamToken::Open { name, .. } = token {
///         names.push(name.into_owned());
///     }
/// }
/// assert_eq!(names, ["div", "p"]);
/// ```
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    raw: RawTokens<'a>,
}

impl<'a> Tokens<'a> {
    /// Start streaming tokens from a document.
    pub fn new(html: &'a str) -> Tokens<'a> {
        Tokens {
            raw: RawTokens::new(html),
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = StreamToken<'a>;

    fn next(&mut self) -> Option<StreamToken<'a>> {
        Some(match self.raw.next()? {
            RawToken::Open {
                name,
                attributes,
                slash_closed,
            } => {
                let name = lowercase_cow(name);
                let self_closing = slash_closed || VOID_ELEMENTS.contains(&&*name);
                StreamToken::Open {
                    name,
                    attributes,
                    self_closing,
                }
            }
            RawToken::Close { name } => StreamToken::Close {
                name: lowercase_cow(name),
            },
            RawToken::Text(text) => StreamToken::Text(collapse_trimmed(text)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(tokens: &[Token]) -> Vec<&str> {
        tokens
            .iter()
            .filter_map(|t| match t {
                Token::Open { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tokenizes_simple_document() {
        let tokens = tokenize("<html><body><p>Hello</p></body></html>");
        assert_eq!(open(&tokens), vec!["html", "body", "p"]);
        assert!(tokens.contains(&Token::Text("Hello".into())));
        assert!(tokens.contains(&Token::Close { name: "p".into() }));
    }

    #[test]
    fn parses_attributes_quoted_and_unquoted() {
        let tokens = tokenize(r#"<div class="nav main" id=content data-x='1' hidden>x</div>"#);
        match &tokens[0] {
            Token::Open {
                name, attributes, ..
            } => {
                assert_eq!(name, "div");
                assert_eq!(attributes.get("class").unwrap(), "nav main");
                assert_eq!(attributes.get("id").unwrap(), "content");
                assert_eq!(attributes.get("data-x").unwrap(), "1");
                assert_eq!(attributes.get("hidden").unwrap(), "");
            }
            other => panic!("expected open tag, got {other:?}"),
        }
    }

    #[test]
    fn tag_names_and_attribute_names_lowercased() {
        let tokens = tokenize(r#"<DIV CLASS="Big">x</DIV>"#);
        match &tokens[0] {
            Token::Open {
                name, attributes, ..
            } => {
                assert_eq!(name, "div");
                // Attribute values keep their case.
                assert_eq!(attributes.get("class").unwrap(), "Big");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(tokens.contains(&Token::Close { name: "div".into() }));
    }

    #[test]
    fn void_and_self_closing_elements() {
        let tokens = tokenize(r#"<img src="x.png"><br/><link rel="stylesheet">"#);
        let flags: Vec<bool> = tokens
            .iter()
            .filter_map(|t| match t {
                Token::Open { self_closing, .. } => Some(*self_closing),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![true, true, true]);
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let tokens = tokenize("<!DOCTYPE html><!-- a <b> comment --><p>text</p>");
        assert_eq!(open(&tokens), vec!["p"]);
    }

    #[test]
    fn script_and_style_contents_skipped() {
        let html = r#"<script>var x = "<p>not a tag</p>";</script><style>.a{color:red}</style><p>real</p>"#;
        let tokens = tokenize(html);
        assert_eq!(open(&tokens), vec!["script", "style", "p"]);
        // The script body must not appear as text.
        assert!(!tokens
            .iter()
            .any(|t| matches!(t, Token::Text(s) if s.contains("not a tag"))));
        assert!(tokens.contains(&Token::Text("real".into())));
    }

    #[test]
    fn whitespace_collapsed_in_text() {
        let tokens = tokenize("<p>  hello \n\t world  </p>");
        assert!(tokens.contains(&Token::Text("hello world".into())));
    }

    #[test]
    fn malformed_html_does_not_panic() {
        for html in [
            "<div><p>unclosed",
            "text only",
            "<<>>",
            "<div class=>broken</div>",
            "<",
            "<!-- unterminated comment",
            "<script>never closed",
            "",
        ] {
            let _ = tokenize(html);
        }
    }

    #[test]
    fn empty_input_produces_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n  ").is_empty());
    }

    /// The streaming tokenizer must agree with the owned oracle token for
    /// token, including on the malformed inputs the oracle tolerates.
    #[test]
    fn streaming_matches_owned_oracle() {
        for html in [
            "<html><body><p>Hello</p></body></html>",
            r#"<div class="nav main" id=content data-x='1' hidden>x</div>"#,
            r#"<DIV CLASS="Big">x</DIV>"#,
            r#"<img src="x.png"><br/><link rel="stylesheet">"#,
            "<!DOCTYPE html><!-- a <b> comment --><p>text</p>",
            r#"<script>var x = "<p>not a tag</p>";</script><style>.a{color:red}</style><p>real</p>"#,
            "<p>  hello \n\t world  </p>",
            "<div><p>unclosed",
            "text only",
            "<<>>",
            "<div class=>broken</div>",
            "<",
            "<!-- unterminated comment",
            "<script>never closed",
            "<script>x</script",
            "<SCRIPT>shout</SCRIPT>done",
            "< /div>",
            "<div a=1 a=2>dup</div>",
            "",
            "<!-->",
            "<!--->",
            "<!---->",
            "<!--a--b-->tail",
            "<!>after",
            "<?xml version='1.0'?><p>pi</p>",
            "<!doctype html>",
            "<div\u{00a0}x=1>nbsp name end</div>",
            "<p>a > b</p>",
            "<p>already collapsed run stays borrowed</p>",
            "<p>tab\tand\u{00a0}nbsp   runs</p>",
        ] {
            let owned = tokenize(html);
            let streamed: Vec<Token> = Tokens::new(html).map(|t| t.to_token()).collect();
            assert_eq!(streamed, owned, "SWAR stream divergence on {html:?}");
        }
    }

    /// Well-formed lower-case HTML streams entirely as borrowed slices.
    #[test]
    fn streaming_borrows_when_possible() {
        let html = r#"<div class="nav">plain text</div>"#;
        for token in Tokens::new(html) {
            match token {
                StreamToken::Open {
                    name, attributes, ..
                } => {
                    assert!(matches!(name, Cow::Borrowed(_)));
                    // Attribute values are `&str` slices of the document by
                    // type, so only the value itself needs checking.
                    assert_eq!(attributes.get("class"), Some("nav"));
                }
                StreamToken::Close { name } => assert!(matches!(name, Cow::Borrowed(_))),
                StreamToken::Text(text) => assert!(matches!(text, Cow::Borrowed(_))),
            }
        }
    }

    /// Lazily-parsed attributes answer lookups like the owned map: names
    /// lower-cased, values as written, duplicates resolved to the last.
    #[test]
    fn raw_attrs_lookup_semantics() {
        let html = r#"<div CLASS="Big" data-x=1 data-x=2 hidden>x</div>"#;
        let Some(StreamToken::Open { attributes, .. }) = Tokens::new(html).next() else {
            panic!("expected an open tag");
        };
        assert_eq!(attributes.get("class").unwrap(), "Big");
        assert_eq!(attributes.get("data-x").unwrap(), "2");
        assert_eq!(attributes.get("hidden").unwrap(), "");
        assert_eq!(attributes.get("missing"), None);
        assert!(!attributes.is_empty());
        assert_eq!(attributes.iter().count(), 4);
    }
}
