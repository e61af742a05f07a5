//! The single-pass keyword automaton behind [`crate::KeywordClassifier`].
//!
//! The seed classifier rescans the page once per keyword (~70 keywords ×
//! every word on the page). The automaton inverts that: a process-wide
//! token → (category, hit-weight) map is built once from
//! [`CATEGORY_KEYWORDS`](crate::keyword), and classification becomes a
//! single pass over the page's word stream — each word costs one
//! prefilter probe (first byte × last byte × length), and only words that
//! could be keyword vocabulary pay one FNV hash lookup; a small side matcher
//! advances the few multi-word keywords ("release notes", "free
//! shipping") as word sequences.
//!
//! Matching semantics follow the seed classifier: single-word keywords hit
//! on exact word matches over the alphanumeric word split, case-insensitive.
//! Multi-word keywords hit when their words appear as consecutive words of
//! the stream — the seed's substring scan and this word-sequence rule agree
//! on natural text (the property tests assert equality over every rendered
//! corpus page), and the seed path is retained as
//! [`KeywordClassifier::classify_naive`](crate::KeywordClassifier::classify_naive)
//! to keep that contract checkable.

use crate::keyword::CATEGORY_KEYWORDS;
use rws_corpus::SiteCategory;
use rws_stats::memo::FnvBuildHasher;
use rws_stats::swar::boundary_mask8;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::OnceLock;

/// Upper bound on distinct categories, sized so a matcher's hit counters
/// live on the stack.
const MAX_CATEGORIES: usize = 16;

/// Vocabulary words are shorter than this, so the prefilter's saturated
/// length bit (31) is never set and a word that passes the probe fits a
/// stack buffer for lower-casing.
const MAX_WORD_LEN: usize = 31;

/// What feeding a string to a [`TokenMatcher`] can do, judged from its
/// alphanumeric words alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Words {
    /// No words: feeding it changes nothing.
    None,
    /// Words, none of them vocabulary: feeding it only breaks the
    /// adjacency of in-flight multi-word sequences.
    Inert,
    /// At least one vocabulary word.
    Live,
}

/// A multi-word keyword, matched as a sequence of consecutive words.
#[derive(Debug)]
struct MultiKeyword {
    words: Vec<&'static str>,
    category: u8,
}

/// What one vocabulary token means: the (category, weight) hits it scores
/// as a single-word keyword, and the multi-word sequences it starts.
#[derive(Debug, Default)]
struct Entry {
    hits: Vec<(u8, u32)>,
    starts: Vec<u16>,
}

/// The compiled keyword tables: one FNV-hashed map from vocabulary tokens
/// to their `Entry`, the multi-word sequences, and a (first byte ×
/// length) prefilter that rejects the overwhelming majority of page words
/// without hashing at all. Built once per process
/// ([`KeywordAutomaton::global`]).
#[derive(Debug)]
pub struct KeywordAutomaton {
    /// Categories in [`CATEGORY_KEYWORDS`] order — the tie-break order the
    /// seed classifier iterates in.
    categories: Vec<SiteCategory>,
    /// Vocabulary token → its hits and sequence starts; a word that only
    /// continues a sequence has an empty entry.
    entries: HashMap<&'static str, Entry, FnvBuildHasher>,
    /// All multi-word keywords.
    multi: Vec<MultiKeyword>,
    /// `prefilter[slot(word)]` has bit `min(len, 31)` set when some
    /// vocabulary word (single, sequence start or sequence continuation)
    /// has that slot and length; the slot packs the low five bits of the
    /// first and last bytes. Those bits are the same for a letter in either
    /// case, so the probe needs no lower-casing. A word that fails the
    /// probe cannot score or advance anything.
    prefilter: [u32; 1024],
}

/// Call `f(start, end)` on the span of every alphanumeric word of `bytes`
/// in order, until it breaks. A SWAR movemask flags the non-alphanumeric
/// boundary bytes eight at a time, and a tail shorter than eight bytes is
/// read as the last eight bytes with the lanes already seen shifted out.
/// The boundary predicate is ASCII-only and every byte of a multi-byte
/// UTF-8 character is a boundary byte, so the spans are exactly the words
/// of `text.split(|c: char| !c.is_ascii_alphanumeric())`.
#[inline]
fn for_each_word<B>(
    bytes: &[u8],
    mut f: impl FnMut(usize, usize) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let len = bytes.len();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < len {
        let mut mask = match boundary_mask8(bytes, i) {
            Some(mask) => mask,
            None if len >= 8 => boundary_mask8(bytes, len - 8).map_or(0, |m| m >> (i + 8 - len)),
            None => bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.is_ascii_alphanumeric())
                .fold(0, |m, (k, _)| m | 1 << k),
        };
        while mask != 0 {
            let boundary = i + mask.trailing_zeros() as usize;
            if boundary > start {
                f(start, boundary)?;
            }
            start = boundary + 1;
            mask &= mask - 1;
        }
        i += 8;
    }
    if len > start {
        f(start, len)?;
    }
    ControlFlow::Continue(())
}

/// The prefilter slot of a non-empty word: the low five bits of its first
/// byte, then of its last byte.
#[inline]
fn slot(word: &[u8]) -> usize {
    ((word[0] & 31) as usize) << 5 | (word[word.len() - 1] & 31) as usize
}

impl KeywordAutomaton {
    /// The process-wide automaton over the classifier's vocabulary.
    pub fn global() -> &'static KeywordAutomaton {
        static AUTOMATON: OnceLock<KeywordAutomaton> = OnceLock::new();
        AUTOMATON.get_or_init(KeywordAutomaton::build)
    }

    fn build() -> KeywordAutomaton {
        assert!(
            CATEGORY_KEYWORDS.len() <= MAX_CATEGORIES,
            "grow MAX_CATEGORIES to cover the keyword table"
        );
        let mut categories = Vec::with_capacity(CATEGORY_KEYWORDS.len());
        let mut entries: HashMap<&'static str, Entry, FnvBuildHasher> = HashMap::default();
        let mut multi: Vec<MultiKeyword> = Vec::new();
        let mut prefilter = [0u32; 1024];
        let mut admit = |word: &str| {
            assert!(
                word.len() < MAX_WORD_LEN,
                "grow MAX_WORD_LEN to cover the keyword table"
            );
            prefilter[slot(word.as_bytes())] |= 1u32 << word.len().min(31);
        };
        for (ci, (category, keywords)) in CATEGORY_KEYWORDS.iter().enumerate() {
            categories.push(*category);
            for keyword in *keywords {
                let mut words = keyword.split(' ').filter(|w| !w.is_empty());
                let first = words.next().expect("keywords are non-empty");
                let rest: Vec<&'static str> = words.collect();
                admit(first);
                if rest.is_empty() {
                    let entry = entries.entry(first).or_default();
                    match entry.hits.iter_mut().find(|(c, _)| *c as usize == ci) {
                        Some((_, weight)) => *weight += 1,
                        None => entry.hits.push((ci as u8, 1)),
                    }
                } else {
                    // Continuation words must pass the prefilter too, or
                    // in-flight sequences could never advance; their empty
                    // entries mark them as vocabulary.
                    for word in &rest {
                        admit(word);
                        entries.entry(word).or_default();
                    }
                    let mut sequence = vec![first];
                    sequence.extend(rest);
                    let idx = multi.len() as u16;
                    multi.push(MultiKeyword {
                        words: sequence,
                        category: ci as u8,
                    });
                    entries.entry(first).or_default().starts.push(idx);
                }
            }
        }
        KeywordAutomaton {
            categories,
            entries,
            multi,
            prefilter,
        }
    }

    /// Classify `text` by its words (the alphanumeric split of
    /// [`TokenMatcher::feed_text`]): [`Words::Live`] as soon as one is
    /// vocabulary (a single keyword, a sequence start or a sequence
    /// continuation), else [`Words::Inert`] when it has any word at all.
    /// Fed to a matcher, a non-vocabulary word can neither score nor start
    /// nor advance a sequence; it only clears the in-flight candidates.
    pub(crate) fn words(&self, text: &str) -> Words {
        let mut kind = Words::None;
        let flow = for_each_word(text.as_bytes(), |start, end| {
            if self.is_vocabulary(&text[start..end]) {
                return ControlFlow::Break(());
            }
            kind = Words::Inert;
            ControlFlow::Continue(())
        });
        if flow.is_break() {
            Words::Live
        } else {
            kind
        }
    }

    /// True when a non-empty alphanumeric word is vocabulary, ignoring
    /// ASCII case.
    fn is_vocabulary(&self, word: &str) -> bool {
        let bytes = word.as_bytes();
        if !self.admits(bytes) {
            return false;
        }
        if !bytes.iter().any(u8::is_ascii_uppercase) {
            return self.entries.contains_key(word);
        }
        // Passing the probe bounds the length below `MAX_WORD_LEN`.
        let mut lower = [0u8; MAX_WORD_LEN];
        let lower = &mut lower[..bytes.len()];
        lower.copy_from_slice(bytes);
        lower.make_ascii_lowercase();
        std::str::from_utf8(lower).is_ok_and(|w| self.entries.contains_key(w))
    }

    /// The prefilter probe for a non-empty word.
    #[inline]
    fn admits(&self, word: &[u8]) -> bool {
        self.prefilter[slot(word)] & (1u32 << word.len().min(31)) != 0
    }

    /// A fresh matcher over this automaton, ready to be fed words.
    pub fn matcher(&self) -> TokenMatcher<'_> {
        TokenMatcher {
            automaton: self,
            hits: [0; MAX_CATEGORIES],
            active: Vec::new(),
            lower_buf: String::new(),
        }
    }
}

/// Streaming matcher state: per-category hit counters plus the in-flight
/// multi-word candidates. Feed it every word of the page (in haystack
/// order), then ask [`finish`](Self::finish) for the category.
#[derive(Debug)]
pub struct TokenMatcher<'a> {
    automaton: &'a KeywordAutomaton,
    hits: [usize; MAX_CATEGORIES],
    /// (multi keyword index, next expected word index) candidates.
    active: Vec<(u16, u8)>,
    /// Reused buffer for the rare words that need ASCII lower-casing.
    lower_buf: String,
}

impl TokenMatcher<'_> {
    /// Feed one word (case-insensitive; lower-casing is handled here so
    /// callers can pass borrowed slices straight from the token stream).
    #[inline]
    pub fn feed(&mut self, word: &str) {
        let bytes = word.as_bytes();
        if bytes.is_empty() {
            return;
        }
        // The hot path: most page words share no first byte, last byte and
        // length with any vocabulary word, and one array read settles them.
        if !self.automaton.admits(bytes) {
            // Not vocabulary: its only effect is breaking word adjacency
            // for any in-flight multi-word sequence.
            self.active.clear();
            return;
        }
        if bytes.iter().any(|b| b.is_ascii_uppercase()) {
            let mut buf = std::mem::take(&mut self.lower_buf);
            buf.clear();
            buf.push_str(word);
            buf.make_ascii_lowercase();
            self.step(&buf);
            self.lower_buf = buf;
        } else {
            self.step(word);
        }
    }

    /// Split a text run into alphanumeric words (the seed classifier's word
    /// boundary rule) and feed each. A SWAR movemask flags the boundary
    /// bytes eight at a time, and the per-word prefilter probe runs inline
    /// on the span, without the per-byte branch of
    /// [`feed_text_naive`](Self::feed_text_naive). Each word is pure ASCII,
    /// so slicing at its byte offsets stays on char boundaries.
    pub fn feed_text(&mut self, text: &str) {
        let _ = for_each_word(text.as_bytes(), |start, end| {
            self.feed_span(text, start, end);
            ControlFlow::<()>::Continue(())
        });
    }

    /// The seed per-byte word split, retained as the equivalence oracle for
    /// [`feed_text`](Self::feed_text).
    pub fn feed_text_naive(&mut self, text: &str) {
        let bytes = text.as_bytes();
        let mut start = 0usize;
        for (i, b) in bytes.iter().enumerate() {
            if !b.is_ascii_alphanumeric() {
                if i > start {
                    self.feed(&text[start..i]);
                }
                start = i + 1;
            }
        }
        if bytes.len() > start {
            self.feed(&text[start..]);
        }
    }

    /// Feed a non-empty word span of `text`, probing the prefilter inline.
    /// Identical in effect to [`feed`](Self::feed) on `&text[start..end]`,
    /// minus the redundant clear of an already-empty candidate list.
    #[inline]
    fn feed_span(&mut self, text: &str, start: usize, end: usize) {
        let word = &text[start..end];
        let bytes = word.as_bytes();
        if !self.automaton.admits(bytes) {
            if !self.active.is_empty() {
                self.active.clear();
            }
            return;
        }
        if bytes.iter().any(|b| b.is_ascii_uppercase()) {
            let mut buf = std::mem::take(&mut self.lower_buf);
            buf.clear();
            buf.push_str(word);
            buf.make_ascii_lowercase();
            self.step(&buf);
            self.lower_buf = buf;
        } else {
            self.step(word);
        }
    }

    fn step(&mut self, word: &str) {
        // Advance in-flight multi-word candidates; completed ones score,
        // mismatches drop.
        let mut kept = 0;
        for idx in 0..self.active.len() {
            let (m, pos) = self.active[idx];
            let keyword = &self.automaton.multi[m as usize];
            if keyword.words[pos as usize] == word {
                if pos as usize + 1 == keyword.words.len() {
                    self.hits[keyword.category as usize] += 1;
                } else {
                    self.active[kept] = (m, pos + 1);
                    kept += 1;
                }
            }
        }
        self.active.truncate(kept);
        // Score single-word hits and start new multi-word candidates.
        if let Some(entry) = self.automaton.entries.get(word) {
            for &(category, weight) in &entry.hits {
                self.hits[category as usize] += weight as usize;
            }
            for &m in &entry.starts {
                self.active.push((m, 1));
            }
        }
    }

    /// True while a multi-word keyword is in flight: only then can a word
    /// outside the vocabulary change the matcher's state.
    pub(crate) fn in_sequence(&self) -> bool {
        !self.active.is_empty()
    }

    /// Total hits accumulated for a category.
    pub fn hits_for(&self, category: SiteCategory) -> usize {
        self.automaton
            .categories
            .iter()
            .position(|c| *c == category)
            .map(|i| self.hits[i])
            .unwrap_or(0)
    }

    /// Resolve the best category, replicating the seed classifier's
    /// selection exactly: first category (in vocabulary order) with the
    /// strictly highest hit count, `Unknown` below the threshold.
    pub fn finish(&self, min_hits: usize) -> SiteCategory {
        let mut best: Option<(SiteCategory, usize)> = None;
        for (i, category) in self.automaton.categories.iter().enumerate() {
            let hits = self.hits[i];
            match best {
                Some((_, best_hits)) if best_hits >= hits => {}
                _ => best = Some((*category, hits)),
            }
        }
        match best {
            Some((category, hits)) if hits >= min_hits => category,
            _ => SiteCategory::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KeywordAutomaton {
        /// Number of distinct single-word keyword tokens.
        fn single_word_count(&self) -> usize {
            self.entries.values().filter(|e| !e.hits.is_empty()).count()
        }

        /// Number of multi-word keyword sequences.
        fn multi_word_count(&self) -> usize {
            self.multi.len()
        }
    }

    #[test]
    fn automaton_covers_the_vocabulary() {
        let automaton = KeywordAutomaton::global();
        let total: usize = CATEGORY_KEYWORDS.iter().map(|(_, kws)| kws.len()).sum();
        assert_eq!(
            automaton.single_word_count() + automaton.multi_word_count(),
            total,
            "every keyword compiles into exactly one table entry"
        );
        assert_eq!(
            automaton.multi_word_count(),
            2,
            "release notes, free shipping"
        );
    }

    #[test]
    fn single_words_score_their_category() {
        let automaton = KeywordAutomaton::global();
        let mut matcher = automaton.matcher();
        matcher.feed("news");
        matcher.feed("breaking");
        matcher.feed("NEWS");
        assert_eq!(matcher.hits_for(SiteCategory::NewsAndMedia), 3);
        assert_eq!(matcher.finish(2), SiteCategory::NewsAndMedia);
        assert_eq!(matcher.finish(4), SiteCategory::Unknown);
    }

    #[test]
    fn multi_word_sequences_need_adjacency() {
        let automaton = KeywordAutomaton::global();
        let mut matcher = automaton.matcher();
        matcher.feed_text("free shipping on everything");
        assert_eq!(matcher.hits_for(SiteCategory::Shopping), 1);

        let mut broken = automaton.matcher();
        broken.feed_text("free fast shipping");
        assert_eq!(broken.hits_for(SiteCategory::Shopping), 0);

        let mut restart = automaton.matcher();
        restart.feed_text("free free shipping");
        assert_eq!(restart.hits_for(SiteCategory::Shopping), 1);

        // A word outside the vocabulary breaks adjacency even though the
        // prefilter short-circuits it ("zzz" shares no first-byte/length
        // slot with any keyword word).
        let mut severed = automaton.matcher();
        severed.feed_text("free zzzzzzzzzzzzzzzzz shipping");
        assert_eq!(severed.hits_for(SiteCategory::Shopping), 0);
    }

    #[test]
    fn empty_stream_is_unknown() {
        let matcher = KeywordAutomaton::global().matcher();
        assert_eq!(matcher.finish(2), SiteCategory::Unknown);
    }
}
