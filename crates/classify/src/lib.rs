//! Forcepoint-ThreatSeeker-style site categorisation.
//!
//! The paper labels set primaries, associated sites and Tranco comparison
//! sites with categories from the Forcepoint ThreatSeeker database (Figures
//! 8 and 9, and the construction of survey groups 3 and 4). That database is
//! a commercial, online service; this crate substitutes a deterministic
//! content classifier with the same interface: give it a domain and its
//! front-page HTML, get back a [`SiteCategory`].
//!
//! Two classification paths are provided:
//!
//! * [`KeywordClassifier`] — inspects the page's visible text, title and CSS
//!   for category-specific vocabulary (the synthetic templates embed the
//!   same vocabulary, so accuracy is high but intentionally not perfect:
//!   pages with little text fall back to [`SiteCategory::Unknown`], like the
//!   real database's "unknown" rows in Figures 8 and 9). Production
//!   classification is one forward pass over the page bytes
//!   (`rws_html::RawTokens`) that feeds text runs straight to the compiled
//!   [`KeywordAutomaton`] and deduplicates only the class names holding a
//!   vocabulary word; `classify_naive`, built on the owned extractors and
//!   per-segment word windows, is the property-tested oracle;
//! * [`CategoryDatabase`] — a lookup service pre-populated from classifier
//!   output (or corpus ground truth), modelling how the paper's scripts
//!   query ThreatSeeker once and cache the answers. Corpus-wide builds fan
//!   one pool task per site over an `EngineContext`
//!   ([`CategoryDatabase::classify_corpus_on`]) with deterministic insert
//!   order.
//!
//! # What counts as a keyword hit
//!
//! A keyword is a sequence of words. A word is a run of ASCII
//! alphanumerics, compared ignoring case; everything else, punctuation and
//! non-ASCII text included, separates words. A single-word keyword hits
//! once per equal word. A multi-word keyword ("free shipping", "release
//! notes") hits once per place where its words are consecutive inside one
//! *segment*. A page has four kinds of segment: its text (every text run
//! in document order, so `<b>free</b> shipping` hits), its title, each
//! distinct class name, and its domain.
//!
//! ThreatSeeker is a black box, so the rule is argued from page text: the
//! stand-in should count what a reader of the page sees.
//!
//! * A substring rule counts `cartfree shipping` as "free shipping", yet
//!   single words must match whole (`newsletter`, on every site's sign-up
//!   form, is not `news`). It also misses `free-shipping`, where a hyphen
//!   joins two words a reader sees.
//! * Segments keep apart what the page never puts together. Two class
//!   names that are neighbours in sorted order are not a phrase on the
//!   page, and neither are the end of the text and the start of the title,
//!   or a class name and the domain.

pub mod automaton;
pub mod database;
pub mod keyword;

pub use automaton::KeywordAutomaton;
pub use database::CategoryDatabase;
pub use keyword::KeywordClassifier;
pub use rws_corpus::SiteCategory;
