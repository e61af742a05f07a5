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
//!   [`KeywordAutomaton`] and sorts only the class names holding a
//!   vocabulary word; the seed implementation (three tokenizations + a
//!   per-keyword haystack rescan) survives as `classify_naive`, the
//!   property-tested oracle;
//! * [`CategoryDatabase`] — a lookup service pre-populated from classifier
//!   output (or corpus ground truth), modelling how the paper's scripts
//!   query ThreatSeeker once and cache the answers. Corpus-wide builds fan
//!   one pool task per site over an `EngineContext`
//!   ([`CategoryDatabase::classify_corpus_on`]) with deterministic insert
//!   order.

pub mod automaton;
pub mod database;
pub mod keyword;

pub use automaton::KeywordAutomaton;
pub use database::CategoryDatabase;
pub use keyword::KeywordClassifier;
pub use rws_corpus::SiteCategory;
