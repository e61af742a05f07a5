//! A cached category database, modelling how the paper's analysis scripts
//! query the ThreatSeeker service once per domain and reuse the answers.

use crate::keyword::KeywordClassifier;
use rws_corpus::{Corpus, SiteCategory, SiteSpec};
use rws_domain::DomainName;
use rws_engine::EngineContext;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A domain → category lookup table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CategoryDatabase {
    entries: BTreeMap<DomainName, SiteCategory>,
}

impl CategoryDatabase {
    /// An empty database.
    pub fn new() -> CategoryDatabase {
        CategoryDatabase::default()
    }

    /// Build the database by running the keyword classifier over every live
    /// site in a corpus (offline sites get [`SiteCategory::Unknown`], like
    /// unfetchable URLs do in the real service), one pool task per site on
    /// the context's pool. Classification of a page is a pure function of
    /// its domain and HTML, and the results are stitched back in the
    /// corpus's (sorted) site order, so the database is field-for-field
    /// identical whether the context is pooled or sequential — the
    /// equivalence the classify property tests assert.
    ///
    /// Each task streams its page *borrowed* out of the corpus's frozen
    /// store straight into the keyword automaton: no lock is taken and no
    /// page `String` is cloned anywhere on the pooled path.
    ///
    /// The sweep runs under the context's [`SupervisionPolicy`]: fail-fast
    /// by default (a panicking site takes the build down, as before), or —
    /// under salvage — a panicking site is quarantined in the context's
    /// monitor and simply omitted from the database, so lookups for it
    /// answer [`SiteCategory::Unknown`], exactly like an unfetchable URL.
    ///
    /// [`SupervisionPolicy`]: rws_engine::SupervisionPolicy
    pub fn classify_corpus_on(corpus: &Corpus, ctx: &EngineContext) -> CategoryDatabase {
        let classifier = KeywordClassifier::new();
        let sites: Vec<&SiteSpec> = corpus.sites.values().collect();
        let categories: Vec<Option<SiteCategory>> = ctx
            .par_map_supervised("classify", &sites, |_, spec| {
                site_category(&classifier, corpus, spec)
            })
            .0;
        let mut db = CategoryDatabase::new();
        for (spec, category) in sites.into_iter().zip(categories) {
            if let Some(category) = category {
                db.insert(spec.domain.clone(), category);
            }
        }
        db
    }

    /// Build the database from the corpus's ground-truth categories — the
    /// "oracle" variant used when an experiment needs the true labels rather
    /// than classifier output.
    pub fn from_ground_truth(corpus: &Corpus) -> CategoryDatabase {
        let mut db = CategoryDatabase::new();
        for spec in corpus.sites.values() {
            db.insert(spec.domain.clone(), spec.category);
        }
        db
    }

    /// Insert or replace an entry.
    pub fn insert(&mut self, domain: DomainName, category: SiteCategory) {
        self.entries.insert(domain, category);
    }

    /// Look a domain up; unknown domains return [`SiteCategory::Unknown`].
    pub fn category_of(&self, domain: &DomainName) -> SiteCategory {
        self.entries
            .get(domain)
            .copied()
            .unwrap_or(SiteCategory::Unknown)
    }

    /// True if the two domains share a category (both must be known).
    pub fn same_category(&self, a: &DomainName, b: &DomainName) -> bool {
        match (self.entries.get(a), self.entries.get(b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// The stored category of a domain, or `None` when the domain was never
    /// classified. Unlike [`category_of`](Self::category_of) this preserves
    /// the known/unknown distinction [`same_category`](Self::same_category)
    /// relies on, so sweeps can precompute it once per domain instead of
    /// paying two tree walks per pair.
    pub fn known_category(&self, domain: &DomainName) -> Option<SiteCategory> {
        self.entries.get(domain).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&DomainName, SiteCategory)> {
        self.entries.iter().map(|(d, c)| (d, *c))
    }

    /// Agreement rate against another database over the domains both know.
    pub fn agreement_with(&self, other: &CategoryDatabase) -> f64 {
        let common: Vec<&DomainName> = self
            .entries
            .keys()
            .filter(|d| other.entries.contains_key(*d))
            .collect();
        if common.is_empty() {
            return 0.0;
        }
        let agree = common
            .iter()
            .filter(|d| self.category_of(d) == other.category_of(d))
            .count();
        agree as f64 / common.len() as f64
    }
}

/// The category of one site: the classifier's verdict on its front page
/// when it is live, [`SiteCategory::Unknown`] otherwise. The page is
/// borrowed from the frozen store and streamed straight into the
/// automaton: zero copies per site.
fn site_category(classifier: &KeywordClassifier, corpus: &Corpus, spec: &SiteSpec) -> SiteCategory {
    if !spec.live {
        return SiteCategory::Unknown;
    }
    corpus
        .with_html(&spec.domain, |html| classifier.classify(&spec.domain, html))
        .unwrap_or(SiteCategory::Unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_corpus::{CorpusConfig, CorpusGenerator};
    use rws_engine::EngineContext;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = CategoryDatabase::new();
        assert!(db.is_empty());
        db.insert(dn("news.example"), SiteCategory::NewsAndMedia);
        db.insert(dn("shop.example"), SiteCategory::Shopping);
        assert_eq!(
            db.category_of(&dn("news.example")),
            SiteCategory::NewsAndMedia
        );
        assert_eq!(
            db.category_of(&dn("missing.example")),
            SiteCategory::Unknown
        );
        assert_eq!(db.len(), 2);
        assert!(!db.same_category(&dn("news.example"), &dn("shop.example")));
        assert!(!db.same_category(&dn("news.example"), &dn("missing.example")));
        db.insert(dn("other-news.example"), SiteCategory::NewsAndMedia);
        assert!(db.same_category(&dn("news.example"), &dn("other-news.example")));
    }

    #[test]
    fn ground_truth_database_covers_every_site() {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(9)).generate_with(&EngineContext::embedded());
        let db = CategoryDatabase::from_ground_truth(&corpus);
        assert_eq!(db.len(), corpus.sites.len());
        for spec in corpus.sites.values() {
            assert_eq!(db.category_of(&spec.domain), spec.category);
        }
    }

    #[test]
    fn classifier_database_agrees_reasonably_with_ground_truth() {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(9)).generate_with(&EngineContext::embedded());
        let classified =
            CategoryDatabase::classify_corpus_on(&corpus, &EngineContext::sequential());
        let truth = CategoryDatabase::from_ground_truth(&corpus);
        assert_eq!(classified.len(), truth.len());
        let agreement = classified.agreement_with(&truth);
        assert!(
            agreement > 0.5,
            "classifier/ground-truth agreement {agreement} unexpectedly low"
        );
    }

    #[test]
    fn agreement_with_empty_is_zero() {
        let db = CategoryDatabase::new();
        assert_eq!(db.agreement_with(&CategoryDatabase::new()), 0.0);
    }

    #[test]
    fn pooled_corpus_classification_matches_sequential() {
        let corpus =
            CorpusGenerator::new(CorpusConfig::small(11)).generate_with(&EngineContext::embedded());
        let sequential =
            CategoryDatabase::classify_corpus_on(&corpus, &EngineContext::sequential());
        let ctx = EngineContext::new();
        let pooled = CategoryDatabase::classify_corpus_on(&corpus, &ctx);
        let inline = CategoryDatabase::classify_corpus_on(&corpus, &ctx.sequential_twin());
        assert_eq!(pooled, sequential);
        assert_eq!(inline, sequential);
    }
}
