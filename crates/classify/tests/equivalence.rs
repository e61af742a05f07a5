//! Equivalence gates for the classification rework.
//!
//! Three contracts, each property-tested across seeds:
//!
//! * the zero-copy streaming tokenizer reproduces the owned oracle token
//!   for token on every rendered corpus page (the inputs classification
//!   actually runs on — the html crate's own property tests cover
//!   arbitrary/malformed strings);
//! * the single-pass automaton classifier agrees with the retained seed
//!   classifier (`classify_naive`) on every rendered page and every corpus
//!   member;
//! * `classify_corpus_on` on a pooled context is field-for-field identical
//!   to the same call on `EngineContext::sequential()`, inline, and on a
//!   forced 3-worker pool.

use proptest::prelude::*;
use rws_classify::{CategoryDatabase, KeywordClassifier};
use rws_corpus::{Brand, CorpusConfig, CorpusGenerator, Language, SiteCategory};
use rws_domain::{DomainName, SiteResolver};
use rws_engine::EngineContext;
use rws_html::{tokenize, Token, Tokens};
use rws_stats::pool::ThreadPool;
use rws_stats::rng::Xoshiro256StarStar;

fn streamed(html: &str) -> Vec<Token> {
    Tokens::new(html).map(|t| t.to_token()).collect()
}

proptest! {
    /// Streaming tokenizer ≡ owned `tokenize` over rendered corpus pages:
    /// one page per category, brand and seed drawn from the same generator
    /// the corpus templates use.
    #[test]
    fn streaming_tokenizer_matches_owned_on_rendered_pages(seed in 0u64..1_000_000) {
        let mut rng = Xoshiro256StarStar::new(seed);
        for category in [
            SiteCategory::NewsAndMedia,
            SiteCategory::Shopping,
            SiteCategory::AnalyticsInfrastructure,
            SiteCategory::SocialNetworking,
        ] {
            let brand = Brand::generate(&mut rng);
            let domain = DomainName::parse(&format!("{}.example", brand.slug)).unwrap();
            let html =
                rws_corpus::render_site(&domain, &brand, category, Language::English, &mut rng);
            prop_assert_eq!(streamed(&html), tokenize(&html));
        }
    }

    /// Automaton `classify` ≡ seed `classify_naive` on rendered pages of
    /// every category and language mix the corpus produces.
    #[test]
    fn automaton_classify_matches_naive_on_rendered_pages(seed in 0u64..1_000_000) {
        let classifier = KeywordClassifier::new();
        let mut rng = Xoshiro256StarStar::new(seed);
        for category in SiteCategory::ALL {
            for language in [Language::English, Language::NonEnglish] {
                let brand = Brand::generate(&mut rng);
                let domain = DomainName::parse(&format!("{}.example", brand.slug)).unwrap();
                let html = rws_corpus::render_site(&domain, &brand, category, language, &mut rng);
                prop_assert_eq!(
                    classifier.classify(&domain, &html),
                    classifier.classify_naive(&domain, &html),
                    "divergence on a {:?}/{:?} page", category, language
                );
            }
        }
    }

    /// The SWAR-batched word split (`feed_text`) ≡ the seed per-byte split
    /// (`feed_text_naive`): identical per-category hits and verdicts on
    /// arbitrary text, including non-ASCII and punctuation runs.
    #[test]
    fn batched_word_split_matches_naive_on_arbitrary_text(text in ".{0,300}") {
        let automaton = rws_classify::KeywordAutomaton::global();
        let mut batched = automaton.matcher();
        batched.feed_text(&text);
        let mut naive = automaton.matcher();
        naive.feed_text_naive(&text);
        for category in SiteCategory::ALL {
            prop_assert_eq!(batched.hits_for(category), naive.hits_for(category));
        }
        prop_assert_eq!(batched.finish(1), naive.finish(1));
    }

    /// Same equivalence on rendered corpus pages — the text the classifier
    /// actually consumes, with vocabulary words present.
    #[test]
    fn batched_word_split_matches_naive_on_rendered_pages(seed in 0u64..1_000_000) {
        let automaton = rws_classify::KeywordAutomaton::global();
        let mut rng = Xoshiro256StarStar::new(seed);
        for category in [SiteCategory::NewsAndMedia, SiteCategory::Shopping] {
            let brand = Brand::generate(&mut rng);
            let domain = DomainName::parse(&format!("{}.example", brand.slug)).unwrap();
            let html = rws_corpus::render_site(&domain, &brand, category, Language::English, &mut rng);
            let text = rws_html::text_content(&html);
            let mut batched = automaton.matcher();
            batched.feed_text(&text);
            let mut naive = automaton.matcher();
            naive.feed_text_naive(&text);
            for c in SiteCategory::ALL {
                prop_assert_eq!(batched.hits_for(c), naive.hits_for(c));
            }
        }
    }

    /// Pooled `classify_corpus_on` ≡ sequential `classify_corpus_on` across
    /// corpus seeds — and both, now running on borrowed views out of the
    /// frozen page store, ≡ `classify_corpus_cloning`, the retained PR-4
    /// owned-copy build (one `html_of` String per site). The per-site
    /// streaming/naive agreement holds over every live page too.
    #[test]
    fn corpus_classification_parallel_equivalence(seed in 0u64..1_000_000) {
        let corpus = CorpusGenerator::new(CorpusConfig::small(seed % 61)).generate_with(&EngineContext::embedded());
        let sequential = CategoryDatabase::classify_corpus_on(&corpus, &EngineContext::sequential());
        let ctx = EngineContext::new();
        let pooled = CategoryDatabase::classify_corpus_on(&corpus, &ctx);
        let inline = CategoryDatabase::classify_corpus_on(&corpus, &ctx.sequential_twin());
        let cloning = CategoryDatabase::classify_corpus_cloning(&corpus);
        prop_assert_eq!(&pooled, &sequential);
        prop_assert_eq!(&inline, &sequential);
        prop_assert_eq!(&cloning, &sequential, "borrowed views diverge from the owned-copy oracle");

        let classifier = KeywordClassifier::new();
        for spec in corpus.sites.values().filter(|s| s.live).take(40) {
            let html = corpus.html_of(&spec.domain).unwrap_or_default();
            prop_assert_eq!(
                classifier.classify(&spec.domain, &html),
                classifier.classify_naive(&spec.domain, &html),
                "streaming/naive divergence on corpus member {}", spec.domain
            );
        }
    }
}

/// Same equivalence on a pool with exactly three workers (plus the helping
/// caller), independent of the host's core count — the same forced-pool
/// gate the survey subsystem carries. The pooled build reads borrowed
/// views out of the frozen store from four threads at once and must still
/// match both the sequential build and the owned-copy oracle.
#[test]
fn corpus_classification_on_forced_three_worker_pool() {
    let pool = ThreadPool::new(3);
    assert_eq!(pool.worker_count(), 3);
    let ctx = EngineContext::with_parts(pool, SiteResolver::full());
    for seed in [3u64, 17, 29] {
        let corpus = CorpusGenerator::new(CorpusConfig::small(seed))
            .generate_with(&EngineContext::embedded());
        let pooled = CategoryDatabase::classify_corpus_on(&corpus, &ctx);
        let sequential =
            CategoryDatabase::classify_corpus_on(&corpus, &EngineContext::sequential());
        let cloning = CategoryDatabase::classify_corpus_cloning(&corpus);
        assert_eq!(pooled, sequential, "divergence at corpus seed {seed}");
        assert_eq!(
            pooled, cloning,
            "borrowed/owned divergence at corpus seed {seed}"
        );
    }
}
