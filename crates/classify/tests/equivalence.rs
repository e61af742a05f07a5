//! Equivalence gates for the classification rework.
//!
//! Three contracts, each property-tested across seeds:
//!
//! * the zero-copy streaming tokenizer reproduces the owned oracle token
//!   for token on every rendered corpus page (the inputs classification
//!   actually runs on — the html crate's own property tests cover
//!   arbitrary/malformed strings);
//! * the single-pass automaton classifier agrees with the retained seed
//!   classifier (`classify_naive`) on every rendered page, every corpus
//!   member, generated pages dense in awkward `class` values, and tag
//!   soup (raw text, comments, titles and keywords split across seams);
//! * `classify_corpus_on` on a pooled context is field-for-field identical
//!   to the same call on `EngineContext::sequential()`, inline, and on a
//!   forced 3-worker pool.

use proptest::prelude::*;
use rws_classify::{CategoryDatabase, KeywordClassifier};
use rws_corpus::{Brand, CorpusConfig, CorpusGenerator, Language, SiteCategory};
use rws_domain::{DomainName, SiteResolver};
use rws_engine::{EngineContext, ThreadPool};
use rws_html::{tokenize, Token, Tokens};
use rws_stats::rng::Xoshiro256StarStar;

fn streamed(html: &str) -> Vec<Token> {
    Tokens::new(html).map(|t| t.to_token()).collect()
}

/// Class values mixing vocabulary words with every separator whose
/// whitespace status differs between byte and char views (`\x0b`, U+00A0,
/// U+0085), repeated names, upper case and non-ASCII names.
const CLASS_VALUES: &[&str] = &[
    "news",
    "cart shop",
    "shop  cart\tnews",
    "Cart\x0bcheckout",
    "cart\x0bcart",
    "\x0cbuy\r\nstore ",
    "tech\u{a0}cloud",
    "tech\u{a0}tech",
    "games\u{85}play",
    "caf\u{e9} music",
    "news news",
    "checkout",
    "cloud",
    "play",
    "",
    " ",
];

/// How a class attribute is written: quoting, attribute-name case, and the
/// separator before it.
const CLASS_ATTRS: &[&str] = &[
    " class=\"{}\"",
    " CLASS='{}'",
    "\x0bclass = \"{}\"",
    "\u{a0}class=\"{}\"",
    " class=\"{}",
];

/// A page whose tags carry class attributes drawn from [`CLASS_VALUES`];
/// each tag is written twice in a row with probability one half, so runs
/// of identical values (which `classify` skips) are common.
fn class_page_strategy() -> impl Strategy<Value = String> {
    let tag = (
        0usize..CLASS_VALUES.len(),
        0usize..CLASS_ATTRS.len(),
        0u8..2,
    )
        .prop_map(|(v, a, repeat)| {
            let attr = CLASS_ATTRS[a].replace("{}", CLASS_VALUES[v]);
            let tag = format!("<div{attr}>x</div>");
            if repeat == 0 {
                tag.clone() + &tag
            } else {
                tag
            }
        });
    proptest::collection::vec(tag, 0..8).prop_map(|tags| {
        format!(
            "<html><head><title>Daily</title></head><body>{}</body></html>",
            tags.concat()
        )
    })
}

/// Page fragments for the tag-soup test: titles (upper-case, empty,
/// markup-nested, unbalanced), vocabulary inside `<script>`/`<style>` raw
/// text, comments and declarations, upper-case tag and attribute names,
/// non-ASCII whitespace, a `>` inside a quoted value, and multi-word
/// keywords split across tags and across the text/title/class seams.
/// Every text run and class name holds a word: a word-free run or name
/// between two keyword halves separates them in the seed's substring
/// haystack but not in the word stream, so the two classifiers are not
/// compared there.
const SOUP_FRAGMENTS: &[&str] = &[
    "<title>free</title>",
    "<TITLE >Release</TITLE>",
    "<title></title>",
    "<title><b>breaking</b> news</title>",
    "<title>",
    "</title>",
    "</ TITLE >",
    "<script>news shop cart</script>",
    "<SCRIPT type=\"x\">free shipping</SCRIPT>",
    "<style>.cart { color: red }</style>",
    "<style>x</style",
    "<!-- news -->",
    "<!doctype html>",
    "<?x news?>",
    "<b>free</b> shipping",
    " free ",
    " shipping ",
    " release ",
    " notes ",
    "<p>Free\u{a0}Shipping</p>",
    "<p>\u{85}news\u{2003}daily</p>",
    "<div class=\"a-release\">x</div>",
    "<div class=\"notes-y\">y</div>",
    "<div class=\"mid\">z</div>",
    "<div class='free shipping'>q</div>",
    "<DIV CLASS=\"cart News\">shop</DIV>",
    "<span\u{a0}class=\"store\">buy</span>",
    "<div class=\"a>b\">c</div>",
    "<div class=\"tech\u{a0}cloud\">k</div>",
    "<div class=\"zz-free\">w</div>",
    "<div class=\"zzz\">v</div>",
];

/// Fragments that only end a page: unterminated forms swallow the rest.
const SOUP_ENDINGS: &[&str] = &[
    "",
    "<div class=\"",
    "<div class=\"cart",
    "<!-- unterminated news",
    "<script>unterminated shop",
    "<style>unterminated cart",
    "<title>dangling free",
];

/// Domains whose words continue a keyword a class or text run started.
const SOUP_DOMAINS: &[&str] = &[
    "soup.example",
    "notes.example",
    "shipping.example",
    "news.example",
];

/// A tag-soup page and its domain.
fn tag_soup_strategy() -> impl Strategy<Value = (String, &'static str)> {
    (
        proptest::collection::vec(0usize..SOUP_FRAGMENTS.len(), 0..12),
        0usize..SOUP_ENDINGS.len(),
        0usize..SOUP_DOMAINS.len(),
    )
        .prop_map(|(parts, ending, domain)| {
            let mut html: String = parts.iter().map(|&p| SOUP_FRAGMENTS[p]).collect();
            html.push_str(SOUP_ENDINGS[ending]);
            (html, SOUP_DOMAINS[domain])
        })
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

    /// `classify` ≡ `classify_naive` on pages built from the same class
    /// values: borrowed class names, the ASCII split with its
    /// `split_whitespace` fallback, and the repeated-value skip all score
    /// like the seed's owned class set. Several thresholds make the verdict
    /// sensitive to single-hit differences.
    #[test]
    fn classify_matches_naive_on_class_dense_pages(html in class_page_strategy()) {
        let domain = DomainName::parse("classes.example").unwrap();
        for min_hits in 1..=8 {
            let classifier = KeywordClassifier { min_hits };
            prop_assert_eq!(
                classifier.classify(&domain, &html),
                classifier.classify_naive(&domain, &html),
                "divergence at min_hits {} on {:?}", min_hits, html
            );
        }
    }

    /// `classify` ≡ `classify_naive` on tag soup: raw-text and comment
    /// skipping (terminated or not), the title rules, class lookup on
    /// upper-case and Unicode-separated attributes, and keywords whose
    /// words straddle a tag or the text/title/class/domain seams.
    #[test]
    fn classify_matches_naive_on_tag_soup((html, domain) in tag_soup_strategy()) {
        let domain = DomainName::parse(domain).unwrap();
        for min_hits in 1..=8 {
            let classifier = KeywordClassifier { min_hits };
            prop_assert_eq!(
                classifier.classify(&domain, &html),
                classifier.classify_naive(&domain, &html),
                "divergence at min_hits {} on {:?}", min_hits, html
            );
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
