//! Keyword-based content classification.
//!
//! Two implementations count hits by the crate's one definition (see the
//! crate doc) over the vocabulary below:
//!
//! * [`KeywordClassifier::classify`] — the production path: one forward
//!   pass over the page bytes (`rws_html::RawTokens`, no lower-cased names
//!   and no collapsed text), feeding each text run straight to the
//!   compiled [`KeywordAutomaton`] (no joined copy of the page, no
//!   per-keyword rescans). Title runs and class names stay `&str` slices
//!   of the page, and only the distinct class names that hold a
//!   vocabulary word are fed, each as a segment of its own;
//! * [`KeywordClassifier::classify_naive`] — the equivalence oracle: the
//!   three owned extractors of `rws_html` and the domain give the
//!   segments, split into word lists, and each keyword is counted as the
//!   equal word windows of each segment.

use crate::automaton::KeywordAutomaton;
use rws_corpus::SiteCategory;
use rws_domain::DomainName;
use rws_html::{class_names, class_set, text_content, title, RawToken, RawTokens};

/// Vocabulary associated with each category, each keyword a sequence of
/// words separated by single spaces. Matching is case-insensitive and
/// counts every occurrence in the page's visible text, its title, its CSS
/// class names and its domain.
pub(crate) const CATEGORY_KEYWORDS: &[(SiteCategory, &[&str])] = &[
    (
        SiteCategory::NewsAndMedia,
        &[
            "news",
            "breaking",
            "headlines",
            "politics",
            "editorial",
            "report",
            "press",
            "journal",
            "daily",
            "wire",
        ],
    ),
    (
        SiteCategory::InformationTechnology,
        &[
            "software",
            "developer",
            "api",
            "platform",
            "release notes",
            "docs",
            "code",
            "tech",
            "cloud",
        ],
    ),
    (
        SiteCategory::BusinessAndEconomy,
        &[
            "business",
            "finance",
            "investors",
            "markets",
            "services",
            "corporate",
            "economy",
        ],
    ),
    (
        SiteCategory::SearchEnginesAndPortals,
        &[
            "search",
            "portal",
            "directory",
            "results",
            "explore",
            "query",
        ],
    ),
    (
        SiteCategory::SocialNetworking,
        &["friends", "share", "community", "follow", "feed", "social"],
    ),
    (
        SiteCategory::AnalyticsInfrastructure,
        &[
            "analytics",
            "tracking",
            "measurement",
            "pixel",
            "tag",
            "cdn",
            "static",
            "endpoint",
        ],
    ),
    (
        SiteCategory::Shopping,
        &[
            "shop",
            "cart",
            "checkout",
            "products",
            "free shipping",
            "store",
            "buy",
        ],
    ),
    (
        SiteCategory::Entertainment,
        &[
            "entertainment",
            "stream",
            "movies",
            "music",
            "celebrity",
            "tickets",
        ],
    ),
    (
        SiteCategory::Travel,
        &["travel", "hotel", "flight", "booking", "tourism"],
    ),
    (SiteCategory::Games, &["games", "gaming", "play", "esports"]),
    (SiteCategory::AdultContent, &["adult", "explicit", "mature"]),
];

/// A deterministic keyword classifier over page content.
#[derive(Debug, Clone, Default)]
pub struct KeywordClassifier {
    /// Minimum total keyword hits required before committing to a category;
    /// pages below the threshold classify as [`SiteCategory::Unknown`].
    pub min_hits: usize,
}

impl KeywordClassifier {
    /// Create a classifier with the default threshold (2 hits).
    pub fn new() -> KeywordClassifier {
        KeywordClassifier { min_hits: 2 }
    }

    /// Classify a site from its domain and front-page HTML.
    ///
    /// The domain is included because the real ThreatSeeker database keys on
    /// URLs: domain tokens such as `shop` or `news` count as evidence too.
    ///
    /// One forward pass over the page bytes ([`RawTokens`], which skips
    /// comments, declarations and `<script>`/`<style>` raw text exactly as
    /// the tokenizer does) scores every word against the compiled keyword
    /// automaton. Text runs go to the matcher as the raw slices of the page:
    /// whitespace collapse cannot change the alphanumeric word split, so no
    /// collapsed copy is needed. The title runs and class names are fed
    /// afterwards, then the domain, with the in-flight sequences cleared
    /// before each segment: the title, each distinct class name, the
    /// domain. Tag names are compared ignoring case, and each tag's `class`
    /// value comes from the byte-level `RawAttrs::get`.
    ///
    /// Only class names with a vocabulary word (*live* names) are
    /// deduplicated and fed: in a segment of its own, a name without one
    /// cannot score. A class value with no vocabulary word holds no live
    /// name and is not split; one equal to the previous tag's adds nothing
    /// and is skipped. [`classify_naive`](Self::classify_naive) is the
    /// oracle this is property-tested against.
    pub fn classify(&self, domain: &DomainName, html: &str) -> SiteCategory {
        let automaton = KeywordAutomaton::global();
        let mut matcher = automaton.matcher();
        let mut title_runs: Vec<&str> = Vec::new();
        let mut live: Vec<&str> = Vec::new();
        let mut last_class = None;
        let mut in_title = false;
        let mut title_done = false;
        for token in RawTokens::new(html) {
            match token {
                RawToken::Text(text) => {
                    matcher.feed_text(text);
                    if in_title && !title_done {
                        title_runs.push(text);
                    }
                }
                RawToken::Open {
                    name, attributes, ..
                } => {
                    if name.eq_ignore_ascii_case("title") {
                        in_title = true;
                    }
                    if let Some(value) = attributes.get("class") {
                        // Whitespace never joins two words, so a value
                        // without a vocabulary word holds no live name.
                        if last_class != Some(value) && automaton.has_vocabulary(value) {
                            live.extend(
                                class_names(value).filter(|class| automaton.has_vocabulary(class)),
                            );
                        }
                        last_class = Some(value);
                    }
                }
                RawToken::Close { name } => {
                    if name.eq_ignore_ascii_case("title") {
                        if !title_runs.is_empty() {
                            title_done = true;
                        }
                        in_title = false;
                    }
                }
            }
        }
        matcher.end_segment();
        for run in &title_runs {
            matcher.feed_text(run);
        }
        live.sort_unstable();
        live.dedup();
        for class in live {
            matcher.end_segment();
            matcher.feed_text(class);
        }
        matcher.end_segment();
        matcher.feed_text(domain.as_str());
        matcher.finish(self.min_hits)
    }

    /// The equivalence oracle, built on the owned extractors: the segments
    /// are `text_content`, `title`, each name of `class_set` and the
    /// domain, each split into lower-cased words, and a keyword scores once
    /// per window of consecutive words equal to its own, segment by
    /// segment. Quadratic in page size × vocabulary; not for hot paths.
    #[doc(hidden)]
    pub fn classify_naive(&self, domain: &DomainName, html: &str) -> SiteCategory {
        let mut segments = vec![text_content(html), title(html).unwrap_or_default()];
        segments.extend(class_set(html));
        segments.push(domain.as_str().to_string());
        let segments: Vec<Vec<String>> = segments
            .iter()
            .map(|segment| {
                segment
                    .split(|c: char| !c.is_ascii_alphanumeric())
                    .filter(|w| !w.is_empty())
                    .map(str::to_ascii_lowercase)
                    .collect()
            })
            .collect();

        let mut best: Option<(SiteCategory, usize)> = None;
        for (category, keywords) in CATEGORY_KEYWORDS {
            let mut hits = 0;
            for keyword in *keywords {
                let needle: Vec<&str> = keyword.split(' ').collect();
                for words in &segments {
                    hits += words.windows(needle.len()).filter(|w| *w == needle).count();
                }
            }
            match best {
                Some((_, best_hits)) if best_hits >= hits => {}
                _ => best = Some((*category, hits)),
            }
        }
        match best {
            Some((category, hits)) if hits >= self.min_hits => category,
            _ => SiteCategory::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_corpus::{Brand, CorpusConfig, CorpusGenerator, Language, SiteRole};
    use rws_stats::rng::Xoshiro256StarStar;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn classifies_obvious_pages() {
        let c = KeywordClassifier::new();
        let news = r#"<html><head><title>Daily breaking news</title></head>
            <body><p>Breaking news and politics headlines. Editorial report.</p></body></html>"#;
        assert_eq!(
            c.classify(&dn("somepaper.com"), news),
            SiteCategory::NewsAndMedia
        );

        let shop = r#"<html><head><title>Mega store</title></head>
            <body><div class="cart">Shop our products, add to cart, checkout with free shipping.</div></body></html>"#;
        assert_eq!(
            c.classify(&dn("megastore.com"), shop),
            SiteCategory::Shopping
        );

        let analytics = r#"<html><body><code>tracking pixel tag analytics measurement endpoint</code></body></html>"#;
        assert_eq!(
            c.classify(&dn("trackercdn.net"), analytics),
            SiteCategory::AnalyticsInfrastructure
        );
    }

    #[test]
    fn sparse_pages_are_unknown() {
        let c = KeywordClassifier::new();
        assert_eq!(
            c.classify(&dn("mystery.com"), "<html><body>hello</body></html>"),
            SiteCategory::Unknown
        );
        assert_eq!(c.classify(&dn("empty.com"), ""), SiteCategory::Unknown);
    }

    #[test]
    fn classifier_recovers_template_categories() {
        // Render pages straight from the corpus templates and check the
        // classifier agrees with ground truth most of the time.
        let mut rng = Xoshiro256StarStar::new(21);
        let classifier = KeywordClassifier::new();
        let mut correct = 0usize;
        let mut total = 0usize;
        for category in [
            SiteCategory::NewsAndMedia,
            SiteCategory::InformationTechnology,
            SiteCategory::Shopping,
            SiteCategory::AnalyticsInfrastructure,
            SiteCategory::SearchEnginesAndPortals,
            SiteCategory::SocialNetworking,
        ] {
            for i in 0..10 {
                let brand = Brand::generate(&mut rng);
                let domain = dn(&format!("{}{}.com", brand.slug, i));
                let html =
                    rws_corpus::render_site(&domain, &brand, category, Language::English, &mut rng);
                total += 1;
                if classifier.classify(&domain, &html) == category {
                    correct += 1;
                }
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.7,
            "classifier accuracy too low: {correct}/{total}"
        );
    }

    #[test]
    fn automaton_matches_naive_on_accuracy_corpus() {
        // The same rendered pages the accuracy test classifies: the
        // single-pass automaton must agree with the oracle on every one of
        // them (and on the handcrafted edge cases).
        let mut rng = Xoshiro256StarStar::new(21);
        let classifier = KeywordClassifier::new();
        for category in SiteCategory::ALL {
            for i in 0..8 {
                let brand = Brand::generate(&mut rng);
                let domain = dn(&format!("{}{}.example", brand.slug, i));
                let html =
                    rws_corpus::render_site(&domain, &brand, category, Language::English, &mut rng);
                assert_eq!(
                    classifier.classify(&domain, &html),
                    classifier.classify_naive(&domain, &html),
                    "automaton/naive divergence on a {category:?} page"
                );
            }
        }
        for (domain, html) in [
            ("empty.com", ""),
            ("mystery.com", "<html><body>hello</body></html>"),
            (
                "shipping.example",
                "<p>free shipping</p><p>free free shipping</p>",
            ),
            (
                "title.example",
                "<title>breaking news</title><div class=\"cart cart\">buy</div>",
            ),
            // A keyword split across segment seams, with and without a
            // class name outside the vocabulary sorting between the halves:
            // after the title, between two class names, and before the
            // domain. The `cart` text puts the verdict one hit from the
            // default threshold, so a hit across a seam would flip it.
            (
                "seam.example",
                "cart<title>free</title><p class=\"aaa\">x</p><p class=\"shipping\">y</p>",
            ),
            (
                "seam.example",
                "cart<title>free</title><p class=\"zzz\">x</p><p class=\"shipping\">y</p>",
            ),
            (
                "seam.example",
                "docs<p class=\"a-release\">x</p><p class=\"mid\">y</p><p class=\"notes-y\">z</p>",
            ),
            (
                "seam.example",
                "docs<p class=\"a-release\">x</p><p class=\"zzz\">y</p><p class=\"notes-y\">z</p>",
            ),
            (
                "shipping.example",
                "cart<p class=\"zz-free\">x</p><p class=\"zzz\">y</p>",
            ),
            (
                "shipping.example",
                "cart<p class=\"zz-free\">x</p><p class=\"aaa\">y</p>",
            ),
        ] {
            let domain = dn(domain);
            assert_eq!(
                classifier.classify(&domain, html),
                classifier.classify_naive(&domain, html),
                "automaton/naive divergence on {html:?}"
            );
        }
    }

    #[test]
    fn words_and_segments_decide_multi_word_hits() {
        // No page below holds a vocabulary word outside the split keyword,
        // so at `min_hits` 1 the verdict is Shopping exactly when "free
        // shipping" hits. Both classifiers must say so.
        let classifier = KeywordClassifier { min_hits: 1 };
        for (domain, html, expected) in [
            // Punctuation and word-free text runs only separate words.
            (
                "seam.example",
                "<p>free-shipping</p>",
                SiteCategory::Shopping,
            ),
            (
                "seam.example",
                "<p>free</p><p>-</p><p>shipping</p>",
                SiteCategory::Shopping,
            ),
            (
                "seam.example",
                "<p>free shipping</p>",
                SiteCategory::Shopping,
            ),
            (
                "seam.example",
                "<p class=\"free-shipping\">x</p>",
                SiteCategory::Shopping,
            ),
            // A keyword half inside a longer word is no word.
            (
                "seam.example",
                "<p>cartfree shipping</p>",
                SiteCategory::Unknown,
            ),
            // Class names next to each other in sorted order are two
            // segments, not a phrase.
            (
                "seam.example",
                "<p class=\"free\">x</p><p class=\"shipping\">y</p>",
                SiteCategory::Unknown,
            ),
            // The text → title, title → class, class → domain and text →
            // domain seams.
            (
                "seam.example",
                "<title>shipping</title><p>free</p>",
                SiteCategory::Unknown,
            ),
            (
                "seam.example",
                "<title>free</title><p class=\"shipping\">x</p>",
                SiteCategory::Unknown,
            ),
            (
                "shipping.example",
                "<p class=\"free\">x</p>",
                SiteCategory::Unknown,
            ),
            ("shipping.example", "<p>free</p>", SiteCategory::Unknown),
        ] {
            let domain = dn(domain);
            assert_eq!(
                classifier.classify(&domain, html),
                expected,
                "classify on {html:?}"
            );
            assert_eq!(
                classifier.classify_naive(&domain, html),
                expected,
                "classify_naive on {html:?}"
            );
        }
    }

    #[test]
    fn classifier_handles_generated_corpus_members() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(5))
            .generate_with(&rws_engine::EngineContext::embedded());
        let classifier = KeywordClassifier::new();
        let mut classified = 0usize;
        for spec in corpus
            .sites
            .values()
            .filter(|s| s.live && s.role != SiteRole::SetCctld)
            .take(50)
        {
            let html = corpus.html_of(&spec.domain).unwrap();
            let _category = classifier.classify(&spec.domain, &html);
            classified += 1;
        }
        assert!(classified > 0);
    }
}
