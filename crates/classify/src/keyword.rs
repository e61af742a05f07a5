//! Keyword-based content classification.
//!
//! Two implementations share the vocabulary below:
//!
//! * [`KeywordClassifier::classify`] — the production path: one forward
//!   pass over the page bytes (`rws_html::RawTokens`, no lower-cased names
//!   and no collapsed text), feeding each text run straight to the
//!   compiled [`KeywordAutomaton`] (no haystack string, no per-keyword
//!   rescans). Title runs and class names stay `&str` slices of the page,
//!   and only the class names that hold a vocabulary word are sorted and
//!   replayed;
//! * [`KeywordClassifier::classify_naive`] — the seed classifier, kept as
//!   the equivalence oracle: builds an owned lowercase haystack from the
//!   three owned extractors of `rws_html` and scans it once per keyword.

use crate::automaton::{KeywordAutomaton, Words};
use rws_corpus::SiteCategory;
use rws_domain::DomainName;
use rws_html::{class_names, class_set, text_content, title, RawToken, RawTokens};

/// Vocabulary associated with each category. Matching is case-insensitive
/// and counts every occurrence across the page's title, visible text and
/// CSS class names.
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
    /// collapsed copy is needed. The title runs and class names the seed
    /// classifier counted again are replayed afterwards in its haystack
    /// order: text, then the title, then the sorted, deduplicated class
    /// set, then the domain. Tag names are compared ignoring case, and each
    /// tag's `class` value comes from the byte-level `RawAttrs::get`.
    ///
    /// Only class names with a vocabulary word (*live* names) are sorted
    /// and fed. Fed to the matcher, a name whose words are all outside the
    /// vocabulary (*inert*) only breaks the adjacency of in-flight
    /// multi-word keywords, and a name with no word at all has no effect.
    /// So an inert name matters only in the gap between live names it
    /// would sort into, and only while a sequence is in flight there: the
    /// replay then collects the page's inert names, once, and feeds the
    /// one in that gap. A class value with no vocabulary word holds no
    /// live name and is not split; one equal to the previous tag's adds
    /// nothing and is skipped.
    /// [`classify_naive`](Self::classify_naive) is the retained oracle this
    /// is property-tested against.
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
                        if last_class != Some(value) && automaton.words(value) == Words::Live {
                            live.extend(
                                class_names(value)
                                    .filter(|class| automaton.words(class) == Words::Live),
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
        for run in &title_runs {
            matcher.feed_text(run);
        }
        live.sort_unstable();
        live.dedup();
        // Feeding an inert name only clears in-flight sequences, so the
        // gap before each live name (and after the last) needs one only
        // while a sequence is in flight there. No rendered corpus page
        // reaches that; the first time a page does, its inert names are
        // collected and sorted once.
        let mut inert: Option<Vec<&str>> = None;
        let mut lower = None;
        for upper in live.iter().copied().map(Some).chain([None]) {
            if matcher.in_sequence() {
                let inert = inert.get_or_insert_with(|| {
                    let mut names: Vec<&str> = page_class_names(html)
                        .filter(|name| automaton.words(name) == Words::Inert)
                        .collect();
                    names.sort_unstable();
                    names
                });
                let above = inert.partition_point(|name| lower.is_some_and(|l| *name <= l));
                if let Some(name) = inert[above..]
                    .first()
                    .filter(|name| upper.is_none_or(|u| **name < u))
                {
                    matcher.feed_text(name);
                }
            }
            if let Some(class) = upper {
                matcher.feed_text(class);
            }
            lower = upper;
        }
        matcher.feed_text(domain.as_str());
        matcher.finish(self.min_hits)
    }

    /// The seed classifier, retained as the automaton's equivalence oracle:
    /// the owned extractors `text_content`, `title` and `class_set`
    /// build an owned lowercase haystack, which is then rescanned once per
    /// keyword. Quadratic in page size × vocabulary; not for hot paths.
    #[doc(hidden)]
    pub fn classify_naive(&self, domain: &DomainName, html: &str) -> SiteCategory {
        let mut haystack = String::new();
        haystack.push_str(&text_content(html).to_ascii_lowercase());
        haystack.push(' ');
        if let Some(t) = title(html) {
            haystack.push_str(&t.to_ascii_lowercase());
            haystack.push(' ');
        }
        for class in class_set(html) {
            haystack.push_str(&class.to_ascii_lowercase());
            haystack.push(' ');
        }
        haystack.push_str(domain.as_str());

        // Tokenise once so single-word keywords match on word boundaries
        // ("news" must not match the "newsletter" sign-up form every site
        // carries); multi-word keywords fall back to substring search.
        let words: Vec<&str> = haystack
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
            .collect();

        let mut best: Option<(SiteCategory, usize)> = None;
        for (category, keywords) in CATEGORY_KEYWORDS {
            let hits: usize = keywords
                .iter()
                .map(|kw| count_occurrences(&haystack, &words, kw))
                .sum();
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

/// Every class name on the page's tags, in document order.
fn page_class_names(html: &str) -> impl Iterator<Item = &str> {
    RawTokens::new(html)
        .filter_map(|token| match token {
            RawToken::Open { attributes, .. } => attributes.get("class"),
            _ => None,
        })
        .flat_map(class_names)
}

/// Occurrence count of one keyword in the naive haystack: exact word match
/// for single words, substring scan for multi-word phrases.
fn count_occurrences(haystack: &str, words: &[&str], needle: &str) -> usize {
    if needle.is_empty() {
        return 0;
    }
    if needle.contains(' ') {
        haystack.matches(needle).count()
    } else {
        words.iter().filter(|w| **w == needle).count()
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
        // single-pass automaton must agree with the seed classifier on
        // every one of them (and on the handcrafted edge cases).
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
            // A keyword split across the class replay's seams, with and
            // without a class name outside the vocabulary sorting into the
            // gap: after the title, between two class names, and before
            // the domain. The `cart` text makes the split keyword's hit
            // decide the verdict at the default threshold.
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
