//! Keyword-based content classification.
//!
//! Two implementations share the vocabulary below:
//!
//! * [`KeywordClassifier::classify`] — the production path: one pass over
//!   the zero-copy streaming token stream, scoring every word against the
//!   compiled [`KeywordAutomaton`] (no haystack string, no per-keyword
//!   rescans). Class names stay `&str` slices of the page: attribute
//!   values are borrowed by type, and `RawAttrs::get` finds `class` with
//!   one byte walk (exact char-level fallback on non-ASCII bytes);
//! * [`KeywordClassifier::classify_naive`] — the seed classifier, kept as
//!   the equivalence oracle: builds an owned lowercase haystack from three
//!   separate tokenizer passes and scans it once per keyword.

use crate::automaton::KeywordAutomaton;
use rws_corpus::SiteCategory;
use rws_domain::DomainName;
use rws_html::{tokenize, StreamToken, Token, Tokens};
use rws_stats::swar::{find_byte, is_collapsed_ascii};
use std::borrow::Cow;
use std::collections::BTreeSet;

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
    /// This is the single-pass streaming path: the page is tokenized once
    /// (zero-copy), every word is scored against the compiled keyword
    /// automaton as it streams by, and the title/class evidence the seed
    /// classifier counted via extra tokenizer passes is replayed from
    /// borrowed slices stashed during the same pass. No haystack string is
    /// ever built. Each tag's `class` value comes from the byte-level
    /// `RawAttrs::get` as a `&str` of the page and splits into `&str`
    /// class names at ASCII spaces (`split_whitespace` when the value is
    /// not plain ASCII); a value equal to the previous tag's is skipped,
    /// since the sort and dedup before feeding would drop its names
    /// anyway. [`classify_naive`](Self::classify_naive) is the retained
    /// oracle this is property-tested against.
    pub fn classify(&self, domain: &DomainName, html: &str) -> SiteCategory {
        let mut matcher = KeywordAutomaton::global().matcher();
        // Borrowed stashes replayed after the text stream, replicating the
        // naive haystack order: text, then title again, then the sorted
        // deduplicated class set, then the domain.
        let mut title_parts: Vec<Cow<'_, str>> = Vec::new();
        let mut classes: Vec<&str> = Vec::new();
        // The previous tag's class value: a repeat adds nothing the dedup
        // below would keep, so it is not split again.
        let mut last_class = None;
        let mut in_title = false;
        let mut title_done = false;
        for token in Tokens::new(html) {
            match token {
                StreamToken::Text(text) => {
                    matcher.feed_text(&text);
                    if in_title && !title_done {
                        title_parts.push(text);
                    }
                }
                StreamToken::Open {
                    name, attributes, ..
                } => {
                    if name == "title" {
                        in_title = true;
                    }
                    if let Some(class_attr) = attributes.get("class") {
                        if last_class != Some(class_attr) {
                            split_class_value(&mut classes, class_attr);
                            last_class = Some(class_attr);
                        }
                    }
                }
                StreamToken::Close { name } => {
                    if name == "title" {
                        if !title_parts.is_empty() {
                            title_done = true;
                        }
                        in_title = false;
                    }
                }
            }
        }
        for part in &title_parts {
            matcher.feed_text(part);
        }
        classes.sort_unstable();
        classes.dedup();
        for class in &classes {
            matcher.feed_text(class);
        }
        matcher.feed_text(domain.as_str());
        matcher.finish(self.min_hits)
    }

    /// The seed classifier, retained as the automaton's equivalence oracle:
    /// three *owned* tokenizer passes (`text_content`, `title`, `class_set`
    /// reimplemented below over [`tokenize`]) build an owned lowercase
    /// haystack, which is then rescanned once per keyword. Quadratic in
    /// page size × vocabulary; not for hot paths — and deliberately pinned
    /// to the owned tokenizer so it stays the true seed baseline even
    /// though the public extractors now stream.
    #[doc(hidden)]
    pub fn classify_naive(&self, domain: &DomainName, html: &str) -> SiteCategory {
        let mut haystack = String::new();
        haystack.push_str(&text_content_owned(html).to_ascii_lowercase());
        haystack.push(' ');
        if let Some(t) = title_owned(html) {
            haystack.push_str(&t.to_ascii_lowercase());
            haystack.push(' ');
        }
        for class in class_set_owned(html) {
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

/// The seed's text extraction: every text token of an owned tokenization,
/// joined with spaces.
fn text_content_owned(html: &str) -> String {
    tokenize(html)
        .into_iter()
        .filter_map(|t| match t {
            Token::Text(text) => Some(text),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The seed's title extraction, with the all-text-runs semantics the
/// streaming `rws_html::title` has (so oracle and automaton agree on
/// markup-nested titles), over the owned tokenizer.
fn title_owned(html: &str) -> Option<String> {
    let mut in_title = false;
    let mut parts: Vec<String> = Vec::new();
    for token in tokenize(html) {
        match token {
            Token::Open { ref name, .. } if name == "title" => in_title = true,
            Token::Close { ref name } if name == "title" => {
                if !parts.is_empty() {
                    return Some(parts.join(" "));
                }
                in_title = false;
            }
            Token::Text(text) if in_title => parts.push(text),
            _ => {}
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(" "))
    }
}

/// The seed's class extraction: an owned tokenization collected into a
/// `BTreeSet` of owned class names.
fn class_set_owned(html: &str) -> BTreeSet<String> {
    let mut classes = BTreeSet::new();
    for token in tokenize(html) {
        if let Token::Open { attributes, .. } = token {
            if let Some(class_attr) = attributes.get("class") {
                for class in class_attr.split_whitespace() {
                    classes.insert(class.to_string());
                }
            }
        }
    }
    classes
}

/// Split a `class` attribute value into its class names, exactly as
/// `str::split_whitespace` would. A value that is ASCII with single inner
/// spaces and no other whitespace (the common case) splits at the spaces
/// a word at a time; anything else, non-ASCII bytes that may encode
/// Unicode whitespace included, takes `split_whitespace` itself.
fn split_class_value<'a>(classes: &mut Vec<&'a str>, value: &'a str) {
    let bytes = value.as_bytes();
    if !is_collapsed_ascii(bytes) {
        classes.extend(value.split_whitespace());
        return;
    }
    if value.is_empty() {
        return;
    }
    let mut start = 0;
    while let Some(off) = find_byte(&bytes[start..], b' ') {
        classes.push(&value[start..start + off]);
        start += off + 1;
    }
    classes.push(&value[start..]);
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
