//! Property-based tests for the HTML substrate.

use proptest::prelude::*;
use rws_html::similarity::{html_similarity, SimilarityWeights};
use rws_html::{
    class_names, class_set, jaccard, shingles, tag_sequence, tokenize, StreamToken, Token, Tokens,
};
use std::collections::BTreeSet;

/// Strategy producing small, nested, well-formed HTML snippets.
fn html_strategy() -> impl Strategy<Value = String> {
    let leaf = (
        "[a-z]{1,8}",
        proptest::option::of("[a-z]{1,6}( [a-z]{1,6}){0,2}"),
    )
        .prop_map(|(text, class)| match class {
            Some(c) => format!(r#"<p class="{c}">{text}</p>"#),
            None => format!("<p>{text}</p>"),
        });
    proptest::collection::vec(leaf, 0..10).prop_map(|parts| {
        format!(
            "<html><body><div class=\"wrap\">{}</div></body></html>",
            parts.join("")
        )
    })
}

// Each table below lists its ASCII entries first, so that an ASCII-only
// tag can draw from a prefix: the byte walk only decides tags without
// non-ASCII bytes outside quotes, and hands the rest to the char walk.

/// Attribute names: mixed case, duplicates (three spellings of `class`),
/// stray `=` in place of a name, and non-ASCII.
const ATTR_NAMES: &[&str] = &[
    "class", "CLASS", "Class", "id", "data-x", "B", "=", "n\u{e9}v", "= \u{e9}",
];

/// What follows a name: nothing (a bare attribute), or `=` with optional
/// whitespace around it, including separators only `char` sees as space.
const ATTR_ASSIGNS: &[&str] = &["", "", "=", "=", " = ", "=\x0b", "=\u{a0}"];

/// Values: unquoted, double- and single-quoted, empty, unterminated, and
/// non-ASCII ones.
const ATTR_VALUES: &[&str] = &[
    "v",
    "Big",
    "a=b",
    "x'y",
    "\"nav main\"",
    "\"\"",
    "\"it's\"",
    "'a b'",
    "'x\"y'",
    "\"open",
    "'open",
    "\u{e9}t\u{e9}",
    "\"\u{e9} \u{a0}x\"",
];

/// Separators between attributes: ASCII whitespace including `\x0b`, none
/// at all, and the Unicode spaces U+00A0 and U+0085.
const ATTR_SEPS: &[&str] = &[
    " ", " ", "  ", "\t", "\n", "\x0b", "\x0c", "\r", "", "\u{a0}", "\u{85}",
];

/// Pick `table[i]`, restricted to the table's ASCII prefix when `ascii`.
fn pick(table: &[&'static str], i: usize, ascii: bool) -> &'static str {
    if ascii {
        table[i % table.iter().take_while(|s| s.is_ascii()).count()]
    } else {
        table[i]
    }
}

/// Strategy producing documents dense in attribute syntax: a few open tags,
/// each carrying a run of name / assignment / value / separator units.
/// About half the tags are ASCII-only.
fn attr_dense_strategy() -> impl Strategy<Value = String> {
    let attr = (
        0usize..ATTR_NAMES.len(),
        0usize..ATTR_ASSIGNS.len(),
        0usize..ATTR_VALUES.len(),
        0usize..ATTR_SEPS.len(),
    );
    let tag = (
        "(div|P|span)",
        "( |\t|\x0b|\u{a0})",
        proptest::collection::vec(attr, 0..8),
        0u8..2,
    )
        .prop_map(|(name, sep, attrs, flavour)| {
            let ascii = flavour == 0;
            let sep = if ascii { " " } else { sep.as_str() };
            let mut html = format!("<{name}{sep}");
            for (n, a, v, s) in attrs {
                let assign = pick(ATTR_ASSIGNS, a, ascii);
                html.push_str(pick(ATTR_NAMES, n, ascii));
                html.push_str(assign);
                if !assign.is_empty() {
                    html.push_str(pick(ATTR_VALUES, v, ascii));
                }
                html.push_str(pick(ATTR_SEPS, s, ascii));
            }
            html + &format!(">x</{name}>")
        });
    proptest::collection::vec(tag, 1..10).prop_map(|tags| tags.concat())
}

proptest! {
    /// The byte-level `RawAttrs::get` answers every lookup exactly like the
    /// owned tokenizer's attribute map: each present name, one absent name,
    /// and the upper-cased spelling of each name (which the lower-cased map
    /// never holds). The streamed tokens also match the owned ones.
    #[test]
    fn raw_attrs_get_equals_owned_map(html in attr_dense_strategy()) {
        let owned = tokenize(&html);
        let streamed: Vec<StreamToken> = Tokens::new(&html).collect();
        let converted: Vec<Token> = streamed.iter().map(StreamToken::to_token).collect();
        prop_assert_eq!(&converted, &owned, "token divergence on {:?}", html);
        for (stream, token) in streamed.iter().zip(&owned) {
            let (StreamToken::Open { attributes: raw, .. }, Token::Open { attributes: map, .. }) =
                (stream, token)
            else {
                continue;
            };
            for (name, value) in map {
                prop_assert_eq!(raw.get(name), Some(value.as_str()), "{:?} in {:?}", name, html);
                let upper = name.to_ascii_uppercase();
                prop_assert_eq!(raw.get(&upper), map.get(&upper).map(String::as_str));
            }
            prop_assert_eq!(raw.get("absent"), None, "in {:?}", html);
        }
    }

    /// The class splitter yields exactly `split_whitespace`'s names on
    /// arbitrary strings, and on values dense in the separators whose
    /// whitespace status differs between byte and char views.
    #[test]
    fn class_names_equal_split_whitespace(
        any in ".{0,80}",
        dense in "[ a-z\t\x0b\u{a0}\u{85}\u{e9}-]{0,40}",
    ) {
        for value in [&any, &dense] {
            let fast: Vec<&str> = class_names(value).collect();
            let reference: Vec<&str> = value.split_whitespace().collect();
            prop_assert_eq!(fast, reference, "on {:?}", value);
        }
    }

    /// The tokenizer never panics on arbitrary input.
    #[test]
    fn tokenizer_total_on_arbitrary_input(input in ".{0,400}") {
        let _ = tokenize(&input);
        let _ = tag_sequence(&input);
        let _ = class_set(&input);
    }

    /// The zero-copy streaming tokenizer (SWAR scans) reproduces the owned
    /// oracle token for token on arbitrary (including malformed) input.
    #[test]
    fn streaming_tokenizer_equals_owned_on_arbitrary_input(input in ".{0,400}") {
        let owned = tokenize(&input);
        let streamed: Vec<Token> = Tokens::new(&input).map(|t| t.to_token()).collect();
        prop_assert_eq!(streamed, owned);
    }

    /// Same equivalence on well-formed generated documents (tag soup with
    /// classes and text), where the stream should also borrow throughout.
    #[test]
    fn streaming_tokenizer_equals_owned_on_html(a in html_strategy()) {
        let owned = tokenize(&a);
        let streamed: Vec<Token> = Tokens::new(&a).map(|t| t.to_token()).collect();
        prop_assert_eq!(streamed, owned);
    }

    /// All similarity scores stay in [0, 1] and a document compared with
    /// itself scores exactly 1 on every axis.
    #[test]
    fn similarity_bounded_and_reflexive(a in html_strategy(), b in html_strategy()) {
        let s = html_similarity(&a, &b, SimilarityWeights::default());
        prop_assert!((0.0..=1.0).contains(&s.style));
        prop_assert!((0.0..=1.0).contains(&s.structural));
        prop_assert!((0.0..=1.0).contains(&s.joint));

        let same = html_similarity(&a, &a, SimilarityWeights::default());
        prop_assert_eq!(same.style, 1.0);
        prop_assert_eq!(same.structural, 1.0);
        prop_assert!((same.joint - 1.0).abs() < 1e-12);
    }

    /// Similarity is symmetric in its two arguments.
    #[test]
    fn similarity_symmetric(a in html_strategy(), b in html_strategy()) {
        let ab = html_similarity(&a, &b, SimilarityWeights::default());
        let ba = html_similarity(&b, &a, SimilarityWeights::default());
        prop_assert!((ab.style - ba.style).abs() < 1e-12);
        prop_assert!((ab.structural - ba.structural).abs() < 1e-12);
        prop_assert!((ab.joint - ba.joint).abs() < 1e-12);
    }

    /// The joint score is always between min and max of its two components.
    #[test]
    fn joint_between_components(a in html_strategy(), b in html_strategy()) {
        let s = html_similarity(&a, &b, SimilarityWeights::default());
        let lo = s.style.min(s.structural) - 1e-12;
        let hi = s.style.max(s.structural) + 1e-12;
        prop_assert!(s.joint >= lo && s.joint <= hi);
    }

    /// Jaccard over shingles is bounded and reflexive for arbitrary tag
    /// sequences.
    #[test]
    fn shingle_jaccard_properties(seq_a in proptest::collection::vec("[a-z]{1,5}", 0..30), seq_b in proptest::collection::vec("[a-z]{1,5}", 0..30), k in 1usize..6) {
        let sa = shingles(&seq_a, k);
        let sb = shingles(&seq_b, k);
        let j = jaccard(&sa, &sb);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(jaccard(&sa, &sa), 1.0);
        // Number of shingles never exceeds the sequence length.
        prop_assert!(sa.len() <= seq_a.len().max(1));
    }

    /// Hashed shingle profiles reproduce the owned-set Jaccard exactly, on
    /// random tag sequences and every shingle size.
    #[test]
    fn hashed_profile_equals_btreeset_jaccard(
        seq_a in proptest::collection::vec("[a-z]{1,5}", 0..40),
        seq_b in proptest::collection::vec("[a-z]{1,5}", 0..40),
        k in 1usize..7,
    ) {
        use rws_html::ShingleProfile;
        let naive = jaccard(&shingles(&seq_a, k), &shingles(&seq_b, k));
        let pa = ShingleProfile::from_items(&seq_a, k);
        let pb = ShingleProfile::from_items(&seq_b, k);
        prop_assert!((pa.jaccard(&pb) - naive).abs() < 1e-12,
            "hashed {} vs naive {} on {:?} / {:?} k={}", pa.jaccard(&pb), naive, seq_a, seq_b, k);
        // Shingle counts agree with the owned-set representation too.
        prop_assert_eq!(pa.len(), shingles(&seq_a, k).len());
    }

    /// The profile-based similarity pipeline equals the owned-set oracle on
    /// generated documents.
    #[test]
    fn profile_similarity_equals_naive(a in html_strategy(), b in html_strategy()) {
        use rws_html::similarity::html_similarity_naive;
        let weights = SimilarityWeights::default();
        let fast = html_similarity(&a, &b, weights);
        let naive = html_similarity_naive(&a, &b, weights);
        prop_assert!((fast.style - naive.style).abs() < 1e-12);
        prop_assert!((fast.structural - naive.structural).abs() < 1e-12);
        prop_assert!((fast.joint - naive.joint).abs() < 1e-12);
    }

    /// Precomputed profiles reused across pairs give the same answers as
    /// fresh per-pair computation (the Figure 4 sweep's reuse pattern).
    #[test]
    fn profile_reuse_is_sound(docs in proptest::collection::vec(html_strategy(), 2..5)) {
        use rws_html::DocumentProfile;
        let weights = SimilarityWeights::default();
        let profiles: Vec<DocumentProfile> =
            docs.iter().map(|d| DocumentProfile::new(d, weights)).collect();
        for i in 0..docs.len() {
            for j in 0..docs.len() {
                let reused = profiles[i].similarity(&profiles[j], weights);
                let fresh = html_similarity(&docs[i], &docs[j], weights);
                prop_assert_eq!(reused, fresh);
            }
        }
    }

    /// Class extraction returns exactly the classes present in generated HTML.
    #[test]
    fn class_extraction_matches_generation(classes in proptest::collection::btree_set("[a-z]{2,8}", 0..8)) {
        let html = classes
            .iter()
            .map(|c| format!(r#"<div class="{c}">x</div>"#))
            .collect::<Vec<_>>()
            .join("");
        let extracted: BTreeSet<String> = class_set(&html);
        prop_assert_eq!(extracted, classes);
    }
}
