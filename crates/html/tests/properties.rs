//! Property-based tests for the HTML substrate.

use proptest::prelude::*;
use rws_html::similarity::{html_similarity, html_similarity_naive};
use rws_html::{
    class_names, class_set, jaccard, shingles, swar, tag_sequence, text_content, title, tokenize,
    DocumentProfile, RawTokens, StreamToken, Token, Tokens,
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

/// `doc` with the letters of every tag name re-cased: bit `k % 64` of
/// `mask` upper-cases the name's `k`-th letter. Text and attribute values
/// keep their case, so only the tag names change.
fn recase_tags(doc: &str, mask: u64) -> String {
    let mut out = String::with_capacity(doc.len());
    let mut in_name = false;
    let mut k = 0;
    for c in doc.chars() {
        if c == '<' {
            in_name = true;
            k = 0;
            out.push(c);
        } else if in_name && c == '/' && k == 0 {
            out.push(c);
        } else if in_name && c.is_ascii_alphabetic() {
            out.push(if mask >> (k % 64) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            });
            k += 1;
        } else {
            in_name = false;
            out.push(c);
        }
    }
    out
}

/// The profile pipeline agrees with the owned-set oracle on every axis.
fn assert_profile_equals_naive(a: &str, b: &str) {
    let fast = html_similarity(a, b);
    let naive = html_similarity_naive(a, b);
    let close = |x: f64, y: f64| (x - y).abs() < 1e-12;
    prop_assert!(
        close(fast.style, naive.style)
            && close(fast.structural, naive.structural)
            && close(fast.joint, naive.joint),
        "profile {:?} vs naive {:?} on {:?} / {:?}",
        fast,
        naive,
        a,
        b
    );
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

    /// No scanner, extractor or similarity entry point panics on arbitrary
    /// input.
    #[test]
    fn tokenizer_total_on_arbitrary_input(input in ".{0,400}") {
        let _ = tokenize(&input);
        let _ = RawTokens::new(&input).count();
        let _ = Tokens::new(&input).count();
        let _ = tag_sequence(&input);
        let _ = class_set(&input);
        let _ = text_content(&input);
        let _ = title(&input);
        let _ = DocumentProfile::new(&input);
        let _ = html_similarity(&input, "<p>x</p>");
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
        let s = html_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s.style));
        prop_assert!((0.0..=1.0).contains(&s.structural));
        prop_assert!((0.0..=1.0).contains(&s.joint));

        let same = html_similarity(&a, &a);
        prop_assert_eq!(same.style, 1.0);
        prop_assert_eq!(same.structural, 1.0);
        prop_assert!((same.joint - 1.0).abs() < 1e-12);
    }

    /// Similarity is symmetric in its two arguments.
    #[test]
    fn similarity_symmetric(a in html_strategy(), b in html_strategy()) {
        let ab = html_similarity(&a, &b);
        let ba = html_similarity(&b, &a);
        prop_assert!((ab.style - ba.style).abs() < 1e-12);
        prop_assert!((ab.structural - ba.structural).abs() < 1e-12);
        prop_assert!((ab.joint - ba.joint).abs() < 1e-12);
    }

    /// The joint score is always between min and max of its two components.
    #[test]
    fn joint_between_components(a in html_strategy(), b in html_strategy()) {
        let s = html_similarity(&a, &b);
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
    /// generated documents, on arbitrary (malformed, non-ASCII) input, and
    /// on documents dense in attribute syntax with upper-case tag names.
    #[test]
    fn profile_similarity_equals_naive(
        a in html_strategy(),
        b in html_strategy(),
        any_a in ".{0,400}",
        any_b in ".{0,400}",
        dense_a in attr_dense_strategy(),
        dense_b in attr_dense_strategy(),
    ) {
        assert_profile_equals_naive(&a, &b);
        assert_profile_equals_naive(&any_a, &any_b);
        assert_profile_equals_naive(&dense_a, &dense_b);
        assert_profile_equals_naive(&any_a, &dense_b);
    }

    /// Tag names are compared ignoring case: re-casing the second
    /// document's tag names (all upper case, or a mixed-case pattern)
    /// leaves the profile equal to the naive oracle, and its structural
    /// similarity equal to the all-lower-case result.
    #[test]
    fn profile_folds_tag_name_case(
        a in html_strategy(),
        b in html_strategy(),
        all_upper in any::<bool>(),
        mask in any::<u64>(),
    ) {
        let recased = recase_tags(&b, if all_upper { u64::MAX } else { mask });
        assert_profile_equals_naive(&a, &recased);
        prop_assert_eq!(
            html_similarity(&a, &recased).structural,
            html_similarity(&a, &b).structural,
            "on {:?}",
            recased
        );
        prop_assert_eq!(html_similarity(&b, &recased).structural, 1.0);
    }

    /// Precomputed profiles reused across pairs give the same answers as
    /// fresh per-pair computation (the Figure 4 sweep's reuse pattern).
    #[test]
    fn profile_reuse_is_sound(docs in proptest::collection::vec(html_strategy(), 2..5)) {
        use rws_html::DocumentProfile;
        let profiles: Vec<DocumentProfile> =
            docs.iter().map(|d| DocumentProfile::new(d)).collect();
        for i in 0..docs.len() {
            for j in 0..docs.len() {
                let reused = profiles[i].similarity(&profiles[j]);
                let fresh = html_similarity(&docs[i], &docs[j]);
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

// --- SWAR scanner properties -----------------------------------------------
//
// The word-at-a-time scanners in `rws_html::swar` must agree with their
// one-byte-at-a-time definitions on arbitrary byte strings: empty inputs,
// non-ASCII bytes, unaligned heads and tails, needles in every lane of the
// u64 word, and needle-free long runs.

proptest! {
    /// `find_byte` ≡ naive `position` over arbitrary bytes and needles.
    #[test]
    fn swar_find_byte_matches_naive(
        haystack in proptest::collection::vec(0u8..=255, 0..96),
        needle in 0u8..=255,
    ) {
        prop_assert_eq!(
            swar::find_byte(&haystack, needle),
            haystack.iter().position(|&b| b == needle)
        );
    }

    /// A needle planted at every offset of a run (head lanes, every lane of
    /// the first word, unaligned tail) is found exactly there when the rest
    /// of the run is needle-free.
    #[test]
    fn swar_find_byte_every_lane(
        filler in 0u8..=255,
        needle in 0u8..=255,
        len in 1usize..40,
        lane in 0usize..40,
    ) {
        let lane = lane % len;
        let filler = if filler == needle { filler.wrapping_add(1) } else { filler };
        let mut hay = vec![filler; len];
        hay[lane] = needle;
        prop_assert_eq!(swar::find_byte(&hay, needle), Some(lane));
    }

    /// Needle-free long runs (longer than several words) report `None`.
    #[test]
    fn swar_find_byte_needle_free_runs(
        filler in 0u8..=255,
        needle in 0u8..=255,
        len in 0usize..256,
    ) {
        let filler = if filler == needle { filler.wrapping_add(1) } else { filler };
        let hay = vec![filler; len];
        prop_assert_eq!(swar::find_byte(&hay, needle), None);
    }

    /// Unaligned heads and tails: the scanner agrees with the naive scan on
    /// every suffix and prefix of a random buffer.
    #[test]
    fn swar_find_byte_unaligned_slices(
        haystack in proptest::collection::vec(0u8..=255, 1..48),
        needle in 0u8..=255,
        cut in 0usize..48,
    ) {
        let cut = cut % haystack.len();
        let (head, tail) = haystack.split_at(cut);
        prop_assert_eq!(swar::find_byte(head, needle), head.iter().position(|&b| b == needle));
        prop_assert_eq!(swar::find_byte(tail, needle), tail.iter().position(|&b| b == needle));
    }

    /// The uppercase probe ≡ the per-byte `any` over arbitrary bytes.
    #[test]
    fn swar_uppercase_matches_naive(haystack in proptest::collection::vec(0u8..=255, 0..96)) {
        prop_assert_eq!(
            swar::has_ascii_uppercase(&haystack),
            haystack.iter().any(u8::is_ascii_uppercase)
        );
    }

    /// The boundary movemask ≡ per-byte `!is_ascii_alphanumeric` in every
    /// lane, at every starting offset with a full word remaining.
    #[test]
    fn swar_boundary_mask_matches_naive(haystack in proptest::collection::vec(0u8..=255, 8..64)) {
        for start in 0..=haystack.len() - 8 {
            let mask = swar::boundary_mask8(&haystack, start).unwrap();
            for k in 0..8 {
                prop_assert_eq!(
                    mask & (1 << k) != 0,
                    !haystack[start + k].is_ascii_alphanumeric()
                );
            }
        }
        prop_assert_eq!(swar::boundary_mask8(&haystack, haystack.len() - 7), None);
    }

    /// The collapsed-text probe is sound: whenever it approves a run, the
    /// exact definition (ASCII, no control whitespace, no leading/trailing
    /// or doubled spaces) holds; and it is complete on space/alpha inputs.
    #[test]
    fn swar_collapsed_probe_sound_and_complete(haystack in proptest::collection::vec(0u8..=255, 0..96)) {
        let clean = |h: &[u8]| -> bool {
            h.iter().all(|&b| b < 0x80 && !(0x09..=0x0d).contains(&b))
                && h.first() != Some(&b' ')
                && h.last() != Some(&b' ')
                && !h.windows(2).any(|w| w == b"  ")
        };
        if swar::is_collapsed_ascii(&haystack) {
            prop_assert!(clean(&haystack));
        }
        // Restricted to ASCII-printable bytes the probe is exact.
        let printable: Vec<u8> = haystack
            .iter()
            .map(|&b| if (0x20..0x7f).contains(&b) { b } else { b'a' })
            .collect();
        prop_assert_eq!(swar::is_collapsed_ascii(&printable), clean(&printable));
    }
}
