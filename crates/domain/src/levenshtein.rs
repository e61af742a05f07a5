//! Levenshtein edit distance.
//!
//! Figure 3 of the paper plots the CDF of the Levenshtein distance between
//! each service/associated site's second-level domain (SLD) and its set
//! primary's SLD, finding a median distance of 7 for associated sites and
//! concluding that SLD similarity is not a reliable relatedness signal.
//!
//! The distance here is the hot primitive of that sweep, so it is
//! engineered for the shape of the real inputs — short, almost always
//! ASCII domain labels:
//!
//! * **ASCII fast path** — ASCII inputs run the DP directly over bytes,
//!   skipping `char` decoding entirely;
//! * **prefix/suffix stripping** — the shared head and tail of the two
//!   strings (`autobild` / `bild` share `bild`) never enter the DP;
//! * **scratch reuse** — the two DP rows and the non-ASCII decode buffers
//!   live in thread-local scratch, so steady-state calls allocate nothing.
//!
//! The textbook two-row DP survives as [`levenshtein_naive`], the oracle
//! the property tests compare the fast paths against.

use std::cell::RefCell;

/// Reusable per-thread DP rows and decode buffers.
#[derive(Default)]
struct Scratch {
    prev: Vec<usize>,
    curr: Vec<usize>,
    a_chars: Vec<char>,
    b_chars: Vec<char>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Drop the common prefix and suffix of two slices — they contribute
/// nothing to the edit distance.
fn strip_common<'s, T: PartialEq>(mut a: &'s [T], mut b: &'s [T]) -> (&'s [T], &'s [T]) {
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    a = &a[prefix..];
    b = &b[prefix..];
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (&a[..a.len() - suffix], &b[..b.len() - suffix])
}

/// The two-row DP over already-stripped slices, reusing the given rows.
fn dp<T: PartialEq>(a: &[T], b: &[T], prev: &mut Vec<usize>, curr: &mut Vec<usize>) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    prev.clear();
    prev.extend(0..=short.len());
    curr.clear();
    curr.resize(short.len() + 1, 0);
    for (i, lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let substitution_cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j + 1] + 1) // deletion
                .min(curr[j] + 1) // insertion
                .min(prev[j] + substitution_cost); // substitution
        }
        std::mem::swap(prev, curr);
    }
    prev[short.len()]
}

/// Classic Levenshtein (insert/delete/substitute, all cost 1) edit distance
/// between two strings, computed over Unicode scalar values.
///
/// O(|a|·|b|) time after common prefix/suffix stripping, zero allocations
/// in steady state (thread-local scratch), and a byte-level fast path for
/// ASCII inputs.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        if a.is_ascii() && b.is_ascii() {
            let (sa, sb) = strip_common(a.as_bytes(), b.as_bytes());
            dp(sa, sb, &mut scratch.prev, &mut scratch.curr)
        } else {
            scratch.a_chars.clear();
            scratch.a_chars.extend(a.chars());
            scratch.b_chars.clear();
            scratch.b_chars.extend(b.chars());
            let (sa, sb) = strip_common(&scratch.a_chars, &scratch.b_chars);
            dp(sa, sb, &mut scratch.prev, &mut scratch.curr)
        }
    })
}

/// The textbook two-row DP, kept verbatim as the reference oracle for the
/// fast paths above. Allocates per call; do not use on hot paths.
#[doc(hidden)]
pub fn levenshtein_naive(a: &str, b: &str) -> usize {
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    // Ensure the inner dimension is the shorter string to minimise memory.
    let (short, long) = if a_chars.len() <= b_chars.len() {
        (&a_chars, &b_chars)
    } else {
        (&b_chars, &a_chars)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr: Vec<usize> = vec![0; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let substitution_cost = if lc == sc { 0 } else { 1 };
            curr[j + 1] = (prev[j + 1] + 1) // deletion
                .min(curr[j] + 1) // insertion
                .min(prev[j] + substitution_cost); // substitution
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// Levenshtein distance normalised by the length of the longer string,
/// giving a dissimilarity in `[0, 1]` (0 = identical). Two empty strings
/// have distance 0.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = if a.is_ascii() && b.is_ascii() {
        a.len().max(b.len())
    } else {
        a.chars().count().max(b.chars().count())
    };
    if max_len == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_have_zero_distance() {
        assert_eq!(levenshtein("kitten", "kitten"), 0);
        assert_eq!(levenshtein("", ""), 0);
    }

    #[test]
    fn classic_examples() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("saturday", "sunday"), 3);
    }

    #[test]
    fn distance_to_empty_is_length() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abcd", ""), 4);
    }

    #[test]
    fn paper_examples_from_figure_3() {
        // autobild ↔ bild share the "bild" stem: distance 4 (insert "auto").
        assert_eq!(levenshtein("autobild", "bild"), 4);
        // Entirely distinct SLDs are far apart, as the paper notes for
        // nourishingpursuits ↔ cafemedia.
        assert!(levenshtein("nourishingpursuits", "cafemedia") >= 13);
        // Identical SLDs across gTLDs (poalim.xyz vs poalim.site) are 0.
        assert_eq!(levenshtein("poalim", "poalim"), 0);
    }

    #[test]
    fn symmetric() {
        assert_eq!(levenshtein("abcde", "xbcdz"), levenshtein("xbcdz", "abcde"));
    }

    #[test]
    fn unicode_is_handled_per_scalar() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
        assert_eq!(levenshtein("ööö", "öö"), 1);
    }

    #[test]
    fn normalized_range_and_extremes() {
        assert_eq!(normalized_levenshtein("", ""), 0.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 0.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 1.0);
        let v = normalized_levenshtein("kitten", "sitting");
        assert!((v - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_naive_on_fixed_cases() {
        let words = [
            "",
            "a",
            "ab",
            "abc",
            "bild",
            "autobild",
            "poalim",
            "kitten",
            "sitting",
            "nourishingpursuits",
            "cafemedia",
            "exomple",
            "example",
            "café",
            "caffé",
            "日本語",
        ];
        for a in words {
            for b in words {
                assert_eq!(
                    levenshtein(a, b),
                    levenshtein_naive(a, b),
                    "mismatch on ({a:?}, {b:?})"
                );
            }
        }
    }
}
