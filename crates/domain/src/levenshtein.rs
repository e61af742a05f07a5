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
//!   live in thread-local scratch, so steady-state calls allocate nothing;
//! * **[`levenshtein_bounded`]** — a banded O(k·n) variant that abandons
//!   the computation as soon as the distance provably exceeds a threshold,
//!   for callers that only need "within k?".
//!
//! The textbook two-row DP survives as [`levenshtein_naive`], the oracle
//! the property tests compare every fast path against.

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

/// Banded two-row DP: only cells within `k` of the diagonal are computed,
/// and the scan aborts once a whole row exceeds `k`. Returns `None` when
/// the distance is provably greater than `k`.
fn dp_bounded<T: PartialEq>(
    a: &[T],
    b: &[T],
    k: usize,
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > k {
        return None;
    }
    if short.is_empty() {
        return Some(long.len());
    }
    let m = short.len();
    let inf = k + 1;
    prev.clear();
    prev.extend((0..=m).map(|j| if j <= k { j } else { inf }));
    curr.clear();
    curr.resize(m + 1, inf);
    for (i, lc) in long.iter().enumerate() {
        let row = i + 1;
        let lo = row.saturating_sub(k).max(1);
        let hi = (row + k).min(m);
        if lo > m {
            return None;
        }
        curr[0] = if row <= k { row } else { inf };
        if lo > 1 {
            curr[lo - 1] = inf;
        }
        let mut row_min = curr[0];
        for j in lo..=hi {
            let sc = &short[j - 1];
            let substitution_cost = usize::from(lc != sc);
            let v = (prev[j] + 1)
                .min(curr[j - 1] + 1)
                .min(prev[j - 1] + substitution_cost)
                .min(inf);
            curr[j] = v;
            row_min = row_min.min(v);
        }
        if hi < m {
            curr[hi + 1] = inf;
        }
        if row_min >= inf {
            return None;
        }
        std::mem::swap(prev, curr);
    }
    let d = prev[m];
    (d <= k).then_some(d)
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

/// Levenshtein distance if it is at most `k`, `None` otherwise.
///
/// Runs the banded O(k·min(|a|,|b|)) DP with early abandonment: a length
/// difference beyond `k` answers immediately, and the scan stops at the
/// first row whose minimum exceeds `k`. Exactly equivalent to
/// `(levenshtein(a, b) <= k).then(|| levenshtein(a, b))`.
pub fn levenshtein_bounded(a: &str, b: &str, k: usize) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    if a.len().abs_diff(b.len()) > 4 * (k + 1) {
        // Cheap byte-length screen: a scalar is 1–4 bytes, so a byte-length
        // gap over 4k guarantees a scalar-length gap over k.
        return None;
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        if a.is_ascii() && b.is_ascii() {
            let (sa, sb) = strip_common(a.as_bytes(), b.as_bytes());
            dp_bounded(sa, sb, k, &mut scratch.prev, &mut scratch.curr)
        } else {
            scratch.a_chars.clear();
            scratch.a_chars.extend(a.chars());
            scratch.b_chars.clear();
            scratch.b_chars.extend(b.chars());
            let (sa, sb) = strip_common(&scratch.a_chars, &scratch.b_chars);
            dp_bounded(sa, sb, k, &mut scratch.prev, &mut scratch.curr)
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

    #[test]
    fn bounded_matches_exact_within_threshold() {
        let words = [
            "", "a", "bild", "autobild", "kitten", "sitting", "example", "exomple",
        ];
        for a in words {
            for b in words {
                let exact = levenshtein_naive(a, b);
                for k in 0..10 {
                    let bounded = levenshtein_bounded(a, b, k);
                    if exact <= k {
                        assert_eq!(bounded, Some(exact), "({a:?}, {b:?}, k={k})");
                    } else {
                        assert_eq!(bounded, None, "({a:?}, {b:?}, k={k})");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_early_exit_on_length_gap() {
        assert_eq!(levenshtein_bounded("ab", "abcdefghij", 3), None);
        assert_eq!(levenshtein_bounded(&"x".repeat(400), "y", 5), None);
        // Unicode length gap: 3 scalars vs 1, k = 1.
        assert_eq!(levenshtein_bounded("日本語", "日", 1), None);
        assert_eq!(levenshtein_bounded("日本語", "日", 2), Some(2));
    }

    #[test]
    fn bounded_zero_is_equality() {
        assert_eq!(levenshtein_bounded("same", "same", 0), Some(0));
        assert_eq!(levenshtein_bounded("same", "sane", 0), None);
    }
}
