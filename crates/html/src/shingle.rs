//! k-shingling and Jaccard similarity.
//!
//! Two implementations live here:
//!
//! * the original owned-k-gram representation ([`shingles`] building a
//!   `BTreeSet<Vec<T>>`, compared with [`jaccard`]) — simple, obviously
//!   correct, and kept as the oracle the property tests check against;
//! * [`ShingleProfile`] — the hot-path representation: every k-gram is
//!   collapsed to a single `u64` by a rolling polynomial hash over
//!   pre-hashed tokens, and a document's shingle set becomes a sorted
//!   `Vec<u64>` compared by linear merge. Building is O(n) after
//!   tokenisation and comparison is O(|a| + |b|) with no allocation,
//!   instead of O(n·k) tree inserts of owned `Vec`s per document *per
//!   pair*.

use std::collections::BTreeSet;
use std::hash::Hash;

/// The set of contiguous k-grams ("shingles") of a sequence.
///
/// If the sequence is shorter than `k` but non-empty, the whole sequence is
/// returned as a single shingle, so short documents still compare sensibly.
pub fn shingles<T: Clone + Ord>(sequence: &[T], k: usize) -> BTreeSet<Vec<T>> {
    assert!(k > 0, "shingle size must be positive");
    let mut out = BTreeSet::new();
    if sequence.is_empty() {
        return out;
    }
    if sequence.len() < k {
        out.insert(sequence.to_vec());
        return out;
    }
    for window in sequence.windows(k) {
        out.insert(window.to_vec());
    }
    out
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` between two sets.
///
/// Two empty sets are defined to have similarity 1 (they are identical);
/// one empty and one non-empty set have similarity 0.
pub fn jaccard<T: Ord + Hash>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let intersection = a.intersection(b).count();
    let union = a.len() + b.len() - intersection;
    intersection as f64 / union as f64
}

/// FNV-1a over arbitrary bytes: the token-level hash feeding the rolling
/// shingle hash. Deterministic across runs and platforms.
#[inline]
pub fn hash_token(bytes: &[u8]) -> u64 {
    rws_stats::fnv1a_bytes(bytes)
}

/// Multiplier of the polynomial rolling hash (an arbitrary odd 64-bit
/// constant; odd keeps multiplication by it a bijection mod 2^64).
const ROLL_BASE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Jaccard similarity of two sorted, deduplicated `u64` slices by linear
/// merge, with the same empty-set conventions as [`jaccard`].
pub fn jaccard_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut intersection = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - intersection;
    intersection as f64 / union as f64
}

/// A document's shingle set collapsed to sorted `u64` hashes — computed
/// once per document and reused across every pairwise comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShingleProfile {
    k: usize,
    /// Sorted, deduplicated rolling hashes of the k-grams.
    hashes: Vec<u64>,
}

impl ShingleProfile {
    /// Build from pre-hashed tokens, mirroring [`shingles`]'s semantics:
    /// an empty sequence has no shingles; a sequence shorter than `k`
    /// contributes the whole sequence as one shingle.
    pub fn from_token_hashes(tokens: &[u64], k: usize) -> ShingleProfile {
        assert!(k > 0, "shingle size must be positive");
        let mut hashes: Vec<u64>;
        if tokens.is_empty() {
            hashes = Vec::new();
        } else if tokens.len() < k {
            hashes = vec![combine(tokens)];
        } else {
            // Rolling polynomial: H(i+1) = (H(i) - t[i]·B^(k-1))·B + t[i+k].
            let top = ROLL_BASE.wrapping_pow((k - 1) as u32);
            hashes = Vec::with_capacity(tokens.len() - k + 1);
            let mut h = combine(&tokens[..k]);
            hashes.push(h);
            for i in k..tokens.len() {
                h = h
                    .wrapping_sub(tokens[i - k].wrapping_mul(top))
                    .wrapping_mul(ROLL_BASE)
                    .wrapping_add(tokens[i]);
                hashes.push(h);
            }
            hashes.sort_unstable();
            hashes.dedup();
        }
        ShingleProfile { k, hashes }
    }

    /// Build from any hashable items (hashes each item, then rolls).
    pub fn from_items<T: AsRef<[u8]>>(items: &[T], k: usize) -> ShingleProfile {
        let token_hashes: Vec<u64> = items.iter().map(|t| hash_token(t.as_ref())).collect();
        ShingleProfile::from_token_hashes(&token_hashes, k)
    }

    /// The shingle length this profile was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct shingles.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if the document had no tokens.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Jaccard similarity against another profile. Panics if the two
    /// profiles were built with different `k` (they are not comparable).
    pub fn jaccard(&self, other: &ShingleProfile) -> f64 {
        assert_eq!(self.k, other.k, "comparing shingle profiles of different k");
        jaccard_sorted(&self.hashes, &other.hashes)
    }
}

/// Order-dependent combination of a full window, used for the first window
/// and the short-sequence case.
fn combine(tokens: &[u64]) -> u64 {
    let mut h = 0u64;
    for t in tokens {
        h = h.wrapping_mul(ROLL_BASE).wrapping_add(*t);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shingles_of_short_sequence() {
        let s = shingles(&[1, 2], 4);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&vec![1, 2]));
    }

    #[test]
    fn shingles_of_empty_sequence() {
        let s: BTreeSet<Vec<i32>> = shingles(&[], 3);
        assert!(s.is_empty());
    }

    #[test]
    fn shingles_windows() {
        let s = shingles(&["a", "b", "c", "d"], 2);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&vec!["a", "b"]));
        assert!(s.contains(&vec!["b", "c"]));
        assert!(s.contains(&vec!["c", "d"]));
    }

    #[test]
    fn shingles_deduplicate_repeats() {
        let s = shingles(&[1, 1, 1, 1], 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shingle_size_panics() {
        shingles(&[1, 2, 3], 0);
    }

    #[test]
    fn jaccard_identical_and_disjoint() {
        let a: BTreeSet<i32> = [1, 2, 3].into_iter().collect();
        let b: BTreeSet<i32> = [4, 5].into_iter().collect();
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &b), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        let a: BTreeSet<i32> = [1, 2, 3].into_iter().collect();
        let b: BTreeSet<i32> = [2, 3, 4].into_iter().collect();
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_empty_conventions() {
        let empty: BTreeSet<i32> = BTreeSet::new();
        let full: BTreeSet<i32> = [1].into_iter().collect();
        assert_eq!(jaccard(&empty, &empty), 1.0);
        assert_eq!(jaccard(&empty, &full), 0.0);
        assert_eq!(jaccard(&full, &empty), 0.0);
    }

    #[test]
    fn jaccard_symmetric() {
        let a: BTreeSet<&str> = ["x", "y", "z"].into_iter().collect();
        let b: BTreeSet<&str> = ["y", "z", "w", "v"].into_iter().collect();
        assert_eq!(jaccard(&a, &b), jaccard(&b, &a));
    }

    fn profile_of(items: &[&str], k: usize) -> ShingleProfile {
        ShingleProfile::from_items(items, k)
    }

    fn naive_jaccard_of(a: &[&str], b: &[&str], k: usize) -> f64 {
        let owned_a: Vec<String> = a.iter().map(|s| s.to_string()).collect();
        let owned_b: Vec<String> = b.iter().map(|s| s.to_string()).collect();
        jaccard(&shingles(&owned_a, k), &shingles(&owned_b, k))
    }

    #[test]
    fn profile_matches_naive_on_fixed_sequences() {
        let cases: &[(&[&str], &[&str])] = &[
            (&[], &[]),
            (&["a"], &[]),
            (&["a", "b", "c", "d"], &["a", "b", "c", "d"]),
            (&["a", "b", "c", "d"], &["b", "c", "d", "e"]),
            (&["a", "a", "a", "a"], &["a", "a"]),
            (&["div", "p", "p", "span"], &["div", "p", "span", "span"]),
        ];
        for (a, b) in cases {
            for k in 1..=5 {
                let fast = profile_of(a, k).jaccard(&profile_of(b, k));
                let naive = naive_jaccard_of(a, b, k);
                assert!(
                    (fast - naive).abs() < 1e-12,
                    "mismatch for {a:?} vs {b:?} at k={k}: {fast} vs {naive}"
                );
            }
        }
    }

    #[test]
    fn profile_distinguishes_order() {
        let ab = profile_of(&["a", "b", "c"], 2);
        let ba = profile_of(&["c", "b", "a"], 2);
        assert!(ab.jaccard(&ba) < 1.0, "order must matter for k-grams");
        assert_eq!(ab.jaccard(&ab), 1.0);
    }

    #[test]
    fn profile_len_bounded_by_sequence() {
        let p = profile_of(&["a", "b", "a", "b", "a"], 2);
        assert!(p.len() <= 4);
        assert!(!p.is_empty());
        assert_eq!(p.k(), 2);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn mismatched_k_panics() {
        let a = profile_of(&["a", "b"], 2);
        let b = profile_of(&["a", "b"], 3);
        let _ = a.jaccard(&b);
    }
}
