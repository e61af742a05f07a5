//! The three HTML similarity metrics of Figure 4.
//!
//! Following the `html-similarity` library the paper uses:
//!
//! * **structural similarity** compares the documents' tag sequences via
//!   Jaccard similarity over [`SHINGLE_SIZE`]-shingles (4) of the sequence;
//! * **style similarity** is the Jaccard similarity of the documents' CSS
//!   class sets;
//! * **joint similarity** is `k · structural + (1 − k) · style` with
//!   `k =` [`STRUCTURAL_WEIGHT`] (0.3).

use crate::extract::{class_set, tag_sequence};
use crate::shingle::{hash_token, jaccard, jaccard_sorted, shingles, ShingleProfile};
use crate::tokenizer::{class_names, lowercase_cow, RawToken, RawTokens};
use serde::{Deserialize, Serialize};

/// Weight of the structural component in the joint score: the
/// `html-similarity` library's default `k`, which the paper used.
pub const STRUCTURAL_WEIGHT: f64 = 0.3;

/// Shingle length used when comparing tag sequences: the
/// `html-similarity` library's default, which the paper used.
pub const SHINGLE_SIZE: usize = 4;

/// The result of comparing two HTML documents — one point of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HtmlSimilarity {
    /// Style similarity (CSS class Jaccard), in `[0, 1]`.
    pub style: f64,
    /// Structural similarity (tag-sequence shingle Jaccard), in `[0, 1]`.
    pub structural: f64,
    /// Joint similarity (weighted sum), in `[0, 1]`.
    pub joint: f64,
}

/// A document's similarity features, extracted once and reused across every
/// pairwise comparison: the hashed CSS-class set and the hashed tag-sequence
/// shingle set.
///
/// The Figure 4 sweep compares every member against its primary; building a
/// `DocumentProfile` per document first means each document is tokenized,
/// shingled and hashed exactly once instead of once per pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentProfile {
    /// Sorted, deduplicated hashes of the CSS classes used anywhere.
    classes: Vec<u64>,
    /// Rolling-hashed k-gram set over the opening-tag sequence.
    shingle: ShingleProfile,
}

/// Reusable buffers for [`DocumentProfile::with_scratch`]: the tag-hash and
/// class-hash accumulators grow to the largest document seen and are then
/// recycled across a sweep, so profiling N documents performs N result
/// allocations instead of N geometric-growth reallocation chains. Designed
/// for `par_map_with`, which hands each pool worker its own clone.
#[derive(Debug, Clone, Default)]
pub struct ProfileScratch {
    tag_hashes: Vec<u64>,
    classes: Vec<u64>,
}

impl DocumentProfile {
    /// Extract a profile in a single tokenizer pass.
    pub fn new(html: &str) -> DocumentProfile {
        DocumentProfile::with_scratch(html, &mut ProfileScratch::default())
    }

    /// Like [`new`](Self::new), reusing the caller's scratch buffers. The
    /// result is identical for any scratch state.
    ///
    /// One pass of the raw scan [`RawTokens`] over the document. Each open
    /// tag's name is hashed lower-cased, borrowed unless the document wrote
    /// it with upper-case letters, and each name of its `class` value is
    /// hashed as written. Text runs are never read, so they are never
    /// collapsed. [`html_similarity_naive`] is the oracle this is
    /// property-tested against.
    pub fn with_scratch(html: &str, scratch: &mut ProfileScratch) -> DocumentProfile {
        scratch.tag_hashes.clear();
        scratch.classes.clear();
        for token in RawTokens::new(html) {
            if let RawToken::Open {
                name, attributes, ..
            } = token
            {
                scratch
                    .tag_hashes
                    .push(hash_token(lowercase_cow(name).as_bytes()));
                if let Some(class_attr) = attributes.get("class") {
                    for class in class_names(class_attr) {
                        scratch.classes.push(hash_token(class.as_bytes()));
                    }
                }
            }
        }
        scratch.classes.sort_unstable();
        scratch.classes.dedup();
        DocumentProfile {
            classes: scratch.classes.clone(),
            shingle: ShingleProfile::from_token_hashes(&scratch.tag_hashes, SHINGLE_SIZE),
        }
    }

    /// Style similarity against another profile.
    pub fn style_similarity(&self, other: &DocumentProfile) -> f64 {
        jaccard_sorted(&self.classes, &other.classes)
    }

    /// Structural similarity against another profile.
    pub fn structural_similarity(&self, other: &DocumentProfile) -> f64 {
        self.shingle.jaccard(&other.shingle)
    }

    /// All three metrics against another profile.
    pub fn similarity(&self, other: &DocumentProfile) -> HtmlSimilarity {
        let style = self.style_similarity(other);
        let structural = self.structural_similarity(other);
        HtmlSimilarity {
            style,
            structural,
            joint: STRUCTURAL_WEIGHT * structural + (1.0 - STRUCTURAL_WEIGHT) * style,
        }
    }
}

/// Compute all three metrics for a pair of documents.
///
/// Convenience wrapper building both [`DocumentProfile`]s on the spot; the
/// N×N sweeps precompute profiles instead.
pub fn html_similarity(html_a: &str, html_b: &str) -> HtmlSimilarity {
    DocumentProfile::new(html_a).similarity(&DocumentProfile::new(html_b))
}

/// The original owned-set implementation, kept as the oracle the property
/// tests compare the hashed profiles against. It runs on the owned
/// extractors of [`crate::extract`], so it shares no scanner with
/// [`DocumentProfile`]. Allocates heavily; not for hot paths.
#[doc(hidden)]
pub fn html_similarity_naive(html_a: &str, html_b: &str) -> HtmlSimilarity {
    let style = jaccard(&class_set(html_a), &class_set(html_b));
    let structural = jaccard(
        &shingles(&tag_sequence(html_a), SHINGLE_SIZE),
        &shingles(&tag_sequence(html_b), SHINGLE_SIZE),
    );
    let joint = STRUCTURAL_WEIGHT * structural + (1.0 - STRUCTURAL_WEIGHT) * style;
    HtmlSimilarity {
        style,
        structural,
        joint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_A: &str = r#"
        <html><body>
          <div class="nav brand"><a class="logo" href="/">Home</a></div>
          <div class="content"><p class="story">Alpha</p><p class="story">Beta</p></div>
          <div class="footer"><span class="copyright">2024</span></div>
        </body></html>"#;

    /// Same template as PAGE_A, different text.
    const PAGE_A2: &str = r#"
        <html><body>
          <div class="nav brand"><a class="logo" href="/">Start</a></div>
          <div class="content"><p class="story">Gamma</p><p class="story">Delta</p></div>
          <div class="footer"><span class="copyright">2024</span></div>
        </body></html>"#;

    /// A completely different template.
    const PAGE_B: &str = r#"
        <html><body>
          <table class="products"><tr><td class="sku">1</td><td class="price">9.99</td></tr></table>
          <form class="checkout"><input name="qty"><button class="buy">Buy</button></form>
        </body></html>"#;

    #[test]
    fn identical_documents_score_one() {
        let s = html_similarity(PAGE_A, PAGE_A);
        assert_eq!(s.style, 1.0);
        assert_eq!(s.structural, 1.0);
        assert!((s.joint - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_template_different_text_scores_high() {
        let s = html_similarity(PAGE_A, PAGE_A2);
        assert_eq!(s.style, 1.0, "class sets identical");
        assert_eq!(s.structural, 1.0, "tag sequences identical");
    }

    #[test]
    fn different_templates_score_low() {
        let s = html_similarity(PAGE_A, PAGE_B);
        assert_eq!(s.style, 0.0, "no shared classes");
        assert!(s.structural < 0.3, "structures differ: {}", s.structural);
        assert!(s.joint < 0.3);
    }

    #[test]
    fn joint_is_weighted_sum() {
        let both = format!("{PAGE_A}{PAGE_B}");
        for s in [
            html_similarity(PAGE_A, PAGE_B),
            html_similarity(PAGE_A, &both),
        ] {
            let expected = 0.3 * s.structural + 0.7 * s.style;
            assert!((s.joint - expected).abs() < 1e-12);
        }
        // The second pair has both components strictly inside (0, 1), so
        // the weighting itself is pinned.
        let s = html_similarity(PAGE_A, &both);
        assert!(s.style > 0.0 && s.style < 1.0 && s.structural > 0.0 && s.structural < 1.0);
    }

    #[test]
    fn empty_documents_conventions() {
        let s = html_similarity("", "");
        assert_eq!(s.style, 1.0);
        assert_eq!(s.structural, 1.0);
        let s = html_similarity(PAGE_A, "");
        assert_eq!(s.style, 0.0);
        assert_eq!(s.structural, 0.0);
    }

    #[test]
    fn profiles_match_naive_implementation() {
        for (a, b) in [
            (PAGE_A, PAGE_A),
            (PAGE_A, PAGE_A2),
            (PAGE_A, PAGE_B),
            (PAGE_A2, PAGE_B),
            (PAGE_A, ""),
            ("", ""),
        ] {
            let fast = html_similarity(a, b);
            let naive = html_similarity_naive(a, b);
            assert!((fast.style - naive.style).abs() < 1e-12);
            assert!((fast.structural - naive.structural).abs() < 1e-12);
            assert!((fast.joint - naive.joint).abs() < 1e-12);
        }
    }

    #[test]
    fn profile_reuse_matches_direct_comparison() {
        let pa = DocumentProfile::new(PAGE_A);
        let pb = DocumentProfile::new(PAGE_B);
        let via_profiles = pa.similarity(&pb);
        let direct = html_similarity(PAGE_A, PAGE_B);
        assert_eq!(via_profiles, direct);
    }
}
