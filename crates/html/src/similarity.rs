//! The three HTML similarity metrics of Figure 4.
//!
//! Following the `html-similarity` library the paper uses:
//!
//! * **structural similarity** compares the documents' tag sequences via
//!   Jaccard similarity over k-shingles (default `k = 4`) of the sequence;
//! * **style similarity** is the Jaccard similarity of the documents' CSS
//!   class sets;
//! * **joint similarity** is `k · structural + (1 − k) · style` with the
//!   library's default weighting `k = 0.3`.

use crate::extract::{class_set, tag_sequence};
use crate::shingle::{hash_token, jaccard, jaccard_sorted, shingles, ShingleProfile};
use crate::tokenizer::{class_names, lowercase_cow, RawToken, RawTokens};
use serde::{Deserialize, Serialize};

/// Weights and parameters for the joint similarity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimilarityWeights {
    /// Weight of the structural component in the joint score (the
    /// `html-similarity` `k` parameter; its default is 0.3).
    pub structural_weight: f64,
    /// Shingle length used when comparing tag sequences.
    pub shingle_size: usize,
}

impl Default for SimilarityWeights {
    fn default() -> Self {
        SimilarityWeights {
            structural_weight: 0.3,
            shingle_size: 4,
        }
    }
}

impl SimilarityWeights {
    /// Validate the weights: the structural weight must lie in `[0, 1]` and
    /// the shingle size must be positive.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.structural_weight) {
            return Err(format!(
                "structural_weight must be in [0,1], got {}",
                self.structural_weight
            ));
        }
        if self.shingle_size == 0 {
            return Err("shingle_size must be positive".to_string());
        }
        Ok(())
    }
}

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
    pub fn new(html: &str, weights: SimilarityWeights) -> DocumentProfile {
        DocumentProfile::with_scratch(html, weights, &mut ProfileScratch::default())
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
    pub fn with_scratch(
        html: &str,
        weights: SimilarityWeights,
        scratch: &mut ProfileScratch,
    ) -> DocumentProfile {
        weights
            .validate()
            .expect("invalid similarity weights supplied");
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
            shingle: ShingleProfile::from_token_hashes(&scratch.tag_hashes, weights.shingle_size),
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
    pub fn similarity(
        &self,
        other: &DocumentProfile,
        weights: SimilarityWeights,
    ) -> HtmlSimilarity {
        weights
            .validate()
            .expect("invalid similarity weights supplied");
        let style = self.style_similarity(other);
        let structural = self.structural_similarity(other);
        let joint =
            weights.structural_weight * structural + (1.0 - weights.structural_weight) * style;
        HtmlSimilarity {
            style,
            structural,
            joint,
        }
    }
}

/// Compute all three metrics for a pair of documents.
///
/// Convenience wrapper building both [`DocumentProfile`]s on the spot; the
/// N×N sweeps precompute profiles instead.
pub fn html_similarity(html_a: &str, html_b: &str, weights: SimilarityWeights) -> HtmlSimilarity {
    weights
        .validate()
        .expect("invalid similarity weights supplied");
    DocumentProfile::new(html_a, weights)
        .similarity(&DocumentProfile::new(html_b, weights), weights)
}

/// The original owned-set implementation, kept as the oracle the property
/// tests compare the hashed profiles against. It runs on the owned
/// extractors of [`crate::extract`], so it shares no scanner with
/// [`DocumentProfile`]. Allocates heavily; not for hot paths.
#[doc(hidden)]
pub fn html_similarity_naive(
    html_a: &str,
    html_b: &str,
    weights: SimilarityWeights,
) -> HtmlSimilarity {
    weights
        .validate()
        .expect("invalid similarity weights supplied");
    let style = jaccard(&class_set(html_a), &class_set(html_b));
    let structural = jaccard(
        &shingles(&tag_sequence(html_a), weights.shingle_size),
        &shingles(&tag_sequence(html_b), weights.shingle_size),
    );
    let joint = weights.structural_weight * structural + (1.0 - weights.structural_weight) * style;
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
        let s = html_similarity(PAGE_A, PAGE_A, SimilarityWeights::default());
        assert_eq!(s.style, 1.0);
        assert_eq!(s.structural, 1.0);
        assert!((s.joint - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_template_different_text_scores_high() {
        let s = html_similarity(PAGE_A, PAGE_A2, SimilarityWeights::default());
        assert_eq!(s.style, 1.0, "class sets identical");
        assert_eq!(s.structural, 1.0, "tag sequences identical");
    }

    #[test]
    fn different_templates_score_low() {
        let s = html_similarity(PAGE_A, PAGE_B, SimilarityWeights::default());
        assert_eq!(s.style, 0.0, "no shared classes");
        assert!(s.structural < 0.3, "structures differ: {}", s.structural);
        assert!(s.joint < 0.3);
    }

    #[test]
    fn joint_is_weighted_sum() {
        let w = SimilarityWeights {
            structural_weight: 0.3,
            shingle_size: 4,
        };
        let s = html_similarity(PAGE_A, PAGE_B, w);
        let expected = 0.3 * s.structural + 0.7 * s.style;
        assert!((s.joint - expected).abs() < 1e-12);
    }

    #[test]
    fn extreme_weights_select_single_component() {
        let only_structural = SimilarityWeights {
            structural_weight: 1.0,
            shingle_size: 4,
        };
        let only_style = SimilarityWeights {
            structural_weight: 0.0,
            shingle_size: 4,
        };
        let s1 = html_similarity(PAGE_A, PAGE_A2, only_structural);
        let s2 = html_similarity(PAGE_A, PAGE_A2, only_style);
        assert_eq!(s1.joint, s1.structural);
        assert_eq!(s2.joint, s2.style);
    }

    #[test]
    fn empty_documents_conventions() {
        let s = html_similarity("", "", SimilarityWeights::default());
        assert_eq!(s.style, 1.0);
        assert_eq!(s.structural, 1.0);
        let s = html_similarity(PAGE_A, "", SimilarityWeights::default());
        assert_eq!(s.style, 0.0);
        assert_eq!(s.structural, 0.0);
    }

    #[test]
    fn weights_validation() {
        assert!(SimilarityWeights::default().validate().is_ok());
        assert!(SimilarityWeights {
            structural_weight: 1.5,
            shingle_size: 4
        }
        .validate()
        .is_err());
        assert!(SimilarityWeights {
            structural_weight: 0.3,
            shingle_size: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn profiles_match_naive_implementation() {
        let weights = SimilarityWeights::default();
        for (a, b) in [
            (PAGE_A, PAGE_A),
            (PAGE_A, PAGE_A2),
            (PAGE_A, PAGE_B),
            (PAGE_A2, PAGE_B),
            (PAGE_A, ""),
            ("", ""),
        ] {
            let fast = html_similarity(a, b, weights);
            let naive = html_similarity_naive(a, b, weights);
            assert!((fast.style - naive.style).abs() < 1e-12);
            assert!((fast.structural - naive.structural).abs() < 1e-12);
            assert!((fast.joint - naive.joint).abs() < 1e-12);
        }
    }

    #[test]
    fn profile_reuse_matches_direct_comparison() {
        let weights = SimilarityWeights::default();
        let pa = DocumentProfile::new(PAGE_A, weights);
        let pb = DocumentProfile::new(PAGE_B, weights);
        let via_profiles = pa.similarity(&pb, weights);
        let direct = html_similarity(PAGE_A, PAGE_B, weights);
        assert_eq!(via_profiles, direct);
    }

    #[test]
    #[should_panic(expected = "invalid similarity weights")]
    fn invalid_weights_panic_when_used() {
        html_similarity(
            PAGE_A,
            PAGE_B,
            SimilarityWeights {
                structural_weight: 2.0,
                shingle_size: 4,
            },
        );
    }
}
