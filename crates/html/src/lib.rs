//! HTML parsing and similarity metrics for the RWS reproduction.
//!
//! Figure 4 of the paper computes, for every service/associated site paired
//! with its set primary, three similarity scores using "a well-known
//! library" (the Python `html-similarity` package):
//!
//! * **style similarity** — Jaccard similarity of the sets of CSS classes
//!   used in the two documents;
//! * **structural similarity** — similarity of the two documents' tag
//!   sequences, computed over k-shingles of the sequences;
//! * **joint similarity** — a weighted sum of the two
//!   (`k · structural + (1 − k) · style`, with the library's default
//!   `k = 0.3`).
//!
//! This crate is a from-scratch Rust implementation of that pipeline: a
//! forgiving [`tokenizer`] for real-world HTML, extraction
//! of tag sequences and class sets, k-shingling, Jaccard similarity and the
//! three metrics.
//!
//! HTML is read in three layers:
//!
//! * the production scan, [`RawTokens`]: one pass that yields
//!   [`RawToken`]s borrowing from the document, names and text as written.
//!   [`DocumentProfile`] and the keyword classifier both run on it, and
//!   [`class_names`] is the one splitter of `class` values;
//! * the oracle layer: the owned [`tokenize`] (the seed implementation)
//!   and the extractors `tag_sequence`, `class_set`, `text_content` and
//!   `title` of [`extract`] built on it, which the property tests check
//!   the production scan against (hidden from the docs, as oracles are);
//! * the benchmark-only adapter [`Tokens`], the raw scan with names
//!   lower-cased and text collapsed, kept only because the frozen benchmark
//!   harness imports it.
//!
//! [`swar`] holds the word-at-a-time byte scans behind the production scan
//! and the classifier's word split.
//!
//! Figure 4's scores use the `html-similarity` library's defaults, which
//! the paper used: joint = [`STRUCTURAL_WEIGHT`] · structural +
//! (1 − [`STRUCTURAL_WEIGHT`]) · style, over [`SHINGLE_SIZE`]-shingles of the
//! tag sequence.
//!
//! ```
//! use rws_html::similarity::{html_similarity, SHINGLE_SIZE, STRUCTURAL_WEIGHT};
//!
//! assert_eq!((STRUCTURAL_WEIGHT, SHINGLE_SIZE), (0.3, 4));
//! let a = r#"<div class="nav brand"><p class="headline">News</p></div>"#;
//! let b = r#"<div class="nav brand"><p class="headline">Sport</p></div>"#;
//! let score = html_similarity(a, b);
//! assert!(score.joint > 0.9, "identically-structured pages score high");
//! ```

pub mod extract;
pub mod shingle;
pub mod similarity;
pub mod swar;
pub mod tokenizer;

#[doc(hidden)]
pub use extract::{class_set, tag_sequence, text_content, title};
pub use shingle::{hash_token, jaccard, jaccard_sorted, shingles, ShingleProfile};
pub use similarity::{
    html_similarity, DocumentProfile, HtmlSimilarity, ProfileScratch, SHINGLE_SIZE,
    STRUCTURAL_WEIGHT,
};
pub use tokenizer::{class_names, tokenize, ClassNames, RawAttrs, RawToken, RawTokens, Token};
// The benchmark-only adapter, re-exported where the frozen benchmark
// harness imports it from.
pub use tokenizer::{StreamToken, Tokens};
