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
//! Tokenization comes in two forms: the owned [`tokenize`] (the seed
//! implementation, retained as the equivalence oracle) and the zero-copy
//! streaming [`Tokens`] iterator, which yields [`StreamToken`]s borrowing
//! from the document and only allocates for the rare lower-case/collapse
//! fix-ups. All extractors and [`DocumentProfile`] run on the stream.
//!
//! ```
//! use rws_html::similarity::{html_similarity, SimilarityWeights};
//!
//! let a = r#"<div class="nav brand"><p class="headline">News</p></div>"#;
//! let b = r#"<div class="nav brand"><p class="headline">Sport</p></div>"#;
//! let score = html_similarity(a, b, SimilarityWeights::default());
//! assert!(score.joint > 0.9, "identically-structured pages score high");
//! ```

pub mod extract;
pub mod shingle;
pub mod similarity;
pub mod tokenizer;

pub use extract::{class_set, tag_sequence, text_content, title};
pub use shingle::{hash_token, jaccard, jaccard_sorted, shingles, ShingleProfile};
pub use similarity::{
    html_similarity, DocumentProfile, HtmlSimilarity, ProfileScratch, SimilarityWeights,
};
pub use tokenizer::{tokenize, RawAttrs, StreamToken, Token, Tokens};
