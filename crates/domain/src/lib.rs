//! Domain-name substrate for the Related Website Sets reproduction.
//!
//! The Related Website Sets (RWS) proposal is defined entirely in terms of
//! *sites* — "effective top level domain, plus one" (eTLD+1) — and the
//! paper's analyses repeatedly need to:
//!
//! * decide whether a string is a registrable eTLD+1 (the RWS validation bot
//!   rejects submissions whose members are not; Table 3),
//! * compute the site (eTLD+1) for an arbitrary host name, which is the unit
//!   the browser's storage partitioning operates on (Section 2),
//! * extract the second-level domain (SLD) of a site and measure the
//!   Levenshtein distance between the SLDs of set members (Figure 3).
//!
//! This crate implements all of that from scratch: a validated
//! [`DomainName`] type, a [`PublicSuffixList`] with full rule semantics
//! (normal rules, wildcards and exceptions) plus an embedded snapshot of the
//! suffixes relevant to the study, eTLD+1 computation, and the string
//! metrics used in the paper.
//!
//! ```
//! use rws_domain::{DomainName, PublicSuffixList};
//!
//! let psl = PublicSuffixList::embedded();
//! let host = DomainName::parse("shop.example.co.uk").unwrap();
//! let site = psl.registrable_domain(&host).unwrap();
//! assert_eq!(site.to_string(), "example.co.uk");
//! assert_eq!(psl.public_suffix(&host).unwrap().to_string(), "co.uk");
//! assert_eq!(site.second_level_label(&psl).unwrap(), "example");
//! ```

pub mod error;
pub mod levenshtein;
pub mod name;
pub mod psl;
pub mod resolver;
pub mod similarity;

pub use error::DomainError;
pub use levenshtein::{levenshtein, normalized_levenshtein};
pub use name::DomainName;
pub use psl::{PublicSuffixList, Rule, RuleKind};
pub use resolver::{ResolverStats, SiteResolver};
pub use similarity::{sld_similarity, SldComparison};
