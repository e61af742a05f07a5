//! The Related Website Sets list model.
//!
//! This crate implements the data model at the centre of the paper: the
//! Related Website Sets (RWS) list published in Google's
//! `related_website_sets.JSON`, the subset structure it defines (primary,
//! *associated*, *service* and *ccTLD* sites), the `.well-known` files each
//! member must serve, the set-level validation requirements enforced by the
//! GitHub submission process (Section 4 / Table 3), and dated snapshots of
//! the list so the composition-over-time figures (Figure 7) can be computed.
//!
//! The three subset types differ in their requirements (Section 2):
//!
//! * **service sites** must be under common ownership with the primary,
//!   support other members, cannot be a top-level grant target and must not
//!   be indexable (the bot checks for an `X-Robots-Tag` header);
//! * **associated sites** only need a *clearly presented affiliation* — no
//!   common ownership — which is exactly the relaxation the paper's user
//!   study probes;
//! * **ccTLD sites** are country-code variants of another member and must
//!   share ownership with it.
//!
//! ```
//! use rws_model::{RwsList, RwsSet};
//!
//! let mut set = RwsSet::new("https://bild.de").unwrap();
//! set.add_associated("https://autobild.de", "Shared automotive news brand").unwrap();
//! let list = RwsList::from_sets(vec![set]).unwrap();
//!
//! let a = rws_domain::DomainName::parse("bild.de").unwrap();
//! let b = rws_domain::DomainName::parse("autobild.de").unwrap();
//! assert!(list.are_related(&a, &b));
//! ```

pub mod error;
pub mod json;
pub mod list;
pub mod set;
pub mod snapshot;
pub mod validation;
pub mod well_known;

pub use error::SetError;
pub use json::{list_from_json, list_to_json};
pub use list::RwsList;
pub use set::{MemberRole, RwsSet, SetMember};
pub use snapshot::{ListSnapshot, SnapshotSeries, SubsetCounts};
pub use validation::{SetValidator, ValidationIssue, ValidationOutcome, ValidationReport};
pub use well_known::WellKnownFile;
