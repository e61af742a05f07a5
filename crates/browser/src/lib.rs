//! Browser storage-partitioning engine with Related Website Sets support.
//!
//! Section 2 of the paper describes the machinery this crate implements:
//! browsers treat the *site* (eTLD+1) as the Web's privacy boundary and
//! enforce it through **storage partitioning** — an embedded third party
//! gets a different cookie jar for every top-level site it is embedded
//! under, so it cannot link a user's visits across sites. The **Storage
//! Access API** lets an embedded site ask for its *unpartitioned* storage
//! back, and each vendor applies a different policy to that request: Chrome
//! auto-grants it when the two sites are in the same Related Website Set,
//! Firefox and Safari prompt the user (Firefox auto-grants a limited number
//! after interaction), Brave denies, and pre-phase-out Chrome/Edge never
//! partitioned in the first place.
//!
//! The crate provides:
//!
//! * [`StorageEngine`] — partitioned and unpartitioned cookie jars keyed by
//!   [`PartitionKey`];
//! * [`StorageAccessPolicy`] implementations for each vendor
//!   ([`policy::VendorPolicy`]);
//! * [`Browser`] — a single simulated browser profile that visits pages,
//!   embeds third-party frames and evaluates `requestStorageAccess` calls;
//! * [`linkability`] — the cross-site linkability measure: how much user
//!   activity a tracker can join together under each policy, with and
//!   without the RWS list.

pub mod browser;
pub mod context;
pub mod linkability;
pub mod policy;
pub mod storage;

pub use browser::{Browser, EmbedOutcome, PromptBehaviour};
pub use context::{AccessFacts, AccessRequest, PartitionKey};
pub use linkability::{linkability_report, LinkabilityReport, TrackerObservation};
pub use policy::{PolicyVerdict, StorageAccessPolicy, VendorPolicy};
pub use storage::{StorageArea, StorageEngine};
