//! Synthetic web corpus for the Related Website Sets reproduction.
//!
//! The paper's measurements run over live artefacts we cannot reach offline:
//! the RWS list itself (146 member sites as of 26 March 2024), the web pages
//! of those sites (for the HTML-similarity analysis of Figure 4 and the
//! branding cues participants use), and the Tranco Top-10K list from which
//! 200 comparison sites are drawn. This crate generates a deterministic
//! synthetic stand-in for all of that:
//!
//! * [`Organisation`]s that own families of branded [`SiteSpec`]s (a
//!   primary, associated brands, service infrastructure, ccTLD variants);
//! * an [`RwsList`](rws_model::RwsList) built from those families and
//!   calibrated to the paper's published list statistics (share of sets with
//!   each subset type, mean associated sites per set, SLD edit-distance mix,
//!   language mix);
//! * HTML for every site, produced from per-category templates with
//!   per-brand CSS classes, so related sites share branding to a controlled
//!   degree and unrelated sites do not;
//! * a [`TrancoList`] of top sites for the survey's comparison groups; and
//! * a frozen page store, a [`FrozenWeb`](rws_net::FrozenWeb), holding all
//!   pages and correctly-formed `.well-known` files.
//!
//! Everything is seeded: the same [`CorpusConfig`] and seed reproduce the
//! same corpus bit-for-bit.

pub mod brand;
pub mod category;
pub mod generator;
pub mod render;
pub mod site;
pub mod template;
pub mod tranco;

pub use brand::{Brand, Organisation};
pub use category::SiteCategory;
pub use generator::{Corpus, CorpusConfig, CorpusGenerator};
pub use render::RenderArena;
pub use site::{Language, SiteRole, SiteSpec};
pub use template::{render_about_page, render_site, TemplateStyle};
pub use tranco::{TrancoEntry, TrancoList};
