//! The user-study machinery of Section 3.
//!
//! The paper's central experiment asks 30 participants to judge, for 20
//! pairs of websites each, whether the two sites are "related to each other
//! by an affiliation to a common company or organisation". The pairs are
//! drawn from four groups (same RWS set, different RWS sets, top sites in
//! the same Forcepoint category, top sites in a different category), each
//! response is timed, and participants finally report which cues they used.
//! The headline findings: 36.8% of same-set pairs are judged *unrelated*
//! (privacy-harming errors), 73.3% of participants make at least one such
//! error, wrong-way judgements take longer, and branding/domain names are
//! the dominant cues.
//!
//! Human participants cannot be recruited offline, so this crate pairs the
//! paper's exact *pair-construction* and *analysis* code with a behavioural
//! [`Participant`] model whose judgements are driven by the same cues the
//! real participants reported (Table 2): presented branding, domain-name
//! similarity, header/footer text and about pages. Every analysis consumes
//! the resulting [`SurveyDataset`] exactly as it would consume the paper's
//! released CSV.

pub mod analysis;
pub mod cue_cache;
pub mod pairs;
pub mod participant;
pub mod runner;

pub use analysis::{ConfusionMatrix, FactorTable, GroupSummary, SurveyAnalysis, TimingSplit};
pub use cue_cache::CueCache;
pub use pairs::{PairGenerator, PairGroup, PairUniverse, SitePair};
pub use participant::{Cues, Factor, FactorReport, Participant, Verdict};
pub use runner::{SurveyConfig, SurveyDataset, SurveyResponse, SurveyRunner};
