//! Simulated GitHub governance pipeline for the Related Website Sets list.
//!
//! Section 4 of the paper studies how the RWS list is managed: site owners
//! propose sets via pull requests on GitHub, an automated bot validates each
//! submission (the failure classes of Table 3), and maintainers manually
//! review what survives. The paper measures the cumulative PR volume split
//! by outcome (Figure 5), the days taken to process PRs (Figure 6), the
//! distribution of bot messages (Table 3), and notes that 58.8% of PRs are
//! closed without being merged while approved PRs take a median of 5 days.
//!
//! The real repository history is not reachable offline, so this crate
//! simulates the pipeline end-to-end:
//!
//! * [`PullRequest`] / [`PrHistory`] — the event records the analyses
//!   consume, identical in shape to what a GitHub export would provide;
//! * [`GovernancePipeline`] — CLA check, the validation bot (backed by the
//!   real [`SetValidator`](rws_model::SetValidator) running against the
//!   simulated web), and a manual-review latency model;
//! * [`HistoryGenerator`] — produces a full PR history calibrated to the
//!   paper's published statistics by replaying realistic submissions
//!   (including deliberately broken ones) through the pipeline.

pub mod history;
pub mod pipeline;
pub mod pr;

pub use history::{HistoryConfig, HistoryGenerator, SubmissionDefect};
pub use pipeline::{GovernancePipeline, ReviewModel};
pub use pr::{PrHistory, PrState, PullRequest};
