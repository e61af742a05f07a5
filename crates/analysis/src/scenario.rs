//! Scenario construction: generate every simulated input once and share it
//! across experiments.
//!
//! [`Scenario::generate_with`] is an explicit staged pipeline over a shared
//! [`EngineContext`]:
//!
//! ```text
//! corpus ──┬── history ── snapshots
//!          └── categories ── pairs ── survey
//! ```
//!
//! The corpus comes first (everything reads it); then the two independent
//! chains — governance history followed by list snapshots, and
//! classification followed by pair construction and the survey — run
//! concurrently on the context's thread pool, each internally fanning out
//! again (per-submitter history replays, per-page corpus rendering,
//! per-site content classification, per-member pair sweeps,
//! per-participant survey sessions). Every stage
//! draws from derived rng streams keyed by task identity, so the pooled
//! pipeline is field-for-field identical to the same call on
//! [`EngineContext::sequential`], which the equivalence property tests
//! assert across seeds.

use rws_classify::CategoryDatabase;
use rws_corpus::{Corpus, CorpusConfig, CorpusGenerator};
use rws_engine::EngineContext;
use rws_github::{HistoryConfig, HistoryGenerator, PrHistory, PrState};
use rws_model::{ListSnapshot, RwsList, SnapshotSeries};
use rws_stats::rng::Xoshiro256StarStar;
use rws_stats::timeseries::Month;
use rws_survey::{PairGenerator, PairUniverse, SurveyConfig, SurveyDataset, SurveyRunner};
use serde::{Deserialize, Serialize};

/// Full configuration of a reproduction scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Synthetic corpus parameters (list shape, branding, languages, …).
    pub corpus: CorpusConfig,
    /// Survey parameters (participants, pairs per group).
    pub survey: SurveyConfig,
    /// Governance history parameters (window, defect rates, review model).
    pub history: HistoryConfig,
    /// Number of Tranco top sites sampled for survey groups 3 and 4
    /// (paper: 200).
    pub top_site_sample: usize,
    /// First month of the observation window for the time-series figures.
    pub window_start: Month,
    /// Last month of the observation window.
    pub window_end: Month,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            corpus: CorpusConfig::default(),
            survey: SurveyConfig::default(),
            history: HistoryConfig::default(),
            top_site_sample: 200,
            window_start: Month::new(2023, 1),
            window_end: Month::new(2024, 3),
        }
    }
}

impl ScenarioConfig {
    /// A reduced-size configuration for fast tests and doctests.
    pub fn small(seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig {
            corpus: CorpusConfig::small(seed),
            top_site_sample: 60,
            ..ScenarioConfig::default()
        };
        config.survey.seed = seed;
        config.history.seed = seed ^ 0xABCD;
        config.history.never_successful_primaries = 5;
        config
    }
}

/// Everything the experiments consume, generated deterministically from a
/// [`ScenarioConfig`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The configuration the scenario was generated from.
    pub config: ScenarioConfig,
    /// The engine the scenario was generated on; experiments reuse its
    /// pool and its memoized site resolver (already warm with every host
    /// the generation stages resolved).
    pub engine: EngineContext,
    /// The synthetic corpus (RWS list, sites, pages, top sites, web).
    pub corpus: Corpus,
    /// Categories assigned by the keyword classifier (the analogue of the
    /// Forcepoint ThreatSeeker lookups the paper performs).
    pub categories: CategoryDatabase,
    /// The simulated GitHub pull-request history.
    pub history: PrHistory,
    /// The candidate survey pairs, by group.
    pub pairs: PairUniverse,
    /// The simulated survey responses and factor questionnaires.
    pub survey: SurveyDataset,
    /// Monthly snapshots of the list, reconstructed from approved PRs.
    pub snapshots: SnapshotSeries,
}

impl Scenario {
    /// Generate a scenario as a staged pipeline on the given engine: the
    /// corpus first, then the governance chain (history → snapshots) and
    /// the survey chain (categories → pairs → survey) concurrently.
    ///
    /// The two chains are independent: the survey chain reads only the
    /// corpus's sites and pages, while the history chain's side effects on
    /// the shared web are confined to hosts named after its own submitters.
    /// Output is identical whether the engine is pooled or sequential.
    pub fn generate_with(config: ScenarioConfig, ctx: &EngineContext) -> Scenario {
        let corpus = CorpusGenerator::new(config.corpus).generate_with(ctx);

        let ((history, snapshots), (categories, pairs, survey)) = ctx.join2(
            || {
                let history = HistoryGenerator::new(config.history).generate_with(&corpus, ctx);
                let snapshots = Scenario::snapshots_from_history(&corpus, &history, config);
                (history, snapshots)
            },
            || {
                let categories = CategoryDatabase::classify_corpus_on(&corpus, ctx);
                let mut pair_rng =
                    Xoshiro256StarStar::new(config.survey.seed).derive("pair-universe");
                let mut pair_generator = PairGenerator::new(&corpus, &categories);
                pair_generator.top_site_sample = config.top_site_sample;
                let pairs = pair_generator.generate_on(&mut pair_rng, ctx);
                let survey = SurveyRunner::new(config.survey).run_on(&corpus, &pairs, ctx);
                (categories, pairs, survey)
            },
        );

        Scenario {
            config,
            engine: ctx.clone(),
            corpus,
            categories,
            history,
            pairs,
            survey,
            snapshots,
        }
    }

    /// Reconstruct the list's month-by-month growth from the governance
    /// history: the list at any date consists of the sets whose approving PR
    /// had been merged by that date. This is exactly how the paper derives
    /// its composition-over-time figures from repository history.
    fn snapshots_from_history(
        corpus: &Corpus,
        history: &PrHistory,
        config: ScenarioConfig,
    ) -> SnapshotSeries {
        let mut approvals: Vec<(&rws_model::RwsSet, rws_stats::timeseries::Date)> = Vec::new();
        for pr in history.prs() {
            if pr.state == PrState::Approved {
                if let Some(set) = corpus.list.set_with_primary(&pr.primary) {
                    // First approval wins; re-submissions of an existing set
                    // do not change the snapshot.
                    if !approvals.iter().any(|(s, _)| s.primary() == set.primary()) {
                        approvals.push((set, pr.resolved_at));
                    }
                }
            }
        }
        approvals.sort_by_key(|(_, date)| *date);

        let mut series = SnapshotSeries::new();
        for month in config.window_start.range_inclusive(config.window_end) {
            let cutoff =
                rws_stats::timeseries::Date::new(month.year, month.month, month.days_in_month());
            let sets: Vec<rws_model::RwsSet> = approvals
                .iter()
                .filter(|(_, date)| *date <= cutoff)
                .map(|(set, _)| (*set).clone())
                .collect();
            if let Ok(list) = RwsList::from_sets(sets) {
                series.push(ListSnapshot::new(cutoff, list));
            }
        }
        series
    }

    /// The latest list snapshot (the "26 March 2024" list the paper
    /// characterises). Falls back to the corpus's full list if the history
    /// produced no snapshots.
    pub fn latest_list(&self) -> &RwsList {
        self.snapshots
            .latest()
            .map(|s| &s.list)
            .unwrap_or(&self.corpus.list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_generation_is_deterministic() {
        let a = Scenario::generate_with(ScenarioConfig::small(3), &EngineContext::new());
        let b = Scenario::generate_with(ScenarioConfig::small(3), &EngineContext::new());
        assert_eq!(a.corpus.list.all_domains(), b.corpus.list.all_domains());
        assert_eq!(a.history.len(), b.history.len());
        assert_eq!(a.survey, b.survey);
        assert_eq!(a.snapshots.len(), b.snapshots.len());
    }

    #[test]
    fn snapshots_grow_monotonically() {
        let scenario = Scenario::generate_with(ScenarioConfig::small(4), &EngineContext::new());
        let counts: Vec<usize> = scenario
            .snapshots
            .iter()
            .map(|s| s.list.set_count())
            .collect();
        assert!(!counts.is_empty());
        assert!(
            counts.windows(2).all(|w| w[1] >= w[0]),
            "set counts {counts:?}"
        );
        // By the end of the window, most approved sets are present.
        let final_count = *counts.last().unwrap();
        assert!(final_count > 0);
        assert!(final_count <= scenario.corpus.list.set_count());
        assert_eq!(scenario.latest_list().set_count(), final_count);
    }

    #[test]
    fn scenario_has_survey_and_history_data() {
        let scenario = Scenario::generate_with(ScenarioConfig::small(5), &EngineContext::new());
        assert!(!scenario.survey.responses.is_empty());
        assert!(scenario.history.len() > scenario.corpus.list.set_count());
        assert!(scenario.pairs.total() > 0);
        assert_eq!(scenario.categories.len(), scenario.corpus.sites.len());
    }
}
