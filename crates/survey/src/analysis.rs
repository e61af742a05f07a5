//! Analysis of a survey dataset: Tables 1 and 2, Figures 1 and 2.

use crate::pairs::PairGroup;
use crate::participant::{Factor, Verdict};
use crate::runner::SurveyDataset;
use rws_stats::ecdf::Ecdf;
use rws_stats::ks::{ks_two_sample, KsResult};
use serde::{Deserialize, Serialize};

/// One row of Table 1: per group, how many responses gave each verdict and
/// the mean time taken for each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// The pair group.
    pub group: PairGroup,
    /// Number of "related" responses.
    pub related_count: usize,
    /// Mean seconds for "related" responses (0 when none).
    pub related_mean_seconds: f64,
    /// Number of "unrelated" responses.
    pub unrelated_count: usize,
    /// Mean seconds for "unrelated" responses (0 when none).
    pub unrelated_mean_seconds: f64,
}

impl GroupSummary {
    /// Total responses in the group.
    pub fn total(&self) -> usize {
        self.related_count + self.unrelated_count
    }
}

/// Figure 1: the confusion matrix between expected (RWS ground truth) and
/// actual (participant) responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Expected related, answered related (correct).
    pub related_related: usize,
    /// Expected related, answered unrelated (privacy-harming error).
    pub related_unrelated: usize,
    /// Expected unrelated, answered related.
    pub unrelated_related: usize,
    /// Expected unrelated, answered unrelated (correct).
    pub unrelated_unrelated: usize,
}

impl ConfusionMatrix {
    /// Fraction of expected-related responses answered unrelated — the
    /// paper's headline 36.8%.
    pub fn privacy_harming_rate(&self) -> f64 {
        let total = self.related_related + self.related_unrelated;
        if total == 0 {
            0.0
        } else {
            self.related_unrelated as f64 / total as f64
        }
    }

    /// Fraction of expected-unrelated responses answered unrelated — the
    /// paper's 93.7%.
    pub fn correct_unrelated_rate(&self) -> f64 {
        let total = self.unrelated_related + self.unrelated_unrelated;
        if total == 0 {
            0.0
        } else {
            self.unrelated_unrelated as f64 / total as f64
        }
    }

    /// Total responses.
    pub fn total(&self) -> usize {
        self.related_related
            + self.related_unrelated
            + self.unrelated_related
            + self.unrelated_unrelated
    }
}

/// One row of Table 2: how many factor-questionnaire respondents reported
/// using each factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorTable {
    /// Number of participants who answered the questionnaire.
    pub respondents: usize,
    /// Per factor: (used for related judgements, used for unrelated).
    pub rows: Vec<(Factor, usize, usize)>,
}

/// Figure 2: timing ECDFs for RWS (same set) responses split by verdict,
/// plus the KS test between them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingSplit {
    /// ECDF of seconds for "related" verdicts on same-set pairs.
    pub related: Ecdf,
    /// ECDF of seconds for "unrelated" verdicts on same-set pairs.
    pub unrelated: Ecdf,
    /// Two-sample KS test between the two distributions (None when either
    /// sample is empty).
    pub ks: Option<KsResult>,
}

/// The full analysis of one survey dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveyAnalysis {
    /// Table 1.
    pub group_summaries: Vec<GroupSummary>,
    /// Figure 1.
    pub confusion: ConfusionMatrix,
    /// Table 2.
    pub factors: FactorTable,
    /// Figure 2.
    pub timing: TimingSplit,
    /// Pairwise KS tests of timing across the four groups (the paper finds
    /// none significant). Keys are `(group_a, group_b)` label pairs.
    pub cross_group_ks: Vec<(PairGroup, PairGroup, KsResult)>,
    /// Total responses analysed.
    pub total_responses: usize,
    /// Participants with at least one privacy-harming error, and the number
    /// of active participants.
    pub harmed_participants: (usize, usize),
}

impl SurveyAnalysis {
    /// Analyse a dataset.
    pub fn analyse(dataset: &SurveyDataset) -> SurveyAnalysis {
        let mut group_summaries = Vec::new();
        for group in PairGroup::ALL {
            let responses = dataset.for_group(group);
            let related: Vec<f64> = responses
                .iter()
                .filter(|r| r.verdict == Verdict::Related)
                .map(|r| r.seconds)
                .collect();
            let unrelated: Vec<f64> = responses
                .iter()
                .filter(|r| r.verdict == Verdict::Unrelated)
                .map(|r| r.seconds)
                .collect();
            group_summaries.push(GroupSummary {
                group,
                related_count: related.len(),
                related_mean_seconds: rws_stats::mean(&related).unwrap_or(0.0),
                unrelated_count: unrelated.len(),
                unrelated_mean_seconds: rws_stats::mean(&unrelated).unwrap_or(0.0),
            });
        }

        let mut confusion = ConfusionMatrix::default();
        for response in &dataset.responses {
            match (response.pair.related_under_rws(), response.verdict) {
                (true, Verdict::Related) => confusion.related_related += 1,
                (true, Verdict::Unrelated) => confusion.related_unrelated += 1,
                (false, Verdict::Related) => confusion.unrelated_related += 1,
                (false, Verdict::Unrelated) => confusion.unrelated_unrelated += 1,
            }
        }

        let mut factors = FactorTable {
            respondents: dataset.factor_reports.len(),
            rows: Factor::ALL.iter().map(|f| (*f, 0usize, 0usize)).collect(),
        };
        for report in &dataset.factor_reports {
            for (factor, related_count, unrelated_count) in factors.rows.iter_mut() {
                if report.for_related.contains(factor) {
                    *related_count += 1;
                }
                if report.for_unrelated.contains(factor) {
                    *unrelated_count += 1;
                }
            }
        }

        let same_set = dataset.for_group(PairGroup::RwsSameSet);
        let related_times: Vec<f64> = same_set
            .iter()
            .filter(|r| r.verdict == Verdict::Related)
            .map(|r| r.seconds)
            .collect();
        let unrelated_times: Vec<f64> = same_set
            .iter()
            .filter(|r| r.verdict == Verdict::Unrelated)
            .map(|r| r.seconds)
            .collect();
        let ks = if related_times.is_empty() || unrelated_times.is_empty() {
            None
        } else {
            Some(ks_two_sample(&related_times, &unrelated_times))
        };
        let timing = TimingSplit {
            related: Ecdf::new(&related_times),
            unrelated: Ecdf::new(&unrelated_times),
            ks,
        };

        let mut cross_group_ks = Vec::new();
        for (i, a) in PairGroup::ALL.iter().enumerate() {
            for b in PairGroup::ALL.iter().skip(i + 1) {
                let ta: Vec<f64> = dataset.for_group(*a).iter().map(|r| r.seconds).collect();
                let tb: Vec<f64> = dataset.for_group(*b).iter().map(|r| r.seconds).collect();
                if !ta.is_empty() && !tb.is_empty() {
                    cross_group_ks.push((*a, *b, ks_two_sample(&ta, &tb)));
                }
            }
        }

        SurveyAnalysis {
            group_summaries,
            confusion,
            factors,
            timing,
            cross_group_ks,
            total_responses: dataset.responses.len(),
            harmed_participants: (
                dataset.participants_with_privacy_harming_error(),
                dataset.active_participants(),
            ),
        }
    }

    /// The fraction of participants that made at least one privacy-harming
    /// error (paper: 73.3%).
    pub fn harmed_participant_rate(&self) -> f64 {
        let (harmed, active) = self.harmed_participants;
        if active == 0 {
            0.0
        } else {
            harmed as f64 / active as f64
        }
    }

    /// The Table 1 row for a group.
    pub fn summary_for(&self, group: PairGroup) -> Option<&GroupSummary> {
        self.group_summaries.iter().find(|s| s.group == group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairGenerator;
    use crate::runner::{SurveyConfig, SurveyRunner};
    use rws_classify::CategoryDatabase;
    use rws_corpus::{CorpusConfig, CorpusGenerator};
    use rws_engine::EngineContext;
    use rws_stats::rng::Xoshiro256StarStar;

    fn analysed(seed: u64) -> SurveyAnalysis {
        // Use the full-size corpus (41 sets) so the same-set pair pool is
        // large enough for the calibration checks to be meaningful.
        let corpus = CorpusGenerator::new(CorpusConfig {
            top_sites: 400,
            ..CorpusConfig::default()
        })
        .generate_with(&EngineContext::embedded());
        let categories = CategoryDatabase::from_ground_truth(&corpus);
        let mut rng = Xoshiro256StarStar::new(seed);
        let universe = PairGenerator::new(&corpus, &categories)
            .generate_on(&mut rng, &EngineContext::sequential());
        let dataset = SurveyRunner::new(SurveyConfig {
            seed,
            ..SurveyConfig::default()
        })
        .run_on(&corpus, &universe, &EngineContext::embedded());
        SurveyAnalysis::analyse(&dataset)
    }

    #[test]
    fn confusion_matrix_sums_to_total_responses() {
        let analysis = analysed(1);
        assert_eq!(analysis.confusion.total(), analysis.total_responses);
        assert!(analysis.total_responses > 100);
    }

    #[test]
    fn group_summaries_cover_all_four_groups() {
        let analysis = analysed(2);
        assert_eq!(analysis.group_summaries.len(), 4);
        let total: usize = analysis
            .group_summaries
            .iter()
            .map(GroupSummary::total)
            .sum();
        assert_eq!(total, analysis.total_responses);
        // Groups 2-4 are dominated by "unrelated" verdicts.
        for group in [
            PairGroup::RwsOtherSet,
            PairGroup::TopSiteSameCategory,
            PairGroup::TopSiteOtherCategory,
        ] {
            if let Some(summary) = analysis.summary_for(group) {
                if summary.total() > 10 {
                    assert!(
                        summary.unrelated_count > summary.related_count,
                        "{:?}: {} related vs {} unrelated",
                        group,
                        summary.related_count,
                        summary.unrelated_count
                    );
                }
            }
        }
    }

    #[test]
    fn headline_rates_have_paper_shape() {
        let analysis = analysed(3);
        let harming = analysis.confusion.privacy_harming_rate();
        assert!(
            (0.15..=0.60).contains(&harming),
            "privacy-harming rate {harming} far from the paper's 0.368"
        );
        let correct_unrelated = analysis.confusion.correct_unrelated_rate();
        assert!(
            correct_unrelated > 0.85,
            "correct-unrelated rate {correct_unrelated} far from the paper's 0.937"
        );
        let harmed = analysis.harmed_participant_rate();
        assert!(
            harmed > 0.4,
            "harmed-participant rate {harmed} far from the paper's 0.733"
        );
    }

    #[test]
    fn wrong_way_same_set_judgements_take_longer_on_average() {
        let analysis = analysed(4);
        let summary = analysis.summary_for(PairGroup::RwsSameSet).unwrap();
        if summary.related_count > 10 && summary.unrelated_count > 10 {
            assert!(
                summary.unrelated_mean_seconds > summary.related_mean_seconds,
                "unrelated {:.1}s should exceed related {:.1}s",
                summary.unrelated_mean_seconds,
                summary.related_mean_seconds
            );
        }
        // Figure 2's ECDFs exist and the KS test ran.
        assert!(!analysis.timing.related.is_empty());
        assert!(!analysis.timing.unrelated.is_empty());
        assert!(analysis.timing.ks.is_some());
    }

    #[test]
    fn factor_table_counts_bounded_by_respondents() {
        let analysis = analysed(5);
        assert!(analysis.factors.respondents > 0);
        for (factor, related, unrelated) in &analysis.factors.rows {
            assert!(*related <= analysis.factors.respondents, "{factor:?}");
            assert!(*unrelated <= analysis.factors.respondents, "{factor:?}");
        }
        // Branding elements should be among the most-reported factors for
        // related judgements, as in Table 2.
        let related_for = |factor: Factor| {
            let rows = &analysis.factors.rows;
            rows.iter()
                .find(|(f, _, _)| *f == factor)
                .map_or(0, |(_, r, _)| *r)
        };
        let branding_related = related_for(Factor::BrandingElements);
        let other_related = related_for(Factor::Other);
        assert!(branding_related >= other_related);
    }

    #[test]
    fn cross_group_ks_covers_all_pairs() {
        let analysis = analysed(6);
        // Four groups → six unordered pairs (when all groups have data).
        assert!(analysis.cross_group_ks.len() <= 6);
        for (_, _, ks) in &analysis.cross_group_ks {
            assert!((0.0..=1.0).contains(&ks.p_value));
        }
    }
}
