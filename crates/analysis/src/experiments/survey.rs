//! Survey experiments: Tables 1–2, Figures 1–2.

use crate::experiments::Experiment;
use crate::report::{count_with_pct, count_with_seconds, Report, Series, TextTable};
use crate::scenario::Scenario;
use rws_survey::SurveyAnalysis;

fn analysis(scenario: &Scenario) -> SurveyAnalysis {
    SurveyAnalysis::analyse(&scenario.survey)
}

/// Table 1: per-group counts of related/unrelated verdicts with mean times.
pub struct Table1;

impl Experiment for Table1 {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Website relatedness survey results summary"
    }

    fn paper_reference(&self) -> &'static str {
        "RWS (same set): 72 related (28.1s) / 42 unrelated (39.4s); RWS (other set): 5 / 100; \
         Top Site (same category): 8 / 104; Top Site (other category): 7 / 92"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let analysis = analysis(scenario);
        let mut report = Report::new(self.id(), self.title());
        let mut table = TextTable::new(vec!["Category", "Related", "Unrelated"]);
        for summary in &analysis.group_summaries {
            table.add_row(vec![
                summary.group.label().to_string(),
                count_with_seconds(summary.related_count, summary.related_mean_seconds),
                count_with_seconds(summary.unrelated_count, summary.unrelated_mean_seconds),
            ]);
        }
        report.add_table("table1", table);
        report.add_note(format!("total responses: {}", analysis.total_responses));
        report.add_note(format!(
            "participants with >=1 privacy-harming error: {} of {} ({:.1}%)",
            analysis.harmed_participants.0,
            analysis.harmed_participants.1,
            100.0 * analysis.harmed_participant_rate()
        ));
        report.add_note(format!("paper reference: {}", self.paper_reference()));
        report
    }
}

/// Table 2: the factors participants report using.
pub struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Factors used to determine relatedness and unrelatedness"
    }

    fn paper_reference(&self) -> &'static str {
        "21 respondents; branding elements most used for relatedness (66.7%), domain name 57.1%"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let analysis = analysis(scenario);
        let mut report = Report::new(self.id(), self.title());
        let respondents = analysis.factors.respondents.max(1);
        let mut table = TextTable::new(vec!["Factor used", "Related", "Unrelated"]);
        for (factor, related, unrelated) in &analysis.factors.rows {
            table.add_row(vec![
                factor.label().to_string(),
                count_with_pct(*related, respondents),
                count_with_pct(*unrelated, respondents),
            ]);
        }
        report.add_table("table2", table);
        report.add_note(format!(
            "factor questionnaire respondents: {}",
            analysis.factors.respondents
        ));
        report.add_note(format!("paper reference: {}", self.paper_reference()));
        report
    }
}

/// Figure 1: the relatedness confusion matrix.
pub struct Figure1;

impl Experiment for Figure1 {
    fn id(&self) -> &'static str {
        "figure1"
    }

    fn title(&self) -> &'static str {
        "Website relatedness survey results matrix"
    }

    fn paper_reference(&self) -> &'static str {
        "expected related: 72 (63.2%) related / 42 (36.8%) unrelated; \
         expected unrelated: 20 (6.3%) related / 296 (93.7%) unrelated"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let analysis = analysis(scenario);
        let confusion = analysis.confusion;
        let mut report = Report::new(self.id(), self.title());
        let related_total = confusion.related_related + confusion.related_unrelated;
        let unrelated_total = confusion.unrelated_related + confusion.unrelated_unrelated;
        let mut table = TextTable::new(vec!["Expected \\ Actual", "Related", "Unrelated"]);
        table.add_row(vec![
            "Related".to_string(),
            count_with_pct(confusion.related_related, related_total),
            count_with_pct(confusion.related_unrelated, related_total),
        ]);
        table.add_row(vec![
            "Unrelated".to_string(),
            count_with_pct(confusion.unrelated_related, unrelated_total),
            count_with_pct(confusion.unrelated_unrelated, unrelated_total),
        ]);
        report.add_table("confusion", table);
        report.add_note(format!(
            "privacy-harming rate (expected related, answered unrelated): {:.1}% (paper: 36.8%)",
            100.0 * confusion.privacy_harming_rate()
        ));
        report.add_note(format!(
            "correct-unrelated rate: {:.1}% (paper: 93.7%)",
            100.0 * confusion.correct_unrelated_rate()
        ));
        report
    }
}

/// Figure 2: response-time CDFs for the RWS (same set) group, split by
/// verdict, with the KS test between them.
pub struct Figure2;

impl Experiment for Figure2 {
    fn id(&self) -> &'static str {
        "figure2"
    }

    fn title(&self) -> &'static str {
        "Survey timing distributions for RWS (same set) pairs, split by response"
    }

    fn paper_reference(&self) -> &'static str {
        "unrelated verdicts on same-set pairs take significantly longer (KS test significant); \
         cross-group timing differences are not significant"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let analysis = analysis(scenario);
        let mut report = Report::new(self.id(), self.title());
        report.add_series(Series::new(
            "RWS (same set), related",
            analysis.timing.related.steps(),
        ));
        report.add_series(Series::new(
            "RWS (same set), unrelated",
            analysis.timing.unrelated.steps(),
        ));
        if let Some(ks) = &analysis.timing.ks {
            report.add_note(format!(
                "KS test related vs unrelated (same set): D = {:.3}, p = {:.4}, significant at 0.05: {}",
                ks.statistic,
                ks.p_value,
                ks.significant_at(0.05)
            ));
        }
        for (a, b, ks) in &analysis.cross_group_ks {
            report.add_note(format!(
                "cross-group KS {} vs {}: D = {:.3}, p = {:.4}",
                a.label(),
                b.label(),
                ks.statistic,
                ks.p_value
            ));
        }
        if let (Some(median_related), Some(median_unrelated)) = (
            analysis.timing.related.median(),
            analysis.timing.unrelated.median(),
        ) {
            report.add_note(format!(
                "median seconds: related {median_related:.1}, unrelated {median_unrelated:.1}"
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use rws_engine::EngineContext;
    use rws_survey::PairGroup;

    /// Shared helper: the same-set group's (related, unrelated) counts.
    fn same_set_summary(scenario: &Scenario) -> (usize, usize) {
        let analysis = analysis(scenario);
        let summary = analysis
            .summary_for(PairGroup::RwsSameSet)
            .cloned()
            .expect("same-set group always summarised");
        (summary.related_count, summary.unrelated_count)
    }

    fn scenario() -> Scenario {
        Scenario::generate_with(ScenarioConfig::small(41), &EngineContext::new())
    }

    #[test]
    fn table1_has_four_rows_and_notes() {
        let s = scenario();
        let report = Table1.run(&s);
        let table = report.table("table1").unwrap();
        assert_eq!(table.rows().len(), 4);
        assert!(report.to_text().contains("RWS (same set)"));
        assert!(report.notes.iter().any(|n| n.contains("total responses")));
    }

    #[test]
    fn table2_rows_cover_every_factor() {
        let s = scenario();
        let report = Table2.run(&s);
        let table = report.table("table2").unwrap();
        assert_eq!(table.rows().len(), 6);
        assert!(report.to_text().contains("Branding elements"));
    }

    #[test]
    fn figure1_percentages_within_rows_sum_to_100() {
        let s = scenario();
        let report = Figure1.run(&s);
        let table = report.table("confusion").unwrap();
        assert_eq!(table.rows().len(), 2);
        // Extract the two percentages from the expected-related row and
        // check they sum to ~100%.
        let row = &table.rows()[0];
        let pct = |cell: &str| -> f64 {
            cell.split('(')
                .nth(1)
                .unwrap()
                .trim_end_matches("%)")
                .parse()
                .unwrap()
        };
        let total = pct(&row[1]) + pct(&row[2]);
        assert!(
            (total - 100.0).abs() < 0.2,
            "row percentages sum to {total}"
        );
    }

    #[test]
    fn figure2_has_two_series() {
        let s = scenario();
        let report = Figure2.run(&s);
        for name in ["RWS (same set), related", "RWS (same set), unrelated"] {
            assert!(report.series.iter().any(|s| s.name == name));
        }
        assert!(!report.notes.is_empty());
    }

    #[test]
    fn same_set_summary_counts_match_responses() {
        let s = scenario();
        let (related, unrelated) = same_set_summary(&s);
        let total = s.survey.for_group(PairGroup::RwsSameSet).len();
        assert_eq!(related + unrelated, total);
    }
}
