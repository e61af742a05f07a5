//! Governance experiments: Table 3 and Figures 5–9.

use crate::experiments::Experiment;
use crate::report::{Report, Series, TextTable};
use crate::scenario::Scenario;
use rws_corpus::SiteCategory;
use rws_github::PrState;
use rws_model::MemberRole;
use rws_stats::histogram::CategoryCounter;
use rws_stats::timeseries::Month;
use rws_stats::Ecdf;

fn month_x(start: Month, month: Month) -> f64 {
    start.months_until(month) as f64
}

/// Table 3: counts of the validation bot's messages.
pub struct Table3;

impl Experiment for Table3 {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn title(&self) -> &'static str {
        "RWS GitHub bot validation messages"
    }

    fn paper_reference(&self) -> &'static str {
        "Unable to fetch .well-known JSON file 202; Associated site isn't an eTLD+1 65; \
         Service site without X-Robots-Tag 19; set/.well-known mismatch 12; alias not eTLD+1 10; \
         primary not eTLD+1 9; other 8; no rationale 5"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let counts = scenario.history.bot_message_counts();
        let mut report = Report::new(self.id(), self.title());
        let mut table = TextTable::new(vec!["GitHub bot comment", "Count"]);
        for (message, count) in counts.sorted_by_count() {
            table.add_row(vec![message, count.to_string()]);
        }
        report.add_table("table3", table);
        report.add_note(format!("total bot messages: {}", counts.total()));
        report.add_note(format!(
            "pull requests validated: {} ({} approved, {} closed)",
            scenario.history.len(),
            scenario.history.count(PrState::Approved),
            scenario.history.count(PrState::Closed)
        ));
        report.add_note(format!("paper reference: {}", self.paper_reference()));
        report
    }
}

/// Figure 5: cumulative count of PRs proposing a new set, by final state.
pub struct Figure5;

impl Experiment for Figure5 {
    fn id(&self) -> &'static str {
        "figure5"
    }

    fn title(&self) -> &'static str {
        "Cumulative count of PRs proposing a new set, by final state"
    }

    fn paper_reference(&self) -> &'static str {
        "114 PRs to 2024-03-30; 47 approved, 67 closed without merging (58.8%); submission rate \
         grows over time"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let start = scenario.config.window_start;
        let end = scenario.config.window_end;
        let (approved, closed) = scenario.history.cumulative_by_state(start, end);
        let mut report = Report::new(self.id(), self.title());
        report.add_series(Series::new(
            "Approved",
            approved
                .iter()
                .map(|(m, v)| (month_x(start, m), v))
                .collect(),
        ));
        report.add_series(Series::new(
            "Closed (without being merged)",
            closed.iter().map(|(m, v)| (month_x(start, m), v)).collect(),
        ));
        report.add_note(format!(
            "total PRs: {}; approved: {}; closed: {}; rejection rate {:.1}% (paper: 58.8%)",
            scenario.history.len(),
            scenario.history.count(PrState::Approved),
            scenario.history.count(PrState::Closed),
            100.0 * scenario.history.rejection_rate()
        ));
        report.add_note(format!(
            "distinct primaries: {}; mean PRs per primary {:.2} (paper: 60 primaries, 1.9)",
            scenario.history.distinct_primaries(),
            scenario.history.mean_prs_per_primary()
        ));
        report
    }
}

/// Figure 6: CDF of days taken to process PRs, by final state.
pub struct Figure6;

impl Experiment for Figure6 {
    fn id(&self) -> &'static str {
        "figure6"
    }

    fn title(&self) -> &'static str {
        "Days taken to process PRs proposing a new set"
    }

    fn paper_reference(&self) -> &'static str {
        "54.3% of unsuccessful PRs closed same day; median 5 days for approved PRs"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let approved = scenario.history.days_to_process(PrState::Approved);
        let closed = scenario.history.days_to_process(PrState::Closed);
        let mut report = Report::new(self.id(), self.title());
        report.add_series(Series::new(
            format!("Approved ({})", approved.len()),
            Ecdf::new(&approved).steps(),
        ));
        report.add_series(Series::new(
            format!("Closed (without being merged) ({})", closed.len()),
            Ecdf::new(&closed).steps(),
        ));
        report.add_note(format!(
            "median days to approve: {:.1} (paper: 5)",
            rws_stats::median(&approved).unwrap_or(0.0)
        ));
        report.add_note(format!(
            "same-day closures among rejected PRs: {:.1}% (paper: 54.3%)",
            100.0 * scenario.history.same_day_fraction(PrState::Closed)
        ));
        report
    }
}

/// Figure 7: set composition (service / associated / ccTLD site counts) by
/// month.
pub struct Figure7;

impl Experiment for Figure7 {
    fn id(&self) -> &'static str {
        "figure7"
    }

    fn title(&self) -> &'static str {
        "Set composition over time"
    }

    fn paper_reference(&self) -> &'static str {
        "at 2024-03-26: 41 sets; 92.7% with associated sites (mean 2.6/set), 22% with service \
         sites, 14.6% with ccTLD sites"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let start = scenario.config.window_start;
        let end = scenario.config.window_end;
        let composition = scenario.snapshots.composition_by_month(start, end);
        let mut report = Report::new(self.id(), self.title());
        for (name, series) in [
            ("Service sites", &composition.service),
            ("Associated sites", &composition.associated),
            ("ccTLD sites", &composition.cctld),
        ] {
            report.add_series(Series::new(
                name,
                series.iter().map(|(m, v)| (month_x(start, m), v)).collect(),
            ));
        }
        if let Some(latest) = scenario.snapshots.latest() {
            let counts = latest.subset_counts();
            report.add_note(format!(
                "final snapshot: {} sets, {} associated, {} service, {} ccTLD sites",
                counts.primaries, counts.associated, counts.service, counts.cctld
            ));
            report.add_note(format!(
                "sets with associated sites: {:.1}% (paper: 92.7%); with service sites: {:.1}% \
                 (paper: 22%); with ccTLD sites: {:.1}% (paper: 14.6%); mean associated per set \
                 {:.2} (paper: 2.6)",
                100.0 * latest.fraction_of_sets_with(MemberRole::Associated),
                100.0 * latest.fraction_of_sets_with(MemberRole::Service),
                100.0 * latest.fraction_of_sets_with(MemberRole::Cctld),
                latest.mean_associated_per_set()
            ));
        }
        report
    }
}

/// One named series of `(x, y)` points, as consumed by the report layer.
type NamedSeries = (String, Vec<(f64, f64)>);

/// Shared machinery for Figures 8 and 9: per-month counts of members of one
/// role, bucketed by Forcepoint-style category.
fn category_series(scenario: &Scenario, role: MemberRole) -> (Vec<NamedSeries>, CategoryCounter) {
    let start = scenario.config.window_start;
    let end = scenario.config.window_end;
    let months = start.range_inclusive(end);

    // Collect the bucket labels present in the final snapshot so every
    // series covers the same category set.
    let mut final_counts = CategoryCounter::new();
    let mut per_month: Vec<CategoryCounter> = Vec::with_capacity(months.len());
    for (idx, month) in months.iter().enumerate() {
        let cutoff =
            rws_stats::timeseries::Date::new(month.year, month.month, month.days_in_month());
        let mut counter = CategoryCounter::new();
        if let Some(snapshot) = scenario.snapshots.at(cutoff) {
            for set in snapshot.list.sets() {
                let domains: Vec<_> = match role {
                    MemberRole::Primary => vec![set.primary().clone()],
                    MemberRole::Associated => set.associated_sites().cloned().collect(),
                    MemberRole::Service => set.service_sites().cloned().collect(),
                    MemberRole::Cctld => set.cctld_sites().cloned().collect(),
                };
                for domain in domains {
                    let category = scenario.categories.category_of(&domain);
                    counter.record(category.figure_bucket());
                }
            }
        }
        if idx == months.len() - 1 {
            final_counts = counter.clone();
        }
        per_month.push(counter);
    }

    // Build one series per bucket label that ever appears, ordered by final
    // count (largest first), as the stacked plots in the paper are.
    let mut labels: Vec<String> = SiteCategory::ALL
        .iter()
        .map(|c| c.figure_bucket().to_string())
        .collect();
    labels.sort();
    labels.dedup();
    labels.sort_by_key(|l| std::cmp::Reverse(final_counts.get(l)));

    let mut series = Vec::new();
    for label in labels {
        let points: Vec<(f64, f64)> = months
            .iter()
            .enumerate()
            .map(|(i, m)| (month_x(start, *m), per_month[i].get(&label) as f64))
            .collect();
        if points.iter().any(|(_, y)| *y > 0.0) {
            series.push((label, points));
        }
    }
    (series, final_counts)
}

/// Figure 8: Forcepoint-style categories of set primaries over time.
pub struct Figure8;

impl Experiment for Figure8 {
    fn id(&self) -> &'static str {
        "figure8"
    }

    fn title(&self) -> &'static str {
        "Categories of set primaries over time"
    }

    fn paper_reference(&self) -> &'static str {
        "news and media is the largest single category of set primaries"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let (series, final_counts) = category_series(scenario, MemberRole::Primary);
        let mut report = Report::new(self.id(), self.title());
        let mut table = TextTable::new(vec!["Category", "Primaries (final month)"]);
        for (label, count) in final_counts.sorted_by_count() {
            table.add_row(vec![label, count.to_string()]);
        }
        report.add_table("final_month", table);
        for (label, points) in series {
            report.add_series(Series::new(label, points));
        }
        report.add_note(format!("paper reference: {}", self.paper_reference()));
        report
    }
}

/// Figure 9: Forcepoint-style categories of associated sites over time.
pub struct Figure9;

impl Experiment for Figure9 {
    fn id(&self) -> &'static str {
        "figure9"
    }

    fn title(&self) -> &'static str {
        "Categories of associated sites over time"
    }

    fn paper_reference(&self) -> &'static str {
        "associated sites span news, IT, business and analytics/tracking infrastructure \
         (e.g. webvisor.com in the ya.ru set)"
    }

    fn run(&self, scenario: &Scenario) -> Report {
        let (series, final_counts) = category_series(scenario, MemberRole::Associated);
        let mut report = Report::new(self.id(), self.title());
        let mut table = TextTable::new(vec!["Category", "Associated sites (final month)"]);
        for (label, count) in final_counts.sorted_by_count() {
            table.add_row(vec![label, count.to_string()]);
        }
        report.add_table("final_month", table);
        for (label, points) in series {
            report.add_series(Series::new(label, points));
        }
        report.add_note(format!("paper reference: {}", self.paper_reference()));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use rws_engine::EngineContext;

    fn scenario() -> Scenario {
        Scenario::generate_with(ScenarioConfig::small(53), &EngineContext::new())
    }

    #[test]
    fn table3_is_sorted_by_count_and_dominated_by_well_known_failures() {
        let s = scenario();
        let report = Table3.run(&s);
        let table = report.table("table3").unwrap();
        assert!(table.rows().len() >= 2);
        let counts: Vec<u64> = table
            .rows()
            .iter()
            .map(|r| r[1].parse::<u64>().unwrap())
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "not sorted: {counts:?}"
        );
        assert_eq!(table.rows()[0][0], "Unable to fetch .well-known JSON file");
    }

    #[test]
    fn figure5_series_are_cumulative() {
        let s = scenario();
        let report = Figure5.run(&s);
        for series in &report.series {
            let ys: Vec<f64> = series.points.iter().map(|(_, y)| *y).collect();
            assert!(
                ys.windows(2).all(|w| w[1] >= w[0]),
                "{} not cumulative",
                series.name
            );
        }
        let approved_final = report
            .series
            .iter()
            .find(|s| s.name == "Approved")
            .unwrap()
            .points
            .last()
            .unwrap()
            .1;
        assert!(approved_final > 0.0);
    }

    #[test]
    fn figure6_cdfs_present_and_rejections_close_faster() {
        let s = scenario();
        let report = Figure6.run(&s);
        assert_eq!(report.series.len(), 2);
        let approved_median =
            rws_stats::median(&s.history.days_to_process(PrState::Approved)).unwrap();
        let closed_median = rws_stats::median(&s.history.days_to_process(PrState::Closed)).unwrap();
        assert!(
            closed_median <= approved_median,
            "rejected PRs ({closed_median} days) should resolve no slower than approved ({approved_median})"
        );
    }

    #[test]
    fn figure7_composition_counts_grow() {
        let s = scenario();
        let report = Figure7.run(&s);
        let associated = report
            .series
            .iter()
            .find(|s| s.name == "Associated sites")
            .unwrap();
        let ys: Vec<f64> = associated.points.iter().map(|(_, y)| *y).collect();
        assert!(
            ys.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "composition series shrank: {ys:?}"
        );
        assert!(*ys.last().unwrap() > 0.0);
    }

    #[test]
    fn figures_8_and_9_have_category_series() {
        let s = scenario();
        for report in [Figure8.run(&s), Figure9.run(&s)] {
            assert!(!report.series.is_empty());
            assert!(report.table("final_month").is_some());
            for series in &report.series {
                assert!(series.points.iter().all(|(_, y)| *y >= 0.0));
            }
        }
    }
}
