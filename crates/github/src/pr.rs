//! Pull-request records and history-level aggregations.

use rws_domain::DomainName;
use rws_model::ValidationReport;
use rws_stats::counter::CategoryCounter;
use rws_stats::timeseries::{Date, Month, MonthlySeries};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Final state of a pull request that proposes a new set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrState {
    /// Approved and merged into the list.
    Approved,
    /// Closed without being merged.
    Closed,
}

impl PrState {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PrState::Approved => "Approved",
            PrState::Closed => "Closed (without being merged)",
        }
    }
}

/// One pull request proposing a new Related Website Set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PullRequest {
    /// Sequential PR number.
    pub number: usize,
    /// The primary of the proposed set.
    pub primary: DomainName,
    /// When the PR was opened.
    pub opened_at: Date,
    /// When it reached its final state.
    pub resolved_at: Date,
    /// Final state.
    pub state: PrState,
    /// Whether the contributor had signed the CLA (a failed CLA check blocks
    /// validation entirely).
    pub cla_signed: bool,
    /// The validation bot's report for the submission, if validation ran.
    pub validation: Option<ValidationReport>,
}

impl PullRequest {
    /// Whole days from opening to resolution — the x-axis of Figure 6.
    pub fn days_to_process(&self) -> i64 {
        self.opened_at.days_until(self.resolved_at)
    }

    /// The bot messages this PR received (empty when validation did not run
    /// or found nothing).
    pub fn bot_messages(&self) -> Vec<&'static str> {
        self.validation
            .as_ref()
            .map(|v| v.bot_messages())
            .unwrap_or_default()
    }
}

/// A full PR history for the repository.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PrHistory {
    prs: Vec<PullRequest>,
}

impl PrHistory {
    /// Create a history from PRs (kept in opened-at order).
    pub fn new(mut prs: Vec<PullRequest>) -> PrHistory {
        prs.sort_by_key(|pr| (pr.opened_at, pr.number));
        PrHistory { prs }
    }

    /// Every PR, in opened order.
    pub fn prs(&self) -> &[PullRequest] {
        &self.prs
    }

    /// Total number of PRs.
    pub fn len(&self) -> usize {
        self.prs.len()
    }

    /// True if the history has no PRs.
    pub fn is_empty(&self) -> bool {
        self.prs.is_empty()
    }

    /// Number of PRs in the given final state.
    pub fn count(&self, state: PrState) -> usize {
        self.prs.iter().filter(|pr| pr.state == state).count()
    }

    /// Fraction of PRs closed without being merged (paper: 58.8%).
    pub fn rejection_rate(&self) -> f64 {
        if self.prs.is_empty() {
            return 0.0;
        }
        self.count(PrState::Closed) as f64 / self.prs.len() as f64
    }

    /// Number of distinct set primaries across the history (paper: 60).
    pub fn distinct_primaries(&self) -> usize {
        self.prs
            .iter()
            .map(|pr| pr.primary.clone())
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Mean PRs per distinct primary (paper: 1.9).
    pub fn mean_prs_per_primary(&self) -> f64 {
        let distinct = self.distinct_primaries();
        if distinct == 0 {
            return 0.0;
        }
        self.prs.len() as f64 / distinct as f64
    }

    /// Per-month count of PRs opened, split by final state — the input to
    /// the cumulative plot of Figure 5.
    fn monthly_by_state(&self, start: Month, end: Month) -> (MonthlySeries, MonthlySeries) {
        let mut approved = MonthlySeries::zeros(start, end);
        let mut closed = MonthlySeries::zeros(start, end);
        for pr in &self.prs {
            let month = pr.opened_at.month_of();
            match pr.state {
                PrState::Approved => approved.add(month, 1.0),
                PrState::Closed => closed.add(month, 1.0),
            };
        }
        (approved, closed)
    }

    /// Cumulative PR counts by month, split by final state (Figure 5).
    pub fn cumulative_by_state(&self, start: Month, end: Month) -> (MonthlySeries, MonthlySeries) {
        let (approved, closed) = self.monthly_by_state(start, end);
        (approved.cumulative(), closed.cumulative())
    }

    /// Days-to-process samples for PRs in the given state (Figure 6).
    pub fn days_to_process(&self, state: PrState) -> Vec<f64> {
        self.prs
            .iter()
            .filter(|pr| pr.state == state)
            .map(|pr| pr.days_to_process() as f64)
            .collect()
    }

    /// Fraction of PRs in `state` resolved on the day they were opened
    /// (paper: 54.3% of unsuccessful PRs).
    pub fn same_day_fraction(&self, state: PrState) -> f64 {
        let days = self.days_to_process(state);
        if days.is_empty() {
            return 0.0;
        }
        days.iter().filter(|&&d| d < 1.0).count() as f64 / days.len() as f64
    }

    /// Counts of every bot validation message across the history (Table 3).
    pub fn bot_message_counts(&self) -> CategoryCounter {
        let mut counter = CategoryCounter::new();
        for pr in &self.prs {
            for message in pr.bot_messages() {
                counter.record(message);
            }
        }
        counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_model::{ValidationIssue, ValidationOutcome};

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn pr(
        number: usize,
        primary: &str,
        opened: &str,
        resolved: &str,
        state: PrState,
        issues: Vec<ValidationIssue>,
    ) -> PullRequest {
        let outcome = if issues.is_empty() {
            ValidationOutcome::Passed
        } else {
            ValidationOutcome::Failed
        };
        PullRequest {
            number,
            primary: dn(primary),
            opened_at: Date::parse(opened).unwrap(),
            resolved_at: Date::parse(resolved).unwrap(),
            state,
            cla_signed: true,
            validation: Some(ValidationReport {
                primary: dn(primary),
                outcome,
                issues,
                fetches: 0,
            }),
        }
    }

    fn sample_history() -> PrHistory {
        PrHistory::new(vec![
            pr(
                1,
                "alpha.com",
                "2023-03-05",
                "2023-03-10",
                PrState::Approved,
                vec![],
            ),
            pr(
                2,
                "beta.com",
                "2023-05-01",
                "2023-05-01",
                PrState::Closed,
                vec![ValidationIssue::WellKnownUnfetchable {
                    site: dn("beta.com"),
                    detail: "host not found".into(),
                }],
            ),
            pr(
                3,
                "beta.com",
                "2023-06-02",
                "2023-06-09",
                PrState::Approved,
                vec![],
            ),
            pr(
                4,
                "gamma.com",
                "2024-01-10",
                "2024-01-25",
                PrState::Closed,
                vec![
                    ValidationIssue::AssociatedSiteNotEtldPlusOne {
                        site: dn("sub.gamma.com"),
                    },
                    ValidationIssue::WellKnownUnfetchable {
                        site: dn("gamma.com"),
                        detail: "404".into(),
                    },
                ],
            ),
        ])
    }

    #[test]
    fn counts_and_rates() {
        let h = sample_history();
        assert_eq!(h.len(), 4);
        assert_eq!(h.count(PrState::Approved), 2);
        assert_eq!(h.count(PrState::Closed), 2);
        assert!((h.rejection_rate() - 0.5).abs() < 1e-12);
        assert_eq!(h.distinct_primaries(), 3);
        assert!((h.mean_prs_per_primary() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn days_to_process_and_same_day() {
        let h = sample_history();
        let approved = h.days_to_process(PrState::Approved);
        assert_eq!(approved, vec![5.0, 7.0]);
        let closed = h.days_to_process(PrState::Closed);
        assert_eq!(closed, vec![0.0, 15.0]);
        assert!((h.same_day_fraction(PrState::Closed) - 0.5).abs() < 1e-12);
        assert_eq!(h.same_day_fraction(PrState::Approved), 0.0);
    }

    #[test]
    fn monthly_and_cumulative_series() {
        let h = sample_history();
        let start = Month::new(2023, 3);
        let end = Month::new(2024, 3);
        let (approved, closed) = h.cumulative_by_state(start, end);
        // Cumulative approved reaches 2 by 2023-06 and stays there.
        assert_eq!(approved.get(Month::new(2023, 3)), Some(1.0));
        assert_eq!(approved.get(Month::new(2023, 6)), Some(2.0));
        assert_eq!(approved.get(Month::new(2024, 3)), Some(2.0));
        assert_eq!(closed.get(Month::new(2024, 3)), Some(2.0));
        // Monotone non-decreasing.
        let values: Vec<f64> = approved.iter().map(|(_, v)| v).collect();
        assert!(values.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn bot_message_counts_match_issues() {
        let h = sample_history();
        let counts = h.bot_message_counts();
        assert_eq!(counts.get("Unable to fetch .well-known JSON file"), 2);
        assert_eq!(counts.get("Associated site isn't an eTLD+1"), 1);
        assert_eq!(counts.total(), 3);
    }

    #[test]
    fn history_sorted_by_open_date() {
        let h = sample_history();
        let opened: Vec<Date> = h.prs().iter().map(|p| p.opened_at).collect();
        assert!(opened.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_history_edge_cases() {
        let h = PrHistory::default();
        assert!(h.is_empty());
        assert_eq!(h.rejection_rate(), 0.0);
        assert_eq!(h.mean_prs_per_primary(), 0.0);
        assert_eq!(h.same_day_fraction(PrState::Closed), 0.0);
        assert_eq!(h.bot_message_counts().total(), 0);
    }
}
