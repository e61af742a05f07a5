//! The governance pipeline: CLA check, validation bot, manual review.

use crate::pr::{PrState, PullRequest};
use rws_domain::SiteResolver;
use rws_model::{RwsSet, SetValidator};
use rws_net::SimulatedWeb;
use rws_stats::rng::Rng;
use rws_stats::timeseries::Date;
use serde::{Deserialize, Serialize};

/// Parameters of the maintainers' manual-review behaviour.
///
/// The paper observes that approved PRs take a median of 5 days (driven by
/// manual review — only 1 of 47 merged PRs failed any automated check),
/// while 54.3% of unsuccessful PRs are closed the same day (submitters close
/// them after reading the bot's output), with a long tail.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReviewModel {
    /// Median days of manual review before a clean submission is merged.
    pub median_approval_days: f64,
    /// Dispersion (log-normal sigma) of approval review times.
    pub approval_sigma: f64,
    /// Probability that a failed submission is closed on the day it was
    /// opened.
    pub same_day_close_probability: f64,
    /// Mean of the (exponential) tail of days before a failed submission is
    /// eventually closed when it is not closed the same day.
    pub slow_close_mean_days: f64,
    /// Probability a submitter has completed the CLA before submitting.
    pub cla_signed_probability: f64,
    /// Probability the maintainers reject a submission even though the
    /// automated checks pass (policy-level rejections).
    pub manual_rejection_probability: f64,
}

impl Default for ReviewModel {
    fn default() -> Self {
        ReviewModel {
            median_approval_days: 5.0,
            approval_sigma: 0.6,
            same_day_close_probability: 0.543,
            slow_close_mean_days: 9.0,
            cla_signed_probability: 0.97,
            manual_rejection_probability: 0.03,
        }
    }
}

/// The full pipeline a submission passes through.
pub struct GovernancePipeline {
    validator: SetValidator,
    review: ReviewModel,
    next_number: usize,
}

impl GovernancePipeline {
    /// Create a pipeline whose validation bot fetches from `web` and
    /// shares the memoizing site resolver `resolver`.
    pub fn new(
        web: SimulatedWeb,
        review: ReviewModel,
        resolver: SiteResolver,
    ) -> GovernancePipeline {
        GovernancePipeline {
            validator: SetValidator::new(web, resolver),
            review,
            next_number: 1,
        }
    }

    /// The web the validation bot fetches from, for standing up the hosts
    /// a submission needs before it is processed.
    pub fn web_mut(&mut self) -> &mut SimulatedWeb {
        self.validator.web_mut()
    }

    /// Process one submission opened on `opened_at`, producing the resolved
    /// pull-request record.
    pub fn process<R: Rng + ?Sized>(
        &mut self,
        set: &RwsSet,
        opened_at: Date,
        rng: &mut R,
    ) -> PullRequest {
        let number = self.next_number;
        self.next_number += 1;
        let cla_signed = rng.chance(self.review.cla_signed_probability);
        if !cla_signed {
            // Validation never runs without a CLA; submitters usually close
            // quickly once the CLA bot tells them.
            let delay = rng.geometric_capped(0.5, 10) as i64;
            return PullRequest {
                number,
                primary: set.primary().clone(),
                opened_at,
                resolved_at: opened_at.plus_days(delay),
                state: PrState::Closed,
                cla_signed,
                validation: None,
            };
        }

        let report = self.validator.validate(set);
        let passes = report.passed();
        let manual_reject = rng.chance(self.review.manual_rejection_probability);

        let (state, delay_days) = if passes && !manual_reject {
            // Clean submission: merged after manual review.
            let mu = self.review.median_approval_days.max(0.5).ln();
            let days = rng
                .log_normal(mu, self.review.approval_sigma)
                .round()
                .max(1.0);
            (PrState::Approved, days as i64)
        } else if passes && manual_reject {
            // Maintainers rejected a technically-clean submission; these take
            // about as long as approvals to resolve.
            let mu = self.review.median_approval_days.max(0.5).ln();
            let days = rng
                .log_normal(mu, self.review.approval_sigma)
                .round()
                .max(1.0);
            (PrState::Closed, days as i64)
        } else {
            // Bot-rejected: usually closed the same day, sometimes lingering.
            if rng.chance(self.review.same_day_close_probability) {
                (PrState::Closed, 0)
            } else {
                let days = rng
                    .exponential(1.0 / self.review.slow_close_mean_days)
                    .ceil() as i64;
                (PrState::Closed, days.clamp(1, 50))
            }
        };

        PullRequest {
            number,
            primary: set.primary().clone(),
            opened_at,
            resolved_at: opened_at.plus_days(delay_days),
            state,
            cla_signed,
            validation: Some(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_domain::DomainName;
    use rws_model::WellKnownFile;
    use rws_net::{SiteHost, WELL_KNOWN_RWS_PATH};
    use rws_stats::rng::Xoshiro256StarStar;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn valid_set_and_web() -> (RwsSet, SimulatedWeb) {
        let mut set = RwsSet::new("https://alpha-news.com").unwrap();
        set.add_associated("https://alpha-sports.com", "sister brand")
            .unwrap();
        let mut web = SimulatedWeb::new();
        for domain in ["alpha-news.com", "alpha-sports.com"] {
            let d = dn(domain);
            let mut host = SiteHost::new(domain).unwrap();
            host.add_page("/", "<html></html>");
            let wk = if d == *set.primary() {
                WellKnownFile::for_primary(&set)
            } else {
                WellKnownFile::for_member(set.primary())
            };
            host.add_json(WELL_KNOWN_RWS_PATH, wk.to_json_string());
            web.register(host);
        }
        (set, web)
    }

    #[test]
    fn clean_submission_is_usually_approved_after_review() {
        let (set, web) = valid_set_and_web();
        let mut pipeline = GovernancePipeline::new(
            web,
            ReviewModel {
                manual_rejection_probability: 0.0,
                cla_signed_probability: 1.0,
                ..ReviewModel::default()
            },
            SiteResolver::embedded(),
        );
        let mut rng = Xoshiro256StarStar::new(1);
        let pr = pipeline.process(&set, Date::new(2023, 6, 1), &mut rng);
        assert_eq!(pr.state, PrState::Approved);
        assert!(pr.cla_signed);
        assert!(
            pr.days_to_process() >= 1,
            "manual review takes at least a day"
        );
        assert!(pr.validation.unwrap().passed());
    }

    #[test]
    fn broken_submission_is_closed_with_bot_messages() {
        let (mut set, web) = valid_set_and_web();
        // Add a member that does not exist on the web at all.
        set.add_associated("https://missing-member.com", "oops")
            .unwrap();
        let mut pipeline = GovernancePipeline::new(
            web,
            ReviewModel {
                cla_signed_probability: 1.0,
                ..ReviewModel::default()
            },
            SiteResolver::embedded(),
        );
        let mut rng = Xoshiro256StarStar::new(2);
        let pr = pipeline.process(&set, Date::new(2023, 7, 1), &mut rng);
        assert_eq!(pr.state, PrState::Closed);
        assert!(pr
            .bot_messages()
            .contains(&"Unable to fetch .well-known JSON file"));
    }

    #[test]
    fn unsigned_cla_blocks_validation() {
        let (set, web) = valid_set_and_web();
        let mut pipeline = GovernancePipeline::new(
            web,
            ReviewModel {
                cla_signed_probability: 0.0,
                ..ReviewModel::default()
            },
            SiteResolver::embedded(),
        );
        let mut rng = Xoshiro256StarStar::new(3);
        let pr = pipeline.process(&set, Date::new(2023, 8, 1), &mut rng);
        assert_eq!(pr.state, PrState::Closed);
        assert!(!pr.cla_signed);
        assert!(pr.validation.is_none());
        assert!(pr.bot_messages().is_empty());
    }

    #[test]
    fn pr_numbers_increment() {
        let (set, web) = valid_set_and_web();
        let mut pipeline =
            GovernancePipeline::new(web, ReviewModel::default(), SiteResolver::embedded());
        let mut rng = Xoshiro256StarStar::new(4);
        let a = pipeline.process(&set, Date::new(2023, 6, 1), &mut rng);
        let b = pipeline.process(&set, Date::new(2023, 6, 2), &mut rng);
        assert_eq!(a.number + 1, b.number);
    }

    #[test]
    fn rejected_submissions_often_close_same_day() {
        let (mut set, web) = valid_set_and_web();
        set.add_associated("https://never-registered.com", "broken")
            .unwrap();
        let mut pipeline = GovernancePipeline::new(
            web,
            ReviewModel {
                cla_signed_probability: 1.0,
                ..ReviewModel::default()
            },
            SiteResolver::embedded(),
        );
        let mut rng = Xoshiro256StarStar::new(5);
        let mut same_day = 0usize;
        let total = 200;
        for i in 0..total {
            let pr = pipeline.process(
                &set,
                Date::new(2023, 6, 1).plus_days(i as i64 % 200),
                &mut rng,
            );
            assert_eq!(pr.state, PrState::Closed);
            if pr.days_to_process() == 0 {
                same_day += 1;
            }
        }
        let fraction = same_day as f64 / total as f64;
        assert!(
            (0.40..0.70).contains(&fraction),
            "same-day close fraction {fraction} should be near 0.543"
        );
    }
}
