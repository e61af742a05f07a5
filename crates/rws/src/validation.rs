//! Set-level technical validation — the automated checks behind Table 3.
//!
//! When a set is proposed on GitHub, a bot runs a series of technical checks
//! and reports failures as pull-request comments. Table 3 of the paper
//! counts the observed messages:
//!
//! | message | count |
//! |---|---|
//! | Unable to fetch .well-known JSON file | 202 |
//! | Associated site isn't an eTLD+1 | 65 |
//! | Service site without X-Robots-Tag header | 19 |
//! | PR set does not match .well-known JSON file | 12 |
//! | Alias site isn't an eTLD+1 | 10 |
//! | Primary site isn't an eTLD+1 | 9 |
//! | Other | 8 |
//! | No rationale for one or more set members | 5 |
//!
//! [`SetValidator`] reproduces those checks against the simulated web: it
//! verifies eTLD+1 status of every member, HTTPS reachability, the
//! `.well-known` file on every member, its consistency with the submission,
//! the `X-Robots-Tag` header on service sites, and rationale presence.
//!
//! Like the bot, a run makes one plain fetch per check and judges what it
//! gets: every failure is one of the classes above and fails the
//! submission. A later push is judged by calling
//! [`validate`](SetValidator::validate) again.

use crate::set::RwsSet;
use crate::well_known::WellKnownFile;
use rws_domain::{DomainName, SiteResolver};
use rws_net::{well_known_path, FetchPolicy, Fetcher, NetError, SimulatedWeb, Url, X_ROBOTS_TAG};
use serde::{Deserialize, Serialize};

/// One validation failure, tagged with the member it concerns.
///
/// The variants map one-to-one onto the GitHub bot's message classes in
/// Table 3 (plus `Other`, which the bot uses for everything else).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationIssue {
    /// The member's `/.well-known/related-website-set.json` could not be
    /// fetched (DNS failure, connection refused, non-200, or invalid JSON).
    WellKnownUnfetchable {
        /// The member whose file failed to fetch.
        site: DomainName,
        /// A human-readable description of the failure.
        detail: String,
    },
    /// An associated site is not an eTLD+1.
    AssociatedSiteNotEtldPlusOne {
        /// The offending associated site.
        site: DomainName,
    },
    /// A service site does not serve an `X-Robots-Tag` header.
    ServiceSiteWithoutRobotsTag {
        /// The offending service site.
        site: DomainName,
    },
    /// The member's well-known file does not match the submitted set.
    WellKnownMismatch {
        /// The member whose file disagrees with the submission.
        site: DomainName,
    },
    /// A ccTLD ("alias") site is not an eTLD+1.
    AliasSiteNotEtldPlusOne {
        /// The offending ccTLD variant.
        site: DomainName,
    },
    /// The primary is not an eTLD+1.
    PrimarySiteNotEtldPlusOne {
        /// The primary in question.
        site: DomainName,
    },
    /// A member is missing a rationale.
    MissingRationale {
        /// The member missing its rationale.
        site: DomainName,
    },
    /// Anything else (non-HTTPS members, unreachable pages, …), matching
    /// the bot's residual "Other" bucket.
    Other {
        /// The member concerned.
        site: DomainName,
        /// Description of the problem.
        detail: String,
    },
}

impl ValidationIssue {
    /// The exact bot-comment label used in Table 3 of the paper.
    pub fn bot_message(&self) -> &'static str {
        match self {
            ValidationIssue::WellKnownUnfetchable { .. } => "Unable to fetch .well-known JSON file",
            ValidationIssue::AssociatedSiteNotEtldPlusOne { .. } => {
                "Associated site isn't an eTLD+1"
            }
            ValidationIssue::ServiceSiteWithoutRobotsTag { .. } => {
                "Service site without X-Robots-Tag header"
            }
            ValidationIssue::WellKnownMismatch { .. } => {
                "PR set does not match .well-known JSON file"
            }
            ValidationIssue::AliasSiteNotEtldPlusOne { .. } => "Alias site isn't an eTLD+1",
            ValidationIssue::PrimarySiteNotEtldPlusOne { .. } => "Primary site isn't an eTLD+1",
            ValidationIssue::MissingRationale { .. } => "No rationale for one or more set members",
            ValidationIssue::Other { .. } => "Other",
        }
    }

    /// The site the issue concerns.
    pub fn site(&self) -> &DomainName {
        match self {
            ValidationIssue::WellKnownUnfetchable { site, .. }
            | ValidationIssue::AssociatedSiteNotEtldPlusOne { site }
            | ValidationIssue::ServiceSiteWithoutRobotsTag { site }
            | ValidationIssue::WellKnownMismatch { site }
            | ValidationIssue::AliasSiteNotEtldPlusOne { site }
            | ValidationIssue::PrimarySiteNotEtldPlusOne { site }
            | ValidationIssue::MissingRationale { site }
            | ValidationIssue::Other { site, .. } => site,
        }
    }
}

/// The overall outcome of validating a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationOutcome {
    /// Every check passed.
    Passed,
    /// At least one check failed.
    Failed,
}

/// The full validation report for one submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// The set primary the submission proposed.
    pub primary: DomainName,
    /// Overall outcome.
    pub outcome: ValidationOutcome,
    /// Every issue found, in check order (the bot reports all of them, not
    /// just the first).
    pub issues: Vec<ValidationIssue>,
    /// Number of network fetches performed during validation.
    pub fetches: usize,
}

impl ValidationReport {
    /// True if validation passed.
    pub fn passed(&self) -> bool {
        self.outcome == ValidationOutcome::Passed
    }

    /// The bot-comment labels for every issue, in order.
    pub fn bot_messages(&self) -> Vec<&'static str> {
        self.issues
            .iter()
            .map(ValidationIssue::bot_message)
            .collect()
    }
}

/// The automated set validator.
pub struct SetValidator {
    resolver: SiteResolver,
    fetcher: Fetcher,
}

impl SetValidator {
    /// Create a validator over a simulated web, with the strict fetch
    /// policy the real bot uses. `resolver` is a memoizing
    /// [`SiteResolver`], usually shared with the rest of the engine: the
    /// governance pipeline validates hundreds of submissions naming the
    /// same hosts, and one cache answers all of the repeated eTLD+1
    /// questions.
    pub fn new(web: SimulatedWeb, resolver: SiteResolver) -> SetValidator {
        SetValidator {
            resolver,
            fetcher: Fetcher::with_policy(web, FetchPolicy::strict()),
        }
    }

    /// The web the validator fetches from, for standing up hosts a
    /// submission needs before it is validated.
    pub fn web_mut(&mut self) -> &mut SimulatedWeb {
        self.fetcher.web_mut()
    }

    /// Validate one submitted set, returning the full report.
    pub fn validate(&self, set: &RwsSet) -> ValidationReport {
        let mut issues = Vec::new();
        let fetches_before = self.fetcher.requests_issued();

        self.check_etld_plus_one(set, &mut issues);
        self.check_rationales(set, &mut issues);
        self.check_well_known(set, &mut issues);
        self.check_service_robots(set, &mut issues);

        let fetches = self.fetcher.requests_issued() - fetches_before;
        let outcome = if issues.is_empty() {
            ValidationOutcome::Passed
        } else {
            ValidationOutcome::Failed
        };
        ValidationReport {
            primary: set.primary().clone(),
            outcome,
            issues,
            fetches,
        }
    }

    fn check_etld_plus_one(&self, set: &RwsSet, issues: &mut Vec<ValidationIssue>) {
        if !self.resolver.is_etld_plus_one(set.primary()) {
            issues.push(ValidationIssue::PrimarySiteNotEtldPlusOne {
                site: set.primary().clone(),
            });
        }
        for site in set.associated_sites() {
            if !self.resolver.is_etld_plus_one(site) {
                issues.push(ValidationIssue::AssociatedSiteNotEtldPlusOne { site: site.clone() });
            }
        }
        for site in set.service_sites() {
            if !self.resolver.is_etld_plus_one(site) {
                // The bot reports non-eTLD+1 service sites under "Other".
                issues.push(ValidationIssue::Other {
                    site: site.clone(),
                    detail: "Service site isn't an eTLD+1".to_string(),
                });
            }
        }
        for site in set.cctld_sites() {
            if !self.resolver.is_etld_plus_one(site) {
                issues.push(ValidationIssue::AliasSiteNotEtldPlusOne { site: site.clone() });
            }
        }
    }

    fn check_rationales(&self, set: &RwsSet, issues: &mut Vec<ValidationIssue>) {
        let mut missing: Vec<DomainName> = Vec::new();
        for site in set.associated_sites().chain(set.service_sites()) {
            if set.rationale_for(site).is_none() {
                missing.push(site.clone());
            }
        }
        // The bot emits a single "No rationale for one or more set members"
        // comment per validation run, regardless of how many members lack
        // one — mirror that by reporting the first offender only.
        if let Some(site) = missing.into_iter().next() {
            issues.push(ValidationIssue::MissingRationale { site });
        }
    }

    fn check_well_known(&self, set: &RwsSet, issues: &mut Vec<ValidationIssue>) {
        for member in set.domains() {
            match self.fetch_well_known(&member) {
                Ok(file) => {
                    if !file.matches_submission(set) {
                        issues.push(ValidationIssue::WellKnownMismatch { site: member });
                    }
                }
                Err(err) => issues.push(ValidationIssue::WellKnownUnfetchable {
                    site: member,
                    detail: err.to_string(),
                }),
            }
        }
    }

    /// Fetch and parse a member's well-known file. The bot needs a
    /// success status, so any other answer is an [`NetError::HttpStatus`]
    /// naming the URL the redirects ended at; a body that does not parse is
    /// an [`NetError::InvalidJson`] naming the URL asked for.
    fn fetch_well_known(&self, member: &DomainName) -> Result<WellKnownFile, NetError> {
        let url = well_known_path(member);
        let resp = self.fetcher.get(&url)?;
        if !resp.status.is_success() {
            return Err(NetError::HttpStatus {
                url: resp.url,
                status: resp.status,
            });
        }
        // The served JSON is interned UTF-8, so the borrowed `body_str`
        // fast path parses without re-allocating the body; the lossy copy
        // only runs for non-UTF-8 bodies.
        resp.body_str()
            .map(WellKnownFile::from_json_str)
            .unwrap_or_else(|| WellKnownFile::from_json_str(&resp.body_text()))
            .map_err(|err| NetError::InvalidJson {
                url,
                reason: err.to_string(),
            })
    }

    fn check_service_robots(&self, set: &RwsSet, issues: &mut Vec<ValidationIssue>) {
        for site in set.service_sites() {
            let url = Url::https(site, "/");
            match self.fetcher.head(&url) {
                Ok(resp) if resp.headers.contains(X_ROBOTS_TAG) => {}
                Ok(_) => {
                    issues.push(ValidationIssue::ServiceSiteWithoutRobotsTag { site: site.clone() })
                }
                Err(err) => issues.push(ValidationIssue::Other {
                    site: site.clone(),
                    detail: format!("service site unreachable: {err}"),
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_net::{PageContent, SiteHost};

    /// Register a member on the simulated web with a correct well-known file
    /// and (optionally) the service-site robots header.
    fn host_member(web: &mut SimulatedWeb, domain: &str, set: &RwsSet, robots: bool) {
        let d = DomainName::parse(domain).unwrap();
        let mut host = SiteHost::new(domain).unwrap();
        host.add_page("/", format!("<html><body>{domain}</body></html>"));
        let wk = if &d == set.primary() {
            WellKnownFile::for_primary(set)
        } else {
            WellKnownFile::for_member(set.primary())
        };
        host.add_json(rws_net::WELL_KNOWN_RWS_PATH, wk.to_json_string());
        if robots {
            host.add_header("/", "X-Robots-Tag", "noindex");
        }
        web.register(host);
    }

    fn valid_set() -> RwsSet {
        let mut set = RwsSet::new("https://bild.de").unwrap();
        set.add_associated("https://autobild.de", "Automotive sister brand")
            .unwrap();
        set.add_service("https://bildstatic.de", "Asset CDN")
            .unwrap();
        set
    }

    /// A validator over `web` with the embedded PSL.
    fn validator_over(web: SimulatedWeb) -> SetValidator {
        SetValidator::new(web, SiteResolver::embedded())
    }

    fn web_for(set: &RwsSet) -> SimulatedWeb {
        let mut web = SimulatedWeb::new();
        host_member(&mut web, "bild.de", set, false);
        host_member(&mut web, "autobild.de", set, false);
        host_member(&mut web, "bildstatic.de", set, true);
        web
    }

    #[test]
    fn fully_valid_set_passes() {
        let set = valid_set();
        let validator = validator_over(web_for(&set));
        let report = validator.validate(&set);
        assert!(report.passed(), "unexpected issues: {:?}", report.issues);
        assert!(
            report.fetches >= 4,
            "one well-known per member plus service HEAD"
        );
    }

    #[test]
    fn missing_well_known_is_reported_per_member() {
        let set = valid_set();
        let mut web = web_for(&set);
        // Remove autobild.de's well-known by re-registering without it.
        let mut bare = SiteHost::new("autobild.de").unwrap();
        bare.add_page("/", "<html></html>");
        web.register(bare);
        let report = validator_over(web).validate(&set);
        assert!(!report.passed());
        assert_eq!(
            report
                .issues
                .iter()
                .filter(|i| matches!(i, ValidationIssue::WellKnownUnfetchable { .. }))
                .count(),
            1
        );
        assert!(report
            .bot_messages()
            .contains(&"Unable to fetch .well-known JSON file"));
    }

    #[test]
    fn unreachable_host_reported_as_unfetchable() {
        let set = valid_set();
        let mut web = web_for(&set);
        web.update_host(&DomainName::parse("bildstatic.de").unwrap(), |h| {
            h.set_offline(true);
        });
        let report = validator_over(web).validate(&set);
        let unfetchable: Vec<_> = report
            .issues
            .iter()
            .filter(|i| matches!(i, ValidationIssue::WellKnownUnfetchable { .. }))
            .collect();
        assert_eq!(unfetchable.len(), 1);
        assert_eq!(unfetchable[0].site().as_str(), "bildstatic.de");
    }

    #[test]
    fn non_etld_plus_one_members_flagged_by_role() {
        let mut set = RwsSet::new("https://www.primary-example.com").unwrap();
        set.add_associated("https://sub.assoc-example.com", "r")
            .unwrap();
        set.add_cctld_variants(
            "https://www.primary-example.com",
            &["https://www.primary-example.de"],
        )
        .unwrap();
        // Empty web: well-known checks will also fail, but we only assert on
        // the eTLD+1 classes here.
        let report = validator_over(SimulatedWeb::new()).validate(&set);
        let etld_messages: Vec<&str> = report
            .issues
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    ValidationIssue::PrimarySiteNotEtldPlusOne { .. }
                        | ValidationIssue::AssociatedSiteNotEtldPlusOne { .. }
                        | ValidationIssue::AliasSiteNotEtldPlusOne { .. }
                )
            })
            .map(ValidationIssue::bot_message)
            .collect();
        assert_eq!(
            etld_messages,
            vec![
                "Primary site isn't an eTLD+1",
                "Associated site isn't an eTLD+1",
                "Alias site isn't an eTLD+1",
            ]
        );
    }

    #[test]
    fn service_site_without_robots_header_flagged() {
        let set = valid_set();
        let mut web = SimulatedWeb::new();
        host_member(&mut web, "bild.de", &set, false);
        host_member(&mut web, "autobild.de", &set, false);
        // Service site present but without the X-Robots-Tag header.
        host_member(&mut web, "bildstatic.de", &set, false);
        let report = validator_over(web).validate(&set);
        assert!(report
            .bot_messages()
            .contains(&"Service site without X-Robots-Tag header"));
    }

    #[test]
    fn well_known_mismatch_flagged() {
        let set = valid_set();
        let mut web = web_for(&set);
        // autobild.de claims a different primary.
        let mut lying = SiteHost::new("autobild.de").unwrap();
        lying.add_page("/", "<html></html>");
        let other = DomainName::parse("unrelated.com").unwrap();
        lying.add_json(
            rws_net::WELL_KNOWN_RWS_PATH,
            WellKnownFile::for_member(&other).to_json_string(),
        );
        web.register(lying);
        let report = validator_over(web).validate(&set);
        assert!(report
            .bot_messages()
            .contains(&"PR set does not match .well-known JSON file"));
    }

    #[test]
    fn missing_rationale_reported_once() {
        let mut set = RwsSet::new("https://a-example.com").unwrap();
        set.add_associated_without_rationale("https://b-example.com")
            .unwrap();
        set.add_associated_without_rationale("https://c-example.com")
            .unwrap();
        // Host every member correctly so the rationale check is the only
        // one that fails.
        let mut web = SimulatedWeb::new();
        for member in ["a-example.com", "b-example.com", "c-example.com"] {
            host_member(&mut web, member, &set, false);
        }
        let report = validator_over(web).validate(&set);
        assert_eq!(report.issues.len(), 1);
        assert_eq!(
            report.bot_messages(),
            vec!["No rationale for one or more set members"]
        );
    }

    #[test]
    fn invalid_json_well_known_is_unfetchable() {
        let set = valid_set();
        let mut web = web_for(&set);
        let mut broken = SiteHost::new("bild.de").unwrap();
        broken.add_page("/", "<html></html>");
        broken.add_json(rws_net::WELL_KNOWN_RWS_PATH, "{not valid json");
        web.register(broken);
        let report = validator_over(web).validate(&set);
        assert_eq!(
            report.issues,
            vec![ValidationIssue::WellKnownUnfetchable {
                site: DomainName::parse("bild.de").unwrap(),
                detail: "body at 'https://bild.de/.well-known/related-website-set.json' is not \
                         valid JSON: malformed Related Website Sets JSON: expected `\"` at byte 1"
                    .to_string(),
            }]
        );
    }

    #[test]
    fn non_success_well_known_names_its_status_and_final_url() {
        let set = valid_set();
        let mut web = web_for(&set);
        // autobild.de answers 404 at the well-known path itself.
        let mut bare = SiteHost::new("autobild.de").unwrap();
        bare.add_page("/", "<html></html>");
        web.register(bare);
        // bildstatic.de redirects it to a retired file that answers 404:
        // the detail names where the redirects ended, not the path asked.
        web.update_host(&DomainName::parse("bildstatic.de").unwrap(), |h| {
            h.add_content(
                rws_net::WELL_KNOWN_RWS_PATH,
                PageContent::Redirect {
                    location: "/retired.json".into(),
                    permanent: true,
                },
            );
        });
        let report = validator_over(web).validate(&set);
        let unfetchable = |site: &str, detail: &str| ValidationIssue::WellKnownUnfetchable {
            site: DomainName::parse(site).unwrap(),
            detail: detail.to_string(),
        };
        assert_eq!(
            report.issues,
            vec![
                unfetchable(
                    "autobild.de",
                    "unexpected HTTP 404 at \
                     'https://autobild.de/.well-known/related-website-set.json'"
                ),
                unfetchable(
                    "bildstatic.de",
                    "unexpected HTTP 404 at 'https://bildstatic.de/retired.json'"
                ),
            ]
        );
    }
}
