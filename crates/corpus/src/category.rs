//! Site categories, mirroring the Forcepoint ThreatSeeker groupings the
//! paper uses in Figures 8 and 9.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Broad content category of a site.
///
/// The variants are the categories the paper plots after merging similar
/// Forcepoint categories (Figures 8 and 9): news and media, information
/// technology, business and economy, search engines and portals, social
/// networking, analytics/infrastructure, adult content, compromised/spam,
/// shopping (folded into "other" in the paper's plots), entertainment,
/// travel, games, and unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SiteCategory {
    /// News publishers and media brands.
    NewsAndMedia,
    /// IT publications, software and developer services.
    InformationTechnology,
    /// General business, finance, commerce.
    BusinessAndEconomy,
    /// Search engines and web portals.
    SearchEnginesAndPortals,
    /// Social networks and community sites.
    SocialNetworking,
    /// Web analytics, advertising and serving infrastructure.
    AnalyticsInfrastructure,
    /// Online shops and marketplaces.
    Shopping,
    /// Entertainment, streaming and celebrity content.
    Entertainment,
    /// Travel booking and tourism.
    Travel,
    /// Online games and gaming media.
    Games,
    /// Adult content.
    AdultContent,
    /// Compromised or spam-serving sites.
    CompromisedSpam,
    /// Category could not be determined.
    Unknown,
}

impl SiteCategory {
    /// Every category, in a stable order.
    pub const ALL: [SiteCategory; 13] = [
        SiteCategory::NewsAndMedia,
        SiteCategory::InformationTechnology,
        SiteCategory::BusinessAndEconomy,
        SiteCategory::SearchEnginesAndPortals,
        SiteCategory::SocialNetworking,
        SiteCategory::AnalyticsInfrastructure,
        SiteCategory::Shopping,
        SiteCategory::Entertainment,
        SiteCategory::Travel,
        SiteCategory::Games,
        SiteCategory::AdultContent,
        SiteCategory::CompromisedSpam,
        SiteCategory::Unknown,
    ];

    /// The label the paper uses in its figures.
    pub fn label(self) -> &'static str {
        match self {
            SiteCategory::NewsAndMedia => "news and media",
            SiteCategory::InformationTechnology => "information technology",
            SiteCategory::BusinessAndEconomy => "business and economy",
            SiteCategory::SearchEnginesAndPortals => "search engines and portals",
            SiteCategory::SocialNetworking => "social networking",
            SiteCategory::AnalyticsInfrastructure => "analytics/infrastructure",
            SiteCategory::Shopping => "shopping",
            SiteCategory::Entertainment => "entertainment",
            SiteCategory::Travel => "travel",
            SiteCategory::Games => "games",
            SiteCategory::AdultContent => "adult content",
            SiteCategory::CompromisedSpam => "compromised/spam",
            SiteCategory::Unknown => "unknown",
        }
    }

    /// The bucket used in the paper's figures: the named major categories
    /// keep their own label, while the smaller ones are merged into
    /// "other" (Figures 8 and 9 note that "smaller categories are grouped
    /// into Other").
    pub fn figure_bucket(self) -> &'static str {
        match self {
            SiteCategory::NewsAndMedia
            | SiteCategory::InformationTechnology
            | SiteCategory::BusinessAndEconomy
            | SiteCategory::SearchEnginesAndPortals
            | SiteCategory::SocialNetworking
            | SiteCategory::AnalyticsInfrastructure
            | SiteCategory::AdultContent
            | SiteCategory::CompromisedSpam => self.label(),
            SiteCategory::Unknown => "unknown",
            SiteCategory::Shopping
            | SiteCategory::Entertainment
            | SiteCategory::Travel
            | SiteCategory::Games => "other",
        }
    }
}

impl fmt::Display for SiteCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_label() {
        for c in SiteCategory::ALL {
            assert_eq!(c.to_string(), c.label());
        }
    }

    #[test]
    fn figure_buckets_merge_small_categories() {
        assert_eq!(SiteCategory::Shopping.figure_bucket(), "other");
        assert_eq!(SiteCategory::Travel.figure_bucket(), "other");
        assert_eq!(SiteCategory::NewsAndMedia.figure_bucket(), "news and media");
        assert_eq!(SiteCategory::Unknown.figure_bucket(), "unknown");
        assert_eq!(
            SiteCategory::AnalyticsInfrastructure.figure_bucket(),
            "analytics/infrastructure"
        );
    }

    #[test]
    fn all_contains_every_variant_once() {
        let mut labels: Vec<&str> = SiteCategory::ALL.iter().map(|c| c.label()).collect();
        let before = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), before);
        assert_eq!(before, 13);
    }
}
