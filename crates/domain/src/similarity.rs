//! Second-level-domain similarity metrics.
//!
//! Section 3 of the paper asks "How similar are the second-level domains of
//! set members?" and answers it with the Levenshtein distance CDF in
//! Figure 3, plus qualitative observations about shared stems
//! (`autobild.de` ↔ `bild.de`) and identical SLDs across gTLDs
//! (`poalim.xyz` ↔ `poalim.site`). This module packages those comparisons
//! into a single [`SldComparison`] record the analysis layer reuses.

use crate::levenshtein::{levenshtein, normalized_levenshtein};
use crate::name::DomainName;
use crate::psl::PublicSuffixList;
use crate::resolver::SiteResolver;
use serde::{Deserialize, Serialize};

/// A similarity score in `[0, 1]` between two SLD strings:
/// `1 - normalized_levenshtein`, so 1 means identical.
pub fn sld_similarity(a: &str, b: &str) -> f64 {
    1.0 - normalized_levenshtein(a, b)
}

/// A full comparison between a member site's SLD and its set primary's SLD —
/// one point of Figure 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SldComparison {
    /// The member site (service or associated site).
    pub member: DomainName,
    /// The set primary it is registered under.
    pub primary: DomainName,
    /// The member's SLD (e.g. `autobild`).
    pub member_sld: String,
    /// The primary's SLD (e.g. `bild`).
    pub primary_sld: String,
    /// Raw Levenshtein distance between the SLDs (the x-axis of Figure 3).
    pub edit_distance: usize,
    /// Distance normalised by the longer SLD's length.
    pub normalized_distance: f64,
    /// Whether the two SLDs are character-for-character identical (the
    /// "9.3% of associated site SLDs are identical" observation).
    pub identical_sld: bool,
    /// Whether one SLD contains the other as a substring (the shared-stem
    /// case, e.g. `autobild` contains `bild`).
    pub shares_stem: bool,
}

impl SldComparison {
    /// Compare a member site against its primary using the given PSL.
    /// Returns `None` if either name has no registrable domain.
    pub fn compute(
        member: &DomainName,
        primary: &DomainName,
        psl: &PublicSuffixList,
    ) -> Option<SldComparison> {
        let member_sld = psl.second_level_label(member)?;
        let primary_sld = psl.second_level_label(primary)?;
        SldComparison::from_slds(member, primary, member_sld, primary_sld)
    }

    /// Like [`compute`](Self::compute), but resolving SLDs through a
    /// memoizing [`SiteResolver`] — the form the Figure 3 sweep uses, where
    /// the same primary appears in many pairs.
    pub fn compute_cached(
        member: &DomainName,
        primary: &DomainName,
        resolver: &SiteResolver,
    ) -> Option<SldComparison> {
        let member_sld = resolver.second_level_label(member)?;
        let primary_sld = resolver.second_level_label(primary)?;
        SldComparison::from_slds(member, primary, member_sld, primary_sld)
    }

    fn from_slds(
        member: &DomainName,
        primary: &DomainName,
        member_sld: String,
        primary_sld: String,
    ) -> Option<SldComparison> {
        let edit_distance = levenshtein(&member_sld, &primary_sld);
        let normalized_distance = normalized_levenshtein(&member_sld, &primary_sld);
        let identical_sld = member_sld == primary_sld;
        let shares_stem = !identical_sld
            && (member_sld.contains(primary_sld.as_str())
                || primary_sld.contains(member_sld.as_str()));
        Some(SldComparison {
            member: member.clone(),
            primary: primary.clone(),
            member_sld,
            primary_sld,
            edit_distance,
            normalized_distance,
            identical_sld,
            shares_stem,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn similarity_extremes() {
        assert_eq!(sld_similarity("poalim", "poalim"), 1.0);
        assert_eq!(sld_similarity("abc", "xyz"), 0.0);
        let mid = sld_similarity("autobild", "bild");
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn comparison_identical_slds_across_gtlds() {
        let psl = PublicSuffixList::embedded();
        let c = SldComparison::compute(&dn("poalim.site"), &dn("poalim.xyz"), &psl).unwrap();
        assert!(c.identical_sld);
        assert_eq!(c.edit_distance, 0);
        assert!(!c.shares_stem);
    }

    #[test]
    fn comparison_shared_stem() {
        let psl = PublicSuffixList::embedded();
        let c = SldComparison::compute(&dn("autobild.de"), &dn("bild.de"), &psl).unwrap();
        assert!(!c.identical_sld);
        assert!(c.shares_stem);
        assert_eq!(c.edit_distance, 4);
        assert_eq!(c.member_sld, "autobild");
        assert_eq!(c.primary_sld, "bild");
    }

    #[test]
    fn comparison_distinct_slds() {
        let psl = PublicSuffixList::embedded();
        let c = SldComparison::compute(&dn("nourishingpursuits.com"), &dn("cafemedia.com"), &psl)
            .unwrap();
        assert!(!c.identical_sld);
        assert!(!c.shares_stem);
        assert!(c.edit_distance >= 13);
    }

    #[test]
    fn comparison_none_for_bare_suffix() {
        let psl = PublicSuffixList::embedded();
        assert!(SldComparison::compute(&dn("co.uk"), &dn("example.com"), &psl).is_none());
    }

    #[test]
    fn comparison_one_edit_apart() {
        let psl = PublicSuffixList::embedded();
        let c = SldComparison::compute(&dn("exomple.com"), &dn("example.com"), &psl).unwrap();
        assert_eq!(c.edit_distance, 1);
        assert!(!c.identical_sld && !c.shares_stem);
    }
}
