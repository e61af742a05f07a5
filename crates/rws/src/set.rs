//! A single Related Website Set.

use crate::error::SetError;
use rws_domain::DomainName;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The role a domain plays within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemberRole {
    /// The set primary.
    Primary,
    /// An associated site: clearly affiliated, common ownership *not*
    /// required. The most privacy-impacting subset.
    Associated,
    /// A service site: common ownership required, supports other members,
    /// cannot receive top-level storage-access grants.
    Service,
    /// A ccTLD variant of another member (its "base").
    Cctld,
}

impl MemberRole {
    /// Human-readable label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            MemberRole::Primary => "primary",
            MemberRole::Associated => "associated",
            MemberRole::Service => "service",
            MemberRole::Cctld => "ccTLD",
        }
    }
}

/// A member of a set together with its role and metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetMember {
    /// The member's domain (an eTLD+1 in a valid set).
    pub domain: DomainName,
    /// The member's role.
    pub role: MemberRole,
    /// The rationale string supplied for associated/service members, if any.
    /// The submission guidelines require one; its absence is a Table 3
    /// validation error.
    pub rationale: Option<String>,
    /// For ccTLD members, the member this one is a variant of.
    pub cctld_base: Option<DomainName>,
}

/// A single Related Website Set: one primary plus associated, service and
/// ccTLD members.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RwsSet {
    /// The set primary.
    primary: DomainName,
    /// Associated sites with their rationales, in insertion order.
    associated: Vec<(DomainName, Option<String>)>,
    /// Service sites with their rationales, in insertion order.
    service: Vec<(DomainName, Option<String>)>,
    /// ccTLD variants keyed by the member they are a variant of.
    cctlds: BTreeMap<DomainName, Vec<DomainName>>,
    /// Contact address recorded in the submission (optional metadata).
    contact: Option<String>,
}

/// Parse an `https://example.com`-style origin (or a bare domain) into a
/// domain name. The canonical RWS JSON writes members as https origins.
pub(crate) fn parse_member(input: &str) -> Result<DomainName, SetError> {
    let trimmed = input.trim();
    let host = trimmed
        .strip_prefix("https://")
        .unwrap_or(trimmed)
        .trim_end_matches('/');
    if host.starts_with("http://") {
        return Err(SetError::InvalidOrigin {
            input: input.to_string(),
            reason: "http:// origins are not permitted; sets require https".to_string(),
        });
    }
    DomainName::parse(host).map_err(|e| SetError::InvalidOrigin {
        input: input.to_string(),
        reason: e.to_string(),
    })
}

/// Format a domain the way the canonical JSON does (an https origin).
pub(crate) fn format_member(domain: &DomainName) -> String {
    format!("https://{domain}")
}

impl RwsSet {
    /// Create a set with the given primary (accepts `https://` origins or
    /// bare domains).
    pub fn new(primary: &str) -> Result<RwsSet, SetError> {
        Ok(RwsSet {
            primary: parse_member(primary)?,
            associated: Vec::new(),
            service: Vec::new(),
            cctlds: BTreeMap::new(),
            contact: None,
        })
    }

    /// Create a set from an already-parsed primary domain.
    pub fn for_primary(primary: DomainName) -> RwsSet {
        RwsSet {
            primary,
            associated: Vec::new(),
            service: Vec::new(),
            cctlds: BTreeMap::new(),
            contact: None,
        }
    }

    /// Set the contact address.
    pub fn set_contact<S: Into<String>>(&mut self, contact: S) -> &mut Self {
        self.contact = Some(contact.into());
        self
    }

    /// The contact address, if recorded.
    pub fn contact(&self) -> Option<&str> {
        self.contact.as_deref()
    }

    /// The set primary.
    pub fn primary(&self) -> &DomainName {
        &self.primary
    }

    fn check_not_member(&self, domain: &DomainName) -> Result<(), SetError> {
        if self.contains(domain) {
            Err(SetError::DuplicateMember {
                domain: domain.to_string(),
            })
        } else {
            Ok(())
        }
    }

    /// Add an associated site with its rationale.
    pub fn add_associated(&mut self, domain: &str, rationale: &str) -> Result<&mut Self, SetError> {
        let d = parse_member(domain)?;
        self.check_not_member(&d)?;
        let rationale = if rationale.trim().is_empty() {
            None
        } else {
            Some(rationale.trim().to_string())
        };
        self.associated.push((d, rationale));
        Ok(self)
    }

    /// Add an associated site without a rationale (invalid per the
    /// guidelines, but representable so the validator can flag it).
    pub fn add_associated_without_rationale(
        &mut self,
        domain: &str,
    ) -> Result<&mut Self, SetError> {
        let d = parse_member(domain)?;
        self.check_not_member(&d)?;
        self.associated.push((d, None));
        Ok(self)
    }

    /// Add a service site with its rationale.
    pub fn add_service(&mut self, domain: &str, rationale: &str) -> Result<&mut Self, SetError> {
        let d = parse_member(domain)?;
        self.check_not_member(&d)?;
        let rationale = if rationale.trim().is_empty() {
            None
        } else {
            Some(rationale.trim().to_string())
        };
        self.service.push((d, rationale));
        Ok(self)
    }

    /// Add a service site without a rationale.
    pub fn add_service_without_rationale(&mut self, domain: &str) -> Result<&mut Self, SetError> {
        let d = parse_member(domain)?;
        self.check_not_member(&d)?;
        self.service.push((d, None));
        Ok(self)
    }

    /// Declare ccTLD variants of an existing member. The base must already
    /// be the primary or a member of the set.
    pub fn add_cctld_variants(
        &mut self,
        base: &str,
        variants: &[&str],
    ) -> Result<&mut Self, SetError> {
        let base_domain = parse_member(base)?;
        if base_domain != self.primary && !self.contains(&base_domain) {
            return Err(SetError::UnknownCctldBase {
                base: base_domain.to_string(),
            });
        }
        let mut parsed = Vec::new();
        for v in variants {
            let d = parse_member(v)?;
            self.check_not_member(&d)?;
            if parsed.contains(&d) {
                return Err(SetError::DuplicateMember {
                    domain: d.to_string(),
                });
            }
            parsed.push(d);
        }
        self.cctlds.entry(base_domain).or_default().extend(parsed);
        Ok(self)
    }

    /// Associated sites in insertion order.
    pub fn associated_sites(&self) -> impl Iterator<Item = &DomainName> {
        self.associated.iter().map(|(d, _)| d)
    }

    /// Service sites in insertion order.
    pub fn service_sites(&self) -> impl Iterator<Item = &DomainName> {
        self.service.iter().map(|(d, _)| d)
    }

    /// ccTLD variants, flattened.
    pub fn cctld_sites(&self) -> impl Iterator<Item = &DomainName> {
        self.cctlds.values().flatten()
    }

    /// The ccTLD map (base → variants).
    pub fn cctld_map(&self) -> &BTreeMap<DomainName, Vec<DomainName>> {
        &self.cctlds
    }

    /// The rationale for a given member, if one was supplied.
    pub fn rationale_for(&self, domain: &DomainName) -> Option<&str> {
        self.associated
            .iter()
            .chain(self.service.iter())
            .find(|(d, _)| d == domain)
            .and_then(|(_, r)| r.as_deref())
    }

    /// Number of associated sites.
    pub fn associated_count(&self) -> usize {
        self.associated.len()
    }

    /// Number of service sites.
    pub fn service_count(&self) -> usize {
        self.service.len()
    }

    /// Number of ccTLD variant sites.
    pub fn cctld_count(&self) -> usize {
        self.cctlds.values().map(Vec::len).sum()
    }

    /// Total number of member domains including the primary.
    pub fn size(&self) -> usize {
        1 + self.associated_count() + self.service_count() + self.cctld_count()
    }

    /// True if the domain is the primary or any member of the set.
    pub fn contains(&self, domain: &DomainName) -> bool {
        self.role_of(domain).is_some()
    }

    /// The role of a domain within the set, if it is a member.
    pub fn role_of(&self, domain: &DomainName) -> Option<MemberRole> {
        if *domain == self.primary {
            return Some(MemberRole::Primary);
        }
        if self.associated.iter().any(|(d, _)| d == domain) {
            return Some(MemberRole::Associated);
        }
        if self.service.iter().any(|(d, _)| d == domain) {
            return Some(MemberRole::Service);
        }
        if self.cctlds.values().any(|vs| vs.contains(domain)) {
            return Some(MemberRole::Cctld);
        }
        None
    }

    /// The base member a ccTLD variant belongs to, if `domain` is a ccTLD
    /// member.
    pub fn cctld_base_of(&self, domain: &DomainName) -> Option<&DomainName> {
        self.cctlds
            .iter()
            .find(|(_, vs)| vs.contains(domain))
            .map(|(base, _)| base)
    }

    /// Every member of the set (primary first) with role and metadata.
    pub fn members(&self) -> Vec<SetMember> {
        let mut out = vec![SetMember {
            domain: self.primary.clone(),
            role: MemberRole::Primary,
            rationale: None,
            cctld_base: None,
        }];
        for (d, r) in &self.associated {
            out.push(SetMember {
                domain: d.clone(),
                role: MemberRole::Associated,
                rationale: r.clone(),
                cctld_base: None,
            });
        }
        for (d, r) in &self.service {
            out.push(SetMember {
                domain: d.clone(),
                role: MemberRole::Service,
                rationale: r.clone(),
                cctld_base: None,
            });
        }
        for (base, variants) in &self.cctlds {
            for v in variants {
                out.push(SetMember {
                    domain: v.clone(),
                    role: MemberRole::Cctld,
                    rationale: None,
                    cctld_base: Some(base.clone()),
                });
            }
        }
        out
    }

    /// All member domains, in [`members`](Self::members) order: primary,
    /// associated, service, then ccTLD variants. Reads the fields directly,
    /// so no rationale or ccTLD base is copied.
    pub fn domains(&self) -> Vec<DomainName> {
        let mut out = Vec::with_capacity(self.size());
        out.push(self.primary.clone());
        out.extend(self.associated_sites().cloned());
        out.extend(self.service_sites().cloned());
        out.extend(self.cctld_sites().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn times_internet() -> RwsSet {
        // The paper's worked example: Times Internet operates
        // timesinternet.in and indiatimes.com.
        let mut set = RwsSet::new("https://timesinternet.in").unwrap();
        set.add_associated("https://indiatimes.com", "Times Internet news property")
            .unwrap();
        set.add_service("https://timesstatic.in", "Static asset CDN for set members")
            .unwrap();
        set.add_cctld_variants("https://indiatimes.com", &["https://indiatimes.co.uk"])
            .unwrap();
        set
    }

    #[test]
    fn primary_parsing_accepts_origins_and_bare_domains() {
        assert_eq!(
            RwsSet::new("https://example.com/").unwrap().primary(),
            &dn("example.com")
        );
        assert_eq!(
            RwsSet::new("example.com").unwrap().primary(),
            &dn("example.com")
        );
    }

    #[test]
    fn http_origins_rejected() {
        let err = RwsSet::new("http://example.com").unwrap_err();
        assert!(matches!(err, SetError::InvalidOrigin { .. }));
        assert!(err.to_string().contains("https"));
    }

    #[test]
    fn roles_and_membership() {
        let set = times_internet();
        assert_eq!(
            set.role_of(&dn("timesinternet.in")),
            Some(MemberRole::Primary)
        );
        assert_eq!(
            set.role_of(&dn("indiatimes.com")),
            Some(MemberRole::Associated)
        );
        assert_eq!(
            set.role_of(&dn("timesstatic.in")),
            Some(MemberRole::Service)
        );
        assert_eq!(
            set.role_of(&dn("indiatimes.co.uk")),
            Some(MemberRole::Cctld)
        );
        assert_eq!(set.role_of(&dn("unrelated.com")), None);
        assert!(set.contains(&dn("indiatimes.com")));
        assert!(!set.contains(&dn("unrelated.com")));
    }

    #[test]
    fn counts_and_size() {
        let set = times_internet();
        assert_eq!(set.associated_count(), 1);
        assert_eq!(set.service_count(), 1);
        assert_eq!(set.cctld_count(), 1);
        assert_eq!(set.size(), 4);
        assert_eq!(set.domains().len(), 4);
        // Same members, same order as the full member records.
        let member_domains: Vec<DomainName> = set.members().into_iter().map(|m| m.domain).collect();
        assert_eq!(set.domains(), member_domains);
    }

    #[test]
    fn duplicate_members_rejected() {
        let mut set = times_internet();
        let err = set
            .add_associated("https://indiatimes.com", "again")
            .unwrap_err();
        assert!(matches!(err, SetError::DuplicateMember { .. }));
        let err = set
            .add_service("https://timesinternet.in", "primary as service")
            .unwrap_err();
        assert!(matches!(err, SetError::DuplicateMember { .. }));
    }

    #[test]
    fn cctld_requires_known_base() {
        let mut set = RwsSet::new("https://example.com").unwrap();
        let err = set
            .add_cctld_variants("https://unknown.com", &["https://unknown.de"])
            .unwrap_err();
        assert!(matches!(err, SetError::UnknownCctldBase { .. }));
        // Variants of the primary itself are allowed.
        set.add_cctld_variants("https://example.com", &["https://example.de"])
            .unwrap();
        assert_eq!(set.cctld_count(), 1);
        assert_eq!(
            set.cctld_base_of(&dn("example.de")),
            Some(&dn("example.com"))
        );
    }

    #[test]
    fn rationale_lookup() {
        let set = times_internet();
        assert_eq!(
            set.rationale_for(&dn("indiatimes.com")),
            Some("Times Internet news property")
        );
        assert_eq!(set.rationale_for(&dn("timesinternet.in")), None);
        let mut set2 = RwsSet::new("https://a.com").unwrap();
        set2.add_associated_without_rationale("https://b.com")
            .unwrap();
        assert_eq!(set2.rationale_for(&dn("b.com")), None);
    }

    #[test]
    fn members_listing_has_roles_and_bases() {
        let set = times_internet();
        let members = set.members();
        assert_eq!(members.len(), 4);
        assert_eq!(members[0].role, MemberRole::Primary);
        let cctld = members
            .iter()
            .find(|m| m.role == MemberRole::Cctld)
            .unwrap();
        assert_eq!(cctld.cctld_base, Some(dn("indiatimes.com")));
        assert_eq!(MemberRole::Cctld.label(), "ccTLD");
        assert_eq!(MemberRole::Associated.label(), "associated");
    }

    #[test]
    fn contact_metadata() {
        let mut set = RwsSet::new("https://example.com").unwrap();
        assert_eq!(set.contact(), None);
        set.set_contact("owner@example.com");
        assert_eq!(set.contact(), Some("owner@example.com"));
    }

    #[test]
    fn empty_rationale_treated_as_missing() {
        let mut set = RwsSet::new("https://a.com").unwrap();
        set.add_associated("https://b.com", "   ").unwrap();
        assert_eq!(set.rationale_for(&dn("b.com")), None);
    }
}
