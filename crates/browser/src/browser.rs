//! A simulated browser profile.
//!
//! The [`Browser`] ties the pieces together: it tracks which sites the user
//! has visited first-party (interaction history), hands out partitioned or
//! unpartitioned storage to embedded frames according to the vendor policy,
//! and answers `requestStorageAccess` calls — reproducing the
//! `tracker.example` / Times Internet walk-throughs of Section 2.

use crate::context::{AccessRequest, PartitionKey};
use crate::policy::{PolicyVerdict, StorageAccessPolicy, VendorPolicy};
use crate::storage::{StorageArea, StorageEngine};
use rws_domain::{DomainName, SiteResolver};
use rws_model::RwsList;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How the simulated user answers storage-access prompts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PromptBehaviour {
    /// Accept every prompt.
    AlwaysAccept,
    /// Decline every prompt.
    AlwaysDecline,
}

/// What an embedded frame ended up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmbedOutcome {
    /// The frame can read and write the embedded site's unpartitioned
    /// storage (either the browser does not partition, or access was
    /// granted).
    Unpartitioned {
        /// Whether a user prompt was shown to get here.
        prompted: bool,
    },
    /// The frame only sees partitioned storage for this (top-level,
    /// embedded) pair.
    Partitioned,
}

impl EmbedOutcome {
    /// True if the frame sees unpartitioned storage.
    pub fn has_unpartitioned_access(self) -> bool {
        matches!(self, EmbedOutcome::Unpartitioned { .. })
    }
}

/// A single simulated browser profile.
#[derive(Debug, Clone)]
pub struct Browser {
    vendor: VendorPolicy,
    engine: StorageEngine,
    list: RwsList,
    resolver: SiteResolver,
    prompt_behaviour: PromptBehaviour,
    visited_first_party: BTreeSet<DomainName>,
    prompts_shown: usize,
}

impl Browser {
    /// Create a browser with the given vendor policy and RWS list. The list
    /// is only consulted by policies that use it (Chrome with RWS).
    pub fn new(vendor: VendorPolicy, list: RwsList) -> Browser {
        Browser::with_resolver(vendor, list, SiteResolver::embedded())
    }

    /// Create a browser sharing a memoizing [`SiteResolver`] with other
    /// components, so repeated hosts across browsers resolve from cache.
    pub fn with_resolver(vendor: VendorPolicy, list: RwsList, resolver: SiteResolver) -> Browser {
        Browser {
            vendor,
            engine: StorageEngine::new(),
            list,
            resolver,
            prompt_behaviour: PromptBehaviour::AlwaysDecline,
            visited_first_party: BTreeSet::new(),
            prompts_shown: 0,
        }
    }

    /// Set how the simulated user answers prompts.
    pub fn set_prompt_behaviour(&mut self, behaviour: PromptBehaviour) -> &mut Self {
        self.prompt_behaviour = behaviour;
        self
    }

    /// The vendor policy in force.
    pub fn vendor(&self) -> VendorPolicy {
        self.vendor
    }

    /// Number of storage-access prompts shown so far.
    pub fn prompts_shown(&self) -> usize {
        self.prompts_shown
    }

    /// The site (eTLD+1) for a host, via the memoized resolver.
    fn site_of(&self, host: &DomainName) -> DomainName {
        self.resolver.site_or_self(host)
    }

    /// Visit a page first-party: records the interaction and returns the
    /// site's unpartitioned storage so the page can set identifiers.
    pub fn visit(&mut self, host: &DomainName) -> &mut StorageArea {
        let site = self.site_of(host);
        self.visited_first_party.insert(site.clone());
        self.engine.unpartitioned_mut(&site)
    }

    /// True if the user has visited (interacted with) the site first-party.
    pub fn has_interacted_with(&self, site: &DomainName) -> bool {
        self.visited_first_party.contains(&self.site_of(site))
    }

    /// True if the user has interacted with *any* member of the set that
    /// `site` belongs to (the precondition for service-site auto-grants).
    fn has_interacted_with_set_of(&self, site: &DomainName) -> bool {
        match self.list.set_for(site) {
            Some(set) => set
                .domains()
                .iter()
                .any(|d| self.visited_first_party.contains(d)),
            None => self.has_interacted_with(site),
        }
    }

    /// Embed `embedded_host` as a third-party frame under `top_level_host`
    /// *without* calling the Storage Access API: the frame gets partitioned
    /// storage if the browser partitions, unpartitioned storage otherwise.
    pub fn embed(
        &mut self,
        top_level_host: &DomainName,
        embedded_host: &DomainName,
    ) -> EmbedOutcome {
        let top = self.site_of(top_level_host);
        let embedded = self.site_of(embedded_host);
        if top == embedded || !self.vendor.partitions_by_default() {
            return EmbedOutcome::Unpartitioned { prompted: false };
        }
        // Touch the partitioned area so it exists.
        let key = PartitionKey::third_party(&top, &embedded);
        let _ = self.engine.partitioned_mut(&key);
        EmbedOutcome::Partitioned
    }

    /// Embed a frame and have it call `document.requestStorageAccess()`.
    pub fn embed_with_storage_access_request(
        &mut self,
        top_level_host: &DomainName,
        embedded_host: &DomainName,
    ) -> EmbedOutcome {
        let top = self.site_of(top_level_host);
        let embedded = self.site_of(embedded_host);
        if top == embedded || !self.vendor.partitions_by_default() {
            return EmbedOutcome::Unpartitioned { prompted: false };
        }
        let request = AccessRequest {
            top_level_site: top.clone(),
            embedded_site: embedded.clone(),
            has_prior_interaction: self.has_interacted_with_set_of(&embedded),
        };
        match self.vendor.verdict(&request, &self.list) {
            PolicyVerdict::AutoGrant => EmbedOutcome::Unpartitioned { prompted: false },
            PolicyVerdict::Deny => {
                let key = PartitionKey::third_party(&top, &embedded);
                let _ = self.engine.partitioned_mut(&key);
                EmbedOutcome::Partitioned
            }
            PolicyVerdict::Prompt => {
                self.prompts_shown += 1;
                match self.prompt_behaviour {
                    PromptBehaviour::AlwaysAccept => EmbedOutcome::Unpartitioned { prompted: true },
                    PromptBehaviour::AlwaysDecline => {
                        let key = PartitionKey::third_party(&top, &embedded);
                        let _ = self.engine.partitioned_mut(&key);
                        EmbedOutcome::Partitioned
                    }
                }
            }
        }
    }

    /// The storage area an embedded frame ends up writing to, given the
    /// outcome of its embedding. This is what a tracking script would use to
    /// read or set its user identifier.
    pub fn frame_storage_mut(
        &mut self,
        top_level_host: &DomainName,
        embedded_host: &DomainName,
        outcome: EmbedOutcome,
    ) -> &mut StorageArea {
        let top = self.site_of(top_level_host);
        let embedded = self.site_of(embedded_host);
        match outcome {
            EmbedOutcome::Unpartitioned { .. } => self.engine.unpartitioned_mut(&embedded),
            EmbedOutcome::Partitioned => {
                let key = PartitionKey::third_party(&top, &embedded);
                self.engine.partitioned_mut(&key)
            }
        }
    }

    /// Read-only view of the underlying engine, for assertions and reports.
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// The RWS list the browser is configured with.
    pub fn list(&self) -> &RwsList {
        &self.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_model::RwsSet;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn rws_list() -> RwsList {
        let mut set = RwsSet::new("https://timesinternet.in").unwrap();
        set.add_associated("https://indiatimes.com", "Times Internet property")
            .unwrap();
        set.add_service("https://timesstatic.in", "asset host")
            .unwrap();
        RwsList::from_sets(vec![set]).unwrap()
    }

    /// The tracker.example walk-through from Section 2: with partitioning,
    /// the tracker sees different cookies first-party vs third-party.
    #[test]
    fn partitioning_isolates_tracker_contexts() {
        let mut browser = Browser::new(VendorPolicy::ChromeWithRws, RwsList::new());
        let tracker = dn("tracker.example");
        let publisher = dn("site.example");

        // Direct visit: the tracker sets a first-party identifier.
        browser.visit(&tracker).set("uid", "direct-visit-id");
        // Embedded on another site without storage access: partitioned jar.
        let outcome = browser.embed(&publisher, &tracker);
        assert_eq!(outcome, EmbedOutcome::Partitioned);
        browser
            .frame_storage_mut(&publisher, &tracker, outcome)
            .set("uid", "embedded-id");

        assert_eq!(
            browser.engine().unpartitioned(&tracker).unwrap().get("uid"),
            Some("direct-visit-id")
        );
        let key = PartitionKey::third_party(&publisher, &tracker);
        assert_eq!(
            browser.engine().partitioned(&key).unwrap().get("uid"),
            Some("embedded-id")
        );
    }

    /// Without partitioning (legacy Chrome/Edge) the tracker sees the same
    /// jar in both contexts — the scenario partitioning is meant to prevent.
    #[test]
    fn legacy_browser_shares_tracker_state() {
        let mut browser = Browser::new(VendorPolicy::ChromeLegacy, RwsList::new());
        let tracker = dn("tracker.example");
        let publisher = dn("site.example");
        browser.visit(&tracker).set("uid", "global-id");
        let outcome = browser.embed(&publisher, &tracker);
        assert!(outcome.has_unpartitioned_access());
        assert_eq!(
            browser
                .frame_storage_mut(&publisher, &tracker, outcome)
                .get("uid"),
            Some("global-id")
        );
    }

    /// The Times Internet walk-through: with RWS, indiatimes.com embedded on
    /// timesinternet.in gets its unpartitioned storage via
    /// requestStorageAccess with no prompt, so the two sites can link the
    /// same user.
    #[test]
    fn rws_auto_grant_links_related_sites() {
        let mut browser = Browser::new(VendorPolicy::ChromeWithRws, rws_list());
        let primary = dn("timesinternet.in");
        let associated = dn("indiatimes.com");

        browser.visit(&associated).set("uid", "user-42");
        let outcome = browser.embed_with_storage_access_request(&primary, &associated);
        assert_eq!(outcome, EmbedOutcome::Unpartitioned { prompted: false });
        assert_eq!(browser.prompts_shown(), 0);
        assert_eq!(
            browser
                .frame_storage_mut(&primary, &associated, outcome)
                .get("uid"),
            Some("user-42")
        );
    }

    /// The same embedding in a browser without the RWS list prompts (Safari)
    /// or is denied (Brave).
    #[test]
    fn other_vendors_do_not_auto_grant_rws_pairs() {
        let list = rws_list();
        let primary = dn("timesinternet.in");
        let associated = dn("indiatimes.com");

        let mut safari = Browser::new(VendorPolicy::Safari, list.clone());
        safari.visit(&associated).set("uid", "user-42");
        let outcome = safari.embed_with_storage_access_request(&primary, &associated);
        assert_eq!(outcome, EmbedOutcome::Partitioned);
        assert_eq!(safari.prompts_shown(), 1);

        let mut safari_accepting = Browser::new(VendorPolicy::Safari, list.clone());
        safari_accepting.set_prompt_behaviour(PromptBehaviour::AlwaysAccept);
        let outcome = safari_accepting.embed_with_storage_access_request(&primary, &associated);
        assert_eq!(outcome, EmbedOutcome::Unpartitioned { prompted: true });

        let mut brave = Browser::new(VendorPolicy::Brave, list);
        let outcome = brave.embed_with_storage_access_request(&primary, &associated);
        assert_eq!(outcome, EmbedOutcome::Partitioned);
        assert_eq!(brave.prompts_shown(), 0, "deny does not prompt");
    }

    #[test]
    fn service_site_needs_set_interaction_for_auto_grant() {
        let list = rws_list();
        let primary = dn("timesinternet.in");
        let service = dn("timesstatic.in");

        // No interaction with any set member yet: prompt (declined).
        let mut fresh = Browser::new(VendorPolicy::ChromeWithRws, list.clone());
        let outcome = fresh.embed_with_storage_access_request(&primary, &service);
        assert_eq!(outcome, EmbedOutcome::Partitioned);
        assert_eq!(fresh.prompts_shown(), 1);

        // After visiting a member of the set, the grant is automatic.
        let mut warmed = Browser::new(VendorPolicy::ChromeWithRws, list);
        warmed.visit(&primary);
        let outcome = warmed.embed_with_storage_access_request(&primary, &service);
        assert_eq!(outcome, EmbedOutcome::Unpartitioned { prompted: false });
    }

    #[test]
    fn same_site_subdomains_share_storage() {
        // eff.org and act.eff.org are the same site — no partitioning applies.
        let mut browser = Browser::new(VendorPolicy::ChromeWithRws, RwsList::new());
        let outcome = browser.embed(&dn("eff.org"), &dn("act.eff.org"));
        assert!(outcome.has_unpartitioned_access());
        assert_eq!(browser.site_of(&dn("act.eff.org")), dn("eff.org"));
    }

    #[test]
    fn interaction_history_is_site_scoped() {
        let mut browser = Browser::new(VendorPolicy::Firefox, RwsList::new());
        browser.visit(&dn("www.widget.com"));
        assert!(browser.has_interacted_with(&dn("widget.com")));
        assert!(browser.has_interacted_with(&dn("other.widget.com")));
        assert!(!browser.has_interacted_with(&dn("unrelated.com")));
    }
}
