//! What a load run fetches: a frozen store plus redirect entry hosts.

use rws_corpus::Corpus;
use rws_domain::{DomainName, SiteResolver};
use rws_model::RwsList;
use rws_net::{
    FaultInjector, FaultPlan, FetchPolicy, Fetcher, FrozenWeb, PageContent, RetryPolicy,
    SimulatedWeb, SiteHost,
};
use rws_stats::memo::FnvBuildHasher;
use std::collections::HashMap;

/// Number of vanity entry hosts registered per target (bounded by the
/// host-universe size).
const VANITY_HOSTS: usize = 48;

/// The immutable world a load run hammers.
///
/// Built once from a corpus (or any frozen store + RWS list): the
/// browsable host universe in deterministic order, plus a set of *vanity
/// entry hosts* (`go0.load-entry.example`, ...) that 301/302-redirect to
/// real hosts — the corpus itself registers no redirects, and the load mix
/// needs them to exercise the fetcher's redirect following under load.
/// Registering them lands in an overlay over the corpus store, which is
/// then re-frozen. Each [`fetcher`] wraps that store in its own
/// [`SimulatedWeb`] with an empty overlay, so every wire hop is one
/// lock-free lookup in the store's host table.
///
/// Clients never ask the resolver per visit. Once per run, [`sites`]
/// resolves every host the store serves into an immutable [`SiteTable`],
/// and the visit loop reads that table with no lock and no shared counter.
///
/// [`fetcher`]: LoadTarget::fetcher
/// [`sites`]: LoadTarget::sites
#[derive(Debug, Clone)]
pub struct LoadTarget {
    /// The frozen store the run serves from: the corpus hosts plus the
    /// vanity hosts.
    store: FrozenWeb,
    list: RwsList,
    hosts: Vec<DomainName>,
    vanity: Vec<DomainName>,
    /// Transient-fault weather for the run (none by default).
    faults: Option<FaultPlan>,
    /// Client retry posture (no retries by default).
    retry: RetryPolicy,
    /// Hosts whose mere selection panics the visiting client's chunk —
    /// deterministic "poisoned work item" injection for supervision tests
    /// (empty by default; production targets never set this).
    poison: Vec<DomainName>,
}

impl LoadTarget {
    /// Target the frozen store and RWS list of a generated corpus. The
    /// name is pinned by the repository benchmark under `perfbench/`.
    pub fn from_corpus_sharded(corpus: &Corpus) -> LoadTarget {
        LoadTarget::from_frozen(corpus.sharded.clone(), corpus.list.clone())
    }

    /// Target an arbitrary frozen store and list. Vanity entry hosts land
    /// in an overlay that is re-frozen, so the whole universe (redirects
    /// included) reads from one frozen table.
    pub fn from_frozen(frozen: FrozenWeb, list: RwsList) -> LoadTarget {
        let hosts = frozen.hosts();
        let mut web = SimulatedWeb::from_frozen(frozen);
        let vanity = register_vanity_hosts(&mut web, &hosts);
        LoadTarget {
            store: web.freeze(),
            list,
            hosts,
            vanity,
            faults: None,
            retry: RetryPolicy::none(),
            poison: Vec::new(),
        }
    }

    /// Inject deterministic transient faults into every fetch the run
    /// makes. The plan is pure `(seed, host, ordinal)` state, so pooled and
    /// sequential replays see identical weather.
    pub fn with_faults(mut self, plan: FaultPlan) -> LoadTarget {
        self.faults = Some(plan);
        self
    }

    /// Give the run's clients a retry posture (default: no retries).
    pub fn with_retry(mut self, retry: RetryPolicy) -> LoadTarget {
        self.retry = retry;
        self
    }

    /// Mark hosts as poisoned: any client that picks one to visit panics
    /// on the spot with a `"poisoned work item"` message. This is the
    /// deterministic crash fixture the supervision tests drive salvage
    /// mode with — selection is a pure function of `(seed, client)`, so
    /// pooled and sequential replays quarantine identical chunks.
    pub fn with_poison_hosts(mut self, hosts: Vec<DomainName>) -> LoadTarget {
        self.poison = hosts;
        self
    }

    /// True if visiting this host should panic the client.
    pub fn is_poisoned(&self, host: &DomainName) -> bool {
        self.poison.contains(host)
    }

    /// The browsable host universe (excludes vanity entry hosts), in
    /// deterministic sorted order.
    pub fn hosts(&self) -> &[DomainName] {
        &self.hosts
    }

    /// The redirect-only entry hosts.
    pub fn vanity(&self) -> &[DomainName] {
        &self.vanity
    }

    /// The frozen store fetchers read (universe + vanity hosts). Always
    /// `Some`: the `Option` and the name are kept because the repository
    /// benchmark under `perfbench/` calls `.expect` on it.
    pub fn sharded(&self) -> Option<&FrozenWeb> {
        Some(&self.store)
    }

    /// The RWS list partitioning decisions consult.
    pub fn list(&self) -> &RwsList {
        &self.list
    }

    /// The site (eTLD+1) of every host the store serves — browsable and
    /// vanity hosts — resolved once through `resolver`. A load run builds
    /// this before its sweep and its clients read it on every visit.
    pub fn sites(&self, resolver: &SiteResolver) -> SiteTable {
        let sites = self
            .hosts
            .iter()
            .chain(&self.vanity)
            .map(|host| (host.clone(), resolver.site_or_self(host)))
            .collect();
        SiteTable {
            sites,
            resolver: resolver.clone(),
        }
    }

    /// A fresh fetcher over this target: default policy and its own
    /// request counter, so each run's `wire_requests` starts at zero.
    pub fn fetcher(&self) -> Fetcher {
        let web = SimulatedWeb::from_frozen(self.store.clone());
        let fetcher = Fetcher::with_policy(web, FetchPolicy::default()).with_retry(self.retry);
        match self.faults {
            Some(plan) => fetcher.with_fault_injector(FaultInjector::new(plan)),
            None => fetcher,
        }
    }
}

/// Host → site answers for one load run, built by [`LoadTarget::sites`].
///
/// Read-only after construction, so pool workers share it by reference.
/// A host outside the table (no host of a [`LoadTarget`] store is) falls
/// back to the resolver, so answers always equal
/// [`SiteResolver::site_or_self`].
#[derive(Debug)]
pub struct SiteTable {
    sites: HashMap<DomainName, DomainName, FnvBuildHasher>,
    resolver: SiteResolver,
}

impl SiteTable {
    /// The site of `host`, or the host itself when it has no registrable
    /// domain: the key browsers use for storage partitions.
    pub fn site_or_self(&self, host: &DomainName) -> DomainName {
        match self.sites.get(host) {
            Some(site) => site.clone(),
            None => self.resolver.site_or_self(host),
        }
    }
}

/// Register the deterministic vanity entry hosts over `web` and return
/// their domains. The spread over the universe (stride 37, coprime to
/// most small sizes) depends only on the sorted host list, so targets over
/// the same hosts build byte-identical redirect pages.
fn register_vanity_hosts(web: &mut SimulatedWeb, hosts: &[DomainName]) -> Vec<DomainName> {
    let vanity_count = if hosts.is_empty() {
        0
    } else {
        VANITY_HOSTS.min(hosts.len())
    };
    let mut vanity = Vec::with_capacity(vanity_count);
    for i in 0..vanity_count {
        let destination = &hosts[(i * 37) % hosts.len()];
        let name = format!("go{i}.load-entry.example");
        let domain = DomainName::parse(&name).expect("vanity host name is valid");
        let mut host = SiteHost::for_domain(domain.clone());
        host.add_content(
            "/",
            PageContent::Redirect {
                location: format!("https://{destination}/"),
                permanent: i % 2 == 0,
            },
        );
        web.register(host);
        vanity.push(domain);
    }
    vanity
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_net::Url;

    fn tiny_target() -> LoadTarget {
        let mut web = SimulatedWeb::new();
        for name in ["alpha.com", "beta.com", "gamma.com"] {
            let mut host = SiteHost::new(name).unwrap();
            host.add_page("/", "<html><body>hello</body></html>");
            web.register(host);
        }
        LoadTarget::from_frozen(web.freeze(), RwsList::default())
    }

    #[test]
    fn vanity_hosts_redirect_into_the_universe() {
        let target = tiny_target();
        assert_eq!(target.hosts().len(), 3);
        assert_eq!(target.vanity().len(), 3);
        let fetcher = target.fetcher();
        for v in target.vanity() {
            let resp = fetcher.get(&Url::https(v, "/")).unwrap();
            assert!(resp.status.is_success());
            assert_eq!(resp.redirects_followed, 1);
            assert!(target.hosts().contains(&resp.url.host));
        }
    }

    #[test]
    fn site_table_agrees_with_the_resolver() {
        let target = tiny_target();
        let resolver = SiteResolver::embedded();
        let sites = target.sites(&resolver);
        let served = target.store.host_count() as u64;
        assert_eq!(resolver.stats().hits + resolver.stats().misses, served);
        let outside = DomainName::parse("www.elsewhere.co.uk").unwrap();
        for host in target
            .hosts()
            .iter()
            .chain(target.vanity())
            .chain([&outside])
        {
            assert_eq!(sites.site_or_self(host), resolver.site_or_self(host));
        }
        // The table answered every served host itself: past the build,
        // the resolver saw only the comparison lookups plus the
        // outsider's fallback.
        let after = resolver.stats();
        assert_eq!(after.hits + after.misses, 2 * served + 2);
    }

    #[test]
    fn universe_excludes_vanity_hosts() {
        let target = tiny_target();
        for v in target.vanity() {
            assert!(!target.hosts().contains(v));
            assert!(target.store.has_host(v));
        }
    }
}
