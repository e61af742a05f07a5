//! What a load run fetches: a frozen store plus redirect entry hosts.

use rws_corpus::Corpus;
use rws_domain::DomainName;
use rws_model::RwsList;
use rws_net::{
    FaultInjector, FaultPlan, FetchPolicy, Fetcher, FrozenWeb, PageContent, RetryPolicy,
    SimulatedWeb, SiteHost,
};

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
/// then re-frozen at the store's shard count. Each [`fetcher`] wraps that
/// store in a fresh [`SimulatedWeb`], so every wire hop goes through
/// [`SimulatedWeb::serve`]: it takes the web's `RwLock` read guard, finds
/// the overlay empty, and reads the store shard-then-host.
///
/// [`fetcher`]: LoadTarget::fetcher
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
    /// Target the frozen store and RWS list of a generated corpus, at the
    /// corpus's shard count.
    pub fn from_corpus_sharded(corpus: &Corpus) -> LoadTarget {
        LoadTarget::from_frozen(corpus.sharded.clone(), corpus.list.clone())
    }

    /// Target an arbitrary frozen store and list. Vanity entry hosts land
    /// in an overlay that is re-frozen at the store's shard count, so the
    /// whole universe (redirects included) reads through shard routing.
    pub fn from_frozen(frozen: FrozenWeb, list: RwsList) -> LoadTarget {
        let hosts = frozen.hosts();
        let mut web = frozen.to_web();
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

    /// The poisoned hosts, if any.
    pub fn poison_hosts(&self) -> &[DomainName] {
        &self.poison
    }

    /// The fault plan in force, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults
    }

    /// The retry policy clients run with.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
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

    /// The store's shard count.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// The RWS list partitioning decisions consult.
    pub fn list(&self) -> &RwsList {
        &self.list
    }

    /// A fresh fetcher over this target: default policy, unlogged (sharded
    /// atomic request accounting), its own counter family — so each run's
    /// `wire_requests` starts at zero.
    pub fn fetcher(&self) -> Fetcher {
        let mut fetcher = Fetcher::with_policy(self.store.to_web(), FetchPolicy::default());
        fetcher.set_retry(self.retry);
        if let Some(plan) = self.faults {
            fetcher.set_fault_injector(Some(FaultInjector::new(plan)));
        }
        fetcher
    }
}

/// Register the deterministic vanity entry hosts over `web` and return
/// their domains. The spread over the universe (stride 37, coprime to
/// most small sizes) depends only on the sorted host list, so targets at
/// every shard count build byte-identical redirect pages.
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
    fn universe_excludes_vanity_hosts() {
        let target = tiny_target();
        for v in target.vanity() {
            assert!(!target.hosts().contains(v));
            assert!(target.store.has_host(v));
        }
    }
}
