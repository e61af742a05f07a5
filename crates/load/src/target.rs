//! What a load run fetches: a frozen store plus redirect entry hosts, and
//! the dense name ids one run's visit loop reads instead of names.

use rws_browser::AccessFacts;
use rws_corpus::Corpus;
use rws_domain::{DomainName, SiteResolver};
use rws_model::{MemberRole, RwsList};
use rws_net::{
    well_known_path, FaultPlan, FetchPolicy, Fetcher, FrozenWeb, PageContent, RetryPolicy,
    SimulatedWeb, SiteHost, Url,
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
/// Clients never ask the resolver per visit. Once per run,
/// [`RunTables::new`] resolves every host the store serves and numbers
/// every name the run touches, and the visit loop reads those id tables
/// with no lock, no hash and no shared counter.
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

    /// A fresh fetcher over this target: default policy and its own
    /// request counter, so each run's `wire_requests` starts at zero.
    pub fn fetcher(&self) -> Fetcher {
        let web = SimulatedWeb::from_frozen(self.store.clone());
        let fetcher = Fetcher::with_policy(web, FetchPolicy::default()).with_retry(self.retry);
        match self.faults {
            Some(plan) => fetcher.with_faults(plan),
            None => fetcher,
        }
    }
}

/// One load run's names, numbered densely, and the id-indexed tables its
/// visit loop reads in place of hashing, cloning and resolving names.
///
/// Name ids run over the browsable hosts in [`LoadTarget::hosts`] order,
/// then the vanity hosts, then every host's site (eTLD+1, or the host
/// itself when it has none) that is not already a host. Each name has one
/// id, so two names are equal exactly when their ids are: connection slots
/// and visited sites compare `u32`s.
///
/// Built once per run, before any client steps, asking the resolver once
/// per served host. Read-only after that, so pool workers share it by
/// reference.
#[derive(Debug)]
pub struct RunTables {
    /// Every name by id.
    names: Vec<DomainName>,
    /// Id of every name; the visit loop looks up only the landing host of
    /// a redirected fetch.
    ids: HashMap<DomainName, u32, FnvBuildHasher>,
    /// How many leading ids are browsable hosts; the vanity hosts follow.
    browsable: usize,
    /// Site id of each host id.
    site_of: Vec<u32>,
    /// `(set index, role)` of each name id that is a member of the list.
    membership: Vec<Option<(u32, MemberRole)>>,
    /// `https://{host}/` and `https://{host}/about` of each host id.
    pages: Vec<[Url; 2]>,
    /// The `.well-known` RWS URL of each name id.
    well_known: Vec<Url>,
    /// Ids of the target's poisoned hosts.
    poisoned: Vec<u32>,
}

impl RunTables {
    /// Number the names `target` serves and resolve each served host's
    /// site through `resolver`, once.
    pub fn new(target: &LoadTarget, resolver: &SiteResolver) -> RunTables {
        let served = target.hosts.len() + target.vanity.len();
        let mut names: Vec<DomainName> = Vec::with_capacity(served);
        let mut ids = HashMap::with_capacity_and_hasher(served, FnvBuildHasher);
        for host in target.hosts.iter().chain(&target.vanity) {
            ids.insert(host.clone(), names.len() as u32);
            names.push(host.clone());
        }
        let site_of: Vec<u32> = target
            .hosts
            .iter()
            .chain(&target.vanity)
            .map(|host| {
                let site = resolver.site_or_self(host);
                *ids.entry(site).or_insert_with_key(|site| {
                    names.push(site.clone());
                    names.len() as u32 - 1
                })
            })
            .collect();
        let membership = names
            .iter()
            .map(|name| {
                let set = target.list.set_index_of(name)?;
                Some((set as u32, target.list.role_of(name)?))
            })
            .collect();
        let pages = names[..served]
            .iter()
            .map(|host| [Url::https(host, "/"), Url::https(host, "/about")])
            .collect();
        let well_known = names.iter().map(well_known_path).collect();
        let poisoned = target
            .poison
            .iter()
            .filter_map(|host| ids.get(host).copied())
            .collect();
        RunTables {
            names,
            ids,
            browsable: target.hosts.len(),
            site_of,
            membership,
            pages,
            well_known,
            poisoned,
        }
    }

    /// The name with this id.
    pub fn name(&self, id: u32) -> &DomainName {
        &self.names[id as usize]
    }

    /// The id of a name the target serves or a site of one, if any.
    pub fn id_of(&self, name: &DomainName) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// How many browsable hosts there are: their ids are
    /// `0..browsable_count`.
    pub fn browsable_count(&self) -> usize {
        self.browsable
    }

    /// How many vanity hosts there are: their ids follow the browsable
    /// hosts'.
    pub fn vanity_count(&self) -> usize {
        self.pages.len() - self.browsable
    }

    /// The site id of a host id: the key browsers use for storage
    /// partitions.
    pub fn site_of(&self, host: u32) -> u32 {
        self.site_of[host as usize]
    }

    /// The `(set index, role)` of a name id in the list, if it is a
    /// member: what [`RwsList::set_index_of`] and [`RwsList::role_of`]
    /// answer for the name.
    pub fn membership(&self, id: u32) -> Option<(u32, MemberRole)> {
        self.membership[id as usize]
    }

    /// The URL of `/about` (or `/`) on a host id.
    pub fn page(&self, host: u32, about: bool) -> &Url {
        &self.pages[host as usize][usize::from(about)]
    }

    /// The `.well-known` RWS URL of a name id.
    pub fn well_known(&self, id: u32) -> &Url {
        &self.well_known[id as usize]
    }

    /// True if visiting this host id should panic the client.
    pub fn is_poisoned(&self, host: u32) -> bool {
        self.poisoned.contains(&host)
    }

    /// The facts the vendor rules read for a decision between two site
    /// ids, from the membership table alone: what [`AccessFacts::of`]
    /// looks up in the list for the two sites' names.
    pub fn facts(&self, top: u32, embedded: u32, has_prior_interaction: bool) -> AccessFacts {
        let same_set_roles = match (self.membership(top), self.membership(embedded)) {
            (Some((a, top_role)), Some((b, embedded_role))) if a == b => {
                Some((top_role, embedded_role))
            }
            _ => None,
        };
        AccessFacts {
            same_set_roles,
            has_prior_interaction,
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
                location: format!("https://{destination}/").into(),
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
    use rws_model::RwsSet;

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

    /// Hosts that are their own site, subdomains whose site is not a
    /// host, and members of every role (a ccTLD variant included), next
    /// to non-members.
    fn listed_target() -> LoadTarget {
        let mut web = SimulatedWeb::new();
        for name in [
            "bild.de",
            "www.autobild.de",
            "bildstatic.de",
            "bild.at",
            "news.example.co.uk",
            "tracker.com",
            "cdn.tracker.com",
        ] {
            let mut host = SiteHost::new(name).unwrap();
            host.add_page("/", "<html><body>hello</body></html>");
            web.register(host);
        }
        let mut set = RwsSet::new("https://bild.de").unwrap();
        set.add_associated("https://autobild.de", "sister brand")
            .unwrap();
        set.add_service("https://bildstatic.de", "cdn").unwrap();
        set.add_cctld_variants("https://bild.de", &["https://bild.at"])
            .unwrap();
        let other = RwsSet::new("https://tracker.com").unwrap();
        let list = RwsList::from_sets(vec![set, other]).unwrap();
        LoadTarget::from_frozen(web.freeze(), list)
    }

    #[test]
    fn run_tables_agree_with_the_resolver_and_the_list() {
        let target = listed_target();
        let resolver = SiteResolver::embedded();
        let tables = RunTables::new(&target, &resolver);
        let served = target.store.host_count();
        let stats = resolver.stats();
        assert_eq!(stats.hits + stats.misses, served as u64);

        // Hosts first in `hosts()` order, then the vanity hosts; every
        // name has exactly one id.
        let hosts: Vec<&DomainName> = target.hosts().iter().chain(target.vanity()).collect();
        assert_eq!(hosts.len(), served);
        assert_eq!(tables.browsable_count(), target.hosts().len());
        assert_eq!(tables.vanity_count(), target.vanity().len());
        for (id, host) in hosts.iter().enumerate() {
            assert_eq!(tables.name(id as u32), *host);
        }
        for id in 0..tables.names.len() as u32 {
            assert_eq!(tables.id_of(tables.name(id)), Some(id));
        }

        let mut site_ids = Vec::new();
        for (id, host) in hosts.iter().enumerate() {
            let id = id as u32;
            let site = tables.site_of(id);
            assert_eq!(tables.name(site), &resolver.site_or_self(host));
            assert_eq!(tables.page(id, false), &Url::https(host, "/"));
            assert_eq!(tables.page(id, true), &Url::https(host, "/about"));
            site_ids.push(site);
        }
        // `www.autobild.de` and `cdn.tracker.com` bring in sites that are
        // not hosts; `tracker.com` is both.
        assert!(site_ids.iter().any(|&s| s as usize >= served));
        let mut roles = Vec::new();
        for &site in &site_ids {
            let name = tables.name(site);
            let expected = target.list().set_index_of(name).map(|set| {
                let role = target.list().role_of(name).unwrap();
                (set as u32, role)
            });
            assert_eq!(tables.membership(site), expected, "{name}");
            assert_eq!(tables.well_known(site), &well_known_path(name));
            roles.extend(expected.map(|(_, role)| role));
        }
        for role in [
            MemberRole::Primary,
            MemberRole::Associated,
            MemberRole::Service,
            MemberRole::Cctld,
        ] {
            assert!(roles.contains(&role), "{role:?} is in the table");
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
