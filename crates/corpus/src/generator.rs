//! The corpus generator: organisations, sets, top sites, pages and the
//! simulated web.
//!
//! The generator is calibrated to the published characteristics of the RWS
//! list as of 26 March 2024 (Section 4 of the paper):
//!
//! * 41 sets; 92.7% with at least one associated site, 22% with at least one
//!   service site, 14.6% with at least one ccTLD site; mean 2.6 associated
//!   sites per set;
//! * associated-site SLDs: ≈9.3% identical to the primary's SLD, some
//!   sharing a stem, half at edit distance ≥ 6 (Figure 3);
//! * HTML largely dissimilar between members and primaries (Figure 4);
//! * only 31 of 146 member sites primarily English-language (Section 3).
//!
//! All of those rates are exposed on [`CorpusConfig`].

use crate::brand::{Brand, Organisation};
use crate::category::SiteCategory;
use crate::render::RenderArena;
use crate::site::{Language, SiteRole, SiteSpec};
use crate::tranco::TrancoList;
use rws_domain::DomainName;
use rws_engine::EngineContext;
use rws_model::{RwsList, RwsSet, WellKnownFile};
use rws_net::{FrozenWeb, SiteHost, WELL_KNOWN_RWS_PATH};
use rws_stats::rng::{Rng, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Mutex;

/// Generic top-level domains used for primaries and distinct associated
/// sites.
const GENERIC_TLDS: &[&str] = &[
    "com", "com", "com", "org", "net", "io", "co", "xyz", "site", "online", "news", "media",
];

/// Country-code suffixes used for ccTLD variants and non-English sites.
const COUNTRY_SUFFIXES: &[&str] = &[
    "de", "fr", "in", "ru", "br", "jp", "es", "it", "pl", "co.uk", "com.au", "nl", "se",
];

/// Sites rendered per pool task: enough to amortise a task and its warm
/// render arena, few enough that the paper-scale corpus spreads over
/// every worker.
const RENDER_CHUNK: usize = 64;

/// Tunable parameters of the synthetic corpus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Master seed; every run with the same config is identical.
    pub seed: u64,
    /// Number of organisations, i.e. of Related Website Sets (paper: 41).
    pub organisations: usize,
    /// Probability a set has at least one associated site (paper: 0.927).
    pub prob_set_has_associated: f64,
    /// Mean associated sites per set across all sets (paper: 2.6).
    pub mean_associated_per_set: f64,
    /// Probability a set has at least one service site (paper: 0.22).
    pub prob_set_has_service: f64,
    /// Probability a set has at least one ccTLD variant (paper: 0.146).
    pub prob_set_has_cctld: f64,
    /// Probability an associated site's SLD is identical to the primary's
    /// (paper: ≈0.093).
    pub prob_identical_sld: f64,
    /// Probability an associated site's SLD shares the primary's stem
    /// (e.g. `autobild` / `bild`).
    pub prob_shared_stem: f64,
    /// Probability an associated site presents the organisation's shared
    /// branding (logo text, palette, footer attribution).
    pub prob_shared_branding: f64,
    /// Probability an associated site keeps the primary's content category.
    pub prob_same_category: f64,
    /// Probability a whole organisation publishes primarily in English
    /// (paper: 31 of 146 member sites after filtering).
    pub prob_english_org: f64,
    /// Probability any given member site is live.
    pub prob_live: f64,
    /// Number of Tranco-style top sites to generate outside the RWS list.
    pub top_sites: usize,
    /// Probability a top site is primarily English-language.
    pub prob_top_site_english: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0x5257_5321,
            organisations: 41,
            prob_set_has_associated: 0.927,
            mean_associated_per_set: 2.6,
            prob_set_has_service: 0.22,
            prob_set_has_cctld: 0.146,
            prob_identical_sld: 0.093,
            prob_shared_stem: 0.30,
            prob_shared_branding: 0.60,
            prob_same_category: 0.40,
            prob_english_org: 0.25,
            prob_live: 0.985,
            top_sites: 1500,
            prob_top_site_english: 0.85,
        }
    }
}

impl CorpusConfig {
    /// A small corpus for fast unit tests.
    pub fn small(seed: u64) -> CorpusConfig {
        CorpusConfig {
            seed,
            organisations: 10,
            top_sites: 120,
            ..CorpusConfig::default()
        }
    }
}

/// The fully-generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The configuration it was generated from.
    pub config: CorpusConfig,
    /// Organisations owning the sets.
    pub organisations: Vec<Organisation>,
    /// Every site's specification, keyed by domain.
    pub sites: BTreeMap<DomainName, SiteSpec>,
    /// The generated Related Website Sets list.
    pub list: RwsList,
    /// The Tranco-style top-site ranking (non-RWS sites only).
    pub tranco: TrancoList,
    /// The corpus's page store, frozen as generated: every site's pages
    /// and well-known files in one host table. Reads take no lock and
    /// borrow straight from the interned pages — the classifier, the
    /// Figure 4 sweeps and the load engine all read through here. A stage
    /// that needs to add hosts (the governance replay's defect hosts)
    /// wraps it in its own [`SimulatedWeb`](rws_net::SimulatedWeb). The
    /// field name predates the single table and is pinned by the
    /// repository benchmark under `perfbench/`.
    pub sharded: FrozenWeb,
}

impl Corpus {
    /// The specification of a site, if it exists in the corpus.
    pub fn site(&self, domain: &DomainName) -> Option<&SiteSpec> {
        self.sites.get(domain)
    }

    /// The front-page HTML of a site, borrowed from the frozen store —
    /// the zero-copy read every hot path uses. No lock is taken.
    pub fn page_html(&self, domain: &DomainName) -> Option<&str> {
        self.sharded.page_html(domain, "/")
    }

    /// Run a closure over the borrowed front-page HTML of a site, if it
    /// exists — convenience over [`page_html`](Corpus::page_html) for call
    /// sites that fold the page into a result (classification, profiling).
    pub fn with_html<T>(&self, domain: &DomainName, f: impl FnOnce(&str) -> T) -> Option<T> {
        self.page_html(domain).map(f)
    }

    /// The front-page HTML of a site as an owned copy. Compatibility
    /// wrapper over the borrowed view — and the oracle the zero-copy
    /// equivalence tests compare [`with_html`](Corpus::with_html) against.
    pub fn html_of(&self, domain: &DomainName) -> Option<String> {
        self.page_html(domain).map(str::to_string)
    }

    /// All sites eligible for the survey (live, English) that are RWS set
    /// primaries or associated sites — the pool the paper's filtering
    /// produced (31 of 146 sites).
    pub fn survey_eligible_members(&self) -> Vec<&SiteSpec> {
        self.sites
            .values()
            .filter(|s| {
                s.survey_eligible()
                    && matches!(s.role, SiteRole::SetPrimary | SiteRole::SetAssociated)
            })
            .collect()
    }

    /// The category of a domain as recorded in the corpus (ground truth,
    /// before any classifier runs).
    pub fn category_of(&self, domain: &DomainName) -> Option<SiteCategory> {
        self.sites.get(domain).map(|s| s.category)
    }
}

/// Weighted category distribution for set primaries, approximating Figure 8
/// (news and media the largest single category, followed by IT, business,
/// portals and analytics, with a tail of smaller categories).
const PRIMARY_CATEGORY_WEIGHTS: &[(SiteCategory, f64)] = &[
    (SiteCategory::NewsAndMedia, 0.30),
    (SiteCategory::InformationTechnology, 0.15),
    (SiteCategory::BusinessAndEconomy, 0.14),
    (SiteCategory::SearchEnginesAndPortals, 0.08),
    (SiteCategory::AnalyticsInfrastructure, 0.06),
    (SiteCategory::Shopping, 0.08),
    (SiteCategory::Entertainment, 0.06),
    (SiteCategory::SocialNetworking, 0.04),
    (SiteCategory::Travel, 0.03),
    (SiteCategory::Games, 0.03),
    (SiteCategory::AdultContent, 0.02),
    (SiteCategory::Unknown, 0.01),
];

/// Weighted category distribution for top sites (groups 3 and 4 of the
/// survey draw from these).
const TOP_SITE_CATEGORY_WEIGHTS: &[(SiteCategory, f64)] = &[
    (SiteCategory::NewsAndMedia, 0.18),
    (SiteCategory::InformationTechnology, 0.14),
    (SiteCategory::BusinessAndEconomy, 0.16),
    (SiteCategory::SearchEnginesAndPortals, 0.06),
    (SiteCategory::AnalyticsInfrastructure, 0.05),
    (SiteCategory::Shopping, 0.14),
    (SiteCategory::Entertainment, 0.10),
    (SiteCategory::SocialNetworking, 0.06),
    (SiteCategory::Travel, 0.05),
    (SiteCategory::Games, 0.04),
    (SiteCategory::AdultContent, 0.01),
    (SiteCategory::Unknown, 0.01),
];

fn pick_category<R: Rng + ?Sized>(weights: &[(SiteCategory, f64)], rng: &mut R) -> SiteCategory {
    let ws: Vec<f64> = weights.iter().map(|(_, w)| *w).collect();
    let idx = rws_stats::sampling::weighted_choice(&ws, rng).unwrap_or(0);
    weights[idx].0
}

/// The corpus generator.
pub struct CorpusGenerator {
    config: CorpusConfig,
}

impl CorpusGenerator {
    /// Create a generator from a configuration.
    pub fn new(config: CorpusConfig) -> CorpusGenerator {
        CorpusGenerator { config }
    }

    /// Generate the full corpus, resolving sites through the context's
    /// shared [`rws_engine::SiteResolver`] and rendering pages on its pool.
    /// Output bytes depend only on the configuration — never on the
    /// context's execution mode.
    pub fn generate_with(&self, ctx: &EngineContext) -> Corpus {
        let cfg = self.config;
        let resolver = ctx.resolver();
        let mut rng = Xoshiro256StarStar::new(cfg.seed).derive("corpus");
        let mut used_domains: HashSet<DomainName> = HashSet::new();
        let mut sites: BTreeMap<DomainName, SiteSpec> = BTreeMap::new();
        let mut organisations = Vec::new();
        let mut rws_sets = Vec::new();

        // --- Organisations and their Related Website Sets -----------------
        for org_id in 0..cfg.organisations {
            let org = Organisation::generate(org_id, &mut rng);
            let language = if rng.chance(cfg.prob_english_org) {
                Language::English
            } else {
                Language::NonEnglish
            };
            let primary_category = pick_category(PRIMARY_CATEGORY_WEIGHTS, &mut rng);
            let primary_domain =
                self.fresh_domain(&org.flagship.slug, language, &mut used_domains, &mut rng);
            let mut set = RwsSet::for_primary(primary_domain.clone());
            set.set_contact(format!("webmaster@{primary_domain}"));

            sites.insert(
                primary_domain.clone(),
                SiteSpec {
                    domain: primary_domain.clone(),
                    brand: org.flagship.clone(),
                    category: primary_category,
                    language,
                    role: SiteRole::SetPrimary,
                    live: rng.chance(cfg.prob_live),
                    organisation: Some(org_id),
                },
            );

            // Associated sites.
            let associated_count = if rng.chance(cfg.prob_set_has_associated) {
                let mean_given_any =
                    (cfg.mean_associated_per_set / cfg.prob_set_has_associated).max(1.0);
                1 + rng.poisson(mean_given_any - 1.0) as usize
            } else {
                0
            };
            for _ in 0..associated_count {
                let shared_branding = rng.chance(cfg.prob_shared_branding);
                let brand = org.flagship.sibling(&mut rng, shared_branding);
                let category = if rng.chance(cfg.prob_same_category) {
                    primary_category
                } else {
                    pick_category(PRIMARY_CATEGORY_WEIGHTS, &mut rng)
                };
                let slug_choice = rng.next_f64();
                let domain = if slug_choice < cfg.prob_identical_sld {
                    // Identical SLD, different (generic) TLD: poalim.xyz / poalim.site.
                    self.fresh_domain_with_sld(
                        &org.flagship.slug,
                        language,
                        &mut used_domains,
                        &mut rng,
                    )
                } else if slug_choice < cfg.prob_identical_sld + cfg.prob_shared_stem {
                    // Shared stem: autobild.de alongside bild.de.
                    let stem_slug = format!("{}{}", brand_stem(&mut rng), org.flagship.slug);
                    self.fresh_domain(&stem_slug, language, &mut used_domains, &mut rng)
                } else {
                    // Entirely distinct name.
                    self.fresh_domain(&brand.slug, language, &mut used_domains, &mut rng)
                };
                set.add_associated(
                    &format!("https://{domain}"),
                    &format!(
                        "Affiliated {} brand of {}",
                        category.label(),
                        org.flagship.organisation_name
                    ),
                )
                .expect("generated associated domains are unique");
                sites.insert(
                    domain.clone(),
                    SiteSpec {
                        domain,
                        brand,
                        category,
                        language,
                        role: SiteRole::SetAssociated,
                        live: rng.chance(cfg.prob_live),
                        organisation: Some(org_id),
                    },
                );
            }

            // Service sites.
            if rng.chance(cfg.prob_set_has_service) {
                let service_count = 1 + rng.geometric_capped(0.6, 2) as usize;
                for s in 0..service_count {
                    let service_slug = format!(
                        "{}{}",
                        org.flagship.slug,
                        ["static", "cdn", "assets", "login"][s.min(3)]
                    );
                    let domain = self.fresh_domain(
                        &service_slug,
                        Language::English,
                        &mut used_domains,
                        &mut rng,
                    );
                    set.add_service(
                        &format!("https://{domain}"),
                        &format!(
                            "Serving infrastructure for {} properties",
                            org.flagship.name
                        ),
                    )
                    .expect("generated service domains are unique");
                    sites.insert(
                        domain.clone(),
                        SiteSpec {
                            domain,
                            brand: org.flagship.clone(),
                            category: SiteCategory::AnalyticsInfrastructure,
                            language,
                            role: SiteRole::SetService,
                            live: rng.chance(cfg.prob_live),
                            organisation: Some(org_id),
                        },
                    );
                }
            }

            // ccTLD variants of the primary.
            if rng.chance(cfg.prob_set_has_cctld) {
                let variant_count = 1 + rng.geometric_capped(0.5, 2) as usize;
                let mut variants = Vec::new();
                let mut tried = HashSet::new();
                for _ in 0..variant_count {
                    let suffix = COUNTRY_SUFFIXES[rng.range_usize(0, COUNTRY_SUFFIXES.len())];
                    if !tried.insert(suffix) {
                        continue;
                    }
                    let candidate = DomainName::parse(&format!(
                        "{}.{suffix}",
                        resolver
                            .second_level_label(&primary_domain)
                            .unwrap_or_else(|| org.flagship.slug.clone())
                    ))
                    .expect("generated ccTLD domains are valid");
                    if used_domains.insert(candidate.clone()) {
                        variants.push(candidate);
                    }
                }
                if !variants.is_empty() {
                    let variant_strs: Vec<String> =
                        variants.iter().map(|d| format!("https://{d}")).collect();
                    let refs: Vec<&str> = variant_strs.iter().map(String::as_str).collect();
                    set.add_cctld_variants(&format!("https://{primary_domain}"), &refs)
                        .expect("generated ccTLD variants are unique");
                    for domain in variants {
                        sites.insert(
                            domain.clone(),
                            SiteSpec {
                                domain,
                                brand: org.flagship.clone(),
                                category: primary_category,
                                language: Language::NonEnglish,
                                role: SiteRole::SetCctld,
                                live: rng.chance(cfg.prob_live),
                                organisation: Some(org_id),
                            },
                        );
                    }
                }
            }

            organisations.push(org);
            rws_sets.push(set);
        }

        let list = RwsList::from_sets(rws_sets).expect("generated sets are disjoint");

        // --- Top sites outside the RWS list --------------------------------
        let mut tranco_entries = Vec::new();
        for _ in 0..cfg.top_sites {
            let brand = Brand::generate(&mut rng);
            let language = if rng.chance(cfg.prob_top_site_english) {
                Language::English
            } else {
                Language::NonEnglish
            };
            let category = pick_category(TOP_SITE_CATEGORY_WEIGHTS, &mut rng);
            let domain = self.fresh_domain(&brand.slug, language, &mut used_domains, &mut rng);
            tranco_entries.push((domain.clone(), category));
            sites.insert(
                domain.clone(),
                SiteSpec {
                    domain,
                    brand,
                    category,
                    language,
                    role: SiteRole::TopSite,
                    live: true,
                    organisation: None,
                },
            );
        }
        let tranco = TrancoList::from_ranked(tranco_entries);

        // --- Populate the page store --------------------------------------
        // Per-site work (template rendering dominates) is independent: each
        // site draws from an rng stream derived from its own domain
        // (`derive` reads the parent rng without consuming it), so hosts
        // can be rendered in any order without changing a single output
        // byte. The sorted specs are cut into fixed-size chunks and one
        // pool task renders each chunk through its own reusable
        // RenderArena — pages build up in one warm buffer and the finished
        // bytes are interned into the PageBody in a single copy. Each task
        // then adds its hosts to the one page table, sized up front for
        // every site, so the inserts overlap with the other tasks'
        // rendering instead of running serially after them. The order in
        // which tasks fill the table cannot reach an output: nothing reads
        // the table in its iteration order, which std's hasher already
        // randomises per process.
        let specs: Vec<&SiteSpec> = sites.values().collect();
        let chunks: Vec<&[&SiteSpec]> = specs.chunks(RENDER_CHUNK).collect();
        let table = Mutex::new(HashMap::with_capacity(specs.len()));
        ctx.par_map_coarse(&chunks, |_, chunk| {
            let mut arena = RenderArena::new();
            let hosts: Vec<(DomainName, SiteHost)> = chunk
                .iter()
                .map(|spec| {
                    let host = render_host(&mut arena, spec, &rng, &list);
                    (spec.domain.clone(), host)
                })
                .collect();
            table.lock().expect("page table poisoned").extend(hosts);
        });
        let store = FrozenWeb::from_hosts(table.into_inner().expect("page table poisoned"));
        // Build phase over: the store is frozen. Every page body was
        // interned exactly once above; from here on the corpus is a
        // read-only snapshot (lock-free borrows).

        Corpus {
            config: cfg,
            organisations,
            sites,
            list,
            tranco,
            sharded: store,
        }
    }

    /// Generate a unique domain from a slug, with a TLD chosen by language.
    fn fresh_domain<R: Rng + ?Sized>(
        &self,
        slug: &str,
        language: Language,
        used: &mut HashSet<DomainName>,
        rng: &mut R,
    ) -> DomainName {
        for attempt in 0..64 {
            let tld = match language {
                Language::English => GENERIC_TLDS[rng.range_usize(0, GENERIC_TLDS.len())],
                Language::NonEnglish => {
                    // Non-English organisations mostly register under a ccTLD,
                    // with some generic TLD use.
                    if rng.chance(0.7) {
                        COUNTRY_SUFFIXES[rng.range_usize(0, COUNTRY_SUFFIXES.len())]
                    } else {
                        GENERIC_TLDS[rng.range_usize(0, GENERIC_TLDS.len())]
                    }
                }
            };
            let name = if attempt == 0 {
                format!("{slug}.{tld}")
            } else {
                format!("{slug}{attempt}.{tld}")
            };
            if let Ok(domain) = DomainName::parse(&name) {
                if used.insert(domain.clone()) {
                    return domain;
                }
            }
        }
        unreachable!("could not find a unique domain for slug '{slug}' after 64 attempts");
    }

    /// Generate a unique domain that keeps exactly the given SLD (used for
    /// the identical-SLD associated sites) by varying only the TLD.
    fn fresh_domain_with_sld<R: Rng + ?Sized>(
        &self,
        sld: &str,
        _language: Language,
        used: &mut HashSet<DomainName>,
        rng: &mut R,
    ) -> DomainName {
        for _ in 0..64 {
            let tld = GENERIC_TLDS[rng.range_usize(0, GENERIC_TLDS.len())];
            if let Ok(domain) = DomainName::parse(&format!("{sld}.{tld}")) {
                if used.insert(domain.clone()) {
                    return domain;
                }
            }
        }
        // All generic TLDs taken for this SLD: fall back to a suffixed slug,
        // which no longer has an identical SLD but keeps generation total.
        self.fresh_domain(&format!("{sld}app"), Language::English, used, rng)
    }
}

/// Render one site's host: pages, well-known file, headers. Pure in
/// `(spec, rng, list)` — the per-site rng stream is derived from the
/// *shared* post-spec-phase rng by domain, so the result is independent
/// of which chunk task (or thread) runs it.
fn render_host(
    arena: &mut RenderArena,
    spec: &SiteSpec,
    rng: &Xoshiro256StarStar,
    list: &RwsList,
) -> SiteHost {
    let mut host = SiteHost::for_domain(spec.domain.clone());
    if !spec.live {
        host.set_offline(true);
    }
    let mut page_rng = rng.derive(spec.domain.as_str());
    let html = arena.render_site_into(
        &spec.domain,
        &spec.brand,
        spec.category,
        spec.language,
        &mut page_rng,
    );
    host.add_page("/", html);
    host.add_page(
        "/about",
        arena.render_about_page_into(&spec.domain, &spec.brand, spec.language),
    );
    // RWS members serve their well-known files; service sites also
    // carry the X-Robots-Tag header the validator checks for.
    if let Some(set) = list.set_for(&spec.domain) {
        let wk = if set.primary() == &spec.domain {
            WellKnownFile::for_primary(set)
        } else {
            WellKnownFile::for_member(set.primary())
        };
        host.add_json(WELL_KNOWN_RWS_PATH, wk.to_json_string());
        if spec.role == SiteRole::SetService {
            host.add_header("/", "X-Robots-Tag", "noindex");
            host.add_header(WELL_KNOWN_RWS_PATH, "X-Robots-Tag", "noindex");
        }
    }
    host
}

fn brand_stem<R: Rng + ?Sized>(rng: &mut R) -> &'static str {
    const STEMS: &[&str] = &[
        "auto", "sport", "tech", "shop", "travel", "job", "immo", "finanz", "kino", "wetter",
    ];
    STEMS[rng.range_usize(0, STEMS.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_domain::SiteResolver;
    use rws_model::{MemberRole, SetValidator, ValidatorConfig};
    use rws_net::SimulatedWeb;

    fn corpus() -> Corpus {
        CorpusGenerator::new(CorpusConfig::small(11)).generate_with(&EngineContext::embedded())
    }

    #[test]
    fn generation_is_deterministic() {
        let a =
            CorpusGenerator::new(CorpusConfig::small(3)).generate_with(&EngineContext::embedded());
        let b =
            CorpusGenerator::new(CorpusConfig::small(3)).generate_with(&EngineContext::embedded());
        assert_eq!(a.list.set_count(), b.list.set_count());
        assert_eq!(a.list.all_domains(), b.list.all_domains());
        assert_eq!(
            a.tranco
                .iter()
                .map(|e| e.domain.clone())
                .collect::<Vec<_>>(),
            b.tranco
                .iter()
                .map(|e| e.domain.clone())
                .collect::<Vec<_>>()
        );
        // Pages are identical too.
        let d = a.list.all_domains()[0].clone();
        assert_eq!(a.html_of(&d), b.html_of(&d));
    }

    #[test]
    fn corpus_has_expected_shape() {
        let c = corpus();
        assert_eq!(c.list.set_count(), 10);
        assert_eq!(c.organisations.len(), 10);
        assert_eq!(c.tranco.len(), 120);
        // Every RWS member and every top site has a spec and a host.
        for domain in c.list.all_domains() {
            assert!(c.sites.contains_key(&domain));
            assert!(c.sharded.has_host(&domain));
        }
        assert!(c.sharded.host_count() >= c.list.domain_count() + c.tranco.len());
    }

    #[test]
    fn roles_match_list_membership() {
        let c = corpus();
        for spec in c.sites.values() {
            match spec.role {
                SiteRole::TopSite => assert!(c.list.set_for(&spec.domain).is_none()),
                SiteRole::SetPrimary => {
                    assert_eq!(c.list.role_of(&spec.domain), Some(MemberRole::Primary))
                }
                SiteRole::SetAssociated => {
                    assert_eq!(c.list.role_of(&spec.domain), Some(MemberRole::Associated))
                }
                SiteRole::SetService => {
                    assert_eq!(c.list.role_of(&spec.domain), Some(MemberRole::Service))
                }
                SiteRole::SetCctld => {
                    assert_eq!(c.list.role_of(&spec.domain), Some(MemberRole::Cctld))
                }
            }
        }
    }

    #[test]
    fn live_set_members_pass_validation() {
        let c = corpus();
        let validator = SetValidator::new(
            SimulatedWeb::from_frozen(c.sharded.clone()),
            ValidatorConfig::default(),
            SiteResolver::embedded(),
        );
        for set in c.list.sets() {
            // Only sets whose members are all live are expected to validate
            // cleanly (offline members legitimately fail the fetch check).
            let all_live = set
                .domains()
                .iter()
                .all(|d| c.site(d).map(|s| s.live).unwrap_or(false));
            if all_live {
                let report = validator.validate(set);
                assert!(
                    report.passed(),
                    "set {} failed validation: {:?}",
                    set.primary(),
                    report.issues
                );
            }
        }
    }

    #[test]
    fn calibration_of_full_size_corpus() {
        let c =
            CorpusGenerator::new(CorpusConfig::default()).generate_with(&EngineContext::embedded());
        assert_eq!(c.list.set_count(), 41);
        let with_assoc = c.list.sets().filter(|s| s.associated_count() > 0).count() as f64 / 41.0;
        assert!(
            with_assoc > 0.8,
            "share of sets with associated sites {with_assoc}"
        );
        let total_assoc: usize = c.list.sets().map(|s| s.associated_count()).sum();
        let mean_assoc = total_assoc as f64 / 41.0;
        assert!(
            (1.6..=3.8).contains(&mean_assoc),
            "mean associated sites per set {mean_assoc} out of range"
        );
        // Some English-language survey-eligible members must exist.
        assert!(c.survey_eligible_members().len() >= 10);
        // And the majority of members should be non-English, as in the paper.
        let members: Vec<&SiteSpec> = c.sites.values().filter(|s| s.in_rws_set()).collect();
        let english = members
            .iter()
            .filter(|s| s.language == Language::English)
            .count();
        assert!(
            english * 2 < members.len(),
            "{english}/{} English members",
            members.len()
        );
    }

    #[test]
    fn html_is_served_for_live_sites() {
        let c = corpus();
        let spec = c.sites.values().find(|s| s.live).unwrap();
        let html = c.html_of(&spec.domain).unwrap();
        assert!(html.contains(&spec.brand.name));
        assert!(c.category_of(&spec.domain).is_some());
    }

    #[test]
    fn borrowed_views_match_the_owned_compatibility_wrapper() {
        let c = corpus();
        for domain in c.sites.keys() {
            assert_eq!(
                c.with_html(domain, str::to_string),
                c.html_of(domain),
                "with_html/html_of divergence on {domain}"
            );
            assert_eq!(c.page_html(domain).map(str::to_string), c.html_of(domain));
        }
    }

    #[test]
    fn corpus_store_is_frozen_by_construction() {
        let c = corpus();
        // Every generated host lives in the frozen snapshot, and a web over
        // it serves identically through its frozen base.
        let web = SimulatedWeb::from_frozen(c.sharded.clone());
        assert_eq!(c.sharded.host_count(), c.sites.len());
        for domain in c.sites.keys() {
            assert!(c.sharded.has_host(domain));
            let url = rws_net::Url::https(domain, "/");
            assert_eq!(c.sharded.serve(&url), web.serve(&url));
        }
        // The served body is a refcount bump of the interned page, not a
        // copy.
        let live = c.sites.values().find(|s| s.live).unwrap();
        let url = rws_net::Url::https(&live.domain, "/");
        let interned = c.sharded.page_body(&live.domain, "/").unwrap().bytes();
        match web.serve(&url) {
            rws_net::ServedPage::Content { content, .. } => {
                let body = content.body().unwrap();
                assert_eq!(body.as_bytes().as_ptr(), interned.as_ptr());
            }
            other => panic!("expected content, got {other:?}"),
        }
    }

    #[test]
    fn service_sites_carry_robots_header() {
        let c =
            CorpusGenerator::new(CorpusConfig::default()).generate_with(&EngineContext::embedded());
        let service = c.sites.values().find(|s| s.role == SiteRole::SetService);
        if let Some(spec) = service {
            let has_header = c
                .sharded
                .host(&spec.domain)
                .unwrap()
                .headers_for("/")
                .is_some_and(|hs| hs.contains("x-robots-tag"));
            assert!(
                has_header,
                "service site {} missing X-Robots-Tag",
                spec.domain
            );
        }
    }

    #[test]
    fn identical_sld_associated_sites_exist_in_large_corpus() {
        let c =
            CorpusGenerator::new(CorpusConfig::default()).generate_with(&EngineContext::embedded());
        let psl = rws_domain::PublicSuffixList::embedded();
        let mut identical = 0usize;
        let mut total = 0usize;
        for (primary, member, role) in c.list.member_primary_pairs() {
            if role == MemberRole::Associated {
                total += 1;
                let a = psl.second_level_label(&member);
                let b = psl.second_level_label(&primary);
                if a.is_some() && a == b {
                    identical += 1;
                }
            }
        }
        assert!(
            total > 20,
            "expected a substantial number of associated sites, got {total}"
        );
        assert!(
            identical >= 1,
            "expected at least one identical-SLD associated site"
        );
    }
}
