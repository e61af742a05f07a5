//! One simulated browser client: a deterministic session state machine.
//!
//! ```text
//!              ┌──────────────────────────────────────────────┐
//!              ▼                                              │
//!  arrive ─▶ pick host ─▶ connect ─▶ GET/HEAD ─▶ tally ─▶ think ─▶ ... ─▶ done
//!  (ramp)    (skewed /    (reuse or  (redirects  (status,  (exp.
//!             vanity)      open)      followed)   latency,  clock
//!                                        │        vendor    advance)
//!                                        ▼        verdicts)
//!                                 .well-known probe (p≈0.3)
//! ```
//!
//! Every random draw comes from the client's own rng stream, derived from
//! `(run seed, client id)` — never from shared state — so a client behaves
//! identically whether it runs in a chunk on a pool worker, on a state
//! re-seeded from the chunk's previous client, or alone. That independence
//! is what makes the pooled and sequential aggregate reports equal field
//! for field.
//!
//! A client names hosts and sites by the run's [`RunTables`] ids: the
//! picked host, its open connections and the sites it has visited are
//! `u32`s, its URLs are the tables' prebuilt ones, and a visit's site
//! questions (the landing page's top site, the embedded third party, the
//! `.well-known` probe's site) and its vendor verdicts read id-indexed
//! tables. So the visit loop takes no resolver lock, bumps no shared
//! counter and clones no name; only the landing host of a redirected
//! fetch is hashed, to find its id.

use crate::report::LoadReport;
use crate::scale::LoadScale;
use crate::target::RunTables;
use rws_browser::VendorPolicy;
use rws_domain::DomainName;
use rws_net::{FetchOutcome, FetchSession, Fetcher, NetError, Response};
use rws_stats::{Rng, Xoshiro256StarStar};
use std::io::Write;

/// Simulated keep-alive window: a connection idle longer than this is
/// re-opened.
const KEEPALIVE_MS: u64 = 15_000;
/// Simulated TCP+TLS setup cost added to a response served on a fresh
/// connection.
const CONNECT_COST_MS: u64 = 12;
/// Simulated clock cost of a failed fetch (refused connection, timeout
/// already accounted by the fetcher's deadline, ...).
const ERROR_COST_MS: u64 = 35;
/// Per-client cap on simultaneously open simulated connections.
const MAX_OPEN_CONNECTIONS: usize = 8;

/// Probability a page visit enters through a vanity redirect host.
const P_VANITY: f64 = 0.08;
/// Probability a page visit targets `/about` instead of `/`.
const P_ABOUT: f64 = 0.25;
/// Probability a page visit is a HEAD instead of a GET.
const P_HEAD: f64 = 0.12;
/// Probability a visit is followed by a `.well-known` RWS probe.
const P_WELL_KNOWN: f64 = 0.30;
/// Probability the embedded site of a partitioning decision is a site the
/// client has already visited first-party (vs. a random third party).
const P_EMBED_VISITED: f64 = 0.5;
/// Probability a client accepts storage-access prompts.
const P_ACCEPTS_PROMPTS: f64 = 0.32;

/// Room for a client's longest rng stream label,
/// `load-client-4294967295-fetch` (28 bytes).
const LABEL_BYTES: usize = 32;

/// Format client `id`'s rng stream label, `load-client-{id}{suffix}`,
/// into `buf`, so seeding a client allocates no string. The bytes are
/// those `format!` would give.
fn label<'a>(buf: &'a mut [u8; LABEL_BYTES], id: u32, suffix: &str) -> &'a str {
    let len = {
        let mut rest = &mut buf[..];
        write!(rest, "load-client-{id}{suffix}").expect("client labels fit the buffer");
        LABEL_BYTES - rest.len()
    };
    std::str::from_utf8(&buf[..len]).expect("formatted labels are UTF-8")
}

/// A live client session. All state is private to the client.
#[derive(Debug)]
pub struct ClientState {
    rng: Xoshiro256StarStar,
    /// The client's position on the simulated clock, in milliseconds.
    clock: u64,
    visits_left: u32,
    accepts_prompts: bool,
    /// Site ids (eTLD+1) visited first-party this session,
    /// insertion-ordered.
    visited_sites: Vec<u32>,
    /// Open simulated connections: `(origin name id, last use)`.
    connections: Vec<(u32, u64)>,
    /// The client's fetch session: per-host request ordinals for the fault
    /// plan, the rng stream backoff jitter draws from, and the retry
    /// budget. Derived from `(seed, id)` on its own label so it never
    /// perturbs the main behaviour stream above.
    session: FetchSession,
}

impl ClientState {
    /// Seed a client. The rng stream depends only on `(seed, id)`.
    pub fn new(seed: u64, id: u32, scale: &LoadScale) -> ClientState {
        let mut client = ClientState {
            rng: Xoshiro256StarStar::new(seed),
            clock: 0,
            visits_left: 0,
            accepts_prompts: false,
            visited_sites: Vec::with_capacity(MAX_OPEN_CONNECTIONS),
            connections: Vec::with_capacity(MAX_OPEN_CONNECTIONS),
            session: FetchSession::new(seed, ""),
        };
        client.restart(seed, id, scale);
        client
    }

    /// Re-seed this state as client `id` of the run seeded `seed`: the
    /// state [`new`](ClientState::new) builds, with no trace of the client
    /// it held before. The visited-site and connection lists and the fetch
    /// session's ordinal map keep their capacity, so a chunk that runs its
    /// clients one after another allocates them once.
    pub(crate) fn restart(&mut self, seed: u64, id: u32, scale: &LoadScale) {
        let mut buf = [0; LABEL_BYTES];
        let mut rng = Xoshiro256StarStar::new(seed).derive(label(&mut buf, id, ""));
        self.clock = rng.range_u64(0, scale.ramp_ms.max(1));
        let visits = rng.poisson(scale.mean_visits.max(1) as f64).max(1);
        self.visits_left = visits.min(u32::MAX as u64) as u32;
        self.accepts_prompts = rng.chance(P_ACCEPTS_PROMPTS);
        self.rng = rng;
        self.visited_sites.clear();
        self.connections.clear();
        self.session.restart(seed, label(&mut buf, id, "-fetch"));
    }

    /// Where this client currently sits on the simulated clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Run one visit (page fetch, optional `.well-known` probe, think
    /// time), reading names, sites and URLs from the run's `tables`.
    /// Returns `true` while the session has more visits to run.
    pub fn step(
        &mut self,
        scale: &LoadScale,
        tables: &RunTables,
        fetcher: &Fetcher,
        report: &mut LoadReport,
    ) -> bool {
        let host = self.pick_host(tables);
        if tables.is_poisoned(host) {
            panic!("poisoned work item: {}", tables.name(host));
        }
        let about = self.rng.chance(P_ABOUT);
        let head = self.rng.chance(P_HEAD);
        let url = tables.page(host, about);
        let connect_cost = self.connect(host, report);

        report.fetch_calls += 1;
        let outcome = if head {
            report.heads += 1;
            fetcher.head_with(url, &mut self.session)
        } else {
            report.gets += 1;
            fetcher.get_with(url, &mut self.session)
        };
        if let Some(resp) = self.note_outcome(host, connect_cost, outcome, report) {
            if resp.status.is_success() {
                // The landing host (after redirects) is the page the
                // user is on; decide partitioning there.
                let landing = if resp.redirects_followed == 0 {
                    host
                } else {
                    tables
                        .id_of(&resp.url.host)
                        .expect("a response lands on a host the store serves")
                };
                let top_site = tables.site_of(landing);
                self.decide_partitioning(top_site, tables, report);
                self.note_visited(top_site);
            }
        }

        if self.rng.chance(P_WELL_KNOWN) {
            self.probe_well_known(host, tables, fetcher, report);
        }

        let think = self
            .rng
            .exponential(1.0 / scale.think_time_ms.max(1) as f64) as u64;
        self.clock += think;
        self.visits_left -= 1;
        self.visits_left > 0
    }

    /// GET the site's `/.well-known/related-website-set.json`, tallied but
    /// with no partitioning decision (it is machine traffic, not a page).
    fn probe_well_known(
        &mut self,
        host: u32,
        tables: &RunTables,
        fetcher: &Fetcher,
        report: &mut LoadReport,
    ) {
        let site = tables.site_of(host);
        let connect_cost = self.connect(site, report);
        report.well_known_probes += 1;
        report.fetch_calls += 1;
        report.gets += 1;
        let outcome = fetcher.get_with(tables.well_known(site), &mut self.session);
        self.note_outcome(site, connect_cost, outcome, report);
    }

    /// Fold a fetch outcome into the report and the clock: retry and
    /// backoff accounting, error tallies, and — on transport-level failure
    /// — eviction of the (now known dead) simulated connection, so a host
    /// going offline mid-run cannot keep serving through a stale keep-alive
    /// slot. Returns the response, if one arrived.
    fn note_outcome(
        &mut self,
        origin: u32,
        connect_cost: u64,
        outcome: FetchOutcome,
        report: &mut LoadReport,
    ) -> Option<Response> {
        let retries = u64::from(outcome.retries());
        report.retries += retries;
        report.backoff_ms_total += outcome.backoff_ms;
        // Each failed attempt costs error-handling time, and the backoff
        // between attempts passes on the client's simulated clock.
        self.clock += retries * ERROR_COST_MS + outcome.backoff_ms;
        match outcome.result {
            Ok(resp) => {
                if retries > 0 {
                    report.retry_successes += 1;
                    report.time_to_first_success.record(
                        retries * ERROR_COST_MS
                            + outcome.backoff_ms
                            + connect_cost
                            + resp.latency_ms,
                    );
                }
                self.observe(&resp, connect_cost, report);
                Some(resp)
            }
            Err(err) => {
                if retries > 0 {
                    report.retry_failures += 1;
                }
                if matches!(
                    err,
                    NetError::ConnectionRefused { .. }
                        | NetError::Timeout { .. }
                        | NetError::HostNotFound { .. }
                ) {
                    self.drop_connection(origin);
                }
                report.errors.record(err.class());
                self.clock += ERROR_COST_MS;
                None
            }
        }
    }

    /// Close the simulated connection to `origin`, if one is open.
    fn drop_connection(&mut self, origin: u32) {
        self.connections.retain(|&(h, _)| h != origin);
    }

    /// Origins with an open simulated connection, named through the run's
    /// `tables` (test observability).
    pub fn open_connections(&self, tables: &RunTables) -> Vec<DomainName> {
        self.connections
            .iter()
            .map(|&(h, _)| tables.name(h).clone())
            .collect()
    }

    /// Tally a response and advance the simulated clock by its latency.
    fn observe(&mut self, resp: &Response, connect_cost: u64, report: &mut LoadReport) {
        let latency = resp.latency_ms + connect_cost;
        report.latency.record(latency);
        report.total_latency_ms += latency;
        report.redirects_followed += resp.redirects_followed as u64;
        if resp.status.is_success() {
            report.status_2xx += 1;
        } else if resp.status.is_client_error() {
            report.status_4xx += 1;
        } else if resp.status.is_server_error() {
            report.status_5xx += 1;
        }
        self.clock += latency;
    }

    /// Evaluate a `requestStorageAccess`-style decision for every vendor
    /// policy against this page load: the facts come from the run's
    /// tables once, and each vendor's rule reads them.
    fn decide_partitioning(&mut self, top_site: u32, tables: &RunTables, report: &mut LoadReport) {
        let embedded_site = if !self.visited_sites.is_empty() && self.rng.chance(P_EMBED_VISITED) {
            let i = self.rng.range_usize(0, self.visited_sites.len());
            self.visited_sites[i]
        } else {
            let i = self.rng.range_usize(0, tables.browsable_count());
            tables.site_of(i as u32)
        };
        let has_prior_interaction = self.has_interacted_with(embedded_site, tables);
        let facts = tables.facts(top_site, embedded_site, has_prior_interaction);
        report.decisions += 1;
        for (slot, vendor) in VendorPolicy::ALL.iter().enumerate() {
            report.vendors[slot].record(vendor.decide(facts), self.accepts_prompts);
        }
    }

    /// Whether the client has visited `site` — or, mirroring the browser
    /// model, any member of `site`'s RWS set — first-party this session.
    fn has_interacted_with(&self, site: u32, tables: &RunTables) -> bool {
        if self.visited_sites.contains(&site) {
            return true;
        }
        tables.membership(site).is_some_and(|(set, _)| {
            self.visited_sites
                .iter()
                .any(|&v| tables.membership(v).is_some_and(|(s, _)| s == set))
        })
    }

    fn note_visited(&mut self, site: u32) {
        if !self.visited_sites.contains(&site) {
            self.visited_sites.push(site);
        }
    }

    /// Pick the next host id: a vanity redirect entry sometimes, otherwise
    /// a skew-toward-the-front draw over the deterministic host order (a
    /// stand-in for a popularity distribution).
    fn pick_host(&mut self, tables: &RunTables) -> u32 {
        let n = tables.browsable_count();
        if tables.vanity_count() > 0 && self.rng.chance(P_VANITY) {
            let i = self.rng.range_usize(0, tables.vanity_count());
            return (n + i) as u32;
        }
        let u = self.rng.next_f64();
        let i = ((u * u * n as f64) as usize).min(n - 1);
        i as u32
    }

    /// Simulated connection management: reuse within the keep-alive
    /// window is free, everything else pays the setup cost. Returns the
    /// cost to add to the response latency.
    fn connect(&mut self, origin: u32, report: &mut LoadReport) -> u64 {
        let now = self.clock;
        if let Some(slot) = self.connections.iter_mut().find(|(h, _)| *h == origin) {
            let idle = now.saturating_sub(slot.1);
            slot.1 = now;
            if idle <= KEEPALIVE_MS {
                report.connections_reused += 1;
                return 0;
            }
            report.connections_opened += 1;
            return CONNECT_COST_MS;
        }
        if self.connections.len() >= MAX_OPEN_CONNECTIONS {
            // Evict the least recently used connection.
            let oldest = self
                .connections
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.connections.swap_remove(oldest);
        }
        self.connections.push((origin, now));
        report.connections_opened += 1;
        CONNECT_COST_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_rng_depends_only_on_seed_and_id() {
        let scale = LoadScale::smoke();
        let a = ClientState::new(7, 3, &scale);
        let b = ClientState::new(7, 3, &scale);
        assert_eq!(a.clock, b.clock);
        assert_eq!(a.visits_left, b.visits_left);
        assert_eq!(a.accepts_prompts, b.accepts_prompts);
        let c = ClientState::new(7, 4, &scale);
        let d = ClientState::new(8, 3, &scale);
        // Different id or seed, different stream (clock xor visits differ
        // with overwhelming probability; pin the concrete values so a
        // stream regression is loud).
        assert!(
            (a.clock, a.visits_left) != (c.clock, c.visits_left)
                || (a.clock, a.visits_left) != (d.clock, d.visits_left)
        );
    }

    #[test]
    fn sessions_have_at_least_one_visit() {
        let scale = LoadScale {
            clients: 1,
            mean_visits: 1,
            think_time_ms: 10,
            ramp_ms: 1,
        };
        for id in 0..64 {
            let st = ClientState::new(1, id, &scale);
            assert!(st.visits_left >= 1);
        }
    }

    #[test]
    fn labels_are_the_formatted_bytes() {
        let mut buf = [0; LABEL_BYTES];
        assert_eq!(label(&mut buf, 7, ""), "load-client-7");
        assert_eq!(
            label(&mut buf, u32::MAX, "-fetch"),
            format!("load-client-{}-fetch", u32::MAX)
        );
    }

    /// A three-host universe, one of them behind a `www.` vanity
    /// redirect.
    fn three_host_target() -> crate::target::LoadTarget {
        use rws_model::RwsList;
        use rws_net::{SimulatedWeb, SiteHost};

        let mut web = SimulatedWeb::new();
        for name in ["alpha.com", "www.beta.com", "gamma.org"] {
            let mut host = SiteHost::new(name).unwrap();
            host.add_page("/", "<html><body>page</body></html>");
            host.add_page("/about", "<html><body>about</body></html>");
            web.register(host);
        }
        crate::target::LoadTarget::from_frozen(web.freeze(), RwsList::default())
    }

    /// A restarted state is the state `new` builds: a client run on the
    /// buffers of another tallies exactly what it tallies alone.
    #[test]
    fn restart_leaves_nothing_of_the_previous_client() {
        use rws_domain::SiteResolver;
        use rws_net::{FaultPlan, FaultScale, RetryPolicy};

        let target = three_host_target()
            .with_faults(FaultPlan::new(5, FaultScale::storm()))
            .with_retry(RetryPolicy::standard());
        let tables = RunTables::new(&target, &SiteResolver::embedded());
        let fetcher = target.fetcher();
        let scale = LoadScale {
            clients: 1,
            mean_visits: 20,
            think_time_ms: 10,
            ramp_ms: 1_000,
        };
        let mut reused = ClientState::new(3, 0, &scale);
        while reused.step(&scale, &tables, &fetcher, &mut LoadReport::new()) {}
        assert!(!reused.visited_sites.is_empty() && !reused.connections.is_empty());
        for id in 1..8 {
            reused.restart(3, id, &scale);
            let mut fresh = ClientState::new(3, id, &scale);
            assert_eq!(
                (reused.clock, reused.visits_left, reused.accepts_prompts),
                (fresh.clock, fresh.visits_left, fresh.accepts_prompts)
            );
            let (mut a, mut b) = (LoadReport::new(), LoadReport::new());
            while reused.step(&scale, &tables, &fetcher, &mut a) {}
            while fresh.step(&scale, &tables, &fetcher, &mut b) {}
            assert_eq!(a, b, "client {id}");
            assert_eq!(reused.visited_sites, fresh.visited_sites);
            assert_eq!(reused.connections, fresh.connections);
        }
    }

    /// A vanity entry redirects into the universe: the page the user ends
    /// up on, so the site marked visited, is the destination's, never the
    /// entry host's.
    #[test]
    fn redirected_visits_land_on_the_destination_site() {
        use rws_domain::SiteResolver;

        let target = three_host_target();
        let tables = RunTables::new(&target, &SiteResolver::embedded());
        let fetcher = target.fetcher();
        let browsable_sites: Vec<u32> = (0..tables.browsable_count() as u32)
            .map(|h| tables.site_of(h))
            .collect();
        let scale = LoadScale {
            clients: 1,
            mean_visits: 50,
            think_time_ms: 10,
            ramp_ms: 1,
        };
        let mut report = LoadReport::new();
        for id in 0..16 {
            let mut client = ClientState::new(5, id, &scale);
            while client.step(&scale, &tables, &fetcher, &mut report) {}
            for site in &client.visited_sites {
                assert!(
                    browsable_sites.contains(site),
                    "visited {}",
                    tables.name(*site)
                );
            }
        }
        assert!(report.redirects_followed > 0, "no vanity entry was taken");
    }
}
