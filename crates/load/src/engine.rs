//! The load engine: client chunks fanned out on the pool.

use crate::client::ClientState;
use crate::report::LoadReport;
use crate::scale::LoadScale;
use crate::target::{LoadTarget, RunTables};
use rws_domain::SiteResolver;
use rws_engine::EngineContext;
use rws_net::Fetcher;

/// Clients per pool task. Coarse enough that task dispatch is noise,
/// fine enough that the pool has parallelism to steal at smoke scale.
const CHUNK_CLIENTS: u32 = 128;

/// Replays a fleet of simulated browser clients against a [`LoadTarget`].
///
/// Two execution paths produce the same [`LoadReport`] field for field:
///
/// * [`run_on`](LoadEngine::run_on) — clients in fixed chunks, each chunk
///   running its clients to completion one after another on one reused
///   client state, chunks fanned out on the [`EngineContext`] pool, and
///   per-chunk partial reports merged with integer arithmetic;
/// * [`replay_sequential_with`](LoadEngine::replay_sequential_with) — the
///   oracle: one freshly built client at a time, run to completion in a
///   plain loop, no chunks and no pool.
///
/// Equality holds because clients are fully independent (per-client rng
/// streams, per-client simulated clocks) and every aggregate is an
/// order-independent integer merge; the property tests pin it across
/// seeds and forced multi-worker pools. Both paths build the run's
/// [`RunTables`] once, before any client runs: the names numbered, each
/// served host's site resolved once, and the list memberships and URLs
/// the visit loop reads indexed by id. Pool workers share the tables by
/// reference.
#[derive(Debug)]
pub struct LoadEngine {
    target: LoadTarget,
    scale: LoadScale,
}

impl LoadEngine {
    /// Build an engine over a target. The target must have at least one
    /// browsable host.
    pub fn new(target: LoadTarget, scale: LoadScale) -> LoadEngine {
        assert!(
            !target.hosts().is_empty(),
            "load target has no hosts to fetch"
        );
        LoadEngine { target, scale }
    }

    /// The configured scale.
    pub fn scale(&self) -> LoadScale {
        self.scale
    }

    /// The target under load.
    pub fn target(&self) -> &LoadTarget {
        &self.target
    }

    /// Run the full fleet on the given context: client chunks on the pool
    /// (or inline when the context is sequential), fanned out as one
    /// `"load-chunk"` sweep under the context's supervision policy.
    ///
    /// Each chunk gets its *own* fetcher family and carries its
    /// wire-request count in its partial report. Under salvage a
    /// quarantined chunk's requests therefore vanish with it and the
    /// surviving merge stays exact; the quarantine, indexed by chunk
    /// ordinal, lands in `report.supervision` (and the context's monitor).
    /// Under fail-fast a panicking chunk takes the run down.
    pub fn run_on(&self, seed: u64, ctx: &EngineContext) -> LoadReport {
        let tables = RunTables::new(&self.target, ctx.resolver());
        let (partials, sweep) =
            ctx.par_map_supervised("load-chunk", &self.chunk_spans(), |_, &(lo, hi)| {
                let worker_fetcher = self.target.fetcher();
                let mut partial = self.run_chunk(seed, lo, hi, &tables, &worker_fetcher);
                partial.wire_requests = worker_fetcher.requests_issued() as u64;
                partial
            });
        let mut report = LoadReport::new();
        for partial in partials.into_iter().flatten() {
            report.merge(&partial);
        }
        report.supervision.merge(&sweep);
        report.clients = self.scale.clients as u64;
        report
    }

    /// The fleet cut into `CHUNK_CLIENTS`-sized `(lo, hi)` spans — the
    /// unit of pool dispatch and quarantine alike.
    fn chunk_spans(&self) -> Vec<(u32, u32)> {
        let clients = self.scale.clients as u32;
        (0..clients)
            .step_by(CHUNK_CLIENTS as usize)
            .map(|lo| (lo, (lo + CHUNK_CLIENTS).min(clients)))
            .collect()
    }

    /// One chunk of clients, each run to completion in id order. Clients
    /// share nothing but the frozen store, so the order changes no tally;
    /// one state is re-seeded per client, so its buffers are reused.
    fn run_chunk(
        &self,
        seed: u64,
        lo: u32,
        hi: u32,
        tables: &RunTables,
        fetcher: &Fetcher,
    ) -> LoadReport {
        let mut report = LoadReport::new();
        let mut st = ClientState::new(seed, lo, &self.scale);
        for id in lo..hi {
            st.restart(seed, id, &self.scale);
            report.sim_start_ms = report.sim_start_ms.min(st.clock());
            while st.step(&self.scale, tables, fetcher, &mut report) {}
            report.sessions += 1;
            report.sim_end_ms = report.sim_end_ms.max(st.clock());
        }
        report
    }

    /// The property-test oracle: every client replayed to completion one
    /// at a time against `resolver`, each on a state of its own, no chunks,
    /// no pool. Produces the report [`run_on`](Self::run_on) produces on a
    /// context with the same resolver.
    pub fn replay_sequential_with(&self, seed: u64, resolver: &SiteResolver) -> LoadReport {
        let tables = RunTables::new(&self.target, resolver);
        let fetcher = self.target.fetcher();
        let mut report = LoadReport::new();
        for id in 0..self.scale.clients as u32 {
            let mut st = ClientState::new(seed, id, &self.scale);
            report.sim_start_ms = report.sim_start_ms.min(st.clock());
            while st.step(&self.scale, &tables, &fetcher, &mut report) {}
            report.sessions += 1;
            report.sim_end_ms = report.sim_end_ms.max(st.clock());
        }
        report.clients = self.scale.clients as u64;
        report.wire_requests = fetcher.requests_issued() as u64;
        // Mirror the one clean sweep `run_on` records, so the oracle stays
        // field-for-field equal to the engine paths.
        report
            .supervision
            .record_sweep("load-chunk", self.chunk_spans().len(), Vec::new());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_model::RwsList;
    use rws_net::{SimulatedWeb, SiteHost};

    fn tiny_engine(clients: usize) -> LoadEngine {
        let mut web = SimulatedWeb::new();
        for name in ["alpha.com", "beta.com", "gamma.com", "delta.com"] {
            let mut host = SiteHost::new(name).unwrap();
            host.add_page("/", "<html><body>page</body></html>");
            host.add_page("/about", "<html><body>about</body></html>");
            web.register(host);
        }
        let target = LoadTarget::from_frozen(web.freeze(), RwsList::default());
        let scale = LoadScale {
            clients,
            mean_visits: 5,
            think_time_ms: 200,
            ramp_ms: 2_000,
        };
        LoadEngine::new(target, scale)
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let engine = tiny_engine(40);
        let ctx = EngineContext::new();
        let a = engine.run_on(11, &ctx);
        let b = engine.run_on(11, &ctx);
        assert_eq!(a, b);
        let c = engine.run_on(12, &ctx);
        assert_ne!(a, c);
    }

    #[test]
    fn all_sessions_complete_and_tallies_are_consistent() {
        let engine = tiny_engine(60);
        let report = engine.run_on(5, &EngineContext::new());
        assert_eq!(report.clients, 60);
        assert_eq!(report.sessions, 60);
        assert_eq!(report.gets + report.heads, report.fetch_calls);
        // Every fetch either produced a response or an error.
        assert_eq!(
            report.responses() + report.error_count(),
            report.fetch_calls
        );
        // Wire requests include redirect hops on top of fetch calls that
        // got a response; errors may have consumed hops too.
        assert!(report.wire_requests >= report.responses() + report.redirects_followed);
        assert_eq!(report.latency.count(), report.responses());
        assert!(report.sim_end_ms > report.sim_start_ms);
        for tally in &report.vendors {
            assert_eq!(tally.decisions(), report.decisions);
            assert!(tally.shared >= tally.auto_grant);
        }
        // chrome-legacy never partitions: every decision is shared.
        assert_eq!(report.vendors[1].vendor, "chrome-legacy");
        assert_eq!(report.vendors[1].shared, report.decisions);
        // brave never shares.
        assert_eq!(report.vendors[4].vendor, "brave");
        assert_eq!(report.vendors[4].shared, 0);
    }

    #[test]
    fn traffic_mix_exercises_every_path() {
        let engine = tiny_engine(120);
        let report = engine.run_on(3, &EngineContext::new());
        assert!(report.gets > 0, "no GETs");
        assert!(report.heads > 0, "no HEADs");
        assert!(report.well_known_probes > 0, "no well-known probes");
        assert!(report.redirects_followed > 0, "no redirects followed");
        assert!(report.connections_reused > 0, "no connection reuse");
        assert!(report.connections_opened > 0, "no connections opened");
        assert!(report.decisions > 0, "no partitioning decisions");
        assert!(report.fetch_calls > 0, "no fetch calls");
    }
}
