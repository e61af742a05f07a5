//! The load engine: chunked event loops fanned out on the pool.

use crate::client::ClientState;
use crate::report::LoadReport;
use crate::scale::LoadScale;
use crate::target::{LoadTarget, SiteTable};
use rws_domain::SiteResolver;
use rws_engine::EngineContext;
use rws_net::Fetcher;
use rws_stats::checkpoint::CheckpointSink;
use rws_stats::supervision::Quarantine;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Clients per pool task. Coarse enough that task dispatch is noise,
/// fine enough that the pool has parallelism to steal at smoke scale.
const CHUNK_CLIENTS: u32 = 128;

/// Resumable state of a load run: the chunk watermark (chunk ordinals
/// `0..next_chunk` are already replayed and merged) plus the merged
/// partial report so far, serialised through the vendored serde shim.
/// Valid to resume against a freshly built identical target because every
/// client is a pure function of `(seed, client id)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadCheckpoint {
    /// The run seed the partial report belongs to.
    pub seed: u64,
    /// First chunk ordinal not yet replayed.
    pub next_chunk: u32,
    /// Everything merged so far (`clients` is left at 0 until the run
    /// finalises).
    pub partial: LoadReport,
}

/// Replays a fleet of simulated browser clients against a [`LoadTarget`].
///
/// Two execution paths produce the same [`LoadReport`] field for field:
///
/// * [`run_on`](LoadEngine::run_on) — clients in fixed chunks, each chunk
///   interleaved on a simulated-clock event loop (a min-heap of next
///   action times), chunks fanned out on the [`EngineContext`] pool, and
///   per-chunk partial reports merged with integer arithmetic;
/// * [`replay_sequential_with`](LoadEngine::replay_sequential_with) — the
///   oracle: one client at a time, run to completion in a plain loop, no
///   heap and no pool.
///
/// Equality holds because clients are fully independent (per-client rng
/// streams, per-client simulated clocks) and every aggregate is an
/// order-independent integer merge; the property tests pin it across
/// seeds and forced multi-worker pools. Both paths resolve the target's
/// hosts once, before any client runs ([`LoadTarget::sites`]), so a run
/// asks the resolver at most once per served host.
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

    /// Run the full fleet on the given context: chunked event loops on the
    /// pool (or inline when the context is sequential), fanned out as one
    /// sweep under the context's supervision policy.
    ///
    /// Each chunk gets its *own* fetcher family and carries its
    /// wire-request count in its partial report. Under salvage a
    /// quarantined chunk's requests therefore vanish with it and the
    /// surviving merge stays exact; the quarantine lands in
    /// `report.supervision` (and the context's monitor). Under fail-fast a
    /// panicking chunk takes the run down. This is the windowed loop of
    /// [`run_checkpointed`](Self::run_checkpointed) with one window and no
    /// sink.
    pub fn run_on(&self, seed: u64, ctx: &EngineContext) -> LoadReport {
        self.run_windows(seed, ctx, usize::MAX, None, 0, LoadReport::new())
    }

    /// The fleet cut into `CHUNK_CLIENTS`-sized `(lo, hi)` spans — the
    /// unit of pool dispatch, quarantine and checkpointing alike.
    fn chunk_spans(&self) -> Vec<(u32, u32)> {
        let clients = self.scale.clients as u32;
        (0..clients)
            .step_by(CHUNK_CLIENTS.max(1) as usize)
            .map(|lo| (lo, (lo + CHUNK_CLIENTS).min(clients)))
            .collect()
    }

    /// Like [`run_on`](Self::run_on), but replaying the chunks in windows
    /// of `every` and serialising a [`LoadCheckpoint`] (chunk watermark +
    /// merged partial report) into `sink` after each window. The run
    /// continues from the sink's latest checkpoint, or starts fresh when
    /// the sink is empty, so a killed run is finished by calling this again
    /// on the same sink. Chunks account exactly as in
    /// [`run_on`](Self::run_on), so the finished report equals an
    /// uninterrupted run field for field — property-tested by killing at
    /// every checkpoint boundary.
    pub fn run_checkpointed(
        &self,
        seed: u64,
        ctx: &EngineContext,
        every: usize,
        sink: &dyn CheckpointSink,
    ) -> LoadReport {
        let (start_chunk, merged) = match sink.latest() {
            Some(value) => {
                let checkpoint = LoadCheckpoint::deserialize(&value)
                    .expect("sink holds a valid load checkpoint");
                assert_eq!(
                    checkpoint.seed, seed,
                    "checkpoint belongs to a different load seed"
                );
                (checkpoint.next_chunk as usize, checkpoint.partial)
            }
            None => (0, LoadReport::new()),
        };
        self.run_windows(seed, ctx, every, Some(sink), start_chunk, merged)
    }

    /// The one sweep body: replay chunks `start_chunk..` in windows of
    /// `every`, each window one supervised `"load-chunk"` sweep, storing
    /// the merged state into `sink` (when given) after every window.
    /// `merged` seeds the fold when resuming.
    fn run_windows(
        &self,
        seed: u64,
        ctx: &EngineContext,
        every: usize,
        sink: Option<&dyn CheckpointSink>,
        start_chunk: usize,
        mut merged: LoadReport,
    ) -> LoadReport {
        let sites = self.target.sites(ctx.resolver());
        let chunks = self.chunk_spans();
        let every = every.max(1);
        let mut next = start_chunk.min(chunks.len());
        while next < chunks.len() {
            let end = next.saturating_add(every).min(chunks.len());
            let window = &chunks[next..end];
            let (partials, sweep) =
                ctx.par_map_sweep_at("load-chunk", next, window, |_, &(lo, hi)| {
                    let worker_fetcher = self.target.fetcher();
                    let mut partial = self.run_chunk(seed, lo, hi, &sites, &worker_fetcher);
                    partial.wire_requests = worker_fetcher.requests_issued() as u64;
                    partial
                });
            for partial in partials.into_iter().flatten() {
                merged.merge(&partial);
            }
            merged.supervision.merge(&sweep);
            next = end;
            if let Some(sink) = sink {
                sink.store(
                    LoadCheckpoint {
                        seed,
                        next_chunk: next as u32,
                        partial: merged.clone(),
                    }
                    .serialize(),
                );
            }
        }
        merged.clients = self.scale.clients as u64;
        merged
    }

    /// One chunk of clients interleaved on a simulated-clock event loop:
    /// always advance whichever client acts earliest (ties broken by
    /// client slot, so the schedule is deterministic).
    fn run_chunk(
        &self,
        seed: u64,
        lo: u32,
        hi: u32,
        sites: &SiteTable,
        fetcher: &Fetcher,
    ) -> LoadReport {
        let mut report = LoadReport::new();
        let mut states: Vec<ClientState> = (lo..hi)
            .map(|id| ClientState::new(seed, id, &self.scale))
            .collect();
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = states
            .iter()
            .enumerate()
            .map(|(slot, st)| Reverse((st.clock(), slot as u32)))
            .collect();
        for st in &states {
            report.sim_start_ms = report.sim_start_ms.min(st.clock());
        }
        while let Some(Reverse((_, slot))) = heap.pop() {
            let st = &mut states[slot as usize];
            if st.step(&self.scale, &self.target, sites, fetcher, &mut report) {
                heap.push(Reverse((st.clock(), slot)));
            } else {
                report.sessions += 1;
                report.sim_end_ms = report.sim_end_ms.max(st.clock());
            }
        }
        report
    }

    /// The property-test oracle: every client replayed to completion one
    /// at a time against `resolver`, no event loop, no pool. Produces the
    /// report [`run_on`](Self::run_on) produces on a context with the same
    /// resolver.
    pub fn replay_sequential_with(&self, seed: u64, resolver: &SiteResolver) -> LoadReport {
        let sites = self.target.sites(resolver);
        let fetcher = self.target.fetcher();
        let mut report = LoadReport::new();
        for id in 0..self.scale.clients as u32 {
            let mut st = ClientState::new(seed, id, &self.scale);
            report.sim_start_ms = report.sim_start_ms.min(st.clock());
            while st.step(&self.scale, &self.target, &sites, &fetcher, &mut report) {}
            report.sessions += 1;
            report.sim_end_ms = report.sim_end_ms.max(st.clock());
        }
        report.clients = self.scale.clients as u64;
        report.wire_requests = fetcher.requests_issued() as u64;
        // Mirror the one clean sweep `run_on` records, so the oracle stays
        // field-for-field equal to the engine paths.
        report.supervision.record_sweep(
            "load-chunk",
            0,
            self.chunk_spans().len(),
            &Quarantine::new(),
            usize::MAX,
        );
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
