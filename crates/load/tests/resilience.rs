//! Resilience gates: the pooled ≡ sequential ≡ replay equivalence must
//! survive an active fault storm, retries must actually recover traffic,
//! and a host going offline mid-run must evict the client's keep-alive
//! connection rather than serve stale content.

use proptest::prelude::*;
use rws_domain::{DomainName, SiteResolver};
use rws_engine::{EngineContext, ThreadPool};
use rws_load::{
    FaultPlan, FaultScale, LoadEngine, LoadReport, LoadScale, LoadTarget, RetryPolicy, RunTables,
};
use rws_model::RwsList;
use rws_net::{Fetcher, SimulatedWeb, SiteHost};
use std::sync::OnceLock;

/// The hand-built five-host universe, wrapped in storm weather and the
/// standard retry posture.
fn stormy_engine(clients: usize, fault_seed: u64) -> LoadEngine {
    let mut web = SimulatedWeb::new();
    for name in [
        "alpha.com",
        "beta.com",
        "gamma.com",
        "delta.org",
        "epsilon.net",
    ] {
        let mut host = SiteHost::new(name).unwrap();
        host.add_page("/", "<html><body>front page</body></html>");
        host.add_page("/about", "<html><body>about page</body></html>");
        web.register(host);
    }
    let target = LoadTarget::from_frozen(web.freeze(), RwsList::default())
        .with_faults(FaultPlan::new(fault_seed, FaultScale::storm()))
        .with_retry(RetryPolicy::standard());
    let scale = LoadScale {
        clients,
        mean_visits: 5,
        think_time_ms: 250,
        ramp_ms: 3_000,
    };
    LoadEngine::new(target, scale)
}

/// Sanity invariants every resilience report must satisfy, storm or calm.
fn assert_resilience_invariants(report: &LoadReport) {
    assert!(
        report.retry_successes + report.retry_failures <= report.retries,
        "each retried call spent at least one retry"
    );
    assert_eq!(
        report.time_to_first_success.count(),
        report.retry_successes,
        "one time-to-first-success sample per degraded success"
    );
    assert_eq!(
        report.responses() + report.error_count(),
        report.fetch_calls,
        "every fetch call ends in a response or a classified error"
    );
    let availability = report.availability();
    assert!((0.0..=1.0).contains(&availability));
    let rate = report.retry_success_rate();
    assert!((0.0..=1.0).contains(&rate));
}

/// A forced 3-worker context on the shared full resolver, built once:
/// pools never shut down, so one pool serves every case.
fn three_worker_ctx() -> &'static EngineContext {
    static CTX: OnceLock<EngineContext> = OnceLock::new();
    CTX.get_or_init(|| EngineContext::with_parts(ThreadPool::new(3), SiteResolver::full()))
}

proptest! {
    /// Pooled run == sequential twin == straight replay under an active
    /// fault storm with retries — the acceptance gate of the fault layer.
    #[test]
    fn fault_storm_pooled_equals_sequential_equals_replay(seed in 0u64..1_000_000) {
        let engine = stormy_engine(48, seed ^ 0x57524154);
        let ctx = EngineContext::new();
        let pooled = engine.run_on(seed, &ctx);
        let sequential = engine.run_on(seed, &ctx.sequential_twin());
        prop_assert_eq!(&pooled, &sequential);
        let replay = engine.replay_sequential_with(seed, &SiteResolver::full());
        prop_assert_eq!(&pooled, &replay);
        assert_resilience_invariants(&pooled);
    }

    /// The same equivalence under a deliberately awkward 3-worker pool
    /// (chunks outnumber workers, so chunk scheduling is maximally
    /// shuffled), checked against a matching-resolver replay.
    #[test]
    fn fault_storm_equivalence_under_forced_three_worker_pool(seed in 0u64..1_000_000) {
        let engine = stormy_engine(160, seed ^ 0x504F4F4C);
        let ctx = three_worker_ctx();
        let pooled = engine.run_on(seed, ctx);
        let replay = engine.replay_sequential_with(seed, ctx.resolver());
        prop_assert_eq!(&pooled, &replay);
        // Note: no `retries > 0` assertion here — fault schedules are pure
        // per-host/per-window functions and every fresh session starts at
        // ordinal 0, so on a five-host universe an unlucky plan seed can
        // legitimately roll zero retryable faults in the touched windows.
        // Retry coverage is pinned by the fixed-seed tests below.
        assert_resilience_invariants(&pooled);
    }
}

/// Fixed-seed companion to the proptest above: under a three-worker pool
/// with a seed verified to storm, the retry path actually fires and the
/// pooled report still equals the replay oracle.
#[test]
fn forced_three_worker_storm_exercises_retries() {
    let engine = stormy_engine(160, 0xFA17);
    let resolver = SiteResolver::full();
    let ctx = EngineContext::with_parts(ThreadPool::new(3), resolver.clone());
    let pooled = engine.run_on(7, &ctx);
    let replay = engine.replay_sequential_with(7, &resolver);
    assert_eq!(pooled, replay);
    assert!(pooled.retries > 0, "storm produced no retries");
    assert_resilience_invariants(&pooled);
}

#[test]
fn storm_with_retries_recovers_traffic() {
    let engine = stormy_engine(96, 0xFA17);
    let report = engine.run_on(7, &EngineContext::new());
    assert_resilience_invariants(&report);
    assert!(report.retries > 0, "storm produced no retries");
    assert!(
        report.retry_successes > 0,
        "no degraded successes despite retries: {report:?}"
    );
    assert!(report.backoff_ms_total > 0);
    // Retried recoveries must be priced on the simulated clock: their
    // time-to-first-success includes error costs and backoff, so the
    // histogram's samples sit above the base response latencies.
    assert!(report.time_to_first_success.count() > 0);

    // The identical engine with retries disabled serves strictly less
    // traffic successfully under the same weather.
    let no_retry = LoadEngine::new(
        engine.target().clone().with_retry(RetryPolicy::none()),
        engine.scale(),
    )
    .run_on(7, &EngineContext::new());
    assert_eq!(no_retry.retries, 0);
    assert!(
        report.availability() > no_retry.availability(),
        "retries should raise availability: {} vs {}",
        report.availability(),
        no_retry.availability()
    );
}

#[test]
fn calm_weather_report_matches_fault_free_run() {
    // FaultScale::off() injects nothing: the report must equal the plain
    // fault-free engine's field for field, retries included (zero).
    let mut web = SimulatedWeb::new();
    for name in ["alpha.com", "beta.com", "gamma.com"] {
        let mut host = SiteHost::new(name).unwrap();
        host.add_page("/", "<html><body>x</body></html>");
        web.register(host);
    }
    let frozen = web.freeze();
    let scale = LoadScale {
        clients: 24,
        mean_visits: 4,
        think_time_ms: 100,
        ramp_ms: 500,
    };
    let plain = LoadEngine::new(
        LoadTarget::from_frozen(frozen.clone(), RwsList::default()),
        scale,
    )
    .run_on(11, &EngineContext::new());
    let off = LoadEngine::new(
        LoadTarget::from_frozen(frozen, RwsList::default())
            .with_faults(FaultPlan::new(99, FaultScale::off()))
            .with_retry(RetryPolicy::standard()),
        scale,
    )
    .run_on(11, &EngineContext::new());
    assert_eq!(plain, off);
    assert_eq!(off.retries, 0);
}

/// The mid-run-offline satellite: a client holding a keep-alive connection
/// to a host that `update_host` takes offline must observe the refusal and
/// evict the connection — never serve stale content.
#[test]
fn host_offline_mid_run_refuses_and_evicts_the_kept_alive_connection() {
    use rws_load::client::ClientState;

    let host_name = DomainName::parse("solo.example").unwrap();
    let mut web = SimulatedWeb::new();
    let mut host = SiteHost::new("solo.example").unwrap();
    host.add_page("/", "<html><body>alive</body></html>");
    host.add_page("/about", "<html><body>about</body></html>");
    web.register(host);
    let frozen = web.freeze();

    // One-host universe: every visit targets solo.example. The target's
    // own `fetcher()` builds a fresh web per call, so the test drives the
    // client directly with a fetcher whose web it edits mid-run through
    // `web_mut` — that is what makes the `update_host` visible to the
    // client's reused connection.
    let target = LoadTarget::from_frozen(frozen.clone(), RwsList::default());
    let mut fetcher = Fetcher::new(SimulatedWeb::from_frozen(frozen));
    let scale = LoadScale {
        clients: 1,
        mean_visits: 40,
        think_time_ms: 10,
        ramp_ms: 1,
    };
    let tables = RunTables::new(&target, &SiteResolver::full());

    // Find a seed whose client visits plain hosts enough times in both
    // phases (every visit here hits solo.example; just need enough steps).
    let mut client = ClientState::new(3, 0, &scale);
    let mut before = LoadReport::new();
    for _ in 0..10 {
        if !client.step(&scale, &tables, &fetcher, &mut before) {
            break;
        }
    }
    assert!(before.status_2xx > 0, "warm-up phase served nothing");
    assert_eq!(before.errors.get("connection-refused"), 0);
    assert!(
        client.open_connections(&tables).contains(&host_name),
        "client should hold a keep-alive connection to the host"
    );

    // Take the host offline mid-run, through the fetcher's own web.
    assert!(fetcher.web_mut().update_host(&host_name, |h| {
        h.set_offline(true);
    }));

    let mut after = LoadReport::new();
    for _ in 0..10 {
        if !client.step(&scale, &tables, &fetcher, &mut after) {
            break;
        }
    }
    // Every post-offline fetch is refused: no stale 2xx, the error class
    // is connection-refused, and the dead connection was evicted.
    assert_eq!(after.status_2xx, 0, "stale content served after offline");
    assert!(after.errors.get("connection-refused") > 0);
    assert!(
        !client.open_connections(&tables).contains(&host_name),
        "dead keep-alive connection was not evicted"
    );
}
