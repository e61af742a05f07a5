//! Supervised-execution gates for the load engine: panic quarantine under
//! a fault storm, salvage ≡ fail-fast when nothing panics, and
//! crash-resumable checkpointed runs.
//!
//! The crash fixture is a *poisoned host*: any client that picks it to
//! visit panics on the spot, taking its whole chunk down. Selection is a
//! pure function of `(seed, client id)`, so pooled and sequential replays
//! quarantine identical chunks — which lets every assertion here be full
//! `LoadReport` equality, supervision field included.

use proptest::prelude::*;
use rws_domain::SiteResolver;
use rws_engine::EngineContext;
use rws_load::{
    CheckpointSink, FaultPlan, FaultScale, LoadEngine, LoadScale, LoadTarget, MemorySink,
    RetryPolicy, SupervisionPolicy,
};
use rws_model::RwsList;
use rws_net::{SimulatedWeb, SiteHost};
use rws_stats::pool::ThreadPool;
use std::sync::Once;

/// Suppress the default panic printout for the panics this suite injects
/// on purpose; everything else still reports normally.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("poisoned work item"))
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// The hand-built five-host universe under storm weather with retries —
/// the same world the resilience suite replays — optionally with one
/// host poisoned so that chunks visiting it panic.
fn stormy_engine(clients: usize, fault_seed: u64, poison: bool) -> LoadEngine {
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
    let mut target = LoadTarget::from_frozen(web.freeze(), RwsList::default())
        .with_faults(FaultPlan::new(fault_seed, FaultScale::storm()))
        .with_retry(RetryPolicy::standard());
    if poison {
        // Poison a vanity entry host: picked ~1.6% of visits, so a full
        // 128-client chunk all but surely trips it while a small tail
        // chunk usually gets through — giving runs that mix quarantined
        // and surviving chunks.
        let vanity = target.vanity()[0].clone();
        target = target.with_poison_hosts(vec![vanity]);
    }
    let scale = LoadScale {
        clients,
        mean_visits: 5,
        think_time_ms: 250,
        ramp_ms: 3_000,
    };
    LoadEngine::new(target, scale)
}

/// Satellite gate: a worker panics mid-storm (fault injection on, salvage
/// on) under a forced 3-worker pool. The quarantine contents, retry
/// counters and every surviving report field equal the sequential twin's.
#[test]
fn mid_storm_panic_salvage_matches_sequential_twin() {
    quiet_injected_panics();
    let engine = stormy_engine(140, 0xFA17, true);
    let ctx = EngineContext::with_parts(ThreadPool::new(3), SiteResolver::full())
        .with_supervision(SupervisionPolicy::salvage());
    let pooled = engine.run_on(1, &ctx);
    let sequential = engine.run_on(1, &ctx.sequential_twin());
    assert_eq!(pooled, sequential);
    // The poison actually fired: at least one chunk is quarantined with
    // the poisoned-host message, and the monitor saw the same sweep.
    assert_eq!(pooled.supervision.tasks_run, 2, "fleet spans two chunks");
    assert!(pooled.supervision.quarantined > 0, "no chunk panicked");
    assert!(pooled
        .supervision
        .entries
        .iter()
        .all(|e| e.stage == "load-chunk" && e.message.contains("poisoned work item")));
    assert_eq!(ctx.supervision_report(), pooled.supervision);
    // The surviving chunk still measured real storm traffic.
    assert!(pooled.sessions > 0, "every chunk was quarantined");
    assert!(pooled.retries > 0, "storm produced no retries");
    assert!(pooled.wire_requests > 0);
}

proptest! {
    /// With nothing poisoned, a salvage run is byte-identical to the
    /// fail-fast default — same report through `PartialEq` *and* through
    /// the serialised wire form (except the supervision caps recorded,
    /// which both modes leave at zero trips).
    #[test]
    fn salvage_without_panics_is_byte_identical_to_fail_fast(seed in 0u64..1_000_000) {
        let engine = stormy_engine(96, seed ^ 0x5057, false);
        let fail_fast = engine.run_on(seed, &EngineContext::new());
        let salvage_ctx = EngineContext::new().with_supervision(SupervisionPolicy::salvage());
        let salvaged = engine.run_on(seed, &salvage_ctx);
        prop_assert_eq!(&fail_fast, &salvaged);
        prop_assert_eq!(
            serde_json::to_string(&fail_fast).unwrap(),
            serde_json::to_string(&salvaged).unwrap()
        );
        prop_assert_eq!(salvaged.supervision.quarantined, 0);
    }

    /// A checkpointed run equals the uninterrupted `run_on` field for
    /// field, whatever the window size.
    #[test]
    fn checkpointed_run_matches_run_on(seed in 0u64..1_000_000, every in 1usize..4) {
        let engine = stormy_engine(300, seed ^ 0x434b50, false);
        let ctx = EngineContext::new();
        let plain = engine.run_on(seed, &ctx);
        let sink = MemorySink::new();
        let checkpointed = engine.run_checkpointed(seed, &ctx, every, &sink);
        prop_assert_eq!(&plain, &checkpointed);
        prop_assert!(sink.count() >= 1);
    }

    /// Kill the run right after any checkpoint and resume: the finished
    /// report equals the uninterrupted one, from every boundary (keep = 0
    /// resumes from scratch).
    #[test]
    fn resuming_at_any_checkpoint_matches_uninterrupted(seed in 0u64..1_000_000) {
        let engine = stormy_engine(300, seed ^ 0x524553, false);
        let ctx = EngineContext::new();
        let every = 1;
        let full_sink = MemorySink::new();
        let uninterrupted = engine.run_checkpointed(seed, &ctx, every, &full_sink);
        for keep in 0..=full_sink.count() {
            let sink = full_sink.truncated(keep);
            let resumed = engine.run_checkpointed(seed, &ctx, every, &sink);
            prop_assert_eq!(&resumed, &uninterrupted);
        }
    }
}

/// Checkpointing composes with salvage: a poisoned chunk stays
/// quarantined across a kill/resume, and the resumed report still equals
/// the uninterrupted salvage run.
#[test]
fn checkpointed_salvage_run_resumes_identically() {
    quiet_injected_panics();
    let engine = stormy_engine(140, 0xFA17, true);
    let ctx = EngineContext::sequential().with_supervision(SupervisionPolicy::salvage());
    let full_sink = MemorySink::new();
    let uninterrupted = engine.run_checkpointed(1, &ctx, 1, &full_sink);
    assert!(
        uninterrupted.supervision.quarantined > 0,
        "no chunk panicked"
    );
    for keep in 0..=full_sink.count() {
        let sink = full_sink.truncated(keep);
        let resumed = engine.run_checkpointed(1, &ctx, 1, &sink);
        assert_eq!(resumed, uninterrupted, "resume after checkpoint {keep}");
    }
}

/// Resuming against the wrong seed is refused loudly rather than quietly
/// producing a chimera report.
#[test]
#[should_panic(expected = "different load seed")]
fn resume_rejects_a_checkpoint_from_another_seed() {
    let engine = stormy_engine(130, 7, false);
    let sink = MemorySink::new();
    engine.run_checkpointed(3, &EngineContext::sequential(), 1, &sink);
    engine.run_checkpointed(4, &EngineContext::sequential(), 1, &sink);
}
