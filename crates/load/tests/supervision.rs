//! Supervised-execution gates for the load engine: panic quarantine under
//! a fault storm, and salvage ≡ fail-fast when nothing panics.
//!
//! The crash fixture is a *poisoned host*: any client that picks it to
//! visit panics on the spot, taking its whole chunk down. Selection is a
//! pure function of `(seed, client id)`, so pooled and sequential replays
//! quarantine identical chunks — which lets every assertion here be full
//! `LoadReport` equality, supervision field included.

use proptest::prelude::*;
use rws_domain::SiteResolver;
use rws_engine::{EngineContext, ThreadPool};
use rws_load::{
    FaultPlan, FaultScale, LoadEngine, LoadScale, LoadTarget, RetryPolicy, SupervisionPolicy,
};
use rws_model::RwsList;
use rws_net::{SimulatedWeb, SiteHost};
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
        .with_supervision(SupervisionPolicy::Salvage);
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
    // Each entry is indexed by its chunk ordinal: below the chunk count,
    // no chunk quarantined twice, and the named chunks' clients are
    // exactly the sessions missing from the report.
    let indices: Vec<u64> = pooled.supervision.entries.iter().map(|e| e.index).collect();
    assert!(indices.iter().all(|&i| i < 2), "index past the chunk count");
    let mut distinct = indices.clone();
    distinct.dedup();
    assert_eq!(distinct, indices, "a chunk index repeats");
    let chunk_clients = [128, 12];
    let lost: u64 = indices.iter().map(|&i| chunk_clients[i as usize]).sum();
    assert_eq!(pooled.sessions, 140 - lost, "indices name the wrong chunks");
    assert_eq!(ctx.supervision_report(), pooled.supervision);
    // The surviving chunk still measured real storm traffic.
    assert!(pooled.sessions > 0, "every chunk was quarantined");
    assert!(pooled.retries > 0, "storm produced no retries");
    assert!(pooled.wire_requests > 0);
}

/// A quarantined chunk past the first keeps its own ordinal. A 300-client
/// fleet spans chunks of 128, 128 and 44 clients, and both full chunks
/// all but surely visit the poisoned host, so the entries must name chunk
/// 1 as well as chunk 0; numbering every entry 0 would repeat an index
/// and miscount the lost sessions.
#[test]
fn non_first_chunk_quarantine_keeps_its_ordinal() {
    quiet_injected_panics();
    let engine = stormy_engine(300, 0xFA17, true);
    let ctx = EngineContext::with_parts(ThreadPool::new(3), SiteResolver::full())
        .with_supervision(SupervisionPolicy::Salvage);
    let pooled = engine.run_on(1, &ctx);
    assert_eq!(pooled, engine.run_on(1, &ctx.sequential_twin()));
    assert_eq!(pooled.supervision.tasks_run, 3, "fleet spans three chunks");
    let indices: Vec<u64> = pooled.supervision.entries.iter().map(|e| e.index).collect();
    assert!(
        indices.contains(&1),
        "chunk 1 was not quarantined: {indices:?}"
    );
    let mut distinct = indices.clone();
    distinct.dedup();
    assert_eq!(distinct, indices, "a chunk index repeats");
    let chunk_clients = [128, 128, 44];
    let lost: u64 = indices.iter().map(|&i| chunk_clients[i as usize]).sum();
    assert_eq!(pooled.sessions, 300 - lost, "indices name the wrong chunks");
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
        let salvage_ctx = EngineContext::new().with_supervision(SupervisionPolicy::Salvage);
        let salvaged = engine.run_on(seed, &salvage_ctx);
        prop_assert_eq!(&fail_fast, &salvaged);
        prop_assert_eq!(
            serde_json::to_string(&fail_fast).unwrap(),
            serde_json::to_string(&salvaged).unwrap()
        );
        prop_assert_eq!(salvaged.supervision.quarantined, 0);
    }
}
