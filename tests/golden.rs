//! The golden reproduction digest: the correctness floor every refactor
//! runs under.
//!
//! Each test hashes one whole deterministic output with the workspace's
//! FNV-1a ([`rws_stats::fnv1a_of`]) and checks it against a constant:
//!
//! * the rendered paper reproduction at `ScenarioConfig::default()` and at
//!   `ScenarioConfig::small(61)`;
//! * the serialised `LoadReport` of a smoke-scale replay over the default
//!   corpus, calm and under the storm weather with standard retries;
//! * the serialised `CategoryDatabase` and `PrHistory` of the default
//!   scenario.
//!
//! Every output is scheduling-independent, so the constants hold at any
//! pool width: the global pool's (`RWS_POOL_THREADS`) and, in one process,
//! the sequential context and explicit pools of every width in [`WIDTHS`].
//! A change that moves a byte must update the constant on purpose and say
//! why.

use rws_analysis::{PaperReproduction, Scenario, ScenarioConfig};
use rws_engine::{EngineContext, SiteResolver, SupervisionPolicy, ThreadPool};
use rws_load::{FaultPlan, FaultScale, LoadEngine, LoadScale, LoadTarget, RetryPolicy};
use rws_stats::fnv1a_of;
use std::sync::OnceLock;

const RENDER_DEFAULT: u64 = 0x24309d0f0151f83b;
const RENDER_SMALL_61: u64 = 0xb95036cacd51c542;
const LOAD_CALM: u64 = 0x1a15782ad104c0cc;
const LOAD_STORM: u64 = 0xb841ae97a5061795;
const CATEGORIES: u64 = 0x7363296dad4dd520;
const HISTORY: u64 = 0x890112a368cdfb5b;

/// Seed of the smoke-scale replays.
const LOAD_SEED: u64 = 0x601D;
/// Seed of the storm's fault plan.
const FAULT_SEED: u64 = 0x5708;

/// Explicit pool widths the in-process matrix checks, besides the
/// sequential context. Pools never shut down, so each is built once: 16
/// worker threads in all.
const WIDTHS: [usize; 5] = [1, 2, 3, 4, 6];

/// Digests of the default-scale outputs, computed from one reproduction
/// shared by every test in this file (generation is the expensive step).
struct DefaultDigests {
    render: u64,
    load_calm: u64,
    load_storm: u64,
    categories: u64,
    history: u64,
}

fn default_digests() -> &'static DefaultDigests {
    static DIGESTS: OnceLock<DefaultDigests> = OnceLock::new();
    DIGESTS.get_or_init(|| digests_of(&PaperReproduction::new(ScenarioConfig::default())))
}

/// Every default-scale digest of one reproduction, on its own engine.
fn digests_of(paper: &PaperReproduction) -> DefaultDigests {
    let scenario = paper.scenario();
    let load = |storm: bool| {
        let report = load_engine(scenario, storm).run_on(LOAD_SEED, paper.engine());
        digest(&serde_json::to_string(&report).unwrap())
    };
    DefaultDigests {
        render: digest(&paper.render_all()),
        load_calm: load(false),
        load_storm: load(true),
        categories: digest(&serde_json::to_string(&scenario.categories).unwrap()),
        history: digest(&serde_json::to_string(&scenario.history).unwrap()),
    }
}

/// The smoke-scale replay over the scenario's corpus, calm or under the
/// storm weather with standard retries.
fn load_engine(scenario: &Scenario, storm: bool) -> LoadEngine {
    let mut target = LoadTarget::from_corpus_sharded(&scenario.corpus);
    if storm {
        target = target
            .with_faults(FaultPlan::new(FAULT_SEED, FaultScale::storm()))
            .with_retry(RetryPolicy::standard());
    }
    LoadEngine::new(target, LoadScale::smoke())
}

fn digest(text: &str) -> u64 {
    fnv1a_of(text)
}

fn assert_golden(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: digest {got:#018x}, golden {want:#018x}");
}

#[test]
fn render_all_default_is_golden() {
    assert_golden(
        "render_all(default)",
        default_digests().render,
        RENDER_DEFAULT,
    );
}

#[test]
fn render_all_small_61_is_golden() {
    let small = PaperReproduction::new(ScenarioConfig::small(61));
    let got = digest(&small.render_all());
    assert_golden("render_all(small(61))", got, RENDER_SMALL_61);
}

#[test]
fn calm_load_report_is_golden() {
    assert_golden("calm LoadReport", default_digests().load_calm, LOAD_CALM);
}

#[test]
fn storm_load_report_is_golden() {
    assert_golden("storm LoadReport", default_digests().load_storm, LOAD_STORM);
}

#[test]
fn category_database_is_golden() {
    assert_golden("CategoryDatabase", default_digests().categories, CATEGORIES);
}

#[test]
fn pr_history_is_golden() {
    assert_golden("PrHistory", default_digests().history, HISTORY);
}

/// Determinism across pool widths in one process. The sequential context
/// and an explicit pool of every width in [`WIDTHS`] each reproduce every
/// default-scale digest, fail-fast and under salvage (nothing panics, so
/// salvage may not move a byte). The load engine's sequential oracle,
/// `replay_sequential_with`, hashes to the same constants as `run_on`.
#[test]
fn default_digests_hold_at_every_width_in_one_process() {
    let sequential = ("sequential".to_string(), EngineContext::sequential());
    let pooled = WIDTHS.iter().map(|&width| {
        let pool = ThreadPool::new(width);
        let ctx = EngineContext::with_parts(pool, SiteResolver::full());
        (format!("width {width}"), ctx)
    });
    for (label, ctx) in std::iter::once(sequential).chain(pooled) {
        let salvage = ctx.clone().with_supervision(SupervisionPolicy::Salvage);
        for (mode, ctx) in [("fail-fast", ctx), ("salvage", salvage)] {
            let paper = PaperReproduction::with_engine(ScenarioConfig::default(), ctx);
            let got = digests_of(&paper);
            let what = |artefact: &str| format!("{artefact} ({label}, {mode})");
            assert_golden(&what("render_all"), got.render, RENDER_DEFAULT);
            assert_golden(&what("calm LoadReport"), got.load_calm, LOAD_CALM);
            assert_golden(&what("storm LoadReport"), got.load_storm, LOAD_STORM);
            assert_golden(&what("CategoryDatabase"), got.categories, CATEGORIES);
            assert_golden(&what("PrHistory"), got.history, HISTORY);
            assert!(!paper.supervision_report().degraded(), "{label}, {mode}");
        }
    }
    let paper =
        PaperReproduction::with_engine(ScenarioConfig::default(), EngineContext::sequential());
    let resolver = paper.engine().resolver();
    for (storm, want) in [(false, LOAD_CALM), (true, LOAD_STORM)] {
        let report =
            load_engine(paper.scenario(), storm).replay_sequential_with(LOAD_SEED, resolver);
        let got = digest(&serde_json::to_string(&report).unwrap());
        assert_golden(
            &format!("replay_sequential_with (storm: {storm})"),
            got,
            want,
        );
    }
}
