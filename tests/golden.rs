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
//! pool width (`RWS_POOL_THREADS`). A change that moves a byte must update
//! the constant on purpose and say why.

use rws_analysis::{PaperReproduction, ScenarioConfig};
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
    DIGESTS.get_or_init(|| {
        let paper = PaperReproduction::new(ScenarioConfig::default());
        let scenario = paper.scenario();
        let load = |storm: bool| {
            let mut target = LoadTarget::from_corpus_sharded(&scenario.corpus);
            if storm {
                target = target
                    .with_faults(FaultPlan::new(FAULT_SEED, FaultScale::storm()))
                    .with_retry(RetryPolicy::standard());
            }
            let engine = LoadEngine::new(target, LoadScale::smoke());
            digest(&serde_json::to_string(&engine.run_on(LOAD_SEED, paper.engine())).unwrap())
        };
        DefaultDigests {
            render: digest(&paper.render_all()),
            load_calm: load(false),
            load_storm: load(true),
            categories: digest(&serde_json::to_string(&scenario.categories).unwrap()),
            history: digest(&serde_json::to_string(&scenario.history).unwrap()),
        }
    })
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
