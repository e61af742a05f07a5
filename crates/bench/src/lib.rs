//! Shared fixtures for the benchmark harness.
//!
//! Every Criterion bench target regenerates one (or more) of the paper's
//! tables/figures. Scenario generation is the expensive part, so the
//! fixtures here build it once per process and hand out references.

use rws_analysis::{Scenario, ScenarioConfig};
use rws_engine::EngineContext;
use std::sync::OnceLock;

/// The bench-scale scenario: paper-scale RWS list (41 sets) with a reduced
/// top-site pool so each benchmark iteration stays in the tens of
/// milliseconds.
pub fn bench_scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| Scenario::generate_with(bench_config(), &EngineContext::new()))
}

/// The configuration used by [`bench_scenario`].
pub fn bench_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::default();
    config.corpus.top_sites = 300;
    config.top_site_sample = 100;
    config
}

/// A deliberately small configuration for benchmarking scenario generation
/// itself.
pub fn small_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small(seed)
}

/// 1k synthetic SLD pairs shaped like the Figure 3 sweep: some identical,
/// some shared-stem, mostly distinct. Shared by the criterion micro bench
/// and the `bench_report` trajectory bin so both measure the same
/// workload.
pub fn domain_pairs() -> Vec<(String, String)> {
    let stems = [
        "bild",
        "poalim",
        "nourishingpursuits",
        "cafemedia",
        "autoscout",
        "mercado",
        "allegro",
        "seznam",
        "rakuten",
        "yandex",
    ];
    (0..1000)
        .map(|i| {
            let a = stems[i % stems.len()];
            let b = stems[(i * 7 + 3) % stems.len()];
            match i % 4 {
                0 => (a.to_string(), a.to_string()),
                1 => (format!("auto{a}"), a.to_string()),
                2 => (format!("{a}{i}"), format!("{b}{}", i / 2)),
                _ => (a.to_string(), b.to_string()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_pairs_fixture_shape() {
        let pairs = domain_pairs();
        assert_eq!(pairs.len(), 1000);
        assert!(pairs.iter().any(|(a, b)| a == b), "identical pairs present");
        assert!(
            pairs.iter().any(|(a, b)| a != b && a.contains(b.as_str())),
            "shared-stem pairs present"
        );
    }

    #[test]
    fn bench_scenario_builds_and_is_paper_scale() {
        let scenario = bench_scenario();
        assert_eq!(scenario.corpus.list.set_count(), 41);
        assert!(!scenario.survey.responses.is_empty());
        assert!(scenario.history.len() > 41);
    }
}
