//! The end-to-end paper reproduction: run every experiment over one shared
//! scenario. The scenario is generated through the staged pipeline on the
//! reproduction's [`EngineContext`], and [`run_all`](PaperReproduction::run_all)
//! executes the twelve experiments on the same pool — each experiment is one
//! coarse task, and the sweeps inside it fan out again on the shared workers.

use crate::experiments::all_experiments;
pub use crate::experiments::Experiment;
use crate::report::Report;
use crate::scenario::{Scenario, ScenarioConfig};
use rws_engine::EngineContext;

/// Runs the full set of experiments over a lazily-generated scenario.
pub struct PaperReproduction {
    config: ScenarioConfig,
    engine: EngineContext,
    scenario: std::cell::OnceCell<Scenario>,
}

impl PaperReproduction {
    /// Create a reproduction for a configuration on the production engine.
    /// The scenario is generated on first use and shared across experiments.
    pub fn new(config: ScenarioConfig) -> PaperReproduction {
        PaperReproduction::with_engine(config, EngineContext::new())
    }

    /// Create a reproduction on an explicit engine — e.g.
    /// [`EngineContext::sequential`] for the equivalence tests and the
    /// pooled-vs-sequential bench.
    pub fn with_engine(config: ScenarioConfig, engine: EngineContext) -> PaperReproduction {
        PaperReproduction {
            config,
            engine,
            scenario: std::cell::OnceCell::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The engine the reproduction runs on.
    pub fn engine(&self) -> &EngineContext {
        &self.engine
    }

    /// The generated scenario (generating it on first access).
    pub fn scenario(&self) -> &Scenario {
        self.scenario
            .get_or_init(|| Scenario::generate_with(self.config, &self.engine))
    }

    /// The experiment ids available, in paper order.
    pub fn experiment_ids(&self) -> Vec<&'static str> {
        all_experiments().iter().map(|e| e.id()).collect()
    }

    /// Run one experiment by id. Returns `None` for unknown ids.
    pub fn run(&self, id: &str) -> Option<Report> {
        let experiment = all_experiments().into_iter().find(|e| e.id() == id)?;
        Some(experiment.run(self.scenario()))
    }

    /// Run every experiment, in paper order. The experiments execute
    /// concurrently on the engine's pool (one coarse task each); reports
    /// come back in paper order regardless of completion order.
    ///
    /// The sweep runs under the engine's
    /// [`SupervisionPolicy`](rws_engine::SupervisionPolicy): fail-fast by
    /// default (all twelve reports or a panic), or — under salvage — a
    /// panicking experiment is quarantined in the engine's monitor (see
    /// [`supervision_report`](Self::supervision_report)) and its report is
    /// simply missing from the result.
    pub fn run_all(&self) -> Vec<Report> {
        let scenario = self.scenario();
        let experiments = all_experiments();
        self.engine
            .par_map_supervised("experiment", &experiments, |_, experiment| {
                experiment.run(scenario)
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Everything the engine's monitor saw across the reproduction so far:
    /// scenario-stage sweeps, experiment sweeps, and any quarantined tasks.
    pub fn supervision_report(&self) -> rws_engine::SupervisionReport {
        self.engine.supervision_report()
    }

    /// Render every report as one text document — what the examples print
    /// and EXPERIMENTS.md is derived from. When a salvage run degraded
    /// (quarantined tasks or cap trips), a trailing section says so
    /// explicitly rather than letting a shortened document pass as
    /// complete.
    pub fn render_all(&self) -> String {
        let mut text = self
            .run_all()
            .iter()
            .map(Report::to_text)
            .collect::<Vec<_>>()
            .join("\n");
        let supervision = self.supervision_report();
        if supervision.degraded() {
            text.push_str(&format!(
                "\n=== supervision (degraded) ===\ntasks run: {}\nquarantined: {}\ncap trips: {}\n",
                supervision.tasks_run, supervision.quarantined, supervision.cap_trips
            ));
            for entry in &supervision.entries {
                text.push_str(&format!(
                    "quarantined {}[{}]: {}\n",
                    entry.stage, entry.index, entry.message
                ));
            }
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reproduction() -> PaperReproduction {
        PaperReproduction::new(ScenarioConfig::small(61))
    }

    #[test]
    fn run_all_produces_twelve_reports() {
        let repro = reproduction();
        let reports = repro.run_all();
        assert_eq!(reports.len(), 12);
        let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "table1", "table2", "table3", "figure1", "figure2", "figure3", "figure4",
                "figure5", "figure6", "figure7", "figure8", "figure9"
            ]
        );
    }

    #[test]
    fn run_by_id_and_unknown_id() {
        let repro = reproduction();
        assert!(repro.run("figure3").is_some());
        assert!(repro.run("figure99").is_none());
        assert_eq!(repro.experiment_ids().len(), 12);
    }

    #[test]
    fn scenario_is_generated_once_and_shared() {
        let repro = reproduction();
        let first = repro.scenario() as *const _;
        let _ = repro.run("table1");
        let second = repro.scenario() as *const _;
        assert_eq!(first, second);
    }

    #[test]
    fn render_all_contains_every_section() {
        let repro = reproduction();
        let text = repro.render_all();
        for id in repro.experiment_ids() {
            assert!(text.contains(&format!("=== {id} ")), "missing section {id}");
        }
        // Nothing panicked, so the degraded section must be absent even
        // though the monitor recorded the sweeps.
        assert!(!text.contains("supervision (degraded)"));
    }

    #[test]
    fn salvage_run_matches_fail_fast_when_nothing_panics() {
        use rws_engine::SupervisionPolicy;
        let fail_fast = reproduction().run_all();
        let repro = PaperReproduction::with_engine(
            ScenarioConfig::small(61),
            EngineContext::new().with_supervision(SupervisionPolicy::salvage()),
        );
        let salvaged = repro.run_all();
        assert_eq!(fail_fast, salvaged);
        let supervision = repro.supervision_report();
        assert!(supervision.tasks_run >= 12, "{supervision:?}");
        assert_eq!(supervision.quarantined, 0);
        assert!(!supervision.degraded());
        assert!(supervision.entries.is_empty());
    }
}
