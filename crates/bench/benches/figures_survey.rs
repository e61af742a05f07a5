//! Benches regenerating the survey figures.
//!
//! * `figure1_confusion` — Figure 1 (relatedness confusion matrix)
//! * `figure2_timing` — Figure 2 (timing CDFs + KS test)
//! * `survey_simulation` — the full survey run (pair sampling + 30
//!   participants), which is the workload behind both figures.

use criterion::{criterion_group, criterion_main, Criterion};
use rws_analysis::experiments::{Experiment, Figure1, Figure2};
use rws_bench::bench_scenario;
use rws_engine::EngineContext;
use rws_survey::{SurveyAnalysis, SurveyConfig, SurveyRunner};

fn bench_survey_figures(c: &mut Criterion) {
    let scenario = bench_scenario();

    let mut group = c.benchmark_group("figures_survey");
    group.sample_size(20);

    group.bench_function("figure1_confusion", |b| {
        b.iter(|| std::hint::black_box(Figure1.run(scenario)))
    });
    group.bench_function("figure2_timing", |b| {
        b.iter(|| std::hint::black_box(Figure2.run(scenario)))
    });
    group.bench_function("survey_simulation", |b| {
        b.iter(|| {
            let dataset = SurveyRunner::new(SurveyConfig::default()).run_on(
                &scenario.corpus,
                &scenario.pairs,
                &EngineContext::embedded(),
            );
            std::hint::black_box(SurveyAnalysis::analyse(&dataset))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_survey_figures);
criterion_main!(benches);
