//! Benches regenerating the governance figures.
//!
//! * `figure5_pr_cumulative` — Figure 5 (cumulative PRs by outcome)
//! * `figure6_pr_latency` — Figure 6 (days to process CDFs)
//! * `figure7_composition` — Figure 7 (set composition over time)
//! * `history_generation` — regenerating the whole PR history through the
//!   governance pipeline (the workload behind Table 3 and Figures 5–7).

use criterion::{criterion_group, criterion_main, Criterion};
use rws_analysis::experiments::{Experiment, Figure5, Figure6, Figure7};
use rws_bench::bench_scenario;
use rws_engine::EngineContext;
use rws_github::{HistoryConfig, HistoryGenerator};

fn bench_governance_figures(c: &mut Criterion) {
    let scenario = bench_scenario();

    let mut group = c.benchmark_group("figures_governance");
    group.sample_size(15);

    group.bench_function("figure5_pr_cumulative", |b| {
        b.iter(|| std::hint::black_box(Figure5.run(scenario)))
    });
    group.bench_function("figure6_pr_latency", |b| {
        b.iter(|| std::hint::black_box(Figure6.run(scenario)))
    });
    group.bench_function("figure7_composition", |b| {
        b.iter(|| std::hint::black_box(Figure7.run(scenario)))
    });
    group.bench_function("history_generation", |b| {
        b.iter(|| {
            std::hint::black_box(
                HistoryGenerator::new(HistoryConfig::default())
                    .generate_with(&scenario.corpus, &EngineContext::embedded()),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_governance_figures);
criterion_main!(benches);
