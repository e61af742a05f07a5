//! Micro-benchmarks for the hot primitives underneath the experiments:
//! eTLD+1 computation, Levenshtein distance, HTML similarity, RWS list
//! lookup, KS tests and corpus generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rws_analysis::Scenario;
use rws_bench::{bench_scenario, domain_pairs, small_config};
use rws_domain::{levenshtein, DomainName, PublicSuffixList};
use rws_engine::EngineContext;
use rws_html::similarity::{html_similarity, SimilarityWeights};
use rws_stats::prelude::*;

fn bench_domain_primitives(c: &mut Criterion) {
    let psl = PublicSuffixList::embedded();
    let hosts: Vec<DomainName> = [
        "example.com",
        "www.example.co.uk",
        "deep.sub.domain.example.com.br",
        "myproject.github.io",
        "a.b.kawasaki.jp",
    ]
    .iter()
    .map(|s| DomainName::parse(s).unwrap())
    .collect();

    let mut group = c.benchmark_group("micro_domain");
    group.bench_function("registrable_domain", |b| {
        b.iter(|| {
            for host in &hosts {
                std::hint::black_box(psl.registrable_domain(host).ok());
            }
        })
    });
    group.bench_function("levenshtein_sld", |b| {
        b.iter(|| std::hint::black_box(levenshtein("nourishingpursuits", "cafemedia")))
    });
    group.finish();
}

fn bench_html_similarity(c: &mut Criterion) {
    let scenario = bench_scenario();
    let pairs = scenario.corpus.list.member_primary_pairs();
    let (primary, member, _) = pairs
        .iter()
        .find(|(p, m, _)| {
            scenario.corpus.html_of(p).is_some() && scenario.corpus.html_of(m).is_some()
        })
        .expect("some live pair exists");
    let html_a = scenario.corpus.html_of(primary).unwrap();
    let html_b = scenario.corpus.html_of(member).unwrap();

    c.bench_function("micro_html_similarity", |b| {
        b.iter(|| {
            std::hint::black_box(html_similarity(
                &html_a,
                &html_b,
                SimilarityWeights::default(),
            ))
        })
    });
}

fn bench_list_lookup(c: &mut Criterion) {
    let scenario = bench_scenario();
    let list = &scenario.corpus.list;
    let domains = list.all_domains();
    c.bench_function("micro_rws_are_related", |b| {
        b.iter(|| {
            let mut related = 0usize;
            for pair in domains.windows(2) {
                if list.are_related(&pair[0], &pair[1]) {
                    related += 1;
                }
            }
            std::hint::black_box(related)
        })
    });
}

/// The head-to-head the acceptance criteria measure: bounded Levenshtein
/// (threshold sweep) over 1k domain pairs vs. the naive per-call DP.
fn bench_levenshtein_naive_vs_bounded(c: &mut Criterion) {
    use rws_domain::levenshtein::{levenshtein_bounded, levenshtein_naive};
    let pairs = domain_pairs();
    let threshold = 3usize;
    let mut group = c.benchmark_group("micro_levenshtein_1k_pairs");
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut within = 0usize;
            for (a, bb) in &pairs {
                if levenshtein_naive(a, bb) <= threshold {
                    within += 1;
                }
            }
            std::hint::black_box(within)
        })
    });
    group.bench_function("bounded", |b| {
        b.iter(|| {
            let mut within = 0usize;
            for (a, bb) in &pairs {
                if levenshtein_bounded(a, bb, threshold).is_some() {
                    within += 1;
                }
            }
            std::hint::black_box(within)
        })
    });
    group.finish();
}

/// Pairwise HTML similarity: naive owned-set comparison vs. precomputed
/// hashed profiles, over the corpus's member/primary pairs.
fn bench_html_naive_vs_profiles(c: &mut Criterion) {
    use rws_html::similarity::{html_similarity_naive, DocumentProfile};
    let scenario = bench_scenario();
    let weights = SimilarityWeights::default();
    let docs: Vec<String> = scenario
        .corpus
        .list
        .member_primary_pairs()
        .iter()
        .filter_map(|(p, _, _)| scenario.corpus.html_of(p))
        .take(12)
        .collect();
    let mut group = c.benchmark_group("micro_html_pairwise");
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for a in &docs {
                for bb in &docs {
                    total += html_similarity_naive(a, bb, weights).joint;
                }
            }
            std::hint::black_box(total)
        })
    });
    group.bench_function("profiles", |b| {
        b.iter(|| {
            let profiles: Vec<DocumentProfile> = docs
                .iter()
                .map(|d| DocumentProfile::new(d, weights))
                .collect();
            let mut total = 0.0;
            for a in &profiles {
                for bb in &profiles {
                    total += a.similarity(bb, weights).joint;
                }
            }
            std::hint::black_box(total)
        })
    });
    group.finish();
}

/// PSL lookups: the trie walk against the linear rule scan, plus the
/// memoized resolver on a repeated host set.
fn bench_psl_trie_vs_linear(c: &mut Criterion) {
    use rws_domain::SiteResolver;
    let psl = PublicSuffixList::embedded();
    let hosts: Vec<DomainName> = [
        "example.com",
        "www.example.co.uk",
        "deep.sub.domain.example.com.br",
        "myproject.github.io",
        "a.b.kawasaki.jp",
        "x.city.kawasaki.jp",
        "news.wombat.ck",
    ]
    .iter()
    .map(|s| DomainName::parse(s).unwrap())
    .collect();
    let mut group = c.benchmark_group("micro_psl_lookup");
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for host in &hosts {
                let labels = host.labels();
                total += psl.suffix_label_count_naive(&labels);
            }
            std::hint::black_box(total)
        })
    });
    group.bench_function("trie", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for host in &hosts {
                let labels = host.labels();
                total += psl.suffix_label_count_trie(&labels);
            }
            std::hint::black_box(total)
        })
    });
    let resolver = SiteResolver::embedded();
    group.bench_function("memoized_resolver", |b| {
        b.iter(|| {
            for host in &hosts {
                std::hint::black_box(resolver.registrable_domain(host).ok());
            }
        })
    });
    group.finish();
}

/// Front-page access out of the frozen store: the owned `html_of` clone
/// (the pre-frozen-store cost every classification task paid) against the
/// borrowed `with_html` view.
fn bench_page_access_borrowed_vs_cloned(c: &mut Criterion) {
    let scenario = bench_scenario();
    let domains: Vec<_> = scenario
        .corpus
        .sites
        .values()
        .filter(|s| s.live)
        .map(|s| s.domain.clone())
        .take(64)
        .collect();
    let mut group = c.benchmark_group("micro_page_access");
    group.bench_function("cloned_html_of", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for domain in &domains {
                if let Some(html) = scenario.corpus.html_of(domain) {
                    total += html.len();
                }
            }
            std::hint::black_box(total)
        })
    });
    group.bench_function("borrowed_with_html", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for domain in &domains {
                total += scenario.corpus.with_html(domain, str::len).unwrap_or(0);
            }
            std::hint::black_box(total)
        })
    });
    group.finish();
}

fn bench_ks_test(c: &mut Criterion) {
    let mut rng = Xoshiro256StarStar::new(7);
    let a: Vec<f64> = (0..500).map(|_| rng.gaussian(30.0, 8.0)).collect();
    let b: Vec<f64> = (0..500).map(|_| rng.gaussian(36.0, 9.0)).collect();
    c.bench_function("micro_ks_two_sample", |bencher| {
        bencher.iter(|| std::hint::black_box(ks_two_sample(&a, &b)))
    });
}

fn bench_scenario_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_scenario_generation");
    group.sample_size(10);
    for organisations in [5usize, 10] {
        group.bench_with_input(
            BenchmarkId::from_parameter(organisations),
            &organisations,
            |b, &organisations| {
                b.iter(|| {
                    let mut config = small_config(99);
                    config.corpus.organisations = organisations;
                    std::hint::black_box(Scenario::generate_with(config, &EngineContext::new()))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_domain_primitives,
    bench_html_similarity,
    bench_levenshtein_naive_vs_bounded,
    bench_html_naive_vs_profiles,
    bench_psl_trie_vs_linear,
    bench_page_access_borrowed_vs_cloned,
    bench_list_lookup,
    bench_ks_test,
    bench_scenario_generation
);
criterion_main!(benches);
