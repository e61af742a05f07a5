//! The bench-trajectory reporter.
//!
//! Measures the workspace's hot kernels — optimized against their naive
//! oracles — and writes `BENCH_<N>.json` mapping each kernel to its median
//! ns/op plus the naive/optimized speedup ratios, so later PRs can track
//! perf deltas without parsing criterion output.
//!
//! Usage: `cargo run --release -p rws-bench --bin bench_report [-- N]`
//! (N defaults to 1, producing `BENCH_1.json` in the current directory).

use rws_analysis::{PaperReproduction, Scenario, ScenarioConfig};
use rws_bench::{bench_scenario, domain_pairs};
use rws_classify::{CategoryDatabase, KeywordAutomaton, KeywordClassifier};
use rws_corpus::{
    render_site, Brand, Corpus, CorpusConfig, CorpusGenerator, CorpusScale, Language, RenderArena,
    SiteCategory,
};
use rws_domain::levenshtein::{levenshtein_bounded, levenshtein_naive};
use rws_domain::{DomainName, PublicSuffixList, SiteResolver};
use rws_engine::EngineContext;
use rws_engine::SupervisionPolicy;
use rws_github::{HistoryConfig, HistoryGenerator};
use rws_html::similarity::{
    html_similarity_naive, DocumentProfile, ProfileScratch, SimilarityWeights,
};
use rws_html::{text_content, tokenize, Tokens, TokensFind};
use rws_load::{
    FaultPlan, FaultScale, FetchSession, LoadEngine, LoadScale, LoadTarget, MemorySink, RetryPolicy,
};
use rws_stats::rng::Xoshiro256StarStar;
use rws_survey::{PairGenerator, SurveyRunner, SurveyScale};
use serde_json::{json, Map, Value};
use std::hint::black_box;
use std::time::Instant;

/// Median ns/op over several samples of a closure, after a short warm-up.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    let warmup_until = Instant::now() + std::time::Duration::from_millis(30);
    let mut calls = 0u64;
    let start = Instant::now();
    while Instant::now() < warmup_until {
        f();
        calls += 1;
    }
    let per_call = start.elapsed().as_nanos() as f64 / calls.max(1) as f64;
    let batch = ((4_000_000.0 / per_call.max(1.0)).ceil() as u64).clamp(1, 1_000_000);
    let mut samples: Vec<f64> = (0..11)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// A synthetic full-scale PSL: 25 ccTLDs with 40 second-level
/// registrations each (1k+ rules), the shape of the real list's ccTLD
/// sections.
fn dense_psl() -> PublicSuffixList {
    let mut text = String::new();
    for cc in 0..25 {
        text.push_str(&format!("cc{cc}\n"));
        for sld in 0..40 {
            text.push_str(&format!("sld{sld}.cc{cc}\n"));
        }
    }
    PublicSuffixList::parse(&text)
}

fn main() {
    let index: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);
    let mut kernels = Map::new();
    let mut speedups = Map::new();
    let mut throughput = Map::new();

    // --- bounded Levenshtein over 1k domain pairs --------------------------
    let pairs = domain_pairs();
    let threshold = 3usize;
    let naive_ns = measure(|| {
        let mut within = 0usize;
        for (a, b) in &pairs {
            if levenshtein_naive(a, b) <= threshold {
                within += 1;
            }
        }
        black_box(within);
    });
    let bounded_ns = measure(|| {
        let mut within = 0usize;
        for (a, b) in &pairs {
            if levenshtein_bounded(a, b, threshold).is_some() {
                within += 1;
            }
        }
        black_box(within);
    });
    kernels.insert("levenshtein_1k_pairs_naive".into(), json!(naive_ns));
    kernels.insert("levenshtein_1k_pairs_bounded".into(), json!(bounded_ns));
    speedups.insert(
        "levenshtein_bounded_vs_naive".into(),
        json!(naive_ns / bounded_ns),
    );

    // --- pairwise HTML similarity ------------------------------------------
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
    assert!(docs.len() >= 2, "bench corpus must provide documents");
    let html_naive_ns = measure(|| {
        let mut total = 0.0;
        for a in &docs {
            for b in &docs {
                total += html_similarity_naive(a, b, weights).joint;
            }
        }
        black_box(total);
    });
    let html_profile_ns = measure(|| {
        let profiles: Vec<DocumentProfile> = docs
            .iter()
            .map(|d| DocumentProfile::new(d, weights))
            .collect();
        let mut total = 0.0;
        for a in &profiles {
            for b in &profiles {
                total += a.similarity(b, weights).joint;
            }
        }
        black_box(total);
    });
    kernels.insert("html_pairwise_naive".into(), json!(html_naive_ns));
    kernels.insert("html_pairwise_profiles".into(), json!(html_profile_ns));
    speedups.insert(
        "html_profiles_vs_naive".into(),
        json!(html_naive_ns / html_profile_ns),
    );

    // --- PSL lookup: linear scan vs trie vs memoized resolver --------------
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
    let linear_ns = measure(|| {
        for host in &hosts {
            let labels = host.labels();
            black_box(psl.suffix_label_count_naive(&labels));
        }
    });
    let trie_ns = measure(|| {
        for host in &hosts {
            let labels = host.labels();
            black_box(psl.suffix_label_count_trie(&labels));
        }
    });
    let resolver = SiteResolver::embedded();
    let resolver_ns = measure(|| {
        for host in &hosts {
            black_box(resolver.registrable_domain(host).ok());
        }
    });
    kernels.insert("psl_lookup_linear".into(), json!(linear_ns));
    kernels.insert("psl_lookup_trie".into(), json!(trie_ns));
    kernels.insert("psl_lookup_memoized".into(), json!(resolver_ns));
    speedups.insert("psl_trie_vs_linear".into(), json!(linear_ns / trie_ns));
    let resolver_stats = resolver.stats();

    // --- PSL at full-list scale --------------------------------------------
    // The embedded snapshot is tiny (a handful of rules per TLD), which
    // understates the trie's advantage; the real Public Suffix List carries
    // dozens of second-level registrations under many ccTLDs. Synthesise a
    // dense list to measure the matchers at that scale.
    let dense = dense_psl();
    let dense_hosts: Vec<DomainName> = (0..200)
        .map(|i| DomainName::parse(&format!("www.site{i}.sld{}.cc{}", i % 40, i % 25)).unwrap())
        .collect();
    let dense_linear_ns = measure(|| {
        for host in &dense_hosts {
            let labels = host.labels();
            black_box(dense.suffix_label_count_naive(&labels));
        }
    });
    let dense_trie_ns = measure(|| {
        for host in &dense_hosts {
            let labels = host.labels();
            black_box(dense.suffix_label_count_trie(&labels));
        }
    });
    kernels.insert("psl_dense_lookup_linear".into(), json!(dense_linear_ns));
    kernels.insert("psl_dense_lookup_trie".into(), json!(dense_trie_ns));
    speedups.insert(
        "psl_dense_trie_vs_linear".into(),
        json!(dense_linear_ns / dense_trie_ns),
    );

    // --- figure sweeps end-to-end ------------------------------------------
    let fig3_ns = measure(|| {
        black_box(rws_analysis::experiments::list::Figure3::distances(
            scenario,
        ));
    });
    let fig4_ns = measure(|| {
        black_box(rws_analysis::experiments::list::Figure4::similarities(
            scenario,
        ));
    });
    kernels.insert("figure3_sweep".into(), json!(fig3_ns));
    kernels.insert("figure4_sweep".into(), json!(fig4_ns));

    // --- Figure 4 profile phase: recycled scratch vs fresh buffers ---------
    // The same profiling sweep the Figure 4 experiment runs, measured with
    // `par_map` (fresh tag/class accumulators per document) against
    // `par_map_with` (per-worker recycled `ProfileScratch`).
    let profile_docs: Vec<String> = {
        let mut seen: std::collections::HashSet<DomainName> = std::collections::HashSet::new();
        let mut distinct: Vec<DomainName> = Vec::new();
        for (primary, member, _) in scenario.corpus.list.member_primary_pairs() {
            for domain in [primary, member] {
                if seen.insert(domain.clone()) {
                    distinct.push(domain);
                }
            }
        }
        distinct
            .iter()
            .filter_map(|d| scenario.corpus.html_of(d))
            .take(64)
            .collect()
    };
    assert!(
        profile_docs.len() >= 32,
        "profile sweep needs enough documents to leave the inline cutoff"
    );
    let profile_ctx = EngineContext::new();
    let profile_plain_ns = measure(|| {
        black_box(
            profile_ctx.par_map(&profile_docs, |_, html| DocumentProfile::new(html, weights)),
        );
    });
    let profile_scratch_ns = measure(|| {
        black_box(profile_ctx.par_map_with(
            ProfileScratch::default(),
            &profile_docs,
            |scratch, _, html| DocumentProfile::with_scratch(html, weights, scratch),
        ));
    });
    kernels.insert("figure4_profile_par_map".into(), json!(profile_plain_ns));
    kernels.insert(
        "figure4_profile_par_map_with".into(),
        json!(profile_scratch_ns),
    );
    speedups.insert(
        "figure4_par_map_with_vs_par_map".into(),
        json!(profile_plain_ns / profile_scratch_ns),
    );

    // --- pair generation: indexed membership vs naive double loop ----------
    // The survey's pair universe at 32× the paper's member pool: the naive
    // generator walks the list's BTreeMap index twice per candidate pair,
    // the indexed generator compares precomputed integer set ids.
    let scale_32x = SurveyScale::times(32);
    let pair_generator =
        PairGenerator::with_scale(&scenario.corpus, &scenario.categories, scale_32x);
    let pair_naive_ns = measure(|| {
        black_box(pair_generator.generate_naive(&mut Xoshiro256StarStar::new(7)));
    });
    let pair_ctx = EngineContext::new();
    let pair_sequential_ctx = pair_ctx.sequential_twin();
    let pair_indexed_ns = measure(|| {
        black_box(
            pair_generator.generate_on(&mut Xoshiro256StarStar::new(7), &pair_sequential_ctx),
        );
    });
    let pair_pooled_ns = measure(|| {
        black_box(pair_generator.generate_on(&mut Xoshiro256StarStar::new(7), &pair_ctx));
    });
    kernels.insert("pair_universe_naive_32x".into(), json!(pair_naive_ns));
    kernels.insert("pair_universe_indexed_32x".into(), json!(pair_indexed_ns));
    kernels.insert("pair_universe_pooled_32x".into(), json!(pair_pooled_ns));
    speedups.insert(
        "pair_universe_indexed_vs_naive_32x".into(),
        json!(pair_naive_ns / pair_indexed_ns),
    );
    speedups.insert(
        "pair_universe_pooled_vs_naive_32x".into(),
        json!(pair_naive_ns / pair_pooled_ns),
    );

    // --- survey runner: pooled vs sequential, paper scale and 32× ----------
    // One pool task per participant against the shared cue cache. The 32×
    // kernel runs 960 sessions over the true 32×-member universe built
    // above (~500k candidate pairs; Floyd draws keep per-session setup
    // O(k)). On a single-core host the pool runs zero workers and the
    // caller drains the batch inline, so pooled-vs-sequential must sit
    // within noise of 1.0 (the caller-helps degeneration); multi-core
    // hosts fan the sessions out.
    let universe_32x = pair_generator.generate_on(&mut Xoshiro256StarStar::new(7), &pair_ctx);
    let survey_ctx = EngineContext::new();
    let survey_sequential_ctx = survey_ctx.sequential_twin();
    for (label, scale, universe) in [
        ("paper", SurveyScale::paper(), &scenario.pairs),
        ("32x", scale_32x, &universe_32x),
    ] {
        let runner = SurveyRunner::new(scale.survey_config(0x5343_2024));
        let pooled_ns = measure(|| {
            black_box(runner.run_on(&scenario.corpus, universe, &survey_ctx));
        });
        let sequential_ns = measure(|| {
            black_box(runner.run_on(&scenario.corpus, universe, &survey_sequential_ctx));
        });
        kernels.insert(format!("survey_runner_pooled_{label}"), json!(pooled_ns));
        kernels.insert(
            format!("survey_runner_sequential_{label}"),
            json!(sequential_ns),
        );
        speedups.insert(
            format!("survey_pooled_vs_sequential_{label}"),
            json!(sequential_ns / pooled_ns),
        );
    }

    // --- streaming tokenizer vs owned oracle -------------------------------
    // One full tokenization of each corpus page: the owned tokenizer
    // materialises every token (Strings + attribute maps), the streaming
    // tokenizer hands out borrowed slices and parses attributes lazily.
    let tokenizer_owned_ns = measure(|| {
        let mut tokens = 0usize;
        for doc in &docs {
            tokens += tokenize(doc).len();
        }
        black_box(tokens);
    });
    let tokenizer_streaming_ns = measure(|| {
        let mut tokens = 0usize;
        for doc in &docs {
            tokens += Tokens::new(doc).count();
        }
        black_box(tokens);
    });
    kernels.insert("tokenizer_owned_corpus".into(), json!(tokenizer_owned_ns));
    kernels.insert(
        "tokenizer_streaming_corpus".into(),
        json!(tokenizer_streaming_ns),
    );
    speedups.insert(
        "tokenizer_streaming_vs_owned".into(),
        json!(tokenizer_owned_ns / tokenizer_streaming_ns),
    );

    // --- SWAR word scanning vs the frozen find-based tokenizer -------------
    // The same streaming token stream, two scanners: `TokensFind` is the
    // PR-5 implementation frozen as a baseline (`str::find` positioning and
    // per-char text-collapse probes), `Tokens` runs the SWAR word loops
    // (eight bytes per step for `<`/`>`/`-->` scans and the clean-text
    // probe). Property-tested token-for-token equal; this PR's acceptance
    // bar is a >= 1.5x ratio.
    let total_tokens: usize = docs.iter().map(|d| Tokens::new(d).count()).sum();
    let tokenizer_find_ns = measure(|| {
        let mut tokens = 0usize;
        for doc in &docs {
            tokens += TokensFind::new(doc).count();
        }
        black_box(tokens);
    });
    let tokenizer_swar_ns = measure(|| {
        let mut tokens = 0usize;
        for doc in &docs {
            tokens += Tokens::new(doc).count();
        }
        black_box(tokens);
    });
    kernels.insert("tokenizer_find_baseline".into(), json!(tokenizer_find_ns));
    kernels.insert("tokenizer_swar".into(), json!(tokenizer_swar_ns));
    speedups.insert(
        "tokenizer_swar_vs_find".into(),
        json!(tokenizer_find_ns / tokenizer_swar_ns),
    );
    throughput.insert(
        "tokenizer_find_tokens_per_sec".into(),
        json!(total_tokens as f64 * 1e9 / tokenizer_find_ns),
    );
    throughput.insert(
        "tokenizer_swar_tokens_per_sec".into(),
        json!(total_tokens as f64 * 1e9 / tokenizer_swar_ns),
    );

    // --- arena page rendering vs the format! oracle ------------------------
    // 32 synthetic sites rendered per op: the oracle builds every block as
    // its own `format!` String before pushing it into the page, the arena
    // streams the same bytes into one warm reusable buffer (zero heap
    // allocations once grown — pinned by the corpus alloc gate). Identical
    // output and RNG stream are property-tested (render_equivalence).
    let mut spec_rng = Xoshiro256StarStar::new(0x5257_5306);
    let render_specs: Vec<(DomainName, Brand, SiteCategory, Language)> = (0..32)
        .map(|i| {
            let brand = Brand::generate(&mut spec_rng);
            let domain = DomainName::parse(&format!("{}{i}.example", brand.slug)).unwrap();
            let category = SiteCategory::ALL[i % SiteCategory::ALL.len()];
            let language = if i % 4 == 0 {
                Language::NonEnglish
            } else {
                Language::English
            };
            (domain, brand, category, language)
        })
        .collect();
    let render_format_ns = measure(|| {
        let mut bytes = 0usize;
        for (domain, brand, category, language) in &render_specs {
            let mut rng = Xoshiro256StarStar::new(11).derive(domain.as_str());
            bytes += render_site(domain, brand, *category, *language, &mut rng).len();
        }
        black_box(bytes);
    });
    let mut bench_arena = RenderArena::new();
    let render_arena_ns = measure(|| {
        let mut bytes = 0usize;
        for (domain, brand, category, language) in &render_specs {
            let mut rng = Xoshiro256StarStar::new(11).derive(domain.as_str());
            bytes += bench_arena
                .render_site_into(domain, brand, *category, *language, &mut rng)
                .len();
        }
        black_box(bytes);
    });
    kernels.insert("render_format_oracle".into(), json!(render_format_ns));
    kernels.insert("render_arena".into(), json!(render_arena_ns));
    speedups.insert(
        "render_arena_vs_format".into(),
        json!(render_format_ns / render_arena_ns),
    );
    throughput.insert(
        "render_format_pages_per_sec".into(),
        json!(render_specs.len() as f64 * 1e9 / render_format_ns),
    );
    throughput.insert(
        "render_arena_pages_per_sec".into(),
        json!(render_specs.len() as f64 * 1e9 / render_arena_ns),
    );

    // --- classification: single-pass automaton vs seed classifier ----------
    // The seed classifier tokenizes every page three times, builds an owned
    // lowercase haystack and rescans it once per keyword (~70); the
    // automaton streams the page once. Same pages, same answers
    // (property-tested); the speedup is the headline number of this report.
    let classify_pages: Vec<(DomainName, String)> = scenario
        .corpus
        .sites
        .values()
        .filter(|s| s.live)
        .filter_map(|s| {
            scenario
                .corpus
                .html_of(&s.domain)
                .map(|h| (s.domain.clone(), h))
        })
        .take(48)
        .collect();
    assert!(
        classify_pages.len() >= 24,
        "classification bench needs a page sample"
    );
    let classifier = KeywordClassifier::new();
    let classify_naive_ns = measure(|| {
        for (domain, html) in &classify_pages {
            black_box(classifier.classify_naive(domain, html));
        }
    });
    let classify_automaton_ns = measure(|| {
        for (domain, html) in &classify_pages {
            black_box(classifier.classify(domain, html));
        }
    });
    kernels.insert("classify_naive_corpus".into(), json!(classify_naive_ns));
    kernels.insert(
        "classify_automaton_corpus".into(),
        json!(classify_automaton_ns),
    );
    speedups.insert(
        "classify_automaton_vs_naive".into(),
        json!(classify_naive_ns / classify_automaton_ns),
    );

    // --- batched prefilter word split vs the per-byte scan -----------------
    // The automaton's walk over extracted page text: `feed_text` locates
    // word boundaries eight bytes at a time with a SWAR class mask and
    // probes the first-byte x length prefilter span by span,
    // `feed_text_naive` is the seed per-byte split. Identical hits and
    // verdicts are property-tested (classify equivalence suite).
    let classify_texts: Vec<String> = classify_pages
        .iter()
        .map(|(_, html)| text_content(html))
        .collect();
    let automaton = KeywordAutomaton::global();
    let prefilter_naive_ns = measure(|| {
        for text in &classify_texts {
            let mut matcher = automaton.matcher();
            matcher.feed_text_naive(text);
            black_box(matcher.finish(1));
        }
    });
    let prefilter_batch_ns = measure(|| {
        for text in &classify_texts {
            let mut matcher = automaton.matcher();
            matcher.feed_text(text);
            black_box(matcher.finish(1));
        }
    });
    kernels.insert("classify_prefilter_naive".into(), json!(prefilter_naive_ns));
    kernels.insert("classify_prefilter_batch".into(), json!(prefilter_batch_ns));
    speedups.insert(
        "classify_prefilter_batch_vs_naive".into(),
        json!(prefilter_naive_ns / prefilter_batch_ns),
    );

    // --- frozen page store: borrowed vs cloned page access -----------------
    // The same front-page read every classification task and similarity
    // sweep performs: `html_of` clones the page into a fresh String (the
    // pre-PR-5 cost), `with_html` borrows it straight out of the frozen
    // store.
    let page_domains: Vec<DomainName> = scenario
        .corpus
        .sites
        .values()
        .filter(|s| s.live)
        .map(|s| s.domain.clone())
        .take(256)
        .collect();
    assert!(
        page_domains.len() >= 64,
        "page-access bench needs a domain sample"
    );
    let access_cloned_ns = measure(|| {
        let mut total = 0usize;
        for domain in &page_domains {
            if let Some(html) = scenario.corpus.html_of(domain) {
                // black_box defeats allocation elision: the String copy
                // must actually be materialised, as it was on the seed's
                // classification path.
                total += black_box(html).len();
            }
        }
        black_box(total);
    });
    let access_borrowed_ns = measure(|| {
        let mut total = 0usize;
        for domain in &page_domains {
            total += scenario
                .corpus
                .with_html(domain, |html| black_box(html).len())
                .unwrap_or(0);
        }
        black_box(total);
    });
    kernels.insert("page_access_cloned".into(), json!(access_cloned_ns));
    kernels.insert("page_access_borrowed".into(), json!(access_borrowed_ns));
    speedups.insert(
        "page_access_borrowed_vs_cloned".into(),
        json!(access_cloned_ns / access_borrowed_ns),
    );

    // --- frozen vs locked read throughput under the pool -------------------
    // Full `serve` calls fanned out on the engine pool: the corpus's frozen
    // store routes shard-then-host with no lock, the locked twin (the same
    // hosts re-registered in a mutable web's overlay) takes the RwLock
    // read guard on every hit. On a single-core host both degrade to the
    // inline loop; the frozen path still wins by skipping the guard.
    let frozen_store = scenario.corpus.sharded.clone();
    let locked_twin = {
        let mut web = rws_net::SimulatedWeb::new();
        for domain in frozen_store.hosts() {
            if let Some(host) = frozen_store.host(&domain) {
                web.register(host.clone());
            }
        }
        web
    };
    let read_urls: Vec<rws_net::Url> = page_domains
        .iter()
        .map(|d| rws_net::Url::https(d, "/"))
        .collect();
    let served_len = |served: rws_net::ServedPage| match served {
        rws_net::ServedPage::Content { content, .. } => {
            content.body().map(|b| b.len()).unwrap_or(0)
        }
        _ => 0,
    };
    let read_ctx = EngineContext::new();
    let frozen_read_ns = measure(|| {
        black_box(read_ctx.par_map(&read_urls, |_, url| served_len(frozen_store.serve(url))));
    });
    let locked_read_ns = measure(|| {
        black_box(read_ctx.par_map(&read_urls, |_, url| served_len(locked_twin.serve(url))));
    });
    kernels.insert("frozen_read_pooled".into(), json!(frozen_read_ns));
    kernels.insert("locked_read_pooled".into(), json!(locked_read_ns));
    speedups.insert(
        "frozen_vs_locked_read_pooled".into(),
        json!(locked_read_ns / frozen_read_ns),
    );

    // --- classify_corpus: pooled vs sequential, paper and scaled corpora ---
    // One pool task per site over the whole corpus (the survey chain's
    // first stage). As with every pooled-vs-sequential kernel, a
    // single-core host degenerates to the inline loop and the ratio sits
    // at 1.0 by design; multi-core hosts fan the sites out.
    let scaled_corpus = CorpusGenerator::new(CorpusConfig {
        organisations: 96,
        top_sites: 480,
        ..CorpusConfig::default()
    })
    .generate_with(&EngineContext::embedded());
    let classify_ctx = EngineContext::new();
    let classify_sequential_ctx = classify_ctx.sequential_twin();
    for (label, corpus) in [("paper", &scenario.corpus), ("scaled", &scaled_corpus)] {
        let pooled_ns = measure(|| {
            black_box(CategoryDatabase::classify_corpus_on(corpus, &classify_ctx));
        });
        let sequential_ns = measure(|| {
            black_box(CategoryDatabase::classify_corpus_on(
                corpus,
                &classify_sequential_ctx,
            ));
        });
        kernels.insert(format!("classify_corpus_pooled_{label}"), json!(pooled_ns));
        kernels.insert(
            format!("classify_corpus_sequential_{label}"),
            json!(sequential_ns),
        );
        speedups.insert(
            format!("classify_corpus_pooled_vs_sequential_{label}"),
            json!(sequential_ns / pooled_ns),
        );
    }

    // --- zero-copy classify_corpus vs the owned-copy oracle ----------------
    // Both sequential, so the ratio isolates the per-task page copy the
    // frozen store removed (the last allocation on the classification hot
    // path) from any pool effect.
    for (label, corpus) in [("paper", &scenario.corpus), ("scaled", &scaled_corpus)] {
        let borrowed_ns = measure(|| {
            black_box(CategoryDatabase::classify_corpus_on(
                corpus,
                &classify_sequential_ctx,
            ));
        });
        let cloning_ns = measure(|| {
            black_box(CategoryDatabase::classify_corpus_cloning(corpus));
        });
        kernels.insert(
            format!("classify_corpus_borrowed_{label}"),
            json!(borrowed_ns),
        );
        kernels.insert(
            format!("classify_corpus_cloning_{label}"),
            json!(cloning_ns),
        );
        speedups.insert(
            format!("classify_corpus_borrowed_vs_cloning_{label}"),
            json!(cloning_ns / borrowed_ns),
        );
    }

    // --- staged scenario pipeline: pooled vs sequential --------------------
    let small = ScenarioConfig::small(7);
    let pooled_ctx = EngineContext::new();
    let sequential_ctx = pooled_ctx.sequential_twin();
    let scenario_pooled_ns = measure(|| {
        black_box(Scenario::generate_with(small, &pooled_ctx));
    });
    let scenario_sequential_ns = measure(|| {
        black_box(Scenario::generate_with(small, &sequential_ctx));
    });
    kernels.insert("scenario_pipeline_pooled".into(), json!(scenario_pooled_ns));
    kernels.insert(
        "scenario_pipeline_sequential".into(),
        json!(scenario_sequential_ns),
    );
    speedups.insert(
        "scenario_pipeline_pooled_vs_sequential".into(),
        json!(scenario_sequential_ns / scenario_pooled_ns),
    );

    // --- run_all end-to-end: pooled vs sequential --------------------------
    let repro_pooled = PaperReproduction::with_engine(small, EngineContext::new());
    let repro_sequential = PaperReproduction::with_engine(small, EngineContext::sequential());
    let _ = repro_pooled.scenario();
    let _ = repro_sequential.scenario();
    let run_all_pooled_ns = measure(|| {
        black_box(repro_pooled.run_all());
    });
    let run_all_sequential_ns = measure(|| {
        black_box(repro_sequential.run_all());
    });
    kernels.insert("run_all_pooled".into(), json!(run_all_pooled_ns));
    kernels.insert("run_all_sequential".into(), json!(run_all_sequential_ns));
    speedups.insert(
        "run_all_pooled_vs_sequential".into(),
        json!(run_all_sequential_ns / run_all_pooled_ns),
    );

    // --- fetcher request accounting: sharded counter vs mutex log ----------
    // 64 GETs per op through a freshly-built fetcher (rebuilding bounds the
    // logged variant's Vec growth to one op's worth). The unlogged default
    // bumps one relaxed atomic shard per hop; the opt-in log takes the
    // process-wide mutex and materialises a `Request` (Url clone + header
    // map) per hop — the cost every pre-PR-7 fetch paid.
    // Every load kernel below runs on the one-shard store: the bench
    // corpus regenerated with `with_shards(1)` (generation never lets the
    // shard count reach a page byte). The cross-shard block further down
    // compares the default 8 shards against it.
    let single_store_corpus = CorpusGenerator::new(scenario.config.corpus)
        .with_shards(1)
        .generate_with(&scenario.engine);
    let load_target = LoadTarget::from_corpus_sharded(&single_store_corpus);
    let kernel_urls: Vec<rws_net::Url> = load_target
        .hosts()
        .iter()
        .take(16)
        .map(|d| rws_net::Url::https(d, "/"))
        .collect();
    assert!(kernel_urls.len() >= 8, "fetcher kernel needs a URL sample");
    let fetcher_unlogged_ns = measure(|| {
        let fetcher = load_target.fetcher();
        let mut total = 0u64;
        for _ in 0..4 {
            for url in &kernel_urls {
                if let Ok(resp) = fetcher.get(url) {
                    total += resp.latency_ms;
                }
            }
        }
        black_box((total, fetcher.requests_issued()));
    });
    let fetcher_logged_ns = measure(|| {
        let fetcher = load_target.fetcher().with_request_log();
        let mut total = 0u64;
        for _ in 0..4 {
            for url in &kernel_urls {
                if let Ok(resp) = fetcher.get(url) {
                    total += resp.latency_ms;
                }
            }
        }
        black_box((total, fetcher.requests_issued()));
    });
    kernels.insert("fetcher_unlogged_64_get".into(), json!(fetcher_unlogged_ns));
    kernels.insert("fetcher_logged_64_get".into(), json!(fetcher_logged_ns));
    speedups.insert(
        "fetcher_unlogged_vs_logged".into(),
        json!(fetcher_logged_ns / fetcher_unlogged_ns),
    );

    // --- load engine: a >=100k-request replay, pooled vs sequential --------
    // Hundreds of thousands of wire requests from ~12k simulated clients
    // against the frozen bench corpus: mixed GET/HEAD, vanity-host
    // redirects, `.well-known` probes, five vendor partitioning verdicts
    // per page response, simulated connections and think time. Pooled and
    // sequential runs produce the identical report (asserted below and
    // property-tested in crates/load); on a single-core host the ratio
    // degenerates to ~1.0 like every pooled kernel in this trajectory.
    const LOAD_SEED: u64 = 0x4C4F_4144; // "LOAD"
    let load_scale = LoadScale::smoke().times(50);
    let load_engine = LoadEngine::new(load_target.clone(), load_scale);
    let load_ctx = EngineContext::new();
    let load_sequential_ctx = load_ctx.sequential_twin();
    let load_report = load_engine.run_on(LOAD_SEED, &load_ctx);
    assert!(
        load_report.wire_requests >= 100_000,
        "load replay must cover at least 100k wire requests (got {})",
        load_report.wire_requests
    );
    let load_replay = load_engine.replay_sequential_with(LOAD_SEED, &SiteResolver::full());
    let load_pooled_ns = measure(|| {
        black_box(load_engine.run_on(LOAD_SEED, &load_ctx));
    });
    let load_sequential_ns = measure(|| {
        black_box(load_engine.run_on(LOAD_SEED, &load_sequential_ctx));
    });
    kernels.insert("load_replay_pooled".into(), json!(load_pooled_ns));
    kernels.insert("load_replay_sequential".into(), json!(load_sequential_ns));
    speedups.insert(
        "load_pooled_vs_sequential".into(),
        json!(load_sequential_ns / load_pooled_ns),
    );
    throughput.insert(
        "load_requests_per_wall_sec".into(),
        json!(load_report.fetch_calls as f64 * 1e9 / load_pooled_ns),
    );
    throughput.insert(
        "load_requests_per_sim_sec".into(),
        json!(load_report.requests_per_sim_sec()),
    );
    let mut load_map = Map::new();
    load_map.insert("seed".into(), json!(LOAD_SEED));
    load_map.insert("clients".into(), json!(load_report.clients));
    load_map.insert("sessions".into(), json!(load_report.sessions));
    load_map.insert("requests".into(), json!(load_report.fetch_calls));
    load_map.insert("wire_requests".into(), json!(load_report.wire_requests));
    load_map.insert(
        "well_known_probes".into(),
        json!(load_report.well_known_probes),
    );
    load_map.insert(
        "redirects_followed".into(),
        json!(load_report.redirects_followed),
    );
    load_map.insert("errors".into(), json!(load_report.error_count()));
    load_map.insert("latency_p50_ms".into(), json!(load_report.latency.p50()));
    load_map.insert("latency_p90_ms".into(), json!(load_report.latency.p90()));
    load_map.insert("latency_p99_ms".into(), json!(load_report.latency.p99()));
    load_map.insert("latency_p999_ms".into(), json!(load_report.latency.p999()));
    load_map.insert("latency_mean_ms".into(), json!(load_report.latency.mean()));
    load_map.insert(
        "sim_duration_ms".into(),
        json!(load_report.sim_duration_ms()),
    );
    load_map.insert(
        "requests_per_sim_sec".into(),
        json!(load_report.requests_per_sim_sec()),
    );
    load_map.insert(
        "pooled_equals_sequential".into(),
        json!(load_report == load_replay),
    );

    // --- fault storm: pooled replay under deterministic bad weather --------
    // The same client model with a quarter of all (host, window) cells
    // faulting — refusals, latency spikes past the deadline, 5xx bursts,
    // truncated bodies, redirect storms — and the standard four-attempt
    // retry ladder with derived-stream jitter. The pooled report must equal
    // the sequential replay oracle field for field *including* every
    // resilience aggregate, and the storm must actually exercise recovery.
    const FAULT_SEED: u64 = 0x4641_554C; // "FAUL"
    let storm_target = load_target
        .clone()
        .with_faults(FaultPlan::new(FAULT_SEED, FaultScale::storm()))
        .with_retry(RetryPolicy::standard());
    let storm_engine = LoadEngine::new(storm_target.clone(), LoadScale::smoke().times(8));
    let storm_report = storm_engine.run_on(LOAD_SEED, &load_ctx);
    assert!(
        storm_report.retries > 0,
        "the bench storm must exercise the retry path"
    );
    assert!(
        storm_report.retry_successes > 0,
        "the bench storm must recover some degraded traffic"
    );
    let storm_replay = storm_engine.replay_sequential_with(LOAD_SEED, &SiteResolver::full());
    let fault_storm_ns = measure(|| {
        black_box(storm_engine.run_on(LOAD_SEED, &load_ctx));
    });
    kernels.insert("fault_storm_replay".into(), json!(fault_storm_ns));

    // retry_recovery: 64 retrying GETs per op through the storm-injected
    // fetcher with a fresh session each op, so every op replays the same
    // fault schedule (ordinals restart at zero) — attempts, backoff and
    // degraded recoveries included in the measured work.
    let storm_fetcher = storm_target.fetcher();
    let retry_recovery_ns = measure(|| {
        let mut session = FetchSession::new(FAULT_SEED, "bench-retry-recovery");
        let mut attempts = 0u64;
        for _ in 0..4 {
            for url in &kernel_urls {
                let outcome = storm_fetcher.get_with(url, &mut session);
                attempts += u64::from(outcome.attempts);
            }
        }
        black_box(attempts);
    });
    kernels.insert("retry_recovery_64_get".into(), json!(retry_recovery_ns));

    // injector_disabled_overhead: the identical 64-GET loop through the
    // session-aware entry point on a fetcher with *no* injector installed.
    // The fault layer costs one Option match per hop when disabled, so this
    // should sit on top of `fetcher_unlogged_64_get` (ratio ~1.0; emitted,
    // not asserted — wall-clock noise on shared hosts).
    let injector_disabled_ns = measure(|| {
        let fetcher = load_target.fetcher();
        let mut session = FetchSession::new(FAULT_SEED, "bench-injector-disabled");
        let mut total = 0u64;
        for _ in 0..4 {
            for url in &kernel_urls {
                if let Ok(resp) = fetcher.get_with(url, &mut session).into_result() {
                    total += resp.latency_ms;
                }
            }
        }
        black_box((total, fetcher.requests_issued()));
    });
    kernels.insert(
        "injector_disabled_overhead_64_get".into(),
        json!(injector_disabled_ns),
    );
    speedups.insert(
        "injector_disabled_vs_unlogged".into(),
        json!(injector_disabled_ns / fetcher_unlogged_ns),
    );

    let mut storm_errors = Map::new();
    for (class, count) in storm_report.errors.iter() {
        storm_errors.insert(class.to_string(), json!(count));
    }
    let mut resilience = Map::new();
    resilience.insert("fault_seed".into(), json!(FAULT_SEED));
    resilience.insert("run_seed".into(), json!(LOAD_SEED));
    resilience.insert("requests".into(), json!(storm_report.fetch_calls));
    resilience.insert("retries".into(), json!(storm_report.retries));
    resilience.insert(
        "retry_successes".into(),
        json!(storm_report.retry_successes),
    );
    resilience.insert("retry_failures".into(), json!(storm_report.retry_failures));
    resilience.insert(
        "retry_success_rate".into(),
        json!(storm_report.retry_success_rate()),
    );
    resilience.insert("availability".into(), json!(storm_report.availability()));
    resilience.insert(
        "backoff_ms_total".into(),
        json!(storm_report.backoff_ms_total),
    );
    resilience.insert(
        "time_to_first_success_p50_ms".into(),
        json!(storm_report.time_to_first_success.p50()),
    );
    resilience.insert(
        "time_to_first_success_p99_ms".into(),
        json!(storm_report.time_to_first_success.p99()),
    );
    resilience.insert("status_5xx".into(), json!(storm_report.status_5xx));
    resilience.insert("errors".into(), Value::Object(storm_errors));
    resilience.insert(
        "pooled_equals_sequential".into(),
        json!(storm_report == storm_replay),
    );

    // --- supervised execution: salvage overhead, checkpointing, resume ----
    // When nothing panics, a salvage sweep is the fail-fast sweep plus one
    // `catch_unwind` per chunk and a per-chunk fetcher family — the ratio
    // should sit at ~1.0 (emitted, and the reports are asserted equal).
    let supervised_engine = LoadEngine::new(load_target.clone(), LoadScale::smoke().times(4));
    let salvage_ctx = EngineContext::new().with_supervision(SupervisionPolicy::salvage());
    let failfast_report = supervised_engine.run_on(LOAD_SEED, &load_ctx);
    let salvage_report = supervised_engine.run_on(LOAD_SEED, &salvage_ctx);
    assert_eq!(
        failfast_report, salvage_report,
        "salvage must be byte-identical to fail-fast when nothing panics"
    );
    let load_failfast_ns = measure(|| {
        black_box(supervised_engine.run_on(LOAD_SEED, &load_ctx));
    });
    let load_salvage_ns = measure(|| {
        black_box(supervised_engine.run_on(LOAD_SEED, &salvage_ctx));
    });
    kernels.insert("load_failfast_replay".into(), json!(load_failfast_ns));
    kernels.insert("load_salvage_replay".into(), json!(load_salvage_ns));
    speedups.insert(
        "load_salvage_vs_failfast_no_panics".into(),
        json!(load_salvage_ns / load_failfast_ns),
    );

    // Checkpointed replay: same fleet in 4-chunk windows with a serialized
    // `LoadCheckpoint` after each window, and a kill/resume from the
    // midpoint — both asserted field-for-field equal to the uninterrupted
    // run before timing anything.
    let checkpoint_sink = MemorySink::new();
    let checkpointed_report =
        supervised_engine.run_checkpointed(LOAD_SEED, &load_ctx, 4, &checkpoint_sink);
    assert_eq!(
        failfast_report, checkpointed_report,
        "checkpointed run must equal the uninterrupted one"
    );
    let midpoint = rws_stats::CheckpointSink::count(&checkpoint_sink) / 2;
    let resumed_report = supervised_engine.run_checkpointed(
        LOAD_SEED,
        &load_ctx,
        4,
        &checkpoint_sink.truncated(midpoint),
    );
    assert_eq!(
        checkpointed_report, resumed_report,
        "resumed run must equal the uninterrupted one"
    );
    let load_checkpointed_ns = measure(|| {
        let sink = MemorySink::new();
        black_box(supervised_engine.run_checkpointed(LOAD_SEED, &load_ctx, 4, &sink));
    });
    kernels.insert(
        "load_checkpointed_replay".into(),
        json!(load_checkpointed_ns),
    );
    speedups.insert(
        "load_checkpointed_vs_failfast".into(),
        json!(load_checkpointed_ns / load_failfast_ns),
    );

    // checkpoint_write: serialising one merged LoadReport into a memory
    // sink — the marginal cost a run pays per checkpoint boundary.
    let checkpoint_state = rws_load::LoadCheckpoint {
        seed: LOAD_SEED,
        next_chunk: 4,
        partial: failfast_report.clone(),
    };
    let write_sink = MemorySink::new();
    let checkpoint_write_ns = measure(|| {
        use serde::Serialize;
        rws_stats::CheckpointSink::store(&write_sink, black_box(&checkpoint_state).serialize());
    });
    kernels.insert("checkpoint_write".into(), json!(checkpoint_write_ns));

    // History replay with checkpoints: the governance generator in
    // 8-submitter windows, asserted equal to the plain replay.
    let history_generator = HistoryGenerator::new(HistoryConfig::default());
    let bench_corpus = &bench_scenario().corpus;
    let plain_history = history_generator.generate_with(bench_corpus, &load_ctx);
    let history_sink = MemorySink::new();
    let checkpointed_history =
        history_generator.generate_checkpointed(bench_corpus, &load_ctx, 8, &history_sink);
    assert_eq!(
        plain_history, checkpointed_history,
        "checkpointed history must equal the uninterrupted one"
    );
    let history_checkpointed_ns = measure(|| {
        let sink = MemorySink::new();
        black_box(history_generator.generate_checkpointed(bench_corpus, &load_ctx, 8, &sink));
    });
    kernels.insert(
        "history_checkpointed_replay".into(),
        json!(history_checkpointed_ns),
    );

    let mut supervision = Map::new();
    supervision.insert(
        "salvage_equals_failfast_no_panics".into(),
        json!(failfast_report == salvage_report),
    );
    supervision.insert(
        "resumed_equals_uninterrupted".into(),
        json!(checkpointed_report == resumed_report),
    );
    supervision.insert(
        "checkpoints_written".into(),
        json!(rws_stats::CheckpointSink::count(&checkpoint_sink) as u64),
    );
    supervision.insert(
        "salvage_overhead_ratio".into(),
        json!(load_salvage_ns / load_failfast_ns),
    );

    // --- sharded corpus generation: pooled fan-out vs serial baseline ------
    // A CorpusScale-scaled corpus (2× smoke) rendered into the default
    // shard count with one pool task per shard, against the single-shard
    // sequential baseline — the pre-PR-10 generation path. Equivalence is
    // asserted byte-for-byte before anything is timed; on a single-core
    // host the ratio degenerates to ~1.0 like every pooled kernel here.
    let gen_config = CorpusScale::smoke().times(2).config(0x5348_5244); // "SHRD"
    let gen_ctx = EngineContext::embedded();
    let gen_sequential_ctx = gen_ctx.sequential_twin();
    let sharded_generator = CorpusGenerator::new(gen_config);
    let serial_generator = CorpusGenerator::new(gen_config).with_shards(1);
    let sharded_corpus = sharded_generator.generate_with(&gen_ctx);
    let serial_corpus = serial_generator.generate_with(&gen_sequential_ctx);
    let same_pages = |a: &Corpus, b: &Corpus| {
        a.sharded.hosts() == b.sharded.hosts()
            && a.sites.keys().all(|domain| {
                ["/", "/about", rws_net::WELL_KNOWN_RWS_PATH]
                    .iter()
                    .all(|path| {
                        let url = rws_net::Url::https(domain, path);
                        a.sharded.serve(&url) == b.sharded.serve(&url)
                    })
            })
    };
    let sharded_equals_unsharded = sharded_corpus.sites == serial_corpus.sites
        && sharded_corpus.list == serial_corpus.list
        && sharded_corpus.tranco == serial_corpus.tranco
        && same_pages(&sharded_corpus, &serial_corpus);
    assert!(
        sharded_equals_unsharded,
        "sharded generation must be byte-identical to the serial baseline"
    );
    let corpus_sharded_ns = measure(|| {
        black_box(sharded_generator.generate_with(&gen_ctx));
    });
    let corpus_serial_ns = measure(|| {
        black_box(serial_generator.generate_with(&gen_sequential_ctx));
    });
    kernels.insert(
        "corpus_generate_sharded_pooled".into(),
        json!(corpus_sharded_ns),
    );
    kernels.insert(
        "corpus_generate_serial_baseline".into(),
        json!(corpus_serial_ns),
    );
    speedups.insert(
        "corpus_sharded_vs_serial".into(),
        json!(corpus_serial_ns / corpus_sharded_ns),
    );
    throughput.insert(
        "corpus_generate_sites_per_sec".into(),
        json!(sharded_corpus.sites.len() as f64 * 1e9 / corpus_sharded_ns),
    );

    // Cross-shard reads: the same >=100k-request load replay on the bench
    // corpus's own store (the default 8 shards) instead of the one-shard
    // store above. Reports are asserted identical; the ratio prices the
    // shard count (~1.0).
    let sharded_load_engine = LoadEngine::new(
        LoadTarget::from_corpus_sharded(&scenario.corpus),
        load_scale,
    );
    let sharded_load_report = sharded_load_engine.run_on(LOAD_SEED, &load_ctx);
    assert_eq!(
        load_report, sharded_load_report,
        "8-shard load replay must equal the 1-shard replay"
    );
    let load_sharded_store_ns = measure(|| {
        black_box(sharded_load_engine.run_on(LOAD_SEED, &load_ctx));
    });
    kernels.insert("load_replay_single_store".into(), json!(load_pooled_ns));
    kernels.insert(
        "load_replay_sharded_store".into(),
        json!(load_sharded_store_ns),
    );
    speedups.insert(
        "load_sharded_vs_single_store".into(),
        json!(load_pooled_ns / load_sharded_store_ns),
    );

    // Per-shard memory accounting for the scaled corpus: host/page/body
    // bytes per shard, plus a flatness ratio (max/mean body bytes — ~1.0
    // means the FNV route spreads the corpus evenly, i.e. per-shard memory
    // stays flat as the corpus scales).
    let shard_stats = sharded_corpus.sharded.shard_stats();
    let body_bytes: Vec<u64> = shard_stats.iter().map(|s| s.body_bytes as u64).collect();
    let body_max = body_bytes.iter().copied().max().unwrap_or(0);
    let body_mean = body_bytes.iter().sum::<u64>() as f64 / body_bytes.len().max(1) as f64;
    let mut corpus_map = Map::new();
    corpus_map.insert(
        "shard_count".into(),
        json!(sharded_corpus.sharded.shard_count() as u64),
    );
    corpus_map.insert(
        "organisations".into(),
        json!(gen_config.organisations as u64),
    );
    corpus_map.insert("sites".into(), json!(sharded_corpus.sites.len() as u64));
    corpus_map.insert(
        "per_shard_hosts".into(),
        json!(shard_stats
            .iter()
            .map(|s| s.hosts as u64)
            .collect::<Vec<_>>()),
    );
    corpus_map.insert(
        "per_shard_pages".into(),
        json!(shard_stats
            .iter()
            .map(|s| s.pages as u64)
            .collect::<Vec<_>>()),
    );
    corpus_map.insert("per_shard_body_bytes".into(), json!(body_bytes));
    corpus_map.insert("body_bytes_max".into(), json!(body_max));
    corpus_map.insert("body_bytes_mean".into(), json!(body_mean));
    corpus_map.insert(
        "body_bytes_flatness".into(),
        json!(body_max as f64 / body_mean.max(1.0)),
    );
    corpus_map.insert(
        "sharded_equals_unsharded".into(),
        json!(sharded_equals_unsharded),
    );
    corpus_map.insert(
        "load_replay_sharded_equals_single".into(),
        json!(load_report == sharded_load_report),
    );

    let mut resolver_cache = Map::new();
    resolver_cache.insert("hits".into(), json!(resolver_stats.hits));
    resolver_cache.insert("misses".into(), json!(resolver_stats.misses));
    let mut engine = Map::new();
    engine.insert(
        "pool_workers".into(),
        json!(rws_stats::ThreadPool::global().worker_count() as u64),
    );
    engine.insert(
        "available_parallelism".into(),
        json!(std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1) as u64),
    );
    engine.insert(
        "full_psl_rules".into(),
        json!(PublicSuffixList::full().rule_count() as u64),
    );
    let report = json!({
        "schema": "rws-bench-trajectory/1",
        "bench_index": index as u64,
        "unit": "ns_per_op",
        "kernels": Value::Object(kernels),
        "speedups": Value::Object(speedups),
        "throughput": Value::Object(throughput),
        "resolver_cache": Value::Object(resolver_cache),
        "engine": Value::Object(engine),
        "load": Value::Object(load_map),
        "corpus": Value::Object(corpus_map),
        "resilience": Value::Object(resilience),
        "supervision": Value::Object(supervision),
    });
    let path = format!("BENCH_{index}.json");
    let text = serde_json::to_string_pretty(&report).expect("serialisable");
    std::fs::write(&path, &text).expect("write bench report");
    println!("{text}");
    println!("\nwrote {path}");
}
