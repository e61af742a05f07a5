//! `paper-repro`: a closed loop of full paper reproductions at paper scale.
//!
//! Each operation is `PaperReproduction::render_all()` on a fresh
//! `EngineContext` whose site-resolver memo is new and empty; the context
//! is built outside the timed region. Every rendered document must hash
//! (workspace FNV-1a) to the digest of one sequential reproduction of the
//! same configuration, computed once before timing starts.
//!
//! The traced run alternates an untraced reproduction (the overhead
//! baseline, and the source of the resolver and task counts) with a
//! traced one that calls the pipeline stages serially in pipeline order,
//! then the experiments one by one, then the classify attribution kernels
//! on the exact pages `classify_corpus_on` reads.

use crate::metrics::RunResult;
use crate::stats::median_of;
use crate::trace::Trace;
use crate::{derive_seed, peak_rss_mb, Samples, SetupTimer};
use rws_paper::analysis::{PaperReproduction, ScenarioConfig};
use rws_paper::classify::{CategoryDatabase, KeywordAutomaton, KeywordClassifier};
use rws_paper::corpus::{Corpus, CorpusGenerator};
use rws_paper::domain::psl::FULL_PSL_SNAPSHOT;
use rws_paper::domain::{DomainName, PublicSuffixList, SiteResolver};
use rws_paper::engine::{EngineBackend, EngineContext, ThreadPool};
use rws_paper::github::HistoryGenerator;
use rws_paper::html::{class_set, text_content, title, StreamToken, Tokens};
use rws_paper::stats::{fnv1a_of, Xoshiro256StarStar};
use rws_paper::survey::{PairGenerator, SurveyRunner};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The paper-scale scenario with every seed derived from the workload seed.
pub fn scenario_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::default();
    config.corpus.seed = derive_seed(seed, "corpus");
    config.survey.seed = derive_seed(seed, "survey");
    config.history.seed = derive_seed(seed, "history");
    config
}

/// What one set-up leaves behind: the parsed suffix list and the pool.
pub struct Engine {
    pub psl: PublicSuffixList,
    pub pool: ThreadPool,
}

impl Engine {
    /// Parse the suffix list and start (or join) the pinned pool.
    pub fn set_up() -> Engine {
        Engine {
            psl: PublicSuffixList::parse(FULL_PSL_SNAPSHOT),
            pool: ThreadPool::global().clone(),
        }
    }

    /// A context on the pool with a new, empty resolver memo.
    pub fn fresh_context(&self) -> EngineContext {
        EngineContext::with_parts(self.pool.clone(), SiteResolver::new(self.psl.clone()))
    }
}

fn digest(text: &str) -> u64 {
    fnv1a_of(text)
}

/// One untraced reproduction, measured after the clock stopped.
struct Reproduced {
    elapsed: Duration,
    digest: u64,
    sites: usize,
    body_bytes: usize,
    /// The reproduction's context, for its resolver and task counts.
    ctx: EngineContext,
}

/// One reproduction on a fresh context built before the clock starts.
/// The reproduction is dropped after the clock stops.
fn reproduce(engine: &Engine, config: ScenarioConfig) -> Reproduced {
    let ctx = engine.fresh_context();
    let repro = PaperReproduction::with_engine(config, ctx.clone());
    let start = Instant::now();
    let text = repro.render_all();
    let elapsed = start.elapsed();
    let corpus = &repro.scenario().corpus;
    Reproduced {
        elapsed,
        digest: digest(&text),
        sites: corpus.sites.len(),
        body_bytes: body_bytes(corpus),
        ctx,
    }
}

fn body_bytes(corpus: &Corpus) -> usize {
    corpus
        .sharded
        .shard_stats()
        .iter()
        .map(|s| s.body_bytes)
        .sum()
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Result<RunResult, String> {
    let config = scenario_config(seed);
    let mut setup = SetupTimer::new(SETUP_REPS);
    let engine = setup.time(Engine::set_up);
    let reference =
        digest(&PaperReproduction::with_engine(config, EngineContext::sequential()).render_all());

    let mut run = RunResult::default();
    let mut samples = Samples::default();
    let mut trace = Trace::new();
    let mut layers = Layers::default();
    let start = Instant::now();
    while start.elapsed() < budget || samples.is_empty() {
        if setup.due(start.elapsed(), budget) {
            drop(setup.time(Engine::set_up));
        }
        let op = reproduce(&engine, config);
        run.attempted += 1;
        run.failed += u64::from(op.digest != reference);
        samples.push(op.elapsed, op.sites as u64);
        (layers.sites, layers.body_bytes) = (op.sites, op.body_bytes);
        if traced {
            let stats = op.ctx.resolver().stats();
            layers.resolver.push((stats.hits, stats.misses));
            layers
                .tasks_run
                .push(op.ctx.supervision_report().tasks_run as f64);
            drop(op);
            trace.next_op();
            let got = traced_reproduction(&engine, config, &mut trace, &mut layers);
            run.attempted += 1;
            run.failed += u64::from(got != reference);
        }
    }

    run.env("corpus_sites", layers.sites);
    run.env("corpus_body_bytes", layers.body_bytes);
    if traced {
        layers.report(&trace, &samples, engine.pool.worker_count(), &mut run);
        eprint!("{}", trace.summary());
    } else {
        samples.report(&mut run);
        let failed_share = run.failed as f64 / run.attempted as f64;
        run.env("failed_share", failed_share);
        run.set("ok_share", 1.0 - failed_share);
        run.set("setup_s", setup.median_s());
        run.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(run)
}

/// Per-layer counts gathered across traced operations.
#[derive(Default)]
struct Layers {
    /// `(hits, misses)` of the resolver over each untraced reproduction.
    resolver: Vec<(u64, u64)>,
    tasks_run: Vec<f64>,
    sites: usize,
    body_bytes: usize,
    pages: usize,
    page_bytes: usize,
    tokens: usize,
    prs: usize,
    pairs_total: usize,
    responses: usize,
}

/// One traced reproduction on a fresh context: the stages serially, the
/// pooled scenario and experiments through `PaperReproduction`, then the
/// classify attribution. Returns the digest of the rendered document.
fn traced_reproduction(
    engine: &Engine,
    config: ScenarioConfig,
    trace: &mut Trace,
    layers: &mut Layers,
) -> u64 {
    let ctx = engine.fresh_context();
    let op = trace.enter("repro");

    let stages = trace.enter("stages");
    let corpus = trace.time("corpus.generate", || {
        CorpusGenerator::new(config.corpus).generate_with(&ctx)
    });
    let history = trace.time("github.history", || {
        HistoryGenerator::new(config.history).generate_with(&corpus, &ctx)
    });
    let categories = trace.time("classify.corpus", || {
        CategoryDatabase::classify_corpus_on(&corpus, &ctx)
    });
    let pairs = trace.time("survey.pairs", || {
        let mut rng = Xoshiro256StarStar::new(config.survey.seed).derive("pair-universe");
        let mut generator = PairGenerator::new(&corpus, &categories);
        generator.top_site_sample = config.top_site_sample;
        generator.generate_on(&mut rng, &ctx)
    });
    let survey = trace.time("survey.run", || {
        SurveyRunner::new(config.survey).run_on(&corpus, &pairs, &ctx)
    });
    trace.exit(stages);

    let repro = PaperReproduction::with_engine(config, ctx.clone());
    trace.time("analysis.scenario", || {
        black_box(repro.scenario()).corpus.sites.len()
    });
    trace.time("analysis.run_all", || black_box(repro.run_all()).len());
    let reports: Vec<_> = repro
        .experiment_ids()
        .into_iter()
        .filter_map(|id| trace.time(format!("analysis.{id}"), || repro.run(id)))
        .collect();
    let text = trace.time("analysis.render", || {
        reports
            .iter()
            .map(|r| r.to_text())
            .collect::<Vec<_>>()
            .join("\n")
    });
    trace.exit(op);

    layers.prs = history.len();
    layers.pairs_total = pairs.total();
    layers.responses = survey.responses.len();
    classify_attribution(&corpus, trace, layers);
    digest(&text)
}

/// Time each piece of classification separately, single-threaded, over
/// the live front pages `classify_corpus_on` reads: the token stream, the
/// three extractors, the keyword automaton over the text tokens, and the
/// full classifier.
fn classify_attribution(corpus: &Corpus, trace: &mut Trace, layers: &mut Layers) {
    let pages: Vec<(&DomainName, &str)> = corpus
        .sites
        .values()
        .filter(|spec| spec.live)
        .filter_map(|spec| {
            corpus
                .page_html(&spec.domain)
                .map(|html| (&spec.domain, html))
        })
        .collect();
    let attribution = trace.enter("attribution");
    layers.tokens = trace.time("html.tokenize", || {
        pages
            .iter()
            .map(|(_, html)| {
                Tokens::new(html).fold(0, |n, token| {
                    black_box(token);
                    n + 1
                })
            })
            .sum()
    });
    trace.time("html.text_content", || {
        for (_, html) in &pages {
            black_box(text_content(html));
        }
    });
    trace.time("html.title", || {
        for (_, html) in &pages {
            black_box(title(html));
        }
    });
    trace.time("html.class_set", || {
        for (_, html) in &pages {
            black_box(class_set(html));
        }
    });
    let texts: Vec<Vec<String>> = pages
        .iter()
        .map(|(_, html)| {
            Tokens::new(html)
                .filter_map(|t| match t {
                    StreamToken::Text(text) => Some(text.into_owned()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    trace.time("classify.feed_text", || {
        for segments in &texts {
            let mut matcher = KeywordAutomaton::global().matcher();
            for segment in segments {
                matcher.feed_text(segment);
            }
            black_box(matcher.finish(2));
        }
    });
    let classifier = KeywordClassifier::new();
    trace.time("classify.classify", || {
        for (domain, html) in &pages {
            black_box(classifier.classify(domain, html));
        }
    });
    trace.exit(attribution);
    layers.pages = pages.len();
    layers.page_bytes = pages.iter().map(|(_, html)| html.len()).sum();
}

impl Layers {
    fn report(&self, trace: &Trace, baseline: &Samples, workers: usize, run: &mut RunResult) {
        let ms = |name: &str| trace.median_ms(name).unwrap_or(0.0);
        run.set("corpus.generate_ms", ms("corpus.generate"));
        run.set("corpus.sites", self.sites as f64);
        run.set("corpus.body_bytes", self.body_bytes as f64);
        run.set(
            "corpus.sites_per_s",
            self.sites as f64 / (ms("corpus.generate") / 1e3),
        );
        run.set("html.tokenize_ms", ms("html.tokenize"));
        run.set("html.tokens", self.tokens as f64);
        run.set(
            "html.mb_per_s",
            self.page_bytes as f64 / 1e6 / (ms("html.tokenize") / 1e3),
        );
        run.set("html.text_content_ms", ms("html.text_content"));
        run.set("html.title_ms", ms("html.title"));
        run.set("html.class_set_ms", ms("html.class_set"));
        run.set("classify.feed_text_ms", ms("classify.feed_text"));
        run.set("classify.classify_ms", ms("classify.classify"));
        run.set("classify.corpus_ms", ms("classify.corpus"));
        run.set(
            "classify.us_per_site",
            ms("classify.classify") * 1e3 / self.pages.max(1) as f64,
        );
        run.set("github.history_ms", ms("github.history"));
        run.set("github.prs", self.prs as f64);
        run.set("survey.pairs_ms", ms("survey.pairs"));
        run.set("survey.pairs_total", self.pairs_total as f64);
        run.set("survey.run_ms", ms("survey.run"));
        run.set("survey.responses", self.responses as f64);
        run.set("analysis.scenario_ms", ms("analysis.scenario"));
        run.set("analysis.run_all_ms", ms("analysis.run_all"));
        for id in [
            "table1", "table2", "table3", "figure1", "figure2", "figure3", "figure4", "figure5",
            "figure6", "figure7", "figure8", "figure9",
        ] {
            run.set(format!("analysis.{id}_ms"), ms(&format!("analysis.{id}")));
        }
        run.set("analysis.render_ms", ms("analysis.render"));

        let med = |v: Vec<f64>| median_of(v).unwrap_or(0.0);
        run.set(
            "domain.resolver_hits",
            med(self.resolver.iter().map(|r| r.0 as f64).collect()),
        );
        run.set(
            "domain.resolver_misses",
            med(self.resolver.iter().map(|r| r.1 as f64).collect()),
        );
        run.set(
            "domain.resolver_hit_rate",
            med(self
                .resolver
                .iter()
                .map(|&(h, m)| h as f64 / (h + m).max(1) as f64)
                .collect()),
        );
        run.set("engine.pool_workers", workers as f64);
        run.set("engine.tasks_run", med(self.tasks_run.clone()));

        // The traced figure of a reproduction is its serial stages plus
        // the pooled experiments and the render; against the untraced
        // reproduction it shows span cost plus the history ∥ survey
        // overlap the serial stages give up.
        let traced = med(trace.per_op_ms(&["stages", "analysis.run_all", "analysis.render"]));
        let untraced = baseline.median_ms();
        run.set("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
        run.env("classified_pages", self.pages);
    }
}
