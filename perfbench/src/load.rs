//! `load-calm` and `load-storm`: a closed loop of full fleet replays.
//!
//! Each operation is `LoadEngine::run_on` over 12k clients
//! (`LoadScale::smoke().times(50)`) against the sharded paper-scale corpus,
//! on one context whose resolver stays warm across replays. Calm weather
//! has no faults and no retries; the storm adds `FaultScale::storm()` and
//! `RetryPolicy::standard()`. Every report must equal the
//! `replay_sequential` oracle for the same seed, computed once before
//! timing starts.
//!
//! The traced run alternates an untraced replay (the overhead baseline and
//! the resolver counts) with a traced pooled replay, a sequential replay
//! (the single-thread denominator of the time shares), and per-call
//! kernels of the layers a replay calls: the fetcher, the sharded store,
//! the resolver and the vendor verdicts.

use crate::metrics::{RunResult, ERROR_CLASSES};
use crate::repro::{scenario_config, Engine};
use crate::stats::median_of;
use crate::trace::Trace;
use crate::{derive_seed, peak_rss_mb, Samples, SetupTimer};
use rws_paper::browser::{AccessRequest, StorageAccessPolicy, VendorPolicy};
use rws_paper::corpus::CorpusGenerator;
use rws_paper::domain::{DomainName, SiteResolver};
use rws_paper::engine::{EngineBackend, EngineContext};
use rws_paper::load::{
    FaultPlan, FaultScale, FetchSession, LoadEngine, LoadReport, LoadScale, LoadTarget, RetryPolicy,
};
use rws_paper::net::{well_known_path, Url};
use rws_paper::stats::{Rng, Xoshiro256StarStar};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Fleet multiplier over `LoadScale::smoke()` (240 clients).
const FLEET_TIMES: usize = 50;
/// URL draws in the per-call kernels' traffic mix.
const KERNEL_DRAWS: usize = 8192;
/// Access requests in the verdict kernel (each judged by all five vendors).
const KERNEL_REQUESTS: usize = 4096;

/// The replay's traffic proportions (see `rws_load::client`): vanity
/// entries, `/about` visits, HEADs, and one `.well-known` probe per 0.3
/// visits.
const P_VANITY: f64 = 0.08;
const P_ABOUT: f64 = 0.25;
const P_HEAD: f64 = 0.12;
const P_PROBE: f64 = 0.30 / 1.30;

/// The fault weather of a load workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weather {
    Calm,
    Storm,
}

/// Everything a replay needs, built in set-up.
struct Fixture {
    ctx: EngineContext,
    engine: LoadEngine,
    corpus_ms: f64,
    sites: usize,
    body_bytes: usize,
}

impl Fixture {
    /// Parse the suffix list, start the pool, generate the paper-scale
    /// corpus and build the sharded target.
    fn set_up(weather: Weather, seed: u64) -> Fixture {
        let ctx = Engine::set_up().fresh_context();
        let start = Instant::now();
        let corpus = CorpusGenerator::new(scenario_config(seed).corpus).generate_with(&ctx);
        let corpus_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut target = LoadTarget::from_corpus_sharded(&corpus);
        if weather == Weather::Storm {
            target = target
                .with_faults(FaultPlan::new(
                    derive_seed(seed, "faults"),
                    FaultScale::storm(),
                ))
                .with_retry(RetryPolicy::standard());
        }
        Fixture {
            engine: LoadEngine::new(target, LoadScale::smoke().times(FLEET_TIMES)),
            corpus_ms,
            sites: corpus.sites.len(),
            body_bytes: corpus
                .sharded
                .shard_stats()
                .iter()
                .map(|s| s.body_bytes)
                .sum(),
            ctx,
        }
    }
}

pub fn run(
    weather: Weather,
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Result<RunResult, String> {
    let mut setup = SetupTimer::new(SETUP_REPS);
    let fixture = setup.time(|| Fixture::set_up(weather, seed));
    let mut corpus_ms = vec![fixture.corpus_ms];
    let Fixture { ctx, engine, .. } = &fixture;
    let run_seed = derive_seed(seed, "load-run");
    // The oracle also warms the resolver with every host the fleet visits.
    let oracle = engine.replay_sequential_with(run_seed, ctx.resolver());

    let mut run = RunResult::default();
    let mut samples = Samples::default();
    let mut trace = Trace::new();
    let mut resolver_deltas: Vec<(u64, u64)> = Vec::new();
    let kernels = traced.then(|| Kernels::new(engine.target(), ctx.resolver(), weather, seed));
    let sequential = ctx.sequential_twin();
    let start = Instant::now();
    while start.elapsed() < budget || samples.is_empty() {
        if setup.due(start.elapsed(), budget) {
            corpus_ms.push(setup.time(|| Fixture::set_up(weather, seed)).corpus_ms);
        }
        let before = ctx.resolver().stats();
        let clock = Instant::now();
        let report = engine.run_on(run_seed, ctx);
        let elapsed = clock.elapsed();
        let after = ctx.resolver().stats();
        resolver_deltas.push((after.hits - before.hits, after.misses - before.misses));
        run.attempted += 1;
        run.failed += u64::from(report != oracle);
        samples.push(elapsed, report.fetch_calls);
        drop(report);
        if let Some(kernels) = &kernels {
            trace.next_op();
            let report = trace.time("load.replay", || engine.run_on(run_seed, ctx));
            let seq_report = trace.time("load.replay_seq", || engine.run_on(run_seed, &sequential));
            run.attempted += 2;
            run.failed += u64::from(report != oracle) + u64::from(seq_report != oracle);
            kernels.run(engine.target(), ctx.resolver(), &mut trace);
        }
    }

    run.env("weather", format!("{weather:?}").to_lowercase());
    run.env("fleet_clients", oracle.clients);
    run.env("fetch_calls", oracle.fetch_calls);
    run.env("corpus_sites", fixture.sites);
    run.env("corpus_body_bytes", fixture.body_bytes);
    if traced {
        let corpus_ms = median_of(corpus_ms).unwrap_or(0.0);
        run.set("corpus.generate_ms", corpus_ms);
        run.set("corpus.sites", fixture.sites as f64);
        run.set("corpus.body_bytes", fixture.body_bytes as f64);
        run.set(
            "corpus.sites_per_s",
            fixture.sites as f64 / (corpus_ms / 1e3),
        );
        let kernels = kernels.expect("traced runs build the kernels");
        report_layers(
            &oracle,
            &resolver_deltas,
            &trace,
            &kernels,
            &samples,
            ctx,
            &mut run,
        );
        eprint!("{}", trace.summary());
    } else {
        samples.report(&mut run);
        let failed_share = oracle.error_count() as f64 / oracle.fetch_calls.max(1) as f64;
        run.env("failed_share", failed_share);
        run.set("ok_share", 1.0 - failed_share);
        run.set("setup_s", setup.median_s());
        run.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(run)
}

/// The per-call kernels over a traffic mix drawn with the workload seed.
struct Kernels {
    weather: Weather,
    seed: u64,
    gets: Vec<Url>,
    heads: Vec<Url>,
    hosts: Vec<DomainName>,
    requests: Vec<AccessRequest>,
}

impl Kernels {
    fn new(target: &LoadTarget, resolver: &SiteResolver, weather: Weather, seed: u64) -> Kernels {
        let seed = derive_seed(seed, "kernel-mix");
        let mut rng = Xoshiro256StarStar::new(seed);
        let universe = target.hosts();
        let skewed = |rng: &mut Xoshiro256StarStar| {
            let u = rng.next_f64();
            universe[((u * u * universe.len() as f64) as usize).min(universe.len() - 1)].clone()
        };
        let (mut gets, mut heads, mut hosts) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..KERNEL_DRAWS {
            let host = if !target.vanity().is_empty() && rng.chance(P_VANITY) {
                target.vanity()[rng.range_usize(0, target.vanity().len())].clone()
            } else {
                skewed(&mut rng)
            };
            if rng.chance(P_PROBE) {
                gets.push(well_known_path(&resolver.site_or_self(&host)));
            } else {
                let path = if rng.chance(P_ABOUT) { "/about" } else { "/" };
                let url = Url::https(&host, path);
                if rng.chance(P_HEAD) {
                    heads.push(url);
                } else {
                    gets.push(url);
                }
            }
            hosts.push(host);
        }
        let requests = (0..KERNEL_REQUESTS)
            .map(|_| AccessRequest {
                top_level_site: resolver.site_or_self(&skewed(&mut rng)),
                embedded_site: resolver.site_or_self(&universe[rng.range_usize(0, universe.len())]),
                has_prior_interaction: rng.chance(0.5),
            })
            .collect();
        Kernels {
            weather,
            seed,
            gets,
            heads,
            hosts,
            requests,
        }
    }

    fn run(&self, target: &LoadTarget, resolver: &SiteResolver, trace: &mut Trace) {
        let fetcher = target.fetcher();
        let kernels = trace.enter("kernels");
        match self.weather {
            Weather::Calm => {
                trace.time("net.get", || {
                    for url in &self.gets {
                        let _ = black_box(fetcher.get(url));
                    }
                });
                trace.time("net.head", || {
                    for url in &self.heads {
                        let _ = black_box(fetcher.head(url));
                    }
                });
            }
            Weather::Storm => {
                let mut session = FetchSession::new(self.seed, "perfbench-kernels");
                trace.time("net.get", || {
                    for url in &self.gets {
                        black_box(fetcher.get_with(url, &mut session));
                    }
                });
                trace.time("net.head", || {
                    for url in &self.heads {
                        black_box(fetcher.head_with(url, &mut session));
                    }
                });
            }
        }
        let store = target.sharded().expect("load targets are built sharded");
        trace.time("net.serve", || {
            for url in self.gets.iter().chain(&self.heads) {
                black_box(store.serve(url));
            }
        });
        trace.time("domain.resolve", || {
            for host in &self.hosts {
                let _ = black_box(resolver.registrable_domain(host));
            }
        });
        trace.time("browser.verdict", || {
            for request in &self.requests {
                for vendor in VendorPolicy::ALL {
                    black_box(vendor.verdict(request, target.list()));
                }
            }
        });
        trace.exit(kernels);
    }

    /// Nanoseconds per call of each kernel: `(get, head, serve, resolve,
    /// verdict)`.
    fn per_call_ns(&self, trace: &Trace) -> [f64; 5] {
        let per = |name: &str, calls: usize| {
            trace.median_ms(name).unwrap_or(0.0) * 1e6 / calls.max(1) as f64
        };
        [
            per("net.get", self.gets.len()),
            per("net.head", self.heads.len()),
            per("net.serve", self.gets.len() + self.heads.len()),
            per("domain.resolve", self.hosts.len()),
            per(
                "browser.verdict",
                self.requests.len() * VendorPolicy::ALL.len(),
            ),
        ]
    }
}

fn report_layers(
    report: &LoadReport,
    resolver_deltas: &[(u64, u64)],
    trace: &Trace,
    kernels: &Kernels,
    baseline: &Samples,
    ctx: &EngineContext,
    run: &mut RunResult,
) {
    let med = |v: Vec<f64>| median_of(v).unwrap_or(0.0);
    let hits = med(resolver_deltas.iter().map(|d| d.0 as f64).collect());
    let misses = med(resolver_deltas.iter().map(|d| d.1 as f64).collect());
    run.set("domain.resolver_hits", hits);
    run.set("domain.resolver_misses", misses);
    run.set("domain.resolver_hit_rate", hits / (hits + misses).max(1.0));
    run.set(
        "engine.pool_workers",
        ctx.pool().map_or(0, |p| p.worker_count()) as f64,
    );
    run.set("engine.tasks_run", report.supervision.tasks_run as f64);

    let replay_ms = trace.median_ms("load.replay").unwrap_or(0.0);
    let replay_seq_ms = trace.median_ms("load.replay_seq").unwrap_or(0.0);
    run.set("load.replay_ms", replay_ms);
    run.set("load.replay_seq_ms", replay_seq_ms);
    run.set("load.fetch_calls", report.fetch_calls as f64);
    run.set("load.wire_requests", report.wire_requests as f64);
    run.set("load.redirects_followed", report.redirects_followed as f64);
    run.set("load.well_known_probes", report.well_known_probes as f64);
    run.set("load.decisions", report.decisions as f64);
    let connections = report.connections_reused + report.connections_opened;
    run.set(
        "load.connection_reuse_ratio",
        report.connections_reused as f64 / connections.max(1) as f64,
    );
    run.set("load.retries", report.retries as f64);
    run.set("load.retry_success_rate", report.retry_success_rate());
    for class in ERROR_CLASSES {
        run.set(
            format!("load.errors.{class}"),
            report.errors.get(class) as f64,
        );
    }

    // Kernel cost × the replay's call count, over the single-threaded
    // replay: an estimate of where a replay's time goes. What the kernels
    // do not cover (event loop, rng, tallies, connection bookkeeping) is
    // the rest.
    let [get_ns, head_ns, serve_ns, resolve_ns, verdict_ns] = kernels.per_call_ns(trace);
    run.set("net.get_ns", get_ns);
    run.set("net.head_ns", head_ns);
    run.set("net.serve_ns", serve_ns);
    run.set("domain.resolve_ns", resolve_ns);
    run.set("browser.verdict_ns", verdict_ns);
    let replay_ns = replay_seq_ms * 1e6;
    let fetch_share = (get_ns * report.gets as f64 + head_ns * report.heads as f64) / replay_ns;
    let verdict_share =
        verdict_ns * (report.decisions as usize * VendorPolicy::ALL.len()) as f64 / replay_ns;
    let resolve_share = resolve_ns * (hits + misses) / replay_ns;
    run.set("net.fetch_share", fetch_share);
    run.set("browser.verdict_share", verdict_share);
    run.set("domain.resolve_share", resolve_share);
    run.set(
        "load.other_share",
        1.0 - fetch_share - verdict_share - resolve_share,
    );

    let untraced = baseline.median_ms();
    run.set(
        "trace.overhead_pct",
        (replay_ms - untraced) / untraced * 100.0,
    );
}
