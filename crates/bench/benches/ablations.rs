//! Ablation benches for the design questions the paper's discussion raises.
//!
//! * `ablation_policies` — cross-site linkability achieved by a tracker
//!   under every vendor policy (pre-phase-out Chrome vs partitioning
//!   browsers vs Chrome with RWS), on the same browsing trace.
//! * `ablation_linkability_rws_size` — how linkability under Chrome+RWS
//!   grows with the size of the set the tracker belongs to.
//! * `ablation_sld_classifier` — precision/recall of the "SLD similarity as
//!   a relatedness signal" heuristic the paper argues against (Figure 3's
//!   takeaway), swept over the edit-distance threshold.
//! * `ablation_validation_checks` — the cost of each individual validation
//!   check (eTLD+1, rationale, well-known fetch, robots header).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rws_bench::bench_scenario;
use rws_browser::{linkability_by_vendor, linkability_report, PromptBehaviour, VendorPolicy};
use rws_domain::{DomainName, PublicSuffixList, SiteResolver, SldComparison};
use rws_engine::EngineContext;
use rws_model::{MemberRole, SetValidator, ValidatorConfig};
use std::sync::Once;

/// The per-vendor linkability comparison, printed once per run.
fn print_policy_ablation() {
    static PRINTED: Once = Once::new();
    PRINTED.call_once(|| {
        let scenario = bench_scenario();
        let list = &scenario.corpus.list;
        // Pick the largest set and use one of its associated sites as the
        // "tracker"; the trace covers its set plus unrelated top sites.
        let set = list
            .sets()
            .max_by_key(|s| s.associated_count())
            .expect("corpus has sets");
        let tracker = set
            .associated_sites()
            .next()
            .cloned()
            .unwrap_or_else(|| set.primary().clone());
        let mut trace: Vec<DomainName> = set.domains();
        trace.extend(
            scenario
                .corpus
                .tranco
                .top(5)
                .iter()
                .map(|e| e.domain.clone()),
        );
        println!(
            "\nablation_policies: tracker {tracker}, {} sites in trace",
            trace.len()
        );
        println!(
            "{:<16} {:>15} {:>12}",
            "vendor", "linkable pairs", "linkability"
        );
        // One replay per vendor, fanned out across the context's pool.
        let ctx = EngineContext::embedded();
        for report in
            linkability_by_vendor(list, &trace, &tracker, PromptBehaviour::AlwaysDecline, &ctx)
        {
            println!(
                "{:<16} {:>15} {:>12.3}",
                report.vendor,
                report.linkable_pairs,
                report.linkability()
            );
        }
    });
}

fn bench_policy_ablation(c: &mut Criterion) {
    print_policy_ablation();
    let scenario = bench_scenario();
    let list = &scenario.corpus.list;
    let set = list.sets().max_by_key(|s| s.associated_count()).unwrap();
    let tracker = set
        .associated_sites()
        .next()
        .cloned()
        .unwrap_or_else(|| set.primary().clone());
    let mut trace: Vec<DomainName> = set.domains();
    trace.extend(
        scenario
            .corpus
            .tranco
            .top(5)
            .iter()
            .map(|e| e.domain.clone()),
    );

    let mut group = c.benchmark_group("ablation_policies");
    for vendor in VendorPolicy::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vendor:?}")),
            &vendor,
            |b, vendor| {
                b.iter(|| {
                    std::hint::black_box(linkability_report(
                        *vendor,
                        list,
                        &trace,
                        &tracker,
                        PromptBehaviour::AlwaysDecline,
                        &SiteResolver::embedded(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Linkability under Chrome+RWS as a function of set size.
fn bench_linkability_by_set_size(c: &mut Criterion) {
    let scenario = bench_scenario();
    let list = &scenario.corpus.list;
    let mut group = c.benchmark_group("ablation_linkability_rws_size");
    for target_size in [2usize, 4, 6] {
        let Some(set) = list.sets().find(|s| s.size() >= target_size) else {
            continue;
        };
        let tracker = set.primary().clone();
        let trace: Vec<DomainName> = set.domains().into_iter().take(target_size).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(target_size),
            &target_size,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(linkability_report(
                        VendorPolicy::ChromeWithRws,
                        list,
                        &trace,
                        &tracker,
                        PromptBehaviour::AlwaysDecline,
                        &SiteResolver::embedded(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Sweep the SLD edit-distance threshold and report the quality of the
/// "similar SLD ⇒ related" heuristic against the list's ground truth.
fn bench_sld_classifier(c: &mut Criterion) {
    let scenario = bench_scenario();
    let psl = PublicSuffixList::embedded();
    let pairs = scenario.corpus.list.member_primary_pairs();

    // Print the sweep once: how many associated members the heuristic finds
    // at each threshold (its recall on true members).
    static PRINTED: Once = Once::new();
    PRINTED.call_once(|| {
        println!("\nablation_sld_classifier: recall of 'SLD distance <= t' on true set members");
        for threshold in [0usize, 2, 4, 6, 8] {
            let mut related = 0usize;
            let mut total = 0usize;
            for (primary, member, role) in &pairs {
                if *role != MemberRole::Associated {
                    continue;
                }
                total += 1;
                if let Some(cmp) = SldComparison::compute(member, primary, &psl) {
                    if cmp.predicts_related(threshold) {
                        related += 1;
                    }
                }
            }
            if total > 0 {
                println!(
                    "  threshold {threshold}: {related}/{total} ({:.1}%)",
                    100.0 * related as f64 / total as f64
                );
            }
        }
    });

    // Resolve every pair's SLDs once through the memoized resolver; the
    // sweep itself then only runs the bounded edit-distance kernel.
    let resolver = rws_domain::SiteResolver::embedded();
    let sld_pairs: Vec<(String, String)> = pairs
        .iter()
        .filter_map(|(primary, member, _)| {
            Some((
                resolver.second_level_label(member)?,
                resolver.second_level_label(primary)?,
            ))
        })
        .collect();

    let mut group = c.benchmark_group("ablation_sld_classifier");
    for threshold in [0usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &threshold| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for (member_sld, primary_sld) in &sld_pairs {
                        if SldComparison::predicts_related_slds(member_sld, primary_sld, threshold)
                        {
                            hits += 1;
                        }
                    }
                    std::hint::black_box(hits)
                })
            },
        );
    }
    group.finish();
}

/// Price each validation check in isolation.
fn bench_validation_checks(c: &mut Criterion) {
    let scenario = bench_scenario();
    let web = scenario.corpus.web.clone();
    let set = scenario
        .corpus
        .list
        .sets()
        .max_by_key(|s| s.size())
        .unwrap()
        .clone();

    let configs: [(&str, ValidatorConfig); 4] = [
        (
            "etld_only",
            ValidatorConfig {
                check_etld_plus_one: true,
                check_well_known: false,
                check_service_robots: false,
                check_rationales: false,
                recheck_transient: false,
            },
        ),
        (
            "rationales_only",
            ValidatorConfig {
                check_etld_plus_one: false,
                check_well_known: false,
                check_service_robots: false,
                check_rationales: true,
                recheck_transient: false,
            },
        ),
        (
            "well_known_only",
            ValidatorConfig {
                check_etld_plus_one: false,
                check_well_known: true,
                check_service_robots: false,
                check_rationales: false,
                recheck_transient: false,
            },
        ),
        ("full", ValidatorConfig::default()),
    ];

    let mut group = c.benchmark_group("ablation_validation");
    for (name, config) in configs {
        let validator = SetValidator::with_config(web.clone(), config);
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(validator.validate(&set)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_policy_ablation,
    bench_linkability_by_set_size,
    bench_sld_classifier,
    bench_validation_checks
);
criterion_main!(benches);
