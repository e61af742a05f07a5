//! Property-based tests for the domain substrate, including the
//! optimized-kernel ≡ naive-oracle equivalences this workspace's perf work
//! rests on:
//!
//! * `levenshtein` (ASCII fast path + prefix/suffix stripping + scratch
//!   reuse) against the textbook DP, on random Unicode strings;
//! * the PSL label-trie matcher against the linear rule scan, on random
//!   domains and on hosts built from every embedded rule;
//! * the memoizing `SiteResolver` against direct PSL lookups;
//! * `DomainName`'s cached hash against its bytes: every construction path
//!   yields names that compare, hash and look each other up alike.

use proptest::prelude::*;
use rws_domain::levenshtein::levenshtein_naive;
use rws_domain::{levenshtein, normalized_levenshtein, DomainName, PublicSuffixList, SiteResolver};
use rws_stats::fnv1a_of;
use rws_stats::memo::{FnvBuildHasher, FnvHasher};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Strategy producing syntactically valid domain labels.
fn label_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}".prop_map(|s| s)
}

/// Strategy producing syntactically valid multi-label domain names.
fn domain_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(label_strategy(), 2..5).prop_map(|labels| labels.join("."))
}

proptest! {
    /// Levenshtein is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn levenshtein_metric_axioms(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    /// Levenshtein distance is bounded by the length of the longer string
    /// and at least the difference in lengths.
    #[test]
    fn levenshtein_bounds(a in "[a-z]{0,15}", b in "[a-z]{0,15}") {
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(d <= la.max(lb));
        prop_assert!(d >= la.abs_diff(lb));
        let n = normalized_levenshtein(&a, &b);
        prop_assert!((0.0..=1.0).contains(&n));
    }

    /// Valid-looking domain strings parse, normalise idempotently, and
    /// round-trip through Display.
    #[test]
    fn domain_parse_round_trip(name in domain_strategy()) {
        let d = DomainName::parse(&name).unwrap();
        prop_assert_eq!(d.as_str(), name.as_str());
        let reparsed = DomainName::parse(&d.to_string()).unwrap();
        prop_assert_eq!(reparsed, d);
    }

    /// Uppercasing the input never changes the parsed result.
    #[test]
    fn domain_parse_case_insensitive(name in domain_strategy()) {
        let lower = DomainName::parse(&name).unwrap();
        let upper = DomainName::parse(&name.to_ascii_uppercase()).unwrap();
        prop_assert_eq!(lower, upper);
    }

    /// The registrable domain is idempotent: site(site(x)) == site(x), and
    /// every host is a subdomain of its own site.
    #[test]
    fn registrable_domain_idempotent(name in domain_strategy()) {
        let psl = PublicSuffixList::embedded();
        let host = DomainName::parse(&name).unwrap();
        if let Ok(site) = psl.registrable_domain(&host) {
            prop_assert!(host.is_subdomain_of(&site));
            let again = psl.registrable_domain(&site).unwrap();
            prop_assert_eq!(again, site.clone());
            prop_assert!(psl.is_etld_plus_one(&site));
            // The public suffix of the host is a strict suffix of the site.
            let suffix = psl.public_suffix(&host).unwrap();
            prop_assert!(site.is_subdomain_of(&suffix));
        }
    }

    /// same_site is reflexive for registrable hosts and symmetric always.
    #[test]
    fn same_site_properties(a in domain_strategy(), b in domain_strategy()) {
        let psl = PublicSuffixList::embedded();
        let da = DomainName::parse(&a).unwrap();
        let db = DomainName::parse(&b).unwrap();
        prop_assert_eq!(psl.same_site(&da, &db), psl.same_site(&db, &da));
        if psl.registrable_domain(&da).is_ok() {
            prop_assert!(psl.same_site(&da, &da));
        }
    }

    /// The optimized levenshtein equals the textbook DP on random Unicode
    /// strings (mixed ASCII, accented Latin and CJK, so both the byte fast
    /// path and the char path are exercised).
    #[test]
    fn levenshtein_fast_path_equals_naive(
        a in "[a-zé-ö日-晚]{0,14}",
        b in "[a-zé-ö日-晚]{0,14}",
    ) {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein_naive(&a, &b));
    }

    /// The PSL trie walk is exactly the linear rule scan, on random hosts
    /// (including hosts under wildcard/exception TLDs).
    #[test]
    fn trie_matches_linear_scan_on_random_hosts(
        labels in proptest::collection::vec("[a-z][a-z0-9]{0,6}", 1..5),
        tld in "(com|co|uk|ck|jp|io|example|kawasaki)",
    ) {
        let psl = PublicSuffixList::embedded();
        let mut parts = labels;
        parts.push(tld);
        let host = DomainName::parse(&parts.join(".")).unwrap();
        let host_labels = host.labels();
        prop_assert_eq!(
            psl.suffix_label_count_trie(&host_labels),
            psl.suffix_label_count_naive(&host_labels),
            "trie and linear scan disagree on {}", host
        );
    }

    /// The memoized resolver always answers like the PSL it wraps, hot or
    /// cold.
    #[test]
    fn resolver_transparent_caching(names in proptest::collection::vec("[a-z][a-z0-9]{0,5}(\\.(com|co\\.uk|ck|github\\.io|example)){1,2}", 1..20)) {
        let psl = PublicSuffixList::embedded();
        let resolver = SiteResolver::new(PublicSuffixList::embedded());
        // Query twice: first cold, then from cache.
        for _ in 0..2 {
            for name in &names {
                let host = DomainName::parse(name).unwrap();
                prop_assert_eq!(
                    resolver.registrable_domain(&host),
                    psl.registrable_domain(&host)
                );
            }
        }
        let stats = resolver.stats();
        prop_assert!(stats.hits >= names.len() as u64, "repeats must be cache hits");
    }
}

/// Every embedded rule, turned into concrete test hosts: the rule itself,
/// the rule with one extra label, and with two extra labels. The trie and
/// the linear scan must agree on all of them.
#[test]
fn trie_matches_linear_scan_on_every_embedded_rule() {
    let psl = PublicSuffixList::embedded();
    let mut checked = 0usize;
    for rule in psl.rules() {
        let base = rule.labels.join(".");
        for host in [
            base.clone(),
            format!("alpha.{base}"),
            format!("beta.alpha.{base}"),
        ] {
            let Ok(host) = DomainName::parse(&host) else {
                continue;
            };
            let labels = host.labels();
            assert_eq!(
                psl.suffix_label_count_trie(&labels),
                psl.suffix_label_count_naive(&labels),
                "trie and linear scan disagree on {host}"
            );
            assert_eq!(
                psl.registrable_domain(&host).is_ok(),
                psl.suffix_label_count_naive(&labels) < labels.len() && labels.len() >= 2,
                "registrable_domain consistency on {host}"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 300,
        "expected to exercise every embedded rule, got {checked}"
    );
}

/// A fixed-key std hash, so two calls can be compared.
fn std_hash<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// `a` and `b` are one key to both an FNV and a std `HashMap`, either way
/// round.
fn assert_same_key(a: &DomainName, b: &DomainName, how: &str) {
    assert_eq!(a, b, "{how}");
    assert_eq!(a.cmp(b), std::cmp::Ordering::Equal, "{how}");
    assert_eq!(a.fnv1a(), b.fnv1a(), "{how}");
    assert_eq!(fnv1a_of(a), fnv1a_of(b), "{how}");
    assert_eq!(std_hash(a), std_hash(b), "{how}");
    for (stored, probe) in [(a, b), (b, a)] {
        let mut fnv: HashMap<DomainName, u8, FnvBuildHasher> = HashMap::default();
        fnv.insert(stored.clone(), 1);
        assert_eq!(fnv.get(probe), Some(&1), "{how}: FNV map lookup");
        let mut std_map: HashMap<DomainName, u8> = HashMap::new();
        std_map.insert(stored.clone(), 1);
        assert_eq!(std_map.get(probe), Some(&1), "{how}: std map lookup");
    }
}

#[test]
fn every_construction_path_hashes_alike() {
    let canonical = DomainName::parse("example.co.uk").unwrap();
    let json = serde_json::to_string(&canonical).unwrap();
    let built = [
        (
            "parse, mixed case and trailing dot",
            DomainName::parse("Example.CO.uk.").unwrap(),
        ),
        (
            "parent",
            DomainName::parse("www.example.co.uk")
                .unwrap()
                .parent()
                .unwrap(),
        ),
        (
            "suffix_labels",
            DomainName::parse("a.b.example.co.uk")
                .unwrap()
                .suffix_labels(3)
                .unwrap(),
        ),
        (
            "registrable_domain",
            SiteResolver::full()
                .registrable_domain(&DomainName::parse("shop.www.example.co.uk").unwrap())
                .unwrap(),
        ),
        (
            "serde round trip",
            serde_json::from_str::<DomainName>(&json).unwrap(),
        ),
    ];
    for (how, name) in &built {
        assert_eq!(name.as_str(), "example.co.uk", "{how}");
        assert_same_key(name, &canonical, how);
    }
}

#[test]
fn same_length_names_stay_distinct() {
    for (a, b) in [
        ("alpha.com", "alpha.org"),
        ("abc.com", "acb.com"),
        ("a.bc.com", "ab.c.com"),
    ] {
        let (a, b) = (DomainName::parse(a).unwrap(), DomainName::parse(b).unwrap());
        assert_eq!(a.as_str().len(), b.as_str().len());
        assert_ne!(a, b);
        let mut map: HashMap<DomainName, u8, FnvBuildHasher> = HashMap::default();
        map.insert(a.clone(), 1);
        assert_eq!(map.get(&b), None, "{a} must not find {b}");
    }
}

proptest! {
    /// The cached hash is the byte-wise FNV-1a of the normalised name, and
    /// equality follows the names exactly, whatever their lengths.
    #[test]
    fn cached_hash_is_fnv1a_of_the_name(a in domain_strategy(), b in domain_strategy()) {
        let da = DomainName::parse(&a).unwrap();
        let mut bytes = FnvHasher::new();
        bytes.write(a.as_bytes());
        prop_assert_eq!(da.fnv1a(), bytes.finish());
        let upper = DomainName::parse(&format!("{}.", a.to_ascii_uppercase())).unwrap();
        prop_assert_eq!(&upper, &da);
        prop_assert_eq!(upper.fnv1a(), da.fnv1a());
        let db = DomainName::parse(&b).unwrap();
        prop_assert_eq!(da == db, a == b);
        prop_assert_eq!(da.cmp(&db), a.cmp(&b));
    }
}
