//! Property-based tests for the RWS list model.

use proptest::prelude::*;
use rws_domain::DomainName;
use rws_model::{list_from_json, list_to_json, RwsList, RwsSet, WellKnownFile};

/// Strategy for distinct bare domain names like `brandXX.com`.
fn domain_pool(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("site{i}.com")).collect()
}

/// Strategy describing a random list layout: for each set, the number of
/// associated and service members.
fn layout_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..4, 0usize..3), 1..6)
}

fn build_list(layout: &[(usize, usize)]) -> RwsList {
    let mut next = 0usize;
    let pool = domain_pool(200);
    let mut take = || {
        let d = pool[next].clone();
        next += 1;
        d
    };
    let mut sets = Vec::new();
    for (assoc, service) in layout {
        let mut set = RwsSet::new(&format!("https://{}", take())).unwrap();
        for _ in 0..*assoc {
            set.add_associated(&format!("https://{}", take()), "affiliated brand")
                .unwrap();
        }
        for _ in 0..*service {
            set.add_service(&format!("https://{}", take()), "supporting infrastructure")
                .unwrap();
        }
        sets.push(set);
    }
    RwsList::from_sets(sets).unwrap()
}

/// Check every indexed lookup of `list` against a linear scan over its
/// sets, for every member plus two outsiders.
fn assert_index_matches_scan(list: &RwsList) {
    let sets: Vec<&RwsSet> = list.sets().collect();
    let scan = |d: &DomainName| sets.iter().position(|s| s.contains(d));
    let mut members: Vec<DomainName> = sets.iter().flat_map(|s| s.domains()).collect();
    members.sort();
    prop_assert_eq!(list.all_domains(), members.clone());
    let mut probes = members;
    probes.push(DomainName::parse("outsider.org").unwrap());
    probes.push(DomainName::parse("site999.com").unwrap());
    for a in &probes {
        let expected = scan(a);
        prop_assert_eq!(list.set_index_of(a), expected);
        prop_assert_eq!(list.set_for(a), expected.map(|i| sets[i]));
        prop_assert_eq!(list.role_of(a), expected.and_then(|i| sets[i].role_of(a)));
        for b in &probes {
            let related = matches!((expected, scan(b)), (Some(x), Some(y)) if x == y);
            prop_assert_eq!(list.are_related(a, b), related);
        }
    }
}

proptest! {
    /// The hashed member index answers exactly what a linear scan over
    /// the sets answers, before and after a serde round trip (which
    /// rebuilds the index through `from_sets`).
    #[test]
    fn member_index_equals_linear_scan(layout in layout_strategy()) {
        let list = build_list(&layout);
        assert_index_matches_scan(&list);
        let json = serde_json::to_string(&list).unwrap();
        let back: RwsList = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &list);
        assert_index_matches_scan(&back);
    }

    /// Relatedness is reflexive for members, symmetric always, and never
    /// holds across different sets.
    #[test]
    fn relatedness_properties(layout in layout_strategy()) {
        let list = build_list(&layout);
        let domains = list.all_domains();
        for d in &domains {
            prop_assert!(list.are_related(d, d));
        }
        for a in &domains {
            for b in &domains {
                prop_assert_eq!(list.are_related(a, b), list.are_related(b, a));
                let same_set = list.set_for(a).unwrap().primary() == list.set_for(b).unwrap().primary();
                prop_assert_eq!(list.are_related(a, b), same_set);
            }
        }
        let outsider = DomainName::parse("definitely-not-in-any-set.org").unwrap();
        for d in &domains {
            prop_assert!(!list.are_related(d, &outsider));
        }
    }

    /// The canonical JSON round-trip preserves set count, member count,
    /// relatedness and roles.
    #[test]
    fn json_round_trip(layout in layout_strategy()) {
        let list = build_list(&layout);
        let json = list_to_json(&list);
        let back = list_from_json(&json).unwrap();
        prop_assert_eq!(back.set_count(), list.set_count());
        prop_assert_eq!(back.domain_count(), list.domain_count());
        for d in list.all_domains() {
            prop_assert_eq!(back.role_of(&d), list.role_of(&d));
        }
        // Serialising the reparsed list reproduces the same JSON.
        prop_assert_eq!(list_to_json(&back), json);
    }

    /// Every member's generated well-known file is consistent with its own
    /// set and inconsistent with any other set's primary copy.
    #[test]
    fn well_known_consistency(layout in layout_strategy()) {
        let list = build_list(&layout);
        for set in list.sets() {
            let primary_copy = WellKnownFile::for_primary(set);
            prop_assert!(primary_copy.matches_submission(set));
            for member in set.domains() {
                if &member != set.primary() {
                    let member_copy = WellKnownFile::for_member(set.primary());
                    prop_assert!(member_copy.matches_submission(set));
                    let text = member_copy.to_json_string();
                    let parsed = WellKnownFile::from_json_str(&text).unwrap();
                    prop_assert_eq!(parsed.primary(), set.primary());
                }
            }
            for other in list.sets() {
                if other.primary() != set.primary() {
                    prop_assert!(!primary_copy.matches_submission(other));
                }
            }
        }
    }

    /// member_primary_pairs returns exactly the non-primary members, each
    /// paired with its own primary.
    #[test]
    fn member_primary_pairs_consistent(layout in layout_strategy()) {
        let list = build_list(&layout);
        let pairs = list.member_primary_pairs();
        let expected: usize = list.sets().map(|s| s.size() - 1).sum();
        prop_assert_eq!(pairs.len(), expected);
        for (primary, member, role) in pairs {
            prop_assert_eq!(list.set_for(&member).unwrap().primary(), &primary);
            prop_assert_eq!(list.role_of(&member), Some(role));
            prop_assert!(list.are_related(&primary, &member));
        }
    }
}
