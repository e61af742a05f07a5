//! Totality of the parsers that read outside input: seeded mutations of
//! valid RWS lists, `.well-known` files, URLs, domains and dates go to the
//! JSON reader, `list_from_json`, `WellKnownFile::from_json_str`,
//! `Url::parse` and `Url::join`, `DomainName::parse` with
//! `PublicSuffixList::registrable_domain`, and `Month::parse` /
//! `Date::parse`. Each must return a value or its typed error (`None` for
//! the date parsers) without panicking.
//!
//! A mutant is its seed after one to four edits, each on char boundaries
//! so the input stays a `&str`: delete a range, duplicate a range,
//! overwrite a char with a structural one, splice in a token, or swap a
//! JSON string literal for a value of another type (which keeps many
//! mutants well-formed JSON, so the typed readers behind the JSON parser
//! run too). Every run draws the same mutants from a fixed seed.

use rws_domain::{DomainName, PublicSuffixList};
use rws_model::{list_from_json, list_to_json, RwsList, RwsSet, WellKnownFile};
use rws_net::Url;
use rws_stats::rng::{Rng, Xoshiro256StarStar};
use rws_stats::{Date, Month};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants drawn per seed input.
const MUTANTS_PER_SEED: usize = 20_000;

/// Characters that mean something to one of the parsers.
const STRUCTURAL: &str = "{}[]\":,\\/.-?#@%*09e+ \n\0\u{a0}\u{e9}\u{1f4a5}";

/// Tokens spliced into a mutant, and the replacements for a string literal.
const TOKENS: &[&str] = &[
    "null",
    "true",
    "[]",
    "{}",
    "-0",
    "1e999",
    "\"\"",
    "\"\\u0000\"",
    "\"\\ud800\"",
    "\"https://\"",
    "\"https://a..b\"",
    "\"https://bild.de\"",
    "[\"https://bild.de\"]",
    "{\"https://bild.de\": []}",
    "https://",
    "xn--",
    "..",
    "../",
    "//",
    ":99999",
    ":0",
    "9999999999",
    "-13",
    "-00",
    "co.uk",
    "localhost",
    "127.0.0.1",
];

fn pick<T: Copy>(rng: &mut Xoshiro256StarStar, items: &[T]) -> T {
    items[rng.next_u64() as usize % items.len()]
}

/// A random `lo..=hi` range of `0..=len`.
fn span(rng: &mut Xoshiro256StarStar, len: usize) -> (usize, usize) {
    let a = rng.next_u64() as usize % (len + 1);
    let b = rng.next_u64() as usize % (len + 1);
    (a.min(b), a.max(b))
}

/// `seed` after one to four random edits.
fn mutate(rng: &mut Xoshiro256StarStar, seed: &str) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for _ in 0..1 + rng.next_u64() % 4 {
        let (lo, hi) = span(rng, chars.len());
        match rng.next_u64() % 5 {
            0 => {
                chars.drain(lo..hi);
            }
            1 => {
                let copy: Vec<char> = chars[lo..hi].to_vec();
                chars.splice(hi..hi, copy);
            }
            2 if !chars.is_empty() => {
                let i = lo.min(chars.len() - 1);
                let structural: Vec<char> = STRUCTURAL.chars().collect();
                chars[i] = pick(rng, &structural);
            }
            3 => {
                chars.splice(lo..lo, pick(rng, TOKENS).chars());
            }
            _ => {
                // Swap the k-th string literal (the seeds hold no escaped
                // quotes) for a token, often of another JSON type.
                let quotes: Vec<usize> = (0..chars.len()).filter(|&i| chars[i] == '"').collect();
                if quotes.len() >= 2 {
                    let k = rng.next_u64() as usize % (quotes.len() / 2);
                    let (open, close) = (quotes[2 * k], quotes[2 * k + 1]);
                    chars.splice(open..=close, pick(rng, TOKENS).chars());
                }
            }
        }
    }
    chars.into_iter().collect()
}

/// Run `f` on `input`, failing the test with the input if it panics.
fn total<T>(parser: &str, input: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{parser} panicked on {input:?}"))
}

/// Calls of one parser on the mutants, and how many returned a value.
#[derive(Default)]
struct Tally {
    calls: usize,
    ok: usize,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.calls += 1;
        self.ok += usize::from(ok);
    }

    /// The mutants reached both outcomes, so the parser's accepting and
    /// rejecting paths both ran.
    fn assert_mixed(&self, parser: &str) {
        assert!(
            self.ok > 0 && self.ok < self.calls,
            "{parser}: {} of {} mutants parsed; the mutants miss a path",
            self.ok,
            self.calls
        );
    }
}

fn seed_list() -> RwsList {
    let mut bild = RwsSet::new("https://bild.de").unwrap();
    bild.set_contact("webmaster@bild.de");
    bild.add_associated("https://autobild.de", "Sister publication")
        .unwrap();
    bild.add_service("https://bildstatic.de", "Static assets")
        .unwrap();
    let mut shop = RwsSet::new("https://shop.example.co.uk").unwrap();
    shop.add_associated_without_rationale("https://shop-news.com")
        .unwrap();
    shop.add_cctld_variants("https://shop.example.co.uk", &["https://shop.example.de"])
        .unwrap();
    RwsList::from_sets(vec![bild, shop]).unwrap()
}

#[test]
fn input_parsers_are_total_on_mutated_input() {
    let mut rng = Xoshiro256StarStar::new(12);
    let psl = PublicSuffixList::embedded();
    let list = seed_list();
    let list_text = serde_json::to_string_pretty(&list_to_json(&list)).unwrap();
    let bild = list.sets().next().unwrap();
    let well_known = [
        WellKnownFile::for_primary(bild).to_json_string(),
        WellKnownFile::for_member(bild.primary()).to_json_string(),
    ];
    let urls = [
        "https://bild.de/.well-known/related-website-set.json",
        "http://shop.example.co.uk:8080/a/b/../c?q=1&r",
        "https://xn--bcher-kva.de/",
    ];
    let targets = [
        "../x/y",
        "/.well-known/a.json",
        "https://other.org/p?q",
        "?only",
    ];
    let domains = [
        "bild.de",
        "a.b.shop.example.co.uk",
        "xn--bcher-kva.de",
        "sub.github.io",
    ];
    let months = ["2024-03", "2023-12"];
    let dates = ["2024-02-29", "2023-12-31"];

    let mut json = Tally::default();
    let mut lists = Tally::default();
    for _ in 0..MUTANTS_PER_SEED {
        let text = mutate(&mut rng, &list_text);
        let value = total("serde_json::from_str", &text, || {
            serde_json::from_str::<serde_json::Value>(&text)
        });
        json.record(value.is_ok());
        if let Ok(value) = value {
            let parsed = total("list_from_json", &text, || list_from_json(&value));
            lists.record(parsed.is_ok());
        }
    }
    json.assert_mixed("serde_json::from_str");
    lists.assert_mixed("list_from_json");

    let mut files = Tally::default();
    for seed in &well_known {
        for _ in 0..MUTANTS_PER_SEED {
            let text = mutate(&mut rng, seed);
            let parsed = total("WellKnownFile::from_json_str", &text, || {
                WellKnownFile::from_json_str(&text)
            });
            files.record(parsed.is_ok());
        }
    }
    files.assert_mixed("WellKnownFile::from_json_str");

    let mut parsed_urls = Tally::default();
    let mut joins = Tally::default();
    for seed in urls {
        let base = Url::parse(seed).unwrap();
        for _ in 0..MUTANTS_PER_SEED {
            let text = mutate(&mut rng, seed);
            let url = total("Url::parse", &text, || Url::parse(&text));
            parsed_urls.record(url.is_ok());
            let target = pick(&mut rng, &targets);
            let target = mutate(&mut rng, target);
            let joined = total("Url::join", &target, || base.join(&target));
            joins.record(joined.is_ok());
            if let Ok(url) = url {
                total("Url::join", &target, || url.join(&target)).ok();
            }
        }
    }
    parsed_urls.assert_mixed("Url::parse");
    joins.assert_mixed("Url::join");

    let mut names = Tally::default();
    let mut registrable = Tally::default();
    for seed in domains {
        for _ in 0..MUTANTS_PER_SEED {
            let text = mutate(&mut rng, seed);
            let name = total("DomainName::parse", &text, || DomainName::parse(&text));
            names.record(name.is_ok());
            if let Ok(name) = name {
                let site = total("registrable_domain", &text, || {
                    psl.registrable_domain(&name)
                });
                registrable.record(site.is_ok());
            }
        }
    }
    names.assert_mixed("DomainName::parse");
    registrable.assert_mixed("PublicSuffixList::registrable_domain");

    let mut parsed_months = Tally::default();
    let mut parsed_dates = Tally::default();
    for (month, date) in months.into_iter().zip(dates) {
        for _ in 0..MUTANTS_PER_SEED {
            let text = mutate(&mut rng, month);
            let parsed = total("Month::parse", &text, || {
                Month::parse(&text).map(|m| m.to_string())
            });
            parsed_months.record(parsed.is_some());
            let text = mutate(&mut rng, date);
            let parsed = total("Date::parse", &text, || {
                Date::parse(&text).map(|d| d.to_string())
            });
            parsed_dates.record(parsed.is_some());
        }
    }
    parsed_months.assert_mixed("Month::parse");
    parsed_dates.assert_mixed("Date::parse");
}
