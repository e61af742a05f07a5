//! Allocation-count gate for the production classifier.
//!
//! `KeywordClassifier::classify` reads the page as borrowed slices: text
//! runs go straight to the keyword automaton, words are lower-cased on the
//! stack, and only the title runs and the class names that hold a
//! vocabulary word are collected. A counting
//! global allocator pins the most allocations one call makes on a rendered
//! page of any category and language, once the process-wide automaton is
//! built.
//!
//! Everything lives in one `#[test]` so the process-global counter is not
//! polluted by a sibling test thread.

use rws_classify::{KeywordAutomaton, KeywordClassifier};
use rws_corpus::{render_site, Brand, Language, SiteCategory};
use rws_domain::DomainName;
use rws_stats::rng::Xoshiro256StarStar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting every allocation and reallocation.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let value = f();
    (ALLOCS.load(Ordering::Relaxed) - before, value)
}

/// The most allocations one `classify` call may make on a rendered page.
const MAX_ALLOCS_PER_PAGE: usize = 4;

#[test]
fn classify_allocations_per_rendered_page_are_bounded() {
    KeywordAutomaton::global();
    let classifier = KeywordClassifier::new();
    let mut rng = Xoshiro256StarStar::new(7);
    let mut worst = 0usize;
    let mut pages = 0usize;
    for category in SiteCategory::ALL {
        for language in [Language::English, Language::NonEnglish] {
            for i in 0..4 {
                let brand = Brand::generate(&mut rng);
                let domain = DomainName::parse(&format!("{}{i}.example", brand.slug)).unwrap();
                let html = render_site(&domain, &brand, category, language, &mut rng);
                let (allocs, verdict) = allocs_during(|| classifier.classify(&domain, &html));
                assert_eq!(verdict, classifier.classify_naive(&domain, &html));
                worst = worst.max(allocs);
                pages += 1;
            }
        }
    }
    assert_eq!(pages, SiteCategory::ALL.len() * 8);
    eprintln!("classify: at most {worst} allocations on {pages} rendered pages");
    assert!(
        worst <= MAX_ALLOCS_PER_PAGE,
        "classify made {worst} allocations on one page, above the pinned {MAX_ALLOCS_PER_PAGE}"
    );
}
