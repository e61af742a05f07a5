//! Allocation-count gates for the arena renderer.
//!
//! The point of [`RenderArena`] is that page build-up stops touching the
//! allocator: after a first render has grown the buffers, re-rendering a
//! site into the warm arena must perform **zero** heap allocations, and
//! handing the finished page to `PageBody` interning must cost exactly the
//! single final copy. A counting global allocator pins both — and pins
//! that the retained `format!` oracle still pays per-block churn.
//!
//! Everything lives in one `#[test]` so the process-global counter is not
//! polluted by a sibling test thread.

use rws_corpus::{render_site, Brand, Language, RenderArena, SiteCategory};
use rws_domain::DomainName;
use rws_net::PageBody;
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

#[test]
fn warm_arena_renders_without_allocating() {
    let brand = Brand::named("Northpost");
    let domain = DomainName::parse("northpost.com").unwrap();
    let category = SiteCategory::NewsAndMedia;
    let language = Language::English;

    let mut arena = RenderArena::new();
    // Warm-up: the first render grows the arena's buffers.
    let mut rng = Xoshiro256StarStar::new(42);
    let warm_len = arena
        .render_site_into(&domain, &brand, category, language, &mut rng)
        .len();
    assert!(warm_len > 500, "sanity: a real page was rendered");
    arena.render_about_page_into(&domain, &brand, language);

    // Re-rendering the same site into the warm arena: zero allocations.
    let (site_allocs, _) = allocs_during(|| {
        let mut rng = Xoshiro256StarStar::new(42);
        arena
            .render_site_into(&domain, &brand, category, language, &mut rng)
            .len()
    });
    assert_eq!(
        site_allocs, 0,
        "warm arena site render must not touch the allocator"
    );

    let (about_allocs, _) = allocs_during(|| {
        arena
            .render_about_page_into(&domain, &brand, language)
            .len()
    });
    assert_eq!(
        about_allocs, 0,
        "warm arena about render must not touch the allocator"
    );

    // Interning the finished page costs the single final copy: the shared
    // buffer `PageBody` hands out (at most an extra bookkeeping allocation,
    // never a copy-into-String *and* a copy-into-buffer).
    let mut rng = Xoshiro256StarStar::new(42);
    let page = arena.render_site_into(&domain, &brand, category, language, &mut rng);
    let (intern_allocs, body) = allocs_during(|| PageBody::from(page));
    assert_eq!(body.as_str(), page, "intern preserves the bytes");
    assert!(
        (1..=2).contains(&intern_allocs),
        "interning must cost exactly the final copy, got {intern_allocs} allocations"
    );

    // The retained format! oracle pays per-block churn on every render.
    let (oracle_allocs, oracle) = allocs_during(|| {
        let mut rng = Xoshiro256StarStar::new(42);
        render_site(&domain, &brand, category, language, &mut rng)
    });
    assert_eq!(
        oracle.as_str(),
        {
            let mut rng = Xoshiro256StarStar::new(42);
            arena.render_site_into(&domain, &brand, category, language, &mut rng)
        },
        "oracle and arena agree byte-for-byte"
    );
    assert!(
        oracle_allocs > 10,
        "sanity: the format! oracle allocates per block, got {oracle_allocs}"
    );
}
