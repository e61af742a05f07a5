//! Allocation-count gates for the fetch hop and the load replay's visit.
//!
//! Building a visit URL borrows a `'static` path and bumps the host's
//! refcount, so it must not touch the allocator. A calm GET or HEAD of an
//! HTML page must not either: the URL clone inside the fetcher borrows its
//! path, the response takes the store's static `content-type` map and the
//! interned body by move, and a HEAD writes its `content-length` into the
//! map's inline slot. A GET that fails because the host is unknown or
//! refuses must not allocate either: the error moves the URL's host name
//! in, and nothing is formatted until the error is printed. Nor must a GET
//! through an injected redirect storm: the fetcher applies the fault to
//! the hop's own values and re-requests the URL it holds, building no
//! target. A counting global allocator pins those counts at zero, and
//! bounds the allocations per fetch call of a whole sequential replay and
//! of the chunked run, calm and under two fault storms. A chunk re-seeds
//! one client state per client, so its buffers are allocated once per
//! chunk; a served redirect shares its target; and a storm timeout boxes
//! its chain entry only when a redirect moved the fetch.
//!
//! Everything lives in one `#[test]` so the process-global counter is not
//! polluted by a sibling test thread.

use rws_domain::{DomainName, SiteResolver};
use rws_engine::EngineContext;
use rws_load::{FaultPlan, FaultScale, LoadEngine, LoadScale, LoadTarget, RetryPolicy};
use rws_model::RwsList;
use rws_net::{
    well_known_path, Fault, FetchSession, Fetcher, NetError, SimulatedWeb, SiteHost, Url,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
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

/// The four-host universe of the engine's unit tests: two HTML pages per
/// host, no extra headers, no redirects, no RWS sets.
fn tiny_web() -> SimulatedWeb {
    let mut web = SimulatedWeb::new();
    for name in ["alpha.com", "beta.com", "gamma.com", "delta.com"] {
        let mut host = SiteHost::new(name).unwrap();
        host.add_page("/", "<html><body>page</body></html>");
        host.add_page("/about", "<html><body>about</body></html>");
        web.register(host);
    }
    web
}

#[test]
fn visits_and_fetch_hops_allocate_within_budget() {
    let host = DomainName::parse("alpha.com").unwrap();

    // Building a visit URL: the host is a refcount bump, the path borrowed.
    let (url_allocs, url) = allocs_during(|| black_box(Url::https(&host, "/about")));
    assert_eq!(url_allocs, 0, "Url::https must not allocate");
    let (probe_allocs, probe) = allocs_during(|| black_box(well_known_path(&host)));
    assert_eq!(probe_allocs, 0, "well_known_path must not allocate");
    assert_eq!(url.to_string(), "https://alpha.com/about");
    assert!(probe
        .to_string()
        .starts_with("https://alpha.com/.well-known/"));

    // One calm fetch hop of an HTML page, after a warm-up.
    let fetcher = Fetcher::new(tiny_web());
    let page = Url::https(&host, "/");
    fetcher.get(&page).unwrap();
    fetcher.head(&page).unwrap();
    let (get_allocs, get) = allocs_during(|| fetcher.get(&page).unwrap());
    assert!(get.status.is_success());
    assert_eq!(get.content_type(), Some("text/html; charset=utf-8"));
    assert_eq!(get_allocs, 0, "a calm GET must not allocate");
    let (head_allocs, head) = allocs_during(|| fetcher.head(&page).unwrap());
    assert!(head.body.is_empty());
    assert_eq!(head.headers.get("content-length"), Some("30"));
    assert_eq!(head_allocs, 0, "a calm HEAD must not allocate");

    // Failed GETs: an unknown host and a host that refuses.
    let mut web = tiny_web();
    let offline = DomainName::parse("beta.com").unwrap();
    web.update_host(&offline, |h| {
        h.set_offline(true);
    });
    let fetcher = Fetcher::new(web);
    let unknown = Url::https(&DomainName::parse("nowhere.com").unwrap(), "/");
    let refused = Url::https(&offline, "/");
    fetcher.get(&unknown).unwrap_err();
    fetcher.get(&refused).unwrap_err();
    let (unknown_allocs, err) = allocs_during(|| fetcher.get(&unknown).unwrap_err());
    assert!(matches!(err, NetError::HostNotFound { .. }), "{err}");
    assert_eq!(unknown_allocs, 0, "a host-not-found GET must not allocate");
    let (refused_allocs, err) = allocs_during(|| fetcher.get(&refused).unwrap_err());
    assert!(matches!(err, NetError::ConnectionRefused { .. }), "{err}");
    assert_eq!(refused_allocs, 0, "a refused GET must not allocate");

    // A GET through a three-hop redirect storm that ends inside the
    // redirect limit: window 0 of the host is a storm, window 1 is clear.
    let scale = FaultScale::storm();
    let plan = (0..100_000u64)
        .map(|seed| FaultPlan::new(seed, scale))
        .find(|plan| {
            plan.fault_at(&host, 0) == Some(Fault::RedirectStorm)
                && plan.fault_at(&host, scale.burst_len).is_none()
        })
        .expect("no storm-then-clear seed found");
    let fetcher = Fetcher::new(tiny_web()).with_faults(plan);
    let mut session = FetchSession::new(1, "storm");
    fetcher.get_with(&page, &mut session).result.unwrap();
    session.restart(1, "storm");
    let (storm_allocs, outcome) = allocs_during(|| fetcher.get_with(&page, &mut session));
    let resp = outcome.result.unwrap();
    assert_eq!((resp.url, resp.redirects_followed), (page, 3));
    assert_eq!(
        storm_allocs, 0,
        "a GET through a redirect storm must not allocate"
    );

    // A whole sequential replay, per fetch call. The resolver is built
    // first: its PSL tables are set-up, not visit cost.
    let resolver = SiteResolver::full();
    let calm = LoadEngine::new(
        LoadTarget::from_frozen(tiny_web().freeze(), RwsList::default()),
        LoadScale::smoke(),
    );
    let (replay_allocs, report) = allocs_during(|| calm.replay_sequential_with(7, &resolver));
    assert_allocs_per_call("replay", replay_allocs, report.fetch_calls, 0.4);

    // The chunked run on an inline context (which shares that resolver,
    // already warm), calm and under a fault storm with retries. Plan seed
    // 5 is one whose storm times out: 182 fetch calls end in a timeout
    // and more retried attempts time out on the way.
    let ctx = EngineContext::sequential();
    let (calm_allocs, calm_report) = allocs_during(|| calm.run_on(7, &ctx));
    assert_eq!(calm_report, report, "sanity: the run is the replay's");
    assert_allocs_per_call("calm run", calm_allocs, calm_report.fetch_calls, 0.17);
    let storm = LoadEngine::new(
        LoadTarget::from_frozen(tiny_web().freeze(), RwsList::default())
            .with_faults(FaultPlan::new(5, FaultScale::storm()))
            .with_retry(RetryPolicy::standard()),
        LoadScale::smoke(),
    );
    let (storm_allocs, storm_report) = allocs_during(|| storm.run_on(7, &ctx));
    assert!(storm_report.retries > 0, "sanity: the storm faulted");
    assert!(
        storm_report.errors.get("timeout") > 0,
        "sanity: the storm timed out"
    );
    assert_allocs_per_call("storm run", storm_allocs, storm_report.fetch_calls, 0.25);
    // Plan seed 2's storm faults without timing out: its allocations are
    // the faulted hops' own.
    let storm = LoadEngine::new(
        LoadTarget::from_frozen(tiny_web().freeze(), RwsList::default())
            .with_faults(FaultPlan::new(2, FaultScale::storm()))
            .with_retry(RetryPolicy::standard()),
        LoadScale::smoke(),
    );
    let (storm_allocs, storm_report) = allocs_during(|| storm.run_on(7, &ctx));
    assert_eq!(storm_report.retries, 0, "sanity: seed 2 retries nothing");
    assert_ne!(storm_report, calm_report, "sanity: the storm faulted");
    assert_allocs_per_call(
        "seed-2 storm run",
        storm_allocs,
        storm_report.fetch_calls,
        0.17,
    );
}

/// Fail unless `allocs` over `fetch_calls` stays within `bound` per call.
fn assert_allocs_per_call(what: &str, allocs: usize, fetch_calls: u64, bound: f64) {
    assert!(fetch_calls > 1_000, "sanity: the {what} fetched");
    let per_call = allocs as f64 / fetch_calls as f64;
    assert!(
        per_call <= bound,
        "{what} allocations per fetch call: {per_call:.3} ({allocs} over {fetch_calls} calls, bound {bound})"
    );
}
