//! Property tests for the frozen page store.
//!
//! Contracts, each across arbitrary generated webs:
//!
//! * freezing is observationally invisible: `serve` answers identically
//!   before the freeze, after the freeze through the `SimulatedWeb`, and
//!   lock-free through the `FrozenWeb` snapshot, whose host table holds
//!   exactly the registered hosts;
//! * post-freeze writes land in the overlay: they are visible through the
//!   web that made them, while its earlier clones and the frozen snapshot
//!   keep serving the pre-write answers;
//! * serving is zero-copy: a fetched `Response.body` shares its buffer
//!   with the interned page registered at build time;
//! * the no-op freeze fast path is pinned by pointer equality — an empty
//!   overlay hands back the *same* store.

use proptest::prelude::*;
use rws_domain::DomainName;
use rws_net::{
    Fetcher, FrozenWeb, LatencyModel, PageContent, ServedPage, SimulatedWeb, SiteHost, StatusCode,
    Url,
};

/// One generated page: a path and what it serves.
#[derive(Debug, Clone)]
struct PageSpec {
    path: String,
    content: PageContent,
    robots_header: bool,
}

/// One generated host.
#[derive(Debug, Clone)]
struct HostSpec {
    pages: Vec<PageSpec>,
    offline: bool,
    http_only: bool,
    base_ms: u64,
}

fn content_strategy() -> impl Strategy<Value = PageContent> {
    (0u8..5, "[ -~]{0,120}", "/[a-z]{1,6}", any::<bool>()).prop_map(
        |(kind, body, location, permanent)| match kind {
            0 => PageContent::Html(body.into()),
            1 => PageContent::Json(body.into()),
            2 => PageContent::Text(body.into()),
            3 => PageContent::Redirect {
                location,
                permanent,
            },
            _ => PageContent::Error {
                status: StatusCode::SERVICE_UNAVAILABLE,
                body: body.into(),
            },
        },
    )
}

fn host_strategy() -> impl Strategy<Value = HostSpec> {
    (
        proptest::collection::vec(
            ("/[a-z0-9]{1,8}", content_strategy(), any::<bool>()).prop_map(
                |(path, content, robots_header)| PageSpec {
                    path,
                    content,
                    robots_header,
                },
            ),
            0..5,
        ),
        any::<bool>(),
        any::<bool>(),
        1u64..200,
    )
        .prop_map(|(pages, offline, http_only, base_ms)| HostSpec {
            pages,
            offline,
            http_only,
            base_ms,
        })
}

/// Materialise the generated hosts plus the probe URLs every contract
/// reads.
fn build_hosts(hosts: &[HostSpec]) -> (Vec<SiteHost>, Vec<Url>) {
    let mut built = Vec::new();
    let mut urls = Vec::new();
    for (i, spec) in hosts.iter().enumerate() {
        let name = format!("host{i}.example.com");
        let mut host = SiteHost::new(&name).unwrap();
        host.set_offline(spec.offline).set_http_only(spec.http_only);
        host.set_latency(LatencyModel {
            base_ms: spec.base_ms,
            per_kb_ms: 1,
        });
        for page in &spec.pages {
            host.add_content(&page.path, page.content.clone());
            if page.robots_header {
                host.add_header(&page.path, "X-Robots-Tag", "noindex");
            }
        }
        built.push(host);
        for page in &spec.pages {
            urls.push(Url::parse(&format!("https://{name}{}", page.path)).unwrap());
            urls.push(Url::parse(&format!("http://{name}{}", page.path)).unwrap());
        }
        urls.push(Url::parse(&format!("https://{name}/not-registered")).unwrap());
    }
    urls.push(Url::parse("https://unregistered.example.com/").unwrap());
    (built, urls)
}

/// The generated hosts registered into a fresh (unfrozen) web.
fn build_web(hosts: &[HostSpec]) -> (SimulatedWeb, Vec<Url>) {
    let (built, urls) = build_hosts(hosts);
    let mut web = SimulatedWeb::new();
    for host in built {
        web.register(host);
    }
    (web, urls)
}

proptest! {
    /// FrozenWeb reads ≡ pre-freeze SimulatedWeb reads, for every probe
    /// URL and the host-table views, across arbitrary webs.
    #[test]
    fn frozen_reads_match_pre_freeze_reads(hosts in proptest::collection::vec(host_strategy(), 0..6)) {
        let (built, urls) = build_hosts(&hosts);
        let mut web = SimulatedWeb::new();
        for host in built.clone() {
            web.register(host);
        }

        let before: Vec<ServedPage> = urls.iter().map(|u| web.serve(u)).collect();

        let frozen: FrozenWeb = web.freeze();

        for (url, expected) in urls.iter().zip(&before) {
            prop_assert_eq!(&frozen.serve(url), expected, "frozen serve diverged on {}", url);
            prop_assert_eq!(&web.serve(url), expected, "post-freeze web serve diverged on {}", url);
        }
        let mut registered: Vec<DomainName> = built.iter().map(|h| h.domain().clone()).collect();
        registered.sort();
        prop_assert_eq!(frozen.hosts(), registered);
        prop_assert_eq!(frozen.host_count(), built.len());

        // Per-host views agree too (paths, flags, page lookups).
        for host in &built {
            let snapshot = frozen.host(host.domain()).unwrap();
            prop_assert_eq!(snapshot.paths(), host.paths());
            prop_assert_eq!(snapshot.is_offline(), host.is_offline());
            for path in host.paths() {
                prop_assert_eq!(snapshot.page(path), host.page(path));
                prop_assert_eq!(snapshot.headers_for(path), host.headers_for(path));
            }
        }
    }

    /// Post-freeze writes (register + copy-on-write update) are visible
    /// through the web that made them, but never through a clone taken
    /// before the writes or through the frozen snapshot.
    #[test]
    fn overlay_writes_spare_the_snapshot(hosts in proptest::collection::vec(host_strategy(), 1..5)) {
        let (mut web, urls) = build_web(&hosts);
        let frozen = web.freeze();
        let clone = web.clone();
        let before: Vec<ServedPage> = urls.iter().map(|u| frozen.serve(u)).collect();

        // Overlay registration: a brand-new host.
        let late_name = "late-arrival.example.com";
        let mut late = SiteHost::new(late_name).unwrap();
        late.add_page("/", "late body");
        web.register(late);
        let late_domain = DomainName::parse(late_name).unwrap();
        let late_url = Url::https(&late_domain, "/");
        prop_assert!(matches!(web.serve(&late_url), ServedPage::Content { .. }));
        prop_assert_eq!(clone.serve(&late_url), ServedPage::NoSuchHost, "a clone must not see later registrations");
        prop_assert!(!frozen.has_host(&late_domain), "snapshot must not see overlay hosts");

        // Copy-on-write mutation of a frozen host.
        let first = frozen.hosts()[0].clone();
        let was_offline = frozen.host(&first).unwrap().is_offline();
        prop_assert!(web.update_host(&first, |h| { h.set_offline(!was_offline); }));
        let mutated = web.freeze().host(&first).unwrap().is_offline();
        prop_assert_eq!(mutated, !was_offline, "the writer sees its CoW edit");
        prop_assert_eq!(frozen.host(&first).unwrap().is_offline(), was_offline);

        // Every snapshot answer, and every answer of the clone, is
        // byte-identical to before the writes.
        for (url, expected) in urls.iter().zip(&before) {
            prop_assert_eq!(&frozen.serve(url), expected);
            prop_assert_eq!(&clone.serve(url), expected, "a clone must not see later edits");
        }
    }

    /// A body fetched through the full client stack shares its bytes with
    /// the interned page — no copy anywhere between registration and
    /// `Response.body`. And the borrowed `body_str` equals the owned
    /// `body_text`.
    #[test]
    fn fetched_bodies_share_the_interned_buffer(body in "[ -~]{1,200}") {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("zero.example.com").unwrap();
        host.add_page("/", body.clone());
        web.register(host);
        let frozen = web.freeze();
        let domain = DomainName::parse("zero.example.com").unwrap();
        let interned = frozen.page_body(&domain, "/").unwrap().bytes();

        let fetcher = Fetcher::new(web);
        let resp = fetcher
            .get(&Url::parse("https://zero.example.com/").unwrap())
            .unwrap();
        prop_assert_eq!(resp.body.as_ptr(), interned.as_ptr(), "body was copied");
        prop_assert_eq!(resp.body_str(), Some(body.as_str()));
        prop_assert_eq!(resp.body_text(), body);
    }
}

#[test]
fn empty_overlay_freeze_returns_the_same_store() {
    let hosts: Vec<SiteHost> = (0..20)
        .map(|i| {
            let mut h = SiteHost::new(&format!("s{i}.example.com")).unwrap();
            h.add_page("/", format!("<p>{i}</p>"));
            h
        })
        .collect();
    let pinned = DomainName::parse("s3.example.com").unwrap();

    let mut seed = SimulatedWeb::new();
    for host in hosts.clone() {
        seed.register(host);
    }
    let store = seed.freeze();
    let mut web = SimulatedWeb::from_frozen(store.clone());

    // An empty overlay hands back the *same* store — a refcount bump,
    // not a rebuild — however often it is frozen.
    assert!(web.freeze().ptr_eq(&store));
    assert!(web.freeze().ptr_eq(&store));

    // An overlay write re-freezes once; the freeze after that is again
    // free.
    assert!(web.update_host(&pinned, |h| {
        h.add_page("/new", "<p>edit</p>");
    }));
    let edited = web.freeze();
    assert!(!edited.ptr_eq(&store));
    assert_eq!(edited.hosts(), store.hosts());
    assert!(edited.page_html(&pinned, "/new").is_some());
    assert!(store.page_html(&pinned, "/new").is_none());
    assert!(edited.ptr_eq(&web.freeze()));

    // A fresh web starts on an empty base; repeat freezes after a
    // registration share one store.
    let mut web = SimulatedWeb::new();
    assert_eq!(web.freeze().host_count(), 0);
    web.register(hosts[0].clone());
    let first = web.freeze();
    assert_eq!(first.host_count(), 1);
    assert!(first.ptr_eq(&web.freeze()));
}
