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
//!   overlay hands back the *same* store;
//! * the prebuilt response headers are the ones a map built per fetch
//!   would hold: `get` and `head` answer with the status, headers, body
//!   and latency of a reference model that applies the extras, then the
//!   content's `content-type`, plus `content-length` on HEAD, and prices
//!   each hop at 40 ms plus 2 ms per whole KiB of body.

use proptest::prelude::*;
use rws_domain::DomainName;
use rws_net::{
    FetchPolicy, Fetcher, FrozenWeb, PageBody, PageContent, ServedPage, SimulatedWeb, SiteHost,
    StatusCode, Url,
};
use std::collections::BTreeMap;

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
}

fn content_strategy() -> impl Strategy<Value = PageContent> {
    (0u8..3, "[ -~]{0,120}", "/[a-z]{1,6}", any::<bool>()).prop_map(
        |(kind, body, location, permanent)| match kind {
            0 => PageContent::Html(body.into()),
            1 => PageContent::Json(body.into()),
            _ => PageContent::Redirect {
                location: location.into(),
                permanent,
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
    )
        .prop_map(|(pages, offline)| HostSpec { pages, offline })
}

/// Materialise the generated hosts plus the probe URLs every contract
/// reads.
fn build_hosts(hosts: &[HostSpec]) -> (Vec<SiteHost>, Vec<Url>) {
    let mut built = Vec::new();
    let mut urls = Vec::new();
    for (i, spec) in hosts.iter().enumerate() {
        let name = format!("host{i}.example.com");
        let mut host = SiteHost::new(&name).unwrap();
        host.set_offline(spec.offline);
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

/// Paths the header contract registers pages and headers on, so a header
/// often lands on its path before the page and often after it.
const HEADER_PATHS: [&str; 4] = ["/", "/a", "/b", "/c"];

/// Extra header names: one the content never sets, the two it may
/// collide with, and one a redirect must not follow.
const HEADER_NAMES: [&str; 4] = ["X-Robots-Tag", "Content-Type", "Content-Length", "Location"];

/// One registration on a host, in order.
#[derive(Debug, Clone)]
enum HostOp {
    /// `add_content(HEADER_PATHS[path], content)`.
    Content(usize, PageContent),
    /// `add_header(HEADER_PATHS[path], HEADER_NAMES[name], value)`.
    Header(usize, usize, String),
}

/// Content over every kind, bodies up to a few kilobytes (so latency
/// crosses per-kilobyte steps).
fn served_content_strategy() -> impl Strategy<Value = PageContent> {
    (0u8..3, "[ -~]{0,64}", 0usize..48, 0usize..4, any::<bool>()).prop_map(
        |(kind, chunk, repeat, target, flag)| {
            let body = PageBody::from(chunk.repeat(repeat));
            match kind {
                0 => PageContent::Html(body),
                1 => PageContent::Json(body),
                _ => PageContent::Redirect {
                    location: HEADER_PATHS[target].into(),
                    permanent: flag,
                },
            }
        },
    )
}

fn host_op_strategy() -> impl Strategy<Value = HostOp> {
    (
        any::<bool>(),
        0usize..4,
        served_content_strategy(),
        0usize..4,
        "/?[a-z0-9]{1,6}",
    )
        .prop_map(|(header, path, content, name, value)| {
            if header {
                HostOp::Header(path, name, value)
            } else {
                HostOp::Content(path, content)
            }
        })
}

/// A host's registrations as the seed's fetcher saw them: the content of
/// each path and its extra headers, by lowercase name.
#[derive(Debug, Clone, Default)]
struct HostModel {
    pages: BTreeMap<String, PageContent>,
    extras: BTreeMap<String, BTreeMap<String, String>>,
}

impl HostModel {
    fn apply(&mut self, host: &mut SiteHost, op: &HostOp) {
        match op {
            HostOp::Content(path, content) => {
                host.add_content(HEADER_PATHS[*path], content.clone());
                self.pages
                    .insert(HEADER_PATHS[*path].to_string(), content.clone());
            }
            HostOp::Header(path, name, value) => {
                host.add_header(HEADER_PATHS[*path], HEADER_NAMES[*name], value);
                self.extras
                    .entry(HEADER_PATHS[*path].to_string())
                    .or_default()
                    .insert(HEADER_NAMES[*name].to_ascii_lowercase(), value.clone());
            }
        }
    }
}

/// What the reference answers: final URL, status, headers in name order,
/// body, latency and redirects followed — or the error class.
type Answer = Result<
    (
        String,
        StatusCode,
        Vec<(String, String)>,
        String,
        u64,
        usize,
    ),
    &'static str,
>;

/// The reference fetch: a header map built per hop the seed's way (the
/// extras, then the content's `content-type`, then `content-length` on
/// HEAD), each hop priced at 40 ms plus 2 ms per whole KiB of body,
/// redirects followed under the default policy.
fn reference_fetch(model: &BTreeMap<String, HostModel>, start: &Url, head: bool) -> Answer {
    let policy = FetchPolicy::default();
    let mut current = start.clone();
    let mut total = 0;
    let mut redirects = 0;
    loop {
        let host = model.get(current.host.as_str()).ok_or("host-not-found")?;
        let mut headers = BTreeMap::new();
        let (status, body, location) = match host.pages.get(current.path.as_ref()) {
            None => (StatusCode::NOT_FOUND, PageBody::default(), None),
            Some(content) => {
                if let Some(extras) = host.extras.get(current.path.as_ref()) {
                    headers = extras.clone();
                }
                let content_type = match content {
                    PageContent::Html(_) => Some("text/html; charset=utf-8"),
                    PageContent::Json(_) => Some("application/json"),
                    PageContent::Redirect { .. } => None,
                };
                if let Some(content_type) = content_type {
                    headers.insert("content-type".to_string(), content_type.to_string());
                }
                match content {
                    PageContent::Html(body) | PageContent::Json(body) => {
                        (StatusCode::OK, body.clone(), None)
                    }
                    PageContent::Redirect {
                        location,
                        permanent,
                    } => {
                        let status = if *permanent {
                            StatusCode::MOVED_PERMANENTLY
                        } else {
                            StatusCode::FOUND
                        };
                        (status, PageBody::default(), Some(location.clone()))
                    }
                }
            }
        };
        total += 40 + 2 * (body.len() as u64 / 1024);
        if total > policy.deadline_ms {
            return Err("timeout");
        }
        if status.is_redirect() {
            if redirects >= policy.max_redirects {
                return Err("too-many-redirects");
            }
            let target = location.expect("only a redirect page answers 3xx");
            current = current.join(&target).map_err(|_| "invalid-url")?;
            redirects += 1;
            continue;
        }
        let body = if head {
            headers.insert("content-length".to_string(), body.len().to_string());
            String::new()
        } else {
            body.to_string()
        };
        return Ok((
            current.to_string(),
            status,
            headers.into_iter().collect(),
            body,
            total,
            redirects,
        ));
    }
}

/// The fetcher's answer in the reference's shape.
fn fetched(fetcher: &Fetcher, url: &Url, head: bool) -> Answer {
    let resp = if head {
        fetcher.head(url)
    } else {
        fetcher.get(url)
    };
    match resp {
        Ok(resp) => Ok((
            resp.url.to_string(),
            resp.status,
            resp.headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            resp.body_text(),
            resp.latency_ms,
            resp.redirects_followed,
        )),
        Err(err) => Err(err.class()),
    }
}

/// Registrations every generated web also carries, so each case covers a
/// header added before its page and one after, an extra `Content-Type`,
/// and a redirect whose `Location` extra does not move its target.
fn covered_ops() -> Vec<HostOp> {
    let html = |text: &str| PageContent::Html(PageBody::from(text));
    vec![
        HostOp::Header(1, 0, "noindex".to_string()),
        HostOp::Content(1, html("header first")),
        HostOp::Content(2, html("page first")),
        HostOp::Header(2, 0, "none".to_string()),
        HostOp::Header(2, 1, "text/x-custom".to_string()),
        HostOp::Content(
            3,
            PageContent::Redirect {
                location: "/b".into(),
                permanent: false,
            },
        ),
        HostOp::Header(3, 3, "/a".to_string()),
        HostOp::Content(0, html("home")),
    ]
}

proptest! {
    /// `get` and `head` through the prebuilt maps ≡ the reference model,
    /// for every path of arbitrary hosts, including frozen hosts that
    /// `update_host` later gives a header.
    #[test]
    fn fetched_headers_match_the_reference_model(
        hosts in proptest::collection::vec(
            proptest::collection::vec(host_op_strategy(), 0..10),
            0..4,
        ),
        late in (0usize..8, host_op_strategy()),
    ) {
        let mut hosts: Vec<Vec<HostOp>> = hosts;
        hosts.push(covered_ops());
        let mut web = SimulatedWeb::new();
        let mut model = BTreeMap::new();
        let mut names = Vec::new();
        for (i, ops) in hosts.iter().enumerate() {
            let name = format!("host{i}.example.com");
            let mut host = SiteHost::new(&name).unwrap();
            let mut host_model = HostModel::default();
            for op in ops {
                host_model.apply(&mut host, op);
            }
            web.register(host);
            model.insert(name.clone(), host_model);
            names.push(name);
        }
        let frozen = web.freeze();
        let frozen_model = model.clone();

        // Copy-on-write edits of frozen hosts: a generated one on a
        // generated host, and a header on the covered host's header-first
        // page.
        let covered = names.len() - 1;
        let mut edits = vec![(covered, HostOp::Header(1, 0, "nofollow".to_string()))];
        if covered > 0 {
            edits.push((late.0 % covered, late.1));
        }
        for (i, op) in &edits {
            let domain = DomainName::parse(&names[*i]).unwrap();
            let host_model = model.get_mut(&names[*i]).unwrap();
            prop_assert!(web.update_host(&domain, |h| host_model.apply(h, op)));
        }

        let fetcher = Fetcher::new(web);
        let snapshot = Fetcher::new(SimulatedWeb::from_frozen(frozen));
        let mut urls: Vec<Url> = names
            .iter()
            .flat_map(|name| {
                HEADER_PATHS
                    .iter()
                    .map(move |path| Url::parse(&format!("https://{name}{path}")).unwrap())
            })
            .collect();
        urls.push(Url::parse("https://unregistered.example.com/").unwrap());
        for url in &urls {
            for head in [false, true] {
                let method = if head { "HEAD" } else { "GET" };
                prop_assert_eq!(
                    fetched(&fetcher, url, head),
                    reference_fetch(&model, url, head),
                    "{} {}", method, url
                );
                // The frozen snapshot still serves the maps it was built
                // with: the edits copied them first.
                prop_assert_eq!(
                    fetched(&snapshot, url, head),
                    reference_fetch(&frozen_model, url, head),
                    "snapshot {} {}", method, url
                );
            }
        }

        // The covered cases did what they name.
        let covered_url = |path: &str| Url::parse(&format!("https://{}{path}", names[covered])).unwrap();
        let first = fetcher.get(&covered_url("/a")).unwrap();
        prop_assert_eq!(first.headers.get("x-robots-tag"), Some("nofollow"));
        let typed = fetcher.head(&covered_url("/b")).unwrap();
        prop_assert_eq!(typed.content_type(), Some("text/html; charset=utf-8"));
        prop_assert_eq!(typed.headers.get("content-length"), Some("10"));
        let moved = fetcher.get(&covered_url("/c")).unwrap();
        prop_assert_eq!(moved.url.path.as_ref(), "/b");
        prop_assert_eq!(moved.redirects_followed, 1);
    }
}
