//! The simulated Web: a registry of hosts, their pages and their behaviour.
//!
//! [`SimulatedWeb`] is the offline stand-in for the live Web the paper's
//! tooling crawls. Each registered [`SiteHost`] owns a set of paths mapping
//! to [`PageContent`] (HTML pages, JSON documents or redirects), an outage
//! flag, and per-path extra headers (e.g. `X-Robots-Tag: noindex` on
//! service sites). What a hop costs in simulated time, and which transient
//! faults it meets, the [`Fetcher`] decides.
//!
//! # The frozen page store
//!
//! The corpus is write-once, read-hundreds-of-times: every page is rendered
//! exactly once during generation and then re-read by the classifier, the
//! Figure 4 similarity sweeps, the validation bot and the load engine. The
//! storage layer therefore follows the standard read-mostly-snapshot
//! design:
//!
//! * page bodies are interned as [`PageBody`] — an immutable, UTF-8,
//!   refcounted buffer — at registration time, so *no* later layer ever
//!   copies a body (serving bumps a refcount, reading borrows `&str`);
//! * response headers are prebuilt: a path without extra headers serves
//!   one of the process-wide static `content-type` maps, and a path with
//!   extras keeps one complete map, rebuilt when its headers or content
//!   change, so serving copies a pointer or bumps a refcount and builds
//!   no map;
//! * host and page tables are keyed through FNV
//!   ([`FnvBuildHasher`]), built with that hasher from the start, so a
//!   lookup never runs SipHash and freezing never rehashes a table;
//! * [`SimulatedWeb::freeze`] snapshots the host table into a
//!   [`FrozenWeb`] (see [`crate::store`]): an `Arc`-shared immutable host
//!   table with **no lock on the read path**, whose accessors
//!   hand out real borrows ([`FrozenWeb::page_html`]) rather than
//!   guard-bounded views;
//! * the `SimulatedWeb` itself is a plain owned value: its frozen base
//!   plus a mutable *overlay*. Post-freeze registrations (the governance
//!   replay's defect hosts) and copy-on-write
//!   [`update_host`](SimulatedWeb::update_host) mutations land in the
//!   overlay, while the frozen snapshot — and every borrowed view taken
//!   from it — stays valid and unchanged. Reads through the `SimulatedWeb`
//!   (and so through a [`Fetcher`]) check the overlay, then the base, with
//!   no lock. A clone shares the base and copies the overlay, so each
//!   owner's writes stay its own.
//!
//! [`Fetcher`]: crate::Fetcher

use crate::headers::{HeaderEntry, HeaderMap};
use crate::store::{FrozenWeb, HostTable};
use crate::url::Url;
use bytes::Bytes;
use rws_domain::DomainName;
use rws_stats::memo::FnvBuildHasher;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned, immutable page body: UTF-8 text backed by a refcounted
/// [`Bytes`] buffer. Cloning is O(1); [`as_str`](PageBody::as_str) borrows
/// and [`bytes`](PageBody::bytes) shares the buffer with a `Response`
/// without copying.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct PageBody {
    bytes: Bytes,
}

impl PageBody {
    /// The single intern point: every constructor funnels through here, so
    /// this is the one place the UTF-8 invariant behind
    /// [`as_str`](PageBody::as_str) is established.
    fn intern(bytes: Bytes) -> PageBody {
        debug_assert!(
            std::str::from_utf8(&bytes).is_ok(),
            "PageBody buffers must be valid UTF-8"
        );
        PageBody { bytes }
    }

    /// Intern a body. The single copy of the page's lifetime happens here.
    pub fn new<S: Into<String>>(text: S) -> PageBody {
        PageBody::intern(Bytes::from(text.into()))
    }

    /// Intern raw bytes after checking they are UTF-8 — the constructor to
    /// use for buffers that did not come from `str`/`String`. Returns
    /// `None` (rather than corrupting [`as_str`](PageBody::as_str)) when
    /// the bytes are not valid UTF-8.
    pub fn from_utf8(bytes: Bytes) -> Option<PageBody> {
        std::str::from_utf8(&bytes).ok()?;
        Some(PageBody::intern(bytes))
    }

    /// Borrow the body as text.
    pub fn as_str(&self) -> &str {
        // Safety: every constructor funnels through `intern`, whose callers
        // supply `str`/`String` data or (for `from_utf8`) pre-validate, so
        // the buffer is valid UTF-8 by construction.
        unsafe { std::str::from_utf8_unchecked(&self.bytes) }
    }

    /// A copy of this body cut to at most `max_len` bytes, snapped *down*
    /// to a char boundary so the result remains valid UTF-8 (the injected
    /// truncated-body fault). Bodies already within the limit are shared,
    /// not copied.
    pub fn truncated(&self, max_len: usize) -> PageBody {
        if max_len >= self.len() {
            return self.clone();
        }
        let s = self.as_str();
        let mut cut = max_len;
        while cut > 0 && !s.is_char_boundary(cut) {
            cut -= 1;
        }
        PageBody::from(&s[..cut])
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Share the underlying buffer (refcount bump, no copy).
    pub fn bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Hand the underlying buffer over without touching its refcount —
    /// what the fetcher puts on `Response.body`.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl std::ops::Deref for PageBody {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for PageBody {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for PageBody {
    fn from(s: String) -> PageBody {
        PageBody::new(s)
    }
}

impl From<&str> for PageBody {
    /// Intern a borrowed body with a single copy, straight into the shared
    /// buffer — the path arena-rendered pages take (`PageBody::new` via
    /// `Into<String>` would copy twice: once into the `String`, once into
    /// `Bytes`).
    fn from(s: &str) -> PageBody {
        PageBody::intern(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl PartialEq<str> for PageBody {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for PageBody {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for PageBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for PageBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a host serves at a particular path. Body-carrying variants hold
/// interned [`PageBody`]s and a redirect shares its target, so cloning a
/// `PageContent` (e.g. into a [`ServedPage`]) bumps a refcount and never
/// copies text.
#[derive(Debug, Clone, PartialEq)]
pub enum PageContent {
    /// An HTML page served with `Content-Type: text/html`.
    Html(PageBody),
    /// A JSON document served with `Content-Type: application/json`.
    Json(PageBody),
    /// A redirect to another URL or absolute path.
    Redirect {
        /// Redirect target (absolute URL or absolute path).
        location: Arc<str>,
        /// Whether to use 301 (permanent) or 302 (found).
        permanent: bool,
    },
}

/// The standard headers of each body kind, one process-wide static table
/// apiece.
static HTML_HEADERS: [HeaderEntry; 1] = [(
    Cow::Borrowed("content-type"),
    Cow::Borrowed("text/html; charset=utf-8"),
)];
static JSON_HEADERS: [HeaderEntry; 1] = [(
    Cow::Borrowed("content-type"),
    Cow::Borrowed("application/json"),
)];

impl PageContent {
    /// The headers this content is served with before any extras: the
    /// `content-type` of a body kind, nothing for redirects.
    fn standard_headers(&self) -> &'static [HeaderEntry] {
        match self {
            PageContent::Html(_) => &HTML_HEADERS,
            PageContent::Json(_) => &JSON_HEADERS,
            PageContent::Redirect { .. } => &[],
        }
    }

    /// The interned body, for variants that carry one (redirects do not).
    pub fn body(&self) -> Option<&PageBody> {
        match self {
            PageContent::Html(body) | PageContent::Json(body) => Some(body),
            PageContent::Redirect { .. } => None,
        }
    }

    /// The body as borrowed text, if this is an HTML page.
    pub fn html(&self) -> Option<&str> {
        match self {
            PageContent::Html(body) => Some(body.as_str()),
            _ => None,
        }
    }
}

/// The headers of a path that registered extras.
#[derive(Debug, Clone, Default)]
struct PathHeaders {
    /// The extra headers, as registered.
    extra: HeaderMap,
    /// The complete map served at the path: the extras with the content's
    /// standard headers set over them.
    served: HeaderMap,
}

/// A single host in the simulated web.
#[derive(Debug, Clone)]
pub struct SiteHost {
    host: DomainName,
    pages: HashMap<String, PageContent, FnvBuildHasher>,
    /// Only paths with extra headers have an entry; every other path
    /// serves its content's static standard map.
    page_headers: HashMap<String, PathHeaders, FnvBuildHasher>,
    /// If true, connections are refused (simulated outage).
    offline: bool,
}

impl SiteHost {
    /// Create a host for the given domain name string.
    pub fn new(host: &str) -> Result<SiteHost, rws_domain::DomainError> {
        Ok(SiteHost::for_domain(DomainName::parse(host)?))
    }

    /// Create a host from an already-validated domain name.
    pub fn for_domain(host: DomainName) -> SiteHost {
        SiteHost {
            host,
            pages: HashMap::default(),
            page_headers: HashMap::default(),
            offline: false,
        }
    }

    /// The host's domain name.
    pub fn domain(&self) -> &DomainName {
        &self.host
    }

    /// Serve an HTML page at `path`. The body is interned once, here.
    pub fn add_page<S: Into<PageBody>>(&mut self, path: &str, html: S) -> &mut Self {
        self.add_content(path, PageContent::Html(html.into()))
    }

    /// Serve a JSON document at `path`.
    pub fn add_json<S: Into<PageBody>>(&mut self, path: &str, json: S) -> &mut Self {
        self.add_content(path, PageContent::Json(json.into()))
    }

    /// Serve arbitrary content at `path`.
    pub fn add_content(&mut self, path: &str, content: PageContent) -> &mut Self {
        self.pages.insert(path.to_string(), content);
        self.rebuild_served_headers(path);
        self
    }

    /// Add an extra response header for a specific path (e.g. the
    /// `X-Robots-Tag` header required on service sites).
    pub fn add_header(&mut self, path: &str, name: &str, value: &str) -> &mut Self {
        self.page_headers
            .entry(path.to_string())
            .or_default()
            .extra
            .set(name.to_ascii_lowercase(), value.to_string());
        self.rebuild_served_headers(path);
        self
    }

    /// Rebuild the complete map `path` serves, if it registered extras:
    /// the extras, then the content's standard headers over them.
    fn rebuild_served_headers(&mut self, path: &str) {
        let Some(headers) = self.page_headers.get_mut(path) else {
            return;
        };
        let mut served = headers.extra.clone();
        if let Some(content) = self.pages.get(path) {
            for (name, value) in content.standard_headers() {
                served.set(name.clone(), value.clone());
            }
        }
        headers.served = served;
    }

    /// Mark the host as offline (connections refused).
    pub fn set_offline(&mut self, offline: bool) -> &mut Self {
        self.offline = offline;
        self
    }

    /// Whether the host is currently offline.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Content registered at `path`, if any.
    pub fn page(&self, path: &str) -> Option<&PageContent> {
        self.pages.get(path)
    }

    /// The interned body registered at `path`, if the content there carries
    /// one.
    pub fn page_body(&self, path: &str) -> Option<&PageBody> {
        self.pages.get(path).and_then(PageContent::body)
    }

    /// The HTML registered at `path`, borrowed, if that path serves HTML.
    pub fn page_html(&self, path: &str) -> Option<&str> {
        self.pages.get(path).and_then(PageContent::html)
    }

    /// Extra headers registered for `path`.
    pub fn headers_for(&self, path: &str) -> Option<&HeaderMap> {
        self.page_headers.get(path).map(|headers| &headers.extra)
    }

    /// The complete headers served with `content` at `path`: the path's
    /// prebuilt map when it registered extras (a refcount bump), else the
    /// content's static standard map (a pointer copy).
    fn served_headers(&self, path: &str, content: &PageContent) -> HeaderMap {
        match self.page_headers.get(path) {
            Some(headers) => headers.served.clone(),
            None => HeaderMap::from_static(content.standard_headers()),
        }
    }

    /// All registered paths, sorted.
    pub fn paths(&self) -> Vec<&str> {
        let mut p: Vec<&str> = self.pages.keys().map(String::as_str).collect();
        p.sort_unstable();
        p
    }

    /// What this host serves for `url` (the host-level half of
    /// [`SimulatedWeb::serve`], shared with [`FrozenWeb::serve`]). Assumes
    /// `url.host` already routed here.
    pub(crate) fn serve_path(&self, url: &Url) -> ServedPage {
        if self.is_offline() {
            return ServedPage::Refused;
        }
        match self.page(&url.path) {
            Some(content) => ServedPage::Content {
                headers: self.served_headers(&url.path, content),
                content: content.clone(),
            },
            None => ServedPage::Missing,
        }
    }
}

/// The registry of every host in the simulated web.
///
/// An immutable [`FrozenWeb`] base plus an overlay of post-freeze
/// registrations and copy-on-write edits; overlay entries shadow
/// same-named base hosts. Reads resolve overlay-then-base. Cloning bumps
/// the base's refcount and copies the overlay, so clones are independent:
/// a later write to one is never seen by another.
/// [`freeze`](SimulatedWeb::freeze) folds the overlay into a new base.
#[derive(Debug, Clone, Default)]
pub struct SimulatedWeb {
    base: FrozenWeb,
    /// Keyed through FNV like the frozen table, so freezing moves this
    /// table into the new base without rehashing it.
    overlay: HostTable,
}

impl SimulatedWeb {
    /// Create an empty web over an empty frozen base.
    pub fn new() -> SimulatedWeb {
        SimulatedWeb::default()
    }

    /// Create a web whose read path falls through to an existing frozen
    /// store (shared, not copied). Reads check the overlay, then the
    /// store, and writes land in a fresh overlay: the store itself is
    /// never touched.
    pub fn from_frozen(base: FrozenWeb) -> SimulatedWeb {
        SimulatedWeb {
            base,
            overlay: HostTable::default(),
        }
    }

    /// Register (or replace) a host. Post-freeze registrations land in the
    /// overlay and shadow any same-named frozen host.
    pub fn register(&mut self, host: SiteHost) {
        self.overlay.insert(host.domain().clone(), host);
    }

    fn host(&self, host: &DomainName) -> Option<&SiteHost> {
        self.overlay.get(host).or_else(|| self.base.host(host))
    }

    /// Mutate a host's definition in place (e.g. take it offline mid-run).
    ///
    /// A frozen host is copied into the overlay first (cheap: interned
    /// bodies and shared header maps make the clone a bundle of refcount
    /// bumps), so existing [`FrozenWeb`] snapshots keep serving the
    /// original.
    pub fn update_host(&mut self, host: &DomainName, f: impl FnOnce(&mut SiteHost)) -> bool {
        if let Some(h) = self.overlay.get_mut(host) {
            f(h);
            return true;
        }
        match self.base.host(host).cloned() {
            Some(mut h) => {
                f(&mut h);
                self.overlay.insert(host.clone(), h);
                true
            }
            None => false,
        }
    }

    /// Freeze the current host table into an immutable [`FrozenWeb`] and
    /// make it this web's new base (the overlay drains into it).
    ///
    /// Freezing with an empty overlay is free — it hands back the existing
    /// store (a refcount bump, [`FrozenWeb::ptr_eq`]-verifiable), never a
    /// rebuilt table. Pending overlay edits re-freeze once: the overlay's
    /// table becomes the new base as it stands (its hasher is the frozen
    /// table's, so nothing is rehashed) and takes in the base hosts it
    /// does not shadow; host clones are refcount bumps, so no page payload
    /// is copied.
    pub fn freeze(&mut self) -> FrozenWeb {
        if !self.overlay.is_empty() {
            // The overlay's hosts stay; base hosts fill in the names it
            // does not shadow.
            let mut hosts = std::mem::take(&mut self.overlay);
            hosts.reserve(self.base.host_count());
            for host in self.base.iter_hosts() {
                hosts
                    .entry(host.domain().clone())
                    .or_insert_with(|| host.clone());
            }
            self.base = FrozenWeb::from_hosts(hosts);
        }
        self.base.clone()
    }

    /// Resolve what a host would serve for a URL, without going through the
    /// fetcher's policy layer. This is the "server side" of the simulation.
    /// The returned body/headers are refcount bumps, not copies.
    pub fn serve(&self, url: &Url) -> ServedPage {
        match self.host(&url.host) {
            Some(host) => host.serve_path(url),
            None => ServedPage::NoSuchHost,
        }
    }
}

/// The raw outcome of asking the simulated web to serve a URL.
///
/// `Content` shares the host's interned body and prebuilt header map:
/// constructing a `ServedPage` never copies page text and never builds a
/// map.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedPage {
    /// No host by that name is registered (DNS failure analogue).
    NoSuchHost,
    /// The host is offline.
    Refused,
    /// The path is not registered on the host → 404.
    Missing,
    /// The path resolved to content.
    Content {
        /// What to serve (interned body; cloning bumped a refcount).
        content: PageContent,
        /// The complete response headers: the path's extras with the
        /// content's `content-type` set over them. A static map or one
        /// shared with the host's definition, never a fresh one; a HEAD
        /// adds `content-length` inline.
        headers: HeaderMap,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn register_and_lookup_hosts() {
        let mut web = SimulatedWeb::new();
        assert_eq!(web.freeze().host_count(), 0);
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html></html>");
        web.register(host);
        assert!(matches!(
            web.serve(&Url::parse("https://example.com/").unwrap()),
            ServedPage::Content { .. }
        ));
        assert_eq!(
            web.serve(&Url::parse("https://other.com/").unwrap()),
            ServedPage::NoSuchHost
        );
        let frozen = web.freeze();
        assert_eq!(frozen.host_count(), 1);
        assert_eq!(frozen.hosts(), vec![dn("example.com")]);
    }

    #[test]
    fn serve_content_and_missing() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html>home</html>");
        host.add_json("/.well-known/related-website-set.json", "{}");
        web.register(host);

        match web.serve(&Url::parse("https://example.com/").unwrap()) {
            ServedPage::Content { content, .. } => {
                assert_eq!(content, PageContent::Html("<html>home</html>".into()));
            }
            other => panic!("expected content, got {other:?}"),
        }
        assert!(matches!(
            web.serve(&Url::parse("https://example.com/missing").unwrap()),
            ServedPage::Missing
        ));
        assert_eq!(
            web.serve(&Url::parse("https://unknown.com/").unwrap()),
            ServedPage::NoSuchHost
        );
    }

    #[test]
    fn serve_respects_offline() {
        let mut web = SimulatedWeb::new();
        let mut down = SiteHost::new("down.com").unwrap();
        down.add_page("/", "x").set_offline(true);
        web.register(down);
        assert_eq!(
            web.serve(&Url::parse("https://down.com/").unwrap()),
            ServedPage::Refused
        );
        assert_eq!(
            web.serve(&Url::parse("http://down.com/").unwrap()),
            ServedPage::Refused
        );
    }

    #[test]
    fn per_path_headers_are_served() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("svc.example.com").unwrap();
        host.add_page("/", "service");
        host.add_header("/", "X-Robots-Tag", "noindex");
        web.register(host);
        match web.serve(&Url::parse("https://svc.example.com/").unwrap()) {
            ServedPage::Content { headers, .. } => {
                assert_eq!(headers.get("x-robots-tag"), Some("noindex"));
                assert_eq!(
                    headers.get("content-type"),
                    Some("text/html; charset=utf-8")
                );
                assert_eq!(headers.len(), 2);
            }
            other => panic!("expected content, got {other:?}"),
        }
    }

    #[test]
    fn served_headers_follow_later_content_and_headers() {
        let mut host = SiteHost::new("svc.example.com").unwrap();
        // A header registered before its page, and one with the name the
        // content sets: the content's `content-type` wins while the page
        // has one.
        host.add_header("/", "Content-Type", "text/x-custom");
        host.add_page("/", "service");
        let url = Url::parse("https://svc.example.com/").unwrap();
        let served = |host: &SiteHost| match host.serve_path(&url) {
            ServedPage::Content { headers, .. } => headers,
            other => panic!("expected content, got {other:?}"),
        };
        assert_eq!(
            served(&host).get("content-type"),
            Some("text/html; charset=utf-8")
        );
        host.add_header("/", "X-Robots-Tag", "noindex");
        assert_eq!(served(&host).get("x-robots-tag"), Some("noindex"));
        // A redirect sets no `content-type`, so the extra shows.
        host.add_content(
            "/",
            PageContent::Redirect {
                location: "/elsewhere".into(),
                permanent: false,
            },
        );
        assert_eq!(served(&host).get("content-type"), Some("text/x-custom"));
        assert_eq!(
            host.headers_for("/").unwrap().get("content-type"),
            Some("text/x-custom")
        );
        // A path without extras serves its kind's static map.
        host.add_json("/data.json", "{}");
        let json = Url::parse("https://svc.example.com/data.json").unwrap();
        match host.serve_path(&json) {
            ServedPage::Content { headers, .. } => {
                assert_eq!(
                    headers.iter().collect::<Vec<_>>(),
                    vec![("content-type", "application/json")]
                );
            }
            other => panic!("expected content, got {other:?}"),
        }
    }

    #[test]
    fn served_headers_share_the_hosts_map() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("svc.example.com").unwrap();
        host.add_page("/", "service");
        host.add_header("/", "X-Robots-Tag", "noindex");
        web.register(host);
        let url = Url::parse("https://svc.example.com/").unwrap();
        let (a, b) = match (web.serve(&url), web.serve(&url)) {
            (ServedPage::Content { headers: a, .. }, ServedPage::Content { headers: b, .. }) => {
                (a, b)
            }
            other => panic!("expected two content serves, got {other:?}"),
        };
        // Two serves hand out the same shared map, not two copies.
        assert!(a.shares_entries_with(&b));
        // So do two serves of a path without extras: its static map.
        let mut plain = SiteHost::new("plain.example.com").unwrap();
        plain.add_page("/", "plain");
        web.register(plain);
        let url = Url::parse("https://plain.example.com/").unwrap();
        match (web.serve(&url), web.serve(&url)) {
            (ServedPage::Content { headers: a, .. }, ServedPage::Content { headers: b, .. }) => {
                assert!(a.shares_entries_with(&b));
            }
            other => panic!("expected two content serves, got {other:?}"),
        }
    }

    #[test]
    fn update_host_mutates_in_place() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "x");
        web.register(host);
        assert!(web.update_host(&dn("example.com"), |h| {
            h.set_offline(true);
        }));
        assert_eq!(
            web.serve(&Url::parse("https://example.com/").unwrap()),
            ServedPage::Refused
        );
        assert!(!web.update_host(&dn("missing.com"), |_| {}));
    }

    #[test]
    fn clones_do_not_see_later_writes() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("kept.com").unwrap();
        host.add_page("/", "x");
        web.register(host);
        let clone = web.clone();

        let mut late = SiteHost::new("late.com").unwrap();
        late.add_page("/", "x");
        web.register(late);
        assert!(web.update_host(&dn("kept.com"), |h| {
            h.set_offline(true);
        }));

        let late_url = Url::parse("https://late.com/").unwrap();
        let kept_url = Url::parse("https://kept.com/").unwrap();
        assert!(matches!(web.serve(&late_url), ServedPage::Content { .. }));
        assert_eq!(web.serve(&kept_url), ServedPage::Refused);
        // The clone keeps serving what it held when it was taken.
        assert_eq!(clone.serve(&late_url), ServedPage::NoSuchHost);
        assert!(matches!(clone.serve(&kept_url), ServedPage::Content { .. }));
    }

    #[test]
    fn freeze_produces_lock_free_equivalent_reads() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html>frozen home</html>");
        host.add_header("/", "X-Robots-Tag", "noindex");
        web.register(host);
        let url = Url::parse("https://example.com/").unwrap();
        let before = web.serve(&url);
        let frozen = web.freeze();
        assert_eq!(frozen.serve(&url), before);
        assert_eq!(web.serve(&url), before);
        assert_eq!(frozen.host_count(), 1);
        assert_eq!(frozen.hosts(), vec![dn("example.com")]);
        assert_eq!(
            frozen.page_html(&dn("example.com"), "/"),
            Some("<html>frozen home</html>")
        );
        assert!(frozen.page_html(&dn("example.com"), "/missing").is_none());
        assert!(frozen.page_html(&dn("missing.com"), "/").is_none());
    }

    #[test]
    fn served_body_is_a_refcount_bump_of_the_interned_page() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html>interned</html>");
        web.register(host);
        let frozen = web.freeze();
        let url = Url::parse("https://example.com/").unwrap();
        let interned_ptr = frozen
            .page_body(&dn("example.com"), "/")
            .unwrap()
            .as_bytes()
            .as_ptr();
        match frozen.serve(&url) {
            ServedPage::Content { content, .. } => {
                let body = content.body().unwrap();
                assert_eq!(body.as_bytes().as_ptr(), interned_ptr, "body was copied");
            }
            other => panic!("expected content, got {other:?}"),
        }
    }

    #[test]
    fn served_redirect_shares_its_target() {
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_content(
            "/old",
            PageContent::Redirect {
                location: "https://example.org/".into(),
                permanent: true,
            },
        );
        let Some(PageContent::Redirect {
            location: registered,
            ..
        }) = host.page("/old")
        else {
            panic!("expected the registered redirect");
        };
        match host.serve_path(&Url::parse("https://example.com/old").unwrap()) {
            ServedPage::Content {
                content: PageContent::Redirect { location, .. },
                ..
            } => assert!(Arc::ptr_eq(&location, registered), "target was copied"),
            other => panic!("expected a redirect, got {other:?}"),
        }
    }

    #[test]
    fn post_freeze_writes_go_to_the_overlay_and_spare_the_snapshot() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "stable");
        web.register(host);
        let frozen = web.freeze();

        // A new host lands in the overlay: visible through the web, not the
        // earlier snapshot.
        let mut late = SiteHost::new("late.com").unwrap();
        late.add_page("/", "late");
        web.register(late);
        let late_url = Url::parse("https://late.com/").unwrap();
        assert!(matches!(web.serve(&late_url), ServedPage::Content { .. }));
        assert!(!frozen.has_host(&dn("late.com")));

        // A copy-on-write mutation of a frozen host: the web serves the new
        // behaviour, the snapshot keeps the original.
        assert!(web.update_host(&dn("example.com"), |h| {
            h.set_offline(true);
        }));
        let url = Url::parse("https://example.com/").unwrap();
        assert_eq!(web.serve(&url), ServedPage::Refused);
        assert!(matches!(frozen.serve(&url), ServedPage::Content { .. }));

        // Re-freezing folds the overlay in.
        let refrozen = web.freeze();
        assert_eq!(refrozen.host_count(), 2);
        assert_eq!(refrozen.serve(&url), ServedPage::Refused);
    }

    #[test]
    fn web_over_a_frozen_store_spares_it() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "x");
        web.register(host);
        let frozen = web.freeze();
        let mut view = SimulatedWeb::from_frozen(frozen.clone());
        let url = Url::parse("https://example.com/").unwrap();
        assert_eq!(view.serve(&url), frozen.serve(&url));
        // Writes to the view do not disturb the snapshot.
        view.update_host(&dn("example.com"), |h| {
            h.set_offline(true);
        });
        assert!(!frozen.host(&dn("example.com")).unwrap().is_offline());
    }

    #[test]
    fn site_host_paths_sorted() {
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/b", "x").add_page("/a", "y");
        assert_eq!(host.paths(), vec!["/a", "/b"]);
        assert!(host.page("/a").is_some());
        assert!(host.page("/missing").is_none());
    }

    #[test]
    fn page_body_behaves_like_its_text() {
        let body = PageBody::from("héllo <b>world</b>");
        assert_eq!(body.as_str(), "héllo <b>world</b>");
        assert_eq!(body, "héllo <b>world</b>");
        assert_eq!(body.len(), "héllo <b>world</b>".len());
        assert!(!body.is_empty());
        assert!(PageBody::default().is_empty());
        assert_eq!(format!("{body}"), "héllo <b>world</b>");
        assert_eq!(format!("{body:?}"), format!("{:?}", "héllo <b>world</b>"));
        // Clones share the buffer.
        let clone = body.clone();
        assert_eq!(clone.as_bytes().as_ptr(), body.as_bytes().as_ptr());
        // bytes() shares it too.
        assert_eq!(body.bytes().as_ptr(), body.as_bytes().as_ptr());
    }

    #[test]
    fn page_body_rejects_non_utf8_bytes() {
        // The only constructor that can admit raw bytes checks them; the
        // `str`/`String` constructors are valid by their argument types.
        assert!(PageBody::from_utf8(Bytes::from_static(b"\xFF\xFEbad")).is_none());
        // A lone continuation byte is also rejected.
        assert!(PageBody::from_utf8(Bytes::from_static(b"ok \x80")).is_none());
        let ok = PageBody::from_utf8(Bytes::from_static("héllo".as_bytes())).unwrap();
        assert_eq!(ok.as_str(), "héllo");
    }

    #[test]
    fn truncated_snaps_to_char_boundaries() {
        let body = PageBody::from("héllo"); // 'é' spans bytes 1..3
        assert_eq!(body.truncated(2).as_str(), "h"); // mid-'é' snaps down
        assert_eq!(body.truncated(3).as_str(), "hé");
        assert_eq!(body.truncated(0).as_str(), "");
        // At or past the length: shared, not copied.
        let full = body.truncated(body.len());
        assert_eq!(full.as_bytes().as_ptr(), body.as_bytes().as_ptr());
        let past = body.truncated(body.len() + 10);
        assert_eq!(past.as_str(), "héllo");
        // The result is always valid UTF-8 at every cut point.
        for cut in 0..=body.len() {
            let t = body.truncated(cut);
            assert!(std::str::from_utf8(t.as_bytes()).is_ok());
            assert!(t.len() <= cut);
        }
    }
}
