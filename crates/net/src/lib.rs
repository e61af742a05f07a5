//! Simulated HTTP substrate for the Related Website Sets reproduction.
//!
//! The paper's tooling crawls the live Web: it fetches every proposed set
//! member's `/.well-known/related-website-set.json` file, checks HTTPS and
//! `X-Robots-Tag` headers (service sites must not be indexable), downloads
//! page HTML for the similarity analysis in Figure 4, and confirms that
//! survey sites are live. This environment is offline, so this crate
//! provides a deterministic, in-process stand-in for that Web:
//!
//! * [`Url`] — a small, strict URL type (scheme, host, port, path, query)
//!   restricted to the `http`/`https` schemes the study needs;
//! * [`Method`]/[`Response`]/[`HeaderMap`]/[`StatusCode`] — an HTTP message
//!   model sufficient for header- and status-level validation;
//! * [`SimulatedWeb`] — a registry mapping hosts to [`SiteHost`]s with
//!   routable paths, redirects, latency and failure injection; page bodies
//!   are interned ([`PageBody`]) and [`SimulatedWeb::freeze`] snapshots the
//!   registry into a [`FrozenWeb`], the one frozen page store: a single
//!   `Arc`-shared host table, lock-free and borrow-friendly to read;
//! * [`Fetcher`] — a client with redirect following, HTTPS enforcement and
//!   a request count, which is what the validation bot and corpus crawler use;
//! * [`FaultPlan`]/[`FaultInjector`] — deterministic transient-fault
//!   injection (refusals, latency spikes, 5xx bursts, truncated bodies,
//!   redirect storms) derived purely from `(seed, host, request ordinal)`,
//!   paired with a [`RetryPolicy`] whose backoff jitter comes from a
//!   derived rng stream, so fault-and-retry schedules replay identically.
//!
//! Everything is synchronous and deterministic: "latency" is simulated time
//! carried on the response, not wall-clock sleeping, so experiments are
//! exactly reproducible.
//!
//! ```
//! use rws_net::{Fetcher, SimulatedWeb, SiteHost, Url};
//!
//! let mut web = SimulatedWeb::new();
//! let mut host = SiteHost::new("example.com").unwrap();
//! host.add_page("/", "<html><body>Hello</body></html>");
//! web.register(host);
//!
//! let fetcher = Fetcher::new(web);
//! let resp = fetcher.get(&Url::parse("https://example.com/").unwrap()).unwrap();
//! assert!(resp.status.is_success());
//! assert!(resp.body_text().contains("Hello"));
//! ```

pub mod error;
pub mod fault;
pub mod fetcher;
pub mod headers;
pub mod message;
pub mod store;
pub mod url;
pub mod web;
pub mod well_known;

pub use error::NetError;
pub use fault::{Fault, FaultInjector, FaultPlan, FaultScale, FetchSession};
pub use fetcher::{FetchOutcome, FetchPolicy, Fetcher, RetryPolicy};
pub use headers::HeaderMap;
pub use message::{Method, Response, StatusCode};
pub use store::{FrozenWeb, StoreStats};
pub use url::Url;
pub use web::{LatencyModel, PageBody, PageContent, ServedPage, SimulatedWeb, SiteHost};
pub use well_known::{well_known_path, WELL_KNOWN_RWS_PATH, X_ROBOTS_TAG};
