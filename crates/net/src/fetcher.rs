//! The fetcher client: policy-driven retrieval from the simulated web.

use crate::error::NetError;
use crate::fault::{Fault, FaultPlan, FetchSession};
use crate::headers::HeaderMap;
use crate::message::{Method, Response, StatusCode};
use crate::url::Url;
use crate::web::{PageBody, PageContent, ServedPage, SimulatedWeb};
use bytes::Bytes;
use rws_stats::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulated cost of one hop before any body arrives (connection and time
/// to first byte), in milliseconds.
const HOP_BASE_MS: u64 = 40;

/// Simulated transfer cost of each whole KiB of a hop's served body, in
/// milliseconds.
const HOP_PER_KIB_MS: u64 = 2;

/// The body an injected 5xx answers with.
const SERVER_ERROR_BODY: &str = "injected transient server error";

/// Client-side fetch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchPolicy {
    /// Maximum number of redirects to follow before giving up.
    pub max_redirects: usize,
    /// If true, any non-https URL (initial or redirect target) fails with
    /// [`NetError::HttpsRequired`] — the posture of the RWS validation bot.
    pub require_https: bool,
    /// Simulated deadline in milliseconds; responses whose accumulated
    /// latency exceeds it fail with [`NetError::Timeout`].
    pub deadline_ms: u64,
}

impl Default for FetchPolicy {
    fn default() -> Self {
        FetchPolicy {
            max_redirects: 5,
            require_https: false,
            deadline_ms: 30_000,
        }
    }
}

impl FetchPolicy {
    /// The policy used by the RWS validation bot: HTTPS required, few
    /// redirects, a short deadline.
    pub fn strict() -> FetchPolicy {
        FetchPolicy {
            max_redirects: 3,
            require_https: true,
            deadline_ms: 10_000,
        }
    }
}

/// How (and whether) a fetcher retries retryable failures.
///
/// Backoff is *simulated*: the milliseconds accumulate on the
/// [`FetchOutcome`] instead of being slept, and the jitter is drawn from
/// the caller's [`FetchSession`] rng stream — never from wall clock — so
/// retry schedules replay identically, pooled or sequential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included); 1 disables retry.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated milliseconds.
    pub base_backoff_ms: u64,
    /// Cap on the exponential backoff, in simulated milliseconds.
    pub max_backoff_ms: u64,
}

impl RetryPolicy {
    /// No retries: every request gets exactly one attempt. This is the
    /// default, so plain fetchers behave exactly as they did before retry
    /// existed.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
        }
    }

    /// The standard production posture: up to 4 attempts, exponential
    /// backoff 50ms → 3.2s with equal jitter.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 50,
            max_backoff_ms: 3_200,
        }
    }

    /// Simulated backoff before the retry that follows `failed_attempts`
    /// failures (so the first retry passes 1). "Equal jitter": half the
    /// capped exponential is kept, the other half is drawn from `rng` — a
    /// derived stream, to keep replays deterministic.
    fn backoff_for(&self, failed_attempts: u32, rng: &mut impl Rng) -> u64 {
        let shift = failed_attempts.saturating_sub(1).min(16);
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ms.max(self.base_backoff_ms));
        if exp <= 1 {
            return exp;
        }
        exp / 2 + rng.range_u64(0, exp / 2 + 1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// What a retrying fetch ([`Fetcher::get_with`], [`Fetcher::head_with`])
/// produced, beyond the result itself: how many attempts it took and how
/// much simulated backoff accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchOutcome {
    /// The final result (of the last attempt).
    pub result: Result<Response, NetError>,
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Total simulated backoff spent between attempts, in milliseconds.
    pub backoff_ms: u64,
}

impl FetchOutcome {
    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// A deterministic HTTP client over a [`SimulatedWeb`] it owns.
///
/// Every hop is decided here: the fetcher asks the web for the page,
/// applies the fault its [`FaultPlan`] schedules (if any), and prices the
/// hop in simulated time — 40 ms, plus 2 ms per whole KiB of served body,
/// plus any latency spike. The fetcher counts every request it issues
/// (including redirect hops) on one relaxed atomic, so it stays `Sync` and
/// experiments can report crawl sizes without a lock on the load engine's
/// hot path.
#[derive(Debug)]
pub struct Fetcher {
    web: SimulatedWeb,
    policy: FetchPolicy,
    /// Requests issued so far.
    requests: AtomicU64,
    /// Injection additionally requires the caller to pass a
    /// [`FetchSession`] (the session-aware entry points), so plain
    /// `get`/`head` stay on the zero-overhead path even when a plan is
    /// installed.
    faults: Option<FaultPlan>,
    /// The body of an injected 5xx, interned once by
    /// [`with_faults`](Fetcher::with_faults), so a faulted hop allocates
    /// nothing.
    server_error_body: PageBody,
    retry: RetryPolicy,
}

impl Fetcher {
    /// Create a fetcher with the default policy.
    pub fn new(web: SimulatedWeb) -> Fetcher {
        Fetcher::with_policy(web, FetchPolicy::default())
    }

    /// Create a fetcher with an explicit policy.
    pub fn with_policy(web: SimulatedWeb, policy: FetchPolicy) -> Fetcher {
        Fetcher {
            web,
            policy,
            requests: AtomicU64::new(0),
            faults: None,
            server_error_body: PageBody::default(),
            retry: RetryPolicy::none(),
        }
    }

    /// Install a fault plan. Faults only fire on session-aware fetches
    /// ([`get_with`](Fetcher::get_with) and friends); see
    /// [`crate::fault`] for what each kind does to a hop.
    pub fn with_faults(mut self, plan: FaultPlan) -> Fetcher {
        self.faults = Some(plan);
        self.server_error_body = PageBody::from(SERVER_ERROR_BODY);
        self
    }

    /// Set the retry policy used by the retrying entry points.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Fetcher {
        self.retry = retry;
        self
    }

    /// The web this fetcher owns, for registering or editing hosts between
    /// fetches.
    pub fn web_mut(&mut self) -> &mut SimulatedWeb {
        &mut self.web
    }

    /// Number of requests issued so far (including redirect hops).
    pub fn requests_issued(&self) -> usize {
        self.requests.load(Ordering::Relaxed) as usize
    }

    /// GET a URL, following redirects per policy. Session-less: never
    /// faulted, never retried — the zero-overhead path.
    pub fn get(&self, url: &Url) -> Result<Response, NetError> {
        self.execute(Method::Get, url, None)
    }

    /// HEAD a URL, following redirects per policy. The response body is
    /// always empty but headers and status are as GET would produce.
    pub fn head(&self, url: &Url) -> Result<Response, NetError> {
        self.execute(Method::Head, url, None)
    }

    /// GET with faults and retries: the session-aware, policy-retrying
    /// counterpart of [`get`](Fetcher::get).
    pub fn get_with(&self, url: &Url, session: &mut FetchSession) -> FetchOutcome {
        self.retrying(Method::Get, url, session)
    }

    /// HEAD with faults and retries.
    pub fn head_with(&self, url: &Url, session: &mut FetchSession) -> FetchOutcome {
        self.retrying(Method::Head, url, session)
    }

    /// Fetch `url` under this fetcher's [`RetryPolicy`]: each attempt
    /// advances the session's per-host ordinals (so the installed fault
    /// plan may fault it), and a failure is retried while the error
    /// [is retryable](NetError::is_retryable), attempts remain and the
    /// session's retry budget holds, accumulating simulated backoff (with
    /// jitter from the session's rng stream) into the returned
    /// [`FetchOutcome`].
    fn retrying(&self, method: Method, url: &Url, session: &mut FetchSession) -> FetchOutcome {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut backoff_ms = 0u64;
        loop {
            attempts += 1;
            let result = self.execute(method, url, Some(&mut *session));
            let retry = match &result {
                Ok(_) => false,
                Err(err) => {
                    attempts < max_attempts && err.is_retryable() && session.try_spend_retry()
                }
            };
            if !retry {
                return FetchOutcome {
                    result,
                    attempts,
                    backoff_ms,
                };
            }
            backoff_ms += self.retry.backoff_for(attempts, session.rng_mut());
        }
    }

    fn execute(
        &self,
        method: Method,
        start: &Url,
        mut session: Option<&mut FetchSession>,
    ) -> Result<Response, NetError> {
        let mut current = start.clone();
        let mut total_latency: u64 = 0;
        let mut redirects = 0usize;

        loop {
            if self.policy.require_https && !current.is_https() {
                return Err(NetError::HttpsRequired { url: current });
            }
            self.requests.fetch_add(1, Ordering::Relaxed);

            // The plan fires only when one is installed AND the caller
            // supplied a session (the ordinal source): one `Option` match
            // per hop otherwise — plain fetches pay nothing.
            let scheduled = match (&self.faults, session.as_deref_mut()) {
                (Some(plan), Some(session)) => Some((plan, session.next_ordinal(&current.host))),
                _ => None,
            };
            // The served body and header map move into the response: the
            // body is the interned page's buffer and the map a static or
            // prebuilt one, so the hop copies nothing. `location` is the
            // shared target a `Redirect` page names; a redirect hop's
            // headers are dropped.
            let (mut status, mut headers, mut body, mut location) = match self.web.serve(&current) {
                ServedPage::NoSuchHost => {
                    return Err(NetError::HostNotFound { host: current.host })
                }
                ServedPage::Refused => {
                    return Err(NetError::ConnectionRefused { host: current.host })
                }
                ServedPage::Missing => (
                    StatusCode::NOT_FOUND,
                    HeaderMap::new(),
                    PageBody::default(),
                    None,
                ),
                ServedPage::Content { content, headers } => match content {
                    PageContent::Html(body) | PageContent::Json(body) => {
                        (StatusCode::OK, headers, body, None)
                    }
                    PageContent::Redirect {
                        location,
                        permanent,
                    } => {
                        let status = if permanent {
                            StatusCode::MOVED_PERMANENTLY
                        } else {
                            StatusCode::FOUND
                        };
                        (status, headers, PageBody::default(), Some(location))
                    }
                },
            };

            // Faults model outages of live hosts, so they reshape only a
            // hop the host answered.
            let mut spike_ms = 0;
            match scheduled.and_then(|(plan, ordinal)| plan.fault_at(&current.host, ordinal)) {
                None => {}
                Some(Fault::Refuse) => {
                    return Err(NetError::ConnectionRefused { host: current.host })
                }
                Some(Fault::LatencySpike { extra_ms }) => spike_ms = extra_ms,
                Some(Fault::ServerError { status: injected }) => {
                    status = injected;
                    headers = HeaderMap::new();
                    body = self.server_error_body.clone();
                }
                Some(Fault::TruncateBody { keep_per_mille }) => {
                    let keep = body.len() as u64 * u64::from(keep_per_mille) / 1000;
                    body = body.truncated(keep as usize);
                }
                // A storm names no target: the next hop re-requests
                // `current`, so consecutive ordinals stay inside the burst
                // window until it ends or the redirect limit is reached.
                Some(Fault::RedirectStorm) => {
                    status = StatusCode::FOUND;
                    body = PageBody::default();
                    location = None;
                }
            }

            total_latency += HOP_BASE_MS + HOP_PER_KIB_MS * (body.len() as u64 / 1024) + spike_ms;
            if total_latency > self.policy.deadline_ms {
                // The deadline covers the whole chain: attribute the timeout
                // to the chain (start + hops followed), not just the hop it
                // happened to die on. Without a redirect `current` is still
                // the chain entry, so only a redirected chain boxes `start`.
                return Err(NetError::Timeout {
                    start: (redirects > 0).then(|| Box::new(start.clone())),
                    url: current,
                    latency_ms: total_latency,
                    deadline_ms: self.policy.deadline_ms,
                    redirects_followed: redirects,
                });
            }

            if status.is_redirect() {
                if redirects >= self.policy.max_redirects {
                    return Err(NetError::TooManyRedirects {
                        start: start.clone(),
                        limit: self.policy.max_redirects,
                    });
                }
                if let Some(target) = location {
                    current = current.join(&target)?;
                }
                redirects += 1;
                continue;
            }

            // HEAD advertises the length of the body GET would have served
            // (after any fault truncated it) and drops the body itself; the
            // map keeps the length inline, so this allocates nothing.
            let body_bytes = if method == Method::Head {
                headers.set_content_length(body.len());
                Bytes::new()
            } else {
                body.into_bytes()
            };
            return Ok(Response {
                url: current,
                status,
                headers,
                body: body_bytes,
                latency_ms: total_latency,
                redirects_followed: redirects,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::SiteHost;

    fn web_with_example() -> SimulatedWeb {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html><body>home page</body></html>");
        host.add_json("/data.json", r#"{"ok": true}"#);
        host.add_content(
            "/old",
            PageContent::Redirect {
                location: "/".into(),
                permanent: true,
            },
        );
        host.add_content(
            "/loop",
            PageContent::Redirect {
                location: "/loop".into(),
                permanent: false,
            },
        );
        web.register(host);
        web
    }

    #[test]
    fn get_success() {
        let fetcher = Fetcher::new(web_with_example());
        let resp = fetcher
            .get(&Url::parse("https://example.com/").unwrap())
            .unwrap();
        assert!(resp.status.is_success());
        assert!(resp.body_text().contains("home page"));
        assert_eq!(resp.content_type(), Some("text/html; charset=utf-8"));
        assert!(resp.latency_ms > 0);
        assert_eq!(fetcher.requests_issued(), 1);
    }

    #[test]
    fn get_missing_path_is_404_response_not_error() {
        let fetcher = Fetcher::new(web_with_example());
        let resp = fetcher
            .get(&Url::parse("https://example.com/nope").unwrap())
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn get_unknown_host_is_error() {
        let fetcher = Fetcher::new(web_with_example());
        let err = fetcher
            .get(&Url::parse("https://unknown.example/").unwrap())
            .unwrap_err();
        assert!(matches!(err, NetError::HostNotFound { .. }));
    }

    #[test]
    fn redirects_are_followed() {
        let fetcher = Fetcher::new(web_with_example());
        let resp = fetcher
            .get(&Url::parse("https://example.com/old").unwrap())
            .unwrap();
        assert!(resp.status.is_success());
        assert_eq!(resp.redirects_followed, 1);
        assert_eq!(resp.url.path, "/");
        // Two requests logged: the redirect and the destination.
        assert_eq!(fetcher.requests_issued(), 2);
    }

    #[test]
    fn redirect_loops_are_bounded() {
        let fetcher = Fetcher::new(web_with_example());
        let err = fetcher
            .get(&Url::parse("https://example.com/loop").unwrap())
            .unwrap_err();
        assert!(matches!(err, NetError::TooManyRedirects { .. }));
    }

    #[test]
    fn https_required_policy_rejects_http() {
        let fetcher = Fetcher::with_policy(web_with_example(), FetchPolicy::strict());
        let err = fetcher
            .get(&Url::parse("http://example.com/").unwrap())
            .unwrap_err();
        assert!(matches!(err, NetError::HttpsRequired { .. }));
    }

    #[test]
    fn every_redirect_hop_is_counted() {
        let fetcher = Fetcher::new(web_with_example());
        let url = Url::parse("https://example.com/old").unwrap();
        fetcher.get(&url).unwrap();
        assert_eq!(fetcher.requests_issued(), 2); // redirect hop + landing
    }

    #[test]
    fn head_has_empty_body_but_headers() {
        let fetcher = Fetcher::new(web_with_example());
        let resp = fetcher
            .head(&Url::parse("https://example.com/").unwrap())
            .unwrap();
        assert!(resp.status.is_success());
        assert!(resp.body.is_empty());
        assert!(resp.headers.contains("content-type"));
        // HEAD reports the length GET would have served, not 0.
        assert_eq!(
            resp.headers.get("content-length"),
            Some(
                "<html><body>home page</body></html>"
                    .len()
                    .to_string()
                    .as_str()
            )
        );
    }

    #[test]
    fn offline_host_refuses_connection() {
        let mut web = web_with_example();
        web.update_host(
            &rws_domain::DomainName::parse("example.com").unwrap(),
            |h| {
                h.set_offline(true);
            },
        );
        let fetcher = Fetcher::new(web);
        let err = fetcher
            .get(&Url::parse("https://example.com/").unwrap())
            .unwrap_err();
        assert!(matches!(err, NetError::ConnectionRefused { .. }));
    }

    #[test]
    fn timeout_when_latency_exceeds_deadline() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("slow.com").unwrap();
        host.add_page("/", "x");
        web.register(host);
        // One hop costs 40 ms, past a 30 ms deadline.
        let policy = FetchPolicy {
            deadline_ms: 30,
            ..FetchPolicy::default()
        };
        let fetcher = Fetcher::with_policy(web, policy);
        let err = fetcher
            .get(&Url::parse("https://slow.com/").unwrap())
            .unwrap_err();
        // No redirect was followed, so the chain entry is the fatal hop
        // itself and is not boxed a second time.
        assert!(
            matches!(
                err,
                NetError::Timeout {
                    start: None,
                    latency_ms: 40,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().starts_with(
            "request starting at 'https://slow.com/' timed out at 'https://slow.com/'"
        ));
    }

    #[test]
    fn hops_are_priced_by_served_body_size() {
        let mut web = web_with_example();
        web.update_host(
            &rws_domain::DomainName::parse("example.com").unwrap(),
            |h| {
                h.add_page("/big", "x".repeat(2 * 1024 + 1023));
            },
        );
        let fetcher = Fetcher::new(web);
        let latency = |path: &str| {
            let url = Url::parse(&format!("https://example.com{path}")).unwrap();
            let get = fetcher.get(&url).unwrap().latency_ms;
            // HEAD serves no body but is priced by the one GET would get.
            assert_eq!(fetcher.head(&url).unwrap().latency_ms, get);
            get
        };
        // 40 ms a hop, plus 2 ms per whole KiB of body.
        assert_eq!(latency("/"), 40);
        assert_eq!(latency("/big"), 44);
        assert_eq!(latency("/nope"), 40);
        // A redirect hop has no body: 40 ms, then the landing page's.
        assert_eq!(latency("/old"), 80);
    }

    /// A fetcher over `web` whose plan faults every window of every host,
    /// with one-hop storms ruled out by a 32-request window.
    fn faulting_everything(web: SimulatedWeb, seed: u64) -> (Fetcher, FaultPlan) {
        let plan = FaultPlan::new(
            seed,
            crate::FaultScale {
                fault_per_mille: 1000,
                burst_len: 32,
                spike_ms: 60_000,
            },
        );
        (Fetcher::new(web).with_faults(plan), plan)
    }

    #[test]
    fn permanent_failures_pass_through_untouched() {
        let mut web = SimulatedWeb::new();
        let mut down = SiteHost::new("perm.example").unwrap();
        down.add_page("/x", "x").set_offline(true);
        web.register(down);
        let (fetcher, _) = faulting_everything(web, 3);
        let down = Url::parse("https://perm.example/x").unwrap();
        let unknown = Url::parse("https://nowhere.example/x").unwrap();
        let mut session = FetchSession::new(1, "perm");
        for _ in 0..32 {
            let outcome = fetcher.get_with(&unknown, &mut session);
            assert!(matches!(outcome.result, Err(NetError::HostNotFound { .. })));
            let outcome = fetcher.get_with(&down, &mut session);
            assert!(matches!(
                outcome.result,
                Err(NetError::ConnectionRefused { .. })
            ));
        }
        // Each attempt still advanced its host's ordinal.
        assert_eq!(session.next_ordinal(&unknown.host), 32);
        assert_eq!(session.next_ordinal(&down.host), 32);
    }

    #[test]
    fn every_fault_kind_shapes_the_hop_as_documented() {
        let body = r#"{"k": "vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv"}"#;
        let mut web = SimulatedWeb::new();
        for i in 0..512 {
            let mut host = SiteHost::new(&format!("kind{i}.example")).unwrap();
            host.add_json("/data.json", body);
            web.register(host);
        }
        let (fetcher, plan) = faulting_everything(web, 11);
        let mut seen = std::collections::HashSet::new();
        // Distinct hosts draw distinct windows; sweep until every kind of
        // fault has been observed against live content.
        for i in 0..512 {
            let url = Url::parse(&format!("https://kind{i}.example/data.json")).unwrap();
            let fault = plan.fault_at(&url.host, 0).expect("every window faults");
            let outcome = fetcher.get_with(&url, &mut FetchSession::new(1, "kind"));
            assert_eq!(outcome.attempts, 1, "no retry policy is installed");
            match (fault, outcome.result) {
                (Fault::Refuse, Err(NetError::ConnectionRefused { host })) => {
                    assert_eq!(host, url.host)
                }
                (
                    Fault::LatencySpike { extra_ms },
                    Err(NetError::Timeout {
                        start: None,
                        url: at,
                        latency_ms,
                        redirects_followed: 0,
                        ..
                    }),
                ) => {
                    assert_eq!(at, url);
                    assert_eq!(latency_ms, HOP_BASE_MS + extra_ms);
                }
                (Fault::ServerError { status }, Ok(resp)) => {
                    assert!(status.is_server_error(), "{status:?}");
                    assert_eq!(resp.status, status);
                    assert!(resp.headers.is_empty());
                    assert_eq!(resp.body_text(), SERVER_ERROR_BODY);
                    assert_eq!(resp.latency_ms, HOP_BASE_MS);
                    assert_eq!((resp.url, resp.redirects_followed), (url, 0));
                }
                (Fault::TruncateBody { keep_per_mille }, Ok(resp)) => {
                    let keep = body.len() * keep_per_mille as usize / 1000;
                    assert_eq!(resp.status, StatusCode::OK);
                    assert_eq!(resp.content_type(), Some("application/json"));
                    assert_eq!(resp.body_text(), body[..keep]);
                    assert!(resp.body.len() < body.len(), "body not truncated");
                    assert_eq!(resp.latency_ms, HOP_BASE_MS);
                    assert_eq!((resp.url, resp.redirects_followed), (url, 0));
                }
                // The window outlasts the redirect limit: every hop
                // re-requested the same URL.
                (Fault::RedirectStorm, Err(NetError::TooManyRedirects { start, limit })) => {
                    assert_eq!((start, limit), (url, 5));
                }
                (fault, other) => panic!("{fault:?} produced {other:?}"),
            }
            seen.insert(std::mem::discriminant(&fault));
        }
        assert_eq!(seen.len(), 5, "not every fault kind was exercised");
    }
}
