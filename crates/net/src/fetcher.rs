//! The fetcher client: policy-driven retrieval from the simulated web.

use crate::error::NetError;
use crate::fault::{FaultInjector, FetchSession};
use crate::headers::HeaderMap;
use crate::message::{Method, Response, StatusCode};
use crate::url::Url;
use crate::web::{PageContent, ServedPage, SimulatedWeb};
use bytes::Bytes;
use rws_stats::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

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
/// The fetcher counts every request it issues (including redirect hops) on
/// one relaxed atomic, so it stays `Sync` and experiments can report crawl
/// sizes without a lock on the load engine's hot path.
#[derive(Debug)]
pub struct Fetcher {
    web: SimulatedWeb,
    policy: FetchPolicy,
    /// Requests issued so far.
    requests: AtomicU64,
    /// Injection additionally requires the caller to pass a
    /// [`FetchSession`] (the session-aware entry points), so plain
    /// `get`/`head` stay on the zero-overhead path even when an injector is
    /// installed.
    faults: Option<FaultInjector>,
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
            retry: RetryPolicy::none(),
        }
    }

    /// Install a fault injector. Faults only fire on session-aware fetches
    /// ([`get_with`](Fetcher::get_with) and friends).
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Fetcher {
        self.faults = Some(injector);
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
    /// injector may fault it), and a failure is retried while the error
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

            // The fault overlay fires only when an injector is installed
            // AND the caller supplied a session (the ordinal source): one
            // `Option` match per hop otherwise — plain fetches pay nothing.
            let served = match (&self.faults, session.as_deref_mut()) {
                (Some(injector), Some(session)) => {
                    let ordinal = session.next_ordinal(&current.host);
                    injector.apply(&current, ordinal, self.web.serve(&current))
                }
                _ => self.web.serve(&current),
            };
            // The served body and header map move into the response: the
            // body is the interned page's buffer and the map a static or
            // prebuilt one, so the hop copies nothing. `location` is the
            // target a `Redirect` page names; a redirect hop's headers are
            // dropped.
            let (status, mut headers, body, latency, location) = match served {
                ServedPage::NoSuchHost => {
                    return Err(NetError::HostNotFound { host: current.host })
                }
                ServedPage::Refused | ServedPage::TlsUnavailable => {
                    return Err(NetError::ConnectionRefused { host: current.host })
                }
                ServedPage::Missing { latency } => (
                    StatusCode::NOT_FOUND,
                    HeaderMap::new(),
                    Bytes::new(),
                    latency.latency_for(0),
                    None,
                ),
                ServedPage::Content {
                    content,
                    headers,
                    latency,
                } => match content {
                    PageContent::Html(body) | PageContent::Json(body) | PageContent::Text(body) => {
                        let lat = latency.latency_for(body.len());
                        (StatusCode::OK, headers, body.into_bytes(), lat, None)
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
                        (
                            status,
                            headers,
                            Bytes::new(),
                            latency.latency_for(0),
                            Some(location),
                        )
                    }
                    PageContent::Error { status, body } => {
                        let lat = latency.latency_for(body.len());
                        (status, headers, body.into_bytes(), lat, None)
                    }
                },
            };

            total_latency += latency;
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
                // A 3xx error page names no target of its own: it may carry
                // a `Location` extra header, else it sends the client home.
                let target = location
                    .as_deref()
                    .unwrap_or_else(|| headers.get("location").unwrap_or("/"));
                current = current.join(target)?;
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
                body
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
                location: "/".to_string(),
                permanent: true,
            },
        );
        host.add_content(
            "/loop",
            PageContent::Redirect {
                location: "/loop".to_string(),
                permanent: false,
            },
        );
        host.add_content(
            "/gone",
            PageContent::Error {
                status: StatusCode::GONE,
                body: "gone".into(),
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
    fn redirect_status_pages_follow_their_location_header() {
        let mut web = web_with_example();
        web.update_host(
            &rws_domain::DomainName::parse("example.com").unwrap(),
            |h| {
                let moved = PageContent::Error {
                    status: StatusCode(307),
                    body: "moved".into(),
                };
                h.add_content("/moved", moved.clone());
                h.add_header("/moved", "Location", "/data.json");
                h.add_content("/bare", moved);
            },
        );
        let fetcher = Fetcher::new(web);
        let resp = fetcher
            .get(&Url::parse("https://example.com/moved").unwrap())
            .unwrap();
        assert_eq!(resp.url.path, "/data.json");
        assert_eq!(resp.redirects_followed, 1);
        // Without a `Location` header a redirect status sends the client home.
        let resp = fetcher
            .get(&Url::parse("https://example.com/bare").unwrap())
            .unwrap();
        assert_eq!(resp.url.path, "/");
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
    fn error_pages_return_their_status() {
        let fetcher = Fetcher::new(web_with_example());
        let resp = fetcher
            .get(&Url::parse("https://example.com/gone").unwrap())
            .unwrap();
        assert_eq!(resp.status, StatusCode::GONE);
        assert_eq!(resp.body_text(), "gone");
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
        host.set_latency(crate::web::LatencyModel {
            base_ms: 50_000,
            per_kb_ms: 0,
        });
        web.register(host);
        let fetcher = Fetcher::new(web);
        let err = fetcher
            .get(&Url::parse("https://slow.com/").unwrap())
            .unwrap_err();
        // No redirect was followed, so the chain entry is the fatal hop
        // itself and is not boxed a second time.
        assert!(
            matches!(err, NetError::Timeout { start: None, .. }),
            "{err:?}"
        );
        assert!(err.to_string().starts_with(
            "request starting at 'https://slow.com/' timed out at 'https://slow.com/'"
        ));
    }
}
