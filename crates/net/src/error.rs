//! Error types for the simulated network layer.

use crate::message::StatusCode;
use crate::url::Url;
use rws_domain::DomainName;
use std::fmt;

/// Failures that the simulated fetcher can report.
///
/// These mirror the failure classes the RWS validation bot distinguishes
/// ("unable to fetch the .well-known JSON file" covers DNS failure,
/// connection refusal, non-success statuses and malformed payloads alike).
///
/// Variants hold the host or URL they concern, not a formatted string: a
/// failed attempt moves names it already has into the error, and only
/// [`Display`](fmt::Display) formats them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The URL string could not be parsed.
    InvalidUrl {
        /// The offending input.
        input: String,
        /// Human-readable reason.
        reason: String,
    },
    /// No host with that name is registered in the simulated web.
    HostNotFound {
        /// The host that failed to resolve.
        host: DomainName,
    },
    /// The host exists but refused the connection (simulated outage).
    ConnectionRefused {
        /// The unreachable host.
        host: DomainName,
    },
    /// The request required HTTPS but the URL (or a redirect target) was
    /// plain HTTP. The RWS submission guidelines forbid non-HTTPS sites.
    HttpsRequired {
        /// The offending URL.
        url: Url,
    },
    /// The server answered with a non-success status where the caller
    /// needed success (the validation bot's `.well-known` fetch); the real
    /// status is carried rather than erased. The fetcher never builds this
    /// itself: [`Fetcher::get`](crate::Fetcher::get) returns the
    /// [`Response`](crate::Response), whatever its status.
    HttpStatus {
        /// The URL that produced the status.
        url: Url,
        /// The non-success status the server returned.
        status: StatusCode,
    },
    /// Redirect chain exceeded the fetch policy's limit.
    TooManyRedirects {
        /// The URL that started the chain.
        start: Url,
        /// The configured limit.
        limit: usize,
    },
    /// The response body was expected to be JSON but did not parse.
    InvalidJson {
        /// The URL whose body failed to parse.
        url: Url,
        /// Parser error message.
        reason: String,
    },
    /// The simulated host timed out (accumulated latency exceeded the
    /// policy deadline). The deadline covers the *whole* redirect chain, so
    /// the error carries both the URL the chain started from and the hop it
    /// died on — a mid-chain timeout is attributable to the chain, not
    /// misread as the final hop alone being slow. The chain entry is boxed
    /// so two URLs do not widen every `Result<Response, NetError>`, and is
    /// `None` when no redirect was followed: the chain entry is then `url`
    /// itself, and the timeout allocates nothing.
    Timeout {
        /// The URL the fetch started from (the chain entry), when a
        /// redirect moved the fetch off it.
        start: Option<Box<Url>>,
        /// The hop being fetched when the deadline was exceeded.
        url: Url,
        /// Accumulated simulated latency across the chain, in milliseconds.
        latency_ms: u64,
        /// The policy deadline in milliseconds.
        deadline_ms: u64,
        /// Redirects already followed before the fatal hop.
        redirects_followed: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidUrl { input, reason } => {
                write!(f, "invalid URL '{input}': {reason}")
            }
            NetError::HostNotFound { host } => write!(f, "host '{host}' not found"),
            NetError::ConnectionRefused { host } => {
                write!(f, "connection to '{host}' refused")
            }
            NetError::HttpsRequired { url } => {
                write!(f, "HTTPS required but '{url}' is not https")
            }
            NetError::HttpStatus { url, status } => {
                write!(f, "unexpected HTTP {status} at '{url}'")
            }
            NetError::TooManyRedirects { start, limit } => {
                write!(f, "more than {limit} redirects starting from '{start}'")
            }
            NetError::InvalidJson { url, reason } => {
                write!(f, "body at '{url}' is not valid JSON: {reason}")
            }
            NetError::Timeout {
                start,
                url,
                latency_ms,
                deadline_ms,
                redirects_followed,
            } => write!(
                f,
                "request starting at '{}' timed out at '{url}' after \
                 {redirects_followed} redirect(s) ({latency_ms}ms > {deadline_ms}ms deadline)",
                start.as_deref().unwrap_or(url)
            ),
        }
    }
}

impl NetError {
    /// A short, stable class label for aggregation (the load engine tallies
    /// error traffic by class; one label per variant).
    pub fn class(&self) -> &'static str {
        match self {
            NetError::InvalidUrl { .. } => "invalid-url",
            NetError::HostNotFound { .. } => "host-not-found",
            NetError::ConnectionRefused { .. } => "connection-refused",
            NetError::HttpsRequired { .. } => "https-required",
            NetError::HttpStatus { .. } => "http-status",
            NetError::TooManyRedirects { .. } => "too-many-redirects",
            NetError::InvalidJson { .. } => "invalid-json",
            NetError::Timeout { .. } => "timeout",
        }
    }

    /// Whether a retrying fetch path should attempt this request again.
    ///
    /// Of the errors the fetcher itself returns, refused connections,
    /// deadline timeouts and redirect storms can clear on a later attempt
    /// (the fault plan's refusals, latency spikes and redirect storms),
    /// while bad URLs, unknown hosts (the frozen store never grows a host
    /// mid-run) and HTTPS-policy violations are persistent. A 5xx
    /// `HttpStatus` and `InvalidJson` classify as retryable too, but no
    /// retrying path meets them: the fetcher never builds either (an
    /// injected 5xx burst or truncated body is a served
    /// [`Response`](crate::Response)), and the validation bot, which does,
    /// makes one attempt. The `match` is deliberately total — no `_` arm —
    /// so adding a variant forces a classification decision here.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::InvalidUrl { .. } => false,
            NetError::HostNotFound { .. } => false,
            NetError::ConnectionRefused { .. } => true,
            NetError::HttpsRequired { .. } => false,
            NetError::HttpStatus { status, .. } => status.is_server_error(),
            NetError::TooManyRedirects { .. } => true,
            NetError::InvalidJson { .. } => true,
            NetError::Timeout { .. } => true,
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = NetError::HostNotFound {
            host: dn("missing.example"),
        };
        assert_eq!(e.to_string(), "host 'missing.example' not found");
        let e = NetError::TooManyRedirects {
            start: url("https://a.example/"),
            limit: 5,
        };
        assert_eq!(
            e.to_string(),
            "more than 5 redirects starting from 'https://a.example/'"
        );
        let e = NetError::Timeout {
            start: Some(Box::new(url("https://entry.example/"))),
            url: url("https://slow.example/"),
            latency_ms: 900,
            deadline_ms: 500,
            redirects_followed: 2,
        };
        assert_eq!(
            e.to_string(),
            "request starting at 'https://entry.example/' timed out at \
             'https://slow.example/' after 2 redirect(s) (900ms > 500ms deadline)"
        );
    }

    fn dn(name: &str) -> DomainName {
        DomainName::parse(name).unwrap()
    }

    fn url(input: &str) -> Url {
        Url::parse(input).unwrap()
    }

    #[test]
    fn names_do_not_widen_a_fetch_result() {
        use crate::Response;
        use std::mem::size_of;
        // The boxed chain entry keeps `Timeout`, and so every variant, no
        // wider than a response, so an error never widens the result. The
        // absolute sizes move with the compiler's layout choices; these
        // relations do not.
        assert!(size_of::<NetError>() <= size_of::<Response>());
        assert!(size_of::<Result<Response, NetError>>() <= size_of::<Response>());
    }

    /// One representative of every variant, in declaration order. Adding a
    /// variant without extending this list fails the exhaustiveness
    /// assertions below.
    fn one_of_each() -> Vec<NetError> {
        vec![
            NetError::InvalidUrl {
                input: "x".into(),
                reason: "r".into(),
            },
            NetError::HostNotFound { host: dn("h.com") },
            NetError::ConnectionRefused { host: dn("h.com") },
            NetError::HttpsRequired {
                url: url("http://h.com/"),
            },
            NetError::HttpStatus {
                url: url("https://h.com/"),
                status: StatusCode::NOT_FOUND,
            },
            NetError::TooManyRedirects {
                start: url("https://h.com/"),
                limit: 5,
            },
            NetError::InvalidJson {
                url: url("https://h.com/"),
                reason: "r".into(),
            },
            NetError::Timeout {
                start: None,
                url: url("https://h.com/"),
                latency_ms: 1,
                deadline_ms: 1,
                redirects_followed: 0,
            },
        ]
    }

    #[test]
    fn class_labels_are_unique_across_all_variants() {
        // Duplicate labels would silently merge counters in the load
        // report's error tally.
        let errors = one_of_each();
        let labels: std::collections::HashSet<&'static str> =
            errors.iter().map(NetError::class).collect();
        assert_eq!(labels.len(), errors.len(), "class labels collide");
    }

    #[test]
    fn retryable_classification_is_total_and_as_documented() {
        let expect = |err: &NetError| match err.class() {
            "invalid-url" | "host-not-found" | "https-required" => false,
            "connection-refused" | "too-many-redirects" | "invalid-json" | "timeout" => true,
            // 5xx retryable, everything else persistent.
            "http-status" => matches!(
                err,
                NetError::HttpStatus { status, .. } if status.is_server_error()
            ),
            other => panic!("unclassified label {other}"),
        };
        for err in one_of_each() {
            assert_eq!(err.is_retryable(), expect(&err), "{err}");
        }
        // The status split within http-status.
        let server_err = NetError::HttpStatus {
            url: url("https://h.com/"),
            status: StatusCode::SERVICE_UNAVAILABLE,
        };
        assert!(server_err.is_retryable());
        let client_err = NetError::HttpStatus {
            url: url("https://h.com/"),
            status: StatusCode::NOT_FOUND,
        };
        assert!(!client_err.is_retryable());
    }
}
