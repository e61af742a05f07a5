//! Error types for the simulated network layer.

use crate::message::StatusCode;
use std::fmt;

/// Failures that the simulated fetcher can report.
///
/// These mirror the failure classes the RWS validation bot distinguishes
/// ("unable to fetch the .well-known JSON file" covers DNS failure,
/// connection refusal, non-success statuses and malformed payloads alike).
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
        host: String,
    },
    /// The host exists but refused the connection (simulated outage).
    ConnectionRefused {
        /// The unreachable host.
        host: String,
    },
    /// The request required HTTPS but the URL (or a redirect target) was
    /// plain HTTP. The RWS submission guidelines forbid non-HTTPS sites.
    HttpsRequired {
        /// The offending URL.
        url: String,
    },
    /// The server answered with a non-success status when the caller asked
    /// for success
    /// ([`Fetcher::get_success_once`](crate::Fetcher::get_success_once));
    /// the real status is carried rather than erased. Plain
    /// [`Fetcher::get`](crate::Fetcher::get) returns the
    /// [`Response`](crate::Response) instead.
    HttpStatus {
        /// The URL that produced the status.
        url: String,
        /// The non-success status the server returned.
        status: StatusCode,
    },
    /// Redirect chain exceeded the fetch policy's limit.
    TooManyRedirects {
        /// The URL that started the chain.
        start: String,
        /// The configured limit.
        limit: usize,
    },
    /// The response body was expected to be JSON but did not parse.
    InvalidJson {
        /// The URL whose body failed to parse.
        url: String,
        /// Parser error message.
        reason: String,
    },
    /// The simulated host timed out (accumulated latency exceeded the
    /// policy deadline). The deadline covers the *whole* redirect chain, so
    /// the error carries both the URL the chain started from and the hop it
    /// died on — a mid-chain timeout is attributable to the chain, not
    /// misread as the final hop alone being slow.
    Timeout {
        /// The URL the fetch started from (the chain entry).
        start: String,
        /// The hop being fetched when the deadline was exceeded.
        url: String,
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
                "request starting at '{start}' timed out at '{url}' after \
                 {redirects_followed} redirect(s) ({latency_ms}ms > {deadline_ms}ms deadline)"
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
    /// The split mirrors the transient fault classes the fault injector
    /// models: refused connections, deadline timeouts, 5xx answers,
    /// garbled/truncated JSON payloads and redirect storms can all clear on
    /// a re-check, while bad URLs, unknown hosts (the frozen store never
    /// grows a host mid-run), HTTPS-policy violations and non-5xx statuses
    /// are persistent. The `match` is deliberately total — no `_` arm — so
    /// adding a variant forces a classification decision here.
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
            host: "missing.example".into(),
        };
        assert!(e.to_string().contains("missing.example"));
        let e = NetError::TooManyRedirects {
            start: "https://a.example/".into(),
            limit: 5,
        };
        assert!(e.to_string().contains('5'));
        let e = NetError::Timeout {
            start: "https://entry.example/".into(),
            url: "https://slow.example/".into(),
            latency_ms: 900,
            deadline_ms: 500,
            redirects_followed: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("900"));
        assert!(msg.contains("entry.example"), "chain start missing: {msg}");
        assert!(msg.contains("slow.example"), "fatal hop missing: {msg}");
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
            NetError::HostNotFound { host: "h".into() },
            NetError::ConnectionRefused { host: "h".into() },
            NetError::HttpsRequired { url: "u".into() },
            NetError::HttpStatus {
                url: "u".into(),
                status: StatusCode::NOT_FOUND,
            },
            NetError::TooManyRedirects {
                start: "s".into(),
                limit: 5,
            },
            NetError::InvalidJson {
                url: "u".into(),
                reason: "r".into(),
            },
            NetError::Timeout {
                start: "s".into(),
                url: "u".into(),
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
            url: "u".into(),
            status: StatusCode::SERVICE_UNAVAILABLE,
        };
        assert!(server_err.is_retryable());
        let client_err = NetError::HttpStatus {
            url: "u".into(),
            status: StatusCode::NOT_FOUND,
        };
        assert!(!client_err.is_retryable());
    }
}
