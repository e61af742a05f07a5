//! HTTP methods, responses and status codes.

use crate::headers::HeaderMap;
use crate::url::Url;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// HTTP request method. Only the methods the study's tooling issues are
/// modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// GET — page fetches, `.well-known` fetches.
    Get,
    /// HEAD — liveness and header-only checks (e.g. `X-Robots-Tag`).
    Head,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
        })
    }
}

/// An HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 301 Moved Permanently.
    pub const MOVED_PERMANENTLY: StatusCode = StatusCode(301);
    /// 302 Found.
    pub const FOUND: StatusCode = StatusCode(302);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 410 Gone.
    pub const GONE: StatusCode = StatusCode(410);
    /// 500 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// 3xx.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// 4xx.
    pub fn is_client_error(self) -> bool {
        (400..500).contains(&self.0)
    }

    /// 5xx.
    pub fn is_server_error(self) -> bool {
        (500..600).contains(&self.0)
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The URL that ultimately produced this response (after redirects).
    pub url: Url,
    /// Status code.
    pub status: StatusCode,
    /// Response headers.
    pub headers: HeaderMap,
    /// Response body bytes (empty for HEAD responses).
    pub body: Bytes,
    /// Simulated total latency for producing this response, in milliseconds.
    pub latency_ms: u64,
    /// Number of redirects followed to reach this response.
    pub redirects_followed: usize,
}

impl Response {
    /// The body borrowed as UTF-8 text, when it is valid UTF-8 — the
    /// zero-allocation fast path. Every page the simulated web serves is
    /// interned from Rust strings, so this only returns `None` for
    /// hand-built binary bodies.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The body decoded as UTF-8 (lossily). Allocates; prefer
    /// [`body_str`](Response::body_str) where a borrow suffices.
    pub fn body_text(&self) -> String {
        match self.body_str() {
            Some(text) => text.to_string(),
            None => String::from_utf8_lossy(&self.body).into_owned(),
        }
    }

    /// The `Content-Type` header, if any.
    pub fn content_type(&self) -> Option<&str> {
        self.headers.get("content-type")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_code_classes() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode(204).is_success());
        assert!(StatusCode::MOVED_PERMANENTLY.is_redirect());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(StatusCode::NOT_FOUND.is_client_error());
        assert!(StatusCode::GONE.is_client_error());
        assert!(StatusCode::INTERNAL_SERVER_ERROR.is_server_error());
        assert!(!StatusCode::OK.is_redirect());
        assert_eq!(StatusCode::OK.to_string(), "200");
    }

    #[test]
    fn method_display() {
        assert_eq!(Method::Get.to_string(), "GET");
        assert_eq!(Method::Head.to_string(), "HEAD");
    }

    #[test]
    fn response_body_helpers() {
        let url = Url::parse("https://example.com/data.json").unwrap();
        let mut headers = HeaderMap::new();
        headers.set("Content-Type", "application/json");
        let resp = Response {
            url,
            status: StatusCode::OK,
            headers,
            body: Bytes::from_static(b"{\"primary\": \"example.com\"}"),
            latency_ms: 12,
            redirects_followed: 0,
        };
        assert_eq!(resp.content_type(), Some("application/json"));
        assert!(resp.body_text().contains("primary"));
        assert_eq!(resp.body_str(), Some(resp.body_text().as_str()));
    }

    #[test]
    fn body_str_rejects_invalid_utf8_but_body_text_is_lossy() {
        let url = Url::parse("https://example.com/bin").unwrap();
        let resp = Response {
            url,
            status: StatusCode::OK,
            headers: HeaderMap::new(),
            body: Bytes::from_static(b"ok \xFF"),
            latency_ms: 0,
            redirects_followed: 0,
        };
        assert_eq!(resp.body_str(), None);
        assert_eq!(resp.body_text(), "ok \u{FFFD}");
    }
}
