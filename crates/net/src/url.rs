//! A small, strict URL type for the simulated web.
//!
//! Only the pieces of a URL the study needs are modelled: scheme
//! (`http`/`https`), host (a validated [`DomainName`]), optional port, path
//! and optional query string. Fragments are parsed and discarded, matching
//! what a fetcher would send on the wire.
//!
//! Paths are `Cow<'static, str>`: the URLs the crawlers and the load
//! engine build ([`Url::https`]) borrow a literal or a constant path, so
//! building one and cloning it are refcount bumps and copies of pointers,
//! never heap allocations. Only parsed and joined URLs own their path.

use crate::error::NetError;
use rws_domain::DomainName;
use std::borrow::Cow;
use std::fmt;

/// URL scheme; the study only ever deals with HTTP(S).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Plain-text HTTP — rejected by the RWS submission guidelines.
    Http,
    /// HTTPS.
    Https,
}

impl Scheme {
    /// Scheme name without the `://`.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

/// A parsed absolute URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// The scheme.
    pub scheme: Scheme,
    /// The host name.
    pub host: DomainName,
    /// Explicit port, if one was given.
    pub port: Option<u16>,
    /// Absolute path, always starting with `/`; borrowed when the URL was
    /// built from a `'static` path.
    pub path: Cow<'static, str>,
    /// Query string without the leading `?`, if present.
    pub query: Option<String>,
}

impl Url {
    /// Parse an absolute `http`/`https` URL.
    pub fn parse(input: &str) -> Result<Url, NetError> {
        let fail = |reason: &str| NetError::InvalidUrl {
            input: input.to_string(),
            reason: reason.to_string(),
        };
        let trimmed = input.trim();
        let (scheme, rest) = if let Some(rest) = trimmed.strip_prefix("https://") {
            (Scheme::Https, rest)
        } else if let Some(rest) = trimmed.strip_prefix("http://") {
            (Scheme::Http, rest)
        } else {
            return Err(fail("missing http:// or https:// scheme"));
        };
        if rest.is_empty() {
            return Err(fail("missing host"));
        }
        // Split off fragment first (discarded), then query, then path.
        let rest = rest.split('#').next().unwrap_or(rest);
        let (authority_and_path, query) = match rest.split_once('?') {
            Some((a, q)) => (a, Some(q.to_string())),
            None => (rest, None),
        };
        let (authority, path) = match authority_and_path.find('/') {
            Some(idx) => (
                &authority_and_path[..idx],
                Cow::Owned(authority_and_path[idx..].to_string()),
            ),
            None => (authority_and_path, Cow::Borrowed("/")),
        };
        let (host_str, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p
                    .parse()
                    .map_err(|_| fail(&format!("invalid port '{p}'")))?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        let host = DomainName::parse(host_str)
            .map_err(|e| fail(&format!("invalid host '{host_str}': {e}")))?;
        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
        })
    }

    /// Build an HTTPS URL for a host and a `'static` path without going
    /// through the string parser. `path` must start with `/`. Allocates
    /// nothing: the host is a refcount bump and the path is borrowed.
    pub fn https(host: &DomainName, path: &'static str) -> Url {
        assert!(path.starts_with('/'), "path must be absolute, got '{path}'");
        Url {
            scheme: Scheme::Https,
            host: host.clone(),
            port: None,
            path: Cow::Borrowed(path),
            query: None,
        }
    }

    /// True for `https` URLs.
    pub fn is_https(&self) -> bool {
        self.scheme == Scheme::Https
    }

    /// Resolve a possibly relative redirect target against this URL.
    /// Absolute `http(s)://` targets are parsed as-is; targets starting with
    /// `/` keep the current scheme/host.
    pub fn join(&self, target: &str) -> Result<Url, NetError> {
        if target.starts_with("http://") || target.starts_with("https://") {
            Url::parse(target)
        } else if target.starts_with('/') {
            let (path, query) = match target.split_once('?') {
                Some((p, q)) => (p.to_string(), Some(q.to_string())),
                None => (target.to_string(), None),
            };
            Ok(Url {
                scheme: self.scheme,
                host: self.host.clone(),
                port: self.port,
                path: Cow::Owned(path),
                query,
            })
        } else {
            Err(NetError::InvalidUrl {
                input: target.to_string(),
                reason: "relative redirect targets must start with '/'".to_string(),
            })
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme.as_str(), self.host)?;
        if let Some(port) = self.port {
            write!(f, ":{port}")?;
        }
        f.write_str(&self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Url {
    type Err = NetError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_https() {
        let u = Url::parse("https://example.com/path?x=1").unwrap();
        assert_eq!(u.scheme, Scheme::Https);
        assert_eq!(u.host.as_str(), "example.com");
        assert_eq!(u.path, "/path");
        assert_eq!(u.query.as_deref(), Some("x=1"));
        assert_eq!(u.port, None);
        assert!(u.is_https());
    }

    #[test]
    fn parse_defaults_path_to_root() {
        let u = Url::parse("https://example.com").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.query, None);
    }

    #[test]
    fn parse_http_and_port() {
        let u = Url::parse("http://example.com:8080/x").unwrap();
        assert_eq!(u.scheme, Scheme::Http);
        assert_eq!(u.port, Some(8080));
        assert!(!u.is_https());
    }

    #[test]
    fn parse_discards_fragment() {
        let u = Url::parse("https://example.com/page#section").unwrap();
        assert_eq!(u.path, "/page");
        assert_eq!(u.to_string(), "https://example.com/page");
    }

    #[test]
    fn parse_normalises_host_case() {
        let u = Url::parse("https://EXAMPLE.com/A").unwrap();
        assert_eq!(u.host.as_str(), "example.com");
        // Path case is preserved.
        assert_eq!(u.path, "/A");
    }

    #[test]
    fn parse_rejects_bad_inputs() {
        assert!(Url::parse("ftp://example.com/").is_err());
        assert!(Url::parse("example.com").is_err());
        assert!(Url::parse("https://").is_err());
        assert!(Url::parse("https://bad host/").is_err());
        assert!(Url::parse("https://example.com:notaport/").is_err());
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "https://example.com/",
            "https://example.com/a/b?x=1",
            "http://example.com:8080/z",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(u.to_string(), s);
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn display_includes_explicit_port_only() {
        assert_eq!(
            Url::parse("https://example.com/x").unwrap().to_string(),
            "https://example.com/x"
        );
        assert_eq!(
            Url::parse("https://example.com:444/x?q")
                .unwrap()
                .to_string(),
            "https://example.com:444/x?q"
        );
    }

    #[test]
    fn join_absolute_and_relative() {
        let base = Url::parse("https://example.com/a/b").unwrap();
        assert_eq!(
            base.join("https://other.com/c").unwrap().to_string(),
            "https://other.com/c"
        );
        assert_eq!(
            base.join("/redirected?y=2").unwrap().to_string(),
            "https://example.com/redirected?y=2"
        );
        assert!(base.join("no-leading-slash").is_err());
    }

    #[test]
    fn https_constructor_borrows_its_path() {
        let host = DomainName::parse("example.com").unwrap();
        let u = Url::https(&host, "/ok");
        assert_eq!(u.to_string(), "https://example.com/ok");
        assert!(matches!(u.path, Cow::Borrowed("/ok")));
        assert_eq!(u, Url::parse("https://example.com/ok").unwrap());
    }

    #[test]
    #[should_panic(expected = "absolute")]
    fn https_constructor_panics_on_relative_path() {
        let host = DomainName::parse("example.com").unwrap();
        Url::https(&host, "relative");
    }

    #[test]
    fn join_replaces_path_and_query() {
        let u = Url::parse("https://example.com:444/a?q=1").unwrap();
        assert_eq!(
            u.join("/b").unwrap().to_string(),
            "https://example.com:444/b"
        );
    }
}
