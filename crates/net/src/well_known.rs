//! Constants and helpers for the RWS `.well-known` convention.
//!
//! The RWS submission guidelines require every member of a proposed set to
//! serve a JSON file at `/.well-known/related-website-set.json` that mirrors
//! the set being proposed. This proves the submitter has administrative
//! control of each domain; Table 3 shows that failing to serve this file is
//! by far the most common validation error (202 occurrences).

use crate::url::Url;
use rws_domain::DomainName;

/// The path every set member must serve its copy of the set at.
pub const WELL_KNOWN_RWS_PATH: &str = "/.well-known/related-website-set.json";

/// The header that service sites must carry to stay out of search indexes
/// (`X-Robots-Tag`), spelled lower-case as [`HeaderMap`](crate::HeaderMap)
/// stores it, so setting and looking it up borrow the literal.
pub const X_ROBOTS_TAG: &str = "x-robots-tag";

/// The HTTPS URL of a domain's `.well-known` RWS file.
pub fn well_known_path(domain: &DomainName) -> Url {
    Url::https(domain, WELL_KNOWN_RWS_PATH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_url_shape() {
        let d = DomainName::parse("example.com").unwrap();
        let url = well_known_path(&d);
        assert_eq!(
            url.to_string(),
            "https://example.com/.well-known/related-website-set.json"
        );
        assert!(url.is_https());
    }

    #[test]
    fn constants_are_stable() {
        assert!(WELL_KNOWN_RWS_PATH.starts_with("/.well-known/"));
        assert_eq!(X_ROBOTS_TAG, "x-robots-tag");
    }
}
