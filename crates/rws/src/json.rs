//! (De)serialisation of the canonical `related_website_sets.JSON` format.
//!
//! The canonical file published in the GoogleChrome/related-website-sets
//! repository has the shape:
//!
//! ```json
//! {
//!   "sets": [
//!     {
//!       "contact": "owner@example.com",
//!       "primary": "https://example.com",
//!       "associatedSites": ["https://example-brand.com"],
//!       "serviceSites": ["https://example-cdn.com"],
//!       "rationaleBySite": {
//!         "https://example-brand.com": "Shared branding",
//!         "https://example-cdn.com": "Asset host"
//!       },
//!       "ccTLDs": {
//!         "https://example.com": ["https://example.de"]
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! The same per-set object (without the top-level `sets` wrapper) is what
//! every member must serve at `/.well-known/related-website-set.json`.

use crate::error::SetError;
use crate::list::RwsList;
use crate::set::{format_member, parse_member, RwsSet};
use serde_json::{json, Map, Value};

/// Serialise one set to its canonical JSON object.
pub fn set_to_json(set: &RwsSet) -> Value {
    let mut obj = Map::new();
    if let Some(contact) = set.contact() {
        obj.insert("contact".to_string(), json!(contact));
    }
    obj.insert("primary".to_string(), json!(format_member(set.primary())));
    let associated: Vec<String> = set.associated_sites().map(format_member).collect();
    if !associated.is_empty() {
        obj.insert("associatedSites".to_string(), json!(associated));
    }
    let service: Vec<String> = set.service_sites().map(format_member).collect();
    if !service.is_empty() {
        obj.insert("serviceSites".to_string(), json!(service));
    }
    let mut rationales = Map::new();
    for domain in set.associated_sites().chain(set.service_sites()) {
        if let Some(r) = set.rationale_for(domain) {
            rationales.insert(format_member(domain), json!(r));
        }
    }
    if !rationales.is_empty() {
        obj.insert("rationaleBySite".to_string(), Value::Object(rationales));
    }
    if !set.cctld_map().is_empty() {
        let mut cctlds = Map::new();
        for (base, variants) in set.cctld_map() {
            let vs: Vec<String> = variants.iter().map(format_member).collect();
            cctlds.insert(format_member(base), json!(vs));
        }
        obj.insert("ccTLDs".to_string(), Value::Object(cctlds));
    }
    Value::Object(obj)
}

/// Parse one canonical set object.
pub fn set_from_json(value: &Value) -> Result<RwsSet, SetError> {
    let obj = value.as_object().ok_or_else(|| SetError::MalformedJson {
        reason: "set entry is not a JSON object".to_string(),
    })?;
    let primary =
        obj.get("primary")
            .and_then(Value::as_str)
            .ok_or_else(|| SetError::MalformedJson {
                reason: "set entry is missing the 'primary' string".to_string(),
            })?;
    let mut set = RwsSet::new(primary)?;
    if let Some(contact) = obj.get("contact").and_then(Value::as_str) {
        set.set_contact(contact);
    }

    let rationales = obj.get("rationaleBySite").and_then(Value::as_object);
    let rationale_for = |origin: &str| -> Option<String> {
        rationales
            .and_then(|m| m.get(origin))
            .and_then(Value::as_str)
            .map(str::to_string)
    };

    if let Some(assoc) = obj.get("associatedSites") {
        let arr = assoc.as_array().ok_or_else(|| SetError::MalformedJson {
            reason: "'associatedSites' is not an array".to_string(),
        })?;
        for entry in arr {
            let origin = entry.as_str().ok_or_else(|| SetError::MalformedJson {
                reason: "'associatedSites' contains a non-string entry".to_string(),
            })?;
            match rationale_for(origin) {
                Some(r) => set.add_associated(origin, &r)?,
                None => set.add_associated_without_rationale(origin)?,
            };
        }
    }
    if let Some(service) = obj.get("serviceSites") {
        let arr = service.as_array().ok_or_else(|| SetError::MalformedJson {
            reason: "'serviceSites' is not an array".to_string(),
        })?;
        for entry in arr {
            let origin = entry.as_str().ok_or_else(|| SetError::MalformedJson {
                reason: "'serviceSites' contains a non-string entry".to_string(),
            })?;
            match rationale_for(origin) {
                Some(r) => set.add_service(origin, &r)?,
                None => set.add_service_without_rationale(origin)?,
            };
        }
    }
    if let Some(cctlds) = obj.get("ccTLDs") {
        let map = cctlds.as_object().ok_or_else(|| SetError::MalformedJson {
            reason: "'ccTLDs' is not an object".to_string(),
        })?;
        for (base, variants) in map {
            let arr = variants.as_array().ok_or_else(|| SetError::MalformedJson {
                reason: format!("ccTLD variants for '{base}' are not an array"),
            })?;
            let mut list: Vec<&str> = Vec::new();
            for v in arr {
                list.push(v.as_str().ok_or_else(|| SetError::MalformedJson {
                    reason: format!("ccTLD variant for '{base}' is not a string"),
                })?);
            }
            set.add_cctld_variants(base, &list)?;
        }
    }
    // Validate the primary parses as a member (round-trip sanity).
    let _ = parse_member(primary)?;
    Ok(set)
}

/// Serialise a full list to the canonical JSON document.
pub fn list_to_json(list: &RwsList) -> Value {
    json!({
        "sets": list.sets().map(set_to_json).collect::<Vec<Value>>(),
    })
}

/// Parse a full canonical JSON document into a list.
pub fn list_from_json(value: &Value) -> Result<RwsList, SetError> {
    let sets_value = value.get("sets").ok_or_else(|| SetError::MalformedJson {
        reason: "top-level 'sets' array is missing".to_string(),
    })?;
    let arr = sets_value
        .as_array()
        .ok_or_else(|| SetError::MalformedJson {
            reason: "'sets' is not an array".to_string(),
        })?;
    let mut sets = Vec::with_capacity(arr.len());
    for entry in arr {
        sets.push(set_from_json(entry)?);
    }
    RwsList::from_sets(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_domain::DomainName;

    const CANONICAL_EXAMPLE: &str = r#"{
      "sets": [
        {
          "contact": "webmaster@bild.de",
          "primary": "https://bild.de",
          "associatedSites": ["https://autobild.de", "https://computerbild.de"],
          "serviceSites": ["https://bildstatic.de"],
          "rationaleBySite": {
            "https://autobild.de": "Automotive news brand of the same publisher",
            "https://computerbild.de": "IT news brand of the same publisher",
            "https://bildstatic.de": "Static assets for all BILD properties"
          },
          "ccTLDs": {
            "https://bild.de": ["https://bild.at"]
          }
        },
        {
          "primary": "https://poalim.xyz",
          "associatedSites": ["https://poalim.site"]
        }
      ]
    }"#;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn parse(text: &str) -> Result<RwsList, SetError> {
        list_from_json(&serde_json::from_str(text).expect("test documents are JSON"))
    }

    #[test]
    fn parse_canonical_example() {
        let list = parse(CANONICAL_EXAMPLE).unwrap();
        assert_eq!(list.set_count(), 2);
        assert_eq!(list.domain_count(), 7);
        let bild = list.set_with_primary(&dn("bild.de")).unwrap();
        assert_eq!(bild.associated_count(), 2);
        assert_eq!(bild.service_count(), 1);
        assert_eq!(bild.cctld_count(), 1);
        assert_eq!(bild.contact(), Some("webmaster@bild.de"));
        assert_eq!(
            bild.rationale_for(&dn("autobild.de")),
            Some("Automotive news brand of the same publisher")
        );
        // The minimal second set parses with no rationale.
        let poalim = list.set_with_primary(&dn("poalim.xyz")).unwrap();
        assert_eq!(poalim.rationale_for(&dn("poalim.site")), None);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let list = parse(CANONICAL_EXAMPLE).unwrap();
        let json = list_to_json(&list);
        let reparsed = list_from_json(&json).unwrap();
        assert_eq!(reparsed.set_count(), list.set_count());
        assert_eq!(reparsed.domain_count(), list.domain_count());
        assert!(reparsed.are_related(&dn("bild.de"), &dn("autobild.de")));
        assert_eq!(
            reparsed
                .set_with_primary(&dn("bild.de"))
                .unwrap()
                .rationale_for(&dn("bildstatic.de")),
            Some("Static assets for all BILD properties")
        );
        // Serialising again yields the identical JSON value (canonical form).
        assert_eq!(list_to_json(&reparsed), json);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse("{}").is_err());
        assert!(parse(r#"{"sets": 4}"#).is_err());
        assert!(parse(r#"{"sets": [{"associatedSites": []}]}"#).is_err());
        assert!(
            parse(r#"{"sets": [{"primary": "https://a.com", "associatedSites": [5]}]}"#).is_err()
        );
        assert!(
            parse(r#"{"sets": [{"primary": "https://a.com", "ccTLDs": {"https://other.com": ["https://other.de"]}}]}"#)
                .is_err(),
            "ccTLD base not in set must be rejected"
        );
    }

    #[test]
    fn http_members_rejected() {
        let doc = r#"{"sets": [{"primary": "http://insecure.com"}]}"#;
        let err = parse(doc).unwrap_err();
        assert!(matches!(err, SetError::InvalidOrigin { .. }));
    }

    #[test]
    fn empty_sets_array_is_an_empty_list() {
        let list = parse(r#"{"sets": []}"#).unwrap();
        assert_eq!(list.set_count(), 0);
    }

    #[test]
    fn set_to_json_omits_empty_sections() {
        let set = RwsSet::new("https://solo.com").unwrap();
        let json = set_to_json(&set);
        assert!(json.get("associatedSites").is_none());
        assert!(json.get("serviceSites").is_none());
        assert!(json.get("rationaleBySite").is_none());
        assert!(json.get("ccTLDs").is_none());
        assert_eq!(json["primary"], "https://solo.com");
    }
}
