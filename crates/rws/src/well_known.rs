//! The `/.well-known/related-website-set.json` file.
//!
//! The submission guidelines require every member of a proposed set to serve
//! a JSON file proving administrative control of the domain. The primary
//! serves the full set object; every non-primary member serves a small
//! object naming its primary. The validation bot fetches each file and
//! compares it with the submitted set; mismatches and fetch failures are the
//! two largest error classes in Table 3.

use crate::json::{set_from_json, set_to_json};
use crate::set::{format_member, parse_member, RwsSet};
use crate::SetError;
use rws_domain::DomainName;
use serde_json::{json, Value};

/// The contents a member serves at the well-known path.
#[derive(Debug, Clone, PartialEq)]
pub enum WellKnownFile {
    /// The primary's copy: the full set object.
    Primary(RwsSet),
    /// A non-primary member's copy: a pointer to its primary.
    Member {
        /// The primary this member claims to belong to.
        primary: DomainName,
    },
}

impl WellKnownFile {
    /// The well-known document the set primary must serve.
    pub fn for_primary(set: &RwsSet) -> WellKnownFile {
        WellKnownFile::Primary(set.clone())
    }

    /// The well-known document a non-primary member must serve.
    pub fn for_member(primary: &DomainName) -> WellKnownFile {
        WellKnownFile::Member {
            primary: primary.clone(),
        }
    }

    /// Serialise to the JSON the file would contain.
    fn to_json(&self) -> Value {
        match self {
            WellKnownFile::Primary(set) => set_to_json(set),
            WellKnownFile::Member { primary } => json!({
                "primary": format_member(primary),
            }),
        }
    }

    /// Serialise to a JSON string.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("well-known JSON is serialisable")
    }

    /// Parse a well-known document. A document with member lists parses as a
    /// primary copy; a document with only a `primary` field parses as a
    /// member pointer.
    fn from_json(value: &Value) -> Result<WellKnownFile, SetError> {
        let obj = value.as_object().ok_or_else(|| SetError::MalformedJson {
            reason: "well-known document is not a JSON object".to_string(),
        })?;
        let has_member_lists = obj.contains_key("associatedSites")
            || obj.contains_key("serviceSites")
            || obj.contains_key("ccTLDs");
        if has_member_lists {
            Ok(WellKnownFile::Primary(set_from_json(value)?))
        } else {
            let primary = obj.get("primary").and_then(Value::as_str).ok_or_else(|| {
                SetError::MalformedJson {
                    reason: "well-known document is missing 'primary'".to_string(),
                }
            })?;
            Ok(WellKnownFile::Member {
                primary: parse_member(primary)?,
            })
        }
    }

    /// Parse from JSON text.
    pub fn from_json_str(text: &str) -> Result<WellKnownFile, SetError> {
        let value: Value = serde_json::from_str(text).map_err(|e| SetError::MalformedJson {
            reason: e.to_string(),
        })?;
        WellKnownFile::from_json(&value)
    }

    /// The primary domain this document points at.
    pub fn primary(&self) -> &DomainName {
        match self {
            WellKnownFile::Primary(set) => set.primary(),
            WellKnownFile::Member { primary } => primary,
        }
    }

    /// Whether this well-known document is consistent with the submitted
    /// set: a primary copy must describe an identical set; a member copy
    /// must name the submitted set's primary.
    pub fn matches_submission(&self, submitted: &RwsSet) -> bool {
        match self {
            WellKnownFile::Primary(set) => {
                // Compare canonical JSON forms, which ignores insertion order
                // differences in maps but preserves member lists.
                set_to_json(set) == set_to_json(submitted)
            }
            WellKnownFile::Member { primary } => primary == submitted.primary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> RwsSet {
        let mut set = RwsSet::new("https://bild.de").unwrap();
        set.add_associated("https://autobild.de", "Sister publication")
            .unwrap();
        set
    }

    #[test]
    fn primary_copy_round_trips() {
        let set = sample_set();
        let wk = WellKnownFile::for_primary(&set);
        let text = wk.to_json_string();
        let parsed = WellKnownFile::from_json_str(&text).unwrap();
        assert_eq!(parsed, wk);
        assert!(parsed.matches_submission(&set));
        assert_eq!(parsed.primary().as_str(), "bild.de");
    }

    #[test]
    fn member_copy_round_trips() {
        let primary = DomainName::parse("bild.de").unwrap();
        let wk = WellKnownFile::for_member(&primary);
        let text = wk.to_json_string();
        let parsed = WellKnownFile::from_json_str(&text).unwrap();
        assert_eq!(parsed, wk);
        assert!(parsed.matches_submission(&sample_set()));
    }

    #[test]
    fn mismatched_primary_copy_detected() {
        let mut different = sample_set();
        different
            .add_associated("https://extra.de", "Not in the submission")
            .unwrap();
        let wk = WellKnownFile::for_primary(&different);
        assert!(!wk.matches_submission(&sample_set()));
    }

    #[test]
    fn mismatched_member_pointer_detected() {
        let other_primary = DomainName::parse("unrelated.com").unwrap();
        let wk = WellKnownFile::for_member(&other_primary);
        assert!(!wk.matches_submission(&sample_set()));
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(WellKnownFile::from_json_str("[]").is_err());
        assert!(WellKnownFile::from_json_str("{}").is_err());
        assert!(WellKnownFile::from_json_str("{\"primary\": 7}").is_err());
        assert!(WellKnownFile::from_json_str("not json at all").is_err());
    }
}
