//! Feature extraction from tokenized HTML: tag sequences, class sets, text
//! and titles.
//!
//! Every extractor here runs on the zero-copy streaming tokenizer
//! ([`Tokens`]): the document is scanned once and only the strings that end
//! up in the result are allocated. The owned [`crate::tokenizer::tokenize`]
//! remains the equivalence oracle the property tests compare the stream
//! against.

use crate::tokenizer::{class_names, StreamToken, Tokens};
use std::collections::BTreeSet;

/// The sequence of opening-tag names in document order — the input to the
/// structural similarity metric.
pub fn tag_sequence(html: &str) -> Vec<String> {
    Tokens::new(html)
        .filter_map(|t| match t {
            StreamToken::Open { name, .. } => Some(name.into_owned()),
            _ => None,
        })
        .collect()
}

/// The set of CSS class names used anywhere in the document — the input to
/// the style similarity metric.
pub fn class_set(html: &str) -> BTreeSet<String> {
    let mut classes = BTreeSet::new();
    for token in Tokens::new(html) {
        if let StreamToken::Open { attributes, .. } = token {
            if let Some(class_attr) = attributes.get("class") {
                for class in class_names(class_attr) {
                    classes.insert(class.to_string());
                }
            }
        }
    }
    classes
}

/// All visible text content, whitespace-normalised and joined with spaces.
/// Script/style contents are excluded by the tokenizer.
pub fn text_content(html: &str) -> String {
    let mut text = String::new();
    for token in Tokens::new(html) {
        if let StreamToken::Text(part) = token {
            if !text.is_empty() {
                text.push(' ');
            }
            text.push_str(&part);
        }
    }
    text
}

/// The contents of the `<title>` element, if present: every text run inside
/// the element, joined with spaces (markup nested in the title contributes
/// its text too, matching how browsers render `<title>A<b>B</b>C</title>`
/// as "A B C").
pub fn title(html: &str) -> Option<String> {
    let mut in_title = false;
    let mut parts: Vec<String> = Vec::new();
    for token in Tokens::new(html) {
        match token {
            StreamToken::Open { ref name, .. } if name == "title" => in_title = true,
            StreamToken::Close { ref name } if name == "title" => {
                if !parts.is_empty() {
                    return Some(parts.join(" "));
                }
                in_title = false;
            }
            StreamToken::Text(text) if in_title => parts.push(text.into_owned()),
            _ => {}
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        <html><head><title>Example News</title></head>
        <body>
          <div class="header brand-red">
            <h1 class="site-title">Example</h1>
          </div>
          <div class="content">
            <p class="article lead">Story one</p>
            <p class="article">Story two</p>
          </div>
          <script>ignored()</script>
        </body></html>"#;

    #[test]
    fn tag_sequence_in_document_order() {
        let seq = tag_sequence(SAMPLE);
        assert_eq!(
            seq,
            vec!["html", "head", "title", "body", "div", "h1", "div", "p", "p", "script"]
        );
    }

    #[test]
    fn class_set_collects_all_classes() {
        let classes = class_set(SAMPLE);
        let expected: BTreeSet<String> = [
            "header",
            "brand-red",
            "site-title",
            "content",
            "article",
            "lead",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(classes, expected);
    }

    #[test]
    fn class_set_empty_when_no_classes() {
        assert!(class_set("<div><p>plain</p></div>").is_empty());
    }

    #[test]
    fn text_content_excludes_scripts_and_collapses_whitespace() {
        let text = text_content(SAMPLE);
        assert!(text.contains("Story one"));
        assert!(text.contains("Example News"));
        assert!(!text.contains("ignored"));
    }

    #[test]
    fn title_extraction() {
        assert_eq!(title(SAMPLE), Some("Example News".to_string()));
        assert_eq!(title("<html><body>no title</body></html>"), None);
    }

    #[test]
    fn title_joins_all_text_runs() {
        // Markup nested inside <title> splits its contents into several
        // text tokens; all of them belong to the title.
        assert_eq!(
            title("<title>Breaking <em>news</em> today</title>"),
            Some("Breaking news today".to_string())
        );
        // An unterminated title still yields its text.
        assert_eq!(
            title("<title>Dangling words"),
            Some("Dangling words".to_string())
        );
        // An empty first title does not hide a later one.
        assert_eq!(
            title("<title></title><title>Second</title>"),
            Some("Second".to_string())
        );
    }

    #[test]
    fn duplicate_classes_deduplicated() {
        let html = r#"<div class="a b"><span class="a">x</span></div>"#;
        let classes = class_set(html);
        assert_eq!(classes.len(), 2);
    }
}
