//! The DOM parsing entry points and the one event→tree fold
//! ([`TreeBuilder`]) over the pull parser in [`crate::events`], which owns
//! the single tokenizer.
//!
//! Supports the subset of XML needed by the LegoDB workloads: elements,
//! attributes, character data, predefined and numeric entity references,
//! comments, CDATA sections, processing instructions, and a DOCTYPE
//! declaration (skipped, including an internal subset). Namespaces are
//! treated as part of the name (prefix and all), matching the paper's usage.

use crate::error::{ParseError, ParseErrorKind, Position};
use crate::events::{events_with_limits, Event};
use crate::tree::{Attribute, Document, Element, Node};

/// Hard input limits enforced while parsing — the defense against hostile
/// documents (stack-overflow nesting, entity floods, oversized payloads).
/// Violations surface as structured [`ParseError`]s, never as crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum element nesting depth.
    pub max_depth: usize,
    /// Maximum input length in bytes (checked before parsing starts).
    pub max_input_bytes: usize,
    /// Maximum number of entity references in the document.
    pub max_entity_expansions: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            // Deep enough for any real document; shallow enough that tree
            // recursion over parsed documents fits in a small thread stack.
            max_depth: 256,
            max_input_bytes: 256 << 20,
            max_entity_expansions: 1 << 20,
        }
    }
}

/// Parse a complete XML document from a string, under the default
/// [`ParseLimits`].
pub fn parse(input: &str) -> Result<Document, ParseError> {
    parse_with_limits(input, &ParseLimits::default())
}

/// Parse a complete XML document under explicit [`ParseLimits`].
///
/// A [`TreeBuilder`] fold over [`events_with_limits`]: the tokenizer
/// enforces the limits and guarantees balanced, well-formed events, so the
/// fold only stacks elements and attaches children.
pub fn parse_with_limits(input: &str, limits: &ParseLimits) -> Result<Document, ParseError> {
    let mut tree = TreeBuilder::default();
    let mut root = None;
    for event in events_with_limits(input, limits) {
        if let Some(done) = tree.push(event?) {
            root = Some(done);
        }
    }
    match root {
        Some(root) => Ok(Document::new(root)),
        // Unreachable: an event stream either errors or produces a root.
        None => Err(ParseError {
            position: Position::start(),
            kind: ParseErrorKind::MissingRoot,
        }),
    }
}

/// The event→tree fold: stacks open elements and attaches each closed
/// one to its parent. [`parse_with_limits`] folds a whole document
/// through it; the streaming shredder folds one root child at a time.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    open: Vec<Element>,
}

impl TreeBuilder {
    /// A builder inside `element`, whose start tag the caller consumed.
    pub fn within(element: Element) -> Self {
        TreeBuilder {
            open: vec![element],
        }
    }

    /// How many elements are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Fold one event. Returns the element an end tag closes when no open
    /// element encloses it. Text outside every element and an end tag
    /// with nothing open have nowhere to go and are dropped; the
    /// tokenizer emits neither.
    pub fn push(&mut self, event: Event<'_>) -> Option<Element> {
        match event {
            Event::StartElement { name, attributes } => self.open.push(Element {
                name: name.into_owned(),
                attributes: attributes.into_iter().map(Attribute::from).collect(),
                children: Vec::new(),
            }),
            Event::Text(text) => {
                if let Some(open) = self.open.last_mut() {
                    open.children.push(Node::Text(text.into_owned()));
                }
            }
            Event::EndElement { .. } => {
                let element = self.open.pop()?;
                match self.open.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(element)),
                    None => return Some(element),
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind;

    #[test]
    fn parses_simple_document() {
        let doc = parse("<a><b>hi</b><b>ho</b></a>").unwrap();
        assert_eq!(doc.root.name, "a");
        assert_eq!(doc.root.children_named("b").count(), 2);
        assert_eq!(doc.root.first_child("b").unwrap().text(), "hi");
    }

    #[test]
    fn parses_attributes_and_self_closing() {
        let doc = parse(r#"<show type="Movie" year='1993'><empty/></show>"#).unwrap();
        assert_eq!(doc.root.attribute("type"), Some("Movie"));
        assert_eq!(doc.root.attribute("year"), Some("1993"));
        assert!(doc.root.first_child("empty").unwrap().is_leaf());
    }

    #[test]
    fn resolves_entities_in_text_and_attributes() {
        let doc = parse(r#"<a t="&lt;x&gt;">a &amp; b &#65;</a>"#).unwrap();
        assert_eq!(doc.root.attribute("t"), Some("<x>"));
        assert_eq!(doc.root.text(), "a & b A");
    }

    #[test]
    fn skips_prolog_doctype_comments_and_pis() {
        let src = r#"<?xml version="1.0"?>
            <!DOCTYPE imdb [ <!ELEMENT imdb (show*)> ]>
            <!-- a comment -->
            <imdb><?pi data?><!-- inner --><show/></imdb>
            <!-- trailing -->"#;
        let doc = parse(src).unwrap();
        assert_eq!(doc.root.name, "imdb");
        assert_eq!(doc.root.child_elements().count(), 1);
    }

    #[test]
    fn cdata_is_literal_text() {
        let doc = parse("<a><![CDATA[x < y && z]]></a>").unwrap();
        assert_eq!(doc.root.text(), "x < y && z");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 2);
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::MismatchedClosingTag { .. }
        ));
    }

    #[test]
    fn trailing_content_is_rejected() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn missing_root_is_rejected() {
        let err = parse("   ").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MissingRoot));
    }

    #[test]
    fn duplicate_attribute_is_rejected() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn unknown_entity_is_rejected() {
        let err = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadEntity(_)));
    }

    #[test]
    fn eof_inside_tag_is_reported() {
        let err = parse("<a><b>text").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn line_and_column_are_tracked() {
        let err = parse("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(err.position.line, 2);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let depth = 10_000;
        let src = "<a>".repeat(depth) + &"</a>".repeat(depth);
        let err = parse(&src).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::TooDeep { limit: 256 }));
    }

    #[test]
    fn nesting_under_the_limit_parses() {
        let limits = ParseLimits::default();
        let depth = limits.max_depth;
        let src = "<a>".repeat(depth) + &"</a>".repeat(depth);
        assert!(parse_with_limits(&src, &limits).is_ok());
    }

    #[test]
    fn oversized_input_is_rejected_upfront() {
        let limits = ParseLimits {
            max_input_bytes: 64,
            ..Default::default()
        };
        let src = format!("<a>{}</a>", "x".repeat(100));
        let err = parse_with_limits(&src, &limits).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::InputTooLarge { limit: 64, .. }
        ));
    }

    #[test]
    fn entity_flood_is_rejected() {
        let limits = ParseLimits {
            max_entity_expansions: 10,
            ..Default::default()
        };
        let src = format!("<a>{}</a>", "&amp;".repeat(11));
        let err = parse_with_limits(&src, &limits).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::TooManyEntities { limit: 10 }
        ));
        let ok = format!("<a>{}</a>", "&amp;".repeat(10));
        assert!(parse_with_limits(&ok, &limits).is_ok());
    }

    #[test]
    fn tree_builder_resumes_inside_a_consumed_start_tag() {
        let mut evs = crate::events::events("<a x=\"1\"><b>hi</b>tail</a>");
        let Some(Ok(Event::StartElement { name, attributes })) = evs.next() else {
            panic!("expected the root start tag");
        };
        let mut root = Element::new(name);
        root.attributes = attributes.into_iter().map(Attribute::from).collect();
        let mut tree = TreeBuilder::within(root);
        let mut done = None;
        for event in evs {
            assert!(done.is_none(), "nothing follows the root's end tag");
            done = tree.push(event.unwrap());
        }
        assert_eq!(tree.depth(), 0);
        let parsed = parse("<a x=\"1\"><b>hi</b>tail</a>").unwrap();
        assert_eq!(done, Some(parsed.root));
    }

    #[test]
    fn utf8_text_round_trips() {
        let doc = parse("<aka>Die unheimlichen Fälle — «déjà vu»</aka>").unwrap();
        assert_eq!(doc.root.text(), "Die unheimlichen Fälle — «déjà vu»");
    }
}
