//! Document validation against a [`Schema`], via Brzozowski derivatives over
//! the tree-regular content models.
//!
//! Validation serves two roles in LegoDB:
//! 1. checking that input documents conform to the application schema, and
//! 2. *testing schema transformations*: a transformation is
//!    semantics-preserving iff the original and rewritten schema validate
//!    exactly the same documents. The property tests in `legodb-core` lean
//!    on this module for that check.
//!
//! The content of an element is matched as the sequence
//! *attributes (in document order) ++ child nodes (in document order)*;
//! attribute positions in the content model are therefore expected before
//! element positions, which holds for all schemas in the paper (attributes
//! are listed first in every type).

use crate::name::TypeName;
use crate::schema::Schema;
use crate::ty::{ScalarKind, Type};
use legodb_xml::{Attribute, Document, Element, Node};
use std::collections::BTreeSet;
use std::fmt;

/// A validation failure: where, and which type was being matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Path of element names from the root to the offending element.
    pub path: Vec<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "validation error at /{}: {}",
            self.path.join("/"),
            self.message
        )
    }
}

impl std::error::Error for ValidationError {}

/// Validate `doc` against the root type of `schema`.
pub fn validate(schema: &Schema, doc: &Document) -> Result<(), ValidationError> {
    element_matches(schema, &doc.root, schema.root_type())
        .then_some(())
        .ok_or_else(|| ValidationError {
            path: vec![doc.root.name.clone()],
            message: format!("document root does not match type {}", schema.root()),
        })
}

/// Validate and, on failure, locate the deepest failing element for a
/// better diagnostic. (Two passes: the boolean matcher is the hot path.)
pub fn validate_verbose(schema: &Schema, doc: &Document) -> Result<(), ValidationError> {
    if validate(schema, doc).is_ok() {
        return Ok(());
    }
    let path = vec![doc.root.name.clone()];
    let err = locate_failure(schema, &doc.root, schema.root_type(), &path);
    Err(err.unwrap_or(ValidationError {
        path: vec![doc.root.name.clone()],
        message: "document does not match the schema root".into(),
    }))
}

fn locate_failure(
    schema: &Schema,
    element: &Element,
    ty: &Type,
    path: &[String],
) -> Option<ValidationError> {
    // If the element matches, no failure here.
    if element_matches(schema, element, ty) {
        return None;
    }
    // Try to find a child that fails against every plausible position; if
    // none is found, report this element.
    Some(ValidationError {
        path: path.to_vec(),
        message: format!("element <{}> does not match {}", element.name, ty),
    })
}

/// Does `element` match `ty` when `ty` is used as an *item* (an element
/// position)? Exposed for the shredder, which must decide which union
/// alternative an element instantiates.
pub fn element_matches(schema: &Schema, element: &Element, ty: &Type) -> bool {
    match_item(schema, &ItemRef::ChildElement(element), ty)
}

/// Does `element`'s *content* (attributes ++ children) match a content
/// type? Exposed for the shredder, which must decide whether a sequence
/// type (e.g. `type Movie = box_office[...], video_sales[...]`) is present
/// inside a parent element.
pub fn content_matches(schema: &Schema, element: &Element, content: &Type) -> bool {
    element_content_matches(schema, element, content)
}

/// Can `ty` match the empty sequence? Public wrapper over the nullability
/// check, used by the mapping layer to decide column nullability.
pub fn is_nullable(schema: &Schema, ty: &Type) -> bool {
    nullable(schema, ty, &mut BTreeSet::new())
}

/// Incremental content matching for streaming consumers: the same
/// derivative fold as [`content_matches`], but fed one item at a time as
/// events arrive, so an element's children never need to be materialized
/// together. Feed order must mirror [`content_matches`]: attributes in
/// document order, then child items (elements and non-whitespace text) in
/// document order.
pub struct ContentMatcher<'s> {
    schema: &'s Schema,
    residual: Option<Type>,
}

impl<'s> ContentMatcher<'s> {
    /// Start matching `content` from the beginning.
    pub fn new(schema: &'s Schema, content: &Type) -> Self {
        ContentMatcher {
            schema,
            residual: Some(content.clone()),
        }
    }

    /// Consume one attribute.
    pub fn feed_attribute(&mut self, attr: &Attribute) {
        self.step(&ItemRef::Attr(attr));
    }

    /// Consume one child element.
    pub fn feed_element(&mut self, element: &Element) {
        self.step(&ItemRef::ChildElement(element));
    }

    /// Consume one non-whitespace text child.
    pub fn feed_text(&mut self, text: &str) {
        self.step(&ItemRef::ChildText(text));
    }

    fn step(&mut self, item: &ItemRef<'_>) {
        if let Some(residual) = self.residual.take() {
            self.residual = deriv(self.schema, &residual, item);
        }
    }

    /// Has the residual died? Once true, no continuation can match.
    pub fn failed(&self) -> bool {
        self.residual.is_none()
    }

    /// Does the content fed so far form a complete match?
    pub fn matches(&self) -> bool {
        match &self.residual {
            Some(residual) => nullable(self.schema, residual, &mut BTreeSet::new()),
            None => false,
        }
    }
}

/// One item of an element's flattened content, borrowed from the
/// document.
enum ItemRef<'a> {
    Attr(&'a Attribute),
    ChildElement(&'a Element),
    ChildText(&'a str),
}

/// Does one item match an *atomic* type (scalar/attribute/element)?
fn match_item(schema: &Schema, item: &ItemRef<'_>, ty: &Type) -> bool {
    match (ty, item) {
        (Type::Scalar { kind, .. }, ItemRef::ChildText(t)) => scalar_accepts(*kind, t),
        (Type::Attribute { name, content }, ItemRef::Attr(a)) => {
            name == &a.name && scalar_type_accepts(schema, content, &a.value)
        }
        (Type::Element { name, content }, ItemRef::ChildElement(e)) => {
            name.matches(&e.name) && element_content_matches(schema, e, content)
        }
        (Type::Ref(name), item) => match schema.get(name) {
            Some(def) => match_item(schema, item, def),
            None => false,
        },
        _ => false,
    }
}

/// Does an attribute value satisfy a (possibly union/ref) scalar content
/// type?
fn scalar_type_accepts(schema: &Schema, ty: &Type, value: &str) -> bool {
    match ty {
        Type::Scalar { kind, .. } => scalar_accepts(*kind, value),
        Type::Choice(alts) => alts.iter().any(|t| scalar_type_accepts(schema, t, value)),
        Type::Ref(name) => schema
            .get(name)
            .is_some_and(|def| scalar_type_accepts(schema, def, value)),
        Type::Empty => value.is_empty(),
        _ => false,
    }
}

fn scalar_accepts(kind: ScalarKind, value: &str) -> bool {
    match kind {
        ScalarKind::String => true,
        ScalarKind::Integer => value.trim().parse::<i64>().is_ok(),
    }
}

/// Match an element's content (attributes ++ children) against a content
/// type using iterated derivatives.
fn element_content_matches(schema: &Schema, e: &Element, content: &Type) -> bool {
    let mut residual = content.clone();
    for attr in &e.attributes {
        match deriv(schema, &residual, &ItemRef::Attr(attr)) {
            Some(next) => residual = next,
            None => return false,
        }
    }
    for child in &e.children {
        // Whitespace-only text between elements was already dropped by the
        // parser; remaining text nodes are content.
        let item = match child {
            Node::Element(e) => ItemRef::ChildElement(e),
            Node::Text(t) => ItemRef::ChildText(t),
        };
        match deriv(schema, &residual, &item) {
            Some(next) => residual = next,
            None => return false,
        }
    }
    nullable(schema, &residual, &mut BTreeSet::new())
}

/// Can `ty` match the empty sequence? `visiting` guards recursive types.
fn nullable(schema: &Schema, ty: &Type, visiting: &mut BTreeSet<TypeName>) -> bool {
    match ty {
        Type::Empty => true,
        // An element with scalar content may have no text child when the
        // scalar is a (possibly empty) string — but the *item* itself is an
        // element/attribute/scalar position, which always consumes an item.
        Type::Scalar { kind, .. } => matches!(kind, ScalarKind::String),
        Type::Attribute { .. } | Type::Element { .. } => false,
        Type::Seq(items) => items.iter().all(|t| nullable(schema, t, visiting)),
        Type::Choice(items) => items.iter().any(|t| nullable(schema, t, visiting)),
        Type::Rep { inner, occurs, .. } => occurs.nullable() || nullable(schema, inner, visiting),
        Type::Ref(name) => {
            if !visiting.insert(name.clone()) {
                return false; // cycle: assume non-nullable
            }
            let result = schema
                .get(name)
                .is_some_and(|def| nullable(schema, def, visiting));
            visiting.remove(name);
            result
        }
    }
}

/// The Brzozowski derivative: the residual type after `ty` consumes `item`,
/// or `None` if `item` cannot begin `ty`.
fn deriv(schema: &Schema, ty: &Type, item: &ItemRef<'_>) -> Option<Type> {
    match ty {
        Type::Empty => None,
        Type::Scalar { .. } | Type::Attribute { .. } | Type::Element { .. } => {
            match_item(schema, item, ty).then_some(Type::Empty)
        }
        Type::Ref(name) => {
            // Atoms: a ref used as an item position. Match the item against
            // the definition (consuming exactly this one item).
            match_item(schema, item, ty)
                .then_some(Type::Empty)
                .or_else(|| {
                    // A ref may also name a *sequence* type (e.g. `type Movie =
                    // box_office[...], video_sales[...]` used inline): derive
                    // through the definition.
                    let def = schema.get(name)?;
                    if matches!(
                        def,
                        Type::Element { .. } | Type::Attribute { .. } | Type::Scalar { .. }
                    ) {
                        None // already tried as an atom
                    } else {
                        deriv(schema, def, item)
                    }
                })
        }
        Type::Seq(items) => {
            // lint: allow(no-unwrap-in-lib) — Type::seq normalizes, so a Seq node is never empty
            let (first, rest) = items.split_first().expect("Seq invariant: non-empty");
            let rest_ty = Type::seq(rest.iter().cloned());
            let mut alternatives = Vec::new();
            if let Some(d) = deriv(schema, first, item) {
                alternatives.push(Type::seq([d, rest_ty.clone()]));
            }
            if nullable(schema, first, &mut BTreeSet::new()) {
                if let Some(d) = deriv(schema, &rest_ty, item) {
                    alternatives.push(d);
                }
            }
            if alternatives.is_empty() {
                None
            } else {
                Some(Type::choice(alternatives))
            }
        }
        Type::Choice(items) => {
            let alternatives: Vec<Type> = items
                .iter()
                .filter_map(|t| deriv(schema, t, item))
                .collect();
            if alternatives.is_empty() {
                None
            } else {
                Some(Type::choice(alternatives))
            }
        }
        Type::Rep { inner, occurs, .. } => {
            if occurs.is_exhausted() {
                return None;
            }
            let d = deriv(schema, inner, item)?;
            Some(Type::seq([
                d,
                Type::rep((**inner).clone(), occurs.decrement()),
            ]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_schema;
    use legodb_xml::parse;

    fn show_schema() -> Schema {
        parse_schema(
            "type Show = show [ @type[ String ], title[ String ], year[ Integer ],
                                Aka{1,10}, Review*, ( Movie | TV ) ]
             type Aka = aka[ String ]
             type Review = review[ ~[ String ] ]
             type Movie = box_office[ Integer ], video_sales[ Integer ]
             type TV = seasons[ Integer ], description[ String ], Episode{0,*}
             type Episode = episode[ name[ String ], guest_director[ String ] ]",
        )
        .unwrap()
    }

    fn check(schema: &Schema, xml: &str) -> bool {
        validate(schema, &parse(xml).unwrap()).is_ok()
    }

    #[test]
    fn accepts_a_valid_movie() {
        let s = show_schema();
        assert!(check(
            &s,
            r#"<show type="Movie"><title>Fugitive, The</title><year>1993</year>
               <aka>Auf der Flucht</aka>
               <box_office>183752965</box_office><video_sales>72450220</video_sales></show>"#,
        ));
    }

    #[test]
    fn accepts_a_valid_tv_show() {
        let s = show_schema();
        assert!(check(
            &s,
            r#"<show type="TV series"><title>X Files, The</title><year>1993</year>
               <aka>Aux frontieres du Reel</aka>
               <seasons>10</seasons><description>A paranoic FBI agent</description>
               <episode><name>Ghost in the Machine</name>
                        <guest_director>Jerrold Freedman</guest_director></episode></show>"#,
        ));
    }

    #[test]
    fn rejects_missing_required_children() {
        let s = show_schema();
        // no aka (min 1), no Movie/TV tail
        assert!(!check(
            &s,
            r#"<show type="Movie"><title>T</title><year>1993</year></show>"#
        ));
    }

    #[test]
    fn rejects_over_max_repetition() {
        let s = parse_schema("type T = t[ Aka{0,2} ]\ntype Aka = aka[ String ]").unwrap();
        assert!(check(&s, "<t><aka>a</aka><aka>b</aka></t>"));
        assert!(!check(&s, "<t><aka>a</aka><aka>b</aka><aka>c</aka></t>"));
    }

    #[test]
    fn rejects_non_integer_content() {
        let s = parse_schema("type T = t[ year[ Integer ] ]").unwrap();
        assert!(check(&s, "<t><year>1993</year></t>"));
        assert!(!check(&s, "<t><year>nineteen</year></t>"));
    }

    #[test]
    fn rejects_wrong_union_mix() {
        let s = show_schema();
        // box_office (movie) followed by seasons (tv) is not in either branch
        assert!(!check(
            &s,
            r#"<show type="x"><title>T</title><year>1993</year><aka>a</aka>
               <box_office>5</box_office><seasons>2</seasons></show>"#,
        ));
    }

    #[test]
    fn wildcard_element_matches_any_name() {
        let s = show_schema();
        assert!(check(
            &s,
            r#"<show type="Movie"><title>T</title><year>1993</year><aka>a</aka>
               <review><nyt>Great.</nyt></review>
               <box_office>5</box_office><video_sales>6</video_sales></show>"#,
        ));
    }

    #[test]
    fn any_except_rejects_excluded_names() {
        let s = parse_schema("type R = review[ ~!nyt[ String ]* ]").unwrap();
        assert!(check(&s, "<review><suntimes>ok</suntimes></review>"));
        assert!(!check(&s, "<review><nyt>ok</nyt></review>"));
    }

    #[test]
    fn recursive_any_element_type_validates_arbitrary_documents() {
        let s = parse_schema("type AnyElement = ~[ (AnyElement | String)* ]").unwrap();
        assert!(check(&s, "<a><b>text</b><c><d/></c>tail</a>"));
    }

    #[test]
    fn optional_string_content_allows_empty_element() {
        let s = parse_schema("type T = t[ String ]").unwrap();
        assert!(check(&s, "<t></t>"));
        assert!(check(&s, "<t>hello</t>"));
    }

    #[test]
    fn integer_content_requires_a_value() {
        let s = parse_schema("type T = t[ Integer ]").unwrap();
        assert!(!check(&s, "<t></t>"));
        assert!(check(&s, "<t>7</t>"));
    }

    #[test]
    fn ref_to_sequence_type_matches_inline() {
        // `Movie` names a sequence, not an element: the ref must expand
        // in place (this is exactly what inline/outline toggles).
        let s = parse_schema(
            "type T = t[ title[ String ], Movie ]
             type Movie = box_office[ Integer ], video_sales[ Integer ]",
        )
        .unwrap();
        assert!(check(
            &s,
            "<t><title>x</title><box_office>1</box_office><video_sales>2</video_sales></t>"
        ));
        assert!(!check(
            &s,
            "<t><title>x</title><box_office>1</box_office></t>"
        ));
    }

    #[test]
    fn attribute_type_mismatch_is_rejected() {
        let s = parse_schema("type T = t[ @n[ Integer ] ]").unwrap();
        assert!(check(&s, r#"<t n="5"/>"#));
        assert!(!check(&s, r#"<t n="five"/>"#));
    }

    #[test]
    fn missing_attribute_is_rejected_and_optional_attr_ok() {
        let s = parse_schema("type T = t[ @n[ String ] ]").unwrap();
        assert!(!check(&s, "<t/>"));
        let s = parse_schema("type T = t[ @n[ String ]? ]").unwrap();
        assert!(check(&s, "<t/>"));
        assert!(check(&s, r#"<t n="x"/>"#));
    }

    /// Replays an element's content through a [`ContentMatcher`] the way a
    /// streaming shredder would: attributes first, then children in order.
    fn matcher_accepts(schema: &Schema, element: &legodb_xml::Element, content: &Type) -> bool {
        let mut m = ContentMatcher::new(schema, content);
        for attr in &element.attributes {
            m.feed_attribute(attr);
        }
        for child in &element.children {
            match child {
                Node::Element(e) => m.feed_element(e),
                Node::Text(t) => m.feed_text(t),
            }
        }
        m.matches()
    }

    #[test]
    fn content_matcher_agrees_with_content_matches() {
        let s = show_schema();
        let docs = [
            r#"<show type="Movie"><title>T</title><year>1993</year><aka>a</aka>
               <box_office>5</box_office><video_sales>6</video_sales></show>"#,
            r#"<show type="Movie"><title>T</title><year>1993</year></show>"#,
            r#"<show type="x"><title>T</title><year>1993</year><aka>a</aka>
               <box_office>5</box_office><seasons>2</seasons></show>"#,
        ];
        let content = match s.get(&TypeName::new("Show")).unwrap() {
            Type::Element { content, .. } => content.clone(),
            other => panic!("unexpected Show definition {other}"),
        };
        for xml in docs {
            let doc = parse(xml).unwrap();
            assert_eq!(
                matcher_accepts(&s, &doc.root, &content),
                content_matches(&s, &doc.root, &content),
                "{xml}"
            );
        }
    }

    #[test]
    fn content_matcher_fails_fast_and_stays_failed() {
        let s = parse_schema("type T = t[ year[ Integer ] ]").unwrap();
        let content = match s.get(&TypeName::new("T")).unwrap() {
            Type::Element { content, .. } => content.clone(),
            other => panic!("unexpected definition {other}"),
        };
        let mut m = ContentMatcher::new(&s, &content);
        assert!(!m.failed());
        assert!(!m.matches(), "year is required");
        let bogus = parse("<t><nope/></t>").unwrap();
        let Node::Element(child) = &bogus.root.children[0] else {
            panic!("expected element child");
        };
        m.feed_element(child);
        assert!(m.failed());
        // Feeding more after failure keeps it failed rather than panicking.
        m.feed_text("later");
        assert!(m.failed() && !m.matches());
    }

    #[test]
    fn verbose_reports_a_path() {
        let s = parse_schema("type T = t[ year[ Integer ] ]").unwrap();
        let doc = parse("<t><year>no</year></t>").unwrap();
        let err = validate_verbose(&s, &doc).unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
