//! Shredding: loading an XML document into the relational database defined
//! by a [`Mapping`] (the paper's "corresponding mapping from XML documents
//! to databases", §1).
//!
//! Each type instance becomes one row: the key column gets a fresh id, the
//! `parent_T` column gets the owning instance's id, scalar positions fill
//! data columns, and child types recurse. Union alternatives are decided by
//! validating the candidate element (or element content, for
//! sequence-shaped types) against each alternative.
//!
//! Two ingestion paths produce bit-identical databases:
//!
//! - [`shred_dom`] walks a fully materialized [`Document`] — the reference
//!   implementation, and the oracle the streaming path is tested against;
//! - [`shred_events`] consumes a pull-parser event stream. Only the *root
//!   spine* is streamed: each direct child subtree of the root is buffered
//!   one at a time, claimed and shredded via the same recursion as the DOM
//!   walk, then dropped — so peak memory is one root-child subtree (one
//!   `<show>` for the IMDB workload), not the whole document. The root's
//!   own content model is checked incrementally: when every child position
//!   carries a distinct literal tag name under plain sequence/repetition
//!   structure, a [`SiteTracker`] routes children by name in O(1) and each
//!   subtree is validated exactly once at its claim (the perf-critical
//!   path); otherwise a generic derivative [`ContentMatcher`] folds the
//!   stream. The root row (whose id is allocated when the root opens but
//!   whose columns may resolve later) is re-sequenced into the DOM
//!   insertion order by a per-table id-order sink.
//!
//! [`shred`] is a thin wrapper feeding the streaming core with borrowed
//! children. Root content models the streaming walk cannot reproduce
//! exactly (a named alternative that is sequence-shaped rather than
//! element-shaped, or a root that is not literally an element definition)
//! fall back to full buffering + [`shred_dom`], keeping bit-identity
//! unconditional.

use crate::mapping::{ColumnTarget, Mapping, TableMapping, ANY_STEP, TILDE_STEP};
use legodb_relational::{Database, RelationalError, Value};
use legodb_schema::validate::{content_matches, element_matches, ContentMatcher};
use legodb_schema::{NameTest, ScalarKind, Schema, Type, TypeName};
use legodb_xml::{
    events_with_limits, Attribute, Document, Element, Event, EventAttribute, Node, ParseError,
    ParseLimits,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A shredding failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ShredError {
    /// The document does not match the p-schema.
    Invalid(String),
    /// A storage-level failure (should not occur for valid inputs).
    Storage(RelationalError),
    /// The mapping, schema, and catalog disagree — a type the mapping
    /// references is undefined, or a column is missing. Only reachable
    /// with a hand-assembled [`Mapping`]; `rel(ps)` never produces one.
    Inconsistent(String),
    /// The event stream itself was malformed (streaming ingest only).
    Parse(ParseError),
}

impl fmt::Display for ShredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShredError::Invalid(m) => write!(f, "document does not match the p-schema: {m}"),
            ShredError::Storage(e) => write!(f, "storage error while shredding: {e}"),
            ShredError::Inconsistent(m) => write!(f, "mapping/schema inconsistency: {m}"),
            ShredError::Parse(e) => write!(f, "parse error while shredding: {e}"),
        }
    }
}

impl std::error::Error for ShredError {}

/// The typed error for a mapping/schema/catalog lookup that only fails
/// when the caller assembled inconsistent inputs.
fn inconsistent(what: &str, name: &dyn fmt::Display) -> ShredError {
    ShredError::Inconsistent(format!("{what} `{name}` is missing"))
}

impl From<RelationalError> for ShredError {
    fn from(e: RelationalError) -> Self {
        ShredError::Storage(e)
    }
}

impl From<ParseError> for ShredError {
    fn from(e: ParseError) -> Self {
        ShredError::Parse(e)
    }
}

/// What a streaming shred had to keep resident, for the ingest benchmarks
/// and the bounded-memory tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShredReport {
    /// Total rows inserted across all tables.
    pub rows: u64,
    /// Peak number of XML elements resident at once: the root anchor plus
    /// the largest root-child subtree (streamed), or the whole document's
    /// element count (buffered fallback).
    pub peak_resident_elements: usize,
    /// False when the root content model forced full-document buffering.
    pub streamed: bool,
}

/// Shred `doc` into a fresh database over `mapping.catalog`.
///
/// A wrapper over the streaming core, feeding the root's children as
/// borrowed subtrees; falls back to [`shred_dom`] for root shapes the
/// streaming walk does not handle. Builds foreign-key indexes after
/// loading (they are what the publishing path and the index-join
/// operators probe).
pub fn shred(mapping: &Mapping, doc: &Document) -> Result<Database, ShredError> {
    match open_root(mapping, &doc.root.name, &doc.root.attributes)? {
        Opened::Streaming(mut rs) => {
            for node in &doc.root.children {
                match node {
                    Node::Text(t) => rs.text(t)?,
                    Node::Element(e) => rs.child(e)?,
                }
            }
            rs.finish().map(|(db, _)| db)
        }
        Opened::Buffering => shred_dom(mapping, doc),
    }
}

/// Shred a fully materialized document with the classic DOM walk: validate
/// the whole tree upfront, then recurse. This is the reference
/// implementation the streaming path must agree with bit-for-bit, and the
/// baseline the ingest benchmark measures against.
pub fn shred_dom(mapping: &Mapping, doc: &Document) -> Result<Database, ShredError> {
    let schema = mapping.pschema.schema();
    let root = mapping.root().clone();
    let root_def = schema
        .get(&root)
        .ok_or_else(|| inconsistent("root type", &root))?;
    if !element_matches(schema, &doc.root, root_def) {
        return Err(ShredError::Invalid(format!(
            "root element <{}> does not match type {root}",
            doc.root.name
        )));
    }
    let mut s = Shredder::new(mapping);
    s.shred_instance(&root, &doc.root, None)?;
    s.finish().map(|(db, _)| db)
}

/// Shred directly from an XML string without materializing the document:
/// tokenize under `limits` and stream into the shredder.
pub fn shred_stream(
    mapping: &Mapping,
    input: &str,
    limits: &ParseLimits,
) -> Result<Database, ShredError> {
    shred_events(mapping, events_with_limits(input, limits))
}

/// Shred a pull-parser event stream (see the module docs for the memory
/// model). The stream must describe one well-formed document; tokenizer
/// errors surface as [`ShredError::Parse`].
pub fn shred_events<'a, I>(mapping: &Mapping, events: I) -> Result<Database, ShredError>
where
    I: IntoIterator<Item = Result<Event<'a>, ParseError>>,
{
    shred_events_report(mapping, events).map(|(db, _)| db)
}

/// Like [`shred_events`], also reporting row and peak-memory accounting.
pub fn shred_events_report<'a, I>(
    mapping: &Mapping,
    events: I,
) -> Result<(Database, ShredReport), ShredError>
where
    I: IntoIterator<Item = Result<Event<'a>, ParseError>>,
{
    let mut events = events.into_iter();
    let (root_name, root_attrs) = match events.next() {
        Some(Ok(Event::StartElement { name, attributes })) => {
            (name.into_owned(), own_attrs(attributes))
        }
        Some(Ok(_)) => {
            return Err(ShredError::Invalid(
                "event stream does not start with an element".into(),
            ))
        }
        Some(Err(e)) => return Err(ShredError::Parse(e)),
        None => return Err(ShredError::Invalid("empty event stream".into())),
    };
    match open_root(mapping, &root_name, &root_attrs)? {
        Opened::Streaming(rs) => stream_events(*rs, events),
        Opened::Buffering => {
            let doc = rebuild_document(root_name, root_attrs, events)?;
            let peak = doc.element_count();
            let db = shred_dom(mapping, &doc)?;
            let rows = db.total_rows() as u64;
            Ok((
                db,
                ShredReport {
                    rows,
                    peak_resident_elements: peak,
                    streamed: false,
                },
            ))
        }
    }
}

fn own_attrs(attributes: Vec<EventAttribute<'_>>) -> Vec<Attribute> {
    attributes
        .into_iter()
        .map(|a| Attribute {
            name: a.name.into_owned(),
            value: a.value.into_owned(),
        })
        .collect()
}

/// Drive a [`RootStream`] over the events following the root start tag:
/// buffer each root-child subtree, hand it to the core when it closes,
/// then drop it.
fn stream_events<'a, I>(
    mut rs: RootStream<'_>,
    events: I,
) -> Result<(Database, ShredReport), ShredError>
where
    I: Iterator<Item = Result<Event<'a>, ParseError>>,
{
    let mut stack: Vec<Element> = Vec::new();
    let mut live = 0usize; // elements in the subtree being buffered
    let mut peak = 1usize; // the root anchor itself
    let mut closed = false;
    for event in events {
        let event = event?;
        if closed {
            // The tokenizer never emits events after the root closes; a
            // hand-built stream that does is malformed.
            return Err(ShredError::Invalid(
                "event after the root element closed".into(),
            ));
        }
        match event {
            Event::StartElement { name, attributes } => {
                let mut element = Element::new(name.into_owned());
                element.attributes = own_attrs(attributes);
                stack.push(element);
                live += 1;
                peak = peak.max(live + 1);
            }
            Event::Text(t) => match stack.last_mut() {
                Some(open) => open.children.push(Node::Text(t.into_owned())),
                None => rs.text(&t)?,
            },
            Event::EndElement { .. } => match stack.pop() {
                Some(element) => match stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(element)),
                    None => {
                        rs.child(&element)?;
                        live = 0;
                    }
                },
                None => closed = true,
            },
        }
    }
    if !closed {
        return Err(ShredError::Invalid(
            "event stream ended before the root element closed".into(),
        ));
    }
    let (db, rows) = rs.finish()?;
    Ok((
        db,
        ShredReport {
            rows,
            peak_resident_elements: peak,
            streamed: true,
        },
    ))
}

/// Rebuild a whole [`Document`] from the events after the root start tag —
/// the buffered fallback when the root content model is not streamable.
fn rebuild_document<'a, I>(
    root_name: String,
    root_attrs: Vec<Attribute>,
    events: I,
) -> Result<Document, ShredError>
where
    I: Iterator<Item = Result<Event<'a>, ParseError>>,
{
    let mut root = Element::new(root_name);
    root.attributes = root_attrs;
    let mut stack = vec![root];
    let mut done: Option<Element> = None;
    for event in events {
        let event = event?;
        if done.is_some() {
            return Err(ShredError::Invalid(
                "event after the root element closed".into(),
            ));
        }
        match event {
            Event::StartElement { name, attributes } => {
                let mut element = Element::new(name.into_owned());
                element.attributes = own_attrs(attributes);
                stack.push(element);
            }
            Event::Text(t) => {
                if let Some(open) = stack.last_mut() {
                    open.children.push(Node::Text(t.into_owned()));
                }
            }
            Event::EndElement { .. } => match stack.pop() {
                Some(element) => match stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(element)),
                    None => done = Some(element),
                },
                None => {
                    return Err(ShredError::Invalid(
                        "unbalanced end event in the stream".into(),
                    ))
                }
            },
        }
    }
    done.map(Document::new).ok_or_else(|| {
        ShredError::Invalid("event stream ended before the root element closed".into())
    })
}

/// Result of [`open_root`]: a live streaming core, or a signal that the
/// caller must buffer the whole document for [`shred_dom`].
enum Opened<'a> {
    Streaming(Box<RootStream<'a>>),
    Buffering,
}

/// Occurrence bounds for one root site in deterministic mode.
struct SiteSpec {
    min: u32,
    max: Option<u32>,
}

/// Where a root child with a given tag name goes in deterministic mode.
struct DetTarget<'a> {
    site: usize,
    /// `Some((type, content))` for a named-site alternative; `None` for an
    /// inline element site (claimed through [`RootSite::Inline`]).
    alt: Option<(TypeName, &'a Type)>,
}

/// The deterministic root-content checker: when every child position has
/// a distinct literal tag name and the content model is a plain sequence
/// of occurrence-bounded sites, the matched language is exactly
/// `s1^{a1} … sn^{an}` with `min_i <= a_i <= max_i`. Tag names then route
/// children, and validity reduces to an O(1) order-and-count step per
/// child — so each subtree is validated once (at its claim) instead of
/// twice (generic matcher + claim).
struct SiteTracker<'a> {
    by_name: BTreeMap<String, DetTarget<'a>>,
    specs: Vec<SiteSpec>,
    counts: Vec<u32>,
    cursor: usize,
}

impl SiteTracker<'_> {
    /// Account one child routed to site `k`; false = the document cannot
    /// match the content model.
    fn step(&mut self, k: usize) -> bool {
        if k < self.cursor {
            return false; // sites occur in sequence order
        }
        if k > self.cursor {
            for i in self.cursor..k {
                if self.counts[i] < self.specs[i].min {
                    return false; // a skipped site missed its minimum
                }
            }
            self.cursor = k;
        }
        self.counts[k] += 1;
        match self.specs[k].max {
            Some(max) => self.counts[k] <= max,
            None => true,
        }
    }

    /// All remaining sites satisfied their minimum?
    fn close(&self) -> bool {
        (self.cursor..self.specs.len()).all(|i| self.counts[i] >= self.specs[i].min)
    }
}

/// How the root's content model is checked while streaming.
enum RootCheck<'a> {
    /// The general derivative fold (validates each subtree in full).
    Generic(ContentMatcher<'a>),
    /// The deterministic order-and-count automaton.
    Deterministic(SiteTracker<'a>),
}

/// Collect per-site occurrence bounds when the content model is a plain
/// (possibly nested) sequence of sites, each bare or under one
/// repetition. Push order mirrors [`collect_root_sites`] exactly, so
/// `out[i]` describes `sites[i]`. Returns false on any shape the
/// deterministic checker cannot express (scalar/attribute positions,
/// structural choices, repetition over a group).
fn collect_site_specs(ty: &Type, out: &mut Vec<SiteSpec>) -> bool {
    match ty {
        Type::Empty => true,
        Type::Element { .. } => {
            out.push(SiteSpec {
                min: 1,
                max: Some(1),
            });
            true
        }
        named @ (Type::Choice(_) | Type::Ref(_)) if ty_is_named_layer(named) => {
            out.push(SiteSpec {
                min: 1,
                max: Some(1),
            });
            true
        }
        Type::Seq(items) => items.iter().all(|t| collect_site_specs(t, out)),
        Type::Rep { inner, occurs, .. } => {
            let single_site = matches!(**inner, Type::Element { .. }) || ty_is_named_layer(inner);
            if !single_site {
                return false; // repetition over a group: not per-site counting
            }
            let at = out.len();
            if !collect_site_specs(inner, out) {
                return false;
            }
            out[at] = SiteSpec {
                min: occurs.min,
                max: occurs.max,
            };
            true
        }
        _ => false,
    }
}

/// Build the deterministic checker, or `None` when a name is non-literal
/// or duplicated (the generic matcher handles those).
fn build_site_tracker<'a>(
    schema: &'a Schema,
    content: &'a Type,
    sites: &[RootSite<'a>],
) -> Option<SiteTracker<'a>> {
    let mut specs = Vec::new();
    if !collect_site_specs(content, &mut specs) || specs.len() != sites.len() {
        return None;
    }
    let mut by_name = BTreeMap::new();
    for (k, site) in sites.iter().enumerate() {
        match site {
            RootSite::Inline { name, .. } => {
                let NameTest::Name(n) = name else { return None };
                if by_name
                    .insert(n.clone(), DetTarget { site: k, alt: None })
                    .is_some()
                {
                    return None;
                }
            }
            RootSite::Named { alternatives } => {
                for alt in alternatives {
                    // collect_root_sites guaranteed an element-shaped def.
                    let Some(Type::Element { name, content }) = schema.get(alt) else {
                        return None;
                    };
                    let NameTest::Name(n) = name else { return None };
                    let target = DetTarget {
                        site: k,
                        alt: Some((alt.clone(), content)),
                    };
                    if by_name.insert(n.clone(), target).is_some() {
                        return None;
                    }
                }
            }
        }
    }
    let counts = vec![0; specs.len()];
    Some(SiteTracker {
        by_name,
        specs,
        counts,
        cursor: 0,
    })
}

/// One site of the root content model, in model-walk order. Mirrors the
/// arms of [`Shredder::spawn_children`] the DOM walk would visit.
enum RootSite<'a> {
    /// An inlined element child: the first matching child descends, once.
    Inline {
        name: &'a NameTest,
        content: &'a Type,
        claimed: bool,
    },
    /// A named-layer site (a ref or a union of refs), all alternatives
    /// element-shaped (checked by [`collect_root_sites`]).
    Named { alternatives: Vec<TypeName> },
}

/// An unresolved root column: the relative path's first step has not
/// arrived yet. Paths anchored on the root itself (`@attr`, `#tilde`)
/// resolve at open and never become cursors.
enum ColumnCursor {
    /// The root's own scalar content (empty relative path): resolves at
    /// close from the accumulated direct text.
    OwnText { idx: usize, target: ColumnTarget },
    /// Waiting for the first child element that `steps[0]` picks; the
    /// remaining steps are then navigated inside that buffered subtree.
    Child {
        steps: Vec<Step>,
        idx: usize,
        kind: ScalarKind,
    },
    /// Already bound (whether or not a value was found).
    Done,
}

/// The streaming core: the open root row plus everything needed to claim
/// root-child subtrees as they complete.
struct RootStream<'a> {
    sh: Shredder<'a>,
    root_ty: TypeName,
    root_name: String,
    root_table: String,
    root_id: i64,
    row: Vec<Value>,
    cursors: Vec<ColumnCursor>,
    check: RootCheck<'a>,
    sites: Vec<RootSite<'a>>,
    reserved: BTreeSet<String>,
    root_text: String,
}

/// Inspect the mapping's root type and either build a [`RootStream`] or
/// report that exact DOM semantics require buffering. Invalidity that is
/// already decidable from the root tag (wrong element name, attributes
/// that kill the content model) errors here.
fn open_root<'a>(
    mapping: &'a Mapping,
    name: &str,
    attributes: &[Attribute],
) -> Result<Opened<'a>, ShredError> {
    let schema = mapping.pschema.schema();
    let root_ty = mapping.root().clone();
    // Every shape the streaming walk cannot reproduce exactly defers to
    // the DOM path, which also owns the error reporting for inconsistent
    // hand-assembled mappings.
    let Some(Type::Element {
        name: root_test,
        content,
    }) = schema.get(&root_ty)
    else {
        return Ok(Opened::Buffering);
    };
    let mut sites = Vec::new();
    if !collect_root_sites(schema, content, &mut sites) {
        return Ok(Opened::Buffering);
    }
    let Some(table_mapping) = mapping.table(&root_ty) else {
        return Ok(Opened::Buffering);
    };
    let Some(table_def) = mapping.catalog.table(&table_mapping.table) else {
        return Ok(Opened::Buffering);
    };
    let Some(key_idx) = table_def.column_index(&table_mapping.key) else {
        return Ok(Opened::Buffering);
    };

    if !root_test.matches(name) {
        return Err(ShredError::Invalid(format!(
            "root element <{name}> does not match type {root_ty}"
        )));
    }

    let mut sh = Shredder::new(mapping);
    let root_id = sh.allocate_id(&table_mapping.table);
    let mut row = vec![Value::Null; table_def.columns.len()];
    row[key_idx] = Value::Int(root_id);

    // Columns anchored on the root resolve now; the rest become cursors
    // that bind to the first matching child subtree.
    let mut cursors = Vec::new();
    let column_steps = sh.steps.get(&root_ty).map_or(&[][..], Vec::as_slice);
    for ((rel_path, target), steps) in table_mapping.columns.iter().zip(column_steps) {
        let Some(idx) = table_def.column_index(&target.column) else {
            return Ok(Opened::Buffering);
        };
        match rel_path.first() {
            None => cursors.push(ColumnCursor::OwnText {
                idx,
                target: target.clone(),
            }),
            Some(step) if step == TILDE_STEP => row[idx] = Value::str(name),
            Some(step) => {
                if let Some(attr) = step.strip_prefix('@') {
                    if let Some(a) = attributes.iter().find(|a| a.name == attr) {
                        row[idx] = convert(&a.value, target.kind);
                    }
                } else {
                    cursors.push(ColumnCursor::Child {
                        steps: steps.clone(),
                        idx,
                        kind: target.kind,
                    });
                }
            }
        }
    }

    let check = match build_site_tracker(schema, content, &sites) {
        Some(tracker) => {
            // Deterministic-eligible content has no attribute positions,
            // so any root attribute kills the derivative exactly as it
            // would in the DOM path.
            if !attributes.is_empty() {
                return Err(ShredError::Invalid(format!(
                    "root element <{name}> does not match type {root_ty}"
                )));
            }
            RootCheck::Deterministic(tracker)
        }
        None => {
            let mut matcher = ContentMatcher::new(schema, content);
            for attr in attributes {
                matcher.feed_attribute(attr);
            }
            if matcher.failed() {
                return Err(ShredError::Invalid(format!(
                    "root element <{name}> does not match type {root_ty}"
                )));
            }
            RootCheck::Generic(matcher)
        }
    };
    let reserved = sh.literal_names(content);
    let rs = RootStream {
        sh,
        root_ty,
        root_name: name.to_string(),
        root_table: table_mapping.table.clone(),
        root_id,
        row,
        cursors,
        check,
        sites,
        reserved,
        root_text: String::new(),
    };
    Ok(Opened::Streaming(Box::new(rs)))
}

/// Flatten the root content model into streamable sites, mirroring the
/// walk order of [`Shredder::spawn_children`]. Returns false when a shape
/// appears that the streaming claim loop cannot reproduce (a named
/// alternative that is missing or not element-shaped).
fn collect_root_sites<'a>(schema: &'a Schema, ty: &'a Type, out: &mut Vec<RootSite<'a>>) -> bool {
    match ty {
        Type::Empty | Type::Scalar { .. } | Type::Attribute { .. } => true,
        Type::Element { name, content } => {
            out.push(RootSite::Inline {
                name,
                content,
                claimed: false,
            });
            true
        }
        Type::Seq(items) => items.iter().all(|t| collect_root_sites(schema, t, out)),
        Type::Rep { inner, .. } => collect_root_sites(schema, inner, out),
        named @ (Type::Choice(_) | Type::Ref(_)) if ty_is_named_layer(named) => {
            let alternatives = named_alternatives(named);
            for alt in &alternatives {
                if !matches!(schema.get(alt), Some(Type::Element { .. })) {
                    return false; // group-shaped or missing alternative
                }
            }
            out.push(RootSite::Named { alternatives });
            true
        }
        Type::Choice(items) => items.iter().all(|t| collect_root_sites(schema, t, out)),
        // A lone Ref is always a named layer; kept for match completeness.
        Type::Ref(_) => false,
    }
}

impl RootStream<'_> {
    fn invalid_root(&self) -> ShredError {
        ShredError::Invalid(format!(
            "root element <{}> does not match type {}",
            self.root_name, self.root_ty
        ))
    }

    /// A direct text child of the root. Whitespace-only runs never arrive
    /// here: both the tokenizer and the tree parser drop them.
    fn text(&mut self, text: &str) -> Result<(), ShredError> {
        match &mut self.check {
            RootCheck::Generic(matcher) => {
                matcher.feed_text(text);
                if matcher.failed() {
                    return Err(self.invalid_root());
                }
            }
            // Deterministic-eligible content has no scalar positions, so
            // non-whitespace text kills the derivative in the DOM path.
            RootCheck::Deterministic(_) => return Err(self.invalid_root()),
        }
        self.root_text.push_str(text);
        Ok(())
    }

    /// A completed root-child subtree: validate it into the root's content
    /// model, bind any waiting column cursors, and offer it to each site —
    /// every site sees every child, exactly like the DOM walk.
    fn child(&mut self, child: &Element) -> Result<(), ShredError> {
        // Route the child. Generic mode validates the whole subtree into
        // the derivative here (and validates again at the claim below);
        // deterministic mode does one O(1) order-and-count step now and
        // defers the single full validation to the claim.
        let det = match &mut self.check {
            RootCheck::Generic(matcher) => {
                matcher.feed_element(child);
                if matcher.failed() {
                    return Err(self.invalid_root());
                }
                None
            }
            RootCheck::Deterministic(tracker) => {
                let Some(target) = tracker.by_name.get(&child.name) else {
                    return Err(self.invalid_root());
                };
                let routed = (target.site, target.alt.clone());
                if !tracker.step(routed.0) {
                    return Err(self.invalid_root());
                }
                Some(routed)
            }
        };
        for cursor in self.cursors.iter_mut() {
            if let ColumnCursor::Child { steps, idx, kind } = cursor {
                if steps[0].picks(&child.name) {
                    if let Some(value) = extract_value(child, &steps[1..], *kind) {
                        self.row[*idx] = value;
                    }
                    *cursor = ColumnCursor::Done;
                }
            }
        }
        let root_id = self.root_id;
        let Some((site_idx, alt)) = det else {
            // Generic mode: offer the child to every site, exactly like
            // the DOM walk.
            for site in self.sites.iter_mut() {
                match site {
                    RootSite::Inline {
                        name,
                        content,
                        claimed,
                    } => {
                        if !*claimed && name.matches(&child.name) {
                            *claimed = true;
                            let inner_reserved = self.sh.literal_names(content);
                            self.sh.spawn_children(
                                content,
                                child,
                                &self.root_ty,
                                root_id,
                                &inner_reserved,
                            )?;
                        }
                    }
                    RootSite::Named { alternatives } => {
                        self.sh.claim_named_child(
                            alternatives,
                            child,
                            &self.root_ty,
                            root_id,
                            &self.reserved,
                        )?;
                    }
                }
            }
            return Ok(());
        };
        // Deterministic mode: the child's name picked a unique site, so
        // validate the subtree exactly once, at its claim.
        match alt {
            Some((alt_ty, alt_content)) => {
                if !content_matches(self.sh.schema, child, alt_content) {
                    return Err(self.invalid_root());
                }
                self.sh
                    .shred_instance(&alt_ty, child, Some((&self.root_ty, root_id)))?;
            }
            None => {
                let (content, first) = match &mut self.sites[site_idx] {
                    RootSite::Inline {
                        content, claimed, ..
                    } => {
                        let first = !*claimed;
                        *claimed = true;
                        (*content, first)
                    }
                    // build_site_tracker only routes `alt: None` to inline
                    // sites, but stay total rather than panic.
                    RootSite::Named { .. } => return Err(self.invalid_root()),
                };
                if !content_matches(self.sh.schema, child, content) {
                    return Err(self.invalid_root());
                }
                if first {
                    let inner_reserved = self.sh.literal_names(content);
                    self.sh.spawn_children(
                        content,
                        child,
                        &self.root_ty,
                        root_id,
                        &inner_reserved,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// The root closed: the content model must be complete, own-text
    /// columns resolve, and the root row finally flows into the sink.
    fn finish(mut self) -> Result<(Database, u64), ShredError> {
        let complete = match &self.check {
            RootCheck::Generic(matcher) => matcher.matches(),
            RootCheck::Deterministic(tracker) => tracker.close(),
        };
        if !complete {
            return Err(self.invalid_root());
        }
        let text = self.root_text.trim();
        for cursor in &self.cursors {
            if let ColumnCursor::OwnText { idx, target } = cursor {
                if text.is_empty() && target.kind == ScalarKind::Integer {
                    continue;
                }
                self.row[*idx] = convert(text, target.kind);
            }
        }
        let row = std::mem::take(&mut self.row);
        self.sh.emit(&self.root_table, self.root_id, row)?;
        self.sh.finish()
    }
}

struct Shredder<'a> {
    mapping: &'a Mapping,
    schema: &'a Schema,
    db: Database,
    /// Per-table id counters. BTreeMap, not HashMap: shredding must stay
    /// deterministic end-to-end so fingerprint-adjacent paths never see
    /// hash-randomized order.
    next_ids: BTreeMap<String, i64>,
    /// Next id each table expects to insert (see [`Shredder::emit`]).
    emitted: BTreeMap<String, i64>,
    /// Completed rows whose id is ahead of the table's insertion frontier.
    pending: BTreeMap<String, BTreeMap<i64, Vec<Value>>>,
    rows: u64,
    /// Each table's column paths resolved against its type's content
    /// model, in `TableMapping::columns` order.
    steps: BTreeMap<TypeName, Vec<Vec<Step>>>,
}

impl<'a> Shredder<'a> {
    fn new(mapping: &'a Mapping) -> Shredder<'a> {
        let mut sh = Shredder {
            mapping,
            schema: mapping.pschema.schema(),
            db: Database::from_catalog(&mapping.catalog),
            next_ids: BTreeMap::new(),
            emitted: BTreeMap::new(),
            pending: BTreeMap::new(),
            rows: 0,
            steps: BTreeMap::new(),
        };
        sh.steps = mapping
            .tables
            .iter()
            .map(|(ty, tm)| (ty.clone(), sh.column_steps(ty, tm)))
            .collect();
        sh
    }

    /// Resolve every column path of `tm` against the content model of
    /// `ty`. An `#any` step picks the first child the wildcard's name
    /// test accepts that no literal site of the same content model
    /// claims — a literal `title` beside `~[String]?` keeps its child.
    fn column_steps(&self, ty: &TypeName, tm: &TableMapping) -> Vec<Vec<Step>> {
        let model = match self.schema.get(ty) {
            Some(Type::Element { content, .. }) => Some(content.as_ref()),
            other => other,
        };
        tm.columns
            .keys()
            .map(|rel_path| {
                let mut model = model;
                rel_path
                    .iter()
                    .map(|step| {
                        if let Some(attr) = step.strip_prefix('@') {
                            return Step::Attr(attr.to_string());
                        }
                        if step == TILDE_STEP {
                            return Step::Tilde;
                        }
                        let any = step == ANY_STEP;
                        let here = model;
                        let element = here.and_then(|m| {
                            inline_element(m, &|nt| match nt.literal() {
                                Some(n) => n == step,
                                None => any,
                            })
                        });
                        model = element.map(|(_, content)| content);
                        if !any {
                            return Step::Child(step.clone());
                        }
                        Step::Any {
                            test: element.map_or(NameTest::Any, |(nt, _)| nt.clone()),
                            reserved: here.map(|m| self.literal_names(m)).unwrap_or_default(),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn allocate_id(&mut self, table: &str) -> i64 {
        if !self.next_ids.contains_key(table) {
            self.next_ids.insert(table.to_string(), 0);
        }
        // lint: allow(no-unwrap-in-lib) — inserted just above when absent
        let n = self.next_ids.get_mut(table).expect("present");
        *n += 1;
        *n
    }

    /// Insert `row` into `table` preserving the DOM shredder's per-table
    /// insertion order. The DOM walk inserts each row the moment its id is
    /// allocated, so per-table order is ascending id; the streaming walk
    /// completes the root row *last* (its element closes at end of input),
    /// so completions may arrive out of order and wait here until the
    /// frontier reaches them.
    fn emit(&mut self, table: &str, id: i64, row: Vec<Value>) -> Result<(), ShredError> {
        if !self.emitted.contains_key(table) {
            self.emitted.insert(table.to_string(), 1);
        }
        // lint: allow(no-unwrap-in-lib) — inserted just above when absent
        let next = self.emitted.get_mut(table).expect("present");
        if id != *next {
            self.pending
                .entry(table.to_string())
                .or_default()
                .insert(id, row);
            return Ok(());
        }
        self.db.insert(table, row)?;
        self.rows += 1;
        *next += 1;
        if let Some(waiting) = self.pending.get_mut(table) {
            while let Some(row) = waiting.remove(next) {
                self.db.insert(table, row)?;
                self.rows += 1;
                *next += 1;
            }
        }
        Ok(())
    }

    /// Verify the sink drained, build FK indexes, and hand the database
    /// over with its total row count.
    fn finish(self) -> Result<(Database, u64), ShredError> {
        if self.pending.values().any(|p| !p.is_empty()) {
            return Err(ShredError::Inconsistent(
                "buffered row completions were never flushed".into(),
            ));
        }
        for table in self.db.tables() {
            let fks: Vec<String> = table
                .def
                .foreign_keys
                .iter()
                .map(|fk| fk.column.clone())
                .collect();
            for fk in fks {
                table.create_index(&fk)?;
            }
        }
        Ok((self.db, self.rows))
    }

    /// Shred one instance of `ty`, anchored at `element` (the instance's
    /// own element, or the parent element for sequence-shaped types).
    fn shred_instance(
        &mut self,
        ty: &TypeName,
        element: &Element,
        parent: Option<(&TypeName, i64)>,
    ) -> Result<i64, ShredError> {
        let table_mapping = self
            .mapping
            .table(ty)
            .ok_or_else(|| inconsistent("table mapping for type", ty))?;
        let def = self
            .schema
            .get(ty)
            .ok_or_else(|| inconsistent("type definition", ty))?;
        let table_def = self
            .mapping
            .catalog
            .table(&table_mapping.table)
            .ok_or_else(|| inconsistent("catalog table", &table_mapping.table))?;

        let id = self.allocate_id(&table_mapping.table);

        let mut row = vec![Value::Null; table_def.columns.len()];
        let key_idx = table_def
            .column_index(&table_mapping.key)
            .ok_or_else(|| inconsistent("key column", &table_mapping.key))?;
        row[key_idx] = Value::Int(id);
        if let Some((parent_ty, parent_id)) = parent {
            if let Some(fk) = table_mapping.parent_fk.get(parent_ty) {
                let fk_idx = table_def
                    .column_index(fk)
                    .ok_or_else(|| inconsistent("foreign-key column", fk))?;
                row[fk_idx] = Value::Int(parent_id);
            }
        }

        // The element whose content the columns read: for element-anchored
        // types the instance element itself.
        let steps = self
            .steps
            .get(ty)
            .ok_or_else(|| inconsistent("table mapping for type", ty))?;
        fill_columns(table_mapping, steps, table_def, element, &mut row)?;

        self.emit(&table_mapping.table, id, row)?;

        // Recurse into child types.
        let content = match def {
            Type::Element { content, .. } => content,
            other => other,
        };
        let reserved = self.literal_names(content);
        self.spawn_children(content, element, ty, id, &reserved)?;
        Ok(id)
    }

    /// Literal child-element names claimed by named sites in a content
    /// model. Wildcard alternatives must not shred children carrying these
    /// names — they belong to their literal sites.
    fn literal_names(&self, ty: &Type) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_literal_names(ty, &mut out, 0);
        out
    }

    fn collect_literal_names(&self, ty: &Type, out: &mut BTreeSet<String>, depth: usize) {
        if depth > 16 {
            return;
        }
        match ty {
            Type::Element {
                name: NameTest::Name(n),
                ..
            } => {
                out.insert(n.clone());
            }
            Type::Seq(items) | Type::Choice(items) => {
                items
                    .iter()
                    .for_each(|t| self.collect_literal_names(t, out, depth));
            }
            Type::Rep { inner, .. } => self.collect_literal_names(inner, out, depth),
            Type::Ref(name) => {
                if let Some(def) = self.schema.get(name) {
                    match def {
                        Type::Element {
                            name: NameTest::Name(n),
                            ..
                        } => {
                            out.insert(n.clone());
                        }
                        Type::Element { .. } => {}
                        other => self.collect_literal_names(other, out, depth + 1),
                    }
                }
            }
            _ => {}
        }
    }

    /// Walk a content model over an anchor element, shredding instances of
    /// referenced types found among the element's children.
    fn spawn_children(
        &mut self,
        ty: &Type,
        element: &Element,
        owner: &TypeName,
        owner_id: i64,
        reserved: &BTreeSet<String>,
    ) -> Result<(), ShredError> {
        match ty {
            Type::Empty | Type::Scalar { .. } | Type::Attribute { .. } => Ok(()),
            Type::Element { name, content } => {
                // Inlined nested element: descend into the matching child,
                // which starts a fresh reserved-name scope.
                let child = element.child_elements().find(|e| name.matches(&e.name));
                if let Some(child) = child {
                    let inner_reserved = self.literal_names(content);
                    self.spawn_children(content, child, owner, owner_id, &inner_reserved)?;
                }
                Ok(())
            }
            Type::Seq(items) => {
                for item in items {
                    self.spawn_children(item, element, owner, owner_id, reserved)?;
                }
                Ok(())
            }
            Type::Rep { inner, .. } => {
                self.spawn_children(inner, element, owner, owner_id, reserved)
            }
            Type::Choice(_) | Type::Ref(_) if ty_is_named_layer(ty) => {
                let alts = named_alternatives(ty);
                self.shred_named_site(&alts, element, owner, owner_id, reserved)
            }
            Type::Choice(items) => {
                // A non-named choice cannot occur in a p-schema; recurse
                // defensively.
                for item in items {
                    self.spawn_children(item, element, owner, owner_id, reserved)?;
                }
                Ok(())
            }
            Type::Ref(_) => unreachable!("covered by the named-layer arm"),
        }
    }

    /// Offer one child element to a named site: the first matching
    /// element-shaped alternative claims it. Shared between the DOM walk
    /// and the streaming root loop so both claim identically.
    fn claim_named_child(
        &mut self,
        alternatives: &[TypeName],
        child: &Element,
        owner: &TypeName,
        owner_id: i64,
        reserved: &BTreeSet<String>,
    ) -> Result<(), ShredError> {
        for alt in alternatives {
            let def = self
                .schema
                .get(alt)
                .ok_or_else(|| inconsistent("alternative type", alt))?;
            if let Type::Element { name, .. } = def {
                // A wildcard alternative must not steal children that
                // literal-named sites in this content model own.
                if name.is_wildcard() && reserved.contains(&child.name) {
                    continue;
                }
                if name.matches(&child.name) && element_matches(self.schema, child, def) {
                    self.shred_instance(alt, child, Some((owner, owner_id)))?;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Handle one named-layer site (a `Ref` or a union of refs): find the
    /// child elements (or content groups) instantiating each alternative.
    fn shred_named_site(
        &mut self,
        alternatives: &[TypeName],
        element: &Element,
        owner: &TypeName,
        owner_id: i64,
        reserved: &BTreeSet<String>,
    ) -> Result<(), ShredError> {
        // Element-anchored alternatives claim matching child elements;
        // sequence-anchored alternatives claim the anchor element itself
        // when their content group is present.
        let mut any_sequence_claimed = false;
        for child in element.child_elements() {
            self.claim_named_child(alternatives, child, owner, owner_id, reserved)?;
        }
        for alt in alternatives {
            let def = self
                .schema
                .get(alt)
                .ok_or_else(|| inconsistent("alternative type", alt))?;
            if matches!(def, Type::Element { .. }) {
                continue;
            }
            if any_sequence_claimed {
                break; // at most one group alternative per parent
            }
            if sequence_type_present(self.schema, def, element) {
                self.shred_instance(alt, element, Some((owner, owner_id)))?;
                any_sequence_claimed = true;
            }
        }
        Ok(())
    }
}

/// Evaluate every mapped column of `table_mapping` (its paths resolved
/// into `steps`) against `element`, writing hits into `row`.
fn fill_columns(
    table_mapping: &TableMapping,
    steps: &[Vec<Step>],
    table_def: &legodb_relational::TableDef,
    element: &Element,
    row: &mut [Value],
) -> Result<(), ShredError> {
    for (target, steps) in table_mapping.columns.values().zip(steps) {
        if let Some(value) = extract_value(element, steps, target.kind) {
            let idx = table_def
                .column_index(&target.column)
                .ok_or_else(|| inconsistent("mapped column", &target.column))?;
            row[idx] = value;
        }
    }
    Ok(())
}

fn ty_is_named_layer(ty: &Type) -> bool {
    match ty {
        Type::Ref(_) => true,
        Type::Choice(items) => items.iter().all(ty_is_named_layer),
        _ => false,
    }
}

fn named_alternatives(ty: &Type) -> Vec<TypeName> {
    let mut out = Vec::new();
    fn walk(ty: &Type, out: &mut Vec<TypeName>) {
        match ty {
            Type::Ref(n) => out.push(n.clone()),
            Type::Choice(items) => items.iter().for_each(|t| walk(t, out)),
            _ => {}
        }
    }
    walk(ty, &mut out);
    out
}

/// Is an instance of a sequence-shaped type present inside `element`?
/// Checked by requiring the group's first required member element
/// (resolving type references), falling back to full content matching.
fn sequence_type_present(schema: &Schema, def: &Type, element: &Element) -> bool {
    let mut members = Vec::new();
    collect_required_members(schema, def, &mut members, 0);
    if let Some(first) = members.first() {
        return element.first_child(first).is_some();
    }
    // No required members (all optional): fall back to content matching,
    // accepting permissively when the matcher cannot decide.
    content_matches(schema, element, def)
}

fn collect_required_members(schema: &Schema, ty: &Type, out: &mut Vec<String>, depth: usize) {
    if depth > 16 {
        return; // recursive type: give up, the caller falls back
    }
    match ty {
        Type::Element {
            name: NameTest::Name(n),
            ..
        } => out.push(n.clone()),
        Type::Seq(items) => items
            .iter()
            .for_each(|t| collect_required_members(schema, t, out, depth)),
        Type::Rep { inner, occurs, .. } if !occurs.nullable() => {
            collect_required_members(schema, inner, out, depth)
        }
        Type::Ref(name) => {
            if let Some(def) = schema.get(name) {
                collect_required_members(schema, def, out, depth + 1);
            }
        }
        _ => {}
    }
}

/// One step of a column's relative path, resolved against the content
/// model it navigates (see [`Shredder::column_steps`]).
#[derive(Debug, Clone)]
enum Step {
    /// `@name`: an attribute of the current element.
    Attr(String),
    /// `#tilde`: the tag name of the element navigated to so far — the
    /// anchor itself for `[#tilde]`, the wildcard child after `#any`.
    Tilde,
    /// A literal child element: the first child with this name.
    Child(String),
    /// `#any`: an inlined wildcard's element — the first child `test`
    /// accepts whose name no literal site in `reserved` claims.
    Any {
        test: NameTest,
        reserved: BTreeSet<String>,
    },
}

impl Step {
    /// Does this (element) step navigate into a child named `name`?
    fn picks(&self, name: &str) -> bool {
        match self {
            Step::Child(n) => n == name,
            Step::Any { test, reserved } => test.matches(name) && !reserved.contains(name),
            Step::Attr(_) | Step::Tilde => false,
        }
    }
}

/// The inlined element node in the column world of `model` whose name
/// test satisfies `pred` (crossing sequences and optional layers, not
/// nested elements or the named layer), with its content.
fn inline_element<'t>(
    model: &'t Type,
    pred: &dyn Fn(&NameTest) -> bool,
) -> Option<(&'t NameTest, &'t Type)> {
    match model {
        Type::Element { name, content } if pred(name) => Some((name, content)),
        Type::Seq(items) => items.iter().find_map(|t| inline_element(t, pred)),
        Type::Rep { inner, occurs, .. } if !occurs.multi_valued() => inline_element(inner, pred),
        _ => None,
    }
}

/// Pull the scalar value addressed by resolved `steps` out of an element.
fn extract_value(element: &Element, steps: &[Step], kind: ScalarKind) -> Option<Value> {
    let mut current = element;
    for step in steps {
        match step {
            Step::Attr(attr) => return Some(convert(current.attribute(attr)?, kind)),
            Step::Tilde => return Some(Value::str(current.name.clone())),
            Step::Child(name) => current = current.first_child(name)?,
            Step::Any { .. } => current = current.child_elements().find(|e| step.picks(&e.name))?,
        }
    }
    let text = current.text();
    if text.is_empty() && kind == ScalarKind::Integer {
        return None;
    }
    Some(convert(&text, kind))
}

fn convert(text: &str, kind: ScalarKind) -> Value {
    match kind {
        ScalarKind::Integer => text
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .unwrap_or(Value::Null),
        ScalarKind::String => Value::str(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::rel;
    use crate::stratify::PSchema;
    use legodb_schema::parse_schema;
    use legodb_xml::stats::Statistics;
    use legodb_xml::{events, parse};

    fn imdb_mapping() -> Mapping {
        let schema = parse_schema(
            "type IMDB = imdb[ Show{0,*} ]
             type Show = show [ @type[ String ], title[ String ], year[ Integer ],
                                Aka{1,10}, Review{0,*}, ( Movie | TV ) ]
             type Aka = aka[ String ]
             type Review = review[ ~[ String ] ]
             type Movie = box_office[ Integer ], video_sales[ Integer ]
             type TV = seasons[ Integer ], description[ String ], Episode{0,*}
             type Episode = episode[ name[ String ], guest_director[ String ] ]",
        )
        .unwrap();
        rel(&PSchema::try_new(schema).unwrap(), &Statistics::new())
    }

    fn sample_xml() -> &'static str {
        r#"<imdb>
                <show type="Movie">
                  <title>Fugitive, The</title><year>1993</year>
                  <aka>Auf der Flucht</aka><aka>Le Fugitif</aka>
                  <review><nyt>ok movie</nyt></review>
                  <review><suntimes>two thumbs</suntimes></review>
                  <box_office>183752965</box_office>
                  <video_sales>72450220</video_sales>
                </show>
                <show type="TV series">
                  <title>X Files, The</title><year>1994</year>
                  <aka>Aux frontieres du Reel</aka>
                  <seasons>10</seasons>
                  <description>Aliens and the FBI</description>
                  <episode><name>Ghost in the Machine</name>
                           <guest_director>Jerrold Freedman</guest_director></episode>
                  <episode><name>Fallen Angel</name>
                           <guest_director>Larry Shaw</guest_director></episode>
                </show>
              </imdb>"#
    }

    fn sample_doc() -> Document {
        parse(sample_xml()).unwrap()
    }

    #[test]
    fn shreds_row_counts() {
        let m = imdb_mapping();
        let db = shred(&m, &sample_doc()).unwrap();
        assert_eq!(db.table("IMDB").unwrap().len(), 1);
        assert_eq!(db.table("Show").unwrap().len(), 2);
        assert_eq!(db.table("Aka").unwrap().len(), 3);
        assert_eq!(db.table("Review").unwrap().len(), 2);
        assert_eq!(db.table("Movie").unwrap().len(), 1);
        assert_eq!(db.table("TV").unwrap().len(), 1);
        assert_eq!(db.table("Episode").unwrap().len(), 2);
    }

    #[test]
    fn scalar_columns_are_filled() {
        let m = imdb_mapping();
        let db = shred(&m, &sample_doc()).unwrap();
        let show = db.table("Show").unwrap();
        let rows = show.scan();
        let def = &show.def;
        let title = def.column_index("title").unwrap();
        let year = def.column_index("year").unwrap();
        let ty = def.column_index("type").unwrap();
        assert_eq!(rows[0][title], Value::str("Fugitive, The"));
        assert_eq!(rows[0][year], Value::Int(1993));
        assert_eq!(rows[0][ty], Value::str("Movie"));
    }

    #[test]
    fn parent_foreign_keys_link_children() {
        let m = imdb_mapping();
        let db = shred(&m, &sample_doc()).unwrap();
        let aka = db.table("Aka").unwrap();
        let fk = aka.def.column_index("parent_Show").unwrap();
        let parents: Vec<i64> = aka.scan().iter().map(|r| r[fk].as_int().unwrap()).collect();
        assert_eq!(parents, vec![1, 1, 2]);
    }

    #[test]
    fn union_alternatives_land_in_the_right_tables() {
        let m = imdb_mapping();
        let db = shred(&m, &sample_doc()).unwrap();
        let movie = db.table("Movie").unwrap();
        let bo = movie.def.column_index("box_office").unwrap();
        assert_eq!(movie.scan()[0][bo], Value::Int(183752965));
        let tv = db.table("TV").unwrap();
        let seasons = tv.def.column_index("seasons").unwrap();
        assert_eq!(tv.scan()[0][seasons], Value::Int(10));
        // Episodes hang off the TV instance.
        let ep = db.table("Episode").unwrap();
        let fk = ep.def.column_index("parent_TV").unwrap();
        assert!(ep.scan().iter().all(|r| r[fk] == Value::Int(1)));
    }

    #[test]
    fn wildcard_reviews_record_tilde_and_content() {
        let m = imdb_mapping();
        let db = shred(&m, &sample_doc()).unwrap();
        let review = db.table("Review").unwrap();
        let tilde = review
            .def
            .columns
            .iter()
            .position(|c| c.name.contains("tilde"))
            .expect("tilde column");
        let names: Vec<String> = review
            .scan()
            .iter()
            .map(|r| r[tilde].as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["nyt", "suntimes"]);
    }

    /// Shred the one-`directed` document `xml` (DOM and streaming, which
    /// must agree) where a wildcard `site` sits beside literal sites, and
    /// return the row's `tilde` column plus the mapping and database.
    fn directed_tilde(site: &str, extra: &str, xml: &str) -> (Value, Mapping, Database) {
        let schema = parse_schema(&format!(
            "type Directed = directed[ title[ String ], year[ Integer ],
                                       info[ String ]?, {site} ] {extra}"
        ))
        .unwrap();
        let m = rel(&PSchema::try_new(schema).unwrap(), &Statistics::new());
        let dom = shred_dom(&m, &parse(xml).unwrap()).unwrap();
        let (streamed, report) = shred_events_report(&m, events(xml)).unwrap();
        assert!(report.streamed);
        assert_eq!(dom.snapshot_json(), streamed.snapshot_json());
        let directed = dom.table("Directed").unwrap();
        let tilde = directed.scan()[0][directed.def.column_index("tilde").unwrap()].clone();
        (tilde, m, dom)
    }

    #[test]
    fn inlined_wildcard_skips_children_claimed_by_literal_sites() {
        let site = "~[ String ]?";
        // `title` belongs to its literal site: with no wildcard child the
        // tilde is NULL, and publishing writes the title once.
        let xml = "<directed><title>Alien</title><year>1979</year></directed>";
        let (tilde, m, db) = directed_tilde(site, "", xml);
        assert_eq!(tilde, Value::Null);
        let published = crate::publish_all(&m, &db).unwrap();
        assert_eq!(published.root.children_named("title").count(), 1);
        assert_eq!(published.root.child_elements().count(), 2);
        // A trailing `<x>` is the wildcard's, and publishes back.
        let xml = "<directed><title>Heat</title><year>1995</year>
                     <info>remake</info><x>extra</x></directed>";
        let (tilde, m, db) = directed_tilde(site, "", xml);
        assert_eq!(tilde, Value::str("x"));
        let published = crate::publish_all(&m, &db).unwrap();
        assert_eq!(published.root.children_named("title").count(), 1);
        assert_eq!(published.root.first_child("x").unwrap().text(), "extra");
        // `~!x` passes over its excluded name too: here `<x>` belongs to
        // the named wildcard site `Other`.
        let xml = "<directed><title>Heat</title><year>1995</year><x>no</x></directed>";
        let (tilde, ..) = directed_tilde(
            "~!x[ String ]?, Other{0,*}",
            "type Other = ~[ String ]",
            xml,
        );
        assert_eq!(tilde, Value::Null);
    }

    #[test]
    fn invalid_document_is_rejected() {
        let m = imdb_mapping();
        let doc = parse("<wrong/>").unwrap();
        assert!(matches!(shred(&m, &doc), Err(ShredError::Invalid(_))));
    }

    #[test]
    fn fk_indexes_exist_after_shredding() {
        let m = imdb_mapping();
        let db = shred(&m, &sample_doc()).unwrap();
        assert!(db.table("Aka").unwrap().has_index("parent_Show"));
        assert!(db.table("Episode").unwrap().has_index("parent_TV"));
    }

    #[test]
    fn streaming_matches_dom_bit_for_bit() {
        let m = imdb_mapping();
        let dom = shred_dom(&m, &sample_doc()).unwrap();
        let wrapped = shred(&m, &sample_doc()).unwrap();
        let (streamed, report) = shred_events_report(&m, events(sample_xml())).unwrap();
        assert_eq!(dom.snapshot_json(), wrapped.snapshot_json());
        assert_eq!(dom.snapshot_json(), streamed.snapshot_json());
        assert!(report.streamed);
        assert_eq!(report.rows as usize, dom.total_rows());
    }

    #[test]
    fn streaming_keeps_memory_bounded() {
        let m = imdb_mapping();
        let mut xml = String::from("<imdb>");
        for i in 0..200 {
            xml.push_str(&format!(
                "<show type=\"Movie\"><title>T{i}</title><year>19{:02}</year>\
                 <aka>A{i}</aka><box_office>{i}</box_office>\
                 <video_sales>{i}</video_sales></show>",
                i % 100
            ));
        }
        xml.push_str("</imdb>");
        let doc = parse(&xml).unwrap();
        let total = doc.element_count();
        let (db, report) = shred_events_report(&m, events(&xml)).unwrap();
        assert!(report.streamed);
        // One show subtree (6 elements) + the root anchor, not the ~1200
        // elements the DOM holds.
        assert!(
            report.peak_resident_elements * 10 < total,
            "peak {} vs total {total}",
            report.peak_resident_elements
        );
        assert_eq!(
            db.snapshot_json(),
            shred_dom(&m, &doc).unwrap().snapshot_json()
        );
    }

    #[test]
    fn group_shaped_root_alternative_falls_back_to_buffering() {
        // The root's named site resolves to a sequence-shaped type: the
        // streaming walk defers to the DOM path to keep exact semantics.
        let schema = parse_schema(
            "type R = r[ Movie ]
             type Movie = box_office[ Integer ], video_sales[ Integer ]",
        )
        .unwrap();
        let m = rel(&PSchema::try_new(schema).unwrap(), &Statistics::new());
        let xml = "<r><box_office>1</box_office><video_sales>2</video_sales></r>";
        let (db, report) = shred_events_report(&m, events(xml)).unwrap();
        assert!(!report.streamed);
        let dom = shred_dom(&m, &parse(xml).unwrap()).unwrap();
        assert_eq!(db.snapshot_json(), dom.snapshot_json());
    }

    #[test]
    fn wildcard_root_site_streams_through_the_generic_matcher() {
        // A wildcard child name is ineligible for the deterministic
        // tracker but still streams through the derivative matcher.
        let schema = parse_schema(
            "type R = r[ W{0,*} ]
             type W = ~[ String ]",
        )
        .unwrap();
        let m = rel(&PSchema::try_new(schema).unwrap(), &Statistics::new());
        let xml = "<r><a>one</a><b>two</b></r>";
        let (db, report) = shred_events_report(&m, events(xml)).unwrap();
        assert!(report.streamed);
        let dom = shred_dom(&m, &parse(xml).unwrap()).unwrap();
        assert_eq!(db.snapshot_json(), dom.snapshot_json());
    }

    #[test]
    fn deterministic_root_occurrence_checks_match_dom() {
        // Ordering and occurrence violations decided by the O(1) site
        // automaton must agree with the DOM oracle, document by document.
        let schema = parse_schema(
            "type R = r[ A{1,2}, B ]
             type A = a[ String ]
             type B = b[ String ]",
        )
        .unwrap();
        let m = rel(&PSchema::try_new(schema).unwrap(), &Statistics::new());
        let docs = [
            "<r><a>x</a><b>y</b></r>",                 // valid, minimal
            "<r><a>x</a><a>x</a><b>y</b></r>",         // valid, repeated site
            "<r><b>y</b><a>x</a></r>",                 // out of order
            "<r><a>x</a><a>x</a><a>x</a><b>y</b></r>", // over max
            "<r><b>y</b></r>",                         // under min (skipped site)
            "<r><a>x</a></r>",                         // under min (at close)
            "<r><a>x</a><c>z</c><b>y</b></r>",         // unknown tag
            "<r>loose text<a>x</a><b>y</b></r>",       // text where none allowed
        ];
        for xml in docs {
            let stream = shred_events_report(&m, events(xml));
            let dom = shred_dom(&m, &parse(xml).unwrap());
            match (stream, dom) {
                (Ok((sdb, report)), Ok(ddb)) => {
                    assert!(report.streamed, "{xml}");
                    assert_eq!(sdb.snapshot_json(), ddb.snapshot_json(), "{xml}");
                }
                (Err(se), Err(de)) => assert_eq!(se, de, "{xml}"),
                (Ok(_), Err(de)) => panic!("{xml}: stream ok but dom rejected: {de}"),
                (Err(se), Ok(_)) => panic!("{xml}: dom ok but stream rejected: {se}"),
            }
        }
        // A root attribute kills a content model with no attribute
        // positions in both paths.
        let attr = r#"<r id="1"><a>x</a><b>y</b></r>"#;
        let se = shred_events(&m, events(attr)).unwrap_err();
        let de = shred_dom(&m, &parse(attr).unwrap()).unwrap_err();
        assert_eq!(se, de);
    }

    #[test]
    fn invalid_stream_is_rejected_like_dom() {
        let m = imdb_mapping();
        let stream_err = shred_events(&m, events("<wrong/>")).unwrap_err();
        let dom_err = shred_dom(&m, &parse("<wrong/>").unwrap()).unwrap_err();
        assert_eq!(stream_err, dom_err);
        // Invalid *content* (not just a wrong root tag) is also caught.
        let bad = "<imdb><show><title>T</title></show></imdb>";
        let stream_err = shred_events(&m, events(bad)).unwrap_err();
        let dom_err = shred_dom(&m, &parse(bad).unwrap()).unwrap_err();
        assert_eq!(stream_err, dom_err);
    }

    #[test]
    fn parse_errors_surface_through_shred_events() {
        let m = imdb_mapping();
        let err = shred_events(&m, events("<imdb><show></imdb>")).unwrap_err();
        assert!(matches!(err, ShredError::Parse(_)), "{err}");
        // Trailing content after the root is a tokenizer error too.
        let err = shred_events(&m, events("<imdb></imdb><x/>")).unwrap_err();
        assert!(matches!(err, ShredError::Parse(_)), "{err}");
    }

    #[test]
    fn shred_stream_enforces_limits() {
        let m = imdb_mapping();
        let limits = ParseLimits {
            max_depth: 2,
            ..Default::default()
        };
        let deep = "<imdb><show><title>T</title></show></imdb>";
        let err = shred_stream(&m, deep, &limits).unwrap_err();
        assert!(matches!(err, ShredError::Parse(_)), "{err}");
        assert!(shred_stream(&m, sample_xml(), &ParseLimits::default()).is_ok());
    }
}
