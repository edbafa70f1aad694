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
//!   spine* is streamed: each direct child subtree of the root is built one
//!   at a time by [`TreeBuilder`], claimed and shredded via the same
//!   recursion as the DOM walk, then dropped — so peak memory is one
//!   root-child subtree (one `<show>` for the IMDB workload), not the whole
//!   document. A derivative [`ContentMatcher`] checks the root's content
//!   model as each child completes. The root row (whose id is allocated
//!   when the root opens) is filled at close from a skeleton of the root —
//!   its attributes, its own text, and the children its columns read — and
//!   re-sequenced into the DOM insertion order by a per-table id-order sink.
//!
//! Each element is validated once. Both paths check everything below the
//! root before claiming it (the DOM walk up front, the stream as each root
//! child completes), so a claim needs no second check when exactly one
//! element position of the model its parent matched accepts the child's
//! name: the parent's check can only have matched the child there. Claims
//! still validate where two positions accept one name, such as union
//! alternatives distributed into types that share a tag.
//!
//! [`shred`] is a thin wrapper feeding the streaming core with borrowed
//! children. Root content models the streaming walk cannot reproduce
//! exactly (a named alternative that is sequence-shaped rather than
//! element-shaped, or a root that is not literally an element definition)
//! fall back to buffering the document for [`shred_dom`], keeping
//! bit-identity unconditional.

use crate::mapping::{Mapping, TableMapping, ANY_STEP, TILDE_STEP};
use legodb_relational::{Database, RelationalError, Value};
use legodb_schema::validate::{content_matches, element_matches, ContentMatcher};
use legodb_schema::{NameTest, ScalarKind, Schema, Type, TypeName};
use legodb_xml::{
    events_with_limits, Attribute, Document, Element, Event, Node, ParseError, ParseLimits,
    TreeBuilder,
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
    /// Peak number of XML elements resident at once: the root skeleton
    /// plus the largest root-child subtree (streamed), or the whole
    /// document's element count (buffered fallback).
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
    let Some(mut rs) = open_root(mapping, &doc.root.name, &doc.root.attributes)? else {
        return shred_dom(mapping, doc);
    };
    for node in &doc.root.children {
        match node {
            Node::Text(t) => rs.text(t)?,
            Node::Element(e) => rs.child(e)?,
        }
    }
    rs.finish().map(|(db, _)| db)
}

/// Shred a fully materialized document with the classic DOM walk: validate
/// the whole tree upfront, then recurse. This is the reference
/// implementation the streaming path must agree with bit-for-bit, and the
/// baseline the ingest benchmark measures against.
pub fn shred_dom(mapping: &Mapping, doc: &Document) -> Result<Database, ShredError> {
    let schema = mapping.pschema.schema();
    let root = mapping.root();
    let root_def = schema
        .get(root)
        .ok_or_else(|| inconsistent("root type", root))?;
    if !element_matches(schema, &doc.root, root_def) {
        return Err(ShredError::Invalid(format!(
            "root element <{}> does not match type {root}",
            doc.root.name
        )));
    }
    let checked = match root_def {
        Type::Element { content, .. } => Some(content.as_ref()),
        _ => None,
    };
    let mut s = Shredder::new(mapping);
    s.shred_instance(root, &doc.root, None, checked)?;
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
    let root = match events.next() {
        Some(Ok(Event::StartElement { name, attributes })) => {
            let mut root = Element::new(name);
            root.attributes = attributes.into_iter().map(Attribute::from).collect();
            root
        }
        Some(Ok(_)) => {
            return Err(ShredError::Invalid(
                "event stream does not start with an element".into(),
            ))
        }
        Some(Err(e)) => return Err(ShredError::Parse(e)),
        None => return Err(ShredError::Invalid("empty event stream".into())),
    };
    match open_root(mapping, &root.name, &root.attributes)? {
        Some(rs) => stream_events(rs, events),
        None => {
            let doc = buffer_events(root, events)?;
            let db = shred_dom(mapping, &doc)?;
            let report = ShredReport {
                rows: db.total_rows() as u64,
                peak_resident_elements: doc.element_count(),
                streamed: false,
            };
            Ok((db, report))
        }
    }
}

fn event_after_root() -> ShredError {
    // The tokenizer never emits events after the root closes; a hand-built
    // stream that does is malformed.
    ShredError::Invalid("event after the root element closed".into())
}

fn root_left_open() -> ShredError {
    ShredError::Invalid("event stream ended before the root element closed".into())
}

/// Drive a [`RootStream`] over the events following the root start tag:
/// build each root-child subtree, hand it to the core when it closes,
/// then drop it.
fn stream_events<'a, I>(
    mut rs: RootStream<'_>,
    events: I,
) -> Result<(Database, ShredReport), ShredError>
where
    I: Iterator<Item = Result<Event<'a>, ParseError>>,
{
    let mut tree = TreeBuilder::default();
    let mut live = 0usize; // elements in the subtree being built
    let mut peak = 1usize; // the root itself
    let mut closed = false;
    for event in events {
        let event = event?;
        if closed {
            return Err(event_after_root());
        }
        match event {
            Event::Text(t) if tree.depth() == 0 => rs.text(&t)?,
            Event::EndElement { .. } if tree.depth() == 0 => closed = true,
            event => {
                if let Event::StartElement { .. } = event {
                    live += 1;
                    peak = peak.max(1 + rs.kept + live);
                }
                if let Some(child) = tree.push(event) {
                    rs.child(&child)?;
                    live = 0;
                }
            }
        }
    }
    if !closed {
        return Err(root_left_open());
    }
    let (db, rows) = rs.finish()?;
    let report = ShredReport {
        rows,
        peak_resident_elements: peak,
        streamed: true,
    };
    Ok((db, report))
}

/// Build the whole [`Document`] from the events after the root start tag —
/// the buffered fallback when the root content model is not streamable.
fn buffer_events<'a, I>(root: Element, events: I) -> Result<Document, ShredError>
where
    I: Iterator<Item = Result<Event<'a>, ParseError>>,
{
    let mut tree = TreeBuilder::within(root);
    let mut done = None;
    for event in events {
        let event = event?;
        if done.is_some() {
            return Err(event_after_root());
        }
        done = tree.push(event);
    }
    done.map(Document::new).ok_or_else(root_left_open)
}

/// One site of the root content model, in model-walk order. Mirrors the
/// arms of [`Shredder::spawn_children`] the DOM walk would visit.
enum RootSite<'a> {
    /// An inlined element child (`site` is its `Type::Element`): the first
    /// child `name` accepts descends, once.
    Inline {
        name: &'a NameTest,
        site: &'a Type,
        claimed: bool,
    },
    /// A named-layer site (a ref or a union of refs), all alternatives
    /// element-shaped (checked by [`collect_root_sites`]).
    Named { alternatives: Vec<TypeName> },
}

/// The streaming core: the open root row plus everything needed to claim
/// root-child subtrees as they complete.
struct RootStream<'a> {
    sh: Shredder<'a>,
    root_ty: TypeName,
    content: &'a Type,
    id: i64,
    /// The root's name, attributes and own text, plus the first child each
    /// column's first step picks: everything the root row reads.
    skeleton: Element,
    /// Elements held among the skeleton's children.
    kept: usize,
    /// The first step of each root column that navigates into a child.
    heads: Vec<Step>,
    matcher: ContentMatcher<'a>,
    sites: Vec<RootSite<'a>>,
}

/// Inspect the mapping's root type and either build a [`RootStream`] or
/// report (`None`) that exact DOM semantics require buffering. Invalidity
/// that is already decidable from the root tag (wrong element name,
/// attributes that kill the content model) errors here.
fn open_root<'a>(
    mapping: &'a Mapping,
    name: &str,
    attributes: &[Attribute],
) -> Result<Option<RootStream<'a>>, ShredError> {
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
        return Ok(None);
    };
    let mut sites = Vec::new();
    if !collect_root_sites(schema, content, &mut sites) {
        return Ok(None);
    }
    let Some(table) = mapping.table(&root_ty).map(|tm| &tm.table) else {
        return Ok(None);
    };
    let mut sh = Shredder::new(mapping);
    let id = sh.allocate_id(table);
    let mut skeleton = Element::new(name);
    skeleton.attributes = attributes.to_vec();
    if sh.row(&root_ty, id, &skeleton, None).is_err() {
        return Ok(None);
    }

    let invalid = || {
        ShredError::Invalid(format!(
            "root element <{name}> does not match type {root_ty}"
        ))
    };
    if !root_test.matches(name) {
        return Err(invalid());
    }
    let mut matcher = ContentMatcher::new(schema, content);
    for attr in attributes {
        matcher.feed_attribute(attr);
    }
    if matcher.failed() {
        return Err(invalid());
    }
    let heads = sh
        .steps
        .get(&root_ty)
        .into_iter()
        .flatten()
        .filter_map(|steps| steps.first())
        .filter(|step| matches!(step, Step::Child(_) | Step::Any { .. }))
        .cloned()
        .collect();
    Ok(Some(RootStream {
        sh,
        root_ty,
        content,
        id,
        skeleton,
        kept: 0,
        heads,
        matcher,
        sites,
    }))
}

/// Flatten the root content model into streamable sites, mirroring the
/// walk order of [`Shredder::spawn_children`]. Returns false when a shape
/// appears that the streaming claim loop cannot reproduce (a named
/// alternative that is missing or not element-shaped).
fn collect_root_sites<'a>(schema: &'a Schema, ty: &'a Type, out: &mut Vec<RootSite<'a>>) -> bool {
    match ty {
        Type::Empty | Type::Scalar { .. } | Type::Attribute { .. } => true,
        Type::Element { name, .. } => {
            out.push(RootSite::Inline {
                name,
                site: ty,
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
            self.skeleton.name, self.root_ty
        ))
    }

    /// A direct text child of the root. Whitespace-only runs never arrive
    /// here: both the tokenizer and the tree parser drop them.
    fn text(&mut self, text: &str) -> Result<(), ShredError> {
        self.matcher.feed_text(text);
        if self.matcher.failed() {
            return Err(self.invalid_root());
        }
        self.skeleton.children.push(Node::Text(text.to_string()));
        Ok(())
    }

    /// A completed root-child subtree: validate it into the root's content
    /// model, keep it if a root column reads it, and offer it to each
    /// site — every site sees every child, exactly like the DOM walk.
    fn child(&mut self, child: &Element) -> Result<(), ShredError> {
        self.matcher.feed_element(child);
        if self.matcher.failed() {
            return Err(self.invalid_root());
        }
        let skeleton = &self.skeleton;
        let first_pick = |step: &Step| {
            step.picks(&child.name) && !skeleton.child_elements().any(|e| step.picks(&e.name))
        };
        if self.heads.iter().any(first_pick) {
            self.kept += child.element_count();
            self.skeleton.children.push(Node::Element(child.clone()));
        }
        // The matcher just matched `child` to a position of the root's
        // content, so claims may lean on that check.
        let parent = (&self.root_ty, self.id);
        let checked = Some(self.content);
        for site in self.sites.iter_mut() {
            match site {
                RootSite::Inline {
                    name,
                    site,
                    claimed,
                } => {
                    if !*claimed && name.matches(&child.name) {
                        *claimed = true;
                        self.sh.descend(site, child, parent, checked)?;
                    }
                }
                RootSite::Named { alternatives } => {
                    self.sh.claim_named_child(
                        alternatives,
                        child,
                        parent,
                        self.content,
                        checked,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// The root closed: the content model must be complete, and the root
    /// row, filled from the skeleton, finally flows into the sink.
    fn finish(mut self) -> Result<(Database, u64), ShredError> {
        if !self.matcher.matches() {
            return Err(self.invalid_root());
        }
        let (table, row) = self.sh.row(&self.root_ty, self.id, &self.skeleton, None)?;
        self.sh.emit(table, self.id, row)?;
        self.sh.finish()
    }
}

/// What the shredder knows about one content model before any document
/// arrives.
struct Model<'a> {
    /// Literal child names that the model's literal sites own: a wildcard
    /// alternative never claims them.
    reserved: BTreeSet<String>,
    /// Each name the model mentions that exactly one element position of
    /// the model accepts, mapped to that position (see [`sole_positions`]).
    sole: BTreeMap<String, &'a Type>,
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
    /// Every content model of the schema — each type's, and each inlined
    /// element's — keyed by its address in the schema.
    models: BTreeMap<*const Type, Model<'a>>,
}

impl<'a> Shredder<'a> {
    fn new(mapping: &'a Mapping) -> Shredder<'a> {
        let schema = mapping.pschema.schema();
        let mut sh = Shredder {
            mapping,
            schema,
            db: Database::from_catalog(&mapping.catalog),
            next_ids: BTreeMap::new(),
            emitted: BTreeMap::new(),
            pending: BTreeMap::new(),
            rows: 0,
            steps: BTreeMap::new(),
            models: BTreeMap::new(),
        };
        for (_, def) in schema.iter() {
            sh.add_models(type_content(def));
        }
        sh.steps = mapping
            .tables
            .iter()
            .map(|(ty, tm)| (ty.clone(), sh.column_steps(ty, tm)))
            .collect();
        sh
    }

    /// Record `model` and the models of the elements inlined in it.
    fn add_models(&mut self, model: &'a Type) {
        let facts = Model {
            reserved: literal_names(self.schema, model),
            sole: sole_positions(self.schema, model),
        };
        self.models.insert(std::ptr::from_ref(model), facts);
        self.add_inlined(model);
    }

    fn add_inlined(&mut self, ty: &'a Type) {
        match ty {
            Type::Element { content, .. } => self.add_models(content),
            Type::Seq(items) | Type::Choice(items) => {
                items.iter().for_each(|t| self.add_inlined(t));
            }
            Type::Rep { inner, .. } => self.add_inlined(inner),
            _ => {}
        }
    }

    fn model(&self, model: &Type) -> Result<&Model<'a>, ShredError> {
        self.models
            .get(&std::ptr::from_ref(model))
            .ok_or_else(|| inconsistent("content model", model))
    }

    /// Does `position` alone, among the element positions of `model`,
    /// accept a child named `name`?
    fn sole(&self, model: &Type, name: &str, position: &Type) -> Result<bool, ShredError> {
        let sole = self.model(model)?.sole.get(name);
        Ok(sole.is_some_and(|p| std::ptr::eq(*p, position)))
    }

    /// Resolve every column path of `tm` against the content model of
    /// `ty`. An `#any` step picks the first child the wildcard's name
    /// test accepts that no literal site of the same content model
    /// claims — a literal `title` beside `~[String]?` keeps its child.
    fn column_steps(&self, ty: &TypeName, tm: &TableMapping) -> Vec<Vec<Step>> {
        let model = self.schema.get(ty).map(type_content);
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
                            reserved: here
                                .map(|m| literal_names(self.schema, m))
                                .unwrap_or_default(),
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

    /// The row of instance `id` of `ty`, anchored at `element`: the key,
    /// the foreign key to `parent`, and every mapped column. Returns it
    /// with its table's name.
    fn row(
        &self,
        ty: &TypeName,
        id: i64,
        element: &Element,
        parent: Option<(&TypeName, i64)>,
    ) -> Result<(&'a str, Vec<Value>), ShredError> {
        let mapping = self.mapping;
        let tm = mapping
            .table(ty)
            .ok_or_else(|| inconsistent("table mapping for type", ty))?;
        let def = mapping
            .catalog
            .table(&tm.table)
            .ok_or_else(|| inconsistent("catalog table", &tm.table))?;
        let column = |name: &String, what: &str| {
            def.column_index(name)
                .ok_or_else(|| inconsistent(what, name))
        };
        let mut row = vec![Value::Null; def.columns.len()];
        row[column(&tm.key, "key column")?] = Value::Int(id);
        if let Some((parent_ty, parent_id)) = parent {
            if let Some(fk) = tm.parent_fk.get(parent_ty) {
                row[column(fk, "foreign-key column")?] = Value::Int(parent_id);
            }
        }
        let steps = self
            .steps
            .get(ty)
            .ok_or_else(|| inconsistent("table mapping for type", ty))?;
        for (target, steps) in tm.columns.values().zip(steps) {
            if let Some(value) = extract_value(element, steps, target.kind) {
                row[column(&target.column, "mapped column")?] = value;
            }
        }
        Ok((&tm.table, row))
    }

    /// Shred one instance of `ty`, anchored at `element` (the instance's
    /// own element, or the parent element for sequence-shaped types).
    /// `checked` is the content model `element` is known to match, if any.
    fn shred_instance(
        &mut self,
        ty: &TypeName,
        element: &Element,
        parent: Option<(&TypeName, i64)>,
        checked: Option<&'a Type>,
    ) -> Result<i64, ShredError> {
        let schema = self.schema;
        let def = schema
            .get(ty)
            .ok_or_else(|| inconsistent("type definition", ty))?;
        let table = self
            .mapping
            .table(ty)
            .ok_or_else(|| inconsistent("table mapping for type", ty))?;
        let id = self.allocate_id(&table.table);
        let (table, row) = self.row(ty, id, element, parent)?;
        self.emit(table, id, row)?;
        let content = type_content(def);
        self.spawn_children(content, element, (ty, id), content, checked)?;
        Ok(id)
    }

    /// Walk a content model over an anchor element, shredding instances of
    /// referenced types found among the element's children. `scope` is
    /// the model whose literal sites reserve names; `checked` the model
    /// the anchor is known to match, if any.
    fn spawn_children(
        &mut self,
        ty: &'a Type,
        element: &Element,
        parent: (&TypeName, i64),
        scope: &'a Type,
        checked: Option<&'a Type>,
    ) -> Result<(), ShredError> {
        match ty {
            Type::Empty | Type::Scalar { .. } | Type::Attribute { .. } => Ok(()),
            Type::Element { name, .. } => {
                match element.child_elements().find(|e| name.matches(&e.name)) {
                    Some(child) => self.descend(ty, child, parent, checked),
                    None => Ok(()),
                }
            }
            Type::Rep { inner, .. } => self.spawn_children(inner, element, parent, scope, checked),
            Type::Choice(_) | Type::Ref(_) if ty_is_named_layer(ty) => {
                let alts = named_alternatives(ty);
                for child in element.child_elements() {
                    self.claim_named_child(&alts, child, parent, scope, checked)?;
                }
                self.claim_group(&alts, element, parent, checked)
            }
            // A non-named choice cannot occur in a p-schema; walk it like a
            // sequence.
            Type::Seq(items) | Type::Choice(items) => {
                for item in items {
                    self.spawn_children(item, element, parent, scope, checked)?;
                }
                Ok(())
            }
            Type::Ref(_) => unreachable!("covered by the named-layer arm"),
        }
    }

    /// Walk an inlined element's content over the child it picked, which
    /// starts a fresh reserved-name scope. The child is known to match
    /// that content when its parent was checked and this position alone
    /// accepts its name.
    fn descend(
        &mut self,
        site: &'a Type,
        child: &Element,
        parent: (&TypeName, i64),
        checked: Option<&'a Type>,
    ) -> Result<(), ShredError> {
        let content = type_content(site);
        let checked = match checked {
            Some(model) if self.sole(model, &child.name, site)? => Some(content),
            _ => None,
        };
        self.spawn_children(content, child, parent, content, checked)
    }

    /// Offer one child element to a named site: the first matching
    /// element-shaped alternative claims it. Shared between the DOM walk
    /// and the streaming root loop so both claim identically.
    fn claim_named_child(
        &mut self,
        alternatives: &[TypeName],
        child: &Element,
        parent: (&TypeName, i64),
        scope: &'a Type,
        checked: Option<&'a Type>,
    ) -> Result<(), ShredError> {
        let schema = self.schema;
        for alt in alternatives {
            let def = schema
                .get(alt)
                .ok_or_else(|| inconsistent("alternative type", alt))?;
            let Type::Element { name, content } = def else {
                continue;
            };
            // A wildcard alternative must not steal children that
            // literal-named sites in this content model own.
            if name.is_wildcard() && self.model(scope)?.reserved.contains(&child.name) {
                continue;
            }
            if !name.matches(&child.name) {
                continue;
            }
            // When this alternative alone accepts the name, the check of
            // the parent already matched the child to it.
            let known = match checked {
                Some(model) => self.sole(model, &child.name, def)?,
                None => false,
            };
            debug_assert!(
                !known || element_matches(schema, child, def),
                "<{}> was claimed for {alt} unchecked but does not match it",
                child.name
            );
            if known || element_matches(schema, child, def) {
                self.shred_instance(alt, child, Some(parent), Some(content))?;
                break;
            }
        }
        Ok(())
    }

    /// Let the first sequence-shaped alternative whose content group is
    /// present claim the anchor element itself (at most one per parent).
    fn claim_group(
        &mut self,
        alternatives: &[TypeName],
        element: &Element,
        parent: (&TypeName, i64),
        checked: Option<&'a Type>,
    ) -> Result<(), ShredError> {
        let schema = self.schema;
        for alt in alternatives {
            let def = schema
                .get(alt)
                .ok_or_else(|| inconsistent("alternative type", alt))?;
            if !matches!(def, Type::Element { .. }) && sequence_type_present(schema, def, element) {
                self.shred_instance(alt, element, Some(parent), checked)?;
                break;
            }
        }
        Ok(())
    }
}

/// The content model of a definition: an element's content, or the
/// definition itself for sequence-shaped and union types.
fn type_content(def: &Type) -> &Type {
    match def {
        Type::Element { content, .. } => content,
        other => other,
    }
}

/// Collect the element positions of `model` — where the validator's
/// derivative can consume a child element — with their name tests: each
/// inlined element, and the definition of each element-shaped named
/// alternative, walking through sequence-shaped ones. False when the walk
/// stopped at the nesting bound of a recursive type, leaving `out` partial.
fn element_positions<'a>(
    schema: &'a Schema,
    ty: &'a Type,
    out: &mut Vec<(&'a NameTest, &'a Type)>,
    depth: usize,
) -> bool {
    match ty {
        Type::Empty | Type::Scalar { .. } | Type::Attribute { .. } => true,
        Type::Element { name, .. } => {
            out.push((name, ty));
            true
        }
        Type::Seq(items) | Type::Choice(items) => {
            let mut whole = true;
            for t in items {
                whole &= element_positions(schema, t, out, depth);
            }
            whole
        }
        Type::Rep { inner, .. } => element_positions(schema, inner, out, depth),
        Type::Ref(name) => match schema.get(name) {
            Some(def @ Type::Element { name, .. }) => {
                out.push((name, def));
                true
            }
            Some(def) => depth < 16 && element_positions(schema, def, out, depth + 1),
            None => true,
        },
    }
}

/// Literal child-element names claimed by the sites of a content model.
/// Wildcard alternatives must not shred children carrying these names —
/// they belong to their literal sites.
fn literal_names(schema: &Schema, model: &Type) -> BTreeSet<String> {
    let mut positions = Vec::new();
    element_positions(schema, model, &mut positions, 0);
    positions
        .iter()
        .filter_map(|(test, _)| test.literal())
        .map(str::to_string)
        .collect()
}

/// Each name `model` mentions (literally or as a wildcard's exclusion)
/// that exactly one of its element positions accepts, mapped to that
/// position. Empty when the positions could not all be collected.
fn sole_positions<'a>(schema: &'a Schema, model: &'a Type) -> BTreeMap<String, &'a Type> {
    let mut positions = Vec::new();
    if !element_positions(schema, model, &mut positions, 0) {
        return BTreeMap::new();
    }
    let mentioned: BTreeSet<&str> = positions
        .iter()
        .flat_map(|(test, _)| match test {
            NameTest::Name(n) => std::slice::from_ref(n),
            NameTest::AnyExcept(excluded) => excluded.as_slice(),
            NameTest::Any => &[],
        })
        .map(String::as_str)
        .collect();
    mentioned
        .into_iter()
        .filter_map(|name| {
            let mut accepting = positions.iter().filter(|(test, _)| test.matches(name));
            match (accepting.next(), accepting.next()) {
                (Some((_, position)), None) => Some((name.to_string(), *position)),
                _ => None,
            }
        })
        .collect()
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
        assert_eq!(dom.snapshot(), streamed.snapshot());
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
        assert_eq!(dom.snapshot(), wrapped.snapshot());
        assert_eq!(dom.snapshot(), streamed.snapshot());
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
        assert_eq!(db.snapshot(), shred_dom(&m, &doc).unwrap().snapshot());
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
        assert_eq!(db.snapshot(), dom.snapshot());
    }

    #[test]
    fn wildcard_root_site_streams_through_the_content_matcher() {
        // A wildcard root site streams like any other; its children's
        // names are mentioned nowhere, so each claim validates.
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
        assert_eq!(db.snapshot(), dom.snapshot());
    }

    #[test]
    fn root_occurrence_checks_match_dom() {
        // Ordering and occurrence violations decided by the streaming
        // content matcher must agree with the DOM oracle, document by
        // document.
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
                    assert_eq!(sdb.snapshot(), ddb.snapshot(), "{xml}");
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
    fn alternatives_sharing_a_tag_are_told_apart_by_validation() {
        // Both alternatives accept `<show>`, so no claim may lean on the
        // parent's check: each one validates and the right table wins.
        let schema = parse_schema(
            "type R = r[ (M | T){0,*} ]
             type M = show[ @type[ String ], box_office[ Integer ] ]
             type T = show[ @type[ String ], seasons[ Integer ] ]",
        )
        .unwrap();
        let m = rel(&PSchema::try_new(schema).unwrap(), &Statistics::new());
        let xml = r#"<r><show type="tv"><seasons>3</seasons></show>
                       <show type="movie"><box_office>9</box_office></show>
                       <show type="tv"><seasons>5</seasons></show></r>"#;
        let (streamed, report) = shred_events_report(&m, events(xml)).unwrap();
        assert!(report.streamed);
        let dom = shred_dom(&m, &parse(xml).unwrap()).unwrap();
        assert_eq!(streamed.snapshot(), dom.snapshot());
        assert_eq!(dom.table("M").unwrap().len(), 1);
        assert_eq!(dom.table("T").unwrap().len(), 2);
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
