//! A pull (event) XML parser: the workspace's single tokenizer.
//!
//! [`Events`] walks the same grammar as the historical recursive-descent
//! parser — elements, attributes, character data, predefined and numeric
//! entities, comments, CDATA, processing instructions, DOCTYPE — but yields
//! a flat stream of [`Event`]s instead of materializing a tree. The DOM
//! path ([`crate::parse::parse_with_limits`]) folds this iterator through
//! [`crate::parse::TreeBuilder`], and streaming consumers (statistics collection,
//! shredding) fold over it directly so document size no longer implies
//! resident memory.
//!
//! [`ParseLimits`] are enforced at the streaming boundary with the same
//! typed [`ParseError`]s as the DOM path: the input-size check fires on the
//! first pull, the depth check fires at the offending open tag, and the
//! entity budget fires mid-stream at the offending reference.

use crate::error::{ParseError, ParseErrorKind, Position};
use crate::escape::resolve_entity;
use crate::parse::ParseLimits;
use crate::tree::{Attribute, Document, Element, Node};
use std::borrow::Cow;

/// One attribute on a [`Event::StartElement`]. Borrowed from the input
/// where possible; entity references in the value force an owned copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventAttribute<'a> {
    /// Attribute name (without quotes).
    pub name: Cow<'a, str>,
    /// Attribute value, entity-resolved.
    pub value: Cow<'a, str>,
}

impl From<EventAttribute<'_>> for Attribute {
    fn from(a: EventAttribute<'_>) -> Self {
        Attribute {
            name: a.name.into_owned(),
            value: a.value.into_owned(),
        }
    }
}

/// One token of the document stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// An element open tag (self-closing tags yield an immediate
    /// [`Event::EndElement`] right after).
    StartElement {
        /// Tag name.
        name: Cow<'a, str>,
        /// Attributes in document order, entity-resolved.
        attributes: Vec<EventAttribute<'a>>,
    },
    /// A run of character data, entity-resolved. Whitespace-only runs are
    /// dropped (matching the DOM parser); comments and processing
    /// instructions do not split a run.
    Text(Cow<'a, str>),
    /// An element close tag. The name always matches the open tag — a
    /// mismatch surfaces as a [`ParseErrorKind::MismatchedClosingTag`]
    /// error instead.
    EndElement {
        /// Tag name.
        name: Cow<'a, str>,
    },
}

/// Pull events from an XML document under the default [`ParseLimits`].
pub fn events(input: &str) -> Events<'_> {
    events_with_limits(input, &ParseLimits::default())
}

/// Pull events from an XML document under explicit [`ParseLimits`].
pub fn events_with_limits<'a>(input: &'a str, limits: &ParseLimits) -> Events<'a> {
    Events {
        cur: Cursor::new(input),
        limits: *limits,
        state: State::Begin,
        open: Vec::new(),
        entities: 0,
        queued_end: None,
        finished: false,
    }
}

enum State {
    /// Before the root element: prolog, DOCTYPE, comments.
    Begin,
    /// Inside the root element.
    Content,
    /// After the root element: trailing comments/PIs only.
    Epilog,
}

/// The streaming tokenizer. Yields `Ok` events until the document is
/// exhausted or an error is hit; after an error (or the end) the iterator
/// is fused and keeps returning `None`.
pub struct Events<'a> {
    cur: Cursor<'a>,
    limits: ParseLimits,
    state: State,
    /// Byte spans (into the source) of the names of the open elements.
    open: Vec<(usize, usize)>,
    entities: usize,
    /// Pending close event for a self-closing tag.
    queued_end: Option<(usize, usize)>,
    finished: bool,
}

impl<'a> Iterator for Events<'a> {
    type Item = Result<Event<'a>, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        if let Some(span) = self.queued_end.take() {
            if self.open.is_empty() {
                self.state = State::Epilog;
            }
            return Some(Ok(Event::EndElement {
                name: Cow::Borrowed(self.cur.slice(span)),
            }));
        }
        let step = self.step();
        match step {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => {
                self.finished = true;
                None
            }
            Err(e) => {
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

impl<'a> Events<'a> {
    fn step(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        match self.state {
            State::Begin => {
                if self.cur.src.len() > self.limits.max_input_bytes {
                    return Err(ParseError {
                        position: Position::start(),
                        kind: ParseErrorKind::InputTooLarge {
                            limit: self.limits.max_input_bytes,
                            actual: self.cur.src.len(),
                        },
                    });
                }
                self.cur.skip_prolog()?;
                if self.cur.peek() != Some(b'<') {
                    return Err(self.cur.error(ParseErrorKind::MissingRoot));
                }
                self.state = State::Content;
                self.open_tag().map(Some)
            }
            State::Content => self.content_step(),
            State::Epilog => {
                self.cur.skip_misc();
                if !self.cur.at_eof() {
                    return Err(self.cur.error(ParseErrorKind::TrailingContent));
                }
                Ok(None)
            }
        }
    }

    /// Scan forward inside element content: accumulate character data until
    /// a start tag, end tag, or error, and emit the first resulting event.
    fn content_step(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        let mut text = TextAccum::Empty;
        loop {
            match self.cur.peek() {
                None => {
                    return Err(self
                        .cur
                        .error(ParseErrorKind::UnexpectedEof("reading element content")));
                }
                Some(b'<') => {
                    if self.cur.starts_with("<!--") {
                        self.cur.skip_until("-->", "reading a comment")?;
                    } else if self.cur.starts_with("<![CDATA[") {
                        self.cur.bump_n("<![CDATA[".len());
                        let start = self.cur.pos;
                        self.cur.skip_until("]]>", "reading a CDATA section")?;
                        text.push_span(self.cur.src, start, self.cur.pos - 3);
                    } else if self.cur.starts_with("<?") {
                        self.cur
                            .skip_until("?>", "reading a processing instruction")?;
                    } else {
                        // A start or end tag: flush pending text first, leaving
                        // the cursor at the '<' for the next pull.
                        if let Some(t) = text.flush(self.cur.src) {
                            return Ok(Some(t));
                        }
                        if self.cur.starts_with("</") {
                            return self.close_tag().map(Some);
                        }
                        return self.open_tag().map(Some);
                    }
                }
                Some(b'&') => {
                    let c = self.parse_entity()?;
                    text.push_char(self.cur.src, c);
                }
                Some(_) => {
                    let start = self.cur.pos;
                    let c = self.cur.next_char()?;
                    text.push_source_char(self.cur.src, start, c);
                }
            }
        }
    }

    /// Parse `<name attr="v" ...>` or `<name />`, cursor at the `<`.
    fn open_tag(&mut self) -> Result<Event<'a>, ParseError> {
        if self.open.len() + 1 > self.limits.max_depth {
            return Err(self.cur.error(ParseErrorKind::TooDeep {
                limit: self.limits.max_depth,
            }));
        }
        self.cur.bump(); // consume '<'
        let name_span = self.cur.parse_name()?;
        let mut attributes: Vec<EventAttribute<'a>> = Vec::new();
        loop {
            self.cur.skip_whitespace();
            match self.cur.peek() {
                Some(b'>') => {
                    self.cur.bump();
                    self.open.push(name_span);
                    return Ok(Event::StartElement {
                        name: Cow::Borrowed(self.cur.slice(name_span)),
                        attributes,
                    });
                }
                Some(b'/') => {
                    self.cur.bump();
                    if self.cur.peek() != Some(b'>') {
                        return Err(self.cur.error(ParseErrorKind::UnexpectedChar {
                            found: self.cur.peek().map(|b| b as char).unwrap_or('\0'),
                            expected: "'>' after '/'",
                        }));
                    }
                    self.cur.bump();
                    self.queued_end = Some(name_span);
                    return Ok(Event::StartElement {
                        name: Cow::Borrowed(self.cur.slice(name_span)),
                        attributes,
                    });
                }
                Some(b) if is_name_start(b) => {
                    let attr = self.parse_attribute()?;
                    if attributes.iter().any(|a| a.name == attr.name) {
                        return Err(self
                            .cur
                            .error(ParseErrorKind::DuplicateAttribute(attr.name.into_owned())));
                    }
                    attributes.push(attr);
                }
                Some(b) => {
                    return Err(self.cur.error(ParseErrorKind::UnexpectedChar {
                        found: b as char,
                        expected: "attribute name, '>', or '/>'",
                    }));
                }
                None => {
                    return Err(self
                        .cur
                        .error(ParseErrorKind::UnexpectedEof("reading a start tag")));
                }
            }
        }
    }

    /// Parse `</name>`, cursor at the `<`.
    fn close_tag(&mut self) -> Result<Event<'a>, ParseError> {
        self.cur.bump_n(2);
        let close_span = self.cur.parse_name()?;
        let open_span = match self.open.last() {
            Some(span) => *span,
            // Unreachable: Content state implies at least one open element.
            None => return Err(self.cur.error(ParseErrorKind::MissingRoot)),
        };
        if self.cur.slice(close_span) != self.cur.slice(open_span) {
            return Err(self.cur.error(ParseErrorKind::MismatchedClosingTag {
                open: self.cur.slice(open_span).to_string(),
                close: self.cur.slice(close_span).to_string(),
            }));
        }
        self.cur.skip_whitespace();
        if self.cur.peek() != Some(b'>') {
            return Err(self.cur.error(ParseErrorKind::UnexpectedChar {
                found: self.cur.peek().map(|b| b as char).unwrap_or('\0'),
                expected: "'>' in closing tag",
            }));
        }
        self.cur.bump();
        self.open.pop();
        if self.open.is_empty() {
            self.state = State::Epilog;
        }
        Ok(Event::EndElement {
            name: Cow::Borrowed(self.cur.slice(close_span)),
        })
    }

    fn parse_attribute(&mut self) -> Result<EventAttribute<'a>, ParseError> {
        let name_span = self.cur.parse_name()?;
        self.cur.skip_whitespace();
        if self.cur.peek() != Some(b'=') {
            return Err(self.cur.error(ParseErrorKind::UnexpectedChar {
                found: self.cur.peek().map(|b| b as char).unwrap_or('\0'),
                expected: "'=' in attribute",
            }));
        }
        self.cur.bump();
        self.cur.skip_whitespace();
        let quote = match self.cur.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            other => {
                return Err(self.cur.error(ParseErrorKind::UnexpectedChar {
                    found: other.map(|b| b as char).unwrap_or('\0'),
                    expected: "quoted attribute value",
                }));
            }
        };
        self.cur.bump();
        let mut value = TextAccum::Empty;
        loop {
            match self.cur.peek() {
                Some(q) if q == quote => {
                    self.cur.bump();
                    break;
                }
                Some(b'&') => {
                    let c = self.parse_entity()?;
                    value.push_char(self.cur.src, c);
                }
                Some(_) => {
                    let start = self.cur.pos;
                    let c = self.cur.next_char()?;
                    value.push_source_char(self.cur.src, start, c);
                }
                None => {
                    return Err(self
                        .cur
                        .error(ParseErrorKind::UnexpectedEof("reading an attribute value")));
                }
            }
        }
        Ok(EventAttribute {
            name: Cow::Borrowed(self.cur.slice(name_span)),
            value: value.take(self.cur.src),
        })
    }

    fn parse_entity(&mut self) -> Result<char, ParseError> {
        self.entities += 1;
        if self.entities > self.limits.max_entity_expansions {
            return Err(self.cur.error(ParseErrorKind::TooManyEntities {
                limit: self.limits.max_entity_expansions,
            }));
        }
        self.cur.bump(); // consume '&'
        let start = self.cur.pos;
        while let Some(b) = self.cur.peek() {
            if b == b';' {
                let name = &self.cur.src[start..self.cur.pos];
                self.cur.bump();
                return resolve_entity(name)
                    .ok_or_else(|| self.cur.error(ParseErrorKind::BadEntity(name.to_string())));
            }
            if self.cur.pos - start > 16 {
                break;
            }
            self.cur.bump();
        }
        Err(self.cur.error(ParseErrorKind::BadEntity(
            self.cur.src[start..self.cur.pos].to_string(),
        )))
    }
}

/// Character data under accumulation. Stays a borrowed source span while
/// the run is contiguous raw text; an entity reference or a CDATA join
/// promotes it to an owned buffer.
enum TextAccum {
    Empty,
    Span(usize, usize),
    Owned(String),
}

impl TextAccum {
    fn push_span(&mut self, src: &str, start: usize, end: usize) {
        match self {
            TextAccum::Empty => *self = TextAccum::Span(start, end),
            TextAccum::Span(_, e) if *e == start => *e = end,
            _ => {
                self.materialize(src);
                if let TextAccum::Owned(s) = self {
                    s.push_str(&src[start..end]);
                }
            }
        }
    }

    fn push_source_char(&mut self, src: &str, start: usize, c: char) {
        self.push_span(src, start, start + c.len_utf8());
    }

    fn push_char(&mut self, src: &str, c: char) {
        // Entity-resolved characters differ from the source bytes: owned.
        self.materialize(src);
        if let TextAccum::Owned(s) = self {
            s.push(c);
        }
    }

    fn materialize(&mut self, src: &str) {
        match self {
            TextAccum::Span(s, e) => *self = TextAccum::Owned(src[*s..*e].to_string()),
            TextAccum::Empty => *self = TextAccum::Owned(String::new()),
            TextAccum::Owned(_) => {}
        }
    }

    fn view<'s>(&'s self, src: &'s str) -> &'s str {
        match self {
            TextAccum::Empty => "",
            TextAccum::Span(s, e) => &src[*s..*e],
            TextAccum::Owned(s) => s,
        }
    }

    fn take<'a>(self, src: &'a str) -> Cow<'a, str> {
        match self {
            TextAccum::Empty => Cow::Borrowed(""),
            TextAccum::Span(s, e) => Cow::Borrowed(&src[s..e]),
            TextAccum::Owned(s) => Cow::Owned(s),
        }
    }

    /// The run as a text event, or `None` when it is whitespace-only (the
    /// DOM parser's `flush_text` drops such runs).
    fn flush<'a>(&mut self, src: &'a str) -> Option<Event<'a>> {
        if self.view(src).trim().is_empty() {
            *self = TextAccum::Empty;
            return None;
        }
        Some(Event::Text(
            std::mem::replace(self, TextAccum::Empty).take(src),
        ))
    }
}

/// The byte cursor shared by every scanning routine: position, line, and
/// column tracking identical to the historical DOM parser, so error
/// positions are byte-for-byte the same.
struct Cursor<'a> {
    input: &'a [u8],
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            input: src.as_bytes(),
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn position(&self) -> Position {
        Position {
            offset: self.pos,
            line: self.line,
            column: self.col,
        }
    }

    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            position: self.position(),
            kind,
        }
    }

    fn slice(&self, span: (usize, usize)) -> &'a str {
        &self.src[span.0..span.1]
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Skip the XML declaration, DOCTYPE, comments and PIs before the root.
    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.skip_until("?>", "reading a processing instruction")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->", "reading a comment")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip trailing comments/PIs/whitespace after the root element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                if self.skip_until("-->", "reading a comment").is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self
                    .skip_until("?>", "reading a processing instruction")
                    .is_err()
                {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_until(&mut self, end: &str, ctx: &'static str) -> Result<(), ParseError> {
        while !self.at_eof() {
            if self.starts_with(end) {
                self.bump_n(end.len());
                return Ok(());
            }
            self.bump();
        }
        Err(self.error(ParseErrorKind::UnexpectedEof(ctx)))
    }

    /// Skip `<!DOCTYPE ... >`, including a bracketed internal subset.
    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        self.bump_n("<!DOCTYPE".len());
        let mut depth: i32 = 0;
        while let Some(b) = self.peek() {
            match b {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b'>' if depth <= 0 => {
                    self.bump();
                    return Ok(());
                }
                _ => {}
            }
            self.bump();
        }
        Err(self.error(ParseErrorKind::UnexpectedEof("reading DOCTYPE")))
    }

    /// Parse a name, returning its byte span into the source.
    fn parse_name(&mut self) -> Result<(usize, usize), ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => {
                self.bump();
            }
            _ => return Err(self.error(ParseErrorKind::BadName)),
        }
        while matches!(self.peek(), Some(b) if is_name_char(b)) {
            self.bump();
        }
        Ok((start, self.pos))
    }

    /// Consume one full (possibly multi-byte) character.
    fn next_char(&mut self) -> Result<char, ParseError> {
        let c = self.src[self.pos..]
            .chars()
            .next()
            .ok_or_else(|| self.error(ParseErrorKind::UnexpectedEof("reading text")))?;
        self.bump_n(c.len_utf8());
        Ok(c)
    }
}

pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

pub(crate) fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// Replay an already-parsed [`Document`] as the same event stream the
/// tokenizer would produce for it: `StartElement`, children in order,
/// `EndElement`. Borrowed and infallible; lets tree consumers and stream
/// consumers share one fold.
pub fn tree_events(doc: &Document) -> TreeEvents<'_> {
    TreeEvents {
        work: vec![TreeStep::Open(&doc.root)],
    }
}

enum TreeStep<'a> {
    Open(&'a Element),
    Close(&'a str),
    Text(&'a str),
}

/// Iterator over a [`Document`] yielding borrowed [`Event`]s in document
/// order. See [`tree_events`].
pub struct TreeEvents<'a> {
    work: Vec<TreeStep<'a>>,
}

impl<'a> Iterator for TreeEvents<'a> {
    type Item = Event<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.work.pop()? {
            TreeStep::Open(e) => {
                self.work.push(TreeStep::Close(&e.name));
                for child in e.children.iter().rev() {
                    self.work.push(match child {
                        Node::Element(c) => TreeStep::Open(c),
                        Node::Text(t) => TreeStep::Text(t),
                    });
                }
                Some(Event::StartElement {
                    name: Cow::Borrowed(&e.name),
                    attributes: e
                        .attributes
                        .iter()
                        .map(|a| EventAttribute {
                            name: Cow::Borrowed(a.name.as_str()),
                            value: Cow::Borrowed(a.value.as_str()),
                        })
                        .collect(),
                })
            }
            TreeStep::Text(t) => Some(Event::Text(Cow::Borrowed(t))),
            TreeStep::Close(name) => Some(Event::EndElement {
                name: Cow::Borrowed(name),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn collect_events(input: &str) -> Vec<Event<'_>> {
        events(input).map(|e| e.unwrap()).collect()
    }

    #[test]
    fn simple_document_streams_in_order() {
        let evs = collect_events("<a><b>hi</b></a>");
        assert_eq!(evs.len(), 5);
        assert!(matches!(&evs[0], Event::StartElement { name, .. } if name == "a"));
        assert!(matches!(&evs[1], Event::StartElement { name, .. } if name == "b"));
        assert!(matches!(&evs[2], Event::Text(t) if t == "hi"));
        assert!(matches!(&evs[3], Event::EndElement { name } if name == "b"));
        assert!(matches!(&evs[4], Event::EndElement { name } if name == "a"));
    }

    #[test]
    fn self_closing_yields_start_then_end() {
        let evs = collect_events("<a><b/></a>");
        assert!(matches!(&evs[1], Event::StartElement { name, .. } if name == "b"));
        assert!(matches!(&evs[2], Event::EndElement { name } if name == "b"));
    }

    #[test]
    fn plain_text_is_borrowed_entities_force_owned() {
        let evs = collect_events("<a>plain</a>");
        assert!(matches!(&evs[1], Event::Text(Cow::Borrowed("plain"))));
        let evs = collect_events("<a>a &amp; b</a>");
        assert!(matches!(&evs[1], Event::Text(Cow::Owned(t)) if t == "a & b"));
    }

    #[test]
    fn attributes_are_entity_resolved() {
        let evs = collect_events(r#"<a t="&lt;x&gt;" u='raw'/>"#);
        let Event::StartElement { attributes, .. } = &evs[0] else {
            panic!("expected start");
        };
        assert_eq!(attributes[0].value, "<x>");
        assert!(matches!(attributes[1].value, Cow::Borrowed("raw")));
    }

    #[test]
    fn whitespace_only_text_is_not_emitted() {
        let evs = collect_events("<a>\n  <b/>\n</a>");
        assert!(!evs.iter().any(|e| matches!(e, Event::Text(_))));
    }

    #[test]
    fn comments_and_pis_do_not_split_a_text_run() {
        let evs = collect_events("<a>x<!-- c -->y<?pi?>z</a>");
        assert!(matches!(&evs[1], Event::Text(t) if t == "xyz"));
    }

    #[test]
    fn cdata_joins_the_run() {
        let evs = collect_events("<a>p<![CDATA[x < y]]>q</a>");
        assert!(matches!(&evs[1], Event::Text(t) if t == "px < yq"));
    }

    #[test]
    fn depth_limit_fires_mid_stream() {
        let limits = ParseLimits {
            max_depth: 3,
            ..Default::default()
        };
        let src = "<a><a><a><a></a></a></a></a>";
        let mut seen = 0;
        let mut err = None;
        for ev in events_with_limits(src, &limits) {
            match ev {
                Ok(_) => seen += 1,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(seen, 3);
        assert!(matches!(
            err.unwrap().kind,
            ParseErrorKind::TooDeep { limit: 3 }
        ));
    }

    #[test]
    fn input_size_limit_fires_on_first_pull() {
        let limits = ParseLimits {
            max_input_bytes: 8,
            ..Default::default()
        };
        let err = events_with_limits("<a>123456789</a>", &limits)
            .next()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InputTooLarge { .. }));
    }

    #[test]
    fn iterator_is_fused_after_an_error() {
        let mut it = events("<a><b></a></b>");
        let mut saw_err = false;
        for ev in &mut it {
            if ev.is_err() {
                saw_err = true;
            }
        }
        assert!(saw_err);
        assert!(it.next().is_none());
    }

    #[test]
    fn trailing_content_is_reported_after_the_root_closes() {
        let results: Vec<_> = events("<a/>junk").collect();
        assert!(matches!(
            results.last().unwrap(),
            Err(ParseError {
                kind: ParseErrorKind::TrailingContent,
                ..
            })
        ));
    }

    #[test]
    fn tree_events_match_streamed_events() {
        let src = r#"<show type="Movie"><title>T &amp; T</title><empty/>tail</show>"#;
        let doc = parse(src).unwrap();
        let streamed: Vec<Event<'_>> = events(src).map(|e| e.unwrap()).collect();
        let replayed: Vec<Event<'_>> = tree_events(&doc).collect();
        assert_eq!(streamed, replayed);
    }
}
