//! # legodb-xml
//!
//! A self-contained XML substrate for the LegoDB-rs workspace: a document
//! object model ([`Document`], [`Element`], [`Node`]), a non-validating
//! parser ([`parse`]), a serializer ([`Document::to_xml`]), and a path
//! statistics collector ([`stats::Statistics`]) that harvests the
//! `STcnt`/`STsize`/`STbase` style statistics the LegoDB paper lists in its
//! Appendix A.
//!
//! The LegoDB mapping engine is driven purely by XML-level inputs — an XML
//! Schema, an XQuery workload, and *data statistics*. This crate provides the
//! document side of that interface: documents are parsed here, statistics are
//! collected here, and the publishing path (relational rows back to XML) uses
//! the builder and serializer defined here.
//!
//! ```
//! use legodb_xml::{parse, stats::Statistics};
//!
//! let doc = parse("<imdb><show><title>The Fugitive</title></show></imdb>").unwrap();
//! assert_eq!(doc.root.name, "imdb");
//! let stats = Statistics::collect(&doc);
//! assert_eq!(stats.count(&["imdb", "show"]), Some(1));
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod escape;
pub mod events;
pub mod parse;
pub mod stats;
pub mod tree;
pub mod write;

pub use error::{ParseError, ParseErrorKind, Position};
pub use events::{events, events_with_limits, tree_events, Event, EventAttribute, Events};
pub use parse::{parse, parse_with_limits, ParseLimits, TreeBuilder};
pub use tree::{Attribute, Document, Element, Node};
