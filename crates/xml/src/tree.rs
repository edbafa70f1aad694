//! The XML document object model: [`Document`], [`Element`], [`Node`],
//! [`Attribute`], plus navigation helpers used by the statistics collector,
//! the validator, and the shredder.

/// A well-formed XML document: exactly one root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The document element.
    pub root: Element,
}

impl Document {
    /// Wrap a root element into a document.
    pub fn new(root: Element) -> Self {
        Document { root }
    }

    /// Total number of element nodes in the document (root included).
    pub fn element_count(&self) -> usize {
        self.root.element_count()
    }
}

/// An element: a name, attributes, and an ordered list of child nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// The tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<Attribute>,
    /// Children (elements and text) in document order.
    pub children: Vec<Node>,
}

/// A name/value attribute pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (without quotes).
    pub name: String,
    /// Attribute value, already entity-resolved.
    pub value: String,
}

/// A child of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// A run of character data, already entity-resolved.
    Text(String),
}

impl Node {
    /// The contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// The contained text, if this node is character data.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            Node::Element(_) => None,
        }
    }
}

impl Element {
    /// An element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: an element whose only child is a text node.
    ///
    /// This is how scalar leaves such as `<title>The Fugitive</title>` are
    /// constructed by the data generator and the publishing path.
    pub fn text_leaf(name: impl Into<String>, text: impl Into<String>) -> Self {
        Element::new(name).with_text(text)
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push(Attribute {
            name: name.into(),
            value: value.into(),
        });
        self
    }

    /// Builder-style: append a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style: append a text node.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Iterate over child elements, skipping text nodes.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// The first child element with the given name, if any.
    pub fn first_child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// The value of the named attribute, if present.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// The concatenation of all *direct* text children (not descendants),
    /// trimmed. This is the "scalar content" of a leaf element.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for t in self.children.iter().filter_map(Node::as_text) {
            out.push_str(t);
        }
        out.trim().to_string()
    }

    /// Number of element nodes in this subtree, itself included.
    pub fn element_count(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::element_count)
            .sum::<usize>()
    }

    /// True if this element has no element children (only text, or nothing).
    pub fn is_leaf(&self) -> bool {
        self.child_elements().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("show")
            .with_attr("type", "Movie")
            .with_child(Element::text_leaf("title", "The Fugitive"))
            .with_child(Element::text_leaf("year", "1993"))
            .with_child(Element::text_leaf("aka", "Auf der Flucht"))
            .with_child(Element::text_leaf("aka", "Le Fugitif"))
    }

    #[test]
    fn builder_constructs_expected_shape() {
        let e = sample();
        assert_eq!(e.name, "show");
        assert_eq!(e.attributes.len(), 1);
        assert_eq!(e.children.len(), 4);
    }

    #[test]
    fn children_named_filters_by_tag() {
        let e = sample();
        assert_eq!(e.children_named("aka").count(), 2);
        assert_eq!(e.children_named("title").count(), 1);
        assert_eq!(e.children_named("nonexistent").count(), 0);
    }

    #[test]
    fn first_child_and_attribute_lookup() {
        let e = sample();
        assert_eq!(e.first_child("year").unwrap().text(), "1993");
        assert_eq!(e.attribute("type"), Some("Movie"));
        assert_eq!(e.attribute("missing"), None);
    }

    #[test]
    fn text_concatenates_and_trims_direct_text() {
        let e = Element::new("x")
            .with_text("  a ")
            .with_child(Element::new("y"))
            .with_text("b  ");
        assert_eq!(e.text(), "a b");
    }

    #[test]
    fn leaf_detection() {
        assert!(Element::text_leaf("t", "x").is_leaf());
        assert!(!sample().is_leaf());
    }

    #[test]
    fn element_count_walks_the_tree() {
        let doc = Document::new(Element::new("imdb").with_child(sample()));
        // imdb + show + title + year + 2×aka
        assert_eq!(doc.element_count(), 6);
    }
}
