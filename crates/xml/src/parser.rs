//! Document parser: turns a token stream into a [`DataTree`].
//!
//! The mapping from XML to the paper's data model (Section 2.1):
//!
//! * each element becomes a node labeled with its tag name;
//! * each attribute `a="v"` becomes a child node labeled `@a` with value `v`
//!   (attributes and elements are treated uniformly);
//! * an element with no children stores its entity-decoded text, trimmed
//!   of leading and trailing whitespace, as its own simple value;
//! * a mixed-content element with exactly one non-whitespace textual chunk
//!   stores it under a synthesized `@text` child; with more than one chunk
//!   the text is ignored, following the paper.

use crate::error::{ParseError, ParseErrorKind, Position};
use crate::tokenizer::{Token, Tokenizer};
use crate::tree::{DataTree, NodeId};
use crate::TEXT_LABEL;

/// Parse an XML document. A leading UTF-8 BOM is skipped.
pub fn parse(input: &str) -> Result<DataTree, ParseError> {
    let input = input.strip_prefix('\u{FEFF}').unwrap_or(input);
    let mut tokens = Tokenizer::new(input);
    let mut assembler = TreeAssembler::new();
    while let Some(tok) = tokens.next_token()? {
        assembler.push(tok)?;
    }
    assembler.finish(tokens.position())
}

struct OpenElement {
    node: NodeId,
    /// Non-whitespace text chunks seen directly under this element.
    text_chunks: Vec<String>,
    /// True once an element or attribute child exists.
    has_children: bool,
    pos: Position,
}

/// The token → data-tree state machine, shared by the in-memory parser and
/// the chunked [`crate::reader`] entry point: feed tokens with [`Self::push`]
/// (in document order, from any tokenization strategy), then [`Self::finish`].
pub(crate) struct TreeAssembler {
    tree: Option<DataTree>,
    stack: Vec<OpenElement>,
    root_done: bool,
}

impl TreeAssembler {
    pub(crate) fn new() -> Self {
        TreeAssembler {
            tree: None,
            stack: Vec::new(),
            root_done: false,
        }
    }

    /// Incorporate the next token.
    pub(crate) fn push(&mut self, tok: Token) -> Result<(), ParseError> {
        match tok {
            Token::StartTag {
                name,
                attrs,
                self_closing,
                pos,
            } => {
                self.open(&name, &attrs, pos)?;
                if self_closing {
                    self.close_top();
                }
            }
            Token::EndTag { name, pos } => {
                let top = self.stack.last().ok_or_else(|| {
                    ParseError::new(ParseErrorKind::UnmatchedCloseTag(name.clone()), pos)
                })?;
                let tree = self.tree.as_ref().expect("open element implies tree");
                let open_label = tree.label(top.node).to_string();
                if open_label != name {
                    return Err(ParseError::new(
                        ParseErrorKind::MismatchedTag {
                            open: open_label,
                            close: name,
                        },
                        pos,
                    ));
                }
                self.close_top();
            }
            Token::Text { text, pos } | Token::CData { text, pos } => {
                if self.stack.is_empty() {
                    if !text.trim().is_empty() {
                        return Err(ParseError::new(ParseErrorKind::TrailingContent, pos));
                    }
                    return Ok(());
                }
                let chunk = text.trim();
                if !chunk.is_empty() {
                    self.stack
                        .last_mut()
                        .expect("non-empty stack")
                        .text_chunks
                        .push(chunk.to_string());
                }
            }
        }
        Ok(())
    }

    /// Consume the assembler at end of input (`end` positions EOF errors).
    pub(crate) fn finish(mut self, end: Position) -> Result<DataTree, ParseError> {
        if let Some(open) = self.stack.pop() {
            return Err(ParseError::new(
                ParseErrorKind::UnexpectedEof("document"),
                Position {
                    offset: end.offset,
                    ..open.pos
                },
            ));
        }
        self.tree
            .ok_or_else(|| ParseError::new(ParseErrorKind::NoRootElement, end))
    }

    fn open(
        &mut self,
        name: &str,
        attrs: &[(String, String)],
        pos: Position,
    ) -> Result<(), ParseError> {
        let node = match (&mut self.tree, self.stack.last()) {
            (None, _) => {
                if self.root_done {
                    return Err(ParseError::new(ParseErrorKind::TrailingContent, pos));
                }
                self.tree = Some(DataTree::with_root(name));
                self.tree.as_ref().expect("just created").root()
            }
            (Some(tree), Some(parent)) => tree.add_child(parent.node, name),
            (Some(_), None) => {
                // A second top-level element.
                return Err(ParseError::new(ParseErrorKind::TrailingContent, pos));
            }
        };
        let has_attrs = !attrs.is_empty();
        if let Some(tree) = &mut self.tree {
            for (k, v) in attrs {
                let a = tree.add_child(node, &format!("@{k}"));
                tree.set_value(a, v);
            }
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.has_children = true;
        }
        self.stack.push(OpenElement {
            node,
            text_chunks: Vec::new(),
            has_children: has_attrs,
            pos,
        });
        Ok(())
    }

    fn close_top(&mut self) {
        let open = self
            .stack
            .pop()
            .expect("close_top requires an open element");
        let tree = self.tree.as_mut().expect("open element implies tree");
        if !open.text_chunks.is_empty() {
            if open.has_children {
                // Mixed content: keep a single textual chunk under @text,
                // ignore multiple chunks (paper Section 2.1).
                if open.text_chunks.len() == 1 {
                    let t = tree.add_child(open.node, TEXT_LABEL);
                    tree.set_value(t, &open.text_chunks[0]);
                }
            } else {
                let joined = open.text_chunks.join("");
                tree.set_value(open.node, &joined);
            }
        }
        if self.stack.is_empty() {
            self.root_done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn leaf_text_becomes_node_value() {
        let t = parse("<a><b>hello</b></a>").unwrap();
        let b = t.child_labeled(t.root(), "b").unwrap();
        assert_eq!(t.value(b), Some("hello"));
    }

    #[test]
    fn attributes_become_at_children() {
        let t = parse(r#"<book isbn="1-111"><title>DBMS</title></book>"#).unwrap();
        let isbn = t.child_labeled(t.root(), "@isbn").unwrap();
        assert_eq!(t.value(isbn), Some("1-111"));
        assert!(t.is_attr(isbn));
    }

    #[test]
    fn mixed_content_single_chunk_goes_to_text_child() {
        let t = parse("<p>hello <b>world</b></p>").unwrap();
        let text = t.child_labeled(t.root(), "@text").unwrap();
        assert_eq!(t.value(text), Some("hello"));
    }

    #[test]
    fn mixed_content_multiple_chunks_are_ignored() {
        let t = parse("<p>one <b>x</b> two</p>").unwrap();
        assert!(t.child_labeled(t.root(), "@text").is_none());
    }

    #[test]
    fn element_with_attrs_and_text_stores_text_child() {
        // The element has (attribute) children, so its text cannot be its
        // own value; it goes under @text.
        let t = parse(r#"<b x="1">hi</b>"#).unwrap();
        assert_eq!(t.value(t.root()), None);
        let text = t.child_labeled(t.root(), "@text").unwrap();
        assert_eq!(t.value(text), Some("hi"));
    }

    #[test]
    fn whitespace_between_elements_is_ignored() {
        let t = parse("<a>\n  <b>1</b>\n  <c>2</c>\n</a>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
        assert_eq!(t.value(t.root()), None);
    }

    #[test]
    fn leaf_values_are_trimmed() {
        let t = parse("<a>\n   59.99\n</a>").unwrap();
        assert_eq!(t.value(t.root()), Some("59.99"));
    }

    #[test]
    fn cdata_contributes_text() {
        let t = parse("<a><![CDATA[1 < 2]]></a>").unwrap();
        assert_eq!(t.value(t.root()), Some("1 < 2"));
    }

    #[test]
    fn mismatched_tags_error() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unmatched_close_errors() {
        let e = parse("</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnmatchedCloseTag(_)));
    }

    #[test]
    fn unclosed_element_errors() {
        let e = parse("<a><b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn empty_document_errors() {
        assert!(matches!(
            parse("").unwrap_err().kind,
            ParseErrorKind::NoRootElement
        ));
        assert!(matches!(
            parse("  <!-- c -->  ").unwrap_err().kind,
            ParseErrorKind::NoRootElement
        ));
    }

    #[test]
    fn two_roots_error() {
        let e = parse("<a/><b/>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn trailing_text_errors() {
        let e = parse("<a/>junk").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn self_closing_elements_nest_properly() {
        let t = parse("<a><b/><c><d/></c></a>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
        let c = t.child_labeled(t.root(), "c").unwrap();
        assert_eq!(t.children(c).len(), 1);
    }

    #[test]
    fn node_keys_follow_document_order() {
        let t = parse("<a><b>1</b><c><d>2</d></c></a>").unwrap();
        // a=0, b=1, c=2, d=3 in document order.
        assert_eq!(t.label(crate::NodeId(0)), "a");
        assert_eq!(t.label(crate::NodeId(1)), "b");
        assert_eq!(t.label(crate::NodeId(2)), "c");
        assert_eq!(t.label(crate::NodeId(3)), "d");
    }

    #[test]
    fn split_text_around_comment_joins_for_leaves() {
        let t = parse("<a>one<!-- c -->two</a>").unwrap();
        assert_eq!(t.value(t.root()), Some("onetwo"));
    }

    #[test]
    fn utf8_bom_is_skipped() {
        let t = parse("\u{FEFF}<a>x</a>").unwrap();
        assert_eq!(t.value(t.root()), Some("x"));
    }
}
