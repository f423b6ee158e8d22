//! Serialization of a [`DataTree`] back to XML text.
//!
//! Attribute nodes (labels starting with `@`) are emitted as XML attributes
//! of their parent; the synthetic `@text` node is emitted as leading text
//! content. Round-tripping `parse ∘ serialize` preserves the tree up to the
//! normalizations the parser applies (see `xfd_xml::parser`).

use crate::escape::{escape_attr, escape_text};
use crate::tree::{DataTree, NodeId};
use crate::TEXT_LABEL;

/// Serialize the whole tree to XML text, pretty-printed with two-space
/// indentation and without an XML declaration.
pub fn to_xml_string(tree: &DataTree) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), 0, &mut out);
    out.push('\n');
    out
}

fn write_node(tree: &DataTree, node: NodeId, depth: usize, out: &mut String) {
    let pad = |out: &mut String, d: usize| {
        for _ in 0..d {
            out.push_str("  ");
        }
    };
    pad(out, depth);
    let label = tree.label(node);
    debug_assert!(
        !label.starts_with('@'),
        "attribute nodes are emitted by their parent"
    );
    out.push('<');
    out.push_str(label);

    let mut text_value: Option<&str> = None;
    let mut element_children: Vec<NodeId> = Vec::new();
    for &c in tree.children(node) {
        let cl = tree.label(c);
        if cl == TEXT_LABEL {
            text_value = tree.value(c);
        } else if let Some(attr_name) = cl.strip_prefix('@') {
            out.push(' ');
            out.push_str(attr_name);
            out.push_str("=\"");
            out.push_str(&escape_attr(tree.value(c).unwrap_or("")));
            out.push('"');
        } else {
            element_children.push(c);
        }
    }

    let own_value = tree.value(node);
    if element_children.is_empty() && own_value.is_none() && text_value.is_none() {
        out.push_str("/>");
        return;
    }
    out.push('>');

    if let Some(v) = own_value {
        // A leaf with a value: inline, no indentation inside.
        out.push_str(&escape_text(v));
        out.push_str("</");
        out.push_str(label);
        out.push('>');
        return;
    }
    if let Some(v) = text_value {
        out.push_str(&escape_text(v));
    }
    if !element_children.is_empty() {
        for &c in &element_children {
            out.push('\n');
            write_node(tree, c, depth + 1, out);
        }
        out.push('\n');
        pad(out, depth);
    }
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value_eq::node_value_eq_cross;
    use crate::{parse, TreeBuilder};

    fn roundtrip_preserves(xml: &str) {
        let t1 = parse(xml).unwrap();
        let serialized = to_xml_string(&t1);
        let t2 = parse(&serialized).unwrap_or_else(|e| panic!("reparse of {serialized:?}: {e}"));
        assert!(
            node_value_eq_cross(&t1, t1.root(), &t2, t2.root()),
            "roundtrip changed the tree:\n{serialized}"
        );
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip_preserves("<a><b>1</b><c x=\"2\">3</c></a>");
    }

    #[test]
    fn roundtrip_escapes() {
        roundtrip_preserves("<a><b>1 &lt; 2 &amp; 3</b><c x=\"a&quot;b\"/></a>");
    }

    #[test]
    fn roundtrip_empty_elements() {
        roundtrip_preserves("<a><b/><c></c></a>");
    }

    #[test]
    fn attrs_are_rendered_inline() {
        let t = TreeBuilder::new("a").attr("id", "7").finish();
        assert_eq!(to_xml_string(&t), "<a id=\"7\"/>\n");
    }

    #[test]
    fn text_child_is_rendered_as_content() {
        let t = parse(r#"<b x="1">hi</b>"#).unwrap();
        assert_eq!(to_xml_string(&t), "<b x=\"1\">hi</b>\n");
    }

    #[test]
    fn pretty_printing_indents_nested_elements() {
        let t = parse("<a><b><c>1</c></b></a>").unwrap();
        let s = to_xml_string(&t);
        assert!(s.contains("\n  <b>"), "{s}");
        assert!(s.contains("\n    <c>1</c>"), "{s}");
    }
}
