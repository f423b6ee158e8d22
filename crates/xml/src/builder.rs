//! A fluent builder for constructing [`DataTree`]s programmatically.
//!
//! Used heavily by the workload generators, which build trees directly
//! instead of round-tripping through XML text.

use crate::tree::{DataTree, NodeId};

/// Builds a [`DataTree`] with an open/close element discipline.
///
/// ```
/// use xfd_xml::TreeBuilder;
/// let tree = TreeBuilder::new("warehouse")
///     .open("state")
///     .leaf("name", "WA")
///     .open("store")
///     .attr("id", "s1")
///     .leaf("book", "DBMS")
///     .close()
///     .close()
///     .finish();
/// assert_eq!(tree.node_count(), 6);
/// ```
#[derive(Debug)]
pub struct TreeBuilder {
    tree: DataTree,
    stack: Vec<NodeId>,
}

impl TreeBuilder {
    /// Start a tree whose root is labeled `root_label`; the root is the
    /// initially-open element.
    pub fn new(root_label: &str) -> Self {
        let tree = DataTree::with_root(root_label);
        let root = tree.root();
        TreeBuilder {
            tree,
            stack: vec![root],
        }
    }

    fn current(&self) -> NodeId {
        *self
            .stack
            .last()
            .expect("builder stack never empties before finish()")
    }

    /// Open a child element of the current element; it becomes current.
    pub fn open(mut self, label: &str) -> Self {
        let cur = self.current();
        let id = self.tree.add_child(cur, label);
        self.stack.push(id);
        self
    }

    /// Close the current element, returning to its parent.
    ///
    /// # Panics
    /// Panics if only the root is open (the root is closed by `finish`).
    pub fn close(mut self) -> Self {
        assert!(self.stack.len() > 1, "cannot close the root; call finish()");
        self.stack.pop();
        self
    }

    /// Add an attribute `@name = value` to the current element.
    pub fn attr(mut self, name: &str, value: &str) -> Self {
        let cur = self.current();
        let id = self.tree.add_child(cur, &format!("@{name}"));
        self.tree.set_value(id, value);
        self
    }

    /// Add a leaf child element with a simple value.
    pub fn leaf(mut self, label: &str, value: &str) -> Self {
        let cur = self.current();
        let id = self.tree.add_child(cur, label);
        self.tree.set_value(id, value);
        self
    }

    /// Add an empty child element (no value, no children).
    pub fn empty(mut self, label: &str) -> Self {
        let cur = self.current();
        self.tree.add_child(cur, label);
        self
    }

    /// Set the simple value of the *current* element (only meaningful if it
    /// will have no children).
    pub fn value(mut self, value: &str) -> Self {
        let cur = self.current();
        self.tree.set_value(cur, value);
        self
    }

    /// Finish building; all open elements are implicitly closed.
    pub fn finish(self) -> DataTree {
        self.tree
    }
}

/// Mutable-reference variant of the builder API, convenient inside loops.
///
/// ```
/// use xfd_xml::builder::TreeWriter;
/// let mut w = TreeWriter::new("dblp");
/// for i in 0..3 {
///     w.open("article");
///     w.leaf("title", &format!("Paper {i}"));
///     w.close();
/// }
/// let tree = w.finish();
/// assert_eq!(tree.children(tree.root()).len(), 3);
/// ```
#[derive(Debug)]
pub struct TreeWriter {
    tree: DataTree,
    stack: Vec<NodeId>,
}

impl TreeWriter {
    /// Start a tree rooted at `root_label`.
    pub fn new(root_label: &str) -> Self {
        let tree = DataTree::with_root(root_label);
        let root = tree.root();
        TreeWriter {
            tree,
            stack: vec![root],
        }
    }

    fn current(&self) -> NodeId {
        *self
            .stack
            .last()
            .expect("writer stack never empties before finish()")
    }

    /// Open a child element; returns its id.
    pub fn open(&mut self, label: &str) -> NodeId {
        let cur = self.current();
        let id = self.tree.add_child(cur, label);
        self.stack.push(id);
        id
    }

    /// Close the current element.
    pub fn close(&mut self) {
        assert!(self.stack.len() > 1, "cannot close the root; call finish()");
        self.stack.pop();
    }

    /// Add `@name = value` to the current element.
    pub fn attr(&mut self, name: &str, value: &str) {
        let cur = self.current();
        let id = self.tree.add_child(cur, &format!("@{name}"));
        self.tree.set_value(id, value);
    }

    /// Add a leaf child with a value; returns its id.
    pub fn leaf(&mut self, label: &str, value: &str) -> NodeId {
        let cur = self.current();
        let id = self.tree.add_child(cur, label);
        self.tree.set_value(id, value);
        id
    }

    /// Add an empty child element; returns its id.
    pub fn empty(&mut self, label: &str) -> NodeId {
        let cur = self.current();
        self.tree.add_child(cur, label)
    }

    /// Deep-copy the subtree rooted at `node` of `src` as a child of the
    /// current element (labels, values, attribute children — everything).
    pub fn copy_subtree(&mut self, src: &DataTree, node: NodeId) {
        self.copy_filtered(src, node, &mut |_| true);
    }

    /// Like [`TreeWriter::copy_subtree`] but skipping any node (and its
    /// subtree) for which `keep` returns false.
    pub fn copy_filtered(
        &mut self,
        src: &DataTree,
        node: NodeId,
        keep: &mut dyn FnMut(NodeId) -> bool,
    ) {
        if !keep(node) {
            return;
        }
        let label = src.label(node).to_string();
        if src.children(node).is_empty() {
            let id = self.empty(&label);
            if let Some(v) = src.value(node) {
                self.tree.set_value(id, v);
            }
        } else {
            self.open(&label);
            if let Some(v) = src.value(node) {
                let cur = self.current();
                self.tree.set_value(cur, v);
            }
            for &c in src.children(node) {
                self.copy_filtered(src, c, keep);
            }
            self.close();
        }
    }

    /// Finish building.
    pub fn finish(self) -> DataTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_manual_construction() {
        let built = TreeBuilder::new("a")
            .open("b")
            .leaf("c", "1")
            .close()
            .finish();
        let mut manual = DataTree::with_root("a");
        let b = manual.add_child(manual.root(), "b");
        let c = manual.add_child(b, "c");
        manual.set_value(c, "1");
        assert_eq!(built.node_count(), manual.node_count());
        for n in built.all_nodes() {
            assert_eq!(built.label(n), manual.label(n));
            assert_eq!(built.value(n), manual.value(n));
        }
    }

    #[test]
    fn attrs_get_at_prefix() {
        let t = TreeBuilder::new("a").attr("id", "7").finish();
        let attr = t.children(t.root())[0];
        assert_eq!(t.label(attr), "@id");
        assert_eq!(t.value(attr), Some("7"));
    }

    #[test]
    fn finish_closes_open_elements() {
        let t = TreeBuilder::new("a").open("b").open("c").finish();
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot close the root")]
    fn closing_root_panics() {
        let _ = TreeBuilder::new("a").close();
    }

    #[test]
    fn copy_subtree_is_value_equal() {
        let src = crate::parse("<a><b x='1'>hi</b><c><d>2</d></c></a>").unwrap();
        let mut w = TreeWriter::new("root");
        w.copy_subtree(&src, src.root());
        let copied = w.finish();
        let a = copied.children(copied.root())[0];
        assert!(crate::node_value_eq_cross(&src, src.root(), &copied, a));
    }

    #[test]
    fn copy_filtered_drops_subtrees() {
        let src = crate::parse("<a><b>1</b><c>2</c><b>3</b></a>").unwrap();
        let mut w = TreeWriter::new("root");
        w.copy_filtered(&src, src.root(), &mut |n| src.label(n) != "c");
        let copied = w.finish();
        let a = copied.children(copied.root())[0];
        assert_eq!(copied.children(a).len(), 2);
        assert!(copied.child_labeled(a, "c").is_none());
    }

    #[test]
    fn writer_supports_loops() {
        let mut w = TreeWriter::new("r");
        for i in 0..5 {
            w.open("item");
            w.attr("n", &i.to_string());
            w.close();
        }
        let t = w.finish();
        assert_eq!(t.children(t.root()).len(), 5);
    }
}
