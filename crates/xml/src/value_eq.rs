//! Node-value equality (Definition 3) and path-value equality (Definition 4).
//!
//! Two nodes are *node-value equal* iff the subtrees rooted at them are
//! identical up to reordering of siblings — i.e. labels match, simple values
//! match, and there is a one-to-one matching between children that are
//! themselves node-value equal. This is **multiset** equality over children.
//!
//! [`EqClasses`] computes, in one bottom-up pass with hash-consing, an
//! integer *equality class* for every node of a tree such that two nodes are
//! node-value equal iff their classes are equal. Classes are exact (the
//! hash-consing table compares full shapes, not just their hashes), so
//! there are no collisions.
//!
//! **Numbering rule.** Class ids are dense and assigned in *document
//! order*: classes are numbered 0, 1, 2, … in the order their first member
//! is met by a post-order walk (children before their parent, siblings left
//! to right — the order of the closing tags). Everything a subtree
//! introduces is numbered before anything that follows the subtree in the
//! document. Grafting documents under a fresh root therefore numbers the
//! first document's classes exactly as that document alone would, the
//! second's new classes next, and the root's last: ids are prefix-stable
//! in document order, which is what lets the collection encoder merge only
//! the documents that changed.

use std::hash::Hasher;

use xfd_hash::FxHasher;

use crate::intern::Interner;
use crate::tree::{DataTree, NodeId};

/// Equality-class identifier: equal ids ⟺ node-value equal subtrees
/// (within the [`EqClasses`] instance that produced them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueClassId(pub u32);

/// Whether sibling order participates in value equality.
///
/// The paper chooses to "treat our collections as unordered sets, and to
/// ignore order in XML" (Section 3.1, Remark 4) but reserves a discussion
/// of "the impact of considering order" for Section 4.5; [`OrderMode::Ordered`]
/// implements that variant: children compare as *lists*, so reordered
/// siblings are no longer value-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderMode {
    /// Children compare as multisets (the paper's default).
    #[default]
    Unordered,
    /// Children compare as document-order lists.
    Ordered,
}

/// Per-node equality classes for one tree.
#[derive(Debug, Clone)]
pub struct EqClasses {
    class: Vec<ValueClassId>,
    num_classes: u32,
}

impl EqClasses {
    /// Compute equality classes for every node of `tree` with the default
    /// unordered (multiset) semantics.
    pub fn compute(tree: &DataTree) -> Self {
        Self::compute_with(tree, OrderMode::Unordered)
    }

    /// Compute equality classes under an explicit [`OrderMode`].
    pub fn compute_with(tree: &DataTree, order: OrderMode) -> Self {
        Self::compute_in(tree, &mut ShapeCons::new(order))
    }

    /// Number `tree`'s classes into `cons`, under the cons's order, and
    /// keep the cons: its shapes (strings, children, ids in document
    /// order) are what the collection encoder ships per segment and
    /// re-conses in the merge. Classes `cons` already holds keep their ids
    /// and count towards [`EqClasses::num_classes`].
    pub fn compute_in(tree: &DataTree, cons: &mut ShapeCons) -> Self {
        let class = cons.number_tree(tree);
        EqClasses {
            class,
            num_classes: cons.len() as u32,
        }
    }

    /// The equality class of `node`.
    pub fn class_of(&self, node: NodeId) -> ValueClassId {
        self.class[node.index()]
    }

    /// Are two nodes of the same tree node-value equal (Definition 3)?
    pub fn node_value_eq(&self, a: NodeId, b: NodeId) -> bool {
        self.class_of(a) == self.class_of(b)
    }

    /// Number of distinct classes in the tree.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }
}

/// Value slot of a shape without a simple value.
const NO_VALUE: u32 = u32::MAX;
/// An empty slot of the index.
const NO_CLASS: u32 = u32::MAX;

/// FxHash of a shape key.
fn shape_hash(label: u32, value: u32, children: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(label);
    h.write_u32(value);
    h.write_usize(children.len());
    for &c in children {
        h.write_u32(c);
    }
    h.finish()
}

/// One hash-consed shape, borrowed from a [`ShapeCons`]: string ids of the
/// label and the simple value, and the child classes — a sorted multiset
/// under [`OrderMode::Unordered`], a document-order list under
/// [`OrderMode::Ordered`]. Children are always smaller ids than the shape
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape<'a> {
    /// String id of the node label.
    pub label: u32,
    /// String id of the simple value, if any.
    pub value: Option<u32>,
    /// Child classes.
    pub children: &'a [u32],
}

/// The hash-consing table behind every value-class numbering: the
/// [`EqClasses`] of one tree, each collection segment's shapes, and the
/// collection merge that re-conses those shapes into one class space.
/// Re-consing several trees' shapes into one cons, tree after tree in
/// document order and each in id order, reproduces the [`EqClasses`] ids
/// of the grafted tree verbatim — that is the numbering rule.
///
/// [`ShapeCons::cons`] maps a shape (label, value, children) to its class,
/// handing out the next dense id on first sight. Labels and values are
/// interned to string ids first; the children go into a reused buffer
/// (sorted under [`OrderMode::Unordered`]); the key is hashed with FxHash;
/// and the shape is copied into the flat arena only on a miss, so a hit
/// allocates nothing.
///
/// The index is an open-addressing table of class ids with linear
/// probing. [`ShapeCons::truncate`] rolls the table back to an earlier
/// class and string count by clearing the slots of the removed classes,
/// newest first. Each removed class is then the last one inserted, so
/// clearing its slot restores the table exactly as it was before that
/// insert: a rollback costs only the removed classes.
#[derive(Debug, Clone)]
pub struct ShapeCons {
    order: OrderMode,
    strings: Interner,
    label: Vec<u32>,
    value: Vec<u32>,
    /// End of each class's children in `kids`; a class's children start
    /// where the previous class's end.
    kids_end: Vec<u32>,
    kids: Vec<u32>,
    /// Class ids by shape hash, `NO_CLASS` when empty; a power of two in
    /// size and at most three quarters full.
    slots: Vec<u32>,
    buf: Vec<u32>,
}

impl ShapeCons {
    /// An empty table comparing children under `order`.
    pub fn new(order: OrderMode) -> Self {
        ShapeCons {
            order,
            strings: Interner::new(),
            label: Vec::new(),
            value: Vec::new(),
            kids_end: Vec::new(),
            kids: Vec::new(),
            slots: vec![NO_CLASS; 16],
            buf: Vec::new(),
        }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// True when no class has been consed.
    pub fn is_empty(&self) -> bool {
        self.label.is_empty()
    }

    /// Number of interned label and value strings.
    pub fn num_strings(&self) -> usize {
        self.strings.len()
    }

    /// Intern a label or value string.
    pub fn intern_str(&mut self, s: &str) -> u32 {
        self.strings.intern(s).0
    }

    /// The interned strings, in id order.
    pub fn strings(&self) -> impl Iterator<Item = &str> {
        self.strings.iter().map(|(_, s)| s)
    }

    /// The class of the shape (`label`, `value`, `children`), consing it
    /// under the next id if it is new. String ids come from
    /// [`ShapeCons::intern_str`]; children must be classes of this table.
    pub fn cons(
        &mut self,
        label: u32,
        value: Option<u32>,
        children: impl IntoIterator<Item = u32>,
    ) -> u32 {
        let value = value.unwrap_or(NO_VALUE);
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.extend(children);
        if self.order == OrderMode::Unordered {
            buf.sort_unstable();
        }
        let mask = self.slots.len() - 1;
        let mut i = shape_hash(label, value, &buf) as usize & mask;
        loop {
            let c = self.slots[i];
            if c == NO_CLASS {
                break;
            }
            let c = c as usize;
            if self.label[c] == label && self.value[c] == value && self.children_of(c) == &buf[..] {
                self.buf = buf;
                return c as u32;
            }
            i = (i + 1) & mask;
        }
        let id = self.label.len() as u32;
        self.label.push(label);
        self.value.push(value);
        self.kids.extend_from_slice(&buf);
        self.kids_end.push(self.kids.len() as u32);
        self.slots[i] = id;
        self.buf = buf;
        if self.len() * 4 > self.slots.len() * 3 {
            self.grow();
        }
        id
    }

    fn hash_of(&self, class: usize) -> u64 {
        shape_hash(
            self.label[class],
            self.value[class],
            self.children_of(class),
        )
    }

    /// Double the index and re-insert every class in id order, which leaves
    /// it exactly as inserting them one by one into the larger table would.
    fn grow(&mut self) {
        self.slots = vec![NO_CLASS; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for c in 0..self.len() {
            let mut i = self.hash_of(c) as usize & mask;
            while self.slots[i] != NO_CLASS {
                i = (i + 1) & mask;
            }
            self.slots[i] = c as u32;
        }
    }

    fn children_of(&self, class: usize) -> &[u32] {
        let start = match class {
            0 => 0,
            c => self.kids_end[c - 1] as usize,
        };
        &self.kids[start..self.kids_end[class] as usize]
    }

    /// The shape of `class`, if it exists.
    fn shape(&self, class: u32) -> Option<Shape<'_>> {
        let c = class as usize;
        let label = *self.label.get(c)?;
        let value = *self.value.get(c)?;
        Some(Shape {
            label,
            value: (value != NO_VALUE).then_some(value),
            children: self.children_of(c),
        })
    }

    /// Every shape, in class-id order.
    pub fn shapes(&self) -> impl Iterator<Item = Shape<'_>> {
        (0..self.len() as u32).filter_map(|c| self.shape(c))
    }

    /// Roll back to the first `classes` classes and `strings` strings, as if
    /// nothing had been consed or interned after them.
    pub fn truncate(&mut self, classes: usize, strings: usize) {
        let mask = self.slots.len() - 1;
        while self.label.len() > classes {
            let id = self.label.len() - 1;
            let mut i = self.hash_of(id) as usize & mask;
            while self.slots[i] != NO_CLASS {
                if self.slots[i] == id as u32 {
                    self.slots[i] = NO_CLASS;
                    break;
                }
                i = (i + 1) & mask;
            }
            self.label.pop();
            self.value.pop();
            self.kids_end.pop();
            let end = id.checked_sub(1).map_or(0, |p| self.kids_end[p] as usize);
            self.kids.truncate(end);
        }
        self.strings.truncate(strings);
    }

    /// Rough heap footprint, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        let strings: usize = self.strings().map(|s| s.len() + 40).sum();
        strings + self.len() * 12 + self.kids.len() * 4 + self.slots.len() * 4
    }

    /// Number every node of `tree` in document order (see the module
    /// docs) and return each node's class, indexed by arena id.
    fn number_tree(&mut self, tree: &DataTree) -> Vec<ValueClassId> {
        let mut class = vec![ValueClassId(0); tree.node_count()];
        // Label symbol → string id, so each distinct label hashes once.
        let mut label_ids = vec![NO_VALUE; tree.interner().len()];
        let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
        while let Some(top) = stack.last_mut() {
            let (node, next) = *top;
            let kids = tree.children(node);
            if let Some(&child) = kids.get(next) {
                top.1 += 1;
                stack.push((child, 0));
                continue;
            }
            stack.pop();
            let sym = tree.label_sym(node).index();
            let label = match label_ids[sym] {
                NO_VALUE => {
                    let id = self.intern_str(tree.label(node));
                    label_ids[sym] = id;
                    id
                }
                id => id,
            };
            let value = tree.value(node).map(|v| self.intern_str(v));
            let id = self.cons(label, value, kids.iter().map(|c| class[c.index()].0));
            class[node.index()] = ValueClassId(id);
        }
        class
    }
}

/// Pre-order enumeration of `tree` plus its inverse: `(preorder, rank)`
/// with `preorder[rank[n.index()]] == n`. Trees built in document order
/// (the parser, `TreeWriter`) have `rank[i] == i`, but nothing here
/// assumes it.
pub fn preorder_of(tree: &DataTree) -> (Vec<NodeId>, Vec<u32>) {
    let preorder: Vec<NodeId> = tree.descendants(tree.root()).collect();
    let mut rank = vec![0u32; tree.node_count()];
    for (r, node) in preorder.iter().enumerate() {
        rank[node.index()] = r as u32;
    }
    (preorder, rank)
}

/// A fully materialized canonical form of a subtree; usable for *cross-tree*
/// node-value equality (Definition 3 across two documents). Ordered so it
/// can key sorted structures.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalValue {
    /// Node label (as a string, so forms are comparable across interners).
    pub label: String,
    /// Simple value, if any.
    pub value: Option<String>,
    /// Sorted canonical forms of the children (multiset).
    pub children: Vec<CanonicalValue>,
}

/// Build the canonical form of the subtree rooted at `node`.
pub fn canonical_form(tree: &DataTree, node: NodeId) -> CanonicalValue {
    let mut children: Vec<CanonicalValue> = tree
        .children(node)
        .iter()
        .map(|&c| canonical_form(tree, c))
        .collect();
    children.sort();
    CanonicalValue {
        label: tree.label(node).to_string(),
        value: tree.value(node).map(str::to_string),
        children,
    }
}

/// Node-value equality across (possibly different) trees — Definition 3.
pub fn node_value_eq_cross(t1: &DataTree, n1: NodeId, t2: &DataTree, n2: NodeId) -> bool {
    canonical_form(t1, n1) == canonical_form(t2, n2)
}

/// Path-value equality — Definition 4: the nodes matched by `p1` in `t1`
/// and by `p2` in `t2` are in one-to-one node-value-equal correspondence.
pub fn path_value_eq(t1: &DataTree, nodes1: &[NodeId], t2: &DataTree, nodes2: &[NodeId]) -> bool {
    if nodes1.len() != nodes2.len() {
        return false;
    }
    let mut f1: Vec<CanonicalValue> = nodes1.iter().map(|&n| canonical_form(t1, n)).collect();
    let mut f2: Vec<CanonicalValue> = nodes2.iter().map(|&n| canonical_form(t2, n)).collect();
    f1.sort();
    f2.sort();
    f1 == f2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::Path;

    #[test]
    fn identical_subtrees_share_a_class() {
        let t = parse("<r><b><x>1</x><y>2</y></b><b><y>2</y><x>1</x></b></r>").unwrap();
        let eq = EqClasses::compute(&t);
        let bs = "/r/b".parse::<Path>().unwrap().resolve_all(&t);
        assert!(
            eq.node_value_eq(bs[0], bs[1]),
            "sibling order must not matter"
        );
    }

    #[test]
    fn differing_values_split_classes() {
        let t = parse("<r><b><x>1</x></b><b><x>2</x></b></r>").unwrap();
        let eq = EqClasses::compute(&t);
        let bs = "/r/b".parse::<Path>().unwrap().resolve_all(&t);
        assert!(!eq.node_value_eq(bs[0], bs[1]));
    }

    #[test]
    fn multiset_not_set_semantics() {
        // {x,x} vs {x}: a one-to-one matching is impossible.
        let t = parse("<r><b><x>1</x><x>1</x></b><b><x>1</x></b></r>").unwrap();
        let eq = EqClasses::compute(&t);
        let bs = "/r/b".parse::<Path>().unwrap().resolve_all(&t);
        assert!(!eq.node_value_eq(bs[0], bs[1]));
    }

    #[test]
    fn labels_matter() {
        let t = parse("<r><a>1</a><b>1</b></r>").unwrap();
        let eq = EqClasses::compute(&t);
        let kids = t.children(t.root());
        assert!(!eq.node_value_eq(kids[0], kids[1]));
    }

    #[test]
    fn paper_example_books_30_and_50_are_equal() {
        // Figure 1: book 30 and book 50 carry the same ISBN, authors
        // (in different order), title and price.
        let xml = "<w>\
            <book><ISBN>1-55860-438-3</ISBN><author>Ramakrishnan</author>\
              <author>Gehrke</author><title>DBMS</title><price>59.99</price></book>\
            <book><ISBN>1-55860-438-3</ISBN><author>Gehrke</author>\
              <author>Ramakrishnan</author><title>DBMS</title><price>59.99</price></book>\
            </w>";
        let t = parse(xml).unwrap();
        let eq = EqClasses::compute(&t);
        let books = "/w/book".parse::<Path>().unwrap().resolve_all(&t);
        assert!(eq.node_value_eq(books[0], books[1]));
    }

    #[test]
    fn cross_tree_equality_matches_within_tree_classes() {
        let x1 = "<r><b><x>1</x><y>2</y></b></r>";
        let x2 = "<r><b><y>2</y><x>1</x></b></r>";
        let t1 = parse(x1).unwrap();
        let t2 = parse(x2).unwrap();
        let b1 = "/r/b".parse::<Path>().unwrap().resolve_all(&t1)[0];
        let b2 = "/r/b".parse::<Path>().unwrap().resolve_all(&t2)[0];
        assert!(node_value_eq_cross(&t1, b1, &t2, b2));
    }

    #[test]
    fn path_value_equality_needs_one_to_one_correspondence() {
        let t1 = parse("<r><a>1</a><a>2</a></r>").unwrap();
        let t2 = parse("<r><a>2</a><a>1</a></r>").unwrap();
        let t3 = parse("<r><a>1</a><a>1</a></r>").unwrap();
        let p: Path = "/r/a".parse().unwrap();
        let (n1, n2, n3) = (p.resolve_all(&t1), p.resolve_all(&t2), p.resolve_all(&t3));
        assert!(path_value_eq(&t1, &n1, &t2, &n2));
        assert!(!path_value_eq(&t1, &n1, &t3, &n3));
    }

    #[test]
    fn ordered_mode_distinguishes_reordered_siblings() {
        let t = parse("<r><b><x>1</x><y>2</y></b><b><y>2</y><x>1</x></b></r>").unwrap();
        let unordered = EqClasses::compute_with(&t, OrderMode::Unordered);
        let ordered = EqClasses::compute_with(&t, OrderMode::Ordered);
        let bs = "/r/b".parse::<Path>().unwrap().resolve_all(&t);
        assert!(unordered.node_value_eq(bs[0], bs[1]));
        assert!(!ordered.node_value_eq(bs[0], bs[1]));
    }

    #[test]
    fn ordered_mode_still_equates_identical_order() {
        let t = parse("<r><b><x>1</x><y>2</y></b><b><x>1</x><y>2</y></b></r>").unwrap();
        let ordered = EqClasses::compute_with(&t, OrderMode::Ordered);
        let bs = "/r/b".parse::<Path>().unwrap().resolve_all(&t);
        assert!(ordered.node_value_eq(bs[0], bs[1]));
    }

    #[test]
    fn shapes_are_topologically_ordered() {
        let t = parse("<r><a><b>1</b></a><a><b>1</b></a><c>2</c></r>").unwrap();
        let mut cons = ShapeCons::new(OrderMode::Unordered);
        let eq = EqClasses::compute_in(&t, &mut cons);
        assert_eq!(eq.num_classes() as usize, cons.len());
        for (id, shape) in cons.shapes().enumerate() {
            for &child in shape.children {
                assert!((child as usize) < id, "child class precedes parent");
            }
        }
    }

    #[test]
    fn reconsing_shapes_reproduces_the_grafted_numbering() {
        // The merge rule: re-cons each document's shapes, in order, into
        // one cons; the ids equal those of the grafted tree.
        for order in [OrderMode::Unordered, OrderMode::Ordered] {
            let docs = [
                "<d><b><x>1</x><y>2</y></b><b><y>2</y><x>1</x></b></d>",
                "<d><b><x>1</x></b><c>3</c></d>",
            ];
            let grafted = parse(&format!("<all>{}{}</all>", docs[0], docs[1])).unwrap();
            let want = EqClasses::compute_with(&grafted, order);
            let mut global = ShapeCons::new(order);
            let mut offset = 1;
            for doc in docs {
                let t = parse(doc).unwrap();
                let mut local = ShapeCons::new(order);
                let eq = EqClasses::compute_in(&t, &mut local);
                let strings: Vec<u32> = local.strings().map(|s| global.intern_str(s)).collect();
                let mut map: Vec<u32> = Vec::new();
                for shape in local.shapes() {
                    let kids = shape.children.iter().map(|&c| map[c as usize]);
                    let value = shape.value.map(|v| strings[v as usize]);
                    let id = global.cons(strings[shape.label as usize], value, kids);
                    map.push(id);
                }
                for n in t.all_nodes() {
                    let g = NodeId(n.0 + offset);
                    assert_eq!(
                        map[eq.class_of(n).0 as usize],
                        want.class_of(g).0,
                        "{order:?}"
                    );
                }
                offset += t.node_count() as u32;
            }
        }
    }

    #[test]
    fn classes_are_numbered_in_document_order() {
        // Post-order first appearance: x=1, a, y=2, b, then the root.
        let t = parse("<r><a><x>1</x></a><b><y>2</y></b><a><x>1</x></a></r>").unwrap();
        let eq = EqClasses::compute(&t);
        let ids: Vec<u32> = t.all_nodes().map(|n| eq.class_of(n).0).collect();
        // Arena (pre-order): r, a, x, b, y, a, x.
        assert_eq!(ids, vec![4, 1, 0, 3, 2, 1, 0]);
    }

    #[test]
    fn grafting_keeps_the_first_documents_ids() {
        // Prefix stability: a document's classes keep their ids when later
        // documents are grafted after it.
        let first = "<d><a>1</a><b><a>1</a><c>2</c></b></d>";
        let t1 = parse(first).unwrap();
        let alone = EqClasses::compute(&t1);
        let both = parse(&format!("<all>{first}<d><c>3</c><a>1</a></d></all>")).unwrap();
        let grafted = EqClasses::compute(&both);
        for n in t1.all_nodes() {
            // The first document occupies arena ids 1.. in the graft.
            let g = NodeId(n.0 + 1);
            assert_eq!(alone.class_of(n), grafted.class_of(g));
        }
    }

    #[test]
    fn cons_truncate_hands_out_the_same_ids_again() {
        let mut cons = ShapeCons::new(OrderMode::Unordered);
        let a = cons.intern_str("a");
        let one = cons.intern_str("1");
        let leaf = cons.cons(a, Some(one), []);
        let pair = cons.cons(a, None, [leaf, leaf]);
        let (classes, strings) = (cons.len(), cons.num_strings());
        let two = cons.intern_str("2");
        let leaf2 = cons.cons(a, Some(two), []);
        let mixed = cons.cons(a, None, [leaf2, leaf]);
        assert_eq!((leaf, pair, leaf2, mixed), (0, 1, 2, 3));
        cons.truncate(classes, strings);
        assert_eq!(cons.len(), 2);
        assert_eq!(
            cons.cons(a, None, [leaf, leaf]),
            pair,
            "kept classes still hit"
        );
        let b = cons.intern_str("b");
        assert_eq!(b, two, "string ids are handed out again");
        assert_eq!(
            cons.cons(b, None, [leaf]),
            2,
            "class ids are handed out again"
        );
        assert_eq!(cons.shape(2).map(|s| s.children), Some(&[leaf][..]));
    }

    #[test]
    fn cons_truncate_is_exact_across_index_growth() {
        let mut cons = ShapeCons::new(OrderMode::Unordered);
        let l = cons.intern_str("l");
        let values: Vec<u32> = (0..200).map(|i| cons.intern_str(&i.to_string())).collect();
        let leaves: Vec<u32> = values.iter().map(|&v| cons.cons(l, Some(v), [])).collect();
        assert_eq!(leaves, (0..200).collect::<Vec<u32>>());
        cons.truncate(10, 11);
        for (i, &v) in values.iter().take(10).enumerate() {
            assert_eq!(
                cons.cons(l, Some(v), []),
                i as u32,
                "kept class {i} still hits"
            );
        }
        let again = cons.intern_str("150");
        assert_eq!(again, 11);
        assert_eq!(cons.cons(l, Some(again), []), 10, "ids resume in order");
        assert_eq!(cons.len(), 11);
    }

    #[test]
    fn cons_sorts_children_only_when_unordered() {
        for (order, same) in [(OrderMode::Unordered, true), (OrderMode::Ordered, false)] {
            let mut cons = ShapeCons::new(order);
            let l = cons.intern_str("l");
            let v = cons.intern_str("v");
            let x = cons.cons(l, Some(v), []);
            let y = cons.cons(l, None, []);
            let xy = cons.cons(l, None, [x, y]);
            let yx = cons.cons(l, None, [y, x]);
            assert_eq!(xy == yx, same, "{order:?}");
        }
    }

    #[test]
    fn class_count_reflects_sharing() {
        let t = parse("<r><a>1</a><a>1</a><a>1</a></r>").unwrap();
        let eq = EqClasses::compute(&t);
        // Classes: the leaf "a=1" (shared) and the root.
        assert_eq!(eq.num_classes(), 2);
    }
}
