//! Encoding a data tree into the hierarchical representation (Figure 6).
//!
//! One relation per pivot (the document root plus every set element); each
//! relation holds the pivot node key per tuple (`@key`), the owning tuple
//! in the parent relation (`parent`), one column per non-repeatable schema
//! element owned by the pivot, and one set-valued column per child set
//! element (Section 4.4 reconstruction, see [`crate::setvalue`]).

use std::collections::HashMap;

use xfd_schema::{ElemId, Schema, SchemaMap};
use xfd_xml::{DataTree, EqClasses, NodeId, Path};

use crate::dictionary::Dictionary;
use crate::relation::{Column, ColumnKind, Forest, RelId, Relation, TupleIdx};
use crate::setvalue::add_set_columns;

/// Which child set elements materialize as set-valued columns of their
/// parent relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetColumnMode {
    /// No set-valued columns: the expressiveness of the prior XML FD
    /// notions (\[3\], \[24\]) — Constraints 3 and 4 become undiscoverable.
    None,
    /// Every child set element, nested sets included (default).
    #[default]
    All,
}

/// Encoder configuration. Complex non-repeatable elements (e.g.
/// `contact`) hold their node keys, as in the paper's Figures 5–6, and
/// leaf values compare as strings.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncodeConfig {
    /// Set-valued column policy.
    pub set_columns: SetColumnMode,
    /// Sibling-order sensitivity of all value equality (subtree classes
    /// and set-valued cells) — the Section 4.5 "impact of order" variant.
    pub order: xfd_xml::OrderMode,
}

/// Does `config` require subtree value-equality classes? Only set-valued
/// columns are built from them.
pub(crate) fn need_classes(config: &EncodeConfig) -> bool {
    config.set_columns != SetColumnMode::None
}

/// The schema-derived frame of a forest: empty relations (one per pivot, in
/// schema DFS order) plus the lookup tables the tree walk needs. Building
/// it is independent of any data tree, so the sharded collection encoder
/// re-derives the identical skeleton for every segment.
pub(crate) struct Skeleton<'a> {
    pub(crate) relations: Vec<Relation>,
    /// elem -> (relation, column) for non-pivot columns.
    pub(crate) column_of_elem: HashMap<ElemId, (RelId, usize)>,
    /// Child-element lookup by (parent elem, label).
    pub(crate) child_elem: HashMap<(ElemId, &'a str), ElemId>,
}

/// Encode `tree` (assumed to conform to `schema`) into a [`Forest`].
pub fn encode(tree: &DataTree, schema: &Schema, config: &EncodeConfig) -> Forest {
    let map = SchemaMap::new(schema);
    let Skeleton {
        mut relations,
        column_of_elem,
        child_elem,
    } = build_skeleton(&map);

    // --- Single pass over the data tree. ---------------------------------
    let mut dictionary = Dictionary::new();
    let mut encoder = Encoder {
        tree,
        map: &map,
        rank: None,
        relations: &mut relations,
        column_of_elem: &column_of_elem,
        child_elem: &child_elem,
        dictionary: &mut dictionary,
    };
    let root_rel = RelId(0);
    let root_tuple = encoder.new_tuple(root_rel, tree.root(), 0);
    encoder.set_pivot_value(root_rel, root_tuple, tree.root(), map.root());
    encoder.visit_children(tree.root(), map.root(), root_rel, root_tuple);
    // The root relation has no parent; drop the placeholder parent pointer.
    relations[0].parent_of.clear();

    // --- Set-valued columns (Section 4.4 reconstruction). ----------------
    if need_classes(config) {
        let classes = EqClasses::compute_with(tree, config.order);
        add_set_columns(
            &mut relations,
            &map,
            |rel, t| classes.class_of(rel.node_keys[t]),
            &mut dictionary,
            config.order,
        );
    }

    Forest::new(relations, dictionary, map)
}

/// Build the empty relation skeleton and lookup tables for `map`.
pub(crate) fn build_skeleton(map: &SchemaMap) -> Skeleton<'_> {
    // --- Create one relation per pivot, in schema DFS order. -------------
    let pivots = map.pivots();
    let mut rel_of_pivot: HashMap<ElemId, RelId> = HashMap::new();
    let mut relations: Vec<Relation> = Vec::with_capacity(pivots.len());
    let mut column_of_elem: HashMap<ElemId, (RelId, usize)> = HashMap::new();

    for &pivot in &pivots {
        let rel_id = RelId(relations.len() as u32);
        rel_of_pivot.insert(pivot, rel_id);
        let pelem = map.get(pivot);
        let mut columns: Vec<Column> = Vec::new();
        if pelem.is_simple {
            // A simple pivot (e.g. `author: SetOf str`) carries its own
            // value in a `.` column, as R_author does in Figure 6.
            columns.push(Column {
                elem: pivot,
                rel_path: Path::self_path(),
                name: pelem.label.clone(),
                kind: ColumnKind::Simple,
                cells: Vec::new(),
            });
            column_of_elem.insert(pivot, (rel_id, 0));
        }
        for attr in map.attributes_of(pivot) {
            let a = map.get(attr);
            let kind = if a.is_simple {
                ColumnKind::Simple
            } else {
                ColumnKind::Complex
            };
            let rel_path = a.path.relative_to(&pelem.path);
            let name = rel_path.to_string().trim_start_matches("./").to_string();
            column_of_elem.insert(attr, (rel_id, columns.len()));
            columns.push(Column {
                elem: attr,
                rel_path,
                name,
                kind,
                cells: Vec::new(),
            });
        }
        relations.push(Relation {
            id: rel_id,
            pivot,
            pivot_path: pelem.path.clone(),
            name: pelem.label.clone(),
            parent: map.parent_pivot_of(pivot).map(|p| rel_of_pivot[&p]),
            columns,
            node_keys: Vec::new(),
            parent_of: Vec::new(),
        });
    }

    // Child-element lookup by (parent elem, label).
    let mut child_elem: HashMap<(ElemId, &str), ElemId> = HashMap::new();
    for e in map.elements() {
        if let Some(parent) = e.parent {
            child_elem.insert((parent, map.get(e.id).label.as_str()), e.id);
        }
    }

    Skeleton {
        relations,
        column_of_elem,
        child_elem,
    }
}

pub(crate) struct Encoder<'a> {
    pub(crate) tree: &'a DataTree,
    pub(crate) map: &'a SchemaMap,
    /// When encoding a collection *segment*: the tree's pre-order rank
    /// table. Node keys and complex cells are then recorded as pre-order
    /// ranks (segment-relative), which the merge shifts into the grafted
    /// tree's node-id space by adding the segment's node offset.
    pub(crate) rank: Option<&'a [u32]>,
    pub(crate) relations: &'a mut Vec<Relation>,
    pub(crate) column_of_elem: &'a HashMap<ElemId, (RelId, usize)>,
    pub(crate) child_elem: &'a HashMap<(ElemId, &'a str), ElemId>,
    pub(crate) dictionary: &'a mut Dictionary,
}

impl Encoder<'_> {
    fn key_of(&self, node: NodeId) -> NodeId {
        match self.rank {
            Some(rank) => NodeId(rank[node.index()]),
            None => node,
        }
    }

    /// Append a fresh all-⊥ tuple to `rel`.
    pub(crate) fn new_tuple(
        &mut self,
        rel: RelId,
        node: NodeId,
        parent_tuple: TupleIdx,
    ) -> TupleIdx {
        let key = self.key_of(node);
        let r = &mut self.relations[rel.index()];
        let t = r.n_tuples() as TupleIdx;
        r.node_keys.push(key);
        r.parent_of.push(parent_tuple);
        for c in &mut r.columns {
            c.cells.push(None);
        }
        t
    }

    fn set_cell(&mut self, rel: RelId, col: usize, tuple: TupleIdx, value: u64) {
        self.relations[rel.index()].columns[col].cells[tuple as usize] = Some(value);
    }

    /// Record the value of a simple pivot node in its `.` column.
    fn set_pivot_value(&mut self, rel: RelId, tuple: TupleIdx, node: NodeId, elem: ElemId) {
        if let Some(&(r, c)) = self.column_of_elem.get(&elem) {
            if r == rel {
                if let Some(v) = self.tree.value(node) {
                    let id = self.dictionary.intern_str(v);
                    self.set_cell(rel, c, tuple, id);
                }
            }
        }
    }

    fn visit_children(&mut self, node: NodeId, elem: ElemId, rel: RelId, tuple: TupleIdx) {
        let children: Vec<NodeId> = self.tree.children(node).to_vec();
        for c in children {
            let label = self.tree.label(c);
            let Some(&celem) = self.child_elem.get(&(elem, label)) else {
                // Data not covered by the schema; inferred schemas never
                // reach this, hand-written ones may — skip silently, the
                // conformance checker reports it.
                continue;
            };
            self.visit_child(c, celem, rel, tuple);
        }
    }

    /// Encode one child node `c` (whose schema element is `celem`) owned by
    /// `tuple` of `rel`, then recurse. Entry point for the sharded
    /// collection encoder, which starts at a segment's document root with
    /// `(rel, tuple)` = the placeholder root-relation tuple.
    pub(crate) fn visit_child(&mut self, c: NodeId, celem: ElemId, rel: RelId, tuple: TupleIdx) {
        let ce = self.map.get(celem);
        if ce.is_set {
            let crel = RelId(
                self.relations
                    .iter()
                    .position(|r| r.pivot == celem)
                    .expect("pivot relation") as u32,
            );
            let ct = self.new_tuple(crel, c, tuple);
            if ce.is_simple {
                self.set_pivot_value(crel, ct, c, celem);
            }
            self.visit_children(c, celem, crel, ct);
        } else {
            if let Some(&(r, col)) = self.column_of_elem.get(&celem) {
                debug_assert_eq!(r, rel, "non-set element lands in the owning relation");
                if ce.is_simple {
                    if let Some(v) = self.tree.value(c) {
                        let id = self.dictionary.intern_str(v);
                        self.set_cell(rel, col, tuple, id);
                    }
                } else {
                    let id = u64::from(self.key_of(c).0);
                    self.set_cell(rel, col, tuple, id);
                }
            }
            self.visit_children(c, celem, rel, tuple);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    /// The paper's Figure 1 document (keys differ but structure matches).
    pub(crate) fn warehouse() -> DataTree {
        parse(
            "<warehouse>\
             <state><name>WA</name>\
               <store><contact><name>Borders</name><address>Seattle</address></contact>\
                 <book><ISBN>1-0676-7</ISBN><author>Post</author><title>Dreams</title><price>19.99</price></book>\
                 <book><ISBN>1-55860-438-3</ISBN><author>Ramakrishnan</author><author>Gehrke</author><title>DBMS</title><price>59.99</price></book>\
               </store></state>\
             <state><name>KY</name>\
               <store><contact><name>Borders</name><address>Lexington</address></contact>\
                 <book><ISBN>1-55860-438-3</ISBN><author>Ramakrishnan</author><author>Gehrke</author><title>DBMS</title><price>59.99</price></book>\
               </store>\
               <store><contact><name>WHSmith</name><address>Lexington</address></contact>\
                 <book><ISBN>1-55860-438-3</ISBN><author>Ramakrishnan</author><author>Gehrke</author><title>DBMS</title></book>\
               </store></state>\
             </warehouse>",
        )
        .unwrap()
    }

    fn forest() -> Forest {
        let t = warehouse();
        let s = infer_schema(&t);
        encode(&t, &s, &EncodeConfig::default())
    }

    #[test]
    fn one_relation_per_pivot() {
        let f = forest();
        let names: Vec<&str> = f.relations.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["warehouse", "state", "store", "book", "author"]);
    }

    #[test]
    fn tuple_counts_match_figure_6() {
        let f = forest();
        let by_name = |n: &str| f.relations.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by_name("warehouse").n_tuples(), 1);
        assert_eq!(by_name("state").n_tuples(), 2);
        assert_eq!(by_name("store").n_tuples(), 3);
        assert_eq!(by_name("book").n_tuples(), 4);
        assert_eq!(by_name("author").n_tuples(), 7);
    }

    #[test]
    fn book_columns_match_figure_6() {
        let f = forest();
        let book = f.relations.iter().find(|r| r.name == "book").unwrap();
        let cols: Vec<&str> = book.columns.iter().map(|c| c.name.as_str()).collect();
        // ISBN, title, price + the author set-valued column.
        assert_eq!(cols, vec!["ISBN", "title", "price", "author"]);
        assert_eq!(book.columns[3].kind, ColumnKind::SetValue);
    }

    #[test]
    fn store_columns_include_complex_contact() {
        let f = forest();
        let store = f.relations.iter().find(|r| r.name == "store").unwrap();
        let cols: Vec<(&str, ColumnKind)> = store
            .columns
            .iter()
            .map(|c| (c.name.as_str(), c.kind))
            .collect();
        assert_eq!(
            cols,
            vec![
                ("contact", ColumnKind::Complex),
                ("contact/name", ColumnKind::Simple),
                ("contact/address", ColumnKind::Simple),
                ("book", ColumnKind::SetValue),
            ]
        );
    }

    #[test]
    fn missing_price_is_null() {
        let f = forest();
        let book = f.relations.iter().find(|r| r.name == "book").unwrap();
        let price = book
            .column_by_rel_path(&"./price".parse().unwrap())
            .unwrap();
        let cells = &book.columns[price].cells;
        assert_eq!(
            cells.iter().filter(|c| c.is_none()).count(),
            1,
            "book 80 has no price"
        );
    }

    #[test]
    fn set_column_cells_agree_for_equal_author_sets() {
        let f = forest();
        let book = f.relations.iter().find(|r| r.name == "book").unwrap();
        let author = book
            .column_by_rel_path(&"./author".parse().unwrap())
            .unwrap();
        let cells = &book.columns[author].cells;
        // Books 1,2,3 (tuples with {Ramakrishnan, Gehrke}) share a cell id;
        // book 0 ({Post}) differs.
        assert_eq!(cells[1], cells[2]);
        assert_eq!(cells[2], cells[3]);
        assert_ne!(cells[0], cells[1]);
        assert!(cells.iter().all(Option::is_some));
    }

    #[test]
    fn parent_pointers_reconstruct_generalized_tree_tuples() {
        let f = forest();
        let book = f.relations.iter().find(|r| r.name == "book").unwrap();
        let store = f.relations.iter().find(|r| r.name == "store").unwrap();
        // Books 0,1 belong to store 0 (WA); book 2 to store 1; book 3 to store 2.
        assert_eq!(book.parent_of, vec![0, 0, 1, 2]);
        assert_eq!(store.parent_of, vec![0, 1, 1]);
    }

    #[test]
    fn simple_pivot_relation_has_value_column() {
        let f = forest();
        let author = f.relations.iter().find(|r| r.name == "author").unwrap();
        assert_eq!(author.columns.len(), 1);
        assert_eq!(author.columns[0].rel_path, Path::self_path());
        let vals: Vec<&str> = author.columns[0]
            .cells
            .iter()
            .map(|c| f.dictionary.resolve_str(c.unwrap()))
            .collect();
        assert_eq!(vals[0], "Post");
        assert!(vals.contains(&"Ramakrishnan"));
        assert!(vals.contains(&"Gehrke"));
    }

    #[test]
    fn complex_node_key_mode_is_key_like() {
        let t = parse("<r><s><c><n>X</n></c></s><s><c><n>X</n></c></s></r>").unwrap();
        let schema = infer_schema(&t);
        let f = encode(&t, &schema, &EncodeConfig::default());
        let s_rel = f.relations.iter().find(|r| r.name == "s").unwrap();
        let c_col = s_rel.column_by_rel_path(&"./c".parse().unwrap()).unwrap();
        let cells = &s_rel.columns[c_col].cells;
        assert_ne!(cells[0], cells[1], "node keys are unique");
    }

    #[test]
    fn no_set_columns_mode_drops_set_columns() {
        let t = warehouse();
        let schema = infer_schema(&t);
        let cfg = EncodeConfig {
            set_columns: SetColumnMode::None,
            ..Default::default()
        };
        let f = encode(&t, &schema, &cfg);
        let store = f.relations.iter().find(|r| r.name == "store").unwrap();
        let cols: Vec<&str> = store.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(cols, vec!["contact", "contact/name", "contact/address"]);
        let book = f.relations.iter().find(|r| r.name == "book").unwrap();
        let cols: Vec<&str> = book.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(cols, vec!["ISBN", "title", "price"]);
    }

    #[test]
    fn books_without_authors_get_null_set_cells() {
        let t = parse(
            "<r><book><i>1</i></book><book><i>2</i><a>x</a></book><book><i>3</i><a>x</a><a>x</a></book></r>",
        )
        .unwrap();
        let schema = infer_schema(&t);
        let f = encode(&t, &schema, &EncodeConfig::default());
        let book = f.relations.iter().find(|r| r.name == "book").unwrap();
        let a_col = book.column_by_rel_path(&"./a".parse().unwrap()).unwrap();
        let cells = &book.columns[a_col].cells;
        assert_eq!(cells[0], None, "no authors → ⊥ (path matches no node)");
        assert!(cells[1].is_some());
        assert_ne!(cells[1], cells[2], "multiset {{x}} ≠ {{x,x}}");
    }

    #[test]
    fn render_produces_readable_tables() {
        let f = forest();
        let text = f.render();
        assert!(text.contains("R_book"));
        assert!(text.contains("ISBN"));
        assert!(text.contains("⊥"), "missing price renders as bottom");
    }

    #[test]
    fn numeric_values_compare_as_strings() {
        let t = parse("<r><b><n>01</n></b><b><n>1</n></b><b><n>2</n></b></r>").unwrap();
        let schema = infer_schema(&t);
        let f = encode(&t, &schema, &EncodeConfig::default());
        let b = f.relations.iter().find(|r| r.name == "b").unwrap();
        let n = b.column_by_rel_path(&"./n".parse().unwrap()).unwrap();
        assert_ne!(
            b.columns[n].cells[0], b.columns[n].cells[1],
            "\"01\" ≠ \"1\""
        );
    }
}
