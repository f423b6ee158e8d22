//! Relations and the relation forest (hierarchical representation,
//! Figure 6 of the paper).

use std::collections::HashMap;

use xfd_schema::{ElemId, SchemaMap};
use xfd_xml::{NodeId, Path};

use crate::dictionary::Dictionary;

/// Identifier of a relation within a [`Forest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a tuple within one relation.
pub type TupleIdx = u32;

/// What a column's cells mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// A simple (leaf) schema element; cells are string-dictionary ids.
    Simple,
    /// A complex non-repeatable element; cells are node keys or value-class
    /// ids depending on [`crate::ComplexColumnMode`].
    Complex,
    /// A child set element (Section 4.4 reconstruction); cells are
    /// multiset-dictionary ids over the children's value classes.
    SetValue,
}

/// One column of a relation.
#[derive(Debug, Clone)]
pub struct Column {
    /// The schema element this column materializes.
    pub elem: ElemId,
    /// Path relative to the relation's pivot (e.g. `./contact/name`).
    pub rel_path: Path,
    /// Display name (relative path without the leading `./`).
    pub name: String,
    /// Cell semantics.
    pub kind: ColumnKind,
    /// One cell per tuple; `None` is ⊥ (the element is missing).
    pub cells: Vec<Option<u64>>,
}

/// One relation `R_p` of the hierarchical representation: `@key` is the
/// pivot node per tuple ([`Relation::node_keys`]), `parent` is the owning
/// tuple in the parent relation ([`Relation::parent_of`]), and the ordinary
/// columns follow.
#[derive(Debug, Clone)]
pub struct Relation {
    /// This relation's id.
    pub id: RelId,
    /// The pivot schema element (a set element, or the root).
    pub pivot: ElemId,
    /// The pivot path (identifies the tuple class `C_p`).
    pub pivot_path: Path,
    /// Display name: the pivot label.
    pub name: String,
    /// Parent relation in the relation tree (`None` for the root relation).
    pub parent: Option<RelId>,
    /// Columns (simple, complex, then set-valued).
    pub columns: Vec<Column>,
    /// `@key`: the pivot data node of each tuple.
    pub node_keys: Vec<NodeId>,
    /// `parent`: for each tuple, the owning tuple in the parent relation.
    /// Empty for the root relation.
    pub parent_of: Vec<TupleIdx>,
}

impl Relation {
    /// Number of tuples.
    pub fn n_tuples(&self) -> usize {
        self.node_keys.len()
    }

    /// Number of ordinary columns (excluding `@key`/`parent`).
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Find a column by its path relative to the pivot.
    pub fn column_by_rel_path(&self, rel_path: &Path) -> Option<usize> {
        self.columns.iter().position(|c| &c.rel_path == rel_path)
    }

    /// Find a column by the schema element it materializes.
    pub fn column_by_elem(&self, elem: ElemId) -> Option<usize> {
        self.columns.iter().position(|c| c.elem == elem)
    }
}

/// Size statistics of a hierarchical encoding, for the representation
/// blow-up experiment (reconstructed Figure 5 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForestStats {
    /// Number of relations.
    pub relations: usize,
    /// Total tuples across relations.
    pub tuples: usize,
    /// Total ordinary columns across relations.
    pub columns: usize,
    /// Total cells (tuples × columns summed per relation).
    pub cells: usize,
}

/// The full hierarchical representation: relations arranged in a tree
/// mirroring the nesting of set elements, plus the shared dictionary.
#[derive(Debug, Clone)]
pub struct Forest {
    /// Relations in schema DFS order: a parent relation always precedes its
    /// child relations.
    pub relations: Vec<Relation>,
    /// The shared value dictionary.
    pub dictionary: Dictionary,
    /// The schema map the encoding was driven by.
    pub schema: SchemaMap,
    by_pivot: HashMap<ElemId, RelId>,
}

impl Forest {
    /// Assemble a forest (used by the encoder).
    pub fn new(relations: Vec<Relation>, dictionary: Dictionary, schema: SchemaMap) -> Self {
        let by_pivot = relations.iter().map(|r| (r.pivot, r.id)).collect();
        Forest {
            relations,
            dictionary,
            schema,
            by_pivot,
        }
    }

    /// The root relation (single tuple, anchors root-level attributes).
    pub fn root(&self) -> RelId {
        RelId(0)
    }

    /// Relation by id.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Relation owning a pivot element.
    pub fn relation_of_pivot(&self, pivot: ElemId) -> Option<RelId> {
        self.by_pivot.get(&pivot).copied()
    }

    /// Relation whose pivot path equals `path`.
    pub fn relation_by_path(&self, path: &Path) -> Option<RelId> {
        self.relations
            .iter()
            .find(|r| &r.pivot_path == path)
            .map(|r| r.id)
    }

    /// Child relations of `id` in the relation tree.
    pub fn children_of(&self, id: RelId) -> Vec<RelId> {
        self.relations
            .iter()
            .filter(|r| r.parent == Some(id))
            .map(|r| r.id)
            .collect()
    }

    /// Relations in bottom-up order (children strictly before parents) —
    /// the traversal order of `DiscoverXFD`.
    pub fn bottom_up(&self) -> Vec<RelId> {
        // DFS order guarantees parents precede children, so the reverse is
        // a valid bottom-up order.
        (0..self.relations.len() as u32).rev().map(RelId).collect()
    }

    /// Size statistics.
    pub fn stats(&self) -> ForestStats {
        let mut s = ForestStats {
            relations: self.relations.len(),
            ..Default::default()
        };
        for r in &self.relations {
            s.tuples += r.n_tuples();
            s.columns += r.n_columns();
            s.cells += r.n_tuples() * r.n_columns();
        }
        s
    }

    /// Render the forest in the style of the paper's Figure 6 (for the CLI
    /// and debugging). Cells are resolved through the dictionary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.relations {
            let _ = writeln!(out, "R_{}  (pivot {})", r.name, r.pivot_path);
            let header: Vec<&str> = ["@key", "parent"]
                .into_iter()
                .chain(r.columns.iter().map(|c| c.name.as_str()))
                .collect();
            let _ = writeln!(out, "  {}", header.join(" | "));
            for t in 0..r.n_tuples() {
                let mut row: Vec<String> = vec![
                    r.node_keys[t].0.to_string(),
                    r.parent_of
                        .get(t)
                        .map(|p| p.to_string())
                        .unwrap_or_else(|| "-".into()),
                ];
                for c in &r.columns {
                    row.push(match (c.cells[t], c.kind) {
                        (None, _) => "⊥".to_string(),
                        (Some(v), ColumnKind::Simple) => self.dictionary.resolve_str(v).to_string(),
                        (Some(v), ColumnKind::Complex) => format!("#{v}"),
                        (Some(v), ColumnKind::SetValue) => {
                            format!("{{{} elems}}", self.dictionary.resolve_multiset(v).len())
                        }
                    });
                }
                let _ = writeln!(out, "  {}", row.join(" | "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use xfd_schema::{infer_schema, SchemaMap};
    use xfd_xml::parse;

    #[test]
    fn bottom_up_visits_children_before_parents() {
        let t = parse("<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>").unwrap();
        let schema = infer_schema(&t);
        let forest = crate::encode(&t, &schema, &crate::EncodeConfig::default());
        let order = forest.bottom_up();
        for (i, &id) in order.iter().enumerate() {
            if let Some(parent) = forest.relation(id).parent {
                let parent_pos = order.iter().position(|&x| x == parent).unwrap();
                assert!(parent_pos > i, "parent must come after child");
            }
        }
    }

    #[test]
    fn forest_stats_add_up() {
        let t = parse("<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>").unwrap();
        let schema = infer_schema(&t);
        let forest = crate::encode(&t, &schema, &crate::EncodeConfig::default());
        let stats = forest.stats();
        assert_eq!(stats.relations, forest.relations.len());
        assert!(stats.tuples >= 5, "root + 2 a + 3 b");
    }

    #[test]
    fn empty_schema_map_lookup() {
        let t = parse("<r><a>1</a></r>").unwrap();
        let schema = infer_schema(&t);
        let m = SchemaMap::new(&schema);
        let forest = crate::encode(&t, &schema, &crate::EncodeConfig::default());
        assert!(forest.relation_of_pivot(m.root()).is_some());
        assert!(forest.relation_by_path(&"/zzz".parse().unwrap()).is_none());
    }
}
