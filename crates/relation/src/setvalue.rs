//! Set-valued columns — the reconstruction of the paper's Section 4.4
//! ("discovering FDs involving set elements" via *set partitions*).
//!
//! For each child set element `e` of a pivot `p`, the parent relation `R_p`
//! gains a column whose cell for tuple `t` is the canonical identifier of
//! the **multiset of value-equality classes** (Definition 3) of the
//! `e`-children of `t`'s pivot node. Two tuples share a cell id iff their
//! `./e` paths are path-value equal (Definition 4): equal ids ⟺ a
//! one-to-one node-value-equal correspondence exists. A tuple with no
//! `e`-children gets ⊥ (the path matches no node, Definition 7).
//!
//! With these columns in place, FDs over set elements — FD 3
//! `{./ISBN} → ./author` and FD 4 `{./author, ./title} → ./ISBN` — are
//! ordinary attribute-partition FDs, and the unchanged lattice algorithms
//! discover them. This is the "set partition" of Section 4.1's preview:
//! the attribute partition induced by a set element's canonical multisets.

use xfd_schema::SchemaMap;
use xfd_xml::{OrderMode, ValueClassId};

use crate::dictionary::Dictionary;
use crate::relation::{Column, ColumnKind, Relation};

/// Append a set-valued column for every child set element to its parent
/// relation.
///
/// `relations` must be in schema DFS order (parents before children), as
/// produced by the encoder; `class_of(rel, t)` is the value class of tuple
/// `t`'s pivot node in `rel`. With [`OrderMode::Ordered`], cells identify
/// *sequences* of child values rather than multisets.
pub fn add_set_columns(
    relations: &mut [Relation],
    map: &SchemaMap,
    class_of: impl Fn(&Relation, usize) -> ValueClassId,
    dictionary: &mut Dictionary,
    order: OrderMode,
) {
    // Collect (parent index, column) first: we read child relations while
    // building columns for parents.
    let mut new_columns: Vec<(usize, Column)> = Vec::new();
    for child in relations.iter() {
        let Some(parent_rel) = child.parent else {
            continue;
        };
        let elem = map.get(child.pivot);
        let parent = &relations[parent_rel.index()];
        let mut per_parent: Vec<Vec<u64>> = vec![Vec::new(); parent.n_tuples()];
        for t in 0..child.n_tuples() {
            let p = child.parent_of[t] as usize;
            per_parent[p].push(u64::from(class_of(child, t).0));
        }
        let cells: Vec<Option<u64>> = per_parent
            .into_iter()
            .map(|ms| {
                if ms.is_empty() {
                    None
                } else {
                    Some(match order {
                        OrderMode::Unordered => dictionary.intern_multiset(ms),
                        OrderMode::Ordered => dictionary.intern_sequence(ms),
                    })
                }
            })
            .collect();
        let rel_path = elem.path.relative_to(&parent.pivot_path);
        let name = rel_path.to_string().trim_start_matches("./").to_string();
        new_columns.push((
            parent_rel.index(),
            Column {
                elem: child.pivot,
                rel_path,
                name,
                kind: ColumnKind::SetValue,
                cells,
            },
        ));
    }
    for (idx, col) in new_columns {
        relations[idx].columns.push(col);
    }
}

#[cfg(test)]
mod tests {
    use crate::encode::{encode, EncodeConfig};
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    /// FD 3 semantics: same ISBN ⇒ same *set* of authors must be checkable
    /// through plain cell equality.
    #[test]
    fn set_cells_realize_path_value_equality() {
        let t = parse(
            "<r>\
             <book><isbn>A</isbn><au>R</au><au>G</au></book>\
             <book><isbn>A</isbn><au>G</au><au>R</au></book>\
             <book><isbn>B</isbn><au>R</au></book>\
             </r>",
        )
        .unwrap();
        let s = infer_schema(&t);
        let f = encode(&t, &s, &EncodeConfig::default());
        let book = f.relations.iter().find(|r| r.name == "book").unwrap();
        let au = book.column_by_rel_path(&"./au".parse().unwrap()).unwrap();
        let cells = &book.columns[au].cells;
        assert_eq!(cells[0], cells[1], "order-insensitive");
        assert_ne!(cells[0], cells[2]);
    }

    /// Nested sets: a set of records each containing a set.
    #[test]
    fn nested_set_columns_compare_whole_subtrees() {
        let t = parse(
            "<r>\
             <store><book><au>x</au><au>y</au></book><book><au>z</au></book></store>\
             <store><book><au>z</au></book><book><au>y</au><au>x</au></book></store>\
             <store><book><au>x</au></book><book><au>z</au></book></store>\
             </r>",
        )
        .unwrap();
        let s = infer_schema(&t);
        let f = encode(&t, &s, &EncodeConfig::default());
        let store = f.relations.iter().find(|r| r.name == "store").unwrap();
        let bk = store
            .column_by_rel_path(&"./book".parse().unwrap())
            .unwrap();
        let cells = &store.columns[bk].cells;
        // Stores 0 and 1 hold the same multiset of book subtrees (order of
        // books and of authors within books ignored); store 2 differs.
        assert_eq!(cells[0], cells[1]);
        assert_ne!(cells[0], cells[2]);
    }

    /// Ordered mode (Section 4.5 variant): reordered authors no longer
    /// share a cell.
    #[test]
    fn ordered_mode_distinguishes_sequences() {
        use xfd_xml::OrderMode;
        let t = parse(
            "<r>\
             <book><au>R</au><au>G</au></book>\
             <book><au>G</au><au>R</au></book>\
             <book><au>R</au><au>G</au></book>\
             </r>",
        )
        .unwrap();
        let s = infer_schema(&t);
        let cfg = EncodeConfig {
            order: OrderMode::Ordered,
            ..Default::default()
        };
        let f = encode(&t, &s, &cfg);
        let book = f.relations.iter().find(|r| r.name == "book").unwrap();
        let au = book.column_by_rel_path(&"./au".parse().unwrap()).unwrap();
        let cells = &book.columns[au].cells;
        assert_ne!(cells[0], cells[1], "R,G vs G,R differ as sequences");
        assert_eq!(cells[0], cells[2], "identical sequences share a cell");
    }

    /// The set column of a deeper set element is still anchored at the
    /// owning relation with the right relative path.
    #[test]
    fn set_under_complex_element_gets_compound_rel_path() {
        let t =
            parse("<r><s><c><ph>1</ph><ph>2</ph></c></s><s><c><ph>2</ph><ph>1</ph></c></s></r>")
                .unwrap();
        let s = infer_schema(&t);
        let f = encode(&t, &s, &EncodeConfig::default());
        let s_rel = f.relations.iter().find(|r| r.name == "s").unwrap();
        let col = s_rel
            .column_by_rel_path(&"./c/ph".parse().unwrap())
            .expect("set column for ./c/ph");
        let cells = &s_rel.columns[col].cells;
        assert_eq!(cells[0], cells[1]);
    }
}
