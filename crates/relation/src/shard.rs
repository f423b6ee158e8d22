//! Segment-sharded collection encoding.
//!
//! Collection discovery grafts every document under a synthetic
//! `<collection>` root and encodes the grafted tree in one serial pass.
//! This module produces the **byte-identical** [`Forest`] without ever
//! materializing the merged tree: each document (*segment*) is encoded
//! independently into a [`SegmentPartial`] — embarrassingly parallel and
//! cacheable per segment — and a [`ForestMerge`] appends the partials in
//! document order.
//!
//! Determinism rests on one alignment fact: **every id is assigned in
//! document order.** Node keys are pre-order ids
//! (`TreeWriter::copy_subtree`), dictionary ids follow the encoder's DFS
//! walk, and value-class ids follow post-order first appearance
//! (`xfd_xml::value_eq`). Each segment's ids therefore follow those of all
//! earlier segments and depend on no later one. A partial records
//! segment-local ids; the merge shifts node keys by the segment's node
//! offset and re-interns strings and re-conses class shapes, segment by
//! segment. The serial encode of the grafted tree, a full merge and an
//! incremental merge thus produce the same forest by construction.
//!
//! The same fact makes the merge resumable. [`ForestMerge`] keeps a mark
//! per merged segment — node count, tuples per relation, dictionary
//! strings and classes after it — and, when the corpus changes, truncates
//! to the longest unchanged prefix of segments and appends only the rest.
//! Two parts of the forest depend on every segment and are re-derived on
//! each update: the collection root's single tuple, and the set-valued
//! columns, added by [`add_set_columns`] exactly as the serial encoder
//! adds them.

use std::sync::Arc;

use xfd_hash::codec::{put_bytes, put_u32, put_u64, CodecError, Reader};
use xfd_hash::fanout::map_ordered;
use xfd_schema::{Schema, SchemaMap};
use xfd_xml::{preorder_of, DataTree, EqClasses, NodeId, ShapeCons, ValueClassId};

use crate::dictionary::Dictionary;
use crate::encode::{build_skeleton, need_classes, EncodeConfig, Encoder, Skeleton};
use crate::relation::{ColumnKind, Forest, RelId, Relation};
use crate::setvalue::add_set_columns;

/// One document's contribution to the collection forest, expressed in
/// segment-local coordinates: node keys and complex cells are pre-order
/// ranks, and simple cells are local dictionary ids. All coordinates are
/// shifted or remapped by [`ForestMerge`]; a partial is therefore valid
/// for *any* position in *any* collection encoded under the same schema
/// and configuration.
pub struct SegmentPartial {
    relations: Vec<Relation>,
    dictionary: Dictionary,
    /// The segment's value classes, when the configuration needs classes.
    shapes: Option<ShapeCons>,
    /// Per relation, the local class of each tuple's pivot node (empty
    /// without classes): what set-valued columns are built from.
    tuple_class: Vec<Vec<u32>>,
    node_count: usize,
}

impl SegmentPartial {
    /// Number of nodes in the source segment.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Rough heap footprint, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        for r in &self.relations {
            bytes += r.node_keys.len() * 4 + r.parent_of.len() * 4;
            for c in &r.columns {
                bytes += c.cells.len() * std::mem::size_of::<Option<u64>>();
            }
        }
        for id in 0..self.dictionary.num_strings() {
            bytes += self.dictionary.resolve_str(id as u64).len() + 24;
        }
        if let Some(shapes) = &self.shapes {
            bytes += shapes.approx_bytes();
        }
        bytes + self.tuple_class.iter().map(|c| c.len() * 4).sum::<usize>()
    }
}

/// Encode one segment of a collection against the collection schema.
///
/// `map` must be the schema map of the *collection* schema (root =
/// the synthetic collection element whose children are document roots).
pub fn build_partial(tree: &DataTree, map: &SchemaMap, config: &EncodeConfig) -> SegmentPartial {
    let (preorder, rank) = preorder_of(tree);
    let Skeleton {
        mut relations,
        column_of_elem,
        child_elem,
    } = build_skeleton(map);
    let mut dictionary = Dictionary::new();
    let mut encoder = Encoder {
        tree,
        map,
        rank: Some(&rank),
        relations: &mut relations,
        column_of_elem: &column_of_elem,
        child_elem: &child_elem,
        dictionary: &mut dictionary,
    };
    // Placeholder for the collection root's single tuple; its cells hold
    // this segment's contribution (non-⊥ only where this segment's
    // document root owns the column) and are overlaid at merge time.
    let root_tuple = encoder.new_tuple(RelId(0), tree.root(), 0);
    debug_assert_eq!(root_tuple, 0);
    let label = tree.label(tree.root());
    if let Some(&celem) = child_elem.get(&(map.root(), label)) {
        encoder.visit_child(tree.root(), celem, RelId(0), 0);
    }
    let (shapes, tuple_class) = if need_classes(config) {
        let mut shapes = ShapeCons::new(config.order);
        let classes = EqClasses::compute_in(tree, &mut shapes);
        let tuple_class = relations
            .iter()
            .map(|r| {
                r.node_keys
                    .iter()
                    .map(|k| {
                        preorder
                            .get(k.index())
                            .map_or(0, |&n| classes.class_of(n).0)
                    })
                    .collect()
            })
            .collect();
        (Some(shapes), tuple_class)
    } else {
        (None, Vec::new())
    };
    SegmentPartial {
        relations,
        dictionary,
        shapes,
        tuple_class,
        node_count: tree.node_count(),
    }
}

/// The merged state just after one segment: what a rollback to that point
/// truncates to.
#[derive(Debug, Clone)]
struct Mark {
    /// Merged nodes, the collection root included.
    nodes: usize,
    /// Tuples per relation (the root relation always holds its one tuple).
    tuples: Vec<usize>,
    /// Dictionary strings.
    strings: usize,
    /// Global value classes, and the label and value strings they use.
    classes: usize,
    class_strings: usize,
}

/// One merged segment.
#[derive(Debug, Clone)]
struct MergedSegment {
    /// The caller's identity for the segment (the corpus uses its content
    /// digest): a segment is reused while its key stays in place.
    key: u128,
    /// Root-relation cells this segment's document root supplies, as
    /// (column, merged value).
    root_cells: Vec<(usize, u64)>,
    end: Mark,
}

/// A resumable merge of segment partials into the collection [`Forest`],
/// byte-identical to serially encoding the grafted collection tree.
///
/// [`ForestMerge::update`] brings the forest to a new segment list in
/// three steps: roll back to the longest prefix of segments whose keys are
/// unchanged, merge the changed suffix, then re-derive the root tuple and
/// the set-valued columns. A cold merge is the same call from an empty
/// state. The forest is updated in place when no one else holds its `Arc`.
pub struct ForestMerge {
    config: EncodeConfig,
    forest: Arc<Forest>,
    /// Per relation: its columns before the set-valued ones.
    base_columns: Vec<usize>,
    classes: ShapeCons,
    /// Per relation, the global class of each tuple's pivot node — what
    /// the set-valued columns are built from, so kept only when they are
    /// derived.
    tuple_class: Vec<Vec<ValueClassId>>,
    segments: Vec<MergedSegment>,
}

impl ForestMerge {
    /// An empty merge for the collection schema `map` under `config`.
    pub fn new(map: SchemaMap, config: &EncodeConfig) -> Self {
        let Skeleton { mut relations, .. } = build_skeleton(&map);
        let base_columns: Vec<usize> = relations.iter().map(|r| r.columns.len()).collect();
        let base_len = base_columns.len();
        if let Some(root) = relations.first_mut() {
            root.node_keys.push(NodeId(0));
            for c in &mut root.columns {
                c.cells.push(None);
            }
        }
        ForestMerge {
            config: *config,
            forest: Arc::new(Forest::new(relations, Dictionary::new(), map)),
            base_columns,
            classes: ShapeCons::new(config.order),
            tuple_class: vec![Vec::new(); base_len],
            segments: Vec::new(),
        }
    }

    /// The merged forest.
    pub fn forest(&self) -> &Arc<Forest> {
        &self.forest
    }

    /// The merged forest, without the merge state.
    pub fn into_forest(self) -> Forest {
        Arc::try_unwrap(self.forest).unwrap_or_else(|shared| Forest::clone(&shared))
    }

    /// Bring the forest to `parts`: one `(key, partial)` per segment, in
    /// document order, every partial built under this merge's schema and
    /// configuration. Segments whose key matches the one already merged at
    /// the same position, with every earlier key matching too, are kept;
    /// everything after the first mismatch is merged anew. Returns the
    /// number of segments merged by this call.
    pub fn update(&mut self, parts: &[(u128, &SegmentPartial)]) -> usize {
        let keep = self
            .segments
            .iter()
            .zip(parts)
            .take_while(|(seg, (key, _))| seg.key == *key)
            .count();
        self.segments.truncate(keep);
        let mark = match self.segments.last() {
            Some(seg) => seg.end.clone(),
            None => Mark {
                nodes: 1,
                tuples: (0..self.base_columns.len())
                    .map(|r| usize::from(r == 0))
                    .collect(),
                strings: 0,
                classes: 0,
                class_strings: 0,
            },
        };
        let forest = Arc::make_mut(&mut self.forest);
        for (r, rel) in forest.relations.iter_mut().enumerate() {
            if let Some(&base) = self.base_columns.get(r) {
                rel.columns.truncate(base);
            }
            let n = mark.tuples.get(r).copied().unwrap_or(0);
            rel.node_keys.truncate(n);
            rel.parent_of.truncate(n);
            for c in &mut rel.columns {
                c.cells.truncate(n);
            }
            if let Some(classes) = self.tuple_class.get_mut(r) {
                classes.truncate(n);
            }
        }
        forest.dictionary.truncate(mark.strings, 0);
        self.classes.truncate(mark.classes, mark.class_strings);

        let derive_sets = need_classes(&self.config);
        let mut nodes = mark.nodes;
        let suffix = parts.get(keep..).unwrap_or_default();
        for &(key, part) in suffix {
            let tuple_class = derive_sets.then_some(&mut self.tuple_class);
            let root_cells = append_segment(forest, &mut self.classes, tuple_class, nodes, part);
            nodes += part.node_count;
            self.segments.push(MergedSegment {
                key,
                root_cells,
                end: Mark {
                    nodes,
                    tuples: forest.relations.iter().map(Relation::n_tuples).collect(),
                    strings: forest.dictionary.num_strings(),
                    classes: self.classes.len(),
                    class_strings: self.classes.num_strings(),
                },
            });
        }

        // The collection root's tuple: at most one segment supplies each
        // column (a non-set document root has a label unique in the
        // collection).
        if let Some(root) = forest.relations.first_mut() {
            for c in &mut root.columns {
                if let Some(cell) = c.cells.first_mut() {
                    *cell = None;
                }
            }
            for seg in &self.segments {
                for &(col, v) in &seg.root_cells {
                    if let Some(cell) = root.columns.get_mut(col).and_then(|c| c.cells.first_mut())
                    {
                        *cell = Some(v);
                    }
                }
            }
        }
        if derive_sets {
            let Forest {
                relations,
                dictionary,
                schema,
                ..
            } = forest;
            let tuple_class = &self.tuple_class;
            add_set_columns(
                relations,
                schema,
                |rel, t| {
                    tuple_class
                        .get(rel.id.index())
                        .and_then(|c| c.get(t))
                        .copied()
                        .unwrap_or(ValueClassId(0))
                },
                dictionary,
                self.config.order,
            );
        }
        suffix.len()
    }
}

/// Append one segment's tuples to `forest`, whose merged nodes number
/// `node_off` so far, and return the root-relation cells it supplies.
/// Strings are re-interned into the forest dictionary and class shapes
/// re-consed into `classes`, both in local id order; the classes of the
/// appended tuples extend `tuple_class` when set-valued columns are
/// derived.
fn append_segment(
    forest: &mut Forest,
    classes: &mut ShapeCons,
    tuple_class: Option<&mut Vec<Vec<ValueClassId>>>,
    node_off: usize,
    part: &SegmentPartial,
) -> Vec<(usize, u64)> {
    let string_map: Vec<u64> = (0..part.dictionary.num_strings() as u64)
        .map(|id| {
            forest
                .dictionary
                .intern_str(part.dictionary.resolve_str(id))
        })
        .collect();
    let mut class_map: Vec<u32> = Vec::new();
    if let Some(shapes) = &part.shapes {
        let strings: Vec<u32> = shapes.strings().map(|s| classes.intern_str(s)).collect();
        let string = |id: u32| strings.get(id as usize).copied().unwrap_or(0);
        class_map.reserve(shapes.len());
        for shape in shapes.shapes() {
            let children = shape
                .children
                .iter()
                .map(|&c| class_map.get(c as usize).copied().unwrap_or(0));
            let class = classes.cons(string(shape.label), shape.value.map(string), children);
            class_map.push(class);
        }
    }
    if let Some(tuple_class) = tuple_class {
        for (dst, src) in tuple_class.iter_mut().zip(&part.tuple_class).skip(1) {
            dst.extend(
                src.iter()
                    .map(|&c| ValueClassId(class_map.get(c as usize).copied().unwrap_or(0))),
            );
        }
    }

    // Cell values are structurally in range for any partial built under this
    // plan (wire input is bounds-checked by `decode_partial`); the fallbacks
    // below are never hit on valid input and exist so a violated invariant
    // degrades to a deterministic wrong cell instead of a panic that kills
    // a merge worker mid-job.
    let remap_cell = |kind: ColumnKind, v: u64| -> u64 {
        match kind {
            ColumnKind::Simple => string_map.get(v as usize).copied().unwrap_or(0),
            ColumnKind::Complex => v + node_off as u64,
            // Set columns are only added after the merge; pass through.
            ColumnKind::SetValue => v,
        }
    };

    let root_cells = part
        .relations
        .first()
        .zip(forest.relations.first())
        .map(|(src, dst)| {
            dst.columns
                .iter()
                .zip(&src.columns)
                .enumerate()
                .filter_map(|(col, (d, s))| {
                    let v = s.cells.first().copied().flatten()?;
                    Some((col, remap_cell(d.kind, v)))
                })
                .collect()
        })
        .unwrap_or_default();

    // Child relations: the serial DFS meets each segment's tuples as one
    // contiguous block, so they append. Parent pointers shift by the parent
    // relation's tuple count before this segment — zero when the parent is
    // the root relation, whose placeholder tuple 0 is shared.
    let before: Vec<u32> = forest
        .relations
        .iter()
        .map(|r| r.n_tuples() as u32)
        .collect();
    let off = node_off as u32;
    for (dst, src) in forest.relations.iter_mut().zip(&part.relations).skip(1) {
        let Some(parent) = dst.parent else {
            continue;
        };
        let shift = match parent.index() {
            0 => 0,
            p => before.get(p).copied().unwrap_or(0),
        };
        dst.node_keys
            .extend(src.node_keys.iter().map(|k| NodeId(k.0 + off)));
        dst.parent_of
            .extend(src.parent_of.iter().map(|&p| p + shift));
        for (d, s) in dst.columns.iter_mut().zip(&src.columns) {
            let kind = d.kind;
            d.cells
                .extend(s.cells.iter().map(|cell| cell.map(|v| remap_cell(kind, v))));
        }
    }
    root_cells
}

/// Merge segment partials into the collection [`Forest`], byte-identical
/// to serially encoding the grafted collection tree: a [`ForestMerge`] run
/// from an empty state. `parts` must be in segment (document) order and all
/// encoded under `map`'s schema and the same `config`.
pub fn merge_partials(map: SchemaMap, config: &EncodeConfig, parts: &[&SegmentPartial]) -> Forest {
    let mut merge = ForestMerge::new(map, config);
    let keyed: Vec<(u128, &SegmentPartial)> = parts
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as u128, p))
        .collect();
    merge.update(&keyed);
    merge.into_forest()
}

/// Encode a document collection by sharding over segments: build one
/// [`SegmentPartial`] per document — on `threads` workers — and merge. Produces the same forest as serially
/// encoding the grafted collection tree, for every thread count.
pub fn encode_collection(
    trees: &[&DataTree],
    schema: &Schema,
    config: &EncodeConfig,
    threads: usize,
) -> Forest {
    let map = SchemaMap::new(schema);
    let parts = build_partials(trees, &map, config, threads);
    let refs: Vec<&SegmentPartial> = parts.iter().collect();
    merge_partials(map, config, &refs)
}

/// Build one partial per tree, fanning out over `threads` workers.
pub fn build_partials(
    trees: &[&DataTree],
    map: &SchemaMap,
    config: &EncodeConfig,
    threads: usize,
) -> Vec<SegmentPartial> {
    map_ordered(trees.to_vec(), threads, |tree| {
        build_partial(tree, map, config)
    })
}

/// Magic prefix of an encoded [`SegmentPartial`] ("XFD segment partial,
/// version 2": classes are numbered in document order, shapes carry
/// interned label and value strings, and each tuple carries its class).
pub const PARTIAL_MAGIC: [u8; 4] = *b"XSP2";

/// Sentinel cell meaning ⊥ (dictionary/class/node ids never reach it).
const NONE_CELL: u64 = u64::MAX;

/// Sentinel for a class shape without a simple value.
const NO_STRING: u32 = u32::MAX;

/// Serialize a [`SegmentPartial`] into a self-contained block, in the
/// TreeTuple style (little-endian integers, length-prefixed strings). Only
/// segment-local *data* is written — node keys, parent pointers, cells,
/// dictionary strings, class shapes and tuple classes; the relation skeleton is
/// re-derived from the schema on decode, so a block is valid for any
/// process that shares the plan (schema + encode config).
pub fn encode_partial(part: &SegmentPartial) -> Vec<u8> {
    debug_assert_eq!(
        part.dictionary.num_multisets(),
        0,
        "partials never hold multisets (set columns are added after merge)"
    );
    let mut out = Vec::with_capacity(64 + part.approx_bytes() / 2);
    out.extend_from_slice(&PARTIAL_MAGIC);
    put_u64(&mut out, part.node_count as u64);
    put_u32(&mut out, part.dictionary.num_strings() as u32);
    for id in 0..part.dictionary.num_strings() as u64 {
        put_bytes(&mut out, part.dictionary.resolve_str(id).as_bytes());
    }
    match &part.shapes {
        None => out.push(0),
        Some(shapes) => {
            out.push(1);
            put_u32(&mut out, shapes.num_strings() as u32);
            for s in shapes.strings() {
                put_bytes(&mut out, s.as_bytes());
            }
            put_u32(&mut out, shapes.len() as u32);
            for shape in shapes.shapes() {
                put_u32(&mut out, shape.label);
                put_u32(&mut out, shape.value.unwrap_or(NO_STRING));
                put_u32(&mut out, shape.children.len() as u32);
                for &c in shape.children {
                    put_u32(&mut out, c);
                }
            }
        }
    }
    put_u32(&mut out, part.relations.len() as u32);
    for rel in &part.relations {
        put_u32(&mut out, rel.node_keys.len() as u32);
        for k in &rel.node_keys {
            put_u32(&mut out, k.0);
        }
        put_u32(&mut out, rel.parent_of.len() as u32);
        for &p in &rel.parent_of {
            put_u32(&mut out, p);
        }
        put_u32(&mut out, rel.columns.len() as u32);
        for col in &rel.columns {
            for cell in &col.cells {
                put_u64(&mut out, cell.unwrap_or(NONE_CELL));
            }
        }
    }
    // One local class per tuple, relation by relation, when classes exist.
    for classes in &part.tuple_class {
        for &c in classes {
            put_u32(&mut out, c);
        }
    }
    out
}

/// Decode a block produced by [`encode_partial`] against the same plan
/// (collection schema map + encode config). The format is strict and every
/// index is bounds-checked, so a torn or hostile block errors instead of
/// corrupting a later merge.
pub fn decode_partial(
    bytes: &[u8],
    map: &SchemaMap,
    config: &EncodeConfig,
) -> Result<SegmentPartial, CodecError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != PARTIAL_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let node_count = r.usize()?;

    let n_strings = r.count_u32(4)?;
    let mut dictionary = Dictionary::new();
    for i in 0..n_strings {
        if dictionary.intern_str(r.str()?) != i as u64 {
            return Err(CodecError::BadValue("duplicate dictionary string"));
        }
    }

    let shapes = match r.u8()? {
        0 => None,
        1 => {
            let n_class_strings = r.count_u32(4)?;
            let mut shapes = ShapeCons::new(config.order);
            for i in 0..n_class_strings {
                if shapes.intern_str(r.str()?) as usize != i {
                    return Err(CodecError::BadValue("duplicate class string"));
                }
            }
            let n_shapes = r.count_u32(12)?;
            let mut children: Vec<u32> = Vec::new();
            for local in 0..n_shapes {
                let label = r.u32()?;
                if label as usize >= n_class_strings {
                    return Err(CodecError::BadValue("shape label"));
                }
                let value = match r.u32()? {
                    NO_STRING => None,
                    v if (v as usize) < n_class_strings => Some(v),
                    _ => return Err(CodecError::BadValue("shape value")),
                };
                let n_children = r.count_u32(4)?;
                children.clear();
                for _ in 0..n_children {
                    let child = r.u32()?;
                    // The merge remaps children through ids already consed,
                    // which is only sound when children precede the shape.
                    if child as usize >= local {
                        return Err(CodecError::BadValue("shape child"));
                    }
                    children.push(child);
                }
                if shapes.cons(label, value, children.iter().copied()) as usize != local {
                    return Err(CodecError::BadValue("duplicate shape"));
                }
            }
            Some(shapes)
        }
        _ => return Err(CodecError::BadValue("class table flag")),
    };
    if shapes.is_some() != need_classes(config) {
        return Err(CodecError::BadValue("class table presence"));
    }
    let n_shapes = shapes.as_ref().map_or(0, ShapeCons::len);

    let Skeleton { mut relations, .. } = build_skeleton(map);
    let n_rel = r.u32()? as usize;
    if n_rel != relations.len() {
        return Err(CodecError::BadValue("relation count"));
    }
    for i in 0..n_rel {
        let n_tuples = r.count_u32(4)?;
        if i == 0 && n_tuples != 1 {
            return Err(CodecError::BadValue("root tuple count"));
        }
        let mut node_keys = Vec::with_capacity(n_tuples);
        for _ in 0..n_tuples {
            let k = r.u32()?;
            if k as usize >= node_count {
                return Err(CodecError::BadValue("node key"));
            }
            node_keys.push(NodeId(k));
        }
        // Every partial relation carries one parent pointer per tuple; the
        // root's is the placeholder 0 (dropped by the merge overlay).
        if r.u32()? as usize != n_tuples {
            return Err(CodecError::BadValue("parent count"));
        }
        let mut parent_of = Vec::with_capacity(n_tuples);
        for _ in 0..n_tuples {
            parent_of.push(r.u32()?);
        }
        let n_cols = r.u32()? as usize;
        let rel = relations
            .get_mut(i)
            .ok_or(CodecError::BadValue("relation count"))?;
        if n_cols != rel.columns.len() {
            return Err(CodecError::BadValue("column count"));
        }
        rel.node_keys = node_keys;
        rel.parent_of = parent_of;
        for col in &mut rel.columns {
            let mut cells = Vec::with_capacity(n_tuples);
            for _ in 0..n_tuples {
                let v = r.u64()?;
                if v == NONE_CELL {
                    cells.push(None);
                    continue;
                }
                let bound = match col.kind {
                    ColumnKind::Simple => n_strings as u64,
                    ColumnKind::Complex => node_count as u64,
                    ColumnKind::SetValue => 0,
                };
                if v >= bound {
                    return Err(CodecError::BadValue("cell value"));
                }
                cells.push(Some(v));
            }
            col.cells = cells;
        }
    }
    let mut tuple_class: Vec<Vec<u32>> = Vec::new();
    if shapes.is_some() {
        for rel in &relations {
            let mut classes = Vec::with_capacity(rel.n_tuples());
            for _ in 0..rel.n_tuples() {
                let class = r.u32()?;
                if class as usize >= n_shapes {
                    return Err(CodecError::BadValue("tuple class"));
                }
                classes.push(class);
            }
            tuple_class.push(classes);
        }
    }
    r.finish()?;
    // Parent pointers must land inside the parent relation's tuple block.
    for i in 1..n_rel {
        let rel = relations.get(i).ok_or(CodecError::BadValue("relation"))?;
        let parent = rel.parent.ok_or(CodecError::BadValue("parent relation"))?;
        let parent_tuples = relations
            .get(parent.index())
            .map(|p| p.n_tuples())
            .ok_or(CodecError::BadValue("parent relation"))?;
        if rel.parent_of.iter().any(|&p| p as usize >= parent_tuples) {
            return Err(CodecError::BadValue("parent pointer"));
        }
    }
    Ok(SegmentPartial {
        relations,
        dictionary,
        shapes,
        tuple_class,
        node_count,
    })
}

/// Content fingerprint of a merged forest: every relation's node keys,
/// parent pointers and cells, plus the dictionary — order-sensitive, so two
/// forests fingerprint equal exactly when they encode byte-identically.
/// Cluster workers use it to prove they reconstructed the coordinator's
/// forest before accepting relation passes.
pub fn forest_fingerprint(forest: &Forest) -> u128 {
    let mut d = xfd_hash::WordDigest::new();
    d.update_u64(forest.relations.len() as u64);
    for rel in &forest.relations {
        d.update_u64(rel.node_keys.len() as u64);
        for k in &rel.node_keys {
            d.update_u64(u64::from(k.0));
        }
        for &p in &rel.parent_of {
            d.update_u64(u64::from(p));
        }
        d.update_u64(rel.columns.len() as u64);
        for col in &rel.columns {
            d.update_u64(match col.kind {
                ColumnKind::Simple => 0,
                ColumnKind::Complex => 1,
                ColumnKind::SetValue => 2,
            });
            for cell in &col.cells {
                d.update_u64(cell.unwrap_or(NONE_CELL));
            }
        }
    }
    d.update_u64(forest.dictionary.num_strings() as u64);
    for id in 0..forest.dictionary.num_strings() as u64 {
        d.update_bytes(forest.dictionary.resolve_str(id).as_bytes());
    }
    d.update_u64(forest.dictionary.num_multisets() as u64);
    for id in 0..forest.dictionary.num_multisets() as u64 {
        let elems = forest.dictionary.resolve_multiset(id);
        d.update_u64(elems.len() as u64);
        for &e in elems {
            d.update_u64(e);
        }
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::encode::SetColumnMode;
    use crate::treetuple::encode_tree;
    use xfd_hash::codec::check_garbled;
    use xfd_schema::infer_schema;
    use xfd_xml::{parse, OrderMode};

    /// Graft documents under a synthetic `<collection>` root exactly as
    /// the core driver's `merge_collection` does.
    fn grafted(trees: &[&DataTree]) -> DataTree {
        let mut w = xfd_xml::builder::TreeWriter::new("collection");
        for t in trees {
            w.copy_subtree(t, t.root());
        }
        w.finish()
    }

    fn assert_forest_eq(a: &Forest, b: &Forest) {
        assert_eq!(a.relations.len(), b.relations.len(), "relation count");
        for (ra, rb) in a.relations.iter().zip(&b.relations) {
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.name, rb.name, "relation name");
            assert_eq!(ra.pivot_path, rb.pivot_path);
            assert_eq!(ra.parent, rb.parent);
            assert_eq!(ra.node_keys, rb.node_keys, "node keys of {}", ra.name);
            assert_eq!(ra.parent_of, rb.parent_of, "parents of {}", ra.name);
            assert_eq!(ra.columns.len(), rb.columns.len(), "columns of {}", ra.name);
            for (ca, cb) in ra.columns.iter().zip(&rb.columns) {
                assert_eq!(ca.name, cb.name);
                assert_eq!(ca.rel_path, cb.rel_path);
                assert_eq!(ca.kind, cb.kind);
                assert_eq!(ca.cells, cb.cells, "cells of {}.{}", ra.name, ca.name);
            }
        }
        assert_eq!(a.dictionary.num_strings(), b.dictionary.num_strings());
        for id in 0..a.dictionary.num_strings() as u64 {
            assert_eq!(a.dictionary.resolve_str(id), b.dictionary.resolve_str(id));
        }
        assert_eq!(a.dictionary.num_multisets(), b.dictionary.num_multisets());
        for id in 0..a.dictionary.num_multisets() as u64 {
            assert_eq!(
                a.dictionary.resolve_multiset(id),
                b.dictionary.resolve_multiset(id)
            );
        }
    }

    fn check_parity(docs: &[&str], config: &EncodeConfig) {
        let trees: Vec<DataTree> = docs.iter().map(|d| parse(d).unwrap()).collect();
        let refs: Vec<&DataTree> = trees.iter().collect();
        let merged = grafted(&refs);
        let schema = infer_schema(&merged);
        let serial = encode(&merged, &schema, config);
        for threads in [1, 4] {
            let sharded = encode_collection(&refs, &schema, config, threads);
            assert_forest_eq(&sharded, &serial);
        }
    }

    const STORES: &[&str] = &[
        "<store><contact><name>Borders</name><address>Seattle</address></contact>\
         <book><ISBN>1-0676-7</ISBN><author>Post</author><title>Dreams</title><price>19.99</price></book>\
         <book><ISBN>1-55860-438-3</ISBN><author>Ramakrishnan</author><author>Gehrke</author><title>DBMS</title><price>59.99</price></book>\
         </store>",
        "<store><contact><name>Borders</name><address>Lexington</address></contact>\
         <book><ISBN>1-55860-438-3</ISBN><author>Ramakrishnan</author><author>Gehrke</author><title>DBMS</title><price>59.99</price></book>\
         </store>",
        "<store><contact><name>WHSmith</name><address>Lexington</address></contact>\
         <book><ISBN>1-55860-438-3</ISBN><author>Gehrke</author><author>Ramakrishnan</author><title>DBMS</title></book>\
         </store>",
    ];

    #[test]
    fn parity_default_config() {
        check_parity(STORES, &EncodeConfig::default());
    }

    #[test]
    fn parity_ordered_mode() {
        check_parity(
            STORES,
            &EncodeConfig {
                order: OrderMode::Ordered,
                ..Default::default()
            },
        );
    }

    #[test]
    fn parity_no_classes_needed() {
        check_parity(
            STORES,
            &EncodeConfig {
                set_columns: SetColumnMode::None,
                ..Default::default()
            },
        );
    }

    #[test]
    fn parity_mixed_root_labels_non_set_roots_land_on_root_relation() {
        // `r` and `s` each appear once: both document roots are non-set
        // complex children of the collection root, exercising the root
        // tuple overlay for Complex (node-key) and nested Simple columns.
        check_parity(
            &["<r><a>1</a><c><d>x</d></c></r>", "<s><b>2</b><b>3</b></s>"],
            &EncodeConfig::default(),
        );
    }

    #[test]
    fn parity_identical_segments_share_classes() {
        let doc = "<store><book><ISBN>X</ISBN><author>A</author><author>B</author></book></store>";
        check_parity(&[doc, doc, doc], &EncodeConfig::default());
    }

    #[test]
    fn parity_single_segment() {
        check_parity(&[STORES[0]], &EncodeConfig::default());
    }

    #[test]
    fn parity_empty_collection() {
        check_parity(&[], &EncodeConfig::default());
    }

    #[test]
    fn partials_merge_identically_regardless_of_build_order() {
        // Partials are position-independent: building them separately and
        // merging in a different arrangement matches serial encoding of
        // the rearranged collection.
        let trees: Vec<DataTree> = STORES.iter().map(|d| parse(d).unwrap()).collect();
        let refs: Vec<&DataTree> = trees.iter().collect();
        let schema = infer_schema(&grafted(&refs));
        let map = SchemaMap::new(&schema);
        let config = EncodeConfig::default();
        let parts: Vec<SegmentPartial> = refs
            .iter()
            .map(|t| build_partial(t, &map, &config))
            .collect();

        let rearranged: Vec<&DataTree> = vec![&trees[2], &trees[0], &trees[1]];
        let serial = encode(&grafted(&rearranged), &schema, &config);
        let picked: Vec<&SegmentPartial> = vec![&parts[2], &parts[0], &parts[1]];
        let sharded = merge_partials(SchemaMap::new(&schema), &config, &picked);
        assert_forest_eq(&sharded, &serial);
    }

    /// Walk one `ForestMerge` through adds, removals and reorders; after
    /// every step its forest must equal the serial encoding of the grafted
    /// tree under the same (superset) schema.
    fn check_incremental(config: &EncodeConfig) {
        let docs = [
            STORES[0],
            STORES[1],
            STORES[2],
            "<store><book><ISBN>X</ISBN><author>A</author></book></store>",
        ];
        let trees: Vec<DataTree> = docs.iter().map(|d| parse(d).unwrap()).collect();
        let all: Vec<&DataTree> = trees.iter().collect();
        let schema = infer_schema(&grafted(&all));
        let map = SchemaMap::new(&schema);
        let parts: Vec<SegmentPartial> =
            all.iter().map(|t| build_partial(t, &map, config)).collect();
        let mut merge = ForestMerge::new(SchemaMap::new(&schema), config);
        let steps: &[&[usize]] = &[
            &[0, 1],
            &[0, 1, 2],
            &[0, 1, 2, 3],
            &[1, 2, 3],
            &[1, 3],
            &[1, 3, 3, 0],
            &[1, 3, 3, 0],
            &[],
            &[2],
        ];
        let mut previous: &[usize] = &[];
        for &step in steps {
            let keyed: Vec<(u128, &SegmentPartial)> =
                step.iter().map(|&i| (i as u128, &parts[i])).collect();
            let merged = merge.update(&keyed);
            let kept = previous
                .iter()
                .zip(step)
                .take_while(|(a, b)| a == b)
                .count();
            assert_eq!(merged, step.len() - kept, "only the suffix merges");
            let picked: Vec<&DataTree> = step.iter().map(|&i| &trees[i]).collect();
            let serial = encode(&grafted(&picked), &schema, config);
            assert_forest_eq(merge.forest(), &serial);
            assert_eq!(
                forest_fingerprint(merge.forest()),
                forest_fingerprint(&serial)
            );
            previous = step;
        }
    }

    #[test]
    fn incremental_merge_matches_serial_default_config() {
        check_incremental(&EncodeConfig::default());
    }

    #[test]
    fn incremental_merge_matches_serial_ordered_mode() {
        check_incremental(&EncodeConfig {
            order: OrderMode::Ordered,
            ..Default::default()
        });
    }

    #[test]
    fn incremental_merge_matches_serial_without_set_columns() {
        check_incremental(&EncodeConfig {
            set_columns: SetColumnMode::None,
            ..Default::default()
        });
    }

    #[test]
    fn a_shared_forest_is_copied_not_mutated() {
        let trees: Vec<DataTree> = STORES.iter().map(|d| parse(d).unwrap()).collect();
        let refs: Vec<&DataTree> = trees.iter().collect();
        let schema = infer_schema(&grafted(&refs));
        let map = SchemaMap::new(&schema);
        let config = EncodeConfig::default();
        let parts: Vec<SegmentPartial> = refs
            .iter()
            .map(|t| build_partial(t, &map, &config))
            .collect();
        let mut merge = ForestMerge::new(SchemaMap::new(&schema), &config);
        let keyed: Vec<(u128, &SegmentPartial)> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u128, p))
            .collect();
        merge.update(&keyed);
        let held = Arc::clone(merge.forest());
        let before = forest_fingerprint(&held);
        merge.update(&keyed[..1]);
        assert_eq!(
            forest_fingerprint(&held),
            before,
            "a reader's forest never changes"
        );
        assert_ne!(forest_fingerprint(merge.forest()), before);
    }

    fn partial_codec_roundtrip(config: &EncodeConfig) {
        let trees: Vec<DataTree> = STORES.iter().map(|d| parse(d).unwrap()).collect();
        let refs: Vec<&DataTree> = trees.iter().collect();
        let schema = infer_schema(&grafted(&refs));
        let map = SchemaMap::new(&schema);
        let parts: Vec<SegmentPartial> = refs
            .iter()
            .map(|t| build_partial(t, &map, config))
            .collect();
        let decoded: Vec<SegmentPartial> = parts
            .iter()
            .map(|p| {
                let bytes = encode_partial(p);
                let decode = |b: &[u8]| decode_partial(b, &map, config);
                assert_eq!(check_garbled(&bytes, decode), Ok(()));
                decode(&bytes).expect("round-trip")
            })
            .collect();
        let direct: Vec<&SegmentPartial> = parts.iter().collect();
        let wired: Vec<&SegmentPartial> = decoded.iter().collect();
        let a = merge_partials(SchemaMap::new(&schema), config, &direct);
        let b = merge_partials(SchemaMap::new(&schema), config, &wired);
        assert_forest_eq(&a, &b);
        assert_eq!(forest_fingerprint(&a), forest_fingerprint(&b));
    }

    #[test]
    fn partial_codec_roundtrips_default_config() {
        partial_codec_roundtrip(&EncodeConfig::default());
    }

    #[test]
    fn partial_codec_roundtrips_without_classes() {
        partial_codec_roundtrip(&EncodeConfig {
            set_columns: SetColumnMode::None,
            ..Default::default()
        });
    }

    #[test]
    fn tree_and_partial_encodings_are_pinned() {
        // Corpus segments and cluster pushes carry these bytes; the
        // `XTT1`/`XSP2` magics pin their layouts.
        let tree = xfd_datagen::warehouse_figure1();
        let schema = infer_schema(&grafted(&[&tree]));
        let map = SchemaMap::new(&schema);
        let mut blocks = vec![encode_tree(&tree)];
        for config in [
            EncodeConfig::default(),
            EncodeConfig {
                set_columns: SetColumnMode::None,
                ..Default::default()
            },
            EncodeConfig {
                order: OrderMode::Ordered,
                ..Default::default()
            },
        ] {
            blocks.push(encode_partial(&build_partial(&tree, &map, &config)));
        }
        let digests: Vec<String> = blocks
            .iter()
            .map(|b| xfd_hash::format_digest(xfd_hash::digest_bytes(b)))
            .collect();
        assert_eq!(
            digests,
            [
                "ef24e7a70aba00668725fc38c72e6b99",
                "bc925497cef8962e4c0c41cd4a0eb423",
                "ea5c9fe7943f75d1037d20e109f7809e",
                "3fdfabb00cf5ccceeb16729b6daead23",
            ]
        );
    }

    #[test]
    fn partial_decode_rejects_corruption() {
        let tree = parse(STORES[0]).unwrap();
        let refs = [&tree];
        let schema = infer_schema(&grafted(&refs));
        let map = SchemaMap::new(&schema);
        let config = EncodeConfig::default();
        let bytes = encode_partial(&build_partial(&tree, &map, &config));
        assert_eq!(
            decode_partial(b"nope", &map, &config).err(),
            Some(CodecError::BadMagic)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_partial(&trailing, &map, &config).err(),
            Some(CodecError::TrailingBytes)
        );
        // A mismatched plan (different class-table expectations) is typed.
        let no_classes = EncodeConfig {
            set_columns: SetColumnMode::None,
            ..Default::default()
        };
        assert!(decode_partial(&bytes, &map, &no_classes).is_err());
    }

    #[test]
    fn forest_fingerprint_tracks_content() {
        let trees: Vec<DataTree> = STORES.iter().map(|d| parse(d).unwrap()).collect();
        let refs: Vec<&DataTree> = trees.iter().collect();
        let schema = infer_schema(&grafted(&refs));
        let config = EncodeConfig::default();
        let a = encode_collection(&refs, &schema, &config, 1);
        let b = encode_collection(&refs, &schema, &config, 4);
        assert_eq!(forest_fingerprint(&a), forest_fingerprint(&b));
        let fewer: Vec<&DataTree> = trees.iter().take(2).collect();
        let schema2 = infer_schema(&grafted(&fewer));
        let c = encode_collection(&fewer, &schema2, &config, 1);
        assert_ne!(forest_fingerprint(&a), forest_fingerprint(&c));
    }
}
