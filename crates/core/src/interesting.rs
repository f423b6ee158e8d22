//! Conversion of raw (relation, attribute) results into path-based
//! [`Xfd`]/[`XmlKey`] values, and the *interesting XML FD* filters of
//! Definitions 9–10.
//!
//! By construction of the hierarchical representation most filters are
//! already guaranteed — every non-root relation's pivot path is repeatable
//! (essential tuple class), and all columns except a simple pivot's own `.`
//! column denote proper descendants of the pivot. What remains:
//!
//! * FDs pivoted on the root relation are dropped (not an essential tuple
//!   class; also vacuous, the relation has one tuple);
//! * FDs whose RHS is the pivot itself (`.`) are dropped (Definition 10
//!   requires the RHS to match descendant nodes of the pivot);
//! * trivially, `RHS ∈ LHS` never occurs (the lattice never tests it).

use xfd_hash::FxHashMap;
use xfd_partition::AttrSet;
use xfd_relation::{Forest, RelId};
use xfd_xml::Path;

use crate::fd::{FdScope, Xfd, XmlKey};
use crate::lattice::IntraFd;
use crate::xfd::{ForestDiscovery, RawInterFd, RawInterKey};

/// Per-report table of resolved column paths. Each `(origin, relation,
/// column)` path is resolved once; every FD and key naming the column
/// then shares it (a [`Path`] clone is a reference-count bump).
pub(crate) struct PathTable<'f> {
    forest: &'f Forest,
    columns: FxHashMap<(RelId, RelId, usize), Path>,
}

impl<'f> PathTable<'f> {
    pub(crate) fn new(forest: &'f Forest) -> Self {
        PathTable {
            forest,
            columns: FxHashMap::default(),
        }
    }

    /// Column `col` of `rel`, relative to `origin`'s pivot.
    fn column(&mut self, origin: RelId, rel: RelId, col: usize) -> Path {
        let forest = self.forest;
        self.columns
            .entry((origin, rel, col))
            .or_insert_with(|| {
                let r = forest.relation(rel);
                let abs = r.columns[col]
                    .rel_path
                    .to_absolute(&r.pivot_path)
                    .expect("column rel paths never climb past the root");
                abs.relative_to(&forest.relation(origin).pivot_path)
            })
            .clone()
    }

    /// LHS levels as relative paths (origin-relation attributes first,
    /// then ancestors).
    fn lhs(&mut self, origin: RelId, levels: &[(RelId, AttrSet)]) -> Vec<Path> {
        let mut out = Vec::new();
        for &(rel, attrs) in levels {
            for a in attrs.iter() {
                out.push(self.column(origin, rel, a));
            }
        }
        out
    }

    fn pivot(&self, rel: RelId) -> Path {
        self.forest.relation(rel).pivot_path.clone()
    }

    pub(crate) fn intra_fd(&mut self, rel: RelId, fd: &IntraFd) -> Xfd {
        Xfd {
            tuple_class: self.pivot(rel),
            lhs: self.lhs(rel, &[(rel, fd.lhs)]),
            rhs: self.column(rel, rel, fd.rhs),
            scope: FdScope::IntraRelation,
        }
    }

    fn intra_key(&mut self, rel: RelId, lhs: AttrSet) -> XmlKey {
        XmlKey {
            tuple_class: self.pivot(rel),
            lhs: self.lhs(rel, &[(rel, lhs)]),
            scope: FdScope::IntraRelation,
        }
    }

    pub(crate) fn inter_fd(&mut self, fd: &RawInterFd) -> Xfd {
        Xfd {
            tuple_class: self.pivot(fd.origin),
            lhs: self.lhs(fd.origin, &fd.lhs_levels),
            rhs: self.column(fd.origin, fd.origin, fd.rhs),
            scope: FdScope::InterRelation,
        }
    }

    fn inter_key(&mut self, key: &RawInterKey) -> XmlKey {
        XmlKey {
            tuple_class: self.pivot(key.origin),
            lhs: self.lhs(key.origin, &key.lhs_levels),
            scope: FdScope::InterRelation,
        }
    }
}

/// Convert an intra-relation FD of `rel` into an [`Xfd`].
pub fn intra_fd_to_xfd(forest: &Forest, rel: RelId, fd: &IntraFd) -> Xfd {
    PathTable::new(forest).intra_fd(rel, fd)
}

/// Convert an intra-relation key of `rel` into an [`XmlKey`].
pub fn intra_key_to_key(forest: &Forest, rel: RelId, lhs: AttrSet) -> XmlKey {
    PathTable::new(forest).intra_key(rel, lhs)
}

/// Convert a raw inter-relation FD into an [`Xfd`].
pub fn inter_fd_to_xfd(forest: &Forest, fd: &RawInterFd) -> Xfd {
    PathTable::new(forest).inter_fd(fd)
}

/// Convert a raw inter-relation key into an [`XmlKey`].
pub fn inter_key_to_key(forest: &Forest, key: &RawInterKey) -> XmlKey {
    PathTable::new(forest).inter_key(key)
}

/// Is this FD *interesting* per Definition 10 (given that it comes from
/// our representation, only the root-pivot and RHS-is-pivot checks bite)?
pub fn fd_is_interesting(forest: &Forest, origin: RelId, rhs_col: usize) -> bool {
    let rel = forest.relation(origin);
    if rel.parent.is_none() {
        return false; // root tuple class is not essential
    }
    !rel.columns[rhs_col].rel_path.is_empty() // RHS must not be the pivot `.`
}

/// Split all discovered FDs/keys into interesting and uninteresting,
/// converted to path form.
pub struct Classified {
    /// Interesting FDs (Definition 10).
    pub fds: Vec<Xfd>,
    /// Keys of essential tuple classes.
    pub keys: Vec<XmlKey>,
    /// FDs filtered out by Definition 10 (kept only on request).
    pub uninteresting_fds: Vec<Xfd>,
    /// Keys of non-essential classes (root) or with pivot `.` anomalies.
    pub uninteresting_keys: Vec<XmlKey>,
}

/// Classify a [`ForestDiscovery`].
pub fn classify(forest: &Forest, disc: &ForestDiscovery, keep_uninteresting: bool) -> Classified {
    let mut out = Classified {
        fds: Vec::new(),
        keys: Vec::new(),
        uninteresting_fds: Vec::new(),
        uninteresting_keys: Vec::new(),
    };
    let mut paths = PathTable::new(forest);
    for rd in &disc.relations {
        let essential = forest.relation(rd.rel).parent.is_some();
        for fd in &rd.fds {
            if essential && fd_is_interesting(forest, rd.rel, fd.rhs) {
                out.fds.push(paths.intra_fd(rd.rel, fd));
            } else if keep_uninteresting {
                out.uninteresting_fds.push(paths.intra_fd(rd.rel, fd));
            }
        }
        for &k in &rd.keys {
            if essential {
                out.keys.push(paths.intra_key(rd.rel, k));
            } else if keep_uninteresting {
                out.uninteresting_keys.push(paths.intra_key(rd.rel, k));
            }
        }
    }
    for fd in &disc.inter_fds {
        if fd_is_interesting(forest, fd.origin, fd.rhs) {
            out.fds.push(paths.inter_fd(fd));
        } else if keep_uninteresting {
            out.uninteresting_fds.push(paths.inter_fd(fd));
        }
    }
    for key in &disc.inter_keys {
        out.keys.push(paths.inter_key(key));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoveryConfig;
    use crate::xfd::discover_forest;
    use xfd_relation::{encode, EncodeConfig};
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    fn classified(xml: &str) -> (Forest, Classified) {
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        let forest = encode(&t, &schema, &EncodeConfig::default());
        let disc = discover_forest(&forest, &DiscoveryConfig::default());
        let c = classify(&forest, &disc, true);
        (forest, c)
    }

    #[test]
    fn paths_render_relative_to_the_tuple_class() {
        let (_, c) = classified(
            "<w>\
             <store><name>Borders</name><book><isbn>1</isbn><price>10</price></book>\
               <book><isbn>2</isbn><price>20</price></book></store>\
             <store><name>Borders</name><book><isbn>1</isbn><price>10</price></book></store>\
             <store><name>WHSmith</name><book><isbn>1</isbn><price>12</price></book></store>\
             </w>",
        );
        let rendered: Vec<String> = c.fds.iter().map(Xfd::to_string).collect();
        assert!(
            rendered
                .iter()
                .any(|s| s == "{./isbn, ../name} -> ./price w.r.t. C_book"),
            "got: {rendered:#?}"
        );
    }

    #[test]
    fn root_class_results_are_uninteresting() {
        let (_, c) = classified("<w><v>1</v><b><x>1</x></b><b><x>1</x></b></w>");
        // Root-level FDs/keys never appear among interesting results.
        assert!(c.fds.iter().all(|fd| fd.tuple_class.to_string() != "/w"));
        assert!(c.keys.iter().all(|k| k.tuple_class.to_string() != "/w"));
        // But the root's trivial key is retained as uninteresting.
        assert!(c
            .uninteresting_keys
            .iter()
            .any(|k| k.tuple_class.to_string() == "/w"));
    }

    #[test]
    fn set_fd_renders_with_the_set_path() {
        let (_, c) = classified(
            "<w>\
             <book><isbn>1</isbn><a>R</a><a>G</a></book>\
             <book><isbn>1</isbn><a>G</a><a>R</a></book>\
             <book><isbn>2</isbn><a>R</a></book>\
             </w>",
        );
        let rendered: Vec<String> = c.fds.iter().map(Xfd::to_string).collect();
        assert!(
            rendered
                .iter()
                .any(|s| s == "{./isbn} -> ./a w.r.t. C_book"),
            "got: {rendered:#?}"
        );
    }

    #[test]
    fn nested_set_columns_render_with_full_relative_path() {
        // A set element under a complex element: the set column's path
        // keeps the intermediate step (./c/ph).
        let (_, c) = classified(
            "<r><s><c><ph>1</ph><ph>2</ph></c><id>a</id></s>\
               <s><c><ph>2</ph><ph>1</ph></c><id>a</id></s>\
               <s><c><ph>3</ph></c><id>b</id></s></r>",
        );
        let rendered: Vec<String> = c.fds.iter().map(Xfd::to_string).collect();
        assert!(
            rendered.iter().any(|s| s == "{./id} -> ./c/ph w.r.t. C_s"),
            "got: {rendered:#?}"
        );
    }

    #[test]
    fn inter_keys_render_with_ancestor_paths() {
        let (_, c) = classified(
            "<w>\
             <store><name>X</name>\
               <book><i>1</i><p>10</p></book><book><i>2</i><p>20</p></book></store>\
             <store><name>Y</name><book><i>1</i><p>10</p></book></store>\
             <store><name>Z</name><book><i>1</i><p>12</p></book></store>\
             </w>",
        );
        let keys: Vec<String> = c.keys.iter().map(XmlKey::to_string).collect();
        assert!(
            keys.iter().any(|k| k == "Key(C_book: {./i, ../name})"),
            "got: {keys:#?}"
        );
    }

    #[test]
    fn fd_scope_is_tracked() {
        let (_, c) = classified(
            "<w>\
             <store><name>Borders</name><book><isbn>1</isbn><price>10</price></book>\
               <book><isbn>2</isbn><price>20</price></book></store>\
             <store><name>Borders</name><book><isbn>1</isbn><price>10</price></book></store>\
             <store><name>WHSmith</name><book><isbn>1</isbn><price>12</price></book></store>\
             </w>",
        );
        assert!(c
            .fds
            .iter()
            .any(|f| f.scope == crate::fd::FdScope::InterRelation));
        assert!(c
            .fds
            .iter()
            .any(|f| f.scope == crate::fd::FdScope::IntraRelation));
    }

    #[test]
    fn keys_render_for_essential_classes() {
        let (_, c) = classified("<w><book><isbn>1</isbn></book><book><isbn>2</isbn></book></w>");
        let rendered: Vec<String> = c.keys.iter().map(XmlKey::to_string).collect();
        assert!(
            rendered.iter().any(|s| s == "Key(C_book: {./isbn})"),
            "got: {rendered:#?}"
        );
    }
}
