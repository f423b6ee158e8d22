//! XML data redundancy (Definition 11): a satisfied *interesting* XML FD
//! `(C_p, LHS, RHS)` such that `(C_p, LHS)` is **not** an XML Key. Every
//! LHS group with two or more tuples then stores its RHS value redundantly.
//!
//! Rather than cross-referencing the discovered key list (which is bounded
//! by the same search budget as the FDs), the analyzer builds each FD's
//! LHS partition `Π_LHS` with the partition kernels (`lhs_partition`).
//! Both of Definition 11's numbers are read off it: the redundancy's
//! `groups` is the stripped group count and `redundant_values` is the
//! error `e(Π_LHS) = Σ(|g| − 1)`. Each distinct LHS is built once per
//! report, however many FDs share it.

use xfd_partition::{AttrSet, GroupMap, Partition, ProductScratch};
use xfd_relation::{ColumnKind, Forest, RelId};

use crate::fd::Xfd;
use crate::interesting::{fd_is_interesting, PathTable};
use crate::lattice::IntraFd;
use crate::xfd::{ForestDiscovery, RawInterFd};

/// One redundancy finding.
#[derive(Debug, Clone)]
pub struct Redundancy {
    /// The satisfied interesting FD whose LHS fails to be a key.
    pub fd: Xfd,
    /// Number of LHS groups with ≥ 2 tuples.
    pub groups: usize,
    /// Σ (|group| − 1): how many tuples store an RHS value that is already
    /// determined by another tuple.
    pub redundant_values: usize,
    /// Up to three example RHS values that are stored redundantly
    /// (rendered; set-valued cells show their cardinality).
    pub examples: Vec<String>,
}

/// Map each tuple of `origin` to its ancestor tuple in `target` (which must
/// be `origin` itself or one of its ancestors in the relation tree).
fn ancestor_map(forest: &Forest, origin: RelId, target: RelId) -> Vec<u32> {
    let n = forest.relation(origin).n_tuples();
    let mut map: Vec<u32> = (0..n as u32).collect();
    let mut cur = origin;
    while cur != target {
        let rel = forest.relation(cur);
        let parent = rel.parent.expect("target must be an ancestor of origin");
        for m in &mut map {
            *m = rel.parent_of[*m as usize];
        }
        cur = parent;
    }
    map
}

/// Lift a partition of ancestor relation `anc` to the tuples of `origin`.
///
/// Two origin tuples agree when their ancestor tuples share a group of
/// `p`, or when they are the same ancestor tuple: node identity (DESIGN.md,
/// "node-identity semantics for ancestor attributes"). An ancestor tuple
/// outside every group — its value is ⊥, or no other ancestor tuple has
/// it — stands for itself. Ids come from `p`'s own groups, so no range of
/// cell values is assumed.
fn lift(
    forest: &Forest,
    origin: RelId,
    anc: RelId,
    p: &Partition,
    scratch: &mut ProductScratch,
) -> Partition {
    let groups = GroupMap::new(p);
    let own_ids = groups.n_groups() as u64;
    let ids: Vec<Option<u64>> = ancestor_map(forest, origin, anc)
        .into_iter()
        .map(|u| Some(groups.group_of(u).map_or(own_ids + u64::from(u), u64::from)))
        .collect();
    Partition::from_column_in(&ids, scratch)
}

/// `Π_LHS`: the stripped partition of `origin`'s tuples by their joined
/// values on `levels` (origin-level and ancestor-level attributes), in
/// canonical order — groups by first member, members ascending.
///
/// An origin-level ⊥ agrees with nothing, so its tuple is a singleton; an
/// ancestor-level attribute agrees under node identity (see `lift`). Each
/// level's attributes are multiplied at their own relation and lifted
/// once. An empty LHS gives `Π_∅`, one group of every tuple.
pub(crate) fn lhs_partition(
    forest: &Forest,
    origin: RelId,
    levels: &[(RelId, AttrSet)],
    scratch: &mut ProductScratch,
) -> Partition {
    let mut acc: Option<Partition> = None;
    for &(lrel, attrs) in levels {
        let rel = forest.relation(lrel);
        let mut level: Option<Partition> = None;
        for a in attrs.iter() {
            let p = Partition::from_column_in(&rel.columns[a].cells, scratch);
            level = Some(match level {
                Some(l) => l.product_in(&p, scratch),
                None => p,
            });
        }
        let Some(level) = level else { continue };
        let level = if lrel == origin {
            level
        } else {
            lift(forest, origin, lrel, &level, scratch)
        };
        let joined = match acc {
            Some(acc) => acc.product_in(&level, scratch),
            None => level,
        };
        if joined.is_key() {
            return joined; // no product can regroup a key's tuples
        }
        acc = Some(joined);
    }
    acc.unwrap_or_else(|| Partition::universal(forest.relation(origin).n_tuples()))
}

/// Up to three rendered RHS example values, from the first groups of
/// `Π_LHS` (canonical order) whose RHS is not ⊥.
fn rhs_examples(forest: &Forest, origin: RelId, rhs: usize, lhs: &Partition) -> Vec<String> {
    let col = &forest.relation(origin).columns[rhs];
    let mut out = Vec::new();
    for g in lhs.groups() {
        if let Some(v) = col.cells[g[0] as usize] {
            let rendered = match col.kind {
                ColumnKind::Simple => {
                    format!("{:?}", forest.dictionary.resolve_str(v))
                }
                ColumnKind::Complex => format!("#{v}"),
                ColumnKind::SetValue => {
                    format!(
                        "a set of {} values",
                        forest.dictionary.resolve_multiset(v).len()
                    )
                }
            };
            let entry = format!("{rendered} ×{}", g.len());
            if !out.contains(&entry) {
                out.push(entry);
            }
            if out.len() == 3 {
                break;
            }
        }
    }
    out
}

/// An interesting FD awaiting its LHS partition.
enum Candidate<'a> {
    Intra(RelId, &'a IntraFd),
    Inter(&'a RawInterFd),
}

/// Find every redundancy indicated by the discovered interesting FDs, in
/// FD order: intra-relation FDs relation by relation, then inter-relation
/// FDs.
pub fn analyze(forest: &Forest, disc: &ForestDiscovery) -> Vec<Redundancy> {
    let mut candidates = Vec::new();
    for rd in &disc.relations {
        if forest.relation(rd.rel).parent.is_none() {
            continue;
        }
        for fd in &rd.fds {
            if fd_is_interesting(forest, rd.rel, fd.rhs) {
                candidates.push(Candidate::Intra(rd.rel, fd));
            }
        }
    }
    for fd in &disc.inter_fds {
        if fd_is_interesting(forest, fd.origin, fd.rhs) {
            candidates.push(Candidate::Inter(fd));
        }
    }

    // The LHS each candidate groups by, as (origin, non-empty levels).
    let lhs: Vec<(RelId, Vec<(RelId, AttrSet)>)> = candidates
        .iter()
        .map(|c| {
            let (origin, levels) = match c {
                Candidate::Intra(rel, fd) => (*rel, vec![(*rel, fd.lhs)]),
                Candidate::Inter(fd) => (fd.origin, fd.lhs_levels.clone()),
            };
            let mut levels: Vec<_> = levels.into_iter().filter(|(_, a)| !a.is_empty()).collect();
            levels.sort_unstable();
            (origin, levels)
        })
        .collect();
    // Visit candidates LHS by LHS, so each distinct `Π_LHS` is built once
    // and dropped before the next; results land back in FD order.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| lhs[a].cmp(&lhs[b]));

    let mut scratch = ProductScratch::new();
    let mut paths = PathTable::new(forest);
    let mut found: Vec<Option<Redundancy>> = Vec::new();
    found.resize_with(candidates.len(), || None);
    let mut rest = &order[..];
    while let Some(&first) = rest.first() {
        let (origin, levels) = &lhs[first];
        let (run, tail) = rest.split_at(rest.iter().take_while(|&&i| lhs[i] == lhs[first]).count());
        rest = tail;
        let partition = lhs_partition(forest, *origin, levels, &mut scratch);
        if partition.n_groups() == 0 {
            continue;
        }
        for &i in run {
            let (fd, rhs) = match candidates[i] {
                Candidate::Intra(rel, fd) => (paths.intra_fd(rel, fd), fd.rhs),
                Candidate::Inter(fd) => (paths.inter_fd(fd), fd.rhs),
            };
            found[i] = Some(Redundancy {
                fd,
                groups: partition.n_groups(),
                redundant_values: partition.error(),
                examples: rhs_examples(forest, *origin, rhs, &partition),
            });
        }
    }
    found.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoveryConfig;
    use crate::xfd::discover_forest;
    use xfd_relation::{encode, EncodeConfig};
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    fn redundancies(xml: &str) -> Vec<Redundancy> {
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        let forest = encode(&t, &schema, &EncodeConfig::default());
        let disc = discover_forest(&forest, &DiscoveryConfig::default());
        analyze(&forest, &disc)
    }

    #[test]
    fn examples_show_the_duplicated_values() {
        let reds = redundancies(
            "<w>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>2</isbn><title>TCP</title></book>\
             </w>",
        );
        let r = reds
            .iter()
            .find(|r| r.fd.to_string() == "{./isbn} -> ./title w.r.t. C_book")
            .unwrap();
        assert_eq!(r.examples, vec!["\"DBMS\" ×2".to_string()]);
    }

    #[test]
    fn duplicate_titles_for_one_isbn_are_redundant() {
        let reds = redundancies(
            "<w>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>2</isbn><title>TCP</title></book>\
             </w>",
        );
        let r = reds
            .iter()
            .find(|r| r.fd.to_string() == "{./isbn} -> ./title w.r.t. C_book")
            .expect("isbn→title redundancy");
        assert_eq!(r.groups, 1);
        assert_eq!(r.redundant_values, 2, "two extra copies of the title");
    }

    #[test]
    fn key_lhs_produces_no_redundancy() {
        let reds = redundancies(
            "<w>\
             <book><isbn>1</isbn><title>A</title></book>\
             <book><isbn>2</isbn><title>A</title></book>\
             </w>",
        );
        assert!(
            reds.iter()
                .all(|r| !r.fd.to_string().starts_with("{./isbn}")),
            "isbn is a key here, no redundancy: {:?}",
            reds.iter().map(|r| r.fd.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn inter_relation_redundancy_counts_cross_store_duplicates() {
        // Same chain (name), same isbn, same price at two stores: the price
        // is stored redundantly (the paper's Borders example).
        let reds = redundancies(
            "<w>\
             <store><name>Borders</name><book><isbn>1</isbn><price>10</price></book>\
               <book><isbn>2</isbn><price>20</price></book></store>\
             <store><name>Borders</name><book><isbn>1</isbn><price>10</price></book></store>\
             <store><name>WHSmith</name><book><isbn>1</isbn><price>12</price></book></store>\
             </w>",
        );
        let r = reds
            .iter()
            .find(|r| r.fd.to_string() == "{./isbn, ../name} -> ./price w.r.t. C_book")
            .expect("FD2-style redundancy");
        assert_eq!(r.groups, 1);
        assert_eq!(r.redundant_values, 1);
    }

    #[test]
    fn set_element_redundancy_for_fd3() {
        // The author *set* is stored redundantly for a repeated ISBN.
        let reds = redundancies(
            "<w>\
             <book><isbn>1</isbn><a>R</a><a>G</a><title>T</title></book>\
             <book><isbn>1</isbn><a>G</a><a>R</a><title>T</title></book>\
             <book><isbn>2</isbn><a>R</a><title>U</title></book>\
             </w>",
        );
        assert!(
            reds.iter()
                .any(|r| r.fd.to_string() == "{./isbn} -> ./a w.r.t. C_book"),
            "{:?}",
            reds.iter().map(|r| r.fd.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn null_lhs_tuples_do_not_group() {
        let reds = redundancies(
            "<w>\
             <book><title>A</title></book>\
             <book><title>A</title></book>\
             <book><isbn>2</isbn><title>B</title></book>\
             </w>",
        );
        // {./isbn} → ./title: books without isbn have ⊥ LHS — they never
        // agree, so no redundancy via isbn.
        assert!(reds
            .iter()
            .all(|r| !r.fd.to_string().starts_with("{./isbn}")));
    }
}
