//! Definition-level oracle for validating `DiscoverXFD` on small inputs.
//!
//! Enumerates, for every essential tuple class, all LHS subsets drawn from
//! the class's own columns *and* every ancestor relation's columns (up to a
//! size bound), checks Definition 7 satisfaction directly on joined tuple
//! values, and reports minimal FDs (excluding superkey LHSs, which the
//! lattice reports as keys) and minimal keys.
//!
//! Exponential — intended for tests and small documents only. It shares
//! no grouping code with the product: satisfaction and keys are decided
//! pairwise with `agree`, and [`lhs_group_members`] groups tuples with
//! one hash-map key per tuple, for tests to compare against the product's
//! partition-kernel grouping.

use std::collections::HashMap;

use xfd_partition::AttrSet;
use xfd_relation::{Forest, RelId};

use crate::interesting::{inter_fd_to_xfd, inter_key_to_key};
use crate::xfd::{RawInterFd, RawInterKey};

/// Oracle output, in the same raw form the discovery produces.
#[derive(Debug, Default)]
pub struct BruteResult {
    /// Minimal satisfied FDs per tuple class (superkey LHSs excluded).
    pub fds: Vec<RawInterFd>,
    /// Minimal keys per tuple class.
    pub keys: Vec<RawInterKey>,
}

impl BruteResult {
    /// Render FDs as display strings (sorted) for comparison.
    pub fn fd_strings(&self, forest: &Forest) -> Vec<String> {
        let mut v: Vec<String> = self
            .fds
            .iter()
            .map(|fd| inter_fd_to_xfd(forest, fd).to_string())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Render keys as display strings (sorted) for comparison.
    pub fn key_strings(&self, forest: &Forest) -> Vec<String> {
        let mut v: Vec<String> = self
            .keys
            .iter()
            .map(|k| inter_key_to_key(forest, k).to_string())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// One candidate attribute: `(relation, column)` with the relation being
/// the origin or one of its ancestors.
type Attr = (RelId, usize);

fn candidate_attrs(forest: &Forest, origin: RelId) -> Vec<Attr> {
    let mut out = Vec::new();
    let mut cur = origin;
    let mut prev: Option<RelId> = None;
    loop {
        let rel = forest.relation(cur);
        for c in 0..rel.n_columns() {
            // Self-reference guard (mirrors the discovery): skip the
            // set-valued column aggregating the chain child we came from.
            if prev.is_some_and(|p| rel.columns[c].elem == forest.relation(p).pivot) {
                continue;
            }
            out.push((cur, c));
        }
        prev = Some(cur);
        match rel.parent {
            Some(p) => cur = p,
            None => break,
        }
    }
    out
}

/// Ancestor tuple of origin tuple `t` at relation `arel`, plus that
/// ancestor's cell for column `col`.
fn joined(forest: &Forest, origin: RelId, attr: Attr, t: usize) -> (u32, Option<u64>) {
    let (arel, col) = attr;
    let mut cur = origin;
    let mut tt = t as u32;
    while cur != arel {
        let rel = forest.relation(cur);
        tt = rel.parent_of[tt as usize];
        cur = rel.parent.expect("attr relation is an ancestor");
    }
    (tt, forest.relation(arel).columns[col].cells[tt as usize])
}

/// Do tuples `t1`, `t2` agree on `attr` under the algorithm's semantics?
/// Non-null values compare by value; ⊥ agrees only with the *same node*
/// (same ancestor tuple) — node-identity semantics, see DESIGN.md.
fn agree(forest: &Forest, origin: RelId, attr: Attr, t1: usize, t2: usize) -> bool {
    let (a1, v1) = joined(forest, origin, attr, t1);
    let (a2, v2) = joined(forest, origin, attr, t2);
    match (v1, v2) {
        (Some(x), Some(y)) => x == y,
        _ => a1 == a2,
    }
}

fn holds(forest: &Forest, origin: RelId, lhs: &[Attr], rhs: usize) -> bool {
    let n = forest.relation(origin).n_tuples();
    let rhs_cells = &forest.relation(origin).columns[rhs].cells;
    for t1 in 0..n {
        for t2 in t1 + 1..n {
            let lhs_agree = lhs.iter().all(|&a| agree(forest, origin, a, t1, t2));
            if lhs_agree && (rhs_cells[t1].is_none() || rhs_cells[t1] != rhs_cells[t2]) {
                return false;
            }
        }
    }
    true
}

fn is_key(forest: &Forest, origin: RelId, lhs: &[Attr]) -> bool {
    let n = forest.relation(origin).n_tuples();
    (0..n).all(|t1| (t1 + 1..n).all(|t2| !lhs.iter().all(|&a| agree(forest, origin, a, t1, t2))))
}

/// The oracle's LHS grouping: the tuples of `origin` grouped by their
/// joined values on `levels`, singletons included, groups ordered by first
/// member and members ascending. Agreement is `agree`'s: a ⊥ cell keys
/// on the ancestor tuple that carries it, so tuples sharing that node
/// group together, and an origin-level ⊥ groups with nothing.
pub fn lhs_group_members(
    forest: &Forest,
    origin: RelId,
    levels: &[(RelId, AttrSet)],
) -> Vec<Vec<u32>> {
    let n = forest.relation(origin).n_tuples();
    let mut groups: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
    for t in 0..n {
        let mut key = Vec::new();
        for &(rel, attrs) in levels {
            for a in attrs.iter() {
                match joined(forest, origin, (rel, a), t) {
                    (_, Some(v)) => key.extend([0, v]),
                    (anc, None) => key.extend([1, u64::from(anc)]),
                }
            }
        }
        groups.entry(key).or_default().push(t as u32);
    }
    let mut out: Vec<Vec<u32>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// Convert a flat attr list into per-relation levels ordered origin-first.
fn to_levels(origin: RelId, attrs: &[Attr], forest: &Forest) -> Vec<(RelId, AttrSet)> {
    let mut chain = Vec::new();
    let mut cur = Some(origin);
    while let Some(r) = cur {
        chain.push(r);
        cur = forest.relation(r).parent;
    }
    let mut out = Vec::new();
    for r in chain {
        let set = AttrSet::from_iter(attrs.iter().filter(|(ar, _)| *ar == r).map(|&(_, c)| c));
        if !set.is_empty() {
            out.push((r, set));
        }
    }
    out
}

/// Enumerate all subsets of `attrs` with size ≤ `max` (small inputs only).
fn subsets(attrs: &[Attr], max: usize) -> Vec<Vec<Attr>> {
    let mut out = vec![Vec::new()];
    for &a in attrs {
        let mut next = Vec::with_capacity(out.len() * 2);
        for s in &out {
            next.push(s.clone());
            if s.len() < max {
                let mut bigger = s.clone();
                bigger.push(a);
                next.push(bigger);
            }
        }
        out = next;
    }
    out
}

/// Run the oracle over every essential tuple class of the forest, with
/// LHSs of at most `max_lhs` attributes in total (across levels), `∅`
/// included.
pub fn brute_force(forest: &Forest, max_lhs: usize) -> BruteResult {
    let mut result = BruteResult::default();
    for rel in &forest.relations {
        if rel.parent.is_none() || rel.n_tuples() == 0 {
            continue;
        }
        let attrs = candidate_attrs(forest, rel.id);
        let all_subsets = subsets(&attrs, max_lhs);

        // Minimal keys.
        let keys: Vec<Vec<Attr>> = all_subsets
            .iter()
            .filter(|s| is_key(forest, rel.id, s))
            .cloned()
            .collect();
        let minimal_keys: Vec<&Vec<Attr>> = keys
            .iter()
            .filter(|k| !keys.iter().any(|k2| k2.len() < k.len() && subset_of(k2, k)))
            .collect();
        for k in &minimal_keys {
            result.keys.push(RawInterKey {
                origin: rel.id,
                lhs_levels: to_levels(rel.id, k, forest),
            });
        }

        // Minimal FDs with non-superkey LHS.
        for rhs in 0..rel.n_columns() {
            for lhs in &all_subsets {
                if lhs.iter().any(|&(r, c)| r == rel.id && c == rhs) {
                    continue;
                }
                if minimal_keys.iter().any(|k| subset_of(k, lhs)) {
                    continue; // superkey LHS: reported via keys
                }
                if !holds(forest, rel.id, lhs, rhs) {
                    continue;
                }
                let minimal = !(0..lhs.len()).any(|i| {
                    let mut smaller = lhs.clone();
                    smaller.remove(i);
                    holds(forest, rel.id, &smaller, rhs)
                });
                if minimal {
                    result.fds.push(RawInterFd {
                        origin: rel.id,
                        rhs,
                        lhs_levels: to_levels(rel.id, lhs, forest),
                    });
                }
            }
        }
    }
    result
}

fn subset_of(a: &[Attr], b: &[Attr]) -> bool {
    a.iter().all(|x| b.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoveryConfig;
    use crate::interesting::{intra_fd_to_xfd, intra_key_to_key};
    use crate::xfd::discover_forest;
    use xfd_relation::{encode, EncodeConfig};
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    /// Collect the discovery's FDs/keys as sorted display strings,
    /// restricted to essential classes and LHS size ≤ bound (to match the
    /// oracle's enumeration bound).
    fn discovery_strings(
        forest: &Forest,
        config: &DiscoveryConfig,
        max_lhs: usize,
    ) -> (Vec<String>, Vec<String>) {
        let disc = discover_forest(forest, config);
        let mut fds = Vec::new();
        let mut keys = Vec::new();
        for rd in &disc.relations {
            if forest.relation(rd.rel).parent.is_none() {
                continue;
            }
            for fd in &rd.fds {
                if fd.lhs.len() <= max_lhs {
                    fds.push(intra_fd_to_xfd(forest, rd.rel, fd).to_string());
                }
            }
            for &k in &rd.keys {
                if k.len() <= max_lhs {
                    keys.push(intra_key_to_key(forest, rd.rel, k).to_string());
                }
            }
        }
        for fd in &disc.inter_fds {
            let total: usize = fd.lhs_levels.iter().map(|(_, a)| a.len()).sum();
            if total <= max_lhs {
                fds.push(inter_fd_to_xfd(forest, fd).to_string());
            }
        }
        for key in &disc.inter_keys {
            let total: usize = key.lhs_levels.iter().map(|(_, a)| a.len()).sum();
            if total <= max_lhs {
                keys.push(inter_key_to_key(forest, key).to_string());
            }
        }
        fds.sort();
        fds.dedup();
        keys.sort();
        keys.dedup();
        (fds, keys)
    }

    fn check(xml: &str) {
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        let forest = encode(&t, &schema, &EncodeConfig::default());
        let max_lhs = 3;
        let oracle = brute_force(&forest, max_lhs);
        let config = DiscoveryConfig {
            keep_uninteresting: true,
            ..Default::default()
        };
        let (fds, keys) = discovery_strings(&forest, &config, max_lhs);
        let ofds = oracle.fd_strings(&forest);
        let okeys = oracle.key_strings(&forest);
        assert_eq!(fds, ofds, "FDs diverge from oracle for {xml}");
        // Keys: the discovery is sound and complete for single-level keys;
        // inter-relation keys surface only as partition-target byproducts
        // (the paper's design), so we check containment both ways with the
        // appropriate restriction.
        for k in &keys {
            assert!(okeys.contains(k), "unsound key {k} for {xml}");
        }
        for raw in oracle
            .keys
            .iter()
            .filter(|raw| raw.lhs_levels.iter().all(|&(rel, _)| rel == raw.origin))
        {
            let s = inter_key_to_key(&forest, raw).to_string();
            assert!(keys.contains(&s), "missed intra key {s} for {xml}");
        }
    }

    #[test]
    fn oracle_agrees_on_single_relation_documents() {
        check(
            "<w>\
             <book><isbn>1</isbn><title>A</title></book>\
             <book><isbn>1</isbn><title>A</title></book>\
             <book><isbn>2</isbn><title>B</title></book>\
             </w>",
        );
    }

    #[test]
    fn oracle_agrees_with_missing_elements() {
        check(
            "<w>\
             <book><isbn>1</isbn><title>A</title></book>\
             <book><isbn>1</isbn></book>\
             <book><title>B</title></book>\
             </w>",
        );
    }

    #[test]
    fn oracle_agrees_on_two_level_documents() {
        check(
            "<w>\
             <store><name>X</name><book><i>1</i><p>10</p></book></store>\
             <store><name>X</name><book><i>1</i><p>10</p></book></store>\
             <store><name>Y</name><book><i>1</i><p>12</p></book></store>\
             </w>",
        );
    }

    #[test]
    fn oracle_agrees_with_set_elements() {
        check(
            "<w>\
             <book><i>1</i><a>R</a><a>G</a></book>\
             <book><i>1</i><a>G</a><a>R</a></book>\
             <book><i>2</i><a>R</a></book>\
             </w>",
        );
    }
}
