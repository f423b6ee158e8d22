//! Partition targets (Figure 10): candidate partial FDs carried up the
//! relation tree.
//!
//! A partition target is created from a lattice edge `A_L → a` of relation
//! `R_p` that is *not* satisfied across the whole relation but might be
//! satisfied once ancestor attributes join the LHS (Lemma 3). It carries:
//!
//! * `fd_target` — the pairs of parent tuples that must be separated for
//!   the extended FD to hold: one pair per *conflicting* tuple pair of
//!   `R_p` (same `Π_{A_L}` group, different `Π_{A_L∪{a}}` group — including
//!   pairs where a tuple is a stripped singleton of the product, e.g. a
//!   null RHS; the paper's `createPT` line 13 mistakenly files leftover
//!   residual pairs under `KeyTarget`, see DESIGN.md);
//! * `key_target` — the *additional* pairs (same group of both partitions)
//!   that must also be separated for the extended LHS to be an XML Key;
//!   `None` once a key pair collapses onto a single ancestor tuple
//!   (invalid: the key can never be satisfied).
//!
//! A conflicting pair that collapses onto one parent tuple makes the FD
//! itself unsatisfiable under individual parents — no target is created
//! ([`CreateOutcome::Impossible`], the paper's `return NULL`).

use xfd_partition::{AttrSet, Collapse, GroupMap, PairSet, Partition, Tuple};
use xfd_relation::RelId;

/// A partition target in flight. `fd_target`/`key_target` pairs live in the
/// tuple space of the relation *currently being processed* (they are mapped
/// through the tuple→parent index each time they move up).
#[derive(Debug, Clone)]
pub struct PartitionTarget {
    /// Relation whose tuple class the candidate FD is about.
    pub origin: RelId,
    /// RHS column index in the origin relation.
    pub rhs: usize,
    /// Accumulated LHS: `(relation, attribute set)` per level, origin first.
    pub lhs_levels: Vec<(RelId, AttrSet)>,
    /// Pairs that must be separated for the FD.
    pub fd_target: PairSet,
    /// Additional pairs for the Key; `None` = invalid (key unsatisfiable).
    pub key_target: Option<PairSet>,
    /// Attribute sets (of the relation currently processing this target)
    /// that already satisfied the FD — for minimal emission.
    pub satisfied_fd: Vec<AttrSet>,
    /// Attribute sets that already satisfied the Key.
    pub satisfied_key: Vec<AttrSet>,
}

/// Result of [`create_target_from_base`].
#[derive(Debug)]
pub enum CreateOutcome {
    /// A viable candidate partial FD.
    Target(Box<PartitionTarget>),
    /// Two same-parent tuples violate the FD: unsatisfiable (paper line 11).
    Impossible,
    /// The pair sets exceeded `max_pairs` — dropped, counted by the caller.
    Overflow,
}

/// Build a partition target from an unsatisfied edge `A_L → a` of a
/// relation with parent index `parent_of` (the paper's `createPT`), keyed
/// by the *single-attribute base* partition of the RHS instead of the
/// product `Π_{A_L∪{a}}` the paper scans: `pl` is `Π_{A_L}`, `rhs_groups`
/// the tuple → group map of `Π_a`. Within one group of `Π_{A_L}` (members
/// agree on `A_L`), two tuples share a product group exactly when they
/// share an RHS base group, and a tuple stripped from the product (its
/// `{A_L, a}` combination is unique, or its RHS is ⊥) is either alone in
/// its base bucket or base-⊥ — its own subgroup in both decompositions.
/// First-touch subgroup order is the member scan order either way, so the
/// outcome is *identical* to the product-keyed `createPT` (kept as the
/// test reference `create_target`) — without materializing the product or
/// building a per-edge O(n) group map.
#[allow(clippy::too_many_arguments)]
pub fn create_target_from_base(
    origin: RelId,
    rhs: usize,
    lhs: AttrSet,
    pl: &Partition,
    rhs_groups: &GroupMap,
    parent_of: &[Tuple],
    max_pairs: usize,
) -> CreateOutcome {
    create_target_keyed(
        origin,
        rhs,
        lhs,
        pl,
        |t| rhs_groups.group_of(t),
        parent_of,
        max_pairs,
    )
}

/// The paper's `createPT` as written: keyed by the materialized product
/// `pa = Π_{A_L ∪ {a}}` (which refines `pl = Π_{A_L}`). The reference
/// [`create_target_from_base`] is checked against.
#[cfg(test)]
fn create_target(
    origin: RelId,
    rhs: usize,
    lhs: AttrSet,
    pl: &Partition,
    pa: &Partition,
    parent_of: &[Tuple],
    max_pairs: usize,
) -> CreateOutcome {
    let gm = GroupMap::new(pa);
    create_target_keyed(
        origin,
        rhs,
        lhs,
        pl,
        |t| gm.group_of(t),
        parent_of,
        max_pairs,
    )
}

fn create_target_keyed(
    origin: RelId,
    rhs: usize,
    lhs: AttrSet,
    pl: &Partition,
    key_of: impl Fn(Tuple) -> Option<u32>,
    parent_of: &[Tuple],
    max_pairs: usize,
) -> CreateOutcome {
    let mut fd_pairs = PairSet::new();
    let mut key_pairs: Option<PairSet> = Some(PairSet::new());
    let mut n_pairs = 0usize;

    for g1 in pl.groups() {
        // Bucket g1's members by their refining-partition subgroup; `None`
        // (stripped singleton) members are each their own subgroup.
        let mut subgroups: Vec<(Option<u32>, Vec<Tuple>)> = Vec::new();
        for &t in g1 {
            match key_of(t) {
                Some(g) => match subgroups.iter_mut().find(|(k, _)| *k == Some(g)) {
                    Some((_, v)) => v.push(t),
                    None => subgroups.push((Some(g), vec![t])),
                },
                None => subgroups.push((None, vec![t])),
            }
        }
        // FD pairs: across subgroups. Key pairs: within subgroups.
        for i in 0..subgroups.len() {
            for j in i + 1..subgroups.len() {
                for &t1 in &subgroups[i].1 {
                    for &t2 in &subgroups[j].1 {
                        n_pairs += 1;
                        if n_pairs > max_pairs {
                            return CreateOutcome::Overflow;
                        }
                        let p1 = parent_of[t1 as usize];
                        let p2 = parent_of[t2 as usize];
                        if p1 == p2 {
                            return CreateOutcome::Impossible;
                        }
                        fd_pairs.insert(p1, p2);
                    }
                }
            }
            if let Some(kp) = key_pairs.as_mut() {
                let members = &subgroups[i].1;
                'key: for a in 0..members.len() {
                    for b in a + 1..members.len() {
                        n_pairs += 1;
                        if n_pairs > max_pairs {
                            return CreateOutcome::Overflow;
                        }
                        let p1 = parent_of[members[a] as usize];
                        let p2 = parent_of[members[b] as usize];
                        if p1 == p2 {
                            key_pairs = None; // invalid, FD may still live
                            break 'key;
                        }
                        kp.insert(p1, p2);
                    }
                }
            }
        }
    }
    debug_assert!(
        !fd_pairs.is_empty(),
        "create_target called on a satisfied edge"
    );
    CreateOutcome::Target(Box::new(PartitionTarget {
        origin,
        rhs,
        lhs_levels: vec![(origin, lhs)],
        fd_target: fd_pairs,
        key_target: key_pairs,
        satisfied_fd: Vec::new(),
        satisfied_key: Vec::new(),
    }))
}

/// Map a target's still-unsatisfied pairs to the parent relation's tuple
/// space, extending the LHS with `(rel, attrs)` when `attrs` is non-empty
/// (the paper's `updatePT`). Returns `None` when an FD pair collapses.
pub fn update_target(
    pt: &PartitionTarget,
    rel: RelId,
    attrs: AttrSet,
    remaining_fd: PairSet,
    remaining_key: Option<PairSet>,
    parent_of: &[Tuple],
) -> Option<PartitionTarget> {
    let fd_target = match remaining_fd.map_to_parent(parent_of) {
        Collapse::Mapped(p) => p,
        Collapse::Impossible => return None,
    };
    let key_target = remaining_key.and_then(|kt| match kt.map_to_parent(parent_of) {
        Collapse::Mapped(p) => Some(p),
        Collapse::Impossible => None,
    });
    let mut lhs_levels = pt.lhs_levels.clone();
    if !attrs.is_empty() {
        lhs_levels.push((rel, attrs));
    }
    Some(PartitionTarget {
        origin: pt.origin,
        rhs: pt.rhs,
        lhs_levels,
        fd_target,
        key_target,
        satisfied_fd: Vec::new(),
        satisfied_key: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example (Section 4.3): `{./ISBN} → ./price`
    /// w.r.t. C_book over the Figure 6 data. Book tuples 1,2,3 (t30, t50,
    /// t80) share an ISBN; prices are 59.99, 59.99, ⊥; parents are stores
    /// 0,1,2 (t12, t42, t72).
    fn paper_example() -> (Partition, Partition, Vec<Tuple>) {
        // tuples: 0=t20, 1=t30, 2=t50, 3=t80
        let isbn = [Some(1u64), Some(2), Some(2), Some(2)];
        let price = [Some(10u64), Some(20), Some(20), None];
        let pl = Partition::from_column(&isbn);
        let paired: Vec<Option<u64>> = isbn
            .iter()
            .zip(price.iter())
            .map(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Some(a * 100 + b),
                _ => None,
            })
            .collect();
        let pa = Partition::from_column(&paired);
        let parent_of = vec![0, 0, 1, 2];
        (pl, pa, parent_of)
    }

    #[test]
    fn create_target_reproduces_the_papers_inequalities() {
        let (pl, pa, parent_of) = paper_example();
        let out = create_target(
            RelId(3),
            2,
            AttrSet::single(0),
            &pl,
            &pa,
            &parent_of,
            10_000,
        );
        let CreateOutcome::Target(pt) = out else {
            panic!("expected target")
        };
        // FDTarget: t30≠t80, t50≠t80 → stores (0,2) and (1,2).
        let mut fd: Vec<(Tuple, Tuple)> = pt.fd_target.pairs().to_vec();
        fd.sort_unstable();
        assert_eq!(fd, vec![(0, 2), (1, 2)]);
        // KeyTarget: t30≠t50 → stores (0,1).
        assert_eq!(pt.key_target.as_ref().unwrap().pairs(), &[(0, 1)]);
    }

    #[test]
    fn same_parent_conflict_is_impossible() {
        // Two conflicting tuples under the same parent.
        let lhs = [Some(1u64), Some(1)];
        let rhs = [Some(5u64), Some(6)];
        let pl = Partition::from_column(&lhs);
        let pa = Partition::from_column(&[Some(15u64), Some(16)]);
        let _ = rhs;
        let out = create_target(RelId(1), 1, AttrSet::single(0), &pl, &pa, &[0, 0], 100);
        assert!(matches!(out, CreateOutcome::Impossible));
    }

    #[test]
    fn same_parent_key_pair_invalidates_only_the_key() {
        // Tuples 0,1: same LHS, same RHS, same parent → key impossible;
        // tuple 2: same LHS, different RHS, different parent → FD viable.
        let lhs = [Some(1u64), Some(1), Some(1)];
        let both = [Some(11u64), Some(11), Some(12)];
        let pl = Partition::from_column(&lhs);
        let pa = Partition::from_column(&both);
        let out = create_target(RelId(1), 1, AttrSet::single(0), &pl, &pa, &[0, 0, 1], 100);
        let CreateOutcome::Target(pt) = out else {
            panic!("expected target")
        };
        assert!(pt.key_target.is_none(), "key collapsed");
        assert_eq!(pt.fd_target.pairs(), &[(0, 1)]);
    }

    #[test]
    fn null_rhs_tuples_are_fd_conflicts_not_key_pairs() {
        // Erratum fix: three tuples share the LHS; two have unique/⊥ RHS.
        // Both leftover tuples conflict with everything in the group.
        let lhs = [Some(1u64), Some(1), Some(1)];
        let both = [Some(11u64), None, None]; // t1, t2 singletons in Π_A
        let pl = Partition::from_column(&lhs);
        let pa = Partition::from_column(&both);
        let out = create_target(RelId(1), 1, AttrSet::single(0), &pl, &pa, &[0, 1, 2], 100);
        let CreateOutcome::Target(pt) = out else {
            panic!("expected target")
        };
        let mut fd: Vec<(Tuple, Tuple)> = pt.fd_target.pairs().to_vec();
        fd.sort_unstable();
        assert_eq!(
            fd,
            vec![(0, 1), (0, 2), (1, 2)],
            "all pairs are FD conflicts"
        );
        assert!(pt.key_target.unwrap().is_empty());
    }

    #[test]
    fn overflow_is_reported() {
        let lhs: Vec<Option<u64>> = (0..60).map(|_| Some(1u64)).collect();
        let rhs: Vec<Option<u64>> = (0..60).map(|i| Some(i as u64)).collect();
        let pl = Partition::from_column(&lhs);
        let paired: Vec<Option<u64>> = rhs.iter().map(|r| r.map(|v| v + 100)).collect();
        let pa = Partition::from_column(&paired);
        let parent_of: Vec<Tuple> = (0..60).collect();
        let out = create_target(RelId(1), 1, AttrSet::single(0), &pl, &pa, &parent_of, 50);
        assert!(matches!(out, CreateOutcome::Overflow));
    }

    #[test]
    fn base_keyed_target_matches_product_keyed() {
        // Keying by the RHS base partition must reproduce the
        // product-keyed outcome exactly — same pairs, same Impossible /
        // Overflow decisions — across nulls, unique combos, and shared RHS
        // values that straddle LHS groups.
        type Case = (Vec<Option<u64>>, Vec<Option<u64>>, Vec<Tuple>, usize);
        let cases: Vec<Case> = vec![
            // The paper's worked example.
            (
                vec![Some(1), Some(2), Some(2), Some(2)],
                vec![Some(10), Some(20), Some(20), None],
                vec![0, 0, 1, 2],
                100,
            ),
            // Same-parent FD conflict (Impossible).
            (
                vec![Some(1), Some(1)],
                vec![Some(5), Some(6)],
                vec![0, 0],
                100,
            ),
            // Key collapse, FD viable.
            (
                vec![Some(1), Some(1), Some(1)],
                vec![Some(11), Some(11), Some(12)],
                vec![0, 0, 1],
                100,
            ),
            // Null RHS: product-stripped vs base-⊥ must agree.
            (
                vec![Some(1), Some(1), Some(1)],
                vec![Some(11), None, None],
                vec![0, 1, 2],
                100,
            ),
            // RHS values shared across LHS groups: base groups span pl
            // groups, product groups do not.
            (
                vec![Some(1), Some(1), Some(2), Some(2)],
                vec![Some(7), Some(8), Some(7), Some(8)],
                vec![0, 1, 2, 3],
                100,
            ),
            // Overflow at the same pair count.
            (
                (0..20).map(|_| Some(1)).collect(),
                (0..20).map(|i| Some(i as u64)).collect(),
                (0..20).collect(),
                50,
            ),
        ];
        for (lhs_col, rhs_col, parent_of, max_pairs) in cases {
            let pl = Partition::from_column(&lhs_col);
            let paired: Vec<Option<u64>> = lhs_col
                .iter()
                .zip(rhs_col.iter())
                .map(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => Some(a * 1000 + b),
                    _ => None,
                })
                .collect();
            let pa = Partition::from_column(&paired);
            let base = Partition::from_column(&rhs_col);
            let gm = GroupMap::new(&base);
            let via_product = create_target(
                RelId(1),
                1,
                AttrSet::single(0),
                &pl,
                &pa,
                &parent_of,
                max_pairs,
            );
            let via_base = create_target_from_base(
                RelId(1),
                1,
                AttrSet::single(0),
                &pl,
                &gm,
                &parent_of,
                max_pairs,
            );
            match (via_product, via_base) {
                (CreateOutcome::Target(a), CreateOutcome::Target(b)) => {
                    assert_eq!(a.fd_target.pairs(), b.fd_target.pairs());
                    assert_eq!(
                        a.key_target.map(|k| k.pairs().to_vec()),
                        b.key_target.map(|k| k.pairs().to_vec()),
                    );
                }
                (CreateOutcome::Impossible, CreateOutcome::Impossible) => {}
                (CreateOutcome::Overflow, CreateOutcome::Overflow) => {}
                (a, b) => panic!("outcomes diverged: {a:?} vs {b:?} for {lhs_col:?}/{rhs_col:?}"),
            }
        }
    }

    #[test]
    fn update_target_maps_and_extends() {
        let (pl, pa, parent_of) = paper_example();
        let CreateOutcome::Target(pt) =
            create_target(RelId(3), 2, AttrSet::single(0), &pl, &pa, &parent_of, 100)
        else {
            panic!()
        };
        // Move store-space pairs up to state space: stores 0,1 → state 0;
        // store 2 → state 1. FD pairs (0,2),(1,2) → (0,1); key pair (0,1)
        // collapses → key invalid but FD alive.
        let store_parent = vec![0, 0, 1];
        let updated = update_target(
            &pt,
            RelId(2),
            AttrSet::single(1),
            pt.fd_target.clone(),
            pt.key_target.clone(),
            &store_parent,
        )
        .expect("fd pairs survive");
        assert_eq!(updated.fd_target.pairs(), &[(0, 1)]);
        assert!(updated.key_target.is_none());
        assert_eq!(updated.lhs_levels.len(), 2);
        assert_eq!(updated.lhs_levels[1], (RelId(2), AttrSet::single(1)));

        // An FD-pair collapse drops the target entirely.
        let collapse_all = vec![0, 0, 0];
        assert!(update_target(
            &pt,
            RelId(2),
            AttrSet::empty(),
            pt.fd_target.clone(),
            None,
            &collapse_all,
        )
        .is_none());
    }
}
