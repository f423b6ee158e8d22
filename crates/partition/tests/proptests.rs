//! Algebraic laws of stripped partitions, checked on random columns.

use proptest::prelude::*;
use xfd_partition::{ErrorOnlyProduct, GroupMap, PairSet, Partition, ProductScratch};

fn column() -> impl Strategy<Value = Vec<Option<u64>>> {
    proptest::collection::vec(
        prop_oneof![3 => (0u64..5).prop_map(Some), 1 => Just(None)],
        0..40,
    )
}

/// Reference implementation: group rows by exact cell vectors.
fn naive_product(a: &[Option<u64>], b: &[Option<u64>]) -> Partition {
    let mut groups: std::collections::HashMap<(u64, u64), Vec<u32>> = Default::default();
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if let (Some(x), Some(y)) = (x, y) {
            groups.entry((*x, *y)).or_default().push(i as u32);
        }
    }
    let mut gs: Vec<Vec<u32>> = groups.into_values().collect();
    gs.sort_by_key(|g| g[0]);
    Partition::from_groups(gs, a.len())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn product_matches_naive(a in column(), b in column()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let pa = Partition::from_column(a);
        let pb = Partition::from_column(b);
        prop_assert_eq!(pa.product(&pb), naive_product(a, b));
    }

    #[test]
    fn product_is_commutative(a in column(), b in column()) {
        let n = a.len().min(b.len());
        let pa = Partition::from_column(&a[..n]);
        let pb = Partition::from_column(&b[..n]);
        prop_assert_eq!(pa.product(&pb), pb.product(&pa));
    }

    #[test]
    fn product_refines_both_operands(a in column(), b in column()) {
        let n = a.len().min(b.len());
        let pa = Partition::from_column(&a[..n]);
        let pb = Partition::from_column(&b[..n]);
        let prod = pa.product(&pb);
        prop_assert!(prod.refines(&pa));
        prop_assert!(prod.refines(&pb));
        prop_assert!(prod.error() <= pa.error());
        prop_assert!(prod.error() <= pb.error());
    }

    #[test]
    fn product_is_idempotent(a in column()) {
        let pa = Partition::from_column(&a);
        prop_assert_eq!(pa.product(&pa), pa);
    }

    #[test]
    fn universal_is_identity(a in column()) {
        let pa = Partition::from_column(&a);
        let u = Partition::universal(a.len());
        prop_assert_eq!(pa.product(&u), pa.clone());
        prop_assert!(pa.refines(&u) || a.len() < 2);
    }

    #[test]
    fn error_counts_strippable_tuples(a in column()) {
        let pa = Partition::from_column(&a);
        let expected: usize = pa.groups().map(|g| g.len() - 1).sum();
        prop_assert_eq!(pa.error(), expected);
    }

    #[test]
    fn group_map_agrees_with_group_membership(a in column()) {
        let pa = Partition::from_column(&a);
        let gm = GroupMap::new(&pa);
        for (gi, g) in pa.groups().enumerate() {
            for &t in g {
                prop_assert_eq!(gm.group_of(t), Some(gi as u32));
            }
        }
    }

    /// Canonical-order regression: every constructor output lists groups
    /// by ascending first member with ascending members inside.
    #[test]
    fn canonical_group_order_is_pinned(a in column(), b in column()) {
        let n = a.len().min(b.len());
        let pa = Partition::from_column(&a[..n]);
        let pb = Partition::from_column(&b[..n]);
        for p in [&pa, &pb, &pa.product(&pb)] {
            let mut prev_first: Option<u32> = None;
            for g in p.groups() {
                prop_assert!(g.windows(2).all(|w| w[0] < w[1]),
                    "members not ascending: {:?}", g);
                if let Some(pf) = prev_first {
                    prop_assert!(pf < g[0], "groups not sorted by first member");
                }
                prev_first = Some(g[0]);
            }
        }
    }

    /// Scratch reuse never changes results: a long chain of mixed
    /// column-builds and products through one scratch matches fresh
    /// allocations.
    #[test]
    fn scratch_reuse_matches_fresh(cols in proptest::collection::vec(column(), 2..5)) {
        let n = cols.iter().map(Vec::len).min().unwrap_or(0);
        let mut scratch = ProductScratch::new();
        let fresh: Vec<Partition> =
            cols.iter().map(|c| Partition::from_column(&c[..n])).collect();
        let reused: Vec<Partition> = cols
            .iter()
            .map(|c| Partition::from_column_in(&c[..n], &mut scratch))
            .collect();
        prop_assert_eq!(&fresh, &reused);
        for x in &fresh {
            for y in &fresh {
                prop_assert_eq!(x.product(y), x.product_in(y, &mut scratch));
            }
        }
    }

    /// CSR product over a chain of attributes equals the partition built
    /// directly from the combined column values (Π over the union of the
    /// attribute sets).
    #[test]
    fn chained_product_matches_union_column(cols in proptest::collection::vec(column(), 2..5)) {
        let n = cols.iter().map(Vec::len).min().unwrap_or(0);
        let mut scratch = ProductScratch::new();
        let mut acc = Partition::universal(n);
        for c in &cols {
            let p = Partition::from_column_in(&c[..n], &mut scratch);
            acc = acc.product_in(&p, &mut scratch);
        }
        // Combined key per tuple: None if any attribute is ⊥.
        let combined: Vec<Option<u64>> = (0..n)
            .map(|t| {
                cols.iter().try_fold(0u64, |h, c| {
                    c[t].map(|v| h.wrapping_mul(1_000_003).wrapping_add(v + 1))
                })
            })
            .collect();
        prop_assert_eq!(acc, Partition::from_column(&combined));
    }

    /// Kernel parity: the base-map refinement kernel reports exactly the
    /// error, group count and widest group of the materialized product
    /// without a bound, and for every possible bound returns `BelowBound`
    /// exactly when the true product error is in `1..bound` — including
    /// empty and stripped-to-empty operands.
    #[test]
    fn refine_kernel_matches_probing_kernel(a in column(), b in column()) {
        let n = a.len().min(b.len());
        let pa = Partition::from_column(&a[..n]);
        let pb = Partition::from_column(&b[..n]);
        let gm = GroupMap::new(&pb);
        let mut scratch = ProductScratch::new();
        let full = pa.product_in(&pb, &mut scratch);
        prop_assert_eq!(
            pa.error_refine_in(&gm, &mut scratch, None),
            ErrorOnlyProduct::Exact(full.summary())
        );
        let true_error = full.error();
        for bound in 0..=pa.error().min(pb.error()) + 1 {
            let got = pa.error_refine_in(&gm, &mut scratch, Some(bound));
            if true_error > 0 && true_error < bound {
                prop_assert_eq!(got, ErrorOnlyProduct::BelowBound, "bound {}", bound);
            } else {
                prop_assert_eq!(
                    got,
                    ErrorOnlyProduct::Exact(full.summary()),
                    "bound {}", bound
                );
            }
        }
    }

    #[test]
    fn pairset_satisfaction_matches_separation(a in column()) {
        prop_assume!(a.len() >= 2);
        let pa = Partition::from_column(&a);
        let gm = GroupMap::new(&pa);
        let mut all = PairSet::new();
        for t1 in 0..a.len() as u32 {
            for t2 in t1 + 1..a.len() as u32 {
                all.insert(t1, t2);
            }
        }
        let unsat = all.unsatisfied_under(&gm);
        // Unsatisfied pairs are exactly the within-group pairs.
        let within: usize = pa.groups().map(|g| g.len() * (g.len() - 1) / 2).sum();
        prop_assert_eq!(unsat.len(), within);
        prop_assert_eq!(all.satisfied_by(&gm), within == 0);
    }
}
