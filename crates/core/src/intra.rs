//! `DiscoverFD` (Figure 8): minimal intra-relation FDs and keys of a single
//! relation, by level-wise traversal of the attribute-set lattice with
//! stripped-partition refinement tests (Lemmas 1–2).
//!
//! The function is generic over "a table" (columns of nullable value ids),
//! so the same engine drives the per-relation passes of `DiscoverXFD` *and*
//! the flat-representation baseline of Section 4.1.
//!
//! The traversal itself is [`crate::lattice::discover_levels`], shared with
//! `DiscoverXFD`'s per-relation pass; this module runs it with no
//! inter-relation context and owns its options and result types.
//! It runs on the caller's thread: parallelism lives one layer up, across
//! the relations of a wave.

use xfd_partition::AttrSet;

use crate::config::PruneConfig;
use crate::lattice::{discover_levels, IntraFd};

/// Options for a single-table run.
#[derive(Debug, Clone, Copy)]
pub struct IntraOptions {
    /// Maximum LHS size (lattice nodes up to `max_lhs + 1` attributes).
    pub max_lhs: usize,
    /// Pruning rules.
    pub prune: PruneConfig,
    /// Apply (repaired) rule 2 — `candidateLHS` vs. `candidateLHS2`.
    pub use_rule2: bool,
    /// Byte budget for resident partitions (`None` = unbounded). Eviction
    /// never changes results: evicted partitions are refolded from the
    /// bases on demand.
    pub cache_budget: Option<usize>,
    /// Use the tiered partition kernel: error-only products with early
    /// exit for validation, full CSR materialization only for next-level
    /// operands. Results are bit-identical either way. Off, every node
    /// materializes its partition: the oracle the intra tests, the
    /// property tests and `bench_partitions` check the tiered kernel
    /// against. `DiscoverXFD`'s relation passes always run tiered.
    pub error_only_kernel: bool,
}

impl Default for IntraOptions {
    fn default() -> Self {
        IntraOptions {
            max_lhs: usize::MAX,
            prune: PruneConfig::default(),
            use_rule2: true,
            cache_budget: None,
            error_only_kernel: true,
        }
    }
}

/// Work counters of one lattice traversal, kept by its partition cache.
pub use xfd_partition::RunStats;

/// Output of [`discover_intra`]: minimal FDs and minimal keys, in attribute
/// indices of the input table.
#[derive(Debug, Clone, Default)]
pub struct IntraResult {
    /// Minimal satisfied FDs (superkey LHSs are *not* enumerated as FDs —
    /// they are implied by the reported keys, per Figure 8 line 11).
    pub fds: Vec<IntraFd>,
    /// Minimal keys.
    pub keys: Vec<AttrSet>,
    /// Work counters.
    pub stats: RunStats,
}

impl IntraResult {
    /// Is `a_set` a superset of some discovered key?
    pub fn covered_by_key(&self, a_set: AttrSet) -> bool {
        self.keys.iter().any(|k| k.is_subset_of(a_set))
    }
}

/// Run `DiscoverFD` over a table given as columns of nullable value ids.
///
/// # Panics
/// Panics if the table has more than 128 columns (see `xfd_partition::attrset`).
pub fn discover_intra(
    columns: &[&[Option<u64>]],
    n_tuples: usize,
    opts: &IntraOptions,
) -> IntraResult {
    discover_levels(columns, n_tuples, opts, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle: minimal FDs and minimal keys by definition.
    fn brute(columns: &[&[Option<u64>]], n: usize) -> (Vec<IntraFd>, Vec<AttrSet>) {
        let m = columns.len();
        let all_sets: Vec<AttrSet> = (0..(1u64 << m))
            .map(|bits| AttrSet::from_iter((0..m).filter(|&i| bits & (1 << i) != 0)))
            .collect();
        let holds = |lhs: AttrSet, rhs: usize| -> bool {
            for t1 in 0..n {
                for t2 in t1 + 1..n {
                    let agree = lhs
                        .iter()
                        .all(|a| columns[a][t1].is_some() && columns[a][t1] == columns[a][t2]);
                    if agree {
                        let r1 = columns[rhs][t1];
                        let r2 = columns[rhs][t2];
                        if r1.is_none() || r1 != r2 {
                            return false;
                        }
                    }
                }
            }
            true
        };
        let is_key = |lhs: AttrSet| -> bool {
            for t1 in 0..n {
                for t2 in t1 + 1..n {
                    let agree = lhs
                        .iter()
                        .all(|a| columns[a][t1].is_some() && columns[a][t1] == columns[a][t2]);
                    if agree {
                        return false;
                    }
                }
            }
            true
        };
        let mut keys: Vec<AttrSet> = all_sets.iter().copied().filter(|&s| is_key(s)).collect();
        let minimal_keys: Vec<AttrSet> = keys
            .iter()
            .copied()
            .filter(|&k| !keys.iter().any(|&k2| k2 != k && k2.is_subset_of(k)))
            .collect();
        keys = minimal_keys;
        let mut fds = Vec::new();
        for rhs in 0..m {
            for &lhs in &all_sets {
                if lhs.contains(rhs) {
                    continue;
                }
                // Skip superkey LHSs (reported via keys instead).
                if keys.iter().any(|k| k.is_subset_of(lhs)) {
                    continue;
                }
                if !holds(lhs, rhs) {
                    continue;
                }
                // Minimality.
                let minimal = !lhs.iter().any(|a| holds(lhs.remove(a), rhs));
                let minimal = minimal && (lhs.is_empty() || !holds(AttrSet::empty(), rhs));
                if minimal {
                    fds.push(IntraFd { lhs, rhs });
                }
            }
        }
        (fds, keys)
    }

    fn norm(mut v: Vec<IntraFd>) -> Vec<(u128, usize)> {
        let mut out: Vec<(u128, usize)> = v.drain(..).map(|f| (f.lhs.bits(), f.rhs)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn norm_keys(mut v: Vec<AttrSet>) -> Vec<u128> {
        let mut out: Vec<u128> = v.drain(..).map(|k| k.bits()).collect();
        out.sort_unstable();
        out
    }

    fn check_against_brute(cols: Vec<Vec<Option<u64>>>) {
        let n = cols[0].len();
        let refs: Vec<&[Option<u64>]> = cols.iter().map(|c| c.as_slice()).collect();
        let got = discover_intra(&refs, n, &IntraOptions::default());
        let (bfds, bkeys) = brute(&refs, n);
        assert_eq!(norm(got.fds.clone()), norm(bfds), "FDs differ for {cols:?}");
        assert_eq!(
            norm_keys(got.keys.clone()),
            norm_keys(bkeys),
            "keys differ for {cols:?}"
        );
    }

    #[test]
    fn simple_fd_is_found() {
        // col0 → col1 holds; col1 → col0 does not.
        check_against_brute(vec![
            vec![Some(1), Some(1), Some(2), Some(3)],
            vec![Some(9), Some(9), Some(9), Some(8)],
        ]);
    }

    #[test]
    fn composite_minimal_fd() {
        // {0,1} → 2 minimal (neither 0 nor 1 alone determines 2).
        check_against_brute(vec![
            vec![Some(1), Some(1), Some(2), Some(2)],
            vec![Some(5), Some(6), Some(5), Some(6)],
            vec![Some(1), Some(2), Some(3), Some(4)],
        ]);
    }

    #[test]
    fn keys_absorb_fds() {
        // col0 is a key → no FDs reported with LHS ⊇ {0}.
        let got = discover_intra(
            &[&[Some(1), Some(2), Some(3)], &[Some(9), Some(9), Some(8)]],
            3,
            &IntraOptions::default(),
        );
        assert_eq!(norm_keys(got.keys), vec![AttrSet::single(0).bits()]);
        assert!(got.fds.iter().all(|fd| fd.rhs != 1 || !fd.lhs.contains(0)));
    }

    #[test]
    fn constant_column_yields_empty_lhs_fd() {
        let got = discover_intra(
            &[&[Some(7), Some(7), Some(7)], &[Some(1), Some(2), Some(2)]],
            3,
            &IntraOptions::default(),
        );
        assert!(got.fds.contains(&IntraFd {
            lhs: AttrSet::empty(),
            rhs: 0
        }));
    }

    #[test]
    fn nulls_are_distinct_strong_satisfaction() {
        // LHS null rows never agree; RHS null breaks the FD.
        // col0 → col1: rows 0,1 agree on col0 and col1 — holds.
        // col0 → col2: rows 0,1 agree on col0 but col2 has a null — fails.
        let got = discover_intra(
            &[
                &[Some(1), Some(1), Some(2)],
                &[Some(5), Some(5), Some(6)],
                &[Some(9), None, Some(9)],
            ],
            3,
            &IntraOptions::default(),
        );
        assert!(got.fds.contains(&IntraFd {
            lhs: AttrSet::single(0),
            rhs: 1
        }));
        assert!(!got
            .fds
            .iter()
            .any(|f| f.rhs == 2 && f.lhs == AttrSet::single(0)));
        check_against_brute(vec![
            vec![Some(1), Some(1), Some(2)],
            vec![Some(5), Some(5), Some(6)],
            vec![Some(9), None, Some(9)],
        ]);
    }

    #[test]
    fn single_tuple_relation_is_all_keys() {
        let got = discover_intra(&[&[Some(1)], &[Some(2)]], 1, &IntraOptions::default());
        assert_eq!(got.keys, vec![AttrSet::empty()]);
        assert!(got.fds.is_empty());
    }

    #[test]
    fn empty_relation() {
        let got = discover_intra(&[], 0, &IntraOptions::default());
        assert_eq!(got.keys, vec![AttrSet::empty()]);
    }

    #[test]
    fn max_lhs_bounds_the_search() {
        // {0,1} → 2 needs LHS size 2; with max_lhs = 1 it is not found.
        let cols: Vec<Vec<Option<u64>>> = vec![
            vec![Some(1), Some(1), Some(2), Some(2)],
            vec![Some(5), Some(6), Some(5), Some(6)],
            vec![Some(1), Some(2), Some(3), Some(4)],
        ];
        let refs: Vec<&[Option<u64>]> = cols.iter().map(|c| c.as_slice()).collect();
        let bounded = discover_intra(
            &refs,
            4,
            &IntraOptions {
                max_lhs: 1,
                ..Default::default()
            },
        );
        assert!(bounded.fds.iter().all(|f| f.lhs.len() <= 1));
        assert!(bounded.keys.iter().all(|k| k.len() <= 2));
    }

    #[test]
    fn pruning_does_not_change_results() {
        let cols: Vec<Vec<Option<u64>>> = vec![
            vec![Some(1), Some(1), Some(2), Some(2), Some(3)],
            vec![Some(5), Some(5), Some(6), Some(6), Some(7)],
            vec![Some(1), Some(2), Some(1), Some(2), Some(1)],
            vec![Some(4), Some(4), Some(4), Some(9), Some(9)],
        ];
        let refs: Vec<&[Option<u64>]> = cols.iter().map(|c| c.as_slice()).collect();
        let full = discover_intra(&refs, 5, &IntraOptions::default());
        let unpruned = discover_intra(
            &refs,
            5,
            &IntraOptions {
                prune: PruneConfig {
                    rule1: false,
                    rule2: false,
                    key_prune: false,
                },
                ..Default::default()
            },
        );
        // Unpruned run visits more nodes but must find the same minimal FDs
        // (it may additionally emit implied/non-minimal ones; the pruned
        // result must be a subset).
        assert!(unpruned.stats.nodes_visited >= full.stats.nodes_visited);
        let f = norm(full.fds.clone());
        let u = norm(unpruned.fds.clone());
        for fd in &f {
            assert!(
                u.contains(fd),
                "pruned run found {fd:?} that unpruned missed"
            );
        }
        // The unpruned run may also report non-minimal keys (supersets);
        // after minimal-filtering the key sets must agree.
        let minimal_unpruned: Vec<AttrSet> = unpruned
            .keys
            .iter()
            .copied()
            .filter(|&k| {
                !unpruned
                    .keys
                    .iter()
                    .any(|&k2| k2 != k && k2.is_subset_of(k))
            })
            .collect();
        assert_eq!(norm_keys(full.keys), norm_keys(minimal_unpruned));
    }

    #[test]
    fn randomized_tables_match_brute_force() {
        // Deterministic pseudo-random tables (LCG) across shapes.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for &(n_cols, n_rows, domain) in &[
            (2usize, 6usize, 2u64),
            (3, 8, 2),
            (3, 6, 3),
            (4, 7, 2),
            (4, 5, 3),
        ] {
            let cols: Vec<Vec<Option<u64>>> = (0..n_cols)
                .map(|_| {
                    (0..n_rows)
                        .map(|_| {
                            let v = next() % (domain + 1);
                            if v == domain {
                                None
                            } else {
                                Some(v)
                            }
                        })
                        .collect()
                })
                .collect();
            check_against_brute(cols);
        }
    }

    /// Neither the memory-bounded cache nor the partition kernel may change
    /// a single emitted FD or key — not even their order.
    #[test]
    fn threads_and_budget_leave_results_bit_identical() {
        let mut seed = 0x517C_C1B7_2722_0A95_u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for &(n_cols, n_rows, domain) in
            &[(3usize, 12usize, 2u64), (4, 16, 3), (5, 24, 3), (6, 20, 4)]
        {
            let cols: Vec<Vec<Option<u64>>> = (0..n_cols)
                .map(|_| {
                    (0..n_rows)
                        .map(|_| {
                            let v = next() % (domain + 1);
                            (v != domain).then_some(v)
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[Option<u64>]> = cols.iter().map(|c| c.as_slice()).collect();
            let seq = discover_intra(&refs, n_rows, &IntraOptions::default());
            for opts in [
                IntraOptions {
                    cache_budget: Some(256),
                    ..Default::default()
                },
                IntraOptions {
                    cache_budget: Some(1024),
                    ..Default::default()
                },
                IntraOptions {
                    error_only_kernel: false,
                    ..Default::default()
                },
                IntraOptions {
                    error_only_kernel: false,
                    cache_budget: Some(256),
                    ..Default::default()
                },
            ] {
                let got = discover_intra(&refs, n_rows, &opts);
                assert_eq!(got.fds, seq.fds, "FDs drifted under {opts:?}");
                assert_eq!(got.keys, seq.keys, "keys drifted under {opts:?}");
                assert_eq!(
                    got.stats.nodes_visited, seq.stats.nodes_visited,
                    "visited different nodes under {opts:?}"
                );
            }
        }
    }

    /// The tiered kernel must actually run error-only products (with early
    /// exits on invalid candidates) while the materializing oracle runs
    /// none — and both must emit identical results.
    #[test]
    fn tiered_kernel_counters_and_parity() {
        let mut seed = 0xA076_1D64_78BD_642Fu64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        // Mostly-random wide table: plenty of invalid candidates whose
        // product error overshoots the node bound → early exits.
        let cols: Vec<Vec<Option<u64>>> = (0..7)
            .map(|_| (0..48).map(|_| Some(next() % 4)).collect())
            .collect();
        let refs: Vec<&[Option<u64>]> = cols.iter().map(|c| c.as_slice()).collect();
        let tiered = discover_intra(&refs, 48, &IntraOptions::default());
        let mat = discover_intra(
            &refs,
            48,
            &IntraOptions {
                error_only_kernel: false,
                ..Default::default()
            },
        );
        assert_eq!(tiered.fds, mat.fds);
        assert_eq!(tiered.keys, mat.keys);
        assert!(tiered.stats.products_error_only > 0, "{:?}", tiered.stats);
        assert!(tiered.stats.early_exits > 0, "{:?}", tiered.stats);
        assert!(tiered.stats.summary_hits > 0, "{:?}", tiered.stats);
        assert_eq!(mat.stats.products_error_only, 0);
        assert_eq!(mat.stats.early_exits, 0);
        assert_eq!(mat.stats.summary_hits, 0);
        assert_eq!(mat.stats.products, mat.stats.products_materialized);
        // Fewer CSR materializations is the whole point.
        assert!(
            tiered.stats.products_materialized < mat.stats.products_materialized,
            "tiered {} vs materializing {}",
            tiered.stats.products_materialized,
            mat.stats.products_materialized
        );
    }

    #[test]
    fn tight_budget_reports_evictions_and_bounded_peak() {
        let cols: Vec<Vec<Option<u64>>> = (0..6u32)
            .map(|c| {
                (0..64u32)
                    .map(|r| {
                        Some(u64::from(
                            r.wrapping_mul(2654435761).rotate_left(c * 5 + 3) % 4,
                        ))
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[Option<u64>]> = cols.iter().map(|c| c.as_slice()).collect();
        let free = discover_intra(&refs, 64, &IntraOptions::default());
        let tight = discover_intra(
            &refs,
            64,
            &IntraOptions {
                cache_budget: Some(4096),
                ..Default::default()
            },
        );
        assert_eq!(free.fds, tight.fds);
        assert_eq!(free.keys, tight.keys);
        assert!(
            tight.stats.evictions > 0,
            "a 4 KiB budget on a 6-wide lattice must evict"
        );
        assert!(tight.stats.peak_resident_bytes <= free.stats.peak_resident_bytes);
        assert!(free.stats.peak_resident_bytes > 0);
    }

    #[test]
    fn paper_figure_7a_book_relation() {
        // R_book columns I(SBN), T(itle), P(rice) with Figure 6 data:
        // t20: (i1, t1, p1); t30: (i2, t2, p2); t50: (i2, t2, p2); t80: (i2, t2, ⊥)
        let isbn = [Some(1u64), Some(2), Some(2), Some(2)];
        let title = [Some(10u64), Some(20), Some(20), Some(20)];
        let price = [Some(100u64), Some(200), Some(200), None];
        let got = discover_intra(&[&isbn, &title, &price], 4, &IntraOptions::default());
        // ISBN → title holds (bold edge I→IT in Figure 7A).
        assert!(got.fds.contains(&IntraFd {
            lhs: AttrSet::single(0),
            rhs: 1
        }));
        // title → ISBN also holds on this fragment.
        assert!(got.fds.contains(&IntraFd {
            lhs: AttrSet::single(1),
            rhs: 0
        }));
        // ISBN → price does NOT hold (t80 lacks a price).
        assert!(!got.fds.contains(&IntraFd {
            lhs: AttrSet::single(0),
            rhs: 2
        }));
        // price → ISBN holds ({t30,t50} share ISBN; t20/t80 stripped).
        assert!(got.fds.contains(&IntraFd {
            lhs: AttrSet::single(2),
            rhs: 0
        }));
        // price → title holds as well.
        assert!(got.fds.contains(&IntraFd {
            lhs: AttrSet::single(2),
            rhs: 1
        }));
        // No attribute set is a key: t30 and t50 agree on all of I, T, P.
        assert!(got.keys.is_empty());
    }
}
