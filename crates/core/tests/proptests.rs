//! Determinism properties of the lattice passes: intra-relation discovery
//! and the full forest pass must be bit-identical across thread counts and
//! partition-cache byte budgets.

use discoverxfd::intra::{discover_intra, IntraOptions};
use discoverxfd::xfd::discover_forest;
use discoverxfd::DiscoveryConfig;
use proptest::prelude::*;
use xfd_datagen as datagen;
use xfd_relation::{encode, EncodeConfig};
use xfd_schema::infer_schema;

/// A random table at maximum shape (5 columns × 24 rows) over a small
/// value domain with nulls; tests slice it down to a random `cols × rows`
/// sub-table so FDs, keys and deep lattice levels all occur.
fn table() -> impl Strategy<Value = Vec<Vec<Option<u64>>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![5 => (0u64..4).prop_map(Some), 1 => Just(None)],
            24usize..25,
        ),
        5usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Byte-budget eviction and the materializing kernel never change
    /// discovered FDs, keys, or the nodes visited.
    #[test]
    fn intra_parallel_and_budget_match_sequential(
        full in table(),
        n_cols in 2usize..6,
        n in 1usize..25,
    ) {
        let refs: Vec<&[Option<u64>]> = full[..n_cols].iter().map(|c| &c[..n]).collect();
        let seq = discover_intra(&refs, n, &IntraOptions::default());
        for opts in [
            IntraOptions { cache_budget: Some(512), ..Default::default() },
            IntraOptions { cache_budget: Some(2048), ..Default::default() },
            IntraOptions { error_only_kernel: false, ..Default::default() },
            IntraOptions { error_only_kernel: false, cache_budget: Some(512), ..Default::default() },
        ] {
            let got = discover_intra(&refs, n, &opts);
            prop_assert_eq!(&got.fds, &seq.fds, "FDs drifted under {:?}", opts);
            prop_assert_eq!(&got.keys, &seq.keys, "keys drifted under {:?}", opts);
            prop_assert_eq!(got.stats.nodes_visited, seq.stats.nodes_visited);
        }
    }

    /// Full forest discovery (inter-relation targets included) is
    /// identical, lattice work counters included, at every thread count,
    /// and result-identical under a byte budget, across random generated
    /// forests.
    #[test]
    fn forest_parallel_matches_sequential(which in 0u8..3, seed in 0u64..1000) {
        let tree = match which {
            0 => datagen::warehouse_scaled(&datagen::WarehouseSpec {
                states: 2,
                stores_per_state: 2,
                books_per_store: 4,
                seed,
                ..Default::default()
            }),
            1 => datagen::dblp_like(&datagen::DblpSpec {
                articles: 6,
                inproceedings: 4,
                seed,
                ..Default::default()
            }),
            _ => datagen::mondial_like(&datagen::MondialSpec {
                countries: 3,
                provinces: 2,
                cities: 2,
                seed,
            }),
        };
        let schema = infer_schema(&tree);
        let forest = encode(&tree, &schema, &EncodeConfig::default());
        let seq = discover_forest(&forest, &DiscoveryConfig::default());
        for (threads, cache_budget) in [(1, None), (2, None), (8, None), (3, Some(8192))] {
            let par = discover_forest(&forest, &DiscoveryConfig {
                threads,
                cache_budget,
                ..Default::default()
            });
            prop_assert_eq!(&par.inter_fds, &seq.inter_fds);
            prop_assert_eq!(&par.inter_keys, &seq.inter_keys);
            prop_assert_eq!(par.relations.len(), seq.relations.len());
            for (a, b) in seq.relations.iter().zip(par.relations.iter()) {
                prop_assert_eq!(a.rel, b.rel);
                prop_assert_eq!(&a.fds, &b.fds);
                prop_assert_eq!(&a.keys, &b.keys);
            }
            prop_assert_eq!(&par.target_stats, &seq.target_stats);
            if cache_budget.is_none() {
                prop_assert_eq!(&par.lattice_stats, &seq.lattice_stats, "threads {}", threads);
            }
        }
    }
}
