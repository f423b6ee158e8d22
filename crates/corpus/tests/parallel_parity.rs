//! The sharded, pooled corpus pipeline must be byte-identical — FDs, keys,
//! redundancies, work counters, rendered report — to a from-scratch
//! [`discover_collection`] over the same documents, at every thread count,
//! cold and warm, across incremental mutations.

use std::fs;
use std::path::PathBuf;

use discoverxfd::{discover_collection, DiscoveryConfig, RunOutcome};
use proptest::prelude::*;
use xfd_corpus::CorpusStore;
use xfd_xml::{parse, DataTree};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfd-par-parity-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Rendered report with wall-clock and memo counters dropped (everything
/// up to `"total_ms"`; the memo counters render after it for the same
/// reason). FDs, keys, redundancies, and lattice work counters remain.
fn render_stable(r: &RunOutcome) -> String {
    let json = discoverxfd::report::render_json(r);
    json.split("\"total_ms\"").next().unwrap().to_string()
}

fn config_for(threads: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        threads,
        ..DiscoveryConfig::default()
    }
}

/// A small corpus-worthy document: repeated `book` sets with correlated
/// columns (so FDs and redundancies actually exist) plus a varying branch.
fn doc(seed: u64) -> DataTree {
    let a = seed % 3;
    let b = seed % 5;
    let xml = format!(
        "<shop><name>S{a}</name><book><i>{b}</i><t>T{a}</t><p>{}</p></book>\
         <book><i>{b}</i><t>T{a}</t><p>{}</p></book></shop>",
        b * 10,
        (seed % 7) * 10,
    );
    parse(&xml).unwrap()
}

/// The report body — schema, FDs, keys, redundancies — without the stats
/// object, whose partition-cache work counters legitimately vary with the
/// intra-pass thread count.
fn render_report(r: &RunOutcome) -> String {
    let json = discoverxfd::report::render_json(r);
    json.split("\"stats\"").next().unwrap().to_string()
}

/// Cold + warm sharded discovery at `threads` must match the grafted
/// [`discover_collection`] run under the same configuration, byte for
/// byte including work counters. Returns the report body for cross-thread
/// comparison.
fn assert_parity(seeds: &[u64], threads: usize, tag: &str) -> String {
    let trees: Vec<DataTree> = seeds.iter().map(|&s| doc(s)).collect();
    let refs: Vec<&DataTree> = trees.iter().collect();
    let config = config_for(threads);
    let grafted = discover_collection(&refs, &config);
    let expect = render_stable(&grafted);

    let root = tmp(tag);
    let store = CorpusStore::new(&root);
    let mut c = store.create("c").unwrap();
    for (i, t) in trees.iter().enumerate() {
        c.add_doc(&format!("d{i}"), t).unwrap();
    }
    let cold = c.discover(&config);
    assert_eq!(
        render_stable(&cold),
        expect,
        "cold sharded discover (threads={threads}) diverged from discover_collection"
    );
    let warm = c.discover(&config);
    assert_eq!(
        render_stable(&warm),
        expect,
        "warm (forest-cached, memo-hit) discover (threads={threads}) diverged"
    );
    assert!(
        c.status().forest_cached,
        "repeat discover must leave the merged forest cached"
    );
    let _ = fs::remove_dir_all(&root);
    render_report(&cold)
}

#[test]
fn sharded_discovery_matches_collection_at_1_2_and_8_threads() {
    let seeds: Vec<u64> = (0..6).collect();
    let mut reports = Vec::new();
    for threads in [1, 2, 8] {
        reports.push(assert_parity(&seeds, threads, &format!("fixed-{threads}")));
    }
    // The discovered FDs/keys/redundancies are thread-count invariant.
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
}

#[test]
fn incremental_mutations_stay_byte_identical_under_parallelism() {
    let root = tmp("incr");
    let store = CorpusStore::new(&root);
    let mut c = store.create("c").unwrap();
    let config = config_for(8);
    for i in 0..5u64 {
        c.add_doc(&format!("d{i}"), &doc(i)).unwrap();
    }
    c.discover(&config);
    // Mutate: remove one, add two (one a duplicate of an existing doc).
    c.remove_doc("d2").unwrap();
    c.add_doc("d5", &doc(5)).unwrap();
    c.add_doc("d0-bis", &doc(0)).unwrap();
    let incremental = c.discover(&config);

    let trees: Vec<DataTree> = [0, 1, 3, 4, 5, 0].iter().map(|&s| doc(s)).collect();
    let refs: Vec<&DataTree> = trees.iter().collect();
    let scratch = discover_collection(&refs, &config);
    assert_eq!(render_stable(&incremental), render_stable(&scratch));
    assert!(
        c.status().memo_hits > 0,
        "warm incremental discover must replay some relation passes"
    );
    let _ = fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random small corpora: parity across thread counts, including the
    /// empty corpus and duplicated documents.
    #[test]
    fn random_corpora_are_thread_count_invariant(
        seeds in proptest::collection::vec(0u64..20, 0..5),
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        case in 0u32..u32::MAX,
    ) {
        assert_parity(&seeds, threads, &format!("prop-{case}"));
    }
}
