//! Property-based validation: on randomly generated small documents, the
//! partition-based discovery must agree with the brute-force
//! definition-level oracle (Definition 7 checked pair-by-pair).

use discoverxfd::bruteforce::brute_force;
use discoverxfd::interesting::{
    inter_fd_to_xfd, inter_key_to_key, intra_fd_to_xfd, intra_key_to_key,
};
use discoverxfd::xfd::discover_forest;
use discoverxfd::DiscoveryConfig;
use proptest::prelude::*;
use xfd_relation::{encode, EncodeConfig, Forest};
use xfd_schema::infer_schema;
use xfd_xml::builder::TreeWriter;
use xfd_xml::DataTree;

/// A random two-level document: stores with attributes and nested books.
#[derive(Debug, Clone)]
struct Doc {
    stores: Vec<Store>,
}

#[derive(Debug, Clone)]
struct Store {
    name: u8,
    books: Vec<Book>,
}

#[derive(Debug, Clone)]
struct Book {
    isbn: Option<u8>,
    title: Option<u8>,
    authors: Vec<u8>,
}

fn doc_strategy() -> impl Strategy<Value = Doc> {
    let book = (
        proptest::option::of(0u8..3),
        proptest::option::of(0u8..3),
        proptest::collection::vec(0u8..3, 0..3),
    )
        .prop_map(|(isbn, title, authors)| Book {
            isbn,
            title,
            authors,
        });
    let store = (0u8..2, proptest::collection::vec(book, 0..4))
        .prop_map(|(name, books)| Store { name, books });
    proptest::collection::vec(store, 1..4).prop_map(|stores| Doc { stores })
}

fn build(doc: &Doc) -> DataTree {
    let mut w = TreeWriter::new("w");
    for s in &doc.stores {
        w.open("store");
        w.leaf("name", &format!("n{}", s.name));
        for b in &s.books {
            w.open("book");
            if let Some(i) = b.isbn {
                w.leaf("isbn", &format!("i{i}"));
            }
            if let Some(t) = b.title {
                w.leaf("title", &format!("t{t}"));
            }
            for a in &b.authors {
                w.leaf("author", &format!("a{a}"));
            }
            w.close();
        }
        w.close();
    }
    w.finish()
}

fn discovery_strings(forest: &Forest, max_lhs: usize) -> (Vec<String>, Vec<String>) {
    let disc = discover_forest(forest, &DiscoveryConfig::default());
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

/// Three-level documents: states → stores → books, exercising grandparent
/// partition-target propagation.
fn build3(doc: &[(u8, Doc)]) -> DataTree {
    let mut w = TreeWriter::new("w");
    for (sname, inner) in doc {
        w.open("state");
        w.leaf("sn", &format!("s{sname}"));
        for s in &inner.stores {
            w.open("store");
            w.leaf("name", &format!("n{}", s.name));
            for b in &s.books {
                w.open("book");
                if let Some(i) = b.isbn {
                    w.leaf("isbn", &format!("i{i}"));
                }
                if let Some(t) = b.title {
                    w.leaf("title", &format!("t{t}"));
                }
                for a in &b.authors {
                    w.leaf("author", &format!("a{a}"));
                }
                w.close();
            }
            w.close();
        }
        w.close();
    }
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn discovery_matches_oracle(doc in doc_strategy()) {
        let tree = build(&doc);
        let schema = infer_schema(&tree);
        let forest = encode(&tree, &schema, &EncodeConfig::default());
        let max_lhs = 2;
        let oracle = brute_force(&forest, max_lhs);
        let (fds, keys) = discovery_strings(&forest, max_lhs);
        let ofds = oracle.fd_strings(&forest);
        let okeys = oracle.key_strings(&forest);
        prop_assert_eq!(&fds, &ofds, "FDs diverge on {:?}", doc);
        // Keys: soundness always; completeness for single-level keys
        // (inter keys are partition-target byproducts by design).
        for k in &keys {
            prop_assert!(okeys.contains(k), "unsound key {} on {:?}", k, doc);
        }
        for raw in oracle
            .keys
            .iter()
            .filter(|r| r.lhs_levels.iter().all(|&(rel, _)| rel == r.origin))
        {
            let s = inter_key_to_key(&forest, raw).to_string();
            prop_assert!(keys.contains(&s), "missed intra key {} on {:?}", s, doc);
        }
    }

    #[test]
    fn discovery_matches_oracle_three_levels(
        doc in proptest::collection::vec((0u8..2, doc_strategy()), 1..3)
    ) {
        let tree = build3(&doc);
        let schema = infer_schema(&tree);
        let forest = encode(&tree, &schema, &EncodeConfig::default());
        let max_lhs = 2;
        let oracle = brute_force(&forest, max_lhs);
        let (fds, _) = discovery_strings(&forest, max_lhs);
        let ofds = oracle.fd_strings(&forest);
        prop_assert_eq!(&fds, &ofds, "FDs diverge on {:?}", doc);
    }

    #[test]
    fn reported_redundancies_always_have_satisfied_fds(doc in doc_strategy()) {
        let tree = build(&doc);
        let report = discoverxfd::discover(&tree, &DiscoveryConfig::default());
        // Every redundancy cites an FD that the report also lists, and has
        // a positive magnitude.
        for r in &report.redundancies {
            prop_assert!(r.groups > 0);
            prop_assert!(r.redundant_values > 0);
            prop_assert!(
                report.fds.contains(&r.fd),
                "redundancy fd {} not among reported FDs", r.fd
            );
        }
    }
}
