//! Shape-agnostic fuzzing of the whole pipeline: random small trees of
//! arbitrary structure must never panic discovery, and every reported
//! fact must survive independent re-verification.

use discoverxfd::verify::{verify_fd, verify_key, ClassRef, FdSpec, VerifyError};
use discoverxfd_suite::prelude::*;
use proptest::prelude::*;
use xfd_xml::builder::TreeWriter;
use xfd_xml::DataTree;

#[derive(Debug, Clone)]
enum Node {
    Leaf(u8),
    Inner(Vec<(u8, Node)>),
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = (0u8..4).prop_map(Node::Leaf);
    leaf.prop_recursive(4, 28, 4, |inner| {
        proptest::collection::vec((0u8..3, inner), 0..4).prop_map(Node::Inner)
    })
}

fn build(node: &Node) -> DataTree {
    let mut w = TreeWriter::new("root");
    fn emit(w: &mut TreeWriter, label: u8, node: &Node) {
        match node {
            Node::Leaf(v) => {
                w.leaf(&format!("e{label}"), &format!("v{v}"));
            }
            Node::Inner(children) => {
                w.open(&format!("e{label}"));
                for (l, c) in children {
                    emit(w, *l, c);
                }
                w.close();
            }
        }
    }
    if let Node::Inner(children) = node {
        for (l, c) in children {
            emit(&mut w, *l, c);
        }
    }
    w.finish()
}

/// Re-verify an FD against the forest, resolving class-label ambiguity
/// (same labels at different depths) via the full pivot path.
fn reverifies(forest: &xfd_relation::Forest, fd: &Xfd) -> bool {
    let spec: FdSpec = fd.to_string().parse().expect("reparse");
    match verify_fd(forest, &spec, 1) {
        Ok(rep) => rep.holds,
        Err(VerifyError::AmbiguousClass(_)) => {
            let full = fd.to_string().replace(
                &format!("C_{}", discoverxfd::fd::class_name(&fd.tuple_class)),
                &format!("C_{}", fd.tuple_class),
            );
            let spec: FdSpec = full.parse().expect("full reparse");
            verify_fd(forest, &spec, 1).expect("full verify").holds
        }
        Err(e) => panic!("verify error on {fd}: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 120, ..ProptestConfig::default() })]

    #[test]
    fn discovery_is_sound_on_arbitrary_trees(node in node_strategy()) {
        let tree = build(&node);
        let cfg = DiscoveryConfig { max_lhs_size: Some(2), ..Default::default() };
        let report = discover(&tree, &cfg);
        let (_, forest) = discoverxfd::driver::encode_only(&tree, &cfg);
        for fd in report.fds.iter().take(25) {
            prop_assert!(reverifies(&forest, fd), "unsound FD {} on {:?}", fd, node);
        }
        for key in report.keys.iter().take(25) {
            let rep = verify_key(&forest, &ClassRef::Path(key.tuple_class.clone()), &key.lhs, 1)
                .expect("key verify");
            prop_assert!(rep.holds, "unsound key {} on {:?}", key, node);
        }
        for r in &report.redundancies {
            prop_assert!(r.groups >= 1);
            prop_assert!(r.redundant_values >= r.groups);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_arbitrary_trees(node in node_strategy()) {
        let tree = build(&node);
        let seq = discover(&tree, &DiscoveryConfig::default());
        let par = discover(&tree, &DiscoveryConfig { threads: 4, ..Default::default() });
        let s: Vec<String> = seq.fds.iter().map(|f| f.to_string()).collect();
        let p: Vec<String> = par.fds.iter().map(|f| f.to_string()).collect();
        prop_assert_eq!(s, p);
    }

    #[test]
    fn normalize_never_increases_redundancy(node in node_strategy()) {
        let tree = build(&node);
        let cfg = DiscoveryConfig::default();
        let before: usize =
            discover(&tree, &cfg).redundancies.iter().map(|r| r.redundant_values).sum();
        let (after_tree, rounds) = discoverxfd::normalize::normalize_fully(&tree, &cfg, 4);
        let after: usize =
            discover(&after_tree, &cfg).redundancies.iter().map(|r| r.redundant_values).sum();
        if !rounds.is_empty() {
            prop_assert!(after < before, "rounds ran but redundancy grew: {before} -> {after}");
        }
    }
}
