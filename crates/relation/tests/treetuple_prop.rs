//! Property tests for the `TreeTuple` segment codec: random trees round-trip
//! exactly, and random/mutated byte blocks never panic the decoder.

use proptest::prelude::*;
use xfd_hash::codec::{check_garbled, CodecError};
use xfd_relation::treetuple::{decode_tree, encode_tree, trees_equal};
use xfd_xml::{DataTree, NodeId};

/// Build a tree from a flat spec: each entry attaches a node to an already
/// existing one (`back` picks how far back in creation order), with a label
/// drawn from a small alphabet and an optional value from an open alphabet.
fn build_tree(root_label: &str, spec: &[(usize, u8, Option<String>)]) -> DataTree {
    let mut tree = DataTree::with_root(root_label);
    let mut nodes = vec![NodeId(0)];
    for (back, label_pick, value) in spec {
        let parent = nodes[nodes.len() - 1 - back % nodes.len()];
        let label = ["a", "b", "c", "item", "名前"][*label_pick as usize % 5];
        let node = tree.add_child(parent, label);
        if let Some(v) = value {
            tree.set_value(node, v);
        }
        nodes.push(node);
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn random_trees_round_trip(
        root in "[a-z]{1,8}",
        spec in proptest::collection::vec(
            (0usize..10_000, 0u8..255, proptest::option::of(".{0,12}")),
            0..64,
        ),
    ) {
        let tree = build_tree(&root, &spec);
        let bytes = encode_tree(&tree);
        let back = decode_tree(&bytes).expect("encoded tree must decode");
        prop_assert!(trees_equal(&tree, &back));
        // Node keys are positional, so re-encoding is byte-identical.
        prop_assert_eq!(encode_tree(&back), bytes);
    }

    #[test]
    fn random_segments_pass_the_garble_check(
        spec in proptest::collection::vec(
            (0usize..10_000, 0u8..255, proptest::option::of("[a-z]{0,4}")),
            0..16,
        ),
    ) {
        let bytes = encode_tree(&build_tree("r", &spec));
        prop_assert_eq!(check_garbled(&bytes, decode_tree), Ok(()));
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        // Errors are fine; panics and non-error garbage trees are not.
        if let Ok(tree) = decode_tree(&bytes) {
            prop_assert!(tree.node_count() >= 1);
        }
    }
}

#[test]
fn empty_segment_is_rejected() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"XTT1");
    bytes.extend_from_slice(&0u32.to_le_bytes()); // no strings
    bytes.extend_from_slice(&0u32.to_le_bytes()); // no nodes
    assert_eq!(
        decode_tree(&bytes).err(),
        Some(CodecError::BadValue("node count"))
    );
}
