//! Differential test of the resumable segment merge. Random sequences of
//! corpus mutations — add at the end, remove at the head or in the middle,
//! compact, re-add a document already present, add a document that changes
//! the schema — run against one corpus per encode configuration. After
//! every step the handle's incrementally merged forest must equal a fresh
//! full merge and the serial encoding of the grafted tree, and the
//! handle's report must equal `discover_collection` over the same
//! documents.

use std::fs;
use std::path::PathBuf;

use discoverxfd::{discover_collection, merge_collection, DiscoveryConfig, RunOutcome};
use proptest::prelude::*;
use xfd_corpus::{CorpusHandle, CorpusStore};
use xfd_relation::{
    build_partial, encode, forest_fingerprint, merge_partials, ComplexColumnMode, EncodeConfig,
    Forest, SegmentPartial, SetColumnMode,
};
use xfd_schema::SchemaMap;
use xfd_xml::{parse, DataTree, OrderMode};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfd-incr-merge-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The encode configurations under test: the default, value-class complex
/// columns, ordered value equality, and no set-valued columns.
fn configs() -> Vec<DiscoveryConfig> {
    [
        EncodeConfig::default(),
        EncodeConfig {
            complex_columns: ComplexColumnMode::ValueClass,
            ..EncodeConfig::default()
        },
        EncodeConfig {
            order: OrderMode::Ordered,
            complex_columns: ComplexColumnMode::ValueClass,
            ..EncodeConfig::default()
        },
        EncodeConfig {
            set_columns: SetColumnMode::None,
            ..EncodeConfig::default()
        },
    ]
    .into_iter()
    .map(|encode| DiscoveryConfig {
        encode,
        ..DiscoveryConfig::default()
    })
    .collect()
}

/// A document of the common shape: repeated books with correlated
/// columns, a complex `addr`, and an author set.
fn doc(seed: u64) -> String {
    let a = seed % 3;
    let b = seed % 5;
    format!(
        "<shop><name>S{a}</name><addr><city>C{b}</city></addr>\
         <book><i>{b}</i><t>T{a}</t><au>A{a}</au><au>A{b}</au></book>\
         <book><i>{}</i><t>T{a}</t><au>A{b}</au></book></shop>",
        seed % 7
    )
}

/// A document that widens the collection schema: a new element under the
/// shop, or a new document root altogether.
fn schema_changing_doc(seed: u64) -> String {
    if seed & 1 == 0 {
        format!(
            "<shop><name>S{}</name><owner><id>{seed}</id></owner>\
             <book><i>1</i><t>T1</t></book></shop>",
            seed % 3
        )
    } else {
        format!(
            "<depot><bin><n>{}</n></bin><bin><n>{seed}</n></bin></depot>",
            seed % 4
        )
    }
}

/// One mutation step: `(op, seed)`.
type Step = (u8, u64);

fn apply(handles: &mut [CorpusHandle], step: Step, next: &mut u64) {
    let (op, seed) = step;
    let name = format!("d{next}");
    *next += 1;
    let len = handles[0].len();
    match op {
        // Remove at the head or in the middle.
        1 if len > 0 => {
            let victim = if seed & 1 == 0 { 0 } else { len / 2 };
            let doc = handles[0].doc_names()[victim].to_string();
            for h in handles.iter_mut() {
                h.remove_doc(&doc).unwrap();
            }
        }
        2 => {
            for h in handles.iter_mut() {
                h.compact().unwrap();
            }
        }
        // Re-add a document whose digest is already present.
        3 if len > 0 => {
            let tree = handles[0].trees()[seed as usize % len].clone();
            for h in handles.iter_mut() {
                h.add_doc(&name, &tree).unwrap();
            }
        }
        4 => {
            let tree = parse(&schema_changing_doc(seed)).unwrap();
            for h in handles.iter_mut() {
                h.add_doc(&name, &tree).unwrap();
            }
        }
        // Add at the end (also the fallback when the corpus is empty).
        _ => {
            let tree = parse(&doc(seed)).unwrap();
            for h in handles.iter_mut() {
                h.add_doc(&name, &tree).unwrap();
            }
        }
    }
}

fn render_stable(r: &RunOutcome) -> String {
    let json = discoverxfd::report::render_json(r);
    json.split("\"total_ms\"").next().unwrap().to_string()
}

fn assert_forest_eq(a: &Forest, b: &Forest, what: &str) {
    assert_eq!(
        a.relations.len(),
        b.relations.len(),
        "{what}: relation count"
    );
    for (ra, rb) in a.relations.iter().zip(&b.relations) {
        assert_eq!(ra.name, rb.name, "{what}: relation name");
        assert_eq!(ra.parent, rb.parent, "{what}: parent of {}", ra.name);
        assert_eq!(
            ra.node_keys, rb.node_keys,
            "{what}: node keys of {}",
            ra.name
        );
        assert_eq!(ra.parent_of, rb.parent_of, "{what}: parents of {}", ra.name);
        assert_eq!(
            ra.columns.len(),
            rb.columns.len(),
            "{what}: columns of {}",
            ra.name
        );
        for (ca, cb) in ra.columns.iter().zip(&rb.columns) {
            assert_eq!(ca.name, cb.name, "{what}: column name");
            assert_eq!(ca.kind, cb.kind, "{what}: kind of {}.{}", ra.name, ca.name);
            assert_eq!(
                ca.cells, cb.cells,
                "{what}: cells of {}.{}",
                ra.name, ca.name
            );
        }
    }
    assert_eq!(
        a.dictionary.num_strings(),
        b.dictionary.num_strings(),
        "{what}: strings"
    );
    for id in 0..a.dictionary.num_strings() as u64 {
        assert_eq!(a.dictionary.resolve_str(id), b.dictionary.resolve_str(id));
    }
    assert_eq!(
        a.dictionary.num_multisets(),
        b.dictionary.num_multisets(),
        "{what}: multisets"
    );
    for id in 0..a.dictionary.num_multisets() as u64 {
        assert_eq!(
            a.dictionary.resolve_multiset(id),
            b.dictionary.resolve_multiset(id)
        );
    }
    assert_eq!(
        forest_fingerprint(a),
        forest_fingerprint(b),
        "{what}: fingerprint"
    );
}

/// The three-way forest check plus the report check, for one handle.
/// Returns how many segments the handle's merge touched.
fn check(h: &mut CorpusHandle, config: &DiscoveryConfig) -> usize {
    let plan = h.plan(config);
    let prepared = h.merged_forest(config, &plan);
    let trees: Vec<DataTree> = h.trees().into_iter().cloned().collect();
    let refs: Vec<&DataTree> = trees.iter().collect();

    let map = SchemaMap::new(plan.schema());
    let parts: Vec<SegmentPartial> = refs
        .iter()
        .map(|t| build_partial(t, &map, &config.encode))
        .collect();
    let part_refs: Vec<&SegmentPartial> = parts.iter().collect();
    let full = merge_partials(SchemaMap::new(plan.schema()), &config.encode, &part_refs);
    let serial = encode(&merge_collection(&refs), plan.schema(), &config.encode);
    assert_forest_eq(prepared.forest(), &full, "incremental vs full merge");
    assert_forest_eq(prepared.forest(), &serial, "incremental vs serial encode");

    let merged = prepared.segments_merged();
    let outcome = h.finish_discover(config, &prepared, |_| {}, None);
    let reference = discover_collection(&refs, config);
    assert_eq!(
        render_stable(&outcome),
        render_stable(&reference),
        "corpus report vs discover_collection under {:?}",
        config.encode
    );
    merged
}

fn run_steps(steps: &[Step], tag: &str) {
    let root = tmp(tag);
    let store = CorpusStore::new(&root);
    let configs = configs();
    let mut handles: Vec<CorpusHandle> = (0..configs.len())
        .map(|i| store.create(&format!("c{i}")).unwrap())
        .collect();
    let mut next = 0u64;
    let mut plans: Vec<u128> = vec![0; handles.len()];
    for &step in steps {
        let before: Vec<u128> = handles[0].doc_digests();
        apply(&mut handles, step, &mut next);
        for ((h, config), plan) in handles.iter_mut().zip(&configs).zip(&mut plans) {
            let plan_now = h.plan(config).plan_fp();
            let merged = check(h, config);
            // An append under an unchanged plan merges only the new segment.
            if step.0 == 0 && plan_now == *plan && h.doc_digests().starts_with(&before) {
                assert_eq!(merged, 1, "an append merged {merged} segments");
            }
            *plan = plan_now;
        }
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn appending_merges_only_the_new_segment() {
    let root = tmp("append");
    let store = CorpusStore::new(&root);
    let config = DiscoveryConfig::default();
    let mut h = store.create("c").unwrap();
    for i in 0..4 {
        h.add_doc(&format!("d{i}"), &parse(&doc(i)).unwrap())
            .unwrap();
    }
    assert_eq!(check(&mut h, &config), 4, "the first merge is cold");
    h.add_doc("d4", &parse(&doc(4)).unwrap()).unwrap();
    assert_eq!(check(&mut h, &config), 1, "an append merges one segment");
    h.remove_doc("d2").unwrap();
    assert_eq!(check(&mut h, &config), 2, "a removal re-merges the suffix");
    assert_eq!(
        check(&mut h, &config),
        0,
        "an unchanged corpus merges nothing"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn fixed_sequence_covers_every_step_kind() {
    run_steps(
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (3, 1),
            (1, 0),
            (0, 4),
            (1, 1),
            (2, 0),
            (4, 2),
            (0, 5),
            (4, 3),
            (1, 0),
        ],
        "fixed",
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn random_mutation_sequences_match_a_fresh_merge(
        steps in proptest::collection::vec((0u8..5, 0u64..40), 1..9),
        case in 0u32..u32::MAX,
    ) {
        run_steps(&steps, &format!("prop-{case}"));
    }
}
