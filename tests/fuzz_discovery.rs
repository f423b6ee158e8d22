//! Shape-agnostic fuzzing of the whole pipeline: random small trees of
//! arbitrary structure must never panic discovery, every reported fact
//! must survive independent re-verification, and the product's LHS
//! grouping (the partition kernels behind `analyze`, `verify_fd` and
//! `verify_key`) must equal the brute-force oracle's.

use discoverxfd::bruteforce::lhs_group_members;
use discoverxfd::redundancy::analyze;
use discoverxfd::verify::{verify_fd, verify_key, ClassRef, FdSpec, VerifyError};
use discoverxfd::xfd::discover_forest;
use discoverxfd_suite::prelude::*;
use proptest::prelude::*;
use xfd_partition::AttrSet;
use xfd_relation::{ColumnKind, Forest, RelId};
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

/// An optional leaf `e<label>` with a value from a domain of three.
fn maybe_leaf(label: u8) -> impl Strategy<Value = Option<(u8, Node)>> {
    proptest::option::of((0u8..3).prop_map(move |v| (label, Node::Leaf(v))))
}

/// A book-like `e2` with optional leaves `e0`, `e1` and `e3`.
fn book_strategy() -> impl Strategy<Value = (u8, Node)> {
    (maybe_leaf(0), maybe_leaf(1), maybe_leaf(3))
        .prop_map(|(a, b, c)| (2u8, Node::Inner([a, b, c].into_iter().flatten().collect())))
}

/// Regular nesting with gaps: a repeated store-like `e0` whose leaves `e1`
/// and `e3` are sometimes missing, over a repeated book-like `e2`. A store
/// without `e1` gives every book below it an ancestor-level ⊥. Each store
/// repeats one book up to three times, plus an optional odd one, so books
/// sharing a store often agree on everything and FDs through the ⊥ hold.
fn ancestor_gaps_strategy() -> impl Strategy<Value = Node> {
    let store = (
        maybe_leaf(1),
        maybe_leaf(3),
        book_strategy(),
        1usize..4,
        proptest::option::of(book_strategy()),
    )
        .prop_map(|(name, extra, book, copies, odd)| {
            let mut children: Vec<(u8, Node)> = [name, extra].into_iter().flatten().collect();
            for _ in 0..copies {
                children.push(book.clone());
            }
            children.extend(odd);
            (0u8, Node::Inner(children))
        });
    proptest::collection::vec(store, 2..5).prop_map(Node::Inner)
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

/// The oracle's groups of size ≥ 2, in its order.
fn oracle_groups(forest: &Forest, origin: RelId, levels: &[(RelId, AttrSet)]) -> Vec<Vec<u32>> {
    let mut groups = lhs_group_members(forest, origin, levels);
    groups.retain(|g| g.len() >= 2);
    groups
}

/// Definition 11's report entry from the oracle grouping: group count,
/// redundant values and up to three rendered examples.
fn oracle_redundancy(
    forest: &Forest,
    origin: RelId,
    levels: &[(RelId, AttrSet)],
    rhs: usize,
) -> (usize, usize, Vec<String>) {
    let groups = oracle_groups(forest, origin, levels);
    let col = &forest.relation(origin).columns[rhs];
    let mut examples: Vec<String> = Vec::new();
    for g in &groups {
        if examples.len() == 3 {
            break;
        }
        let Some(v) = col.cells[g[0] as usize] else {
            continue;
        };
        let rendered = match col.kind {
            ColumnKind::Simple => format!("{:?}", forest.dictionary.resolve_str(v)),
            ColumnKind::Complex => format!("#{v}"),
            ColumnKind::SetValue => {
                format!(
                    "a set of {} values",
                    forest.dictionary.resolve_multiset(v).len()
                )
            }
        };
        let entry = format!("{rendered} ×{}", g.len());
        if !examples.contains(&entry) {
            examples.push(entry);
        }
    }
    let redundant = groups.iter().map(|g| g.len() - 1).sum();
    (groups.len(), redundant, examples)
}

/// `verify_fd`'s witnesses from the oracle grouping: per group in order,
/// each later member whose RHS is ⊥ or differs from the first member's.
fn oracle_fd_witnesses(
    forest: &Forest,
    origin: RelId,
    levels: &[(RelId, AttrSet)],
    rhs: usize,
    max: usize,
) -> Vec<(u32, u32)> {
    let rel = forest.relation(origin);
    let cells = &rel.columns[rhs].cells;
    let mut out = Vec::new();
    for g in oracle_groups(forest, origin, levels) {
        let first = g[0] as usize;
        for &t in &g[1..] {
            if cells[first].is_none() || cells[first] != cells[t as usize] {
                out.push((rel.node_keys[first].0, rel.node_keys[t as usize].0));
            }
        }
    }
    out.truncate(max);
    out
}

/// `verify_key`'s witnesses from the oracle grouping: adjacent members of
/// each group, in order.
fn oracle_key_witnesses(
    forest: &Forest,
    origin: RelId,
    levels: &[(RelId, AttrSet)],
    max: usize,
) -> Vec<(u32, u32)> {
    let rel = forest.relation(origin);
    let mut out = Vec::new();
    for g in oracle_groups(forest, origin, levels) {
        for w in g.windows(2) {
            out.push((
                rel.node_keys[w[0] as usize].0,
                rel.node_keys[w[1] as usize].0,
            ));
        }
    }
    out.truncate(max);
    out
}

/// Regroup flat `(relation, column)` attributes into levels, keeping the
/// order in which relations first appear.
fn to_levels(attrs: &[(RelId, usize)]) -> Vec<(RelId, AttrSet)> {
    let mut levels: Vec<(RelId, AttrSet)> = Vec::new();
    for &(rel, col) in attrs {
        match levels.iter_mut().find(|(r, _)| *r == rel) {
            Some((_, set)) => *set = set.insert(col),
            None => levels.push((rel, AttrSet::single(col))),
        }
    }
    levels
}

/// Check `verify_fd` and `verify_key` on `found`'s class and RHS with the
/// LHS `attrs` (whose paths are `lhs`) against the oracle grouping.
fn check_verify(
    forest: &Forest,
    found: &Found,
    attrs: &[(RelId, usize)],
    lhs: &[Path],
) -> Result<(), TestCaseError> {
    const MAX: usize = 4;
    let Found {
        fd, origin, rhs, ..
    } = found;
    let (origin, rhs) = (*origin, *rhs);
    let levels = to_levels(attrs);
    let shown: Vec<String> = lhs.iter().map(Path::to_string).collect();
    let class = ClassRef::Path(fd.tuple_class.clone());
    let spec = FdSpec {
        lhs: lhs.to_vec(),
        rhs: fd.rhs.clone(),
        class: class.clone(),
    };
    let rep = verify_fd(forest, &spec, MAX).expect("fd verify");
    let want = oracle_fd_witnesses(forest, origin, &levels, rhs, MAX);
    let got: Vec<(u32, u32)> = rep
        .violations
        .iter()
        .map(|v| (v.node1.0, v.node2.0))
        .collect();
    prop_assert_eq!(&got, &want, "verify_fd witnesses for {:?} of {}", shown, fd);
    prop_assert_eq!(rep.holds, want.is_empty());
    let is_key = oracle_groups(forest, origin, &levels).is_empty();
    prop_assert_eq!(
        rep.lhs_is_key,
        is_key,
        "lhs_is_key for {:?} of {}",
        shown,
        fd
    );

    let key = verify_key(forest, &class, lhs, MAX).expect("key verify");
    let want = oracle_key_witnesses(forest, origin, &levels, MAX);
    let got: Vec<(u32, u32)> = key
        .violations
        .iter()
        .map(|v| (v.node1.0, v.node2.0))
        .collect();
    prop_assert_eq!(
        &got,
        &want,
        "verify_key witnesses for {:?} of {}",
        shown,
        fd
    );
    prop_assert_eq!(key.holds, is_key);
    Ok(())
}

/// An interesting FD the discovery reports, with its raw form.
struct Found {
    fd: Xfd,
    origin: RelId,
    /// The LHS as flat `(relation, column)` attributes, in `fd.lhs` order.
    attrs: Vec<(RelId, usize)>,
    rhs: usize,
}

/// Every interesting FD the discovery reports, in report order.
fn interesting_fds(forest: &Forest, disc: &discoverxfd::xfd::ForestDiscovery) -> Vec<Found> {
    use discoverxfd::interesting::{fd_is_interesting, inter_fd_to_xfd, intra_fd_to_xfd};
    let mut out = Vec::new();
    for rd in &disc.relations {
        if forest.relation(rd.rel).parent.is_none() {
            continue;
        }
        for fd in rd
            .fds
            .iter()
            .filter(|fd| fd_is_interesting(forest, rd.rel, fd.rhs))
        {
            let attrs = fd.lhs.iter().map(|a| (rd.rel, a)).collect();
            out.push(Found {
                fd: intra_fd_to_xfd(forest, rd.rel, fd),
                origin: rd.rel,
                attrs,
                rhs: fd.rhs,
            });
        }
    }
    for fd in disc
        .inter_fds
        .iter()
        .filter(|fd| fd_is_interesting(forest, fd.origin, fd.rhs))
    {
        let attrs = fd
            .lhs_levels
            .iter()
            .flat_map(|&(rel, set)| set.iter().map(move |a| (rel, a)))
            .collect();
        out.push(Found {
            fd: inter_fd_to_xfd(forest, fd),
            origin: fd.origin,
            attrs,
            rhs: fd.rhs,
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 120, ..ProptestConfig::default() })]

    #[test]
    fn kernel_grouping_matches_the_oracle(
        node in prop_oneof![node_strategy(), ancestor_gaps_strategy()]
    ) {
        let tree = build(&node);
        let cfg = DiscoveryConfig::default();
        let (_, forest) = discoverxfd::driver::encode_only(&tree, &cfg);
        let disc = discover_forest(&forest, &cfg);
        let fds = interesting_fds(&forest, &disc);

        // analyze: groups, redundant values and examples, in FD order.
        let got: Vec<(String, usize, usize, Vec<String>)> = analyze(&forest, &disc)
            .into_iter()
            .map(|r| (r.fd.to_string(), r.groups, r.redundant_values, r.examples))
            .collect();
        let mut want = Vec::new();
        for f in &fds {
            let (groups, redundant, examples) =
                oracle_redundancy(&forest, f.origin, &to_levels(&f.attrs), f.rhs);
            if groups > 0 {
                want.push((f.fd.to_string(), groups, redundant, examples));
            }
        }
        prop_assert_eq!(got, want, "analyze differs from the oracle on {:?}", node);

        // verify_fd / verify_key on every FD's LHS, and on each LHS with
        // one path dropped (mostly violated, so witnesses show).
        for f in fds.iter().take(30) {
            check_verify(&forest, f, &f.attrs, &f.fd.lhs)?;
            for drop in 0..f.attrs.len() {
                let mut fewer = f.attrs.clone();
                fewer.remove(drop);
                let mut lhs = f.fd.lhs.clone();
                lhs.remove(drop);
                check_verify(&forest, f, &fewer, &lhs)?;
            }
        }
    }

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
