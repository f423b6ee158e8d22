//! `DiscoverXFD` (Figure 9): bottom-up traversal of the relation forest,
//! discovering intra-relation FDs/keys per relation and inter-relation
//! FDs/keys by propagating partition targets from child relations to their
//! ancestors.

use std::collections::HashMap;

use xfd_partition::{AttrSet, GroupMap, Partition, Tuple};
use xfd_relation::{Forest, RelId};

use crate::config::DiscoveryConfig;
use crate::intra::{IntraOptions, RunStats};
use crate::lattice::{discover_levels, IntraFd};
use crate::target::{create_target_from_base, update_target, CreateOutcome, PartitionTarget};

/// A discovered inter-relation FD, in raw (relation, attribute) form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawInterFd {
    /// Relation of the tuple class the FD is about.
    pub origin: RelId,
    /// RHS column in the origin relation.
    pub rhs: usize,
    /// LHS per level: `(relation, attributes)`, origin first, then
    /// successively higher ancestors.
    pub lhs_levels: Vec<(RelId, AttrSet)>,
}

/// A discovered inter-relation XML Key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawInterKey {
    /// Relation of the tuple class.
    pub origin: RelId,
    /// LHS per level, origin first.
    pub lhs_levels: Vec<(RelId, AttrSet)>,
}

/// Per-relation intra results.
#[derive(Debug, Clone)]
pub struct RelationDiscovery {
    /// The relation.
    pub rel: RelId,
    /// Minimal intra-relation FDs (attribute indices).
    pub fds: Vec<IntraFd>,
    /// Minimal intra-relation keys.
    pub keys: Vec<AttrSet>,
}

/// Counters specific to the inter-relation machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TargetStats {
    /// Partition targets created from unsatisfied edges.
    pub created: usize,
    /// Targets propagated to a parent relation.
    pub propagated: usize,
    /// Targets dropped because a conflicting pair collapsed.
    pub dropped_impossible: usize,
    /// Targets dropped by the pair/target caps.
    pub dropped_overflow: usize,
}

/// Full output of the forest traversal.
#[derive(Debug)]
pub struct ForestDiscovery {
    /// Intra results per relation (same order as `forest.relations`).
    pub relations: Vec<RelationDiscovery>,
    /// Inter-relation FDs.
    pub inter_fds: Vec<RawInterFd>,
    /// Inter-relation keys.
    pub inter_keys: Vec<RawInterKey>,
    /// Lattice work counters, summed over relations.
    pub lattice_stats: RunStats,
    /// Partition-target counters.
    pub target_stats: TargetStats,
}

/// Everything one relation's pass produces (kept local so relation passes
/// can run on worker threads, and cloneable so `crate::memo` can cache it).
#[derive(Clone)]
pub(crate) struct RelationOutput {
    pub(crate) local: RelationDiscovery,
    pub(crate) inter_fds: Vec<RawInterFd>,
    pub(crate) inter_keys: Vec<RawInterKey>,
    pub(crate) lattice: RunStats,
    pub(crate) targets: TargetStats,
    pub(crate) outgoing: Vec<PartitionTarget>,
}

/// Run `DiscoverXFD` over an encoded forest: the wave scheduler of
/// [`crate::memo`] with no memo, no pass runner and no progress callback.
/// With [`DiscoveryConfig::threads`] above 1, the relations of one wave
/// (same depth in the relation tree) run on a worker pool; results merge
/// in relation order, so the output is identical at any thread count.
pub fn discover_forest(forest: &Forest, config: &DiscoveryConfig) -> ForestDiscovery {
    crate::memo::schedule_waves(forest, config, None, |_| {}, None)
}

/// Group relations by depth in the relation tree into processing waves
/// (deepest wave last in the returned vector; callers iterate in reverse).
/// Relations within a wave never feed each other. Depths are derived by
/// walking each relation's parent chain, so the computation holds for any
/// relation order (a child may be listed before its parent).
pub(crate) fn relation_waves(forest: &Forest) -> (HashMap<RelId, usize>, Vec<Vec<RelId>>) {
    let mut depth: HashMap<RelId, usize> = HashMap::new();
    for rel in &forest.relations {
        let mut d = 0usize;
        let mut cursor = rel.parent;
        while let Some(p) = cursor {
            if let Some(&known) = depth.get(&p) {
                d += known + 1;
                break;
            }
            d += 1;
            cursor = forest.relation(p).parent;
        }
        depth.insert(rel.id, d);
    }
    let max_depth = depth.values().copied().max().unwrap_or(0);
    let mut waves: Vec<Vec<RelId>> = vec![Vec::new(); max_depth + 1];
    for rel_id in forest.bottom_up() {
        waves[depth[&rel_id]].push(rel_id);
    }
    (depth, waves)
}

/// Canonical sorted attribute list of an LHS spanning levels.
fn attr_list(levels: &[(RelId, AttrSet)]) -> Vec<(u32, usize)> {
    let mut v: Vec<(u32, usize)> = levels
        .iter()
        .flat_map(|&(r, s)| s.iter().map(move |a| (r.0, a)))
        .collect();
    v.sort_unstable();
    v
}

fn is_sub(a: &[(u32, usize)], b: &[(u32, usize)]) -> bool {
    a.iter().all(|x| b.contains(x))
}

/// Drop inter-relation FDs/keys whose LHS is a strict superset of another
/// discovered one with the same origin (and RHS, for FDs). Two partition
/// targets with comparable origin LHSs can both complete at an ancestor,
/// yielding a non-minimal cousin; the paper leaves this implicit.
/// Canonicalized LHS of one inter-relation FD: `(origin, rhs, attrs)`.
type FdSignature = (RelId, usize, Vec<(u32, usize)>);

pub(crate) fn minimize_inter(out: &mut ForestDiscovery) {
    let fd_lists: Vec<FdSignature> = out
        .inter_fds
        .iter()
        .map(|fd| (fd.origin, fd.rhs, attr_list(&fd.lhs_levels)))
        .collect();
    let mut keep_fd = vec![true; fd_lists.len()];
    for i in 0..fd_lists.len() {
        for j in 0..fd_lists.len() {
            if i == j || !keep_fd[i] {
                continue;
            }
            let (oi, ri, ref li) = fd_lists[i];
            let (oj, rj, ref lj) = fd_lists[j];
            if oi == oj
                && ri == rj
                && is_sub(lj, li)
                && (lj.len() < li.len() || j < i)
                && keep_fd[j]
            {
                keep_fd[i] = false;
            }
        }
    }
    let mut it = keep_fd.iter();
    out.inter_fds
        .retain(|_| *it.next().expect("keep mask aligned"));

    let key_lists: Vec<(RelId, Vec<(u32, usize)>)> = out
        .inter_keys
        .iter()
        .map(|k| (k.origin, attr_list(&k.lhs_levels)))
        .collect();
    let mut keep_key = vec![true; key_lists.len()];
    for i in 0..key_lists.len() {
        for j in 0..key_lists.len() {
            if i == j || !keep_key[i] {
                continue;
            }
            let (oi, ref li) = key_lists[i];
            let (oj, ref lj) = key_lists[j];
            if oi == oj && is_sub(lj, li) && (lj.len() < li.len() || j < i) && keep_key[j] {
                keep_key[i] = false;
            }
        }
    }
    let mut it = keep_key.iter();
    out.inter_keys
        .retain(|_| *it.next().expect("keep mask aligned"));
}

/// Process one relation: intra discovery, partition-target checks, target
/// creation. Returns the targets bound for the parent relation (pairs in
/// the parent's tuple space).
pub(crate) fn process_relation(
    forest: &Forest,
    rel_id: RelId,
    incoming: Vec<PartitionTarget>,
    config: &DiscoveryConfig,
) -> RelationOutput {
    let rel = forest.relation(rel_id);
    // A 0/1-tuple relation (always including the root) has the empty set as
    // key and no checkable FDs. Incoming targets cannot exist (their pairs
    // would have collapsed on the way in).
    debug_assert!(rel.n_tuples() > 1 || incoming.is_empty());
    let mut targets = TargetContext::new(forest, rel_id, incoming, config);
    let columns: Vec<&[Option<u64>]> = rel.columns.iter().map(|c| c.cells.as_slice()).collect();
    let opts = IntraOptions {
        max_lhs: config.lhs_bound(),
        prune: config.prune,
        // candidateLHS2: rule 2 off (an intra-non-minimal edge can still
        // seed a minimal inter-relation FD).
        use_rule2: false,
        empty_lhs: config.empty_lhs,
        cache_budget: config.cache_budget,
        ..IntraOptions::default()
    };
    let local = discover_levels(&columns, rel.n_tuples(), &opts, Some(&mut targets));
    RelationOutput {
        local: RelationDiscovery {
            rel: rel_id,
            fds: local.fds,
            keys: local.keys,
        },
        inter_fds: targets.inter_fds,
        inter_keys: targets.inter_keys,
        lattice: local.stats,
        targets: targets.stats,
        outgoing: targets.outgoing,
    }
}

/// The inter-relation side of one relation pass (Figure 9 beyond Figure
/// 8), driven by [`discover_levels`] at each lattice node: incoming
/// partition targets are checked against the node partition, and failing
/// edges become outgoing targets for the parent relation.
pub(crate) struct TargetContext<'a> {
    rel_id: RelId,
    parent_of: &'a [Tuple],
    incoming: Vec<PartitionTarget>,
    /// Per incoming target: this relation's set-valued column that
    /// aggregates the target's origin subtree, if any (see [`Self::new`]).
    excluded: Vec<Option<usize>>,
    /// The relation has a parent and inter-relation discovery is on:
    /// failing edges and partially separated targets move up.
    propagate: bool,
    max_partition_targets: usize,
    /// Lazily built tuple → group maps of the single-attribute *base*
    /// partitions: a failing edge's partition target is derived from
    /// `Π_{A_L}` plus the RHS base map (see `create_target_from_base`).
    rhs_maps: Vec<Option<GroupMap>>,
    inter_fds: Vec<RawInterFd>,
    inter_keys: Vec<RawInterKey>,
    stats: TargetStats,
    outgoing: Vec<PartitionTarget>,
}

impl<'a> TargetContext<'a> {
    fn new(
        forest: &'a Forest,
        rel_id: RelId,
        incoming: Vec<PartitionTarget>,
        config: &DiscoveryConfig,
    ) -> Self {
        let rel = forest.relation(rel_id);
        // Self-reference guard: an incoming target that originated below
        // child relation `c` must not have its LHS extended with this
        // relation's set-valued column aggregating `c` — that cell
        // *contains* the very tuples being compared (and would render as a
        // degenerate path).
        let excluded = incoming
            .iter()
            .map(|pt| {
                let mut cur = pt.origin;
                loop {
                    let r = forest.relation(cur);
                    match r.parent {
                        Some(p) if p == rel_id => {
                            return rel.columns.iter().position(|col| col.elem == r.pivot);
                        }
                        Some(p) => cur = p,
                        None => return None,
                    }
                }
            })
            .collect();
        let mut ctx = TargetContext {
            rel_id,
            parent_of: &rel.parent_of,
            incoming,
            excluded,
            propagate: rel.parent.is_some() && config.inter_relation,
            max_partition_targets: config.max_partition_targets,
            rhs_maps: Vec::new(),
            inter_fds: Vec::new(),
            inter_keys: Vec::new(),
            stats: TargetStats::default(),
            outgoing: Vec::new(),
        };
        // The paper's lines 8–10: every incoming target also propagates with
        // no local attributes (Π_∅ satisfies nothing), letting higher
        // ancestors satisfy it alone.
        if ctx.propagate {
            for i in 0..ctx.incoming.len() {
                let pt = &ctx.incoming[i];
                let up = update_target(
                    pt,
                    rel_id,
                    AttrSet::empty(),
                    pt.fd_target.clone(),
                    pt.key_target.clone(),
                    ctx.parent_of,
                );
                ctx.push_update(up);
            }
        }
        ctx
    }

    /// Incoming targets ride on this relation: every node builds its full
    /// partition to check them.
    pub(crate) fn has_incoming(&self) -> bool {
        !self.incoming.is_empty()
    }

    /// Failing edges become outgoing targets.
    pub(crate) fn propagates(&self) -> bool {
        self.propagate
    }

    fn push_update(&mut self, up: Option<PartitionTarget>) {
        match up {
            Some(up) => {
                self.stats.propagated += 1;
                self.outgoing.push(up);
            }
            None => self.stats.dropped_impossible += 1,
        }
    }

    fn push_created(&mut self, outcome: CreateOutcome) {
        match outcome {
            CreateOutcome::Target(pt) => {
                self.stats.created += 1;
                self.outgoing.push(*pt);
            }
            CreateOutcome::Impossible => self.stats.dropped_impossible += 1,
            CreateOutcome::Overflow => self.stats.dropped_overflow += 1,
        }
    }

    /// Figure 9 lines 18–25 (with the Key/FD branches un-swapped, see
    /// DESIGN.md): a local key satisfies every FD target; the key target is
    /// satisfied exactly when still valid.
    pub(crate) fn key_found(&mut self, a_set: AttrSet) {
        for (i, pt) in self.incoming.iter_mut().enumerate() {
            if self.excluded[i].is_some_and(|c| a_set.contains(c)) {
                continue;
            }
            emit_for_satisfying_set(
                pt,
                self.rel_id,
                a_set,
                pt.key_target.is_some(),
                &mut self.inter_fds,
                &mut self.inter_keys,
            );
        }
    }

    /// Figure 9 lines 26–33: check incoming targets against the non-key
    /// node partition `pa = Π_{a_set}`.
    pub(crate) fn check_incoming(&mut self, a_set: AttrSet, pa: &Partition) {
        if self.incoming.is_empty() {
            return;
        }
        let gm = GroupMap::new(pa);
        for i in 0..self.incoming.len() {
            if self.excluded[i].is_some_and(|c| a_set.contains(c)) {
                continue;
            }
            let pt = &mut self.incoming[i];
            if pt.fd_target.satisfied_by(&gm) {
                let key_sat = pt
                    .key_target
                    .as_ref()
                    .is_some_and(|kt| kt.satisfied_by(&gm));
                emit_for_satisfying_set(
                    pt,
                    self.rel_id,
                    a_set,
                    key_sat,
                    &mut self.inter_fds,
                    &mut self.inter_keys,
                );
            } else if self.propagate && !a_set.is_empty() {
                let remaining = pt.fd_target.unsatisfied_under(&gm);
                if remaining.len() < pt.fd_target.len() {
                    // Π_A separated some pairs: propagate the extension.
                    let rem_key = pt.key_target.as_ref().map(|kt| kt.unsatisfied_under(&gm));
                    let up =
                        update_target(pt, self.rel_id, a_set, remaining, rem_key, self.parent_of);
                    self.push_update(up);
                }
            }
        }
    }

    /// Figure 9 lines 34–37: the failing edge `al → rhs` (`pl = Π_{al}`)
    /// becomes a target, keyed by the RHS base partition `base = Π_{rhs}`
    /// rather than the node partition (see `create_target_from_base`).
    pub(crate) fn edge_failed_from_base(
        &mut self,
        rhs: usize,
        al: AttrSet,
        pl: &Partition,
        base: &Partition,
    ) {
        if self.rhs_maps.len() <= rhs {
            self.rhs_maps.resize_with(rhs + 1, || None);
        }
        let gm = self.rhs_maps[rhs].get_or_insert_with(|| GroupMap::new(base));
        let outcome = create_target_from_base(
            self.rel_id,
            rhs,
            al,
            pl,
            gm,
            self.parent_of,
            self.max_partition_targets,
        );
        self.push_created(outcome);
    }
}

/// Emit the inter-relation FD or Key completed by attribute set `a_set` of
/// relation `rel_id` satisfying target `pt`, with per-target minimality
/// (skip if a recorded subset already satisfied it).
fn emit_for_satisfying_set(
    pt: &mut PartitionTarget,
    rel_id: RelId,
    a_set: AttrSet,
    key_satisfied: bool,
    inter_fds: &mut Vec<RawInterFd>,
    inter_keys: &mut Vec<RawInterKey>,
) {
    let fd_covered = pt.satisfied_fd.iter().any(|b| b.is_subset_of(a_set));
    if key_satisfied {
        let key_covered = pt.satisfied_key.iter().any(|b| b.is_subset_of(a_set));
        if !key_covered {
            let mut lhs_levels = pt.lhs_levels.clone();
            if !a_set.is_empty() {
                lhs_levels.push((rel_id, a_set));
            }
            inter_keys.push(RawInterKey {
                origin: pt.origin,
                lhs_levels,
            });
            pt.satisfied_key.push(a_set);
        }
        if !fd_covered {
            pt.satisfied_fd.push(a_set);
        }
    } else if !fd_covered {
        let mut lhs_levels = pt.lhs_levels.clone();
        if !a_set.is_empty() {
            lhs_levels.push((rel_id, a_set));
        }
        inter_fds.push(RawInterFd {
            origin: pt.origin,
            rhs: pt.rhs,
            lhs_levels,
        });
        pt.satisfied_fd.push(a_set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd_relation::{encode, EncodeConfig};
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    fn run(xml: &str) -> (Forest, ForestDiscovery) {
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        let forest = encode(&t, &schema, &EncodeConfig::default());
        let disc = discover_forest(&forest, &DiscoveryConfig::default());
        (forest, disc)
    }

    /// Paper FD 2 on a two-level document: books under stores, price
    /// determined by (store name, ISBN) but not by ISBN alone.
    #[test]
    fn finds_the_papers_inter_relation_fd() {
        let xml = "<w>\
            <store><name>Borders</name>\
              <book><isbn>1</isbn><price>10</price></book>\
              <book><isbn>2</isbn><price>20</price></book></store>\
            <store><name>Borders</name>\
              <book><isbn>1</isbn><price>10</price></book></store>\
            <store><name>WHSmith</name>\
              <book><isbn>1</isbn><price>12</price></book></store>\
            </w>";
        let (forest, disc) = run(xml);
        let book = forest
            .relation_by_path(&"/w/store/book".parse().unwrap())
            .unwrap();
        let store = forest
            .relation_by_path(&"/w/store".parse().unwrap())
            .unwrap();
        // {./isbn} → ./price w.r.t. C_book fails (prices 10 vs 12)…
        let book_rel = forest.relation(book);
        let isbn = book_rel
            .column_by_rel_path(&"./isbn".parse().unwrap())
            .unwrap();
        let price = book_rel
            .column_by_rel_path(&"./price".parse().unwrap())
            .unwrap();
        let book_disc = &disc.relations[book.index()];
        assert!(!book_disc
            .fds
            .iter()
            .any(|fd| fd.rhs == price && fd.lhs == AttrSet::single(isbn)));
        // …but {../name, ./isbn} → ./price holds as an inter-relation FD.
        let store_rel = forest.relation(store);
        let name = store_rel
            .column_by_rel_path(&"./name".parse().unwrap())
            .unwrap();
        let found = disc.inter_fds.iter().any(|fd| {
            fd.origin == book
                && fd.rhs == price
                && fd
                    .lhs_levels
                    .iter()
                    .any(|&(r, a)| r == book && a.contains(isbn))
                && fd
                    .lhs_levels
                    .iter()
                    .any(|&(r, a)| r == store && a.contains(name))
        });
        assert!(found, "missing FD2-style inter FD: {:?}", disc.inter_fds);
    }

    #[test]
    fn intra_fds_found_per_relation() {
        let xml = "<w>\
            <book><isbn>1</isbn><title>A</title></book>\
            <book><isbn>1</isbn><title>A</title></book>\
            <book><isbn>2</isbn><title>B</title></book>\
            </w>";
        let (forest, disc) = run(xml);
        let book = forest
            .relation_by_path(&"/w/book".parse().unwrap())
            .unwrap();
        let rel = forest.relation(book);
        let isbn = rel.column_by_rel_path(&"./isbn".parse().unwrap()).unwrap();
        let title = rel.column_by_rel_path(&"./title".parse().unwrap()).unwrap();
        let fds = &disc.relations[book.index()].fds;
        assert!(fds.contains(&IntraFd {
            lhs: AttrSet::single(isbn),
            rhs: title
        }));
        assert!(fds.contains(&IntraFd {
            lhs: AttrSet::single(title),
            rhs: isbn
        }));
    }

    #[test]
    fn intra_keys_found_per_relation() {
        let xml = "<w>\
            <book><isbn>1</isbn><title>A</title></book>\
            <book><isbn>2</isbn><title>A</title></book>\
            </w>";
        let (forest, disc) = run(xml);
        let book = forest
            .relation_by_path(&"/w/book".parse().unwrap())
            .unwrap();
        let rel = forest.relation(book);
        let isbn = rel.column_by_rel_path(&"./isbn".parse().unwrap()).unwrap();
        let keys = &disc.relations[book.index()].keys;
        assert!(keys.contains(&AttrSet::single(isbn)));
    }

    /// An inter-relation key: (store name, isbn) identifies books. The
    /// local pair (isbn, price) must not itself be unique, otherwise the
    /// key node absorbs the edge and no partition target is created (a
    /// deliberate property of Figure 8 line 11 — such missed keys can
    /// never indicate redundancy, see DESIGN.md).
    #[test]
    fn finds_inter_relation_keys() {
        let xml = "<w>\
            <store><name>X</name>\
              <book><isbn>1</isbn><price>10</price></book>\
              <book><isbn>2</isbn><price>20</price></book></store>\
            <store><name>Y</name>\
              <book><isbn>1</isbn><price>10</price></book></store>\
            <store><name>Z</name>\
              <book><isbn>1</isbn><price>12</price></book></store>\
            </w>";
        let (forest, disc) = run(xml);
        let book = forest
            .relation_by_path(&"/w/store/book".parse().unwrap())
            .unwrap();
        assert!(
            disc.inter_keys.iter().any(|k| k.origin == book),
            "expected an inter-relation key for C_book: {:?}",
            disc.inter_keys
        );
    }

    #[test]
    fn inter_relation_can_be_disabled() {
        let xml = "<w>\
            <store><name>A</name><book><isbn>1</isbn><price>10</price></book>\
              <book><isbn>2</isbn><price>11</price></book></store>\
            <store><name>B</name><book><isbn>1</isbn><price>12</price></book></store>\
            </w>";
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        let forest = encode(&t, &schema, &EncodeConfig::default());
        let config = DiscoveryConfig {
            inter_relation: false,
            ..Default::default()
        };
        let disc = discover_forest(&forest, &config);
        assert!(disc.inter_fds.is_empty());
        assert!(disc.inter_keys.is_empty());
        assert_eq!(disc.target_stats.created, 0);
    }

    /// FD 3: ISBN determines the *set* of authors, via the set-valued
    /// column — undiscoverable under the flat notions.
    #[test]
    fn set_element_fd_is_discovered() {
        let xml = "<w>\
            <book><isbn>1</isbn><a>R</a><a>G</a></book>\
            <book><isbn>1</isbn><a>G</a><a>R</a></book>\
            <book><isbn>2</isbn><a>R</a></book>\
            </w>";
        let (forest, disc) = run(xml);
        let book = forest
            .relation_by_path(&"/w/book".parse().unwrap())
            .unwrap();
        let rel = forest.relation(book);
        let isbn = rel.column_by_rel_path(&"./isbn".parse().unwrap()).unwrap();
        let a_set = rel.column_by_rel_path(&"./a".parse().unwrap()).unwrap();
        let fds = &disc.relations[book.index()].fds;
        assert!(
            fds.contains(&IntraFd {
                lhs: AttrSet::single(isbn),
                rhs: a_set
            }),
            "FD 3 (isbn → author set) missing: {fds:?}"
        );
    }

    #[test]
    fn root_relation_reports_trivial_key_only() {
        let (forest, disc) = run("<w><b><x>1</x></b><b><x>2</x></b></w>");
        let root = &disc.relations[forest.root().index()];
        assert_eq!(root.keys, vec![AttrSet::empty()]);
        assert!(root.fds.is_empty());
    }

    #[test]
    fn minimize_inter_drops_supersets_and_duplicates() {
        let fd = |attrs: &[(u32, usize)]| RawInterFd {
            origin: RelId(3),
            rhs: 0,
            lhs_levels: attrs
                .iter()
                .map(|&(r, a)| (RelId(r), AttrSet::single(a)))
                .collect(),
        };
        let mut disc = ForestDiscovery {
            relations: Vec::new(),
            inter_fds: vec![
                fd(&[(3, 1), (2, 0)]), // {b1, s0}
                fd(&[(2, 0)]),         // {s0} ⊂ first → first dropped
                fd(&[(3, 1), (2, 0)]), // duplicate of first → dropped
                fd(&[(3, 2), (2, 1)]), // incomparable → kept
            ],
            inter_keys: vec![
                RawInterKey {
                    origin: RelId(3),
                    lhs_levels: vec![(RelId(2), AttrSet::single(0))],
                },
                RawInterKey {
                    origin: RelId(3),
                    lhs_levels: vec![
                        (RelId(3), AttrSet::single(1)),
                        (RelId(2), AttrSet::single(0)),
                    ],
                },
            ],
            lattice_stats: RunStats::default(),
            target_stats: TargetStats::default(),
        };
        minimize_inter(&mut disc);
        assert_eq!(disc.inter_fds.len(), 2, "{:?}", disc.inter_fds);
        assert!(disc.inter_fds.contains(&fd(&[(2, 0)])));
        assert!(disc.inter_fds.contains(&fd(&[(3, 2), (2, 1)])));
        assert_eq!(disc.inter_keys.len(), 1, "superset key dropped");
    }

    #[test]
    fn attr_list_is_canonical() {
        let levels = vec![
            (RelId(3), AttrSet::from_iter([2, 0])),
            (RelId(1), AttrSet::single(5)),
        ];
        assert_eq!(attr_list(&levels), vec![(1, 5), (3, 0), (3, 2)]);
    }

    /// Different RHS must never cross-minimize.
    #[test]
    fn minimize_inter_respects_rhs() {
        let mut disc = ForestDiscovery {
            relations: Vec::new(),
            inter_fds: vec![
                RawInterFd {
                    origin: RelId(3),
                    rhs: 0,
                    lhs_levels: vec![(RelId(2), AttrSet::single(0))],
                },
                RawInterFd {
                    origin: RelId(3),
                    rhs: 1,
                    lhs_levels: vec![
                        (RelId(3), AttrSet::single(2)),
                        (RelId(2), AttrSet::single(0)),
                    ],
                },
            ],
            inter_keys: Vec::new(),
            lattice_stats: RunStats::default(),
            target_stats: TargetStats::default(),
        };
        minimize_inter(&mut disc);
        assert_eq!(disc.inter_fds.len(), 2);
    }

    /// Any thread count must produce byte-identical results, work counters
    /// included.
    #[test]
    fn parallel_equals_sequential() {
        let xml = "<w>\
            <state><sname>WA</sname>\
              <store><book><isbn>1</isbn><price>10</price></book>\
                <book><isbn>2</isbn><price>30</price></book>\
                <mag><m>1</m></mag><mag><m>2</m></mag></store>\
              <store><book><isbn>1</isbn><price>10</price></book>\
                <mag><m>1</m></mag></store>\
            </state>\
            <state><sname>KY</sname>\
              <store><book><isbn>1</isbn><price>12</price></book>\
                <mag><m>3</m></mag></store>\
            </state>\
            </w>";
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        let forest = encode(&t, &schema, &EncodeConfig::default());
        let seq = discover_forest(&forest, &DiscoveryConfig::default());
        for threads in [1, 2, 8] {
            let par = discover_forest(
                &forest,
                &DiscoveryConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(seq.inter_fds, par.inter_fds);
            assert_eq!(seq.inter_keys, par.inter_keys);
            for (a, b) in seq.relations.iter().zip(par.relations.iter()) {
                assert_eq!(a.rel, b.rel);
                assert_eq!(a.fds, b.fds);
                assert_eq!(a.keys, b.keys);
            }
            assert_eq!(seq.target_stats, par.target_stats);
            assert_eq!(seq.lattice_stats, par.lattice_stats, "threads {threads}");
        }
    }

    /// Three levels: an FD that needs the grandparent's attribute.
    #[test]
    fn grandparent_attributes_can_complete_an_fd() {
        // price is determined by (state name, isbn): within a state all
        // stores sell at the same price, across states prices differ.
        let xml = "<w>\
            <state><sname>WA</sname>\
              <store><book><isbn>1</isbn><price>10</price></book>\
                <book><isbn>2</isbn><price>30</price></book></store>\
              <store><book><isbn>1</isbn><price>10</price></book></store>\
            </state>\
            <state><sname>KY</sname>\
              <store><book><isbn>1</isbn><price>12</price></book></store>\
            </state>\
            </w>";
        let (forest, disc) = run(xml);
        let book = forest
            .relation_by_path(&"/w/state/store/book".parse().unwrap())
            .unwrap();
        let state = forest
            .relation_by_path(&"/w/state".parse().unwrap())
            .unwrap();
        let found = disc
            .inter_fds
            .iter()
            .any(|fd| fd.origin == book && fd.lhs_levels.iter().any(|&(r, _)| r == state));
        assert!(
            found,
            "state-level completion missing: {:?}",
            disc.inter_fds
        );
    }
}
