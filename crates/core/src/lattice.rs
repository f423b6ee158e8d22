//! The attribute-set lattice: the one level-wise traversal
//! ([`discover_levels`]) that drives both `discover_intra` and
//! `DiscoverXFD`'s per-relation pass, candidate-LHS pruning (the paper's
//! `candidateLHS` / `candidateLHS2`) and partition materialization for the
//! tiered node routine (and the materializing oracle `discover_intra`
//! keeps for its tests and benchmark).

use xfd_partition::{AttrSet, ErrorOnlyProduct, Partition, PartitionCache};

use crate::config::PruneConfig;
use crate::intra::{IntraOptions, IntraResult};
use crate::xfd::TargetContext;

/// A discovered minimal intra-relation FD `lhs → rhs` (attribute indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntraFd {
    /// LHS attribute set.
    pub lhs: AttrSet,
    /// RHS attribute index.
    pub rhs: usize,
}

/// Compute the candidate LHSs for lattice node `a_set` — the paper's
/// `candidateLHS` (Figure 8) with the pruning repairs documented in
/// DESIGN.md. Each candidate is `a_set` minus one attribute; a candidate is
/// dropped when the edge it represents cannot yield a minimal FD:
///
/// * **rule 1**: some satisfied `L → r` has `r = a` and `L ⊆ A_L` — the FD
///   `A_L → a` is implied;
/// * **rule 2** (repaired; only with `use_rule2`, i.e. `candidateLHS`
///   rather than `candidateLHS2`): some satisfied `L → r` has `r ∈ A_L`
///   and `L ⊆ A_L ∖ {r}` — `A_L` contains a derivable attribute, so any FD
///   from it is non-minimal.
///
/// With `empty_lhs`, singleton nodes get the candidate `∅` (the edge
/// `∅ → a`, discovering constant columns).
pub fn candidate_lhs(
    a_set: AttrSet,
    fds: &[IntraFd],
    prune: &PruneConfig,
    use_rule2: bool,
    empty_lhs: bool,
) -> Vec<AttrSet> {
    let mut out = Vec::new();
    if a_set.len() == 1 {
        if !empty_lhs {
            return out;
        }
        let a = a_set.max_attr().expect("non-empty");
        let pruned = prune.rule1 && fds.iter().any(|fd| fd.rhs == a && fd.lhs.is_empty());
        if !pruned {
            out.push(AttrSet::empty());
        }
        return out;
    }
    'cands: for a in a_set.iter() {
        let al = a_set.remove(a);
        for fd in fds {
            if prune.rule1 && fd.rhs == a && fd.lhs.is_subset_of(al) {
                continue 'cands;
            }
            if use_rule2
                && prune.rule2
                && al.contains(fd.rhs)
                && fd.lhs.is_subset_of(al.remove(fd.rhs))
            {
                continue 'cands;
            }
        }
        out.push(al);
    }
    out
}

/// Materialize `Π_{a_set}` in the cache, preferring the paper's
/// two-operand product over candidate LHSs (lines 9–10 of Figure 8), then
/// any *fully resident* candidate paired with its single-attribute
/// complement (a frontier node whose first two candidates were
/// validation-only, summary tier, still avoids the fold), and falling back
/// to folding single-attribute partitions when no operand is resident
/// (possible after aggressive pruning or eviction). After this returns,
/// `cache.get(a_set)` is `Some`, so callers can borrow several partitions
/// immutably at once.
pub(crate) fn ensure_full(cache: &mut PartitionCache, a_set: AttrSet, candidates: &[AttrSet]) {
    if cache.get(a_set).is_some() {
        return;
    }
    if candidates.len() >= 2 {
        let (c1, c2) = (candidates[0], candidates[1]);
        if cache.get(c1).is_some() && cache.get(c2).is_some() {
            debug_assert_eq!(c1.union(c2), a_set);
            cache.product(c1, c2);
            return;
        }
    }
    for &c1 in candidates {
        let rest = a_set.minus(c1);
        if cache.get(c1).is_some() && cache.get(rest).is_some() {
            cache.product(c1, rest);
            return;
        }
    }
    let mut iter = a_set.iter();
    let first = AttrSet::single(iter.next().expect("ensure_full on empty set"));
    let mut acc = first;
    for a in iter {
        cache.product(acc, AttrSet::single(a));
        acc = acc.insert(a);
    }
}

/// Tiered-kernel analogue of [`ensure_full`]: obtain the exact summary of
/// `Π_{a_set}` (or an early-exit proof against `bound`) without
/// materializing the product. Since `Π_{a_set} = Π_{a_set∖{a}} · Π_a` for
/// any `a ∈ a_set`, *one* resident parent suffices: the parent is refined
/// through the missing attribute's cached base map
/// ([`PartitionCache::product_summary_base`]), which costs a single scan of
/// the parent's stripped tuples with no probe-table setup or reset.
/// Candidates are preferred in order (the frontier materializes the first
/// one), then any resident parent (pruning can drop the materialized
/// candidate from the list between levels), and only if every parent was
/// evicted does this refold one from the bases.
///
/// The outcome is operand-independent: `BelowBound` fires iff
/// `0 < e(Π_{a_set}) < bound` no matter which parent is scanned, so work
/// counters and results stay deterministic.
pub(crate) fn ensure_summary(
    cache: &mut PartitionCache,
    a_set: AttrSet,
    candidates: &[AttrSet],
    bound: Option<usize>,
) -> ErrorOnlyProduct {
    if let Some(s) = cache.summary_of(a_set) {
        return ErrorOnlyProduct::Exact(s);
    }
    for &c in candidates {
        let diff = a_set.minus(c);
        if diff.len() == 1 && cache.get(c).is_some() {
            let attr = diff.max_attr().expect("one attribute");
            return cache.product_summary_base(c, attr, bound);
        }
    }
    for attr in a_set.iter() {
        let parent = a_set.remove(attr);
        if cache.get(parent).is_some() {
            return cache.product_summary_base(parent, attr, bound);
        }
    }
    // Every parent was evicted (byte budget): refold one from the bases and
    // finish with the error-only refinement step.
    let attr = a_set.max_attr().expect("ensure_summary on empty set");
    let parent = a_set.remove(attr);
    ensure_full(cache, parent, &[]);
    cache.product_summary_base(parent, attr, bound)
}

/// Exact error of `Π_{al}` for candidate validation under the tiered
/// kernel: O(1) from either cache tier when known; otherwise recomputed
/// error-only (possible when the frontier pass skipped `al` — e.g. it was
/// key-covered at the boundary — or a byte budget evicted it).
pub(crate) fn candidate_error(
    cache: &mut PartitionCache,
    al: AttrSet,
    fds: &[IntraFd],
    prune: &PruneConfig,
    use_rule2: bool,
    empty_lhs: bool,
) -> usize {
    if let Some(e) = cache.error_of(al) {
        return e;
    }
    let cands = candidate_lhs(al, fds, prune, use_rule2, empty_lhs);
    match ensure_summary(cache, al, &cands, None) {
        ErrorOnlyProduct::Exact(s) => s.error,
        ErrorOnlyProduct::BelowBound => unreachable!("no bound was given"),
    }
}

/// Materialize the partitions the *next* lattice level will use as product
/// operands, now that the current level's summaries identified them. Run at
/// the end of each level by the tiered traversal, except in passes that
/// check incoming targets: those build every node's full partition, which
/// already are the next level's operands.
///
/// For each next-level node [`ensure_summary`] refines *one* resident
/// parent through a base map, so only the first candidate becomes a full
/// partition. With `all_candidates` (target-creating passes) every
/// candidate is materialized instead: a failing edge `A_L → a` builds its
/// partition target by scanning the full `Π_{A_L}`. Without it, the
/// remaining candidates only feed error comparisons, so an exact summary
/// suffices.
///
/// Why every partition this pass needs is obtainable: candidate lists only
/// shrink as FDs/keys are discovered (pruning is monotone), so next-level
/// candidates seen *here* are supersets of the ones the next level will
/// compute, and each such candidate is a node of the current level whose
/// operands (previous-level partitions) are still resident —
/// `evict_below(level − 2)` runs at level *starts*, after this pass used
/// them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn materialize_frontier(
    cache: &mut PartitionCache,
    next_level: &[AttrSet],
    fds: &[IntraFd],
    keys: &[AttrSet],
    prune: &PruneConfig,
    use_rule2: bool,
    empty_lhs: bool,
    all_candidates: bool,
) {
    for &b in next_level {
        if prune.key_prune && keys.iter().any(|k| k.is_subset_of(b)) {
            continue;
        }
        let cands = candidate_lhs(b, fds, prune, use_rule2, empty_lhs);
        if b.len() > 1 && cands.is_empty() {
            continue;
        }
        for (idx, &al) in cands.iter().enumerate() {
            if cache.get(al).is_some() {
                continue;
            }
            let al_cands = candidate_lhs(al, fds, prune, use_rule2, empty_lhs);
            if idx == 0 || all_candidates {
                ensure_full(cache, al, &al_cands);
            } else if cache.summary_of(al).is_none() {
                let _ = ensure_summary(cache, al, &al_cands, None);
            }
        }
    }
}

/// The level-wise lattice traversal of `DiscoverFD` (Figure 8), the only
/// one: it runs both `discover_intra` and `DiscoverXFD`'s per-relation
/// pass (Figure 9). `opts.use_rule2` picks `candidateLHS` or
/// `candidateLHS2`; `targets` adds the inter-relation side: incoming
/// partition targets checked at every node and failing edges turned into
/// outgoing targets. With `targets = None` this is plain `DiscoverFD`.
///
/// Every node runs the tiered routine, except that `discover_intra` with
/// `opts.error_only_kernel` off runs the materializing one, the oracle the
/// tiered routine is tested and benchmarked against.
///
/// All nodes of size `k` are processed before any node of size `k+1`
/// (generation order within a level), so each level touches partitions of
/// sizes `k` and `k−1` only and everything smaller (bar the bases) is
/// evicted at the level boundary, TANE-style.
///
/// # Panics
/// Panics if the table has more than 128 columns (see `xfd_partition::attrset`).
pub(crate) fn discover_levels(
    columns: &[&[Option<u64>]],
    n_tuples: usize,
    opts: &IntraOptions,
    mut targets: Option<&mut TargetContext<'_>>,
) -> IntraResult {
    let mut result = IntraResult::default();
    if n_tuples <= 1 {
        // Every attribute set, including ∅, identifies the lone tuple.
        result.keys.push(AttrSet::empty());
        return result;
    }
    let mut cache = PartitionCache::with_budget(opts.cache_budget);
    cache.insert(AttrSet::empty(), Partition::universal(n_tuples));
    for (i, col) in columns.iter().enumerate() {
        debug_assert_eq!(col.len(), n_tuples);
        cache.insert_column(AttrSet::single(i), col);
    }
    let tiered = opts.error_only_kernel || targets.is_some();
    // A pass checking incoming targets builds every node's full partition,
    // so its nodes already are the next level's operands.
    let frontier = tiered && !targets.as_ref().is_some_and(|t| t.has_incoming());
    // A pass that creates targets scans the full `Π_{A_L}` of every
    // failing edge, so its frontier materializes every candidate.
    let all_candidates = targets.as_ref().is_some_and(|t| t.propagates());
    let prune = &opts.prune;

    let mut current: Vec<AttrSet> = (0..columns.len()).map(AttrSet::single).collect();
    let mut level = 1usize;
    while !current.is_empty() {
        cache.evict_below(level.saturating_sub(2));
        let mut next_level: Vec<AttrSet> = Vec::new();
        for &a_set in &current {
            if prune.key_prune && result.covered_by_key(a_set) {
                result.stats.nodes_key_skipped += 1;
                continue;
            }
            let cands = candidate_lhs(a_set, &result.fds, prune, opts.use_rule2, opts.empty_lhs);
            if a_set.len() > 1 && cands.is_empty() {
                continue;
            }
            result.stats.nodes_visited += 1;
            result.stats.max_level = result.stats.max_level.max(a_set.len());

            let is_key = if tiered {
                tiered_node(
                    &mut cache,
                    a_set,
                    &cands,
                    &mut result.fds,
                    opts,
                    targets.as_deref_mut(),
                )
            } else {
                materialized_node(&mut cache, a_set, &cands, &mut result.fds)
            };
            if is_key {
                result.keys.push(a_set);
                continue;
            }
            if a_set.len() <= opts.max_lhs {
                let last = a_set.max_attr().expect("non-empty lattice node");
                for next in last + 1..columns.len() {
                    let bigger = a_set.insert(next);
                    if prune.key_prune && result.covered_by_key(bigger) {
                        continue;
                    }
                    next_level.push(bigger);
                }
            }
        }
        // Materialize exactly the partitions the next level will use while
        // this level's operands are still resident.
        if frontier {
            materialize_frontier(
                &mut cache,
                &next_level,
                &result.fds,
                &result.keys,
                prune,
                opts.use_rule2,
                opts.empty_lhs,
                all_candidates,
            );
        }
        current = next_level;
        level += 1;
    }
    result.stats.adopt_cache(&cache.stats());
    result
}

/// The RHS attribute of lattice edge `al → a_set`.
fn edge_rhs(a_set: AttrSet, al: AttrSet) -> usize {
    a_set
        .minus(al)
        .max_attr()
        .expect("al = a_set minus one attribute")
}

/// One lattice node, decided as Figure 9 decides it: candidate edges by
/// refinement (Lemmas 1–2), then incoming partition targets against `Π_A`.
///
/// Where incoming targets ride, the node's full partition is built: a key
/// completes them (Figure 9 lines 18–25), a non-key node checks them (lines
/// 26–33), and its error is the node error. Elsewhere the node error comes
/// from one error-only product, exiting early once it provably drops below
/// every candidate's (all edges fail, and error ≥ 1 rules out a key).
/// Candidate errors are exact and O(1) from either cache tier after the
/// frontier pass; an edge holds iff its candidate's error equals the
/// node's. A failing edge of a target-creating pass builds its target from
/// the full `Π_{A_L}` plus the RHS *base* group map — never from the node
/// partition. Returns whether `a_set` is a key.
fn tiered_node(
    cache: &mut PartitionCache,
    a_set: AttrSet,
    cands: &[AttrSet],
    fds: &mut Vec<IntraFd>,
    opts: &IntraOptions,
    mut targets: Option<&mut TargetContext<'_>>,
) -> bool {
    let checked_error = match targets.as_deref_mut().filter(|t| t.has_incoming()) {
        Some(t) => {
            ensure_full(cache, a_set, cands);
            let pa = cache.get(a_set).expect("ensured full");
            if pa.is_key() {
                t.key_found(a_set);
                return true;
            }
            t.check_incoming(a_set, pa);
            Some(pa.error())
        }
        None => None,
    };
    let cand_errors: Vec<usize> = cands
        .iter()
        .map(|&al| {
            // Target-checking passes keep full partitions (the next level
            // refines them, and a failing edge scans them), so a candidate
            // they lack is built full rather than summarized.
            if checked_error.is_some() {
                ensure_full_lhs(cache, al, fds, opts);
            }
            candidate_error(cache, al, fds, &opts.prune, opts.use_rule2, opts.empty_lhs)
        })
        .collect();
    let node_error = match checked_error {
        Some(e) => Some(e),
        None => {
            let bound = cand_errors.iter().copied().min();
            match ensure_summary(cache, a_set, cands, bound) {
                ErrorOnlyProduct::Exact(s) if s.error == 0 => return true,
                ErrorOnlyProduct::Exact(s) => Some(s.error),
                ErrorOnlyProduct::BelowBound => None,
            }
        }
    };
    for (&al, &e) in cands.iter().zip(&cand_errors) {
        let rhs = edge_rhs(a_set, al);
        if node_error == Some(e) {
            fds.push(IntraFd { lhs: al, rhs });
        } else if let Some(t) = targets.as_deref_mut().filter(|t| t.propagates()) {
            ensure_full_lhs(cache, al, fds, opts);
            let pl = cache.get(al).expect("ensured full");
            let base = cache
                .get(AttrSet::single(rhs))
                .expect("base partition resident");
            t.edge_failed_from_base(rhs, al, pl, base);
        }
    }
    false
}

/// [`ensure_full`] for candidate LHS `al`, from its own candidate LHSs.
fn ensure_full_lhs(cache: &mut PartitionCache, al: AttrSet, fds: &[IntraFd], opts: &IntraOptions) {
    if cache.get(al).is_none() {
        let al_cands = candidate_lhs(al, fds, &opts.prune, opts.use_rule2, opts.empty_lhs);
        ensure_full(cache, al, &al_cands);
    }
}

/// One node under the materializing kernel, `discover_intra`'s oracle for
/// [`tiered_node`]: build `Π_{a_set}`, then test every candidate edge by
/// refinement (Lemma 1). Returns whether `a_set` is a key.
fn materialized_node(
    cache: &mut PartitionCache,
    a_set: AttrSet,
    cands: &[AttrSet],
    fds: &mut Vec<IntraFd>,
) -> bool {
    ensure_full(cache, a_set, cands);
    if cache.get(a_set).expect("ensured").is_key() {
        return true;
    }
    // Pin `Π_{a_set}` outside the cache while the candidates are refolded:
    // under a byte budget those inserts could otherwise evict it mid-node.
    let pa = cache.take(a_set).expect("ensured");
    for &al in cands {
        ensure_full(cache, al, &[]);
        let pl = cache.get(al).expect("just ensured");
        if pl.same_as_refining(&pa) {
            fds.push(IntraFd {
                lhs: al,
                rhs: edge_rhs(a_set, al),
            });
        }
    }
    cache.adopt(a_set, pa);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd(lhs: &[usize], rhs: usize) -> IntraFd {
        IntraFd {
            lhs: AttrSet::from_iter(lhs.iter().copied()),
            rhs,
        }
    }

    #[test]
    fn no_fds_yields_all_candidates() {
        let prune = PruneConfig::default();
        let cands = candidate_lhs(AttrSet::from_iter([0, 1, 2]), &[], &prune, true, true);
        assert_eq!(cands.len(), 3);
    }

    #[test]
    fn rule1_drops_implied_edges() {
        // B → C satisfied; node {B, C}: candidate {B} → C pruned.
        let prune = PruneConfig::default();
        let fds = [fd(&[1], 2)];
        let cands = candidate_lhs(AttrSet::from_iter([1, 2]), &fds, &prune, true, true);
        // Candidate A_L = {1} (rhs 2) pruned by rule 1; A_L = {2} (rhs 1)
        // pruned by repaired rule 2 ({2} contains derivable... no: r=2 ∈ {2},
        // L={1} ⊄ ∅). So {2} survives.
        assert_eq!(cands, vec![AttrSet::single(2)]);
    }

    #[test]
    fn repaired_rule2_requires_rhs_in_candidate() {
        // B → C satisfied. Node {A, B, D}: candidate {A,B} → D must SURVIVE
        // (C ∉ {A,B}); the paper's literal line 24 would wrongly drop it.
        let prune = PruneConfig::default();
        let fds = [fd(&[1], 2)];
        let cands = candidate_lhs(AttrSet::from_iter([0, 1, 3]), &fds, &prune, true, true);
        assert!(cands.contains(&AttrSet::from_iter([0, 1])), "{cands:?}");
    }

    #[test]
    fn rule2_drops_candidates_with_derivable_attrs() {
        // B → C satisfied. Node {B, C, D}: candidate {B,C} → D contains C
        // derivable from B ⊆ {B}: pruned. Candidate {C,D} → B: r=C? fd rhs=2∈{2,3}, L={1}⊄{3}: survives.
        let prune = PruneConfig::default();
        let fds = [fd(&[1], 2)];
        let cands = candidate_lhs(AttrSet::from_iter([1, 2, 3]), &fds, &prune, true, true);
        assert!(!cands.contains(&AttrSet::from_iter([1, 2])));
        assert!(cands.contains(&AttrSet::from_iter([2, 3])));
        // {B,D} → C pruned by rule 1 (B → C with {B} ⊆ {B,D}).
        assert!(!cands.contains(&AttrSet::from_iter([1, 3])));
    }

    #[test]
    fn candidate_lhs2_skips_rule2() {
        let prune = PruneConfig::default();
        let fds = [fd(&[1], 2)];
        let cands = candidate_lhs(AttrSet::from_iter([1, 2, 3]), &fds, &prune, false, true);
        // Without rule 2, {B,C} → D is kept.
        assert!(cands.contains(&AttrSet::from_iter([1, 2])));
    }

    #[test]
    fn empty_lhs_candidates_for_singletons() {
        let prune = PruneConfig::default();
        let with = candidate_lhs(AttrSet::single(4), &[], &prune, true, true);
        assert_eq!(with, vec![AttrSet::empty()]);
        let without = candidate_lhs(AttrSet::single(4), &[], &prune, true, false);
        assert!(without.is_empty());
        // ∅ → 4 already found: pruned by rule 1.
        let fds = [fd(&[], 4)];
        let pruned = candidate_lhs(AttrSet::single(4), &fds, &prune, true, true);
        assert!(pruned.is_empty());
    }

    #[test]
    fn disabled_rules_keep_everything() {
        let prune = PruneConfig {
            rule1: false,
            rule2: false,
            key_prune: false,
        };
        let fds = [fd(&[1], 2)];
        let cands = candidate_lhs(AttrSet::from_iter([1, 2]), &fds, &prune, true, true);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn ensure_full_falls_back_to_fold() {
        use xfd_partition::Partition;
        let mut cache = PartitionCache::new();
        for (i, col) in [
            vec![Some(1), Some(1), Some(2), Some(2)],
            vec![Some(5), Some(6), Some(5), Some(5)],
            vec![Some(9), Some(9), Some(9), Some(8)],
        ]
        .iter()
        .enumerate()
        {
            cache.insert(AttrSet::single(i), Partition::from_column(col));
        }
        let target = AttrSet::from_iter([0, 1, 2]);
        // No candidates cached → fold path.
        ensure_full(&mut cache, target, &[]);
        let p = cache.get(target).expect("ensured").clone();
        assert_eq!(p.groups().len(), 0, "all distinct combinations");
        let products = cache.stats().products;
        // Re-ensuring hits the cache: no further product.
        ensure_full(&mut cache, target, &[]);
        assert_eq!(cache.get(target), Some(&p));
        assert_eq!(cache.stats().products, products);
    }
}
