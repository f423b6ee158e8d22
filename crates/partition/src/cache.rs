//! Memoized partitions per attribute set: memory-bounded, with traversal
//! and residency counters.
//!
//! The lattice algorithms construct `Π_A` for many attribute sets `A`; the
//! cache avoids recomputation when several lattice edges need the same
//! partition and counts the work into the one [`RunStats`] of its
//! traversal, the counters the pruning-ablation experiment (reconstructed
//! Figure 7) reports. Each lattice owns its cache on one thread, so entries
//! live in one FxHash map.
//!
//! ## Memory bound and eviction
//!
//! Every resident partition's CSR heap footprint is accounted. A level-wise
//! traversal calls [`PartitionCache::evict_below`] after finishing level
//! `k`, dropping partitions of size ≤ k−2 TANE-style (bases, i.e. size
//! ≤ 1, always stay). Independently, an optional byte budget evicts
//! shallowest-first whenever residency exceeds it. Eviction never breaks
//! correctness: `ensure` in the traversal layer refolds any evicted
//! partition from the bases.

use xfd_hash::FxHashMap;

use crate::attrset::AttrSet;
use crate::partition::{ErrorOnlyProduct, GroupMap, Partition, PartitionSummary};
use crate::scratch::ProductScratch;

/// Accounted bytes per summary-tier entry: the [`PartitionSummary`]
/// payload plus its `AttrSet` key.
pub const SUMMARY_BYTES: usize = 32;

/// Work counters of one lattice traversal: the node counters its level
/// loop keeps and the partition counters its [`PartitionCache`] keeps, in
/// one value. Every total over several traversals (a forest, a corpus
/// handle's lifetime, a server's) is a `RunStats` fed by [`Self::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Lattice nodes dequeued and processed.
    pub nodes_visited: usize,
    /// Nodes skipped at dequeue because a subset was already a key.
    pub nodes_key_skipped: usize,
    /// Partition products computed.
    pub products: usize,
    /// Partitions materialized (bases + products).
    pub partitions_built: usize,
    /// Highest lattice level processed.
    pub max_level: usize,
    /// Partition-cache hits (lookup of an already-resident partition).
    pub cache_hits: usize,
    /// Partition-cache misses (lookup that forced a build).
    pub cache_misses: usize,
    /// Partitions dropped by level eviction or the byte budget.
    pub evictions: usize,
    /// High-water mark of resident partition bytes.
    pub peak_resident_bytes: usize,
    /// Products answered by the error-only kernel (no CSR result built).
    pub products_error_only: usize,
    /// Products that materialized a full CSR partition.
    pub products_materialized: usize,
    /// Error-only products that stopped at the first provable violation.
    pub early_exits: usize,
    /// Lookups answered from the 16-byte summary tier.
    pub summary_hits: usize,
}

impl RunStats {
    /// Add another run's counters: work sums, while the highest level and
    /// the peak residency are maxima.
    pub fn absorb(&mut self, other: &RunStats) {
        self.nodes_visited += other.nodes_visited;
        self.nodes_key_skipped += other.nodes_key_skipped;
        self.products += other.products;
        self.partitions_built += other.partitions_built;
        self.max_level = self.max_level.max(other.max_level);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.evictions += other.evictions;
        self.peak_resident_bytes = self.peak_resident_bytes.max(other.peak_resident_bytes);
        self.products_error_only += other.products_error_only;
        self.products_materialized += other.products_materialized;
        self.early_exits += other.early_exits;
        self.summary_hits += other.summary_hits;
    }
}

/// A memo table `AttrSet → Partition` with an optional byte budget.
#[derive(Debug)]
pub struct PartitionCache {
    partitions: FxHashMap<AttrSet, Partition>,
    /// Summary tier: 16-byte digests for attribute sets whose full CSR
    /// partition was never materialized (validation-only lattice nodes).
    summaries: FxHashMap<AttrSet, PartitionSummary>,
    stats: RunStats,
    resident_bytes: usize,
    budget_bytes: Option<usize>,
    scratch: ProductScratch,
    /// Tuple → group lookup per base attribute, built lazily on first use
    /// by the refinement kernel and valid for the lifetime of the base
    /// partition. Like `scratch`, these are working-state for the kernels
    /// (one `u32` per tuple per touched attribute, never evicted) and are
    /// not charged against `resident_bytes` — the budget governs the
    /// rebuildable partition payload, not fixed per-attribute overhead.
    base_maps: Vec<Option<GroupMap>>,
}

impl Default for PartitionCache {
    fn default() -> Self {
        PartitionCache {
            partitions: FxHashMap::default(),
            summaries: FxHashMap::default(),
            stats: RunStats::default(),
            resident_bytes: 0,
            budget_bytes: None,
            scratch: ProductScratch::new(),
            base_maps: Vec::new(),
        }
    }
}

impl PartitionCache {
    /// Empty cache, unbounded.
    pub fn new() -> Self {
        PartitionCache::default()
    }

    /// Empty cache evicting down to `budget_bytes` of resident partitions
    /// (`None` = unbounded). Bases are never evicted, so tiny budgets are
    /// soft floors, not hard caps.
    pub fn with_budget(budget_bytes: Option<usize>) -> Self {
        PartitionCache {
            budget_bytes,
            ..PartitionCache::default()
        }
    }

    /// Insert a base partition (single attribute or `Π_∅`).
    pub fn insert(&mut self, attrs: AttrSet, partition: Partition) {
        self.stats.partitions_built += 1;
        self.account_insert(attrs, partition);
    }

    /// Build `Π_{attrs}` from a value column through the reusable scratch
    /// and cache it.
    pub fn insert_column(&mut self, attrs: AttrSet, values: &[Option<u64>]) {
        let p = Partition::from_column_in(values, &mut self.scratch);
        self.insert(attrs, p);
    }

    fn account_insert(&mut self, attrs: AttrSet, partition: Partition) {
        // Replacing a base partition invalidates its cached group map.
        if attrs.len() == 1 {
            if let Some(slot) = attrs.iter().next().and_then(|a| self.base_maps.get_mut(a)) {
                *slot = None;
            }
        }
        // A full partition supersedes any summary for the same key.
        if self.summaries.remove(&attrs).is_some() {
            self.resident_bytes -= SUMMARY_BYTES;
        }
        let bytes = partition.heap_bytes();
        if let Some(old) = self.partitions.insert(attrs, partition) {
            self.resident_bytes -= old.heap_bytes();
        }
        self.resident_bytes += bytes;
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(self.resident_bytes);
        if let Some(budget) = self.budget_bytes {
            if self.resident_bytes > budget {
                self.enforce_budget(attrs);
            }
        }
    }

    /// Evict non-base partitions, shallowest level first (deterministic
    /// tie-break on the bitset), until residency fits the budget. The
    /// just-inserted `keep` entry is spared so an oversized insert does not
    /// evict itself.
    fn enforce_budget(&mut self, keep: AttrSet) {
        let budget = self.budget_bytes.expect("called only with a budget");
        let mut victims: Vec<(usize, u128, AttrSet)> = self
            .partitions
            .keys()
            .filter(|k| k.len() >= 2 && **k != keep)
            .map(|k| (k.len(), k.bits(), *k))
            .collect();
        victims.sort_unstable();
        for (_, _, key) in victims {
            if self.resident_bytes <= budget {
                break;
            }
            if let Some(old) = self.partitions.remove(&key) {
                self.resident_bytes -= old.heap_bytes();
                self.stats.evictions += 1;
            }
        }
    }

    /// Lookup.
    pub fn get(&self, attrs: AttrSet) -> Option<&Partition> {
        self.partitions.get(&attrs)
    }

    /// Remove and return `Π_{attrs}`. Not an eviction: the caller takes
    /// ownership (typically to pin the partition across inserts that could
    /// evict it under a byte budget) and usually [`Self::adopt`]s it back.
    pub fn take(&mut self, attrs: AttrSet) -> Option<Partition> {
        let taken = self.partitions.remove(&attrs);
        if let Some(p) = &taken {
            self.resident_bytes -= p.heap_bytes();
        }
        taken
    }

    /// Put back a partition taken with [`Self::take`] without bumping
    /// `partitions_built` (it was counted when built). No-op if `attrs` is
    /// already resident.
    pub fn adopt(&mut self, attrs: AttrSet, partition: Partition) {
        if self.get(attrs).is_none() {
            self.account_insert(attrs, partition);
        }
    }

    /// Is a partition cached for `attrs`?
    pub fn contains(&mut self, attrs: AttrSet) -> bool {
        let hit = self.partitions.contains_key(&attrs);
        if hit {
            self.stats.cache_hits += 1;
        }
        hit
    }

    /// Get `Π_{a∪b}`, computing `Π_a · Π_b` and caching it if necessary.
    ///
    /// # Panics
    /// Panics if `Π_a` or `Π_b` is not already cached.
    pub fn product(&mut self, a: AttrSet, b: AttrSet) -> &Partition {
        let target = a.union(b);
        if !self.partitions.contains_key(&target) {
            self.stats.cache_misses += 1;
            // Move the scratch out so the operand borrows (into the map)
            // and the scratch borrow don't alias through `self`.
            let mut scratch = std::mem::take(&mut self.scratch);
            let pa = self.get(a).expect("operand partition must be cached");
            let pb = self.get(b).expect("operand partition must be cached");
            let prod = pa.product_in(pb, &mut scratch);
            self.scratch = scratch;
            self.stats.products += 1;
            self.stats.products_materialized += 1;
            self.stats.partitions_built += 1;
            self.account_insert(target, prod);
        } else {
            self.stats.cache_hits += 1;
        }
        self.get(target).expect("just inserted")
    }

    /// Exact summary of `Π_{attrs}` if it is known without computing
    /// anything: from the summary tier (counted as a `summary_hit`) or
    /// derived from a resident full partition (not counted — mirror of the
    /// non-counting [`Self::get`]).
    pub fn summary_of(&mut self, attrs: AttrSet) -> Option<PartitionSummary> {
        if let Some(&s) = self.summaries.get(&attrs) {
            self.stats.summary_hits += 1;
            return Some(s);
        }
        self.get(attrs).map(Partition::summary)
    }

    /// Exact error of `Π_{attrs}` if known, O(1) from either tier (no
    /// group scan, unlike [`Self::summary_of`] on a full partition).
    pub fn error_of(&mut self, attrs: AttrSet) -> Option<usize> {
        if let Some(s) = self.summaries.get(&attrs) {
            self.stats.summary_hits += 1;
            return Some(s.error);
        }
        self.get(attrs).map(Partition::error)
    }

    /// Error-only summary of `Π_{parent ∪ {attr}}` by refining the resident
    /// `Π_parent` through the cached base map of `attr` — the tiered
    /// kernel. The base lookup is built once per attribute (O(n),
    /// amortized) and the product costs only a scan of the parent's
    /// stripped tuples, stopping early under `bound`. An exact outcome is
    /// filed in the summary tier; an early exit
    /// ([`ErrorOnlyProduct::BelowBound`]) stores nothing: the result is a
    /// proof about the *bound*, not a reusable digest.
    ///
    /// # Panics
    /// Panics if `Π_parent` or the base `Π_{attr}` is not cached.
    pub fn product_summary_base(
        &mut self,
        parent: AttrSet,
        attr: usize,
        bound: Option<usize>,
    ) -> ErrorOnlyProduct {
        let target = parent.union(AttrSet::single(attr));
        if self.base_maps.len() <= attr {
            self.base_maps.resize_with(attr + 1, || None);
        }
        if self.base_maps[attr].is_none() {
            let base = self
                .get(AttrSet::single(attr))
                .expect("base partition must be cached");
            self.base_maps[attr] = Some(GroupMap::new(base));
        }
        // Move the scratch and map out so the parent borrow (into the
        // partition map) and the mutable scratch borrow don't alias
        // through `self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        let map = self.base_maps[attr].take().expect("just built");
        let pa = self.get(parent).expect("parent partition must be cached");
        let outcome = pa.error_refine_in(&map, &mut scratch, bound);
        self.scratch = scratch;
        self.base_maps[attr] = Some(map);
        self.stats.products += 1;
        self.stats.products_error_only += 1;
        match outcome {
            ErrorOnlyProduct::Exact(s) => self.insert_summary(target, s),
            ErrorOnlyProduct::BelowBound => self.stats.early_exits += 1,
        }
        outcome
    }

    /// File an exact summary in the summary tier (no-op if the full
    /// partition is resident — the full tier already answers for it).
    pub fn insert_summary(&mut self, attrs: AttrSet, summary: PartitionSummary) {
        if self.get(attrs).is_some() {
            return;
        }
        if self.summaries.insert(attrs, summary).is_none() {
            self.resident_bytes += SUMMARY_BYTES;
            self.stats.peak_resident_bytes =
                self.stats.peak_resident_bytes.max(self.resident_bytes);
        }
    }

    /// Drop partitions for attribute sets of size `level` or smaller except
    /// the bases (size ≤ 1); level-wise algorithms never revisit them.
    /// Stale summaries are dropped on the same schedule but are not counted
    /// as evictions (nothing rebuildable was lost — 32 bytes of digest).
    pub fn evict_below(&mut self, level: usize) {
        let mut freed = 0usize;
        let mut evicted = 0usize;
        self.partitions.retain(|k, v| {
            let n = k.len();
            let keep = n <= 1 || n > level;
            if !keep {
                freed += v.heap_bytes();
                evicted += 1;
            }
            keep
        });
        let mut freed_summaries = 0usize;
        self.summaries.retain(|k, _| {
            let n = k.len();
            let keep = n <= 1 || n > level;
            if !keep {
                freed_summaries += 1;
            }
            keep
        });
        self.resident_bytes -= freed + freed_summaries * SUMMARY_BYTES;
        self.stats.evictions += evicted;
    }

    /// Work counters so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The counters, for the traversal that owns this cache to count its
    /// lattice nodes into.
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// Bytes of partition payload currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The configured byte budget, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_builds_and_caches() {
        let mut c = PartitionCache::new();
        let a = AttrSet::single(0);
        let b = AttrSet::single(1);
        c.insert(
            a,
            Partition::from_column(&[Some(1), Some(1), Some(2), Some(2)]),
        );
        c.insert(
            b,
            Partition::from_column(&[Some(1), Some(2), Some(1), Some(1)]),
        );
        let ab = c.product(a, b).clone();
        assert_eq!(ab.n_groups(), 1);
        assert_eq!(ab.group(0), &[2, 3]);
        // Second call hits the cache.
        let before = c.stats().products;
        let _ = c.product(a, b);
        assert_eq!(c.stats().products, before);
        assert!(c.stats().cache_hits >= 1);
        assert_eq!(c.stats().cache_misses, 1);
    }

    #[test]
    #[should_panic(expected = "must be cached")]
    fn product_requires_operands() {
        let mut c = PartitionCache::new();
        let _ = c.product(AttrSet::single(0), AttrSet::single(1));
    }

    #[test]
    fn evict_below_keeps_bases_and_upper_levels() {
        let mut c = PartitionCache::new();
        let a = AttrSet::single(0);
        let b = AttrSet::single(1);
        let d = AttrSet::single(2);
        for s in [a, b, d] {
            c.insert(s, Partition::universal(3));
        }
        let _ = c.product(a, b);
        let _ = c.product(a.union(b), d);
        assert_eq!(c.len(), 5);
        c.evict_below(2);
        // Bases (3) stay, {a,b} evicted, {a,b,d} stays.
        assert_eq!(c.len(), 4);
        assert!(c.get(a.union(b)).is_none());
        assert!(c.get(a.union(b).union(d)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn residency_accounting_matches_contents() {
        let mut c = PartitionCache::new();
        let col: Vec<Option<u64>> = (0..100).map(|i| Some(i % 7)).collect();
        c.insert_column(AttrSet::single(0), &col);
        c.insert_column(AttrSet::single(1), &col);
        let expected: usize = [AttrSet::single(0), AttrSet::single(1)]
            .iter()
            .map(|&s| c.get(s).unwrap().heap_bytes())
            .sum();
        assert_eq!(c.resident_bytes(), expected);
        assert!(c.stats().peak_resident_bytes >= expected);
        c.evict_below(usize::MAX);
        // Bases survive a full eviction sweep.
        assert_eq!(c.len(), 2);
        assert_eq!(c.resident_bytes(), expected);
    }

    #[test]
    fn budget_evicts_lower_levels_first() {
        // Budget below total forces eviction; bases and the newest entry
        // must survive.
        let col_a: Vec<Option<u64>> = (0..200).map(|i| Some(i % 2)).collect();
        let col_b: Vec<Option<u64>> = (0..200).map(|i| Some(i % 4)).collect();
        let col_c: Vec<Option<u64>> = (0..200).map(|i| Some(i % 8)).collect();
        let a = AttrSet::single(0);
        let b = AttrSet::single(1);
        let d = AttrSet::single(2);
        let mut unbounded = PartitionCache::new();
        unbounded.insert_column(a, &col_a);
        unbounded.insert_column(b, &col_b);
        unbounded.insert_column(d, &col_c);
        let base_bytes = unbounded.resident_bytes();

        let mut c = PartitionCache::with_budget(Some(base_bytes + 900));
        c.insert_column(a, &col_a);
        c.insert_column(b, &col_b);
        c.insert_column(d, &col_c);
        let _ = c.product(a, b);
        let _ = c.product(a.union(b), d);
        // The pair {a,b} (level 2) is the designated victim once the
        // budget trips; the level-3 result must still be present.
        assert!(c.get(a.union(b).union(d)).is_some());
        assert!(c.stats().evictions > 0 || c.resident_bytes() <= base_bytes + 900);
        for s in [a, b, d] {
            assert!(c.get(s).is_some(), "bases are never evicted");
        }
    }

    #[test]
    fn summary_tier_answers_without_materializing() {
        let mut c = PartitionCache::new();
        let a = AttrSet::single(0);
        let b = AttrSet::single(1);
        c.insert(
            a,
            Partition::from_column(&[Some(1), Some(1), Some(2), Some(2)]),
        );
        c.insert(
            b,
            Partition::from_column(&[Some(1), Some(2), Some(1), Some(1)]),
        );
        let ab = a.union(b);
        let outcome = c.product_summary_base(a, 1, None);
        let expected = c.get(a).unwrap().product(c.get(b).unwrap()).summary();
        assert_eq!(outcome, ErrorOnlyProduct::Exact(expected));
        assert!(c.get(ab).is_none(), "no CSR partition was built");
        assert_eq!(c.summary_of(ab), Some(expected));
        assert_eq!(c.error_of(ab), Some(expected.error));
        let s = c.stats();
        assert_eq!(s.products, 1);
        assert_eq!(s.products_error_only, 1);
        assert_eq!(s.products_materialized, 0);
        assert_eq!(s.partitions_built, 2, "only the bases");
        assert!(s.summary_hits >= 2);
        // Materializing the same node later replaces the summary and keeps
        // residency accounting balanced.
        let resident_with_summary = c.resident_bytes();
        let full = c.product(a, b).clone();
        assert_eq!(full.summary(), expected);
        assert_eq!(
            c.resident_bytes(),
            resident_with_summary - SUMMARY_BYTES + full.heap_bytes()
        );
    }

    #[test]
    fn product_summary_early_exit_stores_nothing() {
        let mut c = PartitionCache::new();
        let a = AttrSet::single(0);
        let b = AttrSet::single(1);
        // One big group split in two by `b`: error drops 4 → 3.
        c.insert(a, Partition::universal(6));
        c.insert(
            b,
            Partition::from_column(&[Some(1), Some(1), Some(1), Some(2), Some(2), Some(2)]),
        );
        let outcome = c.product_summary_base(a, 1, Some(5));
        assert_eq!(outcome, ErrorOnlyProduct::BelowBound);
        assert_eq!(c.summary_of(a.union(b)), None);
        assert_eq!(c.stats().early_exits, 1);
        // Eviction drops stale summaries without counting them.
        let exact = c.product_summary_base(a, 1, None);
        assert!(matches!(exact, ErrorOnlyProduct::Exact(_)));
        let resident = c.resident_bytes();
        c.evict_below(2);
        assert_eq!(c.summary_of(a.union(b)), None);
        assert_eq!(c.resident_bytes(), resident - SUMMARY_BYTES);
        assert_eq!(c.stats().evictions, 0);
    }
}
