//! Stripped attribute partitions and their products (Section 4.2).
//!
//! An *attribute partition* `Π_X` groups the tuples of a relation by their
//! values at attribute set `X`. Following the paper's footnote 5 we use
//! **stripped** partitions: singleton groups are dropped; they can never
//! witness an FD violation nor a key violation.
//!
//! Two facts drive the discovery algorithms (Lemmas 1 and 2):
//!
//! * `X → A` holds iff `Π_X ⊑ Π_{X∪{A}}` iff `Π_{X∪{A}} = Π_X`;
//! * since `Π_{X∪{A}} = Π_X · Π_{A}` always refines `Π_X`, equality can be
//!   tested in O(1) by comparing the *error measure* `e(Π) = Σ(|g| − 1)`.
//!
//! ## Representation
//!
//! A partition is stored CSR-style: one contiguous `tuples` array holding
//! every group member back to back, plus an `offsets` array with group
//! boundaries (`group g = tuples[offsets[g]..offsets[g+1]]`). Compared to
//! the textbook `Vec<Vec<Tuple>>` this is one allocation instead of one
//! per group, keeps a whole partition in two cache-friendly streams, and
//! lets the product loop write its output with plain `extend` calls.
//!
//! ## Canonical group order
//!
//! Partitions are kept in a canonical order — groups sorted by their first
//! (smallest) member, members ascending within a group — so structurally
//! equal partitions are representationally equal (`==` on the CSR arrays)
//! and every traversal order downstream is deterministic.
//!
//! * [`Partition::from_column`] gets this for free: groups are emitted in
//!   first-touch order of a forward scan, which is exactly ascending
//!   first-member order. No sort is needed.
//! * [`Partition::product`] emits, per left-operand group, sub-groups in
//!   first-touch order of that group's (ascending) member scan — sorted
//!   *within* the run, but runs from different left groups interleave:
//!   with left groups `{0,100,101}`, `{1,2}` and a right operand joining
//!   `{100,101}` and `{1,2}`, the runs come out `[100,101]` then `[1,2]`.
//!   The product therefore sorts *group descriptors* (start/len pairs) by
//!   first member — O(G log G) on descriptors, never on tuples — and skips
//!   even that when the emission happened to be globally sorted (common:
//!   products against few-group operands).

use crate::scratch::ProductScratch;

/// Index of a tuple within one relation.
pub type Tuple = u32;

/// A stripped partition of a relation's tuples in CSR layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Group members, back to back, in canonical order.
    tuples: Vec<Tuple>,
    /// Group boundaries: group `g` is `tuples[offsets[g]..offsets[g+1]]`.
    /// Always non-empty; a partition with no groups stores `[0]`.
    offsets: Vec<u32>,
    n_tuples: usize,
    error: usize,
}

impl Partition {
    /// Build from per-tuple *value identifiers*: tuples with equal
    /// `Some(v)` share a group; `None` (a missing element, i.e. ⊥) is
    /// distinct from everything including other ⊥s (strong satisfaction,
    /// Section 3.1), so those tuples are singletons and get stripped.
    ///
    /// Allocates fresh scratch; hot paths should prefer
    /// [`Partition::from_column_in`] with a reused [`ProductScratch`].
    pub fn from_column(values: &[Option<u64>]) -> Partition {
        Partition::from_column_in(values, &mut ProductScratch::new())
    }

    /// [`Partition::from_column`] against caller-owned scratch. In steady
    /// state the only allocations are the two result arrays.
    ///
    /// A forward scan assigns group slots in first-touch order and counts
    /// members; a second pass places tuples. First-touch order *is*
    /// ascending first-member order, so the result is canonical without
    /// sorting.
    pub fn from_column_in(values: &[Option<u64>], scratch: &mut ProductScratch) -> Partition {
        let n = values.len();
        let slots = &mut scratch.column_slots;
        let counts = &mut scratch.counts;
        let slot_of = &mut scratch.slot_of;
        slots.clear();
        counts.clear();
        slot_of.clear();
        slot_of.reserve(n);

        for v in values {
            match v {
                Some(v) => {
                    let next = counts.len() as u32;
                    let slot = *slots.entry(*v).or_insert(next);
                    if slot == next {
                        counts.push(0);
                    }
                    counts[slot as usize] += 1;
                    slot_of.push(slot);
                }
                None => slot_of.push(u32::MAX),
            }
        }

        // Turn counts into output cursors, dropping singleton slots.
        let mut n_members = 0usize;
        let mut n_groups = 0usize;
        for c in counts.iter() {
            if *c >= 2 {
                n_members += *c as usize;
                n_groups += 1;
            }
        }
        let mut tuples: Vec<Tuple> = vec![0; n_members];
        let mut offsets: Vec<u32> = Vec::with_capacity(n_groups + 1);
        offsets.push(0);
        let mut cursor = 0u32;
        for c in counts.iter_mut() {
            let size = *c;
            if size >= 2 {
                *c = cursor; // slot's write cursor
                cursor += size;
                offsets.push(cursor);
            } else {
                *c = u32::MAX; // stripped singleton slot
            }
        }
        for (t, &slot) in slot_of.iter().enumerate() {
            if slot != u32::MAX {
                let cur = counts[slot as usize];
                if cur != u32::MAX {
                    tuples[cur as usize] = t as Tuple;
                    counts[slot as usize] = cur + 1;
                }
            }
        }
        let error = n_members - n_groups;
        Partition {
            tuples,
            offsets,
            n_tuples: n,
            error,
        }
    }

    /// Build from explicit groups (singletons are stripped automatically).
    /// Group order is preserved; pass groups in canonical order if the
    /// partition will be compared with `==`.
    pub fn from_groups(groups: Vec<Vec<Tuple>>, n_tuples: usize) -> Partition {
        let mut tuples = Vec::new();
        let mut offsets = vec![0u32];
        for g in groups {
            if g.len() >= 2 {
                tuples.extend_from_slice(&g);
                offsets.push(tuples.len() as u32);
            }
        }
        let error = tuples.len() - (offsets.len() - 1);
        Partition {
            tuples,
            offsets,
            n_tuples,
            error,
        }
    }

    /// The partition `Π_∅`: all tuples in one group (or empty if the
    /// relation has fewer than two tuples).
    pub fn universal(n_tuples: usize) -> Partition {
        if n_tuples >= 2 {
            Partition {
                tuples: (0..n_tuples as Tuple).collect(),
                offsets: vec![0, n_tuples as u32],
                n_tuples,
                error: n_tuples - 1,
            }
        } else {
            Partition {
                tuples: Vec::new(),
                offsets: vec![0],
                n_tuples,
                error: 0,
            }
        }
    }

    /// Number of stripped groups.
    pub fn n_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `i`-th stripped group (size ≥ 2).
    pub fn group(&self, i: usize) -> &[Tuple] {
        &self.tuples[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate the stripped groups (each of size ≥ 2) in canonical order.
    pub fn groups(&self) -> Groups<'_> {
        Groups {
            tuples: &self.tuples,
            offsets: &self.offsets,
            front: 0,
            back: self.offsets.len() - 1,
        }
    }

    /// All group members, back to back (CSR payload).
    pub fn members(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples in the underlying relation.
    pub fn n_tuples(&self) -> usize {
        self.n_tuples
    }

    /// The error measure `e(Π) = Σ(|g| − 1)` over stripped groups.
    pub fn error(&self) -> usize {
        self.error
    }

    /// Heap footprint of the CSR arrays, for cache budget accounting.
    pub fn heap_bytes(&self) -> usize {
        self.tuples.capacity() * std::mem::size_of::<Tuple>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
    }

    /// Size of the largest group (0 when stripped empty). The paper's
    /// `maxGrpSize == 1` key test corresponds to `max_group_size() == 0`
    /// on stripped partitions.
    pub fn max_group_size(&self) -> usize {
        self.groups().map(<[Tuple]>::len).max().unwrap_or(0)
    }

    /// Is the attribute set a key (every tuple distinguished)?
    pub fn is_key(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Linear-time stripped-partition product `Π_self · Π_other`
    /// (the TANE construction behind the paper's lines 9–10).
    ///
    /// Allocates fresh scratch; hot paths should prefer
    /// [`Partition::product_in`] with a reused [`ProductScratch`].
    pub fn product(&self, other: &Partition) -> Partition {
        self.product_in(other, &mut ProductScratch::new())
    }

    /// [`Partition::product`] against caller-owned scratch. In steady
    /// state the only allocations are the two result arrays.
    pub fn product_in(&self, other: &Partition, scratch: &mut ProductScratch) -> Partition {
        debug_assert_eq!(self.n_tuples, other.n_tuples);
        // Probe table: tuple → group index in `self`. Entries are reset
        // after the scan (only `self`'s members were written), so the
        // buffer carries over between products without a full clear.
        let probe = &mut scratch.probe;
        if probe.len() < self.n_tuples {
            probe.resize(self.n_tuples, u32::MAX);
        }
        for (i, g) in self.groups().enumerate() {
            for &t in g {
                probe[t as usize] = i as u32;
            }
        }
        if scratch.bucket_spans.len() < self.n_groups() {
            scratch.bucket_spans.resize(self.n_groups(), (0, 0));
        }
        let out_tuples = &mut scratch.out_tuples;
        let out_groups = &mut scratch.out_groups;
        out_tuples.clear();
        out_groups.clear();
        let mut sorted = true;
        let mut prev_first = 0 as Tuple;
        for g in other.groups() {
            // Pass 1: count this group's members per left bucket.
            for &t in g {
                let i = probe[t as usize];
                if i != u32::MAX {
                    let span = &mut scratch.bucket_spans[i as usize];
                    if span.1 == 0 {
                        scratch.touched.push(i);
                    }
                    span.1 += 1;
                }
            }
            // Lay the buckets out back to back in the flat arena,
            // first-touch order; the span start doubles as pass 2's write
            // cursor (ending at the bucket's end).
            let mut cursor = 0u32;
            for &i in &scratch.touched {
                let span = &mut scratch.bucket_spans[i as usize];
                span.0 = cursor;
                cursor += span.1;
            }
            if scratch.bucket_data.len() < cursor as usize {
                scratch.bucket_data.resize(cursor as usize, 0);
            }
            // Pass 2: place members (ascending within each bucket).
            for &t in g {
                let i = probe[t as usize];
                if i != u32::MAX {
                    let span = &mut scratch.bucket_spans[i as usize];
                    scratch.bucket_data[span.0 as usize] = t;
                    span.0 += 1;
                }
            }
            // Touch order is first-member-ascending *within* this group's
            // scan (members ascend), so each run lands sorted; see the
            // module docs for why runs can interleave across groups.
            for &i in &scratch.touched {
                let (end, len) = scratch.bucket_spans[i as usize];
                if len >= 2 {
                    let bucket = &scratch.bucket_data[(end - len) as usize..end as usize];
                    let first = bucket[0];
                    if out_groups.is_empty() || first > prev_first {
                        prev_first = first;
                    } else {
                        sorted = false;
                    }
                    let start = out_tuples.len() as u32;
                    out_tuples.extend_from_slice(bucket);
                    out_groups.push((start, len));
                }
                scratch.bucket_spans[i as usize] = (0, 0);
            }
            scratch.touched.clear();
        }
        // Reset only the probe entries this product wrote.
        for &t in &self.tuples {
            probe[t as usize] = u32::MAX;
        }
        if !sorted {
            out_groups.sort_unstable_by_key(|&(start, _)| out_tuples[start as usize]);
        }
        // Materialize: exactly two allocations.
        let mut tuples: Vec<Tuple> = Vec::with_capacity(out_tuples.len());
        let mut offsets: Vec<u32> = Vec::with_capacity(out_groups.len() + 1);
        offsets.push(0);
        for &(start, len) in out_groups.iter() {
            tuples.extend_from_slice(&out_tuples[start as usize..(start + len) as usize]);
            offsets.push(tuples.len() as u32);
        }
        let error = tuples.len() - (offsets.len() - 1);
        Partition {
            tuples,
            offsets,
            n_tuples: self.n_tuples,
            error,
        }
    }

    /// Does `self` refine `other` (`Π_self ⊑ Π_other`)? Every group of
    /// `self` must be contained in one group of `other`, treating stripped
    /// singletons as their own groups. Exact (not error-based); used as the
    /// Lemma 1 oracle in tests and for unrelated attribute sets.
    pub fn refines(&self, other: &Partition) -> bool {
        debug_assert_eq!(self.n_tuples, other.n_tuples);
        let gm = GroupMap::new(other);
        self.groups().all(|g| {
            let first = gm.group_of(g[0]);
            // A stripped singleton in `other` cannot contain a group of ≥2.
            first.is_some() && g.iter().all(|&t| gm.group_of(t) == first)
        })
    }

    /// Lemma 2 test specialized to a product: given `sup = self · Π_other`,
    /// `self → other` holds iff the errors agree.
    pub fn same_as_refining(&self, sup: &Partition) -> bool {
        debug_assert!(sup.error <= self.error, "sup must refine self");
        self.error == sup.error
    }

    /// The 16-byte digest of this partition: everything the Lemma 2
    /// validation path consumes, without the CSR payload.
    pub fn summary(&self) -> PartitionSummary {
        PartitionSummary {
            error: self.error,
            n_groups: self.n_groups() as u32,
            max_group: self.max_group_size() as u32,
        }
    }

    /// Error-only refinement kernel: the [`PartitionSummary`] of
    /// `Π_self · Π_base`, where `base` indexes the base partition of one
    /// attribute, with **zero** allocations in steady state — no result
    /// arrays, no descriptor sort, only per-bucket counters. The map is
    /// built once per attribute and amortized over every product that
    /// refines through it, so the cost is `O(|stripped(self)|)` flat.
    ///
    /// Scanning `self` suffices: every product group of size ≥ 2 lies
    /// inside a stripped group of each operand, so tuples outside `self`'s
    /// stripped groups are product singletons and contribute nothing.
    ///
    /// With `bound = Some(m)` the kernel may stop early. Scanning `self`
    /// group by group, it maintains
    ///
    /// * `error` — the product error contributed by scanned groups (a lower
    ///   bound on the final error, since contributions are non-negative);
    /// * `deficit` — the error the scanned groups have already lost
    ///   relative to `self` (`Σ (|g|−1) − contribution`), so
    ///   `self.error − deficit` is an upper bound on the final error
    ///   (unscanned groups can only lose more).
    ///
    /// As soon as `error > 0` and `self.error − deficit < m`, the final
    /// error is provably in `1..m`: the node is not a key and every
    /// candidate FD with `e(Π_lhs) ≥ m` fails, so the scan returns
    /// [`ErrorOnlyProduct::BelowBound`] without visiting the remaining
    /// groups. A bound of 0 never triggers (errors are non-negative), so
    /// key detection always gets an exact summary.
    pub fn error_refine_in(
        &self,
        base: &GroupMap,
        scratch: &mut ProductScratch,
        bound: Option<usize>,
    ) -> ErrorOnlyProduct {
        if scratch.bucket_spans.len() < base.n_groups() {
            scratch.bucket_spans.resize(base.n_groups(), (0, 0));
        }
        let mut error = 0usize;
        let mut deficit = 0usize;
        let mut n_groups = 0u32;
        let mut max_group = 0u32;
        let mut exited = false;
        for g in self.groups() {
            for &t in g {
                if let Some(i) = base.group_of(t) {
                    let span = &mut scratch.bucket_spans[i as usize];
                    if span.1 == 0 {
                        scratch.touched.push(i);
                    }
                    span.1 += 1;
                }
            }
            let mut contribution = 0usize;
            for &i in &scratch.touched {
                let len = scratch.bucket_spans[i as usize].1;
                if len >= 2 {
                    contribution += (len - 1) as usize;
                    n_groups += 1;
                    max_group = max_group.max(len);
                }
                scratch.bucket_spans[i as usize] = (0, 0);
            }
            scratch.touched.clear();
            error += contribution;
            deficit += (g.len() - 1) - contribution;
            if let Some(m) = bound {
                if error > 0 && self.error - deficit < m {
                    exited = true;
                    break;
                }
            }
        }
        if exited {
            ErrorOnlyProduct::BelowBound
        } else {
            ErrorOnlyProduct::Exact(PartitionSummary {
                error,
                n_groups,
                max_group,
            })
        }
    }
}

/// The 16-byte validation digest of a partition: what Lemma 2 checks and
/// key tests consume, without the CSR payload. Stored in the cache's
/// summary tier for nodes that never become product operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSummary {
    /// The error measure `e(Π) = Σ(|g| − 1)`.
    pub error: usize,
    /// Number of stripped groups.
    pub n_groups: u32,
    /// Size of the largest group (0 when stripped empty, i.e. a key).
    pub max_group: u32,
}

impl PartitionSummary {
    /// Is the attribute set a key (every tuple distinguished)?
    pub fn is_key(&self) -> bool {
        self.max_group == 0
    }
}

/// Result of [`Partition::error_refine_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorOnlyProduct {
    /// The scan ran to completion: the product's exact summary.
    Exact(PartitionSummary),
    /// Early exit: the product error is provably `≥ 1` and `< bound`, so
    /// the node is not a key and every candidate edge whose lhs error is
    /// `≥ bound` fails.
    BelowBound,
}

/// Iterator over a partition's groups as slices.
#[derive(Debug, Clone)]
pub struct Groups<'a> {
    tuples: &'a [Tuple],
    offsets: &'a [u32],
    front: usize,
    back: usize,
}

impl<'a> Iterator for Groups<'a> {
    type Item = &'a [Tuple];

    fn next(&mut self) -> Option<&'a [Tuple]> {
        if self.front == self.back {
            return None;
        }
        let g =
            &self.tuples[self.offsets[self.front] as usize..self.offsets[self.front + 1] as usize];
        self.front += 1;
        Some(g)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Groups<'_> {}

impl<'a> DoubleEndedIterator for Groups<'a> {
    fn next_back(&mut self) -> Option<&'a [Tuple]> {
        if self.front == self.back {
            return None;
        }
        self.back -= 1;
        Some(&self.tuples[self.offsets[self.back] as usize..self.offsets[self.back + 1] as usize])
    }
}

/// Tuple → group lookup for one partition; `None` means the tuple is a
/// stripped singleton.
#[derive(Debug)]
pub struct GroupMap {
    map: Vec<u32>,
    n_groups: usize,
}

impl GroupMap {
    /// Build the lookup (O(n) in the relation size).
    pub fn new(p: &Partition) -> GroupMap {
        let mut map = vec![u32::MAX; p.n_tuples()];
        for (i, g) in p.groups().enumerate() {
            for &t in g {
                map[t as usize] = i as u32;
            }
        }
        GroupMap {
            map,
            n_groups: p.n_groups(),
        }
    }

    /// Number of stripped groups in the indexed partition.
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Heap bytes held by the lookup table.
    pub fn heap_bytes(&self) -> usize {
        self.map.capacity() * std::mem::size_of::<u32>()
    }

    /// Group index of `t`, or `None` if `t` is in a stripped singleton.
    pub fn group_of(&self, t: Tuple) -> Option<u32> {
        match self.map[t as usize] {
            u32::MAX => None,
            g => Some(g),
        }
    }

    /// Does the partition separate `t1` and `t2` (put them in different
    /// groups)? Singletons are separate from everything.
    pub fn separates(&self, t1: Tuple, t2: Tuple) -> bool {
        debug_assert_ne!(t1, t2, "a tuple is never separated from itself");
        match (self.group_of(t1), self.group_of(t2)) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[Option<u64>]) -> Partition {
        Partition::from_column(vals)
    }

    fn group_vecs(p: &Partition) -> Vec<Vec<Tuple>> {
        p.groups().map(<[Tuple]>::to_vec).collect()
    }

    #[test]
    fn from_column_groups_equal_values_and_strips_singletons() {
        // Values: a a b c c c, null
        let p = col(&[Some(1), Some(1), Some(2), Some(3), Some(3), Some(3), None]);
        assert_eq!(p.n_groups(), 2);
        assert_eq!(p.group(0), &[0, 1]);
        assert_eq!(p.group(1), &[3, 4, 5]);
        assert_eq!(p.error(), 1 + 2);
        assert_eq!(p.max_group_size(), 3);
        assert!(!p.is_key());
    }

    #[test]
    fn nulls_are_distinct_from_each_other() {
        let p = col(&[None, None, None]);
        assert!(p.is_key(), "all-null column distinguishes every tuple");
    }

    #[test]
    fn key_detection() {
        assert!(col(&[Some(1), Some(2), Some(3)]).is_key());
        assert!(!col(&[Some(1), Some(1)]).is_key());
        assert!(Partition::universal(1).is_key());
        assert!(!Partition::universal(2).is_key());
    }

    #[test]
    fn product_intersects_groups() {
        // X: {0,1,2,3} in one group; Y: {0,1} and {2,3}.
        let x = Partition::from_groups(vec![vec![0, 1, 2, 3]], 4);
        let y = Partition::from_groups(vec![vec![0, 1], vec![2, 3]], 4);
        let xy = x.product(&y);
        assert_eq!(group_vecs(&xy), vec![vec![0, 1], vec![2, 3]]);
        // Product is commutative on the group structure.
        let yx = y.product(&x);
        assert_eq!(xy, yx);
    }

    #[test]
    fn product_strips_new_singletons() {
        let x = Partition::from_groups(vec![vec![0, 1, 2]], 3);
        let y = Partition::from_groups(vec![vec![0, 1]], 3); // 2 is singleton
        let xy = x.product(&y);
        assert_eq!(group_vecs(&xy), vec![vec![0, 1]]);
        assert_eq!(xy.error(), 1);
    }

    #[test]
    fn product_matches_column_product() {
        // Π_{AB} computed by product equals Π computed from paired values.
        let a = [Some(1), Some(1), Some(2), Some(2), Some(1), None];
        let b = [Some(9), Some(9), Some(9), Some(8), Some(8), Some(9)];
        let pa = col(&a);
        let pb = col(&b);
        let prod = pa.product(&pb);
        let paired: Vec<Option<u64>> = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| match (x, y) {
                (Some(x), Some(y)) => Some(x * 1000 + y),
                _ => None,
            })
            .collect();
        assert_eq!(prod, col(&paired));
    }

    #[test]
    fn product_restores_canonical_order_across_runs() {
        // Left groups {0,100,101} and {1,2}; the right operand keeps
        // {100,101} and {1,2} together. The raw emission order is
        // [100,101] then [1,2] (runs per left group); the canonical
        // result must list [1,2] first.
        let left = Partition::from_groups(vec![vec![0, 100, 101], vec![1, 2]], 102);
        let mut right_groups = vec![vec![100, 101], vec![1, 2]];
        right_groups.sort_by_key(|g| g[0]);
        let right = Partition::from_groups(right_groups, 102);
        let prod = left.product(&right);
        assert_eq!(group_vecs(&prod), vec![vec![1, 2], vec![100, 101]]);
        // And the canonical forms compare equal regardless of operand
        // order.
        assert_eq!(prod, right.product(&left));
    }

    #[test]
    fn from_column_is_first_member_sorted_without_sorting() {
        // Values deliberately interleaved: group of value 7 starts at
        // tuple 0, group of value 3 at tuple 1.
        let p = col(&[Some(7), Some(3), Some(7), Some(3), Some(7)]);
        assert_eq!(group_vecs(&p), vec![vec![0, 2, 4], vec![1, 3]]);
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let mut scratch = ProductScratch::new();
        let cols: Vec<Vec<Option<u64>>> = vec![
            vec![Some(1), Some(1), Some(2), Some(2), None],
            vec![Some(5), Some(6), Some(5), Some(5), Some(5)],
            vec![Some(9), Some(9), Some(9), Some(8), Some(8)],
        ];
        let fresh: Vec<Partition> = cols.iter().map(|c| Partition::from_column(c)).collect();
        let reused: Vec<Partition> = cols
            .iter()
            .map(|c| Partition::from_column_in(c, &mut scratch))
            .collect();
        assert_eq!(fresh, reused);
        for a in &fresh {
            for b in &fresh {
                assert_eq!(a.product(b), a.product_in(b, &mut scratch));
            }
        }
    }

    #[test]
    fn refinement_oracle() {
        let coarse = col(&[Some(1), Some(1), Some(1), Some(2), Some(2)]);
        let fine = col(&[Some(1), Some(1), Some(3), Some(2), Some(2)]);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
        assert!(fine.refines(&fine));
        assert!(
            Partition::from_groups(vec![], 5).refines(&coarse),
            "key refines all"
        );
        assert!(coarse.refines(&Partition::universal(5)));
    }

    #[test]
    fn lemma_2_error_equality_matches_exact_refinement() {
        // X→A iff Π_X = Π_X·Π_A iff errors equal.
        let x = col(&[Some(1), Some(1), Some(2), Some(2)]);
        let a_held = col(&[Some(7), Some(7), Some(8), Some(8)]); // X→A holds
        let a_viol = col(&[Some(7), Some(6), Some(8), Some(8)]); // violated by t0,t1
        let xa1 = x.product(&a_held);
        let xa2 = x.product(&a_viol);
        assert!(x.same_as_refining(&xa1));
        assert!(!x.same_as_refining(&xa2));
    }

    #[test]
    fn group_map_separation() {
        let p = col(&[Some(1), Some(1), Some(2), Some(2), Some(3)]);
        let gm = GroupMap::new(&p);
        assert!(!gm.separates(0, 1));
        assert!(gm.separates(0, 2));
        assert!(gm.separates(0, 4), "singleton separates from everything");
        assert_eq!(gm.group_of(4), None);
    }

    #[test]
    fn universal_partition_separates_nothing() {
        let p = Partition::universal(3);
        let gm = GroupMap::new(&p);
        assert!(!gm.separates(0, 1));
        assert!(!gm.separates(1, 2));
    }

    #[test]
    fn groups_iterator_is_exact_size_and_double_ended() {
        let p = col(&[Some(1), Some(1), Some(2), Some(2), Some(3), Some(3)]);
        assert_eq!(p.groups().len(), 3);
        let forward: Vec<_> = p.groups().collect();
        let mut backward: Vec<_> = p.groups().rev().collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn summary_digests_the_partition() {
        let p = col(&[Some(1), Some(1), Some(2), Some(2), Some(2), None]);
        let s = p.summary();
        assert_eq!(s.error, p.error());
        assert_eq!(s.n_groups as usize, p.n_groups());
        assert_eq!(s.max_group as usize, p.max_group_size());
        assert!(!s.is_key());
        assert!(col(&[Some(1), Some(2)]).summary().is_key());
    }

    #[test]
    fn product_error_matches_materialized_product() {
        let mut scratch = ProductScratch::new();
        let cols: Vec<Vec<Option<u64>>> = vec![
            vec![Some(1), Some(1), Some(2), Some(2), None, Some(1)],
            vec![Some(5), Some(6), Some(5), Some(5), Some(5), Some(6)],
            vec![Some(9), Some(9), Some(9), Some(8), Some(8), Some(9)],
            vec![Some(1), Some(2), Some(3), Some(4), Some(5), Some(6)],
            vec![None, None, None, None, None, None],
        ];
        let parts: Vec<Partition> = cols.iter().map(|c| Partition::from_column(c)).collect();
        for a in &parts {
            for b in &parts {
                let full = a.product_in(b, &mut scratch);
                let got = a.error_refine_in(&GroupMap::new(b), &mut scratch, None);
                assert_eq!(got, ErrorOnlyProduct::Exact(full.summary()));
            }
        }
    }

    #[test]
    fn product_error_early_exit_is_sound() {
        // X = {0..5} in one group; A splits it into {0,1,2} and {3,4,5}.
        let x = Partition::from_groups(vec![vec![0, 1, 2, 3, 4, 5]], 6);
        let a = col(&[Some(1), Some(1), Some(1), Some(2), Some(2), Some(2)]);
        let true_error = x.product(&a).error(); // 4
        let mut scratch = ProductScratch::new();
        for bound in 0..=x.error() + 1 {
            let got = x.error_refine_in(&GroupMap::new(&a), &mut scratch, Some(bound));
            if true_error < bound {
                assert_eq!(got, ErrorOnlyProduct::BelowBound, "bound {bound}");
            } else {
                assert_eq!(
                    got,
                    ErrorOnlyProduct::Exact(x.product(&a).summary()),
                    "bound {bound}"
                );
            }
        }
        // A key product never exits early, whatever the bound: the exit
        // requires error > 0.
        let key_side = col(&[Some(1), Some(2), Some(3), Some(4), Some(5), Some(6)]);
        let got = x.error_refine_in(&GroupMap::new(&key_side), &mut scratch, Some(usize::MAX));
        assert_eq!(got, ErrorOnlyProduct::Exact(x.product(&key_side).summary()));
        assert!(x.product(&key_side).is_key());
    }

    #[test]
    fn heap_bytes_tracks_payload() {
        let p = col(&[Some(1), Some(1), Some(2), Some(2)]);
        // 4 members + 3 offsets, 4 bytes each; capacity may round up.
        assert!(p.heap_bytes() >= (4 + 3) * 4);
    }
}
