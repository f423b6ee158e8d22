//! Reusable workspace for partition construction and products.
//!
//! [`Partition::product_in`](crate::Partition::product_in) and
//! [`Partition::from_column_in`](crate::Partition::from_column_in) do all
//! their temporary work inside a [`ProductScratch`]: the probe table
//! (tuple → left-group), the flat bucket arena, the touched-group
//! list and the staging buffers for the result. The buffers keep their
//! capacity between calls, so a lattice traversal that computes thousands
//! of products allocates only the two CSR arrays of each *result* —
//! everything else is reused (and the error-only kernel
//! [`Partition::error_refine_in`](crate::Partition::error_refine_in)
//! allocates nothing at all in steady state). One scratch per worker
//! thread; scratches are never shared.
//!
//! ## Bucket arena
//!
//! Products bucket one right-operand group's members by their left-operand
//! group. Instead of one `Vec<Tuple>` per left group (a heap allocation
//! each, scattered across the heap), buckets live back to back in a single
//! flat `bucket_data` arena with per-left-group `(cursor, len)` spans:
//! pass 1 counts members per bucket, the spans are laid out prefix-sum
//! style, pass 2 places the members. Steady-state products touch one
//! contiguous buffer regardless of group count.

use xfd_hash::FxHashMap;

use crate::partition::Tuple;

/// Reusable buffers for partition products and column builds.
///
/// Contents between calls are unspecified except for two invariants the
/// product relies on: every `probe` entry is `u32::MAX` on entry and is
/// restored to `u32::MAX` before returning (only the left operand's
/// members are ever written, and exactly those are reset), and every
/// `bucket_spans` entry is `(0, 0)` on entry and restored before
/// returning (only touched groups are written, and exactly those are
/// reset).
#[derive(Debug, Default)]
pub struct ProductScratch {
    /// tuple → group index in the product's left operand; `u32::MAX`
    /// outside a product call.
    pub(crate) probe: Vec<u32>,
    /// Flat bucket arena: members of the current right group, laid out
    /// back to back per left-group bucket.
    pub(crate) bucket_data: Vec<Tuple>,
    /// Per-left-group `(cursor, len)` spans over `bucket_data`; `(0, 0)`
    /// outside calls. During a product, `len` is the bucket's member
    /// count and `cursor` walks from the bucket's start to its end.
    pub(crate) bucket_spans: Vec<(u32, u32)>,
    /// Left groups with a non-empty bucket for the current right group.
    pub(crate) touched: Vec<u32>,
    /// Staging area for result members before canonical reordering.
    pub(crate) out_tuples: Vec<Tuple>,
    /// Staged `(start, len)` group descriptors over `out_tuples`.
    pub(crate) out_groups: Vec<(u32, u32)>,
    /// value → group slot for `from_column_in`.
    pub(crate) column_slots: FxHashMap<u64, u32>,
    /// Per-slot member counts, then per-slot write cursors.
    pub(crate) counts: Vec<u32>,
    /// Per-tuple slot assignment (`u32::MAX` for ⊥).
    pub(crate) slot_of: Vec<u32>,
}

impl ProductScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        ProductScratch::default()
    }

    /// Resident heap footprint of the scratch buffers.
    pub fn heap_bytes(&self) -> usize {
        let words = self.probe.capacity()
            + self.touched.capacity()
            + self.out_tuples.capacity()
            + self.counts.capacity()
            + self.slot_of.capacity()
            + self.bucket_data.capacity();
        words * std::mem::size_of::<u32>()
            + (self.out_groups.capacity() + self.bucket_spans.capacity())
                * std::mem::size_of::<(u32, u32)>()
            + self.column_slots.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{GroupMap, Partition};

    #[test]
    fn probe_invariant_holds_after_products() {
        let mut scratch = ProductScratch::new();
        let a = Partition::from_column(&[Some(1), Some(1), Some(2), Some(2), Some(3), Some(3)]);
        let b = Partition::from_column(&[Some(1), Some(2), Some(1), Some(2), Some(1), Some(2)]);
        let _ = a.product_in(&b, &mut scratch);
        assert!(scratch.probe.iter().all(|&x| x == u32::MAX));
        let _ = b.product_in(&a, &mut scratch);
        assert!(scratch.probe.iter().all(|&x| x == u32::MAX));
    }

    #[test]
    fn span_invariant_holds_after_products() {
        let mut scratch = ProductScratch::new();
        let a = Partition::from_column(&[Some(1), Some(1), Some(2), Some(2), Some(3), Some(3)]);
        let b = Partition::from_column(&[Some(1), Some(2), Some(1), Some(2), Some(1), Some(2)]);
        let _ = a.product_in(&b, &mut scratch);
        assert!(scratch.bucket_spans.iter().all(|&s| s == (0, 0)));
        let _ = a.error_refine_in(&GroupMap::new(&b), &mut scratch, None);
        assert!(scratch.bucket_spans.iter().all(|&s| s == (0, 0)));
        assert!(scratch.probe.iter().all(|&x| x == u32::MAX));
    }

    #[test]
    fn capacity_is_retained_between_calls() {
        let mut scratch = ProductScratch::new();
        let vals: Vec<Option<u64>> = (0..1000).map(|i| Some(i % 10)).collect();
        let p = Partition::from_column_in(&vals, &mut scratch);
        let _ = p.product_in(&p, &mut scratch);
        let probe_cap = scratch.probe.capacity();
        let out_cap = scratch.out_tuples.capacity();
        let arena_cap = scratch.bucket_data.capacity();
        let _ = p.product_in(&p, &mut scratch);
        assert_eq!(scratch.probe.capacity(), probe_cap);
        assert_eq!(scratch.out_tuples.capacity(), out_cap);
        assert_eq!(scratch.bucket_data.capacity(), arena_cap);
    }
}
