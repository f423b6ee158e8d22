#![warn(missing_docs)]
//! # xfd-partition
//!
//! Partition machinery for DiscoverXFD (Section 4.2 of the paper):
//!
//! * [`AttrSet`] — small bitset over a relation's attributes; lattice nodes;
//! * [`Partition`] — *stripped* attribute partitions (footnote 5): the
//!   groups of tuples agreeing on an attribute set, with singleton groups
//!   dropped; linear-time partition product (the TANE construction the
//!   paper's lines 9–10 allude to); refinement tests realizing Lemmas 1–2;
//! * [`GroupMap`] — a tuple → group index for fast "does this partition
//!   separate tuples t₁, t₂?" queries;
//! * [`PairSet`] — sets of tuple-pair *inequalities*, the building block of
//!   the paper's partition targets (`FDTarget` / `KeyTarget`, Figure 10),
//!   with the parent-index mapping of `updatePT`;
//! * [`PartitionCache`] — memory-bounded memoization of partitions per
//!   attribute set, counting its work into [`RunStats`];
//! * [`RunStats`] — the work counters of one lattice traversal (nodes,
//!   products, cache hits, evictions, residency), the one value every
//!   report, status and metrics total is summed from; used by the
//!   pruning-ablation experiment;
//! * [`ProductScratch`] — reusable per-worker buffers making partition
//!   construction and products allocation-free in steady state.
//!
//! Partitions are stored in a flat CSR layout (one contiguous member
//! array plus group offsets) in a canonical order — groups by first
//! member, members ascending — so equal partitions are representationally
//! equal and traversals are deterministic; see the [`partition`] module
//! docs for the layout and ordering rationale.

pub mod attrset;
pub mod cache;
pub mod pairs;
pub mod partition;
pub mod scratch;

pub use attrset::AttrSet;
pub use cache::{PartitionCache, RunStats};
pub use pairs::{Collapse, PairSet};
pub use partition::{ErrorOnlyProduct, GroupMap, Groups, Partition, PartitionSummary, Tuple};
pub use scratch::ProductScratch;
