#![warn(missing_docs)]
//! # xfd-relation
//!
//! The two relational encodings of an XML database that Section 4.1 of the
//! paper contrasts:
//!
//! * the **hierarchical representation** (Figure 6): one relation per
//!   essential tuple class, holding `@key`, `parent`, one column per
//!   non-repeatable schema element owned by the pivot, and — our
//!   reconstruction of Section 4.4 — one *set-valued column* per child set
//!   element whose cells are canonical multiset identifiers, so that FDs
//!   over set elements (Constraints 3 and 4) reduce to ordinary attribute
//!   partitions;
//! * the **flat representation** (Figure 5): the fully unnested single
//!   relation of tree tuples in the sense of Arenas & Libkin, used as the
//!   baseline substrate. Its row count multiplies across parallel set
//!   elements; [`flat::FlatError::RowLimit`] guards against blow-up.
//!
//! [`Forest`] owns the full hierarchical encoding: the relations, the
//! parent/child relation tree that `DiscoverXFD` walks bottom-up, and the
//! shared value [`Dictionary`].

pub mod dictionary;
pub mod encode;
pub mod export;
pub mod flat;
pub mod gtt;
pub mod relation;
pub mod setvalue;
pub mod shard;
pub mod treetuple;

pub use dictionary::Dictionary;
pub use encode::{encode, ComplexColumnMode, EncodeConfig, SetColumnMode};
pub use flat::{flatten, FlatError, FlatRelation};
pub use relation::{Column, ColumnKind, Forest, ForestStats, RelId, Relation, TupleIdx};
pub use shard::{
    build_partial, build_partials, decode_partial, encode_collection, encode_partial,
    forest_fingerprint, merge_partials, ForestMerge, SegmentPartial, PARTIAL_MAGIC,
};
pub use treetuple::{decode_tree, encode_tree, trees_equal, DecodeError};
pub use xfd_xml::OrderMode;
