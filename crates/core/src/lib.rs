#![warn(missing_docs)]
//! # discoverxfd
//!
//! The DiscoverXFD system (Yu & Jagadish, *Efficient Discovery of XML Data
//! Redundancies*, VLDB 2006): discovery of XML functional dependencies,
//! XML keys and the data redundancies they indicate, over the generalized
//! tree tuple FD notion of Section 3.
//!
//! ## Quick start
//!
//! ```
//! use discoverxfd::{discover, DiscoveryConfig};
//! use xfd_xml::parse;
//!
//! let doc = parse(
//!     "<shop>\
//!        <book><isbn>1</isbn><title>DBMS</title></book>\
//!        <book><isbn>1</isbn><title>DBMS</title></book>\
//!        <book><isbn>2</isbn><title>TCP/IP</title></book>\
//!      </shop>",
//! ).unwrap();
//! let report = discover(&doc, &DiscoveryConfig::default());
//! // {./isbn} -> ./title holds but ./isbn is not a key: redundancy.
//! assert!(report.redundancies.iter().any(|r| r.fd.to_string().contains("isbn")));
//! ```
//!
//! ## Architecture
//!
//! * [`intra`] — the partition/lattice algorithm `DiscoverFD` (Figure 8)
//!   over a single relation; also powers the flat-representation baseline;
//! * [`discover_forest`](xfd::discover_forest) — `DiscoverXFD` (Figures
//!   9–10): bottom-up traversal of the relation forest propagating
//!   *partition targets* to find inter-relation FDs and keys;
//! * [`interesting`] — Definition 9/10 filters (trivial, essential tuple
//!   class, RHS below pivot);
//! * [`redundancy`] — Definition 11: a satisfied interesting FD whose LHS
//!   is not a key, plus redundant-value counting;
//! * [`baseline`] — the Section 4.1 strawman: full unnesting + relational
//!   (TANE-style) discovery, for the head-to-head experiments;
//! * [`bruteforce`] — a definition-level oracle used by the test suite to
//!   validate soundness/completeness on small documents;
//! * [`normalize`] — XNF-flavoured schema-refinement suggestions derived
//!   from the discovered redundancies (the application the paper
//!   motivates), plus an executor that applies a suggestion to the data;
//! * [`approximate`] — `g₃`-style approximate FDs for dirty data (an
//!   extension beyond the paper).

pub mod approximate;
pub mod baseline;
pub mod bruteforce;
pub mod config;
pub mod cover;
pub mod diff;
pub mod driver;
pub mod fd;
pub mod graphviz;
pub mod inclusion;
pub mod interesting;
pub mod intra;
pub mod lattice;
pub mod memo;
pub mod normalize;
pub mod pathfd;
pub mod profile;
pub mod redundancy;
pub mod report;
pub mod sampling;
pub mod target;
pub mod verify;
pub mod wire;
pub mod xfd;

pub use config::{DiscoveryConfig, PruneConfig};
pub use driver::{
    discover, discover_collection, discover_prepared, discover_prepared_with,
    discover_trees_with_memo, discover_with_schema, merge_collection, DiscoveryReport,
    PhaseTimings, RunOutcome, RunStatsBundle,
};
pub use fd::{FdScope, Xfd, XmlKey};
pub use memo::{
    discover_forest_memo_with, run_task, task_in_bounds, MemoStats, PassRunner, RelationMemo,
    RelationProgress, WaveTask,
};
pub use redundancy::Redundancy;
pub use wire::{decode_config, encode_config};
