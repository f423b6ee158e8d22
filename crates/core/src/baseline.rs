//! The Section 4.1 baseline: flatten the document into the single relation
//! of tree tuples (Figure 5) and run a relational, TANE-style FD discovery
//! over it.
//!
//! The experiments use this to reproduce the paper's two criticisms:
//!
//! 1. the flat relation's width equals the *entire* schema and its row
//!    count multiplies across parallel set elements, so the exponential
//!    lattice and the partition sizes blow up together;
//! 2. set-element FDs (Constraints 3–4) are not expressible — the baseline
//!    reports FD 3 as *violated* (two authors of one book share an ISBN
//!    but differ in value), exactly the semantic failure of Section 2.3.

use std::fmt;
use std::time::{Duration, Instant};

use xfd_partition::AttrSet;
use xfd_relation::{flatten, FlatError, FlatRelation};
use xfd_schema::Schema;
use xfd_xml::DataTree;

use crate::intra::{discover_intra, IntraOptions, RunStats};

/// Baseline failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// Unnesting exceeded the row cap.
    Flatten(FlatError),
    /// The schema has more than 128 elements — beyond the bitset the
    /// lattice uses (and far beyond where the baseline is practical).
    TooWide {
        /// Number of schema elements.
        columns: usize,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Flatten(e) => write!(f, "{e}"),
            BaselineError::TooWide { columns } => {
                write!(
                    f,
                    "flat relation has {columns} columns; the baseline supports at most 64"
                )
            }
        }
    }
}

impl std::error::Error for BaselineError {}

/// A baseline FD in schema-path form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatFd {
    /// LHS absolute schema paths.
    pub lhs: Vec<String>,
    /// RHS absolute schema path.
    pub rhs: String,
}

impl fmt::Display for FlatFd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}} -> {}", self.lhs.join(", "), self.rhs)
    }
}

/// Output of the baseline run.
#[derive(Debug)]
pub struct BaselineResult {
    /// Minimal FDs over the flat relation.
    pub fds: Vec<FlatFd>,
    /// Minimal keys (as path lists).
    pub keys: Vec<Vec<String>>,
    /// Rows in the flat relation.
    pub rows: usize,
    /// Columns in the flat relation.
    pub columns: usize,
    /// Lattice counters.
    pub stats: RunStats,
    /// Time spent flattening.
    pub flatten_time: Duration,
    /// Time spent in discovery.
    pub discover_time: Duration,
}

/// Options for the baseline.
#[derive(Debug, Clone, Copy)]
pub struct BaselineOptions {
    /// Row cap for unnesting.
    pub max_rows: usize,
    /// LHS size bound.
    pub max_lhs: usize,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions {
            max_rows: 1_000_000,
            max_lhs: usize::MAX,
        }
    }
}

/// Run the flat baseline end to end.
pub fn discover_flat(
    tree: &DataTree,
    schema: &Schema,
    options: &BaselineOptions,
) -> Result<BaselineResult, BaselineError> {
    let t0 = Instant::now();
    let flat: FlatRelation =
        flatten(tree, schema, options.max_rows).map_err(BaselineError::Flatten)?;
    let flatten_time = t0.elapsed();
    if flat.n_cols() > 64 {
        return Err(BaselineError::TooWide {
            columns: flat.n_cols(),
        });
    }
    let columns: Vec<&[Option<u64>]> = (0..flat.n_cols()).map(|c| flat.column_cells(c)).collect();
    let t1 = Instant::now();
    let res = discover_intra(
        &columns,
        flat.n_rows(),
        &IntraOptions {
            max_lhs: options.max_lhs,
            ..Default::default()
        },
    );
    let discover_time = t1.elapsed();

    let path_of = |a: usize| flat.column_names[a].clone();
    let set_paths = |s: AttrSet| s.iter().map(path_of).collect::<Vec<_>>();
    Ok(BaselineResult {
        fds: res
            .fds
            .iter()
            .map(|fd| FlatFd {
                lhs: set_paths(fd.lhs),
                rhs: path_of(fd.rhs),
            })
            .collect(),
        keys: res.keys.iter().map(|&k| set_paths(k)).collect(),
        rows: flat.n_rows(),
        columns: flat.n_cols(),
        stats: res.stats,
        flatten_time,
        discover_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    #[test]
    fn baseline_finds_plain_fds() {
        let t = parse(
            "<w>\
             <book><isbn>1</isbn><title>A</title></book>\
             <book><isbn>1</isbn><title>A</title></book>\
             <book><isbn>2</isbn><title>B</title></book>\
             </w>",
        )
        .unwrap();
        let s = infer_schema(&t);
        let res = discover_flat(&t, &s, &BaselineOptions::default()).unwrap();
        assert!(res
            .fds
            .iter()
            .any(|fd| fd.rhs == "/w/book/title" && fd.lhs == vec!["/w/book/isbn".to_string()]));
    }

    /// The Section 2.3 semantic failure: under the flat notion,
    /// `ISBN → author` is violated by multi-author books even though the
    /// set-based Constraint 3 holds.
    #[test]
    fn baseline_misses_set_element_fd() {
        let t = parse(
            "<w>\
             <book><isbn>1</isbn><a>R</a><a>G</a></book>\
             <book><isbn>1</isbn><a>G</a><a>R</a></book>\
             <book><isbn>2</isbn><a>R</a></book>\
             </w>",
        )
        .unwrap();
        let s = infer_schema(&t);
        let res = discover_flat(&t, &s, &BaselineOptions::default()).unwrap();
        assert!(
            !res.fds
                .iter()
                .any(|fd| fd.rhs == "/w/book/a" && fd.lhs == vec!["/w/book/isbn".to_string()]),
            "flat baseline must NOT find isbn→author: {:#?}",
            res.fds
        );
    }

    #[test]
    fn row_cap_propagates() {
        let t = parse("<r><a>1</a><a>2</a><b>x</b><b>y</b></r>").unwrap();
        let s = infer_schema(&t);
        let err = discover_flat(
            &t,
            &s,
            &BaselineOptions {
                max_rows: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BaselineError::Flatten(_)));
    }

    #[test]
    fn flat_dimensions_are_reported() {
        let t = parse("<r><a>1</a><a>2</a><b>x</b><b>y</b><b>z</b></r>").unwrap();
        let s = infer_schema(&t);
        let res = discover_flat(&t, &s, &BaselineOptions::default()).unwrap();
        assert_eq!(res.rows, 6);
        assert_eq!(res.columns, 3); // r, a, b
    }
}
