//! Verifying a *given* XML FD or Key against a document — the complement
//! of discovery (Definition 7 checking, with witnesses).
//!
//! FD expressions use the same syntax the system prints:
//!
//! ```text
//! {./ISBN, ../contact/name} -> ./price w.r.t. C_book
//! {./ISBN} -> ./title w.r.t. C_/warehouse/state/store/book
//! ```
//!
//! The tuple class may be a full pivot path or a `C_<label>` shorthand
//! resolved against the forest (it must be unambiguous).

use std::fmt;
use std::str::FromStr;

use xfd_partition::{AttrSet, ProductScratch};
use xfd_relation::{Forest, RelId};
use xfd_xml::{NodeId, Path};

use crate::redundancy::lhs_partition;

/// A parsed-but-unresolved FD expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdSpec {
    /// LHS paths relative to the pivot.
    pub lhs: Vec<Path>,
    /// RHS path relative to the pivot.
    pub rhs: Path,
    /// The tuple class: a full pivot path or a bare label.
    pub class: ClassRef,
}

/// How the tuple class was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassRef {
    /// `C_/warehouse/state/store/book`.
    Path(Path),
    /// `C_book` — resolved against the forest (must be unambiguous).
    Label(String),
}

/// Parse failure for an FD expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdParseError(pub String);

impl fmt::Display for FdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid FD expression: {}", self.0)
    }
}

impl std::error::Error for FdParseError {}

impl FromStr for FdSpec {
    type Err = FdParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || FdParseError(s.to_string());
        let s = s.trim();
        let open = s.find('{').ok_or_else(err)?;
        let close = s.find('}').ok_or_else(err)?;
        if open != 0 || close < open {
            return Err(err());
        }
        let lhs_body = &s[open + 1..close];
        let mut lhs = Vec::new();
        for part in lhs_body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            lhs.push(part.parse::<Path>().map_err(|_| err())?);
        }
        let rest = s[close + 1..].trim();
        let rest = rest.strip_prefix("->").ok_or_else(err)?.trim();
        let wrt = rest.find("w.r.t.").ok_or_else(err)?;
        let rhs = rest[..wrt].trim().parse::<Path>().map_err(|_| err())?;
        let class_str = rest[wrt + "w.r.t.".len()..].trim();
        let class_str = class_str.strip_prefix("C_").unwrap_or(class_str);
        let class = if class_str.starts_with('/') {
            ClassRef::Path(class_str.parse::<Path>().map_err(|_| err())?)
        } else if !class_str.is_empty() {
            ClassRef::Label(class_str.to_string())
        } else {
            return Err(err());
        };
        Ok(FdSpec { lhs, rhs, class })
    }
}

/// Why verification could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// No relation matches the tuple class.
    UnknownClass(String),
    /// Several relations share the shorthand label.
    AmbiguousClass(String),
    /// An LHS path does not denote a column of the class's relation or an
    /// ancestor relation.
    UnknownLhsPath(Path),
    /// The RHS path does not denote a column of the class's relation.
    UnknownRhsPath(Path),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownClass(c) => write!(f, "unknown tuple class {c:?}"),
            VerifyError::AmbiguousClass(c) => {
                write!(
                    f,
                    "tuple class label {c:?} is ambiguous; use the full pivot path"
                )
            }
            VerifyError::UnknownLhsPath(p) => write!(f, "LHS path {p} is not a known element"),
            VerifyError::UnknownRhsPath(p) => {
                write!(f, "RHS path {p} is not an element below the pivot")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// A violating pair of pivot nodes (node keys of the document).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// First pivot node.
    pub node1: NodeId,
    /// Second pivot node.
    pub node2: NodeId,
}

/// Verification outcome.
#[derive(Debug, Clone)]
pub struct FdReport {
    /// Does the FD hold (Definition 7)?
    pub holds: bool,
    /// True when it holds but no two tuples ever agreed on the LHS — the
    /// FD is also a Key (and can indicate no redundancy).
    pub lhs_is_key: bool,
    /// Up to `max_witnesses` violating pivot-node pairs.
    pub violations: Vec<Violation>,
    /// Number of tuples inspected.
    pub tuples: usize,
}

fn resolve_class(forest: &Forest, class: &ClassRef) -> Result<RelId, VerifyError> {
    match class {
        ClassRef::Path(p) => forest
            .relation_by_path(p)
            .ok_or_else(|| VerifyError::UnknownClass(p.to_string())),
        ClassRef::Label(l) => {
            let matches: Vec<RelId> = forest
                .relations
                .iter()
                .filter(|r| &r.name == l)
                .map(|r| r.id)
                .collect();
            match matches.as_slice() {
                [] => Err(VerifyError::UnknownClass(l.clone())),
                [one] => Ok(*one),
                _ => Err(VerifyError::AmbiguousClass(l.clone())),
            }
        }
    }
}

/// Locate the `(relation, column)` a pivot-relative path denotes, searching
/// the origin relation and its ancestors.
fn resolve_column(forest: &Forest, origin: RelId, path: &Path) -> Option<(RelId, usize)> {
    let origin_pivot = &forest.relation(origin).pivot_path;
    let abs = path.to_absolute(origin_pivot)?;
    let mut cur = Some(origin);
    while let Some(rel_id) = cur {
        let rel = forest.relation(rel_id);
        for (c, col) in rel.columns.iter().enumerate() {
            let col_abs = col.rel_path.to_absolute(&rel.pivot_path)?;
            if col_abs == abs {
                return Some((rel_id, c));
            }
        }
        cur = rel.parent;
    }
    None
}

/// Verify an FD expression against an encoded forest.
pub fn verify_fd(
    forest: &Forest,
    spec: &FdSpec,
    max_witnesses: usize,
) -> Result<FdReport, VerifyError> {
    let origin = resolve_class(forest, &spec.class)?;
    let mut levels: Vec<(RelId, AttrSet)> = Vec::new();
    for p in &spec.lhs {
        let (rel, col) = resolve_column(forest, origin, p)
            .ok_or_else(|| VerifyError::UnknownLhsPath(p.clone()))?;
        match levels.iter_mut().find(|(r, _)| *r == rel) {
            Some((_, set)) => *set = set.insert(col),
            None => levels.push((rel, AttrSet::single(col))),
        }
    }
    let (rhs_rel, rhs_col) = resolve_column(forest, origin, &spec.rhs)
        .ok_or_else(|| VerifyError::UnknownRhsPath(spec.rhs.clone()))?;
    if rhs_rel != origin {
        return Err(VerifyError::UnknownRhsPath(spec.rhs.clone()));
    }

    let rel = forest.relation(origin);
    let rhs_cells = &rel.columns[rhs_col].cells;
    let lhs = lhs_partition(forest, origin, &levels, &mut ProductScratch::new());
    let mut violations = Vec::new();
    'outer: for g in lhs.groups() {
        // All members must share a non-null RHS.
        let first = g[0] as usize;
        for &t in &g[1..] {
            let bad = rhs_cells[first].is_none() || rhs_cells[first] != rhs_cells[t as usize];
            if bad {
                violations.push(Violation {
                    node1: rel.node_keys[first],
                    node2: rel.node_keys[t as usize],
                });
                if violations.len() >= max_witnesses {
                    break 'outer;
                }
            }
        }
    }
    Ok(FdReport {
        holds: violations.is_empty(),
        lhs_is_key: lhs.is_key(),
        violations,
        tuples: rel.n_tuples(),
    })
}

/// Key-verification outcome.
#[derive(Debug, Clone)]
pub struct KeyReport {
    /// Does `(C, LHS)` satisfy Definition 8?
    pub holds: bool,
    /// Up to `max_witnesses` pairs of tuples agreeing on the LHS.
    pub violations: Vec<Violation>,
    /// Number of tuples inspected.
    pub tuples: usize,
}

/// Verify an XML Key `(class, lhs)` — Definition 8: no two tuples of the
/// class agree on all LHS paths.
pub fn verify_key(
    forest: &Forest,
    class: &ClassRef,
    lhs: &[Path],
    max_witnesses: usize,
) -> Result<KeyReport, VerifyError> {
    let origin = resolve_class(forest, class)?;
    let mut levels: Vec<(RelId, AttrSet)> = Vec::new();
    for p in lhs {
        let (rel, col) = resolve_column(forest, origin, p)
            .ok_or_else(|| VerifyError::UnknownLhsPath(p.clone()))?;
        match levels.iter_mut().find(|(r, _)| *r == rel) {
            Some((_, set)) => *set = set.insert(col),
            None => levels.push((rel, AttrSet::single(col))),
        }
    }
    let rel = forest.relation(origin);
    let lhs = lhs_partition(forest, origin, &levels, &mut ProductScratch::new());
    let mut violations = Vec::new();
    'outer: for g in lhs.groups() {
        for w in g.windows(2) {
            violations.push(Violation {
                node1: rel.node_keys[w[0] as usize],
                node2: rel.node_keys[w[1] as usize],
            });
            if violations.len() >= max_witnesses {
                break 'outer;
            }
        }
    }
    Ok(KeyReport {
        holds: violations.is_empty(),
        violations,
        tuples: rel.n_tuples(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd_relation::{encode, EncodeConfig};
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    fn forest(xml: &str) -> Forest {
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        encode(&t, &schema, &EncodeConfig::default())
    }

    #[test]
    fn fd_spec_parses_our_own_display_syntax() {
        let spec: FdSpec = "{./ISBN, ../contact/name} -> ./price w.r.t. C_book"
            .parse()
            .unwrap();
        assert_eq!(spec.lhs.len(), 2);
        assert_eq!(spec.rhs.to_string(), "./price");
        assert_eq!(spec.class, ClassRef::Label("book".into()));
        let spec2: FdSpec = "{./a} -> ./b w.r.t. C_/w/store/book".parse().unwrap();
        assert_eq!(
            spec2.class,
            ClassRef::Path("/w/store/book".parse().unwrap())
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for s in [
            "",
            "./a -> ./b w.r.t. C_x",
            "{./a} ./b w.r.t. C_x",
            "{./a} -> ./b",
            "{./a} -> ./b w.r.t. C_",
            "{//a} -> ./b w.r.t. C_x",
        ] {
            assert!(s.parse::<FdSpec>().is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn verify_holding_fd() {
        let f = forest(
            "<w><book><i>1</i><t>A</t></book><book><i>1</i><t>A</t></book>\
                <book><i>2</i><t>B</t></book></w>",
        );
        let spec: FdSpec = "{./i} -> ./t w.r.t. C_book".parse().unwrap();
        let report = verify_fd(&f, &spec, 10).unwrap();
        assert!(report.holds);
        assert!(!report.lhs_is_key);
        assert_eq!(report.tuples, 3);
    }

    #[test]
    fn verify_violated_fd_reports_witnesses() {
        let f = forest("<w><book><i>1</i><t>A</t></book><book><i>1</i><t>DIFFERENT</t></book></w>");
        let spec: FdSpec = "{./i} -> ./t w.r.t. C_book".parse().unwrap();
        let report = verify_fd(&f, &spec, 10).unwrap();
        assert!(!report.holds);
        assert_eq!(report.violations.len(), 1);
        // Witnesses are the two book nodes (pre-order keys 1 and 6).
        assert_ne!(report.violations[0].node1, report.violations[0].node2);
    }

    #[test]
    fn verify_inter_relation_fd() {
        let f = forest(
            "<w>\
             <store><name>X</name><book><i>1</i><p>10</p></book>\
               <book><i>2</i><p>20</p></book></store>\
             <store><name>X</name><book><i>1</i><p>10</p></book></store>\
             <store><name>Y</name><book><i>1</i><p>12</p></book></store>\
             </w>",
        );
        let good: FdSpec = "{./i, ../name} -> ./p w.r.t. C_book".parse().unwrap();
        assert!(verify_fd(&f, &good, 10).unwrap().holds);
        let bad: FdSpec = "{./i} -> ./p w.r.t. C_book".parse().unwrap();
        assert!(!verify_fd(&f, &bad, 10).unwrap().holds);
    }

    #[test]
    fn verify_set_element_fd() {
        let f = forest(
            "<w><book><i>1</i><a>R</a><a>G</a></book>\
                <book><i>1</i><a>G</a><a>R</a></book></w>",
        );
        let spec: FdSpec = "{./i} -> ./a w.r.t. C_book".parse().unwrap();
        assert!(verify_fd(&f, &spec, 10).unwrap().holds, "set semantics");
    }

    #[test]
    fn null_rhs_violates() {
        let f = forest("<w><book><i>1</i><t>A</t></book><book><i>1</i></book></w>");
        let spec: FdSpec = "{./i} -> ./t w.r.t. C_book".parse().unwrap();
        assert!(!verify_fd(&f, &spec, 10).unwrap().holds);
    }

    #[test]
    fn key_lhs_is_flagged() {
        let f = forest("<w><book><i>1</i><t>A</t></book><book><i>2</i><t>A</t></book></w>");
        let spec: FdSpec = "{./i} -> ./t w.r.t. C_book".parse().unwrap();
        let report = verify_fd(&f, &spec, 10).unwrap();
        assert!(report.holds);
        assert!(report.lhs_is_key, "no two tuples agree on the LHS");
    }

    #[test]
    fn verify_key_detects_duplicates() {
        let f = forest("<w><book><i>1</i></book><book><i>1</i></book><book><i>2</i></book></w>");
        let lhs = vec!["./i".parse().unwrap()];
        let report = verify_key(&f, &ClassRef::Label("book".into()), &lhs, 5).unwrap();
        assert!(!report.holds);
        assert_eq!(report.violations.len(), 1);
        let f2 = forest("<w><book><i>1</i></book><book><i>2</i></book></w>");
        let report2 = verify_key(&f2, &ClassRef::Label("book".into()), &lhs, 5).unwrap();
        assert!(report2.holds);
    }

    #[test]
    fn verify_key_with_ancestor_paths() {
        let f = forest(
            "<w><store><n>X</n><book><i>1</i></book><book><i>2</i></book></store>\
                <store><n>Y</n><book><i>1</i></book></store></w>",
        );
        let lhs = vec!["./i".parse().unwrap(), "../n".parse().unwrap()];
        let report = verify_key(&f, &ClassRef::Label("book".into()), &lhs, 5).unwrap();
        assert!(report.holds, "isbn+store name identifies books here");
        let weak = verify_key(&f, &ClassRef::Label("book".into()), &lhs[..1], 5).unwrap();
        assert!(!weak.holds);
    }

    #[test]
    fn errors_are_informative() {
        let f = forest("<w><book><i>1</i></book><book><i>2</i></book></w>");
        let unknown_class: FdSpec = "{./i} -> ./t w.r.t. C_zzz".parse().unwrap();
        assert!(matches!(
            verify_fd(&f, &unknown_class, 1),
            Err(VerifyError::UnknownClass(_))
        ));
        let unknown_lhs: FdSpec = "{./nope} -> ./i w.r.t. C_book".parse().unwrap();
        assert!(matches!(
            verify_fd(&f, &unknown_lhs, 1),
            Err(VerifyError::UnknownLhsPath(_))
        ));
        let bad_rhs: FdSpec = "{./i} -> ../name w.r.t. C_book".parse().unwrap();
        assert!(matches!(
            verify_fd(&f, &bad_rhs, 1),
            Err(VerifyError::UnknownRhsPath(_))
        ));
    }
}
