//! Public FD and Key types (Definitions 7 and 8).

use std::fmt;

use xfd_xml::Path;

/// Whether an FD's LHS stays inside one relation of the hierarchical
/// representation or spans ancestor relations (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FdScope {
    /// LHS and RHS columns live in the pivot's own relation.
    IntraRelation,
    /// The LHS reaches into ancestor relations (e.g. `../contact/name`).
    InterRelation,
}

/// An XML functional dependency `(C_p, LHS, RHS)` — Definition 7 — written
/// `{P_l1, ..., P_ln} -> P_r w.r.t. C_p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xfd {
    /// The pivot path identifying the tuple class `C_p`.
    pub tuple_class: Path,
    /// LHS paths, relative to the pivot.
    pub lhs: Vec<Path>,
    /// RHS path, relative to the pivot.
    pub rhs: Path,
    /// Intra- or inter-relation.
    pub scope: FdScope,
}

impl Xfd {
    /// Does `self`'s LHS (as a set of paths) contain `other`'s, with equal
    /// tuple class and RHS? Then `self` is implied by (non-minimal w.r.t.)
    /// `other`.
    pub fn is_weakening_of(&self, other: &Xfd) -> bool {
        self.tuple_class == other.tuple_class
            && self.rhs == other.rhs
            && other.lhs.iter().all(|p| self.lhs.contains(p))
    }
}

impl fmt::Display for Xfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}} -> {} w.r.t. C_", self.rhs)?;
        write_class_name(f, &self.tuple_class)
    }
}

/// An XML key `(C_p, LHS)` — Definition 8: the LHS functionally determines
/// `./@key`, i.e. uniquely identifies each tuple of the class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlKey {
    /// The pivot path identifying the tuple class.
    pub tuple_class: Path,
    /// LHS paths, relative to the pivot.
    pub lhs: Vec<Path>,
    /// Intra- or inter-relation.
    pub scope: FdScope,
}

impl fmt::Display for XmlKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(C_")?;
        write_class_name(f, &self.tuple_class)?;
        write!(f, ": {{")?;
        for (i, p) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}})")
    }
}

/// Abbreviated tuple-class name: the last label of the pivot path (the
/// paper writes `C_book` for `C_/warehouse/state/store/book`).
pub fn class_name(pivot: &Path) -> String {
    pivot
        .last_label()
        .map(str::to_string)
        .unwrap_or_else(|| pivot.to_string())
}

/// [`class_name`], written straight to a formatter.
fn write_class_name(f: &mut fmt::Formatter<'_>, pivot: &Path) -> fmt::Result {
    match pivot.last_label() {
        Some(label) => f.write_str(label),
        None => write!(f, "{pivot}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    #[test]
    fn fd_displays_like_the_paper() {
        let fd = Xfd {
            tuple_class: p("/warehouse/state/store/book"),
            lhs: vec![p("../contact/name"), p("./ISBN")],
            rhs: p("./price"),
            scope: FdScope::InterRelation,
        };
        assert_eq!(
            fd.to_string(),
            "{../contact/name, ./ISBN} -> ./price w.r.t. C_book"
        );
    }

    #[test]
    fn key_displays_with_class() {
        let k = XmlKey {
            tuple_class: p("/w/book"),
            lhs: vec![p("./ISBN")],
            scope: FdScope::IntraRelation,
        };
        assert_eq!(k.to_string(), "Key(C_book: {./ISBN})");
    }

    #[test]
    fn weakening_detection() {
        let strong = Xfd {
            tuple_class: p("/w/book"),
            lhs: vec![p("./ISBN")],
            rhs: p("./title"),
            scope: FdScope::IntraRelation,
        };
        let weak = Xfd {
            tuple_class: p("/w/book"),
            lhs: vec![p("./ISBN"), p("./price")],
            rhs: p("./title"),
            scope: FdScope::IntraRelation,
        };
        assert!(weak.is_weakening_of(&strong));
        assert!(!strong.is_weakening_of(&weak));
        assert!(strong.is_weakening_of(&strong));
    }
}
