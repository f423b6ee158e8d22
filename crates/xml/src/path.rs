//! Path expressions (paper Section 2.1).
//!
//! A schema or data element is addressed by a path expression
//! `/e1/e2/.../ek`. The paper additionally uses the XPath steps `.` (self)
//! and `..` (parent) to form *relative* paths with regard to a pivot path,
//! e.g. `../contact/name` relative to `/warehouse/state/store/book`.
//!
//! [`Path`] models both absolute and relative paths, supports conversion
//! between the two ([`Path::to_absolute`], [`Path::relative_to`]), and
//! resolves against a [`DataTree`] to the (possibly many) matching nodes.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::tree::{DataTree, NodeId};

/// One step of a path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Step {
    /// `..` — move to the parent.
    Parent,
    /// A child label, e.g. `store` or `@isbn`.
    Child(String),
}

/// A path expression: absolute (`/a/b/c`) or relative (`./x`, `../y/z`, `.`).
///
/// The steps are immutable and shared: cloning a path bumps a reference
/// count, so every FD and key that names the same column shares one
/// resolved path instead of copying its labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    absolute: bool,
    steps: Arc<[Step]>,
}

/// Error produced when parsing a path string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathParseError(pub String);

impl fmt::Display for PathParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid path expression: {}", self.0)
    }
}

impl std::error::Error for PathParseError {}

impl Path {
    /// The empty relative path `.` (self).
    pub fn self_path() -> Self {
        Path {
            absolute: false,
            steps: Arc::from([]),
        }
    }

    /// An absolute path from label components, e.g. `["warehouse","state"]`.
    pub fn absolute<I: IntoIterator<Item = S>, S: Into<String>>(labels: I) -> Self {
        Path {
            absolute: true,
            steps: labels.into_iter().map(|l| Step::Child(l.into())).collect(),
        }
    }

    /// A relative path with `ups` leading `..` steps followed by `labels`.
    pub fn relative<I: IntoIterator<Item = S>, S: Into<String>>(ups: usize, labels: I) -> Self {
        let mut steps = vec![Step::Parent; ups];
        steps.extend(labels.into_iter().map(|l| Step::Child(l.into())));
        Path {
            absolute: false,
            steps: steps.into(),
        }
    }

    /// Is this an absolute path (starts at the root)?
    pub fn is_absolute(&self) -> bool {
        self.absolute
    }

    /// The steps of the path.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty relative path `.` (or the absolute root path `/`).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The trailing label, if the last step is a child step.
    pub fn last_label(&self) -> Option<&str> {
        match self.steps.last() {
            Some(Step::Child(l)) => Some(l),
            _ => None,
        }
    }

    /// Append a child step, returning a new path.
    pub fn child(&self, label: &str) -> Path {
        let mut steps = self.steps.to_vec();
        steps.push(Step::Child(label.to_string()));
        Path {
            absolute: self.absolute,
            steps: steps.into(),
        }
    }

    /// Drop the final step, returning the parent path. `None` if empty or if
    /// the final step is `..`.
    pub fn parent(&self) -> Option<Path> {
        match self.steps.last() {
            Some(Step::Child(_)) => Some(Path {
                absolute: self.absolute,
                steps: self.steps[..self.steps.len() - 1].into(),
            }),
            _ => None,
        }
    }

    /// For absolute paths: is `self` a (non-strict) prefix of `other`?
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        self.absolute == other.absolute
            && self.steps.len() <= other.steps.len()
            && *self.steps == other.steps[..self.steps.len()]
    }

    /// Labels of an absolute path, e.g. `["warehouse", "state"]`.
    ///
    /// # Panics
    /// Panics if the path contains `..` steps (absolute paths never should).
    pub fn labels(&self) -> Vec<&str> {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Child(l) => l.as_str(),
                Step::Parent => panic!("labels() called on a path with `..` steps"),
            })
            .collect()
    }

    /// Convert a relative path to an absolute one against an absolute
    /// `base`. Returns `None` if `..` steps ascend above the root or if a
    /// `..` appears after a child step has been taken (not produced by this
    /// crate, but possible via `FromStr`).
    ///
    /// An absolute `self` is returned unchanged.
    pub fn to_absolute(&self, base: &Path) -> Option<Path> {
        if self.absolute {
            return Some(self.clone());
        }
        debug_assert!(base.absolute, "base must be absolute");
        let mut steps = base.steps.to_vec();
        for s in self.steps.iter() {
            match s {
                Step::Parent => {
                    steps.pop()?;
                }
                Step::Child(l) => steps.push(Step::Child(l.clone())),
            }
        }
        Some(Path {
            absolute: true,
            steps: steps.into(),
        })
    }

    /// Express an absolute `self` relative to an absolute `base` (the pivot
    /// path), using leading `..` steps — the inverse of [`Path::to_absolute`].
    ///
    /// ```
    /// use xfd_xml::Path;
    /// let name: Path = "/w/state/store/contact/name".parse().unwrap();
    /// let book: Path = "/w/state/store/book".parse().unwrap();
    /// assert_eq!(name.relative_to(&book).to_string(), "../contact/name");
    /// ```
    pub fn relative_to(&self, base: &Path) -> Path {
        debug_assert!(self.absolute && base.absolute);
        let common = self
            .steps
            .iter()
            .zip(base.steps.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let ups = base.steps.len() - common;
        let mut steps = vec![Step::Parent; ups];
        steps.extend(self.steps[common..].iter().cloned());
        Path {
            absolute: false,
            steps: steps.into(),
        }
    }

    /// Longest common prefix of two absolute paths.
    pub fn common_prefix(&self, other: &Path) -> Path {
        debug_assert!(self.absolute && other.absolute);
        let common = self
            .steps
            .iter()
            .zip(other.steps.iter())
            .take_while(|(a, b)| a == b)
            .count();
        Path {
            absolute: true,
            steps: self.steps[..common].into(),
        }
    }

    /// Resolve an absolute path against a tree: all nodes `n` with
    /// `path(n) = self`. The root label must match the first step.
    pub fn resolve_all(&self, tree: &DataTree) -> Vec<NodeId> {
        debug_assert!(self.absolute, "resolve_all requires an absolute path");
        let mut labels = self.steps.iter().map(|s| match s {
            Step::Child(l) => l.as_str(),
            Step::Parent => unreachable!("absolute paths have no `..`"),
        });
        let Some(root_label) = labels.next() else {
            return Vec::new();
        };
        if tree.label(tree.root()) != root_label {
            return Vec::new();
        }
        let mut frontier = vec![tree.root()];
        for label in labels {
            let mut next = Vec::new();
            for n in frontier {
                next.extend(tree.children_labeled(n, label));
            }
            if next.is_empty() {
                return Vec::new();
            }
            frontier = next;
        }
        frontier
    }

    /// Resolve a relative path from a context node. Returns all matching
    /// nodes (a child step may match several siblings). An absolute `self`
    /// falls back to [`Path::resolve_all`].
    pub fn resolve_from(&self, tree: &DataTree, context: NodeId) -> Vec<NodeId> {
        if self.absolute {
            return self.resolve_all(tree);
        }
        let mut frontier = vec![context];
        for step in self.steps.iter() {
            let mut next = Vec::new();
            for n in frontier {
                match step {
                    Step::Parent => {
                        if let Some(p) = tree.parent(n) {
                            next.push(p);
                        }
                    }
                    Step::Child(l) => next.extend(tree.children_labeled(n, l)),
                }
            }
            if next.is_empty() {
                return Vec::new();
            }
            next.dedup();
            frontier = next;
        }
        frontier
    }
}

impl fmt::Display for Path {
    /// Absolute paths render as `/a/b` (`/` when empty); relative ones as
    /// `./x/y`, `../y` or `.`. Steps are written straight to the
    /// formatter, so rendering allocates nothing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some((first, rest)) = self.steps.split_first() else {
            return f.write_str(if self.absolute { "/" } else { "." });
        };
        if self.absolute {
            f.write_str("/")?;
        } else if matches!(first, Step::Child(_)) {
            f.write_str("./")?;
        }
        write_step(f, first)?;
        for s in rest {
            f.write_str("/")?;
            write_step(f, s)?;
        }
        Ok(())
    }
}

fn write_step(f: &mut fmt::Formatter<'_>, step: &Step) -> fmt::Result {
    f.write_str(match step {
        Step::Child(l) => l,
        Step::Parent => "..",
    })
}

impl FromStr for Path {
    type Err = PathParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(PathParseError(s.to_string()));
        }
        if s == "." {
            return Ok(Path::self_path());
        }
        if s == "/" {
            return Ok(Path {
                absolute: true,
                steps: Arc::from([]),
            });
        }
        let absolute = s.starts_with('/');
        let body = if absolute { &s[1..] } else { s };
        let mut steps = Vec::new();
        for (i, comp) in body.split('/').enumerate() {
            match comp {
                "" => return Err(PathParseError(s.to_string())),
                "." => {
                    // Only allowed as the leading component of a relative path.
                    if absolute || i != 0 {
                        return Err(PathParseError(s.to_string()));
                    }
                }
                ".." => {
                    if absolute {
                        return Err(PathParseError(s.to_string()));
                    }
                    if steps.iter().any(|st| matches!(st, Step::Child(_))) {
                        return Err(PathParseError(s.to_string()));
                    }
                    steps.push(Step::Parent);
                }
                label => steps.push(Step::Child(label.to_string())),
            }
        }
        Ok(Path {
            absolute,
            steps: steps.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "/a/b/c",
            "/warehouse/state/store/book/@isbn",
            "./x",
            "./x/y",
            "../y",
            "../../z/w",
            ".",
        ] {
            assert_eq!(p(s).to_string(), s, "roundtrip of {s}");
        }
    }

    #[test]
    fn rejects_malformed_paths() {
        for s in ["", "//a", "a//b", "/a/../b", "./a/../b", "/."] {
            assert!(s.parse::<Path>().is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn plain_relative_paths_parse() {
        let path = p("a/b");
        assert!(!path.is_absolute());
        assert_eq!(path.len(), 2);
        assert_eq!(path.to_string(), "./a/b");
    }

    #[test]
    fn to_absolute_resolves_parent_steps() {
        let base = p("/warehouse/state/store/book");
        assert_eq!(
            p("./ISBN").to_absolute(&base).unwrap(),
            p("/warehouse/state/store/book/ISBN")
        );
        assert_eq!(
            p("../contact/name").to_absolute(&base).unwrap(),
            p("/warehouse/state/store/contact/name")
        );
        assert_eq!(
            p("../../name").to_absolute(&base).unwrap(),
            p("/warehouse/state/name")
        );
    }

    #[test]
    fn to_absolute_refuses_to_climb_past_root() {
        let base = p("/a");
        assert!(p("../../x").to_absolute(&base).is_none());
    }

    #[test]
    fn relative_to_inverts_to_absolute() {
        let base = p("/w/state/store/book");
        for abs in [
            "/w/state/store/book/ISBN",
            "/w/state/store/contact/name",
            "/w/state/name",
            "/w/state/store/book",
        ] {
            let rel = p(abs).relative_to(&base);
            assert_eq!(
                rel.to_absolute(&base).unwrap(),
                p(abs),
                "roundtrip of {abs}"
            );
        }
        assert_eq!(
            p("/w/state/store/book").relative_to(&base),
            Path::self_path()
        );
    }

    #[test]
    fn prefix_and_common_prefix() {
        let a = p("/x/y");
        let b = p("/x/y/z");
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert_eq!(b.common_prefix(&p("/x/q")), p("/x"));
    }

    #[test]
    fn resolve_all_finds_every_match() {
        let t = parse("<a><b><c>1</c><c>2</c></b><b><c>3</c></b></a>").unwrap();
        assert_eq!(p("/a/b/c").resolve_all(&t).len(), 3);
        assert_eq!(p("/a/b").resolve_all(&t).len(), 2);
        assert_eq!(p("/a").resolve_all(&t).len(), 1);
        assert!(p("/z").resolve_all(&t).is_empty());
        assert!(p("/a/zzz").resolve_all(&t).is_empty());
    }

    #[test]
    fn resolve_from_supports_parent_steps() {
        let t = parse("<a><b><c>1</c></b><d>x</d></a>").unwrap();
        let c = p("/a/b/c").resolve_all(&t)[0];
        let found = p("../../d").resolve_from(&t, c);
        assert_eq!(found.len(), 1);
        assert_eq!(t.value(found[0]), Some("x"));
        assert_eq!(p(".").resolve_from(&t, c), vec![c]);
    }

    #[test]
    fn resolve_from_attribute_steps() {
        let t = parse(r#"<a><b id="7">v</b></a>"#).unwrap();
        let b = p("/a/b").resolve_all(&t)[0];
        let attr = p("./@id").resolve_from(&t, b);
        assert_eq!(t.value(attr[0]), Some("7"));
    }

    #[test]
    fn path_helpers() {
        let path = p("/a/b/c");
        assert_eq!(path.last_label(), Some("c"));
        assert_eq!(path.parent().unwrap(), p("/a/b"));
        assert_eq!(path.child("d"), p("/a/b/c/d"));
        assert_eq!(path.labels(), vec!["a", "b", "c"]);
    }
}
