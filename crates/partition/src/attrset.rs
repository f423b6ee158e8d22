//! Attribute sets as 128-bit bitsets.
//!
//! Relations produced from XML schemas are narrow (each holds only the
//! non-repeatable elements under one set element — see Figure 6), so 128
//! attributes per relation is a comfortable bound; [`AttrSet::single`]
//! asserts it. The flat baseline uses the same type over *all* schema
//! elements, where the bound actually bites — one more reason it does not
//! scale to complex schemas.

use std::fmt;

/// A set of attribute indices `0..128` of one relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AttrSet(u128);

/// Maximum number of attributes per relation.
pub const MAX_ATTRS: usize = 128;

impl AttrSet {
    /// The empty set.
    pub fn empty() -> Self {
        AttrSet(0)
    }

    /// The singleton `{attr}`.
    ///
    /// # Panics
    /// Panics if `attr >= 128`.
    pub fn single(attr: usize) -> Self {
        assert!(attr < MAX_ATTRS, "relation exceeds {MAX_ATTRS} attributes");
        AttrSet(1 << attr)
    }

    /// Raw bits.
    pub fn bits(self) -> u128 {
        self.0
    }

    /// Membership test.
    pub fn contains(self, attr: usize) -> bool {
        attr < MAX_ATTRS && self.0 & (1 << attr) != 0
    }

    /// `self ∪ other`.
    pub fn union(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 | other.0)
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & other.0)
    }

    /// `self ∖ other`.
    pub fn minus(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & !other.0)
    }

    /// `self ∪ {attr}`.
    pub fn insert(self, attr: usize) -> AttrSet {
        self.union(AttrSet::single(attr))
    }

    /// `self ∖ {attr}`.
    pub fn remove(self, attr: usize) -> AttrSet {
        AttrSet(self.0 & !(1u128 << attr))
    }

    /// Is `self ⊆ other`?
    pub fn is_subset_of(self, other: AttrSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Cardinality.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is this the empty set?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Largest attribute index in the set, if non-empty.
    pub fn max_attr(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(127 - self.0.leading_zeros() as usize)
        }
    }

    /// Iterate member indices in ascending order.
    pub fn iter(self) -> AttrIter {
        AttrIter(self.0)
    }
}

impl FromIterator<usize> for AttrSet {
    /// Set from attribute indices: `AttrSet::from_iter([0, 2, 5])`.
    fn from_iter<I: IntoIterator<Item = usize>>(attrs: I) -> Self {
        attrs
            .into_iter()
            .fold(AttrSet::empty(), |s, a| s.union(AttrSet::single(a)))
    }
}

/// Iterator over [`AttrSet`] members; see [`AttrSet::iter`].
pub struct AttrIter(u128);

impl Iterator for AttrIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, a) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_algebra() {
        let a = AttrSet::from_iter([0, 2, 5]);
        let b = AttrSet::from_iter([2, 3]);
        assert_eq!(a.union(b), AttrSet::from_iter([0, 2, 3, 5]));
        assert_eq!(a.intersect(b), AttrSet::from_iter([2]));
        assert_eq!(a.minus(b), AttrSet::from_iter([0, 5]));
        assert!(AttrSet::from_iter([2]).is_subset_of(a));
        assert!(!b.is_subset_of(a));
        assert!(AttrSet::empty().is_subset_of(a));
    }

    #[test]
    fn insert_remove_contains() {
        let s = AttrSet::empty().insert(3).insert(7);
        assert!(s.contains(3));
        assert!(s.contains(7));
        assert!(!s.contains(4));
        assert_eq!(s.remove(3), AttrSet::single(7));
        assert_eq!(s.remove(9), s);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_is_ascending() {
        let s = AttrSet::from_iter([9, 1, 4]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 9]);
        assert_eq!(s.max_attr(), Some(9));
        assert_eq!(AttrSet::empty().max_attr(), None);
    }

    #[test]
    fn boundary_attribute_127_works() {
        let s = AttrSet::single(127);
        assert!(s.contains(127));
        assert_eq!(s.max_attr(), Some(127));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![127]);
        let mixed = AttrSet::from_iter([3, 70, 127]);
        assert_eq!(mixed.iter().collect::<Vec<_>>(), vec![3, 70, 127]);
        assert_eq!(mixed.len(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn attribute_128_panics() {
        let _ = AttrSet::single(128);
    }

    #[test]
    fn display_is_braced_list() {
        assert_eq!(AttrSet::from_iter([1, 3]).to_string(), "{1,3}");
        assert_eq!(AttrSet::empty().to_string(), "{}");
    }
}
