//! Value interning.
//!
//! Partition construction only needs *equality* of cell values, so cells
//! store `u64` identifiers and the dictionary owns each distinct string (or
//! multiset) once. Identifiers are dense and deterministic (insertion
//! order), which keeps runs reproducible.

use xfd_hash::FxHashMap;

/// Interns strings and multisets of `u64` identifiers into dense `u64` ids.
///
/// String ids and multiset ids live in separate namespaces; a column only
/// ever holds ids from one namespace, so they never mix.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    // Every cell of every tuple passes through these maps during
    // encoding; the deterministic multiply-rotate hasher keeps that
    // cheap and reproducible.
    strings: FxHashMap<Box<str>, u64>,
    string_list: Vec<Box<str>>,
    multisets: FxHashMap<Box<[u64]>, u64>,
    multiset_list: Vec<Box<[u64]>>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Intern a string value.
    pub fn intern_str(&mut self, s: &str) -> u64 {
        if let Some(&id) = self.strings.get(s) {
            return id;
        }
        let id = self.string_list.len() as u64;
        let boxed: Box<str> = s.into();
        self.string_list.push(boxed.clone());
        self.strings.insert(boxed, id);
        id
    }

    /// Resolve a string id.
    pub fn resolve_str(&self, id: u64) -> &str {
        &self.string_list[id as usize]
    }

    /// Intern a multiset of ids. `elems` is sorted internally, so callers
    /// may pass elements in any order; equal multisets (with multiplicity)
    /// receive equal ids.
    pub fn intern_multiset(&mut self, mut elems: Vec<u64>) -> u64 {
        elems.sort_unstable();
        self.intern_sequence(elems)
    }

    /// Intern a *sequence* of ids: order-sensitive (the `OrderMode::Ordered`
    /// variant of set-valued columns). Shares the multiset namespace —
    /// callers must not mix ordered and unordered cells in one column.
    pub fn intern_sequence(&mut self, elems: Vec<u64>) -> u64 {
        let key: Box<[u64]> = elems.into_boxed_slice();
        if let Some(&id) = self.multisets.get(&key) {
            return id;
        }
        let id = self.multiset_list.len() as u64;
        self.multiset_list.push(key.clone());
        self.multisets.insert(key, id);
        id
    }

    /// Resolve a multiset id to its sorted elements.
    pub fn resolve_multiset(&self, id: u64) -> &[u64] {
        &self.multiset_list[id as usize]
    }

    /// Forget every string interned after the first `strings` and every
    /// multiset after the first `multisets`; their ids are handed out again
    /// in the same order.
    pub fn truncate(&mut self, strings: usize, multisets: usize) {
        for s in self
            .string_list
            .drain(strings.min(self.string_list.len())..)
        {
            self.strings.remove(&s);
        }
        for m in self
            .multiset_list
            .drain(multisets.min(self.multiset_list.len())..)
        {
            self.multisets.remove(&m);
        }
    }

    /// Number of distinct strings.
    pub fn num_strings(&self) -> usize {
        self.string_list.len()
    }

    /// Number of distinct multisets.
    pub fn num_multisets(&self) -> usize {
        self.multiset_list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_intern_idempotently() {
        let mut d = Dictionary::new();
        let a = d.intern_str("DBMS");
        let b = d.intern_str("DBMS");
        let c = d.intern_str("dbms");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.resolve_str(a), "DBMS");
        assert_eq!(d.num_strings(), 2);
    }

    #[test]
    fn multisets_are_order_insensitive_but_multiplicity_sensitive() {
        let mut d = Dictionary::new();
        let ab = d.intern_multiset(vec![1, 2]);
        let ba = d.intern_multiset(vec![2, 1]);
        let aab = d.intern_multiset(vec![1, 1, 2]);
        let empty = d.intern_multiset(vec![]);
        assert_eq!(ab, ba);
        assert_ne!(ab, aab);
        assert_ne!(ab, empty);
        assert_eq!(d.resolve_multiset(aab), &[1, 1, 2]);
        assert_eq!(d.num_multisets(), 3);
    }

    #[test]
    fn truncate_hands_out_the_same_ids_again() {
        let mut d = Dictionary::new();
        d.intern_str("a");
        d.intern_str("b");
        d.intern_multiset(vec![1]);
        d.truncate(1, 0);
        assert_eq!((d.num_strings(), d.num_multisets()), (1, 0));
        assert_eq!(d.intern_str("a"), 0);
        assert_eq!(d.intern_str("c"), 1);
        assert_eq!(d.intern_multiset(vec![2]), 0);
    }

    #[test]
    fn namespaces_are_independent() {
        let mut d = Dictionary::new();
        let s = d.intern_str("x");
        let m = d.intern_multiset(vec![]);
        // Both are 0 — separate namespaces by design.
        assert_eq!(s, 0);
        assert_eq!(m, 0);
    }
}
