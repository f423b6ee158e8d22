//! A compact string interner for element/attribute labels.
//!
//! Labels repeat massively in data-centric XML (every `book` element shares
//! the label `book`), so the tree stores a `Symbol` (u32) per node and the
//! interner owns each distinct string exactly once.

use xfd_hash::FxHashMap;

/// An interned label. Cheap to copy, hash and compare; resolves to a `&str`
/// through the [`Interner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw index of this symbol within its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Owns distinct label strings and hands out [`Symbol`]s for them.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    // Label lookups dominate tree construction; the deterministic
    // multiply-rotate hasher halves their cost vs. SipHash.
    map: FxHashMap<Box<str>, Symbol>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Look up a symbol without interning. Returns `None` if `s` was never
    /// interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Forget every string interned after the first `len`, so their
    /// symbols are handed out again in the same order.
    pub fn truncate(&mut self, len: usize) {
        for s in self.strings.drain(len.min(self.strings.len())..) {
            self.map.remove(&s);
        }
    }

    /// Iterate over `(Symbol, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("book");
        let b = i.intern("book");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("book");
        let b = i.intern("author");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "book");
        assert_eq!(i.resolve(b), "author");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn truncate_forgets_the_tail_only() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        i.truncate(1);
        assert_eq!(i.len(), 1);
        assert_eq!(i.get("a"), Some(Symbol(0)));
        assert!(i.get("b").is_none());
        assert_eq!(i.intern("c"), Symbol(1));
    }

    #[test]
    fn iter_yields_in_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let all: Vec<_> = i.iter().map(|(s, v)| (s.0, v.to_string())).collect();
        assert_eq!(all, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }
}
