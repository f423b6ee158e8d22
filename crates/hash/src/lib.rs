#![warn(missing_docs)]
//! # xfd-hash
//!
//! A hand-rolled FxHash-style hasher for the discovery hot paths.
//!
//! The default `std` hasher (SipHash 1-3) is keyed and DoS-resistant, which
//! costs ~1ns/byte and random per-process seeds. The keys hashed on the hot
//! paths here — interned value identifiers, tuple pairs, attribute bitsets —
//! are small fixed-width integers produced by the system itself, so neither
//! property buys anything. [`FxHasher`] is the Firefox multiply-rotate
//! construction: one rotate, one xor and one multiply per word, fully
//! deterministic across runs and platforms (important for reproducible
//! discovery statistics).
//!
//! Beside it: [`content`] and [`word`], the 128-bit digests that address
//! stored and cached content; [`codec`], the byte-format layer every
//! stored or shipped block is written and read with; and [`fanout`], the
//! one ordered worker-pool fan-out.

pub mod codec;
pub mod content;
pub mod fanout;
pub mod word;

pub use content::{digest_bytes, format_digest, parse_digest, ContentDigest, DigestReader};
pub use word::WordDigest;

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over native words (the rustc/Firefox "FxHash").
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's multiplicative constant: ⌊2⁶⁴ / φ⌋, odd.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const ROTATE: u32 = 26;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; fold them
        // down so HashMap's low-bit masking sees them.
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Length tag so "ab" and "ab\0" differ.
            word[7] = rest.len() as u8 | 0x80;
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&(3u32, 4u32)), hash_of(&(3u32, 4u32)));
    }

    #[test]
    fn distinguishes_close_inputs() {
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn maps_work_with_fx() {
        let mut m: FxHashMap<u64, usize> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i as usize * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&999], 1998);
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
    }

    #[test]
    fn low_bits_spread_for_sequential_keys() {
        // HashMap masks low bits; sequential integers must not collide
        // into a few buckets.
        let mut buckets = [0usize; 16];
        for i in 0..16_000u64 {
            buckets[(hash_of(&i) & 15) as usize] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                (500..1_500).contains(&count),
                "bucket {i} has skewed count {count}"
            );
        }
    }
}
