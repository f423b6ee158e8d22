//! A word-at-a-time 128-bit digest for in-memory fingerprints.
//!
//! [`ContentDigest`](crate::ContentDigest) absorbs one byte per step. That
//! is right for digests that are stored on disk or shown to clients, whose
//! values must never change. Fingerprints of in-memory structures — the
//! relation memo's keys and the cluster's forest check — absorb hundreds of
//! thousands of `u64` cells per run and never outlive the processes of one
//! protocol version, so [`WordDigest`] absorbs one whole word per step, in
//! two multiply-rotate lanes with different constants and rotations.
//!
//! Each step is a bijection of a lane's state for a fixed word, and of the
//! word for a fixed state, so two inputs of the same length that differ in
//! one word never collide. The word count is folded in when finishing, and
//! a final avalanche mixes both lanes into the 128-bit result.

const K1: u64 = 0x9E37_79B9_7F4A_7C15;
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Start of the second lane, so the lanes diverge from the first word.
const LANE2_SEED: u64 = 0x1656_67B1_9E37_79F9;

/// Incremental two-lane word digest.
#[derive(Debug, Clone, Copy)]
pub struct WordDigest {
    lane1: u64,
    lane2: u64,
    words: u64,
}

impl Default for WordDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl WordDigest {
    /// A fresh digest state.
    pub fn new() -> Self {
        WordDigest {
            lane1: 0,
            lane2: LANE2_SEED,
            words: 0,
        }
    }

    /// Absorb one word.
    #[inline]
    pub fn update_u64(&mut self, w: u64) {
        self.lane1 = (self.lane1.rotate_left(23) ^ w).wrapping_mul(K1);
        self.lane2 = (self.lane2 ^ w).wrapping_mul(K2).rotate_left(31);
        self.words += 1;
    }

    /// Absorb a `u128` as two words, low half first.
    #[inline]
    pub fn update_u128(&mut self, v: u128) {
        self.update_u64(v as u64);
        self.update_u64((v >> 64) as u64);
    }

    /// Absorb a byte string: its length, then its bytes eight to a word
    /// (little-endian, the last word zero-padded). The length word makes
    /// consecutive strings prefix-free.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        self.update_u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.update_u64(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.update_u64(u64::from_le_bytes(word));
        }
    }

    /// Finalize into a 128-bit value.
    pub fn finish(&self) -> u128 {
        let a = fmix64(self.lane1 ^ self.words);
        let b = fmix64(self.lane2 ^ self.words.rotate_left(32) ^ a);
        ((a as u128) << 64) | b as u128
    }
}

/// MurmurHash3's 64-bit finalizer: a bijection with full avalanche.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(words: &[u64]) -> u128 {
        let mut d = WordDigest::new();
        for &w in words {
            d.update_u64(w);
        }
        d.finish()
    }

    #[test]
    fn close_inputs_differ() {
        assert_ne!(digest(&[0]), digest(&[1]));
        assert_ne!(digest(&[u64::MAX]), digest(&[u64::MAX - 1]));
        // Every single-bit flip of one word in a longer input changes the
        // digest, in both halves.
        let base: Vec<u64> = (0..16).collect();
        let d0 = digest(&base);
        for i in 0..base.len() {
            for bit in 0..64 {
                let mut v = base.clone();
                v[i] ^= 1 << bit;
                let d = digest(&v);
                assert_ne!(d as u64, d0 as u64, "low half, word {i} bit {bit}");
                assert_ne!(d >> 64, d0 >> 64, "high half, word {i} bit {bit}");
            }
        }
    }

    #[test]
    fn word_order_matters() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[0, 1, 0]), digest(&[1, 0, 0]));
    }

    #[test]
    fn length_is_absorbed() {
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
        assert_ne!(digest(&[0, 0]), digest(&[0, 0, 0]));
    }

    #[test]
    fn byte_strings_are_prefix_free() {
        let bytes = |parts: &[&[u8]]| {
            let mut d = WordDigest::new();
            for p in parts {
                d.update_bytes(p);
            }
            d.finish()
        };
        assert_ne!(bytes(&[b"ab"]), bytes(&[b"ab\0"]));
        assert_ne!(bytes(&[b"ab", b"c"]), bytes(&[b"a", b"bc"]));
        assert_ne!(bytes(&[b"12345678"]), bytes(&[b"1234567", b"8"]));
        assert_eq!(bytes(&[b"same"]), bytes(&[b"same"]));
    }

    #[test]
    fn u128_is_two_words_low_first() {
        let mut a = WordDigest::new();
        a.update_u128((7u128 << 64) | 3);
        assert_eq!(a.finish(), digest(&[3, 7]));
    }
}
