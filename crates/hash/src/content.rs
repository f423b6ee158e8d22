//! Content digests: a deterministic 128-bit fingerprint for byte streams.
//!
//! The digest must identify content (request bytes, corpus segments,
//! relation states), survive process restarts (so it cannot be a
//! randomized hash), and be collision-resistant enough to key caches whose
//! hits skip real work. [`crate::FxHasher`] is a speed-tuned 64-bit mixer,
//! too weak for content addressing; instead we run two independent FNV-1a
//! lanes (the second with a salted offset basis) and concatenate them into
//! a 128-bit digest rendered as 32 lowercase hex digits.
//!
//! Consumers: the server's result cache (`xfd-server`), which seeds the
//! state with a configuration fingerprint before streaming the body, and
//! the corpus store (`xfd-corpus`), which digests segment files and the
//! MANIFEST. These values are stored or shown to clients, so the function
//! is pinned by a golden test. In-memory fingerprints (relation memo keys,
//! the cluster's forest check) use the word-wise [`crate::WordDigest`].

use std::io::Read;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Arbitrary salt so the two lanes diverge immediately.
const LANE2_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Incremental dual-lane FNV-1a digest.
#[derive(Debug, Clone, Copy)]
pub struct ContentDigest {
    lane1: u64,
    lane2: u64,
    len: u64,
}

impl Default for ContentDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentDigest {
    /// A fresh digest state.
    pub fn new() -> Self {
        ContentDigest {
            lane1: FNV_OFFSET,
            lane2: FNV_OFFSET ^ LANE2_SALT,
            len: 0,
        }
    }

    /// Absorb a chunk of bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lane1 = (self.lane1 ^ b as u64).wrapping_mul(FNV_PRIME);
            self.lane2 = (self.lane2 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.len += bytes.len() as u64;
    }

    /// Absorb a `u64` (little-endian), for fingerprinting structured data.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Total bytes absorbed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no bytes have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finalize into a 128-bit value. Folds the length into both lanes so
    /// that e.g. `"ab" + ""` and `"a" + "b"` remain identical (streaming
    /// chunking must not matter) while trailing-zero-length extensions of
    /// the state cannot collide trivially.
    pub fn finish(&self) -> u128 {
        let mut lane1 = self.lane1;
        let mut lane2 = self.lane2;
        for &b in &self.len.to_le_bytes() {
            lane1 = (lane1 ^ b as u64).wrapping_mul(FNV_PRIME);
            lane2 = (lane2 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        ((lane1 as u128) << 64) | lane2 as u128
    }
}

/// Digest one byte slice in a single call.
pub fn digest_bytes(bytes: &[u8]) -> u128 {
    let mut d = ContentDigest::new();
    d.update(bytes);
    d.finish()
}

/// Render a digest as the 32-hex-digit form used in `/v1/results/{digest}`
/// and corpus manifests.
pub fn format_digest(d: u128) -> String {
    format!("{d:032x}")
}

/// Parse the 32-hex-digit form back; `None` for anything else.
pub fn parse_digest(s: &str) -> Option<u128> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// A `Read` adapter that absorbs every byte flowing through it into a
/// [`ContentDigest`], so a request body can be hashed while it streams
/// into the XML parser without being buffered whole.
pub struct DigestReader<R> {
    inner: R,
    digest: ContentDigest,
}

impl<R: Read> DigestReader<R> {
    /// Wrap `inner`.
    pub fn new(inner: R) -> Self {
        Self::with_seed(inner, ContentDigest::new())
    }

    /// Wrap `inner`, continuing from an existing digest state. The server
    /// seeds the state with the request's configuration fingerprint so the
    /// final digest keys *body + config*, not body alone.
    pub fn with_seed(inner: R, digest: ContentDigest) -> Self {
        DigestReader { inner, digest }
    }

    /// The digest state accumulated so far.
    pub fn digest(&self) -> &ContentDigest {
        &self.digest
    }
}

impl<R: Read> Read for DigestReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(chunks: &[&[u8]]) -> u128 {
        let mut d = ContentDigest::new();
        for c in chunks {
            d.update(c);
        }
        d.finish()
    }

    #[test]
    fn chunking_does_not_change_the_digest() {
        let whole = digest_of(&[b"<a><b/></a>"]);
        let split = digest_of(&[b"<a>", b"<b/>", b"</a>"]);
        let bytewise = digest_of(&[
            b"<", b"a", b">", b"<", b"b", b"/", b">", b"<", b"/", b"a", b">",
        ]);
        assert_eq!(whole, split);
        assert_eq!(whole, bytewise);
        assert_eq!(whole, digest_bytes(b"<a><b/></a>"));
    }

    #[test]
    fn different_content_gets_different_digests() {
        assert_ne!(digest_of(&[b"<a/>"]), digest_of(&[b"<b/>"]));
        assert_ne!(digest_of(&[b""]), digest_of(&[b"\0"]));
    }

    #[test]
    fn digest_bytes_is_pinned() {
        // Segment files and MANIFEST entries store this digest; changing
        // the function would orphan every stored corpus.
        assert_eq!(
            format_digest(digest_bytes(b"<shop><book><i>1</i></book></shop>")),
            "8907f89329df207b929669668b325ac2"
        );
        assert_eq!(
            format_digest(digest_bytes(b"")),
            "a8c7f832281a39c59ee92ea251c82530"
        );
    }

    #[test]
    fn format_and_parse_round_trip() {
        let d = digest_of(&[b"round trip"]);
        let s = format_digest(d);
        assert_eq!(s.len(), 32);
        assert_eq!(parse_digest(&s), Some(d));
    }

    #[test]
    fn parse_rejects_malformed_digests() {
        assert_eq!(parse_digest(""), None);
        assert_eq!(parse_digest("abc"), None);
        assert_eq!(parse_digest(&"g".repeat(32)), None);
        assert_eq!(parse_digest(&"0".repeat(33)), None);
    }

    #[test]
    fn update_u64_is_equivalent_to_le_bytes() {
        let mut a = ContentDigest::new();
        a.update_u64(0xdead_beef);
        let mut b = ContentDigest::new();
        b.update(&0xdead_beefu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn digest_reader_matches_direct_hashing() {
        let data = b"<root><x>1</x><x>2</x></root>".to_vec();
        let mut reader = DigestReader::new(&data[..]);
        let mut sink = Vec::new();
        std::io::Read::read_to_end(&mut reader, &mut sink).unwrap();
        assert_eq!(sink, data);
        assert_eq!(reader.digest().finish(), digest_of(&[&data]));
        assert_eq!(reader.digest().len(), data.len() as u64);
    }
}
