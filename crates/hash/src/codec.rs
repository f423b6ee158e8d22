//! The byte-format layer every stored or shipped block is written with:
//! tree-tuple segments (`XTT1`), segment partials (`XSP2`), relation-pass
//! configs, tasks and outputs, cluster frame payloads and corpus WAL
//! records.
//!
//! Writers are free `put_*` functions appending little-endian integers to
//! a `Vec<u8>`. [`Reader`] reads them back with every read bounds-checked,
//! and every decoder reports a [`CodecError`]. A count read from a block is
//! checked against the bytes that remain before anything is allocated for
//! it, so a corrupt or hostile count never drives a large allocation.
//! [`check_garbled`] is the strictness check every codec's tests run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::digest_bytes;

/// Why a block could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The block ends before the advertised content does.
    Truncated,
    /// Bytes remain after the last field.
    TrailingBytes,
    /// The magic prefix is missing or wrong.
    BadMagic,
    /// A string is not valid UTF-8.
    BadUtf8,
    /// A record's digest does not match its payload.
    BadDigest,
    /// A tag or enum discriminant is out of range.
    BadTag(&'static str),
    /// A value violates a structural invariant: an index out of range, a
    /// pair `a = a`, a segment without nodes.
    BadValue(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "block truncated"),
            CodecError::TrailingBytes => write!(f, "block has trailing bytes"),
            CodecError::BadMagic => write!(f, "block has a bad magic prefix"),
            CodecError::BadUtf8 => write!(f, "block holds a string that is not UTF-8"),
            CodecError::BadDigest => write!(f, "block record fails its digest"),
            CodecError::BadTag(what) => write!(f, "block has an invalid {what}"),
            CodecError::BadValue(what) => write!(f, "block has an out-of-range {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked little-endian reader over one block.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| CodecError::Truncated)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `u128`.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// A `u64` that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::BadValue("usize"))
    }

    /// A `0`/`1` byte.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadTag("bool")),
        }
    }

    /// A `u32`-length-prefixed byte string, as [`put_bytes`] writes it.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// A `u32` element count. Each element takes at least `min_elem`
    /// bytes, so a count the remaining bytes cannot hold is
    /// [`CodecError::Truncated`] before the caller allocates for it.
    #[inline]
    pub fn count_u32(&mut self, min_elem: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        self.bounded(n, min_elem)
    }

    /// A `u64` element count, bounded like [`Reader::count_u32`].
    #[inline]
    pub fn count_u64(&mut self, min_elem: usize) -> Result<usize, CodecError> {
        let n = self.usize()?;
        self.bounded(n, min_elem)
    }

    #[inline]
    fn bounded(&self, n: usize, min_elem: usize) -> Result<usize, CodecError> {
        if n > self.remaining() / min_elem.max(1) {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// The payload of one record written by [`put_record`], checked
    /// against its digest.
    pub fn record(&mut self) -> Result<&'a [u8], CodecError> {
        let payload = self.bytes()?;
        if self.u128()? != digest_bytes(payload) {
            return Err(CodecError::BadDigest);
        }
        Ok(payload)
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Ends the block: every byte must have been read.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes);
        }
        Ok(())
    }
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u128`.
#[inline]
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `usize` as a `u64`.
#[inline]
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append a `0`/`1` byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a `u32` length, then the bytes.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Append one record: `[u32 len][payload][u128 digest_bytes(payload)]`.
pub fn put_record(out: &mut Vec<u8>, payload: &[u8]) {
    put_bytes(out, payload);
    put_u128(out, digest_bytes(payload));
}

/// Check the strictness every codec promises on one valid block: `valid`
/// decodes, every strict prefix of it is [`CodecError::Truncated`], and
/// every single-bit flip of it decodes to an error or to some value, never
/// a panic. Returns the first violation, for the calling test to report.
pub fn check_garbled<T>(
    valid: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
) -> Result<(), String> {
    let run = |bytes: &[u8]| catch_unwind(AssertUnwindSafe(|| decode(bytes).map(drop)));
    match run(valid) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("the valid block does not decode: {e:?}")),
        Err(_) => return Err("the valid block panics".into()),
    }
    for cut in 0..valid.len() {
        match run(valid.get(..cut).unwrap_or_default()) {
            Ok(Err(CodecError::Truncated)) => {}
            Ok(Ok(())) => return Err(format!("the {cut}-byte prefix decodes")),
            Ok(Err(e)) => return Err(format!("the {cut}-byte prefix gives {e:?}")),
            Err(_) => return Err(format!("the {cut}-byte prefix panics")),
        }
    }
    let mut dirty = valid.to_vec();
    for at in 0..valid.len() {
        for bit in 0..8 {
            let flip = |dirty: &mut Vec<u8>| {
                if let Some(b) = dirty.get_mut(at) {
                    *b ^= 1 << bit;
                }
            };
            flip(&mut dirty);
            if run(&dirty).is_err() {
                return Err(format!("flipping bit {bit} of byte {at} panics"));
            }
            flip(&mut dirty);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy format: `[u32 count][count × (u8 tag, str)]`.
    fn encode(items: &[(bool, &str)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, items.len() as u32);
        for &(flag, s) in items {
            put_bool(&mut out, flag);
            put_bytes(&mut out, s.as_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Vec<(bool, String)>, CodecError> {
        let mut r = Reader::new(bytes);
        let n = r.count_u32(5)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((r.bool()?, r.str()?.to_string()));
        }
        r.finish()?;
        Ok(items)
    }

    #[test]
    fn integers_round_trip_little_endian() {
        let mut out = Vec::new();
        out.push(7);
        put_u32(&mut out, 0x0102_0304);
        put_u64(&mut out, u64::MAX - 1);
        put_u128(&mut out, 1 << 100);
        put_usize(&mut out, 42);
        assert_eq!(out.get(1..5), Some(&[4, 3, 2, 1][..]));
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0x0102_0304));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.u128(), Ok(1 << 100));
        assert_eq!(r.usize(), Ok(42));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(CodecError::Truncated));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reads_reject_what_the_block_cannot_hold() {
        assert_eq!(Reader::new(&[2]).bool(), Err(CodecError::BadTag("bool")));
        assert_eq!(
            Reader::new(&[1, 0]).finish(),
            Err(CodecError::TrailingBytes)
        );
        let mut bad_utf8 = Vec::new();
        put_bytes(&mut bad_utf8, &[0xff]);
        assert_eq!(Reader::new(&bad_utf8).str(), Err(CodecError::BadUtf8));
        // A count the remaining bytes cannot hold fails before allocating.
        let mut forged = Vec::new();
        put_u32(&mut forged, u32::MAX);
        assert_eq!(decode(&forged), Err(CodecError::Truncated));
        let mut forged = Vec::new();
        put_u64(&mut forged, 3);
        put_u64(&mut forged, 0);
        assert_eq!(
            Reader::new(&forged).count_u64(8),
            Err(CodecError::Truncated)
        );
        assert_eq!(Reader::new(&forged).count_u64(2), Ok(3));
    }

    #[test]
    fn records_check_their_digest() {
        let mut out = Vec::new();
        put_record(&mut out, b"add 1 x");
        put_record(&mut out, b"");
        let mut r = Reader::new(&out);
        assert_eq!(r.record(), Ok(&b"add 1 x"[..]));
        assert_eq!(r.record(), Ok(&b""[..]));
        assert_eq!(r.finish(), Ok(()));
        let one = |b: &[u8]| {
            let mut r = Reader::new(b);
            let payload = r.record()?.to_vec();
            r.finish().map(|()| payload)
        };
        let mut single = Vec::new();
        put_record(&mut single, b"add 1 x");
        assert_eq!(check_garbled(&single, one), Ok(()));
        if let Some(b) = out.get_mut(5) {
            *b ^= 1;
        }
        assert_eq!(Reader::new(&out).record(), Err(CodecError::BadDigest));
    }

    #[test]
    fn the_harness_accepts_a_strict_codec() {
        let valid = encode(&[(true, "a"), (false, "名前")]);
        assert_eq!(check_garbled(&valid, decode), Ok(()));
        assert_eq!(check_garbled(&encode(&[]), decode), Ok(()));
    }

    #[test]
    fn the_harness_reports_each_violation() {
        let valid = encode(&[(true, "ab")]);
        assert_eq!(
            check_garbled(&valid[..3], decode),
            Err("the valid block does not decode: Truncated".into())
        );
        // A decoder that accepts a prefix.
        let lax = |b: &[u8]| Reader::new(b).u32();
        assert_eq!(
            check_garbled(&valid, lax),
            Err("the 4-byte prefix decodes".into())
        );
        // A prefix error that is not `Truncated`.
        let wrong = |b: &[u8]| match b.len() {
            n if n == valid.len() => Ok(()),
            _ => Err(CodecError::BadMagic),
        };
        assert_eq!(
            check_garbled(&valid, wrong),
            Err("the 0-byte prefix gives BadMagic".into())
        );
        // A decoder that panics on a flipped bit.
        let fragile = |b: &[u8]| {
            let items = decode(b)?;
            assert!(items.iter().all(|(_, s)| s == "ab"), "garbled");
            Ok(items)
        };
        assert_eq!(
            check_garbled(&valid, fragile),
            Err("flipping bit 0 of byte 9 panics".into())
        );
    }
}
