//! Injected on-disk failures against *committed* state: flipped segment
//! bytes, truncated segments, and a segment whose digest checks out but
//! whose tuple block is torn. Every case must surface a typed
//! [`CorpusError`] from `open` — never a panic, never a silently wrong
//! document set. (WAL-byte corruption is covered by `wal_crash.rs`.)

use std::fs;
use std::path::PathBuf;

use xfd_corpus::{CorpusError, CorpusStore};
use xfd_hash::codec::CodecError;
use xfd_hash::{digest_bytes, format_digest};
use xfd_xml::parse;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfd-inject-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One committed corpus with one document; returns (root, segment path).
fn committed_corpus(tag: &str) -> (PathBuf, PathBuf) {
    let root = tmp(tag);
    let store = CorpusStore::new(&root);
    let mut c = store.create("c").unwrap();
    let tree =
        parse("<shop><book><i>1</i><t>T</t></book><book><i>1</i><t>T</t></book></shop>").unwrap();
    c.add_doc("d1", &tree).unwrap();
    drop(c);
    let seg = root.join("c").join("segments").join("seg-0.xtt");
    assert!(seg.is_file(), "expected committed segment at {seg:?}");
    (root, seg)
}

#[test]
fn flipped_segment_byte_is_a_typed_corruption_error() {
    let (root, seg) = committed_corpus("flip-seg");
    let mut bytes = fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    fs::write(&seg, &bytes).unwrap();

    match CorpusStore::new(&root).open("c") {
        Err(CorpusError::Corrupt(what)) => {
            assert!(what.contains("digest"), "unexpected detail: {what}")
        }
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("corrupted corpus opened cleanly"),
    }
}

#[test]
fn truncated_segment_is_a_typed_corruption_error() {
    let (root, seg) = committed_corpus("trunc-seg");
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();

    assert!(
        matches!(
            CorpusStore::new(&root).open("c"),
            Err(CorpusError::Corrupt(_))
        ),
        "digest verification must catch the truncation before decoding"
    );
}

#[test]
fn torn_tuple_block_with_matching_digest_is_a_typed_decode_error() {
    // Digest verification passes (the manifest is rewritten to match the
    // truncated bytes), so `open` reaches the codec — which must report
    // `Truncated` instead of panicking on a short buffer.
    let (root, seg) = committed_corpus("torn-tuples");
    let bytes = fs::read(&seg).unwrap();
    let torn = &bytes[..bytes.len() - 3];
    fs::write(&seg, torn).unwrap();
    let manifest = root.join("c").join("MANIFEST");
    fs::write(
        &manifest,
        format!(
            "xfdcorpus v1\ndoc 0 {} d1\n",
            format_digest(digest_bytes(torn))
        ),
    )
    .unwrap();

    match CorpusStore::new(&root).open("c") {
        Err(CorpusError::Decode(CodecError::Truncated)) => {}
        Err(other) => panic!("expected Decode(Truncated), got {other:?}"),
        Ok(_) => panic!("torn corpus opened cleanly"),
    }
}

#[test]
fn garbage_segment_with_matching_digest_is_a_typed_decode_error() {
    let (root, seg) = committed_corpus("garbage");
    let garbage: Vec<u8> = (0..200u32)
        .map(|i| (i.wrapping_mul(97) >> 3) as u8)
        .collect();
    fs::write(&seg, &garbage).unwrap();
    let manifest = root.join("c").join("MANIFEST");
    fs::write(
        &manifest,
        format!(
            "xfdcorpus v1\ndoc 0 {} d1\n",
            format_digest(digest_bytes(&garbage))
        ),
    )
    .unwrap();

    match CorpusStore::new(&root).open("c") {
        Err(CorpusError::Decode(_)) => {}
        Err(other) => panic!("expected a Decode error, got {other:?}"),
        Ok(_) => panic!("garbage corpus opened cleanly"),
    }
}
