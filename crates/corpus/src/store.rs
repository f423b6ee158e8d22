//! On-disk corpus layout: manifest, write-ahead log, segment files.
//!
//! One directory per corpus:
//!
//! ```text
//! <root>/<corpus>/MANIFEST          committed document list
//! <root>/<corpus>/wal               redo log between manifest rewrites
//! <root>/<corpus>/segments/seg-N.xtt   one TreeTuple block per document
//! ```
//!
//! The `MANIFEST` is a line-oriented text file — a `xfdcorpus v1` header,
//! then one `doc <seg-id> <digest> <name>` line per document in ingest
//! order. It is only ever replaced atomically (write `MANIFEST.tmp`,
//! fsync, rename, fsync the directory).
//!
//! ## WAL protocol
//!
//! Every mutation follows *segment → WAL → manifest*:
//!
//! 1. the segment file is fully written and fsynced (adds only);
//! 2. a WAL record is appended and fsynced — an [`xfd_hash::codec`]
//!    record, `[u32 LE length][payload][16-byte LE checksum]`, the checksum
//!    being the shared dual-lane FNV-1a digest of the payload, the same
//!    128-bit lane the manifest uses for segment digests;
//! 3. the manifest is atomically rewritten and the WAL truncated.
//!
//! Replay-on-open applies every complete, checksum-verified record in
//! order (an `add` additionally requires its segment to exist with a
//! matching digest), drops the torn tail, rewrites the manifest, and
//! truncates the WAL. A crash at *any* byte therefore yields either the
//! pre-mutation or the post-mutation document set — never a torn one.
//! Unreferenced segment files left by pre-WAL crashes are garbage-collected
//! on open.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use xfd_hash::codec::{put_record, CodecError, Reader};
use xfd_hash::{digest_bytes, format_digest, parse_digest};

/// Magic first line of a manifest.
const MANIFEST_HEADER: &str = "xfdcorpus v1";

/// One committed document: its name, segment id and segment digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocMeta {
    /// Document name (validated by [`crate::validate_name`]).
    pub name: String,
    /// Segment id (`segments/seg-<id>.xtt`).
    pub seg: u64,
    /// Digest of the document's bytes (the whole segment file, or its
    /// `span` of a shared compacted segment).
    pub digest: u128,
    /// `(offset, length)` within the segment file for documents packed
    /// into a shared segment by `corpus compact`; `None` means the
    /// document owns the whole file.
    pub span: Option<(u64, u64)>,
}

/// A WAL mutation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A document was ingested (its segment is already on disk).
    Add(DocMeta),
    /// A document was removed.
    Remove(String),
    /// Every document was rewritten into one shared segment (the new
    /// segment is already on disk); carries the full post-compaction
    /// document list, which *replaces* the committed one on replay.
    Compact(Vec<DocMeta>),
}

impl WalRecord {
    /// Text payload of the record.
    pub fn payload(&self) -> String {
        match self {
            WalRecord::Add(d) => {
                format!("add {} {} {}", d.seg, format_digest(d.digest), d.name)
            }
            WalRecord::Remove(name) => format!("rm {name}"),
            WalRecord::Compact(metas) => {
                let mut text = format!("compact {}", metas.len());
                for d in metas {
                    let (off, len) = d.span.unwrap_or((0, 0));
                    text.push_str(&format!(
                        "\n{} {off} {len} {} {}",
                        d.seg,
                        format_digest(d.digest),
                        d.name
                    ));
                }
                text
            }
        }
    }

    /// Parse a payload back; `None` for unknown or malformed payloads.
    pub fn parse(payload: &str) -> Option<WalRecord> {
        if let Some(rest) = payload.strip_prefix("compact ") {
            let mut lines = rest.lines();
            let count: usize = lines.next()?.trim().parse().ok()?;
            let mut metas = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let mut parts = lines.next()?.splitn(5, ' ');
                let seg: u64 = parts.next()?.parse().ok()?;
                let off: u64 = parts.next()?.parse().ok()?;
                let len: u64 = parts.next()?.parse().ok()?;
                let digest = parse_digest(parts.next()?)?;
                let name = parts.next()?;
                if name.is_empty() {
                    return None;
                }
                metas.push(DocMeta {
                    name: name.to_string(),
                    seg,
                    digest,
                    span: Some((off, len)),
                });
            }
            if lines.next().is_some() {
                return None;
            }
            return Some(WalRecord::Compact(metas));
        }
        let mut parts = payload.splitn(4, ' ');
        match parts.next()? {
            "add" => {
                let seg: u64 = parts.next()?.parse().ok()?;
                let digest = parse_digest(parts.next()?)?;
                let name = parts.next()?;
                if name.is_empty() {
                    return None;
                }
                Some(WalRecord::Add(DocMeta {
                    name: name.to_string(),
                    seg,
                    digest,
                    span: None,
                }))
            }
            "rm" => {
                let name = parts.next()?;
                if name.is_empty() || parts.next().is_some() {
                    return None;
                }
                Some(WalRecord::Remove(name.to_string()))
            }
            _ => None,
        }
    }

    /// Read the next record of a WAL: its digest-checked payload, parsed.
    fn read(r: &mut Reader<'_>) -> Result<WalRecord, CodecError> {
        let payload = std::str::from_utf8(r.record()?).map_err(|_| CodecError::BadUtf8)?;
        WalRecord::parse(payload).ok_or(CodecError::BadValue("WAL record"))
    }
}

/// Low-level handle on one corpus directory. Higher layers
/// ([`crate::CorpusHandle`]) own the in-memory state; this type owns the
/// bytes and the crash-safety discipline.
#[derive(Debug)]
pub struct StoreDir {
    dir: PathBuf,
}

impl StoreDir {
    /// Create the directory structure for a new, empty corpus. Fails if
    /// `dir` already exists.
    pub fn init(dir: &Path) -> io::Result<StoreDir> {
        fs::create_dir_all(dir.parent().unwrap_or(Path::new(".")))?;
        fs::create_dir(dir)?;
        fs::create_dir(dir.join("segments"))?;
        let store = StoreDir {
            dir: dir.to_path_buf(),
        };
        store.commit(&[])?;
        Ok(store)
    }

    /// Attach to an existing corpus directory (no replay; see
    /// [`StoreDir::open`]).
    pub fn attach(dir: &Path) -> StoreDir {
        StoreDir {
            dir: dir.to_path_buf(),
        }
    }

    /// Open an existing corpus: load the manifest, replay the WAL, rewrite
    /// the manifest if the WAL held anything, and garbage-collect
    /// unreferenced segments. Returns the committed document list.
    pub fn open(dir: &Path) -> Result<(StoreDir, Vec<DocMeta>), StoreError> {
        let store = StoreDir::attach(dir);
        if !store.manifest_path().is_file() {
            return Err(StoreError::Corrupt("missing MANIFEST".into()));
        }
        let mut docs = store.load_manifest()?;
        let replayed = store.replay_wal(&mut docs)?;
        if replayed {
            store.commit(&docs)?;
        }
        store.collect_garbage(&docs)?;
        Ok((store, docs))
    }

    /// Open an existing corpus without mutating its directory: the WAL is
    /// replayed *in memory* only — the manifest is not rewritten, the WAL
    /// is not truncated and no garbage collection runs. For processes that
    /// read a corpus another process owns (cluster workers).
    pub fn open_readonly(dir: &Path) -> Result<(StoreDir, Vec<DocMeta>), StoreError> {
        let store = StoreDir::attach(dir);
        if !store.manifest_path().is_file() {
            return Err(StoreError::Corrupt("missing MANIFEST".into()));
        }
        let mut docs = store.load_manifest()?;
        store.replay_wal(&mut docs)?;
        Ok((store, docs))
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    /// Path of the WAL file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal")
    }

    /// Path of segment `seg`.
    pub fn seg_path(&self, seg: u64) -> PathBuf {
        self.dir.join("segments").join(format!("seg-{seg}.xtt"))
    }

    /// Write and fsync a segment file. Step 1 of an ingest: runs *before*
    /// the WAL record referencing it.
    pub fn write_segment(&self, seg: u64, bytes: &[u8]) -> io::Result<()> {
        let path = self.seg_path(seg);
        let mut f = File::create(&path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    }

    /// Read a segment file whole.
    pub fn read_segment(&self, seg: u64) -> io::Result<Vec<u8>> {
        fs::read(self.seg_path(seg))
    }

    /// Read one document's bytes: the whole segment file, or its span of a
    /// shared compacted segment.
    pub fn read_doc(&self, meta: &DocMeta) -> Result<Vec<u8>, StoreError> {
        let bytes = self.read_segment(meta.seg)?;
        Ok(slice_span(&bytes, meta)?.to_vec())
    }

    /// Append one record to the WAL and fsync it. Step 2 of a mutation:
    /// after this returns, the mutation survives any crash.
    pub fn append_wal(&self, record: &WalRecord) -> io::Result<()> {
        let payload = record.payload();
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path())?;
        let mut frame = Vec::with_capacity(payload.len() + 20);
        put_record(&mut frame, payload.as_bytes());
        f.write_all(&frame)?;
        f.sync_all()?;
        Ok(())
    }

    /// Atomically rewrite the manifest to `docs` and truncate the WAL.
    /// Step 3 of a mutation.
    pub fn commit(&self, docs: &[DocMeta]) -> io::Result<()> {
        let mut text = String::from(MANIFEST_HEADER);
        text.push('\n');
        for d in docs {
            match d.span {
                None => text.push_str(&format!(
                    "doc {} {} {}\n",
                    d.seg,
                    format_digest(d.digest),
                    d.name
                )),
                Some((off, len)) => text.push_str(&format!(
                    "part {} {off} {len} {} {}\n",
                    d.seg,
                    format_digest(d.digest),
                    d.name
                )),
            }
        }
        let tmp = self.dir.join("MANIFEST.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, self.manifest_path())?;
        // fsync the directory so the rename itself is durable.
        File::open(&self.dir)?.sync_all()?;
        // The manifest now covers everything the WAL recorded.
        if self.wal_path().exists() {
            File::create(self.wal_path())?.sync_all()?;
        }
        Ok(())
    }

    fn load_manifest(&self) -> Result<Vec<DocMeta>, StoreError> {
        let text = fs::read_to_string(self.manifest_path())?;
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(StoreError::Corrupt("bad MANIFEST header".into()));
        }
        let mut docs = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let bad = || StoreError::Corrupt(format!("bad MANIFEST line: {line}"));
            if let Some(rest) = line.strip_prefix("doc ") {
                let mut parts = rest.splitn(3, ' ');
                let seg: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let digest = parse_digest(parts.next().ok_or_else(bad)?).ok_or_else(bad)?;
                let name = parts.next().ok_or_else(bad)?.to_string();
                docs.push(DocMeta {
                    name,
                    seg,
                    digest,
                    span: None,
                });
            } else if let Some(rest) = line.strip_prefix("part ") {
                let mut parts = rest.splitn(5, ' ');
                let seg: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let off: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let len: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let digest = parse_digest(parts.next().ok_or_else(bad)?).ok_or_else(bad)?;
                let name = parts.next().ok_or_else(bad)?.to_string();
                docs.push(DocMeta {
                    name,
                    seg,
                    digest,
                    span: Some((off, len)),
                });
            } else {
                return Err(bad());
            }
        }
        Ok(docs)
    }

    /// Apply complete, verified WAL records to `docs`; stop at the first
    /// torn or invalid record. Returns whether the WAL held any bytes (in
    /// which case the caller must re-commit).
    fn replay_wal(&self, docs: &mut Vec<DocMeta>) -> Result<bool, StoreError> {
        let bytes = match fs::read(self.wal_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e.into()),
        };
        if bytes.is_empty() {
            return Ok(false);
        }
        // A record that fails to read is the torn tail a crash mid-append
        // leaves behind: stop replaying, keep what is already applied.
        let mut r = Reader::new(&bytes);
        while let Ok(record) = WalRecord::read(&mut r) {
            match record {
                WalRecord::Add(meta) => {
                    // The protocol wrote and fsynced the segment before this
                    // record; verify that actually holds before trusting it.
                    match self.read_segment(meta.seg) {
                        Ok(seg_bytes) if digest_bytes(&seg_bytes) == meta.digest => {
                            docs.retain(|d| d.name != meta.name);
                            docs.push(meta);
                        }
                        _ => break,
                    }
                }
                WalRecord::Remove(name) => docs.retain(|d| d.name != name),
                WalRecord::Compact(metas) => {
                    // Compaction wrote and fsynced the shared segment before
                    // this record; every span must digest-match, else the
                    // record is torn and the pre-compaction list stands.
                    let mut seg_bytes: Option<(u64, Vec<u8>)> = None;
                    let mut all_ok = true;
                    for meta in &metas {
                        if seg_bytes.as_ref().map(|(s, _)| *s) != Some(meta.seg) {
                            match self.read_segment(meta.seg) {
                                Ok(b) => seg_bytes = Some((meta.seg, b)),
                                Err(_) => {
                                    all_ok = false;
                                    break;
                                }
                            }
                        }
                        let ok = seg_bytes
                            .as_ref()
                            .and_then(|(_, b)| slice_span(b, meta).ok())
                            .is_some_and(|doc| digest_bytes(doc) == meta.digest);
                        if !ok {
                            all_ok = false;
                            break;
                        }
                    }
                    if !all_ok {
                        break;
                    }
                    *docs = metas;
                }
            }
        }
        Ok(true)
    }

    /// Delete segment files no committed document references (left behind
    /// by crashes between segment write and WAL append, or by removals).
    fn collect_garbage(&self, docs: &[DocMeta]) -> io::Result<()> {
        let live: Vec<PathBuf> = docs.iter().map(|d| self.seg_path(d.seg)).collect();
        for entry in fs::read_dir(self.dir.join("segments"))? {
            let path = entry?.path();
            if !live.contains(&path) {
                // xfdlint:allow(error_hygiene, reason = "orphan-segment GC is opportunistic; a file that cannot be unlinked now is retried on the next open")
                let _ = fs::remove_file(&path);
            }
        }
        Ok(())
    }
}

/// Slice a document's span out of its segment bytes (the whole slice for
/// whole-file documents), bounds-checked.
fn slice_span<'a>(bytes: &'a [u8], meta: &DocMeta) -> Result<&'a [u8], StoreError> {
    match meta.span {
        None => Ok(bytes),
        Some((off, len)) => (off as usize)
            .checked_add(len as usize)
            .and_then(|end| bytes.get(off as usize..end))
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "span of document '{}' exceeds segment {}",
                    meta.name, meta.seg
                ))
            }),
    }
}

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// The on-disk state is not a corpus (bad header, unparseable line,
    /// digest mismatch).
    Corrupt(String),
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt corpus: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd_hash::codec::check_garbled;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xfd-corpus-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(name: &str, seg: u64, bytes: &[u8]) -> DocMeta {
        DocMeta {
            name: name.into(),
            seg,
            digest: digest_bytes(bytes),
            span: None,
        }
    }

    fn part(name: &str, seg: u64, off: u64, bytes: &[u8]) -> DocMeta {
        DocMeta {
            name: name.into(),
            seg,
            digest: digest_bytes(bytes),
            span: Some((off, bytes.len() as u64)),
        }
    }

    #[test]
    fn wal_record_payloads_round_trip() {
        let add = WalRecord::Add(meta("orders-3", 7, b"abc"));
        assert_eq!(WalRecord::parse(&add.payload()), Some(add.clone()));
        let rm = WalRecord::Remove("orders-3".into());
        assert_eq!(WalRecord::parse(&rm.payload()), Some(rm));
        let compact = WalRecord::Compact(vec![part("a", 4, 0, b"one"), part("b", 4, 3, b"two")]);
        assert_eq!(WalRecord::parse(&compact.payload()), Some(compact));
        assert_eq!(WalRecord::parse("nonsense 1 2 3"), None);
        assert_eq!(WalRecord::parse("add x y z"), None);
        assert_eq!(WalRecord::parse("rm"), None);
        assert_eq!(WalRecord::parse("compact x"), None);
        assert_eq!(WalRecord::parse("compact 2\n0 0 3 00 a"), None);
    }

    #[test]
    fn wal_bytes_are_pinned() {
        // Stored corpora hold these bytes; replay must keep reading them.
        let dir = tmp_dir("pinned");
        let store = StoreDir::init(&dir).unwrap();
        store
            .append_wal(&WalRecord::Add(meta("orders-3", 7, b"abc")))
            .unwrap();
        store
            .append_wal(&WalRecord::Remove("orders-3".into()))
            .unwrap();
        store
            .append_wal(&WalRecord::Compact(vec![
                part("a", 4, 0, b"one"),
                part("b", 4, 3, b"two"),
            ]))
            .unwrap();
        let wal = fs::read(store.wal_path()).unwrap();
        assert_eq!(
            format_digest(digest_bytes(&wal)),
            "dc654363cd4061d27d381a0003570069"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_records_pass_the_garble_check() {
        let decode = |b: &[u8]| {
            let mut r = Reader::new(b);
            let record = WalRecord::read(&mut r)?;
            r.finish().map(|()| record)
        };
        for record in [
            WalRecord::Add(meta("orders-3", 7, b"abc")),
            WalRecord::Remove("orders-3".into()),
            WalRecord::Compact(vec![part("a", 4, 0, b"one"), part("b", 4, 3, b"two")]),
        ] {
            let mut bytes = Vec::new();
            put_record(&mut bytes, record.payload().as_bytes());
            assert_eq!(decode(&bytes), Ok(record));
            assert_eq!(check_garbled(&bytes, decode), Ok(()));
        }
    }

    #[test]
    fn manifest_round_trips_span_documents() {
        let dir = tmp_dir("spans");
        let store = StoreDir::init(&dir).unwrap();
        store.write_segment(3, b"onetwo").unwrap();
        let docs = vec![part("a", 3, 0, b"one"), part("b", 3, 3, b"two")];
        store.commit(&docs).unwrap();
        let (store, loaded) = StoreDir::open(&dir).unwrap();
        assert_eq!(loaded, docs);
        assert_eq!(store.read_doc(&loaded[0]).unwrap(), b"one");
        assert_eq!(store.read_doc(&loaded[1]).unwrap(), b"two");
        // A span past the end of the segment is corruption, not a panic.
        let bogus = part("c", 3, 5, b"xx");
        assert!(matches!(
            store.read_doc(&bogus),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_compact_replay_replaces_the_document_list() {
        let dir = tmp_dir("compact-replay");
        let store = StoreDir::init(&dir).unwrap();
        store.write_segment(0, b"one").unwrap();
        store.write_segment(1, b"two").unwrap();
        let before = vec![meta("a", 0, b"one"), meta("b", 1, b"two")];
        store.commit(&before).unwrap();
        // Compaction crashed between WAL append and manifest rewrite.
        store.write_segment(2, b"onetwo").unwrap();
        let after = vec![part("a", 2, 0, b"one"), part("b", 2, 3, b"two")];
        store
            .append_wal(&WalRecord::Compact(after.clone()))
            .unwrap();
        let (store, docs) = StoreDir::open(&dir).unwrap();
        assert_eq!(docs, after);
        // Replay committed: old whole-file segments are garbage now.
        assert!(!store.seg_path(0).exists());
        assert!(!store.seg_path(1).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_compact_without_segment_is_dropped() {
        let dir = tmp_dir("compact-noseg");
        let store = StoreDir::init(&dir).unwrap();
        store.write_segment(0, b"one").unwrap();
        let before = vec![meta("a", 0, b"one")];
        store.commit(&before).unwrap();
        // Crash before the compacted segment reached disk: record is torn.
        store
            .append_wal(&WalRecord::Compact(vec![part("a", 9, 0, b"one")]))
            .unwrap();
        let (_, docs) = StoreDir::open(&dir).unwrap();
        assert_eq!(docs, before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_readonly_leaves_the_directory_untouched() {
        let dir = tmp_dir("readonly");
        let store = StoreDir::init(&dir).unwrap();
        store.write_segment(0, b"first").unwrap();
        store
            .append_wal(&WalRecord::Add(meta("a", 0, b"first")))
            .unwrap();
        store.write_segment(7, b"orphan").unwrap();
        let wal_before = fs::read(store.wal_path()).unwrap();
        let manifest_before = fs::read(dir.join("MANIFEST")).unwrap();
        let (ro, docs) = StoreDir::open_readonly(&dir).unwrap();
        // The replayed view surfaces the staged document…
        assert_eq!(docs, vec![meta("a", 0, b"first")]);
        // …but nothing on disk moved: WAL, manifest and orphans intact.
        assert_eq!(fs::read(ro.wal_path()).unwrap(), wal_before);
        assert_eq!(fs::read(dir.join("MANIFEST")).unwrap(), manifest_before);
        assert!(ro.seg_path(7).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_through_commit_and_open() {
        let dir = tmp_dir("manifest");
        let store = StoreDir::init(&dir).unwrap();
        store.write_segment(0, b"seg zero").unwrap();
        store.write_segment(1, b"seg one").unwrap();
        let docs = vec![meta("a", 0, b"seg zero"), meta("b", 1, b"seg one")];
        store.commit(&docs).unwrap();
        let (_, loaded) = StoreDir::open(&dir).unwrap();
        assert_eq!(loaded, docs);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_applies_complete_records() {
        let dir = tmp_dir("replay");
        let store = StoreDir::init(&dir).unwrap();
        store.write_segment(0, b"first").unwrap();
        store
            .append_wal(&WalRecord::Add(meta("a", 0, b"first")))
            .unwrap();
        // Crash here: manifest never rewritten. Reopen must surface doc a.
        let (_, docs) = StoreDir::open(&dir).unwrap();
        assert_eq!(docs, vec![meta("a", 0, b"first")]);
        // And the replay committed: the WAL is now empty.
        assert_eq!(fs::read(store.wal_path()).unwrap(), Vec::<u8>::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_add_without_segment_is_dropped() {
        let dir = tmp_dir("noseg");
        let store = StoreDir::init(&dir).unwrap();
        store
            .append_wal(&WalRecord::Add(meta("ghost", 9, b"never written")))
            .unwrap();
        let (_, docs) = StoreDir::open(&dir).unwrap();
        assert!(docs.is_empty(), "{docs:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_segments_are_collected_on_open() {
        let dir = tmp_dir("gc");
        let store = StoreDir::init(&dir).unwrap();
        store
            .write_segment(5, b"orphan from a pre-WAL crash")
            .unwrap();
        let (store, docs) = StoreDir::open(&dir).unwrap();
        assert!(docs.is_empty());
        assert!(!store.seg_path(5).exists(), "orphan must be collected");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_a_missing_or_mangled_manifest() {
        let dir = tmp_dir("mangled");
        assert!(matches!(
            StoreDir::open(&dir),
            Err(StoreError::Io(_)) | Err(StoreError::Corrupt(_))
        ));
        let store = StoreDir::init(&dir).unwrap();
        fs::write(store.dir().join("MANIFEST"), "not a manifest\n").unwrap();
        assert!(matches!(StoreDir::open(&dir), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
