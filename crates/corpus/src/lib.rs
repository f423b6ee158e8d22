#![warn(missing_docs)]
//! # xfd-corpus
//!
//! A named, durable, multi-document corpus store with incremental XFD
//! discovery — the stateful layer that turns DiscoverXFD from a
//! run-per-request function into a discovery *service*.
//!
//! * **On disk** each corpus is an append-only segment directory: one
//!   [`TreeTuple`](xfd_relation::treetuple) block per ingested document, a
//!   `MANIFEST` carrying per-segment 128-bit FNV-1a digests, and a small
//!   WAL so a crash mid-ingest never corrupts the manifest (see
//!   [`store`] for the exact protocol).
//! * **In memory** a [`CorpusHandle`] keeps the decoded documents plus a
//!   [`RelationMemo`](discoverxfd::RelationMemo): re-running
//!   [`CorpusHandle::discover`] after adding or removing one document
//!   replays every relation pass whose partition inputs did not change and
//!   recomputes only the rest — output byte-identical to a from-scratch
//!   run over the same documents.
//!
//! ```no_run
//! use xfd_corpus::CorpusStore;
//! use discoverxfd::DiscoveryConfig;
//!
//! let store = CorpusStore::new("./corpora");
//! let mut corpus = store.create("orders").unwrap();
//! let doc = xfd_xml::parse("<shop><book><i>1</i></book></shop>").unwrap();
//! corpus.add_doc("day-1", &doc).unwrap();
//! let outcome = corpus.discover(&DiscoveryConfig::default());
//! println!("{} FDs", outcome.fds.len());
//! ```

pub mod names;
pub mod store;

pub use names::{validate_name, NameError};
pub use store::{DocMeta, StoreDir, StoreError, WalRecord};

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use discoverxfd::intra::RunStats;
use discoverxfd::memo::{PassRunner, RelationMemo, RelationProgress};
use discoverxfd::{discover_prepared_with, DiscoveryConfig, RunOutcome};
use xfd_hash::codec::CodecError;
use xfd_relation::treetuple::{decode_tree, encode_tree};
use xfd_relation::{build_partials, Forest, ForestMerge, SegmentPartial};
use xfd_schema::{infer_schema_from_summaries, summarize, Schema, SchemaMap, SchemaSummary};
use xfd_xml::DataTree;

/// Errors from the corpus layer.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure.
    Io(io::Error),
    /// A corpus or document name failed [`validate_name`].
    BadName(NameError),
    /// `create` on an existing corpus.
    CorpusExists(String),
    /// `open`/`delete` on a missing corpus.
    CorpusNotFound(String),
    /// `add_doc` with a name already in the corpus.
    DocExists(String),
    /// `remove_doc` with an unknown name.
    DocNotFound(String),
    /// On-disk state failed verification (manifest, WAL, or a segment
    /// whose bytes no longer match their manifest digest).
    Corrupt(String),
    /// A segment failed to decode.
    Decode(CodecError),
    /// The in-memory handle was abandoned after a panic mid-operation
    /// (e.g. a poisoned server-side lock); durable state is intact and the
    /// corpus reopens from the manifest + WAL on the next request.
    Poisoned(String),
    /// A mutation was attempted through a handle opened with
    /// [`CorpusStore::open_readonly`] (a cluster worker's view).
    ReadOnly(String),
}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl From<StoreError> for CorpusError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => CorpusError::Io(e),
            StoreError::Corrupt(what) => CorpusError::Corrupt(what),
        }
    }
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "i/o error: {e}"),
            CorpusError::BadName(e) => write!(f, "invalid name: {e}"),
            CorpusError::CorpusExists(n) => write!(f, "corpus '{n}' already exists"),
            CorpusError::CorpusNotFound(n) => write!(f, "corpus '{n}' not found"),
            CorpusError::DocExists(n) => write!(f, "document '{n}' already exists"),
            CorpusError::DocNotFound(n) => write!(f, "document '{n}' not found"),
            CorpusError::Corrupt(what) => write!(f, "corrupt corpus: {what}"),
            CorpusError::Decode(e) => write!(f, "segment decode failed: {e}"),
            CorpusError::Poisoned(n) => write!(
                f,
                "corpus '{n}' was abandoned after a panic; retry to reopen it"
            ),
            CorpusError::ReadOnly(n) => {
                write!(
                    f,
                    "corpus '{n}' was opened read-only; mutations are rejected"
                )
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// A root directory holding corpora, one subdirectory each.
#[derive(Debug, Clone)]
pub struct CorpusStore {
    root: PathBuf,
}

impl CorpusStore {
    /// A store rooted at `root` (created lazily on first `create`).
    pub fn new(root: impl Into<PathBuf>) -> CorpusStore {
        CorpusStore { root: root.into() }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn corpus_dir(&self, name: &str) -> Result<PathBuf, CorpusError> {
        validate_name(name).map_err(CorpusError::BadName)?;
        Ok(self.root.join(name))
    }

    /// Whether a corpus of that name exists (invalid names simply don't).
    pub fn exists(&self, name: &str) -> bool {
        validate_name(name).is_ok() && self.root.join(name).join("MANIFEST").is_file()
    }

    /// Create a new empty corpus.
    pub fn create(&self, name: &str) -> Result<CorpusHandle, CorpusError> {
        let dir = self.corpus_dir(name)?;
        if dir.exists() {
            return Err(CorpusError::CorpusExists(name.to_string()));
        }
        StoreDir::init(&dir)?;
        CorpusHandle::load(name, &dir)
    }

    /// Open an existing corpus, replaying its WAL and verifying every
    /// segment digest.
    pub fn open(&self, name: &str) -> Result<CorpusHandle, CorpusError> {
        let dir = self.corpus_dir(name)?;
        if !dir.join("MANIFEST").is_file() {
            return Err(CorpusError::CorpusNotFound(name.to_string()));
        }
        CorpusHandle::load(name, &dir)
    }

    /// Open an existing corpus **without mutating its directory**: the WAL
    /// is replayed in memory only — no manifest rewrite, no WAL truncation,
    /// no garbage collection. This is the view cluster workers take on a
    /// corpus the coordinator owns; mutations through the returned handle
    /// fail with [`CorpusError::ReadOnly`].
    pub fn open_readonly(&self, name: &str) -> Result<CorpusHandle, CorpusError> {
        let dir = self.corpus_dir(name)?;
        if !dir.join("MANIFEST").is_file() {
            return Err(CorpusError::CorpusNotFound(name.to_string()));
        }
        CorpusHandle::load_inner(name, &dir, true)
    }

    /// Delete a corpus and everything under it.
    pub fn delete(&self, name: &str) -> Result<(), CorpusError> {
        let dir = self.corpus_dir(name)?;
        if !dir.exists() {
            return Err(CorpusError::CorpusNotFound(name.to_string()));
        }
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    /// Names of all corpora under the root, sorted.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if validate_name(name).is_ok() && entry.path().join("MANIFEST").is_file() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

struct Doc {
    meta: DocMeta,
    tree: DataTree,
}

/// Point-in-time description of a corpus, for `corpus status` and the
/// server's `GET /v1/corpora/{name}`.
#[derive(Debug, Clone)]
pub struct CorpusStatus {
    /// Corpus name.
    pub name: String,
    /// Per document: name, segment digest (hex), node count.
    pub docs: Vec<(String, String, usize)>,
    /// Total bytes across segment files.
    pub segment_bytes: u64,
    /// Cached relation passes currently held.
    pub memo_entries: usize,
    /// Lifetime relation passes replayed from cache.
    pub memo_hits: u64,
    /// Lifetime relation passes computed.
    pub memo_misses: u64,
    /// Lifetime relation passes evicted under the memo byte budget.
    pub memo_evictions: u64,
    /// Approximate bytes of memoized relation passes currently resident.
    pub memo_resident_bytes: usize,
    /// Whether the merged forest for the current corpus state is cached
    /// (the next same-config `discover` skips merge+infer+encode).
    pub forest_cached: bool,
    /// Lifetime lattice and partition-kernel counters, summed over every
    /// discover run on this handle (passes replayed from the memo count
    /// their recorded work).
    pub kernel: RunStats,
}

/// Per-segment derived state, keyed by the segment's content digest so
/// identical documents (and re-ingested ones) share one entry.
struct SegCacheEntry {
    /// Schema trie of the segment, valid for any configuration.
    summary: Arc<SchemaSummary>,
    /// Encoded partial, valid only for the plan fingerprint it was built
    /// under (collection schema + encode configuration).
    partial: Option<(u128, Arc<SegmentPartial>)>,
}

/// The merged collection forest under one plan, as a resumable merge: a
/// corpus change re-merges only the segments after the first one that
/// changed. `generation` names the corpus state the forest reflects.
struct ForestCache {
    generation: u64,
    plan_fp: u128,
    schema: Arc<Schema>,
    merge: ForestMerge,
}

/// Everything a [`SegmentPartial`] depends on besides the document bytes:
/// the collection schema and the encode configuration.
fn plan_fingerprint(schema: &Schema, config: &DiscoveryConfig) -> u128 {
    xfd_hash::digest_bytes(format!("{schema:?}|{:?}", config.encode).as_bytes())
}

/// The inferred collection schema plus the fingerprint everything encoded
/// under it depends on. Produced by [`CorpusHandle::plan`]; a cluster
/// worker re-derives it independently from its read-only view of the same
/// directory and the two fingerprints must agree before any work is
/// assigned.
pub struct CorpusPlan {
    schema: Arc<Schema>,
    plan_fp: u128,
    infer: Duration,
}

impl CorpusPlan {
    /// The collection schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Fingerprint of (collection schema, encode configuration).
    pub fn plan_fp(&self) -> u128 {
        self.plan_fp
    }
}

/// The encoded collection under one plan, ready for the relation passes.
/// Produced by [`CorpusHandle::merged_forest`]; consumed by
/// [`CorpusHandle::finish_discover`].
pub struct PreparedCorpus {
    schema: Arc<Schema>,
    forest: Arc<Forest>,
    segments_merged: usize,
    infer: Duration,
    merge: Duration,
    encode: Duration,
}

impl PreparedCorpus {
    /// The collection schema the forest was encoded under.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The merged collection forest.
    pub fn forest(&self) -> &Arc<Forest> {
        &self.forest
    }

    /// Segments merged to produce the forest: zero on a cache hit, the
    /// changed suffix after a corpus change, every segment after a plan
    /// change.
    pub fn segments_merged(&self) -> usize {
        self.segments_merged
    }
}

/// Outcome of a [`CorpusHandle::compact`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactStats {
    /// Documents packed into the shared segment.
    pub docs: usize,
    /// Distinct segment files before compaction.
    pub segments_before: usize,
    /// Bytes of the new shared segment.
    pub bytes: u64,
}

/// One document's segment bytes, verified against the manifest digest,
/// then decoded.
fn read_verified(store: &StoreDir, meta: &DocMeta) -> Result<DataTree, CorpusError> {
    let bytes = store.read_doc(meta)?;
    if xfd_hash::digest_bytes(&bytes) != meta.digest {
        return Err(CorpusError::Corrupt(format!(
            "segment {} of document '{}' does not match its manifest digest",
            meta.seg, meta.name
        )));
    }
    decode_tree(&bytes).map_err(CorpusError::Decode)
}

/// Replace `docs` with `metas`, in order. A tree `docs` already holds is
/// reused by digest; `fetch` supplies the document of every other meta
/// (so each one read from storage is verified), and is called for all of
/// them before `docs` changes, so a failed fetch leaves `docs` as it was.
/// Returns how many documents were fetched.
fn replace_docs<E>(
    docs: &mut Vec<Doc>,
    metas: Vec<DocMeta>,
    mut fetch: impl FnMut(&DocMeta) -> Result<DataTree, E>,
) -> Result<usize, E> {
    let held: HashSet<u128> = docs.iter().map(|d| d.meta.digest).collect();
    let mut fetched = Vec::with_capacity(metas.len());
    for meta in &metas {
        let tree = if held.contains(&meta.digest) {
            None
        } else {
            Some(fetch(meta)?)
        };
        fetched.push(tree);
    }
    let count = fetched.iter().flatten().count();
    // Each held tree moves to its digest's last use and is cloned for the
    // others.
    let mut uses: HashMap<u128, usize> = HashMap::new();
    for (meta, tree) in metas.iter().zip(&fetched) {
        if tree.is_none() {
            *uses.entry(meta.digest).or_default() += 1;
        }
    }
    let mut trees: HashMap<u128, DataTree> =
        docs.drain(..).map(|d| (d.meta.digest, d.tree)).collect();
    for (meta, tree) in metas.into_iter().zip(fetched) {
        let tree = tree.or_else(|| {
            let last = uses.get_mut(&meta.digest).is_some_and(|n| {
                *n -= 1;
                *n == 0
            });
            if last {
                trees.remove(&meta.digest)
            } else {
                trees.get(&meta.digest).cloned()
            }
        });
        // Every meta was either fetched or held.
        if let Some(tree) = tree {
            docs.push(Doc { meta, tree });
        }
    }
    Ok(count)
}

/// The next free segment id after `docs`.
fn next_seg(docs: &[Doc]) -> u64 {
    docs.iter().map(|d| d.meta.seg + 1).max().unwrap_or(0)
}

/// Staged compaction output: the new segment id, the concatenated
/// tuple-block blob, and the rewritten per-document metas.
type CompactLayout = (u64, Vec<u8>, Vec<DocMeta>);

/// An open corpus: committed documents decoded in memory, plus the
/// relation-pass memo that makes repeat discovery incremental. One handle
/// assumes exclusive ownership of its directory (the server keeps one per
/// corpus; the CLI opens, mutates, exits).
pub struct CorpusHandle {
    name: String,
    store: StoreDir,
    docs: Vec<Doc>,
    next_seg: u64,
    memo: RelationMemo,
    /// Bumped on every add/remove; cached forests from older generations
    /// can never be reused.
    generation: u64,
    seg_cache: HashMap<u128, SegCacheEntry>,
    forest_cache: Option<ForestCache>,
    readonly: bool,
    /// Lifetime counters of every discover run on this handle.
    kernel: RunStats,
}

impl CorpusHandle {
    fn load(name: &str, dir: &Path) -> Result<CorpusHandle, CorpusError> {
        CorpusHandle::load_inner(name, dir, false)
    }

    fn load_inner(name: &str, dir: &Path, readonly: bool) -> Result<CorpusHandle, CorpusError> {
        let (store, metas) = if readonly {
            StoreDir::open_readonly(dir)?
        } else {
            StoreDir::open(dir)?
        };
        let mut docs = Vec::new();
        replace_docs(&mut docs, metas, |meta| read_verified(&store, meta))?;
        Ok(CorpusHandle::with_docs(name, store, docs, readonly))
    }

    fn with_docs(name: &str, store: StoreDir, docs: Vec<Doc>, readonly: bool) -> CorpusHandle {
        CorpusHandle {
            name: name.to_string(),
            store,
            next_seg: next_seg(&docs),
            docs,
            memo: RelationMemo::new(),
            generation: 0,
            seg_cache: HashMap::new(),
            forest_cache: None,
            readonly,
            kernel: RunStats::default(),
        }
    }

    /// Point the handle at `metas`, keeping every tree it already holds
    /// and all state derived from them (segment summaries, partials, the
    /// resumable forest merge), by digest; `fetch` supplies the rest. A
    /// changed digest sequence moves the generation on, so the next merge
    /// resumes from the longest unchanged prefix. Returns how many
    /// segments were fetched.
    fn set_docs<E>(
        &mut self,
        metas: Vec<DocMeta>,
        fetch: impl FnMut(&DocMeta) -> Result<DataTree, E>,
    ) -> Result<usize, E> {
        let before = self.doc_digests();
        let fetched = replace_docs(&mut self.docs, metas, fetch)?;
        if !self.docs.iter().map(|d| d.meta.digest).eq(before) {
            self.generation += 1;
        }
        self.next_seg = next_seg(&self.docs);
        Ok(fetched)
    }

    /// Re-read the manifest of a read-only handle after the owning process
    /// changed the corpus: what a pooled cluster worker does when the
    /// coordinator re-sends its plan. Only segments this handle does not
    /// hold are read, verified against their digest and decoded; decoded
    /// trees and everything derived from them are kept by digest. Returns
    /// how many segments were read.
    pub fn refresh_readonly(&mut self) -> Result<usize, CorpusError> {
        let (store, metas) = StoreDir::open_readonly(self.store.dir())?;
        let read = self.set_docs(metas, |meta| read_verified(&store, meta))?;
        self.store = store;
        Ok(read)
    }

    fn guard_writable(&self) -> Result<(), CorpusError> {
        if self.readonly {
            return Err(CorpusError::ReadOnly(self.name.clone()));
        }
        Ok(())
    }

    /// Corpus name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The corpus directory (what a cluster coordinator hands to the
    /// workers it spawns, which reopen it with
    /// [`CorpusStore::open_readonly`]).
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Document names in ingest order.
    pub fn doc_names(&self) -> Vec<&str> {
        self.docs.iter().map(|d| d.meta.name.as_str()).collect()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The decoded documents, in ingest order.
    pub fn trees(&self) -> Vec<&DataTree> {
        self.docs.iter().map(|d| &d.tree).collect()
    }

    /// Stage a document without committing it: segment written and fsynced,
    /// WAL record appended and fsynced, manifest **not** rewritten and the
    /// in-memory state **not** updated. This is the state an ingest crash
    /// leaves behind; reopening the corpus replays the WAL and surfaces the
    /// document. Exists for crash-injection tests (`--crash-after-wal`).
    pub fn stage_doc(&mut self, doc_name: &str, tree: &DataTree) -> Result<(), CorpusError> {
        let meta = self.stage(doc_name, tree)?;
        self.next_seg = meta.seg + 1;
        Ok(())
    }

    fn stage(&self, doc_name: &str, tree: &DataTree) -> Result<DocMeta, CorpusError> {
        self.guard_writable()?;
        validate_name(doc_name).map_err(CorpusError::BadName)?;
        if self.docs.iter().any(|d| d.meta.name == doc_name) {
            return Err(CorpusError::DocExists(doc_name.to_string()));
        }
        let bytes = encode_tree(tree);
        let meta = DocMeta {
            name: doc_name.to_string(),
            seg: self.next_seg,
            digest: xfd_hash::digest_bytes(&bytes),
            span: None,
        };
        self.store.write_segment(meta.seg, &bytes)?;
        self.store.append_wal(&WalRecord::Add(meta.clone()))?;
        Ok(meta)
    }

    /// Ingest a document: segment → WAL → manifest, then update the
    /// in-memory state. Fails with [`CorpusError::DocExists`] if the name
    /// is taken.
    pub fn add_doc(&mut self, doc_name: &str, tree: &DataTree) -> Result<(), CorpusError> {
        let meta = self.stage(doc_name, tree)?;
        self.next_seg = meta.seg + 1;
        let mut metas: Vec<DocMeta> = self.docs.iter().map(|d| d.meta.clone()).collect();
        metas.push(meta.clone());
        self.store.commit(&metas)?;
        self.docs.push(Doc {
            meta,
            tree: tree.clone(),
        });
        self.generation += 1;
        Ok(())
    }

    /// Remove a document: WAL → manifest → segment unlink (skipped when
    /// other documents still live in the same compacted segment).
    pub fn remove_doc(&mut self, doc_name: &str) -> Result<(), CorpusError> {
        self.guard_writable()?;
        let idx = self
            .docs
            .iter()
            .position(|d| d.meta.name == doc_name)
            .ok_or_else(|| CorpusError::DocNotFound(doc_name.to_string()))?;
        self.store
            .append_wal(&WalRecord::Remove(doc_name.to_string()))?;
        let removed = self.docs.remove(idx);
        let metas: Vec<DocMeta> = self.docs.iter().map(|d| d.meta.clone()).collect();
        self.store.commit(&metas)?;
        if !self.docs.iter().any(|d| d.meta.seg == removed.meta.seg) {
            // xfdlint:allow(error_hygiene, reason = "the manifest no longer references this segment; a failed unlink only leaves an orphan for GC on the next open")
            let _ = fs::remove_file(self.store.seg_path(removed.meta.seg));
        }
        self.generation += 1;
        Ok(())
    }

    /// Pack every document's bytes into one new shared segment, replacing
    /// the document-per-file layout built up by ingest. The protocol is
    /// the same *segment → WAL → manifest* discipline as ingest, so a
    /// crash at any byte leaves either the old layout or the new one.
    /// Document bytes, digests and order are unchanged — discovery output
    /// and every derived cache (summaries, partials, memo, forest) remain
    /// valid, which the tests assert by report byte-parity.
    pub fn compact(&mut self) -> Result<CompactStats, CorpusError> {
        self.guard_writable()?;
        let Some((new_seg, blob, metas)) = self.build_compact()? else {
            return Ok(CompactStats::default());
        };
        let segments_before: HashSet<u64> = self.docs.iter().map(|d| d.meta.seg).collect();
        self.store.write_segment(new_seg, &blob)?;
        self.store.append_wal(&WalRecord::Compact(metas.clone()))?;
        self.store.commit(&metas)?;
        for seg in &segments_before {
            if *seg != new_seg {
                // xfdlint:allow(error_hygiene, reason = "the manifest no longer references the old segments; a failed unlink only leaves an orphan for GC on the next open")
                let _ = fs::remove_file(self.store.seg_path(*seg));
            }
        }
        for (d, meta) in self.docs.iter_mut().zip(metas) {
            d.meta = meta;
        }
        self.next_seg = new_seg + 1;
        Ok(CompactStats {
            docs: self.docs.len(),
            segments_before: segments_before.len(),
            bytes: blob.len() as u64,
        })
    }

    /// Stage a compaction without committing it: shared segment written
    /// and fsynced, WAL record appended and fsynced, manifest **not**
    /// rewritten and the in-memory metas **not** updated — the state a
    /// compaction crash leaves behind. Exists for crash-injection tests
    /// (`corpus compact --crash-after-wal`).
    pub fn stage_compact(&mut self) -> Result<(), CorpusError> {
        self.guard_writable()?;
        let Some((new_seg, blob, metas)) = self.build_compact()? else {
            return Ok(());
        };
        self.store.write_segment(new_seg, &blob)?;
        self.store.append_wal(&WalRecord::Compact(metas))?;
        self.next_seg = new_seg + 1;
        Ok(())
    }

    /// The compacted layout: one concatenated blob plus span metas, or
    /// `None` for an empty corpus.
    fn build_compact(&self) -> Result<Option<CompactLayout>, CorpusError> {
        if self.docs.is_empty() {
            return Ok(None);
        }
        let new_seg = self.next_seg;
        let mut blob = Vec::new();
        let mut metas = Vec::with_capacity(self.docs.len());
        for d in &self.docs {
            let bytes = encode_tree(&d.tree);
            if xfd_hash::digest_bytes(&bytes) != d.meta.digest {
                return Err(CorpusError::Corrupt(format!(
                    "document '{}' re-encoded with a different digest",
                    d.meta.name
                )));
            }
            let off = blob.len() as u64;
            blob.extend_from_slice(&bytes);
            metas.push(DocMeta {
                name: d.meta.name.clone(),
                seg: new_seg,
                digest: d.meta.digest,
                span: Some((off, bytes.len() as u64)),
            });
        }
        Ok(Some((new_seg, blob, metas)))
    }

    /// Bound the relation-pass memo to roughly `bytes` of retained output
    /// (`None` = unbounded). Over budget, stale entries evict first, then
    /// least-recently-used current ones.
    pub fn set_memo_budget(&mut self, bytes: Option<usize>) {
        self.memo.set_budget(bytes);
    }

    /// Run discovery over the whole corpus. Relation passes unchanged since
    /// the previous `discover` on this handle replay from the memo; the
    /// result is byte-identical to a from-scratch
    /// [`discover_collection`](discoverxfd::discover_collection) over the
    /// same documents (timings aside).
    pub fn discover(&mut self, config: &DiscoveryConfig) -> RunOutcome {
        self.discover_with_progress(config, |_| {})
    }

    /// [`discover`](CorpusHandle::discover) with a per-relation progress
    /// callback (the server's NDJSON stream).
    ///
    /// The pipeline never materializes the grafted collection tree:
    ///
    /// 1. **Infer** — per-segment schema tries (cached by segment digest)
    ///    are merged into the collection schema.
    /// 2. **Encode** — per-segment [`SegmentPartial`]s (cached by digest +
    ///    plan fingerprint; missing ones built on a scoped worker pool of
    ///    [`DiscoveryConfig::effective_threads`] threads) are merged into
    ///    the collection forest by a resumable [`ForestMerge`] that merges
    ///    only the segments after the first changed one; a repeat
    ///    same-config `discover` with no change skips straight to the
    ///    relation passes.
    /// 3. **Discover** — the memoized wave traversal; with more than one
    ///    thread, relation passes of one wave run on the worker pool with
    ///    memo hits bypassing the queue.
    ///
    /// Every stage is deterministic in the thread count.
    pub fn discover_with_progress(
        &mut self,
        config: &DiscoveryConfig,
        progress: impl FnMut(RelationProgress<'_>),
    ) -> RunOutcome {
        let plan = self.plan(config);
        let prepared = self.merged_forest(config, &plan);
        self.finish_discover(config, &prepared, progress, None)
    }

    /// Stage 1 of [`discover_with_progress`](CorpusHandle::discover_with_progress):
    /// the collection schema from per-segment summaries (cached by segment
    /// digest), plus the plan fingerprint.
    pub fn plan(&mut self, config: &DiscoveryConfig) -> CorpusPlan {
        let t0 = Instant::now();
        // Drop derived state of segments no longer in the corpus.
        let live: HashSet<u128> = self.docs.iter().map(|d| d.meta.digest).collect();
        self.seg_cache.retain(|digest, _| live.contains(digest));
        for d in &self.docs {
            self.seg_cache
                .entry(d.meta.digest)
                .or_insert_with(|| SegCacheEntry {
                    summary: Arc::new(summarize(&d.tree)),
                    partial: None,
                });
        }
        let summaries: Vec<Arc<SchemaSummary>> = self
            .docs
            .iter()
            .filter_map(|d| {
                self.seg_cache
                    .get(&d.meta.digest)
                    .map(|e| e.summary.clone())
            })
            .collect();
        let schema = infer_schema_from_summaries("collection", summaries.iter().map(Arc::as_ref));
        let plan_fp = plan_fingerprint(&schema, config);
        CorpusPlan {
            schema: Arc::new(schema),
            plan_fp,
            infer: t0.elapsed(),
        }
    }

    /// Digests (deduplicated, in ingest order) of segments that still lack
    /// a [`SegmentPartial`] for `plan_fp` — the cluster coordinator's
    /// encode work list. Empty when the merged forest for the current
    /// corpus state is already cached.
    pub fn pending_partials(&self, plan_fp: u128) -> Vec<u128> {
        let forest_hit = self
            .forest_cache
            .as_ref()
            .is_some_and(|fc| fc.generation == self.generation && fc.plan_fp == plan_fp);
        if forest_hit {
            return Vec::new();
        }
        let mut queued: HashSet<u128> = HashSet::new();
        let mut out = Vec::new();
        for d in &self.docs {
            let hit = self
                .seg_cache
                .get(&d.meta.digest)
                .and_then(|e| e.partial.as_ref())
                .is_some_and(|(fp, _)| *fp == plan_fp);
            if !hit && queued.insert(d.meta.digest) {
                out.push(d.meta.digest);
            }
        }
        out
    }

    /// The decoded document whose segment has `digest`, if still in the
    /// corpus (what a worker encodes when assigned that digest).
    pub fn tree_by_digest(&self, digest: u128) -> Option<&DataTree> {
        self.docs
            .iter()
            .find(|d| d.meta.digest == digest)
            .map(|d| &d.tree)
    }

    /// Store a partial built elsewhere (a cluster worker, across the
    /// socket boundary) for `plan_fp`. Returns `false` — and drops the
    /// partial — when the segment is no longer live.
    pub fn store_partial(&mut self, plan_fp: u128, digest: u128, partial: SegmentPartial) -> bool {
        match self.seg_cache.get_mut(&digest) {
            Some(entry) => {
                entry.partial = Some((plan_fp, Arc::new(partial)));
                true
            }
            None => false,
        }
    }

    /// The cached partial of segment `digest` under `plan_fp`, if present
    /// (what the coordinator broadcasts to workers that lack it).
    pub fn partial(&self, plan_fp: u128, digest: u128) -> Option<Arc<SegmentPartial>> {
        self.seg_cache
            .get(&digest)
            .and_then(|e| e.partial.as_ref())
            .filter(|(fp, _)| *fp == plan_fp)
            .map(|(_, p)| p.clone())
    }

    /// Per-document segment digests in ingest order, duplicates preserved
    /// — the merge consumes one partial per document, so this is the exact
    /// order a worker must replay to reconstruct the coordinator's forest.
    pub fn doc_digests(&self) -> Vec<u128> {
        self.docs.iter().map(|d| d.meta.digest).collect()
    }

    /// One document's raw segment bytes by content digest — what the
    /// coordinator ships to a remote worker whose cache lacks it.
    /// Re-verified against the digest before returning, so a segment file
    /// corrupted on disk can never travel as if authentic.
    pub fn doc_bytes(&self, digest: u128) -> Option<Vec<u8>> {
        let meta = &self.docs.iter().find(|d| d.meta.digest == digest)?.meta;
        let bytes = self.store.read_doc(meta).ok()?;
        (xfd_hash::digest_bytes(&bytes) == digest).then_some(bytes)
    }

    /// An empty read-only handle for a corpus whose directory lives on
    /// another host — a remote worker's substitute for
    /// [`CorpusStore::open_readonly`]. Its documents arrive as shipped,
    /// digest-verified segments through
    /// [`refresh_shipped`](CorpusHandle::refresh_shipped); `dir` is the
    /// worker's segment cache.
    pub fn shipped(name: &str, dir: &Path) -> CorpusHandle {
        CorpusHandle::with_docs(name, StoreDir::attach(dir), Vec::new(), true)
    }

    /// Point a [`shipped`](CorpusHandle::shipped) handle at the
    /// coordinator's per-document digest `manifest` (ingest order,
    /// duplicates included). Trees the handle already holds are kept by
    /// digest, with everything derived from them; `fetch` supplies each
    /// other document's verified, decoded tree. Document names are
    /// synthesized from the digests; they never influence discovery,
    /// which sees only the trees and the fixed collection name. Returns
    /// how many segments were fetched.
    pub fn refresh_shipped<E>(
        &mut self,
        manifest: &[u128],
        mut fetch: impl FnMut(u128) -> Result<DataTree, E>,
    ) -> Result<usize, E> {
        let metas = manifest
            .iter()
            .enumerate()
            .map(|(i, &digest)| DocMeta {
                name: format!("{digest:032x}-{i}"),
                seg: i as u64,
                digest,
                span: None,
            })
            .collect();
        self.set_docs(metas, |meta| fetch(meta.digest))
    }

    /// Stage 2: the collection forest, from the generation cache when the
    /// corpus and plan are unchanged. Otherwise the plan's cached
    /// [`ForestMerge`] rolls back to the longest unchanged prefix of
    /// segment digests and merges only the rest (all of them after a plan
    /// change). Partials not prefilled via
    /// [`store_partial`](CorpusHandle::store_partial) are built here on
    /// the in-process worker pool, so a cluster run degrades gracefully to
    /// local encoding when workers die.
    pub fn merged_forest(&mut self, config: &DiscoveryConfig, plan: &CorpusPlan) -> PreparedCorpus {
        let threads = config.effective_threads();
        let t1 = Instant::now();
        let mut merge_t = Duration::ZERO;
        let mut segments_merged = 0;
        let cache = match self.forest_cache.take() {
            Some(fc) if fc.plan_fp == plan.plan_fp && fc.generation == self.generation => fc,
            cached => {
                let map = SchemaMap::new(&plan.schema);
                let mut to_build: Vec<(u128, &DataTree)> = Vec::new();
                let mut queued: HashSet<u128> = HashSet::new();
                for d in &self.docs {
                    let hit = self
                        .seg_cache
                        .get(&d.meta.digest)
                        .and_then(|e| e.partial.as_ref())
                        .is_some_and(|(fp, _)| *fp == plan.plan_fp);
                    if !hit && queued.insert(d.meta.digest) {
                        to_build.push((d.meta.digest, &d.tree));
                    }
                }
                let trees: Vec<&DataTree> = to_build.iter().map(|(_, t)| *t).collect();
                let built = build_partials(&trees, &map, &config.encode, threads);
                for ((digest, _), partial) in to_build.iter().zip(built) {
                    if let Some(entry) = self.seg_cache.get_mut(digest) {
                        entry.partial = Some((plan.plan_fp, Arc::new(partial)));
                    }
                }
                let parts: Vec<(u128, Arc<SegmentPartial>)> = self
                    .docs
                    .iter()
                    .filter_map(|d| {
                        self.seg_cache
                            .get(&d.meta.digest)
                            .and_then(|e| e.partial.as_ref())
                            .map(|(_, p)| (d.meta.digest, p.clone()))
                    })
                    .collect();
                let refs: Vec<(u128, &SegmentPartial)> =
                    parts.iter().map(|(k, p)| (*k, p.as_ref())).collect();
                // A merge under another plan has nothing to reuse; drop it
                // before building the new one.
                let mut cache = cached
                    .filter(|fc| fc.plan_fp == plan.plan_fp)
                    .unwrap_or_else(|| ForestCache {
                        generation: self.generation,
                        plan_fp: plan.plan_fp,
                        schema: plan.schema.clone(),
                        merge: ForestMerge::new(map, &config.encode),
                    });
                let tm = Instant::now();
                segments_merged = cache.merge.update(&refs);
                merge_t = tm.elapsed();
                cache.generation = self.generation;
                cache
            }
        };
        let prepared = PreparedCorpus {
            schema: cache.schema.clone(),
            forest: cache.merge.forest().clone(),
            segments_merged,
            infer: plan.infer,
            merge: merge_t,
            encode: t1.elapsed().saturating_sub(merge_t),
        };
        self.forest_cache = Some(cache);
        prepared
    }

    /// Stage 3: the memoized (and, with more than one thread, pooled) wave
    /// traversal plus redundancy analysis. `runner` optionally executes
    /// memo-missing relation passes out of process (the cluster
    /// coordinator); `None` keeps everything local. Output is identical
    /// either way, timings aside.
    pub fn finish_discover(
        &mut self,
        config: &DiscoveryConfig,
        prepared: &PreparedCorpus,
        progress: impl FnMut(RelationProgress<'_>),
        runner: Option<&mut dyn PassRunner>,
    ) -> RunOutcome {
        let mut outcome = discover_prepared_with(
            &prepared.schema,
            &prepared.forest,
            config,
            Some(&mut self.memo),
            progress,
            runner,
        );
        outcome.profile.merge = prepared.merge;
        outcome.profile.infer = prepared.infer;
        outcome.profile.encode = prepared.encode;
        self.kernel.absorb(&outcome.stats.lattice);
        // Entries from superseded corpus states can never hit again.
        self.memo.prune_stale();
        outcome
    }

    /// Current on-disk and cache state.
    pub fn status(&self) -> CorpusStatus {
        let mut segment_bytes = 0u64;
        let segs: HashSet<u64> = self.docs.iter().map(|d| d.meta.seg).collect();
        for seg in &segs {
            if let Ok(md) = fs::metadata(self.store.seg_path(*seg)) {
                segment_bytes += md.len();
            }
        }
        CorpusStatus {
            name: self.name.clone(),
            docs: self
                .docs
                .iter()
                .map(|d| {
                    (
                        d.meta.name.clone(),
                        xfd_hash::format_digest(d.meta.digest),
                        d.tree.node_count(),
                    )
                })
                .collect(),
            segment_bytes,
            memo_entries: self.memo.len(),
            memo_hits: self.memo.hits(),
            memo_misses: self.memo.misses(),
            memo_evictions: self.memo.evictions(),
            memo_resident_bytes: self.memo.resident_bytes(),
            forest_cached: self
                .forest_cache
                .as_ref()
                .is_some_and(|fc| fc.generation == self.generation),
            kernel: self.kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd_xml::parse;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xfd-corpus-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Rendered report with the one wall-clock field (`total_ms`) dropped;
    /// everything else — FDs, keys, redundancies, work counters — must be
    /// byte-identical between incremental and from-scratch runs.
    fn render_stable(r: &RunOutcome) -> String {
        let json = discoverxfd::report::render_json(r);
        json.split("\"total_ms\"").next().unwrap().to_string()
    }

    fn doc(i: u64) -> DataTree {
        parse(&format!(
            "<shop><book><i>{i}</i><t>T{}</t></book><book><i>{i}</i><t>T{}</t></book></shop>",
            i % 3,
            i % 3
        ))
        .unwrap()
    }

    #[test]
    fn create_open_delete_lifecycle() {
        let root = tmp_root("lifecycle");
        let store = CorpusStore::new(&root);
        assert!(store.list().unwrap().is_empty());
        let mut c = store.create("orders").unwrap();
        assert!(matches!(
            store.create("orders"),
            Err(CorpusError::CorpusExists(_))
        ));
        c.add_doc("d1", &doc(1)).unwrap();
        drop(c);
        assert_eq!(store.list().unwrap(), vec!["orders".to_string()]);
        let reopened = store.open("orders").unwrap();
        assert_eq!(reopened.doc_names(), vec!["d1"]);
        store.delete("orders").unwrap();
        assert!(matches!(
            store.open("orders"),
            Err(CorpusError::CorpusNotFound(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn documents_round_trip_through_reopen() {
        let root = tmp_root("roundtrip");
        let store = CorpusStore::new(&root);
        let mut c = store.create("c").unwrap();
        c.add_doc("a", &doc(1)).unwrap();
        c.add_doc("b", &doc(2)).unwrap();
        assert!(matches!(
            c.add_doc("a", &doc(3)),
            Err(CorpusError::DocExists(_))
        ));
        drop(c);
        let c = store.open("c").unwrap();
        assert_eq!(c.doc_names(), vec!["a", "b"]);
        assert!(xfd_relation::trees_equal(c.trees()[0], &doc(1)));
        assert!(xfd_relation::trees_equal(c.trees()[1], &doc(2)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn removal_persists_and_unlinks_the_segment() {
        let root = tmp_root("removal");
        let store = CorpusStore::new(&root);
        let mut c = store.create("c").unwrap();
        c.add_doc("a", &doc(1)).unwrap();
        c.add_doc("b", &doc(2)).unwrap();
        c.remove_doc("a").unwrap();
        assert!(matches!(
            c.remove_doc("a"),
            Err(CorpusError::DocNotFound(_))
        ));
        drop(c);
        let c = store.open("c").unwrap();
        assert_eq!(c.doc_names(), vec!["b"]);
        assert_eq!(c.status().docs.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_names_never_touch_the_filesystem() {
        let root = tmp_root("badnames");
        let store = CorpusStore::new(&root);
        for bad in ["../evil", "a/b", ".", "..", "", "café"] {
            assert!(matches!(store.create(bad), Err(CorpusError::BadName(_))));
            assert!(matches!(store.open(bad), Err(CorpusError::BadName(_))));
            assert!(matches!(store.delete(bad), Err(CorpusError::BadName(_))));
        }
        assert!(!root.exists(), "no directory may be created for bad names");
        let mut c = store.create("ok").unwrap();
        assert!(matches!(
            c.add_doc("../traversal", &doc(1)),
            Err(CorpusError::BadName(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn incremental_discover_matches_from_scratch() {
        let root = tmp_root("parity");
        let store = CorpusStore::new(&root);
        let mut c = store.create("c").unwrap();
        let config = DiscoveryConfig::default();
        for i in 0..4 {
            c.add_doc(&format!("d{i}"), &doc(i)).unwrap();
        }
        let warm_base = c.discover(&config);
        assert!(c.status().memo_hits == 0);
        // Add one more document; the warm handle reuses cached passes…
        c.add_doc("d4", &doc(4)).unwrap();
        let incremental = c.discover(&config);
        assert!(
            c.status().memo_hits > 0,
            "warm discover must replay some relation passes"
        );
        // …and matches (1) a cold handle over the same directory and
        // (2) plain discover_collection over the same trees.
        let mut cold = store.open("c").unwrap();
        let scratch = cold.discover(&config);
        let via_collection = {
            let trees: Vec<DataTree> = (0..5).map(doc).collect();
            let refs: Vec<&DataTree> = trees.iter().collect();
            discoverxfd::discover_collection(&refs, &config)
        };
        assert_eq!(render_stable(&incremental), render_stable(&scratch));
        assert_eq!(render_stable(&incremental), render_stable(&via_collection));
        drop(warm_base);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn compact_preserves_reports_and_survives_reopen() {
        let root = tmp_root("compact");
        let store = CorpusStore::new(&root);
        let mut c = store.create("c").unwrap();
        let config = DiscoveryConfig::default();
        for i in 0..4 {
            c.add_doc(&format!("d{i}"), &doc(i)).unwrap();
        }
        let before = c.discover(&config);
        let stats = c.compact().unwrap();
        assert_eq!(stats.docs, 4);
        assert_eq!(stats.segments_before, 4);
        assert!(stats.bytes > 0);
        // Same handle: every derived cache stays valid (the forest cache
        // in particular — compaction must not bump the generation).
        assert!(c.status().forest_cached);
        let after = c.discover(&config);
        assert_eq!(render_stable(&before), render_stable(&after));
        // Exactly one segment file remains on disk.
        let seg_files = fs::read_dir(root.join("c").join("segments"))
            .unwrap()
            .count();
        assert_eq!(seg_files, 1);
        // Reopen from disk: same documents, byte-identical report.
        drop(c);
        let mut cold = store.open("c").unwrap();
        assert_eq!(cold.doc_names(), vec!["d0", "d1", "d2", "d3"]);
        assert_eq!(
            render_stable(&before),
            render_stable(&cold.discover(&config))
        );
        // Removing one document must not unlink the shared segment…
        cold.remove_doc("d1").unwrap();
        assert_eq!(
            fs::read_dir(root.join("c").join("segments"))
                .unwrap()
                .count(),
            1
        );
        // …and the survivors still load.
        drop(cold);
        let survivors = store.open("c").unwrap();
        assert_eq!(survivors.doc_names(), vec!["d0", "d2", "d3"]);
        // Compacting an empty corpus is a no-op.
        let mut empty = store.create("empty").unwrap();
        let stats = empty.compact().unwrap();
        assert_eq!(stats.docs, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn staged_compaction_completes_on_reopen() {
        let root = tmp_root("compact-crash");
        let store = CorpusStore::new(&root);
        let mut c = store.create("c").unwrap();
        let config = DiscoveryConfig::default();
        for i in 0..3 {
            c.add_doc(&format!("d{i}"), &doc(i)).unwrap();
        }
        let before = c.discover(&config);
        // Crash between WAL append and manifest rewrite.
        c.stage_compact().unwrap();
        drop(c);
        let mut reopened = store.open("c").unwrap();
        assert_eq!(reopened.doc_names(), vec!["d0", "d1", "d2"]);
        assert_eq!(
            fs::read_dir(root.join("c").join("segments"))
                .unwrap()
                .count(),
            1,
            "replay must finish the compaction and GC the old segments"
        );
        assert_eq!(
            render_stable(&before),
            render_stable(&reopened.discover(&config))
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn readonly_handle_reads_but_rejects_mutation() {
        let root = tmp_root("readonly");
        let store = CorpusStore::new(&root);
        let mut owner = store.create("c").unwrap();
        let config = DiscoveryConfig::default();
        for i in 0..3 {
            owner.add_doc(&format!("d{i}"), &doc(i)).unwrap();
        }
        let baseline = owner.discover(&config);
        let mut ro = store.open_readonly("c").unwrap();
        assert_eq!(ro.doc_names(), vec!["d0", "d1", "d2"]);
        assert_eq!(
            render_stable(&baseline),
            render_stable(&ro.discover(&config))
        );
        assert!(matches!(
            ro.add_doc("d3", &doc(3)),
            Err(CorpusError::ReadOnly(_))
        ));
        assert!(matches!(ro.remove_doc("d0"), Err(CorpusError::ReadOnly(_))));
        assert!(matches!(ro.compact(), Err(CorpusError::ReadOnly(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn readonly_refresh_reads_only_new_segments_and_verifies_them() {
        let root = tmp_root("refresh");
        let store = CorpusStore::new(&root);
        let mut owner = store.create("c").unwrap();
        let config = DiscoveryConfig::default();
        for i in 0..3 {
            owner.add_doc(&format!("d{i}"), &doc(i)).unwrap();
        }
        let mut ro = store.open_readonly("c").unwrap();
        ro.discover(&config);
        owner.add_doc("d3", &doc(3)).unwrap();
        owner.remove_doc("d1").unwrap();
        assert_eq!(ro.refresh_readonly().unwrap(), 1, "only d3 is new");
        assert_eq!(ro.doc_names(), owner.doc_names());
        assert_eq!(
            render_stable(&ro.discover(&config)),
            render_stable(&owner.discover(&config))
        );
        // No change: nothing is read and the merged forest stays cached.
        assert_eq!(ro.refresh_readonly().unwrap(), 0);
        assert!(ro.status().forest_cached);
        // A new segment whose bytes no longer match the manifest digest is
        // refused, and the handle keeps its previous view.
        owner.add_doc("d4", &doc(4)).unwrap();
        fs::write(root.join("c").join("segments").join("seg-4.xtt"), b"junk").unwrap();
        assert!(matches!(
            ro.refresh_readonly(),
            Err(CorpusError::Corrupt(_))
        ));
        assert_eq!(ro.doc_names(), vec!["d0", "d2", "d3"]);
        let _ = fs::remove_dir_all(&root);
    }

    /// The staged pipeline (`plan` → `pending_partials` → `store_partial`
    /// → `merged_forest` → `finish_discover`) with partials built "out of
    /// process" must be byte-identical to the one-shot `discover` — this
    /// is exactly what a cluster run does over the socket.
    #[test]
    fn staged_discovery_matches_the_one_shot_path() {
        let root = tmp_root("staged");
        let store = CorpusStore::new(&root);
        let mut c = store.create("c").unwrap();
        let config = DiscoveryConfig::default();
        for i in 0..4 {
            c.add_doc(&format!("d{i}"), &doc(i)).unwrap();
        }
        let plan = c.plan(&config);
        let pending = c.pending_partials(plan.plan_fp());
        assert!(!pending.is_empty());
        // Build each pending partial the way a worker would: from the
        // document tree under the shared plan, then ship it back.
        let map = SchemaMap::new(plan.schema());
        for digest in pending {
            let part = xfd_relation::build_partial(
                c.tree_by_digest(digest).unwrap(),
                &map,
                &config.encode,
            );
            assert!(c.store_partial(plan.plan_fp(), digest, part));
        }
        assert!(c.pending_partials(plan.plan_fp()).is_empty());
        let prepared = c.merged_forest(&config, &plan);
        let staged = c.finish_discover(&config, &prepared, |_| {}, None);
        // The coordinator can fetch every partial back for broadcast.
        for digest in c.doc_digests() {
            assert!(c.partial(plan.plan_fp(), digest).is_some());
        }
        let mut cold = store.open("c").unwrap();
        assert_eq!(
            render_stable(&staged),
            render_stable(&cold.discover(&config))
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// `status()` totals the kernel counters of every discover run on the
    /// handle, a run replayed from the memo included.
    #[test]
    fn status_kernel_counters_total_every_discover_run() {
        let root = tmp_root("kernel-total");
        let store = CorpusStore::new(&root);
        let mut c = store.create("c").unwrap();
        let config = DiscoveryConfig::default();
        for d in 0..2u64 {
            let rows: String = (0..10u64)
                .map(|i| {
                    let v = i * 7 + d;
                    format!("<r><a>{}</a><b>{}</b><c>{}</c></r>", v % 3, v % 4, v % 5)
                })
                .collect();
            c.add_doc(&format!("d{d}"), &parse(&format!("<t>{rows}</t>")).unwrap())
                .unwrap();
        }
        let cold = c.discover(&config);
        let warm = c.discover(&config);
        assert_eq!(warm.stats.memo.misses, 0, "every pass replays");
        assert!(warm.stats.memo.hits > 0);
        let (a, b) = (&cold.stats.lattice, &warm.stats.lattice);
        assert!(a.products_error_only > 0, "{a:?}");
        let s = c.status().kernel;
        assert_eq!(
            s.products_error_only,
            a.products_error_only + b.products_error_only
        );
        assert_eq!(
            s.products_materialized,
            a.products_materialized + b.products_materialized
        );
        assert_eq!(s.early_exits, a.early_exits + b.early_exits);
        assert_eq!(s.summary_hits, a.summary_hits + b.summary_hits);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn removal_invalidates_only_what_changed() {
        let root = tmp_root("rm-incr");
        let store = CorpusStore::new(&root);
        let mut c = store.create("c").unwrap();
        let config = DiscoveryConfig::default();
        for i in 0..4 {
            c.add_doc(&format!("d{i}"), &doc(i)).unwrap();
        }
        c.discover(&config);
        c.remove_doc("d3").unwrap();
        let after_rm = c.discover(&config);
        let mut cold = store.open("c").unwrap();
        assert_eq!(
            render_stable(&after_rm),
            render_stable(&cold.discover(&config))
        );
        let _ = fs::remove_dir_all(&root);
    }
}
