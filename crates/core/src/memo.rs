//! Memoized `DiscoverXFD`: incremental re-discovery for a changing corpus.
//!
//! A corpus mutates one document at a time, but re-running discovery from
//! scratch repeats the full lattice traversal of every relation — including
//! the many whose tuples did not change. This module caches each
//! *relation pass* (`process_relation`) keyed by a 128-bit fingerprint of
//! everything the pass reads:
//!
//! * the discovery configuration (pruning rules, LHS bound, target caps),
//! * the forest skeleton (relation ids, parents, pivots — what the
//!   self-reference guard walks),
//! * the relation's own content: tuple count, `parent_of` index, and every
//!   column's schema element, kind and raw cells,
//! * the incoming partition targets, pair sets included.
//!
//! Soundness rests on two properties of the underlying engine. First,
//! `process_relation` never resolves dictionary strings — it compares
//! interned cell identifiers only — so equal raw cells imply an identical
//! pass. Second, the hierarchical encoding is *prefix-stable*: appending a
//! document appends tuples, dictionary entries and value classes without
//! renumbering existing ones (class ids follow document order, see
//! `xfd_xml::value_eq`), so an unchanged relation re-encodes to
//! byte-identical cells — `ValueClass` cells included — and its cached
//! pass replays verbatim. The fingerprint is a word-wise
//! [`WordDigest`] that absorbs each cell as one `u64`. A fingerprint mismatch
//! merely forces a recompute; output never differs from
//! [`discover_forest`](crate::xfd::discover_forest) on the same forest,
//! which is this module's wave scheduler run without a memo.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use xfd_hash::codec::{put_u128, put_u32, put_usize, CodecError};
use xfd_hash::{FxHashMap, WordDigest};
use xfd_partition::{AttrSet, PairSet};
use xfd_relation::{ColumnKind, Forest, RelId};

use crate::config::DiscoveryConfig;
use crate::intra::RunStats;
use crate::target::PartitionTarget;
use crate::xfd::{
    minimize_inter, process_relation, relation_waves, ForestDiscovery, RelationOutput, TargetStats,
};

/// One line of discovery progress: a relation pass finished (possibly from
/// cache). The corpus server streams these as NDJSON.
#[derive(Debug, Clone)]
pub struct RelationProgress<'a> {
    /// The relation.
    pub rel: RelId,
    /// Its tuple-class name (e.g. `C_book`).
    pub name: &'a str,
    /// Depth in the relation tree (waves run deepest-first).
    pub depth: usize,
    /// Whether the pass was replayed from the memo.
    pub cached: bool,
    /// Intra-relation FDs found in this relation.
    pub fds: usize,
    /// Intra-relation keys found.
    pub keys: usize,
    /// Inter-relation FDs completed at this relation.
    pub inter_fds: usize,
    /// Inter-relation keys completed here.
    pub inter_keys: usize,
}

/// Counters of a [`RelationMemo`] — either lifetime totals
/// ([`RelationMemo::stats`]) or a single run's deltas
/// (`RunStatsBundle::memo`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Relation passes replayed from cache.
    pub hits: u64,
    /// Relation passes computed (and inserted).
    pub misses: u64,
    /// Entries dropped by the byte-budget LRU sweep (generation pruning
    /// via `prune_stale` is not counted).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently resident.
    pub resident_bytes: usize,
}

/// How many configurations [`RelationMemo::prune_stale`] keeps passes
/// for: the most recently run ones. Alternating configurations keep
/// replaying each other's passes, while a client that changes a knob on
/// every request still cannot grow the memo without bound.
const MAX_CONFIGS: usize = 4;

struct MemoEntry {
    /// Fingerprint of the configuration the pass ran under.
    config: u128,
    generation: u64,
    last_used: u64,
    bytes: usize,
    output: RelationOutput,
}

/// Cache of relation passes, keyed by content fingerprint. Owned by a
/// [`CorpusHandle`-style](crate::driver::discover_trees_with_memo) caller
/// and carried across discover runs.
///
/// The memo is size-bounded: give it a byte budget
/// ([`RelationMemo::with_budget`]) and a least-recently-used sweep runs
/// after every wave, preferring entries *not* touched by the current run.
/// Eviction only ever costs future hits — a miss recomputes the pass.
#[derive(Default)]
pub struct RelationMemo {
    entries: FxHashMap<u128, MemoEntry>,
    /// Each recently run configuration with the generation of its latest
    /// run, most recent first; at most [`MAX_CONFIGS`].
    configs: Vec<(u128, u64)>,
    generation: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_bytes: usize,
    budget: Option<usize>,
}

impl RelationMemo {
    /// An empty, unbounded memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty memo bounded to roughly `bytes` of cached pass output.
    pub fn with_budget(bytes: usize) -> Self {
        RelationMemo {
            budget: Some(bytes),
            ..Default::default()
        }
    }

    /// Change (or remove) the byte budget. Shrinking takes effect at the
    /// next discover run's sweep.
    pub fn set_budget(&mut self, bytes: Option<usize>) {
        self.budget = bytes;
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Cached relation passes currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime cache hits (relation passes replayed).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime cache misses (relation passes computed).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate bytes of cached pass output currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Lifetime counters plus current residency, as one snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            resident_bytes: self.resident_bytes,
        }
    }

    /// Drop every entry that the latest run of its own configuration left
    /// untouched, and every entry of a configuration that is no longer
    /// among the [`MAX_CONFIGS`] most recently run. This bounds memory
    /// across document adds/removes (a stale fingerprint can only hit
    /// again if the exact same corpus state recurs), while a run under one
    /// configuration never evicts another configuration's passes.
    pub fn prune_stale(&mut self) {
        let configs = &self.configs;
        let mut freed = 0usize;
        self.entries.retain(|_, e| {
            let live = is_live(configs, e);
            if !live {
                freed += e.bytes;
            }
            live
        });
        self.resident_bytes = self.resident_bytes.saturating_sub(freed);
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }

    /// Open a run under the configuration fingerprinted as `config`: a new
    /// generation, and `config` becomes the most recently run one.
    fn begin_run(&mut self, config: u128) {
        self.generation += 1;
        self.configs.retain(|&(c, _)| c != config);
        self.configs.insert(0, (config, self.generation));
        self.configs.truncate(MAX_CONFIGS);
    }

    /// Account one relation pass of the current run: a hit refreshes its
    /// entry's recency, a miss files the freshly computed output.
    fn record(&mut self, key: u128, cached: bool, output: &RelationOutput) {
        self.tick += 1;
        if cached {
            self.hits += 1;
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.generation = self.generation;
                entry.last_used = self.tick;
            }
        } else {
            self.misses += 1;
            let bytes = approx_output_bytes(output);
            self.resident_bytes += bytes;
            let config = self.configs.first().map_or(0, |&(c, _)| c);
            self.entries.insert(
                key,
                MemoEntry {
                    config,
                    generation: self.generation,
                    last_used: self.tick,
                    bytes,
                    output: output.clone(),
                },
            );
        }
    }

    /// Evict least-recently-used entries until the budget is met. Entries
    /// that the latest run of their configuration left untouched go first
    /// (they can only hit again if the exact corpus state recurs); live
    /// entries follow, oldest use first.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.budget else {
            return;
        };
        if self.resident_bytes <= budget {
            return;
        }
        let mut order: Vec<(bool, u64, u128)> = self
            .entries
            .iter()
            .map(|(key, e)| (is_live(&self.configs, e), e.last_used, *key))
            .collect();
        order.sort_unstable();
        for (_, _, key) in order {
            if self.resident_bytes <= budget {
                break;
            }
            if let Some(e) = self.entries.remove(&key) {
                self.resident_bytes = self.resident_bytes.saturating_sub(e.bytes);
                self.evictions += 1;
            }
        }
    }
}

/// Whether the latest run of `e`'s configuration touched it, that
/// configuration being one of the recently run `configs`.
fn is_live(configs: &[(u128, u64)], e: &MemoEntry) -> bool {
    configs
        .iter()
        .any(|&(c, g)| c == e.config && g == e.generation)
}

/// Rough heap footprint of one cached pass, for budget accounting. Counts
/// the variable-size payloads with fixed per-item overheads; exactness is
/// not required — the budget is advisory, not an allocator limit.
fn approx_output_bytes(out: &RelationOutput) -> usize {
    fn pair_bytes(p: &PairSet) -> usize {
        std::mem::size_of_val(p.pairs()) + 32
    }
    let mut b = std::mem::size_of::<RelationOutput>() + std::mem::size_of::<MemoEntry>() + 16;
    b += out.local.fds.len() * std::mem::size_of::<crate::lattice::IntraFd>();
    b += out.local.keys.len() * std::mem::size_of::<AttrSet>();
    for fd in &out.inter_fds {
        b += 32 + fd.lhs_levels.len() * 24;
    }
    for key in &out.inter_keys {
        b += 24 + key.lhs_levels.len() * 24;
    }
    for t in &out.outgoing {
        b += std::mem::size_of::<PartitionTarget>()
            + t.lhs_levels.len() * 24
            + pair_bytes(&t.fd_target)
            + t.key_target.as_ref().map_or(0, pair_bytes)
            + (t.satisfied_fd.len() + t.satisfied_key.len()) * std::mem::size_of::<AttrSet>();
    }
    b
}

fn update_attrset(d: &mut WordDigest, s: AttrSet) {
    d.update_u128(s.bits());
}

fn update_pairs(d: &mut WordDigest, pairs: &PairSet) {
    d.update_u64(pairs.pairs().len() as u64);
    for &(a, b) in pairs.pairs() {
        d.update_u64(a as u64);
        d.update_u64(b as u64);
    }
}

/// Absorb every configuration field `process_relation` reads.
fn config_fingerprint(config: &DiscoveryConfig, d: &mut WordDigest) {
    d.update_u64(config.lhs_bound() as u64);
    d.update_u64(config.inter_relation as u64);
    d.update_u64(config.empty_lhs as u64);
    d.update_u64(config.prune.rule1 as u64);
    d.update_u64(config.prune.rule2 as u64);
    d.update_u64(config.prune.key_prune as u64);
    d.update_u64(config.max_partition_targets as u64);
    d.update_u64(config.cache_budget.map_or(u64::MAX, |b| b as u64));
}

/// Absorb the forest skeleton: ids, parent edges and pivots of every
/// relation. The self-reference guard inside `process_relation` walks an
/// origin's parent chain and compares pivots, so the *whole* skeleton is
/// part of every relation's key.
fn skeleton_fingerprint(forest: &Forest, d: &mut WordDigest) {
    d.update_u64(forest.relations.len() as u64);
    for rel in &forest.relations {
        d.update_u64(rel.id.0 as u64);
        d.update_u64(rel.parent.map_or(u64::MAX, |p| p.0 as u64));
        d.update_u64(rel.pivot.0 as u64);
    }
}

/// Fingerprint one relation pass: `base` (config + skeleton) extended with
/// the relation's content and its incoming partition targets. Each cell is
/// one word: ⊥ is `u64::MAX`, which no dictionary, class or node id
/// reaches, and every column's length is absorbed before its cells, so
/// cell sequences cannot alias.
fn relation_fingerprint(
    forest: &Forest,
    rel_id: RelId,
    incoming: &[PartitionTarget],
    base: WordDigest,
) -> u128 {
    let rel = forest.relation(rel_id);
    let mut d = base;
    d.update_u64(rel.id.0 as u64);
    d.update_u64(rel.n_tuples() as u64);
    for &p in &rel.parent_of {
        d.update_u64(p as u64);
    }
    d.update_u64(rel.columns.len() as u64);
    for col in &rel.columns {
        d.update_u64(col.elem.0 as u64);
        d.update_u64(match col.kind {
            ColumnKind::Simple => 0,
            ColumnKind::Complex => 1,
            ColumnKind::SetValue => 2,
        });
        d.update_u64(col.cells.len() as u64);
        for cell in &col.cells {
            d.update_u64(cell.unwrap_or(u64::MAX));
        }
    }
    d.update_u64(incoming.len() as u64);
    for pt in incoming {
        d.update_u64(pt.origin.0 as u64);
        d.update_u64(pt.rhs as u64);
        d.update_u64(pt.lhs_levels.len() as u64);
        for &(r, s) in &pt.lhs_levels {
            d.update_u64(r.0 as u64);
            update_attrset(&mut d, s);
        }
        update_pairs(&mut d, &pt.fd_target);
        match &pt.key_target {
            None => d.update_u64(u64::MAX),
            Some(kt) => {
                d.update_u64(1);
                update_pairs(&mut d, kt);
            }
        }
        d.update_u64(pt.satisfied_fd.len() as u64);
        for &s in &pt.satisfied_fd {
            update_attrset(&mut d, s);
        }
        d.update_u64(pt.satisfied_key.len() as u64);
        for &s in &pt.satisfied_key {
            update_attrset(&mut d, s);
        }
    }
    d.finish()
}

/// One queued relation pass of a wave in dispatchable form: everything a
/// process holding a byte-identical forest needs to run the pass exactly
/// as this one would. Produced by
/// [`discover_forest_memo_with`] for its [`PassRunner`], shipped over the
/// wire via [`WaveTask::encode_bytes`]/[`WaveTask::decode_bytes`], and
/// executed by [`run_task`].
pub struct WaveTask {
    /// The relation to pass.
    pub rel: RelId,
    /// The pass's memo fingerprint (config + skeleton + relation content +
    /// incoming targets): a globally stable task identity the cluster
    /// layer partitions and logs by.
    pub key: u128,
    pub(crate) incoming: Vec<PartitionTarget>,
}

impl WaveTask {
    /// Serialize for dispatch to another process, sealed as one record.
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        put_u32(&mut body, self.rel.0);
        put_u128(&mut body, self.key);
        put_usize(&mut body, self.incoming.len());
        for t in &self.incoming {
            crate::wire::put_target(&mut body, t);
        }
        crate::wire::seal(&body)
    }

    /// Decode a task encoded by [`WaveTask::encode_bytes`].
    pub fn decode_bytes(bytes: &[u8]) -> Result<WaveTask, CodecError> {
        let mut r = crate::wire::unseal(bytes)?;
        let rel = RelId(r.u32()?);
        let key = r.u128()?;
        let n = r.count_u64(20)?;
        let mut incoming = Vec::with_capacity(n);
        for _ in 0..n {
            incoming.push(crate::wire::read_target(&mut r)?);
        }
        r.finish()?;
        Ok(WaveTask { rel, key, incoming })
    }
}

/// Execute one [`WaveTask`] against a forest and return the encoded pass
/// output — the worker side of a cluster dispatch, and the reference
/// implementation a [`PassRunner`] must match: the coordinator falls back
/// to exactly this call (minus the codec round-trip) whenever a runner's
/// answer is missing or undecodable.
///
/// The relation id must be in range — callers validate tasks against the
/// forest they hold (the cluster worker checks `rel` before dispatch).
pub fn run_task(forest: &Forest, config: &DiscoveryConfig, task: &WaveTask) -> Vec<u8> {
    let out = process_relation(forest, task.rel, task.incoming.clone(), config);
    crate::wire::encode_output(&out)
}

/// True when `task.rel` names a relation of `forest` — the bound
/// [`run_task`] requires.
pub fn task_in_bounds(forest: &Forest, task: &WaveTask) -> bool {
    (task.rel.index()) < forest.relations.len()
}

/// Executor hook for the misses of one wave: [`discover_forest_memo_with`]
/// hands every queued pass of the wave to the runner at once (they are
/// independent — same relation-tree depth) and decodes the answers in task
/// order. Entries that are `None` or fail to decode are recomputed in
/// process, so a runner can shed load or die without changing the output.
pub trait PassRunner {
    /// Run every task, returning encoded outputs ([`run_task`]'s bytes) in
    /// task order.
    fn run_wave(
        &mut self,
        forest: &Forest,
        config: &DiscoveryConfig,
        tasks: &[WaveTask],
    ) -> Vec<Option<Vec<u8>>>;
}

/// One relation of the current wave, fingerprinted up front.
struct WaveItem {
    rel: RelId,
    /// Memo fingerprint; `None` when the run fingerprints nothing.
    key: Option<u128>,
    /// Replayed output for memo hits; filled in later for misses.
    result: Option<RelationOutput>,
    cached: bool,
}

/// A memo miss queued for computation.
struct WaveJob {
    /// Index into the wave's `WaveItem` list.
    item: usize,
    rel: RelId,
    key: Option<u128>,
    incoming: Vec<PartitionTarget>,
}

/// Run the queued misses of one wave on a scoped worker pool draining a
/// shared work queue, and return each output keyed by its wave-item index.
/// A panicking pass propagates out of the pool.
fn run_jobs_pooled(
    forest: &Forest,
    config: &DiscoveryConfig,
    jobs: &[WaveJob],
    workers: usize,
) -> HashMap<usize, RelationOutput> {
    let queue = AtomicUsize::new(0);
    let mut computed: HashMap<usize, RelationOutput> = HashMap::with_capacity(jobs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, RelationOutput)> = Vec::new();
                    loop {
                        let j = queue.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(j) else { break };
                        let out = process_relation(forest, job.rel, job.incoming.clone(), config);
                        done.push((job.item, out));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => computed.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    computed
}

/// [`discover_forest`](crate::xfd::discover_forest) with a relation-pass
/// memo and a progress callback. Memo hits replay immediately and bypass
/// the queue; the misses of a multi-relation wave drain from a shared work
/// queue on a pool of [`DiscoveryConfig::effective_threads`] workers.
/// Results merge in wave order, so output and work counters never depend
/// on the thread count. The callback fires once per relation, deepest wave
/// first.
pub fn discover_forest_memo(
    forest: &Forest,
    config: &DiscoveryConfig,
    memo: &mut RelationMemo,
    progress: impl FnMut(RelationProgress<'_>),
) -> ForestDiscovery {
    schedule_waves(forest, config, Some(memo), progress, None)
}

/// [`discover_forest_memo`] with an optional [`PassRunner`] executing each
/// wave's memo misses — the cluster coordinator's entry point. With
/// `runner = None` the misses run on the in-process pool, byte-identically
/// to [`discover_forest_memo`]; with a runner they are dispatched as
/// [`WaveTask`]s and any answer that is missing or undecodable is
/// recomputed in process, so the output never depends on who computed a
/// pass. Memo hits always replay locally and never reach the runner.
pub fn discover_forest_memo_with(
    forest: &Forest,
    config: &DiscoveryConfig,
    memo: &mut RelationMemo,
    progress: impl FnMut(RelationProgress<'_>),
    runner: Option<&mut dyn PassRunner>,
) -> ForestDiscovery {
    schedule_waves(forest, config, Some(memo), progress, runner)
}

/// The one wave scheduler behind every forest traversal. Waves run
/// deepest-first; each is fingerprinted up front (a wave member's parent
/// lies in a shallower wave, so its incoming targets are final when the
/// wave starts). Misses go to the runner when one is installed; else a
/// wave's misses run on the pool when there are several of them and
/// several threads, and on the caller's thread otherwise. Without a memo
/// and a runner nothing is fingerprinted: the keys would go unused, and
/// hashing every cell is real cost on large relations.
pub(crate) fn schedule_waves(
    forest: &Forest,
    config: &DiscoveryConfig,
    mut memo: Option<&mut RelationMemo>,
    mut progress: impl FnMut(RelationProgress<'_>),
    mut runner: Option<&mut dyn PassRunner>,
) -> ForestDiscovery {
    let base = (memo.is_some() || runner.is_some()).then(|| {
        let mut d = WordDigest::new();
        config_fingerprint(config, &mut d);
        if let Some(memo) = memo.as_deref_mut() {
            memo.begin_run(d.finish());
        }
        skeleton_fingerprint(forest, &mut d);
        d
    });

    let mut out = ForestDiscovery {
        relations: Vec::with_capacity(forest.relations.len()),
        inter_fds: Vec::new(),
        inter_keys: Vec::new(),
        lattice_stats: RunStats::default(),
        target_stats: TargetStats::default(),
    };
    // Incoming partition targets per relation, pairs in that relation's
    // tuple space.
    let mut inbox: HashMap<RelId, Vec<PartitionTarget>> = HashMap::new();
    let (depth, waves) = relation_waves(forest);
    let threads = config.effective_threads();

    for wave in waves.into_iter().rev() {
        // Fingerprint the whole wave, replaying hits as they surface.
        let mut items: Vec<WaveItem> = Vec::with_capacity(wave.len());
        let mut jobs: Vec<WaveJob> = Vec::new();
        for rel_id in wave {
            let incoming = inbox.remove(&rel_id).unwrap_or_default();
            let key = base.map(|b| relation_fingerprint(forest, rel_id, &incoming, b));
            let hit = match (key, memo.as_deref()) {
                (Some(k), Some(memo)) => memo.entries.get(&k).map(|e| e.output.clone()),
                _ => None,
            };
            if hit.is_none() {
                jobs.push(WaveJob {
                    item: items.len(),
                    rel: rel_id,
                    key,
                    incoming,
                });
            }
            items.push(WaveItem {
                rel: rel_id,
                key,
                cached: hit.is_some(),
                result: hit,
            });
        }

        let mut computed: HashMap<usize, RelationOutput> = match runner.as_deref_mut() {
            Some(r) if !jobs.is_empty() => {
                let item_of: Vec<usize> = jobs.iter().map(|j| j.item).collect();
                let tasks: Vec<WaveTask> = jobs
                    .drain(..)
                    .map(|job| WaveTask {
                        rel: job.rel,
                        // Always fingerprinted: a runner is installed.
                        key: job.key.unwrap_or_default(),
                        incoming: job.incoming,
                    })
                    .collect();
                let answers = r.run_wave(forest, config, &tasks);
                let mut done = HashMap::with_capacity(tasks.len());
                for (i, task) in tasks.into_iter().enumerate() {
                    let decoded = answers
                        .get(i)
                        .and_then(|a| a.as_deref())
                        .and_then(|bytes| crate::wire::decode_output(bytes).ok())
                        // A forged relation id could route results to the
                        // wrong pass; recompute instead.
                        .filter(|out| out.local.rel == task.rel);
                    let out = match decoded {
                        Some(out) => out,
                        None => process_relation(forest, task.rel, task.incoming, config),
                    };
                    if let Some(&item) = item_of.get(i) {
                        done.insert(item, out);
                    }
                }
                done
            }
            _ if threads > 1 && jobs.len() > 1 => {
                run_jobs_pooled(forest, config, &jobs, threads.min(jobs.len()))
            }
            _ => jobs
                .drain(..)
                .map(|job| {
                    let out = process_relation(forest, job.rel, job.incoming, config);
                    (job.item, out)
                })
                .collect(),
        };

        // Merge in wave order: memo updates, progress events, target
        // routing and counters are all independent of how (and on how many
        // threads) the passes ran.
        for (idx, item) in items.into_iter().enumerate() {
            let rel_id = item.rel;
            let mut result = match item.result.or_else(|| computed.remove(&idx)) {
                Some(r) => r,
                // Unreachable: every item is either a replayed hit or a
                // queued job whose output landed under its index.
                None => continue,
            };
            if let (Some(memo), Some(key)) = (memo.as_deref_mut(), item.key) {
                memo.record(key, item.cached, &result);
            }
            progress(RelationProgress {
                rel: rel_id,
                name: &forest.relation(rel_id).name,
                depth: depth.get(&rel_id).copied().unwrap_or(0),
                cached: item.cached,
                fds: result.local.fds.len(),
                keys: result.local.keys.len(),
                inter_fds: result.inter_fds.len(),
                inter_keys: result.inter_keys.len(),
            });
            out.inter_fds.append(&mut result.inter_fds);
            out.inter_keys.append(&mut result.inter_keys);
            out.lattice_stats.absorb(&result.lattice);
            out.target_stats.created += result.targets.created;
            out.target_stats.propagated += result.targets.propagated;
            out.target_stats.dropped_impossible += result.targets.dropped_impossible;
            out.target_stats.dropped_overflow += result.targets.dropped_overflow;
            out.relations.push(result.local);
            if let Some(parent) = forest.relation(rel_id).parent {
                let mut outgoing = result.outgoing;
                let room = config
                    .max_partition_targets
                    .saturating_sub(inbox.get(&parent).map_or(0, Vec::len));
                if outgoing.len() > room {
                    out.target_stats.dropped_overflow += outgoing.len() - room;
                    outgoing.truncate(room);
                }
                inbox.entry(parent).or_default().extend(outgoing);
            }
        }
        if let Some(memo) = memo.as_deref_mut() {
            memo.enforce_budget();
        }
    }
    // Relations were collected bottom-up; restore forest order.
    out.relations.sort_by_key(|r| r.rel);
    minimize_inter(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xfd::discover_forest;
    use xfd_relation::{encode, EncodeConfig};
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    const DOC: &str = "<w>\
        <state><sname>WA</sname>\
          <store><book><isbn>1</isbn><price>10</price></book>\
            <book><isbn>2</isbn><price>30</price></book>\
            <mag><m>1</m></mag><mag><m>2</m></mag></store>\
          <store><book><isbn>1</isbn><price>10</price></book>\
            <mag><m>1</m></mag></store>\
        </state>\
        <state><sname>KY</sname>\
          <store><book><isbn>1</isbn><price>12</price></book>\
            <mag><m>3</m></mag></store>\
        </state>\
        </w>";

    fn forest_of(xml: &str) -> Forest {
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        encode(&t, &schema, &EncodeConfig::default())
    }

    fn assert_same(a: &ForestDiscovery, b: &ForestDiscovery) {
        assert_eq!(a.inter_fds, b.inter_fds);
        assert_eq!(a.inter_keys, b.inter_keys);
        assert_eq!(a.relations.len(), b.relations.len());
        for (x, y) in a.relations.iter().zip(b.relations.iter()) {
            assert_eq!(x.rel, y.rel);
            assert_eq!(x.fds, y.fds);
            assert_eq!(x.keys, y.keys);
        }
        assert_eq!(a.lattice_stats, b.lattice_stats);
        assert_eq!(a.target_stats, b.target_stats);
    }

    #[test]
    fn memoized_run_matches_plain_discover_forest() {
        let forest = forest_of(DOC);
        let config = DiscoveryConfig::default();
        let plain = discover_forest(&forest, &config);
        let mut memo = RelationMemo::new();
        let cold = discover_forest_memo(&forest, &config, &mut memo, |_| {});
        assert_same(&plain, &cold);
        assert_eq!(memo.hits(), 0);
        assert!(memo.misses() > 0);
    }

    #[test]
    fn second_run_hits_on_every_relation_and_matches() {
        let forest = forest_of(DOC);
        let config = DiscoveryConfig::default();
        let mut memo = RelationMemo::new();
        let first = discover_forest_memo(&forest, &config, &mut memo, |_| {});
        let misses = memo.misses();
        let mut events = 0usize;
        let second = discover_forest_memo(&forest, &config, &mut memo, |p| {
            assert!(p.cached, "relation {} recomputed on warm run", p.name);
            events += 1;
        });
        assert_same(&first, &second);
        assert_eq!(memo.misses(), misses, "no new misses on identical forest");
        assert_eq!(events, forest.relations.len());
    }

    #[test]
    fn memoized_parallel_config_matches_plain_run_including_stats() {
        let forest = forest_of(DOC);
        let config = DiscoveryConfig {
            threads: 2,
            ..Default::default()
        };
        let plain = discover_forest(&forest, &config);
        let mut memo = RelationMemo::new();
        let out = discover_forest_memo(&forest, &config, &mut memo, |_| {});
        assert_same(&plain, &out);
    }

    #[test]
    fn changed_value_forces_partial_recompute() {
        let config = DiscoveryConfig::default();
        let mut memo = RelationMemo::new();
        let forest = forest_of(DOC);
        discover_forest_memo(&forest, &config, &mut memo, |_| {});
        // Same shape, one magazine id changed: the mag relation (and its
        // ancestors, whose incoming targets differ) recompute; the book
        // relation replays from cache.
        let dirty = forest_of(&DOC.replace("<m>3</m>", "<m>9</m>"));
        let mut cached_names: Vec<String> = Vec::new();
        let out = discover_forest_memo(&dirty, &config, &mut memo, |p| {
            if p.cached {
                cached_names.push(p.name.to_string());
            }
        });
        assert!(
            cached_names.iter().any(|n| n.contains("book")),
            "book relation should replay from cache, got {cached_names:?}"
        );
        assert_same(&out, &discover_forest(&dirty, &config));
    }

    #[test]
    fn different_config_never_replays_stale_entries() {
        let forest = forest_of(DOC);
        let mut memo = RelationMemo::new();
        discover_forest_memo(&forest, &DiscoveryConfig::default(), &mut memo, |_| {});
        let bounded = DiscoveryConfig {
            max_lhs_size: Some(1),
            ..Default::default()
        };
        let out = discover_forest_memo(&forest, &bounded, &mut memo, |p| {
            assert!(!p.cached, "config change must invalidate {}", p.name);
        });
        assert_same(&out, &discover_forest(&forest, &bounded));
    }

    #[test]
    fn pooled_wave_scheduling_matches_serial_for_every_thread_count() {
        let forest = forest_of(DOC);
        let serial_cfg = DiscoveryConfig::default();
        let mut serial_memo = RelationMemo::new();
        let serial = discover_forest_memo(&forest, &serial_cfg, &mut serial_memo, |_| {});
        for threads in [2usize, 8] {
            let config = DiscoveryConfig {
                threads,
                ..Default::default()
            };
            let plain = discover_forest(&forest, &config);
            let mut memo = RelationMemo::new();
            let cold = discover_forest_memo(&forest, &config, &mut memo, |_| {});
            assert_same(&plain, &cold);
            let warm = discover_forest_memo(&forest, &config, &mut memo, |p| {
                assert!(p.cached, "{} recomputed on warm pooled run", p.name);
            });
            assert_same(&cold, &warm);
            // Discovery, work counters included, is thread-count
            // independent.
            assert_same(&serial, &cold);
        }
        // So memo entries carry no thread count: a memo warmed
        // sequentially replays every pass of a pooled run.
        let pooled = DiscoveryConfig {
            threads: 4,
            ..Default::default()
        };
        let warm = discover_forest_memo(&forest, &pooled, &mut serial_memo, |p| {
            assert!(p.cached, "{} recomputed at threads 4", p.name);
        });
        assert_same(&serial, &warm);
    }

    #[test]
    fn byte_budget_evicts_lru_and_tracks_residency() {
        let forest = forest_of(DOC);
        let config = DiscoveryConfig::default();
        // Measure an unbounded run first.
        let mut unbounded = RelationMemo::new();
        discover_forest_memo(&forest, &config, &mut unbounded, |_| {});
        let full = unbounded.resident_bytes();
        assert!(full > 0, "passes have nonzero footprint");

        // A budget below the working set forces evictions mid-run and
        // keeps residency bounded, without changing the output.
        let mut tight = RelationMemo::with_budget(full / 2);
        let out = discover_forest_memo(&forest, &config, &mut tight, |_| {});
        assert_same(&out, &discover_forest(&forest, &config));
        assert!(tight.evictions() > 0, "tight budget must evict");
        assert!(
            tight.resident_bytes() <= full / 2,
            "residency {} exceeds budget {}",
            tight.resident_bytes(),
            full / 2
        );
        let stats = tight.stats();
        assert_eq!(stats.evictions, tight.evictions());
        assert_eq!(stats.entries, tight.len());

        // Zero budget: everything evicts, every run is all misses, output
        // still correct.
        let mut zero = RelationMemo::with_budget(0);
        let first = discover_forest_memo(&forest, &config, &mut zero, |_| {});
        let second = discover_forest_memo(&forest, &config, &mut zero, |p| {
            assert!(!p.cached, "zero budget cannot hit");
        });
        assert_same(&first, &second);
        assert_eq!(zero.len(), 0);
        assert_eq!(zero.resident_bytes(), 0);
    }

    #[test]
    fn stale_generations_evict_before_current_ones() {
        let config = DiscoveryConfig::default();
        let forest = forest_of(DOC);
        let mut memo = RelationMemo::new();
        discover_forest_memo(&forest, &config, &mut memo, |_| {});
        let resident = memo.resident_bytes();
        // Allow the old generation plus a sliver: re-running on a changed
        // forest must evict *stale* entries first, so the warm rerun on
        // the new forest still hits everywhere.
        memo.set_budget(Some(resident + resident / 4));
        let dirty = forest_of(&DOC.replace("<sname>WA</sname>", "<sname>KY</sname>"));
        discover_forest_memo(&dirty, &config, &mut memo, |_| {});
        assert!(memo.evictions() > 0, "budget forces stale evictions");
        discover_forest_memo(&dirty, &config, &mut memo, |p| {
            assert!(p.cached, "{} should survive the stale-first sweep", p.name);
        });
    }

    #[test]
    fn pass_runner_roundtrip_matches_local_run() {
        // A runner that executes every task through the wire codec — the
        // moral equivalent of a remote worker on a verified forest.
        struct WireRunner {
            waves: usize,
            tasks: usize,
        }
        impl PassRunner for WireRunner {
            fn run_wave(
                &mut self,
                forest: &Forest,
                config: &DiscoveryConfig,
                tasks: &[WaveTask],
            ) -> Vec<Option<Vec<u8>>> {
                self.waves += 1;
                self.tasks += tasks.len();
                tasks
                    .iter()
                    .map(|t| {
                        let reparsed =
                            WaveTask::decode_bytes(&t.encode_bytes()).expect("task codec");
                        assert_eq!(reparsed.rel, t.rel);
                        assert_eq!(reparsed.key, t.key);
                        assert!(task_in_bounds(forest, &reparsed));
                        Some(run_task(forest, config, &reparsed))
                    })
                    .collect()
            }
        }
        let forest = forest_of(DOC);
        for config in [
            DiscoveryConfig::default(),
            DiscoveryConfig {
                threads: 4,
                ..Default::default()
            },
        ] {
            let mut local_memo = RelationMemo::new();
            let local = discover_forest_memo_with(&forest, &config, &mut local_memo, |_| {}, None);
            let mut runner = WireRunner { waves: 0, tasks: 0 };
            let mut memo = RelationMemo::new();
            let remote =
                discover_forest_memo_with(&forest, &config, &mut memo, |_| {}, Some(&mut runner));
            assert_same(&local, &remote);
            assert_eq!(
                runner.tasks,
                forest.relations.len(),
                "all misses dispatched"
            );
            assert_eq!(memo.misses(), local_memo.misses());
            // Warm rerun: hits replay locally, the runner sees nothing.
            let mut idle = WireRunner { waves: 0, tasks: 0 };
            let warm =
                discover_forest_memo_with(&forest, &config, &mut memo, |_| {}, Some(&mut idle));
            assert_same(&remote, &warm);
            assert_eq!(idle.tasks, 0, "memo hits never reach the runner");
        }
    }

    #[test]
    fn pass_runner_failures_fall_back_to_local_compute() {
        // A runner that sheds every other task and garbles the rest in
        // rotation: None, garbage bytes, a wrong-relation forgery.
        struct FlakyRunner {
            n: usize,
        }
        impl PassRunner for FlakyRunner {
            fn run_wave(
                &mut self,
                forest: &Forest,
                config: &DiscoveryConfig,
                tasks: &[WaveTask],
            ) -> Vec<Option<Vec<u8>>> {
                tasks
                    .iter()
                    .map(|t| {
                        self.n += 1;
                        match self.n % 3 {
                            0 => None,
                            1 => Some(b"not an output".to_vec()),
                            _ => {
                                // Valid bytes for the *wrong* relation.
                                let mut other = forest.relations.len() - 1;
                                if other == t.rel.index() {
                                    other = 0;
                                }
                                if other == t.rel.index() {
                                    return None;
                                }
                                let forged = WaveTask {
                                    rel: RelId(other as u32),
                                    key: 0,
                                    incoming: Vec::new(),
                                };
                                Some(run_task(forest, config, &forged))
                            }
                        }
                    })
                    .collect()
            }
        }
        let forest = forest_of(DOC);
        let config = DiscoveryConfig::default();
        let mut memo_a = RelationMemo::new();
        let local = discover_forest_memo_with(&forest, &config, &mut memo_a, |_| {}, None);
        let mut flaky = FlakyRunner { n: 0 };
        let mut memo_b = RelationMemo::new();
        let out =
            discover_forest_memo_with(&forest, &config, &mut memo_b, |_| {}, Some(&mut flaky));
        assert_same(&local, &out);
        assert_eq!(memo_a.misses(), memo_b.misses());
    }

    #[test]
    fn prune_stale_keeps_only_the_latest_generation() {
        let forest = forest_of(DOC);
        let config = DiscoveryConfig::default();
        let mut memo = RelationMemo::new();
        discover_forest_memo(&forest, &config, &mut memo, |_| {});
        let n = memo.len();
        // Note: a pure *rename* (WA → OR) would change nothing — dictionary
        // ids are positional, so the cells stay identical and every pass
        // replays. Collapsing two distinct values changes the id structure.
        let dirty = forest_of(&DOC.replace("<sname>WA</sname>", "<sname>KY</sname>"));
        discover_forest_memo(&dirty, &config, &mut memo, |_| {});
        assert!(memo.len() > n, "both generations resident before pruning");
        memo.prune_stale();
        assert_eq!(memo.len(), n, "exactly the latest run's entries survive");
        // And the pruned memo still replays the latest forest fully.
        discover_forest_memo(&dirty, &config, &mut memo, |p| assert!(p.cached));
    }

    /// One discover run as a corpus handle makes it: the memoized
    /// traversal, then `prune_stale`. Returns how many passes replayed.
    fn run_and_prune(forest: &Forest, config: &DiscoveryConfig, memo: &mut RelationMemo) -> usize {
        let mut cached = 0;
        discover_forest_memo(forest, config, memo, |p| cached += usize::from(p.cached));
        memo.prune_stale();
        cached
    }

    fn lhs(n: usize) -> DiscoveryConfig {
        DiscoveryConfig {
            max_lhs_size: Some(n),
            ..Default::default()
        }
    }

    #[test]
    fn alternating_configurations_keep_each_others_passes() {
        let forest = forest_of(DOC);
        let (a, b) = (DiscoveryConfig::default(), lhs(1));
        let mut memo = RelationMemo::new();
        assert_eq!(run_and_prune(&forest, &a, &mut memo), 0);
        assert_eq!(run_and_prune(&forest, &b, &mut memo), 0);
        // The run under B left A's passes alone: A replays every one.
        assert_eq!(
            run_and_prune(&forest, &a, &mut memo),
            forest.relations.len()
        );
        assert_eq!(
            run_and_prune(&forest, &b, &mut memo),
            forest.relations.len()
        );
    }

    #[test]
    fn only_the_most_recently_run_configurations_are_kept() {
        let forest = forest_of(DOC);
        let configs = [lhs(1), lhs(2), lhs(3), lhs(4), DiscoveryConfig::default()];
        let mut memo = RelationMemo::new();
        for config in &configs {
            run_and_prune(&forest, config, &mut memo);
        }
        // Each run files one pass per relation. A fifth configuration
        // pushed the first one out: its entries are gone, the other four
        // configurations' are all resident.
        assert_eq!(configs.len(), MAX_CONFIGS + 1);
        assert_eq!(memo.len(), MAX_CONFIGS * forest.relations.len());
        assert_eq!(run_and_prune(&forest, &configs[0], &mut memo), 0);
        assert_eq!(
            run_and_prune(&forest, &configs[4], &mut memo),
            forest.relations.len()
        );
    }
}
