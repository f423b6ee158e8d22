//! A persistent warm worker pool: whole [`Cluster`]s kept alive between
//! requests, keyed by (corpus name, plan fingerprint) — what an admitted
//! worker's partials and forest merge depend on. The documents they cover
//! change with the corpus and are re-planned in place; the discovery
//! configuration travels with every pass. Replaces spawn-per-request in
//! `serve` mode.
//!
//! Lifecycle of a pool entry:
//!
//! ```text
//!            discover(miss)                 discover(hit)
//!   (none) ───────────────► warm ◄──────────────────────┐
//!                            │ │                        │
//!                            │ ├── health_check ok ─────┤
//!                            │ │                        │
//!                            │ └── digest mismatch: ────┘
//!            idle deadline   │     re-plan, ≥1 worker acks
//!            health check 0  │
//!            re-plan 0       ▼    (respawn happens transparently
//!                          reaped  on the same request)
//! ```
//!
//! Checkout removes the entry from the map, so the map lock is never
//! held across any socket or process I/O (health checks, re-plans, runs,
//! spawns and shutdowns all happen on a checked-out cluster). Heartbeats
//! double as health checks: a checked-out entry must answer a `Ping`
//! before it is trusted; silence means it is shut down and respawned —
//! the caller never sees the difference, only the `warm` flag in the
//! result.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use discoverxfd::{DiscoveryConfig, RunOutcome};
use xfd_corpus::CorpusHandle;
use xfd_relation::forest_fingerprint;

use crate::coordinator::Cluster;
use crate::{ClusterError, ClusterOptions, ClusterStats};

/// How long a checked-out cluster gets to answer its health-check ping.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(5);

/// Recover a mutex even if a holder panicked: the map only stores owned
/// entries, so the data is still structurally sound.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct PoolEntry {
    cluster: Cluster,
    last_used: Instant,
    /// The per-document digests the entry's workers built their forest
    /// from; a mismatch means the corpus changed and the entry must be
    /// re-planned before use.
    doc_digests: Vec<u128>,
}

/// One pooled discovery's result.
pub struct PoolDiscovery {
    /// The discovery outcome — byte-identical to an unpooled run.
    pub outcome: RunOutcome,
    /// The run's cluster counters.
    pub stats: ClusterStats,
    /// `true` when a pooled cluster served the request and no worker
    /// process was spawned for it. A re-plan after a corpus change
    /// counts as warm; its segment shipping, if any, shows in `stats`.
    pub warm: bool,
}

/// A point-in-time view of the pool for `/metrics` and status output.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolSnapshot {
    /// Live workers across all pooled entries.
    pub warm_workers: u64,
    /// Clusters currently mid-spawn for a pool miss.
    pub spawning: u64,
    /// Entries retired so far (idle deadline, failed health check, or
    /// no worker left after a re-plan), cumulative.
    pub reaped_total: u64,
    /// Requests served by a warm entry, cumulative.
    pub warm_hits_total: u64,
    /// Segment bytes shipped to storage-less workers, cumulative.
    pub segments_shipped_bytes: u64,
}

/// The pool. One per server; safe to share behind an `Arc`.
pub struct WorkerPool {
    opts: ClusterOptions,
    idle_deadline: Duration,
    entries: Mutex<HashMap<(String, u128), PoolEntry>>,
    warm_hits: AtomicU64,
    reaped: AtomicU64,
    spawning: AtomicU64,
    ship_bytes: AtomicU64,
}

impl WorkerPool {
    /// A new, empty pool. `idle_deadline` bounds how long an unused
    /// entry keeps its workers alive (enforced by [`WorkerPool::reap_idle`]).
    pub fn new(opts: ClusterOptions, idle_deadline: Duration) -> WorkerPool {
        WorkerPool {
            opts,
            idle_deadline,
            entries: Mutex::new(HashMap::new()),
            warm_hits: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            spawning: AtomicU64::new(0),
            ship_bytes: AtomicU64::new(0),
        }
    }

    fn spawn_cold(
        &self,
        plan_fp: u128,
        handle: &CorpusHandle,
        config: &DiscoveryConfig,
    ) -> Result<Cluster, ClusterError> {
        self.spawning.fetch_add(1, Ordering::Relaxed);
        let result = Cluster::spawn(&self.opts, plan_fp, handle, config);
        self.spawning.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn retire(&self, mut entry: PoolEntry) {
        entry.cluster.shutdown();
        self.reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Run one discovery against the pool: reuse the warm cluster for
    /// this (corpus, plan fingerprint) when it is healthy — re-planning
    /// it in place when the corpus changed since its last request — else
    /// spawn a fresh one; then park the cluster again for the next
    /// request. Output bytes are identical either way.
    pub fn discover(
        &self,
        handle: &mut CorpusHandle,
        config: &DiscoveryConfig,
    ) -> Result<PoolDiscovery, ClusterError> {
        let plan = handle.plan(config);
        let key = (handle.name().to_string(), plan.plan_fp());
        let digests = handle.doc_digests();

        // Checkout strictly separates the map lock from all I/O.
        let parked = {
            let mut g = lock_recover(&self.entries);
            g.remove(&key)
        };
        let warm_cluster = parked.and_then(|mut entry| {
            if entry.cluster.health_check(HEALTH_TIMEOUT) > 0 {
                entry.cluster.begin_run();
                // A changed corpus re-plans the live workers in place.
                if entry.doc_digests == digests
                    || entry.cluster.replan(handle, plan.plan_fp(), config) > 0
                {
                    return Some(entry.cluster);
                }
            }
            // Every worker is dead, silent or failed the re-plan: respawn
            // transparently on this same request.
            self.retire(entry);
            None
        });
        let (mut cluster, warm) = match warm_cluster {
            Some(cluster) => (cluster, true),
            None => (self.spawn_cold(plan.plan_fp(), handle, config)?, false),
        };
        if warm {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        }

        cluster.encode_phase(handle, config, &plan);
        let prepared = handle.merged_forest(config, &plan);
        let forest_fp = forest_fingerprint(prepared.forest());
        cluster.distribute_forest(handle, &plan, forest_fp);
        let outcome = handle.finish_discover(config, &prepared, |_| {}, Some(&mut cluster));
        let stats = cluster.run_stats();
        self.ship_bytes
            .fetch_add(stats.segment_ship_bytes, Ordering::Relaxed);

        // Check-in. A concurrent request may have parked its own cluster
        // under this key meanwhile; the displaced one is shut down
        // outside the lock.
        let displaced = {
            let mut g = lock_recover(&self.entries);
            g.insert(
                key,
                PoolEntry {
                    cluster,
                    last_used: Instant::now(),
                    doc_digests: digests,
                },
            )
        };
        if let Some(entry) = displaced {
            self.retire(entry);
        }
        Ok(PoolDiscovery {
            outcome,
            stats,
            warm,
        })
    }

    /// Retire entries idle past the deadline. Cheap when nothing
    /// expired; meant to be called periodically from a janitor loop.
    /// Returns how many entries were reaped.
    pub fn reap_idle(&self) -> usize {
        let expired: Vec<PoolEntry> = {
            let mut g = lock_recover(&self.entries);
            let now = Instant::now();
            let keys: Vec<(String, u128)> = g
                .iter()
                .filter(|(_, e)| now.duration_since(e.last_used) >= self.idle_deadline)
                .map(|(k, _)| k.clone())
                .collect();
            keys.into_iter().filter_map(|k| g.remove(&k)).collect()
        };
        let n = expired.len();
        for entry in expired {
            self.retire(entry);
        }
        n
    }

    /// Counters and gauges for `/metrics`.
    pub fn snapshot(&self) -> PoolSnapshot {
        let warm_workers = {
            let g = lock_recover(&self.entries);
            g.values().map(|e| e.cluster.live_workers() as u64).sum()
        };
        PoolSnapshot {
            warm_workers,
            spawning: self.spawning.load(Ordering::Relaxed),
            reaped_total: self.reaped.load(Ordering::Relaxed),
            warm_hits_total: self.warm_hits.load(Ordering::Relaxed),
            segments_shipped_bytes: self.ship_bytes.load(Ordering::Relaxed),
        }
    }

    /// Shut down every pooled cluster (server drain).
    pub fn shutdown_all(&self) {
        let entries: Vec<PoolEntry> = {
            let mut g = lock_recover(&self.entries);
            g.drain().map(|(_, e)| e).collect()
        };
        for mut entry in entries {
            entry.cluster.shutdown();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_all();
    }
}
