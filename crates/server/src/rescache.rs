//! Byte-budgeted, sharded result cache keyed by content digest.
//!
//! Worker threads share it, so it is a fixed shard array of mutexed
//! maps, with a per-shard byte budget carved from the total,
//! least-recently-used eviction (every hit bumps the entry's sequence to
//! the shard clock, so a hot report survives a stream of one-shot
//! documents flowing through), and monotonic hit/miss/eviction counters
//! that feed `/metrics`. The LRU bookkeeping is a single `u64` store per
//! hit under the shard lock the lookup already holds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xfd_hash::FxHashMap;

use crate::sync::lock_recover;

const N_SHARDS: usize = 8;

struct Entry {
    body: Arc<String>,
    seq: u64,
}

struct Shard {
    map: FxHashMap<u128, Entry>,
    resident_bytes: usize,
    clock: u64,
}

/// Cache counters, all monotonic except `resident_bytes`/`entries`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ResultCacheStats {
    /// Lookups that found a report.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
    /// Bytes of report text currently resident.
    pub resident_bytes: u64,
    /// Reports currently resident.
    pub entries: u64,
}

/// Sharded digest-keyed cache of rendered JSON reports.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache bounded by `budget_bytes` of report text overall.
    pub fn new(budget_bytes: usize) -> Self {
        let shards = (0..N_SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    map: FxHashMap::default(),
                    resident_bytes: 0,
                    clock: 0,
                })
            })
            .collect();
        ResultCache {
            shards,
            budget_per_shard: (budget_bytes / N_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, digest: u128) -> &Mutex<Shard> {
        // High bits select the shard; FNV's low bits already key the map.
        // xfdlint:allow(panic_freedom, reason = "index is `% N_SHARDS` into a vec constructed with exactly N_SHARDS shards")
        &self.shards[(digest >> 125) as usize % N_SHARDS]
    }

    /// Look up a report, counting the hit or miss. A hit refreshes the
    /// entry's recency so eviction is least-recently-used.
    pub fn get(&self, digest: u128) -> Option<Arc<String>> {
        let mut shard = lock_recover(self.shard_for(digest));
        shard.clock += 1;
        let now = shard.clock;
        match shard.map.get_mut(&digest) {
            Some(entry) => {
                entry.seq = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.body))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a report, evicting least-recently-used entries in the shard
    /// while over budget. A single report larger than the shard budget is
    /// not cached.
    pub fn put(&self, digest: u128, body: Arc<String>) {
        if body.len() > self.budget_per_shard {
            return;
        }
        let mut shard = lock_recover(self.shard_for(digest));
        if let Some(old) = shard.map.remove(&digest) {
            shard.resident_bytes = shard.resident_bytes.saturating_sub(old.body.len());
        }
        while shard.resident_bytes + body.len() > self.budget_per_shard && !shard.map.is_empty() {
            let coldest = shard.map.iter().min_by_key(|(_, e)| e.seq).map(|(&k, _)| k);
            match coldest.and_then(|k| shard.map.remove(&k)) {
                Some(evicted) => {
                    shard.resident_bytes = shard.resident_bytes.saturating_sub(evicted.body.len());
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // The map was checked non-empty, so a missing minimum can
                // only mean the guard recovered from a poisoned state with
                // drifted accounting; stop evicting rather than spin.
                None => break,
            }
        }
        shard.clock += 1;
        let seq = shard.clock;
        shard.resident_bytes += body.len();
        shard.map.insert(digest, Entry { body, seq });
    }

    /// Current counters.
    pub fn stats(&self) -> ResultCacheStats {
        let mut resident_bytes = 0u64;
        let mut entries = 0u64;
        for shard in &self.shards {
            let shard = lock_recover(shard);
            resident_bytes += shard.resident_bytes as u64;
            entries += shard.map.len() as u64;
        }
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn get_after_put_hits() {
        let cache = ResultCache::new(1 << 20);
        assert!(cache.get(42).is_none());
        cache.put(42, body("{\"report\":1}"));
        assert_eq!(
            cache.get(42).as_deref().map(|s| s.as_str()),
            Some("{\"report\":1}")
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.resident_bytes, 12);
    }

    #[test]
    fn reinserting_a_digest_replaces_without_leaking_bytes() {
        let cache = ResultCache::new(1 << 20);
        cache.put(7, body("aaaa"));
        cache.put(7, body("bb"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.resident_bytes, 2);
        assert_eq!(cache.get(7).unwrap().as_str(), "bb");
    }

    #[test]
    fn budget_overflow_evicts_least_recently_used() {
        // One shard holds at most budget/8 bytes; use digests that land in
        // the same shard (identical top bits).
        let cache = ResultCache::new(8 * 10);
        let d = |i: u128| i; // top 3 bits zero → all in shard 0
        cache.put(d(1), body("aaaa")); // 4 bytes
        cache.put(d(2), body("bbbb")); // 8 bytes total
        cache.put(d(3), body("cccc")); // would be 12 → evict LRU (1)
        assert!(cache.get(d(1)).is_none());
        assert!(cache.get(d(2)).is_some());
        assert!(cache.get(d(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_hit_refreshes_recency() {
        let cache = ResultCache::new(8 * 10);
        let d = |i: u128| i;
        cache.put(d(1), body("aaaa"));
        cache.put(d(2), body("bbbb"));
        // Touch 1 so 2 becomes the LRU entry, then overflow the shard.
        assert!(cache.get(d(1)).is_some());
        cache.put(d(3), body("cccc"));
        assert!(cache.get(d(1)).is_some(), "recently-read entry survives");
        assert!(cache.get(d(2)).is_none(), "LRU entry was evicted");
        assert!(cache.get(d(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsertion_also_counts_as_a_touch() {
        let cache = ResultCache::new(8 * 10);
        let d = |i: u128| i;
        cache.put(d(1), body("aaaa"));
        cache.put(d(2), body("bbbb"));
        cache.put(d(1), body("AAAA")); // refresh 1 by overwrite
        cache.put(d(3), body("cccc"));
        assert!(cache.get(d(1)).is_some());
        assert!(cache.get(d(2)).is_none());
    }

    #[test]
    fn oversized_bodies_are_not_cached() {
        let cache = ResultCache::new(8 * 4);
        cache.put(1, body("way too large for a 4-byte shard"));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn shards_spread_the_key_space() {
        let cache = ResultCache::new(1 << 20);
        for i in 0u128..64 {
            cache.put(i << 121, body("x"));
        }
        assert_eq!(cache.stats().entries, 64);
    }
}
