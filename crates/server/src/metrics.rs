//! Server metrics registry with Prometheus text exposition.
//!
//! Scalar counters live in atomics; the few labeled families
//! (endpoint×status request counts, rejection reasons, job outcomes) live
//! in mutexed `BTreeMap`s so `/metrics` renders with a deterministic label
//! order, and the lattice totals are one mutexed `RunStats`, the counter
//! value every report and status renders from. Gauges owned by other
//! subsystems (queue depth, in-flight jobs, result-cache residency) are
//! sampled at render time rather than duplicated here.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use discoverxfd::intra::RunStats;
use discoverxfd::RunOutcome;

use crate::rescache::ResultCacheStats;
use crate::sync::lock_recover;

/// Point-in-time gauges sampled by the render path.
#[derive(Debug, Default, Clone, Copy)]
pub struct GaugeSnapshot {
    /// Jobs waiting in the queue.
    pub queue_depth: u64,
    /// Configured queue capacity.
    pub queue_capacity: u64,
    /// Jobs queued or running.
    pub jobs_inflight: u64,
    /// Result-cache counters.
    pub cache: ResultCacheStats,
    /// Warm worker pool counters (zeroed when no pool is configured).
    pub pool: xfd_cluster::PoolSnapshot,
}

/// The daemon's metrics registry.
pub struct Metrics {
    started: Instant,
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    rejected: Mutex<BTreeMap<&'static str, u64>>,
    jobs_finished: Mutex<BTreeMap<&'static str, u64>>,
    runs: AtomicU64,
    /// Worker panics contained by `catch_unwind` — should stay 0.
    worker_panics: AtomicU64,
    /// Result-cache hits answered from raw body bytes, XML parse skipped.
    parse_free_hits: AtomicU64,
    // Per-stage wall time, accumulated in microseconds.
    stage_infer_us: AtomicU64,
    stage_encode_us: AtomicU64,
    stage_discover_us: AtomicU64,
    stage_redundancy_us: AtomicU64,
    /// Lattice and partition-kernel counters totalled over all runs.
    lattice: Mutex<RunStats>,
    // Relation-pass memo totals over all corpus discoveries.
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    memo_evictions: AtomicU64,
    memo_resident_bytes: AtomicU64,
    // Cluster-mode counters (corpus discovery over worker subprocesses).
    cluster_workers: AtomicU64,
    cluster_tasks_done: AtomicU64,
    cluster_tasks_retried: AtomicU64,
    cluster_tasks_fallback: AtomicU64,
    cluster_retries: AtomicU64,
    cluster_runs_fallback: AtomicU64,
    /// Segment bytes shipped to storage-less cluster workers.
    segments_shipped_bytes: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh registry; `started` anchors the uptime gauge.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests: Mutex::new(BTreeMap::new()),
            rejected: Mutex::new(BTreeMap::new()),
            jobs_finished: Mutex::new(BTreeMap::new()),
            runs: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            parse_free_hits: AtomicU64::new(0),
            stage_infer_us: AtomicU64::new(0),
            stage_encode_us: AtomicU64::new(0),
            stage_discover_us: AtomicU64::new(0),
            stage_redundancy_us: AtomicU64::new(0),
            lattice: Mutex::new(RunStats::default()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            memo_evictions: AtomicU64::new(0),
            memo_resident_bytes: AtomicU64::new(0),
            cluster_workers: AtomicU64::new(0),
            cluster_tasks_done: AtomicU64::new(0),
            cluster_tasks_retried: AtomicU64::new(0),
            cluster_tasks_fallback: AtomicU64::new(0),
            cluster_retries: AtomicU64::new(0),
            cluster_runs_fallback: AtomicU64::new(0),
            segments_shipped_bytes: AtomicU64::new(0),
        }
    }

    /// Fold one cluster run's counters in. The gauge tracks the live
    /// worker count of the most recent run.
    pub fn observe_cluster(&self, stats: &xfd_cluster::ClusterStats) {
        self.cluster_workers
            .store(stats.workers_live, Ordering::Relaxed);
        self.cluster_tasks_done
            .fetch_add(stats.encode_remote + stats.pass_remote, Ordering::Relaxed);
        self.cluster_tasks_retried
            .fetch_add(stats.tasks_retried, Ordering::Relaxed);
        self.cluster_tasks_fallback
            .fetch_add(stats.tasks_fallback, Ordering::Relaxed);
        self.cluster_retries
            .fetch_add(stats.tasks_retried, Ordering::Relaxed);
        self.segments_shipped_bytes
            .fetch_add(stats.segment_ship_bytes, Ordering::Relaxed);
    }

    /// Count one corpus discovery that fell back to in-process execution
    /// because the cluster could not be set up at all.
    pub fn observe_cluster_fallback(&self) {
        self.cluster_workers.store(0, Ordering::Relaxed);
        self.cluster_runs_fallback.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one result-cache hit that skipped XML parsing entirely.
    pub fn observe_parse_free_hit(&self) {
        self.parse_free_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one handled request by endpoint pattern and status code.
    pub fn observe_request(&self, endpoint: &str, status: u16) {
        *lock_recover(&self.requests)
            .entry((endpoint.to_string(), status))
            .or_insert(0) += 1;
    }

    /// Count one shed request (`reason`: `queue_full`, `body_too_large`,
    /// `timeout`, ...).
    pub fn observe_rejection(&self, reason: &'static str) {
        *lock_recover(&self.rejected).entry(reason).or_insert(0) += 1;
    }

    /// Count one finished job by terminal status name.
    pub fn observe_job_finished(&self, status: &'static str) {
        *lock_recover(&self.jobs_finished).entry(status).or_insert(0) += 1;
    }

    /// Count one worker panic contained by the pool's `catch_unwind`.
    pub fn observe_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker panics contained so far (tests assert this stays 0).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Fold one completed discovery run's timings and lattice counters in.
    pub fn observe_outcome(&self, outcome: &RunOutcome) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        let p = &outcome.profile;
        self.stage_infer_us
            .fetch_add(p.infer.as_micros() as u64, Ordering::Relaxed);
        self.stage_encode_us
            .fetch_add(p.encode.as_micros() as u64, Ordering::Relaxed);
        self.stage_discover_us
            .fetch_add(p.discover.as_micros() as u64, Ordering::Relaxed);
        self.stage_redundancy_us
            .fetch_add(p.redundancy.as_micros() as u64, Ordering::Relaxed);
        lock_recover(&self.lattice).absorb(&outcome.stats.lattice);
        let m = &outcome.stats.memo;
        self.memo_hits.fetch_add(m.hits, Ordering::Relaxed);
        self.memo_misses.fetch_add(m.misses, Ordering::Relaxed);
        self.memo_evictions
            .fetch_add(m.evictions, Ordering::Relaxed);
        self.memo_resident_bytes
            .store(m.resident_bytes as u64, Ordering::Relaxed);
    }

    /// The lattice counters totalled over all runs so far.
    fn lattice_totals(&self) -> RunStats {
        *lock_recover(&self.lattice)
    }

    /// Render the Prometheus text exposition, merging in gauges sampled
    /// from the queue, job table, and result cache.
    pub fn render(&self, gauges: &GaugeSnapshot) -> String {
        let mut out = String::with_capacity(4096);
        let mut metric = |name: &str, help: &str, kind: &str, body: &str| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{body}"
            ));
        };

        let requests = lock_recover(&self.requests);
        let mut body = String::new();
        for ((endpoint, code), count) in requests.iter() {
            body.push_str(&format!(
                "discoverxfd_http_requests_total{{endpoint=\"{endpoint}\",code=\"{code}\"}} {count}\n"
            ));
        }
        drop(requests);
        metric(
            "discoverxfd_http_requests_total",
            "HTTP requests handled, by endpoint pattern and status code.",
            "counter",
            &body,
        );

        let rejected = lock_recover(&self.rejected);
        let mut body = String::new();
        for (reason, count) in rejected.iter() {
            body.push_str(&format!(
                "discoverxfd_http_rejected_total{{reason=\"{reason}\"}} {count}\n"
            ));
        }
        drop(rejected);
        metric(
            "discoverxfd_http_rejected_total",
            "Requests shed by backpressure or limits, by reason.",
            "counter",
            &body,
        );

        metric(
            "discoverxfd_queue_depth",
            "Jobs currently waiting in the queue.",
            "gauge",
            &format!("discoverxfd_queue_depth {}\n", gauges.queue_depth),
        );
        metric(
            "discoverxfd_queue_capacity",
            "Configured queue capacity.",
            "gauge",
            &format!("discoverxfd_queue_capacity {}\n", gauges.queue_capacity),
        );
        metric(
            "discoverxfd_jobs_inflight",
            "Jobs queued or running.",
            "gauge",
            &format!("discoverxfd_jobs_inflight {}\n", gauges.jobs_inflight),
        );

        let finished = lock_recover(&self.jobs_finished);
        let mut body = String::new();
        for (status, count) in finished.iter() {
            body.push_str(&format!(
                "discoverxfd_jobs_finished_total{{status=\"{status}\"}} {count}\n"
            ));
        }
        drop(finished);
        metric(
            "discoverxfd_jobs_finished_total",
            "Jobs finished, by terminal status.",
            "counter",
            &body,
        );

        let cache = &gauges.cache;
        metric(
            "discoverxfd_result_cache_hits_total",
            "Result-cache lookups that found a rendered report.",
            "counter",
            &format!("discoverxfd_result_cache_hits_total {}\n", cache.hits),
        );
        metric(
            "discoverxfd_result_cache_misses_total",
            "Result-cache lookups that missed.",
            "counter",
            &format!("discoverxfd_result_cache_misses_total {}\n", cache.misses),
        );
        metric(
            "discoverxfd_result_cache_evictions_total",
            "Result-cache entries evicted by the byte budget.",
            "counter",
            &format!(
                "discoverxfd_result_cache_evictions_total {}\n",
                cache.evictions
            ),
        );
        metric(
            "discoverxfd_result_cache_resident_bytes",
            "Bytes of rendered reports currently cached.",
            "gauge",
            &format!(
                "discoverxfd_result_cache_resident_bytes {}\n",
                cache.resident_bytes
            ),
        );
        metric(
            "discoverxfd_result_cache_entries",
            "Rendered reports currently cached.",
            "gauge",
            &format!("discoverxfd_result_cache_entries {}\n", cache.entries),
        );

        metric(
            "discoverxfd_parse_free_hits_total",
            "Result-cache hits answered from raw body bytes without parsing XML.",
            "counter",
            &format!(
                "discoverxfd_parse_free_hits_total {}\n",
                self.parse_free_hits.load(Ordering::Relaxed)
            ),
        );

        let memo = [
            ("hits", &self.memo_hits),
            ("misses", &self.memo_misses),
            ("evictions", &self.memo_evictions),
        ];
        let mut body = String::new();
        for (counter, value) in memo {
            body.push_str(&format!(
                "discoverxfd_memo_total{{counter=\"{counter}\"}} {}\n",
                value.load(Ordering::Relaxed)
            ));
        }
        metric(
            "discoverxfd_memo_total",
            "Relation-pass memo hits, misses, and budget evictions across corpus discoveries.",
            "counter",
            &body,
        );
        metric(
            "discoverxfd_memo_resident_bytes",
            "Approximate bytes of memoized relation passes after the latest corpus discovery.",
            "gauge",
            &format!(
                "discoverxfd_memo_resident_bytes {}\n",
                self.memo_resident_bytes.load(Ordering::Relaxed)
            ),
        );

        metric(
            "discoverxfd_worker_panics_total",
            "Worker panics contained by catch_unwind; anything above 0 is a bug.",
            "counter",
            &format!(
                "discoverxfd_worker_panics_total {}\n",
                self.worker_panics.load(Ordering::Relaxed)
            ),
        );

        metric(
            "discoverxfd_runs_total",
            "Discovery pipeline runs completed.",
            "counter",
            &format!(
                "discoverxfd_runs_total {}\n",
                self.runs.load(Ordering::Relaxed)
            ),
        );

        let stages = [
            ("infer", &self.stage_infer_us),
            ("encode", &self.stage_encode_us),
            ("discover", &self.stage_discover_us),
            ("redundancy", &self.stage_redundancy_us),
        ];
        let mut body = String::new();
        for (stage, us) in stages {
            body.push_str(&format!(
                "discoverxfd_stage_seconds_total{{stage=\"{stage}\"}} {:.6}\n",
                us.load(Ordering::Relaxed) as f64 / 1e6
            ));
        }
        metric(
            "discoverxfd_stage_seconds_total",
            "Wall time spent per pipeline stage across all runs.",
            "counter",
            &body,
        );

        let l = self.lattice_totals();
        let lattice = [
            ("nodes_visited", l.nodes_visited),
            ("partitions_built", l.partitions_built),
            ("products", l.products),
            ("cache_hits", l.cache_hits),
            ("cache_misses", l.cache_misses),
            ("evictions", l.evictions),
            ("products_error_only", l.products_error_only),
            ("products_materialized", l.products_materialized),
            ("early_exits", l.early_exits),
            ("summary_hits", l.summary_hits),
        ];
        let mut body = String::new();
        for (counter, value) in lattice {
            body.push_str(&format!(
                "discoverxfd_lattice_total{{counter=\"{counter}\"}} {value}\n"
            ));
        }
        metric(
            "discoverxfd_lattice_total",
            "DiscoverXFD lattice work counters summed across runs.",
            "counter",
            &body,
        );
        metric(
            "discoverxfd_lattice_peak_resident_bytes",
            "Largest partition-cache residency seen in any single run.",
            "gauge",
            &format!(
                "discoverxfd_lattice_peak_resident_bytes {}\n",
                l.peak_resident_bytes
            ),
        );

        metric(
            "discoverxfd_cluster_workers",
            "Live worker subprocesses in the most recent cluster-mode discovery.",
            "gauge",
            &format!(
                "discoverxfd_cluster_workers {}\n",
                self.cluster_workers.load(Ordering::Relaxed)
            ),
        );
        let cluster_tasks = [
            ("done", &self.cluster_tasks_done),
            ("retried", &self.cluster_tasks_retried),
            ("fallback", &self.cluster_tasks_fallback),
        ];
        let mut body = String::new();
        for (status, value) in cluster_tasks {
            body.push_str(&format!(
                "discoverxfd_cluster_tasks_total{{status=\"{status}\"}} {}\n",
                value.load(Ordering::Relaxed)
            ));
        }
        metric(
            "discoverxfd_cluster_tasks_total",
            "Cluster-mode tasks by outcome across all corpus discoveries.",
            "counter",
            &body,
        );
        metric(
            "discoverxfd_cluster_retries_total",
            "Cluster-mode task reassignments after a worker was lost or answered badly.",
            "counter",
            &format!(
                "discoverxfd_cluster_retries_total {}\n",
                self.cluster_retries.load(Ordering::Relaxed)
            ),
        );
        metric(
            "discoverxfd_cluster_fallback_runs_total",
            "Corpus discoveries that fell back to in-process execution because no cluster could be set up.",
            "counter",
            &format!(
                "discoverxfd_cluster_fallback_runs_total {}\n",
                self.cluster_runs_fallback.load(Ordering::Relaxed)
            ),
        );

        let pool = &gauges.pool;
        let pool_states = [
            ("warm", pool.warm_workers),
            ("spawning", pool.spawning),
            ("reaped", pool.reaped_total),
        ];
        let mut body = String::new();
        for (pool_state, value) in pool_states {
            body.push_str(&format!(
                "discoverxfd_pool_workers{{state=\"{pool_state}\"}} {value}\n"
            ));
        }
        metric(
            "discoverxfd_pool_workers",
            "Warm worker pool: live pooled workers, clusters mid-spawn, and entries retired so far.",
            "gauge",
            &body,
        );
        metric(
            "discoverxfd_pool_warm_hits_total",
            "Corpus discoveries served by a warm pool entry (no spawn, no handshake, no shipping).",
            "counter",
            &format!(
                "discoverxfd_pool_warm_hits_total {}\n",
                pool.warm_hits_total
            ),
        );
        metric(
            "discoverxfd_segments_shipped_bytes_total",
            "Segment bytes shipped over the wire to cluster workers without shared storage.",
            "counter",
            &format!(
                "discoverxfd_segments_shipped_bytes_total {}\n",
                self.segments_shipped_bytes.load(Ordering::Relaxed)
            ),
        );

        metric(
            "discoverxfd_uptime_seconds",
            "Seconds since the server started.",
            "gauge",
            &format!(
                "discoverxfd_uptime_seconds {:.3}\n",
                self.started.elapsed().as_secs_f64()
            ),
        );

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(m: &Metrics) -> String {
        m.render(&GaugeSnapshot::default())
    }

    #[test]
    fn request_counters_render_with_sorted_labels() {
        let m = Metrics::new();
        m.observe_request("/v1/discover", 200);
        m.observe_request("/v1/discover", 200);
        m.observe_request("/healthz", 200);
        m.observe_request("/v1/discover", 503);
        let text = render(&m);
        assert!(text.contains(
            "discoverxfd_http_requests_total{endpoint=\"/v1/discover\",code=\"200\"} 2\n"
        ));
        assert!(text.contains(
            "discoverxfd_http_requests_total{endpoint=\"/v1/discover\",code=\"503\"} 1\n"
        ));
        assert!(text
            .contains("discoverxfd_http_requests_total{endpoint=\"/healthz\",code=\"200\"} 1\n"));
    }

    #[test]
    fn every_family_has_help_and_type_lines() {
        let m = Metrics::new();
        let text = render(&m);
        for family in [
            "discoverxfd_http_requests_total",
            "discoverxfd_http_rejected_total",
            "discoverxfd_queue_depth",
            "discoverxfd_jobs_inflight",
            "discoverxfd_jobs_finished_total",
            "discoverxfd_result_cache_hits_total",
            "discoverxfd_worker_panics_total",
            "discoverxfd_runs_total",
            "discoverxfd_stage_seconds_total",
            "discoverxfd_lattice_total",
            "discoverxfd_cluster_workers",
            "discoverxfd_cluster_tasks_total",
            "discoverxfd_cluster_retries_total",
            "discoverxfd_cluster_fallback_runs_total",
            "discoverxfd_pool_workers",
            "discoverxfd_pool_warm_hits_total",
            "discoverxfd_segments_shipped_bytes_total",
            "discoverxfd_uptime_seconds",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "{family}");
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
    }

    #[test]
    fn outcome_observation_accumulates_stage_time_and_lattice_work() {
        let m = Metrics::new();
        let config = discoverxfd::DiscoveryConfig::default();
        let run = |xml: &str| discoverxfd::discover(&xfd_xml::parse(xml).unwrap(), &config);
        let small = run("<r><t><a>1</a><b>x</b></t><t><a>2</a><b>x</b></t></r>");
        let rows: String = (0..12)
            .map(|i| format!("<t><a>{}</a><b>{}</b><c>{}</c></t>", i % 3, i % 4, i % 2))
            .collect();
        let large = run(&format!("<r>{rows}</r>"));
        m.observe_outcome(&small);
        m.observe_outcome(&large);
        let text = render(&m);
        assert!(text.contains("discoverxfd_runs_total 2\n"), "{text}");
        let (s, l) = (&small.stats.lattice, &large.stats.lattice);
        for (counter, a, b) in [
            ("nodes_visited", s.nodes_visited, l.nodes_visited),
            ("partitions_built", s.partitions_built, l.partitions_built),
            ("products", s.products, l.products),
            ("cache_hits", s.cache_hits, l.cache_hits),
            ("cache_misses", s.cache_misses, l.cache_misses),
            ("evictions", s.evictions, l.evictions),
            (
                "products_error_only",
                s.products_error_only,
                l.products_error_only,
            ),
            (
                "products_materialized",
                s.products_materialized,
                l.products_materialized,
            ),
            ("early_exits", s.early_exits, l.early_exits),
            ("summary_hits", s.summary_hits, l.summary_hits),
        ] {
            let line = format!(
                "discoverxfd_lattice_total{{counter=\"{counter}\"}} {}\n",
                a + b
            );
            assert!(text.contains(&line), "missing {line}in {text}");
        }
        // Peak residency is the largest single run's, not a sum.
        assert!(
            s.peak_resident_bytes < l.peak_resident_bytes,
            "{s:?} vs {l:?}"
        );
        let peak = format!(
            "discoverxfd_lattice_peak_resident_bytes {}\n",
            l.peak_resident_bytes
        );
        assert!(text.contains(&peak), "missing {peak}in {text}");
    }

    #[test]
    fn cluster_observations_render_by_status() {
        let m = Metrics::new();
        let stats = xfd_cluster::ClusterStats {
            workers_spawned: 2,
            workers_live: 2,
            encode_remote: 3,
            pass_remote: 4,
            tasks_retried: 1,
            tasks_fallback: 2,
            ..xfd_cluster::ClusterStats::default()
        };
        m.observe_cluster(&stats);
        m.observe_cluster_fallback();
        let text = render(&m);
        assert!(text.contains("discoverxfd_cluster_workers 0\n"), "{text}");
        assert!(
            text.contains("discoverxfd_cluster_tasks_total{status=\"done\"} 7\n"),
            "{text}"
        );
        assert!(
            text.contains("discoverxfd_cluster_tasks_total{status=\"retried\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("discoverxfd_cluster_tasks_total{status=\"fallback\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("discoverxfd_cluster_retries_total 1\n"),
            "{text}"
        );
        assert!(
            text.contains("discoverxfd_cluster_fallback_runs_total 1\n"),
            "{text}"
        );
    }

    #[test]
    fn rejections_and_job_outcomes_render() {
        let m = Metrics::new();
        m.observe_rejection("queue_full");
        m.observe_rejection("queue_full");
        m.observe_rejection("body_too_large");
        m.observe_job_finished("done");
        m.observe_job_finished("failed");
        let text = render(&m);
        assert!(text.contains("discoverxfd_http_rejected_total{reason=\"queue_full\"} 2\n"));
        assert!(text.contains("discoverxfd_http_rejected_total{reason=\"body_too_large\"} 1\n"));
        assert!(text.contains("discoverxfd_jobs_finished_total{status=\"done\"} 1\n"));
        assert!(text.contains("discoverxfd_jobs_finished_total{status=\"failed\"} 1\n"));
    }
}
