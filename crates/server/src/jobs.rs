//! Job table: identifiers, lifecycle state, and completion waits for the
//! asynchronous `/v1/jobs` API.
//!
//! Jobs move `Queued → Running → Done | Failed`. The table keeps a bounded
//! history of finished jobs (old completed records are pruned once the
//! table exceeds a cap) so a polling client has a window to collect its
//! result; the canonical long-term home of a result is the digest-keyed
//! result cache, which the job record points into.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use discoverxfd::report::JsonStr;

use crate::digest::format_digest;
use crate::sync::{lock_recover, wait_timeout_recover};

/// Finished-job history cap; oldest completed records are pruned past it.
const MAX_FINISHED: usize = 256;

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running discovery.
    Running,
    /// Finished successfully; result available.
    Done,
    /// Finished with an error message.
    Failed(String),
}

impl JobStatus {
    /// Stable lowercase name used in JSON and metrics labels.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }

    fn finished(&self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed(_))
    }
}

/// One job's record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Monotonic job id.
    pub id: u64,
    /// Content digest of the request (body + config).
    pub digest: u128,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Rendered JSON report once `Done`.
    pub result: Option<Arc<String>>,
    /// When the job was accepted.
    pub created: Instant,
    /// When the job finished, if it has.
    pub finished_at: Option<Instant>,
}

impl JobRecord {
    /// JSON status document served by `GET /v1/jobs/{id}`.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"job\": {}, \"status\": \"{}\", \"digest\": \"{}\"",
            self.id,
            self.status.name(),
            format_digest(self.digest)
        ));
        match &self.status {
            JobStatus::Done => {
                out.push_str(&format!(
                    ", \"result\": \"/v1/results/{}\"",
                    format_digest(self.digest)
                ));
            }
            JobStatus::Failed(message) => {
                out.push_str(&format!(", \"error\": {}", JsonStr(message)));
            }
            _ => {}
        }
        out.push_str("}\n");
        out
    }
}

struct Inner {
    jobs: HashMap<u64, JobRecord>,
    /// Completed ids in finish order, for pruning oldest-first.
    finished_order: VecDeque<u64>,
}

/// Concurrent job table shared by the HTTP layer and the worker pool.
pub struct JobTable {
    next_id: AtomicU64,
    inner: Mutex<Inner>,
    /// Signaled on any job completion; synchronous `/v1/discover` waits here.
    completed: Condvar,
}

impl Default for JobTable {
    fn default() -> Self {
        Self::new()
    }
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        JobTable {
            next_id: AtomicU64::new(1),
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                finished_order: VecDeque::new(),
            }),
            completed: Condvar::new(),
        }
    }

    /// Register a new queued job and return its id.
    pub fn create(&self, digest: u128) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = JobRecord {
            id,
            digest,
            status: JobStatus::Queued,
            result: None,
            created: Instant::now(),
            finished_at: None,
        };
        lock_recover(&self.inner).jobs.insert(id, record);
        id
    }

    /// Snapshot a job's record.
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        lock_recover(&self.inner).jobs.get(&id).cloned()
    }

    /// Mark a job running.
    pub fn mark_running(&self, id: u64) {
        if let Some(job) = lock_recover(&self.inner).jobs.get_mut(&id) {
            job.status = JobStatus::Running;
        }
    }

    /// Mark a job done with its rendered result.
    pub fn mark_done(&self, id: u64, result: Arc<String>) {
        self.finish(id, JobStatus::Done, Some(result));
    }

    /// Mark a job failed.
    pub fn mark_failed(&self, id: u64, message: String) {
        self.finish(id, JobStatus::Failed(message), None);
    }

    fn finish(&self, id: u64, status: JobStatus, result: Option<Arc<String>>) {
        let mut inner = lock_recover(&self.inner);
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.status = status;
            job.result = result;
            job.finished_at = Some(Instant::now());
            inner.finished_order.push_back(id);
        }
        // Prune the oldest finished records beyond the history cap.
        while inner.finished_order.len() > MAX_FINISHED {
            if let Some(oldest) = inner.finished_order.pop_front() {
                inner.jobs.remove(&oldest);
            }
        }
        drop(inner);
        self.completed.notify_all();
    }

    /// Block until job `id` finishes or `deadline` passes; returns the
    /// final record, or `None` on timeout / unknown id.
    pub fn wait_finished(&self, id: u64, deadline: Instant) -> Option<JobRecord> {
        let mut inner = lock_recover(&self.inner);
        loop {
            match inner.jobs.get(&id) {
                Some(job) if job.status.finished() => return Some(job.clone()),
                Some(_) => {}
                None => return None,
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timed_out) = wait_timeout_recover(&self.completed, inner, deadline - now);
            inner = guard;
            if timed_out {
                let job = inner.jobs.get(&id).cloned();
                return job.filter(|j| j.status.finished());
            }
        }
    }

    /// Jobs currently queued or running (for `/metrics`).
    pub fn inflight(&self) -> u64 {
        lock_recover(&self.inner)
            .jobs
            .values()
            .filter(|j| !j.status.finished())
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration as StdDuration;

    #[test]
    fn lifecycle_round_trip() {
        let table = JobTable::new();
        let id = table.create(0xabc);
        assert_eq!(table.get(id).unwrap().status, JobStatus::Queued);
        table.mark_running(id);
        assert_eq!(table.get(id).unwrap().status, JobStatus::Running);
        table.mark_done(id, Arc::new("{}".into()));
        let job = table.get(id).unwrap();
        assert_eq!(job.status, JobStatus::Done);
        assert_eq!(job.result.as_deref().map(|s| s.as_str()), Some("{}"));
        assert!(job.finished_at.is_some());
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let table = JobTable::new();
        let a = table.create(1);
        let b = table.create(2);
        assert!(b > a);
    }

    #[test]
    fn unknown_job_is_none() {
        let table = JobTable::new();
        assert!(table.get(999).is_none());
        assert!(table
            .wait_finished(999, Instant::now() + StdDuration::from_millis(10))
            .is_none());
    }

    #[test]
    fn wait_finished_returns_once_a_worker_completes() {
        let table = Arc::new(JobTable::new());
        let id = table.create(5);
        let t2 = Arc::clone(&table);
        let worker = std::thread::spawn(move || {
            std::thread::sleep(StdDuration::from_millis(30));
            t2.mark_done(id, Arc::new("{\"ok\":true}".into()));
        });
        let job = table
            .wait_finished(id, Instant::now() + StdDuration::from_secs(5))
            .expect("finished before deadline");
        assert_eq!(job.status, JobStatus::Done);
        worker.join().unwrap();
    }

    #[test]
    fn wait_finished_times_out_on_stuck_jobs() {
        let table = JobTable::new();
        let id = table.create(5);
        let start = Instant::now();
        let got = table.wait_finished(id, Instant::now() + StdDuration::from_millis(50));
        assert!(got.is_none());
        assert!(start.elapsed() >= StdDuration::from_millis(45));
    }

    #[test]
    fn finished_history_is_pruned_but_inflight_jobs_survive() {
        let table = JobTable::new();
        let stuck = table.create(0);
        let mut finished_ids = Vec::new();
        for i in 0..(MAX_FINISHED + 20) {
            let id = table.create(i as u128 + 1);
            table.mark_done(id, Arc::new("{}".into()));
            finished_ids.push(id);
        }
        // Oldest finished records are gone, newest remain, and the stuck
        // (never-finished) job is untouched by pruning.
        assert!(table.get(finished_ids[0]).is_none());
        assert!(table.get(*finished_ids.last().unwrap()).is_some());
        assert!(table.get(stuck).is_some());
        assert_eq!(table.inflight(), 1);
    }

    #[test]
    fn render_json_covers_each_status() {
        let table = JobTable::new();
        let id = table.create(0x1f);
        let queued = table.get(id).unwrap().render_json();
        assert!(queued.contains("\"status\": \"queued\""), "{queued}");
        table.mark_failed(id, "boom \"quote\"".into());
        let failed = table.get(id).unwrap().render_json();
        assert!(failed.contains("\"status\": \"failed\""), "{failed}");
        assert!(failed.contains("\\\"quote\\\""), "{failed}");
        let id2 = table.create(0x2f);
        table.mark_done(id2, Arc::new("{}".into()));
        let done = table.get(id2).unwrap().render_json();
        assert!(done.contains("\"result\": \"/v1/results/"), "{done}");
    }
}
