#![warn(missing_docs)]
//! # xfd-cluster
//!
//! Multi-process sharded discovery: a coordinator that drives corpus
//! discovery by farming the two parallelizable stages — per-segment
//! partial encoding and the relation passes — out to worker processes
//! over a pluggable byte-stream transport ([`xfd_transport`]): Unix
//! domain sockets for spawned single-host pools, TCP for remote workers
//! started with `discoverxfd worker --listen host:port` and addressed
//! with `--remote host:port,...`.
//!
//! The workers are instances of the same binary (`discoverxfd worker
//! --socket <path>`, or the `xfd-cluster-worker` helper this crate
//! ships for its own tests), so there is nothing to deploy beyond the one
//! executable. The protocol is the hand-rolled frame codec in [`frame`]
//! — dependency-free, versioned, token-authenticated, and
//! fingerprint-checked: a worker re-derives the plan fingerprint
//! (collection schema + encode config) from its own read-only view of the
//! corpus directory and is only admitted when it matches the
//! coordinator's. A remote worker with no shared filesystem gets there by
//! **content-addressed segment shipping**: it announces the segment
//! digests its byte-budgeted local cache holds, the coordinator answers
//! with the per-document digest manifest plus only the missing segment
//! bytes, and the worker verifies each against its digest before
//! reassembling the identical document view.
//!
//! Determinism is the design center: results merge in the same wave order
//! as single-process discovery, memo hits never leave the coordinator,
//! and any worker failure — death mid-task, a torn frame, a connection
//! reset, a forged answer — degrades to computing that piece locally. The
//! final report is therefore **byte-identical** to `discover` at any
//! worker count on either transport, including after a mid-run `kill -9`
//! or TCP reset.
//!
//! ```text
//! coordinator                                worker (×N)
//! ───────────                                ───────────
//!            ◄─ Join{version, index, auth} ─
//!            ── Plan{fp, auth, dir, cfg} ───►  opens corpus read-only…
//!            ◄─ SegHave{digests}? ──────────  …or announces its cache
//!            ── SegManifest + SegData* ─────►  verifies, reassembles
//!            ◄─ PlanAck{fp} ────────────────  re-derives fp
//!   [encode] ── Encode{digest} ─────────────►
//!            ◄─ Partial{digest, bytes} ─────
//!   [forest] ── Push{digest, bytes}* ───────►  fills its gaps
//!            ── Build{forest_fp, digests} ──►  merges, fingerprints
//!            ◄─ ForestAck{forest_fp} ───────
//!   [passes] ── Pass{task_id, cfg, task} ───►  runs under the request's cfg
//!            ◄─ TaskResult{task_id, bytes} ─
//!            ── Ping ───────────────────────►  (any time; liveness)
//!            ◄─ Pong ───────────────────────
//!   [change] ── Plan{fp, auth, dir, cfg} ───►  refreshes its view in place,
//!            ◄─ … PlanAck{fp} ──────────────  reading only new segments
//!            ── Shutdown ───────────────────►  (pooled clusters skip
//!                                               this between requests)
//! ```
//!
//! [`pool::WorkerPool`] keeps whole clusters warm between requests,
//! keyed by (corpus name, plan fingerprint): heartbeats double as health
//! checks on checkout, a corpus change re-plans the live workers in place
//! (the `[change]` step above, between requests), idle entries are reaped
//! on a deadline, and a dead or poisoned entry is respawned transparently.

pub mod coordinator;
pub mod pool;
pub mod worker;

/// The frame codec, re-exported from [`xfd_transport`] (where it lives
/// so both the transport tests and this crate drive the same bytes).
pub use xfd_transport::frame;

/// The pluggable byte-stream layer (also re-exported whole for callers
/// that need [`xfd_transport::Endpoint`] and friends).
pub use xfd_transport as transport;

use std::fmt;
use std::io;
use std::time::Duration;

use discoverxfd::{DiscoveryConfig, RunOutcome};
use xfd_corpus::{CorpusError, CorpusHandle};
use xfd_relation::forest_fingerprint;

pub use coordinator::Cluster;
pub use frame::{Frame, PROTOCOL_VERSION};
pub use pool::{PoolDiscovery, PoolSnapshot, WorkerPool};
pub use worker::{run_worker, WorkerOptions};

/// Everything that can go wrong setting up or driving a cluster. Worker
/// deaths mid-run are *not* errors — they degrade to local computation —
/// so this only covers failures that leave nothing to run.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket/spawn-level failure.
    Io(io::Error),
    /// The corpus could not be opened or read.
    Corpus(CorpusError),
    /// A configuration problem (bad worker command, unencodable path).
    Config(String),
    /// A peer spoke the protocol wrong.
    Protocol(String),
    /// Every worker failed the shared-secret token check: the two sides
    /// were started with different `--token` values. Typed so a
    /// misconfigured cluster is an immediate, explicit rejection — never
    /// a hang waiting out handshake timeouts.
    AuthFailed,
    /// Every worker derived a different plan fingerprint than the
    /// coordinator: the worker pool is looking at a different corpus
    /// state or running an incompatible build. Nothing was assigned.
    PlanMismatch {
        /// The coordinator's fingerprint.
        expected: u128,
        /// A fingerprint reported by a rejected worker.
        got: u128,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "cluster i/o: {e}"),
            ClusterError::Corpus(e) => write!(f, "cluster corpus: {e}"),
            ClusterError::Config(m) => write!(f, "cluster config: {m}"),
            ClusterError::Protocol(m) => write!(f, "cluster protocol: {m}"),
            ClusterError::AuthFailed => write!(
                f,
                "cluster auth: every worker failed the shared-secret token check; \
                 coordinator and workers must be started with the same --token"
            ),
            ClusterError::PlanMismatch { expected, got } => write!(
                f,
                "plan fingerprint mismatch: coordinator {expected:032x}, workers reported \
                 {got:032x}; refusing to assign work"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> ClusterError {
        ClusterError::Io(e)
    }
}

impl From<CorpusError> for ClusterError {
    fn from(e: CorpusError) -> ClusterError {
        ClusterError::Corpus(e)
    }
}

/// Knobs for one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Worker subprocesses to spawn. `0` runs everything in-process.
    /// Ignored when `remote` is non-empty.
    pub workers: usize,
    /// Remote worker endpoints (`host:port` each, from `--remote`). When
    /// non-empty the coordinator connects to these instead of spawning
    /// local subprocesses.
    pub remote: Vec<String>,
    /// Shared-secret handshake token; both sides must be started with
    /// the same value. The empty default keeps single-host Unix-socket
    /// clusters working with no flags.
    pub token: String,
    /// A worker silent for this long (no frame, no heartbeat answer) is
    /// declared dead, killed, and its in-flight tasks reassigned.
    pub worker_timeout: Duration,
    /// How many times one pass task may be reassigned after worker deaths
    /// before the coordinator computes it locally instead.
    pub max_task_retries: usize,
    /// Command prefix to launch a worker; `--socket`/`--index` are
    /// appended. Empty means "this executable, `worker` subcommand".
    pub worker_command: Vec<String>,
    /// Fault injection: `kill -9` (or, for a remote worker, hard-reset
    /// the connection of) the worker that received the Nth pass task,
    /// right after assigning it (so the task is in flight when the
    /// worker dies). Exercised by tests and the CI smoke script.
    pub kill_worker_after: Option<u64>,
    /// Fault injection: spawn workers with `--corrupt-plan` so every
    /// handshake reports a wrong fingerprint.
    pub corrupt_plan: bool,
}

impl Default for ClusterOptions {
    fn default() -> ClusterOptions {
        ClusterOptions {
            workers: 2,
            remote: Vec::new(),
            token: String::new(),
            worker_timeout: Duration::from_secs(30),
            max_task_retries: 2,
            worker_command: Vec::new(),
            kill_worker_after: None,
            corrupt_plan: false,
        }
    }
}

/// Counters from one cluster run, for the CLI summary line, the server's
/// `/metrics` families and the bench harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Workers successfully spawned (or, for `--remote`, attempted).
    pub workers_spawned: u64,
    /// Workers still alive when the run finished.
    pub workers_live: u64,
    /// Workers lost mid-run (died, timed out, or spoke garbage).
    pub workers_lost: u64,
    /// Workers rejected during the handshake (version, token or
    /// fingerprint).
    pub handshake_failures: u64,
    /// Segment-encode tasks in the work list.
    pub encode_tasks: u64,
    /// Segment-encode tasks completed by workers (the rest were built
    /// locally).
    pub encode_remote: u64,
    /// Relation-pass tasks handed to the runner across all waves.
    pub pass_tasks: u64,
    /// Relation-pass tasks completed by workers.
    pub pass_remote: u64,
    /// Tasks reassigned after a worker death.
    pub tasks_retried: u64,
    /// Tasks abandoned to local computation (retries exhausted or no
    /// workers left).
    pub tasks_fallback: u64,
    /// Individual partial `Push` frames sent during forest distribution.
    pub partials_pushed: u64,
    /// Always 0: partials travel as `Push` frames only. Kept (with the
    /// `ships=` summary field) for readers of the stats.
    pub forest_ships: u64,
    /// Segments shipped to workers without shared storage.
    pub segments_shipped: u64,
    /// Total bytes of shipped segment payloads.
    pub segment_ship_bytes: u64,
}

impl ClusterStats {
    /// One stable line for scripts to grep:
    /// `cluster: workers=2 live=2 lost=0 handshake_failures=0 ...`.
    /// New fields append at the end so existing extractions keep working.
    pub fn summary(&self) -> String {
        format!(
            "cluster: workers={} live={} lost={} handshake_failures={} encode_tasks={} \
             encode_remote={} pass_tasks={} pass_remote={} retried={} fallback={} \
             pushed={} ships={} segs_shipped={} ship_bytes={}",
            self.workers_spawned,
            self.workers_live,
            self.workers_lost,
            self.handshake_failures,
            self.encode_tasks,
            self.encode_remote,
            self.pass_tasks,
            self.pass_remote,
            self.tasks_retried,
            self.tasks_fallback,
            self.partials_pushed,
            self.forest_ships,
            self.segments_shipped,
            self.segment_ship_bytes,
        )
    }
}

/// Run corpus discovery across a worker pool — `opts.workers` spawned
/// subprocesses, or the `opts.remote` TCP endpoints when given.
///
/// The output [`RunOutcome`] is byte-identical (timings aside) to
/// [`CorpusHandle::discover_with_progress`] on the same handle: the
/// coordinator plans, farms out encoding and passes, and merges results
/// in the deterministic single-process order. Any failure after a
/// successful handshake degrades to local computation; the only
/// run-aborting errors are setup problems, a unanimous
/// [`ClusterError::PlanMismatch`] and a unanimous
/// [`ClusterError::AuthFailed`].
pub fn cluster_discover(
    handle: &mut CorpusHandle,
    config: &DiscoveryConfig,
    opts: &ClusterOptions,
) -> Result<(RunOutcome, ClusterStats), ClusterError> {
    let plan = handle.plan(config);
    if opts.workers == 0 && opts.remote.is_empty() {
        let prepared = handle.merged_forest(config, &plan);
        let outcome = handle.finish_discover(config, &prepared, |_| {}, None);
        return Ok((outcome, ClusterStats::default()));
    }
    let mut cluster = Cluster::spawn(opts, plan.plan_fp(), handle, config)?;
    cluster.encode_phase(handle, config, &plan);
    let prepared = handle.merged_forest(config, &plan);
    let forest_fp = forest_fingerprint(prepared.forest());
    cluster.distribute_forest(handle, &plan, forest_fp);
    let outcome = handle.finish_discover(config, &prepared, |_| {}, Some(&mut cluster));
    let stats = cluster.shutdown();
    Ok((outcome, stats))
}
