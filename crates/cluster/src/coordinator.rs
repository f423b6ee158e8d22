//! The coordinator: spawn (or dial) workers, handshake them against the
//! plan fingerprint (and, for a pooled cluster, re-plan them in place
//! after a corpus change), drive the encode / forest / pass phases, and
//! keep the run deterministic no matter what the workers do.
//!
//! Transport: every connection is a [`Stream`] trait object — a Unix
//! socket to a spawned subprocess, or TCP to a `worker --listen` peer
//! named in `--remote`. The phase machine is transport-blind; the only
//! per-transport differences are how a connection is made and what
//! "kill" means (SIGKILL a child, hard-reset a remote connection).
//!
//! Concurrency model: the coordinator thread owns every connection's
//! write half and all bookkeeping; one reader thread per worker owns a
//! cloned read half and funnels frames into a single event channel. No
//! mutex guards any I/O.
//!
//! Failure model: a worker is *lost* when its connection closes, a write
//! to it fails, it answers a forest build with the wrong fingerprint, or
//! it stays silent past the liveness timeout (a `Ping` halfway through
//! the window gives a busy-but-healthy worker the chance to answer from
//! its reader thread). Losing a worker reassigns its in-flight tasks to
//! the survivors — a bounded number of times per task — and anything
//! still unanswered falls back to local computation, so the result bytes
//! never depend on worker health.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use discoverxfd::{encode_config, DiscoveryConfig, PassRunner, WaveTask};
use xfd_corpus::{CorpusHandle, CorpusPlan};
use xfd_relation::{decode_partial, encode_partial, Forest};
use xfd_schema::SchemaMap;
use xfd_transport::{join_auth, plan_auth, Endpoint, Stream};

use crate::frame::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use crate::{ClusterError, ClusterOptions, ClusterStats};

/// Event-loop tick: bounds how stale liveness checks can get while
/// waiting for frames.
const TICK: Duration = Duration::from_millis(50);

/// Distinguishes concurrent clusters of one process in socket names.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_socket_path() -> PathBuf {
    let n = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xfd-cluster-{}-{n}.sock", std::process::id()))
}

/// One admitted worker, from the coordinator's side.
struct WorkerConn {
    /// The subprocess, for spawned workers; `None` for remote (`--remote`)
    /// workers, whose lifetime we do not own.
    child: Option<Child>,
    /// Write half; the paired reader thread owns a clone of the fd.
    stream: Box<dyn Stream>,
    alive: bool,
    reaped: bool,
    last_seen: Instant,
    /// A `Ping` is outstanding; don't send another until a frame arrives.
    pinged: bool,
    /// Acked the forest build — eligible for pass tasks.
    forest_ready: bool,
    /// Segment digests this worker holds a partial for.
    has: HashSet<u128>,
}

enum Event {
    Frame(usize, Frame),
    Gone(usize),
}

fn reader_loop(mut stream: Box<dyn Stream>, slot: usize, tx: Sender<Event>) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(frame)) => {
                if tx.send(Event::Frame(slot, frame)).is_err() {
                    break;
                }
            }
            Ok(None) | Err(_) => {
                tx.send(Event::Gone(slot)).ok();
                break;
            }
        }
    }
}

/// Content-addressed segment shipping, coordinator side: answer a
/// worker's `SegHave` with the document manifest plus only the segments
/// its cache lacks, every byte re-verified against the manifest digest
/// before it travels. Returns `false` when the worker asks for a segment
/// we cannot produce verified bytes for (the handshake then fails).
fn ship_segments(
    stream: &mut Box<dyn Stream>,
    handle: &CorpusHandle,
    have: &HashSet<u128>,
    stats: &mut ClusterStats,
) -> bool {
    let manifest = handle.doc_digests();
    let announce = Frame::SegManifest {
        digests: manifest.clone(),
    };
    if write_frame(stream, &announce).is_err() {
        return false;
    }
    let mut sent: HashSet<u128> = HashSet::new();
    for digest in manifest {
        if have.contains(&digest) || !sent.insert(digest) {
            continue;
        }
        let Some(bytes) = handle.doc_bytes(digest) else {
            return false;
        };
        stats.segments_shipped += 1;
        stats.segment_ship_bytes += bytes.len() as u64;
        if write_frame(stream, &Frame::SegData { digest, bytes }).is_err() {
            return false;
        }
    }
    true
}

/// A running worker pool, after handshake. Drives the three remote
/// phases and implements [`PassRunner`] so the memoized wave traversal
/// can offload relation passes; memo hits never reach it.
pub struct Cluster {
    workers: Vec<WorkerConn>,
    readers: Vec<JoinHandle<()>>,
    events: Receiver<Event>,
    stats: ClusterStats,
    worker_timeout: Duration,
    /// Bound on every step of plan admission, first handshake or re-plan.
    handshake_timeout: Duration,
    max_task_retries: usize,
    /// [`plan_auth`] of the coordinator's token, sent in every `Plan`.
    plan_auth: u128,
    /// Fault injection: kill the worker that received the Nth pass task.
    kill_after: Option<u64>,
    assigned_passes: u64,
    next_task_id: u64,
    rr: usize,
    /// The forest fingerprint the live workers last acked; lets a pooled
    /// cluster skip redistribution when nothing changed between requests.
    last_forest_fp: Option<u128>,
    /// Unix socket to unlink on teardown (spawned pools only).
    socket_path: Option<PathBuf>,
}

/// The corpus directory as the `Plan` frame carries it.
fn corpus_dir(handle: &CorpusHandle) -> Result<String, ClusterError> {
    handle
        .dir()
        .to_str()
        .map(str::to_string)
        .ok_or_else(|| ClusterError::Config("corpus path is not valid UTF-8".into()))
}

impl Cluster {
    /// Spawn and handshake `opts.workers` subprocesses — or, when
    /// `opts.remote` is non-empty, dial those TCP endpoints instead. Only
    /// returns `Err` when there is nothing sane to continue with; a
    /// partially (or completely) dead pool that at least agreed on the
    /// plan — and on the token — yields a working `Cluster` that degrades
    /// to local computation.
    pub(crate) fn spawn(
        opts: &ClusterOptions,
        plan_fp: u128,
        handle: &CorpusHandle,
        config: &DiscoveryConfig,
    ) -> Result<Cluster, ClusterError> {
        let dir = corpus_dir(handle)?;
        let handshake_timeout = opts.worker_timeout.max(Duration::from_secs(10));
        let is_remote = !opts.remote.is_empty();
        let mut stats = ClusterStats::default();
        let mut socket_path = None;
        let mut claimed: Vec<Option<Child>> = Vec::new();
        let mut conns: Vec<Box<dyn Stream>> = Vec::new();

        if is_remote {
            // Multi-host: connect to `worker --listen` peers. Unreachable
            // endpoints count as handshake failures; all-unreachable is a
            // setup error.
            let mut last_err = None;
            for addr in &opts.remote {
                stats.workers_spawned += 1;
                match Endpoint::Tcp(addr.clone()).connect_timeout(handshake_timeout) {
                    Ok(stream) => conns.push(stream),
                    Err(e) => {
                        stats.handshake_failures += 1;
                        last_err = Some(format!("{addr}: {e}"));
                    }
                }
            }
            if conns.is_empty() {
                let detail = last_err.unwrap_or_else(|| "no endpoints given".to_string());
                return Err(ClusterError::Config(format!(
                    "could not connect to any --remote worker: {detail}"
                )));
            }
        } else {
            let command = if opts.worker_command.is_empty() {
                let exe = std::env::current_exe()?;
                let exe = exe
                    .to_str()
                    .ok_or_else(|| {
                        ClusterError::Config("executable path is not valid UTF-8".into())
                    })?
                    .to_string();
                vec![exe, "worker".to_string()]
            } else {
                opts.worker_command.clone()
            };
            let Some((program, prefix_args)) = command.split_first() else {
                return Err(ClusterError::Config("empty worker command".into()));
            };

            let path = fresh_socket_path();
            std::fs::remove_file(&path).ok();
            let listener = Endpoint::Unix(path.clone()).listen()?;
            socket_path = Some(path.clone());

            let mut spawn_err = None;
            for i in 0..opts.workers {
                let mut cmd = Command::new(program);
                cmd.args(prefix_args)
                    .arg("--socket")
                    .arg(&path)
                    .arg("--index")
                    .arg(i.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null());
                if !opts.token.is_empty() {
                    cmd.arg("--token").arg(&opts.token);
                }
                if opts.corrupt_plan {
                    cmd.arg("--corrupt-plan");
                }
                match cmd.spawn() {
                    Ok(child) => claimed.push(Some(child)),
                    Err(e) => spawn_err = Some(e),
                }
            }
            if claimed.is_empty() {
                std::fs::remove_file(&path).ok();
                let detail =
                    spawn_err.map_or_else(|| "no workers requested".to_string(), |e| e.to_string());
                return Err(ClusterError::Config(format!(
                    "failed to spawn any worker ('{program}'): {detail}"
                )));
            }
            stats.workers_spawned = claimed.len() as u64;

            // Accept until every still-running child has connected,
            // bounded by the handshake deadline.
            let deadline = Instant::now() + handshake_timeout;
            while conns.len() < claimed.len() && Instant::now() < deadline {
                match listener.accept_stream() {
                    Ok(Some(stream)) => conns.push(stream),
                    Ok(None) => {
                        let mut exited = 0;
                        for child in claimed.iter_mut().flatten() {
                            if matches!(child.try_wait(), Ok(Some(_))) {
                                exited += 1;
                            }
                        }
                        if claimed.len() - exited <= conns.len() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        for child in claimed.iter_mut().flatten() {
                            child.kill().ok();
                            child.wait().ok();
                        }
                        std::fs::remove_file(&path).ok();
                        return Err(e.into());
                    }
                }
            }
        }

        // Every connection gets its reader thread up front; the handshake
        // then runs on the event channel, all workers at once.
        let (tx, events) = channel();
        let mut cluster = Cluster {
            workers: Vec::with_capacity(conns.len()),
            readers: Vec::with_capacity(conns.len()),
            events,
            stats,
            worker_timeout: opts.worker_timeout,
            handshake_timeout,
            max_task_retries: opts.max_task_retries,
            plan_auth: plan_auth(&opts.token),
            kill_after: opts.kill_worker_after,
            assigned_passes: 0,
            next_task_id: 0,
            rr: 0,
            last_forest_fp: None,
            socket_path,
        };
        for stream in conns {
            let Ok(read_half) = stream.try_clone_stream() else {
                cluster.stats.handshake_failures += 1;
                stream.shutdown_both().ok();
                continue;
            };
            let slot = cluster.workers.len();
            let tx = tx.clone();
            cluster
                .readers
                .push(std::thread::spawn(move || reader_loop(read_half, slot, tx)));
            cluster.workers.push(WorkerConn {
                child: None,
                stream,
                alive: true,
                reaped: false,
                last_seen: Instant::now(),
                pinged: false,
                forest_ready: false,
                has: HashSet::new(),
            });
        }
        drop(tx);

        // Handshake: Join (version + token digest) → plan admission.
        // Rejections and silence both count as handshake failures.
        let auth_failures = cluster.await_joins(&mut claimed, is_remote, &opts.token);
        // Children that never joined are dead weight: reap them now.
        for slot in &mut claimed {
            if let Some(mut child) = slot.take() {
                cluster.stats.handshake_failures += 1;
                child.kill().ok();
                child.wait().ok();
            }
        }
        let mismatch_fp = cluster.admit_plan(handle, dir, plan_fp, config);
        if cluster.live_count() == 0 {
            if let Some(got) = mismatch_fp {
                cluster.shutdown();
                return Err(ClusterError::PlanMismatch {
                    expected: plan_fp,
                    got,
                });
            }
            if auth_failures > 0 {
                cluster.shutdown();
                return Err(ClusterError::AuthFailed);
            }
        }
        Ok(cluster)
    }

    /// Handshake step 1 on every fresh connection: a `Join` carrying our
    /// protocol version and token digest, within the handshake timeout. A
    /// spawned worker's `Join` also claims its child process by index.
    /// Returns how many workers failed the token check.
    fn await_joins(&mut self, claimed: &mut [Option<Child>], remote: bool, token: &str) -> u64 {
        let expected = join_auth(token);
        let mut waiting: HashSet<usize> = (0..self.workers.len()).collect();
        let mut auth_failures = 0u64;
        let deadline = Instant::now() + self.handshake_timeout;
        while !waiting.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.events.recv_timeout(left.min(TICK)) {
                Ok(Event::Frame(slot, frame)) if waiting.remove(&slot) => match frame {
                    Frame::Join {
                        version,
                        index,
                        auth,
                    } if version == PROTOCOL_VERSION => {
                        if auth != expected {
                            // Wrong shared secret: explicit, typed
                            // rejection — the worker gets a Shutdown,
                            // never a hang.
                            auth_failures += 1;
                            self.send_to(slot, &Frame::Shutdown);
                            self.reject(slot);
                        } else if !remote {
                            let child = claimed.get_mut(index as usize).and_then(Option::take);
                            match (child, self.workers.get_mut(slot)) {
                                (Some(child), Some(w)) => w.child = Some(child),
                                // A worker claimed an index we never
                                // spawned (or one already taken): drop it.
                                _ => self.reject(slot),
                            }
                        }
                    }
                    _ => self.reject(slot),
                },
                Ok(Event::Frame(..)) => {}
                Ok(Event::Gone(slot)) => {
                    if waiting.remove(&slot) {
                        self.reject(slot);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for slot in waiting {
            self.reject(slot);
        }
        auth_failures
    }

    /// Plan admission, the same for a fresh cluster's handshake and for a
    /// pooled cluster's re-plan: send `Plan` to every live worker, ship
    /// segments to those that announce a cache (`SegHave`) instead of
    /// reading the corpus directory, and keep the workers that ack
    /// `plan_fp` within the handshake timeout. A worker that acks another
    /// fingerprint, breaks the protocol or stays silent is dropped as a
    /// handshake failure. Returns a rejected fingerprint, for the typed
    /// error when nobody was admitted.
    fn admit_plan(
        &mut self,
        handle: &CorpusHandle,
        corpus_dir: String,
        plan_fp: u128,
        config: &DiscoveryConfig,
    ) -> Option<u128> {
        let plan = Frame::Plan {
            plan_fp,
            auth: self.plan_auth,
            corpus_dir,
            config: encode_config(config),
        };
        // Slot → whether its one shipping round is spent.
        let mut waiting: HashMap<usize, bool> = HashMap::new();
        for slot in 0..self.workers.len() {
            let sent = match self.workers.get_mut(slot) {
                Some(w) if w.alive => write_frame(&mut w.stream, &plan).is_ok(),
                _ => continue,
            };
            if sent {
                waiting.insert(slot, false);
            } else {
                self.reject(slot);
            }
        }
        let mut mismatch_fp = None;
        let deadline = Instant::now() + self.handshake_timeout;
        while !waiting.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (slot, frame) = match self.events.recv_timeout(left.min(TICK)) {
                Ok(Event::Frame(slot, frame)) => (slot, frame),
                Ok(Event::Gone(slot)) => {
                    if waiting.remove(&slot).is_some() {
                        self.reject(slot);
                    }
                    continue;
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let Some(shipped) = waiting.get_mut(&slot) else {
                continue;
            };
            match frame {
                Frame::PlanAck { plan_fp: got } => {
                    waiting.remove(&slot);
                    if got == plan_fp {
                        self.touch(slot);
                    } else {
                        mismatch_fp = Some(got);
                        self.send_to(slot, &Frame::Shutdown);
                        self.reject(slot);
                    }
                }
                Frame::SegHave { digests } if !*shipped => {
                    *shipped = true;
                    let have: HashSet<u128> = digests.into_iter().collect();
                    let sent = match self.workers.get_mut(slot) {
                        Some(w) => ship_segments(&mut w.stream, handle, &have, &mut self.stats),
                        None => false,
                    };
                    if !sent {
                        waiting.remove(&slot);
                        self.reject(slot);
                    }
                }
                // A late answer to a health-check ping.
                Frame::Pong => {}
                _ => {
                    waiting.remove(&slot);
                    self.reject(slot);
                }
            }
        }
        for slot in waiting.into_keys() {
            self.reject(slot);
        }
        mismatch_fp
    }

    /// Re-plan a pooled cluster in place after the corpus changed under
    /// an unchanged plan key: every live worker refreshes its document
    /// view — reading, or being shipped, only the segments it lacks — and
    /// must ack `plan_fp` again, through the same admission as the first
    /// handshake. The partials a worker holds survive for the documents
    /// still in the corpus, so the next forest distribution pushes only
    /// the new ones. Returns how many workers are left.
    pub(crate) fn replan(
        &mut self,
        handle: &CorpusHandle,
        plan_fp: u128,
        config: &DiscoveryConfig,
    ) -> usize {
        let Ok(dir) = corpus_dir(handle) else {
            return 0;
        };
        let live: HashSet<u128> = handle.doc_digests().into_iter().collect();
        for w in &mut self.workers {
            w.forest_ready = false;
            w.has.retain(|d| live.contains(d));
        }
        self.admit_plan(handle, dir, plan_fp, config);
        self.live_count()
    }

    fn live_count(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Live workers right now (the warm-pool gauge; no I/O).
    pub(crate) fn live_workers(&self) -> usize {
        self.live_count()
    }

    fn ready_count(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive && w.forest_ready)
            .count()
    }

    /// Next live worker round-robin; `need_forest` restricts to workers
    /// that acked the forest build.
    fn pick_live(&mut self, need_forest: bool) -> Option<usize> {
        let n = self.workers.len();
        for step in 0..n {
            let i = (self.rr + step) % n.max(1);
            let ok = self
                .workers
                .get(i)
                .is_some_and(|w| w.alive && (!need_forest || w.forest_ready));
            if ok {
                self.rr = (i + 1) % n.max(1);
                return Some(i);
            }
        }
        None
    }

    /// Cut a worker loose: kill a spawned child, or shut a remote
    /// connection (either way its reader thread ends). Returns whether it
    /// was alive.
    fn cut_loose(&mut self, slot: usize) -> bool {
        let Some(w) = self.workers.get_mut(slot) else {
            return false;
        };
        if !w.alive {
            return false;
        }
        w.alive = false;
        if let Some(child) = w.child.as_mut() {
            child.kill().ok();
        }
        // For a remote worker this is the whole funeral; either way it
        // unblocks the reader thread.
        w.stream.shutdown_both().ok();
        true
    }

    /// A worker died, went silent or misbehaved after admission.
    fn mark_dead(&mut self, slot: usize) {
        if self.cut_loose(slot) {
            self.stats.workers_lost += 1;
        }
    }

    /// A worker failed plan admission (handshake or re-plan).
    fn reject(&mut self, slot: usize) {
        if self.cut_loose(slot) {
            self.stats.handshake_failures += 1;
        }
    }

    /// A frame arrived from `slot`: it is alive and owes no ping.
    fn touch(&mut self, slot: usize) {
        if let Some(w) = self.workers.get_mut(slot) {
            w.last_seen = Instant::now();
            w.pinged = false;
        }
    }

    /// Reset liveness clocks at a phase boundary (the coordinator may
    /// have spent arbitrary time computing locally in between, which
    /// must not count against the workers).
    fn touch_all(&mut self) {
        for w in &mut self.workers {
            w.last_seen = Instant::now();
            w.pinged = false;
        }
    }

    /// Write one frame to a live worker; a failed write loses it.
    fn send_to(&mut self, slot: usize, frame: &Frame) -> bool {
        let Some(w) = self.workers.get_mut(slot) else {
            return false;
        };
        if !w.alive {
            return false;
        }
        if write_frame(&mut w.stream, frame).is_ok() {
            true
        } else {
            self.mark_dead(slot);
            false
        }
    }

    /// Liveness sweep: ping workers idle past half the window, lose
    /// workers idle past the whole window. Returns the newly lost slots
    /// so the calling phase can reassign their work.
    fn heartbeat(&mut self) -> Vec<usize> {
        let mut dead = Vec::new();
        let mut ping = Vec::new();
        for (i, w) in self.workers.iter().enumerate() {
            if !w.alive {
                continue;
            }
            let idle = w.last_seen.elapsed();
            if idle >= self.worker_timeout {
                dead.push(i);
            } else if idle * 2 >= self.worker_timeout && !w.pinged {
                ping.push(i);
            }
        }
        for &i in &ping {
            if let Some(w) = self.workers.get_mut(i) {
                w.pinged = true;
            }
            self.send_to(i, &Frame::Ping);
        }
        for &i in &dead {
            self.mark_dead(i);
        }
        dead
    }

    /// Reset the per-run counters before reusing a pooled cluster for a
    /// new request; lifetime counters (spawns, losses, handshake
    /// failures) persist. Deliberately *not* called after a cold spawn,
    /// so the first run's stats still report the handshake's segment
    /// shipping.
    pub(crate) fn begin_run(&mut self) {
        self.stats.encode_tasks = 0;
        self.stats.encode_remote = 0;
        self.stats.pass_tasks = 0;
        self.stats.pass_remote = 0;
        self.stats.tasks_retried = 0;
        self.stats.tasks_fallback = 0;
        self.stats.partials_pushed = 0;
        self.stats.segments_shipped = 0;
        self.stats.segment_ship_bytes = 0;
    }

    /// Heartbeats doubling as health checks: drain any queued events,
    /// ping every live worker and require a `Pong` within `timeout`.
    /// Silent workers are declared dead. Returns the surviving count —
    /// what a warm pool consults before trusting a cached entry.
    pub(crate) fn health_check(&mut self, timeout: Duration) -> usize {
        loop {
            match self.events.try_recv() {
                Ok(Event::Frame(slot, _)) => self.touch(slot),
                Ok(Event::Gone(slot)) => self.mark_dead(slot),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        let live: Vec<usize> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive)
            .map(|(i, _)| i)
            .collect();
        let mut waiting: HashSet<usize> = HashSet::new();
        for slot in live {
            if self.send_to(slot, &Frame::Ping) {
                waiting.insert(slot);
            }
        }
        let deadline = Instant::now() + timeout;
        while !waiting.is_empty() && Instant::now() < deadline {
            match self.events.recv_timeout(TICK) {
                Ok(Event::Frame(slot, Frame::Pong)) => {
                    self.touch(slot);
                    waiting.remove(&slot);
                }
                Ok(Event::Frame(slot, _)) => self.touch(slot),
                Ok(Event::Gone(slot)) => {
                    self.mark_dead(slot);
                    waiting.remove(&slot);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for slot in waiting {
            self.mark_dead(slot);
        }
        self.live_count()
    }

    /// Phase 1: farm the pending segment-encode work list out to the
    /// pool. Workers answer with encoded partials which are cached into
    /// `handle`; anything lost to worker deaths (or undecodable) is
    /// simply left for [`CorpusHandle::merged_forest`] to build locally.
    pub(crate) fn encode_phase(
        &mut self,
        handle: &mut CorpusHandle,
        config: &DiscoveryConfig,
        plan: &CorpusPlan,
    ) {
        let digests = handle.pending_partials(plan.plan_fp());
        self.stats.encode_tasks = digests.len() as u64;
        if digests.is_empty() || self.live_count() == 0 {
            return;
        }
        self.touch_all();
        let map = SchemaMap::new(plan.schema().as_ref());
        let mut owner: HashMap<u128, usize> = HashMap::new();
        for digest in digests {
            if let Some(slot) = self.pick_live(false) {
                if self.send_to(slot, &Frame::Encode { digest }) {
                    owner.insert(digest, slot);
                }
            }
        }
        while !owner.is_empty() {
            match self.events.recv_timeout(TICK) {
                Ok(Event::Frame(slot, Frame::Partial { digest, bytes })) => {
                    self.touch(slot);
                    if owner.remove(&digest).is_some() && !bytes.is_empty() {
                        if let Ok(partial) = decode_partial(&bytes, &map, &config.encode) {
                            if handle.store_partial(plan.plan_fp(), digest, partial) {
                                self.stats.encode_remote += 1;
                                if let Some(w) = self.workers.get_mut(slot) {
                                    w.has.insert(digest);
                                }
                            }
                        }
                    }
                }
                Ok(Event::Frame(slot, _)) => self.touch(slot),
                Ok(Event::Gone(slot)) => {
                    self.mark_dead(slot);
                    self.reassign_encodes(slot, &mut owner);
                }
                Err(RecvTimeoutError::Timeout) => {
                    for slot in self.heartbeat() {
                        self.reassign_encodes(slot, &mut owner);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Hand the lost worker's outstanding encodes to the survivors (or
    /// drop them to the local build).
    fn reassign_encodes(&mut self, lost: usize, owner: &mut HashMap<u128, usize>) {
        let orphaned: Vec<u128> = owner
            .iter()
            .filter(|&(_, &slot)| slot == lost)
            .map(|(&digest, _)| digest)
            .collect();
        for digest in orphaned {
            owner.remove(&digest);
            if let Some(slot) = self.pick_live(false) {
                if self.send_to(slot, &Frame::Encode { digest }) {
                    owner.insert(digest, slot);
                    self.stats.tasks_retried += 1;
                }
            }
        }
    }

    /// Phase 2: bring every worker up to the merged forest. Each worker
    /// gets a `Push` of every partial it lacks — after a re-plan, only
    /// the new documents' — then a `Build`: it merges in the
    /// coordinator's exact document order, resuming its own merge from
    /// the longest unchanged prefix, and must ack with the same forest
    /// fingerprint to stay eligible for passes. A pooled cluster that
    /// already acked this exact fingerprint skips the phase entirely.
    pub(crate) fn distribute_forest(
        &mut self,
        handle: &CorpusHandle,
        plan: &CorpusPlan,
        forest_fp: u128,
    ) {
        if self.live_count() == 0 {
            return;
        }
        if self.last_forest_fp == Some(forest_fp)
            && self
                .workers
                .iter()
                .filter(|w| w.alive)
                .all(|w| w.forest_ready)
        {
            return;
        }
        self.touch_all();
        let digests = handle.doc_digests();
        let mut distinct = Vec::new();
        let mut seen = HashSet::new();
        for &d in &digests {
            if seen.insert(d) {
                distinct.push(d);
            }
        }
        // Each partial is encoded at most once, however many workers
        // lack it.
        let mut encoded: HashMap<u128, Vec<u8>> = HashMap::new();
        let mut waiting: HashSet<usize> = HashSet::new();
        for slot in 0..self.workers.len() {
            let missing: Vec<u128> = match self.workers.get(slot) {
                Some(w) if w.alive => distinct
                    .iter()
                    .copied()
                    .filter(|d| !w.has.contains(d))
                    .collect(),
                _ => continue,
            };
            let mut writable = true;
            for digest in missing {
                // No cached partial (cold forest cache): the worker
                // builds it from its own tree during Build.
                let Some(partial) = handle.partial(plan.plan_fp(), digest) else {
                    continue;
                };
                let bytes = encoded
                    .entry(digest)
                    .or_insert_with(|| encode_partial(&partial))
                    .clone();
                if self.send_to(slot, &Frame::Push { digest, bytes }) {
                    self.stats.partials_pushed += 1;
                } else {
                    writable = false;
                    break;
                }
            }
            let build = Frame::Build {
                forest_fp,
                digests: digests.clone(),
            };
            if writable && self.send_to(slot, &build) {
                waiting.insert(slot);
            }
        }
        while !waiting.is_empty() {
            match self.events.recv_timeout(TICK) {
                Ok(Event::Frame(slot, Frame::ForestAck { forest_fp: got })) => {
                    self.touch(slot);
                    if waiting.remove(&slot) {
                        if got == forest_fp {
                            if let Some(w) = self.workers.get_mut(slot) {
                                w.forest_ready = true;
                                // The build filled every gap from the
                                // worker's own trees.
                                w.has.extend(distinct.iter().copied());
                            }
                        } else {
                            // Divergent forest: results from this worker
                            // could corrupt the run. Cut it loose.
                            self.mark_dead(slot);
                        }
                    }
                }
                Ok(Event::Frame(slot, _)) => self.touch(slot),
                Ok(Event::Gone(slot)) => {
                    self.mark_dead(slot);
                    waiting.remove(&slot);
                }
                Err(RecvTimeoutError::Timeout) => {
                    for slot in self.heartbeat() {
                        waiting.remove(&slot);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.last_forest_fp = Some(forest_fp);
    }

    /// Fault injection: SIGKILL the worker that just received a pass
    /// task — or, when the worker is remote, hard-reset its connection
    /// (the TCP equivalent) — leaving the task in flight. Death is then
    /// *discovered* the honest way (EOF, reset or liveness timeout),
    /// exactly like a real crash.
    fn kill_injected(&mut self, slot: usize) {
        self.kill_after = None;
        if let Some(w) = self.workers.get_mut(slot) {
            match w.child.as_mut() {
                Some(child) => {
                    child.kill().ok();
                }
                None => {
                    w.stream.shutdown_both().ok();
                }
            }
        }
    }

    /// Reassign (bounded) or abandon one in-flight pass task.
    fn retry_or_fallback(
        &mut self,
        task_idx: usize,
        retries: &mut HashMap<usize, usize>,
        queue: &mut VecDeque<usize>,
        outstanding: &mut usize,
    ) {
        let tried = retries.entry(task_idx).or_insert(0);
        if *tried < self.max_task_retries && self.ready_count() > 0 {
            *tried += 1;
            self.stats.tasks_retried += 1;
            queue.push_back(task_idx);
        } else {
            self.stats.tasks_fallback += 1;
            *outstanding -= 1;
        }
    }

    /// The stats of the run so far, with the live-worker gauge refreshed
    /// — what a pooled cluster reports after each request, since it
    /// never reaches [`Cluster::shutdown`] between them.
    pub(crate) fn run_stats(&mut self) -> ClusterStats {
        self.stats.workers_live = self.live_count() as u64;
        self.stats
    }

    /// Graceful teardown: `Shutdown` to every survivor, close write
    /// halves, reap each spawned child as soon as its reader reports the
    /// connection gone (killing any that linger past the deadline), close
    /// remote connections, join readers.
    pub(crate) fn shutdown(&mut self) -> ClusterStats {
        self.stats.workers_live = self.live_count() as u64;
        for slot in 0..self.workers.len() {
            self.send_to(slot, &Frame::Shutdown);
        }
        let mut exiting = HashSet::new();
        for (slot, w) in self.workers.iter_mut().enumerate() {
            w.stream.shutdown_write().ok();
            match w.child.as_mut() {
                // Remote worker: not ours to reap. A full shutdown of the
                // connection unblocks our reader thread; the worker loops
                // back to listening.
                None => {
                    w.stream.shutdown_both().ok();
                    w.reaped = true;
                }
                // Cut loose earlier, which killed it.
                Some(child) if !w.alive => {
                    child.wait().ok();
                    w.reaped = true;
                }
                Some(_) => {
                    exiting.insert(slot);
                }
            }
        }
        // A live worker exits on `Shutdown` or the half-close, and its
        // reader then reports the connection gone: reap the child at once.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !exiting.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(left) {
                Ok(Event::Gone(slot)) => {
                    if exiting.remove(&slot) {
                        if let Some(w) = self.workers.get_mut(slot) {
                            if let Some(child) = w.child.as_mut() {
                                child.wait().ok();
                            }
                            w.reaped = true;
                        }
                    }
                }
                Ok(Event::Frame(..)) => {}
                Err(_) => break,
            }
        }
        for slot in exiting {
            if let Some(w) = self.workers.get_mut(slot) {
                if let Some(child) = w.child.as_mut() {
                    child.kill().ok();
                    child.wait().ok();
                }
                w.reaped = true;
            }
        }
        for handle in self.readers.drain(..) {
            handle.join().ok();
        }
        if let Some(path) = &self.socket_path {
            std::fs::remove_file(path).ok();
        }
        self.stats
    }

    /// Final counters (identical to what [`Cluster::shutdown`] returns).
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for w in &mut self.workers {
            if !w.reaped {
                match w.child.as_mut() {
                    Some(child) => {
                        child.kill().ok();
                        child.wait().ok();
                    }
                    None => {
                        w.stream.shutdown_both().ok();
                    }
                }
            }
        }
        if let Some(path) = &self.socket_path {
            std::fs::remove_file(path).ok();
        }
    }
}

impl PassRunner for Cluster {
    /// Phase 3, once per wave: round-robin the wave's memo misses over
    /// forest-ready workers and collect answers. `None` entries (lost
    /// workers, exhausted retries, workers that declined) are computed
    /// locally by the memo layer, which also validates every answer —
    /// so this function affects *when* work happens, never *what* the
    /// result is.
    fn run_wave(
        &mut self,
        _forest: &Forest,
        config: &DiscoveryConfig,
        tasks: &[WaveTask],
    ) -> Vec<Option<Vec<u8>>> {
        self.stats.pass_tasks += tasks.len() as u64;
        let mut results: Vec<Option<Vec<u8>>> = vec![None; tasks.len()];
        if self.ready_count() == 0 {
            self.stats.tasks_fallback += tasks.len() as u64;
            return results;
        }
        self.touch_all();
        // Every pass runs under this request's configuration, whatever
        // request the workers were admitted for.
        let config_bytes = encode_config(config);
        let mut queue: VecDeque<usize> = (0..tasks.len()).collect();
        let mut in_flight: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut retries: HashMap<usize, usize> = HashMap::new();
        let mut outstanding = tasks.len();
        loop {
            while let Some(task_idx) = queue.pop_front() {
                let Some(slot) = self.pick_live(true) else {
                    // Pool is gone: this and everything still queued
                    // falls back to local computation.
                    self.stats.tasks_fallback += 1;
                    outstanding -= 1;
                    continue;
                };
                let Some(task) = tasks.get(task_idx) else {
                    outstanding -= 1;
                    continue;
                };
                let task_id = self.next_task_id;
                self.next_task_id += 1;
                let frame = Frame::Pass {
                    task_id,
                    config: config_bytes.clone(),
                    task: task.encode_bytes(),
                };
                if self.send_to(slot, &frame) {
                    in_flight.insert(task_id, (slot, task_idx));
                    self.assigned_passes += 1;
                    if self.kill_after == Some(self.assigned_passes) {
                        self.kill_injected(slot);
                    }
                } else {
                    // The write lost the worker; try the next one.
                    queue.push_front(task_idx);
                }
            }
            if outstanding == 0 {
                break;
            }
            match self.events.recv_timeout(TICK) {
                Ok(Event::Frame(slot, Frame::TaskResult { task_id, output })) => {
                    self.touch(slot);
                    if let Some((_, task_idx)) = in_flight.remove(&task_id) {
                        if output.is_empty() {
                            // The worker answered "can't": same path as
                            // losing it, minus the funeral.
                            self.retry_or_fallback(
                                task_idx,
                                &mut retries,
                                &mut queue,
                                &mut outstanding,
                            );
                        } else if let Some(r) = results.get_mut(task_idx) {
                            *r = Some(output);
                            self.stats.pass_remote += 1;
                            outstanding -= 1;
                        }
                    }
                }
                Ok(Event::Frame(slot, _)) => self.touch(slot),
                Ok(Event::Gone(slot)) => {
                    self.mark_dead(slot);
                    self.reassign_passes(
                        slot,
                        &mut in_flight,
                        &mut retries,
                        &mut queue,
                        &mut outstanding,
                    );
                }
                Err(RecvTimeoutError::Timeout) => {
                    for slot in self.heartbeat() {
                        self.reassign_passes(
                            slot,
                            &mut in_flight,
                            &mut retries,
                            &mut queue,
                            &mut outstanding,
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        results
    }
}

impl Cluster {
    /// Route every in-flight task of a lost worker through
    /// [`Cluster::retry_or_fallback`].
    fn reassign_passes(
        &mut self,
        lost: usize,
        in_flight: &mut HashMap<u64, (usize, usize)>,
        retries: &mut HashMap<usize, usize>,
        queue: &mut VecDeque<usize>,
        outstanding: &mut usize,
    ) {
        let orphaned: Vec<(u64, usize)> = in_flight
            .iter()
            .filter(|&(_, &(slot, _))| slot == lost)
            .map(|(&id, &(_, task_idx))| (id, task_idx))
            .collect();
        for (id, task_idx) in orphaned {
            in_flight.remove(&id);
            self.retry_or_fallback(task_idx, retries, queue, outstanding);
        }
    }
}
