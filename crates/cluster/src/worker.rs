//! The worker side: connect to the coordinator's Unix socket (spawned
//! workers) or listen on TCP for one (`--listen host:port`, remote
//! workers), re-derive the plan from a read-only view of the corpus —
//! or, without shared storage, from digest-verified shipped segments —
//! then serve encode / merge / pass requests until `Shutdown` or EOF.
//! A pooled coordinator re-sends `Plan` after the corpus changed; the
//! worker then refreshes the same view in place, reading only segments
//! it does not hold, and keeps its partials and forest merge.
//!
//! Three threads per session, no shared locks:
//!
//! * the **main** thread reads frames and dispatches — heartbeats are
//!   answered here so liveness holds even while a merge is running — and
//!   admits each plan;
//! * a **compute** thread owns the corpus view while a plan is admitted
//!   and works the queue in FIFO order;
//! * a **writer** thread owns the write half of the connection,
//!   serializing whole frames from one channel (answers and `Pong`s
//!   interleave at frame boundaries, never inside one).
//!
//! A listening worker is persistent: when a coordinator disconnects it
//! loops back to accepting, its segment cache warm for the next session.
//! It serves one coordinator at a time.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use discoverxfd::{decode_config, run_task, task_in_bounds, DiscoveryConfig, WaveTask};
use xfd_corpus::{CorpusHandle, CorpusPlan, CorpusStore, PreparedCorpus};
use xfd_relation::treetuple::decode_tree;
use xfd_relation::{build_partial, encode_partial, forest_fingerprint};
use xfd_schema::SchemaMap;
use xfd_transport::{join_auth, plan_auth, Endpoint, Stream};

use crate::frame::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use crate::ClusterError;

/// Bound on coordinator silence while a plan is accepted (the first
/// handshake or a re-plan, segment shipping included); cleared once
/// admitted (a pooled worker then waits indefinitely between requests).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// Default byte budget for the shipped-segment cache (256 MiB).
pub const DEFAULT_SEG_CACHE_BUDGET: u64 = 256 * 1024 * 1024;

/// How a worker process was invoked.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The coordinator's Unix socket (spawned workers). Exactly one of
    /// `socket` and `listen` must be set.
    pub socket: Option<PathBuf>,
    /// TCP `host:port` to listen on for coordinators (remote workers).
    /// Port 0 picks an ephemeral port; the bound address is printed as
    /// `worker listening on <addr>` for scripts to parse.
    pub listen: Option<String>,
    /// This worker's index, echoed in the `Join` frame.
    pub index: u32,
    /// Shared-secret handshake token; must match the coordinator's.
    pub token: String,
    /// Directory for the content-addressed segment cache used when the
    /// corpus directory is unreachable; defaults to a per-user temp
    /// location.
    pub seg_cache: Option<PathBuf>,
    /// Byte budget for the segment cache; least-recently-written
    /// segments beyond it are evicted after each handshake.
    pub seg_cache_budget: u64,
    /// Never open the corpus directory, even if it exists locally —
    /// always announce the cache and fetch missing segments (exercises
    /// the multi-host shipping path on one machine).
    pub no_shared_storage: bool,
    /// Fault injection: report a deliberately wrong plan fingerprint in
    /// the handshake (exercises the coordinator's typed rejection).
    pub corrupt_plan: bool,
    /// Fault injection: die with `exit(9)` upon receiving pass task
    /// number N+1, leaving it unanswered (exercises retry/reassignment).
    pub exit_after_tasks: Option<u64>,
}

/// Parse worker flags (`--socket <path> | --listen <host:port>`, plus
/// `[--index N] [--token T] [--seg-cache DIR] [--seg-cache-budget BYTES]
/// [--no-shared-storage] [--corrupt-plan] [--exit-after-tasks N]`),
/// shared by the `discoverxfd worker` subcommand and the
/// `xfd-cluster-worker` test binary.
pub fn parse_worker_args(args: &[String]) -> Result<WorkerOptions, String> {
    let mut socket: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut index = 0u32;
    let mut token = String::new();
    let mut seg_cache: Option<PathBuf> = None;
    let mut seg_cache_budget = DEFAULT_SEG_CACHE_BUDGET;
    let mut no_shared_storage = false;
    let mut corrupt_plan = false;
    let mut exit_after_tasks = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                let v = it.next().ok_or("--socket needs a path")?;
                socket = Some(PathBuf::from(v));
            }
            "--listen" => {
                let v = it.next().ok_or("--listen needs host:port")?;
                listen = Some(v.clone());
            }
            "--index" => {
                let v = it.next().ok_or("--index needs a number")?;
                index = v.parse().map_err(|_| format!("bad --index '{v}'"))?;
            }
            "--token" => {
                let v = it.next().ok_or("--token needs a value")?;
                token = v.clone();
            }
            "--seg-cache" => {
                let v = it.next().ok_or("--seg-cache needs a directory")?;
                seg_cache = Some(PathBuf::from(v));
            }
            "--seg-cache-budget" => {
                let v = it.next().ok_or("--seg-cache-budget needs a byte count")?;
                seg_cache_budget = v
                    .parse()
                    .map_err(|_| format!("bad --seg-cache-budget '{v}'"))?;
            }
            "--no-shared-storage" => no_shared_storage = true,
            "--corrupt-plan" => corrupt_plan = true,
            "--exit-after-tasks" => {
                let v = it.next().ok_or("--exit-after-tasks needs a number")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --exit-after-tasks '{v}'"))?;
                exit_after_tasks = Some(n);
            }
            other => return Err(format!("unknown worker option '{other}'")),
        }
    }
    if socket.is_some() == listen.is_some() {
        return Err("exactly one of --socket and --listen is required".into());
    }
    Ok(WorkerOptions {
        socket,
        listen,
        index,
        token,
        seg_cache,
        seg_cache_budget,
        no_shared_storage,
        corrupt_plan,
        exit_after_tasks,
    })
}

/// Work items the reader forwards to the compute thread, in arrival
/// order.
enum Work {
    Encode(u128),
    Push(u128, Vec<u8>),
    Build(Vec<u128>),
    Pass(u64, Vec<u8>, Vec<u8>),
}

/// What an admitted worker holds for the coordinator between plans: its
/// read-only document view and everything derived from it. A re-sent
/// `Plan` refreshes it in place instead of starting over.
struct Admitted {
    /// The `Plan` frame's corpus directory the view belongs to.
    corpus_dir: String,
    /// Whether `handle` reads the corpus directory itself (shared
    /// storage) or was assembled from shipped segments.
    shared: bool,
    handle: CorpusHandle,
    config: DiscoveryConfig,
    plan: CorpusPlan,
    /// Pass tasks received this session (for `--exit-after-tasks`).
    passes_done: u64,
}

/// Run the worker. With `--socket`, dials the coordinator and serves one
/// session, returning when the coordinator sends `Shutdown` or closes
/// the connection. With `--listen`, binds the TCP address, prints
/// `worker listening on <addr>` to stdout, and serves coordinator
/// sessions forever (one at a time); session failures are reported to
/// stderr and the worker keeps listening.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), ClusterError> {
    match (&opts.socket, &opts.listen) {
        (Some(path), None) => {
            // xfdlint:allow(deadline_discipline, reason = "UnixStream has no connect-with-timeout; a local socket connect cannot hang on a live kernel")
            let stream: Box<dyn Stream> = Box::new(std::os::unix::net::UnixStream::connect(path)?);
            run_session(stream, opts)
        }
        (None, Some(addr)) => {
            let listener = Endpoint::Tcp(addr.clone()).listen()?;
            {
                // The bound address line is the contract scripts parse to
                // learn an ephemeral port; flush so it is visible before
                // the first session blocks.
                use std::io::Write as _;
                let mut stdout = std::io::stdout();
                writeln!(stdout, "worker listening on {}", listener.local_label()).ok();
                stdout.flush().ok();
            }
            loop {
                match listener.accept_stream() {
                    Ok(Some(stream)) => {
                        if let Err(e) = run_session(stream, opts) {
                            eprintln!("worker: session failed: {e}");
                        }
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(e) => {
                        eprintln!("worker: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
        }
        _ => Err(ClusterError::Config(
            "exactly one of --socket and --listen is required".into(),
        )),
    }
}

/// Serve one coordinator session over an established connection. Errors
/// cover only the phases in which no work is accepted (handshake or
/// re-plan: corpus open or refresh, segment shipping).
fn run_session(mut reader: Box<dyn Stream>, opts: &WorkerOptions) -> Result<(), ClusterError> {
    let write_half = reader.try_clone_stream()?;
    let (out_tx, out_rx) = channel::<Frame>();
    let writer = std::thread::spawn(move || writer_loop(write_half, out_rx));

    // Handshake: announce ourselves (with our token's digest), then
    // serve plans until the coordinator leaves.
    out_tx
        .send(Frame::Join {
            version: PROTOCOL_VERSION,
            index: opts.index,
            auth: join_auth(&opts.token),
        })
        .ok();
    let result = serve_plans(&mut reader, &out_tx, opts);
    drop(out_tx);
    writer.join().ok();
    result
}

/// Admit each `Plan` the coordinator sends — the first one, and each one
/// re-sent after a corpus change — then serve work under it until the
/// next `Plan`, `Shutdown` or EOF. A silent coordinator cannot wedge us:
/// reads are bounded while a plan is being admitted.
fn serve_plans(
    reader: &mut Box<dyn Stream>,
    out_tx: &Sender<Frame>,
    opts: &WorkerOptions,
) -> Result<(), ClusterError> {
    reader.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok();
    let mut next = read_frame(reader)?;
    let mut held: Option<Admitted> = None;
    loop {
        let Some(admitted) = accept_plan(reader, out_tx, opts, next, held.take())? else {
            return Ok(());
        };
        reader.set_read_timeout(None).ok();

        // Admitted: hand the view to the compute thread and keep reading.
        let (work_tx, work_rx) = channel::<Work>();
        let compute_out = out_tx.clone();
        let exit_after = opts.exit_after_tasks;
        let compute =
            std::thread::spawn(move || compute_loop(admitted, work_rx, compute_out, exit_after));
        next = loop {
            match read_frame(reader) {
                Ok(Some(Frame::Ping)) => {
                    out_tx.send(Frame::Pong).ok();
                }
                Ok(Some(Frame::Encode { digest })) => {
                    work_tx.send(Work::Encode(digest)).ok();
                }
                Ok(Some(Frame::Push { digest, bytes })) => {
                    work_tx.send(Work::Push(digest, bytes)).ok();
                }
                Ok(Some(Frame::Build { digests, .. })) => {
                    work_tx.send(Work::Build(digests)).ok();
                }
                Ok(Some(Frame::Pass {
                    task_id,
                    config,
                    task,
                })) => {
                    work_tx.send(Work::Pass(task_id, config, task)).ok();
                }
                Ok(Some(frame @ Frame::Plan { .. })) => break Some(frame),
                Ok(Some(Frame::Shutdown)) | Ok(None) | Err(_) => break None,
                Ok(Some(_)) => {
                    out_tx
                        .send(Frame::WorkerError {
                            message: "unexpected frame from coordinator".into(),
                        })
                        .ok();
                }
            }
        };
        // The compute thread drains what was queued before the new plan
        // (or the goodbye), then hands its view back.
        drop(work_tx);
        held = compute.join().ok();
        reader.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok();
    }
}

/// Plan acceptance, the same for the first handshake and for a re-plan:
/// check the coordinator's token digest, open the corpus view — or
/// refresh the `held` one in place, reading only segments it lacks — then
/// re-derive the plan fingerprint and ack it. `None` means the session
/// ends cleanly: the coordinator left or was refused, or refused us.
fn accept_plan(
    reader: &mut Box<dyn Stream>,
    out_tx: &Sender<Frame>,
    opts: &WorkerOptions,
    frame: Option<Frame>,
    held: Option<Admitted>,
) -> Result<Option<Admitted>, ClusterError> {
    let (plan_fp, auth, corpus_dir, config) = match frame {
        Some(Frame::Plan {
            plan_fp,
            auth,
            corpus_dir,
            config,
        }) => (plan_fp, auth, corpus_dir, config),
        // A Shutdown here is the coordinator rejecting our Join (wrong
        // token or version); EOF is it going away. Either ends cleanly.
        Some(Frame::Shutdown) | None => return Ok(None),
        Some(_) => return Err(ClusterError::Protocol("expected a Plan frame".into())),
    };
    if auth != plan_auth(&opts.token) {
        // The coordinator's token digest is wrong: refuse to serve it.
        out_tx
            .send(Frame::WorkerError {
                message: "plan auth digest mismatch: tokens differ".into(),
            })
            .ok();
        return Ok(None);
    }
    let config = decode_config(&config)
        .map_err(|e| ClusterError::Protocol(format!("undecodable config: {e}")))?;
    let dir = PathBuf::from(&corpus_dir);
    let name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| ClusterError::Config(format!("bad corpus dir '{corpus_dir}'")))?
        .to_string();
    let cache_dir = opts
        .seg_cache
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join("xfd-worker-segcache"));
    let held = held.filter(|h| h.corpus_dir == corpus_dir);
    let passes_done = held.as_ref().map_or(0, |h| h.passes_done);

    // Shared storage first; otherwise (or when forced) announce our
    // segment cache and let the coordinator ship what it lacks.
    let (mut handle, shared) = match held {
        Some(mut h) if h.shared => {
            h.handle.refresh_readonly()?;
            (h.handle, true)
        }
        Some(h) => {
            let handle = open_shipped(reader, out_tx, h.handle, &cache_dir, opts)?;
            (handle, false)
        }
        None => {
            let shared = if opts.no_shared_storage {
                None
            } else {
                dir.parent()
                    .map(|root| CorpusStore::new(root).open_readonly(&name))
                    .and_then(Result::ok)
            };
            match shared {
                Some(h) => (h, true),
                None => {
                    let empty = CorpusHandle::shipped(&name, &cache_dir);
                    (
                        open_shipped(reader, out_tx, empty, &cache_dir, opts)?,
                        false,
                    )
                }
            }
        }
    };
    let plan = handle.plan(&config);
    let mut my_fp = plan.plan_fp();
    if opts.corrupt_plan {
        my_fp ^= 0xDEAD_BEEF;
    }
    out_tx.send(Frame::PlanAck { plan_fp: my_fp }).ok();
    if my_fp != plan_fp {
        // Rejected: wait for the coordinator's Shutdown (or EOF) so the
        // frame above is not lost to a racing close.
        wait_for_shutdown(reader);
        return Ok(None);
    }
    Ok(Some(Admitted {
        corpus_dir,
        shared,
        handle,
        config,
        plan,
        passes_done,
    }))
}

/// Path of one cached segment.
fn seg_cache_path(cache_dir: &Path, digest: u128) -> PathBuf {
    cache_dir.join(format!("{digest:032x}.seg"))
}

/// Digests present in the local segment cache (by filename; bytes are
/// verified against the digest when actually used).
fn scan_cache(cache_dir: &Path) -> Vec<u128> {
    let Ok(entries) = std::fs::read_dir(cache_dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("seg") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if stem.len() == 32 {
            if let Ok(d) = u128::from_str_radix(stem, 16) {
                out.push(d);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Persist one verified shipped segment (write-then-rename, so a crash
/// mid-write never leaves a plausible-looking partial file). The temporary
/// name is per process: workers on one host share the default cache
/// directory and may be shipped the same segment at the same time.
fn store_cached(cache_dir: &Path, digest: u128, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = cache_dir.join(format!("{digest:032x}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, seg_cache_path(cache_dir, digest))
}

/// Enforce the cache byte budget: drop least-recently-written segments
/// until under budget, never touching the current manifest's segments.
fn evict_cache(cache_dir: &Path, budget: u64, keep: &HashSet<u128>) {
    let Ok(entries) = std::fs::read_dir(cache_dir) else {
        return;
    };
    let mut files: Vec<(std::time::SystemTime, u64, PathBuf, Option<u128>)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("seg") {
            continue;
        }
        let Ok(meta) = entry.metadata() else {
            continue;
        };
        let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        let digest = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| s.len() == 32)
            .and_then(|s| u128::from_str_radix(s, 16).ok());
        files.push((mtime, meta.len(), path, digest));
    }
    let mut total: u64 = files.iter().map(|f| f.1).sum();
    files.sort_by_key(|f| f.0);
    for (_, len, path, digest) in files {
        if total <= budget {
            break;
        }
        if digest.is_some_and(|d| keep.contains(&d)) {
            continue;
        }
        if std::fs::remove_file(&path).is_ok() {
            total = total.saturating_sub(len);
        }
    }
}

/// Content-addressed segment shipping, worker side: announce what the
/// cache and `handle` hold, receive the manifest plus the missing
/// segments (each verified against its digest before being trusted or
/// cached), then point `handle` at a document view identical to the
/// coordinator's, decoding only the segments it did not hold.
fn open_shipped(
    reader: &mut Box<dyn Stream>,
    out: &Sender<Frame>,
    mut handle: CorpusHandle,
    cache_dir: &Path,
    opts: &WorkerOptions,
) -> Result<CorpusHandle, ClusterError> {
    std::fs::create_dir_all(cache_dir)?;
    let mut have = scan_cache(cache_dir);
    have.extend(handle.doc_digests());
    have.sort_unstable();
    have.dedup();
    out.send(Frame::SegHave {
        digests: have.clone(),
    })
    .ok();
    let manifest = match read_frame(reader)? {
        Some(Frame::SegManifest { digests }) => digests,
        Some(_) => {
            return Err(ClusterError::Protocol(
                "expected a SegManifest frame".into(),
            ))
        }
        None => {
            return Err(ClusterError::Protocol(
                "coordinator closed during segment shipping".into(),
            ))
        }
    };
    let live: HashSet<u128> = manifest.iter().copied().collect();
    let mut missing: HashSet<u128> = live
        .iter()
        .copied()
        .filter(|d| have.binary_search(d).is_err())
        .collect();
    let mut received: HashMap<u128, Vec<u8>> = HashMap::new();
    while !missing.is_empty() {
        match read_frame(reader)? {
            Some(Frame::SegData { digest, bytes }) => {
                if xfd_hash::digest_bytes(&bytes) != digest {
                    return Err(ClusterError::Protocol(format!(
                        "shipped segment {digest:032x} failed digest verification"
                    )));
                }
                if missing.remove(&digest) {
                    store_cached(cache_dir, digest, &bytes)?;
                    received.insert(digest, bytes);
                }
            }
            Some(_) => {
                return Err(ClusterError::Protocol(
                    "expected a SegData frame during shipping".into(),
                ))
            }
            None => {
                return Err(ClusterError::Protocol(
                    "coordinator closed mid-shipping".into(),
                ))
            }
        }
    }
    // Assemble the document view in manifest order. Cache hits are read
    // back and re-verified — a corrupted cache file is evicted and the
    // session fails, so the retry fetches it fresh.
    handle.refresh_shipped(&manifest, |digest| {
        let bytes = match received.remove(&digest) {
            Some(b) => b,
            None => {
                let path = seg_cache_path(cache_dir, digest);
                let b = std::fs::read(&path)?;
                if xfd_hash::digest_bytes(&b) != digest {
                    std::fs::remove_file(&path).ok();
                    return Err(ClusterError::Protocol(format!(
                        "cached segment {digest:032x} failed digest verification"
                    )));
                }
                b
            }
        };
        decode_tree(&bytes).map_err(|e| {
            ClusterError::Protocol(format!(
                "shipped segment {digest:032x} failed to decode: {e}"
            ))
        })
    })?;
    evict_cache(cache_dir, opts.seg_cache_budget, &live);
    Ok(handle)
}

/// Drain frames until `Shutdown` or EOF (post-rejection limbo).
fn wait_for_shutdown(reader: &mut Box<dyn Stream>) {
    reader.set_read_timeout(Some(Duration::from_secs(30))).ok();
    loop {
        match read_frame(reader) {
            Ok(Some(Frame::Shutdown)) | Ok(None) | Err(_) => break,
            Ok(Some(_)) => {}
        }
    }
}

/// Sole owner of the connection's write half: serialize whole frames
/// from the channel, stop on the first failed write (coordinator gone).
fn writer_loop(mut stream: Box<dyn Stream>, rx: Receiver<Frame>) {
    while let Ok(frame) = rx.recv() {
        if write_frame(&mut stream, &frame).is_err() {
            break;
        }
    }
}

/// Sole owner of the corpus view while a plan is admitted: work the
/// queue in FIFO order, then hand the view back for the next plan. Every
/// request gets an answer frame (possibly an empty one meaning "could
/// not"), so the coordinator never waits on silence from a live worker.
fn compute_loop(
    mut admitted: Admitted,
    work: Receiver<Work>,
    out: Sender<Frame>,
    exit_after: Option<u64>,
) -> Admitted {
    let Admitted {
        handle,
        config,
        plan,
        passes_done,
        ..
    } = &mut admitted;
    let map = SchemaMap::new(plan.schema().as_ref());
    let plan_fp = plan.plan_fp();
    let mut prepared: Option<PreparedCorpus> = None;
    // The last pass configuration, decoded once per distinct encoding.
    let mut pass_config: Option<(Vec<u8>, DiscoveryConfig)> = None;
    while let Ok(item) = work.recv() {
        match item {
            Work::Encode(digest) => {
                let built = handle.tree_by_digest(digest).map(|tree| {
                    let partial = build_partial(tree, &map, &config.encode);
                    let bytes = encode_partial(&partial);
                    (partial, bytes)
                });
                let bytes = match built {
                    Some((partial, bytes)) => {
                        handle.store_partial(plan_fp, digest, partial);
                        bytes
                    }
                    // Our view lacks that segment (corpus changed under
                    // us): an empty Partial tells the coordinator to
                    // build it locally.
                    None => Vec::new(),
                };
                out.send(Frame::Partial { digest, bytes }).ok();
            }
            Work::Push(digest, bytes) => {
                // A prebuilt partial from the coordinator; a block that
                // fails to decode is simply not cached (we rebuild from
                // the tree during Build instead).
                if let Ok(partial) = xfd_relation::decode_partial(&bytes, &map, &config.encode) {
                    handle.store_partial(plan_fp, digest, partial);
                }
            }
            Work::Build(digests) => {
                if digests != handle.doc_digests() {
                    // Different document view — our forest could never
                    // match. Ack with fingerprint 0 so the coordinator
                    // drops us instead of waiting.
                    out.send(Frame::ForestAck { forest_fp: 0 }).ok();
                    continue;
                }
                let p = handle.merged_forest(config, plan);
                let my_fp = forest_fingerprint(p.forest());
                prepared = Some(p);
                out.send(Frame::ForestAck { forest_fp: my_fp }).ok();
            }
            Work::Pass(task_id, config_bytes, bytes) => {
                if exit_after.is_some_and(|limit| *passes_done >= limit) {
                    // Fault injection: die hard with the task unanswered,
                    // exactly like a crash mid-pass.
                    std::process::exit(9);
                }
                *passes_done += 1;
                if pass_config.as_ref().is_none_or(|(b, _)| *b != config_bytes) {
                    pass_config = decode_config(&config_bytes).ok().map(|c| (config_bytes, c));
                }
                let task = WaveTask::decode_bytes(&bytes);
                let output = match (task, prepared.as_ref(), pass_config.as_ref()) {
                    (Ok(task), Some(p), Some((_, pass))) if task_in_bounds(p.forest(), &task) => {
                        run_task(p.forest(), pass, &task)
                    }
                    // No forest yet, or an undecodable configuration or
                    // task, or one out of range: an empty answer routes
                    // it back to local compute.
                    _ => Vec::new(),
                };
                out.send(Frame::TaskResult { task_id, output }).ok();
            }
        }
    }
    admitted
}
