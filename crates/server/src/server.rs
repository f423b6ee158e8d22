//! The discovery daemon: listener, router, worker pool, and shutdown.
//!
//! Request flow for `POST /v1/discover` and `POST /v1/jobs`:
//!
//! 1. the connection thread parses the head, builds a [`DiscoveryConfig`]
//!    from query parameters, and streams the body through a digesting
//!    reader straight into the incremental XML parser — the raw document is
//!    never buffered whole;
//! 2. the content digest (config fingerprint + body bytes) is checked
//!    against the result cache; a hit answers immediately (`X-Cache: hit`);
//! 3. on a miss, a job is registered and pushed onto the bounded queue; a
//!    full queue sheds the request with `503` + `Retry-After` instead of
//!    buffering unbounded work;
//! 4. worker threads pop jobs, run `core::driver` discovery (panics are
//!    contained per job), render the JSON report once, and publish it to
//!    the cache, the job table, and the metrics registry.
//!
//! Connections speak HTTP/1.1 keep-alive: one connection serves up to
//! [`ServerConfig::keep_alive_max_requests`] requests, closing after an
//! idle gap of [`ServerConfig::keep_alive_timeout`] or on
//! `Connection: close`.
//!
//! When started with a corpus root, `/v1/corpora/{name}` endpoints manage
//! named persistent corpora ([`xfd_corpus`]) and run *incremental*
//! discovery over them; `POST .../discover` with
//! `Accept: application/x-ndjson` streams one progress line per relation.
//!
//! Shutdown (SIGTERM/SIGINT or [`ServerHandle::shutdown`]) stops the
//! accept loop, closes the queue — which rejects new work but lets workers
//! drain what is already queued — and joins every thread before `run`
//! returns.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use discoverxfd::report::render_json;
use discoverxfd::{discover, DiscoveryConfig};
use xfd_corpus::{validate_name, CorpusError, CorpusHandle, CorpusStore};
use xfd_xml::parse_reader;

use crate::digest::{format_digest, parse_digest, ContentDigest, DigestReader};
use crate::http::{json_escape, read_request, HttpError, Limits, Request, Response};
use crate::jobs::{JobStatus, JobTable};
use crate::metrics::{GaugeSnapshot, Metrics};
use crate::queue::{JobQueue, PushError};
use crate::rescache::ResultCache;
use crate::sync::lock_recover;

/// Global flag set by the signal handler; polled by every accept loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: set a flag, nothing else.
    SIGNALLED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
}

/// Route SIGTERM and SIGINT into a graceful drain. Call once from the
/// binary before [`Server::run`]; in-process test servers skip this and
/// use [`ServerHandle::shutdown`] instead.
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the libc prototype declared above; `on_signal` is
    // `extern "C"`, never unwinds, and only performs the async-signal-safe
    // store of an `AtomicBool`. Called once, before any thread is spawned.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7700` (port `0` picks an ephemeral
    /// port; see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads running discovery; `0` = one per available core.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it get `503`.
    pub queue_depth: usize,
    /// Byte budget of the rendered-report cache.
    pub result_cache_budget: usize,
    /// Largest accepted request body.
    pub max_body_bytes: u64,
    /// Bodies up to this size are spilled into a buffer and digested
    /// *before* XML parsing, so result-cache hits skip the parse entirely;
    /// larger bodies keep the streaming parse-while-digesting path.
    pub spill_buffer_bytes: u64,
    /// Deadline for synchronous `/v1/discover` requests; slower runs get
    /// `504` with a job id to poll.
    pub request_timeout: Duration,
    /// Requests served over one keep-alive connection before it closes.
    pub keep_alive_max_requests: usize,
    /// Idle time allowed between requests on a keep-alive connection.
    pub keep_alive_timeout: Duration,
    /// Root directory of named corpora; `None` disables `/v1/corpora`.
    pub corpus_root: Option<PathBuf>,
    /// Cluster workers for corpus discovery; `0` keeps it in-process.
    /// When set, `POST /v1/corpora/{name}/discover` runs through the
    /// coordinator/worker subsystem (same report bytes), falling back to
    /// in-process discovery if the cluster cannot be set up.
    pub cluster_workers: usize,
    /// Remote worker addresses (`host:port`) to join into the cluster;
    /// combined with `cluster_workers` local subprocesses.
    pub cluster_remote: Vec<String>,
    /// Shared-secret token for cluster handshakes (must match the
    /// `--token` every remote worker was started with).
    pub cluster_token: String,
    /// How long an unused warm pool entry keeps its workers alive before
    /// the janitor reaps them.
    pub pool_idle: Duration,
    /// Base discovery configuration; query parameters override per request.
    pub discovery: DiscoveryConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7700".into(),
            workers: 0,
            queue_depth: 64,
            result_cache_budget: 32 << 20,
            max_body_bytes: 64 << 20,
            spill_buffer_bytes: 8 << 20,
            request_timeout: Duration::from_secs(30),
            keep_alive_max_requests: 100,
            keep_alive_timeout: Duration::from_secs(5),
            corpus_root: None,
            cluster_workers: 0,
            cluster_remote: Vec::new(),
            cluster_token: String::new(),
            pool_idle: Duration::from_secs(120),
            discovery: DiscoveryConfig::default(),
        }
    }
}

/// A unit of discovery work flowing from connection threads to workers.
struct Job {
    id: u64,
    digest: u128,
    tree: xfd_xml::DataTree,
    config: DiscoveryConfig,
}

/// Lazily-opened corpus handles keyed by name. The registry `handles` map
/// lock is held only for lookups, inserts, and evictions; each handle
/// carries its *own* mutex that serializes ingest and discovery on that
/// corpus (both mutate the per-corpus memo state), so a long discovery on
/// one corpus never blocks requests for another.
///
/// Lock order (enforced by xfdlint's `lock_discipline.order`): the
/// registry map lock may wrap a per-corpus acquisition, never the reverse.
///
/// A per-corpus mutex poisons when a worker panics mid-operation — the
/// in-memory docs/memo may then be torn, so the handle is *evicted* and
/// the next request reopens it from the durable manifest + WAL
/// ([`CorpusError::Poisoned`], surfaced as a retryable 503).
struct CorpusRegistry {
    store: CorpusStore,
    handles: Mutex<HashMap<String, Arc<Mutex<CorpusHandle>>>>,
}

impl CorpusRegistry {
    /// Get (or open and cache) the shared handle for `name`.
    fn shared_handle(&self, name: &str) -> Result<Arc<Mutex<CorpusHandle>>, CorpusError> {
        let mut handles = lock_recover(&self.handles);
        if let Some(handle) = handles.get(name) {
            return Ok(Arc::clone(handle));
        }
        // xfdlint:allow(lock_discipline, reason = "open() must run under the registry lock so two racing requests cannot double-open one corpus WAL; every other registry critical section is map-only")
        let handle = Arc::new(Mutex::new(self.store.open(name)?));
        handles.insert(name.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    /// Run `f` on the (possibly freshly opened) handle for `name`.
    fn with_handle<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut CorpusHandle) -> T,
    ) -> Result<T, CorpusError> {
        let handle = self.shared_handle(name)?;
        let mut guard = match handle.lock() {
            Ok(guard) => guard,
            // xfdlint:allow(lock_discipline, reason = "poisoned arm: lock() failed, so no guard on `handle` is actually live when the registry lock is taken")
            Err(_) => return Err(self.evict_poisoned(name)),
        };
        Ok(f(&mut guard))
    }

    /// A panic poisoned `name`'s handle mid-operation: its in-memory state
    /// may be torn, so drop it and let the next request reopen the corpus
    /// from the durable manifest + WAL.
    fn evict_poisoned(&self, name: &str) -> CorpusError {
        lock_recover(&self.handles).remove(name);
        CorpusError::Poisoned(name.to_string())
    }
}

struct ServerState {
    config: ServerConfig,
    queue: JobQueue<Job>,
    jobs: JobTable,
    cache: ResultCache,
    metrics: Metrics,
    corpus: Option<CorpusRegistry>,
    /// Warm cluster pool for corpus discovery; present when the server
    /// was configured with local cluster workers or remote addresses.
    pool: Option<xfd_cluster::WorkerPool>,
    shutdown: AtomicBool,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }

    fn gauges(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            queue_depth: self.queue.depth() as u64,
            queue_capacity: self.queue.capacity() as u64,
            jobs_inflight: self.jobs.inflight(),
            cache: self.cache.stats(),
            pool: self.pool.as_ref().map(|p| p.snapshot()).unwrap_or_default(),
        }
    }
}

/// Remote control for a running server (shut it down from another thread).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Ask the server to drain and exit; `run` returns once workers and
    /// connections have finished.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listener (nonblocking, so the accept loop can poll the
    /// shutdown flag) and set up queue, cache, job table, and metrics.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let corpus = match &config.corpus_root {
            Some(root) => {
                std::fs::create_dir_all(root)?;
                Some(CorpusRegistry {
                    store: CorpusStore::new(root),
                    handles: Mutex::new(HashMap::new()),
                })
            }
            None => None,
        };
        let pool = if config.cluster_workers > 0 || !config.cluster_remote.is_empty() {
            let opts = xfd_cluster::ClusterOptions {
                workers: config.cluster_workers,
                remote: config.cluster_remote.clone(),
                token: config.cluster_token.clone(),
                ..xfd_cluster::ClusterOptions::default()
            };
            Some(xfd_cluster::WorkerPool::new(opts, config.pool_idle))
        } else {
            None
        };
        let state = Arc::new(ServerState {
            queue: JobQueue::new(config.queue_depth),
            jobs: JobTable::new(),
            cache: ResultCache::new(config.result_cache_budget),
            metrics: Metrics::new(),
            corpus,
            pool,
            shutdown: AtomicBool::new(false),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The actual bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until shutdown is requested, then drain and join everything.
    pub fn run(self) -> std::io::Result<()> {
        let worker_count = if self.state.config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        } else {
            self.state.config.workers
        };
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let state = Arc::clone(&self.state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("xfd-worker-{i}"))
                    .spawn(move || worker_loop(&state))?,
            );
        }

        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut last_reap = Instant::now();
        while !self.state.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    connections.push(
                        std::thread::Builder::new()
                            .name("xfd-conn".into())
                            .spawn(move || handle_connection(&state, stream))?,
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    connections.retain(|c| !c.is_finished());
                    // Janitor: retire warm pool entries idle past their
                    // deadline, at most once a second.
                    if let Some(pool) = &self.state.pool {
                        if last_reap.elapsed() >= Duration::from_secs(1) {
                            pool.reap_idle();
                            last_reap = Instant::now();
                        }
                    }
                    // The poll interval is the idle-accept latency floor;
                    // 1 ms keeps tail latency flat at negligible idle cost.
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: no new connections or jobs; queued jobs still complete.
        self.state.queue.close();
        for c in connections {
            // xfdlint:allow(error_hygiene, reason = "join errs only for a thread that already panicked; drain must still reap the remaining threads")
            let _ = c.join();
        }
        for w in workers {
            // xfdlint:allow(error_hygiene, reason = "worker panics are contained by catch_unwind and counted in metrics; a join error here cannot carry new information")
            let _ = w.join();
        }
        if let Some(pool) = &self.state.pool {
            pool.shutdown_all();
        }
        Ok(())
    }
}

/// Worker: pop jobs until the queue closes and drains, containing any
/// panic from the discovery pipeline to the job that caused it.
fn worker_loop(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        state.jobs.mark_running(job.id);
        let run = catch_unwind(AssertUnwindSafe(|| {
            let outcome = discover(&job.tree, &job.config);
            let body = render_json(&outcome);
            (outcome, body)
        }));
        match run {
            Ok((outcome, body)) => {
                let body = Arc::new(body);
                state.metrics.observe_outcome(&outcome);
                state.cache.put(job.digest, Arc::clone(&body));
                state.jobs.mark_done(job.id, body);
                state.metrics.observe_job_finished("done");
            }
            Err(_) => {
                state.metrics.observe_worker_panic();
                state
                    .jobs
                    .mark_failed(job.id, "discovery panicked on this document".into());
                state.metrics.observe_job_finished("failed");
            }
        }
    }
}

/// Per-connection loop: parse a request, route it, write the response, and
/// reuse the connection (HTTP/1.1 keep-alive) until the client asks to
/// close, the per-connection request cap is reached, the idle timeout
/// expires, or the server starts draining.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    // xfdlint:allow(error_hygiene, reason = "set_write_timeout fails only for a zero duration, which ServerConfig cannot produce; a missing timeout degrades to blocking writes")
    let _ = stream.set_write_timeout(Some(state.config.request_timeout));
    let max_requests = state.config.keep_alive_max_requests.max(1);
    let mut served = 0usize;

    loop {
        // The first request gets the full request timeout; between
        // keep-alive requests the shorter idle timeout applies.
        let read_deadline = if served == 0 {
            state.config.request_timeout
        } else {
            state.config.keep_alive_timeout
        };
        // xfdlint:allow(error_hygiene, reason = "set_read_timeout fails only for a zero duration, which ServerConfig cannot produce; a missing timeout degrades to blocking reads")
        let _ = stream.set_read_timeout(Some(read_deadline));

        let request = match read_request(&mut reader, &Limits::default()) {
            Ok(request) => request,
            Err(HttpError::ConnectionClosed) => break,
            Err(HttpError::Io(ref e))
                if served > 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                // An idle keep-alive connection timed out: close quietly.
                break;
            }
            Err(e) => {
                let response = error_response(&e).with_close();
                state
                    .metrics
                    .observe_request("bad_request", response.status);
                // xfdlint:allow(error_hygiene, reason = "best-effort error reply to a client that already broke framing; the connection closes either way")
                let _ = response.write_to(&mut stream);
                break;
            }
        };
        // xfdlint:allow(error_hygiene, reason = "set_read_timeout fails only for a zero duration, which ServerConfig cannot produce; a missing timeout degrades to blocking reads")
        let _ = stream.set_read_timeout(Some(state.config.request_timeout));
        served += 1;

        // A chunked body is decoded off the wire up front (bounded by the
        // same byte cap as the Content-Length path); handlers then see it
        // as an ordinary length-delimited body.
        let mut request = request;
        let mut chunked_body: Option<std::io::Cursor<Vec<u8>>> = None;
        if request.chunked {
            match crate::http::read_chunked_body(
                &mut reader,
                state.config.max_body_bytes,
                &Limits::default(),
            ) {
                Ok(bytes) => {
                    request.content_length = Some(bytes.len() as u64);
                    chunked_body = Some(std::io::Cursor::new(bytes));
                }
                Err(e) => {
                    if matches!(e, HttpError::PayloadTooLarge(_)) {
                        state.metrics.observe_rejection("body_too_large");
                    }
                    let response = error_response(&e).with_close();
                    state
                        .metrics
                        .observe_request("bad_request", response.status);
                    // xfdlint:allow(error_hygiene, reason = "best-effort error reply on a connection whose body framing already failed; it closes either way")
                    let _ = response.write_to(&mut stream);
                    break;
                }
            }
        }

        let content_length = request.content_length.unwrap_or(0);
        let (routed, body_left_on_wire) = match chunked_body.as_mut() {
            // A decoded chunked body is already fully off the wire, so an
            // unread remainder cannot break keep-alive framing.
            Some(cursor) => (route(state, &request, cursor), false),
            None => {
                let mut body = reader.by_ref().take(content_length);
                let routed = route(state, &request, &mut body);
                let left = body.limit() > 0;
                (routed, left)
            }
        };
        match routed {
            Routed::Plain(endpoint, mut response) => {
                // Reuse requires the whole body consumed off the wire.
                // Handlers that reject early leave bytes behind, and
                // draining them could block on a slow client — close
                // instead of reading megabytes to save a reconnect.
                response.close = response.close
                    || body_left_on_wire
                    || !request.wants_keep_alive()
                    || served >= max_requests
                    || state.shutting_down();
                let close = response.close;
                state.metrics.observe_request(endpoint, response.status);
                if response.write_to(&mut stream).is_err() || close {
                    break;
                }
            }
            Routed::CorpusStream { corpus, config } => {
                let status = stream_corpus_discover(state, &corpus, &config, &mut stream);
                state
                    .metrics
                    .observe_request("/v1/corpora/{name}/discover", status);
                // A streamed response carries no Content-Length; the
                // closed connection is the frame.
                break;
            }
        }
    }
    // xfdlint:allow(error_hygiene, reason = "best-effort FIN on a connection being dropped; the peer may already have closed")
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn error_response(e: &HttpError) -> Response {
    let status = match e {
        HttpError::BadRequest(_) => 400,
        HttpError::UriTooLong => 414,
        HttpError::HeadersTooLarge => 431,
        HttpError::NotImplemented(_) => 501,
        HttpError::PayloadTooLarge(_) => 413,
        HttpError::ConnectionClosed => 400,
        HttpError::Io(ioe) if ioe.kind() == std::io::ErrorKind::WouldBlock => 408,
        HttpError::Io(ioe) if ioe.kind() == std::io::ErrorKind::TimedOut => 408,
        HttpError::Io(_) => 400,
    };
    Response::error(status, &e.to_string())
}

/// What the router decided. Streaming responses are executed by the
/// connection loop, which owns the raw stream.
enum Routed {
    /// A buffered response plus its metrics endpoint label.
    Plain(&'static str, Response),
    /// Stream NDJSON discovery progress for a corpus.
    CorpusStream {
        corpus: String,
        config: DiscoveryConfig,
    },
}

impl Routed {
    fn plain(endpoint: &'static str, response: Response) -> Routed {
        Routed::Plain(endpoint, response)
    }
}

/// Dispatch on method + path.
fn route(state: &ServerState, request: &Request, body: &mut impl Read) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Routed::plain(
            "/healthz",
            Response::json(200, "{\"status\": \"ok\"}\n".as_bytes().to_vec()),
        ),
        ("GET", "/metrics") => Routed::plain(
            "/metrics",
            Response::text(200, state.metrics.render(&state.gauges()).into_bytes()),
        ),
        ("POST", "/v1/discover") => {
            Routed::plain("/v1/discover", discover_sync(state, request, body))
        }
        ("POST", "/v1/jobs") => Routed::plain("/v1/jobs", submit_job(state, request, body)),
        ("GET", path) if path.starts_with("/v1/jobs/") => Routed::plain(
            "/v1/jobs/{id}",
            job_status(state, path.strip_prefix("/v1/jobs/").unwrap_or(path)),
        ),
        ("GET", path) if path.starts_with("/v1/results/") => Routed::plain(
            "/v1/results/{digest}",
            result_lookup(state, path.strip_prefix("/v1/results/").unwrap_or(path)),
        ),
        (_, path) if path.starts_with("/v1/corpora/") => route_corpus(state, request, body),
        (_, "/healthz") | (_, "/metrics") => Routed::plain(
            "method_not_allowed",
            Response::error(405, "method not allowed").with_header("Allow", "GET"),
        ),
        (_, "/v1/discover") | (_, "/v1/jobs") => Routed::plain(
            "method_not_allowed",
            Response::error(405, "method not allowed").with_header("Allow", "POST"),
        ),
        (_, path) if path.starts_with("/v1/jobs/") || path.starts_with("/v1/results/") => {
            Routed::plain(
                "method_not_allowed",
                Response::error(405, "method not allowed").with_header("Allow", "GET"),
            )
        }
        _ => Routed::plain("not_found", Response::error(404, "no such endpoint")),
    }
}

/// Routes under `/v1/corpora/{name}`: corpus lifecycle, document ingest,
/// and incremental discovery. Names are validated *before* any filesystem
/// access — traversal-shaped names never reach a path join.
fn route_corpus(state: &ServerState, request: &Request, body: &mut impl Read) -> Routed {
    let Some(rest) = request.path.strip_prefix("/v1/corpora/") else {
        // route() only dispatches here for matching prefixes.
        return Routed::plain("not_found", Response::error(404, "no such endpoint"));
    };
    let (name, tail) = match rest.split_once('/') {
        Some((n, t)) => (n, Some(t)),
        None => (rest, None),
    };
    if let Err(e) = validate_name(name) {
        return Routed::plain(
            "/v1/corpora/{name}",
            Response::error(400, &format!("bad corpus name: {e}")),
        );
    }
    let Some(registry) = &state.corpus else {
        return Routed::plain(
            "/v1/corpora/{name}",
            Response::error(
                503,
                "corpus store disabled (start the server with --corpus-root)",
            ),
        );
    };
    match (request.method.as_str(), tail) {
        ("PUT", None) => Routed::plain("/v1/corpora/{name}", corpus_create(registry, name)),
        ("GET", None) => Routed::plain("/v1/corpora/{name}", corpus_status(state, registry, name)),
        ("DELETE", None) => Routed::plain("/v1/corpora/{name}", corpus_delete(registry, name)),
        ("POST", Some("docs")) => Routed::plain(
            "/v1/corpora/{name}/docs",
            corpus_add_doc(state, registry, name, request, body),
        ),
        ("DELETE", Some(t)) if t.starts_with("docs/") => Routed::plain(
            "/v1/corpora/{name}/docs/{doc}",
            corpus_remove_doc(registry, name, t.strip_prefix("docs/").unwrap_or(t)),
        ),
        ("POST", Some("discover")) => {
            let (config, fingerprint) = match config_from_query(&state.config.discovery, request) {
                Ok(pair) => pair,
                Err(message) => {
                    return Routed::plain(
                        "/v1/corpora/{name}/discover",
                        Response::error(400, &message),
                    )
                }
            };
            let ndjson = request
                .header("accept")
                .is_some_and(|a| a.contains("application/x-ndjson"));
            if ndjson {
                Routed::CorpusStream {
                    corpus: name.to_string(),
                    config,
                }
            } else {
                Routed::plain(
                    "/v1/corpora/{name}/discover",
                    corpus_discover(state, registry, name, &config, &fingerprint),
                )
            }
        }
        (_, None) => Routed::plain(
            "method_not_allowed",
            Response::error(405, "method not allowed").with_header("Allow", "GET, PUT, DELETE"),
        ),
        (_, Some("docs")) | (_, Some("discover")) => Routed::plain(
            "method_not_allowed",
            Response::error(405, "method not allowed").with_header("Allow", "POST"),
        ),
        _ => Routed::plain("not_found", Response::error(404, "no such corpus endpoint")),
    }
}

/// Map a corpus error onto an HTTP status.
fn corpus_error_response(e: &CorpusError) -> Response {
    let status = match e {
        CorpusError::BadName(_) => 400,
        CorpusError::CorpusNotFound(_) | CorpusError::DocNotFound(_) => 404,
        CorpusError::CorpusExists(_) | CorpusError::DocExists(_) => 409,
        // The poisoned handle was evicted; the next attempt reopens from
        // disk, so tell the client the condition is temporary.
        CorpusError::Poisoned(_) => 503,
        _ => 500,
    };
    let response = Response::error(status, &e.to_string());
    if matches!(e, CorpusError::Poisoned(_)) {
        response.with_header("Retry-After", "1")
    } else {
        response
    }
}

/// `PUT /v1/corpora/{name}`.
fn corpus_create(registry: &CorpusRegistry, name: &str) -> Response {
    match registry.store.create(name) {
        Ok(handle) => {
            let body = format!("{{\"corpus\": \"{}\", \"docs\": 0}}\n", json_escape(name));
            lock_recover(&registry.handles).insert(name.to_string(), Arc::new(Mutex::new(handle)));
            Response::json(201, body)
        }
        Err(e) => corpus_error_response(&e),
    }
}

/// `GET /v1/corpora/{name}`.
fn corpus_status(state: &ServerState, registry: &CorpusRegistry, name: &str) -> Response {
    let pool = state.pool.as_ref().map(|p| p.snapshot());
    match registry.with_handle(name, |h| render_corpus_status(&h.status(), pool)) {
        Ok(body) => Response::json(200, body),
        Err(e) => corpus_error_response(&e),
    }
}

fn render_corpus_status(
    status: &xfd_corpus::CorpusStatus,
    pool: Option<xfd_cluster::PoolSnapshot>,
) -> String {
    let mut out = format!(
        "{{\"corpus\": \"{}\", \"segment_bytes\": {}, \"forest_cached\": {}, \"memo\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"resident_bytes\": {}}}, \"kernel\": {{\"products_error_only\": {}, \"products_materialized\": {}, \"early_exits\": {}, \"summary_hits\": {}}}, \"docs\": [",
        json_escape(&status.name),
        status.segment_bytes,
        status.forest_cached,
        status.memo_entries,
        status.memo_hits,
        status.memo_misses,
        status.memo_evictions,
        status.memo_resident_bytes,
        status.kernel_products_error_only,
        status.kernel_products_materialized,
        status.kernel_early_exits,
        status.kernel_summary_hits,
    );
    for (i, (name, digest, nodes)) in status.docs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"digest\": \"{digest}\", \"nodes\": {nodes}}}",
            json_escape(name)
        ));
    }
    out.push(']');
    if let Some(p) = pool {
        out.push_str(&format!(
            ", \"pool\": {{\"warm_workers\": {}, \"spawning\": {}, \"reaped\": {}, \"warm_hits\": {}, \"segments_shipped_bytes\": {}}}",
            p.warm_workers, p.spawning, p.reaped_total, p.warm_hits_total, p.segments_shipped_bytes,
        ));
    }
    out.push_str("}\n");
    out
}

/// `DELETE /v1/corpora/{name}`.
fn corpus_delete(registry: &CorpusRegistry, name: &str) -> Response {
    // Hold the registry lock across the delete so a concurrent request
    // cannot reopen the corpus between eviction and directory removal.
    let mut handles = lock_recover(&registry.handles);
    handles.remove(name);
    // xfdlint:allow(lock_discipline, reason = "delete must run under the registry lock to fence concurrent reopen between eviction and directory removal")
    match registry.store.delete(name) {
        Ok(()) => Response::json(200, format!("{{\"deleted\": \"{}\"}}\n", json_escape(name))),
        Err(e) => corpus_error_response(&e),
    }
}

/// `POST /v1/corpora/{name}/docs?name={doc}`: ingest one XML document.
fn corpus_add_doc(
    state: &ServerState,
    registry: &CorpusRegistry,
    corpus: &str,
    request: &Request,
    body: &mut impl Read,
) -> Response {
    let Some(doc_name) = request.query_param("name") else {
        return Response::error(400, "missing ?name= query parameter for the document");
    };
    if let Err(e) = validate_name(doc_name) {
        return Response::error(400, &format!("bad document name: {e}"));
    }
    let Some(content_length) = request.content_length else {
        return Response::error(411, "Content-Length is required");
    };
    if content_length > state.config.max_body_bytes {
        state.metrics.observe_rejection("body_too_large");
        return Response::error(
            413,
            &format!(
                "body of {content_length} bytes exceeds the {} byte limit",
                state.config.max_body_bytes
            ),
        );
    }
    let tree = match parse_reader(&mut body.take(content_length)) {
        Ok(tree) => tree,
        Err(e) => return Response::error(400, &format!("invalid XML: {e}")),
    };
    let doc_name = doc_name.to_string();
    match registry.with_handle(corpus, move |h| {
        h.add_doc(&doc_name, &tree).map(|()| h.len())
    }) {
        Ok(Ok(docs)) => Response::json(
            201,
            format!(
                "{{\"corpus\": \"{}\", \"docs\": {docs}}}\n",
                json_escape(corpus)
            ),
        ),
        Ok(Err(e)) | Err(e) => corpus_error_response(&e),
    }
}

/// `DELETE /v1/corpora/{name}/docs/{doc}`.
fn corpus_remove_doc(registry: &CorpusRegistry, corpus: &str, doc: &str) -> Response {
    if let Err(e) = validate_name(doc) {
        return Response::error(400, &format!("bad document name: {e}"));
    }
    match registry.with_handle(corpus, |h| h.remove_doc(doc).map(|()| h.len())) {
        Ok(Ok(docs)) => Response::json(
            200,
            format!(
                "{{\"corpus\": \"{}\", \"docs\": {docs}}}\n",
                json_escape(corpus)
            ),
        ),
        Ok(Err(e)) | Err(e) => corpus_error_response(&e),
    }
}

/// `POST /v1/corpora/{name}/discover`: run memoized discovery over the
/// merged corpus and return the full JSON report.
///
/// The result cache is consulted *first*, keyed by the config
/// fingerprint plus the corpus name and its document content digests —
/// a hit answers with `X-Cache: hit` before any plan derivation or
/// cluster setup happens. On a miss, a configured worker pool runs the
/// discovery over warm cluster workers (same report bytes), with an
/// in-process fallback when the cluster cannot be set up (spawn
/// failure, plan mismatch, auth failure).
fn corpus_discover(
    state: &ServerState,
    registry: &CorpusRegistry,
    corpus: &str,
    config: &DiscoveryConfig,
    fingerprint: &str,
) -> Response {
    match registry.with_handle(corpus, |h| {
        let mut seed = ContentDigest::new();
        seed.update(fingerprint.as_bytes());
        seed.update(corpus.as_bytes());
        for d in h.doc_digests() {
            seed.update(&d.to_le_bytes());
        }
        let digest = seed.finish();
        if let Some(body) = state.cache.get(digest) {
            return (h.len(), None, Some(body));
        }
        let outcome = if let Some(pool) = &state.pool {
            match pool.discover(h, config) {
                Ok(run) => {
                    state.metrics.observe_cluster(&run.stats);
                    run.outcome
                }
                Err(_) => {
                    state.metrics.observe_cluster_fallback();
                    h.discover(config)
                }
            }
        } else {
            h.discover(config)
        };
        let body = Arc::new(render_json(&outcome));
        state.cache.put(digest, Arc::clone(&body));
        (h.len(), Some(outcome), Some(body))
    }) {
        Ok((docs, Some(outcome), Some(body))) => {
            state.metrics.observe_outcome(&outcome);
            Response::json(200, body.as_bytes().to_vec())
                .with_header("X-Cache", "miss")
                .with_header("X-Corpus-Docs", &docs.to_string())
        }
        Ok((docs, None, Some(body))) => Response::json(200, body.as_bytes().to_vec())
            .with_header("X-Cache", "hit")
            .with_header("X-Corpus-Docs", &docs.to_string()),
        // The closure always returns a body alongside either branch.
        Ok((docs, _, None)) => Response::error(500, &format!("internal: no report ({docs} docs)")),
        Err(e) => corpus_error_response(&e),
    }
}

/// Best-effort write + flush of one streaming chunk. A failed write means
/// the peer went away mid-stream; discovery still runs to completion so
/// the memo state commits, so the error is deliberately dropped.
fn send_best_effort(stream: &mut TcpStream, bytes: &[u8]) {
    // xfdlint:allow(error_hygiene, reason = "peer disconnect mid-stream is expected; discovery must still complete so the corpus memo commits")
    let _ = stream.write_all(bytes).and_then(|()| stream.flush());
}

/// Best-effort write of a full (error) response on a streaming connection,
/// which closes right after either way.
fn send_response_best_effort(stream: &mut TcpStream, response: Response) {
    // xfdlint:allow(error_hygiene, reason = "the error reply on a streaming connection is a courtesy; the close itself is the signal the client acts on")
    let _ = response.write_to(stream);
}

/// `POST /v1/corpora/{name}/discover` with `Accept: application/x-ndjson`:
/// write one JSON line per relation as the memoized discovery visits it,
/// then a summary line. Returns the status code for metrics.
///
/// Only this corpus's own lock is held while streaming — requests for
/// other corpora (and the registry map itself) stay unblocked for the
/// duration of the discovery.
fn stream_corpus_discover(
    state: &ServerState,
    corpus: &str,
    config: &DiscoveryConfig,
    stream: &mut TcpStream,
) -> u16 {
    let Some(registry) = &state.corpus else {
        // Unreachable in practice: the router only streams with a registry.
        send_response_best_effort(
            stream,
            Response::error(503, "corpus store disabled").with_close(),
        );
        return 503;
    };
    let handle = match registry.shared_handle(corpus) {
        Ok(handle) => handle,
        Err(e) => {
            let response = corpus_error_response(&e).with_close();
            let status = response.status;
            send_response_best_effort(stream, response);
            return status;
        }
    };
    let mut guard = match handle.lock() {
        Ok(guard) => guard,
        Err(_) => {
            // xfdlint:allow(lock_discipline, reason = "poisoned arm: lock() failed, so no guard on `handle` is actually live during eviction")
            let response = corpus_error_response(&registry.evict_poisoned(corpus)).with_close();
            let status = response.status;
            // xfdlint:allow(lock_discipline, reason = "poisoned arm: lock() failed, so the error response is not written under a live guard")
            send_response_best_effort(stream, response);
            return status;
        }
    };
    // xfdlint:allow(lock_discipline, reason = "streaming endpoint: the NDJSON header is written while discovery holds the per-corpus handle by design")
    send_best_effort(
        stream,
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    );
    let sink = &mut *stream;
    let outcome = guard.discover_with_progress(config, |p| {
        let line = format!(
            "{{\"relation\": \"{}\", \"depth\": {}, \"cached\": {}, \"fds\": {}, \"keys\": {}, \"inter_fds\": {}, \"inter_keys\": {}}}\n",
            json_escape(p.name),
            p.depth,
            p.cached,
            p.fds,
            p.keys,
            p.inter_fds,
            p.inter_keys,
        );
        // xfdlint:allow(lock_discipline, reason = "streaming endpoint: progress lines are written while discovery holds the per-corpus handle by design")
        send_best_effort(sink, line.as_bytes());
    });
    state.metrics.observe_outcome(&outcome);
    let status = guard.status();
    let summary = format!(
        "{{\"done\": true, \"docs\": {}, \"fds\": {}, \"keys\": {}, \"redundancies\": {}, \"memo_hits\": {}, \"memo_misses\": {}}}\n",
        guard.len(),
        outcome.report.fds.len(),
        outcome.report.keys.len(),
        outcome.report.redundancies.len(),
        status.memo_hits,
        status.memo_misses,
    );
    // xfdlint:allow(lock_discipline, reason = "streaming endpoint: the summary line is written while discovery holds the per-corpus handle by design")
    send_best_effort(stream, summary.as_bytes());
    200
}

/// Parse the per-request discovery configuration from query parameters and
/// render the canonical fingerprint that goes into the content digest.
fn config_from_query(
    base: &DiscoveryConfig,
    request: &Request,
) -> Result<(DiscoveryConfig, String), String> {
    use xfd_relation::{OrderMode, SetColumnMode};

    let mut config = base.clone();
    for (key, value) in &request.query {
        match key.as_str() {
            "max-lhs" => {
                config.max_lhs_size = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("max-lhs: expected an integer, got {value:?}"))?,
                );
            }
            "inter" => config.inter_relation = parse_bool(key, value)?,
            "keep-uninteresting" => config.keep_uninteresting = parse_bool(key, value)?,
            "cache-budget" => {
                config.cache_budget = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("cache-budget: expected bytes, got {value:?}"))?,
                );
            }
            "threads" => {
                let threads = value
                    .parse::<usize>()
                    .map_err(|_| format!("threads: expected an integer, got {value:?}"))?;
                // Same convention as the CLI: 1 = sequential, 0 = auto.
                config.threads = threads;
            }
            "sets" => {
                config.encode.set_columns = if parse_bool(key, value)? {
                    SetColumnMode::All
                } else {
                    SetColumnMode::None
                };
            }
            "ordered" => {
                config.encode.order = if parse_bool(key, value)? {
                    OrderMode::Ordered
                } else {
                    OrderMode::Unordered
                };
            }
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    let fingerprint = format!(
        "cfg1|max_lhs={:?}|inter={}|keep={}|budget={:?}|threads={}|encode={:?}|prune=({},{},{})|targets={}|empty={}",
        config.max_lhs_size,
        config.inter_relation,
        config.keep_uninteresting,
        config.cache_budget,
        config.threads,
        config.encode,
        config.prune.rule1,
        config.prune.rule2,
        config.prune.key_prune,
        config.max_partition_targets,
        config.empty_lhs,
    );
    Ok((config, fingerprint))
}

fn parse_bool(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "true" | "1" => Ok(true),
        "false" | "0" => Ok(false),
        other => Err(format!("{key}: expected true/false, got {other:?}")),
    }
}

/// Outcome of the shared intake path (config, digest, parse, cache, push).
enum Intake {
    /// The digest was already cached.
    CacheHit { digest: u128, body: Arc<String> },
    /// A job was accepted onto the queue.
    Enqueued { id: u64, digest: u128 },
    /// The request was answered early (error or backpressure).
    Rejected(Response),
}

/// Everything `POST /v1/discover` and `POST /v1/jobs` share: validate the
/// body frame, stream-parse while digesting, consult the cache, enqueue.
fn intake(state: &ServerState, request: &Request, body: &mut impl Read) -> Intake {
    if state.shutting_down() {
        return Intake::Rejected(
            Response::error(503, "server is draining").with_header("Retry-After", "5"),
        );
    }
    let (config, fingerprint) = match config_from_query(&state.config.discovery, request) {
        Ok(pair) => pair,
        Err(message) => return Intake::Rejected(Response::error(400, &message)),
    };
    let Some(content_length) = request.content_length else {
        return Intake::Rejected(Response::error(
            411,
            "Content-Length is required (chunked bodies are not supported)",
        ));
    };
    if content_length > state.config.max_body_bytes {
        state.metrics.observe_rejection("body_too_large");
        return Intake::Rejected(Response::error(
            413,
            &format!(
                "body of {content_length} bytes exceeds the {} byte limit",
                state.config.max_body_bytes
            ),
        ));
    }

    let mut seed = ContentDigest::new();
    seed.update(fingerprint.as_bytes());

    // Small bodies spill into a bounded buffer and are digested *before*
    // any XML parsing, so a result-cache hit never touches the parser.
    // Bodies past the spill cap keep the streaming path: digest config +
    // bytes as they flow into the parser, never buffering the document.
    let tree;
    let digest;
    if content_length <= state.config.spill_buffer_bytes {
        let mut buf = Vec::with_capacity(content_length as usize);
        if let Err(e) = body.take(content_length).read_to_end(&mut buf) {
            return Intake::Rejected(Response::error(400, &format!("body read failed: {e}")));
        }
        if (buf.len() as u64) < content_length {
            return Intake::Rejected(Response::error(400, "body shorter than Content-Length"));
        }
        seed.update(&buf);
        digest = seed.finish();
        if let Some(cached) = state.cache.get(digest) {
            state.metrics.observe_parse_free_hit();
            return Intake::CacheHit {
                digest,
                body: cached,
            };
        }
        tree = match parse_reader(&mut buf.as_slice()) {
            Ok(tree) => tree,
            Err(e) => {
                return Intake::Rejected(Response::error(400, &format!("invalid XML: {e}")));
            }
        };
    } else {
        let mut digesting = DigestReader::with_seed(body.take(content_length), seed);
        tree = match parse_reader(&mut digesting) {
            Ok(tree) => tree,
            Err(e) => {
                return Intake::Rejected(Response::error(400, &format!("invalid XML: {e}")));
            }
        };
        if digesting.digest().len() != fingerprint.len() as u64 + content_length {
            // The parser stopped before the advertised end (trailing
            // garbage is a parse error, so this means a short body).
            return Intake::Rejected(Response::error(400, "body shorter than Content-Length"));
        }
        digest = digesting.digest().finish();
        if let Some(cached) = state.cache.get(digest) {
            return Intake::CacheHit {
                digest,
                body: cached,
            };
        }
    }

    let id = state.jobs.create(digest);
    match state.queue.try_push(Job {
        id,
        digest,
        tree,
        config,
    }) {
        Ok(()) => Intake::Enqueued { id, digest },
        Err(PushError::Full) => {
            state.metrics.observe_rejection("queue_full");
            state.jobs.mark_failed(id, "shed by backpressure".into());
            Intake::Rejected(
                Response::error(503, "queue full, retry shortly").with_header("Retry-After", "1"),
            )
        }
        Err(PushError::Closed) => Intake::Rejected(
            Response::error(503, "server is draining").with_header("Retry-After", "5"),
        ),
    }
}

/// `POST /v1/discover`: block until the report is ready (or time out with
/// a pollable job id).
fn discover_sync(state: &ServerState, request: &Request, body: &mut impl Read) -> Response {
    let (id, digest) = match intake(state, request, body) {
        Intake::CacheHit { body, .. } => {
            return Response::json(200, body.as_bytes().to_vec()).with_header("X-Cache", "hit");
        }
        Intake::Enqueued { id, digest } => (id, digest),
        Intake::Rejected(response) => return response,
    };
    let deadline = Instant::now() + state.config.request_timeout;
    match state.jobs.wait_finished(id, deadline) {
        Some(job) => match job.status {
            JobStatus::Done => match job.result {
                Some(body) => {
                    Response::json(200, body.as_bytes().to_vec()).with_header("X-Cache", "miss")
                }
                // A done job always carries its body; surface a table bug
                // as a 500 instead of panicking the connection thread.
                None => Response::error(500, "internal error: finished job lost its result"),
            },
            JobStatus::Failed(message) => Response::error(500, &message),
            // wait_finished only returns finished jobs; anything else is a
            // job-table bug, answered rather than panicked on.
            _ => Response::error(500, "internal error: job in unexpected state"),
        },
        None => {
            state.metrics.observe_rejection("timeout");
            Response::json(
                504,
                format!(
                    "{{\"error\": \"discovery exceeded the request deadline\", \"job\": {id}, \"poll\": \"/v1/jobs/{id}\", \"result\": \"/v1/results/{}\"}}\n",
                    format_digest(digest)
                ),
            )
        }
    }
}

/// `POST /v1/jobs`: accept and return immediately with polling URLs. A
/// cache hit still materializes a (finished) job so clients can treat both
/// paths uniformly.
fn submit_job(state: &ServerState, request: &Request, body: &mut impl Read) -> Response {
    let (id, digest) = match intake(state, request, body) {
        Intake::CacheHit { digest, body } => {
            let id = state.jobs.create(digest);
            state.jobs.mark_done(id, body);
            (id, digest)
        }
        Intake::Enqueued { id, digest } => (id, digest),
        Intake::Rejected(response) => return response,
    };
    Response::json(
        202,
        format!(
            "{{\"job\": {id}, \"status\": \"{}\", \"poll\": \"/v1/jobs/{id}\", \"result\": \"/v1/results/{}\"}}\n",
            state
                .jobs
                .get(id)
                .map(|j| j.status.name())
                .unwrap_or("queued"),
            format_digest(digest)
        ),
    )
}

/// `GET /v1/jobs/{id}`.
fn job_status(state: &ServerState, id_text: &str) -> Response {
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("malformed job id {id_text:?}"));
    };
    match state.jobs.get(id) {
        Some(job) => Response::json(200, job.render_json().into_bytes()),
        None => Response::error(404, "no such job (finished jobs are pruned eventually)"),
    }
}

/// `GET /v1/results/{digest}`.
fn result_lookup(state: &ServerState, digest_text: &str) -> Response {
    let Some(digest) = parse_digest(digest_text) else {
        return Response::error(400, "malformed digest (expected 32 hex digits)");
    };
    match state.cache.get(digest) {
        Some(body) => Response::json(200, body.as_bytes().to_vec()).with_header("X-Cache", "hit"),
        None => Response::error(404, "result not cached (re-run discovery)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_registry(tag: &str) -> CorpusRegistry {
        let root =
            std::env::temp_dir().join(format!("xfd-server-registry-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        CorpusRegistry {
            store: CorpusStore::new(root),
            handles: Mutex::new(HashMap::new()),
        }
    }

    #[test]
    fn poisoned_corpus_handle_is_evicted_and_reopens_from_disk() {
        let registry = tmp_registry("poison");
        let mut handle = registry.store.create("c").unwrap();
        let tree = xfd_xml::parse("<a><b><x>1</x></b><b><x>1</x></b></a>").unwrap();
        handle.add_doc("d1", &tree).unwrap();
        drop(handle);

        // Panic a thread while it holds the per-corpus lock.
        let shared = registry.shared_handle("c").unwrap();
        let victim = Arc::clone(&shared);
        let worker = std::thread::spawn(move || {
            let _guard = victim.lock().unwrap();
            panic!("injected worker panic");
        });
        assert!(worker.join().is_err(), "worker must have panicked");

        // The next access reports the typed, retryable error and evicts.
        match registry.with_handle("c", |h| h.len()) {
            Err(CorpusError::Poisoned(name)) => assert_eq!(name, "c"),
            Err(other) => panic!("expected Poisoned, got {other}"),
            Ok(_) => panic!("poisoned handle served a request"),
        }

        // The retry reopens from the durable manifest: the document is back.
        let docs = registry
            .with_handle("c", |h| h.doc_names().join(","))
            .unwrap();
        assert_eq!(docs, "d1");
    }

    #[test]
    fn corpus_error_statuses_are_typed() {
        let poisoned = corpus_error_response(&CorpusError::Poisoned("c".into()));
        assert_eq!(poisoned.status, 503);
        assert!(
            poisoned
                .headers
                .iter()
                .any(|(k, v)| k == "Retry-After" && v == "1"),
            "poisoned-handle 503 must be marked retryable"
        );
        let missing = corpus_error_response(&CorpusError::CorpusNotFound("c".into()));
        assert_eq!(missing.status, 404);
        let corrupt = corpus_error_response(&CorpusError::Corrupt("seg".into()));
        assert_eq!(corrupt.status, 500);
    }
}
