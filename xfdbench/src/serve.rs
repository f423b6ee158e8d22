//! `serve-mix`: a `discoverxfd serve`-equivalent server in a subprocess,
//! driven over HTTP/1.1 keep-alive by an open loop of two sender
//! threads, one connection each.
//!
//! Each request posts one of 32 warehouse documents. With probability
//! 0.7 it repeats the document under the default configuration, which
//! the result cache answers once primed; otherwise it carries a
//! `cache-budget` never used before, which misses the cache and runs the
//! whole pipeline, yet yields the same report bytes. Requests are due on
//! a fixed schedule; latency counts from the due time, so a stall delays
//! the requests queued behind it too.
//!
//! The untraced run holds one rate for the whole run. The traced run
//! steps through [`RATE_STEPS`], a quarter of the run each, and reports
//! the highest rate whose p99 stays within [`SLO_P99_MS`].

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use discoverxfd::report::render_json;
use discoverxfd::{discover, DiscoveryConfig};
use xfd_datagen::{warehouse_scaled, WarehouseSpec};
use xfd_server::{Server, ServerConfig};
use xfd_xml::{parse_reader, to_xml_string};

use crate::metrics::{Failure, Metrics, RunResult, Tally, RATE_STEPS, SLO_P99_MS};
use crate::run::{
    ms, normalize_report, peak_rss_mb, repeated_setup, reset_peak_rss, set_trace_overhead, Ctx, Rng,
};
use crate::speed;
use crate::stats::percentile;
use crate::trace::Trace;

/// Documents the requests draw from.
const DOCS: usize = 32;
/// Chance that a request repeats a primed (document, configuration).
const REPEAT_P: f64 = 0.7;
/// Request rate of the untraced run.
const RATE: u32 = 20;
/// Senders, each with one keep-alive connection.
const SENDERS: usize = 2;
/// A sender this far behind its schedule abandons the rest of its step.
const MAX_LAG: Duration = Duration::from_secs(2);
/// A sender takes its speed probe this long before a request is due;
/// when it runs later than that, the request reuses the last probe.
const PROBE_LEAD: Duration = Duration::from_millis(8);
/// `cache-budget` values of cache-missing requests count up from here;
/// the budget is far above what one report needs, so nothing is evicted
/// and the report bytes stay those of the default configuration.
const MISS_BUDGET_BASE: u64 = 1 << 40;

/// Child-process entry point (`xfdbench serve`): the server `discoverxfd
/// serve --addr 127.0.0.1:0 --workers 2` runs, shut down when its stdin
/// closes, so it never outlives the benchmark.
pub fn serve_child() -> i32 {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xfdbench serve: cannot bind: {e}");
            return 1;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xfdbench serve: {e}");
            return 1;
        }
    };
    println!("listening on http://{addr}");
    if std::io::stdout().flush().is_err() {
        return 1;
    }
    let handle = server.handle();
    let watcher = std::thread::spawn(move || {
        // EOF or an error both mean the parent is gone or done.
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        handle.shutdown();
    });
    let served = server.run();
    let joined = watcher.join();
    match (served, joined) {
        (Ok(()), Ok(())) => 0,
        (Err(e), _) => {
            eprintln!("xfdbench serve: {e}");
            1
        }
        (_, Err(_)) => 1,
    }
}

/// The running server and the inputs the requests draw from.
struct Served {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    docs: Vec<Vec<u8>>,
    /// Normalized in-process report of each document.
    refs: Vec<String>,
}

impl Drop for Served {
    fn drop(&mut self) {
        // Closing stdin asks the server to drain and exit.
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => break,
            }
        }
        eprintln!("xfdbench: server did not drain in time; killing it");
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server() -> Result<(Child, ChildStdin, SocketAddr), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let stdin = child.stdin.take();
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .and_then(|a| a.parse().ok());
    match (stdin, read, addr) {
        (Some(stdin), Some(Ok(_)), Some(addr)) => Ok((child, stdin, addr)),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("the server did not report its address ({line:?})"))
        }
    }
}

fn setup(ctx: &Ctx) -> Result<Served, String> {
    let (states, stores, books) = if ctx.smoke { (2, 2, 4) } else { (6, 3, 12) };
    let config = DiscoveryConfig::default();
    let mut docs = Vec::with_capacity(DOCS);
    let mut refs = Vec::with_capacity(DOCS);
    for k in 0..DOCS as u64 {
        let tree = warehouse_scaled(&WarehouseSpec {
            states,
            stores_per_state: stores,
            books_per_store: books,
            seed: ctx.seed.wrapping_mul(1_000).wrapping_add(k),
            ..WarehouseSpec::default()
        });
        let xml = to_xml_string(&tree).into_bytes();
        let parsed = parse_reader(&xml[..]).map_err(|e| e.to_string())?;
        refs.push(normalize_report(&render_json(&discover(&parsed, &config))));
        docs.push(xml);
    }
    let (child, stdin, addr) = start_server()?;
    let served = Served {
        child,
        stdin: Some(stdin),
        addr,
        docs,
        refs,
    };
    // Prime the result cache with every (document, default config), one
    // fresh connection each: back-to-back requests on one connection
    // would each wait about 40 ms on a delayed ACK (see RATE_STEPS).
    for k in 0..DOCS {
        let ex = Client::new(addr)
            .post("/v1/discover", &served.docs[k])
            .map_err(|e| format!("priming request: {e}"))?;
        served.verify(k, &ex).map_err(|f| f.reason)?;
    }
    Ok(served)
}

impl Served {
    fn verify(&self, doc: usize, ex: &Exchange) -> Result<(), Failure> {
        if ex.status != 200 {
            return Err(Failure::error(format!("HTTP {}", ex.status)));
        }
        if normalize_report(&String::from_utf8_lossy(&ex.body)) != self.refs[doc] {
            return Err(Failure::mismatch(format!(
                "served report for document {doc} differs from the in-process one"
            )));
        }
        Ok(())
    }

    /// The server's `/metrics`, as `name{labels}` → value.
    fn scrape(&self) -> Result<BTreeMap<String, f64>, String> {
        let ex = Client::new(self.addr)
            .get("/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        let text = String::from_utf8_lossy(&ex.body);
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }
}

/// One HTTP exchange with the timestamps of its stages.
struct Exchange {
    status: u16,
    hit: bool,
    body: Vec<u8>,
    /// A new connection was opened for this exchange.
    connected: bool,
    t_start: Instant,
    t_connected: Instant,
    t_written: Instant,
    t_first_byte: Instant,
    t_done: Instant,
}

/// A keep-alive HTTP/1.1 client that reconnects when the server closes.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<Exchange> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.exchange(head, body)
    }

    fn get(&mut self, path: &str) -> std::io::Result<Exchange> {
        self.exchange(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"), &[])
    }

    fn exchange(&mut self, head: String, body: &[u8]) -> std::io::Result<Exchange> {
        let result = self.try_exchange(head, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn try_exchange(&mut self, head: String, body: &[u8]) -> std::io::Result<Exchange> {
        let t_start = Instant::now();
        let connected = self.conn.is_none();
        if connected {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.conn = Some(BufReader::with_capacity(1 << 16, stream));
        }
        let conn = self.conn.as_mut().expect("connection was just opened");
        let t_connected = Instant::now();
        let mut msg = head.into_bytes();
        msg.extend_from_slice(body);
        conn.get_mut().write_all(&msg)?;
        let t_written = Instant::now();
        if conn.fill_buf()?.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let t_first_byte = Instant::now();
        let mut line = String::new();
        conn.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let (mut len, mut hit, mut close) = (0usize, false, false);
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 || line == "\r\n" {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    len = value.parse().map_err(|_| {
                        std::io::Error::other(format!("bad Content-Length {value:?}"))
                    })?;
                }
                "x-cache" => hit = value == "hit",
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0; len];
        conn.read_exact(&mut body)?;
        let t_done = Instant::now();
        if close {
            self.conn = None;
        }
        Ok(Exchange {
            status,
            hit,
            body,
            connected,
            t_start,
            t_connected,
            t_written,
            t_first_byte,
            t_done,
        })
    }
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Req {
    doc: usize,
    /// `Some(budget)` for a request that must miss the result cache.
    miss_budget: Option<u64>,
}

/// `n` requests drawn from `rng`; miss budgets count up from `*next`.
fn schedule(rng: &mut Rng, n: usize, next: &mut u64) -> Vec<Req> {
    (0..n)
        .map(|_| {
            let doc = rng.below(DOCS as u64) as usize;
            let miss_budget = (rng.unit() >= REPEAT_P).then(|| {
                *next += 1;
                MISS_BUDGET_BASE + *next
            });
            Req { doc, miss_budget }
        })
        .collect()
}

/// What happened to one request.
struct Sent {
    /// Position in the schedule.
    index: usize,
    /// From due time to the last response byte.
    latency_ms: f64,
    /// The sender's last speed probe before the request.
    probe_ms: f64,
    /// From due time to the first request byte leaving.
    lag_ms: f64,
    /// From the first request byte to the last response byte.
    service_ms: f64,
    /// From the request written to the first response byte.
    ttfb_ms: f64,
    hit: bool,
    traced: bool,
    outcome: Result<(), Failure>,
}

/// Requests of one rate step.
struct Step {
    sent: Vec<Sent>,
    /// Requests a late sender abandoned.
    dropped: usize,
    wall_s: f64,
}

/// Send `reqs` at `rate` per second from [`SENDERS`] threads, each
/// sender probing the machine's speed ahead of its requests. In the
/// traced run every other request of each sender is traced into that
/// sender's trace.
fn open_loop(served: &Served, rate: u32, reqs: &[Req], traces: &mut [Trace]) -> Step {
    let start = Instant::now() + Duration::from_millis(20);
    let interval = 1.0 / f64::from(rate);
    let mut step = Step {
        sent: Vec::with_capacity(reqs.len()),
        dropped: 0,
        wall_s: 0.0,
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut traces = traces.iter_mut();
        for t in 0..SENDERS {
            let mut trace = traces.next();
            handles.push(scope.spawn(move || {
                let mut client = Client::new(served.addr);
                let mut sent = Vec::new();
                let mut dropped = 0;
                let mut probe_ms = speed::probe_ms();
                for (i, req) in reqs.iter().enumerate().skip(t).step_by(SENDERS) {
                    let due = start + Duration::from_secs_f64(i as f64 * interval);
                    let now = Instant::now();
                    if now + PROBE_LEAD < due {
                        std::thread::sleep(due - PROBE_LEAD - now);
                        probe_ms = speed::probe_ms();
                    }
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    } else if now - due > MAX_LAG {
                        dropped += 1;
                        continue;
                    }
                    let path = match req.miss_budget {
                        None => "/v1/discover".to_string(),
                        Some(b) => format!("/v1/discover?cache-budget={b}"),
                    };
                    let traced = trace.is_some() && (i / SENDERS) % 2 == 1;
                    let result = client.post(&path, &served.docs[req.doc]);
                    let done = Instant::now();
                    let s = match result {
                        Ok(ex) => {
                            if traced {
                                if let Some(tr) = trace.as_deref_mut() {
                                    record_exchange(tr, i as u64, due, &ex);
                                }
                            }
                            Sent {
                                index: i,
                                latency_ms: ms(ex.t_done - due),
                                probe_ms,
                                lag_ms: ms(ex.t_start.saturating_duration_since(due)),
                                service_ms: ms(ex.t_done - ex.t_start),
                                ttfb_ms: ms(ex.t_first_byte - ex.t_written),
                                hit: ex.hit,
                                traced,
                                outcome: served.verify(req.doc, &ex),
                            }
                        }
                        Err(e) => Sent {
                            index: i,
                            latency_ms: ms(done - due),
                            probe_ms,
                            lag_ms: 0.0,
                            service_ms: 0.0,
                            ttfb_ms: 0.0,
                            hit: false,
                            traced,
                            outcome: Err(Failure::error(format!("request: {e}"))),
                        },
                    };
                    sent.push(s);
                }
                (sent, dropped, Instant::now())
            }));
        }
        let mut last = start;
        for h in handles {
            let (sent, dropped, end) = h.join().expect("sender thread panicked");
            step.sent.extend(sent);
            step.dropped += dropped;
            last = last.max(end);
        }
        step.wall_s = (last - start).as_secs_f64();
    });
    step.sent.sort_by_key(|s| s.index);
    step
}

/// One traced request: the client's wait for its slot, then connect,
/// write, wait for the first byte, read to the last.
fn record_exchange(tr: &mut Trace, op: u64, due: Instant, ex: &Exchange) {
    let root = Some(tr.record_op(op, due, ex.t_done));
    tr.record_in(root, "bench.gen_lag", due, ex.t_start.max(due));
    if ex.connected {
        tr.record_in(root, "server.connect", ex.t_start, ex.t_connected);
    }
    tr.record_in(root, "server.write", ex.t_connected, ex.t_written);
    tr.record_in(root, "server.first_byte", ex.t_written, ex.t_first_byte);
    tr.record_in(root, "server.last_byte", ex.t_first_byte, ex.t_done);
}

fn latencies(sent: &[Sent], pick: impl Fn(&Sent) -> Option<f64>) -> Vec<f64> {
    sent.iter()
        .filter(|s| s.outcome.is_ok())
        .filter_map(pick)
        .collect()
}

pub fn run(ctx: &Ctx, epoch: Instant) -> Result<(RunResult, Vec<Trace>), String> {
    let (served, setup_s) = repeated_setup(|_| setup(ctx))?;
    let mut rng = Rng::new(ctx.seed ^ 0x5e7e_5e7e);
    let mut next_budget = 0u64;
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut traces: Vec<Trace> = Vec::new();

    if ctx.traced {
        traces = (0..SENDERS as u32).map(|t| Trace::new(epoch, t)).collect();
        let before = served.scrape()?;
        let step_s = ctx.seconds / RATE_STEPS.len() as f64;
        // Requests of the steps that met the SLO, and of the others. The
        // service-time metrics come from the first: past the knee they
        // measure the queue, not the server.
        let (mut within, mut beyond) = (Vec::new(), Vec::new());
        let mut max_ok = 0u32;
        for rate in RATE_STEPS {
            let n = ((f64::from(rate) * step_s) as usize).max(SENDERS);
            let reqs = schedule(&mut rng, n, &mut next_budget);
            let step = open_loop(&served, rate, &reqs, &mut traces);
            let lat = latencies(&step.sent, |s| Some(s.latency_ms));
            let lag = latencies(&step.sent, |s| Some(s.lag_ms));
            let failed = step.sent.iter().any(|s| s.outcome.is_err());
            let p99 = percentile(&lat, 0.99);
            m.set(&format!("server.p50_ms.r{rate}"), percentile(&lat, 0.5));
            m.set(&format!("server.p99_ms.r{rate}"), p99);
            m.set(
                &format!("bench.gen_lag_p99_ms.r{rate}"),
                percentile(&lag, 0.99),
            );
            if step.dropped > 0 {
                eprintln!(
                    "xfdbench: {} requests at {rate} rps abandoned (sender over {MAX_LAG:?} late)",
                    step.dropped
                );
            }
            if p99 <= SLO_P99_MS && !failed && step.dropped == 0 {
                max_ok = rate;
                within.extend(step.sent);
            } else {
                beyond.extend(step.sent);
            }
        }
        let after = served.scrape()?;
        m.set("server.max_rps_at_slo", f64::from(max_ok));
        m.set(
            "server.hit_p50_ms",
            percentile(&latencies(&within, |s| s.hit.then_some(s.service_ms)), 0.5),
        );
        m.set(
            "server.miss_p50_ms",
            percentile(
                &latencies(&within, |s| (!s.hit).then_some(s.service_ms)),
                0.5,
            ),
        );
        m.set(
            "server.ttfb_p50_ms",
            percentile(&latencies(&within, |s| Some(s.ttfb_ms)), 0.5),
        );
        let ok: Vec<&Sent> = within
            .iter()
            .chain(&beyond)
            .filter(|s| s.outcome.is_ok())
            .collect();
        if !ok.is_empty() {
            let hits = ok.iter().filter(|s| s.hit).count();
            m.set("server.cache_hit_ratio", hits as f64 / ok.len() as f64);
        }
        let delta = |key: &str| {
            let sum = |map: &BTreeMap<String, f64>| -> f64 {
                map.iter()
                    .filter(|(k, _)| k.as_str() == key || k.starts_with(&format!("{key}{{")))
                    .map(|(_, v)| v)
                    .sum()
            };
            sum(&after) - sum(&before)
        };
        m.set(
            "server.parse_free_hits",
            delta("discoverxfd_parse_free_hits_total"),
        );
        m.set("server.rejected", delta("discoverxfd_http_rejected_total"));
        m.set(
            "server.worker_panics",
            delta("discoverxfd_worker_panics_total"),
        );
        m.set(
            "server.result_cache_evictions",
            delta("discoverxfd_result_cache_evictions_total"),
        );
        for (metric, stage) in [
            ("server.stage_s.infer", "infer"),
            ("server.stage_s.encode", "encode"),
            ("server.stage_s.discover", "discover"),
            ("server.stage_s.redundancy", "redundancy"),
        ] {
            m.set(
                metric,
                delta(&format!(
                    "discoverxfd_stage_seconds_total{{stage=\"{stage}\"}}"
                )),
            );
        }
        let plain = latencies(&within, |s| (!s.traced).then_some(s.service_ms));
        let traced = latencies(&within, |s| s.traced.then_some(s.service_ms));
        set_trace_overhead(&mut m, &plain, &traced);
        for s in within.into_iter().chain(beyond) {
            tally.record(s.outcome);
        }
    } else {
        let n = (f64::from(RATE) * ctx.seconds) as usize;
        let reqs = schedule(&mut rng, n.max(SENDERS), &mut next_budget);
        reset_peak_rss(Some(served.child.id()));
        let step = open_loop(&served, RATE, &reqs, &mut []);
        let lat = latencies(&step.sent, |s| {
            Some(speed::scaled(s.latency_ms, s.probe_ms))
        });
        m.set("setup_s", setup_s);
        m.set("op_p50_ms", percentile(&lat, 0.5));
        m.set("op_p90_ms", percentile(&lat, 0.9));
        if step.wall_s > 0.0 {
            let ok = step.sent.iter().filter(|s| s.outcome.is_ok()).count();
            m.set("ops_per_s", ok as f64 / step.wall_s);
        }
        m.set("peak_rss_mb", peak_rss_mb(Some(served.child.id())));
        let probes: Vec<f64> = step.sent.iter().map(|s| s.probe_ms).collect();
        speed::report(&probes);
        for _ in 0..step.dropped {
            tally.record(Err(Failure::error("request abandoned by a late sender")));
        }
        for s in step.sent {
            tally.record(s.outcome);
        }
    }

    // Nothing a client sends may panic a server worker.
    let panics = served
        .scrape()?
        .get("discoverxfd_worker_panics_total")
        .copied()
        .unwrap_or(0.0);
    tally.record(if panics == 0.0 {
        Ok(())
    } else {
        Err(Failure::error(format!("{panics} server worker panics")))
    });
    drop(served);
    let result = RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.mismatched == 0,
        metrics: m,
    };
    Ok((result, traces))
}
