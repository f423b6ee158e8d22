//! End-to-end tests: a real server on an ephemeral port, raw TCP clients.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xfd_server::{Server, ServerConfig, ServerHandle};

/// A parsed raw HTTP response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn spawn_server(
    mut config: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    config.addr = "127.0.0.1:0".into();
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// Send raw request bytes, read the full `Connection: close` response.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .map(|l| {
            let (k, v) = l.split_once(':').expect("header colon");
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

// The helpers ask for `Connection: close` so `read_to_end` framing works;
// keep-alive reuse has dedicated tests below.
fn get(addr: SocketAddr, path: &str) -> Reply {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    request_with_body(addr, "POST", path, body)
}

fn put(addr: SocketAddr, path: &str) -> Reply {
    request_with_body(addr, "PUT", path, "")
}

fn delete(addr: SocketAddr, path: &str) -> Reply {
    request_with_body(addr, "DELETE", path, "")
}

fn request_with_body(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    raw_request(
        addr,
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// The one volatile field in the JSON report is the total wall time;
/// replace its value so byte comparison is meaningful.
fn normalize_total_ms(s: &str) -> String {
    let Some(start) = s.find("\"total_ms\": ") else {
        return s.to_string();
    };
    let value_start = start + "\"total_ms\": ".len();
    let value_len = s[value_start..]
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(0);
    format!("{}X{}", &s[..value_start], &s[value_start + value_len..])
}

const BOOKSTORE: &str = "<shop>\
    <book><isbn>1</isbn><title>DBMS</title><author>R</author></book>\
    <book><isbn>1</isbn><title>DBMS</title><author>G</author></book>\
    <book><isbn>2</isbn><title>TCP/IP</title><author>S</author></book>\
  </shop>";

#[test]
fn healthz_and_metrics_respond() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\": \"ok\"}\n");
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("discoverxfd_uptime_seconds"));
    assert!(metrics
        .body
        .contains("# TYPE discoverxfd_queue_depth gauge"));
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn discover_matches_the_batch_pipeline_byte_for_byte() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let reply = post(addr, "/v1/discover", BOOKSTORE);
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("X-Cache"), Some("miss"));
    assert_eq!(reply.header("Content-Type"), Some("application/json"));

    let tree = xfd_xml::parse(BOOKSTORE).unwrap();
    let outcome = discoverxfd::discover(&tree, &discoverxfd::DiscoveryConfig::default());
    let expected = discoverxfd::report::render_json(&outcome);
    assert_eq!(
        normalize_total_ms(&reply.body),
        normalize_total_ms(&expected)
    );
    // The report is not degenerate: the isbn redundancy is in there.
    assert!(reply.body.contains("isbn"));
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn chunked_discover_matches_content_length_and_shares_the_cache() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let plain = post(addr, "/v1/discover", BOOKSTORE);
    assert_eq!(plain.status, 200, "{}", plain.body);
    assert_eq!(plain.header("X-Cache"), Some("miss"));

    // The same document, chunked across two frames: the digest is computed
    // over the decoded bytes, so this hits the result cache parse-free.
    let (a, b) = BOOKSTORE.split_at(BOOKSTORE.len() / 2);
    let mut raw = Vec::from(
        &b"POST /v1/discover HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"[..],
    );
    for part in [a, b] {
        raw.extend_from_slice(format!("{:x}\r\n", part.len()).as_bytes());
        raw.extend_from_slice(part.as_bytes());
        raw.extend_from_slice(b"\r\n");
    }
    raw.extend_from_slice(b"0\r\n\r\n");
    let chunked = raw_request(addr, &raw);
    assert_eq!(chunked.status, 200, "{}", chunked.body);
    assert_eq!(chunked.header("X-Cache"), Some("hit"));
    assert_eq!(chunked.body, plain.body);

    let metrics = get(addr, "/metrics");
    assert!(
        metrics.body.contains("discoverxfd_parse_free_hits_total 1"),
        "{}",
        metrics.body
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Bodies larger than `spill_buffer_bytes` take the streaming intake:
/// they are parsed while they are digested. Such a body gets the batch
/// report, and a repeat is a cache hit, though not a parse-free one.
/// A body that ends before its `Content-Length` is a 400.
#[test]
fn streamed_bodies_are_digested_while_they_parse() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        spill_buffer_bytes: 16,
        ..ServerConfig::default()
    });
    let first = post(addr, "/v1/discover", BOOKSTORE);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("X-Cache"), Some("miss"));
    let tree = xfd_xml::parse(BOOKSTORE).unwrap();
    let outcome = discoverxfd::discover(&tree, &discoverxfd::DiscoveryConfig::default());
    assert_eq!(
        normalize_total_ms(&first.body),
        normalize_total_ms(&discoverxfd::report::render_json(&outcome))
    );

    let repeat = post(addr, "/v1/discover", BOOKSTORE);
    assert_eq!(repeat.status, 200, "{}", repeat.body);
    assert_eq!(repeat.header("X-Cache"), Some("hit"));
    assert_eq!(repeat.body, first.body);
    let metrics = get(addr, "/metrics").body;
    assert!(
        metrics.contains("discoverxfd_parse_free_hits_total 0"),
        "{metrics}"
    );

    // A complete document whose Content-Length promises 10 more bytes;
    // the client then closes its write half, so the body ends early.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "POST /v1/discover HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        BOOKSTORE.len() + 10
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(BOOKSTORE.as_bytes()).expect("write body");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("close write half");
    let mut short = String::new();
    stream.read_to_string(&mut short).expect("read response");
    assert!(short.starts_with("HTTP/1.1 400 "), "{short}");
    assert!(
        short.contains("body shorter than Content-Length"),
        "{short}"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn repeated_documents_are_served_from_the_result_cache() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let first = post(addr, "/v1/discover", BOOKSTORE);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Cache"), Some("miss"));
    let second = post(addr, "/v1/discover", BOOKSTORE);
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Cache"), Some("hit"));
    assert_eq!(second.body, first.body);

    // A different config must not hit the same cache entry.
    let other = post(addr, "/v1/discover?max-lhs=1", BOOKSTORE);
    assert_eq!(other.status, 200);
    assert_eq!(other.header("X-Cache"), Some("miss"));

    let metrics = get(addr, "/metrics").body;
    assert!(
        metrics.contains("discoverxfd_result_cache_hits_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("discoverxfd_runs_total 2"), "{metrics}");
    // Nothing in the smoke traffic may have panicked a worker.
    assert!(
        metrics.contains("discoverxfd_worker_panics_total 0"),
        "{metrics}"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The result-cache digest covers every query parameter: setting any one
/// of them misses the entry of the plain request, and a repeat of each
/// request hits its own entry.
#[test]
fn every_query_parameter_gets_its_own_cache_entry() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let queries = [
        "",
        "?max-lhs=2",
        "?inter=false",
        "?keep-uninteresting=true",
        "?cache-budget=4096",
        "?threads=2",
        "?sets=false",
        "?ordered=true",
    ];
    for query in queries {
        let first = post(addr, &format!("/v1/discover{query}"), BOOKSTORE);
        assert_eq!(first.status, 200, "{query}: {}", first.body);
        assert_eq!(first.header("X-Cache"), Some("miss"), "{query}");
    }
    for query in queries {
        let again = post(addr, &format!("/v1/discover{query}"), BOOKSTORE);
        assert_eq!(again.header("X-Cache"), Some("hit"), "{query}");
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn async_jobs_poll_to_completion_and_results_are_fetchable() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let accepted = post(addr, "/v1/jobs", BOOKSTORE);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id: u64 = field_u64(&accepted.body, "\"job\": ");
    let result_path = field_str(&accepted.body, "\"result\": \"");

    let deadline = Instant::now() + Duration::from_secs(30);
    let final_status = loop {
        let poll = get(addr, &format!("/v1/jobs/{job_id}"));
        assert_eq!(poll.status, 200, "{}", poll.body);
        if poll.body.contains("\"status\": \"done\"") {
            break poll;
        }
        assert!(
            !poll.body.contains("\"status\": \"failed\""),
            "{}",
            poll.body
        );
        assert!(Instant::now() < deadline, "job never finished");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(final_status.body.contains("\"result\": \"/v1/results/"));

    let result = get(addr, &result_path);
    assert_eq!(result.status, 200);
    let sync = post(addr, "/v1/discover", BOOKSTORE);
    assert_eq!(sync.header("X-Cache"), Some("hit"));
    assert_eq!(result.body, sync.body);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A document whose discovery outlasts a request round trip many times
/// over: one relation of ten random columns over a domain of four, so the
/// lattice validates almost every node (tens of milliseconds) while the
/// parse takes a few. Tests that need a busy worker must not depend on
/// how cheap parsing or the report path is.
fn slow_document() -> String {
    xfd_xml::to_xml_string(&xfd_datagen::wide_relation(&xfd_datagen::WideSpec {
        rows: 1_500,
        width: 10,
        domain: 4,
        derived_fraction: 0.0,
        seed: 1,
    }))
}

#[test]
fn saturated_queue_sheds_load_with_retry_after() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    // A document slow enough that one run occupies the single worker while
    // the flood arrives.
    let doc = slow_document();

    // Vary a config knob per request: distinct digests (no cache hits),
    // identical parse/discovery work.
    let mut statuses = Vec::new();
    let mut retry_after_seen = false;
    for i in 0..12 {
        let reply = post(
            addr,
            &format!("/v1/jobs?cache-budget={}", 50_000_000 + i),
            &doc,
        );
        if reply.status == 503 {
            retry_after_seen |= reply.header("Retry-After").is_some();
        }
        statuses.push(reply.status);
    }
    assert!(
        statuses.contains(&202),
        "at least one job accepted: {statuses:?}"
    );
    assert!(
        statuses.contains(&503),
        "backpressure must shed some of the flood: {statuses:?}"
    );
    assert!(retry_after_seen, "503 responses carry Retry-After");
    let metrics = get(addr, "/metrics").body;
    assert!(
        metrics.contains("discoverxfd_http_rejected_total{reason=\"queue_full\"}"),
        "{metrics}"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn slow_discoveries_time_out_with_a_pollable_job() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        request_timeout: Duration::from_millis(1),
        ..ServerConfig::default()
    });
    let doc = slow_document();
    let reply = post(addr, "/v1/discover", &doc);
    assert_eq!(reply.status, 504, "{}", reply.body);
    let job_id: u64 = field_u64(&reply.body, "\"job\": ");

    // The job keeps running in the background; poll it to completion.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let poll = get(addr, &format!("/v1/jobs/{job_id}"));
        if poll.body.contains("\"status\": \"done\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never finished: {}",
            poll.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_requests_get_clean_errors() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        max_body_bytes: 512,
        ..ServerConfig::default()
    });

    // Unknown endpoint and wrong methods.
    assert_eq!(get(addr, "/nope").status, 404);
    let wrong = delete(addr, "/healthz");
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("Allow"), Some("GET"));
    assert_eq!(get(addr, "/v1/discover").status, 405);

    // Body framing.
    let no_length = raw_request(
        addr,
        b"POST /v1/discover HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(no_length.status, 411);
    let huge = raw_request(
        addr,
        b"POST /v1/discover HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 1024\r\n\r\n",
    );
    assert_eq!(huge.status, 413);
    // Chunked bodies are decoded now; an empty one is just invalid XML.
    let chunked_empty = raw_request(
        addr,
        b"POST /v1/discover HTTP/1.1\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n0\r\n\r\n",
    );
    assert_eq!(chunked_empty.status, 400);
    assert!(
        chunked_empty.body.contains("invalid XML"),
        "{}",
        chunked_empty.body
    );
    // Other transfer codings stay unimplemented.
    let gzipped = raw_request(
        addr,
        b"POST /v1/discover HTTP/1.1\r\nTransfer-Encoding: gzip\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(gzipped.status, 501);
    // Chunked payloads obey the same size cap as Content-Length bodies.
    let mut oversized = Vec::from(
        &b"POST /v1/discover HTTP/1.1\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n400\r\n"[..],
    );
    oversized.extend(std::iter::repeat_n(b'x', 0x400));
    oversized.extend_from_slice(b"\r\n0\r\n\r\n");
    assert_eq!(raw_request(addr, &oversized).status, 413);

    // Bad content.
    let bad_xml = post(addr, "/v1/discover", "<open><unclosed>");
    assert_eq!(bad_xml.status, 400);
    assert!(bad_xml.body.contains("invalid XML"), "{}", bad_xml.body);
    let bad_param = post(addr, "/v1/discover?bogus=1", "<a/>");
    assert_eq!(bad_param.status, 400);
    assert!(bad_param.body.contains("bogus"), "{}", bad_param.body);
    let bad_value = post(addr, "/v1/discover?max-lhs=many", "<a/>");
    assert_eq!(bad_value.status, 400);

    // Bad identifiers.
    assert_eq!(get(addr, "/v1/jobs/notanumber").status, 400);
    assert_eq!(get(addr, "/v1/jobs/123456").status, 404);
    assert_eq!(get(addr, "/v1/results/deadbeef").status, 400);
    assert_eq!(
        get(addr, &format!("/v1/results/{}", "0".repeat(32))).status,
        404
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_queued_jobs_before_exit() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    // Queue several jobs, then immediately request shutdown.
    let mut jobs = Vec::new();
    for i in 0..3 {
        let reply = post(
            addr,
            &format!("/v1/jobs?cache-budget={}", 10_000_000 + i),
            BOOKSTORE,
        );
        assert_eq!(reply.status, 202, "{}", reply.body);
        jobs.push(field_u64(&reply.body, "\"job\": "));
    }
    handle.shutdown();
    // run() returning means: accept loop stopped, queue closed, workers
    // drained every accepted job, all threads joined.
    join.join().unwrap().unwrap();
    // And the server really is gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Accepting sockets may linger in the OS backlog; a write/read must
            // fail or return nothing.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).map(|n| n == 0).unwrap_or(true)
        }
    );
}

/// Read one framed (`Content-Length`) response off a keep-alive
/// connection without waiting for EOF.
fn read_framed_reply(reader: &mut impl std::io::BufRead) -> Reply {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read head line");
        if line == "\r\n" || line.is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .expect("status line")
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .map(|l| {
            let (k, v) = l.split_once(':').expect("header colon");
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect();
    let length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .expect("framed response has Content-Length")
        .1
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read body");
    Reply {
        status,
        headers,
        body: String::from_utf8(body).expect("utf-8 body"),
    }
}

#[test]
fn keep_alive_reuses_one_connection_for_many_requests() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);

    for _ in 0..3 {
        writer
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let reply = read_framed_reply(&mut reader);
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("Connection"), Some("keep-alive"));
        assert_eq!(reply.body, "{\"status\": \"ok\"}\n");
    }

    // A POST whose body is fully consumed also keeps the connection.
    writer
        .write_all(
            format!(
                "POST /v1/discover HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{BOOKSTORE}",
                BOOKSTORE.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let reply = read_framed_reply(&mut reader);
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("Connection"), Some("keep-alive"));

    // An explicit close is honored: the response says close and the
    // server EOFs the connection.
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let reply = read_framed_reply(&mut reader);
    assert_eq!(reply.header("Connection"), Some("close"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closed after Connection: close");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn keep_alive_request_cap_closes_the_connection() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        keep_alive_max_requests: 2,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    assert_eq!(
        read_framed_reply(&mut reader).header("Connection"),
        Some("keep-alive")
    );
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let second = read_framed_reply(&mut reader);
    assert_eq!(
        second.header("Connection"),
        Some("close"),
        "request cap reached"
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
    join.join().unwrap().unwrap();
}

fn corpus_server(
    tag: &str,
) -> (
    std::path::PathBuf,
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let root = std::env::temp_dir().join(format!("xfd-e2e-corpus-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (addr, handle, join) = spawn_server(ServerConfig {
        corpus_root: Some(root.clone()),
        ..ServerConfig::default()
    });
    (root, addr, handle, join)
}

const D1: &str = "<shop><book><isbn>1</isbn><title>A</title><price>7</price></book>\
    <book><isbn>1</isbn><title>A</title><price>7</price></book></shop>";
const D2: &str = "<shop><book><isbn>2</isbn><title>B</title><price>9</price></book></shop>";

#[test]
fn corpus_lifecycle_over_http() {
    let (root, addr, handle, join) = corpus_server("lifecycle");

    assert_eq!(put(addr, "/v1/corpora/shop").status, 201);
    assert_eq!(put(addr, "/v1/corpora/shop").status, 409);

    assert_eq!(post(addr, "/v1/corpora/shop/docs?name=d1", D1).status, 201);
    assert_eq!(post(addr, "/v1/corpora/shop/docs?name=d2", D2).status, 201);
    assert_eq!(post(addr, "/v1/corpora/shop/docs?name=d1", D1).status, 409);
    assert_eq!(
        post(addr, "/v1/corpora/shop/docs?name=bad", "<open>").status,
        400
    );

    let status = get(addr, "/v1/corpora/shop");
    assert_eq!(status.status, 200, "{}", status.body);
    assert!(
        status.body.contains("\"d1\"") && status.body.contains("\"d2\""),
        "{}",
        status.body
    );

    let report = post(addr, "/v1/corpora/shop/discover", "");
    assert_eq!(report.status, 200, "{}", report.body);
    assert_eq!(report.header("X-Corpus-Docs"), Some("2"));
    // Byte-identical to the batch pipeline over the same documents.
    let trees = [xfd_xml::parse(D1).unwrap(), xfd_xml::parse(D2).unwrap()];
    let refs: Vec<&xfd_xml::DataTree> = trees.iter().collect();
    let outcome = discoverxfd::discover_collection(&refs, &discoverxfd::DiscoveryConfig::default());
    // The memoized corpus pipeline reports its own memo counters (which
    // the one-shot batch baseline leaves at zero), so compare everything
    // before the wall-clock/memo tail of the stats object.
    let stable = |s: &str| s.split("\"total_ms\"").next().unwrap_or(s).to_string();
    assert_eq!(
        stable(&report.body),
        stable(&discoverxfd::report::render_json(&outcome))
    );
    // The status's lifetime kernel counters total that one discover run.
    let status = get(addr, "/v1/corpora/shop");
    assert_eq!(status.status, 200, "{}", status.body);
    let kernel = &status.body[status.body.find("\"kernel\": {").expect("kernel object")..];
    let kernel = &kernel[..=kernel.find('}').expect("closed kernel object")];
    for counter in [
        "products_error_only",
        "products_materialized",
        "early_exits",
        "summary_hits",
    ] {
        let key = format!("\"{counter}\": ");
        assert_eq!(
            field_u64(kernel, &key),
            field_u64(&report.body, &key),
            "{counter}: status {kernel} vs report {}",
            report.body
        );
    }

    assert_eq!(get(addr, "/v1/corpora/ghost").status, 404);
    assert_eq!(delete(addr, "/v1/corpora/shop/docs/d2").status, 200);
    assert_eq!(delete(addr, "/v1/corpora/shop/docs/d2").status, 404);
    assert_eq!(delete(addr, "/v1/corpora/shop").status, 200);
    assert_eq!(get(addr, "/v1/corpora/shop").status, 404);

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corpora_persist_across_restarts_with_identical_reports() {
    let (root, addr, handle, join) = corpus_server("restart");
    assert_eq!(put(addr, "/v1/corpora/shop").status, 201);
    assert_eq!(post(addr, "/v1/corpora/shop/docs?name=d1", D1).status, 201);
    assert_eq!(post(addr, "/v1/corpora/shop/docs?name=d2", D2).status, 201);
    let warm = post(addr, "/v1/corpora/shop/discover", "");
    assert_eq!(warm.status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();

    // A fresh server over the same root sees the same corpus and produces
    // a byte-identical report from a cold memo.
    let (addr, handle, join) = spawn_server(ServerConfig {
        corpus_root: Some(root.clone()),
        ..ServerConfig::default()
    });
    let cold = post(addr, "/v1/corpora/shop/discover", "");
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(
        normalize_total_ms(&cold.body),
        normalize_total_ms(&warm.body)
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn traversal_shaped_names_never_touch_the_filesystem() {
    let (root, addr, handle, join) = corpus_server("traversal");
    // First segment decodes to a forbidden name → 400 before any fs access.
    for path in [
        "/v1/corpora/..",
        "/v1/corpora/%2e%2e",
        "/v1/corpora/.hidden",
        "/v1/corpora/caf%C3%A9",
        "/v1/corpora/a%20b",
    ] {
        assert_eq!(put(addr, path).status, 400, "{path}");
        assert_eq!(get(addr, path).status, 400, "{path}");
    }
    // Document names go through the same guard.
    assert_eq!(put(addr, "/v1/corpora/ok").status, 201);
    for doc in ["..", "%2e%2e%2fx", "a%2fb", "caf%C3%A9"] {
        let r = post(addr, &format!("/v1/corpora/ok/docs?name={doc}"), "<a/>");
        assert_eq!(r.status, 400, "{doc}");
    }
    // Digest lookups reject traversal-shaped ids the same way.
    assert_eq!(get(addr, "/v1/results/%2e%2e%2fsecret").status, 400);
    // Only the corpus created through the guard exists on disk.
    let entries: Vec<String> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries, vec!["ok"]);
    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn ndjson_discover_streams_one_line_per_relation() {
    let (root, addr, handle, join) = corpus_server("ndjson");
    assert_eq!(put(addr, "/v1/corpora/shop").status, 201);
    assert_eq!(post(addr, "/v1/corpora/shop/docs?name=d1", D1).status, 201);

    let stream_request = "POST /v1/corpora/shop/discover HTTP/1.1\r\nHost: t\r\n\
         Accept: application/x-ndjson\r\nContent-Length: 0\r\n\r\n";
    let reply = raw_request(addr, stream_request.as_bytes());
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("Content-Type"), Some("application/x-ndjson"));
    assert_eq!(reply.header("Connection"), Some("close"));
    let lines: Vec<&str> = reply.body.lines().collect();
    assert!(lines.len() >= 2, "progress lines + summary: {:?}", lines);
    for line in &lines[..lines.len() - 1] {
        assert!(line.starts_with("{\"relation\": "), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    let summary = lines.last().unwrap();
    assert!(summary.contains("\"done\": true"), "{summary}");
    assert!(summary.contains("\"docs\": 1"), "{summary}");

    // Streaming again replays every relation from the memo.
    let reply = raw_request(addr, stream_request.as_bytes());
    for line in reply
        .body
        .lines()
        .filter(|l| l.starts_with("{\"relation\""))
    {
        assert!(line.contains("\"cached\": true"), "{line}");
    }

    // A missing corpus still gets a clean framed error.
    let missing = raw_request(
        addr,
        b"POST /v1/corpora/ghost/discover HTTP/1.1\r\nHost: t\r\n\
          Accept: application/x-ndjson\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(missing.status, 404);
    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

fn field_u64(json: &str, prefix: &str) -> u64 {
    let start = json.find(prefix).expect(prefix) + prefix.len();
    json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

fn field_str(json: &str, prefix: &str) -> String {
    let start = json.find(prefix).expect(prefix) + prefix.len();
    json[start..].chars().take_while(|&c| c != '"').collect()
}
