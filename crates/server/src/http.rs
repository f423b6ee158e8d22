//! Minimal HTTP/1.1 request parsing and response writing over `std::io`.
//!
//! Hand-rolled on purpose: the serving mode must not add external
//! dependencies to the vendored offline build. The parser covers the
//! subset the daemon speaks — request line, headers (including RFC 7230
//! `obs-fold` continuation lines), `Content-Length`-delimited bodies, and
//! `Transfer-Encoding: chunked` bodies (decoded by
//! [`read_chunked_body`] under the same byte cap as the length-delimited
//! path) — and is hardened against the classic malformed-request failure
//! modes: oversized request lines and header blocks, header-count blowup,
//! duplicate conflicting `Content-Length`, non-numeric or overflowing
//! lengths, truncated requests, requests carrying both `Content-Length`
//! and `Transfer-Encoding` (a smuggling vector), and transfer codings
//! other than `chunked` (which the daemon deliberately refuses rather
//! than mis-framing).

use std::io::{BufRead, Read, Write};

/// Parser limits; defaults sized for discovery requests (small heads, a
/// potentially large XML body whose cap is enforced by the caller).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line in bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line (after folding) in bytes.
    pub max_header_line: usize,
    /// Most headers per request.
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 16 * 1024,
            max_headers: 128,
        }
    }
}

/// A parsed request head. The body (if any) stays on the wire for the
/// caller to stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (as sent; methods are case-sensitive).
    pub method: String,
    /// Decoded path component of the target, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Parsed `Content-Length`, if present.
    pub content_length: Option<u64>,
    /// `true` when the body arrives `Transfer-Encoding: chunked`; the
    /// caller decodes it with [`read_chunked_body`].
    pub chunked: bool,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
}

impl Request {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client expects the connection to stay open after this
    /// request: HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 only keeps alive on an explicit `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let connection = self.header("connection").unwrap_or("");
        let says = |token: &str| {
            connection
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        };
        if self.http11 {
            !says("close")
        } else {
            says("keep-alive")
        }
    }
}

/// Why a request head could not be parsed; maps onto a response status.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request (→ 400).
    BadRequest(String),
    /// Request line over the limit (→ 414).
    UriTooLong,
    /// Header line/count over the limit (→ 431).
    HeadersTooLarge,
    /// `Transfer-Encoding` framing we do not implement (→ 501).
    NotImplemented(String),
    /// A chunked body grew past the configured byte cap (→ 413).
    PayloadTooLarge(u64),
    /// The peer closed the connection before a full head arrived; nothing
    /// to respond to.
    ConnectionClosed,
    /// Transport failure mid-head.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::UriTooLong => write!(f, "request line too long"),
            HttpError::HeadersTooLarge => write!(f, "header block too large"),
            HttpError::NotImplemented(m) => write!(f, "not implemented: {m}"),
            HttpError::PayloadTooLarge(limit) => {
                write!(f, "chunked body exceeds the {limit} byte limit")
            }
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Read one line terminated by `\n`, enforcing `limit` bytes (terminator
/// included). Returns the line without `\r\n`/`\n`.
fn read_line(reader: &mut impl BufRead, limit: usize) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let mut take = reader.by_ref().take(limit as u64 + 1);
    match take.read_until(b'\n', &mut raw) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(HttpError::Io(e)),
    }
    if raw.last() != Some(&b'\n') {
        if raw.len() > limit {
            return Err(HttpError::HeadersTooLarge);
        }
        // EOF mid-line: a truncated request.
        return Err(HttpError::BadRequest("truncated request head".into()));
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 bytes in request head".into()))
}

/// Parse a request head from `reader`, leaving the body unread.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    let request_line = match read_line(reader, limits.max_request_line) {
        Ok(Some(l)) => l,
        Ok(None) => return Err(HttpError::ConnectionClosed),
        Err(HttpError::HeadersTooLarge) => return Err(HttpError::UriTooLong),
        Err(e) => return Err(e),
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }

    // Headers, with obs-fold continuation lines appended to the previous
    // header's value (separated by one space, per RFC 7230 §3.2.4).
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(reader, limits.max_header_line)? {
            Some(l) => l,
            None => return Err(HttpError::BadRequest("truncated header block".into())),
        };
        if line.is_empty() {
            break;
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            match headers.last_mut() {
                Some((_, v)) => {
                    if v.len() + line.len() > limits.max_header_line {
                        return Err(HttpError::HeadersTooLarge);
                    }
                    v.push(' ');
                    v.push_str(line.trim());
                }
                None => {
                    return Err(HttpError::BadRequest(
                        "continuation line before any header".into(),
                    ))
                }
            }
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "header without colon: {line:?}"
            )));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadRequest(format!(
                "malformed header name {name:?}"
            )));
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Transfer-Encoding: only `chunked` is implemented; any other coding
    // is refused rather than mis-framed.
    let mut chunked = false;
    for (_, v) in headers.iter().filter(|(k, _)| k == "transfer-encoding") {
        for token in v.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else if !token.is_empty() {
                return Err(HttpError::NotImplemented(format!(
                    "transfer-encoding {token:?}"
                )));
            }
        }
    }

    // All Content-Length values (multiple headers or a comma-joined list)
    // must agree and parse as a decimal within u64.
    let mut content_length: Option<u64> = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        for item in v.split(',') {
            let item = item.trim();
            let parsed: u64 = item
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length {item:?}")))?;
            match content_length {
                None => content_length = Some(parsed),
                Some(prev) if prev == parsed => {}
                Some(prev) => {
                    return Err(HttpError::BadRequest(format!(
                        "conflicting content-length values {prev} and {parsed}"
                    )))
                }
            }
        }
    }

    // A request carrying both framings is a smuggling vector (RFC 7230
    // §3.3.3 says Transfer-Encoding wins, but intermediaries disagree
    // often enough that rejecting outright is the safe answer).
    if chunked && content_length.is_some() {
        return Err(HttpError::BadRequest(
            "both Transfer-Encoding and Content-Length present".into(),
        ));
    }

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(path_raw)
        .ok_or_else(|| HttpError::BadRequest("bad percent-encoding in path".into()))?;
    let mut query = Vec::new();
    if let Some(q) = query_raw {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k)
                .ok_or_else(|| HttpError::BadRequest("bad percent-encoding in query".into()))?;
            let v = percent_decode(v)
                .ok_or_else(|| HttpError::BadRequest("bad percent-encoding in query".into()))?;
            query.push((k, v));
        }
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        content_length,
        chunked,
        http11: version == "HTTP/1.1",
    })
}

/// Decode a `Transfer-Encoding: chunked` body into memory.
///
/// Enforces the same byte cap as the `Content-Length` path (`max_bytes` →
/// [`HttpError::PayloadTooLarge`]) plus the head limits on chunk-size
/// lines and trailer count. Consumes the terminating zero-size chunk and
/// the trailer section, leaving the connection aligned on the next
/// request head so keep-alive reuse stays sound.
pub fn read_chunked_body(
    reader: &mut impl BufRead,
    max_bytes: u64,
    limits: &Limits,
) -> Result<Vec<u8>, HttpError> {
    fn eof_as_truncation(e: std::io::Error, what: &str) -> HttpError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::BadRequest(format!("truncated chunked body ({what})"))
        } else {
            HttpError::Io(e)
        }
    }

    let mut body: Vec<u8> = Vec::new();
    loop {
        let line = match read_line(reader, limits.max_header_line)? {
            Some(l) => l,
            None => return Err(HttpError::BadRequest("truncated chunked body".into())),
        };
        // Chunk extensions (`;name=value`) are permitted and ignored.
        let size_text = line.split(';').next().unwrap_or("").trim();
        if size_text.is_empty() || !size_text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(HttpError::BadRequest(format!(
                "bad chunk size {size_text:?}"
            )));
        }
        let size = u64::from_str_radix(size_text, 16)
            .map_err(|_| HttpError::BadRequest(format!("overflowing chunk size {size_text:?}")))?;
        if size == 0 {
            break;
        }
        if (body.len() as u64).saturating_add(size) > max_bytes {
            return Err(HttpError::PayloadTooLarge(max_bytes));
        }
        let start = body.len();
        body.resize(start + size as usize, 0);
        let Some(chunk) = body.get_mut(start..) else {
            return Err(HttpError::BadRequest("chunk bookkeeping overflow".into()));
        };
        reader
            .read_exact(chunk)
            .map_err(|e| eof_as_truncation(e, "chunk data"))?;
        // The CRLF after the chunk data (a bare LF is tolerated, matching
        // the leniency of the head parser).
        let mut b = [0u8; 1];
        reader
            .read_exact(&mut b)
            .map_err(|e| eof_as_truncation(e, "chunk terminator"))?;
        if b == [b'\r'] {
            reader
                .read_exact(&mut b)
                .map_err(|e| eof_as_truncation(e, "chunk terminator"))?;
        }
        if b != [b'\n'] {
            return Err(HttpError::BadRequest(
                "missing CRLF after chunk data".into(),
            ));
        }
    }
    // Trailer section: skipped, but bounded like the header block.
    let mut trailers = 0usize;
    loop {
        let line = match read_line(reader, limits.max_header_line)? {
            Some(l) => l,
            None => return Err(HttpError::BadRequest("truncated chunked trailer".into())),
        };
        if line.is_empty() {
            break;
        }
        trailers += 1;
        if trailers > limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
    }
    Ok(body)
}

/// Decode `%XX` escapes and `+` (as space); `None` on malformed escapes or
/// non-UTF-8 results.
fn percent_decode(s: &str) -> Option<String> {
    if !s.contains('%') && !s.contains('+') {
        return Some(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => {
                let hi = char::from(*bytes.get(i + 1)?).to_digit(16)?;
                let lo = char::from(*bytes.get(i + 2)?).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// An outgoing response. `write_to` adds `Content-Length` and a
/// `Connection` header: `keep-alive` by default (HTTP/1.1 connections are
/// reused up to the server's per-connection request cap and idle timeout),
/// `close` when [`Response::close`] is set by the connection loop.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the defaults.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether the connection closes after this response.
    pub close: bool,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into(),
            close: false,
        }
    }

    /// A response with a plain-text body.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into(),
            close: false,
        }
    }

    /// A JSON error body `{"error": "..."}` with properly escaped text.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\": \"{}\"}}\n", json_escape(message)),
        )
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Mark the connection to close after this response.
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }

    /// Serialize onto the wire as **one** write. On a raw `TcpStream`
    /// several small writes interact with Nagle's algorithm and the
    /// client's delayed ACK: the tail of a response waits ~40 ms for the
    /// ACK of its head, which caps a busy keep-alive connection near 25
    /// responses per second.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        );
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        let connection = if self.close { "close" } else { "keep-alive" };
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.body.len()
        ));
        let mut wire = Vec::with_capacity(head.len() + self.body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Minimal JSON string escaping for error messages.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Canonical reason phrase for the status codes the daemon emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_head(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), &Limits::default())
    }

    #[test]
    fn parses_a_simple_request() {
        let r = parse_head("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.content_length, None);
    }

    #[test]
    fn parses_query_parameters() {
        let r =
            parse_head("POST /v1/discover?max-lhs=2&threads=4&tag=a%20b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.query_param("max-lhs"), Some("2"));
        assert_eq!(r.query_param("threads"), Some("4"));
        assert_eq!(r.query_param("tag"), Some("a b"));
        assert_eq!(r.query_param("absent"), None);
    }

    #[test]
    fn header_names_are_case_insensitive_and_values_trimmed() {
        let r = parse_head("GET / HTTP/1.1\r\nCoNtEnT-LeNgTh:   42  \r\n\r\n").unwrap();
        assert_eq!(r.content_length, Some(42));
    }

    #[test]
    fn obs_fold_continuation_lines_join_the_previous_header() {
        let r =
            parse_head("GET / HTTP/1.1\r\nX-Long: part one\r\n  part two\r\n\tpart three\r\n\r\n")
                .unwrap();
        assert_eq!(r.header("x-long"), Some("part one part two part three"));
    }

    #[test]
    fn continuation_before_any_header_is_rejected() {
        assert!(matches!(
            parse_head("GET / HTTP/1.1\r\n  folded\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn duplicate_agreeing_content_lengths_are_accepted() {
        let r = parse_head("POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n\r\n")
            .unwrap();
        assert_eq!(r.content_length, Some(7));
        let r = parse_head("POST / HTTP/1.1\r\nContent-Length: 7, 7\r\n\r\n").unwrap();
        assert_eq!(r.content_length, Some(7));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        for head in [
            "POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 8\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 7, 8\r\n\r\n",
        ] {
            assert!(
                matches!(parse_head(head), Err(HttpError::BadRequest(_))),
                "{head:?}"
            );
        }
    }

    #[test]
    fn malformed_content_lengths_are_rejected() {
        for bad in ["abc", "-1", "1e3", "99999999999999999999999999"] {
            let head = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert!(
                matches!(parse_head(&head), Err(HttpError::BadRequest(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn chunked_transfer_encoding_is_accepted_and_flagged() {
        let r = parse_head("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap();
        assert!(r.chunked);
        assert_eq!(r.content_length, None);
        let r = parse_head("POST / HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n").unwrap();
        assert!(r.chunked, "coding names are case-insensitive");
    }

    #[test]
    fn non_chunked_transfer_encodings_are_refused() {
        for coding in ["gzip", "gzip, chunked", "chunked, gzip"] {
            let head = format!("POST / HTTP/1.1\r\nTransfer-Encoding: {coding}\r\n\r\n");
            assert!(
                matches!(parse_head(&head), Err(HttpError::NotImplemented(_))),
                "{coding}"
            );
        }
    }

    #[test]
    fn chunked_with_content_length_is_a_smuggling_error() {
        assert!(matches!(
            parse_head(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n"
            ),
            Err(HttpError::BadRequest(_))
        ));
    }

    fn decode_chunked(raw: &[u8], max: u64) -> Result<Vec<u8>, HttpError> {
        read_chunked_body(&mut BufReader::new(raw), max, &Limits::default())
    }

    #[test]
    fn chunked_bodies_decode_across_chunk_boundaries() {
        let raw = b"5\r\nhello\r\n1\r\n \r\n6\r\nworld!\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(raw, 1024).unwrap(), b"hello world!");
    }

    #[test]
    fn chunk_extensions_and_trailers_are_skipped() {
        let raw = b"5;ext=1;other\r\nhello\r\n0\r\nX-Trailer: v\r\nX-More: w\r\n\r\n";
        assert_eq!(decode_chunked(raw, 1024).unwrap(), b"hello");
    }

    #[test]
    fn chunked_body_over_the_cap_is_payload_too_large() {
        let raw = b"5\r\nhello\r\n5\r\nworld\r\n0\r\n\r\n";
        assert!(matches!(
            decode_chunked(raw, 8),
            Err(HttpError::PayloadTooLarge(8))
        ));
        // A single huge declared chunk is rejected before any allocation.
        let raw = b"ffffffffffffffff\r\n";
        assert!(matches!(
            decode_chunked(raw, 1024),
            Err(HttpError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn malformed_and_truncated_chunked_bodies_are_clean_errors() {
        for raw in [
            b"zz\r\nhello\r\n0\r\n\r\n".to_vec(), // non-hex size
            b"\r\nhello\r\n0\r\n\r\n".to_vec(),   // empty size line
            b"5\r\nhel".to_vec(),                 // EOF mid-chunk
            b"5\r\nhelloXX".to_vec(),             // bad terminator
            b"5\r\nhello\r\n".to_vec(),           // EOF before final chunk
            b"0\r\nX-Trailer: v\r\n".to_vec(),    // EOF mid-trailer
        ] {
            assert!(
                matches!(decode_chunked(&raw, 1024), Err(HttpError::BadRequest(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn chunked_decode_leaves_the_reader_aligned_for_keep_alive() {
        let wire = b"5\r\nhello\r\n0\r\n\r\nGET /next HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let body = read_chunked_body(&mut reader, 1024, &Limits::default()).unwrap();
        assert_eq!(body, b"hello");
        let next = read_request(&mut reader, &Limits::default()).unwrap();
        assert_eq!(next.path, "/next");
    }

    #[test]
    fn truncated_requests_are_clean_errors() {
        for truncated in [
            "GET / HTTP/1.1\r\nHost: x",     // EOF mid-header
            "GET / HTTP/1.1\r\nHost: x\r\n", // EOF before blank line
            "GET / HT",                      // EOF mid-request-line
        ] {
            assert!(
                matches!(parse_head(truncated), Err(HttpError::BadRequest(_))),
                "{truncated:?}"
            );
        }
        // An immediately-closed connection is distinguished (no response due).
        assert!(matches!(parse_head(""), Err(HttpError::ConnectionClosed)));
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
        assert!(matches!(parse_head(&head), Err(HttpError::UriTooLong)));
    }

    #[test]
    fn oversized_header_line_is_rejected() {
        let head = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "v".repeat(17_000));
        assert!(matches!(parse_head(&head), Err(HttpError::HeadersTooLarge)));
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let mut head = String::from("GET / HTTP/1.1\r\n");
        for i in 0..200 {
            head.push_str(&format!("X-{i}: v\r\n"));
        }
        head.push_str("\r\n");
        assert!(matches!(parse_head(&head), Err(HttpError::HeadersTooLarge)));
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            "GET /\r\n\r\n",                // missing version
            "GET / HTTP/1.1 extra\r\n\r\n", // four fields
            " / HTTP/1.1\r\n\r\n",          // empty method
            "GET / SPDY/3\r\n\r\n",         // unknown protocol
        ] {
            assert!(parse_head(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn responses_carry_length_and_connection_disposition() {
        let mut out = Vec::new();
        Response::json(200, "{}".as_bytes().to_vec())
            .with_header("X-Cache", "hit")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::text(200, "x")
            .with_close()
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    /// Counts the `write` calls that reach the underlying stream.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_reaches_the_stream_in_one_write() {
        let mut w = CountingWriter::default();
        Response::json(200, b"{\"fds\": []}".to_vec())
            .with_header("X-Cache", "miss")
            .with_header("X-Digest", "00ff")
            .write_to(&mut w)
            .unwrap();
        assert_eq!(w.writes, 1, "head and body must leave in a single write");
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"fds\": []}"), "{text}");
    }

    #[test]
    fn http11_defaults_to_keep_alive_and_honors_close() {
        let r = parse_head("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.http11);
        assert!(r.wants_keep_alive());
        let r = parse_head("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive());
        let r = parse_head("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive(), "token match is case-insensitive");
        let r = parse_head("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive(), "close anywhere in the list wins");
    }

    #[test]
    fn http10_requires_explicit_keep_alive() {
        let r = parse_head("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.http11);
        assert!(!r.wants_keep_alive());
        let r = parse_head("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.wants_keep_alive());
    }

    #[test]
    fn error_bodies_escape_json() {
        let r = Response::error(400, "bad \"quote\"\nline");
        let body = String::from_utf8(r.body).unwrap();
        assert_eq!(body, "{\"error\": \"bad \\\"quote\\\"\\nline\"}\n");
    }
}
