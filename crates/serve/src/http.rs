//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Just enough of RFC 9112 for the serving API: request-line +
//! headers + `Content-Length` bodies, keep-alive by default, no
//! chunked transfer encoding, no TLS. Reads run against the stream's
//! read timeout so idle keep-alive connections poll the server's
//! shutdown flag instead of blocking forever.
//!
//! Parsing is allocation-free on the steady state: each connection
//! owns one [`ConnBufs`] whose line buffer, header strings, and body
//! vector are reused across every keep-alive request, so a hot
//! connection stops paying malloc/free per request after its first.
//! `serve_http_keepalive_reuse` in the bench crate times one cached
//! predict on a kept-alive connection (`keepalive`) and on a fresh one
//! (`fresh_conn`); the fresh row adds the TCP handshake, the spawn of
//! the connection's handler thread and cold buffers, so the gap is the
//! whole per-connection cost, not buffer reuse alone. Slow clients are
//! bounded twice over: the head must fit [`MAX_HEAD_BYTES`], and a
//! *partially received* request must finish within
//! [`ReadParams::head_deadline`] — that is what turns a slow-loris
//! connection into a clean drop instead of a parked handler thread.

use serde_json::Value;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request line + headers (a parsing budget, not a
/// protocol limit).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Limits applied while reading one request.
#[derive(Debug, Clone)]
pub struct ReadParams {
    /// Largest acceptable `Content-Length`.
    pub max_body: usize,
    /// How long a *partially received* request may take to finish
    /// arriving before the connection is dropped as malformed. This
    /// is the slow-loris bound: a client trickling one header byte
    /// per read-timeout window is cut off here.
    pub head_deadline: Duration,
}

impl Default for ReadParams {
    fn default() -> Self {
        ReadParams { max_body: 1 << 20, head_deadline: Duration::from_secs(5) }
    }
}

/// Per-connection reusable parse state. The parsed request's fields
/// live here between reads; accessors expose them borrowed, so the
/// steady-state request path performs no allocation.
#[derive(Debug, Default)]
pub struct ConnBufs {
    line: Vec<u8>,
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    n_headers: usize,
    body: Vec<u8>,
}

impl ConnBufs {
    /// Fresh buffers for a new connection.
    pub fn new() -> ConnBufs {
        ConnBufs::default()
    }

    /// Uppercase method (`GET`, `POST`, …) of the last request read.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// Path (query string included) of the last request read.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Raw body bytes of the last request read.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Header name/value pairs of the last request read, in arrival
    /// order. Entries past `n_headers` are spare capacity from earlier
    /// requests and are not exposed.
    pub fn headers(&self) -> &[(String, String)] {
        self.headers.get(..self.n_headers).unwrap_or(&[])
    }

    /// First header value matching `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body parsed as JSON.
    pub fn json(&self) -> Result<Value, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// `true` unless the client asked for `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

#[cfg(test)]
impl ConnBufs {
    /// Buffers holding `body` as the last request's body.
    pub(crate) fn with_body(body: &[u8]) -> ConnBufs {
        ConnBufs { body: body.to_vec(), ..ConnBufs::default() }
    }
}

/// Stores a header into the reusable slots, recycling the `String`
/// allocations left over from previous requests on this connection.
fn push_header(
    headers: &mut Vec<(String, String)>,
    n_headers: &mut usize,
    name: &str,
    value: &str,
) {
    if let Some((n, v)) = headers.get_mut(*n_headers) {
        n.clear();
        n.push_str(name);
        v.clear();
        v.push_str(value);
    } else {
        headers.push((name.to_string(), value.to_string()));
    }
    *n_headers += 1;
}

/// What a read attempt produced. On `Ready` the request's fields are
/// in the [`ConnBufs`] passed to [`read_request`].
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed into the connection's buffers.
    Ready,
    /// Clean EOF before any request bytes — the peer closed.
    Closed,
    /// No bytes arrived within the stream's read timeout; the caller
    /// decides whether to keep waiting (idle keep-alive) or hang up.
    TimedOut,
    /// Head or body exceeded the configured limits; respond 413/431
    /// and close.
    TooLarge,
    /// Unparseable framing, or a partial request that outlived the
    /// head deadline (slow loris); respond 400 and close.
    Malformed,
}

/// One head line, with the conditions a caller must tell apart.
enum Line {
    /// A non-empty line, left in the caller's buffer (terminators
    /// stripped, UTF-8 checked).
    Data,
    /// A bare CRLF (the head/body separator).
    Blank,
    /// Clean EOF with no bytes consumed.
    Eof,
    /// Read timeout with no bytes consumed.
    Idle,
    /// Torn, over-budget, non-UTF-8, or slow-loris line.
    Bad,
}

/// Reads one CRLF-terminated line into `buf` (reused across calls),
/// retrying timeouts while a partial line is pending, up to
/// `deadline`.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    budget: &mut usize,
    deadline: Duration,
) -> std::io::Result<Line> {
    buf.clear();
    let started = Instant::now();
    loop {
        match reader.read_until(b'\n', buf) {
            Ok(0) => {
                // EOF. Mid-line EOF is a torn request.
                return Ok(if buf.is_empty() { Line::Eof } else { Line::Bad });
            }
            Ok(_) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if buf.is_empty() {
                    return Ok(Line::Idle);
                }
                // Partial line: keep waiting, bounded.
                if started.elapsed() > deadline {
                    return Ok(Line::Bad);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if buf.len() > *budget {
        *budget = 0;
        return Ok(Line::Bad);
    }
    *budget -= buf.len();
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    if std::str::from_utf8(buf).is_err() {
        return Ok(Line::Bad);
    }
    Ok(if buf.is_empty() { Line::Blank } else { Line::Data })
}

/// Reads the next request off the connection into `bufs`.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    bufs: &mut ConnBufs,
    params: &ReadParams,
) -> std::io::Result<ReadOutcome> {
    let mut budget = MAX_HEAD_BYTES;
    let bad = |budget: usize| {
        Ok(if budget == 0 { ReadOutcome::TooLarge } else { ReadOutcome::Malformed })
    };
    bufs.n_headers = 0;
    bufs.method.clear();
    bufs.path.clear();
    bufs.body.clear();

    match read_line(reader, &mut bufs.line, &mut budget, params.head_deadline)? {
        Line::Idle => return Ok(ReadOutcome::TimedOut),
        Line::Eof => return Ok(ReadOutcome::Closed),
        Line::Bad | Line::Blank => return bad(budget),
        Line::Data => {}
    }
    {
        // `line` was UTF-8 checked in read_line.
        let text = std::str::from_utf8(&bufs.line).unwrap_or("");
        let mut parts = text.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
                bufs.method.push_str(m);
                bufs.path.push_str(p);
            }
            _ => return Ok(ReadOutcome::Malformed),
        }
        bufs.method.make_ascii_uppercase();
    }

    // Headers. A stall between lines retries until the head deadline.
    let started = Instant::now();
    loop {
        match read_line(reader, &mut bufs.line, &mut budget, params.head_deadline)? {
            Line::Idle => {
                if started.elapsed() > params.head_deadline {
                    return Ok(ReadOutcome::Malformed);
                }
            }
            Line::Eof | Line::Bad => return bad(budget),
            Line::Blank => break,
            Line::Data => {
                let text = std::str::from_utf8(&bufs.line).unwrap_or("");
                match text.split_once(':') {
                    // Header count is bounded by the MAX_HEAD_BYTES
                    // budget charged per line in read_line, which turns
                    // an oversized head into `Line::Bad` above.
                    Some((name, value)) => push_header(
                        &mut bufs.headers,
                        &mut bufs.n_headers,
                        name.trim(),
                        value.trim(),
                    ),
                    None => return Ok(ReadOutcome::Malformed),
                }
            }
        }
    }

    // Body, into the reused vector.
    let content_length = bufs
        .headers()
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > params.max_body {
        return Ok(ReadOutcome::TooLarge);
    }
    bufs.body.resize(content_length, 0);
    let mut read = 0;
    let started = Instant::now();
    while read < content_length {
        match reader.read(&mut bufs.body[read..]) {
            Ok(0) => return Ok(ReadOutcome::Malformed),
            Ok(n) => read += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if started.elapsed() > params.head_deadline {
                    return Ok(ReadOutcome::Malformed);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }

    Ok(ReadOutcome::Ready)
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response (always with `Content-Length`),
/// building the head in `scratch` so keep-alive handlers reuse one
/// allocation across every response on the connection.
pub fn write_response_with(
    stream: &mut TcpStream,
    scratch: &mut String,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    scratch.clear();
    // Writing to a String cannot fail.
    let _ = write!(
        scratch,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        scratch.push_str(name);
        scratch.push_str(": ");
        scratch.push_str(value);
        scratch.push_str("\r\n");
    }
    scratch.push_str("\r\n");
    stream.write_all(scratch.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// [`write_response_with`] with a throwaway head buffer — for one-shot
/// responses where reuse does not matter.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut scratch = String::new();
    write_response_with(stream, &mut scratch, status, content_type, extra_headers, body, keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Runs `client` against a connection whose peer wrote `raw`.
    fn feed(raw: &[u8]) -> BufReader<TcpStream> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Keep the socket open briefly so reads see data, not RST.
            std::thread::sleep(Duration::from_millis(50));
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        BufReader::new(stream)
    }

    fn params() -> ReadParams {
        ReadParams { max_body: 1024, ..ReadParams::default() }
    }

    #[test]
    fn parses_post_with_body() {
        let mut r = feed(
            b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        );
        let mut bufs = ConnBufs::new();
        match read_request(&mut r, &mut bufs, &params()).unwrap() {
            ReadOutcome::Ready => {
                assert_eq!(bufs.method(), "POST");
                assert_eq!(bufs.path(), "/predict");
                assert_eq!(bufs.header("host"), Some("x"));
                assert_eq!(bufs.body(), b"{\"a\":1}");
                assert_eq!(bufs.json().unwrap()["a"].as_u64(), Some(1));
                assert!(bufs.keep_alive());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn buffers_reused_across_keepalive_requests() {
        let one = b"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc";
        let two = b"GET /b HTTP/1.1\r\nAccept: y\r\n\r\n";
        let raw: Vec<u8> = one.iter().chain(two.iter()).copied().collect();
        let mut r = feed(&raw);
        let mut bufs = ConnBufs::new();
        assert!(matches!(
            read_request(&mut r, &mut bufs, &params()).unwrap(),
            ReadOutcome::Ready
        ));
        assert_eq!(bufs.path(), "/a");
        assert_eq!(bufs.headers().len(), 2);
        assert_eq!(bufs.body(), b"abc");
        let header_cap = bufs.headers.capacity();
        assert!(matches!(
            read_request(&mut r, &mut bufs, &params()).unwrap(),
            ReadOutcome::Ready
        ));
        // Second request fully replaces the first's view...
        assert_eq!(bufs.method(), "GET");
        assert_eq!(bufs.path(), "/b");
        assert_eq!(bufs.headers().len(), 1);
        assert_eq!(bufs.header("accept"), Some("y"));
        assert_eq!(bufs.header("host"), None, "stale headers must not leak");
        assert!(bufs.body().is_empty());
        // ...while reusing the header slot allocations.
        assert_eq!(bufs.headers.capacity(), header_cap);
        assert_eq!(bufs.headers.len(), 2, "spare slot kept for recycling");
    }

    #[test]
    fn connection_close_detected() {
        let mut r = feed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let mut bufs = ConnBufs::new();
        match read_request(&mut r, &mut bufs, &params()).unwrap() {
            ReadOutcome::Ready => assert!(!bufs.keep_alive()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_body_rejected() {
        let mut r = feed(b"POST /p HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        let mut bufs = ConnBufs::new();
        let p = ReadParams { max_body: 100, ..ReadParams::default() };
        assert!(matches!(read_request(&mut r, &mut bufs, &p).unwrap(), ReadOutcome::TooLarge));
    }

    #[test]
    fn header_flood_hits_head_budget() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2000 {
            raw.extend_from_slice(format!("X-Flood-{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let mut r = feed(&raw);
        let mut bufs = ConnBufs::new();
        assert!(matches!(
            read_request(&mut r, &mut bufs, &params()).unwrap(),
            ReadOutcome::TooLarge
        ));
    }

    #[test]
    fn slow_loris_cut_off_at_head_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Trickle a request forever, one fragment per 20ms.
            for _ in 0..50 {
                if s.write_all(b"X").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let mut r = BufReader::new(stream);
        let mut bufs = ConnBufs::new();
        let p = ReadParams { max_body: 1024, head_deadline: Duration::from_millis(100) };
        let started = Instant::now();
        assert!(matches!(
            read_request(&mut r, &mut bufs, &p).unwrap(),
            ReadOutcome::Malformed
        ));
        assert!(started.elapsed() < Duration::from_secs(1), "cut off near the deadline");
        drop(r);
        t.join().unwrap();
    }

    #[test]
    fn garbage_is_malformed() {
        let mut r = feed(b"not http at all\r\n\r\n");
        let mut bufs = ConnBufs::new();
        assert!(matches!(
            read_request(&mut r, &mut bufs, &params()).unwrap(),
            ReadOutcome::Malformed
        ));
    }

    #[test]
    fn idle_times_out_then_closed_on_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        let mut r = BufReader::new(stream);
        let mut bufs = ConnBufs::new();
        assert!(matches!(
            read_request(&mut r, &mut bufs, &params()).unwrap(),
            ReadOutcome::TimedOut
        ));
        drop(client);
        assert!(matches!(
            read_request(&mut r, &mut bufs, &params()).unwrap(),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn response_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let mut raw = Vec::new();
            c.read_to_end(&mut raw).unwrap();
            String::from_utf8(raw).unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        // Drain the request before responding: closing a socket with
        // unread bytes in its receive buffer sends RST, not FIN, and
        // the client's read_to_end then races a ConnectionReset.
        let mut seen = Vec::new();
        let mut buf = [0u8; 64];
        while !seen.ends_with(b"\r\n\r\n") {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "client closed before finishing the request");
            seen.extend_from_slice(&buf[..n]);
        }
        let mut scratch = String::new();
        write_response_with(
            &mut stream,
            &mut scratch,
            503,
            "application/json",
            &[("Retry-After", "2".to_string())],
            b"{}",
            false,
        )
        .unwrap();
        drop(stream);
        let raw = t.join().unwrap();
        assert!(raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{raw}");
        assert!(raw.contains("Retry-After: 2\r\n"));
        assert!(raw.contains("Connection: close\r\n"));
        assert!(raw.ends_with("\r\n\r\n{}"));
    }
}
