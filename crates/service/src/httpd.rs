//! The crate's one HTTP implementation, and the `/v1` JSON gateway
//! built on it.
//!
//! Everything HTTP in this workspace goes through this module: the
//! telemetry sidecar ([`crate::http::MetricsServer`]) mounts its
//! `/metrics`/`/healthz` routes here, and the [`Gateway`] fronts a
//! `dtnsimd` daemon or `dtnfedd` federation with a plain HTTP/JSON API
//! so scripts and low-capability clients can submit sweeps without
//! speaking the length-prefixed wire protocol.
//!
//! ## The server half
//!
//! [`HttpServer`] is a deliberately small HTTP/1.1 listener: one
//! request per connection (`Connection: close` on every response, so
//! HTTP/1.0 scrapers work unchanged), thread-per-connection (streams
//! may be long-lived), and a bounded parser — [`HttpLimits`] caps the
//! head and body sizes and puts a wall-clock deadline on reading the
//! request, which is the slowloris guard: a client that dribbles bytes
//! cannot pin a connection thread past the deadline.
//!
//! ## The gateway
//!
//! | route | answer |
//! |---|---|
//! | `POST /v1/sweeps` | submit a robustness grid; `202` + content-addressed sweep id |
//! | `GET /v1/sweeps/{id}` | status document |
//! | `GET /v1/sweeps/{id}/stream` | chunked stream: one JSON line per finished point, then the assembled report |
//! | `DELETE /v1/sweeps/{id}` | best-effort cancel |
//! | `GET /v1/protocols` | the canonical protocol spec table |
//! | `GET /metrics`, `GET /healthz` | same as the sidecar |
//!
//! The gateway executes sweeps through [`ResilientClient`] against its
//! configured upstream, so federation failover and hedging are
//! transparent, and every job travels the content-addressed
//! [`crate::job_key`] path — an HTTP-submitted sweep hits the same
//! cache as a TCP-submitted one and replays **byte-identically**. The
//! stream keeps that property end to end: per-point `outcome` members
//! are the daemon's verbatim fragment bytes (always the last member,
//! like the wire protocol's frames), and the terminating report is
//! length-prefixed raw bytes, never re-encoded.
//!
//! Upstream states map onto HTTP statuses: backpressure (`queue_full`,
//! `draining`, …) is `429` with a `Retry-After` header carrying the
//! daemon's own hint; a quorum-lost federation (`unreachable`) is
//! `503`; a dead upstream is `502`. Mid-sweep quorum loss surfaces as
//! a *partial* result — the stream still terminates with an assembled
//! report, plus a non-zero `missing` count, exactly like
//! `dtnsim --connect` partial-sweep mode.

use crate::cache::job_key;
use crate::client::{Client, ClientError, RetryPolicy};
use crate::json::{escape, Value};
use crate::resilient::ResilientClient;
use dtn_epidemic::protocols;
use dtn_experiments::{grid_point_jobs, GridPoint, Mobility, SweepConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Limits and parse errors
// ---------------------------------------------------------------------------

/// Bounds on what the parser will accept from one connection.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Request head (request line + headers) cap.
    pub max_head_bytes: usize,
    /// Request body cap (identity or chunked).
    pub max_body_bytes: usize,
    /// Wall-clock budget for reading one complete request — the
    /// slowloris guard.
    pub read_deadline: Duration,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// Why a request could not be read. Each variant maps to the HTTP
/// status the server answers before closing.
#[derive(Debug)]
pub enum HttpError {
    /// Head exceeded [`HttpLimits::max_head_bytes`] → `431`.
    HeadTooLarge,
    /// Body exceeded [`HttpLimits::max_body_bytes`] → `413`.
    BodyTooLarge,
    /// The read deadline expired mid-request → `408`.
    Timeout,
    /// The peer closed before sending anything (no response owed).
    Closed,
    /// Anything else unparseable → `400` with the reason.
    Malformed(String),
}

impl HttpError {
    /// `(status line, message)` to answer with; `None` when the peer is
    /// owed nothing (it never sent a request).
    fn response(&self) -> Option<(&'static str, String)> {
        match self {
            HttpError::HeadTooLarge => Some((
                "431 Request Header Fields Too Large",
                "request head exceeds the limit".to_string(),
            )),
            HttpError::BodyTooLarge => Some((
                "413 Content Too Large",
                "request body exceeds the limit".to_string(),
            )),
            HttpError::Timeout => Some((
                "408 Request Timeout",
                "request read deadline expired".to_string(),
            )),
            HttpError::Closed => None,
            HttpError::Malformed(reason) => Some(("400 Bad Request", reason.clone())),
        }
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// Path component of the target (before `?`).
    pub path: String,
    /// Raw query string (after `?`, empty if absent).
    pub query: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Decoded body bytes (chunked bodies are de-chunked).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the query string contains `key` or `key=1`/`key=true`.
    pub fn query_flag(&self, key: &str) -> bool {
        self.query.split('&').any(|item| {
            item == key
                || item
                    .split_once('=')
                    .is_some_and(|(k, v)| k == key && matches!(v, "1" | "true"))
        })
    }
}

/// Read bytes until the `\r\n\r\n` ending a head. Returns the head (without
/// the terminator) and any bytes read past it (the body's first bytes).
fn read_head(
    reader: &mut dyn Read,
    cap: usize,
    deadline: Instant,
) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut acc: Vec<u8> = Vec::with_capacity(256);
    let mut buf = [0u8; 1024];
    loop {
        if let Some(pos) = acc.windows(4).position(|w| w == b"\r\n\r\n") {
            let leftover = acc.split_off(pos + 4);
            acc.truncate(pos);
            return Ok((acc, leftover));
        }
        if acc.len() > cap {
            return Err(HttpError::HeadTooLarge);
        }
        match reader.read(&mut buf) {
            Ok(0) => {
                return Err(if acc.is_empty() {
                    HttpError::Closed
                } else {
                    HttpError::Malformed("connection closed mid-head".to_string())
                })
            }
            Ok(n) => acc.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err(HttpError::Timeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Malformed(format!("read failed: {e}"))),
        }
    }
}

/// Fill `buf` completely, riding out read timeouts until `deadline`.
fn fill(reader: &mut dyn Read, buf: &mut [u8], deadline: Instant) -> Result<(), HttpError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(HttpError::Malformed(
                    "connection closed mid-body".to_string(),
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err(HttpError::Timeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Malformed(format!("read failed: {e}"))),
        }
    }
    Ok(())
}

/// Read one `\r\n`-terminated line (returned without the terminator).
fn read_crlf_line(
    reader: &mut dyn Read,
    cap: usize,
    deadline: Instant,
) -> Result<String, HttpError> {
    let mut line: Vec<u8> = Vec::with_capacity(16);
    let mut byte = [0u8; 1];
    loop {
        fill(reader, &mut byte, deadline)?;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-UTF-8 chunk framing".to_string()));
        }
        line.push(byte[0]);
        if line.len() > cap {
            return Err(HttpError::Malformed(
                "oversized chunk-size line".to_string(),
            ));
        }
    }
}

/// Decode a chunked transfer-encoded body (torn bodies are malformed).
fn read_chunked_body(
    reader: &mut dyn Read,
    cap: usize,
    deadline: Instant,
) -> Result<Vec<u8>, HttpError> {
    let mut out: Vec<u8> = Vec::new();
    loop {
        let size_line = read_crlf_line(reader, 256, deadline)?;
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size {size_hex:?}")))?;
        if size == 0 {
            // Trailer section: lines until the blank one.
            loop {
                if read_crlf_line(reader, 256, deadline)?.is_empty() {
                    return Ok(out);
                }
            }
        }
        if out.len() + size > cap {
            return Err(HttpError::BodyTooLarge);
        }
        let start = out.len();
        out.resize(start + size, 0);
        fill(reader, &mut out[start..], deadline)?;
        let mut crlf = [0u8; 2];
        fill(reader, &mut crlf, deadline)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::Malformed(
                "chunk data not CRLF-terminated".to_string(),
            ));
        }
    }
}

/// Read and parse one complete request under `limits`. The reader
/// should carry a short socket read timeout so the deadline can fire
/// mid-silence (in-memory readers simply never time out).
pub fn read_request(reader: &mut dyn Read, limits: &HttpLimits) -> Result<Request, HttpError> {
    let deadline = Instant::now() + limits.read_deadline;
    let (head, leftover) = read_head(reader, limits.max_head_bytes, deadline)?;
    let head = String::from_utf8(head)
        .map_err(|_| HttpError::Malformed("non-UTF-8 request head".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let mut body_reader = std::io::Cursor::new(leftover).chain(reader);
    let body = if header("transfer-encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
    {
        read_chunked_body(&mut body_reader, limits.max_body_bytes, deadline)?
    } else if let Some(len) = header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
        if len > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
        let mut body = vec![0u8; len];
        fill(&mut body_reader, &mut body, deadline)?;
        body
    } else {
        Vec::new()
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The write half of one connection, handed to the server's handler.
/// Exactly one response goes out: either [`Responder::send`] or a
/// [`Responder::begin_chunked`] stream. Every response carries
/// `Connection: close`.
pub struct Responder {
    stream: TcpStream,
}

impl Responder {
    /// Send a complete response with a `Content-Length` body.
    pub fn send(
        mut self,
        status: &str,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
    ) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("Connection: close\r\n\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }

    /// Start a chunked response; the body goes out through the returned
    /// writer.
    pub fn begin_chunked(
        mut self,
        status: &str,
        content_type: &str,
    ) -> std::io::Result<ChunkedWriter> {
        let head = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.flush()?;
        Ok(ChunkedWriter {
            stream: self.stream,
        })
    }
}

/// Writer for a chunked response body.
pub struct ChunkedWriter {
    stream: TcpStream,
}

impl ChunkedWriter {
    /// Write one chunk (empty input writes nothing — an empty chunk
    /// would terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.stream
            .write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the stream (the zero chunk).
    pub fn finish(mut self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A request handler: consume the request, produce exactly one response
/// through the responder.
pub type Handler = dyn Fn(Request, Responder) + Send + Sync;

/// A bound HTTP listener dispatching each connection's one request to a
/// handler on its own thread.
pub struct HttpServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `127.0.0.1:port` (0 picks a free port) and serve until
    /// [`HttpServer::shutdown`].
    pub fn spawn(
        port: u16,
        thread_name: &str,
        limits: HttpLimits,
        handler: Arc<Handler>,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let handler = Arc::clone(&handler);
                    // Connection threads are detached: each serves one
                    // request then exits, and a streaming response may
                    // legitimately outlive the accept loop.
                    let _ = std::thread::Builder::new()
                        .name("http-conn".to_string())
                        .spawn(move || serve_connection(stream, limits, &*handler));
                }
            })?;
        Ok(HttpServer {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the accept thread (in-flight connection
    /// threads drain on their own).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_connection(stream: TcpStream, limits: HttpLimits, handler: &Handler) {
    // A short socket timeout makes every blocking read wake up to check
    // the parser's wall-clock deadline — the slowloris guard.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut reader = &stream;
    match read_request(&mut reader, &limits) {
        Ok(request) => {
            let _ = stream.set_read_timeout(None);
            handler(request, Responder { stream });
        }
        Err(e) => {
            if let Some((status, message)) = e.response() {
                let body = format!("{{\"error\":\"{}\"}}\n", escape(&message));
                let _ = Responder { stream }.send(status, "application/json", &[], body.as_bytes());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client half
// ---------------------------------------------------------------------------

/// A complete client-side response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Numeric status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The full (de-chunked) body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Incremental reader over a response body: de-chunks chunked bodies,
/// bounds `Content-Length` ones, reads to close otherwise.
pub struct BodyReader {
    stream: TcpStream,
    leftover: Vec<u8>,
    pos: usize,
    mode: BodyMode,
}

enum BodyMode {
    Chunked {
        remaining: usize,
        first: bool,
        done: bool,
    },
    Length(usize),
    UntilClose,
}

impl BodyReader {
    fn read_raw(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.leftover.len() {
            let n = (self.leftover.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.leftover[self.pos..self.pos + n]);
            self.pos += n;
            return Ok(n);
        }
        loop {
            match self.stream.read(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    fn read_raw_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.read_raw(&mut buf[filled..])? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "torn chunked body",
                    ))
                }
                n => filled += n,
            }
        }
        Ok(())
    }

    fn read_raw_line(&mut self) -> std::io::Result<String> {
        let mut line: Vec<u8> = Vec::with_capacity(16);
        let mut byte = [0u8; 1];
        loop {
            self.read_raw_exact(&mut byte)?;
            if byte[0] == b'\n' {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 chunk framing")
                });
            }
            line.push(byte[0]);
            if line.len() > 256 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "oversized chunk-size line",
                ));
            }
        }
    }
}

impl Read for BodyReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        match self.mode {
            BodyMode::UntilClose => self.read_raw(buf),
            BodyMode::Length(0) => Ok(0),
            BodyMode::Length(remaining) => {
                let take = remaining.min(buf.len());
                let got = self.read_raw(&mut buf[..take])?;
                if got == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "body shorter than content-length",
                    ));
                }
                self.mode = BodyMode::Length(remaining - got);
                Ok(got)
            }
            BodyMode::Chunked { done: true, .. } => Ok(0),
            BodyMode::Chunked {
                mut remaining,
                mut first,
                ..
            } => {
                if remaining == 0 {
                    if !first {
                        let mut crlf = [0u8; 2];
                        self.read_raw_exact(&mut crlf)?;
                        if &crlf != b"\r\n" {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                "chunk data not CRLF-terminated",
                            ));
                        }
                    }
                    first = false;
                    let size_line = self.read_raw_line()?;
                    let size_hex = size_line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_hex, 16).map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("bad chunk size {size_hex:?}"),
                        )
                    })?;
                    if size == 0 {
                        while !self.read_raw_line()?.is_empty() {}
                        self.mode = BodyMode::Chunked {
                            remaining: 0,
                            first,
                            done: true,
                        };
                        return Ok(0);
                    }
                    remaining = size;
                }
                let take = remaining.min(buf.len());
                let got = self.read_raw(&mut buf[..take])?;
                if got == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "torn chunked body",
                    ));
                }
                self.mode = BodyMode::Chunked {
                    remaining: remaining - got,
                    first,
                    done: false,
                };
                Ok(got)
            }
        }
    }
}

/// An opened response: status, lower-cased headers, incremental body.
pub type OpenResponse = (u16, Vec<(String, String)>, BodyReader);

/// Send one request and return the parsed head plus an incremental
/// body reader — the streaming client used by `dtnsim --gateway`.
pub fn http_open(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
) -> std::io::Result<OpenResponse> {
    let stream = TcpStream::connect(addr)?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some((content_type, payload)) = body {
        head.push_str(&format!(
            "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
            payload.len()
        ));
    }
    head.push_str("Connection: close\r\n\r\n");
    {
        let mut w = &stream;
        w.write_all(head.as_bytes())?;
        if let Some((_, payload)) = body {
            w.write_all(payload)?;
        }
        w.flush()?;
    }
    let mut reader = &stream;
    // Far-future deadline: the client blocks as long as the server
    // streams (a sweep point can take minutes); a closed socket still
    // errors out promptly.
    let deadline = Instant::now() + Duration::from_secs(24 * 3600);
    let (head, leftover) = read_head(&mut reader, 64 * 1024, deadline).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad response head: {e:?}"),
        )
    })?;
    let head = String::from_utf8(head)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let mode =
        if find("transfer-encoding").is_some_and(|v| v.to_ascii_lowercase().contains("chunked")) {
            BodyMode::Chunked {
                remaining: 0,
                first: true,
                done: false,
            }
        } else if let Some(len) = find("content-length").and_then(|v| v.parse::<usize>().ok()) {
            BodyMode::Length(len)
        } else {
            BodyMode::UntilClose
        };
    Ok((
        status,
        headers,
        BodyReader {
            stream,
            leftover,
            pos: 0,
            mode,
        },
    ))
}

/// Send one request and read the whole response.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
) -> std::io::Result<HttpResponse> {
    let (status, headers, mut reader) = http_open(addr, method, path, body)?;
    let mut body = Vec::new();
    reader.read_to_end(&mut body)?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

// ---------------------------------------------------------------------------
// Connect-target parsing (dtnsim --connect)
// ---------------------------------------------------------------------------

/// Where `dtnsim --connect` should point its client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnectTarget {
    /// A `host:port` speaking the length-prefixed wire protocol.
    Wire(String),
    /// An `http://host:port` gateway (stored as bare `host:port`).
    Http(String),
}

/// A typed parse failure for a connect address: what was given and why
/// it is not usable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectParseError {
    /// The offending input, verbatim.
    pub input: String,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ConnectParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid connect address {input:?}: {reason}",
            input = self.input,
            reason = self.reason
        )
    }
}

impl std::error::Error for ConnectParseError {}

fn check_host_port(input: &str, s: &str) -> Result<(), ConnectParseError> {
    let err = |reason: String| ConnectParseError {
        input: input.to_string(),
        reason,
    };
    let (host, port) = s
        .rsplit_once(':')
        .ok_or_else(|| err("expected host:port".to_string()))?;
    if host.is_empty() {
        return Err(err("empty host".to_string()));
    }
    match port.parse::<u16>() {
        Ok(0) => Err(err("port 0 is not connectable".to_string())),
        Ok(_) => Ok(()),
        Err(_) => Err(err(format!("bad port {port:?}"))),
    }
}

/// Classify a `--connect` address: `http://host:port` selects the
/// gateway client, bare `host:port` the wire client; anything else is a
/// typed error naming the problem.
pub fn parse_connect_target(s: &str) -> Result<ConnectTarget, ConnectParseError> {
    let err = |reason: &str| ConnectParseError {
        input: s.to_string(),
        reason: reason.to_string(),
    };
    if let Some(rest) = s.strip_prefix("http://") {
        let rest = rest.strip_suffix('/').unwrap_or(rest);
        if rest.contains('/') {
            return Err(err("a gateway URL is just http://host:port, with no path"));
        }
        check_host_port(s, rest)?;
        return Ok(ConnectTarget::Http(rest.to_string()));
    }
    if s.starts_with("https://") {
        return Err(err("https is not supported; the gateway speaks plain http"));
    }
    if let Some((scheme, _)) = s.split_once("://") {
        return Err(ConnectParseError {
            input: s.to_string(),
            reason: format!("unsupported scheme {scheme:?} (use http:// or bare host:port)"),
        });
    }
    check_host_port(s, s)?;
    Ok(ConnectTarget::Wire(s.to_string()))
}

// ---------------------------------------------------------------------------
// The gateway
// ---------------------------------------------------------------------------

/// Gateway configuration.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// HTTP bind port on 127.0.0.1 (0 picks a free port).
    pub port: u16,
    /// Wire address of the upstream `dtnsimd` or `dtnfedd`.
    pub upstream: String,
    /// Seed for the runner's healing/backoff jitter streams.
    pub seed: u64,
    /// Parser bounds for incoming requests.
    pub limits: HttpLimits,
}

impl GatewayConfig {
    /// A default-limit gateway on a free port, fronting `upstream`.
    pub fn new(upstream: &str) -> GatewayConfig {
        GatewayConfig {
            port: 0,
            upstream: upstream.to_string(),
            seed: 0,
            limits: HttpLimits::default(),
        }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum SweepStatus {
    #[default]
    Running,
    Done,
    Failed,
    Cancelled,
}

impl SweepStatus {
    fn as_str(self) -> &'static str {
        match self {
            SweepStatus::Running => "running",
            SweepStatus::Done => "done",
            SweepStatus::Failed => "failed",
            SweepStatus::Cancelled => "cancelled",
        }
    }
}

#[derive(Default)]
struct SweepInner {
    status: SweepStatus,
    /// Pre-rendered per-point stream lines, in completion order.
    points: Vec<String>,
    cancel_requested: bool,
    missing: u64,
    error: Option<String>,
    report_full: Option<String>,
    report_canonical: Option<String>,
}

struct Sweep {
    id: String,
    total: usize,
    /// Content addresses of every job, in grid order (cancel targets —
    /// the daemon's job id *is* the job key).
    job_keys: Vec<String>,
    inner: Mutex<SweepInner>,
    cv: Condvar,
}

impl Sweep {
    fn status_doc(&self) -> String {
        let inner = self.inner.lock().expect("sweep poisoned");
        let error = inner
            .error
            .as_ref()
            .map(|e| format!(",\"error\":\"{}\"", escape(e)))
            .unwrap_or_default();
        format!(
            "{{\"id\":\"{}\",\"status\":\"{}\",\"total\":{},\"done\":{},\"missing\":{}{error}}}\n",
            self.id,
            inner.status.as_str(),
            self.total,
            inner.points.len(),
            inner.missing,
        )
    }
}

struct GatewayState {
    config: GatewayConfig,
    sweeps: Mutex<HashMap<String, Arc<Sweep>>>,
}

/// The running HTTP/JSON gateway.
pub struct Gateway {
    server: HttpServer,
}

impl Gateway {
    /// Bind and serve. Runner threads are spawned per accepted sweep
    /// and detached — they complete their upstream work even if the
    /// listener shuts down first.
    pub fn spawn(config: GatewayConfig) -> std::io::Result<Gateway> {
        let limits = config.limits;
        let port = config.port;
        let state = Arc::new(GatewayState {
            config,
            sweeps: Mutex::new(HashMap::new()),
        });
        let handler: Arc<Handler> = Arc::new(move |request, responder| {
            route(&state, request, responder);
        });
        let server = HttpServer::spawn(port, "gateway-http", limits, handler)?;
        Ok(Gateway { server })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Stop the listener (in-flight sweeps keep running upstream).
    pub fn shutdown(self) {
        self.server.shutdown()
    }
}

fn route(state: &Arc<GatewayState>, request: Request, responder: Responder) {
    let path = request.path.clone();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    let result = match (method, segments.as_slice()) {
        ("GET", ["metrics"]) => responder.send(
            "200 OK",
            "text/plain; version=0.0.4",
            &[],
            dtn_sim::telemetry::global().render_prometheus().as_bytes(),
        ),
        ("GET", ["healthz"]) => responder.send("200 OK", "text/plain", &[], b"ok\n"),
        ("GET", ["v1", "protocols"]) => responder.send(
            "200 OK",
            "application/json",
            &[],
            protocols_doc().as_bytes(),
        ),
        ("POST", ["v1", "sweeps"]) => {
            handle_submit(state, &request, responder);
            Ok(())
        }
        ("GET", ["v1", "sweeps", id]) => match lookup(state, id) {
            Some(sweep) => responder.send(
                "200 OK",
                "application/json",
                &[],
                sweep.status_doc().as_bytes(),
            ),
            None => not_found(responder, id),
        },
        ("GET", ["v1", "sweeps", id, "stream"]) => match lookup(state, id) {
            Some(sweep) => {
                handle_stream(&sweep, request.query_flag("canonical"), responder);
                Ok(())
            }
            None => not_found(responder, id),
        },
        ("DELETE", ["v1", "sweeps", id]) => match lookup(state, id) {
            Some(sweep) => {
                handle_cancel(state, &sweep, responder);
                Ok(())
            }
            None => not_found(responder, id),
        },
        (_, ["metrics" | "healthz"]) | (_, ["v1", ..]) => responder.send(
            "405 Method Not Allowed",
            "application/json",
            &[],
            b"{\"error\":\"method not allowed\"}\n",
        ),
        _ => responder.send(
            "404 Not Found",
            "application/json",
            &[],
            b"{\"error\":\"no such route\"}\n",
        ),
    };
    let _ = result;
}

fn lookup(state: &GatewayState, id: &str) -> Option<Arc<Sweep>> {
    state
        .sweeps
        .lock()
        .expect("sweeps poisoned")
        .get(id)
        .cloned()
}

fn not_found(responder: Responder, id: &str) -> std::io::Result<()> {
    let body = format!("{{\"error\":\"no sweep {}\"}}\n", escape(id));
    responder.send("404 Not Found", "application/json", &[], body.as_bytes())
}

fn protocols_doc() -> String {
    let rows: Vec<String> = protocols::ALL_SPECS
        .iter()
        .zip(protocols::spec_protocols())
        .map(|(spec, proto)| {
            format!(
                "{{\"spec\":\"{}\",\"name\":\"{}\"}}",
                escape(spec),
                escape(proto.name)
            )
        })
        .collect();
    format!("{{\"protocols\":[{}]}}\n", rows.join(","))
}

/// A robustness sweep's parameters: the `POST /v1/sweeps` body and
/// `dtnsim`'s sweep flags, with one set of defaults and one check.
/// [`SweepSpec::to_json`] writes the body [`SweepSpec::parse`] reads.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// The built-in mobility scenario.
    pub mobility: Mobility,
    /// Bundles per flow.
    pub load: u32,
    /// Replications per point.
    pub reps: usize,
    /// Root seed.
    pub seed: u64,
    /// Relay-buffer capacity.
    pub buffer: usize,
    /// Per-bundle transmission time in seconds (`None`: the scenario's).
    pub tx_time: Option<u64>,
    /// Retries of a panicking replication.
    pub retries: u32,
    /// Hard per-replication deadline in seconds.
    pub point_timeout: Option<u64>,
    /// Attach the invariant auditor to every replication.
    pub audit: bool,
}

impl SweepSpec {
    /// The default sweep on `mobility`.
    pub fn new(mobility: Mobility) -> SweepSpec {
        SweepSpec {
            mobility,
            load: 25,
            reps: 10,
            seed: 1,
            buffer: 10,
            tx_time: None,
            retries: 0,
            point_timeout: None,
            audit: false,
        }
    }

    /// Refuse parameters no run can use.
    pub fn validate(&self) -> Result<(), String> {
        if self.load == 0 || self.reps == 0 || self.buffer == 0 {
            return Err("load, reps and buffer must be at least 1".to_string());
        }
        if self.point_timeout == Some(0) {
            return Err("point_timeout must be at least 1 second".to_string());
        }
        Ok(())
    }

    /// Parse and validate a JSON body; absent members keep
    /// [`SweepSpec::new`]'s defaults.
    pub fn parse(body: &[u8]) -> Result<SweepSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        if text.trim().is_empty() {
            return Err("empty body; expected a JSON sweep spec like \
                        {\"mobility\":\"interval=2000\",\"load\":10}"
                .to_string());
        }
        let v = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let mobility_spec = v
            .get("mobility")
            .and_then(Value::as_str)
            .ok_or("missing \"mobility\" (trace | rwp | geom-rwp | interval=SECS)")?;
        let defaults = SweepSpec::new(Mobility::parse(mobility_spec)?);
        let opt_uint = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(value) if value.is_null() => Ok(None),
                Some(value) => value
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
            }
        };
        let uint = |key: &str, default: u64| -> Result<u64, String> {
            Ok(opt_uint(key)?.unwrap_or(default))
        };
        let range = |key: &str| format!("\"{key}\" out of range");
        let spec = SweepSpec {
            load: u32::try_from(uint("load", u64::from(defaults.load))?)
                .map_err(|_| range("load"))?,
            reps: usize::try_from(uint("reps", defaults.reps as u64)?)
                .map_err(|_| range("reps"))?,
            seed: uint("seed", defaults.seed)?,
            buffer: usize::try_from(uint("buffer", defaults.buffer as u64)?)
                .map_err(|_| range("buffer"))?,
            tx_time: opt_uint("tx_time")?,
            retries: u32::try_from(uint("retries", u64::from(defaults.retries))?)
                .map_err(|_| range("retries"))?,
            point_timeout: opt_uint("point_timeout")?,
            audit: match v.get("audit") {
                None => defaults.audit,
                Some(value) => value
                    .as_bool()
                    .ok_or("\"audit\" must be a boolean".to_string())?,
            },
            ..defaults
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The JSON body [`SweepSpec::parse`] reads back to `self`.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"mobility\":\"{}\",\"load\":{},\"reps\":{},\"seed\":{},\"buffer\":{},\
             \"tx_time\":{},\"retries\":{},\"point_timeout\":{},\"audit\":{}}}",
            escape(&self.mobility.spec()),
            self.load,
            self.reps,
            self.seed,
            self.buffer,
            opt(self.tx_time),
            self.retries,
            opt(self.point_timeout),
            self.audit
        )
    }

    /// The robustness grid's configuration.
    pub fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            loads: vec![self.load],
            replications: self.reps,
            base_seed: self.seed,
            buffer_capacity: self.buffer,
            tx_time_secs: self.tx_time,
            retries: self.retries,
            point_timeout_secs: self.point_timeout,
            audit: self.audit,
            ..SweepConfig::default()
        }
    }
}

fn bad_request(responder: Responder, message: &str) {
    let body = format!("{{\"error\":\"{}\"}}\n", escape(message));
    let _ = responder.send("400 Bad Request", "application/json", &[], body.as_bytes());
}

fn handle_submit(state: &Arc<GatewayState>, request: &Request, responder: Responder) {
    let spec = match SweepSpec::parse(&request.body) {
        Ok(spec) => spec,
        Err(e) => return bad_request(responder, &e),
    };
    let cfg = spec.sweep_config();
    let points = match grid_point_jobs(spec.mobility, &cfg) {
        Ok(points) => points,
        Err(e) => return bad_request(responder, &e),
    };
    // The sweep id is the content address of the whole grid: equal
    // specs collapse onto one sweep, exactly as equal jobs collapse
    // onto one cache entry.
    let canonical: Vec<String> = points.iter().map(|p| p.job.to_canonical_json()).collect();
    let id = job_key(&canonical.join("\n"));
    if let Some(existing) = reuse_or_evict(state, &id) {
        let _ = responder.send(
            "200 OK",
            "application/json",
            &[],
            existing.status_doc().as_bytes(),
        );
        return;
    }
    // Admission probe: one zero-retry submit of the first job answers
    // the backpressure question *now*, so the client gets its 429 (and
    // the daemon's own Retry-After hint) instead of a silently queued
    // sweep. The probe's job is not wasted — the runner resubmits it
    // idempotently.
    match Client::connect(&state.config.upstream) {
        Err(e) => {
            let body = format!(
                "{{\"error\":\"upstream daemon unreachable: {}\"}}\n",
                escape(&e.to_string())
            );
            let _ = responder.send("502 Bad Gateway", "application/json", &[], body.as_bytes());
            return;
        }
        Ok(mut probe) => match probe.submit_once(&points[0].job) {
            Ok(Ok(_ticket)) => {}
            Ok(Err(backpressure)) => {
                let secs = backpressure.retry_after_ms.div_ceil(1000).max(1);
                let body = format!(
                    "{{\"error\":\"backpressure\",\"reason\":\"{}\",\"retry_after_ms\":{}}}\n",
                    escape(&backpressure.reason),
                    backpressure.retry_after_ms
                );
                let _ = responder.send(
                    "429 Too Many Requests",
                    "application/json",
                    &[("Retry-After", secs.to_string())],
                    body.as_bytes(),
                );
                return;
            }
            Err(ClientError::Unreachable(detail)) => {
                let body = format!(
                    "{{\"error\":\"unreachable\",\"detail\":\"{}\"}}\n",
                    escape(&detail)
                );
                let _ = responder.send(
                    "503 Service Unavailable",
                    "application/json",
                    &[],
                    body.as_bytes(),
                );
                return;
            }
            Err(e) => {
                let body = format!(
                    "{{\"error\":\"upstream error: {}\"}}\n",
                    escape(&e.to_string())
                );
                let _ = responder.send("502 Bad Gateway", "application/json", &[], body.as_bytes());
                return;
            }
        },
    }
    let sweep = Arc::new(Sweep {
        id: id.clone(),
        total: points.len(),
        job_keys: canonical.iter().map(|c| job_key(c)).collect(),
        inner: Mutex::new(SweepInner::default()),
        cv: Condvar::new(),
    });
    {
        let mut sweeps = state.sweeps.lock().expect("sweeps poisoned");
        // A concurrent identical POST may have won the race while the
        // probe was in flight; theirs is as good as ours.
        if let Some(existing) = sweeps.get(&id) {
            let doc = Arc::clone(existing).status_doc();
            drop(sweeps);
            let _ = responder.send("200 OK", "application/json", &[], doc.as_bytes());
            return;
        }
        sweeps.insert(id.clone(), Arc::clone(&sweep));
    }
    let config = state.config.clone();
    let runner_sweep = Arc::clone(&sweep);
    let mobility = spec.mobility;
    let _ = std::thread::Builder::new()
        .name("gateway-sweep".to_string())
        .spawn(move || run_sweep(config, mobility, cfg, points, runner_sweep));
    let _ = responder.send(
        "202 Accepted",
        "application/json",
        &[],
        sweep.status_doc().as_bytes(),
    );
}

/// Reuse a live (running or completed) sweep with this id; evict a
/// failed or cancelled one so the resubmission runs fresh.
fn reuse_or_evict(state: &GatewayState, id: &str) -> Option<Arc<Sweep>> {
    let mut sweeps = state.sweeps.lock().expect("sweeps poisoned");
    let existing = sweeps.get(id)?;
    let status = existing.inner.lock().expect("sweep poisoned").status;
    match status {
        SweepStatus::Running | SweepStatus::Done => Some(Arc::clone(existing)),
        SweepStatus::Failed | SweepStatus::Cancelled => {
            sweeps.remove(id);
            None
        }
    }
}

fn run_sweep(
    config: GatewayConfig,
    mobility: Mobility,
    cfg: SweepConfig,
    points: Vec<GridPoint>,
    sweep: Arc<Sweep>,
) {
    let policy = RetryPolicy {
        seed: config.seed,
        ..RetryPolicy::default()
    };
    let mut client = ResilientClient::new(&config.upstream, policy);
    let result = client.sweep_grid(mobility, &cfg, &points, &mut |index, fragment, cached| {
        // `outcome` is last, like the wire protocol's frames: a reader
        // can slice the member's bytes verbatim.
        let line = format!(
            "{{\"type\":\"point\",\"index\":{index},\"key\":\"{}\",\"cached\":{cached},\
             \"outcome\":{fragment}}}",
            escape(&points[index].key)
        );
        let mut inner = sweep.inner.lock().expect("sweep poisoned");
        inner.points.push(line);
        sweep.cv.notify_all();
    });
    // Render outside the lock: stream readers wait on it.
    let result = result.map(|grid| {
        let report = &grid.report;
        (
            grid.missing.len() as u64,
            report.to_json(),
            report.to_canonical_json(),
        )
    });
    let mut inner = sweep.inner.lock().expect("sweep poisoned");
    match result {
        Ok((missing, full, canonical)) => {
            inner.status = SweepStatus::Done;
            inner.missing = missing;
            inner.report_full = Some(full);
            inner.report_canonical = Some(canonical);
        }
        Err(_) if inner.cancel_requested => inner.status = SweepStatus::Cancelled,
        Err(e) => {
            inner.status = SweepStatus::Failed;
            inner.error = Some(e);
        }
    }
    sweep.cv.notify_all();
}

fn handle_stream(sweep: &Arc<Sweep>, canonical: bool, responder: Responder) {
    let Ok(mut writer) = responder.begin_chunked("200 OK", "application/x-ndjson") else {
        return;
    };
    let mut sent = 0usize;
    loop {
        // Snapshot under the lock, write outside it: a slow reader must
        // not stall the runner's completion callback.
        let (batch, terminal): (Vec<String>, Option<(String, Option<String>)>) = {
            let mut inner = sweep.inner.lock().expect("sweep poisoned");
            loop {
                if sent < inner.points.len() {
                    break (inner.points[sent..].to_vec(), None);
                }
                match inner.status {
                    SweepStatus::Running => {
                        inner = sweep
                            .cv
                            .wait_timeout(inner, Duration::from_secs(1))
                            .expect("sweep poisoned")
                            .0;
                    }
                    SweepStatus::Done => {
                        let report = if canonical {
                            inner.report_canonical.clone()
                        } else {
                            inner.report_full.clone()
                        }
                        .unwrap_or_default();
                        let header = format!(
                            "{{\"type\":\"report\",\"status\":\"done\",\"missing\":{},\
                             \"bytes\":{}}}\n",
                            inner.missing,
                            report.len()
                        );
                        break (Vec::new(), Some((header, Some(report))));
                    }
                    SweepStatus::Failed => {
                        let error = inner.error.clone().unwrap_or_default();
                        let header = format!(
                            "{{\"type\":\"error\",\"status\":\"failed\",\"error\":\"{}\"}}\n",
                            escape(&error)
                        );
                        break (Vec::new(), Some((header, None)));
                    }
                    SweepStatus::Cancelled => {
                        let header = "{\"type\":\"error\",\"status\":\"cancelled\"}\n".to_string();
                        break (Vec::new(), Some((header, None)));
                    }
                }
            }
        };
        for line in batch {
            sent += 1;
            let mut chunk = line.into_bytes();
            chunk.push(b'\n');
            if writer.chunk(&chunk).is_err() {
                return;
            }
        }
        if let Some((header, payload)) = terminal {
            if writer.chunk(header.as_bytes()).is_err() {
                return;
            }
            if let Some(report) = payload {
                if writer.chunk(report.as_bytes()).is_err() {
                    return;
                }
            }
            let _ = writer.finish();
            return;
        }
    }
}

fn handle_cancel(state: &Arc<GatewayState>, sweep: &Arc<Sweep>, responder: Responder) {
    {
        let mut inner = sweep.inner.lock().expect("sweep poisoned");
        match inner.status {
            SweepStatus::Running => inner.cancel_requested = true,
            status => {
                let body = format!(
                    "{{\"id\":\"{}\",\"cancelled\":false,\"status\":\"{}\"}}\n",
                    sweep.id,
                    status.as_str()
                );
                let _ = responder.send("200 OK", "application/json", &[], body.as_bytes());
                return;
            }
        }
    }
    // Best-effort: cancel whatever is still queued upstream. Running
    // points complete (and cache); the runner unwinds the moment it
    // waits on a cancelled job and reports the sweep cancelled.
    let mut jobs_cancelled = 0u64;
    if let Ok(mut control) = Client::connect(&state.config.upstream) {
        for key in &sweep.job_keys {
            if control.cancel(key) == Ok(true) {
                jobs_cancelled += 1;
            }
        }
    }
    let body = format!(
        "{{\"id\":\"{}\",\"cancelled\":true,\"jobs_cancelled\":{jobs_cancelled}}}\n",
        sweep.id
    );
    let _ = responder.send("202 Accepted", "application/json", &[], body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        read_request(&mut cursor, &HttpLimits::default())
    }

    #[test]
    fn parses_a_plain_request() {
        let req = parse(
            b"POST /v1/sweeps?canonical=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweeps");
        assert!(req.query_flag("canonical"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn decodes_chunked_bodies_and_rejects_torn_ones() {
        let req = parse(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"wikipedia");
        let torn = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nshort");
        assert!(matches!(torn, Err(HttpError::Malformed(_))), "{torn:?}");
    }

    #[test]
    fn oversized_heads_and_bodies_are_bounded() {
        let huge_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(10_000));
        assert!(matches!(
            parse(huge_header.as_bytes()),
            Err(HttpError::HeadTooLarge)
        ));
        let small = HttpLimits {
            max_body_bytes: 8,
            ..HttpLimits::default()
        };
        let mut cursor = std::io::Cursor::new(
            b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789".to_vec(),
        );
        assert!(matches!(
            read_request(&mut cursor, &small),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn connect_targets_parse_and_misparse_with_types() {
        assert_eq!(
            parse_connect_target("127.0.0.1:7700"),
            Ok(ConnectTarget::Wire("127.0.0.1:7700".to_string()))
        );
        assert_eq!(
            parse_connect_target("http://127.0.0.1:8080/"),
            Ok(ConnectTarget::Http("127.0.0.1:8080".to_string()))
        );
        for bad in [
            "nonsense",
            "http://nohost",
            "https://127.0.0.1:1",
            "ftp://x:1",
            "host:0",
            "host:99999",
            ":7700",
        ] {
            let err = parse_connect_target(bad).unwrap_err();
            assert_eq!(err.input, bad);
            assert!(!err.reason.is_empty());
        }
    }

    #[test]
    fn server_routes_and_streams_chunks() {
        let handler: Arc<Handler> = Arc::new(|request, responder| match request.path.as_str() {
            "/plain" => {
                let _ = responder.send("200 OK", "text/plain", &[], b"hello");
            }
            "/stream" => {
                let mut w = responder.begin_chunked("200 OK", "text/plain").unwrap();
                w.chunk(b"alpha ").unwrap();
                w.chunk(b"beta").unwrap();
                w.finish().unwrap();
            }
            _ => {
                let _ = responder.send("404 Not Found", "text/plain", &[], b"");
            }
        });
        let server =
            HttpServer::spawn(0, "httpd-test", HttpLimits::default(), handler).expect("bind");
        let addr = server.local_addr().to_string();
        let plain = http_request(&addr, "GET", "/plain", None).unwrap();
        assert_eq!(plain.status, 200);
        assert_eq!(plain.body, b"hello");
        let streamed = http_request(&addr, "GET", "/stream", None).unwrap();
        assert_eq!(streamed.status, 200);
        assert_eq!(streamed.body, b"alpha beta");
        assert_eq!(
            http_request(&addr, "GET", "/nope", None).unwrap().status,
            404
        );
        server.shutdown();
    }

    #[test]
    fn sweep_spec_parses_with_defaults_and_rejects_garbage() {
        let spec = SweepSpec::parse(br#"{"mobility":"interval=2000","load":10,"reps":2}"#).unwrap();
        assert_eq!(spec.load, 10);
        assert_eq!(spec.reps, 2);
        assert_eq!(spec.seed, 1, "seed defaults to the CLI's default");
        assert_eq!(spec.buffer, 10);
        for bad in [
            &b""[..],
            b"{}",
            b"{\"mobility\":\"marsrover\"}",
            b"{\"mobility\":\"rwp\",\"load\":0}",
            b"{\"mobility\":\"rwp\",\"reps\":\"many\"}",
            b"not json",
            b"{\"mobility\":\"rwp\",\"buffer\":0}",
            b"{\"mobility\":\"rwp\",\"point_timeout\":0}",
        ] {
            assert!(SweepSpec::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sweep_spec_body_round_trips() {
        let plain = SweepSpec::new(Mobility::Interval(2000));
        let full = SweepSpec {
            mobility: Mobility::GeometricRwp,
            load: 7,
            reps: 3,
            seed: u64::MAX,
            buffer: 4,
            tx_time: Some(20),
            retries: 2,
            point_timeout: Some(9),
            audit: true,
        };
        for spec in [plain, full] {
            assert_eq!(SweepSpec::parse(spec.to_json().as_bytes()), Ok(spec));
        }
    }
}
