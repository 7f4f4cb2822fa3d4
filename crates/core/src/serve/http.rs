//! A hand-rolled HTTP/1.1 front-end over the serve layer (DESIGN.md §2.9).
//!
//! No framework, no async runtime — a [`std::net::TcpListener`], a small
//! pool of worker threads, and a bounds-checked incremental parser, in the
//! same spirit as the hand-rolled JSON in `locality-json`. The surface is
//! three routes:
//!
//! - `POST /solve` — one request or a batch, decoded by
//!   [`decode_solve_body`](super::wire::decode_solve_body) and
//!   answered by the target [`Session`];
//! - `GET /healthz` — liveness;
//! - `GET /metrics` — the folded [`MetricsSnapshot`] as JSON.
//!
//! **The warm path allocates nothing.** A keep-alive connection owns three
//! reusable buffers (socket read buffer, response body, response frame);
//! request heads are parsed as borrowed slices, solve bodies decode into
//! heap-free option structs, cache-hit answers are encoded by appending to
//! the warmed buffers, and metrics are relaxed atomics in the worker's own
//! [`MetricsShard`]. `benches/http.rs` pins this end-to-end with the
//! counting allocator: a warm cache-hit request over a live loopback
//! connection performs zero heap allocations in the serving process.
//!
//! **Sharding and determinism.** Each worker accepts on its own clone of
//! the listener (prefork style: the kernel load-balances connections, a
//! connection stays on one worker for its lifetime). The
//! [`Fleet`](super::Fleet) placement-determinism argument carries over
//! verbatim: every answer is a deterministic function of
//! `(graph, request)`, so *which* worker serves a request cannot change a
//! bit of any response (`tests/http_server.rs` pins keep-alive replays
//! byte-identical).
//!
//! **Cold builds stay off the read path.** Each served graph is a slot of
//! two locks: a short-held *published* part — the answers built so far,
//! each shared with the session's response cache, plus the counters a
//! scrape reports — and the *builder* [`Session`], which only a cache miss
//! locks. A warm hit probes and encodes under the published lock; a miss
//! releases it, builds under the builder lock and publishes the answer with
//! one push; a scrape reads published state only. So neither a warm hit
//! nor a `/metrics` scrape waits for a construction on any graph
//! (`tests/http_server.rs` pins this with a build in flight).
//!
//! **Failure is typed.** Every protocol violation is an [`HttpError`] with
//! a status code and a JSON error body; solver failures are HTTP 200 with
//! `{"ok": false}` bodies ([`SolveError`] is the answer, not a transport
//! fault). Nothing on any path panics — `serve_no_panics.rs` greps this
//! module with the rest of the serve layer.
//!
//! **Shutdown drains.** [`HttpServer::shutdown`] sets a flag and nudges
//! every worker awake; a worker mid-request finishes it and writes the
//! response before closing (idle keep-alive connections notice within one
//! poll interval). Dropping the server shuts it down.

use super::metrics::{Endpoint, MetricsShard, MetricsSnapshot};
use super::request::Request;
use super::session::{CachedAnswer, Session, SessionStats};
use super::wire::{self, ReplyMode, RequestSet, WireError};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Front-end knobs. The defaults serve loopback benchmarks; production
/// would mostly raise the limits.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Address to bind (`127.0.0.1:0` by default — the OS picks a port,
    /// read it back from [`HttpServer::addr`]).
    pub addr: SocketAddr,
    /// Worker threads, each accepting on its own listener clone
    /// (`0` = one per available core).
    pub workers: usize,
    /// Cap on a request head (request line + headers), in bytes; beyond it
    /// the request is answered `431` and the connection closed.
    pub max_head_bytes: usize,
    /// Cap on a request body, in bytes; beyond it `413`.
    pub max_body_bytes: usize,
    /// How often an idle worker wakes to poll the shutdown flag.
    pub poll_interval: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 0,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            poll_interval: Duration::from_millis(50),
        }
    }
}

impl HttpConfig {
    /// The defaults (loopback, OS-assigned port, one worker per core).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count (`0` = one per available core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the bind address.
    pub fn with_addr(mut self, addr: SocketAddr) -> Self {
        self.addr = addr;
        self
    }
}

/// A typed HTTP-path failure: everything the front-end can reject, each
/// with its status line and a machine-readable code for the JSON body.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line is not `METHOD SP PATH SP HTTP/1.x`.
    BadRequestLine,
    /// Not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion,
    /// A header line is malformed.
    BadHeader,
    /// `Content-Length` is missing on a `POST`.
    MissingContentLength,
    /// `Content-Length` is not a plain integer.
    BadContentLength,
    /// `Transfer-Encoding` framing the parser does not implement.
    UnsupportedTransferEncoding,
    /// The request head exceeded [`HttpConfig::max_head_bytes`].
    HeadTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// The declared body exceeds [`HttpConfig::max_body_bytes`].
    BodyTooLarge {
        /// The declared `Content-Length`.
        length: usize,
        /// The configured cap.
        limit: usize,
    },
    /// No route at this path.
    UnknownRoute,
    /// The path exists but not with this method.
    MethodNotAllowed,
    /// The solve body did not decode.
    Body(WireError),
    /// The solve body names a session the server does not have.
    GraphOutOfRange {
        /// The requested index.
        graph: usize,
        /// How many sessions are being served.
        sessions: usize,
    },
}

impl HttpError {
    /// The HTTP status this error is answered with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequestLine
            | HttpError::BadHeader
            | HttpError::BadContentLength
            | HttpError::Body(_) => (400, "Bad Request"),
            HttpError::UnknownRoute | HttpError::GraphOutOfRange { .. } => (404, "Not Found"),
            HttpError::MethodNotAllowed => (405, "Method Not Allowed"),
            HttpError::MissingContentLength => (411, "Length Required"),
            HttpError::BodyTooLarge { .. } => (413, "Payload Too Large"),
            HttpError::HeadTooLarge { .. } => (431, "Request Header Fields Too Large"),
            HttpError::UnsupportedVersion => (505, "HTTP Version Not Supported"),
            HttpError::UnsupportedTransferEncoding => (501, "Not Implemented"),
            #[allow(unreachable_patterns)]
            _ => (400, "Bad Request"),
        }
    }

    /// Stable machine-readable code for the JSON error body.
    pub fn code(&self) -> &'static str {
        match self {
            HttpError::BadRequestLine => "bad_request_line",
            HttpError::UnsupportedVersion => "unsupported_version",
            HttpError::BadHeader => "bad_header",
            HttpError::MissingContentLength => "missing_content_length",
            HttpError::BadContentLength => "bad_content_length",
            HttpError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
            HttpError::HeadTooLarge { .. } => "head_too_large",
            HttpError::BodyTooLarge { .. } => "body_too_large",
            HttpError::UnknownRoute => "unknown_route",
            HttpError::MethodNotAllowed => "method_not_allowed",
            HttpError::Body(_) => "bad_body",
            HttpError::GraphOutOfRange { .. } => "graph_out_of_range",
            #[allow(unreachable_patterns)]
            _ => "error",
        }
    }

    /// Whether the connection can survive this error (framing still
    /// understood) or must close (parser lost sync with the byte stream).
    fn recoverable(&self) -> bool {
        matches!(
            self,
            HttpError::UnknownRoute
                | HttpError::MethodNotAllowed
                | HttpError::Body(_)
                | HttpError::GraphOutOfRange { .. }
        )
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::UnsupportedVersion => write!(f, "only HTTP/1.0 and HTTP/1.1 are served"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::MissingContentLength => write!(f, "POST requires Content-Length"),
            HttpError::BadContentLength => write!(f, "unparsable Content-Length"),
            HttpError::UnsupportedTransferEncoding => {
                write!(
                    f,
                    "Transfer-Encoding is not implemented; use Content-Length"
                )
            }
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds the {limit}-byte cap")
            }
            HttpError::BodyTooLarge { length, limit } => {
                write!(
                    f,
                    "declared body of {length} bytes exceeds the {limit}-byte cap"
                )
            }
            HttpError::UnknownRoute => write!(f, "no such route"),
            HttpError::MethodNotAllowed => write!(f, "method not allowed on this route"),
            HttpError::Body(e) => write!(f, "solve body rejected: {e}"),
            HttpError::GraphOutOfRange { graph, sessions } => {
                write!(f, "graph {graph} out of range: serving {sessions} sessions")
            }
        }
    }
}

impl Error for HttpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HttpError::Body(e) => Some(e),
            _ => None,
        }
    }
}

/// A parsed request head, borrowing from the connection buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head<'a> {
    /// The method token, verbatim.
    pub method: &'a str,
    /// The path, verbatim (no query parsing — the routes take none).
    pub path: &'a str,
    /// Bytes the head occupies, including the blank line.
    pub head_len: usize,
    /// The declared body length (0 when absent).
    pub content_length: usize,
    /// Whether `Content-Length` was present at all.
    pub has_content_length: bool,
    /// Whether the connection survives this exchange
    /// (HTTP/1.1 default-on, `Connection: close`/`keep-alive` override).
    pub keep_alive: bool,
}

/// ASCII-case-insensitive equality (header names; no allocation).
// audit: no-alloc
fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_ignore_ascii_case(y))
}

/// Strip leading/trailing ASCII whitespace (header values; no allocation).
// audit: no-alloc
fn trim_ascii_ws(mut bytes: &[u8]) -> &[u8] {
    while let [b, rest @ ..] = bytes {
        if !b.is_ascii_whitespace() {
            break;
        }
        bytes = rest;
    }
    while let [rest @ .., b] = bytes {
        if !b.is_ascii_whitespace() {
            break;
        }
        bytes = rest;
    }
    bytes
}

/// Incrementally parse a request head from the front of `bytes`.
///
/// Returns `Ok(None)` while the head is incomplete (no blank line yet) —
/// feed more bytes and call again; the result is identical however the
/// bytes were chunked (`tests/proptest_http.rs` pins this over random
/// partitions). Returns a typed [`HttpError`] for malformed heads.
// audit: no-alloc
pub fn parse_head(bytes: &[u8]) -> Result<Option<Head<'_>>, HttpError> {
    // Find the end of the head: the first \r\n\r\n.
    let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head_len = head_end + 4;
    let head = &bytes[..head_end];
    let mut lines =
        head.split(|&b| b == b'\n')
            .map(|l| if let [rest @ .., b'\r'] = l { rest } else { l });
    let Some(request_line) = lines.next() else {
        return Err(HttpError::BadRequestLine);
    };
    let mut parts = request_line.split(|&b| b == b' ').filter(|p| !p.is_empty());
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequestLine);
    };
    let (method, path) = match (std::str::from_utf8(method), std::str::from_utf8(path)) {
        (Ok(m), Ok(p)) => (m, p),
        _ => return Err(HttpError::BadRequestLine),
    };
    let mut keep_alive = match version {
        b"HTTP/1.1" => true,
        b"HTTP/1.0" => false,
        _ => return Err(HttpError::UnsupportedVersion),
    };
    let mut content_length = 0usize;
    let mut has_content_length = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return Err(HttpError::BadHeader);
        };
        let name = &line[..colon];
        let value = trim_ascii_ws(&line[colon + 1..]);
        if eq_ignore_case(name, b"content-length") {
            let Ok(text) = std::str::from_utf8(value) else {
                return Err(HttpError::BadContentLength);
            };
            let Ok(n) = text.parse::<usize>() else {
                return Err(HttpError::BadContentLength);
            };
            content_length = n;
            has_content_length = true;
        } else if eq_ignore_case(name, b"connection") {
            if value.eq_ignore_ascii_case(b"close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case(b"keep-alive") {
                keep_alive = true;
            }
        } else if eq_ignore_case(name, b"transfer-encoding") {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
    }
    Ok(Some(Head {
        method,
        path,
        head_len,
        content_length,
        has_content_length,
        keep_alive,
    }))
}

/// State every worker shares: one [`Slot`] per served graph, one metrics
/// shard per worker, and the shutdown flag.
struct Shared {
    slots: Vec<Slot>,
    shards: Vec<MetricsShard>,
    shutdown: AtomicBool,
}

/// One served graph, split so that a construction never blocks a reader.
///
/// Lock order: a thread holding `published` never waits for `builder`. A
/// miss releases `published` before it takes `builder`, and a builder takes
/// `published` only to publish, which no reader holds for longer than one
/// probe and encode.
///
/// The server never edits its sessions. An edit path would have to drop
/// the published answers together with the builder session's responses.
struct Slot {
    published: Mutex<Published>,
    builder: Mutex<Session>,
}

/// What readers and scrapes see of one graph.
struct Published {
    /// The builder session's response cache, entry for entry (publishing
    /// happens under the builder lock, so the two never disagree outside
    /// it). The entries are shared, not copied.
    answers: Vec<Arc<CachedAnswer>>,
    /// `requests` and `response_hits` are counted here by readers; the
    /// other counters are the builder's, copied at every publish.
    stats: SessionStats,
}

/// Lock, recovering from poison: a published update is one push or one
/// counter add, so a panic never leaves one half done, and a build that
/// panics pushes no cache entry.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Slot {
    /// Serve `session`, publishing the answers it already holds so a warmed
    /// session starts hot.
    fn new(session: Session) -> Self {
        let published = Published {
            answers: session.cached_answers().to_vec(),
            stats: session.stats(),
        };
        Self {
            published: Mutex::new(published),
            builder: Mutex::new(session),
        }
    }

    /// Answer `request` into `out`. A hit probes and encodes under the
    /// published lock; a miss releases it and goes to [`Slot::build`].
    fn answer(&self, request: &Request, reply: ReplyMode, out: &mut String) {
        let mut guard = lock(&self.published);
        let Published { answers, stats } = &mut *guard;
        stats.requests += 1;
        if let Some(hit) = answers.iter().find(|e| e.request == *request) {
            stats.response_hits += 1;
            wire::encode_response(out, reply, hit.answer.as_ref());
            return;
        }
        drop(guard);
        let built = self.build(request);
        wire::encode_response(out, reply, built.answer.as_ref());
    }

    /// Answer a published-list miss under the builder lock and publish it.
    /// Workers that miss the same request serialize here: the second finds
    /// the first one's answer in the session's response cache — a hit, as
    /// it would be on a lone session — so no construction runs twice.
    fn build(&self, request: &Request) -> Arc<CachedAnswer> {
        let mut builder = lock(&self.builder);
        let (entry, hit) = builder.solve_cached(request);
        let entry = Arc::clone(entry);
        let mut published = lock(&self.published);
        if hit {
            published.stats.response_hits += 1;
        } else {
            published.answers.push(Arc::clone(&entry));
        }
        published.stats = SessionStats {
            requests: published.stats.requests,
            response_hits: published.stats.response_hits,
            ..builder.stats()
        };
        entry
    }
}

/// The running front-end. Constructed by [`HttpServer::start`]; stopped by
/// [`HttpServer::shutdown`] (or drop).
pub struct HttpServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    handles: Vec<std::thread::JoinHandle<()>>,
    config: HttpConfig,
}

impl fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl HttpServer {
    /// Bind, spawn the worker pool, and start serving `sessions` (take
    /// them from a warmed [`Fleet`](super::Fleet) via
    /// [`Fleet::into_sessions`](super::Fleet::into_sessions) to start hot).
    ///
    /// # Errors
    /// I/O errors binding the listener or spawning workers.
    pub fn start(sessions: Vec<Session>, config: HttpConfig) -> std::io::Result<Self> {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            slots: sessions.into_iter().map(Slot::new).collect(),
            shards: (0..workers).map(|_| MetricsShard::new()).collect(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let config = config.clone();
            let handle = std::thread::Builder::new()
                .name(format!("http-worker-{w}"))
                .spawn(move || worker_loop(w, &listener, &shared, &config))?;
            handles.push(handle);
        }
        Ok(Self {
            shared,
            addr,
            handles,
            config,
        })
    }

    /// The bound address (read the OS-assigned port from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker threads serving.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The folded metrics: every graph's published counters plus the HTTP
    /// shards — exactly what `GET /metrics` serves (the scrape handler
    /// deliberately records nothing, so scraping then snapshotting with no
    /// intervening traffic yields equal values; `h1` asserts byte
    /// equality). Reads published state only, so it never waits for a
    /// build in flight.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        snapshot(&self.shared)
    }

    /// Stop accepting, finish in-flight requests, and join the workers.
    /// Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Each blocked accept needs one nudge; workers mid-connection
        // notice the flag at their next poll tick instead.
        for _ in 0..self.handles.len() {
            if let Ok(stream) = TcpStream::connect_timeout(&self.addr, self.config.poll_interval) {
                drop(stream);
            }
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Fold every graph's published counters and the worker shards. Takes
/// each published lock only to copy its counters, never a builder lock.
fn snapshot(shared: &Shared) -> MetricsSnapshot {
    MetricsSnapshot::from_stats(shared.slots.iter().map(|s| lock(&s.published).stats))
        .with_shards(&shared.shards)
}

fn worker_loop(worker: usize, listener: &TcpListener, shared: &Shared, config: &HttpConfig) {
    let shard = &shared.shards[worker];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shard.connections.fetch_add(1, Ordering::Relaxed);
        serve_connection(stream, shared, shard, config);
    }
}

/// Per-connection reusable state: the three buffers that make the warm
/// path allocation-free once their capacities have grown to the workload.
struct Conn {
    /// Raw bytes read from the socket; `filled` are valid, `start` is the
    /// cursor of the next unparsed byte (pipelined requests queue here).
    buf: Vec<u8>,
    filled: usize,
    start: usize,
    /// The response body being encoded.
    body: String,
    /// The full response frame (status line + headers + body).
    frame: Vec<u8>,
}

const READ_CHUNK: usize = 16 * 1024;

impl Conn {
    fn new() -> Self {
        Self {
            buf: vec![0; READ_CHUNK],
            filled: 0,
            start: 0,
            body: String::new(),
            frame: Vec::new(),
        }
    }

    /// The unparsed bytes.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.filled]
    }

    /// Consume `n` parsed bytes; compact lazily so the buffer never grows
    /// past (workload high-water + one read chunk).
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.filled {
            self.start = 0;
            self.filled = 0;
        }
    }

    /// Pull more bytes from the socket. `Ok(n > 0)` = got bytes, `Ok(0)`
    /// = clean EOF; timeouts surface as `Err(WouldBlock/TimedOut)`.
    fn fill(&mut self, stream: &mut TcpStream) -> std::io::Result<usize> {
        if self.start > 0 && self.filled + READ_CHUNK > self.buf.len() {
            // Compact: move the unparsed tail to the front (no allocation).
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
        if self.filled + READ_CHUNK > self.buf.len() {
            self.buf.resize(self.filled + READ_CHUNK, 0);
        }
        let n = stream.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }
}

fn serve_connection(
    mut stream: TcpStream,
    shared: &Shared,
    shard: &MetricsShard,
    config: &HttpConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.poll_interval));
    let mut conn = Conn::new();
    loop {
        // Parse everything already buffered before touching the socket
        // (pipelining: back-to-back requests are answered back-to-back).
        match try_serve_one(&mut stream, &mut conn, shared, shard, config) {
            ServeOutcome::Served => continue,
            ServeOutcome::NeedMore => {}
            ServeOutcome::Close => return,
        }
        match conn.fill(&mut stream) {
            Ok(0) => return, // EOF
            Ok(n) => {
                shard.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // idle at shutdown: close
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

enum ServeOutcome {
    /// One request was answered; the buffer may hold more.
    Served,
    /// The buffered bytes do not hold a complete request yet.
    NeedMore,
    /// The connection is done (clean close, fatal error, or keep-alive off).
    Close,
}

/// The route decision, lifted out of the borrowed [`Head`] so the head's
/// borrow of the read buffer can end before the response buffers are
/// touched.
#[derive(Clone, Copy)]
enum RouteKind {
    Solve,
    Healthz,
    Metrics,
    MethodNotAllowed,
    Unknown,
}

fn try_serve_one(
    stream: &mut TcpStream,
    conn: &mut Conn,
    shared: &Shared,
    shard: &MetricsShard,
    config: &HttpConfig,
) -> ServeOutcome {
    if conn.start == conn.filled {
        return ServeOutcome::NeedMore;
    }
    let (head_len, content_length, has_content_length, keep_alive, kind) =
        match parse_head(conn.pending()) {
            Ok(Some(head)) => {
                let kind = match (head.method, head.path) {
                    ("POST", "/solve") => RouteKind::Solve,
                    ("GET", "/healthz") => RouteKind::Healthz,
                    ("GET", "/metrics") => RouteKind::Metrics,
                    (_, "/solve" | "/healthz" | "/metrics") => RouteKind::MethodNotAllowed,
                    _ => RouteKind::Unknown,
                };
                (
                    head.head_len,
                    head.content_length,
                    head.has_content_length,
                    head.keep_alive,
                    kind,
                )
            }
            Ok(None) => {
                if conn.filled - conn.start > config.max_head_bytes {
                    let err = HttpError::HeadTooLarge {
                        limit: config.max_head_bytes,
                    };
                    let _ = respond_error(stream, conn, shard, &err, false);
                    return ServeOutcome::Close;
                }
                return ServeOutcome::NeedMore;
            }
            Err(err) => {
                // The parser lost framing: answer and close.
                let _ = respond_error(stream, conn, shard, &err, false);
                return ServeOutcome::Close;
            }
        };
    if content_length > config.max_body_bytes {
        let err = HttpError::BodyTooLarge {
            length: content_length,
            limit: config.max_body_bytes,
        };
        let _ = respond_error(stream, conn, shard, &err, false);
        return ServeOutcome::Close;
    }
    let total = head_len + content_length;
    if conn.filled - conn.start < total {
        return ServeOutcome::NeedMore;
    }

    // A whole request is buffered: route it.
    let started = Instant::now();
    let body = (conn.start + head_len)..(conn.start + total);
    match route(kind, has_content_length, body, conn, shared) {
        Routed::Ok { endpoint } => {
            // Record before writing — and skip accounting entirely for
            // `/metrics`, whose own response frame must not perturb the
            // snapshot it just rendered (scrape == in-process snapshot).
            if let Some(endpoint) = endpoint {
                shard.record(endpoint, started.elapsed().as_nanos() as u64);
            }
            let ok = write_frame(
                stream,
                conn,
                shard,
                200,
                "OK",
                keep_alive,
                endpoint.is_some(),
            );
            conn.consume(total);
            if ok && keep_alive {
                ServeOutcome::Served
            } else {
                ServeOutcome::Close
            }
        }
        Routed::Fail(err) => {
            let survive = keep_alive && err.recoverable();
            let ok = respond_error(stream, conn, shard, &err, survive).is_ok();
            if !survive || !ok {
                return ServeOutcome::Close;
            }
            conn.consume(total);
            ServeOutcome::Served
        }
    }
}

enum Routed {
    /// The body buffer holds a 200 response; record under `endpoint`.
    Ok {
        endpoint: Option<Endpoint>,
    },
    Fail(HttpError),
}

fn route(
    kind: RouteKind,
    has_content_length: bool,
    body: std::ops::Range<usize>,
    conn: &mut Conn,
    shared: &Shared,
) -> Routed {
    match kind {
        RouteKind::Solve => {
            if !has_content_length {
                return Routed::Fail(HttpError::MissingContentLength);
            }
            let solve = match wire::decode_solve_body(&conn.buf[body]) {
                Ok(s) => s,
                Err(e) => return Routed::Fail(HttpError::Body(e)),
            };
            let Some(slot) = shared.slots.get(solve.graph) else {
                return Routed::Fail(HttpError::GraphOutOfRange {
                    graph: solve.graph,
                    sessions: shared.slots.len(),
                });
            };
            conn.body.clear();
            match &solve.requests {
                RequestSet::One(request) => slot.answer(request, solve.reply, &mut conn.body),
                RequestSet::Batch(batch) => {
                    conn.body.push('[');
                    for (i, request) in batch.iter().enumerate() {
                        if i > 0 {
                            conn.body.push(',');
                        }
                        slot.answer(request, solve.reply, &mut conn.body);
                    }
                    conn.body.push(']');
                }
            }
            Routed::Ok {
                endpoint: Some(Endpoint::Solve),
            }
        }
        RouteKind::Healthz => {
            conn.body.clear();
            conn.body.push_str("{\"ok\": true}");
            Routed::Ok {
                endpoint: Some(Endpoint::Healthz),
            }
        }
        RouteKind::Metrics => {
            // Deliberately unrecorded: see [`HttpServer::metrics_snapshot`].
            let rendered = snapshot(shared).to_json();
            conn.body.clear();
            conn.body.push_str(&rendered);
            Routed::Ok { endpoint: None }
        }
        RouteKind::MethodNotAllowed => Routed::Fail(HttpError::MethodNotAllowed),
        RouteKind::Unknown => Routed::Fail(HttpError::UnknownRoute),
    }
}

/// Frame and send whatever `conn.body` holds. `count` gates the
/// `bytes_written` accounting (off for `/metrics` responses, which must
/// not mutate anything they report).
// audit: no-alloc
fn write_frame(
    stream: &mut TcpStream,
    conn: &mut Conn,
    shard: &MetricsShard,
    status: u16,
    reason: &str,
    keep_alive: bool,
    count: bool,
) -> bool {
    conn.frame.clear();
    let _ = write!(
        conn.frame,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        conn.body.len()
    );
    if !keep_alive {
        conn.frame.extend_from_slice(b"Connection: close\r\n");
    }
    conn.frame.extend_from_slice(b"\r\n");
    conn.frame.extend_from_slice(conn.body.as_bytes());
    if count {
        shard
            .bytes_written
            .fetch_add(conn.frame.len() as u64, Ordering::Relaxed);
    }
    stream.write_all(&conn.frame).is_ok()
}

/// Encode `err` as its status + JSON body and send it.
fn respond_error(
    stream: &mut TcpStream,
    conn: &mut Conn,
    shard: &MetricsShard,
    err: &HttpError,
    keep_alive: bool,
) -> std::io::Result<()> {
    shard.http_errors.fetch_add(1, Ordering::Relaxed);
    let (status, reason) = err.status();
    conn.body.clear();
    let _ = write!(
        conn.body,
        "{{\"ok\": false, \"code\": \"{}\", \"error\": \"{err}\"}}",
        err.code()
    );
    if write_frame(stream, conn, shard, status, reason, keep_alive, true) {
        Ok(())
    } else {
        Err(std::io::Error::new(
            ErrorKind::BrokenPipe,
            "response write failed",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::Graph;

    #[test]
    fn concurrent_misses_of_one_request_build_once() {
        let slot = Slot::new(Session::new(Graph::grid(6, 6)));
        let request = Request::mis();
        let builder = lock(&slot.builder);
        let bodies: Vec<String> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = String::new();
                        slot.answer(&request, ReplyMode::default(), &mut out);
                        out
                    })
                })
                .collect();
            // Both readers have missed the published list once both are
            // counted; they then queue on the builder lock held here.
            while lock(&slot.published).stats.requests < 2 {
                std::thread::yield_now();
            }
            drop(builder);
            readers
                .into_iter()
                .map(|r| r.join().expect("reader thread"))
                .collect()
        });
        assert_eq!(bodies[0], bodies[1]);
        let published = lock(&slot.published);
        assert_eq!(published.answers.len(), 1);
        assert_eq!(published.stats.requests, 2);
        assert_eq!(
            published.stats.response_hits, 1,
            "the second miss is a hit in the builder's cache"
        );
        assert_eq!(published.stats.solver_runs, 1, "no construction runs twice");
    }

    #[test]
    fn heads_parse_incrementally_and_identically() {
        let raw = b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\nhello world!";
        for cut in 0..raw.len() {
            let r = parse_head(&raw[..cut]);
            if cut < raw.len() - 12 {
                assert_eq!(r, Ok(None), "cut={cut}");
            }
        }
        let head = parse_head(raw).unwrap().unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/solve");
        assert_eq!(head.content_length, 12);
        assert!(head.has_content_length);
        assert!(head.keep_alive);
        assert_eq!(head.head_len, raw.len() - 12);
    }

    #[test]
    fn header_semantics() {
        let head = parse_head(b"GET /healthz HTTP/1.0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!head.keep_alive, "1.0 defaults to close");
        let head = parse_head(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(head.keep_alive);
        let head = parse_head(b"GET / HTTP/1.1\r\nconnection: CLOSE\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!head.keep_alive);
        let head = parse_head(b"GET / HTTP/1.1\r\ncontent-LENGTH:  7 \r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.content_length, 7);
    }

    #[test]
    fn malformed_heads_are_typed() {
        for (raw, want) in [
            (&b"GARBAGE\r\n\r\n"[..], HttpError::BadRequestLine),
            (&b"GET /x HTTP/2\r\n\r\n"[..], HttpError::UnsupportedVersion),
            (
                &b"GET /x HTTP/1.1\r\nno colon\r\n\r\n"[..],
                HttpError::BadHeader,
            ),
            (
                &b"GET /x HTTP/1.1\r\nContent-Length: lots\r\n\r\n"[..],
                HttpError::BadContentLength,
            ),
            (
                &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
                HttpError::UnsupportedTransferEncoding,
            ),
        ] {
            assert_eq!(parse_head(raw), Err(want.clone()), "{raw:?}");
            assert!(!want.to_string().is_empty());
        }
    }

    #[test]
    fn statuses_and_codes_are_stable() {
        assert_eq!(HttpError::UnknownRoute.status().0, 404);
        assert_eq!(HttpError::MethodNotAllowed.status().0, 405);
        assert_eq!(HttpError::MissingContentLength.status().0, 411);
        assert_eq!(
            HttpError::BodyTooLarge {
                length: 9,
                limit: 1
            }
            .status()
            .0,
            413
        );
        assert_eq!(HttpError::HeadTooLarge { limit: 1 }.status().0, 431);
        assert_eq!(
            HttpError::HeadTooLarge { limit: 1 }.code(),
            "head_too_large"
        );
        assert!(HttpError::UnknownRoute.recoverable());
        assert!(!HttpError::BadRequestLine.recoverable());
    }
}
