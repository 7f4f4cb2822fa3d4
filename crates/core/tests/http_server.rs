//! End-to-end tests for the hand-rolled HTTP front-end over real loopback
//! sockets: routing, typed protocol errors with the right status codes,
//! keep-alive serving bit-identical responses, pipelining, size caps,
//! scrape-equals-snapshot, reads answered while a cold build runs, counters
//! equal to a lone session's, and graceful shutdown.

use locality_core::serve::wire::{decode_solve_body, encode_response, RequestSet};
use locality_core::serve::{HttpConfig, HttpServer, Session};
use locality_graph::Graph;
use locality_json::Json;
use locality_rand::prng::SplitMix64;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn test_graph(seed: u64) -> Graph {
    let mut prng = SplitMix64::new(seed);
    Graph::gnp_connected(40, 0.1, &mut prng)
}

fn start_server(graphs: usize, workers: usize) -> HttpServer {
    let sessions: Vec<Session> = (0..graphs)
        .map(|i| Session::new(test_graph(0xbeef + i as u64)))
        .collect();
    HttpServer::start(sessions, HttpConfig::new().with_workers(workers)).expect("server starts")
}

fn connect(server: &HttpServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("loopback connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// A minimal response reader that tolerates pipelined responses sharing
/// one socket: leftover bytes stay buffered for the next call.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn new(server: &HttpServer) -> Self {
        Self {
            stream: connect(server),
            buf: Vec::new(),
        }
    }

    fn send(&mut self, raw: &[u8]) {
        self.stream.write_all(raw).expect("request write");
    }

    fn send_solve(&mut self, body: &str) {
        let raw = format!(
            "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send(raw.as_bytes());
    }

    fn post_solve(&mut self, body: &str) -> (u16, String) {
        self.send_solve(body);
        self.read_response()
    }

    /// Whether any response byte has arrived, without consuming it.
    fn has_reply(&mut self) -> bool {
        if !self.buf.is_empty() {
            return true;
        }
        self.stream.set_nonblocking(true).expect("nonblocking");
        let peeked = self.stream.peek(&mut [0u8; 1]);
        self.stream.set_nonblocking(false).expect("blocking");
        match peeked {
            Ok(n) => n > 0,
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(e) => panic!("peek failed: {e}"),
        }
    }

    fn get(&mut self, path: &str) -> (u16, String) {
        self.send(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
        self.read_response()
    }

    /// Read one `Content-Length`-framed response; extra bytes remain
    /// buffered for the next call.
    fn read_response(&mut self) -> (u16, String) {
        let mut tmp = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut tmp).expect("response read");
            assert!(
                n > 0,
                "connection closed mid-response; buffered: {:?}",
                String::from_utf8_lossy(&self.buf)
            );
            self.buf.extend_from_slice(&tmp[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).expect("ascii head");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparsable status line: {head:?}"));
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let lower = l.to_ascii_lowercase();
                lower
                    .strip_prefix("content-length:")
                    .map(|v| v.trim().parse().expect("integer content-length"))
            })
            .expect("response carries Content-Length");
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            let n = self.stream.read(&mut tmp).expect("body read");
            assert!(n > 0, "connection closed mid-body");
            self.buf.extend_from_slice(&tmp[..n]);
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .expect("utf8 body");
        self.buf.drain(..body_start + content_length);
        (status, body)
    }
}

#[test]
fn routes_and_typed_statuses() {
    let server = start_server(1, 2);
    let mut c = Client::new(&server);

    let (status, body) = c.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"ok\": true}");

    // Unknown route: 404, typed code, connection survives.
    let (status, body) = c.get("/nope");
    assert_eq!(status, 404);
    assert!(body.contains("\"unknown_route\""), "{body}");

    // Wrong method on a real route: 405, still alive.
    c.send(b"DELETE /solve HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    let (status, body) = c.read_response();
    assert_eq!(status, 405);
    assert!(body.contains("\"method_not_allowed\""), "{body}");

    // POST /solve without Content-Length closes with 411.
    c.send(b"POST /solve HTTP/1.1\r\n\r\n");
    let (status, body) = c.read_response();
    assert_eq!(status, 411);
    assert!(body.contains("\"missing_content_length\""), "{body}");

    // Malformed body: 400 with the wire error, connection survives.
    let mut c = Client::new(&server);
    let (status, body) = c.post_solve("{\"graph\": 0, \"request\": nope}");
    assert_eq!(status, 400);
    assert!(body.contains("\"bad_body\""), "{body}");

    // Graph out of range: 404, survives; then a good request on the same
    // connection still answers.
    let (status, body) = c.post_solve("{\"graph\": 9, \"request\": {\"kind\": \"mis\"}}");
    assert_eq!(status, 404);
    assert!(body.contains("\"graph_out_of_range\""), "{body}");
    let (status, body) = c.post_solve("{\"graph\": 0, \"request\": {\"kind\": \"mis\"}}");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"), "{body}");

    // A test oracle is not a served strategy: "reference" is an unknown
    // name, rejected as a bad body before any solver runs.
    let (_, scraped) = c.get("/metrics");
    let runs = scraped_int(&scraped, "solver_runs");
    let (status, body) = c.post_solve(
        "{\"graph\": 0, \"request\": {\"kind\": \"slocal\", \"strategy\": \"reference\"}}",
    );
    assert_eq!(status, 400);
    assert!(body.contains("\"bad_body\""), "{body}");
    let (_, scraped) = c.get("/metrics");
    assert_eq!(scraped_int(&scraped, "solver_runs"), runs, "{scraped}");
    server.shutdown();
}

#[test]
fn keep_alive_serves_bit_identical_responses() {
    let server = start_server(1, 2);
    let body = "{\"graph\": 0, \"request\": {\"kind\": \"coloring\"}}";

    let mut c = Client::new(&server);
    let (status, first) = c.post_solve(body);
    assert_eq!(status, 200);
    assert!(first.contains("\"fingerprint\""), "{first}");

    // Same connection, repeated: byte-identical (cache hits).
    for _ in 0..5 {
        let (status, again) = c.post_solve(body);
        assert_eq!(status, 200);
        assert_eq!(again, first, "keep-alive replay must be bit-identical");
    }
    // A different connection (possibly a different worker): still identical.
    let mut other = Client::new(&server);
    let (status, again) = other.post_solve(body);
    assert_eq!(status, 200);
    assert_eq!(again, first, "worker placement must not change answers");

    let snap = server.metrics_snapshot();
    assert_eq!(snap.requests, 7);
    assert_eq!(snap.solver_runs, 1, "one cold run, six cache hits");
    assert_eq!(snap.response_hits, 6);
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = start_server(1, 1);
    let mut c = Client::new(&server);
    let solve = "{\"graph\": 0, \"request\": {\"kind\": \"mis\"}}";
    let mut burst = String::new();
    burst.push_str("GET /healthz HTTP/1.1\r\n\r\n");
    burst.push_str(&format!(
        "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{solve}",
        solve.len()
    ));
    burst.push_str("GET /healthz HTTP/1.1\r\n\r\n");
    // One write carrying three requests: three responses, in order.
    c.send(burst.as_bytes());
    let (s1, b1) = c.read_response();
    let (s2, b2) = c.read_response();
    let (s3, b3) = c.read_response();
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert_eq!(b1, "{\"ok\": true}");
    assert!(b2.contains("\"kind\": \"mis\""), "{b2}");
    assert_eq!(b3, b1);
    server.shutdown();
}

#[test]
fn batch_solve_answers_each_request() {
    let server = start_server(2, 2);
    let mut c = Client::new(&server);
    let (status, body) = c.post_solve(
        "{\"graph\": 1, \"requests\": [{\"kind\": \"mis\"}, {\"kind\": \"coloring\"}, \
         {\"kind\": \"decompose\"}]}",
    );
    assert_eq!(status, 200);
    let parsed = Json::parse(&body).expect("batch body parses");
    let answers = parsed.as_array().expect("array reply");
    assert_eq!(answers.len(), 3);
    for a in answers {
        assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true), "{body}");
    }
    assert_eq!(answers[0].get("kind").and_then(Json::as_str), Some("mis"));
    assert_eq!(
        answers[2].get("kind").and_then(Json::as_str),
        Some("decompose")
    );
    server.shutdown();
}

#[test]
fn oversized_heads_and_bodies_are_capped() {
    let server = start_server(1, 1);

    // A header far past the 8 KiB cap: 431 and close.
    let mut c = Client::new(&server);
    let huge = "x".repeat(32 * 1024);
    c.send(format!("GET /healthz HTTP/1.1\r\nX-Pad: {huge}\r\n\r\n").as_bytes());
    let (status, body) = c.read_response();
    assert_eq!(status, 431);
    assert!(body.contains("\"head_too_large\""), "{body}");

    // A declared body past the 1 MiB cap: 413 before any body bytes.
    let mut c = Client::new(&server);
    c.send(b"POST /solve HTTP/1.1\r\nContent-Length: 16777216\r\n\r\n");
    let (status, body) = c.read_response();
    assert_eq!(status, 413);
    assert!(body.contains("\"body_too_large\""), "{body}");
    server.shutdown();
}

#[test]
fn metrics_scrape_equals_in_process_snapshot() {
    let server = start_server(1, 1);
    let mut c = Client::new(&server);
    // Mixed traffic first, including an error response.
    for _ in 0..3 {
        let (status, _) = c.post_solve("{\"graph\": 0, \"request\": {\"kind\": \"mis\"}}");
        assert_eq!(status, 200);
    }
    let (status, _) = c.get("/healthz");
    assert_eq!(status, 200);
    let (status, _) = c.get("/lost");
    assert_eq!(status, 404);

    let (status, scraped) = c.get("/metrics");
    assert_eq!(status, 200);
    // The scrape handler records nothing, so the in-process snapshot taken
    // right after must render byte-identically.
    let snapshot = server.metrics_snapshot().to_json();
    assert_eq!(scraped, snapshot);

    let parsed = Json::parse(&scraped).expect("scrape parses");
    assert_eq!(parsed.get("requests").and_then(Json::as_int), Some(3));
    assert_eq!(parsed.get("response_hits").and_then(Json::as_int), Some(2));
    let http = parsed.get("http").expect("http section");
    assert_eq!(http.get("http_errors").and_then(Json::as_int), Some(1));
    let endpoints = http
        .get("endpoints")
        .and_then(Json::as_array)
        .expect("endpoints");
    assert_eq!(
        endpoints[0].get("requests").and_then(Json::as_int),
        Some(3),
        "{scraped}"
    );
    assert!(
        endpoints[0]
            .get("p99_us")
            .and_then(Json::as_f64)
            .expect("p99")
            > 0.0
    );
    server.shutdown();
}

/// The body the server must send for `body`, computed on `session` in
/// process, the way the server answers one request or a batch.
fn answer_in_process(session: &mut Session, body: &str) -> String {
    let solve = decode_solve_body(body.as_bytes()).expect("solve body decodes");
    let mut out = String::new();
    let mut answer = |out: &mut String, request| {
        let result = session.solve(request);
        encode_response(out, solve.reply, result.as_ref().map(|r| *r));
    };
    match &solve.requests {
        RequestSet::One(request) => answer(&mut out, request),
        RequestSet::Batch(batch) => {
            out.push('[');
            for (i, request) in batch.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                answer(&mut out, request);
            }
            out.push(']');
        }
    }
    out
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn scraped_int(scraped: &str, key: &str) -> i64 {
    Json::parse(scraped)
        .expect("scrape parses")
        .get(key)
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("{key} missing from {scraped}"))
}

#[test]
fn reads_never_wait_for_a_build() {
    // Graph 0 is large enough that an Elkin–Neiman build takes well over
    // half a second in a debug build.
    let big = Graph::gnp_connected(4096, 4.0 / 4096.0, &mut SplitMix64::new(5));
    let mut sessions = vec![Session::new(big), Session::new(test_graph(0xbeef))];
    let warm0 = "{\"graph\": 0, \"request\": {\"kind\": \"mis\", \"strategy\": \"direct\"}}";
    let warm1 = "{\"graph\": 1, \"request\": {\"kind\": \"mis\"}}";
    let cold = "{\"graph\": 0, \"request\": {\"kind\": \"decompose\", \
                \"decomposition\": {\"method\": \"elkin_neiman\", \"seed\": 7}}}";
    // Warmed in process: the server starts with these answers published.
    let want0 = answer_in_process(&mut sessions[0], warm0);
    let want1 = answer_in_process(&mut sessions[1], warm1);
    let mut reference = sessions[0].clone();
    let server = HttpServer::start(sessions, HttpConfig::new().with_workers(2)).expect("starts");
    let before = server.metrics_snapshot();

    // Connection A sends the cold request and reads nothing; wait until a
    // worker has counted it, so that worker is busy building.
    let mut a = Client::new(&server);
    a.send_solve(cold);
    wait_for("the cold request to be taken", || {
        server.metrics_snapshot().requests > before.requests
    });

    // Connection B, on the other worker: warm hits on the graph being
    // built, a hit on the other graph, and a scrape — all answered while
    // the build is still running.
    let mut b = Client::new(&server);
    for _ in 0..100 {
        assert_eq!(b.post_solve(warm0), (200, want0.clone()));
    }
    assert_eq!(b.post_solve(warm1), (200, want1));
    let (status, scraped) = b.get("/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        scraped_int(&scraped, "requests"),
        before.requests as i64 + 102
    );
    assert_eq!(
        scraped_int(&scraped, "response_hits"),
        before.response_hits as i64 + 101
    );
    assert!(
        !a.has_reply(),
        "the cold reply arrived before the reads were answered: they waited for the build"
    );

    // The build finishes and answers as a lone session would.
    let want_cold = answer_in_process(&mut reference, cold);
    assert_eq!(a.read_response(), (200, want_cold));
    let after = server.metrics_snapshot();
    assert_eq!(after.solver_runs, before.solver_runs + 1);
    assert_eq!(after.decompositions_built, before.decompositions_built + 1);
    let (_, scraped) = b.get("/metrics");
    assert_eq!(scraped, server.metrics_snapshot().to_json());
    server.shutdown();
}

#[test]
fn scripted_traffic_counts_as_one_session_would() {
    let g = Graph::gnp_connected(1024, 4.0 / 1024.0, &mut SplitMix64::new(9));
    let mut reference = Session::new(g.clone());
    let server = HttpServer::start(vec![Session::new(g)], HttpConfig::new().with_workers(2))
        .expect("starts");
    let mis = "{\"graph\": 0, \"request\": {\"kind\": \"mis\"}}";
    let cold = "{\"graph\": 0, \"request\": {\"kind\": \"decompose\", \
                \"decomposition\": {\"method\": \"elkin_neiman\", \"seed\": 3}}}";
    let batch = "{\"graph\": 0, \"requests\": [{\"kind\": \"mis\"}, {\"kind\": \"coloring\"}, \
                 {\"kind\": \"decompose\", \"decomposition\": {\"method\": \"elkin_neiman\", \
                 \"seed\": 3}}]}";
    let unsupported =
        "{\"graph\": 0, \"request\": {\"kind\": \"slocal\", \"strategy\": \"direct\"}}";

    let mut c1 = Client::new(&server);
    let mut c2 = Client::new(&server);
    // Read one reply and feed the same request to the lone session.
    let mut check = |client: &mut Client, body: &str| {
        let want = answer_in_process(&mut reference, body);
        assert_eq!(client.read_response(), (200, want), "{body}");
    };
    // Warm hits: one cold MIS, then repeats.
    for _ in 0..4 {
        c1.send_solve(mis);
        check(&mut c1, mis);
    }
    // The same cold request from two connections at once: the builder runs
    // it once, and the loser of the race counts a hit.
    c1.send_solve(cold);
    c2.send_solve(cold);
    check(&mut c1, cold);
    check(&mut c2, cold);
    // A batch holding hits and a miss.
    c2.send_solve(batch);
    check(&mut c2, batch);
    // An unsupported strategy: a typed error, cached like an answer.
    for _ in 0..2 {
        c1.send_solve(unsupported);
        check(&mut c1, unsupported);
    }

    let (status, scraped) = c1.get("/metrics");
    assert_eq!(status, 200);
    assert_eq!(scraped, server.metrics_snapshot().to_json());
    let stats = reference.stats();
    for (key, want) in [
        ("requests", stats.requests),
        ("response_hits", stats.response_hits),
        ("solver_runs", stats.solver_runs),
        ("decompositions_built", stats.decompositions_built),
        ("decomposition_hits", stats.decomposition_hits),
    ] {
        assert_eq!(scraped_int(&scraped, key), want as i64, "{key}: {scraped}");
    }
    assert_eq!(stats.requests, 11);
    assert_eq!(stats.solver_runs, 4, "mis, decompose, coloring, slocal");
    server.shutdown();
}

#[test]
fn shutdown_drains_and_joins() {
    let server = start_server(1, 2);
    let mut c = Client::new(&server);
    let (status, body) = c.post_solve("{\"graph\": 0, \"request\": {\"kind\": \"mis\"}}");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"));

    let addr = server.addr();
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown joins promptly"
    );
    // The listener is gone: a fresh request cannot be served.
    let refused = match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            let mut buf = [0u8; 16];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        }
    };
    assert!(refused, "no serving after shutdown");
}
