//! `warm_http` and `mixed_http`: the HTTP front-end over loopback, serving
//! `G(2000, 4/n)` (connected) and a 64×64 grid from sessions that already
//! hold every pool answer.
//!
//! - `warm_http`: a closed loop over two keep-alive connections, one
//!   request in flight on each; every answer is a cache hit.
//! - `mixed_http`: one connection sends warm requests open loop at a fixed
//!   rate (pipelined; latency from each request's scheduled send time)
//!   while a second sends a fixed number of paced cold requests to graph 0.
//!
//! Every response body must equal, byte for byte, the answer an in-process
//! `Session` gave to the same request during set-up. The traced run
//! replays the exact request bytes in process through `parse_head`,
//! `decode_solve_body`, `Session::solve` and `encode_response`.

use super::{
    e2e, layer, probe_build, repeated_setup, secs, MeterSum, RunConfig, INSTANCE_SEED, MPX_BETA,
};
use crate::client::FrameReader;
use crate::report::{Better, Outcome, Tally};
use crate::stats;
use crate::streams::{self, sub_seed, Class, PoolEntry};
use crate::sys::pace_until;
use crate::trace::Tracer;
use locality_core::decomposition::ball_carving_decomposition;
use locality_core::decomposition::mpx::mpx_partition;
use locality_core::serve::http::parse_head;
use locality_core::serve::wire::{decode_solve_body, encode_response, RequestSet};
use locality_core::serve::{HttpConfig, HttpServer, MetricsSnapshot, ReplyMode, Request, Session};
use locality_graph::Graph;
use locality_rand::prng::SplitMix64;
use locality_rand::source::PrngSource;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Nodes of served graph 0.
pub const G0_N: usize = 2000;
/// Side of the served grid (graph 1).
pub const GRID_SIDE: usize = 64;
/// Cold requests per `mixed_http` run.
pub const COLD_REQUESTS: usize = 20;
/// A `mixed_http` run is invalid when the open-loop sender's p99 lateness
/// exceeds this many microseconds: it would measure the generator.
pub const LATE_BOUND_US: f64 = 2000.0;
/// Pool indices each warm client cycles through.
const STREAM_LEN: usize = 1 << 16;
/// Requests replayed in process by a traced run.
const REPLAY_LEN: usize = 20_000;
/// Client request spans a traced run keeps per connection.
const CLIENT_SPANS: usize = 20_000;

/// The served graphs (fixed instances).
pub fn served_graphs() -> Vec<Graph> {
    let mut p = SplitMix64::new(sub_seed(INSTANCE_SEED, 3));
    vec![
        Graph::gnp_connected(G0_N, 4.0 / G0_N as f64, &mut p),
        Graph::grid(GRID_SIDE, GRID_SIDE),
    ]
}

/// Answer `bytes` in process exactly as the server does: parse the head,
/// decode the body, solve each request on its session and encode the
/// answers. Returns the response body.
///
/// # Errors
/// Heads, routes or bodies the server would reject.
pub fn answer_in_process(
    sessions: &mut [Session],
    bytes: &[u8],
    tracer: &mut Tracer,
    request: u64,
    meters: Option<&mut MeterSum>,
) -> Result<Vec<u8>, String> {
    let id = tracer.begin("http.parse_head", request);
    let head = parse_head(bytes);
    tracer.end(id);
    let head = head.map_err(|e| e.to_string())?.ok_or("incomplete head")?;
    match (head.method, head.path) {
        ("GET", "/healthz") => return Ok(b"{\"ok\": true}".to_vec()),
        ("POST", "/solve") => {}
        (m, p) => return Err(format!("unexpected route {m} {p}")),
    }
    let body = bytes
        .get(head.head_len..head.head_len + head.content_length)
        .ok_or("truncated body")?;
    let id = tracer.begin("wire.decode", request);
    let solve = decode_solve_body(body);
    tracer.end(id);
    let solve = solve.map_err(|e| e.to_string())?;
    let full = solve.reply == ReplyMode::Full;
    let session = sessions
        .get_mut(solve.graph)
        .ok_or_else(|| format!("graph {} out of range", solve.graph))?;
    let mut out = String::new();
    let mut meters = meters;
    let mut answer = |r: &Request, out: &mut String| {
        let id = tracer.begin("session.solve", request);
        let result = session.solve(r);
        tracer.end(id);
        if let (Some(m), Ok(resp)) = (meters.as_deref_mut(), &result) {
            m.add(resp);
        }
        let id = tracer.begin(
            if full {
                "wire.encode.full"
            } else {
                "wire.encode.summary"
            },
            request,
        );
        encode_response(out, solve.reply, result.as_ref().map(|r| *r));
        tracer.end(id);
    };
    match &solve.requests {
        RequestSet::One(r) => answer(r, &mut out),
        RequestSet::Batch(batch) => {
            out.push('[');
            for (i, r) in batch.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                answer(r, &mut out);
            }
            out.push(']');
        }
    }
    Ok(out.into_bytes())
}

/// A running server with its reference answers and client connections.
struct Served {
    /// Keep-alive client connections, opened and warmed during set-up.
    conns: Vec<TcpStream>,
    server: HttpServer,
    graphs: Vec<Graph>,
    pool: Vec<PoolEntry>,
    /// Expected body per pool entry.
    expected: Vec<Vec<u8>>,
    /// In-process sessions holding every pool answer (the server started
    /// from clones of these).
    reference: Vec<Session>,
    cold: Vec<Vec<u8>>,
    cold_expected: Vec<Vec<u8>>,
    pool_meters: MeterSum,
    cold_meters: MeterSum,
    gen_s: f64,
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

fn connect(server: &HttpServer) -> Result<TcpStream, String> {
    let s = TcpStream::connect(server.addr()).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    s.set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    Ok(s)
}

fn setup(connections: usize) -> Result<Served, String> {
    let t = Instant::now();
    let graphs = served_graphs();
    let gen_s = t.elapsed().as_secs_f64();
    let mut reference: Vec<Session> = graphs.iter().cloned().map(Session::new).collect();
    let pool = streams::warm_pool();
    let mut off = Tracer::new(false);
    let mut pool_meters = MeterSum::default();
    let expected = pool
        .iter()
        .map(|e| {
            answer_in_process(
                &mut reference,
                &e.bytes,
                &mut off,
                0,
                Some(&mut pool_meters),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let server = HttpServer::start(reference.clone(), HttpConfig::new()).map_err(io)?;
    // Warm-up: every connection sends every pool entry once.
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut c = connect(&server)?;
        let mut reader = FrameReader::new();
        for (e, want) in pool.iter().zip(&expected) {
            c.write_all(&e.bytes).map_err(io)?;
            let (status, body) = reader.read_frame(&mut c).map_err(io)?;
            if status != 200 || body != want.as_slice() {
                return Err(format!(
                    "warm-up answer differs from the in-process answer (status {status})"
                ));
            }
        }
        conns.push(c);
    }
    Ok(Served {
        conns,
        server,
        graphs,
        pool,
        expected,
        reference,
        cold: Vec::new(),
        cold_expected: Vec::new(),
        pool_meters,
        cold_meters: MeterSum::default(),
        gen_s,
    })
}

impl Served {
    /// Draw `count` cold requests (fixed, like the graphs) and answer them
    /// in process on clones of the reference sessions, so neither the
    /// reference nor the server holds their answers. Returns the seconds it
    /// took.
    fn add_cold(&mut self, count: usize) -> Result<f64, String> {
        let t = Instant::now();
        self.cold = streams::cold_requests(INSTANCE_SEED, count);
        let mut sessions = self.reference.clone();
        let mut meters = MeterSum::default();
        let mut off = Tracer::new(false);
        self.cold_expected = self
            .cold
            .iter()
            .map(|b| answer_in_process(&mut sessions, b, &mut off, 0, Some(&mut meters)))
            .collect::<Result<Vec<_>, _>>()?;
        self.cold_meters = meters;
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Latencies and checks of a live phase.
#[derive(Default)]
struct Live {
    /// Warm latencies, ns, with the target graph (`None` = healthz).
    warm: Vec<(f64, Option<usize>)>,
    /// Cold latencies, ns.
    cold: Vec<f64>,
    /// Open-loop sender lateness, ns.
    late: Vec<f64>,
    elapsed_s: f64,
    tally: Tally,
    spans: Vec<Tracer>,
}

impl Live {
    fn warm_sorted(&self, graph: Option<Option<usize>>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .warm
            .iter()
            .filter(|(_, g)| graph.map_or(true, |want| *g == want))
            .map(|(t, _)| *t)
            .collect();
        stats::sort(&mut v);
        v
    }
}

fn check_body(tally: &mut Tally, status: u16, body: &[u8], want: &[u8], what: &str) {
    tally.check(status == 200 && body == want, || {
        format!(
            "{what}: status {status}, body {} bytes differs from the in-process answer ({} bytes)",
            body.len(),
            want.len()
        )
    });
}

/// What one client thread returns: latencies (ns) with the target graph,
/// its answer checks and its spans.
type ClientSide = (Vec<(f64, Option<usize>)>, Tally, Tracer);

/// The closed loop of `warm_http`: each connection sends its next request
/// when the previous response is complete.
fn closed_loop(s: &mut Served, seed: u64, duration: f64, tracer: &Tracer) -> Live {
    let deadline = Instant::now() + secs(duration);
    let pool = &s.pool;
    let expected = &s.expected;
    let start = Instant::now();
    let results: Vec<ClientSide> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut tr = tracer.fork();
                scope.spawn(move || {
                    let stream =
                        streams::request_stream(pool, sub_seed(seed, 100 + c as u64), STREAM_LEN);
                    let mut reader = FrameReader::new();
                    let mut lat = Vec::with_capacity(1 << 16);
                    let mut tally = Tally::default();
                    let mut k = 0usize;
                    while Instant::now() < deadline {
                        let i = stream[k % STREAM_LEN] as usize;
                        let t0 = Instant::now();
                        let sent = conn.write_all(&pool[i].bytes);
                        let got = sent.and_then(|_| reader.read_frame(conn));
                        let t1 = Instant::now();
                        match got {
                            Ok((status, body)) => {
                                lat.push(((t1 - t0).as_nanos() as f64, pool[i].graph));
                                if k < CLIENT_SPANS {
                                    tr.record("client.request", k as u64, t0, t1);
                                }
                                check_body(&mut tally, status, body, &expected[i], "warm request");
                            }
                            Err(e) => {
                                tally.check(false, || format!("warm request: {e}"));
                                break;
                            }
                        }
                        k += 1;
                    }
                    (lat, tally, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut tally = Tally::default();
                    tally.check(false, || "client thread panicked".to_string());
                    (Vec::new(), tally, Tracer::new(false))
                })
            })
            .collect()
    });
    let mut live = Live {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Live::default()
    };
    for (lat, tally, tr) in results {
        live.warm.extend(lat);
        live.tally.merge(tally);
        live.spans.push(tr);
    }
    live
}

/// The open loop of `mixed_http`: warm requests pipelined on connection 0
/// at `rate` per second, read back by a second thread; `cold` requests
/// paced evenly on connection 1, each waiting for its answer.
fn open_loop(
    s: &mut Served,
    seed: u64,
    duration: f64,
    rate: f64,
    cold: std::ops::Range<usize>,
    tracer: &Tracer,
) -> Result<Live, String> {
    let n = (rate * duration).max(1.0) as usize;
    let stream = streams::request_stream(&s.pool, sub_seed(seed, 200 + cold.start as u64), n);
    let interval = 1.0 / rate;
    let pool = &s.pool;
    let expected = &s.expected;
    let (cold_bytes, cold_expected) = (&s.cold[cold.clone()], &s.cold_expected[cold]);
    let [warm_conn, cold_conn] = s.conns.as_mut_slice() else {
        return Err("mixed_http needs two connections".to_string());
    };
    let mut writer = warm_conn.try_clone().map_err(io)?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 * interval);
    let stream = &stream;
    let (late, warm_side, cold_side) = std::thread::scope(|scope| {
        let send = scope.spawn(move || {
            // Lateness counts only the sender's own delay: time a write
            // spent blocked because the server stopped reading is the
            // server's backpressure, which the latencies already carry.
            let mut late = Vec::with_capacity(n);
            let mut free_at = t0;
            for (i, &e) in stream.iter().enumerate() {
                let d = due(i);
                pace_until(d);
                late.push(
                    Instant::now()
                        .saturating_duration_since(d.max(free_at))
                        .as_nanos() as f64,
                );
                if writer.write_all(&pool[e as usize].bytes).is_err() {
                    break;
                }
                free_at = Instant::now();
            }
            late
        });
        let mut tr = tracer.fork();
        let recv = scope.spawn(move || {
            let mut reader = FrameReader::new();
            let mut lat = Vec::with_capacity(n);
            let mut tally = Tally::default();
            for (i, &e) in stream.iter().enumerate() {
                let e = e as usize;
                match reader.read_frame(warm_conn) {
                    Ok((status, body)) => {
                        let done = Instant::now();
                        let d = due(i);
                        lat.push((
                            done.saturating_duration_since(d).as_nanos() as f64,
                            pool[e].graph,
                        ));
                        if i < CLIENT_SPANS {
                            tr.record("client.request", i as u64, d, done);
                        }
                        check_body(&mut tally, status, body, &expected[e], "warm request");
                    }
                    Err(err) => {
                        tally.check(false, || format!("warm request: {err}"));
                        break;
                    }
                }
            }
            (lat, tally, tr)
        });
        let mut tr = tracer.fork();
        let cold_client = scope.spawn(move || {
            let mut reader = FrameReader::new();
            let mut lat = Vec::new();
            let mut tally = Tally::default();
            let k_total = cold_bytes.len().max(1) as f64;
            for (k, (bytes, want)) in cold_bytes.iter().zip(cold_expected).enumerate() {
                pace_until(t0 + Duration::from_secs_f64(duration * (k as f64 + 0.5) / k_total));
                let t = Instant::now();
                let got = cold_conn
                    .write_all(bytes)
                    .and_then(|_| reader.read_frame(cold_conn));
                let done = Instant::now();
                match got {
                    Ok((status, body)) => {
                        lat.push((done - t).as_nanos() as f64);
                        tr.record("client.cold", k as u64, t, done);
                        check_body(&mut tally, status, body, want, "cold request");
                    }
                    Err(err) => {
                        tally.check(false, || format!("cold request: {err}"));
                        break;
                    }
                }
            }
            (lat, tally, tr)
        });
        (send.join(), recv.join(), cold_client.join())
    });
    let panicked = |_| "client thread panicked".to_string();
    let late = late.map_err(panicked)?;
    let (warm, warm_tally, warm_tr) = warm_side.map_err(panicked)?;
    let (cold_lat, cold_tally, cold_tr) = cold_side.map_err(panicked)?;
    let mut live = Live {
        warm,
        cold: cold_lat,
        late,
        elapsed_s: t0.elapsed().as_secs_f64(),
        tally: warm_tally,
        spans: vec![warm_tr, cold_tr],
    };
    live.tally.merge(cold_tally);
    Ok(live)
}

/// A percentile the percentile rule allows, or an error naming the sample.
fn pct(sorted: &[f64], q: f64, what: &str) -> Result<stats::Percentile, String> {
    stats::percentile(sorted, q).ok_or_else(|| {
        format!(
            "{what}: {} samples are too few for p{}",
            sorted.len(),
            q * 100.0
        )
    })
}

fn tail(sorted: &[f64], what: &str) -> Result<stats::Percentile, String> {
    stats::tail(sorted)
        .ok_or_else(|| format!("{what}: {} samples support no percentile", sorted.len()))
}

fn taken(p: &stats::Percentile) -> String {
    format!(
        "{} of {} samples ({} beyond)",
        p.label(),
        p.samples,
        p.beyond
    )
}

/// The server's own `solve` latency percentiles (p50, p99), in µs.
fn solve_endpoint(snap: &MetricsSnapshot) -> (f64, f64) {
    snap.http
        .as_ref()
        .and_then(|h| h.endpoints.iter().find(|e| e.endpoint == "solve"))
        .map_or((f64::NAN, f64::NAN), |e| (e.p50_us, e.p99_us))
}

fn http_requests_and_bytes(snap: &MetricsSnapshot) -> (u64, u64) {
    snap.http.as_ref().map_or((0, 0), |h| {
        (
            h.endpoints.iter().map(|e| e.requests).sum(),
            h.bytes_read + h.bytes_written,
        )
    })
}

/// Replay the first [`REPLAY_LEN`] requests of `stream` in process on the
/// reference sessions, with spans, checking each body. Returns each
/// replayed request's reply mode (`true` = full).
fn replay(s: &mut Served, stream: &[u32], tracer: &mut Tracer, tally: &mut Tally) -> Vec<bool> {
    let mut full = Vec::new();
    for (k, &i) in stream.iter().take(REPLAY_LEN).enumerate() {
        let e = &s.pool[i as usize];
        let top = tracer.begin("replay", k as u64);
        let got = answer_in_process(&mut s.reference, &e.bytes, tracer, k as u64, None);
        tracer.end(top);
        tally.check(got.as_ref() == Ok(&s.expected[i as usize]), || {
            "in-process replay differs from the set-up answer".to_string()
        });
        full.push(e.class == Class::Full);
    }
    full
}

/// Median duration (ns) of replay spans named `name`, optionally only
/// those of requests whose reply mode is `full`.
fn replay_median(tracer: &Tracer, name: &str, full: &[bool], mode: Option<bool>) -> f64 {
    let v: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| mode.map_or(true, |m| full.get(s.request as usize) == Some(&m)))
        .map(|s| s.duration_ns() as f64)
        .collect();
    stats::median(&v)
}

/// Per replayed request: the summed durations (ns) of its layer spans.
fn replay_layer_sums(tracer: &Tracer, requests: usize) -> Vec<f64> {
    let mut sums = vec![0.0; requests];
    for s in tracer.spans() {
        let layer = matches!(
            s.name,
            "http.parse_head"
                | "wire.decode"
                | "session.solve"
                | "wire.encode.full"
                | "wire.encode.summary"
        );
        if layer {
            if let Some(x) = sums.get_mut(s.request as usize) {
                *x += s.duration_ns() as f64;
            }
        }
    }
    sums
}

/// Mis and Coloring on graph 0's default decomposition, timed after the
/// decomposition is cached, in fresh sessions. Returns medians in ms and
/// the MIS round count.
fn consumer_probe(g: &Graph, tracer: &mut Tracer) -> Result<(f64, f64, u64), String> {
    let (mut mis_ms, mut col_ms, mut rounds) = (Vec::new(), Vec::new(), 0);
    for k in 0..5u64 {
        let mut s = Session::new(g.clone());
        s.solve(&Request::decompose()).map_err(|e| e.to_string())?;
        let id = tracer.begin("consume.mis", k);
        let t = Instant::now();
        let mis = s
            .solve(&Request::mis())
            .map(|r| r.meter().map_or(0, |m| m.rounds));
        mis_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(id);
        rounds = mis.map_err(|e| e.to_string())?;
        let id = tracer.begin("consume.coloring", k);
        let t = Instant::now();
        let col = s.solve(&Request::coloring()).map(|_| ());
        col_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(id);
        col.map_err(|e| e.to_string())?;
    }
    Ok((stats::median(&mis_ms), stats::median(&col_ms), rounds))
}

/// Per-layer metrics both HTTP workloads share.
#[allow(clippy::too_many_arguments)]
fn put_http_layers(
    out: &mut Outcome,
    s: &mut Served,
    tracer: &mut Tracer,
    gens: &[f64],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    replay_stream: &[u32],
    untraced_p50_ns: f64,
    traced_p50_ns: f64,
    workload: &str,
) -> Result<(), String> {
    let full = replay(s, replay_stream, tracer, &mut out.tally);
    let (mis_ms, col_ms, mis_rounds) = consumer_probe(&s.graphs[0], tracer)?;
    let h = &mut out.headline;
    layer(
        h,
        "graph.gen_s",
        stats::median(gens),
        "both served graphs, median of 3 set-ups",
    );
    layer(
        h,
        "mis.consume_ms",
        mis_ms,
        "graph 0 default decomposition cached, median of 5",
    );
    layer(
        h,
        "coloring.consume_ms",
        col_ms,
        "graph 0 default decomposition cached, median of 5",
    );
    layer(h, "mis.rounds", mis_rounds as f64, "graph 0 default MIS");
    let hit_ns = replay_median(tracer, "session.solve", &full, None);
    layer(
        h,
        "session.hit_ns",
        hit_ns,
        format!("in-process replay, {} pool entries cached", s.pool.len()),
    );
    let hits = after.response_hits - before.response_hits;
    let reqs = after.requests - before.requests;
    layer(
        h,
        "session.hit_ratio",
        hits as f64 / reqs.max(1) as f64,
        format!("{hits} of {reqs} session requests in the run"),
    );
    layer(
        h,
        "session.solver_runs",
        after.solver_runs as f64,
        "server sessions, set-up included",
    );
    layer(
        h,
        "session.decompositions_built",
        after.decompositions_built as f64,
        "server sessions, set-up included",
    );
    layer(
        h,
        "trace.overhead_ms",
        (traced_p50_ns - untraced_p50_ns) / 1e6,
        "traced minus untraced warm p50",
    );
    let attributed = stats::median(&replay_layer_sums(tracer, full.len()));
    let parts: Vec<(&str, f64)> = [
        "http.parse_head",
        "wire.decode",
        "session.solve",
        "wire.encode.summary",
        "wire.encode.full",
    ]
    .into_iter()
    .map(|n| {
        // Mean per replayed request, so the parts add up.
        let total: f64 = tracer
            .spans()
            .iter()
            .filter(|sp| sp.name == n)
            .map(|sp| sp.duration_ns() as f64)
            .sum();
        (n, total / full.len().max(1) as f64 / 1e3)
    })
    .collect();
    let (_, line) = super::stage_budget(
        &format!("{workload} (layer means per replayed request)"),
        untraced_p50_ns / 1e3,
        &parts,
        "us",
    );
    layer(
        h,
        "trace.attributed_frac",
        attributed / untraced_p50_ns,
        "median in-process layer time per request / untraced warm p50",
    );
    out.notes.push(line);

    let d = &mut out.detail;
    let (route_p50, route_p99) = solve_endpoint(after);
    let note = "server solve histogram (log2 buckets), server lifetime";
    d.put("http.route_p50_us", route_p50, "us", Better::Lower, note);
    d.put("http.route_p99_us", route_p99, "us", Better::Lower, note);
    d.put(
        "http.transport_p50_us",
        untraced_p50_ns / 1e3 - route_p50,
        "us",
        Better::Lower,
        "client p50 minus http.route_p50_us",
    );
    d.put(
        "http.parse_head_ns",
        replay_median(tracer, "http.parse_head", &full, None),
        "ns",
        Better::Lower,
        "in-process replay",
    );
    let (r0, b0) = http_requests_and_bytes(before);
    let (r1, b1) = http_requests_and_bytes(after);
    d.put(
        "http.bytes_per_req",
        (b1 - b0) as f64 / (r1 - r0).max(1) as f64,
        "bytes",
        Better::Lower,
        "read plus written, untraced phase",
    );
    for (mode, tag) in [(false, "summary"), (true, "full")] {
        d.put(
            &format!("wire.decode_ns.{tag}"),
            replay_median(tracer, "wire.decode", &full, Some(mode)),
            "ns",
            Better::Lower,
            "in-process replay",
        );
        d.put(
            &format!("wire.encode_ns.{tag}"),
            replay_median(tracer, &format!("wire.encode.{tag}"), &full, Some(mode)),
            "ns",
            Better::Lower,
            "in-process replay",
        );
    }
    d.put(
        "session.hit_ns",
        hit_ns,
        "ns",
        Better::Lower,
        "in-process replay",
    );
    d.put(
        "session.solver_runs",
        after.solver_runs as f64,
        "count",
        Better::Lower,
        "",
    );
    d.put(
        "trace.overhead_ms",
        (traced_p50_ns - untraced_p50_ns) / 1e6,
        "ms",
        Better::Lower,
        "warm p50",
    );
    Ok(())
}

fn put_common_e2e(
    out: &mut Outcome,
    setup_s: f64,
    ops: f64,
    p50: &stats::Percentile,
    tail: &stats::Percentile,
    ops_note: String,
) {
    let h = &mut out.headline;
    e2e(h, "setup_s", setup_s, "median of 3 set-ups");
    e2e(h, "peak_rss_mb", crate::sys::peak_rss_mb(), "VmHWM");
    e2e(h, "ops_per_s", ops, ops_note);
    e2e(h, "p50_ms", p50.value / 1e6, taken(p50));
    e2e(h, "tail_ms", tail.value / 1e6, taken(tail));
    let d = &mut out.detail;
    d.put(
        "setup_s",
        setup_s,
        "s",
        Better::Lower,
        "median of 3 set-ups",
    );
    d.put(
        "peak_rss_mb",
        crate::sys::peak_rss_mb(),
        "MB",
        Better::Lower,
        "VmHWM",
    );
    d.put("p50_us", p50.value / 1e3, "us", Better::Lower, taken(p50));
    d.put("p99_us", tail.value / 1e3, "us", Better::Lower, taken(tail));
}

/// Run `warm_http`.
///
/// # Errors
/// Set-up failures, or too few samples for the reported percentiles.
pub fn run_warm(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut gens = Vec::new();
    let (mut s, setup_s) = repeated_setup(|| {
        let s = setup(2)?;
        gens.push(s.gen_s);
        Ok(s)
    })?;
    let mut out = Outcome::default();
    let share = if cfg.trace { 0.35 } else { 1.0 };
    let before = s.server.metrics_snapshot();
    let live = closed_loop(&mut s, cfg.seed, cfg.seconds * share, &Tracer::new(false));
    let after = s.server.metrics_snapshot();
    out.tally.merge(live.tally.clone());
    let lat = live.warm_sorted(None);
    let req_per_s = lat.len() as f64 / live.elapsed_s;
    let p50 = pct(&lat, 0.5, "warm latency")?;
    let p99 = tail(&lat, "warm latency")?;
    if !cfg.trace {
        put_common_e2e(
            &mut out,
            setup_s,
            req_per_s,
            &p50,
            &p99,
            format!("{} requests over 2 connections", lat.len()),
        );
        out.detail.put(
            "req_per_s",
            req_per_s,
            "1/s",
            Better::Higher,
            format!("{} requests", lat.len()),
        );
        out.detail.put(
            "error_frac",
            out.tally.error_frac(),
            "ratio",
            Better::Lower,
            "",
        );
        return Ok(out);
    }
    let mut tracer = Tracer::new(true);
    let traced = closed_loop(&mut s, cfg.seed, cfg.seconds * share, &tracer);
    out.tally.merge(traced.tally.clone());
    let traced_lat = traced.warm_sorted(None);
    let traced_p50 = pct(&traced_lat, 0.5, "traced warm latency")?;
    for t in traced.spans {
        tracer.merge(t);
    }
    let g0 = s.graphs[0].clone();
    let order: Vec<usize> = (0..g0.node_count()).collect();
    let probe = probe_build(&g0, &mut tracer, "decomp.build.carving", 0.5, |g| {
        Some(ball_carving_decomposition(g, &order).decomposition)
    })?;
    probe.put(
        &mut out.headline,
        "ball carving (the served default) on graph 0",
    );
    s.pool_meters
        .put(&mut out.headline, "the answers to every pool entry");
    let stream = streams::request_stream(&s.pool, sub_seed(cfg.seed, 100), STREAM_LEN);
    put_http_layers(
        &mut out,
        &mut s,
        &mut tracer,
        &gens,
        &before,
        &after,
        &stream,
        p50.value,
        traced_p50.value,
        "warm_http",
    )?;
    out.spans = Some(tracer);
    Ok(out)
}

/// Run `mixed_http`.
///
/// # Errors
/// Set-up failures, a lost connection, or too few samples for the reported
/// percentiles.
pub fn run_mixed(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut gens = Vec::new();
    let (mut s, setup_s) = repeated_setup(|| {
        let s = setup(2)?;
        gens.push(s.gen_s);
        Ok(s)
    })?;
    // A traced run measures two shorter phases, untraced then traced. Each
    // gets its own cold requests at the untraced run's pace, so both carry
    // the same cold load.
    let (phases, share) = if cfg.trace { (2, 0.4) } else { (1, 1.0) };
    let per_phase = ((COLD_REQUESTS as f64 * share).round() as usize).max(1);
    let cold_reference_s = s.add_cold(phases * per_phase)?;
    let mut out = Outcome::default();
    out.detail.put(
        "cold_reference_s",
        cold_reference_s,
        "s",
        Better::Lower,
        format!(
            "in-process answers to the {} cold requests, once, outside setup_s",
            phases * per_phase
        ),
    );
    let cold_untraced = 0..per_phase;
    let before = s.server.metrics_snapshot();
    let live = open_loop(
        &mut s,
        cfg.seed,
        cfg.seconds * share,
        cfg.mixed_rate,
        cold_untraced,
        &Tracer::new(false),
    )?;
    let after = s.server.metrics_snapshot();
    out.tally.merge(live.tally.clone());
    let lat = live.warm_sorted(None);
    let p50 = pct(&lat, 0.5, "warm latency")?;
    let p99 = tail(&lat, "warm latency")?;
    let mut late = live.late.clone();
    stats::sort(&mut late);
    let late_p99 = tail(&late, "sender lateness")?;
    let mut cold = live.cold.clone();
    stats::sort(&mut cold);
    let same = live.warm_sorted(Some(Some(0)));
    let other = live.warm_sorted(Some(Some(1)));
    let warm_per_s = lat.len() as f64 / live.elapsed_s;

    let d = &mut out.detail;
    match stats::percentile(&cold, 0.5) {
        Some(p) => d.put("cold_p50_ms", p.value / 1e6, "ms", Better::Lower, taken(&p)),
        None => out.notes.push(format!(
            "cold_p50_ms: not reported, {} cold requests support no p50",
            cold.len()
        )),
    }
    let d = &mut out.detail;
    d.put(
        "loadgen.late_p99_us",
        late_p99.value / 1e3,
        "us",
        Better::Lower,
        taken(&late_p99),
    );
    d.put(
        "loadgen.sent",
        live.late.len() as f64,
        "count",
        Better::Higher,
        format!("at {} req/s", cfg.mixed_rate),
    );
    for (name, v) in [
        ("session.same_graph_p99_us", &same),
        ("session.other_graph_p99_us", &other),
    ] {
        let p = tail(v, name)?;
        d.put(name, p.value / 1e3, "us", Better::Lower, taken(&p));
    }
    if late_p99.value / 1e3 > LATE_BOUND_US {
        out.guard_failures.push(format!(
            "open-loop validity: the sender ran {:.0} us late at p99, beyond the {LATE_BOUND_US} us bound",
            late_p99.value / 1e3
        ));
    }
    out.notes.push(format!(
        "open loop: {} warm requests scheduled at {} req/s, sender lateness {} = {:.1} us (bound {LATE_BOUND_US} us)",
        live.late.len(),
        cfg.mixed_rate,
        late_p99.label(),
        late_p99.value / 1e3
    ));
    if !cfg.trace {
        put_common_e2e(
            &mut out,
            setup_s,
            warm_per_s,
            &p50,
            &p99,
            format!("{} warm responses", lat.len()),
        );
        out.detail.put(
            "error_frac",
            out.tally.error_frac(),
            "ratio",
            Better::Lower,
            "",
        );
        return Ok(out);
    }
    let mut tracer = Tracer::new(true);
    let traced = open_loop(
        &mut s,
        cfg.seed,
        cfg.seconds * share,
        cfg.mixed_rate,
        per_phase..2 * per_phase,
        &tracer,
    )?;
    out.tally.merge(traced.tally.clone());
    let traced_lat = traced.warm_sorted(None);
    let traced_p50 = pct(&traced_lat, 0.5, "traced warm latency")?;
    for t in traced.spans {
        tracer.merge(t);
    }
    let g0 = s.graphs[0].clone();
    let mpx_seed = sub_seed(INSTANCE_SEED, 0x3B50);
    let probe = probe_build(&g0, &mut tracer, "decomp.build.mpx", 0.5, |g| {
        Some(mpx_partition(g, MPX_BETA, &mut PrngSource::seeded(mpx_seed)).decomposition)
    })?;
    probe.put(&mut out.headline, "MPX (the cold producer) on graph 0");
    out.detail.put(
        "decomp.mpx_build_s",
        probe.build_s,
        "s",
        Better::Lower,
        format!("median of {} builds", probe.builds),
    );
    let mut meters = s.pool_meters;
    meters.random_bits += s.cold_meters.random_bits;
    meters.rounds += s.cold_meters.rounds;
    meters.messages += s.cold_meters.messages;
    meters.put(
        &mut out.headline,
        "the answers to every pool entry and every cold request",
    );
    let stream = streams::request_stream(&s.pool, sub_seed(cfg.seed, 200), REPLAY_LEN);
    put_http_layers(
        &mut out,
        &mut s,
        &mut tracer,
        &gens,
        &before,
        &after,
        &stream,
        p50.value,
        traced_p50.value,
        "mixed_http",
    )?;
    out.spans = Some(tracer);
    Ok(out)
}
