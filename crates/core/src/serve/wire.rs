//! The HTTP wire codec: `POST /solve` bodies ⇄ the typed [`Request`] /
//! [`Response`] layer (DESIGN.md §2.9).
//!
//! Decoding is schema-aware pull parsing over [`locality_json::Cursor`]:
//! the solver option structs ([`MisOptions`], [`DecomposeOptions`], …)
//! contain no heap data, so decoding a single solve request performs **zero
//! heap allocations** — enum identifiers are matched as borrowed slices,
//! numbers land in scalars, unknown fields are skipped (forward-compatible;
//! a field the server doesn't know cannot change an answer). Only batch
//! bodies (`"requests": [...]`) allocate, one `Vec` for the batch.
//!
//! Encoding streams compact JSON into a caller-owned `String` via
//! `write!` — a reusable buffer serves every response on a connection
//! without reallocating once its capacity has warmed up.
//!
//! Every malformed body is a typed [`WireError`] (never a panic), and
//! solver-level failures are encoded as `{"ok": false, ...}` bodies with
//! HTTP 200 — the request was understood; the *answer* is an error.

use super::request::{
    ColoringOptions, DecompMethod, DecomposeOptions, DegradePolicy, MisOptions, Request, Response,
    SlocalOptions, SlocalOutput, SlocalTask, SolveError, Strategy,
};
use locality_json::{Cursor, JsonError};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A typed failure decoding a solve body.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body is not well-formed JSON.
    Syntax(JsonError),
    /// A field held a value of the wrong shape.
    BadValue {
        /// The field.
        field: &'static str,
        /// Byte offset of the offending value.
        at: usize,
    },
    /// An enum field named an unknown identifier.
    UnknownName {
        /// The field.
        field: &'static str,
        /// Byte offset of the identifier.
        at: usize,
    },
    /// A required field was absent.
    MissingField {
        /// The field.
        field: &'static str,
    },
    /// The request kind is valid but not servable over the wire
    /// (verification artifacts are submitted in-process, not over HTTP).
    UnsupportedKind {
        /// The kind's stable name.
        kind: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax(e) => write!(f, "malformed JSON: {e}"),
            WireError::BadValue { field, at } => {
                write!(f, "bad value for field {field:?} at byte {at}")
            }
            WireError::UnknownName { field, at } => {
                write!(f, "unknown identifier for field {field:?} at byte {at}")
            }
            WireError::MissingField { field } => write!(f, "missing required field {field:?}"),
            WireError::UnsupportedKind { kind } => {
                write!(f, "request kind {kind:?} is not servable over the wire")
            }
        }
    }
}

impl Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::Syntax(e)
    }
}

/// How much of an answer the client wants back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplyMode {
    /// Scalar summary: sizes, fingerprint, cost — the warm-path default
    /// (constant-size responses regardless of graph size).
    #[default]
    Summary,
    /// The summary plus the full per-node output vectors.
    Full,
}

/// The requests of one decoded body: one (allocation-free) or a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestSet {
    /// A single request (`"request": {...}`).
    One(Request),
    /// A batch (`"requests": [...]`), answered in order.
    Batch(Vec<Request>),
}

impl RequestSet {
    /// The requests as a slice, whichever shape arrived.
    pub fn as_slice(&self) -> &[Request] {
        match self {
            RequestSet::One(r) => std::slice::from_ref(r),
            RequestSet::Batch(v) => v,
        }
    }
}

/// A decoded `POST /solve` body.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveBody {
    /// Which session (graph) the requests target.
    pub graph: usize,
    /// How much of each answer to return.
    pub reply: ReplyMode,
    /// The request(s).
    pub requests: RequestSet,
}

fn bad(field: &'static str, at: usize) -> WireError {
    WireError::BadValue { field, at }
}

fn usize_field(c: &mut Cursor<'_>, field: &'static str) -> Result<usize, WireError> {
    let at = c.pos();
    let v = c.u64_value().map_err(WireError::Syntax)?;
    usize::try_from(v).map_err(|_| bad(field, at))
}

/// Decode a `POST /solve` body. See the module docs for the schema; all
/// request fields except `kind` are optional and default to the option
/// structs' defaults.
///
/// # Errors
/// A typed [`WireError`] for malformed JSON, wrong-shaped values, unknown
/// enum identifiers, or a missing `kind`/`request`.
pub fn decode_solve_body(bytes: &[u8]) -> Result<SolveBody, WireError> {
    let mut c = Cursor::new(bytes);
    let mut graph = 0usize;
    let mut reply = ReplyMode::default();
    let mut requests: Option<RequestSet> = None;
    c.eat(b'{', "'{' opening the solve body")?;
    if !c.try_eat(b'}') {
        loop {
            let key_at = c.pos();
            let key = c.str_borrowed()?;
            c.eat(b':', "':' after key")?;
            match key {
                "graph" => graph = usize_field(&mut c, "graph")?,
                "reply" => {
                    let at = c.pos();
                    reply = match c.str_borrowed()? {
                        "summary" => ReplyMode::Summary,
                        "full" => ReplyMode::Full,
                        _ => return Err(WireError::UnknownName { field: "reply", at }),
                    };
                }
                "request" => requests = Some(RequestSet::One(decode_request(&mut c)?)),
                "requests" => {
                    let mut batch = Vec::new();
                    c.eat(b'[', "'[' opening the batch")?;
                    if !c.try_eat(b']') {
                        loop {
                            batch.push(decode_request(&mut c)?);
                            if !c.try_eat(b',') {
                                c.eat(b']', "',' or ']' in the batch")?;
                                break;
                            }
                        }
                    }
                    requests = Some(RequestSet::Batch(batch));
                }
                _ => {
                    // Unknown fields are skipped, not rejected: a client
                    // ahead of the server must not be turned away over a
                    // field that cannot change the answer.
                    let _ = key_at;
                    c.skip_value()?;
                }
            }
            if !c.try_eat(b',') {
                c.eat(b'}', "',' or '}' in the solve body")?;
                break;
            }
        }
    }
    if !c.at_end() {
        return Err(WireError::Syntax(JsonError::TrailingData { at: c.pos() }));
    }
    let requests = requests.ok_or(WireError::MissingField { field: "request" })?;
    Ok(SolveBody {
        graph,
        reply,
        requests,
    })
}

fn decode_request(c: &mut Cursor<'_>) -> Result<Request, WireError> {
    let mut kind: Option<&str> = None;
    let mut strategy = Strategy::Auto;
    let mut seed = 0u64;
    let mut threads: Option<usize> = None;
    let mut task = SlocalTask::GreedyMis;
    let mut decomposition = DecomposeOptions::default();
    c.eat(b'{', "'{' opening a request")?;
    if !c.try_eat(b'}') {
        loop {
            let key = c.str_borrowed()?;
            c.eat(b':', "':' after key")?;
            match key {
                "kind" => kind = Some(c.str_borrowed()?),
                "strategy" => {
                    let at = c.pos();
                    strategy = match c.str_borrowed()? {
                        "auto" => Strategy::Auto,
                        "direct" => Strategy::Direct,
                        "via_decomposition" => Strategy::ViaDecomposition,
                        _ => {
                            return Err(WireError::UnknownName {
                                field: "strategy",
                                at,
                            })
                        }
                    };
                }
                // Seeds ride the wire as i64 bit-patterns (the writer has
                // only i64); accept both spellings of the same u64.
                "seed" => seed = c.u64_bits_value()?,
                "threads" => threads = Some(usize_field(c, "threads")?),
                "task" => {
                    let at = c.pos();
                    task = match c.str_borrowed()? {
                        "greedy-mis" => SlocalTask::GreedyMis,
                        "greedy-coloring" => SlocalTask::GreedyColoring,
                        "distance-2-coloring" => SlocalTask::DistanceTwoColoring,
                        _ => return Err(WireError::UnknownName { field: "task", at }),
                    };
                }
                "decomposition" => decomposition = decode_decomposition(c)?,
                _ => c.skip_value()?,
            }
            if !c.try_eat(b',') {
                c.eat(b'}', "',' or '}' in a request")?;
                break;
            }
        }
    }
    let Some(kind) = kind else {
        return Err(WireError::MissingField { field: "kind" });
    };
    match kind {
        "mis" => {
            let mut o = MisOptions::new()
                .with_strategy(strategy)
                .with_seed(seed)
                .with_decomposition(decomposition);
            if let Some(t) = threads {
                o = o.with_threads(t);
            }
            Ok(Request::Mis(o))
        }
        "coloring" => {
            let mut o = ColoringOptions::new()
                .with_strategy(strategy)
                .with_seed(seed)
                .with_decomposition(decomposition);
            if let Some(t) = threads {
                o = o.with_threads(t);
            }
            Ok(Request::Coloring(o))
        }
        "decompose" => Ok(Request::Decompose(decomposition)),
        "slocal" => {
            let mut o = SlocalOptions::new(task).with_strategy(strategy);
            if let Some(t) = threads {
                o = o.with_threads(t);
            }
            Ok(Request::Slocal(o))
        }
        "verify" => Err(WireError::UnsupportedKind { kind: "verify" }),
        _ => Err(WireError::UnknownName {
            field: "kind",
            at: c.pos(),
        }),
    }
}

fn decode_decomposition(c: &mut Cursor<'_>) -> Result<DecomposeOptions, WireError> {
    let mut o = DecomposeOptions::default();
    c.eat(b'{', "'{' opening decomposition options")?;
    if c.try_eat(b'}') {
        return Ok(o);
    }
    loop {
        let key = c.str_borrowed()?;
        c.eat(b':', "':' after key")?;
        match key {
            "method" => {
                let at = c.pos();
                o.method = match c.str_borrowed()? {
                    "auto" => DecompMethod::Auto,
                    "ball_carving" => DecompMethod::BallCarving,
                    "mpx" => DecompMethod::Mpx,
                    "elkin_neiman" => DecompMethod::ElkinNeiman,
                    "derandomized" => DecompMethod::Derandomized,
                    _ => {
                        return Err(WireError::UnknownName {
                            field: "method",
                            at,
                        })
                    }
                };
            }
            "seed" => o.seed = c.u64_bits_value()?,
            "cap" => {
                let at = c.pos();
                let v = c.u64_value()?;
                o.cap = u32::try_from(v).map_err(|_| bad("cap", at))?;
            }
            "require_deterministic" => o.require_deterministic = c.bool_value()?,
            "deadline_ms" => o.deadline_ms = c.u64_value()?,
            "degrade" => {
                let at = c.pos();
                o.degrade = match c.str_borrowed()? {
                    "randomized" => DegradePolicy::Randomized,
                    "strict" => DegradePolicy::Strict,
                    _ => {
                        return Err(WireError::UnknownName {
                            field: "degrade",
                            at,
                        })
                    }
                };
            }
            _ => c.skip_value()?,
        }
        if !c.try_eat(b',') {
            c.eat(b'}', "',' or '}' in decomposition options")?;
            return Ok(o);
        }
    }
}

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Auto => "auto",
        Strategy::Direct => "direct",
        Strategy::ViaDecomposition => "via_decomposition",
    }
}

fn method_name(m: DecompMethod) -> &'static str {
    match m {
        DecompMethod::Auto => "auto",
        DecompMethod::BallCarving => "ball_carving",
        DecompMethod::Mpx => "mpx",
        DecompMethod::ElkinNeiman => "elkin_neiman",
        DecompMethod::Derandomized => "derandomized",
    }
}

fn write_decomposition(out: &mut String, o: &DecomposeOptions) {
    let _ = write!(
        out,
        "{{\"method\": \"{}\", \"seed\": {}, \"cap\": {}, \"require_deterministic\": {}, \
         \"deadline_ms\": {}, \"degrade\": \"{}\"}}",
        method_name(o.method),
        o.seed as i64,
        o.cap,
        o.require_deterministic,
        o.deadline_ms,
        match o.degrade {
            DegradePolicy::Randomized => "randomized",
            DegradePolicy::Strict => "strict",
        },
    );
}

/// Encode one request as a compact wire object (every field explicit, so
/// decoding is the exact inverse — `tests/proptest_http.rs` pins the
/// differential). Appends to `out`; allocation-free once the buffer's
/// capacity has warmed.
///
/// # Errors
/// [`WireError::UnsupportedKind`] for [`Request::Verify`] — verification
/// artifacts are not servable over the wire.
pub fn encode_request(out: &mut String, r: &Request) -> Result<(), WireError> {
    match r {
        Request::Mis(o) => {
            let _ = write!(
                out,
                "{{\"kind\": \"mis\", \"strategy\": \"{}\", \"seed\": {}, \"threads\": {}, \
                 \"decomposition\": ",
                strategy_name(o.strategy),
                o.seed as i64,
                o.threads,
            );
            write_decomposition(out, &o.decomposition);
            out.push('}');
        }
        Request::Coloring(o) => {
            let _ = write!(
                out,
                "{{\"kind\": \"coloring\", \"strategy\": \"{}\", \"seed\": {}, \"threads\": {}, \
                 \"decomposition\": ",
                strategy_name(o.strategy),
                o.seed as i64,
                o.threads,
            );
            write_decomposition(out, &o.decomposition);
            out.push('}');
        }
        Request::Decompose(o) => {
            out.push_str("{\"kind\": \"decompose\", \"decomposition\": ");
            write_decomposition(out, o);
            out.push('}');
        }
        Request::Slocal(o) => {
            let _ = write!(
                out,
                "{{\"kind\": \"slocal\", \"task\": \"{}\", \"strategy\": \"{}\", \"threads\": {}}}",
                o.task.name(),
                strategy_name(o.strategy),
                o.threads,
            );
        }
        Request::Verify(_) => return Err(WireError::UnsupportedKind { kind: "verify" }),
        #[allow(unreachable_patterns)]
        _ => return Err(WireError::UnsupportedKind { kind: "unknown" }),
    }
    Ok(())
}

/// FNV-1a over a stream of `u64` words: the response fingerprint clients
/// use to check bit-identity without shipping full vectors.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn write_bool_array(out: &mut String, flags: &[bool]) {
    out.push('[');
    for (i, &b) in flags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if b { "true" } else { "false" });
    }
    out.push(']');
}

fn write_usize_array(out: &mut String, xs: &[usize]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

/// Encode one solver answer as a compact wire object, appended to `out`.
/// Solver failures are `{"ok": false, ...}` *answers* (HTTP 200) — the
/// request was understood. Allocation-free once `out`'s capacity has
/// warmed (summary replies are constant-size; full replies are bounded by
/// the graph's node count).
pub fn encode_response(out: &mut String, reply: ReplyMode, result: Result<&Response, &SolveError>) {
    let response = match result {
        Ok(r) => r,
        Err(e) => {
            let code = match e {
                SolveError::InvalidDecomposition(_) => "invalid_decomposition",
                SolveError::ConstructionFailed { .. } => "construction_failed",
                SolveError::UnsupportedStrategy { .. } => "unsupported_strategy",
                SolveError::InvalidEdits(_) => "invalid_edits",
                SolveError::Internal { .. } => "internal",
                #[allow(unreachable_patterns)]
                _ => "unknown",
            };
            let _ = write!(
                out,
                "{{\"ok\": false, \"code\": \"{code}\", \"error\": \"{e}\"}}"
            );
            return;
        }
    };
    match response {
        Response::Mis { in_mis, meter } => {
            let ones = in_mis.iter().filter(|&&b| b).count();
            let fp = fnv1a(in_mis.iter().map(|&b| u64::from(b)));
            let _ = write!(
                out,
                "{{\"ok\": true, \"kind\": \"mis\", \"size\": {}, \"ones\": {ones}, \
                 \"fingerprint\": {}, \"rounds\": {}",
                in_mis.len(),
                fp as i64,
                meter.rounds,
            );
            if reply == ReplyMode::Full {
                out.push_str(", \"in_mis\": ");
                write_bool_array(out, in_mis);
            }
            out.push('}');
        }
        Response::Coloring {
            colors,
            palette,
            meter,
        } => {
            let fp = fnv1a(colors.iter().map(|&c| c as u64));
            let _ = write!(
                out,
                "{{\"ok\": true, \"kind\": \"coloring\", \"size\": {}, \"palette\": {palette}, \
                 \"fingerprint\": {}, \"rounds\": {}",
                colors.len(),
                fp as i64,
                meter.rounds,
            );
            if reply == ReplyMode::Full {
                out.push_str(", \"colors\": ");
                write_usize_array(out, colors);
            }
            out.push('}');
        }
        Response::Decompose {
            quality,
            meter,
            provenance,
        } => {
            let _ = write!(
                out,
                "{{\"ok\": true, \"kind\": \"decompose\", \"colors\": {}, \
                 \"max_diameter\": {}, \"clusters\": {}, \"rounds\": {}, \
                 \"method\": \"{}\", \"degraded\": {}, \"estimated_ms\": {}}}",
                quality.colors,
                quality.max_diameter,
                quality.clusters,
                meter.rounds,
                method_name(provenance.method),
                provenance.degraded,
                provenance.estimated_ms,
            );
        }
        Response::Slocal { output, meter } => {
            let (len, fp, label) = match output {
                SlocalOutput::Flags(f) => {
                    (f.len(), fnv1a(f.iter().map(|&b| u64::from(b))), "flags")
                }
                SlocalOutput::Colors(c) => (c.len(), fnv1a(c.iter().map(|&x| x as u64)), "colors"),
                #[allow(unreachable_patterns)]
                _ => (0, 0, "unknown"),
            };
            let _ = write!(
                out,
                "{{\"ok\": true, \"kind\": \"slocal\", \"output\": \"{label}\", \
                 \"size\": {len}, \"fingerprint\": {}, \"rounds\": {}",
                fp as i64, meter.rounds,
            );
            if reply == ReplyMode::Full {
                match output {
                    SlocalOutput::Flags(f) => {
                        out.push_str(", \"flags\": ");
                        write_bool_array(out, f);
                    }
                    SlocalOutput::Colors(c) => {
                        out.push_str(", \"colors\": ");
                        write_usize_array(out, c);
                    }
                    #[allow(unreachable_patterns)]
                    _ => {}
                }
            }
            out.push('}');
        }
        Response::Verify(report) => {
            let _ = write!(
                out,
                "{{\"ok\": true, \"kind\": \"verify\", \"verified\": {}",
                report.ok
            );
            if let Some(detail) = &report.detail {
                // Escape via the debug-free writer path: verification
                // details are ASCII diagnostics, but quote them anyway.
                out.push_str(", \"detail\": ");
                let mut s = String::new();
                let _ = write!(s, "{detail}");
                push_json_string(out, &s);
            }
            out.push('}');
        }
        #[allow(unreachable_patterns)]
        _ => out.push_str(
            "{\"ok\": false, \"code\": \"internal\", \"error\": \"unencodable response\"}",
        ),
    }
}

/// Minimal string escaping for the one place a free-form diagnostic is
/// embedded (verification detail).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_json::Json;

    #[test]
    fn single_request_bodies_decode_with_defaults() {
        let body = decode_solve_body(br#"{"request": {"kind": "mis"}}"#).unwrap();
        assert_eq!(body.graph, 0);
        assert_eq!(body.reply, ReplyMode::Summary);
        assert_eq!(body.requests, RequestSet::One(Request::mis()));

        let body = decode_solve_body(
            br#"{"graph": 2, "reply": "full", "request": {"kind": "slocal", "task": "greedy-coloring"}}"#,
        )
        .unwrap();
        assert_eq!(body.graph, 2);
        assert_eq!(body.reply, ReplyMode::Full);
        assert_eq!(
            body.requests,
            RequestSet::One(Request::slocal(SlocalTask::GreedyColoring))
        );
    }

    #[test]
    fn batch_bodies_decode_in_order() {
        let body = decode_solve_body(
            br#"{"requests": [{"kind": "mis"}, {"kind": "coloring"}, {"kind": "decompose"}]}"#,
        )
        .unwrap();
        assert_eq!(
            body.requests.as_slice(),
            &[Request::mis(), Request::coloring(), Request::decompose()]
        );
    }

    #[test]
    fn encode_decode_is_the_identity_on_solver_requests() {
        let requests = [
            Request::mis(),
            Request::Mis(
                MisOptions::new()
                    .with_strategy(Strategy::Direct)
                    .with_seed(u64::MAX)
                    .with_threads(4),
            ),
            Request::Coloring(
                ColoringOptions::new().with_decomposition(
                    DecomposeOptions::new()
                        .with_method(DecompMethod::Mpx)
                        .with_seed(7)
                        .with_deadline_ms(25),
                ),
            ),
            Request::Decompose(
                DecomposeOptions::new()
                    .with_method(DecompMethod::Derandomized)
                    .with_cap(3)
                    .with_degrade(DegradePolicy::Strict),
            ),
            Request::slocal(SlocalTask::DistanceTwoColoring),
        ];
        let mut out = String::new();
        for r in &requests {
            out.clear();
            out.push_str("{\"request\": ");
            encode_request(&mut out, r).unwrap();
            out.push('}');
            let body = decode_solve_body(out.as_bytes()).unwrap();
            assert_eq!(body.requests, RequestSet::One(r.clone()), "wire: {out}");
        }
    }

    #[test]
    fn unknown_fields_are_skipped_unknown_names_are_typed_errors() {
        let body = decode_solve_body(
            br#"{"future_field": {"a": [1, 2]}, "request": {"kind": "mis", "later": 9}}"#,
        )
        .unwrap();
        assert_eq!(body.requests, RequestSet::One(Request::mis()));

        for (bytes, field) in [
            (&br#"{"request": {"kind": "sudoku"}}"#[..], "kind"),
            (
                &br#"{"request": {"kind": "mis", "strategy": "x"}}"#[..],
                "strategy",
            ),
            (
                &br#"{"request": {"kind": "slocal", "strategy": "reference"}}"#[..],
                "strategy",
            ),
            (
                &br#"{"reply": "half", "request": {"kind": "mis"}}"#[..],
                "reply",
            ),
            (
                &br#"{"request": {"kind": "decompose", "decomposition": {"method": "magic"}}}"#[..],
                "method",
            ),
        ] {
            match decode_solve_body(bytes) {
                Err(WireError::UnknownName { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected UnknownName for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_and_malformed_fields_are_typed_errors() {
        assert_eq!(
            decode_solve_body(br#"{"graph": 0}"#),
            Err(WireError::MissingField { field: "request" })
        );
        assert_eq!(
            decode_solve_body(br#"{"request": {"seed": 1}}"#),
            Err(WireError::MissingField { field: "kind" })
        );
        assert_eq!(
            decode_solve_body(br#"{"request": {"kind": "verify"}}"#),
            Err(WireError::UnsupportedKind { kind: "verify" })
        );
        assert!(matches!(
            decode_solve_body(br#"{"request": {"kind": "mis"}"#),
            Err(WireError::Syntax(_))
        ));
        assert!(matches!(
            decode_solve_body(br#"{"graph": -1, "request": {"kind": "mis"}}"#),
            Err(WireError::Syntax(JsonError::InvalidNumber { .. }))
        ));
        assert!(matches!(
            decode_solve_body(b"not json at all"),
            Err(WireError::Syntax(_))
        ));
    }

    #[test]
    fn seeds_round_trip_as_bit_patterns() {
        for seed in [0u64, 1, i64::MAX as u64 + 1, u64::MAX] {
            let r = Request::Mis(MisOptions::new().with_seed(seed));
            let mut out = String::from("{\"request\": ");
            encode_request(&mut out, &r).unwrap();
            out.push('}');
            let body = decode_solve_body(out.as_bytes()).unwrap();
            let RequestSet::One(Request::Mis(o)) = body.requests else {
                panic!();
            };
            assert_eq!(o.seed, seed);
        }
    }

    #[test]
    fn responses_encode_as_valid_json_with_fingerprints() {
        use locality_sim::cost::CostMeter;
        let mut out = String::new();
        let resp = Response::Mis {
            in_mis: vec![true, false, true],
            meter: CostMeter::rounds_only(5),
        };
        encode_response(&mut out, ReplyMode::Summary, Ok(&resp));
        let j = Json::parse(&out).unwrap();
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("size").and_then(Json::as_int), Some(3));
        assert_eq!(j.get("ones").and_then(Json::as_int), Some(2));
        assert_eq!(j.get("rounds").and_then(Json::as_int), Some(5));
        assert!(j.get("in_mis").is_none(), "summary omits vectors");

        out.clear();
        encode_response(&mut out, ReplyMode::Full, Ok(&resp));
        let j = Json::parse(&out).unwrap();
        let flags = j.get("in_mis").and_then(Json::as_array).unwrap();
        assert_eq!(flags.len(), 3);
        assert_eq!(flags[0].as_bool(), Some(true));

        out.clear();
        encode_response(
            &mut out,
            ReplyMode::Summary,
            Err(&SolveError::UnsupportedStrategy {
                problem: super::super::request::ProblemKind::Slocal,
                strategy: Strategy::Direct,
            }),
        );
        let j = Json::parse(&out).unwrap();
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            j.get("code").and_then(Json::as_str),
            Some("unsupported_strategy")
        );
    }

    #[test]
    fn identical_answers_share_a_fingerprint_distinct_answers_do_not() {
        use locality_sim::cost::CostMeter;
        let m = CostMeter::rounds_only(1);
        let mut a = String::new();
        let mut b = String::new();
        let mut c = String::new();
        encode_response(
            &mut a,
            ReplyMode::Summary,
            Ok(&Response::Mis {
                in_mis: vec![true, false],
                meter: m,
            }),
        );
        encode_response(
            &mut b,
            ReplyMode::Summary,
            Ok(&Response::Mis {
                in_mis: vec![true, false],
                meter: m,
            }),
        );
        encode_response(
            &mut c,
            ReplyMode::Summary,
            Ok(&Response::Mis {
                in_mis: vec![false, true],
                meter: m,
            }),
        );
        assert_eq!(a, b, "bit-identical answers encode bit-identically");
        assert_ne!(a, c);
    }
}
