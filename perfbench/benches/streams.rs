//! Seeded inputs: the HTTP request pool, request streams, cold requests and
//! edit streams. Everything here is a pure function of the workload seed,
//! so the same seed replays byte-identical traffic.

use locality_rand::prng::{Prng, SplitMix64};

/// An independent sub-seed of `seed` for the input named by `tag`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut p = SplitMix64::new(seed ^ tag.rotate_left(32));
    p.next_u64() ^ tag
}

/// How a pool entry is sent and answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One request, summary reply.
    Summary,
    /// One request, `reply: "full"` (per-node vectors).
    Full,
    /// A batch body.
    Batch,
    /// `GET /healthz`.
    Healthz,
}

/// One distinct request of the warm pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolEntry {
    /// Target session (`None` for `/healthz`).
    pub graph: Option<usize>,
    /// How it is sent.
    pub class: Class,
    /// The exact request bytes.
    pub bytes: Vec<u8>,
}

/// Graphs the HTTP workloads serve: `G(2000, 4/n)` (connected) and a
/// 64×64 grid.
pub const SERVED_GRAPHS: usize = 2;

/// The fixed pool of distinct warm requests: default and direct MIS and
/// colouring, decompose summaries and the three SLOCAL tasks on each graph,
/// full-reply and batch variants, and `/healthz`.
pub fn warm_pool() -> Vec<PoolEntry> {
    const SUMMARY: &[&str] = &[
        r#"{"kind": "mis"}"#,
        r#"{"kind": "mis", "strategy": "direct", "seed": 1}"#,
        r#"{"kind": "mis", "strategy": "direct", "seed": 2}"#,
        r#"{"kind": "coloring"}"#,
        r#"{"kind": "coloring", "strategy": "direct", "seed": 1}"#,
        r#"{"kind": "decompose"}"#,
        r#"{"kind": "decompose", "decomposition": {"method": "mpx", "seed": 7}}"#,
        r#"{"kind": "decompose", "decomposition": {"method": "derandomized", "cap": 3}}"#,
        r#"{"kind": "slocal", "task": "greedy-mis"}"#,
        r#"{"kind": "slocal", "task": "greedy-coloring"}"#,
        r#"{"kind": "slocal", "task": "distance-2-coloring"}"#,
    ];
    const FULL: &[&str] = &[
        r#"{"kind": "mis"}"#,
        r#"{"kind": "coloring"}"#,
        r#"{"kind": "mis", "strategy": "direct", "seed": 1}"#,
    ];
    const BATCH: &[&str] = &[
        r#"[{"kind": "mis"}, {"kind": "coloring"}]"#,
        r#"[{"kind": "decompose"}, {"kind": "slocal", "task": "greedy-mis"}, {"kind": "mis", "strategy": "direct", "seed": 1}]"#,
    ];
    let mut pool = Vec::new();
    for g in 0..SERVED_GRAPHS {
        for r in SUMMARY {
            let body = format!(r#"{{"graph": {g}, "request": {r}}}"#);
            pool.push(entry(g, Class::Summary, &body));
        }
        for r in FULL {
            let body = format!(r#"{{"graph": {g}, "reply": "full", "request": {r}}}"#);
            pool.push(entry(g, Class::Full, &body));
        }
        for r in BATCH {
            let body = format!(r#"{{"graph": {g}, "requests": {r}}}"#);
            pool.push(entry(g, Class::Batch, &body));
        }
    }
    pool.push(PoolEntry {
        graph: None,
        class: Class::Healthz,
        bytes: crate::client::get("/healthz"),
    });
    pool
}

fn entry(graph: usize, class: Class, body: &str) -> PoolEntry {
    PoolEntry {
        graph: Some(graph),
        class,
        bytes: crate::client::post_solve(body),
    }
}

/// Request class for one 5-bit draw: 1/32 `/healthz`, 1/8 full replies,
/// 1/8 batches, the rest summaries.
fn class_of(draw: u64) -> Class {
    match draw % 32 {
        0 => Class::Healthz,
        1..=4 => Class::Full,
        5..=8 => Class::Batch,
        _ => Class::Summary,
    }
}

/// `count` pool indices drawn for one client connection.
pub fn request_stream(pool: &[PoolEntry], seed: u64, count: usize) -> Vec<u32> {
    let by_class = |c: Class| -> Vec<u32> {
        (0..pool.len() as u32)
            .filter(|&i| pool[i as usize].class == c)
            .collect()
    };
    let classes = [
        by_class(Class::Summary),
        by_class(Class::Full),
        by_class(Class::Batch),
        by_class(Class::Healthz),
    ];
    let mut p = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let members = &classes[match class_of(p.next_u64()) {
                Class::Summary => 0,
                Class::Full => 1,
                Class::Batch => 2,
                Class::Healthz => 3,
            }];
            members[p.uniform_below(members.len() as u64) as usize]
        })
        .collect()
}

/// The cold requests of `mixed_http`, all to graph 0, each with a fresh
/// seed so every one builds a new MPX decomposition: `decompose` and `mis`
/// alternately.
pub fn cold_requests(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut p = SplitMix64::new(sub_seed(seed, 0xC01D));
    (0..count)
        .map(|i| {
            let kind = if i % 2 == 0 { "decompose" } else { "mis" };
            // 52-bit seeds read the same as i64 or u64 on the wire.
            let s = p.next_u64() >> 12;
            let body = format!(
                r#"{{"graph": 0, "request": {{"kind": "{kind}", "decomposition": {{"method": "mpx", "seed": {s}}}}}}}"#
            );
            crate::client::post_solve(&body)
        })
        .collect()
}

/// `count` node pairs `(u, v)`, `u != v`, for single-edge toggles on an
/// `n`-node graph (each toggle adds the edge if absent, removes it if
/// present).
pub fn edit_pairs(seed: u64, n: usize, count: usize) -> Vec<(u32, u32)> {
    let mut p = SplitMix64::new(sub_seed(seed, 0xED17));
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let u = p.uniform_below(n as u64) as u32;
        let v = p.uniform_below(n as u64) as u32;
        if u != v {
            out.push((u, v));
        }
    }
    out
}
