//! `edit_stream`: a `Session` on `G(10⁴, 4/n)` holding two decompositions
//! (the default ball carving and derandomized cap 4) absorbs a stream of
//! single-edge toggle batches; each batch is followed by `mis()` and
//! `coloring()`. The only workload that runs `Graph::apply_edits`,
//! `repair_decomposition` and the consumer-plan migration. The graph is a
//! fixed instance; the seed draws the edit stream.

use super::{
    e2e, gnp, layer, probe_build, repeated_setup, secs, MeterSum, RunConfig, INSTANCE_SEED,
};
use crate::report::{Better, Outcome, Tally};
use crate::stats;
use crate::streams::{edit_pairs, sub_seed};
use crate::trace::Tracer;
use locality_core::coloring::verify_coloring;
use locality_core::decomposition::{
    derandomized_decomposition, repair_decomposition, RepairOptions, RepairPath,
};
use locality_core::mis::verify_mis;
use locality_core::serve::{DecompMethod, DecomposeOptions, Request, Response, Session};
use locality_graph::{EditBatch, Graph};
use std::time::Instant;

/// Nodes of the edited graph.
pub const EDIT_N: usize = 10_000;
/// Cap of the derandomized decomposition the session holds.
pub const EDIT_CAP: u32 = 4;
/// Batches an untraced run applies at least, so p99 has 10 samples beyond.
pub const MIN_BATCHES: usize = 1000;
/// Batches each traced phase applies at least.
const TRACED_BATCHES: usize = 200;
/// Node pairs drawn per run; toggles cycle through them.
const PAIRS: usize = 1 << 16;

fn det_options() -> DecomposeOptions {
    DecomposeOptions::new()
        .with_method(DecompMethod::Derandomized)
        .with_cap(EDIT_CAP)
}

struct State {
    /// The session as set-up left it (decompositions and answers cached).
    initial: Session,
    pairs: Vec<(u32, u32)>,
    gen_s: f64,
    setup_meters: MeterSum,
}

fn setup(seed: u64) -> Result<State, String> {
    let t = Instant::now();
    let g = gnp(EDIT_N, sub_seed(INSTANCE_SEED, 4));
    let gen_s = t.elapsed().as_secs_f64();
    let mut session = Session::new(g);
    let mut setup_meters = MeterSum::default();
    for r in [
        Request::decompose(),
        Request::Decompose(det_options()),
        Request::mis(),
        Request::coloring(),
    ] {
        setup_meters.add(session.solve(&r).map_err(|e| e.to_string())?);
    }
    Ok(State {
        initial: session,
        pairs: edit_pairs(seed, EDIT_N, PAIRS),
        gen_s,
        setup_meters,
    })
}

/// A single-edge toggle of `(u, v)` against `g`.
fn toggle(g: &Graph, (u, v): (u32, u32)) -> Result<EditBatch, String> {
    let (u, v) = (u as usize, v as usize);
    let mut batch = EditBatch::new();
    let r = if g.has_edge(u, v) {
        batch.remove_edge(u, v).map(|_| ())
    } else {
        batch.add_edge(u, v).map(|_| ())
    };
    r.map_err(|e| e.to_string())?;
    Ok(batch)
}

/// Timed batches and repair counters of one measuring phase.
#[derive(Default)]
struct Batches {
    ms: Vec<f64>,
    repaired: u64,
    rebuilt: u64,
    dirty_clusters: u64,
    region_nodes: u64,
    mis_rounds: Option<u64>,
}

/// Apply toggles from `pairs[*next..]` until `duration` seconds have passed
/// and at least `min` batches ran. Each batch is timed from
/// `apply_edits` until both follow-up answers are back, then checked.
#[allow(clippy::too_many_arguments)]
fn measure(
    session: &mut Session,
    pairs: &[(u32, u32)],
    next: &mut usize,
    duration: f64,
    min: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Batches {
    let mut b = Batches::default();
    let start = Instant::now();
    while b.ms.len() < min || start.elapsed() < secs(duration) {
        let pair = pairs[*next % pairs.len()];
        *next += 1;
        let batch = match toggle(session.graph(), pair) {
            Ok(batch) => batch,
            Err(e) => {
                tally.check(false, || format!("edit batch: {e}"));
                continue;
            }
        };
        let k = b.ms.len() as u64;
        let t = Instant::now();
        let top = tracer.begin("batch", k);
        let id = tracer.begin("session.apply_edits", k);
        let repaired = session.apply_edits(batch);
        tracer.end(id);
        let id = tracer.begin("session.solve.mis", k);
        let mis = session.solve(&Request::mis()).cloned();
        tracer.end(id);
        let id = tracer.begin("session.solve.coloring", k);
        let coloring = session.solve(&Request::coloring()).cloned();
        tracer.end(id);
        tracer.end(top);
        b.ms.push(t.elapsed().as_secs_f64() * 1e3);

        // Re-verify the repaired session outside the timed span.
        let graph = session.graph().clone();
        let mut validated = Ok(());
        for opts in [DecomposeOptions::new(), det_options()] {
            if validated.is_ok() {
                validated = session
                    .decomposition(&opts)
                    .map_err(|e| e.to_string())
                    .and_then(|d| d.validate(&graph).map(|_| ()).map_err(|e| e.to_string()));
            }
        }
        match &repaired {
            Ok(st) => {
                b.repaired += st.decomps_repaired;
                b.rebuilt += st.decomps_rebuilt;
                b.dirty_clusters += st.dirty_clusters;
                b.region_nodes += st.region_nodes;
            }
            Err(e) => validated = Err(e.to_string()),
        }
        tally.check(validated.is_ok(), || {
            format!("batch {k}: repair: {validated:?}")
        });
        let mis_ok = match &mis {
            Ok(Response::Mis { in_mis, meter }) => {
                b.mis_rounds.get_or_insert(meter.rounds);
                verify_mis(&graph, in_mis).is_ok()
            }
            _ => false,
        };
        tally.check(mis_ok, || format!("batch {k}: MIS failed verification"));
        let coloring_ok = match &coloring {
            Ok(Response::Coloring {
                colors, palette, ..
            }) => verify_coloring(&graph, colors, *palette).is_ok(),
            _ => false,
        };
        tally.check(coloring_ok, || {
            format!("batch {k}: colouring failed verification")
        });
    }
    b
}

/// Run the workload.
///
/// # Errors
/// Set-up failures, or too few batches for the reported percentiles.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut gens = Vec::new();
    let (state, setup_s) = repeated_setup(|| {
        let s = setup(cfg.seed)?;
        gens.push(s.gen_s);
        Ok(s)
    })?;
    let mut out = Outcome::default();
    let mut session = state.initial.clone();
    let mut next = 0usize;
    let (share, min) = if cfg.trace {
        (0.3, TRACED_BATCHES)
    } else {
        (1.0, MIN_BATCHES)
    };
    let mut off = Tracer::new(false);
    let u = measure(
        &mut session,
        &state.pairs,
        &mut next,
        cfg.seconds * share,
        min,
        &mut off,
        &mut out.tally,
    );
    let mut ms = u.ms.clone();
    stats::sort(&mut ms);
    let p50 = stats::percentile(&ms, 0.5).ok_or("too few batches for p50")?;
    let batches = ms.len() as f64;
    let incremental = u.repaired as f64 / (u.repaired + u.rebuilt).max(1) as f64;
    let d = &mut out.detail;
    d.put(
        "repair.incremental_frac",
        incremental,
        "ratio",
        Better::Higher,
        format!(
            "{} incremental of {} decomposition repairs",
            u.repaired,
            u.repaired + u.rebuilt
        ),
    );
    d.put(
        "repair.region_nodes",
        u.region_nodes as f64 / batches,
        "count",
        Better::Lower,
        "mean per batch, both decompositions",
    );
    d.put(
        "repair.dirty_clusters",
        u.dirty_clusters as f64 / batches,
        "count",
        Better::Lower,
        "mean per batch, both decompositions",
    );
    let taken = |p: &stats::Percentile| {
        format!(
            "{} of {} batches ({} beyond)",
            p.label(),
            p.samples,
            p.beyond
        )
    };
    if !cfg.trace {
        let p99 = stats::tail(&ms).ok_or("too few batches for a tail percentile")?;
        // The result line's tail is p90: a neighbour's CPU burst lands on
        // 1–2 % of a run's batches and moved p99 by up to 2.7× between
        // runs, p90 far less. p99 is still printed and recorded.
        let p90 = stats::percentile(&ms, 0.9).ok_or("too few batches for p90")?;
        let h = &mut out.headline;
        e2e(h, "setup_s", setup_s, "median of 3 set-ups");
        e2e(h, "peak_rss_mb", crate::sys::peak_rss_mb(), "VmHWM");
        e2e(
            h,
            "ops_per_s",
            batches / (ms.iter().sum::<f64>() / 1e3),
            format!("{batches} batches"),
        );
        e2e(h, "p50_ms", p50.value, taken(&p50));
        e2e(h, "tail_ms", p90.value, taken(&p90));
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
        d.put("edit_p50_ms", p50.value, "ms", Better::Lower, taken(&p50));
        d.put("edit_p90_ms", p90.value, "ms", Better::Lower, taken(&p90));
        d.put("edit_p99_ms", p99.value, "ms", Better::Lower, taken(&p99));
        d.put(
            "error_frac",
            out.tally.error_frac(),
            "ratio",
            Better::Lower,
            "",
        );
        return Ok(out);
    }

    let mut tracer = Tracer::new(true);
    let t = measure(
        &mut session,
        &state.pairs,
        &mut next,
        cfg.seconds * share,
        min,
        &mut tracer,
        &mut out.tally,
    );
    let traced_p50 = stats::median(&t.ms);
    let span_ms = |tr: &Tracer, name: &str| stats::median(&tr.durations(name)) / 1e6;
    let h = &mut out.headline;
    layer(
        h,
        "graph.gen_s",
        stats::median(&gens),
        "median of 3 set-ups",
    );
    layer(
        h,
        "mis.consume_ms",
        span_ms(&tracer, "session.solve.mis"),
        "after each repair, decomposition cached",
    );
    layer(
        h,
        "coloring.consume_ms",
        span_ms(&tracer, "session.solve.coloring"),
        "after each repair, decomposition cached",
    );
    layer(
        h,
        "mis.rounds",
        t.mis_rounds.unwrap_or(0) as f64,
        "first traced batch",
    );
    layer(
        h,
        "trace.overhead_ms",
        traced_p50 - p50.value,
        "traced minus untraced median batch",
    );
    let parts = [
        (
            "session.apply_edits",
            span_ms(&tracer, "session.apply_edits"),
        ),
        ("session.solve.mis", span_ms(&tracer, "session.solve.mis")),
        (
            "session.solve.coloring",
            span_ms(&tracer, "session.solve.coloring"),
        ),
    ];
    let (share_attr, line) = super::stage_budget("edit_stream (batch)", p50.value, &parts, "ms");
    layer(
        h,
        "trace.attributed_frac",
        share_attr,
        "layer spans / untraced median batch",
    );
    out.notes.push(line);

    // Layer probes on a fixed prefix of the stream, from the set-up state:
    // the free `Graph::apply_edits` and `repair_decomposition` on the
    // derandomized decomposition, and the session counters.
    let mut probe_session = state.initial.clone();
    let mut g = probe_session.graph().clone();
    let mut det = probe_session
        .decomposition(&det_options())
        .map_err(|e| e.to_string())?
        .clone();
    let repair_opts = RepairOptions::new().with_cap(EDIT_CAP);
    let mut meters = state.setup_meters;
    let (mut incremental, mut region, mut dirty) = (0usize, 0usize, 0usize);
    let hits_before = probe_session.stats();
    for (k, &pair) in state.pairs.iter().take(TRACED_BATCHES).enumerate() {
        let batch = toggle(&g, pair)?;
        let id = tracer.begin("graph.apply_edits", k as u64);
        let g2 = g.apply_edits(&batch).map_err(|e| e.to_string())?;
        tracer.end(id);
        let id = tracer.begin("repair", k as u64);
        let rep =
            repair_decomposition(&g2, &det, &batch, &repair_opts).map_err(|e| e.to_string())?;
        tracer.end(id);
        incremental += usize::from(rep.path == RepairPath::Incremental);
        region += rep.region_nodes;
        dirty += rep.dirty_clusters;
        det = rep.decomposition;
        g = g2;
        probe_session
            .apply_edits(batch)
            .map_err(|e| e.to_string())?;
        for r in [Request::mis(), Request::coloring()] {
            meters.add(probe_session.solve(&r).map_err(|e| e.to_string())?);
        }
    }
    tally_probe(&mut out.tally, &det, &g);
    let st = probe_session.stats();
    layer(
        h,
        "session.hit_ratio",
        (st.response_hits - hits_before.response_hits) as f64
            / (st.requests - hits_before.requests).max(1) as f64,
        "every batch invalidates the graph-dependent answers",
    );
    layer(
        h,
        "session.solver_runs",
        st.solver_runs as f64,
        format!("set-up plus the first {TRACED_BATCHES} batches"),
    );
    layer(
        h,
        "session.decompositions_built",
        st.decompositions_built as f64,
        format!("set-up plus the first {TRACED_BATCHES} batches"),
    );
    meters.put(
        h,
        &format!("set-up answers plus the first {TRACED_BATCHES} batches"),
    );
    let mut hit_ns = Vec::new();
    for k in 0..1000u64 {
        let id = tracer.begin("session.hit", k);
        let t0 = Instant::now();
        let ok = probe_session.solve(&Request::mis()).is_ok();
        hit_ns.push(t0.elapsed().as_nanos() as f64);
        tracer.end(id);
        if !ok {
            out.tally
                .check(false, || "cache hit returned an error".to_string());
        }
    }
    layer(
        h,
        "session.hit_ns",
        stats::median(&hit_ns),
        "warm Mis on the edited session",
    );
    let base = state.initial.graph().clone();
    let probe = probe_build(&base, &mut tracer, "decomp.build.det", 1.0, |g| {
        Some(derandomized_decomposition(g, EDIT_CAP).decomposition)
    })?;
    probe.put(h, "derandomized cap 4 on G(1e4, 4/n)");

    let d = &mut out.detail;
    d.put(
        "graph.apply_edits_ms",
        span_ms(&tracer, "graph.apply_edits"),
        "ms",
        Better::Lower,
        "free function, median",
    );
    d.put(
        "graph.gen_s",
        stats::median(&gens),
        "s",
        Better::Lower,
        "median of 3 set-ups",
    );
    d.put(
        "repair.ms",
        span_ms(&tracer, "repair"),
        "ms",
        Better::Lower,
        "free function on the cap-4 decomposition, median",
    );
    d.put(
        "repair.free_incremental_frac",
        incremental as f64 / TRACED_BATCHES as f64,
        "ratio",
        Better::Higher,
        "free function on the cap-4 decomposition",
    );
    d.put(
        "repair.free_region_nodes",
        region as f64 / TRACED_BATCHES as f64,
        "count",
        Better::Lower,
        "mean, cap-4 decomposition",
    );
    d.put(
        "repair.free_dirty_clusters",
        dirty as f64 / TRACED_BATCHES as f64,
        "count",
        Better::Lower,
        "mean, cap-4 decomposition",
    );
    d.put(
        "trace.overhead_ms",
        traced_p50 - p50.value,
        "ms",
        Better::Lower,
        "median batch",
    );
    out.spans = Some(tracer);
    Ok(out)
}

/// The free-function repair chain must end in a valid decomposition.
fn tally_probe(tally: &mut Tally, det: &locality_core::decomposition::Decomposition, g: &Graph) {
    let v = det.validate(g);
    tally.check(v.is_ok(), || format!("repair chain: {v:?}"));
}
