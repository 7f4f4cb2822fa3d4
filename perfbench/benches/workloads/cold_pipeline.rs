//! `cold_pipeline`: a fresh `Session` per instance answers `Decompose`,
//! `Mis` and `Coloring` for three producers — the derandomized engine at
//! cap 5 on `G(10⁵, 4/n)`, seeded MPX on `G(8192, 4/n)` and Elkin–Neiman
//! on `G(16384, 4/n)`. Producers and consumers do nearly all the work.
//!
//! MPX runs on the smaller graph because a served MPX decomposition of
//! `G(10⁵, 4/n)` takes minutes: the consumer plan computes the exact
//! induced diameter of every cluster, which is quadratic in cluster size,
//! and MPX clusters are large.
//!
//! The instances are fixed ([`super::INSTANCE_SEED`]); the workload seed
//! does not change them. Across generated instances the Elkin–Neiman
//! pipeline alone took from 2.3 s to 10.2 s.

use super::{
    e2e, gnp, layer, probe_build, repeated_setup, MeterSum, RunConfig, INSTANCE_SEED, MPX_BETA,
};
use crate::report::{Better, Outcome, Tally};
use crate::stats;
use crate::streams::sub_seed;
use crate::trace::Tracer;
use locality_core::coloring::verify_coloring;
use locality_core::decomposition::mpx::mpx_partition;
use locality_core::decomposition::{
    derandomized_decomposition, elkin_neiman, DecompQuality, Decomposition, ElkinNeimanConfig,
};
use locality_core::mis::verify_mis;
use locality_core::serve::{
    ColoringOptions, DecompMethod, DecomposeOptions, MisOptions, Request, Response, Session,
};
use locality_graph::Graph;
use locality_rand::source::PrngSource;
use std::time::Instant;

/// Nodes of the derandomized instance.
pub const DET_N: usize = 100_000;
/// Nodes of the MPX instance.
pub const MPX_N: usize = 8192;
/// Fixed cap of the derandomized producer.
pub const DET_CAP: u32 = 5;
/// Nodes of the Elkin–Neiman instance.
pub const EN_N: usize = 16_384;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Producer {
    Det,
    Mpx,
    En,
}

const PRODUCERS: [Producer; 3] = [Producer::Det, Producer::Mpx, Producer::En];

impl Producer {
    fn name(self) -> &'static str {
        match self {
            Producer::Det => "det",
            Producer::Mpx => "mpx",
            Producer::En => "en",
        }
    }

    fn options(self) -> DecomposeOptions {
        match self {
            Producer::Det => DecomposeOptions::new()
                .with_method(DecompMethod::Derandomized)
                .with_cap(DET_CAP),
            Producer::Mpx => DecomposeOptions::new()
                .with_method(DecompMethod::Mpx)
                .with_seed(sub_seed(INSTANCE_SEED, 0x3B5)),
            Producer::En => DecomposeOptions::new()
                .with_method(DecompMethod::ElkinNeiman)
                .with_seed(sub_seed(INSTANCE_SEED, 0xE4)),
        }
    }
}

/// The three answers of one pipeline.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    quality: DecompQuality,
    in_mis: Vec<bool>,
    colors: Vec<usize>,
    palette: usize,
    meters: MeterSum,
    mis_rounds: u64,
}

/// One graph per producer, indexed like [`PRODUCERS`].
struct Instances {
    graphs: [Graph; 3],
    gen_s: f64,
}

fn setup() -> Result<Instances, String> {
    let t = Instant::now();
    let graphs = [
        gnp(DET_N, sub_seed(INSTANCE_SEED, 1)),
        gnp(MPX_N, sub_seed(INSTANCE_SEED, 5)),
        gnp(EN_N, sub_seed(INSTANCE_SEED, 2)),
    ];
    Ok(Instances {
        graphs,
        gen_s: t.elapsed().as_secs_f64(),
    })
}

/// Fresh session on `g`, then Decompose → Mis → Coloring over `opts`.
/// Returns the timed seconds, the answers and the session.
fn pipeline(
    g: Graph,
    opts: DecomposeOptions,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(f64, Answers, Session), String> {
    let mis = Request::Mis(MisOptions::new().with_decomposition(opts));
    let coloring = Request::Coloring(ColoringOptions::new().with_decomposition(opts));
    let t = Instant::now();
    let top = tracer.begin("pipeline", request);
    let id = tracer.begin("session.new", request);
    let mut session = Session::new(g);
    tracer.end(id);
    let id = tracer.begin("session.solve.decompose", request);
    let decomposed = session.solve(&Request::Decompose(opts)).cloned();
    tracer.end(id);
    let id = tracer.begin("session.solve.mis", request);
    let mis_answer = session.solve(&mis).cloned();
    tracer.end(id);
    let id = tracer.begin("session.solve.coloring", request);
    let coloring_answer = session.solve(&coloring).cloned();
    tracer.end(id);
    tracer.end(top);
    let elapsed = t.elapsed().as_secs_f64();

    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let decomposed = decomposed.map_err(|e| err("decompose", &e))?;
    let mis_answer = mis_answer.map_err(|e| err("mis", &e))?;
    let coloring_answer = coloring_answer.map_err(|e| err("coloring", &e))?;
    let mut meters = MeterSum::default();
    for r in [&decomposed, &mis_answer, &coloring_answer] {
        meters.add(r);
    }
    let (
        Response::Decompose { quality, .. },
        Response::Mis { in_mis, meter },
        Response::Coloring {
            colors, palette, ..
        },
    ) = (decomposed, mis_answer, coloring_answer)
    else {
        return Err("answer of the wrong kind".to_string());
    };
    Ok((
        elapsed,
        Answers {
            quality,
            in_mis,
            colors,
            palette,
            meters,
            mis_rounds: meter.rounds,
        },
        session,
    ))
}

/// Check a later pipeline's answers against the first pipeline of the same
/// producer (same graph, same seed): they must be equal.
fn check_repeat(tally: &mut Tally, ans: &Answers, first: &Answers, label: &str) {
    tally.check(first.quality == ans.quality, || {
        format!("{label}: decomposition changed between pipelines")
    });
    tally.check(first.in_mis == ans.in_mis, || {
        format!("{label}: MIS changed between pipelines")
    });
    tally.check(first.colors == ans.colors, || {
        format!("{label}: colouring changed between pipelines")
    });
}

/// Check the first pipeline of each producer once the phase's timed rounds
/// are over: `validate` on its decomposition, `verify_mis` and
/// `verify_coloring` on its answers.
fn check_first(tally: &mut Tally, inst: &Instances, phase: &Phase) {
    for (i, d) in &phase.decompositions {
        let (g, label) = (&inst.graphs[*i], PRODUCERS[*i].name());
        let Some(ans) = &phase.first[*i] else {
            continue;
        };
        let validated = d.validate(g);
        tally.check(validated.as_ref().is_ok_and(|q| *q == ans.quality), || {
            format!(
                "{label}: decomposition {validated:?} vs answer {:?}",
                ans.quality
            )
        });
        tally.check(verify_mis(g, &ans.in_mis).is_ok(), || {
            format!("{label}: MIS failed verification")
        });
        tally.check(verify_coloring(g, &ans.colors, ans.palette).is_ok(), || {
            format!("{label}: colouring failed verification")
        });
    }
}

/// Per-producer samples of a measuring phase, with the first answers (and
/// their decompositions, validated after the timed rounds) and the first
/// round's session counters.
#[derive(Default)]
struct Phase {
    seconds: [Vec<f64>; 3],
    /// Seconds of each whole round (the three pipelines).
    rounds: Vec<f64>,
    first: [Option<Answers>; 3],
    /// The first pipelines' decompositions, by producer index.
    decompositions: Vec<(usize, Decomposition)>,
    solver_runs: u64,
    decompositions_built: u64,
    hit_ratio: f64,
    meters: MeterSum,
    /// Warm `Session::solve` times (ns) on a derandomized session, taken
    /// only by a traced phase.
    hit_ns: Vec<f64>,
}

/// Warm solves probed on the derandomized session of a traced phase.
const HIT_PROBES: u64 = 1000;

/// Run pipeline rounds (all three producers) while the next round is
/// expected to end within `duration` seconds (judged by the mean timed
/// round so far), at least `min_rounds`; then check the first answers.
fn measure(
    inst: &Instances,
    duration: f64,
    min_rounds: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    phase: &mut Phase,
) {
    let start = Instant::now();
    let mut round = 0u64;
    let mut busy = 0.0;
    while round < min_rounds.max(1)
        || start.elapsed().as_secs_f64() + busy / round as f64 <= duration
    {
        let mut round_s = 0.0;
        for (i, p) in PRODUCERS.into_iter().enumerate() {
            let opts = p.options();
            let (t, ans, mut session) =
                match pipeline(inst.graphs[i].clone(), opts, tracer, round * 3 + i as u64) {
                    Ok(r) => r,
                    Err(e) => {
                        tally.check(false, || format!("{}: {e}", p.name()));
                        continue;
                    }
                };
            match &phase.first[i] {
                Some(first) => check_repeat(tally, &ans, first, p.name()),
                None => match session.decomposition(&opts) {
                    Ok(d) => phase.decompositions.push((i, d.clone())),
                    Err(e) => tally.check(false, || format!("{}: {e}", p.name())),
                },
            }
            phase.seconds[i].push(t);
            round_s += t;
            if round == 0 {
                let st = session.stats();
                phase.solver_runs += st.solver_runs;
                phase.decompositions_built += st.decompositions_built;
                phase.hit_ratio += st.response_hits as f64 / st.requests.max(1) as f64 / 3.0;
                let m = &ans.meters;
                phase.meters.random_bits += m.random_bits;
                phase.meters.rounds += m.rounds;
                phase.meters.messages += m.messages;
            }
            if tracer.enabled() && p == Producer::Det && phase.hit_ns.is_empty() {
                let mis = Request::Mis(MisOptions::new().with_decomposition(opts));
                for k in 0..HIT_PROBES {
                    let id = tracer.begin("session.hit", k);
                    let t = Instant::now();
                    let ok = session.solve(&mis).is_ok();
                    phase.hit_ns.push(t.elapsed().as_nanos() as f64);
                    tracer.end(id);
                    tally.check(ok, || "cache hit returned an error".to_string());
                }
            }
            if phase.first[i].is_none() {
                phase.first[i] = Some(ans);
            }
        }
        phase.rounds.push(round_s);
        busy += round_s;
        round += 1;
    }
    check_first(tally, inst, phase);
}

/// Run the workload.
///
/// # Errors
/// Set-up failures, or a free producer function that fails.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut gen_times = Vec::new();
    let (inst, setup_s) = repeated_setup(|| {
        let inst = setup()?;
        gen_times.push(inst.gen_s);
        Ok(inst)
    })?;
    let mut out = Outcome::default();
    let mut untraced = Phase::default();
    let share = if cfg.trace { 0.3 } else { 1.0 };
    let mut off = Tracer::new(false);
    // Two rounds at least, so the round median and the slowest round are
    // not one sample.
    let min_rounds = if cfg.trace { 1 } else { 2 };
    measure(
        &inst,
        cfg.seconds * share,
        min_rounds,
        &mut off,
        &mut out.tally,
        &mut untraced,
    );

    let med = |v: &[f64]| stats::median(v);
    let [det, mpx, en] = &untraced.seconds;
    let d = &mut out.detail;
    for (name, v) in [("det_s", det), ("mpx_s", mpx), ("en_s", en)] {
        d.put(
            name,
            med(v),
            "s",
            Better::Lower,
            format!("median of {} pipelines", v.len()),
        );
    }
    let clustered = untraced.first[0]
        .as_ref()
        .map_or(0.0, |a| 1.0 - a.quality.clusters as f64 / DET_N as f64);
    d.put(
        "clustered_frac",
        clustered,
        "ratio",
        Better::Higher,
        "1 - clusters/n, derandomized cap 5",
    );
    if clustered <= 0.0 {
        out.guard_failures.push(format!(
            "regime guard: the derandomized decomposition at cap {DET_CAP} is all singletons"
        ));
    }
    let pipelines: usize = untraced.seconds.iter().map(Vec::len).sum();
    let busy: f64 = untraced.seconds.iter().flatten().sum();

    if !cfg.trace {
        let h = &mut out.headline;
        e2e(h, "setup_s", setup_s, "median of 3 set-ups");
        e2e(h, "peak_rss_mb", crate::sys::peak_rss_mb(), "VmHWM");
        e2e(
            h,
            "ops_per_s",
            pipelines as f64 / busy,
            format!("{pipelines} producer pipelines"),
        );
        let rounds = &untraced.rounds;
        let slowest = rounds.iter().copied().fold(f64::NAN, f64::max);
        e2e(
            h,
            "p50_ms",
            1e3 * med(rounds),
            format!("cold round (det + mpx + en), median of {}", rounds.len()),
        );
        e2e(
            h,
            "tail_ms",
            1e3 * slowest,
            format!(
                "slowest of {} cold rounds; too few for a percentile",
                rounds.len()
            ),
        );
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
        d.put(
            "error_frac",
            out.tally.error_frac(),
            "ratio",
            Better::Lower,
            "",
        );
        return Ok(out);
    }

    // Traced phase: the same rounds with spans around every layer call,
    // checked against the untraced phase's validated answers.
    let mut tracer = Tracer::new(true);
    let mut traced = Phase {
        first: untraced.first.clone(),
        ..Phase::default()
    };
    measure(&inst, 0.0, 1, &mut tracer, &mut out.tally, &mut traced);
    let det_traced = med(&traced.seconds[0]);
    let det_untraced = med(det);

    // Layer probes: the free producer functions, each timed and validated.
    let det_probe = probe_build(&inst.graphs[0], &mut tracer, "decomp.build.det", 0.0, |g| {
        Some(derandomized_decomposition(g, DET_CAP).decomposition)
    })?;
    let mpx_seed = Producer::Mpx.options().seed;
    let mpx_probe = probe_build(&inst.graphs[1], &mut tracer, "decomp.build.mpx", 0.5, |g| {
        Some(mpx_partition(g, MPX_BETA, &mut PrngSource::seeded(mpx_seed)).decomposition)
    })?;
    let en_seed = Producer::En.options().seed;
    let en_probe = probe_build(&inst.graphs[2], &mut tracer, "decomp.build.en", 0.0, |g| {
        elkin_neiman(
            g,
            &ElkinNeimanConfig::for_graph(g),
            &mut PrngSource::seeded(en_seed),
        )
        .decomposition
    })?;

    let h = &mut out.headline;
    layer(
        h,
        "graph.gen_s",
        med(&gen_times),
        "all three instances, median of 3 set-ups",
    );
    det_probe.put(h, "derandomized cap 5 on G(1e5, 4/n)");
    // Consumers, timed after the decomposition is cached: the Mis and
    // Coloring spans of the traced derandomized pipeline.
    layer(
        h,
        "mis.consume_ms",
        med(&det_span_ms(&tracer, "session.solve.mis")),
        "derandomized pipeline",
    );
    layer(
        h,
        "coloring.consume_ms",
        med(&det_span_ms(&tracer, "session.solve.coloring")),
        "derandomized pipeline",
    );
    let det_first = traced.first[0]
        .clone()
        .ok_or("no derandomized pipeline answered")?;
    layer(
        h,
        "mis.rounds",
        det_first.mis_rounds as f64,
        "derandomized pipeline",
    );
    layer(
        h,
        "session.hit_ns",
        med(&traced.hit_ns),
        "warm Mis on the derandomized session, 3 cached answers",
    );
    layer(
        h,
        "session.hit_ratio",
        traced.hit_ratio,
        "cold pipelines: every request misses the cache",
    );
    layer(
        h,
        "session.solver_runs",
        traced.solver_runs as f64,
        "one round: three fresh sessions",
    );
    layer(
        h,
        "session.decompositions_built",
        traced.decompositions_built as f64,
        "one round: three fresh sessions",
    );
    traced.meters.put(h, "the nine answers of one round");
    layer(
        h,
        "trace.overhead_ms",
        1e3 * (det_traced - det_untraced),
        "traced minus untraced median derandomized pipeline",
    );
    let child_s = |name: &str| med(&det_span_ms(&tracer, name)) / 1e3;
    let parts = [
        ("session.new", child_s("session.new")),
        (
            "session.solve.decompose",
            child_s("session.solve.decompose"),
        ),
        ("session.solve.mis", child_s("session.solve.mis")),
        ("session.solve.coloring", child_s("session.solve.coloring")),
    ];
    let (attributed, line) =
        super::stage_budget("cold_pipeline (det pipeline)", det_untraced, &parts, "s");
    layer(
        h,
        "trace.attributed_frac",
        attributed,
        "layer spans / untraced det pipeline median",
    );
    out.notes.push(line);

    let d = &mut out.detail;
    for (name, probe) in [
        ("decomp.det_build_s", &det_probe),
        ("decomp.mpx_build_s", &mpx_probe),
        ("decomp.en_build_s", &en_probe),
    ] {
        d.put(
            name,
            probe.build_s,
            "s",
            Better::Lower,
            format!("free function, median of {} builds", probe.builds),
        );
    }
    d.put(
        "decomp.validate_s",
        det_probe.validate_s,
        "s",
        Better::Lower,
        "derandomized decomposition",
    );
    d.put(
        "decomp.cpu_util",
        det_probe.cpu_util,
        "ratio",
        Better::Higher,
        "derandomized build",
    );
    let en_rounds = traced.first[2]
        .as_ref()
        .map_or(f64::NAN, |a| a.meters.rounds as f64);
    d.put(
        "sim.rounds.en",
        en_rounds,
        "count",
        Better::Lower,
        "Elkin-Neiman pipeline",
    );
    d.put(
        "trace.overhead_ms",
        1e3 * (det_traced - det_untraced),
        "ms",
        Better::Lower,
        "det pipeline",
    );
    out.spans = Some(tracer);
    Ok(out)
}

/// Durations (ms) of the spans named `name` in derandomized pipelines.
fn det_span_ms(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && s.request % 3 == 0)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}
