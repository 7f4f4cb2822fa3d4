//! The four workloads and the helpers they share.
//!
//! Each workload sets itself up [`SETUP_REPEATS`] times (reporting the
//! median set-up time), measures for the configured number of seconds,
//! checks every answer outside the timed spans, and fills the metrics of
//! [`crate::report::END_TO_END`] (untraced run) or
//! [`crate::report::PER_LAYER`] (traced run), plus its own named metrics.

pub mod cold_pipeline;
pub mod edit_stream;
pub mod http;

use crate::report::{lookup, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use locality_core::decomposition::{DecompQuality, Decomposition};
use locality_core::serve::Response;
use locality_graph::Graph;
use locality_rand::prng::SplitMix64;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["cold_pipeline", "warm_http", "mixed_http", "edit_stream"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Seed of the fixed graph instances (and of `mixed_http`'s cold
/// requests). The workload seed draws the traffic — request streams and
/// edit streams — not the instances: what a cold build or a set-up costs is
/// set by an instance's largest clusters, and varies across generated
/// instances by more than any change to the code would move it.
pub const INSTANCE_SEED: u64 = 4;

/// The MPX rate `Session` uses for served MPX decompositions.
pub const MPX_BETA: f64 = 0.4;

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Warm requests per second sent open loop by `mixed_http`.
    pub mixed_rate: f64,
}

/// Run the workload `name`.
///
/// # Errors
/// An unknown workload name, or a failure that stops the workload before
/// it can report (server start, lost connection).
pub fn run(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "cold_pipeline" => cold_pipeline::run(cfg),
        "warm_http" => http::run_warm(cfg),
        "mixed_http" => http::run_mixed(cfg),
        "edit_stream" => edit_stream::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Run `setup` [`SETUP_REPEATS`] times; keep the last result and return
/// it with the median and the individual set-up times in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up before building the next one, so at
        // most one copy (one server) is alive at a time.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((value, stats::median(&times)))
}

/// `G(n, 4/n)` from `seed`.
pub fn gnp(n: usize, seed: u64) -> Graph {
    Graph::gnp(n, 4.0 / n as f64, &mut SplitMix64::new(seed))
}

/// Put an end-to-end metric.
pub fn e2e(m: &mut Metrics, name: &str, value: f64, note: impl Into<String>) {
    m.set(lookup(END_TO_END, name), value, note);
}

/// Put a per-layer metric.
pub fn layer(m: &mut Metrics, name: &str, value: f64, note: impl Into<String>) {
    m.set(lookup(PER_LAYER, name), value, note);
}

/// Seconds as a [`Duration`] (non-negative).
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Sum of rounds, messages and random bits over answers' cost meters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterSum {
    /// `CostMeter::random_bits` summed.
    pub random_bits: u64,
    /// `CostMeter::rounds` summed.
    pub rounds: u64,
    /// `CostMeter::messages` summed.
    pub messages: u64,
}

impl MeterSum {
    /// Add one answer's meter (answers without one add nothing).
    pub fn add(&mut self, r: &Response) {
        if let Some(m) = r.meter() {
            self.random_bits += m.random_bits;
            self.rounds += m.rounds;
            self.messages += m.messages;
        }
    }

    /// Put `rand.random_bits`, `sim.rounds` and `sim.messages`.
    pub fn put(&self, m: &mut Metrics, over: &str) {
        let note = format!("summed over {over}");
        layer(m, "rand.random_bits", self.random_bits as f64, note.clone());
        layer(m, "sim.rounds", self.rounds as f64, note.clone());
        layer(m, "sim.messages", self.messages as f64, note);
    }
}

/// A decomposition built by its free function, timed, then validated.
#[derive(Debug, Clone, Copy)]
pub struct BuildProbe {
    /// Median build seconds.
    pub build_s: f64,
    /// Builds timed.
    pub builds: usize,
    /// Process CPU seconds ÷ wall seconds across the builds.
    pub cpu_util: f64,
    /// Seconds `validate` took.
    pub validate_s: f64,
    /// What `validate` reported.
    pub quality: DecompQuality,
}

/// Build with `build` until `min_seconds` have passed (at least once),
/// each build inside a `span` span, then validate the last result inside a
/// `decomp.validate` span.
///
/// # Errors
/// When the decomposition fails validation.
pub fn probe_build(
    g: &Graph,
    tracer: &mut Tracer,
    span: &'static str,
    min_seconds: f64,
    mut build: impl FnMut(&Graph) -> Option<Decomposition>,
) -> Result<BuildProbe, String> {
    let mut times = Vec::new();
    let mut last = None;
    let cpu0 = crate::sys::cpu_seconds();
    let t0 = Instant::now();
    while times.is_empty() || t0.elapsed().as_secs_f64() < min_seconds {
        let id = tracer.begin(span, times.len() as u64);
        let t = Instant::now();
        let d = build(g);
        times.push(t.elapsed().as_secs_f64());
        tracer.end(id);
        last = Some(d.ok_or_else(|| format!("{span}: construction failed"))?);
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = crate::sys::cpu_seconds() - cpu0;
    let d = last.ok_or("no build ran")?;
    let id = tracer.begin("decomp.validate", 0);
    let t = Instant::now();
    let quality = d.validate(g).map_err(|e| format!("{span}: {e}"))?;
    let validate_s = t.elapsed().as_secs_f64();
    tracer.end(id);
    Ok(BuildProbe {
        build_s: stats::median(&times),
        builds: times.len(),
        cpu_util: cpu / wall,
        validate_s,
        quality,
    })
}

impl BuildProbe {
    /// Put the universal `decomp.*` per-layer metrics for this build.
    pub fn put(&self, m: &mut Metrics, what: &str) {
        let note = format!("{what}, median of {} builds", self.builds);
        layer(m, "decomp.build_s", self.build_s, note);
        layer(m, "decomp.validate_s", self.validate_s, what.to_string());
        layer(
            m,
            "decomp.cpu_util",
            self.cpu_util,
            format!("process CPU s / wall s over the {what} builds"),
        );
        layer(
            m,
            "decomp.clusters",
            self.quality.clusters as f64,
            what.to_string(),
        );
        layer(
            m,
            "decomp.colors",
            self.quality.colors as f64,
            what.to_string(),
        );
        layer(
            m,
            "decomp.max_diameter",
            f64::from(self.quality.max_diameter),
            what.to_string(),
        );
    }
}

/// Stage budget line: the share of an untraced median that traced layer
/// spans account for, and what is left unattributed.
pub fn stage_budget(
    workload: &str,
    untraced_median: f64,
    parts: &[(&str, f64)],
    unit: &str,
) -> (f64, String) {
    let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
    let share = attributed / untraced_median;
    let mut line = format!("stage budget {workload}: untraced median {untraced_median:.3} {unit}");
    for (name, v) in parts {
        line.push_str(&format!(
            "; {name} {v:.3} {unit} ({:.1}%)",
            100.0 * v / untraced_median
        ));
    }
    line.push_str(&format!(
        "; attributed {:.1}%, unattributed {:.3} {unit} ({:.1}%)",
        100.0 * share,
        untraced_median - attributed,
        100.0 * (1.0 - share)
    ));
    (share, line)
}
