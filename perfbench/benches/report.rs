//! Metrics, answer tallies, provenance and the result line.

use std::fmt::Write as _;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work counts).
    Lower,
    /// Larger is better (throughput, useful-work ratios).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric name with its unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports each of them on an untraced
/// run. What each means on each workload is in `perfbench/README.md`.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("ops_per_s", "1/s", Higher),
    def("p50_ms", "ms", Lower),
    def("tail_ms", "ms", Lower),
];

/// Per-layer metrics: every workload reports each of them on a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("graph.gen_s", "s", Lower),
    def("decomp.build_s", "s", Lower),
    def("decomp.validate_s", "s", Lower),
    def("decomp.cpu_util", "ratio", Higher),
    def("decomp.clusters", "count", Lower),
    def("decomp.colors", "count", Lower),
    def("decomp.max_diameter", "count", Lower),
    def("mis.consume_ms", "ms", Lower),
    def("coloring.consume_ms", "ms", Lower),
    def("mis.rounds", "count", Lower),
    def("session.hit_ns", "ns", Lower),
    def("session.hit_ratio", "ratio", Higher),
    def("session.solver_runs", "count", Lower),
    def("session.decompositions_built", "count", Lower),
    def("rand.random_bits", "count", Lower),
    def("sim.rounds", "count", Lower),
    def("sim.messages", "count", Lower),
    def("trace.overhead_ms", "ms", Lower),
    def("trace.attributed_frac", "ratio", Higher),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How it was taken (percentile and sample count, source), if useful.
    pub note: String,
}

/// A workload's metrics, keyed by name in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Add a metric.
    pub fn put(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        better: Better,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            better,
            note: note.into(),
        });
    }

    /// Add a metric defined in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, def: &MetricDef, value: f64, note: impl Into<String>) {
        self.put(def.name, value, def.unit, def.better, note);
    }

    /// All metrics, in insertion order.
    pub fn all(&self) -> &[Metric] {
        &self.0
    }
}

/// The definition of `name` in `defs`.
///
/// # Panics
/// When `name` is not defined there (a benchmark bug).
pub fn lookup(defs: &'static [MetricDef], name: &str) -> &'static MetricDef {
    defs.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

/// Answers checked: attempted operations, failures and the first few
/// failure descriptions.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose answer was wrong, mismatched, non-200 or an error.
    pub failed: u64,
    /// The first failure descriptions.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Failed ÷ attempted.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one run produces.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics the result line carries (end-to-end or per-layer).
    pub headline: Metrics,
    /// The workload's own named metrics (printed and recorded).
    pub detail: Metrics,
    /// Answer checks.
    pub tally: Tally,
    /// Guards that failed (regime, validity); any makes the run incorrect.
    pub guard_failures: Vec<String>,
    /// Free-form lines for the report (stage budget, validity, ...).
    pub notes: Vec<String>,
    /// The spans of a traced run, written out when the run ends.
    pub spans: Option<crate::trace::Tracer>,
}

impl Outcome {
    /// Whether every answer checked and every guard held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0 && self.guard_failures.is_empty()
    }
}

/// Where a result came from.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the checkout, or `none` outside git.
    pub git_rev: String,
    /// Whether tracked files differ from that revision.
    pub dirty: Option<bool>,
    /// Available parallelism.
    pub nproc: usize,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Library features the benchmark was built with.
    pub features: &'static str,
    /// Compiler version.
    pub rustc: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Unix time at the start of the run.
    pub unix_time: u64,
}

fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["--git-dir", ".git", "--work-tree", "."])
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    /// Collect provenance for a run with `seed`, from the working directory.
    pub fn collect(seed: u64) -> Self {
        let in_git = Path::new(".git").exists();
        let git_rev = in_git
            .then(|| git(&["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "none".to_string());
        let dirty = in_git
            .then(|| git(&["status", "--porcelain", "--untracked-files=no"]))
            .flatten()
            .map(|s| !s.is_empty());
        Self {
            git_rev,
            dirty,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            profile: env!("PERFBENCH_PROFILE"),
            features: "locality-core default features (no determinism-checks)",
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            seed,
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit `f64` carries (`null` if not finite).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (i, m) in outcome.headline.all().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

fn metrics_json(metrics: &Metrics) -> String {
    let items: Vec<String> = metrics
        .all()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": \"{}\", \"note\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.better.as_str(),
                json_str(&m.note)
            )
        })
        .collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// The full record of a run: provenance, every metric with unit and
/// direction, answer checks and notes.
pub fn record_json(workload: &str, trace: bool, prov: &Provenance, outcome: &Outcome) -> String {
    let dirty = prov.dirty.map_or("null".to_string(), |d| d.to_string());
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    let errors: Vec<String> = outcome.tally.errors.iter().map(|n| json_str(n)).collect();
    let guards: Vec<String> = outcome.guard_failures.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"trace\": {trace},\n  \"provenance\": {{\"git_rev\": {}, \"dirty\": {dirty}, \
         \"nproc\": {}, \"profile\": {}, \"features\": {}, \"rustc\": {}, \"seed\": {}, \"unix_time\": {}}},\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"error_frac\": {},\n  \
         \"headline\": {},\n  \"detail\": {},\n  \"guard_failures\": [{}],\n  \"errors\": [{}],\n  \"notes\": [{}]\n}}\n",
        json_str(workload),
        json_str(&prov.git_rev),
        prov.nproc,
        json_str(prov.profile),
        json_str(prov.features),
        json_str(prov.rustc),
        prov.seed,
        prov.unix_time,
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.failed,
        json_num(outcome.tally.error_frac()),
        metrics_json(&outcome.headline),
        metrics_json(&outcome.detail),
        guards.join(", "),
        errors.join(", "),
        notes.join(",\n    "),
    )
}
