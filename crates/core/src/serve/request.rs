//! The typed problem layer of the serving API: [`Request`] / [`Response`]
//! pairs plus the structured [`SolveError`].
//!
//! Every request variant carries its knobs as a `#[non_exhaustive]` option
//! struct (seed, strategy, thread budget, decomposition parameters), so new
//! knobs can be added without breaking callers — construct options with
//! [`Default`]/`new()` and the `with_*` setters. Requests are plain data
//! (`Clone + PartialEq`), which is what lets a [`Session`](super::Session)
//! key its response cache on them and a [`Fleet`](super::Fleet) replay them
//! across threads with bit-identical answers.

use crate::checkers::VerifyError;
use crate::decomposition::types::{DecompError, DecompQuality, Decomposition};
use locality_graph::edits::EditError;
use locality_sim::cost::CostMeter;
use std::error::Error;
use std::fmt;

/// Which of the paper's problems a request asks about (one per [`Request`]
/// variant); also the registry's primary key.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// Maximal independent set.
    Mis,
    /// (∆+1)-vertex-coloring.
    Coloring,
    /// Network decomposition construction.
    Decompose,
    /// An SLOCAL task run through the [GKM17] SLOCAL→LOCAL reduction.
    Slocal,
    /// Solution verification (local checkability).
    Verify,
}

impl ProblemKind {
    /// Short stable name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            ProblemKind::Mis => "mis",
            ProblemKind::Coloring => "coloring",
            ProblemKind::Decompose => "decompose",
            ProblemKind::Slocal => "slocal",
            ProblemKind::Verify => "verify",
        }
    }
}

/// How a solver request should be executed. The
/// [`Session`](super::Session) dispatches on it with one exhaustive match
/// per problem: `Auto` runs the same solver as `ViaDecomposition` (the
/// deterministic decomposition-backed route — a session amortizes the
/// decomposition across requests, so it is the serving default), and a
/// pair with no solver (SLOCAL `Direct`) is
/// [`SolveError::UnsupportedStrategy`]. The
/// [`registry`](super::registry::registry) lists the same pairs, first row
/// per problem being what `Auto` runs.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The serving default: `ViaDecomposition`.
    Auto,
    /// The problem's direct algorithm (randomized where the paper's is).
    Direct,
    /// Consume a (cached) network decomposition — the paper's
    /// "decomposition ⇒ everything" route.
    ViaDecomposition,
}

/// Which construction produces a requested decomposition.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecompMethod {
    /// Let the session pick based on
    /// [`DecomposeOptions::require_deterministic`]: [`Self::BallCarving`]
    /// when determinism is required (the default), the fast randomized
    /// [`Self::Mpx`] tier when it is not. The request default.
    Auto,
    /// Deterministic sequential ball carving (`(O(log n), O(log n))`,
    /// always succeeds).
    BallCarving,
    /// The randomized Miller–Peng–Xu exponential-shift partition (seeded,
    /// always succeeds; the Auto randomized tier — near-linear time).
    Mpx,
    /// The randomized Elkin–Neiman construction (may fail; seeded).
    ElkinNeiman,
    /// The derandomized conditional-expectations construction
    /// (deterministic; uses the `cap` radius truncation).
    Derandomized,
}

/// What [`DecompMethod::Auto`] may do when the deterministic construction's
/// estimated build time blows a request's soft deadline
/// ([`DecomposeOptions::deadline_ms`]).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DegradePolicy {
    /// Degrade to the fast randomized MPX tier and record the downgrade in
    /// the response's [`DecompProvenance`] (the default: a caller that sets
    /// a deadline is asking for latency; `Strict` is the opt-out). The
    /// degraded answer is still a valid decomposition — it is merely
    /// seed-dependent instead of deterministic.
    #[default]
    Randomized,
    /// Never change tiers: run the deterministic construction even if the
    /// estimate says the deadline will be missed.
    Strict,
}

/// How a served decomposition was actually produced — carried on
/// [`Response::Decompose`] so a caller can tell a deadline-degraded answer
/// from the tier it asked for.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompProvenance {
    /// The concrete construction that ran (never [`DecompMethod::Auto`]).
    pub method: DecompMethod,
    /// Whether [`DecompMethod::Auto`] downgraded the deterministic tier to
    /// MPX because the cost estimate blew the soft deadline.
    pub degraded: bool,
    /// The estimated deterministic build time (milliseconds) that drove the
    /// degradation decision; `0` when no deadline was in force.
    pub estimated_ms: u64,
}

/// Options for a [`Request::Decompose`] (and for the decomposition consumed
/// by `ViaDecomposition` strategies). A session keys its decomposition
/// cache on these options after normalizing the knobs the selected method
/// ignores (the seed for deterministic constructions, the cap for
/// non-truncated ones), so requests differing only in an irrelevant field
/// share one cached build.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecomposeOptions {
    /// The construction to run ([`DecompMethod::Auto`] lets
    /// `require_deterministic` decide).
    pub method: DecompMethod,
    /// Seed for randomized constructions (ignored by deterministic ones).
    pub seed: u64,
    /// Geometric radius truncation for [`DecompMethod::Derandomized`]
    /// (ignored by the others).
    pub cap: u32,
    /// Whether [`DecompMethod::Auto`] must resolve to a deterministic
    /// construction (`true`, the default — repeat requests are
    /// bit-identical). Set `false` to let Auto take the fast randomized
    /// tier: a cold solve drops from the deterministic producer's seconds
    /// to near-linear milliseconds, and answers still verify — they are
    /// just seed-dependent. Ignored when `method` names a concrete
    /// construction.
    pub require_deterministic: bool,
    /// Soft deadline for the construction, in milliseconds (`0` = none).
    /// When [`DecompMethod::Auto`] would pick the deterministic tier and
    /// the session's calibrated cost probe estimates the build past this
    /// deadline, the [`DegradePolicy`] decides what happens. Only the Auto
    /// method resolution consults it — a concrete `method` always runs.
    pub deadline_ms: u64,
    /// What Auto may do when the estimate blows the deadline.
    pub degrade: DegradePolicy,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        Self {
            method: DecompMethod::Auto,
            seed: 0,
            cap: 8,
            require_deterministic: true,
            deadline_ms: 0,
            degrade: DegradePolicy::default(),
        }
    }
}

impl DecomposeOptions {
    /// The defaults: `Auto` with determinism required (resolves to ball
    /// carving).
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the construction.
    pub fn with_method(mut self, method: DecompMethod) -> Self {
        self.method = method;
        self
    }

    /// Seed randomized constructions.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Radius truncation for the derandomized construction.
    pub fn with_cap(mut self, cap: u32) -> Self {
        self.cap = cap;
        self
    }

    /// Whether [`DecompMethod::Auto`] may pick a randomized construction
    /// (`require_deterministic = false`) or must stay deterministic.
    pub fn with_require_deterministic(mut self, require_deterministic: bool) -> Self {
        self.require_deterministic = require_deterministic;
        self
    }

    /// Soft deadline in milliseconds for the Auto method resolution
    /// (`0` = none).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// What Auto may do when the cost estimate blows the deadline.
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }
}

/// Options for a [`Request::Mis`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisOptions {
    /// Execution strategy (see [`Strategy`]).
    pub strategy: Strategy,
    /// Seed for the randomized direct algorithm (Luby).
    pub seed: u64,
    /// Worker-thread budget for the decomposition consumer (`0` = all
    /// cores; outputs are bit-identical for every value).
    pub threads: usize,
    /// Which decomposition backs `Auto`/`ViaDecomposition` runs.
    pub decomposition: DecomposeOptions,
}

impl Default for MisOptions {
    fn default() -> Self {
        Self {
            strategy: Strategy::Auto,
            seed: 0,
            threads: 0,
            decomposition: DecomposeOptions::default(),
        }
    }
}

impl MisOptions {
    /// The defaults: `Auto` strategy over the default decomposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Seed the randomized direct algorithm.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Thread budget for the decomposition consumer.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Select the backing decomposition.
    pub fn with_decomposition(mut self, decomposition: DecomposeOptions) -> Self {
        self.decomposition = decomposition;
        self
    }
}

/// Options for a [`Request::Coloring`]. Same knobs as [`MisOptions`]; the
/// palette is always `∆ + 1` (the session caches `∆`).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringOptions {
    /// Execution strategy (see [`Strategy`]).
    pub strategy: Strategy,
    /// Seed for the randomized direct algorithm (trial coloring).
    pub seed: u64,
    /// Worker-thread budget for the decomposition consumer (`0` = all
    /// cores; outputs are bit-identical for every value).
    pub threads: usize,
    /// Which decomposition backs `Auto`/`ViaDecomposition` runs.
    pub decomposition: DecomposeOptions,
}

impl Default for ColoringOptions {
    fn default() -> Self {
        Self {
            strategy: Strategy::Auto,
            seed: 0,
            threads: 0,
            decomposition: DecomposeOptions::default(),
        }
    }
}

impl ColoringOptions {
    /// The defaults: `Auto` strategy over the default decomposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Seed the randomized direct algorithm.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Thread budget for the decomposition consumer.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Select the backing decomposition.
    pub fn with_decomposition(mut self, decomposition: DecomposeOptions) -> Self {
        self.decomposition = decomposition;
        self
    }
}

/// The SLOCAL algorithms the serving layer knows how to run through the
/// [GKM17] reduction. An enum rather than a closure so requests stay plain
/// comparable data (and so the step function is pinned — bit-identical
/// outputs across sessions and threads).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlocalTask {
    /// Greedy MIS (locality 1).
    GreedyMis,
    /// Greedy (∆+1)-coloring (locality 1).
    GreedyColoring,
    /// Distance-2 coloring (locality 2).
    DistanceTwoColoring,
}

impl SlocalTask {
    /// The task's SLOCAL locality radius `r` (the reduction consumes a
    /// decomposition of `G^{2r+1}`).
    pub fn locality(self) -> u32 {
        match self {
            SlocalTask::GreedyMis | SlocalTask::GreedyColoring => 1,
            SlocalTask::DistanceTwoColoring => 2,
        }
    }

    /// Short stable name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            SlocalTask::GreedyMis => "greedy-mis",
            SlocalTask::GreedyColoring => "greedy-coloring",
            SlocalTask::DistanceTwoColoring => "distance-2-coloring",
        }
    }
}

/// Options for a [`Request::Slocal`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlocalOptions {
    /// The SLOCAL algorithm to run through the reduction.
    pub task: SlocalTask,
    /// Execution strategy: `Auto`/`ViaDecomposition` run the reduction;
    /// SLOCAL has no `Direct` solver.
    pub strategy: Strategy,
    /// Worker-thread budget (`1` = sequential over the session's cached
    /// scratch arena — the default; `0` = all cores; bit-identical either
    /// way).
    pub threads: usize,
}

impl SlocalOptions {
    /// Run `task` with the serving defaults (sequential, via the cached
    /// power-graph decomposition).
    pub fn new(task: SlocalTask) -> Self {
        Self {
            task,
            strategy: Strategy::Auto,
            threads: 1,
        }
    }

    /// Select the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Thread budget for the reduction sweep.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The artifact a [`Request::Verify`] checks against the session's graph.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyRequest {
    /// An MIS membership vector.
    Mis {
        /// Per-node membership flags.
        in_mis: Vec<bool>,
    },
    /// A proper coloring with the given palette bound.
    Coloring {
        /// Per-node colors.
        colors: Vec<usize>,
        /// Exclusive palette bound.
        palette: usize,
    },
    /// A network decomposition (strong-diameter validation).
    Decomposition {
        /// The decomposition to validate.
        decomposition: Decomposition,
    },
}

/// One typed problem instance against a session's pinned graph.
///
/// Requests are plain data: `Clone + PartialEq`, no closures — which is what
/// makes them cacheable, batchable and replayable.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compute a maximal independent set.
    Mis(MisOptions),
    /// Compute a (∆+1)-coloring.
    Coloring(ColoringOptions),
    /// Construct (and cache) a network decomposition.
    Decompose(DecomposeOptions),
    /// Run an SLOCAL task through the SLOCAL→LOCAL reduction.
    Slocal(SlocalOptions),
    /// Verify a supplied solution.
    Verify(VerifyRequest),
}

impl Request {
    /// MIS with default options.
    pub fn mis() -> Self {
        Request::Mis(MisOptions::new())
    }

    /// Coloring with default options.
    pub fn coloring() -> Self {
        Request::Coloring(ColoringOptions::new())
    }

    /// Decompose with default options (ball carving).
    pub fn decompose() -> Self {
        Request::Decompose(DecomposeOptions::new())
    }

    /// Run `task` through the reduction with default options.
    pub fn slocal(task: SlocalTask) -> Self {
        Request::Slocal(SlocalOptions::new(task))
    }

    /// Verify an MIS membership vector.
    pub fn verify_mis(in_mis: Vec<bool>) -> Self {
        Request::Verify(VerifyRequest::Mis { in_mis })
    }

    /// Verify a coloring against a palette bound.
    pub fn verify_coloring(colors: Vec<usize>, palette: usize) -> Self {
        Request::Verify(VerifyRequest::Coloring { colors, palette })
    }

    /// Validate a decomposition.
    pub fn verify_decomposition(decomposition: Decomposition) -> Self {
        Request::Verify(VerifyRequest::Decomposition { decomposition })
    }

    /// The problem this request instantiates.
    pub fn kind(&self) -> ProblemKind {
        match self {
            Request::Mis(_) => ProblemKind::Mis,
            Request::Coloring(_) => ProblemKind::Coloring,
            Request::Decompose(_) => ProblemKind::Decompose,
            Request::Slocal(_) => ProblemKind::Slocal,
            Request::Verify(_) => ProblemKind::Verify,
        }
    }
}

/// Per-node outputs of an SLOCAL task (the task fixes the label type).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlocalOutput {
    /// Boolean labels (e.g. MIS membership).
    Flags(Vec<bool>),
    /// Color labels.
    Colors(Vec<usize>),
}

/// Outcome of a verification request. Verification *failure* is a
/// successful answer (the artifact is simply invalid), so it lives here
/// rather than in [`SolveError`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Whether the artifact verified.
    pub ok: bool,
    /// The first violation when it did not.
    pub detail: Option<VerifyError>,
}

/// One typed answer, paired to its [`Request`] variant.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Mis`].
    Mis {
        /// Membership vector.
        in_mis: Vec<bool>,
        /// Round/randomness accounting of the solver that ran.
        meter: CostMeter,
    },
    /// Answer to [`Request::Coloring`].
    Coloring {
        /// Per-node colors, all `< palette`.
        colors: Vec<usize>,
        /// The palette bound (`∆ + 1`).
        palette: usize,
        /// Round/randomness accounting of the solver that ran.
        meter: CostMeter,
    },
    /// Answer to [`Request::Decompose`] (the decomposition itself stays
    /// cached in the session; fetch it via
    /// [`Session::decomposition`](super::Session::decomposition)).
    Decompose {
        /// Colors / max strong diameter / cluster count of the validated
        /// decomposition.
        quality: DecompQuality,
        /// Construction cost accounting.
        meter: CostMeter,
        /// Which construction actually ran and whether a soft deadline
        /// degraded the requested tier.
        provenance: DecompProvenance,
    },
    /// Answer to [`Request::Slocal`].
    Slocal {
        /// Per-node outputs.
        output: SlocalOutput,
        /// LOCAL-model round bill of the reduction.
        meter: CostMeter,
    },
    /// Answer to [`Request::Verify`].
    Verify(VerifyReport),
}

impl Response {
    /// The solver cost meter, for response kinds that carry one.
    pub fn meter(&self) -> Option<&CostMeter> {
        match self {
            Response::Mis { meter, .. }
            | Response::Coloring { meter, .. }
            | Response::Decompose { meter, .. }
            | Response::Slocal { meter, .. } => Some(meter),
            Response::Verify(_) => None,
        }
    }
}

/// Structured failure of the solver path (replacing the stringly
/// `Result<_, String>` / panic surface of the free functions).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// A consumer needed a decomposition that fails validation.
    InvalidDecomposition(DecompError),
    /// A randomized construction produced no decomposition.
    ConstructionFailed {
        /// The construction that failed.
        method: DecompMethod,
        /// What happened.
        detail: String,
    },
    /// No solver answers the requested `(problem, strategy)` pair.
    UnsupportedStrategy {
        /// The problem asked about.
        problem: ProblemKind,
        /// The strategy that has no entry.
        strategy: Strategy,
    },
    /// An edit batch handed to [`Session::apply_edits`](super::Session)
    /// was rejected by the graph.
    InvalidEdits(EditError),
    /// A solver-internal invariant did not hold. Reaching this variant is a
    /// bug in the serve layer, but it is reported as a typed error instead
    /// of a panic so a long-lived service degrades instead of aborting.
    Internal {
        /// Which invariant was violated.
        context: &'static str,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidDecomposition(e) => write!(f, "invalid decomposition: {e}"),
            SolveError::ConstructionFailed { method, detail } => {
                write!(f, "{method:?} construction failed: {detail}")
            }
            SolveError::UnsupportedStrategy { problem, strategy } => {
                write!(
                    f,
                    "no registered solver for problem {} with strategy {strategy:?}",
                    problem.name()
                )
            }
            SolveError::InvalidEdits(e) => write!(f, "invalid edit batch: {e}"),
            SolveError::Internal { context } => {
                write!(f, "internal solver invariant violated: {context}")
            }
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::InvalidDecomposition(e) => Some(e),
            SolveError::InvalidEdits(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecompError> for SolveError {
    fn from(e: DecompError) -> Self {
        SolveError::InvalidDecomposition(e)
    }
}

impl From<EditError> for SolveError {
    fn from(e: EditError) -> Self {
        SolveError::InvalidEdits(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_builders_compose() {
        let opts = MisOptions::new()
            .with_strategy(Strategy::Direct)
            .with_seed(7)
            .with_threads(2)
            .with_decomposition(DecomposeOptions::new().with_method(DecompMethod::ElkinNeiman));
        assert_eq!(opts.strategy, Strategy::Direct);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.decomposition.method, DecompMethod::ElkinNeiman);
    }

    #[test]
    fn request_kinds_cover_all_variants() {
        assert_eq!(Request::mis().kind(), ProblemKind::Mis);
        assert_eq!(Request::coloring().kind(), ProblemKind::Coloring);
        assert_eq!(Request::decompose().kind(), ProblemKind::Decompose);
        assert_eq!(
            Request::slocal(SlocalTask::GreedyMis).kind(),
            ProblemKind::Slocal
        );
        assert_eq!(Request::verify_mis(vec![true]).kind(), ProblemKind::Verify);
    }

    #[test]
    fn solve_error_displays_and_sources() {
        let e = SolveError::from(DecompError::UnclusteredNode { node: 3 });
        assert!(e.to_string().contains("node 3"));
        assert!(Error::source(&e).is_some());
        let u = SolveError::UnsupportedStrategy {
            problem: ProblemKind::Slocal,
            strategy: Strategy::Direct,
        };
        assert!(u.to_string().contains("slocal"));
        assert!(Error::source(&u).is_none());
    }

    #[test]
    fn slocal_tasks_expose_locality() {
        assert_eq!(SlocalTask::GreedyMis.locality(), 1);
        assert_eq!(SlocalTask::DistanceTwoColoring.locality(), 2);
        assert_eq!(SlocalTask::GreedyColoring.name(), "greedy-coloring");
    }
}
