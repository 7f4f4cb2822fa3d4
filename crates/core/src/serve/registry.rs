//! The solver registry: one [`SolverEntry`] of capability metadata per
//! solver the serving layer answers — a `(problem, strategy)` pair, or for
//! decompositions a method — so the whole served surface is enumerable
//! (the `experiments` bin's `s1` prints this table).
//!
//! The registry describes; it does not dispatch. The
//! [`Session`](super::Session) matches each request's [`Strategy`]
//! exhaustively, and rows are listed in the order that mirrors its
//! defaults: a problem's first row is what `Strategy::Auto` runs (for
//! decompositions, what `DecompMethod::Auto` runs with determinism
//! required), and the first non-deterministic decompose row is the
//! randomized Auto tier.

use super::request::{DecompMethod, ProblemKind, Strategy};

/// Communication model a solver is accounted under.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// LOCAL: unbounded messages, rounds are the cost.
    Local,
    /// CONGEST: `O(log n)`-bit messages.
    Congest,
    /// SLOCAL: sequential processing with bounded read locality.
    Slocal,
}

impl Model {
    /// Short stable name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Model::Local => "LOCAL",
            Model::Congest => "CONGEST",
            Model::Slocal => "SLOCAL",
        }
    }
}

/// Capability metadata for one registered solver.
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct SolverEntry {
    /// The problem this solver answers.
    pub problem: ProblemKind,
    /// The strategy that selects it; `None` for problems whose requests
    /// carry no strategy (decompositions pick a `method`, verification
    /// has one checker per claim).
    pub strategy: Option<Strategy>,
    /// For decomposition constructions, which method this row describes.
    pub method: Option<DecompMethod>,
    /// Short stable name (`problem/solver`).
    pub name: &'static str,
    /// Communication model the costs are billed in.
    pub model: Model,
    /// Whether the solver is deterministic (no random bits).
    pub deterministic: bool,
    /// Whether it consumes a network decomposition (which a session caches).
    pub needs_decomposition: bool,
    /// Analytic round-budget formula, evaluable at any `n`.
    pub round_budget: fn(usize) -> u64,
    /// The same formula, human-readable.
    pub budget: &'static str,
}

/// `⌈log2 n⌉` (0 for `n ≤ 1`) — the budget formulas' logarithm.
fn lg(n: usize) -> u64 {
    let mut b = 0u64;
    while (1usize << b) < n {
        b += 1;
    }
    b
}

fn budget_consumer(n: usize) -> u64 {
    // Σ_colors (2·diam + 2) with O(log n) colors and O(log n) diameters.
    let l = lg(n);
    4 * l * (2 * l + 2) + 2 * l
}

fn budget_luby(n: usize) -> u64 {
    8 * lg(n)
}

fn budget_trial(n: usize) -> u64 {
    10 * lg(n)
}

fn budget_carving(n: usize) -> u64 {
    // Sequential: Σ_balls O(radius + 1), radius ≤ log2 n, ≤ n balls.
    (n as u64) * (lg(n) + 1)
}

fn budget_mpx(n: usize) -> u64 {
    // One exponential shift per node, then a single BFS sweep: O(n + m)
    // work, O(log n / beta) rounds distributed.
    8 * lg(n)
}

fn budget_en(n: usize) -> u64 {
    // 10·log n phases, O(cap) rounds each, cap ≤ 10·log n.
    let l = lg(n);
    10 * l * (2 * l.min(6) + 2)
}

fn budget_derand(n: usize) -> u64 {
    // O(log n) phases of centralized conditional-expectations fixing.
    lg(n) * 18
}

fn budget_reduction(n: usize) -> u64 {
    // Σ_colors (weak diameter + 2r + 2), both O(log n) per color.
    let l = lg(n);
    4 * l * (2 * l + 4)
}

fn budget_verify(_n: usize) -> u64 {
    // Local checkability: a radius-O(d) gather; constant for MIS/coloring.
    2
}

/// The registry: every served `(problem, strategy)` pair, in preference
/// order per problem (a problem's first row is what `Strategy::Auto` runs).
///
/// # Example
/// ```
/// use locality_core::serve::{registry, ProblemKind, Strategy};
///
/// let mis: Vec<_> = registry()
///     .iter()
///     .filter(|e| e.problem == ProblemKind::Mis)
///     .collect();
/// assert_eq!(mis.len(), 2);
/// assert_eq!(mis[0].strategy, Some(Strategy::ViaDecomposition));
/// ```
pub fn registry() -> &'static [SolverEntry] {
    const REGISTRY: &[SolverEntry] = &[
        SolverEntry {
            problem: ProblemKind::Mis,
            strategy: Some(Strategy::ViaDecomposition),
            method: None,
            name: "mis/via-decomposition",
            model: Model::Local,
            deterministic: true,
            needs_decomposition: true,
            round_budget: budget_consumer,
            budget: "sum_colors (2*diam + 2) = O(log^2 n)",
        },
        SolverEntry {
            problem: ProblemKind::Mis,
            strategy: Some(Strategy::Direct),
            method: None,
            name: "mis/luby",
            model: Model::Congest,
            deterministic: false,
            needs_decomposition: false,
            round_budget: budget_luby,
            budget: "8*log2 n w.h.p.",
        },
        SolverEntry {
            problem: ProblemKind::Coloring,
            strategy: Some(Strategy::ViaDecomposition),
            method: None,
            name: "coloring/via-decomposition",
            model: Model::Local,
            deterministic: true,
            needs_decomposition: true,
            round_budget: budget_consumer,
            budget: "sum_colors (2*diam + 2) = O(log^2 n)",
        },
        SolverEntry {
            problem: ProblemKind::Coloring,
            strategy: Some(Strategy::Direct),
            method: None,
            name: "coloring/trial",
            model: Model::Congest,
            deterministic: false,
            needs_decomposition: false,
            round_budget: budget_trial,
            budget: "10*log2 n w.h.p.",
        },
        SolverEntry {
            problem: ProblemKind::Decompose,
            strategy: None,
            method: Some(DecompMethod::BallCarving),
            name: "decompose/ball-carving",
            model: Model::Slocal,
            deterministic: true,
            needs_decomposition: false,
            round_budget: budget_carving,
            budget: "sum_balls O(radius + 1) sequential",
        },
        SolverEntry {
            problem: ProblemKind::Decompose,
            strategy: None,
            method: Some(DecompMethod::Mpx),
            name: "decompose/mpx",
            model: Model::Congest,
            deterministic: false,
            needs_decomposition: false,
            round_budget: budget_mpx,
            budget: "O(log n / beta) w.h.p. (one shifted BFS sweep)",
        },
        SolverEntry {
            problem: ProblemKind::Decompose,
            strategy: None,
            method: Some(DecompMethod::ElkinNeiman),
            name: "decompose/elkin-neiman",
            model: Model::Congest,
            deterministic: false,
            needs_decomposition: false,
            round_budget: budget_en,
            budget: "O(phases * cap) = O(log^2 n) w.h.p.",
        },
        SolverEntry {
            problem: ProblemKind::Decompose,
            strategy: None,
            method: Some(DecompMethod::Derandomized),
            name: "decompose/derandomized",
            model: Model::Slocal,
            deterministic: true,
            needs_decomposition: false,
            round_budget: budget_derand,
            budget: "O(log n) phases of cond.-expectation fixing",
        },
        SolverEntry {
            problem: ProblemKind::Slocal,
            strategy: Some(Strategy::ViaDecomposition),
            method: None,
            name: "slocal/reduction",
            model: Model::Local,
            deterministic: true,
            needs_decomposition: true,
            round_budget: budget_reduction,
            budget: "sum_colors (weak-diam + 2r + 2)",
        },
        SolverEntry {
            problem: ProblemKind::Verify,
            strategy: None,
            method: None,
            name: "verify/checkers",
            model: Model::Local,
            deterministic: true,
            needs_decomposition: false,
            round_budget: budget_verify,
            budget: "radius-O(d) gather (Def. 2.2)",
        },
    ];
    REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row a `(problem, strategy)` pair is served by: `Auto` is the
    /// problem's first row, an explicit strategy its exact match.
    fn row(problem: ProblemKind, strategy: Strategy) -> Option<&'static SolverEntry> {
        let mut rows = registry().iter().filter(|e| e.problem == problem);
        match strategy {
            Strategy::Auto => rows.next(),
            s => rows.find(|e| e.strategy == Some(s)),
        }
    }

    #[test]
    fn auto_prefers_the_deterministic_consumer() {
        let e = row(ProblemKind::Mis, Strategy::Auto).unwrap();
        assert_eq!(e.strategy, Some(Strategy::ViaDecomposition));
        assert!(e.deterministic);
        assert!(e.needs_decomposition);
        let c = row(ProblemKind::Coloring, Strategy::Auto).unwrap();
        assert_eq!(c.strategy, Some(Strategy::ViaDecomposition));
    }

    #[test]
    fn explicit_strategies_resolve_or_reject() {
        assert!(row(ProblemKind::Mis, Strategy::Direct).is_some());
        assert!(row(ProblemKind::Coloring, Strategy::Direct).is_some());
        assert!(row(ProblemKind::Slocal, Strategy::Direct).is_none());
        assert!(row(ProblemKind::Slocal, Strategy::ViaDecomposition).is_some());
    }

    #[test]
    fn only_strategy_carrying_problems_name_a_strategy() {
        for e in registry() {
            let carries = !matches!(e.problem, ProblemKind::Decompose | ProblemKind::Verify);
            assert_eq!(e.strategy.is_some(), carries, "{}", e.name);
        }
    }

    #[test]
    fn budgets_are_monotone_enough() {
        for e in registry() {
            assert!(
                (e.round_budget)(1 << 16) >= (e.round_budget)(16),
                "{}",
                e.name
            );
            assert!(!e.name.is_empty() && !e.budget.is_empty());
        }
    }

    #[test]
    fn mpx_is_the_first_randomized_decompose_row() {
        // The Auto tier with `require_deterministic = false` lowers to the
        // first non-deterministic decompose entry, which must be MPX (it
        // always succeeds; Elkin-Neiman can fail and retries).
        let first_rand = registry()
            .iter()
            .filter(|e| e.problem == ProblemKind::Decompose)
            .find(|e| !e.deterministic)
            .unwrap();
        assert_eq!(first_rand.method, Some(DecompMethod::Mpx));
    }

    #[test]
    fn every_decompose_method_has_a_row() {
        for m in [
            DecompMethod::BallCarving,
            DecompMethod::Mpx,
            DecompMethod::ElkinNeiman,
            DecompMethod::Derandomized,
        ] {
            assert!(registry()
                .iter()
                .any(|e| e.problem == ProblemKind::Decompose && e.method == Some(m)));
        }
    }
}
