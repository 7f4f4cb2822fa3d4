//! The shared run shape of the protocol ports: graph + identifiers + seed
//! in, per-node labeling + [`RoundStats`] out.
//!
//! The ports — [`LubyMis`](crate::mis::LubyMis),
//! [`TrialColoring`](crate::coloring::TrialColoring) and
//! [`ElkinNeimanDecomposition`](crate::decomposition::ElkinNeimanDecomposition),
//! each with an inherent `run(&self, g, ids, seed)` — execute as
//! [`BatchProtocol`]s on the workspace's one round runtime,
//! [`locality_sim::executor::Executor`], so every one is metered by the
//! *same* code: rounds are executor rounds, messages are occupied
//! directed-edge slots, CONGEST violations are counted per directed message,
//! and random bits are whatever the per-node sources report through
//! [`BatchProtocol::random_bits`]. Luby MIS and trial coloring are single
//! protocols; Elkin–Neiman runs one protocol per phase and adds the bits its
//! radius draws consumed. The centralized versions that charge rounds
//! analytically (`mis::luby`, `coloring::random_coloring`) remain as
//! references, so their costs are not comparable with these.
//!
//! # Example
//! ```
//! use locality_core::mis::{verify_mis, LubyMis};
//! use locality_graph::prelude::*;
//!
//! let g = Graph::grid(8, 8);
//! let ids = IdAssignment::sequential(g.node_count());
//! let run = LubyMis::default().run(&g, &ids, 42);
//! verify_mis(&g, &run.labels).unwrap();
//! assert!(run.stats.meter.rounds > 0);
//! assert!(run.stats.meter.random_bits > 0);
//! ```

use locality_graph::ids::IdAssignment;
use locality_graph::Graph;
use locality_rand::prng::{Prng, SplitMix64};
use locality_sim::cost::CostMeter;
use locality_sim::executor::{BatchProtocol, Executor, Mode};
use std::fmt;

/// Uniform cost accounting for one protocol-port run.
///
/// `#[non_exhaustive]`: future engines may add cost dimensions; construct
/// through the ports, match with a `..` rest pattern.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// The port's short stable name (`luby-mis`, `trial-coloring`,
    /// `elkin-neiman`).
    pub algorithm: &'static str,
    /// Number of nodes of the input graph.
    pub n: usize,
    /// Communication regime the run was metered under.
    pub mode: Mode,
    /// Executor-metered costs: rounds, messages, bits, max message size,
    /// CONGEST violations (per directed message) and random bits drawn.
    pub meter: CostMeter,
}

impl fmt::Display for RoundStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (n={}): {}", self.algorithm, self.n, self.meter)
    }
}

/// Result of a protocol-port run.
#[derive(Debug, Clone)]
pub struct AlgorithmRun<L> {
    /// Per-node labels, indexed by node.
    pub labels: Vec<L>,
    /// Uniform cost accounting.
    pub stats: RoundStats,
}

/// Derive a statistically independent per-node seed from a run seed and the
/// node's identifier (shared by the protocol ports so runs are reproducible
/// node-by-node regardless of execution order).
pub fn node_seed(seed: u64, id: u64) -> u64 {
    SplitMix64::new(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// The shared wrapper shape of the single-protocol ports:
/// run `protocols` on a standard-budget CONGEST [`Executor`] and assemble
/// the uniform [`AlgorithmRun`]. `max_rounds == 0` selects a generous
/// w.h.p.-safe default of `64·(⌈log2 n⌉ + 1)` engine rounds; `threads`
/// chunks node steps (`1` = sequential — any value is bit-identical).
/// Random bits are whatever the protocols report through
/// [`BatchProtocol::random_bits`].
///
/// # Panics
/// Panics if the protocol count differs from the node count or the round
/// budget is exceeded (the port's "halts w.h.p." contract was violated).
pub fn run_congest_protocol<P>(
    name: &'static str,
    g: &Graph,
    ids: &IdAssignment,
    threads: usize,
    max_rounds: u32,
    protocols: impl IntoIterator<Item = P>,
) -> AlgorithmRun<P::Output>
where
    P: BatchProtocol + Send + Clone,
    P::Message: Send + Sync,
    P::Output: Send + PartialEq + fmt::Debug,
{
    let max_rounds = if max_rounds == 0 {
        64 * (g.log2_n() + 1)
    } else {
        max_rounds
    };
    let mut exec = Executor::congest(g, ids);
    let run = exec
        .run(protocols, max_rounds, threads)
        .unwrap_or_else(|e| panic!("{name} must halt w.h.p. within its round budget: {e}")); // audit: allow(panic) -- w.h.p. halting budget: exceeding it disproves the bound under test
    AlgorithmRun {
        labels: run.outputs,
        stats: RoundStats {
            algorithm: name,
            n: g.node_count(),
            mode: exec.mode(),
            meter: run.meter,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{verify_coloring, TrialColoring};
    use crate::decomposition::elkin_neiman::ElkinNeimanDecomposition;
    use crate::mis::{verify_mis, LubyMis};

    #[test]
    fn round_stats_display_names_the_algorithm() {
        let s = RoundStats {
            algorithm: "x",
            n: 3,
            mode: Mode::Local,
            meter: CostMeter::rounds_only(2),
        };
        assert!(s.to_string().contains("x (n=3)"));
        assert!(s.to_string().contains("rounds=2"));
    }

    #[test]
    fn node_seed_differs_by_node_and_seed() {
        assert_ne!(node_seed(1, 1), node_seed(1, 2));
        assert_ne!(node_seed(1, 1), node_seed(2, 1));
        assert_eq!(node_seed(7, 9), node_seed(7, 9));
    }

    /// MIS, coloring and a decomposition all return the same
    /// [`AlgorithmRun`] shape with engine-metered stats.
    #[test]
    fn three_algorithms_through_one_interface() {
        let g = Graph::grid(6, 6);
        let ids = IdAssignment::sequential(g.node_count());

        let mis = LubyMis::default().run(&g, &ids, 5);
        verify_mis(&g, &mis.labels).unwrap();

        let col = TrialColoring::default().run(&g, &ids, 5);
        verify_coloring(&g, &col.labels, g.max_degree() + 1).unwrap();

        let en = ElkinNeimanDecomposition::default().run(&g, &ids, 5);
        assert_eq!(en.labels.len(), g.node_count());

        for stats in [&mis.stats, &col.stats, &en.stats] {
            assert!(stats.meter.rounds > 0, "{stats}");
            assert!(stats.meter.messages > 0, "{stats}");
            assert!(stats.meter.random_bits > 0, "{stats}");
            assert!(
                matches!(stats.mode, Mode::Congest { .. }),
                "all three ports are CONGEST protocols"
            );
        }
    }
}
