//! (∆+1)-vertex-coloring, randomized and decomposition-derandomized.
//!
//! The second canonical consumer of the paper's machinery (with
//! [`crate::mis`]). The randomized algorithm is the classic trial coloring:
//! every uncolored node proposes a uniformly random color from its current
//! palette (`{0..∆}` minus the neighbors' final colors) and keeps it if no
//! neighbor proposed the same color this round — `O(log n)` rounds w.h.p.
//! The deterministic route consumes a network decomposition exactly as MIS
//! does.

use crate::algorithm::{node_seed, run_congest_protocol, AlgorithmRun};
use crate::checkers::{VerifyError, VerifyErrorKind};
use crate::decomposition::types::Decomposition;
use locality_graph::ids::IdAssignment;
use locality_graph::Graph;
use locality_rand::source::{BitSource, PrngSource};
use locality_sim::cost::CostMeter;
use locality_sim::executor::{BatchProtocol, Control, Inbox, Outlet};
use locality_sim::node::NodeContext;
use locality_sim::wire::{Compact, WireSize};

/// Verify a proper coloring with at most `palette` colors; returns the first
/// violation as a typed [`VerifyError`] — match on its `kind`/`node` or
/// render via `Display`.
pub fn verify_coloring(g: &Graph, colors: &[usize], palette: usize) -> Result<(), VerifyError> {
    if colors.len() != g.node_count() {
        return Err(VerifyError::new(
            VerifyErrorKind::WrongLength,
            None,
            "wrong vector length",
        ));
    }
    if let Some(v) = (0..colors.len()).find(|&v| colors[v] >= palette) {
        return Err(VerifyError::new(
            VerifyErrorKind::OutsidePalette,
            Some(v),
            format!("color {} outside palette of {palette}", colors[v]),
        ));
    }
    for (u, v) in g.edges() {
        if colors[u] == colors[v] {
            return Err(VerifyError::new(
                VerifyErrorKind::MonochromaticEdge,
                Some(u),
                format!("edge ({u},{v}) is monochromatic ({})", colors[u]),
            ));
        }
    }
    Ok(())
}

/// Result of a coloring computation.
#[derive(Debug, Clone)]
pub struct ColoringOutcome {
    /// The per-node colors, all `< ∆ + 1`.
    pub colors: Vec<usize>,
    /// Round/randomness accounting.
    pub meter: CostMeter,
}

/// Randomized (∆+1)-coloring by trial colors.
///
/// # Example
/// ```
/// use locality_core::coloring::{random_coloring, verify_coloring};
/// use locality_graph::prelude::*;
/// use locality_rand::prelude::*;
///
/// let g = Graph::cycle(9);
/// let out = random_coloring(&g, &mut PrngSource::seeded(2));
/// verify_coloring(&g, &out.colors, g.max_degree() + 1).unwrap();
/// ```
pub fn random_coloring(g: &Graph, src: &mut impl BitSource) -> ColoringOutcome {
    let n = g.node_count();
    let palette = g.max_degree() + 1;
    let mut colors: Vec<Option<usize>> = vec![None; n];
    let mut meter = CostMeter::default();
    let mut remaining = n;

    while remaining > 0 {
        meter.rounds += 2;
        let before = src.bits_drawn();
        // Proposals.
        let proposals: Vec<Option<usize>> = (0..n)
            .map(|v| {
                if colors[v].is_some() {
                    return None;
                }
                let taken: Vec<usize> = g.neighbors(v).iter().filter_map(|&u| colors[u]).collect();
                let free: Vec<usize> = (0..palette).filter(|c| !taken.contains(c)).collect();
                debug_assert!(!free.is_empty(), "palette ∆+1 can never empty");
                Some(free[src.uniform_below(free.len() as u64) as usize])
            })
            .collect();
        meter.random_bits += src.bits_drawn() - before;

        // Keep conflict-free proposals.
        for v in 0..n {
            let Some(p) = proposals[v] else { continue };
            let conflict = g
                .neighbors(v)
                .iter()
                .any(|&u| proposals[u] == Some(p) || colors[u] == Some(p));
            if !conflict {
                colors[v] = Some(p);
                remaining -= 1;
            }
        }
    }

    ColoringOutcome {
        colors: colors
            .into_iter()
            .map(|c| c.expect("all colored")) // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
            .collect(),
        meter,
    }
}

/// Deterministic (∆+1)-coloring from a network decomposition (greedy within
/// clusters, color classes in order — same cost shape as
/// [`crate::mis::via_decomposition`]).
///
/// As for MIS, same-color clusters are non-adjacent, so each color class's
/// clusters are processed in parallel over fixed cluster buckets with
/// bit-identical output for every thread count; the per-node palette scan
/// uses an epoch-stamped mex buffer (`O(deg + answer)`, allocation-free) in
/// place of the reference's quadratic `Vec::contains` probe. Equivalent to
/// the retained [`reference_via_decomposition`].
///
/// # Panics
/// Panics if `d` is not a valid decomposition of `g`.
pub fn via_decomposition(g: &Graph, d: &Decomposition) -> ColoringOutcome {
    via_decomposition_threads(g, d, 0)
}

/// [`via_decomposition`] with an explicit thread count (`0` = all available).
/// Under the `determinism-checks` cargo feature each multi-threaded call
/// re-runs single-threaded and asserts bit-identical output.
///
/// # Panics
/// Panics if `d` is not a valid decomposition of `g`.
pub fn via_decomposition_threads(g: &Graph, d: &Decomposition, threads: usize) -> ColoringOutcome {
    let threads = crate::consume::resolve_threads(threads);
    let plan = crate::consume::plan_consumer(g, d).expect("decomposition must be valid"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
    consume_with_plan(g, d, &plan, threads)
}

/// Per-thread greedy state: an epoch-stamped "color taken" buffer over the
/// palette, so the mex scan never clears or allocates.
struct MexBuf {
    stamp: Vec<u64>,
    epoch: u64,
}

impl MexBuf {
    fn new(palette: usize) -> Self {
        Self {
            stamp: vec![0; palette],
            epoch: 0,
        }
    }
}

/// The plan-reusing form of the deterministic consumer (see
/// [`crate::mis::consume_with_plan`]): the serving session validates the
/// decomposition once and replays the cached plan across requests.
/// Bit-identical to [`via_decomposition_threads`] by construction.
pub(crate) fn consume_with_plan(
    g: &Graph,
    d: &Decomposition,
    plan: &crate::consume::ConsumerPlan,
    threads: usize,
) -> ColoringOutcome {
    let palette = g.max_degree() + 1;
    let step = |mex: &mut MexBuf, frozen: &[Option<usize>], members: &[usize], out: &mut Vec<_>| {
        let base = out.len();
        for &v in members {
            mex.epoch += 1;
            for &u in g.neighbors(v) {
                // Final colors of previous classes, or staged colors of this
                // cluster's earlier members (same-color clusters are
                // non-adjacent, so nothing else counts).
                let taken = frozen[u].or_else(|| {
                    out[base..]
                        .binary_search_by_key(&(u as u32), |&(w, _)| w)
                        .ok()
                        .map(|i| out[base + i].1)
                });
                if let Some(t) = taken {
                    mex.stamp[t] = mex.epoch;
                }
            }
            let free = (0..palette)
                .find(|&cand| mex.stamp[cand] != mex.epoch)
                .expect("palette ∆+1 suffices for greedy"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
            out.push((v as u32, free));
        }
    };
    let colors = crate::consume::sweep(d, &plan.classes, threads, &|| MexBuf::new(palette), &step);
    ColoringOutcome {
        colors,
        meter: CostMeter::rounds_only(plan.rounds()),
    }
}

/// The pre-optimization deterministic consumer, retained as the differential
/// oracle for [`via_decomposition`] (sequential sweep, fresh subgraph
/// diameter per cluster — the pre-rewrite validator's cost, via the
/// retained reference validate — and linear-scan palette probes).
///
/// # Panics
/// Panics if `d` is not a valid decomposition of `g`.
pub fn reference_via_decomposition(g: &Graph, d: &Decomposition) -> ColoringOutcome {
    crate::consume::reference_validate(g, d).expect("decomposition must be valid"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
    let clustering = d.clustering();
    let mut class_colors: Vec<usize> = (0..clustering.cluster_count())
        .map(|c| d.color_of_cluster(c))
        .collect();
    class_colors.sort_unstable();
    class_colors.dedup();

    let n = g.node_count();
    let palette = g.max_degree() + 1;
    let mut colors: Vec<Option<usize>> = vec![None; n];
    let mut meter = CostMeter::default();

    for &class in &class_colors {
        let mut class_diam = 0u64;
        for c in 0..clustering.cluster_count() {
            if d.color_of_cluster(c) != class {
                continue;
            }
            let members = clustering.members(c);
            class_diam = class_diam.max(
                locality_graph::metrics::reference_induced_diameter(g, members)
                    .expect("clusters are connected") as u64, // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
            );
            for &v in members {
                let taken: Vec<usize> = g.neighbors(v).iter().filter_map(|&u| colors[u]).collect();
                let free = (0..palette)
                    .find(|cand| !taken.contains(cand))
                    .expect("palette ∆+1 suffices for greedy"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
                colors[v] = Some(free);
            }
        }
        meter.rounds += 2 * class_diam + 2;
    }

    ColoringOutcome {
        colors: colors
            .into_iter()
            .map(|c| c.expect("all colored")) // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
            .collect(),
        meter,
    }
}

/// Wire messages of the distributed trial-coloring protocol: colors are
/// width-aware [`Compact`] values (`⌈log2(∆+1)⌉ ≤ log n` bits), so the
/// protocol is CONGEST-clean under the default budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColorMsg {
    /// "I propose this color for myself this round."
    Propose(Compact),
    /// "This color is now permanently mine."
    Final(Compact),
}

impl WireSize for ColorMsg {
    fn wire_bits(&self) -> u64 {
        1 + match self {
            ColorMsg::Propose(c) | ColorMsg::Final(c) => c.wire_bits(),
        }
    }
}

/// The one-round-per-trial (∆+1)-coloring as a genuine engine protocol (the
/// boosting shape: each trial is a single proposal exchange, and every trial
/// succeeds per node with constant probability, so failure decays
/// exponentially in the round budget). Odd engine rounds deliver proposals —
/// conflict-free proposers finalize and announce; even rounds deliver the
/// announcements — finalized nodes halt, everyone else redraws from the
/// colors its neighbors have not claimed.
#[derive(Debug, Clone)]
pub struct TrialProtocol {
    src: PrngSource,
    palette: usize,
    width: u16,
    taken: Vec<bool>,
    proposal: usize,
    finalized: Option<usize>,
}

impl TrialProtocol {
    /// One instance for node `v` with a shared `palette` size (the algorithm
    /// wrapper computes `∆ + 1` once — `Graph::max_degree` is an `O(n)` scan
    /// that must not run per node).
    pub fn new(palette: usize, ids: &IdAssignment, v: usize, seed: u64) -> Self {
        let width = (64 - (palette as u64).leading_zeros()).max(1) as u16;
        Self {
            src: PrngSource::seeded(node_seed(seed, ids.id_of(v))),
            palette,
            width,
            taken: vec![false; palette],
            proposal: 0,
            finalized: None,
        }
    }

    fn draw_and_propose(&mut self, out: &mut Outlet<'_, ColorMsg>) {
        let free = self.palette - self.taken.iter().filter(|&&t| t).count();
        debug_assert!(free > 0, "palette ∆+1 can never empty");
        let k = self.src.uniform_below(free as u64) as usize;
        self.proposal = (0..self.palette)
            .filter(|&c| !self.taken[c])
            .nth(k)
            .expect("k < free"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
        out.broadcast(ColorMsg::Propose(Compact::new(
            self.proposal as u64,
            self.width,
        )));
    }
}

impl BatchProtocol for TrialProtocol {
    type Message = ColorMsg;
    type Output = usize;

    fn start(&mut self, _ctx: &NodeContext, out: &mut Outlet<'_, ColorMsg>) {
        self.draw_and_propose(out);
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, ColorMsg>,
        out: &mut Outlet<'_, ColorMsg>,
    ) -> Control<usize> {
        if round % 2 == 1 {
            // Proposals are in: keep mine only if no neighbor wants it too.
            let conflict = inbox.iter().any(|(_, msg)| match msg {
                ColorMsg::Propose(c) => c.value() as usize == self.proposal,
                ColorMsg::Final(_) => false,
            });
            if !conflict {
                self.finalized = Some(self.proposal);
                out.broadcast(ColorMsg::Final(Compact::new(
                    self.proposal as u64,
                    self.width,
                )));
            }
            Control::Continue
        } else {
            // Finalizations are in.
            for (_, msg) in inbox.iter() {
                if let ColorMsg::Final(c) = msg {
                    self.taken[c.value() as usize] = true;
                }
            }
            if let Some(color) = self.finalized {
                return Control::Halt(color);
            }
            self.draw_and_propose(out);
            Control::Continue
        }
    }

    fn random_bits(&self) -> u64 {
        self.src.bits_drawn()
    }
}

/// Trial (∆+1)-coloring executed as a CONGEST protocol on the arena engine
/// (rounds/messages/random bits measured, not charged analytically).
#[derive(Debug, Clone, Copy)]
pub struct TrialColoring {
    /// Worker threads for node steps (`1` = sequential; `0` = all cores).
    /// Any value produces bit-identical results.
    pub threads: usize,
    /// Executor round cap (`0` = a generous `w.h.p.`-safe default).
    pub max_rounds: u32,
}

impl Default for TrialColoring {
    fn default() -> Self {
        Self {
            threads: 1,
            max_rounds: 0,
        }
    }
}

impl TrialColoring {
    /// Run on `g` with identifiers `ids`, every node's randomness derived
    /// (only) from `seed`, over the palette `∆ + 1`; the stats are named
    /// `trial-coloring`.
    ///
    /// # Panics
    /// If `ids` does not match `g` or the run exceeds its round budget.
    pub fn run(&self, g: &Graph, ids: &IdAssignment, seed: u64) -> AlgorithmRun<usize> {
        let palette = g.max_degree() + 1;
        run_congest_protocol(
            "trial-coloring",
            g,
            ids,
            self.threads,
            self.max_rounds,
            (0..g.node_count()).map(|v| TrialProtocol::new(palette, ids, v, seed)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::carving::ball_carving_decomposition;
    use locality_graph::generators::Family;
    use locality_rand::prelude::*;

    #[test]
    fn randomized_valid_on_families() {
        let mut p = SplitMix64::new(111);
        for fam in Family::ALL {
            let g = fam.generate(120, &mut p);
            let out = random_coloring(&g, &mut PrngSource::seeded(fam as u64));
            verify_coloring(&g, &out.colors, g.max_degree() + 1)
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
        }
    }

    #[test]
    fn randomized_rounds_logarithmic() {
        let mut p = SplitMix64::new(113);
        let g = Graph::gnp_connected(400, 0.015, &mut p);
        let out = random_coloring(&g, &mut PrngSource::seeded(9));
        assert!(
            out.meter.rounds <= 10 * g.log2_n() as u64,
            "rounds {}",
            out.meter.rounds
        );
    }

    #[test]
    fn via_decomposition_matches_reference_and_threads() {
        let mut p = SplitMix64::new(311);
        for fam in Family::ALL {
            let g = fam.generate(100, &mut p);
            let order: Vec<usize> = (0..g.node_count()).collect();
            let d = ball_carving_decomposition(&g, &order).decomposition;
            let reference = reference_via_decomposition(&g, &d);
            for threads in [1usize, 4, 64] {
                let fast = via_decomposition_threads(&g, &d, threads);
                assert_eq!(fast.colors, reference.colors, "{}", fam.name());
                assert_eq!(fast.meter, reference.meter, "{}", fam.name());
            }
        }
    }

    #[test]
    fn via_decomposition_parallel_path_engages_and_matches() {
        let g = Graph::cycle(6000);
        let order: Vec<usize> = (0..g.node_count()).collect();
        let d = ball_carving_decomposition(&g, &order).decomposition;
        let a = via_decomposition_threads(&g, &d, 1);
        let b = via_decomposition_threads(&g, &d, 3);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.meter, b.meter);
        verify_coloring(&g, &a.colors, g.max_degree() + 1).unwrap();
    }

    #[test]
    fn deterministic_valid_and_reproducible() {
        let mut p = SplitMix64::new(115);
        for fam in Family::ALL {
            let g = fam.generate(90, &mut p);
            let order: Vec<usize> = (0..g.node_count()).collect();
            let d = ball_carving_decomposition(&g, &order).decomposition;
            let a = via_decomposition(&g, &d);
            verify_coloring(&g, &a.colors, g.max_degree() + 1)
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            let b = via_decomposition(&g, &d);
            assert_eq!(a.colors, b.colors);
            assert_eq!(a.meter.random_bits, 0);
        }
    }

    #[test]
    fn edge_cases() {
        let g = Graph::empty(3);
        let out = random_coloring(&g, &mut PrngSource::seeded(1));
        assert_eq!(out.colors, vec![0, 0, 0]);
        let g0 = Graph::empty(0);
        let out0 = random_coloring(&g0, &mut PrngSource::seeded(1));
        assert!(out0.colors.is_empty());
    }

    #[test]
    fn engine_trial_coloring_valid_on_families() {
        let mut p = SplitMix64::new(211);
        for fam in Family::ALL {
            let g = fam.generate(110, &mut p);
            let ids = IdAssignment::sequential(g.node_count());
            let run = TrialColoring::default().run(&g, &ids, fam as u64 + 5);
            verify_coloring(&g, &run.labels, g.max_degree() + 1)
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert_eq!(
                run.stats.meter.congest_violations,
                0,
                "{}: color messages must fit the CONGEST budget",
                fam.name()
            );
        }
    }

    #[test]
    fn engine_trial_coloring_thread_count_invariant() {
        let mut p = SplitMix64::new(213);
        let g = Graph::gnp_connected(130, 0.04, &mut p);
        let ids = IdAssignment::sequential(g.node_count());
        let a = TrialColoring::default().run(&g, &ids, 17);
        let b = TrialColoring {
            threads: 5,
            max_rounds: 0,
        }
        .run(&g, &ids, 17);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn engine_trial_coloring_edge_cases() {
        let ids = IdAssignment::sequential(3);
        let run = TrialColoring::default().run(&Graph::empty(3), &ids, 1);
        assert_eq!(run.labels, vec![0, 0, 0]);
        let ids0 = IdAssignment::sequential(0);
        let run0 = TrialColoring::default().run(&Graph::empty(0), &ids0, 1);
        assert!(run0.labels.is_empty());
    }

    #[test]
    fn color_msg_wire_sizes() {
        assert_eq!(ColorMsg::Propose(Compact::new(3, 5)).wire_bits(), 6);
        assert_eq!(ColorMsg::Final(Compact::new(3, 5)).wire_bits(), 6);
    }

    #[test]
    fn verifier_rejects_bad_colorings() {
        let g = Graph::path(3);
        assert!(verify_coloring(&g, &[0, 0, 1], 2).is_err()); // monochromatic
        assert!(verify_coloring(&g, &[0, 5, 0], 2).is_err()); // outside palette
        assert!(verify_coloring(&g, &[0, 1], 2).is_err()); // length
        assert!(verify_coloring(&g, &[0, 1, 0], 2).is_ok());
    }
}
