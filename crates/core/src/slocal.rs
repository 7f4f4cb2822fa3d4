//! The SLOCAL → LOCAL reduction of [GKM17] (the machinery behind the
//! paper's completeness claims).
//!
//! [GKM17] proved: given a network decomposition of the power graph
//! `G^{2r+1}` with few colors and small diameter, any SLOCAL algorithm of
//! locality `r` runs in the LOCAL model — process cluster colors in order;
//! same-color clusters of `G^{2r+1}` are pairwise at distance `> 2r+1` in
//! `G`, so their radius-`r` read balls are disjoint and they can execute
//! their sequential steps in parallel, each cluster working through its own
//! members sequentially after gathering its neighborhood.
//!
//! Combined with [`crate::decomposition`] this is exactly how
//! "decomposition ⇒ everything in P-SLOCAL (= P-RLOCAL [GHK18])" works; the
//! consumers in [`crate::mis`]/[`crate::coloring`] are special cases with
//! `r = 1`. This module implements the general reduction with the cost
//! accounting of the theorem — and at the theorem's parallelism: the fast
//! path never materializes `G^{2r+1}` (the plan runs the decomposition
//! checker behind [`Decomposition::validate_weak_power`], with lazy ball
//! scans for properness and one member-profile BFS per cluster as its
//! measure), every SLOCAL step costs `O(ball)` via the arena-backed
//! [`SlocalRunner`], and [`run_slocal_via_decomposition_threads`] executes
//! each color class's clusters through the consumers' shared color-class
//! sweep, across scoped threads with bit-identical outputs. The quadratic original is retained as
//! [`reference_run_slocal_via_decomposition`] for differential testing.

use crate::decomposition::types::{Adjacency, DecompError, Decomposition};
use locality_graph::metrics::{member_distances_with, reference_weak_diameter, DiameterScratch};
use locality_graph::power::reference_power_graph;
use locality_graph::Graph;
use locality_sim::cost::CostMeter;
use locality_sim::slocal::{BallView, SlocalRunner, SlocalScratch};

/// Outcome of the reduction.
#[derive(Debug, Clone)]
pub struct SlocalReductionOutcome<T> {
    /// Per-node outputs of the SLOCAL algorithm.
    pub outputs: Vec<T>,
    /// LOCAL-model round accounting:
    /// `Σ_colors (weak diameter of the color's clusters in G + 2r + 2)`.
    pub meter: CostMeter,
    /// The execution order that was used (by cluster color, then cluster,
    /// then node id).
    pub order: Vec<usize>,
}

/// Everything the reduction derives from the decomposition before any step
/// runs: the validated schedule and the round bill. Cacheable — the serving
/// [`Session`](crate::serve::Session) computes it once per `(graph, r)` and
/// replays it across requests.
#[derive(Debug, Clone)]
pub(crate) struct ReductionPlan {
    pub(crate) order: Vec<usize>,
    /// `(color, cluster ids ascending)` in ascending color order.
    pub(crate) classes: Vec<(usize, Vec<u32>)>,
    pub(crate) rounds: u64,
}

/// Exact weak diameter of `members` by farthest-first refinement: one BFS
/// from the first member gives the distance profile and the bound
/// `W ≤ 2·max d`; members are then swept in descending first-distance order,
/// stopping once `2·d_i ≤ best` — every unswept pair `{x, y}` has
/// `d(x, y) ≤ d(x, u₁) + d(u₁, y) ≤ 2·d_i ≤ best`, so `best` is exact. On
/// low-diameter graphs this is typically 2–3 BFS instead of `|members|`.
fn exact_weak_diameter(
    g: &Graph,
    members: &[usize],
    scratch: &mut DiameterScratch,
    profile: &mut Vec<(u32, u32)>,
    buf: &mut Vec<(u32, u32)>,
) -> u32 {
    let e1 = member_distances_with(g, members[0], members, scratch, profile)
        .expect("validated clusters are weakly connected"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
    let mut best = e1;
    profile.sort_unstable_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
    for &(u, dist) in profile.iter() {
        if 2 * dist <= best {
            break;
        }
        let ecc = member_distances_with(g, u as usize, members, scratch, buf)
            .expect("validated clusters are weakly connected"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
        best = best.max(ecc);
    }
    best
}

/// Validate `d` against `G^{2r+1}` (lazily — the power graph is never
/// materialized) and lay out the schedule.
///
/// The round bill needs, per color, only the **maximum** weak diameter over
/// the class's clusters, so the plan computes one member-profile BFS per
/// cluster (which doubles as the weak-connectivity check) and runs the exact
/// [`exact_weak_diameter`] sweep only on clusters whose `2·ecc` upper bound
/// beats the running class maximum — skipped clusters provably cannot raise
/// it. The resulting rounds equal the reference's member-by-member
/// computation exactly.
///
/// # Errors
/// The first violated invariant, as a [`DecompError`] — the same conditions
/// the reference path's materialized `validate_weak(&power_graph(g, 2r+1))`
/// enforces. The panicking entry points `expect` it; the serving session
/// maps it into its typed `SolveError`.
pub(crate) fn plan_reduction(
    g: &Graph,
    r: u32,
    d: &Decomposition,
) -> Result<ReductionPlan, DecompError> {
    plan_reduction_with(g, r, d, &mut DiameterScratch::new(g.node_count()))
}

/// [`plan_reduction`] over a caller-owned [`DiameterScratch`] (the serving
/// session reuses one scratch arena across plan builds on its pinned graph).
pub(crate) fn plan_reduction_with(
    g: &Graph,
    r: u32,
    d: &Decomposition,
    scratch: &mut DiameterScratch,
) -> Result<ReductionPlan, DecompError> {
    let clustering = d.clustering();
    // One BFS per cluster: the member distance profile from the first member
    // (its maximum `ecc1` lower-bounds the weak diameter, `2·ecc1` upper-
    // bounds it) doubling as the weak-connectivity check; properness is
    // scanned over lazy `G^{2r+1}` balls.
    let mut profile: Vec<(u32, u32)> = Vec::new();
    let mut buf: Vec<(u32, u32)> = Vec::new();
    let mut ecc1: Vec<u32> = Vec::with_capacity(clustering.cluster_count());
    d.check(g, Adjacency::Power(2 * r + 1), |members| {
        member_distances_with(g, members[0], members, scratch, &mut profile).map(|e| ecc1.push(e))
    })?;

    // Execution order: by (cluster color, cluster id, node id) — the classes
    // list clusters in that order, and members ascend.
    let classes = crate::consume::group_by_color(d);
    let mut order: Vec<usize> = Vec::with_capacity(g.node_count());
    for &c in classes.iter().flat_map(|(_, clusters)| clusters) {
        order.extend_from_slice(clustering.members(c as usize));
    }
    let mut rounds = 0u64;
    for (_, clusters) in &classes {
        let mut worst = clusters
            .iter()
            .map(|&c| ecc1[c as usize])
            .max()
            .unwrap_or(0);
        for &c in clusters {
            if 2 * ecc1[c as usize] > worst {
                let w = exact_weak_diameter(
                    g,
                    clustering.members(c as usize),
                    scratch,
                    &mut profile,
                    &mut buf,
                );
                worst = worst.max(w);
            }
        }
        rounds += u64::from(worst) + 2 * u64::from(r) + 2;
    }

    Ok(ReductionPlan {
        order,
        classes,
        rounds,
    })
}

/// Run an SLOCAL algorithm of locality `r` in the LOCAL model using a
/// decomposition of `G^{2r+1}`.
///
/// `step` is the SLOCAL step function, executed under mechanical locality
/// enforcement ([`SlocalRunner`]) — sequentially here (the `FnMut` contract
/// allows stateful steps); [`run_slocal_via_decomposition_threads`] runs the
/// color classes in parallel for stateless steps, with identical output.
///
/// # Panics
/// Panics if `decomp_of_power` is not a valid decomposition of `G^{2r+1}`
/// (weak-diameter validation, performed lazily — the power graph is never
/// materialized), or if the SLOCAL step reads outside its ball.
///
/// # Example
/// ```
/// use locality_core::decomposition::ball_carving_decomposition;
/// use locality_core::slocal::run_slocal_via_decomposition;
/// use locality_graph::prelude::*;
///
/// // Greedy MIS has SLOCAL locality 1; decompose G^3.
/// let g = Graph::cycle(12);
/// let g3 = power_graph(&g, 3);
/// let order: Vec<usize> = (0..12).collect();
/// let d = ball_carving_decomposition(&g3, &order).decomposition;
/// let out = run_slocal_via_decomposition(&g, 1, &d, |view| {
///     !view
///         .neighbors(view.center())
///         .any(|u| view.output(u).copied().unwrap_or(false))
/// });
/// // The output is a valid MIS of g.
/// for (u, v) in g.edges() {
///     assert!(!(out.outputs[u] && out.outputs[v]));
/// }
/// ```
pub fn run_slocal_via_decomposition<T, F>(
    g: &Graph,
    r: u32,
    decomp_of_power: &Decomposition,
    step: F,
) -> SlocalReductionOutcome<T>
where
    F: FnMut(&BallView<'_, T>) -> T,
{
    let plan =
        plan_reduction(g, r, decomp_of_power).expect("decomposition must be valid for G^(2r+1)"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
    let runner = SlocalRunner::new(g, r);
    let (outputs, _stats) = runner.run(&plan.order, step);
    SlocalReductionOutcome {
        outputs,
        meter: CostMeter::rounds_only(plan.rounds),
        order: plan.order,
    }
}

/// [`run_slocal_via_decomposition`] with each color class's clusters
/// executed across `threads` scoped threads (`0` = all available) over
/// fixed cluster buckets. Same-color clusters of a `G^{2r+1}` decomposition
/// are more than `2r+1` apart in `G`, so their radius-`r` read balls —
/// and hence their reads and writes — are disjoint: outputs are
/// bit-identical to the sequential path for every thread count (re-checked
/// on every multi-threaded call under the `determinism-checks` cargo
/// feature).
///
/// The step function must be stateless across calls (`Fn`), and outputs
/// cross thread boundaries, hence the extra bounds.
///
/// # Panics
/// As [`run_slocal_via_decomposition`].
pub fn run_slocal_via_decomposition_threads<T, F>(
    g: &Graph,
    r: u32,
    decomp_of_power: &Decomposition,
    threads: usize,
    step: F,
) -> SlocalReductionOutcome<T>
where
    T: Send + Sync + PartialEq + std::fmt::Debug,
    F: Fn(&BallView<'_, T>) -> T + Sync,
{
    let plan =
        plan_reduction(g, r, decomp_of_power).expect("decomposition must be valid for G^(2r+1)"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
    let outputs = reduction_with_plan(g, r, decomp_of_power, &plan, threads, &step);
    SlocalReductionOutcome {
        outputs,
        meter: CostMeter::rounds_only(plan.rounds),
        order: plan.order,
    }
}

/// The plan-reusing form of the parallel reduction: execute one color class
/// at a time over fixed cluster buckets against a cached [`ReductionPlan`]
/// (the serving session validates and plans once per `(graph, r)`), and
/// return just the per-node outputs — the caller already holds the plan's
/// round bill and order. Bit-identical to
/// [`run_slocal_via_decomposition_threads`] by construction.
pub(crate) fn reduction_with_plan<T, F>(
    g: &Graph,
    r: u32,
    d: &Decomposition,
    plan: &ReductionPlan,
    threads: usize,
    step: &F,
) -> Vec<T>
where
    T: Send + Sync + PartialEq + std::fmt::Debug,
    F: Fn(&BallView<'_, T>) -> T + Sync,
{
    let runner = SlocalRunner::new(g, r);
    let n = g.node_count();
    let threads = crate::consume::resolve_threads(threads);
    let span =
        |scratch: &mut SlocalScratch, frozen: &[Option<T>], members: &[usize], out: &mut _| {
            runner.process_span(scratch, frozen, out, members, step);
        };
    crate::consume::sweep(d, &plan.classes, threads, &|| SlocalScratch::new(n), &span)
}

/// The pre-optimization reduction, retained as the differential oracle:
/// materializes `G^{2r+1}` with the quadratic [`reference_power_graph`],
/// validates against it with one full-`n` BFS per cluster member
/// ([`reference_weak_diameter`], the pre-rewrite validator's cost), and
/// charges rounds from full-`n`-BFS weak diameters — `O(n·(n + m_{G^k}))`
/// before the first step runs.
///
/// # Panics
/// As [`run_slocal_via_decomposition`].
pub fn reference_run_slocal_via_decomposition<T, F>(
    g: &Graph,
    r: u32,
    decomp_of_power: &Decomposition,
    step: F,
) -> SlocalReductionOutcome<T>
where
    F: FnMut(&BallView<'_, T>) -> T,
{
    let gp = reference_power_graph(g, 2 * r + 1);
    reference_validate_weak(&gp, decomp_of_power)
        .expect("decomposition must be valid for G^(2r+1)"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
    let clustering = decomp_of_power.clustering();

    // Execution order: by (cluster color, cluster id, node id).
    let mut order: Vec<usize> = g.nodes().collect();
    order.sort_by_key(|&v| {
        let c = clustering.cluster_of(v).expect("total"); // audit: allow(panic) -- clustering is total over clustered nodes, validated where it was built
        (decomp_of_power.color_of_cluster(c), c, v)
    });

    // The order is a legal SLOCAL schedule; run it with enforcement.
    let runner = SlocalRunner::new(g, r);
    let (outputs, _stats) = runner.run(&order, step);

    // LOCAL round accounting per the reduction: colors processed in
    // sequence; within a color, each cluster gathers its members and their
    // r-fringe (O(weak diameter + r) rounds), simulates sequentially at the
    // leader, and redistributes.
    let mut colors: Vec<usize> = (0..clustering.cluster_count())
        .map(|c| decomp_of_power.color_of_cluster(c))
        .collect();
    colors.sort_unstable();
    colors.dedup();
    let mut rounds = 0u64;
    for &color in &colors {
        let mut worst = 0u64;
        for c in 0..clustering.cluster_count() {
            if decomp_of_power.color_of_cluster(c) != color {
                continue;
            }
            let diam = reference_weak_diameter(g, clustering.members(c)).unwrap_or(0) as u64;
            worst = worst.max(diam);
        }
        rounds += worst + 2 * r as u64 + 2;
    }

    SlocalReductionOutcome {
        outputs,
        meter: CostMeter::rounds_only(rounds),
        order,
    }
}

/// The pre-rewrite weak validator, verbatim in cost and behavior: one
/// full-`n` BFS per cluster member via [`reference_weak_diameter`] — kept
/// here so the retained reference path stays an honest baseline instead of
/// silently inheriting the scratch-BFS metrics.
fn reference_validate_weak(gp: &Graph, d: &Decomposition) -> Result<(), DecompError> {
    let clustering = d.clustering();
    if clustering.node_count() != gp.node_count() {
        return Err(DecompError::WrongGraph {
            got: clustering.node_count(),
            expected: gp.node_count(),
        });
    }
    if let Some(&node) = clustering.unclustered().first() {
        return Err(DecompError::UnclusteredNode { node });
    }
    for c in 0..clustering.cluster_count() {
        if reference_weak_diameter(gp, clustering.members(c)).is_none() {
            return Err(DecompError::DisconnectedCluster { cluster: c });
        }
    }
    for (u, v) in gp.edges() {
        let (cu, cv) = (
            clustering.cluster_of(u).expect("total"), // audit: allow(panic) -- clustering is total over clustered nodes, validated where it was built
            clustering.cluster_of(v).expect("total"), // audit: allow(panic) -- clustering is total over clustered nodes, validated where it was built
        );
        if cu != cv && d.color_of_cluster(cu) == d.color_of_cluster(cv) {
            return Err(DecompError::AdjacentSameColor {
                a: cu,
                b: cv,
                color: d.color_of_cluster(cu),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::ball_carving_decomposition;
    use crate::mis::verify_mis;
    use locality_graph::generators::Family;
    use locality_graph::power::power_graph;
    use locality_rand::prng::SplitMix64;

    fn power_decomposition(g: &Graph, r: u32) -> Decomposition {
        let gp = power_graph(g, 2 * r + 1);
        let order: Vec<usize> = (0..gp.node_count()).collect();
        ball_carving_decomposition(&gp, &order).decomposition
    }

    fn greedy_mis_step(view: &BallView<'_, bool>) -> bool {
        !view
            .neighbors(view.center())
            .any(|u| view.output(u).copied().unwrap_or(false))
    }

    #[test]
    fn greedy_mis_runs_via_reduction_on_families() {
        let mut p = SplitMix64::new(151);
        for fam in [Family::Cycle, Family::Grid, Family::RandomTree] {
            let g = fam.generate(60, &mut p);
            let d = power_decomposition(&g, 1);
            let out = run_slocal_via_decomposition(&g, 1, &d, greedy_mis_step);
            verify_mis(&g, &out.outputs).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert!(out.meter.rounds > 0);
            assert_eq!(out.meter.random_bits, 0, "the reduction is deterministic");
        }
    }

    #[test]
    fn fast_reduction_matches_reference() {
        let mut p = SplitMix64::new(155);
        for fam in [Family::Cycle, Family::Grid, Family::GnpSparse] {
            let g = fam.generate(70, &mut p);
            for r in [1u32, 2] {
                let d = power_decomposition(&g, r);
                let reference = reference_run_slocal_via_decomposition(&g, r, &d, greedy_mis_step);
                let fast = run_slocal_via_decomposition(&g, r, &d, greedy_mis_step);
                assert_eq!(fast.outputs, reference.outputs, "{} r={r}", fam.name());
                assert_eq!(fast.meter, reference.meter, "{} r={r}", fam.name());
                assert_eq!(fast.order, reference.order, "{} r={r}", fam.name());
                for threads in [1usize, 3, 64] {
                    let par =
                        run_slocal_via_decomposition_threads(&g, r, &d, threads, greedy_mis_step);
                    assert_eq!(
                        par.outputs,
                        reference.outputs,
                        "{} r={r} t={threads}",
                        fam.name()
                    );
                    assert_eq!(par.meter, reference.meter);
                    assert_eq!(par.order, reference.order);
                }
            }
        }
    }

    #[test]
    fn parallel_reduction_engages_threshold_and_matches() {
        // Large enough that a color class crosses the parallel threshold.
        let g = Graph::cycle(5000);
        let d = power_decomposition(&g, 1);
        let seq = run_slocal_via_decomposition(&g, 1, &d, greedy_mis_step);
        let par = run_slocal_via_decomposition_threads(&g, 1, &d, 4, greedy_mis_step);
        assert_eq!(par.outputs, seq.outputs);
        assert_eq!(par.meter, seq.meter);
        verify_mis(&g, &seq.outputs).unwrap();
    }

    #[test]
    fn greedy_coloring_with_locality_one() {
        let mut p = SplitMix64::new(153);
        let g = Graph::gnp_connected(50, 0.08, &mut p);
        let d = power_decomposition(&g, 1);
        let out = run_slocal_via_decomposition(&g, 1, &d, |view| {
            let used: Vec<usize> = view
                .neighbors(view.center())
                .filter_map(|u| view.output(u).copied())
                .collect();
            (0..).find(|c| !used.contains(c)).expect("free color")
        });
        crate::coloring::verify_coloring(&g, &out.outputs, g.max_degree() + 1).unwrap();
    }

    #[test]
    fn locality_two_algorithm_distance_two_coloring() {
        // Distance-2 coloring has SLOCAL locality 2: color differs from
        // everything within distance 2.
        let g = Graph::cycle(20);
        let d = power_decomposition(&g, 2);
        let out = run_slocal_via_decomposition(&g, 2, &d, |view| {
            let used: Vec<usize> = view
                .nodes()
                .into_iter()
                .filter(|&u| u != view.center() && view.distance(u).unwrap_or(3) <= 2)
                .filter_map(|u| view.output(u).copied())
                .collect();
            (0..).find(|c| !used.contains(c)).expect("free color")
        });
        // Verify on the square graph.
        let g2 = power_graph(&g, 2);
        crate::coloring::verify_coloring(&g2, &out.outputs, g2.max_degree() + 1).unwrap();
    }

    #[test]
    fn order_groups_by_color_then_cluster() {
        let g = Graph::path(20);
        let d = power_decomposition(&g, 1);
        let out = run_slocal_via_decomposition(&g, 1, &d, |_view: &BallView<'_, u8>| 0u8);
        // Colors along the order are non-decreasing.
        let clustering = d.clustering();
        let colors: Vec<usize> = out
            .order
            .iter()
            .map(|&v| d.color_of_cluster(clustering.cluster_of(v).unwrap()))
            .collect();
        assert!(colors.windows(2).all(|w| w[0] <= w[1]));
    }
}
