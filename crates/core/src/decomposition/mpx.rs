//! The Miller–Peng–Xu low-diameter partition [MPX13] — the exponential-shift
//! ancestor of the Elkin–Neiman construction, used here as a baseline and as
//! the "exponential vs geometric shifts" ablation arm (experiment T9; the
//! paper's footnote 8 explains why it switches to the discrete geometric).
//!
//! Every node draws a shift `δ_v ~ Exponential(β)` and every node joins the
//! cluster of the center maximizing `δ_u − d(u, v)`. The result is a
//! *partition* into clusters of radius `O(log(n)/β)` w.h.p. in which each
//! edge is cut with probability `O(β)`; unlike the phase-based EN
//! construction it does not color the clusters, so we finish it into a
//! decomposition by greedy-coloring the cluster graph (colors ≤ cluster
//! degree + 1 — a baseline, not the paper's O(log n) guarantee).

use crate::decomposition::types::Decomposition;
use locality_graph::cluster::{ClusterGraph, Clustering};
use locality_graph::Graph;
use locality_rand::prng::Prng;
use std::collections::BinaryHeap;

/// Outcome of the MPX construction.
#[derive(Debug, Clone)]
pub struct MpxOutcome {
    /// The clustering (always total).
    pub clustering: Clustering,
    /// Cut edges (endpoints in different clusters).
    pub cut_edges: usize,
    /// The largest shift drawn (the radius scale).
    pub max_shift: f64,
    /// A decomposition finished by greedy cluster-graph coloring.
    pub decomposition: Decomposition,
}

/// Run MPX with rate `beta` (cluster radius scale `O(log n / beta)`).
///
/// # Panics
/// Panics if `beta <= 0` or the graph is empty.
///
/// # Example
/// ```
/// use locality_core::decomposition::mpx::mpx_partition;
/// use locality_graph::prelude::*;
/// use locality_rand::prng::SplitMix64;
///
/// let g = Graph::grid(8, 8);
/// let out = mpx_partition(&g, 0.4, &mut SplitMix64::new(3));
/// out.decomposition.validate(&g).unwrap();
/// ```
pub fn mpx_partition(g: &Graph, beta: f64, prng: &mut impl Prng) -> MpxOutcome {
    assert!(beta > 0.0, "beta must be positive");
    let n = g.node_count();
    assert!(n > 0, "graph must be nonempty");

    // Exponential shifts.
    let shifts: Vec<f64> = (0..n)
        .map(|_| {
            let u = prng.uniform_f64().max(f64::MIN_POSITIVE);
            -u.ln() / beta
        })
        .collect();
    let max_shift = shifts.iter().cloned().fold(0.0, f64::max);

    // Shifted multi-source Dijkstra on unit edges: node v gets center
    // argmax(δ_u − d(u, v)) = argmin(d(u, v) − δ_u); fractional keys, ties
    // broken by center index for determinism.
    #[derive(PartialEq)]
    struct Item(f64, usize, usize); // (key, center, node)
    impl Eq for Item {}
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap by key then center. Keys are finite by construction
            // (`-ln(u)/beta` with `u > 0`), so `total_cmp` agrees with the
            // mathematical order and stays total if that ever regresses.
            other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut center = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    for (v, &shift) in shifts.iter().enumerate() {
        heap.push(Item(-shift, v, v));
    }
    while let Some(Item(key, c, v)) = heap.pop() {
        if center[v] != usize::MAX {
            continue;
        }
        center[v] = c;
        for &w in g.neighbors(v) {
            if center[w] == usize::MAX {
                heap.push(Item(key + 1.0, c, w));
            }
        }
    }

    let clustering = Clustering::from_labels((0..n).map(|v| Some(center[v])).collect());
    let cut_edges = g
        .edges()
        .filter(|&(u, v)| clustering.cluster_of(u) != clustering.cluster_of(v))
        .count();

    // Greedy cluster-graph coloring finishes it into a decomposition.
    let cg = ClusterGraph::contract(g, clustering.clone());
    let q = cg.quotient();
    let mut colors = vec![usize::MAX; q.node_count()];
    for c in q.nodes() {
        let used: Vec<usize> = q
            .neighbors(c)
            .iter()
            .map(|&d| colors[d])
            .filter(|&x| x != usize::MAX)
            .collect();
        colors[c] = (0..).find(|x| !used.contains(x)).expect("free color"); // audit: allow(panic) -- unbounded color search: fewer forbidden colors than candidates
    }
    let decomposition =
        Decomposition::new(clustering.clone(), colors).expect("one color per cluster"); // audit: allow(panic) -- arity/contiguity established by construction on the preceding lines

    MpxOutcome {
        clustering,
        cut_edges,
        max_shift,
        decomposition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::generators::Family;
    use locality_graph::metrics::induced_diameter;
    use locality_rand::prng::SplitMix64;

    #[test]
    fn partition_is_total_and_clusters_connected() {
        let mut p = SplitMix64::new(181);
        for fam in Family::ALL {
            let g = fam.generate(100, &mut p);
            let out = mpx_partition(&g, 0.3, &mut p);
            assert!(out.clustering.is_total());
            out.decomposition
                .validate(&g)
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
        }
    }

    #[test]
    fn radius_scales_inversely_with_beta() {
        let mut p = SplitMix64::new(183);
        let g = Graph::cycle(400);
        let mut diam = Vec::new();
        for beta in [0.1f64, 0.8] {
            let out = mpx_partition(&g, beta, &mut SplitMix64::new(7));
            let max_d = (0..out.clustering.cluster_count())
                .filter_map(|c| induced_diameter(&g, out.clustering.members(c)))
                .max()
                .unwrap_or(0);
            diam.push(max_d);
        }
        let _ = &mut p;
        assert!(
            diam[0] > diam[1],
            "smaller beta must give larger clusters: {diam:?}"
        );
    }

    #[test]
    fn cut_fraction_scales_with_beta() {
        let g = Graph::grid(20, 20);
        let low = mpx_partition(&g, 0.1, &mut SplitMix64::new(5)).cut_edges;
        let high = mpx_partition(&g, 1.2, &mut SplitMix64::new(5)).cut_edges;
        assert!(low < high, "beta 0.1 cut {low} vs beta 1.2 cut {high}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = Graph::grid(10, 10);
        let a = mpx_partition(&g, 0.4, &mut SplitMix64::new(11));
        let b = mpx_partition(&g, 0.4, &mut SplitMix64::new(11));
        assert_eq!(a.decomposition, b.decomposition);
        assert_eq!(a.cut_edges, b.cut_edges);
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::empty(1);
        let out = mpx_partition(&g, 0.5, &mut SplitMix64::new(1));
        assert_eq!(out.clustering.cluster_count(), 1);
        assert_eq!(out.cut_edges, 0);
    }
}
