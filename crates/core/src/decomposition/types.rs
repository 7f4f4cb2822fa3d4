//! The decomposition value type and its one validity checker.
//!
//! `Decomposition::check` (crate-private) holds the rule every validator and consumer
//! plan applies, in one order: coverage and totality, then a per-cluster
//! measure supplied by the caller (strong or weak diameter, diameter
//! bounds, a BFS profile) whose failure means a disconnected cluster, then
//! properness over `G`'s edges or lazy `G^k` balls. The public validators
//! differ only in their measure, so they report the same first violation
//! for the same input.

use locality_graph::cluster::Clustering;
use locality_graph::metrics::{
    induced_diameter_bounds_with, induced_diameter_with, weak_diameter_with, DiameterScratch,
};
use locality_graph::power::PowerView;
use locality_graph::Graph;
use std::error::Error;
use std::fmt;

/// A strong-diameter network decomposition: a total clustering plus a color
/// per cluster.
///
/// Invariants (checked by [`Decomposition::validate`]):
/// 1. every node belongs to exactly one cluster;
/// 2. every cluster induces a connected subgraph;
/// 3. clusters joined by an edge of `G` have different colors.
///
/// # Example
/// ```
/// use locality_core::decomposition::Decomposition;
/// use locality_graph::prelude::*;
///
/// let g = Graph::path(4);
/// let clustering = Clustering::from_assignment(
///     vec![Some(0), Some(0), Some(1), Some(1)],
/// ).unwrap();
/// let d = Decomposition::new(clustering, vec![0, 1]).unwrap();
/// let q = d.validate(&g).unwrap();
/// assert_eq!(q.colors, 2);
/// assert_eq!(q.max_diameter, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    clustering: Clustering,
    colors: Vec<usize>,
}

/// Quality report of a valid decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompQuality {
    /// Number of distinct colors used.
    pub colors: usize,
    /// Maximum strong (induced) cluster diameter.
    pub max_diameter: u32,
    /// Number of clusters.
    pub clusters: usize,
}

/// Quality report of [`Decomposition::validate_bounded`]: the maximum strong
/// cluster diameter is certified to lie in
/// `[max_diameter_lower, max_diameter_upper]`; `exact` says the two
/// coincide (every cluster either took the exact scan or its double-sweep
/// bounds collapsed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompQualityBounds {
    /// Number of distinct colors used.
    pub colors: usize,
    /// Number of clusters.
    pub clusters: usize,
    /// Certified lower bound on the maximum strong cluster diameter.
    pub max_diameter_lower: u32,
    /// Certified upper bound on the maximum strong cluster diameter.
    pub max_diameter_upper: u32,
    /// Whether the bounds pin the diameter exactly.
    pub exact: bool,
}

/// Where [`Decomposition::check`] looks for adjacent clusters sharing a
/// colour.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Adjacency {
    /// The edges of `G` itself.
    Graph,
    /// The edges of `G^k` (node pairs within distance `k`), scanned one
    /// lazy radius-`k` ball per node so `G^k` is never materialized.
    Power(u32),
}

/// Validation failure for a [`Decomposition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// Construction: one color per cluster is required.
    ColorArity {
        /// Colors supplied.
        got: usize,
        /// Clusters present.
        clusters: usize,
    },
    /// Some node is not in any cluster.
    UnclusteredNode {
        /// The node.
        node: usize,
    },
    /// A cluster does not induce a connected subgraph.
    DisconnectedCluster {
        /// The cluster id.
        cluster: usize,
    },
    /// Two adjacent clusters share a color.
    AdjacentSameColor {
        /// First cluster.
        a: usize,
        /// Second cluster.
        b: usize,
        /// The shared color.
        color: usize,
    },
    /// The clustering has a different node count than the graph.
    WrongGraph {
        /// Nodes in the clustering.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
}

impl fmt::Display for DecompError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompError::ColorArity { got, clusters } => {
                write!(f, "{clusters} clusters but {got} colors supplied")
            }
            DecompError::UnclusteredNode { node } => write!(f, "node {node} is unclustered"),
            DecompError::DisconnectedCluster { cluster } => {
                write!(f, "cluster {cluster} induces a disconnected subgraph")
            }
            DecompError::AdjacentSameColor { a, b, color } => {
                write!(f, "adjacent clusters {a} and {b} share color {color}")
            }
            DecompError::WrongGraph { got, expected } => {
                write!(f, "clustering covers {got} nodes, graph has {expected}")
            }
        }
    }
}

impl Error for DecompError {}

impl Decomposition {
    /// Assemble a decomposition from a clustering and per-cluster colors.
    ///
    /// # Errors
    /// [`DecompError::ColorArity`] if `colors.len()` differs from the number
    /// of clusters.
    pub fn new(clustering: Clustering, colors: Vec<usize>) -> Result<Self, DecompError> {
        if colors.len() != clustering.cluster_count() {
            return Err(DecompError::ColorArity {
                got: colors.len(),
                clusters: clustering.cluster_count(),
            });
        }
        Ok(Self { clustering, colors })
    }

    /// The underlying clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Color of cluster `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn color_of_cluster(&self, c: usize) -> usize {
        self.colors[c]
    }

    /// Color of node `v` (its cluster's color); `None` if unclustered.
    pub fn color_of_node(&self, v: usize) -> Option<usize> {
        self.clustering.cluster_of(v).map(|c| self.colors[c])
    }

    /// Number of distinct colors used.
    pub fn color_count(&self) -> usize {
        let mut sorted = self.colors.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    /// Check all invariants against `g` and report quality.
    ///
    /// # Errors
    /// The first violated invariant, as a [`DecompError`].
    pub fn validate(&self, g: &Graph) -> Result<DecompQuality, DecompError> {
        let mut max_diameter = 0;
        let mut scratch = DiameterScratch::new(g.node_count());
        self.check(g, Adjacency::Graph, |members| {
            induced_diameter_with(g, members, &mut scratch)
                .map(|d| max_diameter = max_diameter.max(d))
        })?;
        Ok(self.quality(max_diameter))
    }

    /// Like [`Decomposition::validate`], but clusters larger than
    /// `exact_limit` nodes get certified diameter *bounds* (a three-BFS
    /// double sweep, `O(vol(C))`) instead of the exact diameter. That keeps
    /// validation near-linear on decompositions with giant clusters — the
    /// randomized producers build Ω(n)-node clusters once their shift radius
    /// passes the graph's own diameter. The exact diameter's eccentricity
    /// bounding usually runs a small fraction of one BFS per member, but the
    /// fraction is not bounded (its worst case is `O(|C| · vol(C))`): the
    /// largest MPX cluster of a `G(2.6 × 10⁵, 4/n)` (224 340 nodes) still
    /// takes 134 s and 4858 BFS exactly, against 0.09 s for the bounds, and
    /// at `n = 10⁶⁺` the exact pass is out of reach, hence the knob. All
    /// structural invariants (totality, connectivity, properness) are still
    /// checked exactly; only the diameter *report* relaxes to an interval.
    ///
    /// # Errors
    /// The first violated invariant, as a [`DecompError`].
    pub fn validate_bounded(
        &self,
        g: &Graph,
        exact_limit: usize,
    ) -> Result<DecompQualityBounds, DecompError> {
        let mut lower = 0u32;
        let mut upper = 0u32;
        let mut exact = true;
        let mut scratch = DiameterScratch::new(g.node_count());
        self.check(g, Adjacency::Graph, |members| {
            let (lo, hi) = if members.len() <= exact_limit {
                induced_diameter_with(g, members, &mut scratch).map(|d| (d, d))?
            } else {
                induced_diameter_bounds_with(g, members, &mut scratch)?
            };
            exact &= lo == hi;
            lower = lower.max(lo);
            upper = upper.max(hi);
            Some(())
        })?;
        Ok(DecompQualityBounds {
            colors: self.color_count(),
            clusters: self.clustering.cluster_count(),
            max_diameter_lower: lower,
            max_diameter_upper: upper,
            exact: exact || lower == upper,
        })
    }

    /// Like [`Decomposition::validate`] but with the *weak-diameter* notion
    /// used by Theorem 4.2: clusters need not induce connected subgraphs;
    /// instead every cluster must have finite weak diameter (its spanning
    /// tree may route through other clusters — congestion ≥ 1). Properness
    /// is still required. Returns the quality with `max_diameter` holding
    /// the maximum **weak** diameter.
    ///
    /// # Errors
    /// The first violated invariant, as a [`DecompError`]
    /// ([`DecompError::DisconnectedCluster`] here means "not even weakly
    /// connected in `G`").
    pub fn validate_weak(&self, g: &Graph) -> Result<DecompQuality, DecompError> {
        let mut max_diameter = 0;
        let mut scratch = DiameterScratch::new(g.node_count());
        self.check(g, Adjacency::Graph, |members| {
            weak_diameter_with(g, members, &mut scratch).map(|d| max_diameter = max_diameter.max(d))
        })?;
        Ok(self.quality(max_diameter))
    }

    /// Validate this decomposition against the power graph `G^k` **without
    /// materializing it** — equivalent to
    /// `self.validate_weak(&power_graph(g, k))`, which the SLOCAL→LOCAL
    /// reduction needs at scales where `G^k`'s edge set no longer fits the
    /// budget. Weak diameters transfer exactly (`dist_{G^k}(u, v) =
    /// ⌈dist_G(u, v) / k⌉`, and `⌈·⌉` is monotone, so the weak diameter in
    /// `G^k` is `⌈weak diameter in G / k⌉`); properness is checked by
    /// scanning each node's radius-`k` ball through a lazy [`PowerView`].
    ///
    /// # Errors
    /// The same violations [`Decomposition::validate_weak`] on the
    /// materialized power graph would report (for
    /// [`DecompError::AdjacentSameColor`] the offending *pair* may differ —
    /// balls are scanned per node rather than edges in canonical order).
    pub fn validate_weak_power(&self, g: &Graph, k: u32) -> Result<DecompQuality, DecompError> {
        let mut max_diameter = 0;
        let mut scratch = DiameterScratch::new(g.node_count());
        self.check(g, Adjacency::Power(k), |members| {
            weak_diameter_with(g, members, &mut scratch)
                .map(|d| max_diameter = max_diameter.max(d.div_ceil(k)))
        })?;
        Ok(self.quality(max_diameter))
    }

    fn quality(&self, max_diameter: u32) -> DecompQuality {
        DecompQuality {
            colors: self.color_count(),
            max_diameter,
            clusters: self.clustering.cluster_count(),
        }
    }

    /// The validity rule, written once for every validator and consumer
    /// plan: coverage and totality ([`Decomposition::check_total`]), then
    /// `measure` on each cluster's members in id order, then properness
    /// over `adjacency`. `measure` computes whatever the caller reports
    /// (a strong or weak diameter, bounds on one, a BFS profile) and
    /// returns `None` when the cluster is not connected in the caller's
    /// sense, which ends the check with [`DecompError::DisconnectedCluster`].
    ///
    /// # Errors
    /// The first violated invariant, in that order.
    pub(crate) fn check(
        &self,
        g: &Graph,
        adjacency: Adjacency,
        mut measure: impl FnMut(&[usize]) -> Option<()>,
    ) -> Result<(), DecompError> {
        self.check_total(g)?;
        for c in 0..self.clustering.cluster_count() {
            if measure(self.clustering.members(c)).is_none() {
                return Err(DecompError::DisconnectedCluster { cluster: c });
            }
        }
        // audit: allow(panic) -- totality was checked on the first line
        let cluster = |v: usize| self.clustering.cluster_of(v).expect("total");
        let clash = |a: usize, b: usize| {
            if a != b && self.colors[a] == self.colors[b] {
                return Err(DecompError::AdjacentSameColor {
                    a,
                    b,
                    color: self.colors[a],
                });
            }
            Ok(())
        };
        match adjacency {
            Adjacency::Graph => {
                for (u, v) in g.edges() {
                    clash(cluster(u), cluster(v))?;
                }
            }
            Adjacency::Power(k) => {
                let mut view = PowerView::new(g, k);
                for u in g.nodes() {
                    let cu = cluster(u);
                    for &(w, _) in view.ball_of(u) {
                        let cw = cluster(w as usize);
                        clash(cu.min(cw), cu.max(cw))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Coverage and totality: the clustering spans exactly `g`'s nodes and
    /// leaves none of them unclustered. The first step of every check, and
    /// all that decomposition repair asks of its input.
    ///
    /// # Errors
    /// [`DecompError::WrongGraph`] or [`DecompError::UnclusteredNode`].
    pub(crate) fn check_total(&self, g: &Graph) -> Result<(), DecompError> {
        if self.clustering.node_count() != g.node_count() {
            return Err(DecompError::WrongGraph {
                got: self.clustering.node_count(),
                expected: g.node_count(),
            });
        }
        match self.clustering.unclustered().first() {
            Some(&node) => Err(DecompError::UnclusteredNode { node }),
            None => Ok(()),
        }
    }

    /// The trivial decomposition: every node its own cluster, all color 0 is
    /// illegal unless the graph has no edges, so singletons are colored by a
    /// greedy proper coloring of `g` itself (used as a baseline in tests).
    pub fn singletons_greedy(g: &Graph) -> Self {
        let clustering = Clustering::singletons(g.node_count());
        let mut colors = vec![usize::MAX; g.node_count()];
        for v in g.nodes() {
            let used: Vec<usize> = g
                .neighbors(v)
                .iter()
                .map(|&u| colors[u])
                .filter(|&c| c != usize::MAX)
                .collect();
            // audit: allow(panic) -- unbounded color search: fewer forbidden colors than candidates
            colors[v] = (0..).find(|c| !used.contains(c)).expect("color exists");
        }
        Self::new(clustering, colors).expect("arity matches") // audit: allow(panic) -- arity/contiguity established by construction on the preceding lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_two_cluster_path() {
        let g = Graph::path(4);
        let c = Clustering::from_assignment(vec![Some(0), Some(0), Some(1), Some(1)]).unwrap();
        let d = Decomposition::new(c, vec![3, 5]).unwrap();
        let q = d.validate(&g).unwrap();
        assert_eq!(q.colors, 2);
        assert_eq!(q.clusters, 2);
        assert_eq!(d.color_of_node(0), Some(3));
    }

    #[test]
    fn color_arity_checked() {
        let c = Clustering::singletons(3);
        let err = Decomposition::new(c, vec![0]).unwrap_err();
        assert!(matches!(
            err,
            DecompError::ColorArity {
                got: 1,
                clusters: 3
            }
        ));
    }

    #[test]
    fn unclustered_node_rejected() {
        let g = Graph::path(3);
        let c = Clustering::from_assignment(vec![Some(0), Some(0), None]).unwrap();
        let d = Decomposition::new(c, vec![0]).unwrap();
        assert_eq!(
            d.validate(&g).unwrap_err(),
            DecompError::UnclusteredNode { node: 2 }
        );
    }

    #[test]
    fn disconnected_cluster_rejected() {
        let g = Graph::path(3);
        // Cluster {0, 2} is disconnected in the induced subgraph.
        let c = Clustering::from_assignment(vec![Some(0), Some(1), Some(0)]).unwrap();
        let d = Decomposition::new(c, vec![0, 1]).unwrap();
        assert_eq!(
            d.validate(&g).unwrap_err(),
            DecompError::DisconnectedCluster { cluster: 0 }
        );
    }

    #[test]
    fn adjacent_same_color_rejected() {
        let g = Graph::path(4);
        let c = Clustering::from_assignment(vec![Some(0), Some(0), Some(1), Some(1)]).unwrap();
        let d = Decomposition::new(c, vec![7, 7]).unwrap();
        assert!(matches!(
            d.validate(&g).unwrap_err(),
            DecompError::AdjacentSameColor { color: 7, .. }
        ));
    }

    #[test]
    fn validate_bounded_agrees_with_exact_validate() {
        let mut p = SplitMix64::new(23);
        for fam in locality_graph::generators::Family::ALL {
            let g = fam.generate(60, &mut p);
            let d = Decomposition::singletons_greedy(&g);
            let exact = d.validate(&g).unwrap();
            // Exact path for every cluster: identical report.
            let q = d.validate_bounded(&g, usize::MAX).unwrap();
            assert_eq!(q.colors, exact.colors);
            assert_eq!(q.clusters, exact.clusters);
            assert_eq!(q.max_diameter_lower, exact.max_diameter);
            assert_eq!(q.max_diameter_upper, exact.max_diameter);
            assert!(q.exact);
            // Bounds path for every cluster: the interval must bracket it.
            let b = d.validate_bounded(&g, 0).unwrap();
            assert!(b.max_diameter_lower <= exact.max_diameter);
            assert!(exact.max_diameter <= b.max_diameter_upper);
        }
    }

    #[test]
    fn validate_bounded_rejects_what_validate_rejects() {
        let g = Graph::path(3);
        let c = Clustering::from_assignment(vec![Some(0), Some(1), Some(0)]).unwrap();
        let d = Decomposition::new(c, vec![0, 1]).unwrap();
        // Disconnection is caught on both the exact and the bounds path.
        for limit in [usize::MAX, 0] {
            assert_eq!(
                d.validate_bounded(&g, limit).unwrap_err(),
                DecompError::DisconnectedCluster { cluster: 0 }
            );
        }
        let g = Graph::path(4);
        let c = Clustering::from_assignment(vec![Some(0), Some(0), Some(1), Some(1)]).unwrap();
        let d = Decomposition::new(c, vec![7, 7]).unwrap();
        assert!(matches!(
            d.validate_bounded(&g, usize::MAX).unwrap_err(),
            DecompError::AdjacentSameColor { color: 7, .. }
        ));
    }

    #[test]
    fn wrong_graph_rejected() {
        let g = Graph::path(5);
        let c = Clustering::singletons(3);
        let d = Decomposition::new(c, vec![0, 1, 2]).unwrap();
        assert!(matches!(
            d.validate(&g).unwrap_err(),
            DecompError::WrongGraph {
                got: 3,
                expected: 5
            }
        ));
    }

    #[test]
    fn singleton_baseline_valid_on_families() {
        let mut p = SplitMix64::new(1);
        for fam in locality_graph::generators::Family::ALL {
            let g = fam.generate(50, &mut p);
            let d = Decomposition::singletons_greedy(&g);
            let q = d.validate(&g).unwrap();
            assert_eq!(q.max_diameter, 0);
            assert!(q.colors <= g.max_degree() + 1);
        }
    }

    use locality_rand::prng::SplitMix64;

    #[test]
    fn validate_weak_power_matches_materialized() {
        use crate::decomposition::carving::ball_carving_decomposition;
        use locality_graph::power::power_graph;
        let mut p = SplitMix64::new(9);
        for fam in locality_graph::generators::Family::ALL {
            let g = fam.generate(48, &mut p);
            for k in [2u32, 3, 5] {
                let gp = power_graph(&g, k);
                let order: Vec<usize> = (0..gp.node_count()).collect();
                let d = ball_carving_decomposition(&gp, &order).decomposition;
                assert_eq!(
                    d.validate_weak_power(&g, k),
                    d.validate_weak(&gp),
                    "{} k={k}",
                    fam.name()
                );
            }
        }
        // Improper against the power graph: both must reject (pair identity
        // may differ, so compare the variant shape only).
        let g = Graph::path(4);
        let c = Clustering::from_assignment(vec![Some(0), Some(1), Some(2), Some(3)]).unwrap();
        let d = Decomposition::new(c, vec![0, 1, 0, 1]).unwrap();
        let gp = power_graph(&g, 2);
        assert!(matches!(
            d.validate_weak_power(&g, 2),
            Err(DecompError::AdjacentSameColor { .. })
        ));
        assert!(matches!(
            d.validate_weak(&gp),
            Err(DecompError::AdjacentSameColor { .. })
        ));
    }

    /// Every validator and plan gives the same, pinned answer on five broken
    /// inputs: a wrong node count, an unclustered node, a cluster split
    /// across components of `G`, adjacent clusters sharing a colour, and a
    /// decomposition broken both ways (cluster 0 split, and adjacent to the
    /// same-coloured cluster 1), where connectivity is checked first.
    #[test]
    fn validators_report_pinned_errors() {
        use crate::consume::plan_consumer;
        use crate::slocal::plan_reduction;
        use DecompError::*;
        let decomp = |assignment: Vec<Option<usize>>, colors: Vec<usize>| {
            Decomposition::new(Clustering::from_assignment(assignment).unwrap(), colors).unwrap()
        };
        let two_edges = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let split = vec![Some(0), Some(1), Some(0), Some(2)];
        let clash = AdjacentSameColor {
            a: 0,
            b: 1,
            color: 7,
        };
        let cases = [
            (
                Graph::path(5),
                Decomposition::new(Clustering::singletons(3), vec![0, 1, 2]).unwrap(),
                WrongGraph {
                    got: 3,
                    expected: 5,
                },
            ),
            (
                Graph::path(3),
                decomp(vec![Some(0), Some(0), None], vec![0]),
                UnclusteredNode { node: 2 },
            ),
            (
                two_edges.clone(),
                decomp(split.clone(), vec![0, 1, 2]),
                DisconnectedCluster { cluster: 0 },
            ),
            (
                Graph::path(4),
                decomp(vec![Some(0), Some(0), Some(1), Some(1)], vec![7, 7]),
                clash,
            ),
            (
                two_edges,
                decomp(split, vec![0, 0, 1]),
                DisconnectedCluster { cluster: 0 },
            ),
        ];
        for (g, d, want) in cases {
            let got = [
                d.validate(&g).map(drop),
                d.validate_bounded(&g, usize::MAX).map(drop),
                d.validate_bounded(&g, 0).map(drop),
                d.validate_weak(&g).map(drop),
                d.validate_weak_power(&g, 3).map(drop),
                plan_consumer(&g, &d).map(drop),
                plan_reduction(&g, 1, &d).map(drop),
            ];
            assert_eq!(got, [(); 7].map(|()| Err(want.clone())), "{want}");
        }
    }

    #[test]
    fn errors_display() {
        let e = DecompError::UnclusteredNode { node: 9 };
        assert!(e.to_string().contains('9'));
    }
}
