//! Deterministic sequential ball-carving decomposition.
//!
//! The classic halving construction behind [LS93]/[AGLP89] (DESIGN.md §4,
//! substitution 1): for each color `i`, sweep the still-unclustered nodes; at
//! each pick, grow a ball in the remaining graph until the next layer fails
//! to double the ball (`|B(r+1)| < 2·|B(r)|`, forcing `r ≤ log2 n`), carve
//! the interior `B(r)` as a cluster of color `i`, and set the boundary layer
//! aside for later colors. Per color, the interiors outnumber the deferred
//! boundaries, so the unclustered set at least halves: `O(log n)` colors.
//! Same-color clusters are non-adjacent because each cluster's whole boundary
//! was removed from the color's working set.
//!
//! This is an SLOCAL algorithm with locality `O(log n)` per carved ball; the
//! reported round cost is the honest *sequential* bound
//! `Σ_balls O(ball radius)` (the paper's deterministic finisher [PS92] would
//! be `2^{O(√log n)}` distributed rounds — we report both, see the bench).

use crate::decomposition::types::Decomposition;
use locality_graph::cluster::Clustering;
use locality_graph::Graph;

/// Result of ball carving.
#[derive(Debug, Clone)]
pub struct CarvingResult {
    /// The decomposition (always succeeds — the algorithm is deterministic).
    pub decomposition: Decomposition,
    /// Number of colors used.
    pub colors: usize,
    /// Largest carved ball radius.
    pub max_radius: u32,
    /// Sequential round cost: `Σ O(radius + 1)` over carved balls.
    pub sequential_rounds: u64,
}

/// Working memory of the carving BFS, reused by every ball of one
/// decomposition: an epoch-stamped visited array (bumping the epoch clears
/// it in `O(1)`) and the layers grown so far, flat.
struct BallScratch {
    stamp: Vec<u64>,
    epoch: u64,
    /// The ball's nodes, layer by layer in BFS order.
    nodes: Vec<usize>,
    /// `nodes[starts[i]..starts[i + 1]]` is layer `i`.
    starts: Vec<usize>,
}

impl BallScratch {
    fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            epoch: 0,
            nodes: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Grow a ball around `v` in the subgraph induced by `avail` until the
    /// next layer is smaller than the current ball, and return its radius
    /// `r`. The BFS stops at layer `r + 1`, the last one the rule reads:
    /// afterwards [`Self::interior`] holds layers `0..=r` and
    /// [`Self::boundary`] layer `r + 1`.
    fn grow(&mut self, g: &Graph, v: usize, avail: &[bool]) -> u32 {
        debug_assert!(avail[v]);
        self.epoch += 1;
        self.stamp[v] = self.epoch;
        self.nodes.clear();
        self.nodes.push(v);
        self.starts.clear();
        self.starts.extend([0, 1]);
        let mut ball_size = 1usize;
        let mut r = 0u32;
        loop {
            let layer = self.starts[r as usize]..self.starts[r as usize + 1];
            for i in layer.clone() {
                for &w in g.neighbors(self.nodes[i]) {
                    if avail[w] && self.stamp[w] != self.epoch {
                        self.stamp[w] = self.epoch;
                        self.nodes.push(w);
                    }
                }
            }
            self.starts.push(self.nodes.len());
            let next = self.nodes.len() - layer.end;
            if next < ball_size {
                return r;
            }
            ball_size += next;
            r += 1;
        }
    }

    /// Layers `0..=r` of the last ball grown.
    fn interior(&self) -> &[usize] {
        &self.nodes[..self.starts[self.starts.len() - 2]]
    }

    /// Layer `r + 1` of the last ball grown.
    fn boundary(&self) -> &[usize] {
        &self.nodes[self.starts[self.starts.len() - 2]..]
    }
}

/// Compute a deterministic `(O(log n), O(log n))` strong-diameter
/// decomposition by sequential ball carving.
///
/// `order` fixes the sweep order (typically by identifier); it must be a
/// permutation of the nodes.
///
/// # Example
/// ```
/// use locality_core::decomposition::ball_carving_decomposition;
/// use locality_graph::prelude::*;
///
/// let g = Graph::grid(6, 6);
/// let order: Vec<usize> = (0..36).collect();
/// let r = ball_carving_decomposition(&g, &order);
/// let q = r.decomposition.validate(&g).unwrap();
/// assert!(q.colors <= 7); // ≤ log2(36) + 1
/// ```
///
/// # Panics
/// Panics if `order` is not a permutation of the nodes.
pub fn ball_carving_decomposition(g: &Graph, order: &[usize]) -> CarvingResult {
    let n = g.node_count();
    assert_eq!(order.len(), n, "order must cover all nodes");
    {
        let mut seen = vec![false; n];
        for &v in order {
            assert!(v < n && !seen[v], "order must be a permutation");
            seen[v] = true;
        }
    }

    let mut unclustered = vec![true; n];
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut cluster_colors: Vec<usize> = Vec::new();
    let mut remaining = n;
    let mut color = 0usize;
    let mut max_radius = 0u32;
    let mut sequential_rounds = 0u64;
    let mut ball = BallScratch::new(n);

    while remaining > 0 {
        // This color's working set: all currently unclustered nodes.
        let mut avail = unclustered.clone();
        for &v in order {
            if !avail[v] {
                continue;
            }
            let r = ball.grow(g, v, &avail);
            max_radius = max_radius.max(r);
            sequential_rounds += (r as u64 + 1) * 2;
            let cluster_id = cluster_colors.len();
            cluster_colors.push(color);
            for &u in ball.interior() {
                labels[u] = Some(cluster_id);
                unclustered[u] = false;
                avail[u] = false;
                remaining -= 1;
            }
            for &u in ball.boundary() {
                avail[u] = false; // deferred to a later color
            }
        }
        color += 1;
        assert!(
            color <= 2 * (64 - (n.max(2) as u64 - 1).leading_zeros()) as usize + 2,
            "halving argument violated — bug"
        );
    }

    let clustering =
        Clustering::from_assignment(labels).expect("carving assigns contiguous cluster ids"); // audit: allow(panic) -- arity/contiguity established by construction on the preceding lines
    let decomposition =
        Decomposition::new(clustering, cluster_colors).expect("one color per cluster"); // audit: allow(panic) -- arity/contiguity established by construction on the preceding lines
    CarvingResult {
        decomposition,
        colors: color,
        max_radius,
        sequential_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::generators::Family;
    use locality_rand::prng::SplitMix64;

    fn identity_order(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn valid_on_all_families() {
        let mut seed = SplitMix64::new(17);
        for fam in Family::ALL {
            for n in [16, 60, 150] {
                let g = fam.generate(n, &mut seed);
                let r = ball_carving_decomposition(&g, &identity_order(g.node_count()));
                let q = r.decomposition.validate(&g).unwrap_or_else(|e| {
                    panic!("{} n={n}: {e}", fam.name());
                });
                let log = g.log2_n() as usize;
                assert!(
                    q.colors <= log + 1,
                    "{} n={n}: {} colors > log+1={}",
                    fam.name(),
                    q.colors,
                    log + 1
                );
                assert!(
                    r.max_radius <= g.log2_n(),
                    "{} n={n}: radius {} > log n",
                    fam.name(),
                    r.max_radius
                );
            }
        }
    }

    #[test]
    fn diameter_bounded_by_two_log() {
        let mut seed = SplitMix64::new(23);
        let g = Graph::gnp_connected(200, 0.015, &mut seed);
        let r = ball_carving_decomposition(&g, &identity_order(200));
        let q = r.decomposition.validate(&g).unwrap();
        assert!(q.max_diameter <= 2 * g.log2_n());
    }

    #[test]
    fn clique_is_one_cluster() {
        let g = Graph::complete(8);
        let r = ball_carving_decomposition(&g, &identity_order(8));
        let q = r.decomposition.validate(&g).unwrap();
        assert_eq!(q.clusters, 1);
        assert_eq!(q.colors, 1);
    }

    #[test]
    fn path_carving_uses_few_colors() {
        let g = Graph::path(64);
        let r = ball_carving_decomposition(&g, &identity_order(64));
        let q = r.decomposition.validate(&g).unwrap();
        assert!(q.colors <= 7);
    }

    #[test]
    fn empty_and_isolated() {
        let g = Graph::empty(5);
        let r = ball_carving_decomposition(&g, &identity_order(5));
        let q = r.decomposition.validate(&g).unwrap();
        assert_eq!(q.clusters, 5);
        assert_eq!(q.colors, 1);
        let g0 = Graph::empty(0);
        let r0 = ball_carving_decomposition(&g0, &[]);
        assert_eq!(r0.colors, 0);
    }

    #[test]
    fn order_is_respected_but_any_order_valid() {
        let mut seed = SplitMix64::new(31);
        let g = Graph::gnp_connected(80, 0.04, &mut seed);
        let fwd = ball_carving_decomposition(&g, &identity_order(80));
        let rev_order: Vec<usize> = (0..80).rev().collect();
        let rev = ball_carving_decomposition(&g, &rev_order);
        fwd.decomposition.validate(&g).unwrap();
        rev.decomposition.validate(&g).unwrap();
    }

    /// FNV-1a over every node's cluster and every cluster's colour.
    fn label_fingerprint(d: &Decomposition) -> u64 {
        let c = d.clustering();
        let labels = (0..c.node_count()).map(|v| c.cluster_of(v).map_or(u64::MAX, |k| k as u64));
        let colors = (0..c.cluster_count()).map(|k| d.color_of_cluster(k) as u64);
        labels
            .chain(colors)
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn labels_match_the_whole_component_bfs() {
        // Fingerprints of the labels carving produced while every ball's BFS
        // still ran over the whole available component. A ball depends only
        // on layers 0..=r+1, so stopping there must not move one label.
        let sparse = Graph::gnp(
            10_000,
            4.0 / 10_000.0,
            &mut SplitMix64::new(256_998_794_193_483_745),
        );
        for (name, g, want) in [
            ("path(8000)", Graph::path(8000), 0x5bec_9260_2f14_c51c_u64),
            ("grid(64, 64)", Graph::grid(64, 64), 0x68c0_5d3b_892b_5b6d),
            ("G(10^4, 4/n)", sparse, 0x6239_6a8b_2294_15c6),
        ] {
            let r = ball_carving_decomposition(&g, &identity_order(g.node_count()));
            assert_eq!(label_fingerprint(&r.decomposition), want, "{name}");
        }
    }

    #[test]
    #[should_panic]
    fn non_permutation_rejected() {
        let g = Graph::path(3);
        let _ = ball_carving_decomposition(&g, &[0, 0, 1]);
    }
}
