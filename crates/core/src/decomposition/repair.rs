//! Incremental decomposition repair after a batch of edge edits.
//!
//! The paper's BFS-ball locality is exactly the structure an edit can
//! exploit: an edge flip at `{u, v}` influences only the clusters within an
//! `O(cap)`-radius ball of the endpoints. [`repair_decomposition`] computes
//! that *dirty region* (BFS balls around every touched endpoint via the
//! shared [`BfsScratch`]), re-derandomizes only the induced subgraph on the
//! dirty clusters with the incremental conditional-expectations engine, and
//! splices the fresh sub-clusters back among the untouched ones. When the
//! dirty region grows past [`RepairOptions::max_region_fraction`] of the
//! graph the incremental path would not beat a rebuild, so it falls back to
//! a full re-derandomization — the typed [`RepairOutcome`] reports which
//! path ran and how much was touched.
//!
//! **Why splicing is sound.** Every changed edge has both endpoints at
//! distance 0 of a BFS seed, so both endpoint clusters are dirty. A *kept*
//! cluster therefore contains no endpoint of any changed edge: its member
//! set, its induced edges (hence connectivity and diameter), and its
//! adjacencies to other kept clusters are all bit-identical before and after
//! the batch. Only the new sub-clusters need colors, and a greedy
//! smallest-free-color pass over the (already colored) neighborhood keeps
//! the coloring proper. The whole path is deterministic, and bit-identical
//! across thread counts because the only threaded stage is the
//! bucket-invariant derandomization engine.

use crate::decomposition::cond_expect::derandomized_decomposition_threads;
use crate::decomposition::types::{DecompError, Decomposition};
use locality_graph::edits::EditBatch;
use locality_graph::prelude::{bfs_visited, BfsScratch};
use locality_graph::{Clustering, Graph, InducedSubgraph};

/// Tuning knobs for [`repair_decomposition`], built via `Default` + `with_*`.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairOptions {
    /// Cluster-diameter cap handed to the derandomized engine, and the BFS
    /// radius of the dirty balls (clamped to at least 2 for the engine).
    pub cap: u32,
    /// Worker threads for the engine (`0` = auto). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// When the dirty region exceeds this fraction of all nodes, repair
    /// falls back to a full rebuild.
    pub max_region_fraction: f64,
}

impl Default for RepairOptions {
    fn default() -> Self {
        Self {
            cap: 8,
            threads: 0,
            max_region_fraction: 0.5,
        }
    }
}

impl RepairOptions {
    /// The defaults: cap 8, auto threads, fall back above half the graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set [`RepairOptions::cap`].
    pub fn with_cap(mut self, cap: u32) -> Self {
        self.cap = cap;
        self
    }

    /// Set [`RepairOptions::threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set [`RepairOptions::max_region_fraction`].
    pub fn with_max_region_fraction(mut self, fraction: f64) -> Self {
        self.max_region_fraction = fraction;
        self
    }
}

/// Which path [`repair_decomposition`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPath {
    /// Only the dirty region was re-derandomized and spliced.
    Incremental,
    /// The dirty region was too large; the decomposition was rebuilt whole.
    FullRebuild,
}

/// The result of a repair: the new decomposition plus provenance.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired decomposition, valid for the *edited* graph.
    pub decomposition: Decomposition,
    /// Which path ran.
    pub path: RepairPath,
    /// Number of old clusters invalidated by the dirty region.
    pub dirty_clusters: usize,
    /// Number of nodes in the re-derandomized region.
    pub region_nodes: usize,
    /// For each cluster of the repaired decomposition, `Some(old_id)` if it
    /// is an old cluster carried over unchanged (same members, same color),
    /// `None` if it is new. Consumers use this to migrate per-cluster
    /// caches (e.g. weak diameters) instead of recomputing them.
    pub provenance: Vec<Option<usize>>,
}

/// Repair `old` — a decomposition of the pre-edit graph — into a
/// decomposition of `new_g`, the graph produced by applying `batch`.
///
/// `new_g` must be the result of `old_graph.apply_edits(batch)`; in
/// particular the node count is unchanged. The old decomposition must be
/// total (every node clustered), as produced by every decomposition routine
/// in this crate.
///
/// # Errors
/// [`DecompError::WrongGraph`] if `old` does not cover `new_g`'s nodes, and
/// [`DecompError::UnclusteredNode`] if `old` leaves a node unclustered.
pub fn repair_decomposition(
    new_g: &Graph,
    old: &Decomposition,
    batch: &EditBatch,
    opts: &RepairOptions,
) -> Result<RepairOutcome, DecompError> {
    old.check_total(new_g)?;
    let n = new_g.node_count();
    let k_old = old.clustering().cluster_count();
    if batch.is_empty() {
        return Ok(RepairOutcome {
            decomposition: old.clone(),
            path: RepairPath::Incremental,
            dirty_clusters: 0,
            region_nodes: 0,
            provenance: (0..k_old).map(Some).collect(),
        });
    }
    let cap = opts.cap.max(2);
    let threads = opts.threads;

    // Dirty region: clusters intersecting a radius-`cap` ball around any
    // touched endpoint. Seeds sit at distance 0, so both endpoint clusters
    // of every changed edge are always dirty.
    let mut dirty = vec![false; k_old];
    let mut scratch = BfsScratch::new(n);
    let mut ball: Vec<(u32, u32)> = Vec::new();
    for &s in &batch.touched_nodes() {
        bfs_visited(new_g, s, cap, &mut scratch, &mut ball);
        for &(node, _) in &ball {
            let c = old
                .clustering()
                .cluster_of(node as usize)
                .expect("old decomposition is total"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
            dirty[c] = true;
        }
    }
    let dirty_clusters = dirty.iter().filter(|&&d| d).count();
    let region_nodes: usize = (0..k_old)
        .filter(|&c| dirty[c])
        .map(|c| old.clustering().members(c).len())
        .sum();

    if region_nodes as f64 > opts.max_region_fraction * n as f64 {
        let rebuilt = derandomized_decomposition_threads(new_g, cap, threads);
        let k_new = rebuilt.decomposition.clustering().cluster_count();
        return Ok(RepairOutcome {
            decomposition: rebuilt.decomposition,
            path: RepairPath::FullRebuild,
            dirty_clusters,
            region_nodes,
            provenance: vec![None; k_new],
        });
    }

    // Kept clusters carry over in ascending old-id order as ids 0..kept.
    let mut new_id_of_old: Vec<Option<usize>> = vec![None; k_old];
    let mut provenance: Vec<Option<usize>> = Vec::with_capacity(k_old);
    let mut colors: Vec<usize> = Vec::with_capacity(k_old);
    for c in 0..k_old {
        if !dirty[c] {
            new_id_of_old[c] = Some(provenance.len());
            provenance.push(Some(c));
            colors.push(old.color_of_cluster(c));
        }
    }
    let kept = provenance.len();

    // Re-derandomize the induced subgraph on the dirty clusters' members.
    let region: Vec<usize> = (0..k_old)
        .filter(|&c| dirty[c])
        .flat_map(|c| old.clustering().members(c).iter().copied())
        .collect();
    let sub = InducedSubgraph::new(new_g, &region);
    let sub_run = derandomized_decomposition_threads(sub.graph(), cap, threads);
    let sub_d = sub_run.decomposition;
    let k_sub = sub_d.clustering().cluster_count();

    // Splice: assignment with kept ids 0..kept, sub ids kept..kept+k_sub.
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    for (v, slot) in assignment.iter_mut().enumerate() {
        let c = old.clustering().cluster_of(v).expect("total"); // audit: allow(panic) -- clustering is total over clustered nodes, validated where it was built
        if let Some(id) = new_id_of_old[c] {
            *slot = Some(id);
        }
    }
    for (local, v) in sub.originals().iter().enumerate() {
        let sc = sub_d
            .clustering()
            .cluster_of(local)
            .expect("derandomized decompositions are total"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
        assignment[*v] = Some(kept + sc);
    }
    let clustering = Clustering::from_assignment(assignment)
        .expect("kept and sub ids are contiguous by construction"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition

    // Greedy smallest-free-color for the new clusters, in id order: each
    // avoids the colors of every adjacent already-colored cluster (all kept
    // clusters plus lower-indexed new ones).
    provenance.resize(kept + k_sub, None);
    for c in kept..kept + k_sub {
        let mut forbidden: Vec<usize> = Vec::new();
        for &v in clustering.members(c) {
            for &u in new_g.neighbors(v) {
                let cu = clustering.cluster_of(u).expect("total by construction"); // audit: allow(panic) -- clustering is total over clustered nodes, validated where it was built
                if cu != c && cu < colors.len() {
                    forbidden.push(colors[cu]);
                }
            }
        }
        forbidden.sort_unstable();
        forbidden.dedup();
        let mut color = 0usize;
        for f in forbidden {
            if f == color {
                color += 1;
            } else if f > color {
                break;
            }
        }
        colors.push(color);
    }

    let decomposition = Decomposition::new(clustering, colors)?;
    Ok(RepairOutcome {
        decomposition,
        path: RepairPath::Incremental,
        dirty_clusters,
        region_nodes,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::cond_expect::derandomized_decomposition;
    use locality_graph::prelude::random_edit_script;
    use locality_rand::prng::SplitMix64;

    fn toggle_one(g: &Graph, seed: u64) -> EditBatch {
        let mut prng = SplitMix64::new(seed);
        let batch = random_edit_script(g, 1, g.node_count(), &mut prng);
        assert!(!batch.is_empty(), "one toggle always possible on n >= 2");
        batch
    }

    #[test]
    fn empty_batch_is_identity_with_full_provenance() {
        let g = Graph::grid(6, 6);
        let old = derandomized_decomposition(&g, 4).decomposition;
        let out = repair_decomposition(&g, &old, &EditBatch::new(), &RepairOptions::new()).unwrap();
        assert_eq!(out.decomposition, old);
        assert_eq!(out.path, RepairPath::Incremental);
        assert_eq!(out.dirty_clusters, 0);
        assert!(out
            .provenance
            .iter()
            .enumerate()
            .all(|(i, p)| *p == Some(i)));
    }

    #[test]
    fn incremental_repair_validates_on_the_edited_graph() {
        let mut prng = SplitMix64::new(9);
        let g = Graph::gnp_connected(120, 0.04, &mut prng);
        let old = derandomized_decomposition(&g, 4).decomposition;
        for seed in 0..8u64 {
            let batch = toggle_one(&g, 1000 + seed);
            let h = g.apply_edits(&batch).unwrap();
            let out = repair_decomposition(&h, &old, &batch, &RepairOptions::new()).unwrap();
            out.decomposition
                .validate(&h)
                .expect("repaired decomposition is valid on the edited graph");
            assert!(out.dirty_clusters >= 1);
            assert!(out.region_nodes >= 2);
        }
    }

    #[test]
    fn kept_clusters_match_provenance() {
        let mut prng = SplitMix64::new(21);
        let g = Graph::gnp_connected(150, 0.03, &mut prng);
        let old = derandomized_decomposition(&g, 4).decomposition;
        let batch = toggle_one(&g, 5);
        let h = g.apply_edits(&batch).unwrap();
        let out = repair_decomposition(&h, &old, &batch, &RepairOptions::new()).unwrap();
        if out.path == RepairPath::Incremental {
            let mut kept_seen = 0;
            for (c, p) in out.provenance.iter().enumerate() {
                if let Some(old_id) = p {
                    kept_seen += 1;
                    assert_eq!(
                        out.decomposition.clustering().members(c),
                        old.clustering().members(*old_id),
                        "kept clusters keep their members"
                    );
                    assert_eq!(
                        out.decomposition.color_of_cluster(c),
                        old.color_of_cluster(*old_id),
                        "kept clusters keep their colors"
                    );
                }
            }
            assert_eq!(
                kept_seen,
                old.clustering().cluster_count() - out.dirty_clusters
            );
        }
    }

    #[test]
    fn forced_fallback_equals_scratch_rebuild() {
        let mut prng = SplitMix64::new(33);
        let g = Graph::gnp_connected(100, 0.05, &mut prng);
        let old = derandomized_decomposition(&g, 4).decomposition;
        let batch = toggle_one(&g, 7);
        let h = g.apply_edits(&batch).unwrap();
        let opts = RepairOptions::new()
            .with_cap(4)
            .with_max_region_fraction(0.0);
        let out = repair_decomposition(&h, &old, &batch, &opts).unwrap();
        assert_eq!(out.path, RepairPath::FullRebuild);
        let scratch = derandomized_decomposition(&h, 4).decomposition;
        assert_eq!(out.decomposition, scratch);
        assert!(out.provenance.iter().all(Option::is_none));
    }

    #[test]
    fn repair_is_bit_identical_across_thread_counts() {
        let mut prng = SplitMix64::new(55);
        let g = Graph::gnp_connected(140, 0.035, &mut prng);
        let old = derandomized_decomposition(&g, 4).decomposition;
        let batch = random_edit_script(&g, 6, g.node_count(), &mut SplitMix64::new(2));
        let h = g.apply_edits(&batch).unwrap();
        let base =
            repair_decomposition(&h, &old, &batch, &RepairOptions::new().with_threads(1)).unwrap();
        for threads in [2usize, 4, 7] {
            let out = repair_decomposition(
                &h,
                &old,
                &batch,
                &RepairOptions::new().with_threads(threads),
            )
            .unwrap();
            assert_eq!(out.decomposition, base.decomposition);
            assert_eq!(out.provenance, base.provenance);
        }
    }

    #[test]
    fn wrong_graph_is_rejected() {
        let g = Graph::cycle(10);
        let old = derandomized_decomposition(&g, 4).decomposition;
        let bigger = Graph::cycle(12);
        let err = repair_decomposition(&bigger, &old, &EditBatch::new(), &RepairOptions::new())
            .unwrap_err();
        assert!(matches!(err, DecompError::WrongGraph { .. }));
    }
}
