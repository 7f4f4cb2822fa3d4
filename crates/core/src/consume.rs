//! Shared machinery of the decomposition *consumers* (deterministic MIS,
//! coloring, and the SLOCAL→LOCAL reduction): the validated
//! [`ConsumerPlan`], which the round bill and the quality report are both
//! derived from, and the one color-class [`sweep`] all three run, each
//! supplying only its per-cluster step.
//!
//! The theorem itself grants the parallelism: same-color clusters of a valid
//! decomposition are non-adjacent (properness), so processing them
//! concurrently can never observe each other's writes. As in the
//! derandomizer (`decomposition::cond_incremental`), the cluster list of a
//! class is split into [`BUCKETS`] fixed contiguous index ranges; each
//! bucket's staged outputs are collected separately and merged in bucket
//! order, so the work distribution over [`std::thread::scope`] threads never
//! affects any observable value — outputs are bit-identical for every thread
//! count.

use crate::decomposition::types::{Adjacency, DecompError, DecompQuality, Decomposition};
use locality_graph::metrics::{induced_diameter_with, DiameterScratch};
use locality_graph::Graph;

/// Number of fixed cluster buckets per color class (bucket boundaries — and
/// hence staged-output merge order — are independent of thread count).
const BUCKETS: usize = 64;

/// Below this many member nodes in a color class the clusters are processed
/// on the calling thread: scoped-thread setup costs more than the work.
const PARALLEL_MIN_MEMBERS: usize = 4096;

/// Resolve a `threads` argument (`0` = all available cores).
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

/// A consumer's view of a validated decomposition: clusters grouped by color
/// (ascending), plus the per-cluster induced diameter the round accounting
/// charges.
#[derive(Debug, Clone)]
pub(crate) struct ConsumerPlan {
    /// `(color, cluster ids ascending)` in ascending color order.
    pub classes: Vec<(usize, Vec<u32>)>,
    /// Induced (strong) diameter per cluster.
    pub diam: Vec<u32>,
}

impl ConsumerPlan {
    /// The plan of `d` whose cluster `c` has induced diameter `diam[c]`.
    pub(crate) fn new(d: &Decomposition, diam: Vec<u32>) -> Self {
        Self {
            classes: group_by_color(d),
            diam,
        }
    }

    /// The quality report of the planned decomposition.
    pub(crate) fn quality(&self) -> DecompQuality {
        DecompQuality {
            colors: self.classes.len(),
            max_diameter: self.diam.iter().copied().max().unwrap_or(0),
            clusters: self.diam.len(),
        }
    }

    /// The round bill of a consumer sweep over this plan: per color class,
    /// `2·(max cluster diameter) + 2` (gather, decide, report), as in the
    /// standard completeness argument.
    pub(crate) fn rounds(&self) -> u64 {
        self.classes
            .iter()
            .map(|(_, clusters)| {
                let diam = clusters.iter().map(|&c| self.diam[c as usize]).max();
                2 * u64::from(diam.unwrap_or(0)) + 2
            })
            .sum()
    }
}

/// Validate `d` against `g` exactly as [`Decomposition::validate`] does,
/// but keep the per-cluster induced diameters (the consumers charge
/// `O(max diameter)` rounds per color; the exact diameters are still the
/// plan's largest cost on giant clusters, so they are computed once) and
/// return the color-grouped cluster lists.
pub(crate) fn plan_consumer(g: &Graph, d: &Decomposition) -> Result<ConsumerPlan, DecompError> {
    plan_consumer_with(g, d, &mut DiameterScratch::new(g.node_count()))
}

/// [`plan_consumer`] over a caller-owned [`DiameterScratch`], so a serving
/// session planning many decompositions on one pinned graph reuses a single
/// scratch arena instead of allocating one per plan.
pub(crate) fn plan_consumer_with(
    g: &Graph,
    d: &Decomposition,
    scratch: &mut DiameterScratch,
) -> Result<ConsumerPlan, DecompError> {
    let mut diam = Vec::with_capacity(d.clustering().cluster_count());
    d.check(g, Adjacency::Graph, |members| {
        induced_diameter_with(g, members, scratch).map(|x| diam.push(x))
    })?;
    Ok(ConsumerPlan::new(d, diam))
}

/// The pre-rewrite validator, verbatim in cost and behavior: a fresh
/// [`InducedSubgraph`](locality_graph::InducedSubgraph)-based diameter per
/// cluster via [`reference_induced_diameter`] — kept so the retained
/// `reference_via_decomposition` consumers stay honest baselines instead of
/// silently inheriting the scratch-BFS metrics.
pub(crate) fn reference_validate(g: &Graph, d: &Decomposition) -> Result<(), DecompError> {
    use locality_graph::metrics::reference_induced_diameter;
    let clustering = d.clustering();
    if clustering.node_count() != g.node_count() {
        return Err(DecompError::WrongGraph {
            got: clustering.node_count(),
            expected: g.node_count(),
        });
    }
    if let Some(&node) = clustering.unclustered().first() {
        return Err(DecompError::UnclusteredNode { node });
    }
    for c in 0..clustering.cluster_count() {
        if reference_induced_diameter(g, clustering.members(c)).is_none() {
            return Err(DecompError::DisconnectedCluster { cluster: c });
        }
    }
    for (u, v) in g.edges() {
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

/// Cluster ids grouped by color, both ascending.
pub(crate) fn group_by_color(d: &Decomposition) -> Vec<(usize, Vec<u32>)> {
    let k = d.clustering().cluster_count();
    let mut by_color: Vec<(usize, u32)> =
        (0..k).map(|c| (d.color_of_cluster(c), c as u32)).collect();
    by_color.sort_unstable();
    let mut classes: Vec<(usize, Vec<u32>)> = Vec::new();
    for (color, c) in by_color {
        match classes.last_mut() {
            Some((last, ids)) if *last == color => ids.push(c),
            _ => classes.push((color, vec![c])),
        }
    }
    classes
}

/// The color-class sweep every decomposition consumer runs (deterministic
/// MIS, coloring, and the SLOCAL→LOCAL reduction supply only `step`).
///
/// Classes run in the order given (ascending color). Within a class,
/// `step(state, frozen, members, staged)` runs once per cluster: it reads
/// the outputs `frozen` of earlier classes (same-color clusters are
/// non-adjacent, so nothing else it could read has been decided) and
/// appends one `(node, value)` pair per member to `staged`, where later
/// members of the same cluster can find earlier ones. Classes of at least
/// [`PARALLEL_MIN_MEMBERS`] member nodes are spread over `threads` scoped
/// threads by [`process_clusters`]; staged outputs are merged in bucket
/// order, so the result is bit-identical for every thread count (re-checked
/// on every multi-threaded call under the `determinism-checks` cargo
/// feature).
///
/// # Panics
/// If `classes` does not cover every node of `d` — every planned
/// decomposition's classes do.
pub(crate) fn sweep<T, S, F>(
    d: &Decomposition,
    classes: &[(usize, Vec<u32>)],
    threads: usize,
    init: &(impl Fn() -> S + Sync),
    step: &F,
) -> Vec<T>
where
    T: Send + Sync + PartialEq + std::fmt::Debug,
    F: Fn(&mut S, &[Option<T>], &[usize], &mut Vec<(u32, T)>) + Sync,
{
    let clustering = d.clustering();
    let mut outputs: Vec<Option<T>> = (0..clustering.node_count()).map(|_| None).collect();
    for (_, clusters) in classes {
        let members_total: usize = clusters
            .iter()
            .map(|&c| clustering.members(c as usize).len())
            .sum();
        let frozen = &outputs[..];
        let staged = process_clusters(
            clusters,
            threads,
            members_total >= PARALLEL_MIN_MEMBERS,
            init,
            &|state: &mut S, c, out: &mut Vec<(u32, T)>| {
                step(state, frozen, clustering.members(c as usize), out);
            },
        );
        for bucket in staged {
            for (v, value) in bucket {
                outputs[v as usize] = Some(value);
            }
        }
    }
    let outputs: Vec<T> = outputs
        .into_iter()
        .map(|o| o.expect("every node processed")) // audit: allow(panic) -- a planned decomposition's color classes cover every node
        .collect();
    #[cfg(feature = "determinism-checks")]
    if threads > 1 {
        assert_eq!(
            outputs,
            sweep(d, classes, 1, init, step),
            "determinism check: parallel color-class sweep diverged from sequential"
        );
    }
    outputs
}

/// Sweep one color class's clusters, staging each cluster's outputs into its
/// bucket's vector. `init` builds one per-thread working state; `f(state,
/// cluster, staged)` processes one cluster, appending `(node, value)` pairs.
/// Buckets are fixed contiguous ranges of the cluster list; when `parallel`,
/// contiguous bucket ranges are distributed over scoped threads. Because a
/// cluster's staged outputs land in its own bucket's vector and buckets are
/// merged in index order by [`sweep`], the result is identical either way.
fn process_clusters<T, S, F>(
    clusters: &[u32],
    threads: usize,
    parallel: bool,
    init: impl Fn() -> S + Sync,
    f: &F,
) -> Vec<Vec<(u32, T)>>
where
    T: Send,
    F: Fn(&mut S, u32, &mut Vec<(u32, T)>) + Sync,
{
    let mut out: Vec<Vec<(u32, T)>> = (0..BUCKETS).map(|_| Vec::new()).collect();
    let len = clusters.len();
    let lo = |b: usize| b * len / BUCKETS;
    if !parallel || threads <= 1 {
        let mut state = init();
        for (b, bucket) in out.iter_mut().enumerate() {
            for &c in &clusters[lo(b)..lo(b + 1)] {
                f(&mut state, c, bucket);
            }
        }
        return out;
    }
    std::thread::scope(|scope| {
        let mut rest = &mut out[..];
        for w in 0..threads {
            let b_lo = w * BUCKETS / threads;
            let b_hi = (w + 1) * BUCKETS / threads;
            if b_lo == b_hi {
                continue;
            }
            let (chunk, r) = rest.split_at_mut(b_hi - b_lo);
            rest = r;
            let init = &init;
            scope.spawn(move || {
                let mut state = init();
                for (i, bucket) in chunk.iter_mut().enumerate() {
                    let b = b_lo + i;
                    for &c in &clusters[lo(b)..lo(b + 1)] {
                        f(&mut state, c, bucket);
                    }
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::carving::ball_carving_decomposition;
    use locality_graph::Graph;
    use locality_rand::prng::SplitMix64;

    #[test]
    fn plan_matches_validate() {
        let mut p = SplitMix64::new(3);
        let g = Graph::gnp_connected(80, 0.04, &mut p);
        let order: Vec<usize> = (0..80).collect();
        let d = ball_carving_decomposition(&g, &order).decomposition;
        let plan = plan_consumer(&g, &d).expect("valid");
        let q = d.validate(&g).expect("valid");
        assert_eq!(plan.diam.len(), q.clusters);
        assert_eq!(plan.diam.iter().copied().max().unwrap_or(0), q.max_diameter);
        assert_eq!(plan.classes.len(), q.colors);
        // Every cluster appears exactly once, under its own color.
        let mut seen = vec![false; q.clusters];
        for (color, ids) in &plan.classes {
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            for &c in ids {
                assert_eq!(d.color_of_cluster(c as usize), *color);
                assert!(!seen[c as usize]);
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn plan_rejects_what_validate_rejects() {
        use locality_graph::cluster::Clustering;
        let g = Graph::path(3);
        let c = Clustering::from_assignment(vec![Some(0), Some(1), Some(0)]).unwrap();
        let d = Decomposition::new(c, vec![0, 1]).unwrap();
        assert_eq!(
            plan_consumer(&g, &d).unwrap_err(),
            d.validate(&g).unwrap_err()
        );
        let c2 = Clustering::from_assignment(vec![Some(0), Some(1), None]).unwrap();
        let d2 = Decomposition::new(c2, vec![0, 1]).unwrap();
        assert_eq!(
            plan_consumer(&g, &d2).unwrap_err(),
            d2.validate(&g).unwrap_err()
        );
    }

    /// FNV-1a over a u64 stream (the `fp` of `tests/proptest_consumers.rs`).
    fn fp(stream: impl Iterator<Item = u64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in stream {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Per-cluster diameters pinned from the per-member BFS scan the plan
    /// used before eccentricity bounding: `(name, clusters, fingerprint of
    /// plan.diam, max, sum)`. MPX and Elkin–Neiman each build a cluster of
    /// over a thousand nodes, where the bound loop prunes most sources; the
    /// carvings add many small clusters.
    #[test]
    fn golden_plan_diameters_are_stable() {
        use crate::decomposition::elkin_neiman::{elkin_neiman, ElkinNeimanConfig};
        use crate::decomposition::mpx::mpx_partition;
        use locality_rand::source::PrngSource;
        const GOLDEN: [(&str, usize, u64, u32, u64); 4] = [
            ("mpx_gnp2000", 1, 9_341_425_988_105_748_652, 9, 9),
            ("en_gnp2048", 61, 4_393_445_762_564_583_496, 12, 19),
            ("carve_gnp2000", 355, 15_406_806_363_888_468_680, 11, 103),
            ("carve_grid64", 2048, 12_805_685_683_014_827_301, 4, 1056),
        ];
        let mpx_g = Graph::gnp_connected(2000, 4.0 / 2000.0, &mut SplitMix64::new(141));
        let mpx_d = mpx_partition(&mpx_g, 0.4, &mut SplitMix64::new(142)).decomposition;
        let en_g = Graph::gnp(2048, 4.0 / 2048.0, &mut SplitMix64::new(143));
        let en_d = elkin_neiman(
            &en_g,
            &ElkinNeimanConfig::for_graph(&en_g),
            &mut PrngSource::seeded(144),
        )
        .decomposition
        .expect("Elkin–Neiman clusters every node");
        let carve_g = Graph::gnp(2000, 4.0 / 2000.0, &mut SplitMix64::new(145));
        let carve_grid = Graph::grid(64, 64);
        let carve = |g: &Graph| {
            let order: Vec<usize> = g.nodes().collect();
            ball_carving_decomposition(g, &order).decomposition
        };
        let cases = [
            ("mpx_gnp2000", &mpx_g, mpx_d),
            ("en_gnp2048", &en_g, en_d),
            ("carve_gnp2000", &carve_g, carve(&carve_g)),
            ("carve_grid64", &carve_grid, carve(&carve_grid)),
        ];
        let got: Vec<(&str, usize, u64, u32, u64)> = cases
            .iter()
            .map(|(name, g, d)| {
                let plan = plan_consumer(g, d).expect("valid");
                (
                    *name,
                    plan.diam.len(),
                    fp(plan.diam.iter().map(|&x| u64::from(x))),
                    plan.diam.iter().copied().max().unwrap_or(0),
                    plan.diam.iter().map(|&x| u64::from(x)).sum(),
                )
            })
            .collect();
        assert_eq!(got, GOLDEN);
    }

    #[test]
    fn bucketed_sweep_is_thread_count_invariant() {
        let clusters: Vec<u32> = (0..300).collect();
        let run = |threads: usize, parallel: bool| -> Vec<Vec<(u32, u64)>> {
            process_clusters(&clusters, threads, parallel, || 0u64, &|state, c, out| {
                *state += 1;
                out.push((c, u64::from(c) * 3 + 1));
            })
        };
        let seq = run(1, false);
        for threads in [2usize, 3, 8, 64, 200] {
            assert_eq!(run(threads, true), seq, "threads={threads}");
        }
    }
}
