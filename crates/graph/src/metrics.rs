//! Graph metrics: eccentricity, diameter, subset diameters, degeneracy.
//!
//! The subset diameters ([`induced_diameter`], [`weak_diameter`]) are the
//! per-cluster workhorses of every decomposition consumer, so they come in
//! two forms: the plain functions (allocate working memory per call) and the
//! `_with` variants over a reusable [`DiameterScratch`] whose epoch-stamped
//! visited arrays make a call cost `O(touched)`, never `O(n)` — the pattern
//! that lets a `10⁶`-node pipeline validate thousands of clusters without a
//! single full-graph allocation per cluster. The exact strong diameter
//! ([`induced_diameter_with`]) bounds every member's eccentricity from each
//! BFS it runs and stops once no member can exceed the largest eccentricity
//! found (Takes & Kosters, "Determining the diameter of small world
//! networks", CIKM 2011), so on the clusters producers build it runs a small
//! fraction of the one-BFS-per-member scan. The pre-optimization
//! implementations are retained as [`reference_induced_diameter`] /
//! [`reference_weak_diameter`] for differential testing.

use crate::graph::Graph;
use crate::subgraph::InducedSubgraph;
use crate::traversal::bfs_distances;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Eccentricity of `v`: max distance to any reachable node (`0` for a node
/// with no neighbors).
///
/// # Panics
/// Panics if `v` is out of range.
pub fn eccentricity(g: &Graph, v: usize) -> u32 {
    bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0)
}

/// Exact diameter via all-pairs BFS — `None` for a disconnected graph,
/// `Some(0)` for `n ≤ 1`.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.node_count() <= 1 {
        return Some(0);
    }
    let mut best = 0;
    for v in g.nodes() {
        let d = bfs_distances(g, v);
        if d.iter().any(|x| x.is_none()) {
            return None;
        }
        best = best.max(d.into_iter().flatten().max().unwrap_or(0));
    }
    Some(best)
}

/// Reusable working memory for the subset-diameter functions.
///
/// Two epoch-stamped marker arrays (membership and BFS visitation) plus a
/// queue and a member buffer; bumping an epoch invalidates all stamps in
/// `O(1)`, so back-to-back calls over many clusters never clear or allocate
/// anything of size `n`. The exact strong diameter also keeps its
/// eccentricity bounds here: three parallel buffers (candidate members and
/// their lower and upper bounds), refilled by each call and grown only when
/// a member set is larger than every one before it.
#[derive(Debug, Clone)]
pub struct DiameterScratch {
    member_stamp: Vec<u64>,
    member_epoch: u64,
    visit_stamp: Vec<u64>,
    dist: Vec<u32>,
    visit_epoch: u64,
    queue: VecDeque<u32>,
    members: Vec<u32>,
    candidates: Vec<u32>,
    ecc_lower: Vec<u32>,
    ecc_upper: Vec<u32>,
}

impl DiameterScratch {
    /// Scratch for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            member_stamp: vec![0; n],
            member_epoch: 0,
            visit_stamp: vec![0; n],
            dist: vec![0; n],
            visit_epoch: 0,
            queue: VecDeque::new(),
            members: Vec::new(),
            candidates: Vec::new(),
            ecc_lower: Vec::new(),
            ecc_upper: Vec::new(),
        }
    }

    /// Number of nodes this scratch is sized for.
    pub fn node_count(&self) -> usize {
        self.member_stamp.len()
    }

    /// Stamp `nodes` as the current member set; `self.members` holds them
    /// deduplicated afterwards.
    fn stamp_members(&mut self, nodes: &[usize]) {
        self.member_epoch += 1;
        self.members.clear();
        for &v in nodes {
            if self.member_stamp[v] != self.member_epoch {
                self.member_stamp[v] = self.member_epoch;
                self.members.push(v as u32);
            }
        }
    }

    #[inline]
    fn is_member(&self, v: usize) -> bool {
        self.member_stamp[v] == self.member_epoch
    }
}

/// Diameter of the subgraph induced by `nodes` — the *strong diameter* notion
/// used by network decompositions: distances must stay inside the set.
/// `None` if the induced subgraph is disconnected; `Some(0)` for `|S| ≤ 1`.
///
/// Allocates a fresh [`DiameterScratch`] per call; loops over many clusters
/// should use [`induced_diameter_with`].
pub fn induced_diameter(g: &Graph, nodes: &[usize]) -> Option<u32> {
    induced_diameter_with(g, nodes, &mut DiameterScratch::new(g.node_count()))
}

/// [`induced_diameter`] over a caller-owned scratch, by eccentricity
/// bounding.
///
/// A member-restricted BFS from `v` with eccentricity `e` bounds every member
/// `w` at distance `d` by `max(d, e − d) ≤ ecc(w) ≤ e + d` (triangle
/// inequality through `v`). Each member keeps the tightest bounds seen,
/// with upper bounds starting at `|S| − 1`, and a member whose upper bound
/// is at most the largest eccentricity found so far is dropped: it cannot
/// be an endpoint of a longer shortest path. The loop runs BFS from the
/// remaining candidates until none is left, so every member's eccentricity
/// is at most the largest one found, which is itself a true eccentricity —
/// the result is the exact diameter, not a bound.
///
/// Sources are picked deterministically: the member of highest degree first,
/// then alternately the candidate with the largest upper bound (a far
/// member, as in a double sweep) and the one with the smallest lower bound
/// (a central member, whose small eccentricity caps everyone near it); ties
/// go to the higher degree, then the lower node index. The rule only decides
/// how many BFS run, never the value. Every source drops itself (`d = 0`),
/// so the worst case is still one BFS per distinct member,
/// `O(|S| · vol(S))`, reached when all eccentricities are equal, as on a
/// cycle. The first BFS doubles as the connectivity check. Memory traffic
/// is `O(touched)`: no size-`n` work whatever the graph size.
///
/// # Panics
/// Panics if a node is out of range or the scratch was built for a different
/// node count.
pub fn induced_diameter_with(
    g: &Graph,
    nodes: &[usize],
    scratch: &mut DiameterScratch,
) -> Option<u32> {
    assert_eq!(
        scratch.node_count(),
        g.node_count(),
        "scratch sized for a different graph"
    );
    scratch.stamp_members(nodes);
    let count = scratch.members.len();
    if count <= 1 {
        return Some(0);
    }
    // Source preference: the larger primary key, then higher degree, then
    // lower node index.
    type SourceKey = (u32, usize, Reverse<u32>);
    let key = |primary: u32, v: u32| -> SourceKey { (primary, g.degree(v as usize), Reverse(v)) };
    let Some(first) = scratch.members.iter().copied().max_by_key(|&v| key(0, v)) else {
        return Some(0);
    };
    let (seen, mut ecc, _) = restricted_bfs(g, first as usize, scratch);
    if seen < count {
        return None;
    }
    let mut best = ecc;
    scratch.candidates.clear();
    scratch.candidates.extend_from_slice(&scratch.members);
    scratch.ecc_lower.clear();
    scratch.ecc_lower.resize(count, 0);
    // No shortest path inside the set has more than `|S| − 1` edges.
    scratch.ecc_upper.clear();
    scratch.ecc_upper.resize(count, count as u32 - 1);
    let mut want_far = true;
    loop {
        // Tighten every candidate's bounds with the latest BFS (eccentricity
        // `ecc`, distances in `scratch.dist`), keep those that could still
        // beat `best`, and pick the next source on the way.
        let mut next: Option<SourceKey> = None;
        let mut kept = 0;
        for i in 0..scratch.candidates.len() {
            let w = scratch.candidates[i];
            let d = scratch.dist[w as usize];
            let lower = scratch.ecc_lower[i].max(d).max(ecc - d);
            let upper = scratch.ecc_upper[i].min(ecc.saturating_add(d));
            if upper <= best {
                continue;
            }
            scratch.candidates[kept] = w;
            scratch.ecc_lower[kept] = lower;
            scratch.ecc_upper[kept] = upper;
            kept += 1;
            let k = key(if want_far { upper } else { u32::MAX - lower }, w);
            if next.map_or(true, |best_key| k > best_key) {
                next = Some(k);
            }
        }
        scratch.candidates.truncate(kept);
        scratch.ecc_lower.truncate(kept);
        scratch.ecc_upper.truncate(kept);
        let Some((_, _, Reverse(src))) = next else {
            return Some(best);
        };
        want_far = !want_far;
        ecc = restricted_bfs(g, src as usize, scratch).1;
        best = best.max(ecc);
    }
}

/// Run one member-restricted BFS from `src` under the scratch's current
/// member stamps. Returns `(reached, eccentricity, farthest)` — ties for the
/// farthest member break toward BFS (CSR) order, so the result is
/// deterministic. Leaves `scratch.dist` valid for the reached members until
/// the next epoch bump.
fn restricted_bfs(g: &Graph, src: usize, scratch: &mut DiameterScratch) -> (usize, u32, usize) {
    scratch.visit_epoch += 1;
    scratch.visit_stamp[src] = scratch.visit_epoch;
    scratch.dist[src] = 0;
    scratch.queue.clear();
    scratch.queue.push_back(src as u32);
    let mut seen = 1usize;
    let mut ecc = 0u32;
    let mut far = src;
    while let Some(u) = scratch.queue.pop_front() {
        let du = scratch.dist[u as usize];
        for &v in g.neighbors(u as usize) {
            if scratch.is_member(v) && scratch.visit_stamp[v] != scratch.visit_epoch {
                scratch.visit_stamp[v] = scratch.visit_epoch;
                scratch.dist[v] = du + 1;
                if du + 1 > ecc {
                    ecc = du + 1;
                    far = v;
                }
                seen += 1;
                scratch.queue.push_back(v as u32);
            }
        }
    }
    (seen, ecc, far)
}

/// Certified bounds on the strong diameter of the subgraph induced by
/// `nodes`: `Some((lower, upper))` with `lower ≤ diameter ≤ upper`, or
/// `None` if the induced subgraph is disconnected.
///
/// Three member-restricted BFS runs — a double sweep (arbitrary member, then
/// the farthest member found) plus one from the midpoint of the sweep path.
/// The lower bound is the largest eccentricity observed; the upper bound is
/// twice the smallest (for any `x`, `diam ≤ 2·ecc(x)`, and midpoints of long
/// paths have small eccentricity, so the two usually land close). Cost is
/// `O(vol(S))`, independent of `|S|`. [`induced_diameter_with`] is exact
/// and usually needs a small fraction of `|S|` BFS runs, but that fraction
/// is not bounded: its worst case is still `O(|S| · vol(S))`, and on a
/// cluster of `2 × 10⁵` nodes even its typical case takes minutes. This is
/// the certified alternative when clusters grow to a constant fraction of a
/// large graph.
///
/// # Panics
/// Panics if a node is out of range or the scratch was built for a different
/// node count.
pub fn induced_diameter_bounds_with(
    g: &Graph,
    nodes: &[usize],
    scratch: &mut DiameterScratch,
) -> Option<(u32, u32)> {
    assert_eq!(
        scratch.node_count(),
        g.node_count(),
        "scratch sized for a different graph"
    );
    scratch.stamp_members(nodes);
    let count = scratch.members.len();
    if count <= 1 {
        return Some((0, 0));
    }
    let start = scratch.members[0] as usize;
    let (seen, ecc0, a) = restricted_bfs(g, start, scratch);
    if seen < count {
        return None;
    }
    let (_, ecc_a, b) = restricted_bfs(g, a, scratch);
    // Walk halfway back along the BFS tree path from `b` toward `a`
    // (scratch.dist still holds `a`'s distances for the current epoch).
    let mut mid = b;
    let mut d = ecc_a;
    while d > ecc_a / 2 {
        mid = *g
            .neighbors(mid)
            .iter()
            .find(|&&v| {
                scratch.is_member(v)
                    && scratch.visit_stamp[v] == scratch.visit_epoch
                    && scratch.dist[v] == d - 1
            })
            .expect("BFS tree path steps down by one"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
        d -= 1;
    }
    let (_, ecc_m, _) = restricted_bfs(g, mid, scratch);
    let lower = ecc0.max(ecc_a).max(ecc_m);
    let upper = 2 * ecc0.min(ecc_a).min(ecc_m);
    Some((lower, upper))
}

/// Weak diameter of `nodes`: max over pairs of their distance in the *whole*
/// graph `g`. `None` if some pair is disconnected in `g`.
///
/// Allocates a fresh [`DiameterScratch`] per call; loops over many clusters
/// should use [`weak_diameter_with`].
pub fn weak_diameter(g: &Graph, nodes: &[usize]) -> Option<u32> {
    weak_diameter_with(g, nodes, &mut DiameterScratch::new(g.node_count()))
}

/// [`weak_diameter`] over a caller-owned scratch. Each member's BFS runs over
/// the whole graph but **stops as soon as every member has been reached**, so
/// the cost per member is `O(|B(v, weak diameter)|)`, not `O(n + m)` — the
/// difference between quadratic and near-linear when a decomposition consumer
/// charges `O(weak diameter)` rounds per cluster.
///
/// # Panics
/// Panics if a node is out of range or the scratch was built for a different
/// node count.
pub fn weak_diameter_with(
    g: &Graph,
    nodes: &[usize],
    scratch: &mut DiameterScratch,
) -> Option<u32> {
    assert_eq!(
        scratch.node_count(),
        g.node_count(),
        "scratch sized for a different graph"
    );
    scratch.stamp_members(nodes);
    let count = scratch.members.len();
    if count <= 1 {
        return Some(0);
    }
    let mut best = 0u32;
    for mi in 0..count {
        let src = scratch.members[mi] as usize;
        scratch.visit_epoch += 1;
        scratch.visit_stamp[src] = scratch.visit_epoch;
        scratch.dist[src] = 0;
        scratch.queue.clear();
        scratch.queue.push_back(src as u32);
        let mut found = 1usize;
        let mut ecc = 0u32;
        'bfs: while let Some(u) = scratch.queue.pop_front() {
            let du = scratch.dist[u as usize];
            for &v in g.neighbors(u as usize) {
                if scratch.visit_stamp[v] != scratch.visit_epoch {
                    scratch.visit_stamp[v] = scratch.visit_epoch;
                    scratch.dist[v] = du + 1;
                    scratch.queue.push_back(v as u32);
                    if scratch.is_member(v) {
                        ecc = du + 1;
                        found += 1;
                        if found == count {
                            break 'bfs;
                        }
                    }
                }
            }
        }
        if found < count {
            return None;
        }
        best = best.max(ecc);
    }
    Some(best)
}

/// BFS distances from `src` to the (deduplicated) members of `nodes`, over
/// the whole graph, **stopping as soon as every member has been reached**.
/// Appends `(member, dist)` pairs to `out` (cleared first) in BFS order —
/// `src` itself included when it is a member — and returns the maximum
/// member distance, or `None` if some member is unreachable.
///
/// This is the one-source building block of exact weak-diameter sweeps: a
/// consumer that only needs the *maximum* weak diameter over many clusters
/// runs one of these per cluster plus a farthest-first refinement on the few
/// clusters whose `2·ecc` bound exceeds the running maximum, instead of one
/// BFS per member everywhere.
///
/// # Panics
/// Panics if `src` or a member is out of range, or the scratch was built for
/// a different node count.
pub fn member_distances_with(
    g: &Graph,
    src: usize,
    nodes: &[usize],
    scratch: &mut DiameterScratch,
    out: &mut Vec<(u32, u32)>,
) -> Option<u32> {
    assert_eq!(
        scratch.node_count(),
        g.node_count(),
        "scratch sized for a different graph"
    );
    assert!(src < g.node_count(), "bfs source out of range");
    scratch.stamp_members(nodes);
    let count = scratch.members.len();
    out.clear();
    if count == 0 {
        return Some(0);
    }
    scratch.visit_epoch += 1;
    scratch.visit_stamp[src] = scratch.visit_epoch;
    scratch.dist[src] = 0;
    scratch.queue.clear();
    scratch.queue.push_back(src as u32);
    let mut found = 0usize;
    let mut best = 0u32;
    if scratch.is_member(src) {
        out.push((src as u32, 0));
        found = 1;
    }
    'bfs: while let Some(u) = scratch.queue.pop_front() {
        if found == count {
            break;
        }
        let du = scratch.dist[u as usize];
        for &v in g.neighbors(u as usize) {
            if scratch.visit_stamp[v] != scratch.visit_epoch {
                scratch.visit_stamp[v] = scratch.visit_epoch;
                scratch.dist[v] = du + 1;
                scratch.queue.push_back(v as u32);
                if scratch.is_member(v) {
                    out.push((v as u32, du + 1));
                    best = du + 1;
                    found += 1;
                    if found == count {
                        break 'bfs;
                    }
                }
            }
        }
    }
    (found == count).then_some(best)
}

/// The pre-optimization [`induced_diameter`] (build an [`InducedSubgraph`],
/// take its all-pairs diameter), retained as the differential oracle.
pub fn reference_induced_diameter(g: &Graph, nodes: &[usize]) -> Option<u32> {
    let sub = InducedSubgraph::new(g, nodes);
    diameter(sub.graph())
}

/// The pre-optimization [`weak_diameter`] (one full-`n` BFS per member),
/// retained as the differential oracle.
pub fn reference_weak_diameter(g: &Graph, nodes: &[usize]) -> Option<u32> {
    let mut best = 0;
    for &v in nodes {
        let d = bfs_distances(g, v);
        for &u in nodes {
            match d[u] {
                Some(x) => best = best.max(x),
                None => return None,
            }
        }
    }
    Some(best)
}

/// Degeneracy: the smallest `d` such that every subgraph has a node of degree
/// `≤ d` (computed by the standard peeling order).
pub fn degeneracy(g: &Graph) -> usize {
    let n = g.node_count();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let max_deg = g.max_degree();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v);
    }
    let mut degen = 0;
    let mut processed = 0;
    let mut cursor = 0;
    while processed < n {
        // Find the lowest non-empty bucket at or below the cursor, else scan up.
        cursor = cursor.min(degree.len().saturating_sub(1));
        let mut d = 0;
        let v = loop {
            if let Some(&v) = buckets[d].last() {
                if !removed[v] && degree[v] == d {
                    buckets[d].pop();
                    break v;
                }
                buckets[d].pop();
                continue;
            }
            d += 1;
            if d > max_deg {
                // All remaining are stale entries; rebuild (rare).
                for v in 0..n {
                    if !removed[v] {
                        buckets[degree[v]].push(v);
                    }
                }
                d = 0;
            }
        };
        removed[v] = true;
        processed += 1;
        degen = degen.max(degree[v]);
        for &w in g.neighbors(v) {
            if !removed[w] {
                degree[w] -= 1;
                buckets[degree[w]].push(w);
            }
        }
    }
    degen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_diameter() {
        assert_eq!(diameter(&Graph::path(6)), Some(5));
        assert_eq!(eccentricity(&Graph::path(6), 0), 5);
        assert_eq!(eccentricity(&Graph::path(6), 3), 3);
    }

    #[test]
    fn disconnected_diameter_is_none() {
        let g = Graph::disjoint_union(&[Graph::path(2), Graph::path(2)]);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn trivial_diameters() {
        assert_eq!(diameter(&Graph::empty(0)), Some(0));
        assert_eq!(diameter(&Graph::empty(1)), Some(0));
        assert_eq!(diameter(&Graph::complete(5)), Some(1));
    }

    #[test]
    fn induced_vs_weak_diameter() {
        // On a cycle, the two endpoints of a long arc are close in G but far
        // in the induced subgraph.
        let g = Graph::cycle(8);
        let arc = [0, 1, 2, 3, 4];
        assert_eq!(induced_diameter(&g, &arc), Some(4));
        assert_eq!(weak_diameter(&g, &[0, 4]), Some(4));
        assert_eq!(weak_diameter(&g, &[0, 3]), Some(3));
        // A split set: induced disconnected, weak still finite.
        let split = [0, 4];
        assert_eq!(induced_diameter(&g, &split), None);
        assert!(weak_diameter(&g, &split).is_some());
    }

    #[test]
    fn scratch_diameters_match_references() {
        use crate::generators::Family;
        use locality_rand::prng::{Prng, SplitMix64};
        let mut p = SplitMix64::new(31);
        for fam in Family::ALL {
            let g = fam.generate(40, &mut p);
            let n = g.node_count();
            let mut scratch = DiameterScratch::new(n);
            let mut pick = SplitMix64::new(fam as u64 + 1);
            for trial in 0..30 {
                // Random subsets of varied size, duplicates included on
                // purpose (both implementations must dedup identically).
                let size = 1 + (pick.next_u64() % 12) as usize;
                let nodes: Vec<usize> = (0..size)
                    .map(|_| (pick.next_u64() % n as u64) as usize)
                    .collect();
                assert_eq!(
                    induced_diameter_with(&g, &nodes, &mut scratch),
                    reference_induced_diameter(&g, &nodes),
                    "{} trial {trial} induced {nodes:?}",
                    fam.name()
                );
                assert_eq!(
                    weak_diameter_with(&g, &nodes, &mut scratch),
                    reference_weak_diameter(&g, &nodes),
                    "{} trial {trial} weak {nodes:?}",
                    fam.name()
                );
            }
            // Whole-node-set and empty-set edges, same scratch.
            let all: Vec<usize> = g.nodes().collect();
            assert_eq!(
                induced_diameter_with(&g, &all, &mut scratch),
                reference_induced_diameter(&g, &all)
            );
            assert_eq!(
                weak_diameter_with(&g, &all, &mut scratch),
                reference_weak_diameter(&g, &all)
            );
            assert_eq!(induced_diameter_with(&g, &[], &mut scratch), Some(0));
            assert_eq!(weak_diameter_with(&g, &[], &mut scratch), Some(0));
        }
    }

    #[test]
    fn bounded_diameter_matches_reference_where_pruning_runs() {
        use crate::generators::Family;
        use crate::traversal::ball;
        use locality_rand::prng::{Prng, SplitMix64};
        let mut p = SplitMix64::new(43);
        for fam in Family::ALL {
            let g = fam.generate(200, &mut p);
            let n = g.node_count();
            let mut pick = SplitMix64::new(fam as u64 + 13);
            let mut centre = || (pick.next_u64() % n as u64) as usize;
            let all: Vec<usize> = g.nodes().collect();
            // BFS balls induce connected subgraphs, so the bound loop runs
            // to the end on each; two balls around random centres may not.
            let mut sets: Vec<Vec<usize>> = Vec::new();
            for r in 2..=4 {
                for _ in 0..3 {
                    sets.push(ball(&g, centre(), r));
                }
            }
            let mut two = ball(&g, centre(), 2);
            two.extend(ball(&g, centre(), 2));
            sets.push(two);
            // Duplicates, in a different order from the first occurrence.
            let mut dup = ball(&g, centre(), 3);
            dup.extend(all.iter().rev());
            dup.extend(ball(&g, centre(), 2));
            sets.push(dup);
            // One scratch throughout, every small set followed by the whole
            // node set and then the next small set, so bounds or candidates
            // left over from a larger call would surface in a smaller one.
            let mut scratch = DiameterScratch::new(n);
            for (i, nodes) in sets.iter().enumerate() {
                for set in [nodes, &all] {
                    assert_eq!(
                        induced_diameter_with(&g, set, &mut scratch),
                        reference_induced_diameter(&g, set),
                        "{} set {i} ({} nodes)",
                        fam.name(),
                        set.len()
                    );
                }
            }
        }
    }

    #[test]
    fn member_distances_agree_with_full_bfs() {
        use crate::generators::Family;
        use locality_rand::prng::{Prng, SplitMix64};
        let mut p = SplitMix64::new(37);
        for fam in Family::ALL {
            let g = fam.generate(36, &mut p);
            let n = g.node_count();
            let mut scratch = DiameterScratch::new(n);
            let mut out = Vec::new();
            let mut pick = SplitMix64::new(fam as u64 + 5);
            for _ in 0..20 {
                let size = (pick.next_u64() % 8) as usize;
                let nodes: Vec<usize> = (0..size)
                    .map(|_| (pick.next_u64() % n as u64) as usize)
                    .collect();
                let src = (pick.next_u64() % n as u64) as usize;
                let got = member_distances_with(&g, src, &nodes, &mut scratch, &mut out);
                let full = bfs_distances(&g, src);
                let mut distinct: Vec<usize> = nodes.clone();
                distinct.sort_unstable();
                distinct.dedup();
                if distinct.iter().any(|&v| full[v].is_none()) {
                    assert_eq!(got, None);
                    continue;
                }
                let expect = distinct
                    .iter()
                    .map(|&v| full[v].unwrap())
                    .max()
                    .unwrap_or(0);
                assert_eq!(got, Some(expect), "{} src={src} {nodes:?}", fam.name());
                // Every distinct member reported exactly once, with its
                // true distance.
                let mut reported: Vec<usize> = out.iter().map(|&(v, _)| v as usize).collect();
                reported.sort_unstable();
                assert_eq!(reported, distinct);
                for &(v, d) in &out {
                    assert_eq!(full[v as usize], Some(d));
                }
            }
        }
    }

    #[test]
    fn diameter_bounds_bracket_the_exact_diameter() {
        use crate::generators::Family;
        use locality_rand::prng::{Prng, SplitMix64};
        let mut p = SplitMix64::new(41);
        for fam in Family::ALL {
            let g = fam.generate(48, &mut p);
            let n = g.node_count();
            let mut scratch = DiameterScratch::new(n);
            let mut pick = SplitMix64::new(fam as u64 + 9);
            for trial in 0..30 {
                let size = 1 + (pick.next_u64() % 16) as usize;
                let nodes: Vec<usize> = (0..size)
                    .map(|_| (pick.next_u64() % n as u64) as usize)
                    .collect();
                let exact = induced_diameter_with(&g, &nodes, &mut scratch);
                let bounds = induced_diameter_bounds_with(&g, &nodes, &mut scratch);
                match (exact, bounds) {
                    (Some(d), Some((lo, hi))) => {
                        assert!(
                            lo <= d && d <= hi,
                            "{} trial {trial}: exact {d} outside [{lo}, {hi}] for {nodes:?}",
                            fam.name()
                        );
                    }
                    (None, None) => {}
                    (e, b) => panic!(
                        "{} trial {trial}: connectivity disagreement exact {e:?} bounds {b:?}",
                        fam.name()
                    ),
                }
            }
            // The whole node set and a path: on a path the double sweep is
            // exact (both bounds collapse onto the true diameter).
            let all: Vec<usize> = g.nodes().collect();
            let exact = induced_diameter_with(&g, &all, &mut scratch);
            let bounds = induced_diameter_bounds_with(&g, &all, &mut scratch);
            assert_eq!(exact.is_some(), bounds.is_some());
        }
        let path = Graph::path(17);
        let all: Vec<usize> = path.nodes().collect();
        let mut scratch = DiameterScratch::new(17);
        assert_eq!(
            induced_diameter_bounds_with(&path, &all, &mut scratch),
            Some((16, 16))
        );
    }

    #[test]
    #[should_panic]
    fn scratch_size_mismatch_panics() {
        let g = Graph::path(4);
        let mut scratch = DiameterScratch::new(3);
        let _ = weak_diameter_with(&g, &[0], &mut scratch);
    }

    #[test]
    fn degeneracy_values() {
        assert_eq!(degeneracy(&Graph::path(10)), 1);
        assert_eq!(degeneracy(&Graph::cycle(10)), 2);
        assert_eq!(degeneracy(&Graph::complete(5)), 4);
        assert_eq!(degeneracy(&Graph::star(10)), 1);
        assert_eq!(degeneracy(&Graph::empty(3)), 0);
        assert_eq!(degeneracy(&Graph::grid(4, 4)), 2);
    }
}
