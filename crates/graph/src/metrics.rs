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
//! fraction of the one-BFS-per-member scan; past its first sixteen sources
//! it runs the rest 64 to a bit-parallel multi-source BFS (Then et al., "The
//! More the Merrier", VLDB 2014). The pre-optimization
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
/// a member set is larger than every one before it. Its bit-parallel rounds
/// are the exception: a call that reaches them allocates their working
/// memory (a compact copy of the induced subgraph and 64 bytes of distance
/// lanes per candidate) and frees it on return, so a long-lived session,
/// and every clone of its scratch, carries none of it.
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
    /// Bit-parallel rounds run since the scratch was built.
    wide_rounds: u64,
}

/// Sources per bit-parallel round: one per bit of a `u64` mask.
const WIDE: usize = 64;
/// Sources [`induced_diameter_with`] runs one BFS at a time before it
/// switches to bit-parallel rounds. Clusters that finish in this many BFS —
/// paths, stars, carved balls — never allocate the rounds' working memory.
const SEQUENTIAL_SOURCES: usize = 16;
/// A lane at this value holds a distance of at least this much, not the
/// distance itself.
const SATURATED: u8 = u8::MAX;
/// Lane row of a node that is not a candidate.
const NO_ROW: u32 = u32::MAX;

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
            wide_rounds: 0,
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

    /// Bit-parallel bound rounds run since the scratch was built.
    #[cfg(test)]
    pub(crate) fn wide_rounds(&self) -> u64 {
        self.wide_rounds
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
/// go to the higher degree, then the lower node index. After the first 16
/// sources the remaining candidates run in bit-parallel rounds (multi-source
/// BFS with `u64` visit masks, as in Then et al., "The More the Merrier",
/// VLDB 2014): each round takes up to 64 sources, half the farthest and half
/// the most central candidates by the same keys, runs one level-synchronous
/// BFS for all of them over a compact copy of the induced subgraph, and
/// tightens every candidate's bounds from all of the round's eccentricities.
/// The source rule only decides how many BFS run, never the value. Every
/// source drops itself (`d = 0`), so the worst case is still one BFS per
/// distinct member, `O(|S| · vol(S))`, reached when all eccentricities are
/// equal, as on a cycle; the rounds then do that work 64 sources to a
/// sweep. The first BFS doubles as the connectivity check. Memory traffic
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
    let Some(first) = scratch
        .members
        .iter()
        .copied()
        .max_by_key(|&v| source_key(g, 0, v))
    else {
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
    let mut sources = 1;
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
            let k = source_key(g, if want_far { upper } else { u32::MAX - lower }, w);
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
        if sources == SEQUENTIAL_SOURCES {
            return Some(bound_in_wide_rounds(g, scratch, best));
        }
        sources += 1;
        want_far = !want_far;
        ecc = restricted_bfs(g, src as usize, scratch).1;
        best = best.max(ecc);
    }
}

/// Source preference: the larger primary key, then higher degree, then
/// lower node index.
type SourceKey = (u32, usize, Reverse<u32>);

fn source_key(g: &Graph, primary: u32, v: u32) -> SourceKey {
    (primary, g.degree(v as usize), Reverse(v))
}

/// Finish [`induced_diameter_with`]'s bound loop over the scratch's
/// candidates (bounds already tightened by every BFS so far) in rounds of up
/// to [`WIDE`] sources; returns the diameter.
///
/// Each round is one level-synchronous BFS over the induced subgraph in CSR
/// form: a node's `seen` mask holds the sources that have reached it, and a
/// level pushes each frontier node's new sources to its neighbours. The
/// level at which a source first reaches a candidate is that candidate's
/// distance lane for the source; a lane saturates at [`SATURATED`], and a
/// saturated lane still proves `ecc ≥ 255` but tightens nothing else, so
/// the bounds stay valid on sets of any diameter.
fn bound_in_wide_rounds(g: &Graph, scratch: &mut DiameterScratch, mut best: u32) -> u32 {
    let DiameterScratch {
        member_stamp,
        member_epoch,
        dist: local,
        members,
        candidates,
        ecc_lower,
        ecc_upper,
        wide_rounds,
        ..
    } = scratch;
    // Number the members by position; the sequential BFS distances in
    // `dist` have all been consumed.
    let count = members.len();
    for (i, &v) in members.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    // The induced subgraph in CSR form over those numbers.
    let mut offsets = Vec::with_capacity(count + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for &v in members.iter() {
        let inside = g
            .neighbors(v as usize)
            .iter()
            .filter(|&&w| member_stamp[w] == *member_epoch);
        targets.extend(inside.map(|&w| local[w]));
        offsets.push(targets.len());
    }
    // Per node: the sources that have reached it, those that reached it
    // first at the level being expanded, those reaching it first at the next
    // level, and its candidate's row in `lanes`.
    let mut seen = vec![0u64; count];
    let mut fresh = vec![0u64; count];
    let mut reach = vec![0u64; count];
    let mut row = vec![NO_ROW; count];
    // One row of WIDE distance lanes per candidate.
    let mut lanes: Vec<u8> = Vec::with_capacity(candidates.len() * WIDE);
    let mut order: Vec<u32> = Vec::with_capacity(candidates.len());
    let mut frontier: Vec<u32> = Vec::with_capacity(count);
    let mut next: Vec<u32> = Vec::with_capacity(count);
    while !candidates.is_empty() {
        // Sources: the WIDE / 2 farthest candidates by upper bound, then the
        // WIDE / 2 most central of the rest by lower bound (all of them when
        // no more than WIDE are left). Keys are distinct, so the chosen set
        // does not depend on the selection algorithm.
        let k = candidates.len().min(WIDE);
        order.clear();
        order.extend(0..candidates.len() as u32);
        if candidates.len() > WIDE {
            let half = WIDE / 2;
            order.select_nth_unstable_by_key(half - 1, |&i| {
                Reverse(source_key(g, ecc_upper[i as usize], candidates[i as usize]))
            });
            order[half..].select_nth_unstable_by_key(half - 1, |&i| {
                let central = u32::MAX - ecc_lower[i as usize];
                Reverse(source_key(g, central, candidates[i as usize]))
            });
        }
        for (i, &w) in candidates.iter().enumerate() {
            row[local[w as usize] as usize] = i as u32;
        }
        // Every lane starts saturated, so levels past the last exact lane
        // value need not write any.
        lanes.clear();
        lanes.resize(candidates.len() * WIDE, SATURATED);
        seen.fill(0);
        frontier.clear();
        for (j, &i) in order[..k].iter().enumerate() {
            let v = local[candidates[i as usize] as usize] as usize;
            seen[v] = 1 << j;
            fresh[v] = 1 << j;
            frontier.push(v as u32);
            lanes[i as usize * WIDE + j] = 0;
        }
        // A source's eccentricity is the last level at which it reaches a
        // new node, recorded when its bit leaves the levels' union.
        let mut ecc = [0u32; WIDE];
        let mut active = 0u64;
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            next.clear();
            for &u in &frontier {
                let u = u as usize;
                let sources = fresh[u];
                for &t in &targets[offsets[u]..offsets[u + 1]] {
                    let unseen = sources & !seen[t as usize];
                    if unseen != 0 {
                        if reach[t as usize] == 0 {
                            next.push(t);
                        }
                        reach[t as usize] |= unseen;
                    }
                }
            }
            let exact = level < u32::from(SATURATED);
            let mut reached = 0u64;
            for &t in &next {
                let t = t as usize;
                let new = std::mem::take(&mut reach[t]);
                seen[t] |= new;
                fresh[t] = new;
                reached |= new;
                if exact && row[t] != NO_ROW {
                    let lanes = &mut lanes[row[t] as usize * WIDE..][..WIDE];
                    for_each_bit(new, |j| lanes[j] = level as u8);
                }
            }
            for_each_bit(active & !reached, |j| ecc[j] = level - 1);
            active = reached;
            std::mem::swap(&mut frontier, &mut next);
        }
        *wide_rounds += 1;
        best = ecc.iter().fold(best, |b, &e| b.max(e));
        let mut kept = 0;
        for i in 0..candidates.len() {
            let w = candidates[i];
            row[local[w as usize] as usize] = NO_ROW;
            let mut lower = ecc_lower[i];
            let mut upper = ecc_upper[i];
            for (&d, &e) in lanes[i * WIDE..][..k].iter().zip(&ecc[..k]) {
                let saturated = d == SATURATED;
                let d = u32::from(d);
                lower = lower.max(if saturated { d } else { d.max(e - d) });
                upper = upper.min(if saturated { u32::MAX } else { e + d });
            }
            if upper <= best {
                continue;
            }
            candidates[kept] = w;
            ecc_lower[kept] = lower;
            ecc_upper[kept] = upper;
            kept += 1;
        }
        candidates.truncate(kept);
        ecc_lower.truncate(kept);
        ecc_upper.truncate(kept);
    }
    best
}

/// Call `f` with the index of every set bit of `bits`, lowest first.
#[inline]
fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Run one member-restricted BFS from `src` under the scratch's current
/// member stamps. Returns `(reached, eccentricity, farthest)` — ties for the
/// farthest member break toward BFS (CSR) order, so the result is
/// deterministic. Leaves `scratch.dist` valid for the reached members until
/// the next epoch bump, or until the bit-parallel rounds reuse it for their
/// member numbering.
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
/// is not bounded: its worst case is still `O(|S| · vol(S))`, and on the
/// largest MPX cluster of a `G(2.6 × 10⁵, 4/n)` (237 792 nodes) even its
/// typical case takes 19 s on a 2-core box. This is the certified
/// alternative when clusters grow to a constant fraction of a large graph.
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
    fn wide_rounds_match_reference_on_sets_that_need_them() {
        use crate::traversal::ball;
        use locality_rand::prng::SplitMix64;
        // Sets whose bound loop outlasts the sequential sources: all
        // eccentricities equal on a cycle (whose diameter of 300 overflows
        // a u8 lane) and on a clique, and G(n, p) member sets of 500–2000
        // nodes, the whole graph and BFS balls.
        let gnp = Graph::gnp_connected(2000, 4.0 / 2000.0, &mut SplitMix64::new(141));
        let cycle = Graph::cycle(601);
        let clique = Graph::complete(120);
        for g in [&cycle, &clique, &gnp] {
            let all: Vec<usize> = g.nodes().collect();
            let mut scratch = DiameterScratch::new(g.node_count());
            assert_eq!(
                induced_diameter_with(g, &all, &mut scratch),
                reference_induced_diameter(g, &all),
                "{} nodes",
                g.node_count()
            );
            assert!(
                scratch.wide_rounds() > 0,
                "{} nodes: no bit-parallel round ran",
                g.node_count()
            );
        }
        // Balls, one scratch throughout; some finish within the sequential
        // sources, and at least one must not.
        let mut scratch = DiameterScratch::new(gnp.node_count());
        for centre in [0, 777, 1999] {
            let set = (1..)
                .map(|r| ball(&gnp, centre, r))
                .find(|b| b.len() >= 500)
                .unwrap_or_default();
            assert!((500..=2000).contains(&set.len()));
            assert_eq!(
                induced_diameter_with(&gnp, &set, &mut scratch),
                reference_induced_diameter(&gnp, &set),
                "ball around {centre}"
            );
        }
        assert!(
            scratch.wide_rounds() > 0,
            "no ball needed a bit-parallel round"
        );
    }

    #[test]
    fn one_scratch_survives_wide_narrow_wide_and_disconnected_calls() {
        use locality_rand::prng::SplitMix64;
        let g = Graph::disjoint_union(&[
            Graph::cycle(601),
            Graph::complete(120),
            Graph::gnp_connected(800, 4.0 / 800.0, &mut SplitMix64::new(7)),
        ]);
        let cycle: Vec<usize> = (0..601).collect();
        let clique: Vec<usize> = (601..721).collect();
        let gnp: Vec<usize> = (721..1521).collect();
        let arc: Vec<usize> = (0..=20).collect();
        let mut scratch = DiameterScratch::new(g.node_count());
        let mut rounds = 0;
        // (set, expected, whether it needs bit-parallel rounds)
        let split: Vec<usize> = (0..10).chain(300..310).collect();
        let cycle_and_clique: Vec<usize> = cycle.iter().chain(&clique).copied().collect();
        let reference_gnp = reference_induced_diameter(&g, &gnp);
        let steps: [(&[usize], Option<u32>, bool); 7] = [
            (&cycle, Some(300), true),
            (&split, None, false),
            (&cycle_and_clique, None, false),
            (&arc, Some(20), false),
            (&clique, Some(1), true),
            (&arc, Some(20), false),
            (&gnp, reference_gnp, true),
        ];
        for (i, (set, want, wide)) in steps.into_iter().enumerate() {
            assert_eq!(
                induced_diameter_with(&g, set, &mut scratch),
                want,
                "step {i}"
            );
            assert_eq!(
                scratch.wide_rounds() > rounds,
                wide,
                "step {i}: bit-parallel rounds ran unexpectedly or not at all"
            );
            rounds = scratch.wide_rounds();
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
