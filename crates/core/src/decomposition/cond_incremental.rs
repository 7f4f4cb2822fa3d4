//! The incremental conditional-expectations engine behind
//! [`super::cond_expect::derandomized_decomposition`].
//!
//! The retained reference implementation
//! ([`super::cond_expect::reference_decomposition`]) re-evaluates the full
//! clustering-probability product for every `(center, radius, node, t)`
//! tuple — `O(n · cap² · ball²)` per phase once reach lists are dense. This
//! engine computes the *same greedy decisions* from cached per-node state
//! that is updated, not recomputed, when a center's radius is fixed:
//!
//! - **Inverted index.** In an undirected graph `u ∈ B(z, r) ⇔ z ∈ B(u, r)`
//!   (within the alive subgraph), so the set of nodes whose clustering
//!   probability depends on `r_z` is exactly the BFS ball of `z`. Balls are
//!   BFS'd straight into a flat per-phase arena of packed entries (the
//!   growing distance-sorted segment doubles as the FIFO, and liveness is
//!   folded into the visit-mark array) — fixing one radius touches only
//!   that ball, never the whole graph.
//! - **Effective radius `cap − 1`.** A center at distance exactly `cap`
//!   from `u` is inert: its unfixed marginal has `cdf = 1` and `pmf = 0` at
//!   every `t` (so folding or removing it is an *exact* no-op — multiply by
//!   `1.0`, add `0.0`), its fixed indicator mutates no slot, its candidate
//!   factor contributes the same cached-aggregate term to **every** radius
//!   `r ≤ cap` (a constant shift that cannot move an argmax in exact
//!   arithmetic), and its shifted measure `r − cap ≤ 0` can never cluster a
//!   node in the carve step (winning needs `top1 − max(top2, 0) > 1`, so a
//!   `0` can neither win nor change the runner-up floor). Balls are
//!   therefore built with radius `cap − 1`, which on sparse graphs removes
//!   the outermost — and largest — BFS shell from every pass.
//! - **Per-`t` partial-product cache, SoA-laned.** For node `u` and
//!   candidate winning measure `t`, the probability contribution is
//!   `Σ_z pmf_z(t) · Π_{w≠z} cdf_w(t−2)`. Per `(u, t)` the engine caches
//!   the product of all *nonzero* `cdf` factors, the count of zero factors
//!   plus the pmf mass sitting on them, and the ratio sum `Σ_w pmf_w/cdf_w`
//!   over nonzero factors. The four caches live in one `Vec<f64>` as
//!   per-node blocks of four `nt`-wide lanes `[prod | ratio | zero_pmf |
//!   meta]` (`meta` packs the zero count and the renormalization exponent
//!   into integer bit patterns that can never form a NaN), so one node's
//!   whole state is one contiguous, vectorizable block — a single cache
//!   line for the small `cap` values large runs use.
//! - **Branch-light updates.** An *unfixed* factor has a zero `cdf` only at
//!   `(d = 0, t = 2)` — the center itself — so the ball's sole `d = 0`
//!   entry takes a dedicated path and every other entry runs a zero-free
//!   multiply/add loop. Slots with `t − 2 + d ≥ cap` are exactly trivial
//!   (`cdf = 1`, `pmf = 0`) and are skipped — bitwise identical state, a
//!   large saving for outer-shell entries. Fixed factors mutate only slots
//!   `t − 2 < r − d`, so folding a fixed radius touches only the BFS
//!   *prefix* at distance `< r` (binary-searched; balls are
//!   distance-sorted).
//! - **Suffix-sum candidate evaluation.** For one ball entry the candidate
//!   factor at radius `r` is trivial (`cdf = 1`) exactly when `t − 2 ≥ r −
//!   d`, so the entry's contribution to radius `r` is a *suffix sum* of
//!   per-`t` cached-aggregate terms plus at most one unique-winner term —
//!   `O(nt + cap)` per entry instead of the `O(nt · cap)` rectangle. In
//!   the sequential hot path the evaluation is fused into the same pass
//!   that removes the center's own unfixed factor, while the entry's state
//!   block is still in cache.
//! - **Deterministic work-stealing.** Every ball is cut into fixed
//!   [`CHUNK`]-entry chunks (boundaries depend only on the ball length,
//!   never the thread count). For the read-only evaluation stage, threads
//!   self-schedule chunks off a shared atomic cursor; each chunk's
//!   candidate expectations are accumulated privately and published to the
//!   chunk's own partial slot, and partials are reduced in chunk-ascending
//!   order afterwards — no f64 operation order depends on which thread ran
//!   a chunk. State-mutating stages (init, factor removal, fixed-radius
//!   fold) are parallelized by contiguous node-range ownership instead:
//!   each worker takes a `split_at_mut` slice of the state vector and
//!   applies every ball entry that lands in its range, and since each ball
//!   visits a node at most once, per-node update sequences are identical
//!   to the sequential sweep. Both schemes are bit-identical for every
//!   thread count (the `determinism-checks` cargo feature re-runs
//!   single-threaded and asserts it), and neither needs `unsafe`.
//! - **Pipelined carve.** Once center `i`'s radius is stored, its
//!   contribution to the apply step (top-two shifted measures per node)
//!   depends on nothing later, so with `threads ≥ 2` a carver thread
//!   consumes `(center, radius)` pairs *in fixing order* — published
//!   allocation-free through an atomic progress counter — and overlaps the
//!   carve with the next centers' fixing. With one thread the carve runs
//!   inline after each fix; both schedules perform the identical integer
//!   update sequence per node, so results cannot differ. Only the BFS
//!   prefix at distance `< r` is scanned (deeper entries have shifted
//!   measure `≤ 0`, which can never change a clustering decision).
//!
//! Floating-point caveat: the cached aggregates are mathematically equal to
//! the reference products but associate differently (and un-multiply by
//! division), so individual expectations may differ from the reference by a
//! few ulps. Greedy decisions compare expectations whose real-valued gaps
//! are astronomically larger than that on every family we test (the
//! differential proptests in `crates/core/tests/proptest_derand.rs` pin
//! equality of the full output).

use crate::decomposition::cond_expect::{self, DerandResult};
use crate::decomposition::types::Decomposition;
use locality_graph::cluster::Clustering;
use locality_graph::Graph;
use locality_rand::geometric::TruncatedGeometricTable;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Ball-chunk granularity for the work-stealing evaluator. Fixed, so chunk
/// boundaries (and hence all f64 accumulation orders) are independent of
/// the thread count. Lib-test builds shrink it so small graphs produce
/// many chunks and the stealing schedule is genuinely contended (outputs
/// are thread-invariant under any consistent chunk size, which is what
/// those tests assert).
#[cfg(not(test))]
const CHUNK: usize = 2048;
#[cfg(test)]
const CHUNK: usize = 96;

/// Below this many ball entries a center is processed on the calling
/// thread: scoped-thread setup costs more than the work it would
/// distribute. Lib-test builds lower the threshold so the parallel
/// remove/eval/fold stages run on test-sized graphs instead of only the
/// sequential fallback.
#[cfg(not(test))]
const PARALLEL_MIN_ENTRIES: usize = 4096;
#[cfg(test)]
const PARALLEL_MIN_ENTRIES: usize = 64;

/// Ball entries are packed `node | dist << NODE_BITS`.
const NODE_BITS: u32 = 26;
const NODE_MASK: u32 = (1 << NODE_BITS) - 1;

/// [`IncrementalEngine::ball_dist`] poison for clustered nodes: any value
/// other than `u32::MAX` keeps the ball BFS from ever visiting them.
const BALL_DEAD: u32 = u32::MAX - 1;

/// Lookahead (in ball entries) for the sequential evaluator's software
/// prefetch: far enough to cover the L2/L3 latency of a random node-block
/// gather, near enough that the touched lines survive until use.
const PREFETCH_AHEAD: usize = 8;

/// Widest supported `t` lane (bounds the `cap` knob: `nt = cap − 1`).
const MAX_NT: usize = 62;

/// `2^512`: the scaled-product renormalization step (built from bits —
/// `f64::from_bits` is not const at the workspace MSRV).
#[inline]
fn scale_up() -> f64 {
    f64::from_bits(0x5FF0_0000_0000_0000)
}

/// `2^−512`, the inverse step and the mantissa-range floor.
#[inline]
fn scale_down() -> f64 {
    f64::from_bits(0x1FF0_0000_0000_0000)
}

/// Pack a `(zeros, scale)` pair into the meta lane's f64 slot. The value is
/// stored as raw bits — `zeros` in bits 32..58 (`zeros < 2^26`, bounded by
/// the node count) and `scale` in bits 0..32 — so the exponent field can
/// never be all-ones: the pattern is never a NaN and round-trips exactly.
#[inline]
fn meta_pack(zeros: u32, scale: i32) -> f64 {
    f64::from_bits((u64::from(zeros) << 32) | u64::from(scale as u32))
}

/// Inverse of [`meta_pack`].
#[inline]
fn meta_unpack(m: f64) -> (u32, i32) {
    let b = m.to_bits();
    ((b >> 32) as u32, b as u32 as i32)
}

/// The true product value for a scaled mantissa (underflows gracefully when
/// deeply scaled — at that magnitude it cannot win an argmax anyway). The
/// common scales bypass `powi`: `scale = −1` multiplies by the exact
/// constant, and `scale ≤ −4` is exactly `0.0` (the mantissa is `< 2^512`,
/// so the true value is `< 2^−1536`, below the smallest subnormal).
#[inline]
fn unscale(prod: f64, scale: i32) -> f64 {
    match scale {
        0 => prod,
        -1 => prod * scale_down(),
        s if s <= -4 => 0.0,
        s => prod * 2.0f64.powi(512 * s),
    }
}

/// Unfixed-marginal factor tables over the `(dist, t)` domain, flattened as
/// `d * nt + (t - 2)`.
struct FactorTables {
    cap: u32,
    nt: usize,
    cdf: Vec<f64>,
    /// `1 / cdf` where nonzero: removal multiplies by the reciprocal
    /// instead of dividing (3–10× cheaper per slot; the reciprocal is
    /// computed once with one rounding, so removal error stays at the ulp
    /// scale the differential tests already tolerate by construction).
    inv_cdf: Vec<f64>,
    pmf: Vec<f64>,
    ratio: Vec<f64>,
}

impl FactorTables {
    fn new(cap: u32) -> Self {
        let table = TruncatedGeometricTable::new(cap);
        let nt = (cap - 1) as usize;
        let mut cdf = Vec::with_capacity((cap as usize + 1) * nt);
        let mut inv_cdf = Vec::with_capacity((cap as usize + 1) * nt);
        let mut pmf = Vec::with_capacity((cap as usize + 1) * nt);
        let mut ratio = Vec::with_capacity((cap as usize + 1) * nt);
        for d in 0..=cap {
            for ti in 0..nt {
                let t = ti as i64 + 2;
                // The reference implementation's own unfixed-marginal
                // helpers, so the boundary clamping cannot diverge.
                let c = cond_expect::cdf(&table, None, d, t - 2);
                let p = cond_expect::pmf(&table, None, d, t);
                cdf.push(c);
                inv_cdf.push(if c == 0.0 { 0.0 } else { 1.0 / c });
                pmf.push(p);
                ratio.push(if c == 0.0 { 0.0 } else { p / c });
            }
        }
        Self {
            cap,
            nt,
            cdf,
            inv_cdf,
            pmf,
            ratio,
        }
    }

    /// Number of non-trivial `t` slots for an unfixed factor at distance
    /// `d`: slots with `t − 2 + d ≥ cap` have `cdf = 1` and `pmf = 0`, so
    /// folding or removing them is an exact no-op.
    #[inline]
    fn live_slots(&self, d: u32) -> usize {
        self.nt.min((self.cap - d) as usize)
    }
}

/// Split one node's state block — four `nt`-wide lanes in one contiguous
/// slice, `[prod | ratio | zero_pmf | meta]` — into its lanes. `prod` is
/// kept **scaled**: its true value is `prod · 2^(512·scale)` with the
/// mantissa renormalized into `[2^−512, 2^512)`. Without this, a node with
/// ≳1100 reach entries at distance 1 drives the `t = 2` product below
/// f64's subnormal floor, `prod` collapses to exactly `0.0`, and the
/// removal division could never recover it — silently corrupting every
/// later evaluation for that node. Dense graphs (cliques, hubs) hit this;
/// the scaled form is exact in the normal regime (the rescale multiplies
/// by a power of two) and recovers fully on removal.
#[inline]
fn lanes(block: &mut [f64], nt: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
    debug_assert_eq!(block.len(), 4 * nt);
    let (p, rest) = block.split_at_mut(nt);
    let (r, rest) = rest.split_at_mut(nt);
    let (z, m) = rest.split_at_mut(nt);
    (p, r, z, m)
}

/// Fold the unfixed-marginal factor for a center at distance `d ≥ 1` into a
/// node's block. No zero-`cdf` slots exist at `d ≥ 1` (nonzero unfixed cdf
/// values are ≥ 1/2, so one rescale step restores the mantissa range), and
/// slots `≥ live_slots(d)` are exact no-ops — the loop is zero-free and
/// short for outer-shell entries.
#[inline]
fn add_unfixed(block: &mut [f64], tables: &FactorTables, d: u32) {
    let nt = tables.nt;
    let row = d as usize * nt;
    let live = tables.live_slots(d);
    let (pl, rl, _, ml) = lanes(block, nt);
    for ti in 0..live {
        let mut p = pl[ti] * tables.cdf[row + ti];
        if p < scale_down() {
            p *= scale_up();
            let (z, s) = meta_unpack(ml[ti]);
            ml[ti] = meta_pack(z, s - 1);
        }
        pl[ti] = p;
        rl[ti] += tables.ratio[row + ti];
    }
}

/// [`add_unfixed`] for the center itself (`d = 0`): the `t = 2` slot has
/// `cdf = 0` and is tracked in the zero ledger; every other slot is normal.
#[inline]
fn add_unfixed_center(block: &mut [f64], tables: &FactorTables) {
    let nt = tables.nt;
    let (pl, rl, zl, ml) = lanes(block, nt);
    let (z, s) = meta_unpack(ml[0]);
    ml[0] = meta_pack(z + 1, s);
    zl[0] += tables.pmf[0];
    for ti in 1..nt {
        let mut p = pl[ti] * tables.cdf[ti];
        if p < scale_down() {
            p *= scale_up();
            let (z, s) = meta_unpack(ml[ti]);
            ml[ti] = meta_pack(z, s - 1);
        }
        pl[ti] = p;
        rl[ti] += tables.ratio[ti];
    }
}

/// Undo [`add_unfixed`] (the center's radius is about to be evaluated).
#[inline]
fn remove_unfixed(block: &mut [f64], tables: &FactorTables, d: u32) {
    let nt = tables.nt;
    let row = d as usize * nt;
    let live = tables.live_slots(d);
    let (pl, rl, _, ml) = lanes(block, nt);
    for ti in 0..live {
        let mut p = pl[ti] * tables.inv_cdf[row + ti];
        if p >= scale_up() {
            p *= scale_down();
            let (z, s) = meta_unpack(ml[ti]);
            ml[ti] = meta_pack(z, s + 1);
        }
        pl[ti] = p;
        rl[ti] -= tables.ratio[row + ti];
    }
}

/// Undo [`add_unfixed_center`].
#[inline]
fn remove_unfixed_center(block: &mut [f64], tables: &FactorTables) {
    let nt = tables.nt;
    let (pl, rl, zl, ml) = lanes(block, nt);
    let (z, s) = meta_unpack(ml[0]);
    ml[0] = meta_pack(z - 1, s);
    zl[0] -= tables.pmf[0];
    for ti in 1..nt {
        let mut p = pl[ti] * tables.inv_cdf[ti];
        if p >= scale_up() {
            p *= scale_down();
            let (z, s) = meta_unpack(ml[ti]);
            ml[ti] = meta_pack(z, s + 1);
        }
        pl[ti] = p;
        rl[ti] -= tables.ratio[ti];
    }
}

/// Fold the now-fixed radius `r` for a center at distance `d < r` into a
/// node's block. Fixed factors are 0/1 indicators: `cdf = [r − d ≤ t − 2]`,
/// `pmf = [r − d = t]` — the nonzero case multiplies by one (a no-op), so
/// only slots `t − 2 < r − d` mutate and callers only visit the ball's
/// distance-`< r` prefix. Exact: no f64 rounding is introduced.
#[inline]
fn add_fixed(block: &mut [f64], nt: usize, r: u32, d: u32) {
    debug_assert!(d < r);
    let rd = (r - d) as usize;
    let (_, _, zl, ml) = lanes(block, nt);
    for m in ml.iter_mut().take(nt.min(rd)) {
        // += 1 on the zeros field in place: zeros sits in bits 32..58 and
        // stays < 2^26, so the raw-bit add never carries out of its field.
        *m = f64::from_bits(m.to_bits() + (1u64 << 32));
    }
    if rd >= 2 && rd - 2 < nt {
        zl[rd - 2] += 1.0;
    }
}

/// Remove the current center's unfixed factor from one ball entry's block
/// (dispatching on `d = 0`, which identifies the center itself — BFS balls
/// contain exactly one distance-0 entry).
#[inline]
fn remove_entry(block: &mut [f64], tables: &FactorTables, d: u32) {
    if d == 0 {
        remove_unfixed_center(block, tables);
    } else {
        remove_unfixed(block, tables, d);
    }
}

/// Accumulate one ball entry's contribution to every candidate radius into
/// `local[0..cap]`, reading the entry's (already center-removed) block.
///
/// For entry `(u, d)` and candidate `r`, the candidate's own factor is
/// trivial (`cdf = 1`, `pmf = 0`) exactly when `t − 2 ≥ r − d`, in which
/// case the cached aggregates carry the whole term; at `t = r − d` the
/// candidate is the unique zero-`cdf` factor (`pmf = 1`) and only wins if
/// the ledger holds no other zero. The per-`t` terms therefore enter each
/// radius as a suffix sum plus at most one unique-winner term.
#[inline]
fn eval_entry(block: &[f64], nt: usize, cap: usize, d: u32, local: &mut [f64; 64]) {
    let mut suffix = [0.0f64; MAX_NT + 1];
    let mut win = [0.0f64; MAX_NT];
    let mut acc = 0.0;
    for ti in (0..nt).rev() {
        let (z, s) = meta_unpack(block[3 * nt + ti]);
        let pv = unscale(block[ti], s);
        let (term, w) = match z {
            0 => (block[nt + ti] * pv, pv),
            1 => (block[2 * nt + ti] * pv, 0.0),
            _ => (0.0, 0.0),
        };
        acc += term;
        suffix[ti] = acc;
        win[ti] = w;
    }
    for (ri, slot) in local.iter_mut().enumerate().take(cap) {
        let rd = ri as i64 + 1 - i64::from(d);
        let mut p = suffix[rd.clamp(0, nt as i64) as usize];
        if rd >= 2 && rd - 2 < nt as i64 {
            p += win[(rd - 2) as usize];
        }
        *slot += p;
    }
}

/// [`remove_entry`] + [`eval_entry`] fused into one slot loop for the
/// sequential hot path: each `t` slot is removed and immediately folded
/// into the suffix/winner accumulators while its lanes are in registers —
/// one meta unpack and one block traversal instead of two. Slot updates
/// are slot-local and the evaluation reads each slot strictly after its
/// own removal, so the arithmetic is identical to the two-pass form the
/// parallel stages use.
///
/// `suffix` (`nt + 1` slots) and `win` (`nt` slots) are caller-owned
/// scratch: every call overwrites exactly the positions the candidate
/// loop reads back (`suffix[0..=live]`, `win[0..live]`), so no
/// zero-initialization is needed between calls. Stack arrays here would
/// cost a ~1 KB zeroing memset per ball entry.
#[inline]
fn remove_and_eval_entry(
    block: &mut [f64],
    tables: &FactorTables,
    d: u32,
    local: &mut [f64; 64],
    suffix: &mut [f64],
    win: &mut [f64],
) {
    let nt = tables.nt;
    let cap = tables.cap as usize;
    if d == 0 {
        remove_unfixed_center(block, tables);
        eval_entry(block, nt, cap, 0, local);
        return;
    }
    let row = d as usize * nt;
    let live = tables.live_slots(d);
    let (pl, rest) = block.split_at_mut(nt);
    let (rl, rest) = rest.split_at_mut(nt);
    let (zl, ml) = rest.split_at_mut(nt);
    let mut acc = 0.0;
    // Slots `>= live` are exact removal no-ops, and their suffix/winner
    // stores are never read back — a distance-`d` candidate indexes at
    // most `suffix[live]` and `win[live - 2]` — so they fold into the
    // rolling accumulator alone (no stores, no winner select). The meta
    // word is read as raw bits: the all-zero pattern (`zeros = 0`,
    // `scale = 0`, by far the common case) short-circuits both the unpack
    // and the `unscale` dispatch.
    //
    // **Zero-floor cutoff.** `zeros` is monotone nonincreasing in `ti`:
    // [`add_fixed`] increments a slot *prefix* (`ti < r − d`) and the only
    // decrement — [`remove_unfixed_center`]'s own-center ledger — touches
    // slot 0 alone. So the first `zeros ≥ 2` slot met while descending
    // proves every lower slot `≥ 1` is also `zeros ≥ 2`: their terms are
    // all exactly `0.0` now and forever this phase (`zeros` never shrinks
    // at `ti ≥ 1`). The descent breaks there, the skipped suffix/winner
    // positions are bulk-filled with `acc` / `0.0` (what the full loop
    // would have stored), and the skipped slots' removal updates are
    // elided outright — their `prod`/`ratio` lanes are stale but provably
    // never read again (every evaluation, fused or two-pass, dispatches on
    // `zeros` first). Slot 0 is always processed in full: a pending own-
    // center ledger can still drop its `zeros` from 2 back to 1. Adding
    // `0.0` to the (never `-0.0`, since it starts at `+0.0` and `+=`
    // preserves that) accumulator is the identity, so the accumulation
    // order — and every stored bit — matches the plain
    // `(0..nt).rev()` sweep exactly.
    let mut floor = false;
    for ti in (live..nt).rev() {
        let mb = ml[ti].to_bits();
        acc += if mb == 0 {
            rl[ti] * pl[ti]
        } else {
            let (z, s) = ((mb >> 32) as u32, mb as u32 as i32);
            match z {
                0 => rl[ti] * unscale(pl[ti], s),
                1 => zl[ti] * unscale(pl[ti], s),
                _ => {
                    floor = true;
                    break;
                }
            }
        };
    }
    // `acc == 0.0` when `live == nt`, matching the zero an out-of-range
    // candidate suffix must read there.
    suffix[live] = acc;
    let mut hi = live;
    if floor {
        suffix[1..live].fill(acc);
        win[1..live].fill(0.0);
        hi = 1;
    }
    for ti in (1..hi).rev() {
        let mb = ml[ti].to_bits();
        let z = (mb >> 32) as u32;
        if z >= 2 {
            suffix[1..=ti].fill(acc);
            win[1..=ti].fill(0.0);
            break;
        }
        let mut scale = mb as u32 as i32;
        let mut p = pl[ti] * tables.inv_cdf[row + ti];
        if p >= scale_up() {
            p *= scale_down();
            scale += 1;
            ml[ti] = meta_pack(z, scale);
        }
        pl[ti] = p;
        rl[ti] -= tables.ratio[row + ti];
        let (term, w) = if z == 0 {
            let pv = unscale(p, scale);
            (rl[ti] * pv, pv)
        } else {
            (zl[ti] * unscale(p, scale), 0.0)
        };
        acc += term;
        suffix[ti] = acc;
        win[ti] = w;
    }
    {
        // Slot 0 (`live ≥ 1` always): full removal + evaluation.
        let mb = ml[0].to_bits();
        let z = (mb >> 32) as u32;
        let mut scale = mb as u32 as i32;
        let mut p = pl[0] * tables.inv_cdf[row];
        if p >= scale_up() {
            p *= scale_down();
            scale += 1;
            ml[0] = meta_pack(z, scale);
        }
        pl[0] = p;
        rl[0] -= tables.ratio[row];
        let (term, w) = match z {
            0 => {
                let pv = unscale(p, scale);
                (rl[0] * pv, pv)
            }
            1 => (zl[0] * unscale(p, scale), 0.0),
            _ => (0.0, 0.0),
        };
        acc += term;
        suffix[0] = acc;
        win[0] = w;
    }
    // d ≥ 1 ⇒ r − d ranges over 1..=cap−d ≤ nt, so no clamping is needed:
    // radii below d see the whole suffix, the rest index it directly.
    let du = d as usize;
    let s0 = suffix[0];
    for slot in local.iter_mut().take(du.min(cap)) {
        *slot += s0;
    }
    for (ri, slot) in local.iter_mut().enumerate().take(cap).skip(du) {
        let rd = ri + 1 - du;
        let mut p = suffix[rd];
        if rd >= 2 {
            p += win[rd - 2];
        }
        *slot += p;
    }
}

/// Length of the ball prefix with distance `< r`. Balls are stored in BFS
/// order, so distances are nondecreasing and the boundary binary-searches.
#[inline]
fn prefix_below(entries: &[u32], r: u32) -> usize {
    entries.partition_point(|&e| (e >> NODE_BITS) < r)
}

/// Apply `f(block, dist)` to every ball entry's node block, sequentially or
/// via contiguous node-range ownership: each worker takes a `split_at_mut`
/// range of the state vector and scans the full entry list, applying only
/// entries in its range. A ball visits each node at most once, so every
/// per-node update sequence matches the sequential sweep exactly —
/// bit-identical for every thread count.
fn scan_entries_owned<F>(
    state: &mut [f64],
    stride: usize,
    n: usize,
    threads: usize,
    entries: &[u32],
    f: F,
) where
    F: Fn(&mut [f64], u32) + Send + Sync + Copy,
{
    if threads <= 1 || entries.len() < PARALLEL_MIN_ENTRIES {
        for &e in entries {
            let u = (e & NODE_MASK) as usize;
            f(&mut state[u * stride..(u + 1) * stride], e >> NODE_BITS);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = state;
        let mut base = 0usize;
        for w in 0..threads {
            let hi = (w + 1) * n / threads;
            let (mine, tail) = rest.split_at_mut((hi - base) * stride);
            rest = tail;
            let lo = base;
            base = hi;
            scope.spawn(move || {
                for &e in entries {
                    let u = (e & NODE_MASK) as usize;
                    if u < lo || u >= hi {
                        continue;
                    }
                    let off = (u - lo) * stride;
                    f(&mut mine[off..off + stride], e >> NODE_BITS);
                }
            });
        }
    });
}

/// Fold center `i`'s fixed radius into the carve ledger: every prefix node
/// at distance `d < r` sees shifted measure `m = r − d ≥ 1` (deeper
/// entries' `m ≤ 0` can never cluster a node — the winner needs
/// `top1 − max(top2, 0) > 1`).
#[allow(clippy::too_many_arguments)]
fn carve_center(
    i: usize,
    alive_nodes: &[usize],
    arena: &[u32],
    offsets: &[usize],
    radius: &[AtomicU32],
    top1: &mut [i64],
    top1_center: &mut [u32],
    top2: &mut [i64],
) {
    let z = alive_nodes[i];
    let rz = radius[z].load(Ordering::Relaxed);
    let seg = &arena[offsets[i]..offsets[i + 1]];
    for &e in &seg[..prefix_below(seg, rz)] {
        let u = (e & NODE_MASK) as usize;
        let m = i64::from(rz) - i64::from(e >> NODE_BITS);
        if m > top1[u] {
            if top1[u] != i64::MIN {
                top2[u] = top1[u];
            }
            top1[u] = m;
            top1_center[u] = z as u32;
        } else if m > top2[u] {
            top2[u] = m;
        }
    }
}

/// The fixer's borrow set: everything the center-fixing loop touches, split
/// from the carve ledgers so the pipelined carver can run concurrently.
struct FixCtx<'a> {
    cap: usize,
    nt: usize,
    n: usize,
    threads: usize,
    tables: &'a FactorTables,
    arena: &'a [u32],
    offsets: &'a [usize],
    state: &'a mut [f64],
    /// Per-chunk candidate-expectation partials (`chunk * cap`), published
    /// as f64 bits. Each slot has exactly one writer per center (the chunk
    /// owner), so `Relaxed` stores suffice; the chunk-ascending reduction
    /// happens after the producing threads join.
    partials: &'a [AtomicU64],
    radius: &'a [AtomicU32],
    /// Suffix/winner scratch for the fused sequential evaluation
    /// (`nt + 1` / `nt` slots — see [`remove_and_eval_entry`]).
    suffix: &'a mut [f64],
    win: &'a mut [f64],
}

impl FixCtx<'_> {
    /// Fold the previous center's now-fixed radius into its ball's
    /// distance-`< r` prefix (lazy: done just before the next evaluation
    /// needs the state).
    fn fold_prev(&mut self, pi: usize, pr: u32) {
        let seg = &self.arena[self.offsets[pi]..self.offsets[pi + 1]];
        let prefix = &seg[..prefix_below(seg, pr)];
        let nt = self.nt;
        scan_entries_owned(
            self.state,
            4 * nt,
            self.n,
            self.threads,
            prefix,
            move |block, d| add_fixed(block, nt, pr, d),
        );
    }

    /// Fix alive-center `i`'s radius to the conditional-expectation argmax:
    /// remove the center's own unfixed factor from every ball entry and
    /// evaluate all `cap` candidate radii. Sequentially the two are fused
    /// per entry; in parallel the removal runs under node-range ownership
    /// and the (read-only) evaluation work-steals over chunks.
    fn fix_one(&mut self, i: usize) -> u32 {
        let seg = &self.arena[self.offsets[i]..self.offsets[i + 1]];
        let (cap, nt) = (self.cap, self.nt);
        let stride = 4 * nt;
        let nchunks = seg.len().div_ceil(CHUNK).max(1);
        let tables = self.tables;
        if self.threads >= 2 && seg.len() >= PARALLEL_MIN_ENTRIES {
            scan_entries_owned(
                self.state,
                stride,
                self.n,
                self.threads,
                seg,
                move |block, d| remove_entry(block, tables, d),
            );
            let state: &[f64] = self.state;
            let partials = self.partials;
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..self.threads.min(nchunks) {
                    scope.spawn(|| loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        let chunk = &seg[c * CHUNK..seg.len().min((c + 1) * CHUNK)];
                        let mut local = [0.0f64; 64];
                        for &e in chunk {
                            let u = (e & NODE_MASK) as usize;
                            let d = e >> NODE_BITS;
                            eval_entry(
                                &state[u * stride..(u + 1) * stride],
                                nt,
                                cap,
                                d,
                                &mut local,
                            );
                        }
                        for (r, v) in local.iter().enumerate().take(cap) {
                            partials[c * cap + r].store(v.to_bits(), Ordering::Relaxed);
                        }
                    });
                }
            });
        } else {
            for (c, chunk) in seg.chunks(CHUNK).enumerate() {
                let mut local = [0.0f64; 64];
                for (j, &e) in chunk.iter().enumerate() {
                    // The entry stream gathers random ~`stride`-f64 node
                    // blocks from a state vector far larger than L1, so
                    // the sweep is load-latency-bound. `black_box` forces
                    // cache-line-spaced touches of a block a few entries
                    // ahead — a safe-code software prefetch; the loaded
                    // bits are discarded, so decisions are unchanged.
                    if let Some(&ne) = chunk.get(j + PREFETCH_AHEAD) {
                        let nu = (ne & NODE_MASK) as usize * stride;
                        let ahead = &self.state[nu..nu + stride];
                        let mut touch = 0u64;
                        let mut k = 0;
                        while k < stride {
                            touch = touch.wrapping_add(ahead[k].to_bits());
                            k += 8;
                        }
                        std::hint::black_box(touch);
                    }
                    let u = (e & NODE_MASK) as usize;
                    let d = e >> NODE_BITS;
                    let block = &mut self.state[u * stride..(u + 1) * stride];
                    remove_and_eval_entry(block, tables, d, &mut local, self.suffix, self.win);
                }
                for (r, v) in local.iter().enumerate().take(cap) {
                    self.partials[c * cap + r].store(v.to_bits(), Ordering::Relaxed);
                }
            }
        }
        // Reduce per-chunk partials in chunk-ascending order — the same
        // order regardless of which thread produced each one. Strict `>`
        // keeps the smallest radius among ties, as the reference does.
        let mut best = (f64::NEG_INFINITY, 1u32);
        for r in 0..cap {
            let mut e = 0.0;
            for c in 0..nchunks {
                e += f64::from_bits(self.partials[c * cap + r].load(Ordering::Relaxed));
            }
            if e > best.0 {
                best = (e, r as u32 + 1);
            }
        }
        best.1
    }

    /// Fix every alive center in order; `after_fix(i)` runs once center
    /// `i`'s radius is stored (inline carve or pipeline publication). The
    /// final center's factor is never folded back in: nothing evaluates
    /// after it, and the carve reads only `radius`.
    fn fix_loop(&mut self, alive_nodes: &[usize], mut after_fix: impl FnMut(usize)) {
        let mut prev = None;
        for (i, &z) in alive_nodes.iter().enumerate() {
            if let Some((pi, pr)) = prev {
                self.fold_prev(pi, pr);
            }
            let best = self.fix_one(i);
            self.radius[z].store(best, Ordering::Relaxed);
            after_fix(i);
            prev = Some((i, best));
        }
    }
}

struct IncrementalEngine<'g> {
    g: &'g Graph,
    cap: u32,
    nt: usize,
    threads: usize,
    tables: FactorTables,
    /// `n` blocks of `4·nt` lanes, indexed `node * 4·nt`.
    state: Vec<f64>,
    /// Radius chosen for each center this phase (`0` = not yet fixed).
    /// Atomic so the pipelined carver can read what the fixer publishes.
    radius: Vec<AtomicU32>,
    /// Flat per-phase ball arena: packed `(node, dist)` entries in BFS
    /// order (distance-sorted) per alive center, radius `cap − 1`.
    arena: Vec<u32>,
    /// `offsets[i]..offsets[i + 1]`: alive-center `i`'s arena segment.
    offsets: Vec<usize>,
    /// Ball-BFS visit marks: `u32::MAX` = alive and unvisited,
    /// [`BALL_DEAD`] = clustered in an earlier phase (never enters a
    /// ball), anything else = distance from the center currently being
    /// expanded. Folding liveness into the distance word makes the BFS
    /// inner check a single load instead of `alive[v] && dist[v] == MAX`.
    ball_dist: Vec<u32>,
    /// Suffix/winner scratch for the fused sequential evaluation.
    eval_suffix: Vec<f64>,
    eval_win: Vec<f64>,
    /// Per-chunk candidate-expectation partials (high-water sized).
    partials: Vec<AtomicU64>,
    // Carve ledger: the two largest shifted measures per node and the
    // center achieving the largest.
    top1: Vec<i64>,
    top1_center: Vec<u32>,
    top2: Vec<i64>,
}

impl<'g> IncrementalEngine<'g> {
    fn new(g: &'g Graph, cap: u32, threads: usize) -> Self {
        let n = g.node_count();
        let nt = (cap - 1) as usize;
        Self {
            g,
            cap,
            nt,
            threads,
            tables: FactorTables::new(cap),
            state: vec![0.0; n * 4 * nt],
            radius: (0..n).map(|_| AtomicU32::new(0)).collect(),
            arena: Vec::new(),
            offsets: Vec::new(),
            ball_dist: vec![u32::MAX; n],
            eval_suffix: vec![0.0; nt + 1],
            eval_win: vec![0.0; nt],
            partials: Vec::new(),
            top1: vec![i64::MIN; n],
            top1_center: vec![0; n],
            top2: vec![0; n],
        }
    }

    /// BFS every alive center to radius `cap − 1` (the effective radius —
    /// see the module docs) and append its ball to the flat arena. The BFS
    /// writes packed `node | dist << NODE_BITS` entries straight into the
    /// arena and uses the growing segment itself as the queue (entries are
    /// appended in nondecreasing-distance order, so a head cursor over the
    /// segment *is* a FIFO) — no intermediate ball buffer, no deque, and
    /// liveness rides in [`Self::ball_dist`] (dead nodes stay poisoned at
    /// [`BALL_DEAD`], so the frontier check is one load per neighbor).
    fn build_balls(&mut self, alive_nodes: &[usize]) {
        self.arena.clear();
        self.offsets.clear();
        let r = self.cap - 1;
        for &z in alive_nodes {
            let start = self.arena.len();
            self.offsets.push(start);
            debug_assert_eq!(self.ball_dist[z], u32::MAX, "center must be alive");
            self.ball_dist[z] = 0;
            self.arena.push(z as u32);
            let mut head = start;
            while head < self.arena.len() {
                let e = self.arena[head];
                head += 1;
                let du = e >> NODE_BITS;
                if du >= r {
                    // Distance-sorted queue: every later entry is ≥ r too.
                    break;
                }
                for &v in self.g.neighbors((e & NODE_MASK) as usize) {
                    if self.ball_dist[v] == u32::MAX {
                        self.ball_dist[v] = du + 1;
                        self.arena.push(v as u32 | ((du + 1) << NODE_BITS));
                    }
                }
            }
            for &e in &self.arena[start..] {
                self.ball_dist[(e & NODE_MASK) as usize] = u32::MAX;
            }
        }
        self.offsets.push(self.arena.len());
    }

    /// Reset per-phase per-node scratch for the alive nodes only.
    fn reset_phase(&mut self, alive_nodes: &[usize]) {
        let stride = 4 * self.nt;
        for &u in alive_nodes {
            let block = &mut self.state[u * stride..(u + 1) * stride];
            block[..self.nt].fill(1.0);
            block[self.nt..].fill(0.0);
            self.radius[u].store(0, Ordering::Relaxed);
            self.top1[u] = i64::MIN;
            self.top1_center[u] = 0;
            self.top2[u] = 0;
        }
    }

    /// Fold the unfixed marginal of every center into every ball node's
    /// block (node-range ownership when parallel — see
    /// [`scan_entries_owned`]).
    fn init_states(&mut self) {
        let tables = &self.tables;
        scan_entries_owned(
            &mut self.state,
            4 * self.nt,
            self.g.node_count(),
            self.threads,
            &self.arena,
            move |block, d| {
                if d == 0 {
                    add_unfixed_center(block, tables);
                } else {
                    add_unfixed(block, tables, d);
                }
            },
        );
    }

    /// Fix every center's radius and carve the top-two shifted-measure
    /// ledger — pipelined across a second thread when available, inline
    /// otherwise. Both paths perform the identical per-node updates.
    fn fix_and_carve(&mut self, alive_nodes: &[usize]) {
        let cap = self.cap as usize;
        let max_seg = (0..alive_nodes.len())
            .map(|i| self.offsets[i + 1] - self.offsets[i])
            .max()
            .unwrap_or(0);
        let need = max_seg.div_ceil(CHUNK).max(1) * cap;
        if self.partials.len() < need {
            self.partials.resize_with(need, || AtomicU64::new(0));
        }
        let IncrementalEngine {
            nt,
            threads,
            tables,
            state,
            radius,
            arena,
            offsets,
            partials,
            top1,
            top1_center,
            top2,
            eval_suffix,
            eval_win,
            ..
        } = self;
        let (nt, threads) = (*nt, *threads);
        let n = state.len() / (4 * nt);
        let arena: &[u32] = arena;
        let offsets: &[usize] = offsets;
        let radius: &[AtomicU32] = radius;
        let mut ctx = FixCtx {
            cap,
            nt,
            n,
            threads,
            tables,
            arena,
            offsets,
            state,
            partials,
            radius,
            suffix: eval_suffix,
            win: eval_win,
        };
        if threads < 2 {
            ctx.fix_loop(alive_nodes, |i| {
                carve_center(
                    i,
                    alive_nodes,
                    arena,
                    offsets,
                    radius,
                    top1,
                    top1_center,
                    top2,
                )
            });
            return;
        }
        let total = alive_nodes.len();
        let fixed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut done = 0usize;
                while done < total {
                    let avail = fixed.load(Ordering::Acquire);
                    if avail == done {
                        std::thread::yield_now();
                        continue;
                    }
                    for i in done..avail {
                        carve_center(
                            i,
                            alive_nodes,
                            arena,
                            offsets,
                            radius,
                            top1,
                            top1_center,
                            top2,
                        );
                    }
                    done = avail;
                }
            });
            ctx.fix_loop(alive_nodes, |i| fixed.store(i + 1, Ordering::Release));
        });
    }

    /// Assign labels from the carved top-two ledger: cluster `u` with the
    /// winning center iff the top shifted measure beats the runner-up
    /// (floored at zero) by more than one.
    fn apply(
        &mut self,
        alive_nodes: &[usize],
        phase: u32,
        labels: &mut [Option<usize>],
        phase_of: &mut [Option<u32>],
    ) -> usize {
        let mut clustered_now = 0usize;
        for &u in alive_nodes {
            if self.top1[u] != i64::MIN && self.top1[u] - self.top2[u] > 1 {
                labels[u] = Some(((phase as usize) << 32) | self.top1_center[u] as usize);
                phase_of[u] = Some(phase);
                self.ball_dist[u] = BALL_DEAD;
                clustered_now += 1;
            }
        }
        clustered_now
    }
}

/// Run the incremental engine; decisions (and therefore outputs) match the
/// reference implementation.
pub(crate) fn run(g: &Graph, cap: u32, threads: usize) -> DerandResult {
    assert!(cap >= 2, "cap must be at least 2");
    assert!(
        (cap - 1) as usize <= MAX_NT,
        "cap must be at most {}",
        MAX_NT + 1
    );
    let n = g.node_count();
    assert!(
        n < (1usize << NODE_BITS),
        "derandomizer supports up to 2^26 nodes"
    );
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let mut engine = IncrementalEngine::new(g, cap, threads);
    let mut alive = vec![true; n];
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut phase_of: Vec<Option<u32>> = vec![None; n];
    let mut remaining = n;
    let mut per_phase_fraction = Vec::new();
    let mut phase = 0u32;
    let phase_limit = 20 * (g.log2_n() + 1);

    while remaining > 0 {
        assert!(phase < phase_limit, "phase limit exceeded — progress bug");
        let alive_before = remaining;
        let alive_nodes: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();

        engine.build_balls(&alive_nodes);
        engine.reset_phase(&alive_nodes);
        engine.init_states();
        engine.fix_and_carve(&alive_nodes);

        let clustered_now = engine.apply(&alive_nodes, phase, &mut labels, &mut phase_of);
        assert!(clustered_now > 0, "no progress in phase {phase} — bug");
        for v in 0..n {
            if alive[v] && labels[v].is_some() {
                alive[v] = false;
                remaining -= 1;
            }
        }
        per_phase_fraction.push(clustered_now as f64 / alive_before as f64);
        phase += 1;
    }

    let clustering = Clustering::from_labels(labels);
    let cluster_colors: Vec<usize> = (0..clustering.cluster_count())
        .map(|c| {
            let v = clustering.members(c)[0];
            phase_of[v].expect("clustered member has a phase") as usize // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
        })
        .collect();
    let decomposition =
        Decomposition::new(clustering, cluster_colors).expect("one color per cluster"); // audit: allow(panic) -- arity/contiguity established by construction on the preceding lines
    DerandResult {
        decomposition,
        phases: phase,
        per_phase_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_block(nt: usize) -> Vec<f64> {
        let mut b = vec![0.0; 4 * nt];
        b[..nt].fill(1.0);
        b
    }

    #[test]
    fn meta_lane_roundtrips_and_never_forms_a_nan() {
        for (z, s) in [(0u32, 0i32), (1, -3), (5, 7), ((1 << 26) - 1, i32::MIN)] {
            let m = meta_pack(z, s);
            assert!(!m.is_nan(), "({z}, {s}) packed to a NaN");
            assert_eq!(meta_unpack(m), (z, s));
        }
    }

    #[test]
    fn scaled_product_survives_underflow_roundtrip() {
        // ~1100 distance-1 factors of 1/2 drive the t = 2 product below
        // f64's subnormal floor; without scaling, prod collapses to exactly
        // 0.0 and division can never bring it back.
        assert_eq!(scale_up(), 2.0f64.powi(512));
        assert_eq!(scale_down(), 2.0f64.powi(-512));
        let tables = FactorTables::new(8);
        let nt = tables.nt;
        let mut block = clean_block(nt);
        for _ in 0..1300 {
            add_unfixed(&mut block, &tables, 1);
        }
        let (_, s0) = meta_unpack(block[3 * nt]);
        assert!(s0 < -1, "expected deep scaling, scale = {s0}");
        assert!(block[0] > 0.0, "mantissa must stay nonzero");
        for _ in 0..1300 {
            remove_unfixed(&mut block, &tables, 1);
        }
        for ti in 0..nt {
            let (z, s) = meta_unpack(block[3 * nt + ti]);
            // Reciprocal-multiply removal drifts by ulps, so the mantissa
            // may land just shy of a rescale boundary (e.g. 2^512·(1−δ)
            // at scale −1 instead of 1.0 at scale 0) — the *represented
            // value* is what must recover.
            assert!((-1..=0).contains(&s), "t-slot {ti}: scale {s}");
            assert_eq!(z, 0);
            let value = unscale(block[ti], s);
            assert!((value - 1.0).abs() < 1e-9, "t-slot {ti}: value {value}");
            let ratio = block[nt + ti];
            assert!(ratio.abs() < 1e-9, "t-slot {ti}: ratio {ratio}");
        }
    }

    #[test]
    fn trivial_slot_skipping_is_exact() {
        // Slots with t - 2 + d >= cap must have cdf = 1 and pmf = 0 — i.e.
        // skipping them in add/remove really is a bitwise no-op.
        let tables = FactorTables::new(8);
        for d in 1..=8u32 {
            let row = d as usize * tables.nt;
            for ti in tables.live_slots(d)..tables.nt {
                assert_eq!(tables.cdf[row + ti], 1.0, "d={d} ti={ti}");
                assert_eq!(tables.pmf[row + ti], 0.0, "d={d} ti={ti}");
            }
        }
    }

    #[test]
    fn eval_is_finite_and_nonnegative_when_deeply_scaled() {
        let tables = FactorTables::new(8);
        let nt = tables.nt;
        let mut block = clean_block(nt);
        for _ in 0..2000 {
            add_unfixed(&mut block, &tables, 1);
        }
        let mut local = [0.0f64; 64];
        eval_entry(&block, nt, 8, 1, &mut local);
        for (ri, p) in local.iter().enumerate().take(8) {
            assert!(p.is_finite() && *p >= 0.0, "r = {}: {p}", ri + 1);
        }
    }
}
