//! Seeded, deterministic fault injection for the arena executor.
//!
//! The paper's model is an ideal synchronous network: every message written
//! in round `r` arrives in round `r + 1`, and every node steps every round.
//! A real deployment gets neither guarantee. This module expresses the
//! standard failure repertoire — message **drop**, **duplication**,
//! **reordering**, **bounded delay**, and **crash-stop** node failures — as
//! a [`FaultPlan`]: a pure value whose every decision is a deterministic
//! function of `(seed, kind, round, slot)`. Because no decision depends on
//! execution order, a plan injected by
//! [`crate::executor::Executor::run_with_faults`] yields bit-identical
//! outcomes and meters across thread counts, and a plan whose rates are all
//! zero is byte-for-byte the fault-free executor (both pinned by proptest).
//!
//! Fault semantics, in arena terms (one slot per directed edge per round):
//!
//! - **Drop**: the written message is discarded before delivery and counted
//!   in [`crate::cost::CostMeter::dropped`].
//! - **Delay**: delivery is postponed by `1..=max_delay` rounds (counted in
//!   `delayed`); the copy arrives through the same edge slot later.
//! - **Duplication**: one extra copy is delivered `1..=max_delay` rounds
//!   after the original's send round (counted in `duplicated`).
//! - **Reordering**: when a late copy and a fresh send arrive on the same
//!   edge in the same round, a seeded coin decides which one the receiver
//!   observes; the superseded copy is counted in `dropped`. (Within a
//!   single round the arena model is order-free, so reordering is only
//!   observable through these late-vs-fresh races.)
//! - **Crash-stop**: a node with crash round `c` executes rounds `< c`
//!   normally — messages it sent in round `c - 1` are still delivered — and
//!   then never steps, sends, or halts again. Its result is
//!   [`NodeOutcome::Crashed`] instead of an output.
//!
//! Probabilities are exact rationals in basis points (`1/10_000`), sampled
//! via [`locality_rand::source::PrngSource`], so `rate == 0` never consults
//! the sampler at all.

use crate::cost::CostMeter;
use locality_rand::prng::{Prng, SplitMix64};
use locality_rand::source::{BitSource, PrngSource};

/// Basis points in a whole: rates are expressed per 10 000.
pub const RATE_ONE: u32 = 10_000;

/// Upper bound on [`FaultPlan::max_delay`], bounding the executor's
/// pending-delivery ring to a small constant number of arenas.
pub const MAX_DELAY_CAP: u32 = 64;

// Domain separators for the per-decision hash (arbitrary odd constants).
const DOM_DROP: u64 = 0x9E37_79B9_7F4A_7C15;
const DOM_DELAY: u64 = 0xBF58_476D_1CE4_E5B9;
const DOM_DELAY_LEN: u64 = 0x94D0_49BB_1331_11EB;
const DOM_DUP: u64 = 0xD6E8_FEB8_6659_FD93;
const DOM_DUP_LEN: u64 = 0xA076_1D64_78BD_642F;
const DOM_CRASH: u64 = 0xE703_7ED1_A0B4_28DB;
const DOM_REORDER: u64 = 0x8EBC_6AF0_9C88_C6E3;

/// What the plan decided for one freshly written message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver this round, as the fault-free executor would.
    Deliver,
    /// Discard before delivery.
    Drop,
    /// Deliver after this many extra rounds (`>= 1`).
    Delay(u32),
}

/// The full fate of one written message: what happens to the primary copy,
/// and whether an extra duplicate copy is scheduled (`Some(extra_rounds)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageFate {
    /// Fate of the sender's own copy.
    pub primary: Delivery,
    /// Delay of the duplicated extra copy, if one is injected.
    pub duplicate: Option<u32>,
}

/// A seeded, deterministic fault schedule.
///
/// All decisions are pure functions of the plan and the `(round, slot)` or
/// node coordinates — nothing is mutated while executing, so one plan can
/// drive any number of runs and threads and always describes the same
/// faults.
///
/// # Example
/// ```
/// use locality_sim::faults::{Delivery, FaultPlan, RATE_ONE};
///
/// let plan = FaultPlan::new(7)
///     .with_drop(RATE_ONE / 10)       // 10% of messages dropped
///     .with_delay(RATE_ONE / 20, 3)   // 5% delayed by 1..=3 rounds
///     .with_crashes(RATE_ONE / 50, 4); // ~2% of nodes crash at round 4
/// // Decisions are reproducible values, not events:
/// assert_eq!(plan.message_fate(1, 42), plan.message_fate(1, 42));
/// assert!(matches!(
///     plan.message_fate(1, 42).primary,
///     Delivery::Deliver | Delivery::Drop | Delivery::Delay(_)
/// ));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    seed: u64,
    drop_bp: u32,
    duplicate_bp: u32,
    delay_bp: u32,
    max_delay: u32,
    crash_bp: u32,
    crash_round: u32,
    /// Explicit `(node, round)` crashes, in addition to the sampled ones.
    crashes: Vec<(usize, u32)>,
}

impl FaultPlan {
    /// A pass-through plan (no faults) with the given decision seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_bp: 0,
            duplicate_bp: 0,
            delay_bp: 0,
            max_delay: 1,
            crash_bp: 0,
            crash_round: 0,
            crashes: Vec::new(),
        }
    }

    /// Drop each message independently with probability `bp / 10_000`
    /// (clamped to 1).
    pub fn with_drop(mut self, bp: u32) -> Self {
        self.drop_bp = bp.min(RATE_ONE);
        self
    }

    /// Duplicate each delivered-or-delayed message independently with
    /// probability `bp / 10_000`; the extra copy arrives `1..=max_delay`
    /// rounds late (the delay bound set by [`FaultPlan::with_delay`], or 1).
    pub fn with_duplication(mut self, bp: u32) -> Self {
        self.duplicate_bp = bp.min(RATE_ONE);
        self
    }

    /// Delay each (non-dropped) message independently with probability
    /// `bp / 10_000`, by a seeded uniform `1..=max_delay` rounds
    /// (`max_delay` clamped to `1..=`[`MAX_DELAY_CAP`]).
    pub fn with_delay(mut self, bp: u32, max_delay: u32) -> Self {
        self.delay_bp = bp.min(RATE_ONE);
        self.max_delay = max_delay.clamp(1, MAX_DELAY_CAP);
        self
    }

    /// Crash each node independently with probability `bp / 10_000`, at
    /// round `round` (crash-stop: the node executes rounds `< round` only;
    /// `round == 0` means the node never even starts).
    pub fn with_crashes(mut self, bp: u32, round: u32) -> Self {
        self.crash_bp = bp.min(RATE_ONE);
        self.crash_round = round;
        self
    }

    /// Crash `node` at exactly `round`, in addition to any sampled crashes.
    pub fn with_crash_at(mut self, node: usize, round: u32) -> Self {
        self.crashes.retain(|(v, _)| *v != node);
        self.crashes.push((node, round));
        self.crashes.sort_unstable();
        self
    }

    /// Whether this plan can never inject any fault (the executor's rate-0
    /// fast-path equivalence is over such plans).
    pub fn is_pass_through(&self) -> bool {
        self.drop_bp == 0
            && self.duplicate_bp == 0
            && self.delay_bp == 0
            && self.crash_bp == 0
            && self.crashes.is_empty()
    }

    /// The plan's delay bound (always `>= 1`).
    pub fn max_delay(&self) -> u32 {
        self.max_delay
    }

    /// Ring size covering every schedulable future delivery:
    /// `max_delay + 1` rounds.
    pub fn delay_horizon(&self) -> usize {
        self.max_delay as usize + 1
    }

    /// One 64-bit decision word for `(domain, a, b)` — the root of every
    /// sampled choice, so decisions are independent across coordinates but
    /// fixed for one plan.
    fn word(&self, domain: u64, a: u64, b: u64) -> u64 {
        SplitMix64::new(
            self.seed
                ^ domain
                ^ a.wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ b.wrapping_mul(0x27D4_EB2F_1656_67C5),
        )
        .next_u64()
    }

    /// Exact-rational coin: true with probability `bp / 10_000`.
    fn hit(&self, bp: u32, domain: u64, a: u64, b: u64) -> bool {
        if bp == 0 {
            return false;
        }
        if bp >= RATE_ONE {
            return true;
        }
        PrngSource::seeded(self.word(domain, a, b)).bernoulli(bp as u64, RATE_ONE as u64)
    }

    /// A seeded delay length in `1..=max_delay`.
    fn delay_len(&self, domain: u64, round: u32, slot: usize) -> u32 {
        if self.max_delay == 1 {
            return 1;
        }
        let w = self.word(domain, round as u64, slot as u64);
        1 + BitSource::uniform_below(&mut PrngSource::seeded(w), self.max_delay as u64) as u32
    }

    /// The fate of the message written into `slot` for delivery round
    /// `round`.
    pub fn message_fate(&self, round: u32, slot: usize) -> MessageFate {
        let (r, s) = (round as u64, slot as u64);
        let primary = if self.hit(self.drop_bp, DOM_DROP, r, s) {
            Delivery::Drop
        } else if self.hit(self.delay_bp, DOM_DELAY, r, s) {
            Delivery::Delay(self.delay_len(DOM_DELAY_LEN, round, slot))
        } else {
            Delivery::Deliver
        };
        let duplicate = if self.hit(self.duplicate_bp, DOM_DUP, r, s) {
            Some(self.delay_len(DOM_DUP_LEN, round, slot))
        } else {
            None
        };
        MessageFate { primary, duplicate }
    }

    /// The round at which `node` crash-stops, if it ever does.
    pub fn crash_round_of(&self, node: usize) -> Option<u32> {
        if let Ok(i) = self.crashes.binary_search_by_key(&node, |&(v, _)| v) {
            return Some(self.crashes[i].1);
        }
        if self.hit(self.crash_bp, DOM_CRASH, node as u64, 0) {
            return Some(self.crash_round);
        }
        None
    }

    /// Resolve a same-slot race between a late copy and the message already
    /// delivered this round: `true` means the late arrival supersedes it.
    pub fn late_wins(&self, round: u32, slot: usize) -> bool {
        self.hit(RATE_ONE / 2, DOM_REORDER, round as u64, slot as u64)
    }
}

/// One node's terminal state under a faulty execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOutcome<O> {
    /// The node halted normally with this output.
    Halted(O),
    /// The node crash-stopped at this round and produced no output.
    Crashed {
        /// First round the node failed to execute.
        round: u32,
    },
}

impl<O> NodeOutcome<O> {
    /// The output, if the node halted.
    pub fn output(&self) -> Option<&O> {
        match self {
            NodeOutcome::Halted(o) => Some(o),
            NodeOutcome::Crashed { .. } => None,
        }
    }

    /// Whether the node crash-stopped.
    pub fn is_crashed(&self) -> bool {
        matches!(self, NodeOutcome::Crashed { .. })
    }
}

/// Result of a faulty execution: like [`crate::executor::Run`], but each node
/// ends in a [`NodeOutcome`] (crashed nodes have no output) and the meter
/// carries the fault counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRun<O> {
    /// Terminal state per node, indexed by node.
    pub outcomes: Vec<NodeOutcome<O>>,
    /// Accumulated execution costs, including `dropped` / `duplicated` /
    /// `delayed` fault counters.
    pub meter: CostMeter,
    /// The CONGEST per-message budget in force, if any.
    pub budget_bits: Option<u64>,
}

impl<O> FaultRun<O> {
    /// How many nodes crash-stopped.
    pub fn crashed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_crashed()).count()
    }

    /// The halted nodes' `(node, output)` pairs, in node order.
    pub fn outputs(&self) -> impl Iterator<Item = (usize, &O)> + '_ {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(v, o)| o.output().map(|out| (v, out)))
    }

    /// All outputs in node order, if **no** node crashed (the shape of a
    /// fault-free [`crate::executor::Run`]); `None` as soon as one crashed.
    pub fn into_outputs(self) -> Option<Vec<O>> {
        self.outcomes
            .into_iter()
            .map(|o| match o {
                NodeOutcome::Halted(out) => Some(out),
                NodeOutcome::Crashed { .. } => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_through_plan_never_decides_a_fault() {
        let plan = FaultPlan::new(99);
        assert!(plan.is_pass_through());
        for round in 1..50 {
            for slot in 0..50 {
                assert_eq!(
                    plan.message_fate(round, slot),
                    MessageFate {
                        primary: Delivery::Deliver,
                        duplicate: None
                    }
                );
            }
        }
        for node in 0..100 {
            assert_eq!(plan.crash_round_of(node), None);
        }
    }

    #[test]
    fn decisions_are_reproducible_and_seed_dependent() {
        let a = FaultPlan::new(1).with_drop(5_000);
        let b = FaultPlan::new(2).with_drop(5_000);
        let fates_a: Vec<_> = (0..200).map(|s| a.message_fate(3, s)).collect();
        let fates_a2: Vec<_> = (0..200).map(|s| a.message_fate(3, s)).collect();
        let fates_b: Vec<_> = (0..200).map(|s| b.message_fate(3, s)).collect();
        assert_eq!(fates_a, fates_a2);
        assert_ne!(fates_a, fates_b, "different seeds, different schedules");
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let plan = FaultPlan::new(11).with_drop(2_500); // 25%
        let trials = 40_000;
        let drops = (0..trials)
            .filter(|&s| plan.message_fate(1, s).primary == Delivery::Drop)
            .count();
        let rate = drops as f64 / trials as f64;
        assert!((0.23..0.27).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn delay_lengths_stay_in_bounds() {
        let plan = FaultPlan::new(5).with_delay(RATE_ONE, 4);
        for slot in 0..500 {
            match plan.message_fate(2, slot).primary {
                Delivery::Delay(d) => assert!((1..=4).contains(&d)),
                other => panic!("rate-1 delay must always delay, got {other:?}"),
            }
        }
        assert_eq!(plan.delay_horizon(), 5);
    }

    #[test]
    fn explicit_crashes_override_sampling() {
        let plan = FaultPlan::new(8)
            .with_crashes(0, 9)
            .with_crash_at(4, 2)
            .with_crash_at(1, 3)
            .with_crash_at(4, 7); // re-registering replaces the round
        assert_eq!(plan.crash_round_of(4), Some(7));
        assert_eq!(plan.crash_round_of(1), Some(3));
        assert_eq!(plan.crash_round_of(0), None);
    }

    #[test]
    fn crash_fraction_samples_nodes() {
        let plan = FaultPlan::new(21).with_crashes(3_000, 5);
        let crashed = (0..10_000)
            .filter(|&v| plan.crash_round_of(v).is_some())
            .count();
        let rate = crashed as f64 / 10_000.0;
        assert!((0.27..0.33).contains(&rate), "rate = {rate}");
        assert!((0..10_000)
            .filter_map(|v| plan.crash_round_of(v))
            .all(|r| r == 5));
    }

    #[test]
    fn rates_clamp_and_delay_caps() {
        let plan = FaultPlan::new(0)
            .with_drop(u32::MAX)
            .with_delay(RATE_ONE, 1_000);
        assert_eq!(plan.message_fate(1, 0).primary, Delivery::Drop);
        assert_eq!(plan.max_delay(), MAX_DELAY_CAP);
    }
}
