//! Property tests for deterministic fault injection (ISSUE 8):
//!
//! 1. a rate-0 [`FaultPlan`] is byte-for-byte the fault-free executor
//!    (same outputs, same meter, same budget), and
//! 2. a faulty execution is a pure function of `(protocols, plan)` — the
//!    same seed yields bit-identical outcomes and meters across repeated
//!    runs and every thread count.
//!
//! The scripted protocol folds its entire message history into an
//! order-sensitive checksum (as in `proptest_executor.rs`), so a single
//! extra, missing, stale or misrouted delivery changes some node's output;
//! it halts on a fixed round schedule, never on message receipt, so runs
//! terminate under arbitrary drop rates.

use locality_graph::prelude::*;
use locality_rand::prng::{Prng, SplitMix64};
use locality_sim::prelude::*;
use proptest::prelude::*;

/// Deterministic pseudo-random per-node protocol driven by its own PRNG.
#[derive(Debug, Clone)]
struct Script {
    rng: SplitMix64,
    halt_round: u32,
    checksum: u64,
}

impl Script {
    fn new(seed: u64, node: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let halt_round = 1 + (rng.next_u64() % 12) as u32;
        Self {
            rng,
            halt_round,
            checksum: 0,
        }
    }

    fn absorb(&mut self, port: usize, msg: u64) {
        self.checksum = self
            .checksum
            .rotate_left(7)
            .wrapping_add(msg)
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(port as u64 + 1);
    }

    fn act(&mut self, out: &mut Outlet<'_, u64>) {
        let degree = out.degree();
        match self.rng.next_u64() % 4 {
            0 => {} // silent round
            1 => out.broadcast(self.rng.next_u64() >> 32),
            2 if degree > 0 => {
                let port = (self.rng.next_u64() % degree as u64) as usize;
                out.send(port, self.rng.next_u64() >> 32);
            }
            _ => {}
        }
    }
}

impl BatchProtocol for Script {
    type Message = u64;
    type Output = (u32, u64);

    fn start(&mut self, _ctx: &NodeContext, out: &mut Outlet<'_, u64>) {
        self.act(out);
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, u64>,
        out: &mut Outlet<'_, u64>,
    ) -> Control<(u32, u64)> {
        for (port, &msg) in inbox.iter() {
            self.absorb(port, msg);
        }
        if round >= self.halt_round {
            return Control::Halt((round, self.checksum));
        }
        self.act(out);
        Control::Continue
    }
}

fn arb_gnp() -> impl Strategy<Value = Graph> {
    (1usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = SplitMix64::new(seed);
        let p = 0.02 + (rng.next_u64() % 49) as f64 / 100.0;
        Graph::gnp(n, p, &mut rng)
    })
}

/// A fault plan with every fault class active, rates derived from one seed.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), any::<u64>()).prop_map(|(seed, knobs)| {
        let mut rng = SplitMix64::new(knobs);
        FaultPlan::new(seed)
            .with_drop((rng.next_u64() % 3_000) as u32)
            .with_duplication((rng.next_u64() % 2_000) as u32)
            .with_delay(
                (rng.next_u64() % 3_000) as u32,
                1 + (rng.next_u64() % 4) as u32,
            )
            .with_crashes((rng.next_u64() % 1_500) as u32, (rng.next_u64() % 8) as u32)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Rate-0 plans take the fault-free path bit for bit.
    #[test]
    fn rate_zero_plan_equals_fault_free_executor(
        g in arb_gnp(),
        proto_seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let n = g.node_count();
        let ids = IdAssignment::sequential(n);
        let protocols = |seed: u64| (0..n).map(move |v| Script::new(seed, v));
        let plan = FaultPlan::new(plan_seed);
        prop_assert!(plan.is_pass_through());

        let plain = Executor::congest(&g, &ids)
            .run(protocols(proto_seed), 16, 1)
            .expect("scripts halt by round 13");
        let faulty = Executor::congest(&g, &ids)
            .run_with_faults(protocols(proto_seed), 16, 1, &plan)
            .expect("scripts halt by round 13");
        prop_assert_eq!(faulty.meter, plain.meter);
        prop_assert_eq!(faulty.budget_bits, plain.budget_bits);
        prop_assert_eq!(faulty.into_outputs(), Some(plain.outputs));
    }

    /// One plan, one schedule: sequential, repeated, and parallel runs at
    /// every thread count agree bit for bit.
    #[test]
    fn same_seed_faulty_runs_are_bit_identical_across_thread_counts(
        g in arb_gnp(),
        proto_seed in any::<u64>(),
        plan in arb_plan(),
    ) {
        let n = g.node_count();
        let ids = IdAssignment::sequential(n);
        let protocols = |seed: u64| (0..n).map(move |v| Script::new(seed, v));

        let seq = Executor::congest(&g, &ids)
            .run_with_faults(protocols(proto_seed), 16, 1, &plan)
            .expect("scripts halt by round 13");
        let again = Executor::congest(&g, &ids)
            .run_with_faults(protocols(proto_seed), 16, 1, &plan)
            .expect("scripts halt by round 13");
        prop_assert_eq!(&again.outcomes, &seq.outcomes);
        prop_assert_eq!(again.meter, seq.meter);

        for threads in [2usize, 3, 5, 16] {
            let par = Executor::congest(&g, &ids)
                .run_with_faults(protocols(proto_seed), 16, threads, &plan)
                .expect("scripts halt by round 13");
            prop_assert_eq!(&par.outcomes, &seq.outcomes, "threads={}", threads);
            prop_assert_eq!(par.meter, seq.meter, "threads={}", threads);
        }
    }
}
