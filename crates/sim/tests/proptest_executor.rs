//! Property test: the parallel arena executor is bit-identical to the
//! sequential one — same outputs, same [`CostMeter`] — over random `G(n, p)`
//! graphs and randomly scripted protocols, for every thread count.
//!
//! The scripted protocol is adversarial for determinism bugs: each node
//! follows its own pseudo-random schedule of silences, broadcasts, directed
//! sends (including overrides) and halts, and folds its entire message
//! history (port and payload) into an order-sensitive checksum, so a single
//! misrouted, duplicated, stale or dropped message changes some node's
//! output. A second property checks a flooding protocol against the
//! centralized BFS distances.

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
            _ if degree > 0 => {
                // A broadcast partially overridden by directed sends.
                out.broadcast(self.rng.next_u64() >> 32);
                for _ in 0..(self.rng.next_u64() % 3) {
                    let port = (self.rng.next_u64() % degree as u64) as usize;
                    out.send(port, self.rng.next_u64() >> 32);
                }
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
        // Sparse-to-dense sweep: p in roughly [0.02, 0.5].
        let p = 0.02 + (rng.next_u64() % 49) as f64 / 100.0;
        Graph::gnp(n, p, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_executor_is_bit_identical_to_sequential(
        g in arb_gnp(),
        proto_seed in any::<u64>(),
        local in any::<bool>(),
    ) {
        let n = g.node_count();
        let ids = IdAssignment::sequential(n);
        fn make<'g>(local: bool, g: &'g Graph, ids: &'g IdAssignment) -> Executor<'g> {
            if local {
                Executor::local(g, ids)
            } else {
                Executor::congest(g, ids)
            }
        }
        let protocols = |seed: u64| (0..n).map(move |v| Script::new(seed, v));

        let seq = make(local, &g, &ids)
            .run(protocols(proto_seed), 16, 1)
            .expect("scripts halt by round 13");
        for threads in [2usize, 3, 5, 16] {
            let par = make(local, &g, &ids)
                .run(protocols(proto_seed), 16, threads)
                .expect("scripts halt by round 13");
            prop_assert_eq!(&par.outputs, &seq.outputs, "threads={}", threads);
            prop_assert_eq!(par.meter, seq.meter, "threads={}", threads);
            prop_assert_eq!(par.budget_bits, seq.budget_bits);
        }
    }

    #[test]
    fn batched_flood_matches_bfs(
        g in arb_gnp(),
        source_pick in any::<u64>(),
    ) {
        // Flooding from one source halts every node with its BFS distance.
        let n = g.node_count();
        let source = (source_pick % n as u64) as usize;
        let ids = IdAssignment::sequential(n);
        let deadline = 2 * n as u32 + 2;

        #[derive(Debug, Clone)]
        struct BatchedFlood { is_source: bool, dist: Option<u32>, deadline: u32 }
        impl BatchProtocol for BatchedFlood {
            type Message = u32;
            type Output = Option<u32>;
            fn start(&mut self, _ctx: &NodeContext, out: &mut Outlet<'_, u32>) {
                if self.is_source { self.dist = Some(0); out.broadcast(0); }
            }
            fn round(&mut self, _ctx: &NodeContext, round: u32, inbox: &Inbox<'_, u32>, out: &mut Outlet<'_, u32>)
                -> Control<Option<u32>>
            {
                if round >= self.deadline { return Control::Halt(self.dist); }
                if self.dist.is_none() {
                    if let Some(d) = inbox.iter().map(|(_, &d)| d + 1).min() {
                        self.dist = Some(d);
                        out.broadcast(d);
                    }
                }
                Control::Continue
            }
        }

        let batched = Executor::congest(&g, &ids)
            .run(
                (0..n).map(|v| BatchedFlood { is_source: v == source, dist: None, deadline }),
                deadline + 1,
                1,
            )
            .expect("completes");
        let reference = bfs_distances(&g, source);
        prop_assert_eq!(&batched.outputs, &reference);
    }
}
