//! Executor throughput: the arena-backed executor's hot round loop, measured
//! sequentially and on the chunked parallel path.
//!
//! Besides timing, this bench *verifies* the executor's headline invariant
//! with a counting global allocator: after setup, the sequential round loop
//! performs **zero heap allocations** — the allocation count of a run is
//! independent of how many rounds it executes, both without a fault plan
//! and under a pass-through one. A regression that sneaks a per-round `Vec`
//! back into the hot path (or into the fault branch of the shared loop)
//! fails this bench before it shows up in any timing.
//!
//! It also guards the Elkin–Neiman gossip: its messages hold their top-two
//! entries inline, so a whole decomposition allocates fewer than 1% as many
//! times as it sends messages (a heap-backed message would allocate once
//! per message sent).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use locality_core::decomposition::{elkin_neiman, ElkinNeimanConfig};
use locality_graph::prelude::*;
use locality_rand::prng::SplitMix64;
use locality_rand::source::PrngSource;
use locality_sim::prelude::*;

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
use alloc_counter::allocations_during;

/// Maximum-traffic protocol: every node broadcasts a `Copy` word every round
/// until a fixed deadline, so each round touches every directed edge slot.
#[derive(Debug, Clone)]
struct Pulse {
    deadline: u32,
    acc: u32,
}

impl BatchProtocol for Pulse {
    type Message = u32;
    type Output = u32;

    fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u32>) {
        out.broadcast(ctx.node as u32);
    }

    fn round(
        &mut self,
        ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, u32>,
        out: &mut Outlet<'_, u32>,
    ) -> Control<u32> {
        for (_, &m) in inbox.iter() {
            self.acc = self.acc.wrapping_add(m).rotate_left(1);
        }
        if round >= self.deadline {
            return Control::Halt(self.acc);
        }
        out.broadcast(self.acc ^ ctx.node as u32);
        Control::Continue
    }
}

fn pulses(g: &Graph, rounds: u32) -> impl Iterator<Item = Pulse> {
    (0..g.node_count()).map(move |_| Pulse {
        deadline: rounds,
        acc: 0,
    })
}

fn run_pulse(g: &Graph, ids: &IdAssignment, rounds: u32, threads: usize) -> Run<u32> {
    Executor::local(g, ids)
        .run(pulses(g, rounds), rounds + 1, threads)
        .expect("pulse halts at its deadline")
}

fn run_pulse_with_faults(g: &Graph, ids: &IdAssignment, rounds: u32) -> FaultRun<u32> {
    Executor::local(g, ids)
        .run_with_faults(pulses(g, rounds), rounds + 1, 1, &FaultPlan::new(0))
        .expect("pulse halts at its deadline")
}

/// The acceptance check: allocation count is a function of the graph, not of
/// the round count — i.e. the round loop allocates nothing after setup.
fn assert_round_loop_allocation_free() {
    let g = Graph::grid(40, 40);
    let ids = IdAssignment::sequential(g.node_count());

    // Warm up (lazy runtime one-time allocations must not skew the counts).
    run_pulse(&g, &ids, 4, 1);
    run_pulse_with_faults(&g, &ids, 4);

    let short = allocations_during(|| {
        run_pulse(&g, &ids, 8, 1);
    });
    let long = allocations_during(|| {
        run_pulse(&g, &ids, 256, 1);
    });
    assert_eq!(
        short, long,
        "arena executor round loop allocated: {short} allocs for 8 rounds \
         vs {long} for 256 — the difference is per-round allocation"
    );

    // The same loop under a pass-through fault plan: the fault branch's
    // delivery pass and pending ring must not allocate per round either.
    let short = allocations_during(|| {
        run_pulse_with_faults(&g, &ids, 8);
    });
    let long = allocations_during(|| {
        run_pulse_with_faults(&g, &ids, 256);
    });
    assert_eq!(
        short, long,
        "faulty round loop allocated per round: {short} allocs for 8 rounds vs {long} for 256"
    );
    println!("zero-alloc invariant holds: {short} setup allocations regardless of round count");
}

/// The gossip check: one Elkin–Neiman build allocates per phase (protocol
/// vector, executor arenas), never per message.
fn assert_elkin_neiman_gossip_allocation_free() {
    let graphs = [
        ("grid 40x40", Graph::grid(40, 40)),
        (
            "G(2048, 4/n)",
            Graph::gnp_connected(2048, 4.0 / 2048.0, &mut SplitMix64::new(7)),
        ),
    ];
    for (name, g) in graphs {
        let cfg = ElkinNeimanConfig::for_graph(&g);
        let mut messages = 0;
        let allocations = allocations_during(|| {
            let out = elkin_neiman(&g, &cfg, &mut PrngSource::seeded(3));
            messages = out.meter.messages;
        });
        assert!(
            allocations * 100 < messages,
            "elkin-neiman on {name} allocated {allocations} times for {messages} messages \
             (the bound is 1% of the messages)"
        );
        println!(
            "elkin-neiman gossip on {name}: {allocations} allocations for {messages} messages"
        );
    }
}

fn bench_engine(c: &mut Criterion) {
    assert_round_loop_allocation_free();
    assert_elkin_neiman_gossip_allocation_free();

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    let rounds = 32u32;
    for (rows, cols) in [(32usize, 32usize), (64, 64)] {
        let g = Graph::grid(rows, cols);
        let ids = IdAssignment::sequential(g.node_count());
        let n = g.node_count();
        group.bench_with_input(BenchmarkId::new("arena-seq", n), &g, |b, g| {
            b.iter(|| run_pulse(g, &ids, rounds, 1));
        });
        group.bench_with_input(BenchmarkId::new("arena-par4", n), &g, |b, g| {
            b.iter(|| run_pulse(g, &ids, rounds, 4));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
