//! Consumer-pipeline throughput: the scaled "decomposition ⇒ everything"
//! consumers against the retained quadratic references.
//!
//! Like `benches/engine.rs` and `benches/derand.rs`, this bench *verifies*
//! invariants besides timing, via the shared counting global allocator:
//!
//! - the SLOCAL step loop allocates **zero** bytes in steady state: after a
//!   warmup span, re-running `SlocalRunner::process_span` over every node
//!   with the same scratch/staging buffers performs no allocation at all;
//! - consumer outputs are thread-count-invariant and identical to the
//!   `reference_*` implementations (also re-checked on every call when the
//!   `determinism-checks` feature is on);
//! - the SLOCAL→LOCAL reduction on a 64×64 grid is **≥ 50× faster** than
//!   the retained reference path (materialized `reference_power_graph` +
//!   full-`n`-BFS validation). Grids rather than `G(n, p)` because on an
//!   expander the exact per-color weak-diameter bill is a graph-diameter
//!   computation both paths pay equally — see `p1_pipeline_rows`;
//! - the exact per-cluster strong diameters a consumer plan needs, on an
//!   MPX (β = 0.4) decomposition of a connected `G(2000, 4/n)`, equal
//!   `reference_induced_diameter` and are **≥ 30× faster** than it
//!   (eccentricity bounding runs a small fraction of one BFS per member,
//!   and past its first sixteen sources runs them 64 to a bit-parallel
//!   sweep; a full per-member scan over the scratch is no faster than the
//!   reference's compact subgraph).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use locality_core::coloring;
use locality_core::decomposition::ball_carving_decomposition;
use locality_core::decomposition::mpx::mpx_partition;
use locality_core::decomposition::types::Decomposition;
use locality_core::mis;
use locality_core::slocal::{
    reference_run_slocal_via_decomposition, run_slocal_via_decomposition,
    run_slocal_via_decomposition_threads,
};
use locality_graph::metrics::{induced_diameter_with, reference_induced_diameter, DiameterScratch};
use locality_graph::power::power_graph;
use locality_graph::Graph;
use locality_rand::prng::SplitMix64;
use locality_sim::slocal::{BallView, SlocalRunner, SlocalScratch};
use std::time::Instant;

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
use alloc_counter::allocations_during;

fn carve(g: &Graph) -> Decomposition {
    let order: Vec<usize> = (0..g.node_count()).collect();
    ball_carving_decomposition(g, &order).decomposition
}

fn greedy(view: &BallView<'_, bool>) -> bool {
    !view
        .neighbors(view.center())
        .any(|u| view.output(u).copied().unwrap_or(false))
}

/// The steady-state SLOCAL step loop performs literally zero allocations:
/// scratch, staging and ball buffers are all reused.
fn assert_slocal_zero_alloc() {
    let mut p = SplitMix64::new(21);
    let g = Graph::gnp_connected(2000, 3.0 / 2000.0, &mut p);
    let n = g.node_count();
    let runner = SlocalRunner::new(&g, 2);
    let mut scratch = SlocalScratch::new(n);
    let outputs: Vec<Option<bool>> = vec![None; n];
    let mut staged: Vec<(u32, bool)> = Vec::new();
    let members: Vec<usize> = (0..n).collect();
    // Warmup: grows the queue/ball/staging buffers to their high-water mark.
    runner.process_span(&mut scratch, &outputs, &mut staged, &members, greedy);
    staged.clear();
    let count = allocations_during(|| {
        runner.process_span(&mut scratch, &outputs, &mut staged, &members, greedy);
    });
    assert_eq!(
        count, 0,
        "SLOCAL step loop allocated {count} times in steady state"
    );
    println!("SLOCAL step loop: zero steady-state allocations over {n} steps");
}

/// Fast consumers are thread-count-invariant and agree with the retained
/// references, bit for bit.
fn assert_consumer_equivalence() {
    let mut p = SplitMix64::new(23);
    let g = Graph::gnp_connected(1200, 4.0 / 1200.0, &mut p);
    let d = carve(&g);
    let mis_ref = mis::reference_via_decomposition(&g, &d);
    let col_ref = coloring::reference_via_decomposition(&g, &d);
    let grid = Graph::grid(40, 40);
    let d3 = carve(&power_graph(&grid, 3));
    let red_ref = reference_run_slocal_via_decomposition(&grid, 1, &d3, greedy);
    for threads in [1usize, 2, 8] {
        let m = mis::via_decomposition_threads(&g, &d, threads);
        assert_eq!(m.in_mis, mis_ref.in_mis, "MIS labels (t={threads})");
        assert_eq!(m.meter, mis_ref.meter, "MIS meter (t={threads})");
        let c = coloring::via_decomposition_threads(&g, &d, threads);
        assert_eq!(c.colors, col_ref.colors, "colors (t={threads})");
        assert_eq!(c.meter, col_ref.meter, "coloring meter (t={threads})");
        let r = run_slocal_via_decomposition_threads(&grid, 1, &d3, threads, greedy);
        assert_eq!(r.outputs, red_ref.outputs, "reduction (t={threads})");
        assert_eq!(r.meter, red_ref.meter, "reduction meter (t={threads})");
    }
    println!("consumers: thread-count-invariant and reference-identical");
}

/// The acceptance check: the SLOCAL→LOCAL reduction on a 64×64 grid is
/// ≥ 50× faster than the retained reference path (the `p1` experiment
/// additionally records the end-to-end pipeline speedup — ~100× at
/// n = 4096 — in `BENCH_pipeline.json`).
fn assert_reduction_speedup() {
    let grid = Graph::grid(64, 64);
    let d3 = carve(&power_graph(&grid, 3));
    let t0 = Instant::now();
    let reference = reference_run_slocal_via_decomposition(&grid, 1, &d3, greedy);
    let ref_time = t0.elapsed();
    // Best of three for the fast side: its few-ms window would otherwise
    // let a single scheduler stall distort the ratio.
    let mut fast_time = std::time::Duration::MAX;
    let mut fast = None;
    for _ in 0..3 {
        let t1 = Instant::now();
        let run = run_slocal_via_decomposition(&grid, 1, &d3, greedy);
        fast_time = fast_time.min(t1.elapsed());
        fast = Some(run);
    }
    let fast = fast.expect("three runs happened");
    assert_eq!(fast.outputs, reference.outputs, "speedup bench: diverged");
    assert_eq!(fast.meter, reference.meter);
    let speedup = ref_time.as_secs_f64() / fast_time.as_secs_f64().max(1e-9);
    println!(
        "grid 64x64 reduction: reference {:.1} ms, fast {:.3} ms -> {speedup:.0}x",
        ref_time.as_secs_f64() * 1e3,
        fast_time.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= 50.0,
        "fast reduction is only {speedup:.1}x faster than the reference"
    );
}

/// Floor of the plan-diameter speedup. Eccentricity bounding one source at a
/// time reads 17–19x on this instance, whose one cluster needs about 200
/// sources; the bit-parallel rounds take it to about 60x on a 2-core box. So
/// the gate fails if the rounds stop running.
const MIN_PLAN_SPEEDUP: f64 = 30.0;

/// The consumer plan's dominant cost, exact per-cluster strong diameters,
/// on the giant clusters a randomized producer builds: eccentricity
/// bounding must match the retained all-pairs reference cluster by cluster
/// and beat it by [`MIN_PLAN_SPEEDUP`].
fn assert_plan_speedup() {
    let g = Graph::gnp_connected(2000, 4.0 / 2000.0, &mut SplitMix64::new(141));
    let clustering = mpx_partition(&g, 0.4, &mut SplitMix64::new(142)).clustering;
    let clusters = clustering.cluster_count();
    let t0 = Instant::now();
    let reference: Vec<Option<u32>> = (0..clusters)
        .map(|c| reference_induced_diameter(&g, clustering.members(c)))
        .collect();
    let ref_time = t0.elapsed();
    // Best of three, one scratch per run as a plan build has.
    let mut fast_time = std::time::Duration::MAX;
    let mut fast = Vec::new();
    for _ in 0..3 {
        let t1 = Instant::now();
        let mut scratch = DiameterScratch::new(g.node_count());
        fast = (0..clusters)
            .map(|c| induced_diameter_with(&g, clustering.members(c), &mut scratch))
            .collect();
        fast_time = fast_time.min(t1.elapsed());
    }
    assert_eq!(
        fast, reference,
        "plan diameters diverged from the reference"
    );
    let largest = (0..clusters)
        .map(|c| clustering.members(c).len())
        .max()
        .unwrap_or(0);
    let speedup = ref_time.as_secs_f64() / fast_time.as_secs_f64().max(1e-9);
    println!(
        "MPX plan diameters on G(2000, 4/n), {clusters} cluster(s), largest {largest} nodes: \
         reference {:.1} ms, bounded {:.3} ms -> {speedup:.1}x",
        ref_time.as_secs_f64() * 1e3,
        fast_time.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= MIN_PLAN_SPEEDUP,
        "plan diameters are only {speedup:.1}x faster than the reference \
         (floor {MIN_PLAN_SPEEDUP:.0}x)"
    );
}

fn bench_pipeline(c: &mut Criterion) {
    assert_slocal_zero_alloc();
    assert_consumer_equivalence();
    assert_reduction_speedup();
    assert_plan_speedup();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for n in [256usize, 1024] {
        let mut p = SplitMix64::new(7 + n as u64);
        let g = Graph::gnp(n, 4.0 / n as f64, &mut p);
        let d = carve(&g);
        group.bench_with_input(
            BenchmarkId::new("mis-consumer", n),
            &(&g, &d),
            |b, (g, d)| {
                b.iter(|| mis::via_decomposition(g, d));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("coloring-consumer", n),
            &(&g, &d),
            |b, (g, d)| {
                b.iter(|| coloring::via_decomposition(g, d));
            },
        );
    }
    {
        let grid = Graph::grid(64, 64);
        let d3 = carve(&power_graph(&grid, 3));
        group.bench_with_input(
            BenchmarkId::new("slocal-reduction", 4096),
            &(&grid, &d3),
            |b, (g, d3)| {
                b.iter(|| run_slocal_via_decomposition(g, 1, d3, greedy));
            },
        );
    }
    // The references are timed once inside `assert_reduction_speedup`; ten
    // criterion iterations of them would dominate the whole bench suite.
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
