//! Derandomizer throughput: the incremental conditional-expectations engine
//! against the retained direct implementation.
//!
//! Like `benches/engine.rs`, this bench *verifies* invariants besides timing,
//! via a counting global allocator:
//!
//! - the engine's allocation count is deterministic (same input ⇒ same
//!   count), and
//! - it stays small — a few allocations per phase for arenas and scratch —
//!   rather than scaling with `centers × candidates` the way per-candidate
//!   buffer rebuilding would.
//!
//! It also asserts the headline speedup: on `G(n, 4/n)` at `n = 512` (the
//! largest size where the direct implementation finishes in bench time) the
//! incremental engine must be **≥ 50× faster**; at larger `n` the ratio keeps
//! growing (the `d1` experiment extrapolates the baseline there — see
//! `BENCH_derand.json`), and at `n = 4096` it must be **≥ 5000×** against
//! the same extrapolated reference, timed in this process.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use locality_core::decomposition::{
    derandomized_decomposition, derandomized_decomposition_threads, reference_decomposition,
    ReferenceProbe,
};
use locality_graph::Graph;
use locality_rand::prng::SplitMix64;
use std::time::Instant;

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
use alloc_counter::allocations_during;

fn gnp4(n: usize, seed: u64) -> Graph {
    let mut prng = SplitMix64::new(seed);
    Graph::gnp(n, 4.0 / n as f64, &mut prng)
}

/// Allocation discipline: deterministic count, and no per-candidate
/// allocations (which would put the count in the hundreds of thousands).
fn assert_allocation_discipline() {
    let g = gnp4(512, 11);
    // Warm up any lazy runtime allocations.
    derandomized_decomposition_threads(&g, 4, 1);
    let first = allocations_during(|| {
        derandomized_decomposition_threads(&g, 8, 1);
    });
    let second = allocations_during(|| {
        derandomized_decomposition_threads(&g, 8, 1);
    });
    assert_eq!(
        first, second,
        "derandomizer allocation count must be deterministic"
    );
    // 512 centers × 8 candidates × ~15 phase-1 evaluations would exceed this
    // bound a hundredfold if candidate evaluation (re)allocated; the engine's
    // real count is a few dozen per phase (arena growth + phase scratch).
    assert!(
        first < 20_000,
        "derandomizer allocated {first} times on G(512, 4/n) — hot loops are allocating"
    );
    println!("allocation discipline holds: {first} allocations, deterministic");
}

/// The acceptance check: ≥ 50× over the direct implementation at n = 512
/// (the largest size where the direct implementation finishes in bench time;
/// the ratio grows with n — see `BENCH_derand.json` for the 4096-node
/// figure).
fn assert_speedup() {
    let g = gnp4(512, 7);
    let cap = 8;
    let t0 = Instant::now();
    let reference = reference_decomposition(&g, cap);
    let ref_time = t0.elapsed();
    // Best of three for the fast side: its ~70 ms window would otherwise let
    // a single scheduler stall halve the measured ratio (the reference's
    // multi-second window averages such noise out on its own).
    let mut opt_time = std::time::Duration::MAX;
    let mut optimized = None;
    for _ in 0..3 {
        let t1 = Instant::now();
        let run = derandomized_decomposition(&g, cap);
        opt_time = opt_time.min(t1.elapsed());
        optimized = Some(run);
    }
    let optimized = optimized.expect("three runs happened");
    assert_eq!(
        optimized.decomposition, reference.decomposition,
        "speedup bench: outputs diverged"
    );
    let speedup = ref_time.as_secs_f64() / opt_time.as_secs_f64().max(1e-9);
    println!(
        "G(512, 4/n) cap {cap}: reference {:.1} ms, incremental {:.3} ms -> {speedup:.0}x",
        ref_time.as_secs_f64() * 1e3,
        opt_time.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= 50.0,
        "incremental engine is only {speedup:.1}x faster than the reference"
    );
}

/// Floor of the `n = 4096` ratio against the probed reference. The engine
/// reads 11 000–13 000x there on a 2-core box; the engine before the
/// hot-loop and scheduling rewrite, at 5215 ms on the same instance, would
/// read about 3 200x.
const MIN_SPEEDUP_N4096: f64 = 5000.0;

/// The hot-loop and scheduling rewrite's check at `n = 4096`, cap 8 (the
/// `d1` row's instance): the reference's phase-1 fixing cost, probed over
/// the same two centers as `d1` and extrapolated, against the incremental
/// engine, both timed in this process, so the ratio does not follow the
/// machine's speed the way a committed wall-clock constant does.
fn assert_speedup_vs_probed_reference_4096() {
    let n = 4096;
    let g = gnp4(n, 4 + n as u64);
    let cap = 8;
    let probe = ReferenceProbe::prepare(&g, cap, 2);
    let t0 = Instant::now();
    let checksum = probe.fix();
    let ref_est = t0.elapsed().as_secs_f64() * probe.scale();
    // Minimum of three: the ~1.5 s window is long enough that scheduler
    // noise only ever slows a run down.
    let mut opt = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(derandomized_decomposition(&g, cap));
        opt = opt.min(t.elapsed().as_secs_f64());
    }
    let speedup = ref_est / opt.max(1e-9);
    println!(
        "G(4096, 4/n) cap {cap}: reference >= {ref_est:.0} s (extrapolated x{:.0}, \
         checksum {checksum:.2}), incremental {:.0} ms -> {speedup:.0}x",
        probe.scale(),
        opt * 1e3,
    );
    assert!(
        speedup >= MIN_SPEEDUP_N4096,
        "incremental engine is only {speedup:.0}x faster than the probed reference at n = 4096 \
         (floor {MIN_SPEEDUP_N4096:.0}x)"
    );
}

/// Allocation discipline for the work-stealing path: on a star every
/// radius-2 ball is the whole graph, so with `threads = 2` every one of the
/// `n + 1` center fixes takes the chunk-stealing eval + pipelined-carve
/// route. The count must stay deterministic and bounded *per fix* (the
/// scoped worker threads themselves cost a couple dozen allocations per
/// fix): the stealing loop publishes partials into one preallocated atomic
/// array, so nothing may allocate per chunk, per entry, or per candidate —
/// any of which would blow the per-fix bound by orders of magnitude
/// (star(5000) visits ~5000 entries × 3 candidates per fix).
fn assert_work_stealing_allocation_discipline() {
    let n = 5000;
    let g = Graph::star(n);
    derandomized_decomposition_threads(&g, 3, 2); // warm up lazy runtime state
    let first = allocations_during(|| {
        derandomized_decomposition_threads(&g, 3, 2);
    });
    let second = allocations_during(|| {
        derandomized_decomposition_threads(&g, 3, 2);
    });
    assert_eq!(
        first, second,
        "work-stealing allocation count must be deterministic"
    );
    let per_fix = first as f64 / (n + 1) as f64;
    assert!(
        per_fix < 40.0,
        "work-stealing path allocated {first} times on star({n}) \
         ({per_fix:.1} per fix) — the stealing loop is allocating per chunk or entry"
    );
    println!(
        "work-stealing allocation discipline holds: {first} allocations \
         ({per_fix:.1} per fix), deterministic"
    );
}

/// Extrapolated comparison at n = 1024 (reference phase-1 fixing cost probed
/// over a center prefix; a lower bound on the full reference run).
fn report_extrapolated_1024() {
    let g = gnp4(1024, 13);
    let cap = 8;
    let probe = ReferenceProbe::prepare(&g, cap, 8);
    let t0 = Instant::now();
    let checksum = probe.fix();
    let probed = t0.elapsed().as_secs_f64();
    let ref_est = probed * probe.scale();
    let t1 = Instant::now();
    let r = derandomized_decomposition(&g, cap);
    let opt = t1.elapsed().as_secs_f64();
    println!(
        "G(1024, 4/n) cap {cap}: reference >= {:.1} s (extrapolated x{:.0}, checksum {checksum:.2}), \
         incremental {:.3} s ({} phases) -> >= {:.0}x",
        ref_est,
        probe.scale(),
        opt,
        r.phases,
        ref_est / opt.max(1e-9)
    );
}

fn bench_derand(c: &mut Criterion) {
    assert_allocation_discipline();
    assert_work_stealing_allocation_discipline();
    assert_speedup();
    assert_speedup_vs_probed_reference_4096();
    report_extrapolated_1024();

    let mut group = c.benchmark_group("derand");
    group.sample_size(10);
    for n in [256usize, 1024] {
        let g = gnp4(n, 7);
        group.bench_with_input(BenchmarkId::new("incremental", n), &g, |b, g| {
            b.iter(|| derandomized_decomposition(g, 8));
        });
    }
    // The reference itself is timed once inside `assert_speedup` — ten
    // criterion iterations of it would dominate the whole bench suite.
    group.finish();
}

criterion_group!(benches, bench_derand);
criterion_main!(benches);
