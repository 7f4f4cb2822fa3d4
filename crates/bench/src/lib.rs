//! Experiment harness for the reproduction.
//!
//! Each table (T1–T10), figure (F1–F4) and benchmark (A1, D1, D2, P1, S1,
//! E1, R1, H1) of the experiment plan in the repository-root `DESIGN.md`
//! (§3) has an experiment id. [`experiments::run`] turns an id into a
//! [`record::Record`]: typed columns declared once, which the `experiments`
//! binary renders as the text report and as the JSON record (with a
//! provenance header):
//!
//! ```sh
//! cargo run -p locality-bench --release --bin experiments -- all
//! cargo run -p locality-bench --release --bin experiments -- t5 f1
//! cargo run -p locality-bench --release --bin experiments -- d1 --json BENCH_derand.json
//! ```
//!
//! The Criterion benches (`cargo bench`) time the hot paths; the experiment
//! binary reports the *model* quantities (rounds, colors, diameters, bits,
//! success rates) that the paper's theorems constrain.

// Bracketed citation keys ([EN16], [GKM17], ...) are bibliography
// references, not intra-doc links.
#![allow(rustdoc::broken_intra_doc_links)]
pub mod experiments;
pub mod record;
