//! Network decompositions.
//!
//! A *(d, c)-network decomposition* (paper §2) partitions the nodes into
//! clusters, each spanned by a tree of diameter at most `d`, and colors the
//! clusters with `c` colors so that adjacent clusters get different colors.
//! This crate produces *strong-diameter* decompositions (each cluster induces
//! a connected subgraph of diameter ≤ `d`, congestion 1) unless stated
//! otherwise.
//!
//! - [`types`]: the [`Decomposition`] value and its validator;
//! - [`elkin_neiman`]: the randomized construction of [EN16] in the paper's
//!   phase-based form (Lemma 3.3), as a real CONGEST message-passing protocol
//!   run on the [`locality_sim`] executor;
//! - [`carving`]: the deterministic sequential ball-carving
//!   `(O(log n), O(log n))` SLOCAL decomposition (the [PS92]/[LS93]
//!   substitute documented in DESIGN.md §4);
//! - [`cond_expect`]: a *derandomized* Elkin–Neiman phase via the method of
//!   conditional expectations — the paper's `P-RLOCAL = P-SLOCAL` mechanism
//!   [GHK18] made concrete;
//! - [`repair`]: incremental repair of a decomposition after a batch of
//!   edge edits, re-derandomizing only the dirty BFS-ball region.

pub mod carving;
pub mod cond_expect;
pub(crate) mod cond_incremental;
pub mod elkin_neiman;
pub mod mpx;
pub mod repair;
pub mod types;

pub use carving::{ball_carving_decomposition, CarvingResult};

pub use cond_expect::{
    derandomized_decomposition, derandomized_decomposition_threads, reference_decomposition,
    DerandResult, ReferenceProbe,
};
pub use elkin_neiman::{
    elkin_neiman, elkin_neiman_kwise, elkin_neiman_partial, ElkinNeimanConfig,
    ElkinNeimanDecomposition, EnOutcome,
};
pub use repair::{repair_decomposition, RepairOptions, RepairOutcome, RepairPath};
pub use types::{DecompError, DecompQuality, DecompQualityBounds, Decomposition};
