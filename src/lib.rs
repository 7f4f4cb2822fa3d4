//! # locality — randomness as a resource in local distributed graph algorithms
//!
//! Umbrella crate for the reproduction of **Ghaffari & Kuhn, "On the Use of
//! Randomness in Local Distributed Graph Algorithms" (PODC 2019)**.
//!
//! The workspace builds, from scratch:
//!
//! - [`graph`]: the graph substrate (CSR graphs, generators, traversal,
//!   cluster graphs);
//! - [`rand`]: randomness as a metered resource (finite tapes, k-wise
//!   independent families, ε-biased spaces, shared seeds, sparse placements);
//! - [`sim`]: a synchronous LOCAL/CONGEST round simulator plus an SLOCAL
//!   runtime, with round/message/bit accounting;
//! - [`core`]: the paper's algorithms — network decompositions under every
//!   restricted-randomness regime (Theorems 3.1, 3.5, 3.6, 3.7), the splitting
//!   problem (Lemma 3.4), conflict-free hypergraph multicoloring
//!   (Theorem 3.5), error boosting by shattering (Theorem 4.2), and
//!   brute-force/threshold derandomization (Lemma 4.1, Theorems 4.3/4.6) —
//!   along with the consumers (MIS, (∆+1)-coloring), local checkers, and the
//!   `serve` façade (typed requests, caching sessions, sharded fleets) in
//!   front of all of them.
//!
//! # Quickstart
//!
//! ```
//! use locality::prelude::*;
//!
//! // A random graph and a fully random Elkin–Neiman decomposition.
//! let g = Graph::gnp(200, 0.03, &mut SplitMix64::new(7));
//! let cfg = ElkinNeimanConfig::for_graph(&g);
//! let mut src = PrngSource::seeded(1);
//! let run = elkin_neiman(&g, &cfg, &mut src);
//! let d = run.decomposition.expect("whp success");
//! d.validate(&g).expect("valid decomposition");
//! assert!(d.color_count() <= cfg.phases as usize);
//! ```

// Bracketed citation keys ([EN16], [GKM17], ...) are bibliography
// references, not intra-doc links.
#![allow(rustdoc::broken_intra_doc_links)]
pub use locality_core as core;
pub use locality_graph as graph;
pub use locality_rand as rand;
pub use locality_sim as sim;

/// The most frequently used items across the workspace.
pub mod prelude {
    pub use locality_core::algorithm::{AlgorithmRun, RoundStats};
    pub use locality_core::boost::{boosted_decomposition, BoostConfig};
    pub use locality_core::checkers;
    pub use locality_core::coloring;
    pub use locality_core::decomposition::{
        elkin_neiman, elkin_neiman_kwise, Decomposition, ElkinNeimanConfig,
    };
    pub use locality_core::decomposition::{
        repair_decomposition, RepairOptions, RepairOutcome, RepairPath,
    };
    pub use locality_core::mis;
    pub use locality_core::ruling::{ruling_set, RulingSetParams};
    pub use locality_core::serve::{
        ColoringOptions, CostProbe, DecompMethod, DecompProvenance, DecomposeOptions,
        DegradePolicy, Fleet, HttpConfig, HttpError, HttpServer, MetricsSnapshot, MisOptions,
        ProblemKind, RepairStats, ReplyMode, Request, Response, RestoreOutcome, RetryPolicy,
        Session, SessionStats, SlocalOptions, SlocalOutput, SlocalTask, SolveError, SolverEntry,
        StoreError, Strategy, VerifyReport, VerifyRequest, WireError,
    };
    pub use locality_core::shared::{shared_randomness_decomposition, SharedDecompConfig};
    pub use locality_core::sparse::{sparse_randomness_decomposition, SparsePipelineConfig};
    pub use locality_core::splitting::{self, SplittingInstance};
    pub use locality_graph::prelude::*;
    pub use locality_rand::prelude::*;
    pub use locality_sim::cost::CostMeter;
    pub use locality_sim::executor::{BatchProtocol, Control, Executor, Inbox, Outlet};
}
