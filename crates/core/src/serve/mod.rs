//! The serving façade: typed problems, reusable sessions, and a batched
//! multi-graph API in front of the paper's algorithms.
//!
//! The paper's central move is that **one network decomposition answers many
//! problems** — MIS, (∆+1)-coloring, any SLOCAL(r) task, derandomization
//! itself. The free functions (`mis::via_decomposition`,
//! `coloring::via_decomposition`, `run_slocal_via_decomposition`, …) each
//! take their own parameters, re-validate the decomposition per call, and
//! rebuild every scratch arena; serving N requests that way costs N
//! validations and N arena warm-ups. This module is the production shape of
//! the same theorem:
//!
//! - [`request`]: the typed problem layer — a [`Request`]/[`Response`] enum
//!   pair whose variants carry `#[non_exhaustive]` option structs, plus the
//!   structured [`SolveError`] (no stringly errors on the solver path);
//! - [`registry`]: one [`SolverEntry`] of capability metadata per served
//!   `(problem, strategy)` pair (model, determinism, round-budget formula,
//!   needs-decomposition), so the whole surface is enumerable; it describes,
//!   while the session dispatches each [`Strategy`] with one exhaustive
//!   match;
//! - [`session`]: a [`Session`] pins one graph and lazily caches the
//!   decomposition(s), the power-graph reduction plans, the PR 3/4 scratch
//!   arenas, and the responses themselves — N mixed requests cost one
//!   decomposition and zero steady-state allocations;
//! - [`fleet`]: a [`Fleet`] shards independent sessions across
//!   [`std::thread::scope`] threads with bit-identical outputs per request.
//!
//! The pre-existing free functions remain as thin entry points over the same
//! machinery; everything a session answers is bit-identical to the
//! corresponding direct call (differential proptests pin this).

pub mod fleet;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod request;
pub mod session;
pub mod store;
pub mod wire;

pub use fleet::{Fleet, RestoreOutcome, RetryPolicy};
pub use http::{HttpConfig, HttpError, HttpServer};
pub use metrics::{EndpointSnapshot, HttpMetrics, MetricsSnapshot};
pub use registry::{registry, Model, SolverEntry};
pub use request::{
    ColoringOptions, DecompMethod, DecompProvenance, DecomposeOptions, DegradePolicy, MisOptions,
    ProblemKind, Request, Response, SlocalOptions, SlocalOutput, SlocalTask, SolveError, Strategy,
    VerifyReport, VerifyRequest,
};
pub use session::{CostProbe, RepairStats, Session, SessionStats};
pub use store::StoreError;
pub use wire::{ReplyMode, WireError};
