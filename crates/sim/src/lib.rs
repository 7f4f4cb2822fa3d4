//! Synchronous LOCAL/CONGEST simulator and SLOCAL runtime.
//!
//! The paper's model (its §2): an `n`-node network, one processor per node,
//! unique `Θ(log n)`-bit identifiers, synchronous rounds; per round each node
//! sends one message to each neighbor. In LOCAL messages are unbounded; in
//! CONGEST they are `O(log n)` bits.
//!
//! - [`executor`]: the round runtime. Algorithms are per-node state machines
//!   ([`executor::BatchProtocol`]). Every directed edge owns a fixed slot in
//!   a flat message arena laid out by the graph's CSR edge index; delivery
//!   is a single metering pass that flips the read/write arenas (zero
//!   per-round allocation), and node steps can be chunked across threads
//!   with bit-identical results. Runs meter rounds, messages, bits per
//!   message (flagging CONGEST violations) and random bits drawn.
//! - [`faults`]: seeded deterministic fault schedules ([`faults::FaultPlan`]:
//!   message drop/duplication/reordering/bounded-delay and crash-stop node
//!   failures) injected at the executor's delivery boundary by
//!   [`executor::Executor::run_with_faults`].
//! - [`node`]: the node-side context a protocol sees.
//! - [`protocols`]: reusable CONGEST primitives (BFS, leader election,
//!   convergecast).
//! - [`wire`]: message bit-size accounting ([`wire::WireSize`]).
//! - [`cost`]: the [`cost::CostMeter`] accumulator and sequential
//!   composition.
//! - [`slocal`]: the sequential-local model of [GKM17] — process nodes in an
//!   order, each reading only its radius-`r` ball — with locality accounting.
//!
//! # Example
//!
//! A one-round protocol in which every node learns its neighbors' ids:
//!
//! ```
//! use locality_graph::prelude::*;
//! use locality_sim::prelude::*;
//!
//! #[derive(Clone)]
//! struct Hello { heard: Vec<u64> }
//! impl BatchProtocol for Hello {
//!     type Message = u64;
//!     type Output = usize;
//!     fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u64>) {
//!         out.broadcast(ctx.id);
//!     }
//!     fn round(&mut self, _ctx: &NodeContext, _r: u32, inbox: &Inbox<'_, u64>,
//!         _out: &mut Outlet<'_, u64>) -> Control<usize>
//!     {
//!         self.heard = inbox.iter().map(|(_, &id)| id).collect();
//!         Control::Halt(self.heard.len())
//!     }
//! }
//!
//! let g = Graph::cycle(5);
//! let ids = IdAssignment::sequential(5);
//! let mut exec = Executor::congest(&g, &ids);
//! let run = exec.run((0..5).map(|_| Hello { heard: vec![] }), 10, 1).unwrap();
//! assert!(run.outputs.iter().all(|&d| d == 2));
//! assert_eq!(run.meter.rounds, 1);
//! ```

// Bracketed citation keys ([EN16], [GKM17], ...) are bibliography
// references, not intra-doc links.
#![allow(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod executor;
pub mod faults;
pub mod node;
pub mod protocols;
pub mod slocal;
pub mod wire;

/// The round engine's contract as a protocol sees it, checked end to end
/// through [`Executor::run`] on small hand-written protocols: flooding
/// against BFS, round and message metering, CONGEST violations, the
/// directed-over-broadcast rule and the run errors.
#[cfg(test)]
mod engine {
    mod tests;
}

pub use cost::CostMeter;
pub use executor::{BatchProtocol, Control, EngineError, Executor, Inbox, Mode, Outlet, Run};
pub use faults::{FaultPlan, FaultRun, NodeOutcome};
pub use node::NodeContext;
pub use wire::WireSize;

/// The most used items.
pub mod prelude {
    pub use crate::cost::CostMeter;
    pub use crate::executor::{
        BatchProtocol, Control, EngineError, Executor, Inbox, Mode, Outlet, Run,
    };
    pub use crate::faults::{Delivery, FaultPlan, FaultRun, MessageFate, NodeOutcome};
    pub use crate::node::NodeContext;
    pub use crate::slocal::{BallView, SlocalRunner, SlocalScratch, SlocalStats};
    pub use crate::wire::WireSize;
}
