//! Algorithms from Ghaffari & Kuhn, *On the Use of Randomness in Local
//! Distributed Graph Algorithms* (PODC 2019).
//!
//! The paper asks two questions about randomized LOCAL/CONGEST algorithms:
//! **how much randomness** do they need (§3), and **how strong a success
//! probability** can they guarantee in a given round budget (§4). Network
//! decomposition is the complete problem through which both are studied; this
//! crate implements every construction of the paper plus the substrate
//! algorithms they invoke:
//!
//! | Paper | Module |
//! |---|---|
//! | Network decompositions (randomized [EN16], derandomized, deterministic) | [`decomposition`] |
//! | Ruling sets [AGLP89] | [`ruling`] |
//! | One private bit per `poly(log n)` hops (Thm 3.1, Lem 3.2/3.3, Thm 3.7) | [`sparse`] |
//! | `poly(log n)` shared bits in CONGEST (Thm 3.6) | [`shared`] |
//! | Splitting with `O(log n)` shared bits (Lem 3.4) | [`splitting`] |
//! | Conflict-free hypergraph multicoloring under k-wise bits (Thm 3.5) | [`cfc`] |
//! | Error boosting by shattering (Thm 4.2) | [`boost`] |
//! | Seed enumeration & "lie about n" (Lem 4.1, Thm 4.3/4.6) | [`derand`] |
//! | Consumers: MIS, (∆+1)-coloring, randomized & decomposition-derandomized | [`mis`], [`coloring`] |
//! | Local checkability (Def. 2.2) | [`checkers`] |
//!
//! MIS, trial coloring and the Elkin–Neiman decomposition also run as
//! protocol ports on the round executor ([`mis::LubyMis`],
//! [`coloring::TrialColoring`],
//! [`decomposition::ElkinNeimanDecomposition`]): graph + ids + seed in,
//! labeling + [`algorithm::RoundStats`] out, so their round, message and
//! random-bit budgets are measured by one metering path.
//!
//! The [`serve`] subsystem is the production façade over all of the above:
//! typed [`serve::Request`]/[`serve::Response`] problems, a descriptive
//! solver [`serve::registry`] of every served `(problem, strategy)` pair, a
//! caching [`serve::Session`] that pins one graph and amortizes its
//! decomposition and scratch arenas across requests, and a [`serve::Fleet`]
//! that shards sessions across threads.

// Bracketed citation keys ([EN16], [GKM17], ...) are bibliography
// references, not intra-doc links.
#![allow(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod boost;
pub mod cfc;
pub mod checkers;
pub mod coloring;
pub(crate) mod consume;
pub mod decomposition;
pub mod derand;
pub mod mis;
pub mod ruling;
pub mod serve;
pub mod shared;
pub mod sinkless;
pub mod slocal;
pub mod sparse;
pub mod splitting;
