//! The arena-backed batched round executor: the crate's one round runtime.
//!
//! - **Message arenas.** Every directed edge `(u, port)` owns a fixed slot in
//!   a flat arena laid out by the graph's CSR edge index
//!   ([`locality_graph::Graph::edge_slots`]). A node *sends* by writing its
//!   own contiguous slot segment and *receives* by reading the mirrored slots
//!   ([`locality_graph::Graph::mirror_slots`]) of the opposite arena.
//!   Delivery is therefore a single metering-and-clear pass that flips the
//!   read/write arenas — no queues, no copying, and **zero heap allocation
//!   per round** once the arenas exist (for messages that do not themselves
//!   own heap memory).
//! - **Deterministic parallelism.** Each node writes only its own slot
//!   segment and its own output cell, so node steps are embarrassingly
//!   parallel *and bit-identical to the sequential order*: with
//!   `threads > 1`, [`Executor::run`] chunks the nodes across
//!   [`std::thread::scope`] threads and produces exactly the outputs and
//!   [`CostMeter`] of `threads = 1`. The `determinism-checks` cargo feature
//!   makes every multi-threaded run re-run sequentially and assert equality.
//!
//! Protocols implement [`BatchProtocol`], writing messages through an
//! [`Outlet`] and reading them through an [`Inbox`] view instead of building
//! per-round collections. There are two entry points, [`Executor::run`] and
//! [`Executor::run_with_faults`] (which injects a [`FaultPlan`] at the
//! delivery boundary); both drive the same round loop and meter the random
//! bits every node reports through [`BatchProtocol::random_bits`].

use crate::cost::CostMeter;
use crate::faults::{Delivery, FaultPlan, FaultRun, NodeOutcome};
use crate::node::NodeContext;
use crate::wire::WireSize;
use locality_graph::ids::IdAssignment;
use locality_graph::Graph;
use std::error::Error;
use std::fmt;

/// Communication regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unbounded messages.
    Local,
    /// Messages of at most `budget_bits` bits; larger messages are delivered
    /// but counted as violations (so experiments can report them).
    Congest {
        /// Per-message bit budget (`O(log n)`).
        budget_bits: u64,
    },
}

impl Mode {
    /// The standard CONGEST regime for `g`: `8·⌈log2 n⌉` bits per message
    /// (the model allows any `O(log n)`; the constant is reported, not
    /// hidden). This is the single definition the executor and the
    /// algorithm wrappers share.
    pub fn default_congest(g: &Graph) -> Self {
        Mode::Congest {
            budget_bits: 8 * g.log2_n() as u64,
        }
    }
}

/// Error from [`Executor::run`] and [`Executor::run_with_faults`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The number of protocol instances differed from the node count.
    WrongNodeCount {
        /// Instances supplied.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// Some node had not halted after the round limit.
    RoundLimit {
        /// The limit that was hit.
        limit: u32,
        /// How many nodes were still running.
        still_running: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WrongNodeCount { got, expected } => {
                write!(f, "expected {expected} protocol instances, got {got}")
            }
            EngineError::RoundLimit {
                limit,
                still_running,
            } => write!(
                f,
                "round limit {limit} reached with {still_running} nodes still running"
            ),
        }
    }
}

impl Error for EngineError {}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct Run<O> {
    /// Per-node outputs, indexed by node.
    pub outputs: Vec<O>,
    /// Cost accounting for the whole execution.
    pub meter: CostMeter,
    /// The CONGEST per-message budget the run was metered against (`None`
    /// in LOCAL mode) — kept on the result so violation counts are
    /// interpretable without the executor at hand.
    pub budget_bits: Option<u64>,
}

impl<O> Run<O> {
    /// Whether the execution stayed within its CONGEST budget (vacuously
    /// true in LOCAL mode). Violations themselves are counted per directed
    /// message in [`CostMeter::congest_violations`]: an over-budget
    /// broadcast from a degree-`d` node is `d` violations, not one.
    pub fn congest_clean(&self) -> bool {
        self.meter.congest_clean()
    }
}

/// A node's decision after a batched round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control<O> {
    /// Keep running (messages, if any, were written through the [`Outlet`]).
    Continue,
    /// Terminate with this output. Anything written through the [`Outlet`]
    /// this round is discarded: a halting node is silent.
    Halt(O),
}

/// Read view of one node's inbox for the current round.
///
/// Port `p` carries a message exactly when the neighbor on port `p` wrote its
/// mirrored slot last round; the view resolves mirrors through the graph's
/// precomputed reverse-edge index, so each lookup is `O(1)`.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    arena: &'a [Option<M>],
    mirrors: &'a [usize],
}

impl<'a, M> Inbox<'a, M> {
    /// The receiving node's degree (ports are `0..degree`).
    pub fn degree(&self) -> usize {
        self.mirrors.len()
    }

    /// The message received on `port`, if any.
    ///
    /// # Panics
    /// Panics if `port >= degree`.
    pub fn get(&self, port: usize) -> Option<&'a M> {
        self.arena[self.mirrors[port]].as_ref()
    }

    /// Iterate the occupied ports in ascending port order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a M)> + '_ {
        self.mirrors
            .iter()
            .enumerate()
            .filter_map(|(port, &slot)| self.arena[slot].as_ref().map(|m| (port, m)))
    }

    /// Whether no message arrived this round.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// Write view of one node's outgoing edge slots for the current round.
///
/// Ports are neighbor *indices* `0..degree` (a node does not a priori know
/// its neighbors' ids — it learns them by communication). The slots start
/// empty each round and each holds one message: writing the same port twice
/// keeps the last message, so a later [`Outlet::send`] overrides an earlier
/// [`Outlet::broadcast`] on that port.
#[derive(Debug)]
pub struct Outlet<'a, M> {
    node: usize,
    slots: &'a mut [Option<M>],
}

impl<M: Clone> Outlet<'_, M> {
    /// The sending node's degree (ports are `0..degree`).
    pub fn degree(&self) -> usize {
        self.slots.len()
    }

    /// Send `msg` on `port`.
    ///
    /// # Panics
    /// Panics if `port >= degree`.
    pub fn send(&mut self, port: usize, msg: M) {
        assert!(
            port < self.slots.len(),
            "node {} sent on invalid port {}",
            self.node,
            port
        );
        self.slots[port] = Some(msg);
    }

    /// Send `msg` to every neighbor (one directed message per port — CONGEST
    /// accounting charges each of them).
    pub fn broadcast(&mut self, msg: M) {
        if let Some((last, rest)) = self.slots.split_last_mut() {
            for slot in rest {
                *slot = Some(msg.clone());
            }
            *last = Some(msg);
        }
    }
}

/// A synchronous message-passing protocol, one instance per node.
///
/// The executor calls [`BatchProtocol::start`] before round 1 to collect the
/// first messages, then calls [`BatchProtocol::round`] once per round with
/// the messages that arrived. A node halts by returning [`Control::Halt`];
/// the run ends when every node has halted. Messages are exchanged through
/// slot views instead of per-round collections, so a well-behaved
/// implementation allocates nothing in its `round`.
pub trait BatchProtocol {
    /// Message type (must report its wire size for CONGEST accounting).
    type Message: Clone + WireSize;
    /// Per-node output.
    type Output;

    /// Write the messages for round 1.
    fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, Self::Message>);

    /// Receive round `round`'s inbox; write replies; continue or halt.
    fn round(
        &mut self,
        ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, Self::Message>,
        out: &mut Outlet<'_, Self::Message>,
    ) -> Control<Self::Output>;

    /// Random bits this node has drawn so far. The executor sums it over all
    /// nodes into [`CostMeter::random_bits`] when a run ends; a protocol that
    /// draws no randomness keeps the default of 0.
    fn random_bits(&self) -> u64 {
        0
    }
}

/// The arena-backed executor for one graph.
///
/// [`Executor::run`] runs a protocol to quiescence and
/// [`Executor::run_with_faults`] does the same under a [`FaultPlan`]. Both
/// take a thread count: `1` is the sequential reference order, `0` means
/// available parallelism, and every value produces bit-identical results
/// (asserted under the `determinism-checks` feature).
///
/// # Example
/// ```
/// use locality_graph::prelude::*;
/// use locality_sim::executor::{BatchProtocol, Control, Executor, Inbox, Outlet};
/// use locality_sim::node::NodeContext;
///
/// /// Every node halts with the number of neighbors that greeted it.
/// #[derive(Clone)]
/// struct Hello;
/// impl BatchProtocol for Hello {
///     type Message = u64;
///     type Output = usize;
///     fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u64>) {
///         out.broadcast(ctx.id);
///     }
///     fn round(
///         &mut self,
///         _ctx: &NodeContext,
///         _round: u32,
///         inbox: &Inbox<'_, u64>,
///         _out: &mut Outlet<'_, u64>,
///     ) -> Control<usize> {
///         Control::Halt(inbox.iter().count())
///     }
/// }
///
/// let g = Graph::cycle(5);
/// let ids = IdAssignment::sequential(5);
/// let run = Executor::congest(&g, &ids).run((0..5).map(|_| Hello), 10, 1).unwrap();
/// assert!(run.outputs.iter().all(|&d| d == 2));
/// assert_eq!(run.meter.rounds, 1);
/// ```
#[derive(Debug)]
pub struct Executor<'g> {
    graph: &'g Graph,
    ids: &'g IdAssignment,
    mode: Mode,
}

/// Per-node outputs (`None` for a node that crashed) and the meter of a
/// finished run, before it is shaped into a [`Run`] or a [`FaultRun`].
type Finished<O> = (Vec<Option<O>>, CostMeter);

impl<'g> Executor<'g> {
    /// A LOCAL-model executor (unbounded messages).
    ///
    /// # Panics
    /// Panics if `ids` does not match `graph`.
    pub fn local(graph: &'g Graph, ids: &'g IdAssignment) -> Self {
        Self::with_mode(graph, ids, Mode::Local)
    }

    /// A CONGEST-model executor with the standard budget
    /// ([`Mode::default_congest`]).
    ///
    /// # Panics
    /// Panics if `ids` does not match `graph`.
    pub fn congest(graph: &'g Graph, ids: &'g IdAssignment) -> Self {
        Self::with_mode(graph, ids, Mode::default_congest(graph))
    }

    /// A CONGEST-model executor with an explicit per-message budget.
    ///
    /// # Panics
    /// Panics if `ids` does not match `graph`.
    pub fn congest_with_budget(graph: &'g Graph, ids: &'g IdAssignment, budget_bits: u64) -> Self {
        Self::with_mode(graph, ids, Mode::Congest { budget_bits })
    }

    fn with_mode(graph: &'g Graph, ids: &'g IdAssignment, mode: Mode) -> Self {
        assert!(ids.matches(graph), "id assignment must match graph");
        Self { graph, ids, mode }
    }

    /// The communication mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    fn budget(&self) -> Option<u64> {
        match self.mode {
            Mode::Local => None,
            Mode::Congest { budget_bits } => Some(budget_bits),
        }
    }

    /// Execute `protocols` (one per node, in node order) until every node
    /// has halted or `max_rounds` elapses, with node steps chunked across
    /// `threads` scoped threads (`1` = the sequential reference order, `0` =
    /// available parallelism).
    ///
    /// Outputs and meter are bit-identical for every thread count: each node
    /// writes only its own slot segment and output cell, and metering is a
    /// deterministic pass over the arena in slot order. The
    /// `Clone`/`PartialEq`/`Debug` bounds exist so the `determinism-checks`
    /// cargo feature can re-run a multi-threaded run sequentially and assert
    /// the equivalence; they are required unconditionally so enabling the
    /// feature is additive (it changes behavior, never the API).
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`] or [`EngineError::RoundLimit`].
    pub fn run<P>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        threads: usize,
    ) -> Result<Run<P::Output>, EngineError>
    where
        P: BatchProtocol + Send + Clone,
        P::Message: Send + Sync,
        P::Output: Send + PartialEq + fmt::Debug,
    {
        let (outputs, meter) = self.execute(protocols, max_rounds, threads, None)?;
        let outputs = outputs
            .into_iter()
            .map(|h| h.expect("all nodes halted")) // audit: allow(panic) -- without a fault plan no node crashes, and the loop only succeeds once every node halted
            .collect();
        Ok(Run {
            outputs,
            meter,
            budget_bits: self.budget(),
        })
    }

    /// [`Executor::run`] under the fault schedule `plan`.
    ///
    /// Faults are injected at the delivery boundary between the write and
    /// read arenas (see [`crate::faults`] for the exact semantics). Every
    /// fault decision is a pure function of the plan and the `(round, slot)`
    /// or node coordinates, so outcomes and meter are bit-identical for
    /// every thread count. A plan with all rates zero delivers exactly what
    /// the fault-free loop delivers: the outcomes and meter equal
    /// [`Executor::run`]'s bit for bit.
    ///
    /// # Errors
    /// [`EngineError::WrongNodeCount`], or [`EngineError::RoundLimit`] when
    /// live (non-crashed, non-halted) nodes remain at the budget.
    pub fn run_with_faults<P>(
        &mut self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        threads: usize,
        plan: &FaultPlan,
    ) -> Result<FaultRun<P::Output>, EngineError>
    where
        P: BatchProtocol + Send + Clone,
        P::Message: Send + Sync,
        P::Output: Send + PartialEq + fmt::Debug,
    {
        let (outputs, meter) = self.execute(protocols, max_rounds, threads, Some(plan))?;
        let outcomes = outputs
            .into_iter()
            .enumerate()
            .map(|(v, out)| match out {
                Some(o) => NodeOutcome::Halted(o),
                // The loop only succeeds once every live node halted, so an
                // output-less node necessarily crashed.
                None => NodeOutcome::Crashed {
                    round: plan.crash_round_of(v).unwrap_or(0),
                },
            })
            .collect();
        Ok(FaultRun {
            outcomes,
            meter,
            budget_bits: self.budget(),
        })
    }

    /// Resolve the thread count and run the round loop; under the
    /// `determinism-checks` feature, a multi-threaded run is repeated
    /// sequentially and the two results must agree.
    fn execute<P>(
        &self,
        protocols: impl IntoIterator<Item = P>,
        max_rounds: u32,
        threads: usize,
        plan: Option<&FaultPlan>,
    ) -> Result<Finished<P::Output>, EngineError>
    where
        P: BatchProtocol + Send + Clone,
        P::Message: Send + Sync,
        P::Output: Send + PartialEq + fmt::Debug,
    {
        let nodes: Vec<P> = protocols.into_iter().collect();
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        };
        let chunks = threads.min(self.graph.node_count().max(1));
        #[cfg(feature = "determinism-checks")]
        if chunks > 1 {
            let reference = self.drive(nodes.clone(), max_rounds, 1, plan);
            let parallel = self.drive(nodes, max_rounds, chunks, plan);
            match (&reference, &parallel) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.1, b.1,
                        "determinism check: parallel meter diverged from sequential"
                    );
                    assert_eq!(
                        a.0, b.0,
                        "determinism check: parallel outputs diverged from sequential"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "determinism check: error outcomes diverged");
                }
                _ => panic!("determinism check: parallel and sequential outcomes diverged"), // audit: allow(panic) -- determinism diagnostic: divergence must abort loudly, not be smoothed over
            }
            return parallel;
        }
        self.drive(nodes, max_rounds, chunks, plan)
    }

    /// The round loop: arena setup, the per-round delivery pass, node steps
    /// on `chunks` threads, halt bookkeeping, and final accounting.
    ///
    /// Without a plan, delivery meters what was just written, clears the
    /// consumed arena and flips the two. With one, each written message is
    /// routed through the plan's [`FaultPlan::message_fate`] (drop / delay /
    /// duplicate), matured late copies are merged with seeded reordering,
    /// and crash-stopped nodes are masked out of the step. A pass-through
    /// plan makes the same `record_message` calls in the same slot order as
    /// the fault-free pass, which is what makes rate-0 plans bit-identical
    /// to no plan at all.
    fn drive<P>(
        &self,
        mut nodes: Vec<P>,
        max_rounds: u32,
        chunks: usize,
        plan: Option<&FaultPlan>,
    ) -> Result<Finished<P::Output>, EngineError>
    where
        P: BatchProtocol + Send,
        P::Message: Send + Sync,
        P::Output: Send,
    {
        let graph = self.graph;
        let n = graph.node_count();
        if nodes.len() != n {
            return Err(EngineError::WrongNodeCount {
                got: nodes.len(),
                expected: n,
            });
        }
        let contexts: Vec<NodeContext> = (0..n)
            .map(|v| NodeContext {
                node: v,
                id: self.ids.id_of(v),
                degree: graph.degree(v),
                n,
            })
            .collect();
        let bounds = chunk_bounds(n, chunks);
        let slots = graph.directed_edge_count();
        // The two arenas; after setup the fault-free loop only moves
        // `Option`s in place and swaps the buffers, never reallocating.
        let mut read: Vec<Option<P::Message>> = (0..slots).map(|_| None).collect();
        let mut write: Vec<Option<P::Message>> = (0..slots).map(|_| None).collect();
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let budget = self.budget();
        let mut meter = CostMeter::default();

        // Fault state, all empty without a plan: per-node crash rounds, the
        // crashed mask, and a ring of future deliveries in which
        // `pending[r % horizon]` holds the late copies maturing at round `r`
        // (delays are `< horizon`, so a bucket is always drained before it
        // is reused).
        let crash_at: Vec<Option<u32>> =
            plan.map_or_else(Vec::new, |p| (0..n).map(|v| p.crash_round_of(v)).collect());
        let mut crashed: Vec<bool> = crash_at.iter().map(|c| *c == Some(0)).collect();
        let horizon = plan.map_or(0, FaultPlan::delay_horizon);
        let mut pending: Vec<Vec<(usize, P::Message)>> = (0..horizon).map(|_| Vec::new()).collect();

        for v in 0..n {
            if !crashed.is_empty() && crashed[v] {
                continue; // a node crashing at round 0 never starts
            }
            let mut out = Outlet {
                node: v,
                slots: &mut write[graph.edge_slots(v)],
            };
            nodes[v].start(&contexts[v], &mut out);
        }

        let mut rounds_used = 0;
        if max_rounds == 0 {
            let still_running = n - crashed.iter().filter(|&&c| c).count();
            if still_running > 0 {
                return Err(EngineError::RoundLimit {
                    limit: 0,
                    still_running,
                });
            }
        }
        for round in 1..=max_rounds {
            match plan {
                None => {
                    // Readers see the fresh messages through their mirror
                    // slots once the arenas flip; no copying happens.
                    for msg in write.iter().flatten() {
                        meter.record_message(msg.wire_bits(), budget);
                    }
                    for slot in read.iter_mut() {
                        *slot = None;
                    }
                    std::mem::swap(&mut read, &mut write);
                }
                Some(plan) => {
                    deliver_with_faults(
                        plan,
                        round,
                        &mut read,
                        &mut write,
                        &mut pending,
                        &mut meter,
                        budget,
                    );
                    for (v, c) in crash_at.iter().enumerate() {
                        if *c == Some(round) {
                            crashed[v] = true; // stops executing from this round on
                        }
                    }
                }
            }

            let still_running = if bounds.len() > 1 {
                parallel_step(
                    graph,
                    &bounds,
                    &contexts,
                    &mut nodes,
                    &mut outputs,
                    &mut write,
                    &read,
                    &crashed,
                    round,
                )
            } else {
                step_chunk(
                    graph,
                    &contexts,
                    0,
                    &mut nodes,
                    &mut outputs,
                    &mut write,
                    0,
                    &read,
                    &crashed,
                    round,
                )
            };
            rounds_used = round;
            if still_running == 0 {
                break;
            }
            if round == max_rounds {
                return Err(EngineError::RoundLimit {
                    limit: max_rounds,
                    still_running,
                });
            }
        }

        meter.rounds = rounds_used as u64;
        meter.random_bits = nodes.iter().map(P::random_bits).sum();
        Ok((outputs, meter))
    }
}

/// The faulty delivery pass for `round`: every fresh send in `write` is
/// routed by its fate into `read` or the `pending` ring, then this round's
/// matured late copies are merged.
fn deliver_with_faults<M: Clone + WireSize>(
    plan: &FaultPlan,
    round: u32,
    read: &mut [Option<M>],
    write: &mut [Option<M>],
    pending: &mut [Vec<(usize, M)>],
    meter: &mut CostMeter,
    budget: Option<u64>,
) {
    let horizon = pending.len();
    for slot in read.iter_mut() {
        *slot = None;
    }
    for (slot, sent) in write.iter_mut().enumerate() {
        let Some(msg) = sent.take() else {
            continue;
        };
        let fate = plan.message_fate(round, slot);
        if let Some(extra) = fate.duplicate {
            meter.duplicated += 1;
            pending[(round as usize + extra as usize) % horizon].push((slot, msg.clone()));
        }
        match fate.primary {
            Delivery::Deliver => {
                meter.record_message(msg.wire_bits(), budget);
                read[slot] = Some(msg);
            }
            Delivery::Drop => meter.dropped += 1,
            Delivery::Delay(extra) => {
                meter.delayed += 1;
                pending[(round as usize + extra as usize) % horizon].push((slot, msg));
            }
        }
    }
    let mut matured = std::mem::take(&mut pending[round as usize % horizon]);
    for (slot, msg) in matured.drain(..) {
        // A late copy still arrives (and is metered); when it races a
        // message already delivered on the same edge this round, the seeded
        // reorder coin picks the copy the receiver observes and the
        // superseded one counts as dropped.
        meter.record_message(msg.wire_bits(), budget);
        if read[slot].is_none() {
            read[slot] = Some(msg);
        } else {
            meter.dropped += 1;
            if plan.late_wins(round, slot) {
                read[slot] = Some(msg);
            }
        }
    }
    pending[round as usize % horizon] = matured; // keep the allocation
}

/// Contiguous node chunk bounds for `chunks`-way parallel stepping.
fn chunk_bounds(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let per = n.div_ceil(chunks);
    (0..chunks)
        .map(|c| ((c * per).min(n), ((c + 1) * per).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// One parallel round: split nodes/outputs/write along `bounds` (slot
/// segments follow the CSR offsets) and step every chunk on its own scoped
/// thread (`crashed` is empty when no fault plan is in force).
#[allow(clippy::too_many_arguments)]
fn parallel_step<P>(
    graph: &Graph,
    bounds: &[(usize, usize)],
    contexts: &[NodeContext],
    nodes: &mut [P],
    outputs: &mut [Option<P::Output>],
    write: &mut [Option<P::Message>],
    read: &[Option<P::Message>],
    crashed: &[bool],
    round: u32,
) -> usize
where
    P: BatchProtocol + Send,
    P::Message: Send + Sync,
    P::Output: Send,
{
    let n = graph.node_count();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(bounds.len());
        let mut nodes_rest = nodes;
        let mut outputs_rest = outputs;
        let mut write_rest = write;
        let mut consumed_nodes = 0usize;
        let mut consumed_slots = 0usize;
        for &(lo, hi) in bounds {
            let slot_hi = if hi == n {
                graph.directed_edge_count()
            } else {
                graph.edge_slots(hi).start
            };
            let (node_chunk, nr) = nodes_rest.split_at_mut(hi - lo);
            let (out_chunk, or) = outputs_rest.split_at_mut(hi - lo);
            let (write_chunk, wr) = write_rest.split_at_mut(slot_hi - consumed_slots);
            nodes_rest = nr;
            outputs_rest = or;
            write_rest = wr;
            let node_base = consumed_nodes;
            let slot_base = consumed_slots;
            consumed_nodes = hi;
            consumed_slots = slot_hi;
            handles.push(scope.spawn(move || {
                step_chunk(
                    graph,
                    contexts,
                    node_base,
                    node_chunk,
                    out_chunk,
                    write_chunk,
                    slot_base,
                    read,
                    crashed,
                    round,
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker panicked")) // audit: allow(panic) -- a panicked worker already lost the run; propagating the abort is sound
            .sum()
    })
}

/// Step one contiguous chunk of nodes; returns how many are still running.
///
/// `nodes`, `outputs` and `write` are the chunk's slices (node range
/// `node_base..node_base + nodes.len()`, slot range starting at `slot_base`);
/// `read`, `contexts` and `crashed` are the full arrays (`crashed` may be
/// empty, meaning no node ever crashes). Writes land only in the chunk's
/// own slices, which is what makes parallel execution deterministic.
// audit: no-alloc
#[allow(clippy::too_many_arguments)]
fn step_chunk<P: BatchProtocol>(
    graph: &Graph,
    contexts: &[NodeContext],
    node_base: usize,
    nodes: &mut [P],
    outputs: &mut [Option<P::Output>],
    write: &mut [Option<P::Message>],
    slot_base: usize,
    read: &[Option<P::Message>],
    crashed: &[bool],
    round: u32,
) -> usize {
    let mut still_running = 0;
    for (i, node) in nodes.iter_mut().enumerate() {
        if outputs[i].is_some() {
            continue;
        }
        let v = node_base + i;
        if !crashed.is_empty() && crashed[v] {
            continue;
        }
        let range = graph.edge_slots(v);
        let (lo, hi) = (range.start - slot_base, range.end - slot_base);
        let inbox = Inbox {
            arena: read,
            mirrors: graph.mirror_slots(v),
        };
        let mut out = Outlet {
            node: v,
            slots: &mut write[lo..hi],
        };
        match node.round(&contexts[v], round, &inbox, &mut out) {
            Control::Continue => still_running += 1,
            Control::Halt(output) => {
                outputs[i] = Some(output);
                // A halting node is silent: discard anything it wrote.
                for slot in &mut write[lo..hi] {
                    *slot = None;
                }
            }
        }
    }
    still_running
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use locality_graph::prelude::*;
    use locality_rand::source::{BitSource, PrngSource};

    /// BFS flooding: each node halts at the deadline with its distance from
    /// the nearest source.
    #[derive(Debug, Clone)]
    pub(crate) struct Flood {
        is_source: bool,
        dist: Option<u32>,
        deadline: u32,
    }

    impl BatchProtocol for Flood {
        type Message = u32;
        type Output = Option<u32>;

        fn start(&mut self, _ctx: &NodeContext, out: &mut Outlet<'_, u32>) {
            if self.is_source {
                self.dist = Some(0);
                out.broadcast(0);
            }
        }

        fn round(
            &mut self,
            _ctx: &NodeContext,
            round: u32,
            inbox: &Inbox<'_, u32>,
            out: &mut Outlet<'_, u32>,
        ) -> Control<Option<u32>> {
            if round >= self.deadline {
                return Control::Halt(self.dist);
            }
            if self.dist.is_none() {
                if let Some(d) = inbox.iter().map(|(_, &d)| d + 1).min() {
                    self.dist = Some(d);
                    out.broadcast(d);
                }
            }
            Control::Continue
        }
    }

    pub(crate) fn flood_protocols(g: &Graph, sources: &[usize], deadline: u32) -> Vec<Flood> {
        (0..g.node_count())
            .map(|v| Flood {
                is_source: sources.contains(&v),
                dist: None,
                deadline,
            })
            .collect()
    }

    /// Flips one metered coin per round and broadcasts it, so a run's
    /// random-bit count is nonzero and known in advance: one bit in `start`
    /// and one in every round before the deadline.
    #[derive(Debug, Clone)]
    struct Coins {
        src: PrngSource,
        deadline: u32,
        heads: u32,
    }

    impl BatchProtocol for Coins {
        type Message = bool;
        type Output = u32;

        fn start(&mut self, _ctx: &NodeContext, out: &mut Outlet<'_, bool>) {
            out.broadcast(self.src.next_bit());
        }

        fn round(
            &mut self,
            _ctx: &NodeContext,
            round: u32,
            inbox: &Inbox<'_, bool>,
            out: &mut Outlet<'_, bool>,
        ) -> Control<u32> {
            self.heads += inbox.iter().filter(|(_, &heads)| heads).count() as u32;
            if round >= self.deadline {
                return Control::Halt(self.heads);
            }
            out.broadcast(self.src.next_bit());
            Control::Continue
        }

        fn random_bits(&self) -> u64 {
            self.src.bits_drawn()
        }
    }

    #[test]
    fn sequential_flood_matches_bfs() {
        let g = Graph::grid(5, 7);
        let ids = IdAssignment::sequential(g.node_count());
        let run = Executor::congest(&g, &ids)
            .run(flood_protocols(&g, &[0], 30), 31, 1)
            .unwrap();
        let reference = bfs_distances(&g, 0);
        for v in g.nodes() {
            assert_eq!(run.outputs[v], reference[v], "node {v}");
        }
        assert!(run.congest_clean());
        assert_eq!(run.budget_bits, Some(8 * g.log2_n() as u64));
        // Every node halts at its deadline, one round inside the budget.
        assert_eq!(run.meter.rounds, 30);

        // Violations are counted per directed message: over a 16-bit budget
        // every 32-bit message is one. LOCAL has no budget to violate.
        let tight = Executor::congest_with_budget(&g, &ids, 16)
            .run(flood_protocols(&g, &[0], 30), 31, 1)
            .unwrap();
        assert_eq!(tight.meter.messages, run.meter.messages);
        assert_eq!(tight.meter.congest_violations, tight.meter.messages);
        let local = Executor::local(&g, &ids)
            .run(flood_protocols(&g, &[0], 30), 31, 1)
            .unwrap();
        assert_eq!(local.meter.congest_violations, 0);
        assert_eq!(local.budget_bits, None);
    }

    #[test]
    fn parallel_equals_sequential_on_flood() {
        let g = Graph::grid(9, 11);
        let ids = IdAssignment::sequential(g.node_count());
        let seq = Executor::congest(&g, &ids)
            .run(flood_protocols(&g, &[3, 50], 40), 41, 1)
            .unwrap();
        for threads in [0, 2, 3, 8, 64] {
            let par = Executor::congest(&g, &ids)
                .run(flood_protocols(&g, &[3, 50], 40), 41, threads)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "threads={threads}");
            assert_eq!(par.meter, seq.meter, "threads={threads}");
        }
    }

    #[test]
    fn parallel_handles_edgeless_and_tiny_graphs() {
        for g in [Graph::empty(0), Graph::empty(5), Graph::path(2)] {
            let ids = IdAssignment::sequential(g.node_count());
            let run = Executor::local(&g, &ids)
                .run(flood_protocols(&g, &[], 3), 4, 4)
                .unwrap();
            assert_eq!(run.outputs.len(), g.node_count());
            assert!(run.outputs.iter().all(|d| d.is_none()));
        }
    }

    #[test]
    fn round_limit_reported_with_still_running() {
        #[derive(Debug, Clone)]
        struct Forever;
        impl BatchProtocol for Forever {
            type Message = bool;
            type Output = ();
            fn start(&mut self, _: &NodeContext, _: &mut Outlet<'_, bool>) {}
            fn round(
                &mut self,
                _: &NodeContext,
                _: u32,
                _: &Inbox<'_, bool>,
                _: &mut Outlet<'_, bool>,
            ) -> Control<()> {
                Control::Continue
            }
        }
        let g = Graph::path(3);
        let ids = IdAssignment::sequential(3);
        let err = Executor::local(&g, &ids)
            .run([Forever, Forever, Forever], 4, 1)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RoundLimit {
                limit: 4,
                still_running: 3
            }
        );
        assert!(err.to_string().contains('4'));
        // Zero-round budgets with live nodes are a limit error, not a panic.
        let err0 = Executor::local(&g, &ids)
            .run([Forever, Forever, Forever], 0, 1)
            .unwrap_err();
        assert!(matches!(err0, EngineError::RoundLimit { limit: 0, .. }));
    }

    #[test]
    fn halting_node_discards_its_writes() {
        // Node 0 writes a message and halts in the same round; node 1 must
        // never receive it.
        #[derive(Debug, Clone)]
        struct WriteThenHalt;
        impl BatchProtocol for WriteThenHalt {
            type Message = u8;
            type Output = usize;
            fn start(&mut self, _: &NodeContext, _: &mut Outlet<'_, u8>) {}
            fn round(
                &mut self,
                ctx: &NodeContext,
                round: u32,
                inbox: &Inbox<'_, u8>,
                out: &mut Outlet<'_, u8>,
            ) -> Control<usize> {
                if ctx.node == 0 {
                    out.broadcast(7);
                    return Control::Halt(0);
                }
                if round >= 3 {
                    return Control::Halt(inbox.iter().count());
                }
                Control::Continue
            }
        }
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        let run = Executor::local(&g, &ids)
            .run([WriteThenHalt, WriteThenHalt], 5, 1)
            .unwrap();
        assert_eq!(run.outputs[1], 0);
        assert_eq!(run.meter.messages, 0);
    }

    #[test]
    fn directed_send_overrides_broadcast_slot() {
        #[derive(Debug, Clone)]
        struct Sender;
        impl BatchProtocol for Sender {
            type Message = u8;
            type Output = Vec<u8>;
            fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u8>) {
                if ctx.node == 1 {
                    out.broadcast(1);
                    out.send(0, 9);
                }
            }
            fn round(
                &mut self,
                _: &NodeContext,
                _: u32,
                inbox: &Inbox<'_, u8>,
                _: &mut Outlet<'_, u8>,
            ) -> Control<Vec<u8>> {
                Control::Halt(inbox.iter().map(|(_, &m)| m).collect())
            }
        }
        let g = Graph::path(3); // node 1 has ports 0 -> node 0, 1 -> node 2
        let ids = IdAssignment::sequential(3);
        let run = Executor::local(&g, &ids)
            .run([Sender, Sender, Sender], 3, 1)
            .unwrap();
        assert_eq!(run.outputs[0], vec![9]);
        assert_eq!(run.outputs[2], vec![1]);
        assert_eq!(run.meter.messages, 2);
    }

    #[test]
    fn wrong_node_count_detected() {
        let g = Graph::path(3);
        let ids = IdAssignment::sequential(3);
        let err = Executor::local(&g, &ids)
            .run(flood_protocols(&Graph::path(2), &[], 3), 5, 1)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::WrongNodeCount {
                got: 2,
                expected: 3
            }
        ));
    }

    #[test]
    fn pass_through_fault_plan_equals_fault_free_run() {
        let g = Graph::grid(6, 9);
        let ids = IdAssignment::sequential(g.node_count());
        let plan = FaultPlan::new(3);
        for threads in [1, 2] {
            let plain = Executor::congest(&g, &ids)
                .run(flood_protocols(&g, &[0, 17], 25), 26, threads)
                .unwrap();
            let faulty = Executor::congest(&g, &ids)
                .run_with_faults(flood_protocols(&g, &[0, 17], 25), 26, threads, &plan)
                .unwrap();
            assert_eq!(faulty.meter, plain.meter, "threads={threads}");
            assert_eq!(faulty.budget_bits, plain.budget_bits);
            assert_eq!(faulty.into_outputs(), Some(plain.outputs));
        }

        // Random bits are metered by both entry points at every thread count.
        let coins = || {
            (0..g.node_count()).map(|v| Coins {
                src: PrngSource::seeded(v as u64),
                deadline: 6,
                heads: 0,
            })
        };
        let reference = Executor::congest(&g, &ids).run(coins(), 7, 1).unwrap();
        assert_eq!(reference.meter.random_bits, 6 * g.node_count() as u64);
        for threads in [1, 2] {
            let plain = Executor::congest(&g, &ids)
                .run(coins(), 7, threads)
                .unwrap();
            let faulty = Executor::congest(&g, &ids)
                .run_with_faults(coins(), 7, threads, &plan)
                .unwrap();
            assert_eq!(plain.meter, reference.meter, "threads={threads}");
            assert_eq!(faulty.meter, reference.meter, "threads={threads}");
            assert_eq!(faulty.into_outputs().as_ref(), Some(&reference.outputs));
        }
    }

    #[test]
    fn crashed_node_stops_flooding_and_is_reported() {
        // A path with the only source at one end: crashing the middle node
        // before it relays partitions the flood.
        let g = Graph::path(5);
        let ids = IdAssignment::sequential(5);
        let plan = FaultPlan::new(0).with_crash_at(2, 1);
        let run = Executor::local(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0], 20), 21, 1, &plan)
            .unwrap();
        assert_eq!(run.crashed_count(), 1);
        assert!(run.outcomes[2].is_crashed());
        assert_eq!(run.outcomes[1], NodeOutcome::Halted(Some(1)));
        // Beyond the crash, the distance never arrives.
        assert_eq!(run.outcomes[3], NodeOutcome::Halted(None));
        assert_eq!(run.outcomes[4], NodeOutcome::Halted(None));
    }

    #[test]
    fn crash_at_round_zero_means_never_started() {
        let g = Graph::path(3);
        let ids = IdAssignment::sequential(3);
        let plan = FaultPlan::new(0).with_crash_at(0, 0);
        let run = Executor::local(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0], 10), 11, 1, &plan)
            .unwrap();
        // The source crashed before its start-round broadcast: nothing floods.
        assert_eq!(run.meter.messages, 0);
        assert!(run.outcomes[0].is_crashed());
        assert_eq!(run.outcomes[1], NodeOutcome::Halted(None));
    }

    #[test]
    fn dropped_messages_are_counted_not_delivered() {
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        // Drop everything: the flood from node 0 never reaches node 1.
        let plan = FaultPlan::new(9).with_drop(10_000);
        let run = Executor::local(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0], 6), 7, 1, &plan)
            .unwrap();
        assert_eq!(run.meter.messages, 0);
        assert!(run.meter.dropped > 0);
        assert_eq!(run.outcomes[1], NodeOutcome::Halted(None));
    }

    #[test]
    fn delayed_message_arrives_later() {
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        // Delay everything by exactly 1 extra round: distances still
        // propagate, one round later.
        let plan = FaultPlan::new(4).with_delay(10_000, 1);
        let run = Executor::local(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0], 8), 9, 1, &plan)
            .unwrap();
        assert_eq!(run.outcomes[1], NodeOutcome::Halted(Some(1)));
        assert!(run.meter.delayed > 0);
    }

    #[test]
    fn faulty_parallel_matches_sequential_across_thread_counts() {
        let g = Graph::grid(7, 9);
        let ids = IdAssignment::sequential(g.node_count());
        let plan = FaultPlan::new(42)
            .with_drop(1_500)
            .with_duplication(1_000)
            .with_delay(2_000, 3)
            .with_crashes(800, 3);
        let seq = Executor::congest(&g, &ids)
            .run_with_faults(flood_protocols(&g, &[0, 31], 30), 31, 1, &plan)
            .unwrap();
        for threads in [2, 3, 8, 64] {
            let par = Executor::congest(&g, &ids)
                .run_with_faults(flood_protocols(&g, &[0, 31], 30), 31, threads, &plan)
                .unwrap();
            assert_eq!(par.meter, seq.meter, "threads={threads}");
            assert_eq!(par.outcomes, seq.outcomes, "threads={threads}");
        }
        // The schedule actually exercised each fault class.
        assert!(seq.meter.dropped > 0 && seq.meter.duplicated > 0 && seq.meter.delayed > 0);
    }
}
