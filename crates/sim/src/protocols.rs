//! Reusable CONGEST protocols on the executor: the primitives the paper's
//! constructions compose (BFS layering, leader election by id flooding,
//! convergecast aggregation).
//!
//! Each protocol is a real per-node state machine; tests cross-validate
//! against the centralized reference implementations in `locality-graph`.

use crate::executor::{BatchProtocol, Control, EngineError, Executor, Inbox, Outlet, Run};
use crate::node::NodeContext;
use crate::wire::Compact;
use locality_graph::ids::IdAssignment;
use locality_graph::Graph;

/// Per-node BFS output: `(distance, parent port)`, each `None` when the node
/// is unreachable within the deadline.
pub type BfsOutput = (Option<u32>, Option<usize>);

/// BFS from a set of sources: each node halts with `(distance, parent port)`
/// to its nearest source (`None` if unreachable within the deadline).
#[derive(Debug, Clone)]
pub struct BfsProtocol {
    is_source: bool,
    deadline: u32,
    dist: Option<u32>,
    parent_port: Option<usize>,
}

impl BfsProtocol {
    /// One instance per node; `deadline` must exceed the graph diameter.
    pub fn new(is_source: bool, deadline: u32) -> Self {
        Self {
            is_source,
            deadline,
            dist: None,
            parent_port: None,
        }
    }

    /// Run BFS on `g` from `sources`; returns per-node
    /// `(distance, parent port)`.
    ///
    /// # Errors
    /// Propagates [`EngineError`] (deadline too small, etc.).
    pub fn run(
        g: &Graph,
        ids: &IdAssignment,
        sources: &[usize],
        deadline: u32,
    ) -> Result<Run<BfsOutput>, EngineError> {
        let nodes = (0..g.node_count()).map(|v| BfsProtocol::new(sources.contains(&v), deadline));
        Executor::congest(g, ids).run(nodes, deadline + 1, 1)
    }
}

impl BatchProtocol for BfsProtocol {
    type Message = u32;
    type Output = BfsOutput;

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
    ) -> Control<BfsOutput> {
        if round >= self.deadline {
            return Control::Halt((self.dist, self.parent_port));
        }
        if self.dist.is_none() {
            if let Some((port, &d)) = inbox.iter().min_by_key(|&(p, &d)| (d, p)) {
                self.dist = Some(d + 1);
                self.parent_port = Some(port);
                out.broadcast(d + 1);
            }
        }
        Control::Continue
    }
}

/// Leader election by minimum-id flooding: every node halts with the
/// smallest id in its connected component. Messages are width-aware
/// [`Compact`] ids, so the protocol is CONGEST-clean for any id space of
/// `O(log n)` bits.
#[derive(Debug, Clone)]
pub struct LeaderElection {
    best: u64,
    id_width: u16,
    deadline: u32,
    changed: bool,
}

impl LeaderElection {
    /// Run on `g`; `deadline` must exceed the diameter.
    ///
    /// # Errors
    /// Propagates [`EngineError`].
    pub fn run(g: &Graph, ids: &IdAssignment, deadline: u32) -> Result<Run<u64>, EngineError> {
        let id_width = ids.bit_len().max(1) as u16;
        let nodes = (0..g.node_count()).map(|_| LeaderElection {
            best: u64::MAX,
            id_width,
            deadline,
            changed: false,
        });
        Executor::congest(g, ids).run(nodes, deadline + 1, 1)
    }

    fn message(&self) -> Compact {
        Compact::new(self.best, self.id_width)
    }
}

impl BatchProtocol for LeaderElection {
    type Message = Compact;
    type Output = u64;

    fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, Compact>) {
        self.best = ctx.id;
        out.broadcast(self.message());
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, Compact>,
        out: &mut Outlet<'_, Compact>,
    ) -> Control<u64> {
        self.changed = false;
        for (_, id) in inbox.iter() {
            if id.value() < self.best {
                self.best = id.value();
                self.changed = true;
            }
        }
        if round >= self.deadline {
            return Control::Halt(self.best);
        }
        if self.changed {
            out.broadcast(self.message());
        }
        Control::Continue
    }
}

/// Convergecast on a BFS tree: leaves push values up parent ports; the root
/// halts with the sum over its component; everyone else halts with the
/// partial sum of its subtree. Requires the `(dist, parent)` output of
/// [`BfsProtocol`].
#[derive(Debug, Clone)]
pub struct ConvergecastSum {
    value: u64,
    parent_port: Option<usize>,
    expected_children: usize,
    received: usize,
    acc: u64,
    deadline: u32,
    sent: bool,
}

impl ConvergecastSum {
    /// Run a sum-convergecast on the BFS tree implied by `parents`
    /// (per-node parent *port*, `None` for roots/unreachable).
    ///
    /// # Errors
    /// Propagates [`EngineError`].
    pub fn run(
        g: &Graph,
        ids: &IdAssignment,
        parents: &[Option<usize>],
        values: &[u64],
        deadline: u32,
    ) -> Result<Run<u64>, EngineError> {
        // Children counts: node v expects one message per neighbor whose
        // parent port points at v.
        let mut expected = vec![0usize; g.node_count()];
        for v in g.nodes() {
            if let Some(p) = parents[v] {
                let parent = g.neighbors(v)[p];
                expected[parent] += 1;
            }
        }
        let nodes = (0..g.node_count()).map(|v| ConvergecastSum {
            value: values[v],
            parent_port: parents[v],
            expected_children: expected[v],
            received: 0,
            acc: values[v],
            deadline,
            sent: false,
        });
        Executor::congest(g, ids).run(nodes, deadline + 1, 1)
    }
}

impl BatchProtocol for ConvergecastSum {
    type Message = u64;
    type Output = u64;

    fn start(&mut self, _ctx: &NodeContext, out: &mut Outlet<'_, u64>) {
        if self.expected_children == 0 {
            if let Some(p) = self.parent_port {
                self.sent = true;
                out.send(p, self.value);
            }
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, u64>,
        out: &mut Outlet<'_, u64>,
    ) -> Control<u64> {
        for (_, &v) in inbox.iter() {
            self.acc += v;
            self.received += 1;
        }
        if self.received >= self.expected_children && !self.sent {
            self.sent = true;
            if let Some(p) = self.parent_port {
                out.send(p, self.acc);
                return Control::Continue;
            }
        }
        if round >= self.deadline {
            return Control::Halt(self.acc);
        }
        Control::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostMeter;
    use locality_graph::prelude::*;

    /// A fault-free meter without random bits. The pinned values in these
    /// tests were recorded before the protocols moved onto
    /// [`BatchProtocol`]; the port must not change a single count.
    fn meter(
        rounds: u64,
        messages: u64,
        bits_sent: u64,
        max_message_bits: u64,
        congest_violations: u64,
    ) -> CostMeter {
        CostMeter {
            rounds,
            messages,
            bits_sent,
            max_message_bits,
            congest_violations,
            ..CostMeter::default()
        }
    }

    #[test]
    fn bfs_protocol_matches_reference() {
        let g = Graph::grid(5, 6);
        let ids = IdAssignment::sequential(g.node_count());
        let run = BfsProtocol::run(&g, &ids, &[0, 29], 40).unwrap();
        let (reference, _) = multi_source_bfs(&g, &[0, 29]);
        for v in g.nodes() {
            assert_eq!(run.outputs[v].0, reference[v], "node {v}");
        }
        // Parent ports are consistent: parent distance is one less.
        for v in g.nodes() {
            if let (Some(d), Some(p)) = run.outputs[v] {
                let parent = g.neighbors(v)[p];
                assert_eq!(run.outputs[parent].0, Some(d - 1));
            }
        }
        assert!(run.meter.congest_clean());
        assert_eq!(run.meter, meter(40, 98, 3136, 32, 0));
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = Graph::disjoint_union(&[Graph::path(3), Graph::path(3)]);
        let ids = IdAssignment::sequential(6);
        let run = BfsProtocol::run(&g, &ids, &[0], 10).unwrap();
        assert_eq!(run.outputs[5], (None, None));
        // 32-bit distances exceed the 24-bit budget of a 6-node graph.
        assert_eq!(run.meter, meter(10, 4, 128, 32, 4));
    }

    #[test]
    fn leader_election_elects_min_id_per_component() {
        let g = Graph::disjoint_union(&[Graph::cycle(5), Graph::cycle(4)]);
        let ids = IdAssignment::from_ids(vec![9, 3, 7, 5, 8, 2, 6, 4, 1]).unwrap();
        let run = LeaderElection::run(&g, &ids, 12).unwrap();
        for v in 0..5 {
            assert_eq!(run.outputs[v], 3, "component 1 node {v}");
        }
        for v in 5..9 {
            assert_eq!(run.outputs[v], 1, "component 2 node {v}");
        }
        assert_eq!(run.meter, meter(12, 36, 144, 4, 0));
    }

    #[test]
    fn convergecast_sums_subtrees() {
        let g = Graph::balanced_tree(2, 3); // 7 nodes, root 0
        let ids = IdAssignment::sequential(7);
        let bfs = BfsProtocol::run(&g, &ids, &[0], 10).unwrap();
        let parents: Vec<Option<usize>> = bfs.outputs.iter().map(|&(_, p)| p).collect();
        let values: Vec<u64> = (1..=7).collect(); // node v holds v+1
        let run = ConvergecastSum::run(&g, &ids, &parents, &values, 10).unwrap();
        // The root holds the total.
        assert_eq!(run.outputs[0], values.iter().sum::<u64>());
        // Leaves hold their own values.
        for (leaf, &val) in values.iter().enumerate().skip(3) {
            assert_eq!(run.outputs[leaf], val);
        }
        assert_eq!(bfs.meter, meter(10, 12, 384, 32, 12));
        assert_eq!(run.meter, meter(10, 6, 384, 64, 6));
    }

    #[test]
    fn convergecast_on_path_accumulates() {
        let g = Graph::path(5);
        let ids = IdAssignment::sequential(5);
        let bfs = BfsProtocol::run(&g, &ids, &[0], 10).unwrap();
        let parents: Vec<Option<usize>> = bfs.outputs.iter().map(|&(_, p)| p).collect();
        let run = ConvergecastSum::run(&g, &ids, &parents, &[1; 5], 12).unwrap();
        assert_eq!(run.outputs[0], 5);
        assert_eq!(run.outputs[4], 1);
        assert_eq!(bfs.meter, meter(10, 8, 256, 32, 8));
        assert_eq!(run.meter, meter(12, 4, 256, 64, 4));
    }
}
