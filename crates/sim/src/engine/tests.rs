#![cfg(test)]

use crate::executor::tests::flood_protocols;
use crate::prelude::*;
use locality_graph::prelude::*;

fn flood(g: &Graph, sources: &[usize], deadline: u32) -> Run<Option<u32>> {
    let ids = IdAssignment::sequential(g.node_count());
    Executor::congest(g, &ids)
        .run(flood_protocols(g, sources, deadline), deadline + 1, 1)
        .expect("run completes")
}

#[test]
fn flooding_matches_bfs() {
    let g = Graph::grid(4, 5);
    let run = flood(&g, &[0], 30);
    let reference = bfs_distances(&g, 0);
    for v in g.nodes() {
        assert_eq!(run.outputs[v], reference[v], "node {v}");
    }
    assert!(run.meter.congest_clean());
    assert!(run.meter.messages > 0);
}

#[test]
fn multi_source_flooding() {
    let g = Graph::path(9);
    let run = flood(&g, &[0, 8], 20);
    let (reference, _) = multi_source_bfs(&g, &[0, 8]);
    for v in g.nodes() {
        assert_eq!(run.outputs[v], reference[v], "node {v}");
    }
}

#[test]
fn unreachable_nodes_report_none() {
    let g = Graph::disjoint_union(&[Graph::path(3), Graph::path(3)]);
    let run = flood(&g, &[0], 10);
    assert_eq!(run.outputs[5], None);
}

#[test]
fn round_limit_error() {
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
    let g = Graph::path(2);
    let ids = IdAssignment::sequential(2);
    let err = Executor::local(&g, &ids)
        .run([Forever, Forever], 5, 1)
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::RoundLimit {
            limit: 5,
            still_running: 2
        }
    );
    assert!(err.to_string().contains('5'));
}

#[test]
fn wrong_node_count_error() {
    #[derive(Debug, Clone)]
    struct Noop;
    impl BatchProtocol for Noop {
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
            Control::Halt(())
        }
    }
    let g = Graph::path(3);
    let ids = IdAssignment::sequential(3);
    let err = Executor::local(&g, &ids).run([Noop], 5, 1).unwrap_err();
    assert!(matches!(
        err,
        EngineError::WrongNodeCount {
            got: 1,
            expected: 3
        }
    ));
}

#[test]
fn congest_violation_detected() {
    #[derive(Debug, Clone)]
    struct Fat;
    impl BatchProtocol for Fat {
        type Message = Vec<u64>;
        type Output = ();
        fn start(&mut self, _: &NodeContext, out: &mut Outlet<'_, Vec<u64>>) {
            out.broadcast(vec![0u64; 100]); // 64 + 6400 bits
        }
        fn round(
            &mut self,
            _: &NodeContext,
            _: u32,
            _: &Inbox<'_, Vec<u64>>,
            _: &mut Outlet<'_, Vec<u64>>,
        ) -> Control<()> {
            Control::Halt(())
        }
    }
    let g = Graph::path(2);
    let ids = IdAssignment::sequential(2);
    let run = Executor::congest(&g, &ids).run([Fat, Fat], 3, 1).unwrap();
    assert_eq!(run.meter.congest_violations, 2);
    let run = Executor::local(&g, &ids).run([Fat, Fat], 3, 1).unwrap();
    assert_eq!(run.meter.congest_violations, 0);
}

#[test]
fn directed_overrides_broadcast() {
    // Node 0 broadcasts 1 but sends 9 on port 0; its single neighbor
    // must receive only the directed message.
    #[derive(Debug, Clone)]
    struct Sender;
    impl BatchProtocol for Sender {
        type Message = u8;
        type Output = Vec<u8>;
        fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u8>) {
            if ctx.node == 0 {
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
    let g = Graph::path(2);
    let ids = IdAssignment::sequential(2);
    let run = Executor::local(&g, &ids)
        .run([Sender, Sender], 3, 1)
        .unwrap();
    assert_eq!(run.outputs[1], vec![9]);
}

#[test]
fn rounds_counted() {
    let g = Graph::path(5);
    let run = flood(&g, &[0], 12);
    assert_eq!(run.meter.rounds, 12); // nodes halt at the quiet deadline
}
