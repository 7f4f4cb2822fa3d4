//! Pins the umbrella crate's `locality::prelude` re-export surface and
//! exercises it end-to-end: if a re-export disappears or changes shape, this
//! file stops compiling.

// Import-level pin: every name the prelude promises, spelled out. A removed
// or renamed re-export is a compile error here before any test runs.
//
// Deliberately absent: `locality-audit` (ISSUE 10). The audit crate is a
// development tool over the workspace's *sources*, not part of the library
// surface — it stays out of the prelude and out of the umbrella crate's
// dependency graph entirely (it must remain buildable when the code it
// audits is not). It still builds and tests under bare `cargo build` /
// `cargo test` via the workspace default-members list.
#[allow(unused_imports)]
use locality::prelude::{
    ball, bfs_distances, boosted_decomposition, bounded_bfs_distances, checkers, coloring,
    connected_components, diameter, eccentricity, elkin_neiman, elkin_neiman_kwise, is_connected,
    mis, multi_source_bfs, power_graph, random_edit_script, repair_decomposition, ruling_set,
    shared_randomness_decomposition, sparse_randomness_decomposition, splitting, AlgorithmRun,
    BatchProtocol, BitSource, BitTape, BoostConfig, ClusterGraph, Clustering, ColoringOptions,
    Control, CostMeter, CostProbe, DecompMethod, DecompProvenance, DecomposeOptions, Decomposition,
    DegradePolicy, Edit, EditBatch, EditError, EditOptions, ElkinNeimanConfig, EpsBiasedBits,
    Executor, Exhausted, Fleet, Graph, GraphBuilder, GraphError, HttpConfig, HttpError, HttpServer,
    IdAssignment, Inbox, InducedSubgraph, KWiseBits, MetricsSnapshot, MisOptions, Outlet, Prng,
    PrngSource, ProblemKind, RepairOptions, RepairOutcome, RepairPath, RepairStats, ReplyMode,
    Request, Response, RestoreOutcome, RetryPolicy, RoundStats, RulingSetParams, Session,
    SessionStats, SharedDecompConfig, SharedSeed, SlocalOptions, SlocalOutput, SlocalTask,
    SolveError, SolverEntry, SparseBits, SparsePipelineConfig, SplitMix64, SplittingInstance,
    StoreError, Strategy, VerifyReport, VerifyRequest, WireError, Xoshiro256StarStar,
};

#[test]
fn quickstart_pipeline_through_the_prelude() {
    // The README/lib.rs quickstart: gnp graph → Elkin–Neiman → validate.
    let g = Graph::gnp(200, 0.03, &mut SplitMix64::new(7));
    let cfg = ElkinNeimanConfig::for_graph(&g);
    let mut src = PrngSource::seeded(1);
    let run = elkin_neiman(&g, &cfg, &mut src);
    let d = run.decomposition.expect("whp success");
    d.validate(&g).expect("valid decomposition");
    assert!(d.color_count() <= cfg.phases as usize);
}

#[test]
fn substrate_helpers_are_reachable_from_the_prelude() {
    let g = Graph::gnp(64, 0.1, &mut SplitMix64::new(3));
    let (labels, k) = connected_components(&g);
    assert_eq!(labels.len(), g.node_count());
    assert!(k >= 1);
    assert_eq!(is_connected(&g), k == 1);
    let d = bfs_distances(&g, 0);
    assert_eq!(d[0], Some(0));
    let g2 = power_graph(&g, 2);
    assert!(g2.edge_count() >= g.edge_count());
}

#[test]
fn algorithms_are_reachable_from_the_prelude() {
    let g = Graph::cycle(48);
    let ids = IdAssignment::sequential(g.node_count());
    let all: Vec<usize> = g.nodes().collect();
    let r = ruling_set(&g, &ids, &all, RulingSetParams { alpha: 2 });
    assert!(!r.set.is_empty());

    let h = SplittingInstance::random(20, 40, 4, &mut SplitMix64::new(5));
    let kw = KWiseBits::from_source(4, &mut PrngSource::seeded(9)).unwrap();
    let attempt = splitting::solve_kwise(&h, &kw);
    assert_eq!(attempt.colors.len(), h.v_count());

    let meter = CostMeter::default();
    assert_eq!(meter.rounds, 0);
}

#[test]
fn serving_facade_is_reachable_from_the_prelude() {
    // One session, all five request kinds, answered and cached.
    let g = Graph::gnp_connected(60, 0.06, &mut SplitMix64::new(11));
    let mut session = Session::new(g);
    let requests = [
        Request::decompose(),
        Request::mis(),
        Request::Mis(
            MisOptions::new()
                .with_strategy(Strategy::Direct)
                .with_seed(5),
        ),
        Request::coloring(),
        Request::slocal(SlocalTask::GreedyMis),
    ];
    for r in &requests {
        session.solve(r).expect("request solves");
    }
    let Response::Mis { in_mis, .. } = session.solve(&Request::mis()).expect("cached") else {
        panic!("MIS requests get MIS responses");
    };
    let in_mis = in_mis.clone();
    let Response::Verify(report) = session
        .solve(&Request::verify_mis(in_mis))
        .expect("verify solves")
    else {
        panic!("Verify requests get Verify responses");
    };
    assert!(report.ok);
    let stats: SessionStats = session.stats();
    assert_eq!(stats.decompositions_built, 1);
    assert!(stats.response_hits >= 1);

    // The registry is enumerable through the prelude types.
    let table: Vec<&SolverEntry> = locality::core::serve::registry().iter().collect();
    assert!(table.iter().any(|e| e.problem == ProblemKind::Mis));

    // A fleet shards sessions with bit-identical results.
    let graphs = [Graph::cycle(20), Graph::grid(5, 4)];
    let workloads = vec![vec![Request::mis()], vec![Request::coloring()]];
    let mut fleet = Fleet::new(graphs.clone());
    let sharded = fleet.solve_all(&workloads, 2);
    let mut sequential = Fleet::new(graphs);
    assert_eq!(sharded, sequential.solve_all(&workloads, 1));
    let snap: MetricsSnapshot = fleet.metrics_snapshot();
    assert_eq!(snap.sessions, 2);
}

#[test]
fn http_front_end_is_reachable_from_the_prelude() {
    use std::io::{Read, Write};

    let g = Graph::gnp_connected(30, 0.1, &mut SplitMix64::new(41));
    let fleet = Fleet::new([g]);
    let server = HttpServer::start(fleet.into_sessions(), HttpConfig::new().with_workers(1))
        .expect("server starts");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("loopback");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("response");
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    let snap = server.metrics_snapshot();
    assert_eq!(snap.http.as_ref().map(|h| h.connections), Some(1));
    server.shutdown();
    // The typed error surface is part of the prelude contract.
    let err: HttpError = HttpError::UnknownRoute;
    assert_eq!(err.status().0, 404);
    let _ = ReplyMode::default();
}

#[test]
fn dynamic_edits_are_reachable_from_the_prelude() {
    // Typed edit batches, graph-level application, decomposition repair and
    // session-level repair all round-trip through the prelude names.
    let g = Graph::gnp_connected(50, 0.08, &mut SplitMix64::new(23));
    let mut batch = EditBatch::with_options(EditOptions::new().with_ignore_redundant(false));
    let (u, v) = g.edges().next().expect("graph has edges");
    batch.remove_edge(u, v).expect("edge present");
    assert_eq!(batch.edits(), [Edit::RemoveEdge(u, v)]);
    let h = g.apply_edits(&batch).expect("valid batch");
    assert_eq!(h.edge_count(), g.edge_count() - 1);
    let dup: Result<Graph, EditError> = h.apply_edits(&batch);
    assert!(dup.is_err(), "removing a removed edge is a typed error");

    let old = locality::core::decomposition::derandomized_decomposition(&g, 4).decomposition;
    let out: RepairOutcome =
        repair_decomposition(&h, &old, &batch, &RepairOptions::new().with_cap(4))
            .expect("repair succeeds");
    assert!(matches!(
        out.path,
        RepairPath::Incremental | RepairPath::FullRebuild
    ));
    out.decomposition
        .validate(&h)
        .expect("valid on edited graph");

    let mut session = Session::new(g.clone());
    session.solve(&Request::mis()).expect("warm");
    let script = random_edit_script(&g, 3, g.node_count(), &mut SplitMix64::new(31));
    let stats: RepairStats = session.apply_edits(script).expect("session repair");
    assert!(stats.edits >= 1);
    session.solve(&Request::mis()).expect("still serves");
}

#[test]
fn typed_verify_errors_flow_through_the_prelude() {
    // The typed checkers keep the old call shapes working...
    let g = Graph::path(3);
    assert!(mis::verify_mis(&g, &[true, false, true]).is_ok());
    let err = mis::verify_mis(&g, &[true, true, false]).unwrap_err();
    // ...while exposing structure and a human-readable Display rendering.
    assert_eq!(err.kind, checkers::VerifyErrorKind::AdjacentInSet);
    assert_eq!(err.node, Some(0));
    assert!(err.to_string().contains("adjacent"));
}

#[test]
fn local_algorithms_are_reachable_from_the_prelude() {
    use locality::core::coloring::{verify_coloring, TrialColoring};
    use locality::core::mis::{verify_mis, LubyMis};

    let g = Graph::grid(5, 5);
    let ids = IdAssignment::sequential(g.node_count());
    let m = LubyMis::default().run(&g, &ids, 1);
    verify_mis(&g, &m.labels).unwrap();
    let c = TrialColoring::default().run(&g, &ids, 1);
    verify_coloring(&g, &c.labels, g.max_degree() + 1).unwrap();
    // Uniform stats come from the same engine metering path.
    assert!(m.stats.meter.messages > 0);
    assert!(c.stats.meter.messages > 0);
}
