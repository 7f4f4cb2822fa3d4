//! Property tests for the graph substrate.

use locality_graph::metrics::{induced_diameter_with, reference_induced_diameter};
use locality_graph::prelude::*;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..4 * n).prop_map(move |pairs| {
            Graph::from_edges(n, pairs.into_iter().filter(|&(u, v)| u != v))
                .expect("filtered edges valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for v in g.nodes() {
            for &u in g.neighbors(v) {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn mirror_index_matches_port_search(g in arb_graph()) {
        prop_assert_eq!(g.directed_edge_count(), 2 * g.edge_count());
        for v in g.nodes() {
            for (port, &u) in g.neighbors(v).iter().enumerate() {
                let s = g.slot_of(v, port);
                let m = g.mirror_slot(s);
                prop_assert_eq!(g.mirror_slot(m), s);
                prop_assert_eq!(g.slot_neighbor(m), v);
                // The precomputed mirror agrees with an explicit port search.
                let q = g.port_of(u, v).expect("edge is symmetric");
                prop_assert_eq!(m, g.slot_of(u, q));
                prop_assert_eq!(g.mirror_slots(v)[port], m);
            }
        }
    }

    #[test]
    fn power_graph_is_monotone(g in arb_graph()) {
        let g2 = power_graph(&g, 2);
        let g3 = power_graph(&g, 3);
        for (u, v) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
        for (u, v) in g2.edges() {
            prop_assert!(g3.has_edge(u, v));
        }
    }

    #[test]
    fn components_partition_and_respect_edges(g in arb_graph()) {
        let (labels, k) = connected_components(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u], labels[v]);
        }
        for &l in &labels {
            prop_assert!(l < k);
        }
        // Cross-component pairs are unreachable.
        if g.node_count() >= 2 {
            let d = bfs_distances(&g, 0);
            for v in g.nodes() {
                prop_assert_eq!(d[v].is_some(), labels[v] == labels[0]);
            }
        }
    }

    #[test]
    fn induced_subgraph_round_trips(g in arb_graph(), keep_mask in proptest::collection::vec(any::<bool>(), 30)) {
        let nodes: Vec<usize> = g
            .nodes()
            .filter(|&v| keep_mask.get(v).copied().unwrap_or(false))
            .collect();
        let sub = InducedSubgraph::new(&g, &nodes);
        // Every subgraph edge exists in the original graph.
        for (i, j) in sub.graph().edges() {
            prop_assert!(g.has_edge(sub.to_original(i), sub.to_original(j)));
        }
        // Every original edge between kept nodes survives.
        for (u, v) in g.edges() {
            if let (Some(i), Some(j)) = (sub.to_local(u), sub.to_local(v)) {
                prop_assert!(sub.graph().has_edge(i, j));
            }
        }
        // The scratch strong diameter agrees with the subgraph's all-pairs
        // one, `None` included when the kept set is disconnected.
        let mut scratch = DiameterScratch::new(g.node_count());
        prop_assert_eq!(
            induced_diameter_with(&g, &nodes, &mut scratch),
            reference_induced_diameter(&g, &nodes)
        );
    }

    #[test]
    fn contraction_is_a_graph_homomorphism(g in arb_graph()) {
        // Cluster nodes by parity: edges must map to quotient edges or
        // disappear inside clusters.
        let assignment: Vec<Option<usize>> = g.nodes().map(|v| Some(v % 2)).collect();
        if g.node_count() >= 2 {
            let clustering = Clustering::from_labels(assignment);
            let k = clustering.cluster_count();
            let cg = ClusterGraph::contract(&g, clustering);
            for (u, v) in g.edges() {
                let cu = cg.clustering().cluster_of(u).unwrap();
                let cv = cg.clustering().cluster_of(v).unwrap();
                if cu != cv {
                    prop_assert!(cg.quotient().has_edge(cu, cv));
                }
            }
            prop_assert!(cg.quotient().node_count() <= k);
        }
    }

    #[test]
    fn eccentricity_bounds_diameter(g in arb_graph()) {
        if let Some(diam) = diameter(&g) {
            for v in g.nodes() {
                prop_assert!(eccentricity(&g, v) <= diam);
            }
            if g.node_count() > 0 {
                prop_assert!(eccentricity(&g, 0) * 2 >= diam);
            }
        }
    }

    #[test]
    fn ball_respects_radius(g in arb_graph(), r in 0u32..5) {
        let b = ball(&g, 0, r);
        let d = bfs_distances(&g, 0);
        for &v in &b {
            prop_assert!(matches!(d[v], Some(x) if x <= r));
        }
        // And contains everything within radius.
        for v in g.nodes() {
            if matches!(d[v], Some(x) if x <= r) {
                prop_assert!(b.contains(&v));
            }
        }
    }
}
