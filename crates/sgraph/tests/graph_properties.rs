//! Property tests for the S-graph algorithms on random digraphs.

use std::collections::BTreeSet;

use hlstb_sgraph::cycles::{enumerate_cycles, CycleLimits};
use hlstb_sgraph::depth::sequential_depth;
use hlstb_sgraph::mfvs::{
    is_feedback_vertex_set, minimum_feedback_vertex_set, MfvsOptions, MAX_EXACT_NODES,
};
use hlstb_sgraph::scc::{cyclic_components, strongly_connected_components};
use hlstb_sgraph::{NodeId, SGraph};
use proptest::prelude::*;

/// Random digraphs with a node count in `nodes` and fewer than
/// `max_edges` edges (duplicates collapse, self-loops allowed).
fn graphs(nodes: std::ops::Range<usize>, max_edges: usize) -> impl Strategy<Value = SGraph> {
    (
        nodes,
        proptest::collection::vec((0u32..14, 0u32..14), 0..max_edges),
    )
        .prop_map(|(n, edges)| {
            SGraph::from_edges(
                n,
                edges.into_iter().map(|(a, b)| (a % n as u32, b % n as u32)),
            )
        })
}

fn graph_strategy() -> impl Strategy<Value = SGraph> {
    graphs(2..14, 50)
}

/// The size of a smallest FVS, by trying every node subset.
fn brute_force_fvs_size(g: &SGraph, tolerate_self_loops: bool) -> usize {
    let n = g.num_nodes();
    (0u32..1 << n)
        .filter(|bits| {
            let set: BTreeSet<NodeId> = g.nodes().filter(|v| bits >> v.0 & 1 == 1).collect();
            is_feedback_vertex_set(g, &set, tolerate_self_loops)
        })
        .map(|bits| bits.count_ones() as usize)
        .min()
        .expect("the whole node set is an FVS")
}

/// A ring over `n` nodes.
fn ring(n: u32) -> Vec<(u32, u32)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// SCCs partition the node set.
    #[test]
    fn sccs_partition_nodes(g in graph_strategy()) {
        let comps = strongly_connected_components(&g);
        let mut seen = vec![false; g.num_nodes()];
        for c in &comps {
            for n in c {
                prop_assert!(!seen[n.index()], "node in two components");
                seen[n.index()] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    /// Every enumerated cycle lies inside one cyclic SCC and is a real
    /// cycle.
    #[test]
    fn cycles_live_in_cyclic_components(g in graph_strategy()) {
        let comps = cyclic_components(&g);
        let in_comp = |n: NodeId| comps.iter().position(|c| c.contains(&n));
        for cy in enumerate_cycles(&g, CycleLimits { max_cycles: 256, max_len: 14 }) {
            // Edges exist.
            for (i, &u) in cy.nodes.iter().enumerate() {
                let v = cy.nodes[(i + 1) % cy.nodes.len()];
                prop_assert!(g.has_edge(u, v), "missing edge {u} -> {v}");
            }
            // All nodes share a component.
            let c0 = in_comp(cy.nodes[0]);
            prop_assert!(c0.is_some());
            for &n in &cy.nodes {
                prop_assert_eq!(in_comp(n), c0);
            }
        }
    }

    /// An FVS found by the solver is an FVS; removing it kills all
    /// enumerated non-self cycles.
    #[test]
    fn fvs_kills_every_cycle(g in graph_strategy()) {
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        prop_assert!(is_feedback_vertex_set(&g, &fvs.nodes, true));
        for cy in enumerate_cycles(&g, CycleLimits { max_cycles: 256, max_len: 14 }) {
            if cy.is_self_loop() {
                continue;
            }
            prop_assert!(
                cy.nodes.iter().any(|n| fvs.nodes.contains(n)),
                "cycle untouched by FVS"
            );
        }
    }

    /// Exact solutions are never larger than greedy ones.
    #[test]
    fn exact_is_never_worse_than_greedy(g in graph_strategy()) {
        let exact = minimum_feedback_vertex_set(
            &g,
            MfvsOptions { exact_threshold: 14, ..Default::default() },
        );
        let greedy = minimum_feedback_vertex_set(
            &g,
            MfvsOptions { exact_threshold: 0, ..Default::default() },
        );
        prop_assert!(exact.nodes.len() <= greedy.nodes.len());
    }

    /// Exact MFVS finds a true minimum, in both self-loop modes.
    #[test]
    fn exact_matches_brute_force_minimum(g in graphs(1..11, 30)) {
        for tolerate_self_loops in [true, false] {
            let fvs = minimum_feedback_vertex_set(
                &g,
                MfvsOptions { tolerate_self_loops, exact_threshold: 16 },
            );
            prop_assert!(fvs.optimal);
            prop_assert!(is_feedback_vertex_set(&g, &fvs.nodes, tolerate_self_loops));
            prop_assert_eq!(fvs.nodes.len(), brute_force_fvs_size(&g, tolerate_self_loops));
        }
    }

    /// Depth is monotone under edge addition (more paths can only help).
    #[test]
    fn depth_improves_with_more_edges(g in graph_strategy()) {
        if g.num_nodes() < 2 {
            return Ok(());
        }
        let inputs = [NodeId(0)];
        let outputs = [NodeId(g.num_nodes() as u32 - 1)];
        let before = sequential_depth(&g, &inputs, &outputs);
        let mut g2 = g.clone();
        g2.add_edge(NodeId(0), NodeId(g.num_nodes() as u32 - 1));
        let after = sequential_depth(&g2, &inputs, &outputs);
        for n in g.nodes() {
            if let (Some(b), Some(a)) = (before.control[n.index()], after.control[n.index()]) {
                prop_assert!(a <= b, "control depth worsened at {n}");
            }
            if let Some(b) = before.control[n.index()] {
                // Reachability can only grow.
                prop_assert!(after.control[n.index()].is_some_and(|a| a <= b));
            }
        }
    }
}

/// A 64-node component is the largest the word-mask search takes: a
/// 64-ring with two 2-cycles needs exactly those two nodes.
#[test]
fn sixty_four_node_component_is_solved_exactly() {
    let mut edges = ring(64);
    edges.extend([(1, 0), (33, 32)]);
    let g = SGraph::from_edges(64, edges);
    let fvs = minimum_feedback_vertex_set(
        &g,
        MfvsOptions {
            exact_threshold: MAX_EXACT_NODES,
            ..Default::default()
        },
    );
    assert!(fvs.optimal);
    assert_eq!(
        fvs.nodes.into_iter().collect::<Vec<_>>(),
        vec![NodeId(0), NodeId(32)]
    );
}

/// Thresholds above 64 are clamped: a 65-node component falls back to
/// the greedy heuristic and is not reported optimal.
#[test]
fn threshold_above_sixty_four_falls_back_to_greedy() {
    let g = SGraph::from_edges(65, ring(65));
    let fvs = minimum_feedback_vertex_set(
        &g,
        MfvsOptions {
            exact_threshold: 1000,
            ..Default::default()
        },
    );
    assert!(!fvs.optimal);
    assert!(is_feedback_vertex_set(&g, &fvs.nodes, true));
    assert_eq!(fvs.nodes.len(), 1);
}
