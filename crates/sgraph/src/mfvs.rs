//! Minimum feedback vertex set selection — the gate-level partial-scan
//! baseline (Cheng & Agrawal; Lee & Reddy) the behavioral techniques are
//! compared against.
//!
//! Scanning the registers of a feedback vertex set (FVS) makes the
//! remaining S-graph acyclic (self-loops optionally tolerated), which is
//! what makes sequential ATPG tractable. Exact minimization is NP-hard.
//! The solver runs in three steps:
//!
//! 1. When self-loops are not tolerated, every self-looped node is
//!    forced into the set and deleted.
//! 2. The rest splits into cyclic strongly connected components, each
//!    solved on its own (an FVS of the graph is the union of FVSs of
//!    its SCCs).
//! 3. A component of at most [`MfvsOptions::exact_threshold`] nodes
//!    (never more than [`MAX_EXACT_NODES`]) is solved exactly by
//!    branch and bound over `u64` adjacency masks: iterative deepening
//!    on the set size, branching on the nodes of a shortest cycle.
//!    Larger components fall back to a greedy heuristic that removes
//!    the node with the largest in-degree × out-degree product.

use std::collections::BTreeSet;

use crate::graph::{NodeId, SGraph};
use crate::scc::cyclic_components;

/// The largest component the exact search takes: one bit per node in a
/// `u64` adjacency mask.
pub const MAX_EXACT_NODES: usize = 64;

/// Options for FVS selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MfvsOptions {
    /// Tolerate self-loops (the partial-scan convention: a single
    /// register looping through an ALU back to itself is sequentially
    /// testable and need not be scanned). When `false`, every node with a
    /// self-loop is forced into the set.
    pub tolerate_self_loops: bool,
    /// Components with at most this many nodes are solved exactly by
    /// branch and bound; larger ones fall back to the greedy heuristic.
    /// Values above [`MAX_EXACT_NODES`] are clamped to it.
    pub exact_threshold: usize,
}

impl Default for MfvsOptions {
    fn default() -> Self {
        MfvsOptions {
            tolerate_self_loops: true,
            exact_threshold: 16,
        }
    }
}

/// A feedback vertex set and whether it is provably minimum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackVertexSet {
    /// The selected nodes.
    pub nodes: BTreeSet<NodeId>,
    /// `true` when every component was solved by exact branch and bound.
    pub optimal: bool,
}

/// Checks that removing `set` leaves the graph acyclic (under the given
/// self-loop tolerance).
pub fn is_feedback_vertex_set(
    g: &SGraph,
    set: &BTreeSet<NodeId>,
    tolerate_self_loops: bool,
) -> bool {
    let (rest, _) = g.without_nodes(set);
    rest.is_acyclic(tolerate_self_loops)
}

/// Selects a (near-)minimum feedback vertex set.
///
/// Deterministic: ties in the greedy heuristic break toward smaller node
/// ids, and branch-and-bound explores nodes in ascending order.
///
/// # Example
///
/// ```
/// use hlstb_sgraph::{SGraph, mfvs::{minimum_feedback_vertex_set, MfvsOptions}};
///
/// // Two rings sharing node 0: scanning it breaks both.
/// let g = SGraph::from_edges(3, [(0, 1), (1, 0), (0, 2), (2, 0)]);
/// let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
/// assert_eq!(fvs.nodes.len(), 1);
/// ```
pub fn minimum_feedback_vertex_set(g: &SGraph, options: MfvsOptions) -> FeedbackVertexSet {
    let _span = hlstb_trace::span("sgraph.mfvs");
    let mut selected: BTreeSet<NodeId> = BTreeSet::new();
    let mut optimal = true;

    // Self-loop nodes are unavoidable members when loops are not
    // tolerated; `names` maps the stripped graph's ids back.
    let stripped;
    let (work, names) = if options.tolerate_self_loops {
        (g, None)
    } else {
        let forced: BTreeSet<NodeId> = g.nodes().filter(|&n| g.has_self_loop(n)).collect();
        let (rest, map) = g.without_nodes(&forced);
        selected.extend(forced);
        stripped = rest;
        (&stripped, Some(map))
    };
    let name = |n: NodeId| names.as_ref().map_or(n, |m| m[n.index()]);

    let threshold = options.exact_threshold.min(MAX_EXACT_NODES);
    for comp in cyclic_components(work) {
        if comp.len() <= threshold {
            let mut set = MaskGraph::of_component(work, &comp).minimum_fvs();
            while set != 0 {
                selected.insert(name(comp[set.trailing_zeros() as usize]));
                set &= set - 1;
            }
        } else {
            optimal = false;
            let keep: BTreeSet<NodeId> = comp.iter().copied().collect();
            let (sub, map) = work.induced_subgraph(&keep);
            for n in greedy_fvs(&sub) {
                selected.insert(name(map[n.index()]));
            }
        }
    }
    debug_assert!(is_feedback_vertex_set(
        g,
        &selected,
        options.tolerate_self_loops || selected_covers_self_loops(g, &selected)
    ));
    FeedbackVertexSet {
        nodes: selected,
        optimal,
    }
}

fn selected_covers_self_loops(g: &SGraph, set: &BTreeSet<NodeId>) -> bool {
    g.nodes()
        .filter(|&n| g.has_self_loop(n))
        .all(|n| set.contains(&n))
}

/// One component of at most [`MAX_EXACT_NODES`] nodes as successor
/// masks over local ids (the component's nodes in ascending order).
/// Self-loops are masked out; a node set is a `u64` with bit `i` for
/// local node `i`.
struct MaskGraph {
    /// Bit `j` of `succ[i]` is set iff the edge `i → j` exists, `i ≠ j`.
    succ: [u64; MAX_EXACT_NODES],
    /// Every local node.
    all: u64,
}

/// A cycle as local ids in path order, with its length.
type Path = ([u8; MAX_EXACT_NODES], usize);

impl MaskGraph {
    /// Masks for `comp` (sorted ascending, as `cyclic_components` emits).
    fn of_component(g: &SGraph, comp: &[NodeId]) -> Self {
        debug_assert!(comp.len() <= MAX_EXACT_NODES);
        let mut succ = [0u64; MAX_EXACT_NODES];
        for (i, &u) in comp.iter().enumerate() {
            for v in g.successors(u) {
                if let Ok(j) = comp.binary_search(&v) {
                    if j != i {
                        succ[i] |= 1 << j;
                    }
                }
            }
        }
        MaskGraph {
            succ,
            all: u64::MAX >> (MAX_EXACT_NODES - comp.len()),
        }
    }

    /// Exact minimum FVS by iterative deepening over the set size.
    fn minimum_fvs(&self) -> u64 {
        (0..=self.all.count_ones() as usize)
            .find_map(|k| self.search(k, 0))
            .expect("removing every node breaks every cycle")
    }

    /// The first FVS of at most `budget` more nodes on top of `removed`,
    /// branching on the nodes of a shortest remaining cycle in path
    /// order.
    fn search(&self, budget: usize, removed: u64) -> Option<u64> {
        let (path, len) = match self.shortest_cycle(removed) {
            None => return Some(removed),
            Some(c) => c,
        };
        if budget == 0 {
            return None;
        }
        path[..len]
            .iter()
            .find_map(|&v| self.search(budget - 1, removed | 1 << v))
    }

    /// A shortest cycle among the nodes not in `removed`, by BFS from
    /// every live node in ascending order (successors visited in
    /// ascending order). The cycle starts at its BFS source; ties go to
    /// the smallest source, and a 2-cycle ends the scan.
    fn shortest_cycle(&self, removed: u64) -> Option<Path> {
        let live = self.all & !removed;
        let mut best: Path = ([0; MAX_EXACT_NODES], 0);
        let mut parent = [0u8; MAX_EXACT_NODES];
        let mut dist = [0u8; MAX_EXACT_NODES];
        let mut queue = [0u8; MAX_EXACT_NODES];
        let mut sources = live;
        while sources != 0 && best.1 != 2 {
            let s = sources.trailing_zeros() as u8;
            sources &= sources - 1;
            // The source sits at distance 0; its masked-out self-loop
            // never closes a cycle, so it only seeds the first layer.
            queue[0] = s;
            dist[s as usize] = 0;
            let mut seen = 1u64 << s;
            let (mut head, mut tail) = (0, 1);
            while head < tail {
                let u = queue[head] as usize;
                head += 1;
                let len = dist[u] as usize + 1;
                if best.1 != 0 && len >= best.1 {
                    break; // BFS order: no shorter cycle through `s` remains
                }
                if self.succ[u] & (1 << s) != 0 {
                    let mut cur = u as u8;
                    for i in (0..len).rev() {
                        best.0[i] = cur;
                        cur = parent[cur as usize];
                    }
                    best.1 = len;
                    break;
                }
                let mut next = self.succ[u] & live & !seen;
                seen |= next;
                while next != 0 {
                    let w = next.trailing_zeros() as usize;
                    next &= next - 1;
                    parent[w] = u as u8;
                    dist[w] = dist[u] + 1;
                    queue[tail] = w as u8;
                    tail += 1;
                }
            }
        }
        (best.1 != 0).then_some(best)
    }
}

/// Greedy FVS: repeatedly remove the node with the largest
/// in-degree × out-degree product (ignoring self-loops) until acyclic.
fn greedy_fvs(g: &SGraph) -> Vec<NodeId> {
    let mut removed: BTreeSet<NodeId> = BTreeSet::new();
    loop {
        let (rest, map) = g.without_nodes(&removed);
        if rest.is_acyclic(true) {
            return removed.into_iter().collect();
        }
        // Only nodes inside cyclic SCCs are candidates.
        let mut best: Option<(usize, NodeId)> = None;
        for comp in cyclic_components(&rest) {
            for &n in &comp {
                let ind = rest.predecessors(n).filter(|&p| p != n).count();
                let outd = rest.successors(n).filter(|&s| s != n).count();
                let score = ind * outd;
                let orig = map[n.index()];
                if best.is_none_or(|(bs, bn)| score > bs || (score == bs && orig < bn)) {
                    best = Some((score, orig));
                }
            }
        }
        removed.insert(best.expect("cyclic graph has candidates").1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_needs_one() {
        let g = SGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert_eq!(fvs.nodes.len(), 1);
        assert!(fvs.optimal);
        assert!(is_feedback_vertex_set(&g, &fvs.nodes, true));
    }

    #[test]
    fn self_loops_tolerated_by_default() {
        let g = SGraph::from_edges(3, [(0, 0), (1, 1), (2, 2)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert!(fvs.nodes.is_empty());
    }

    #[test]
    fn self_loops_forced_when_not_tolerated() {
        let g = SGraph::from_edges(2, [(0, 0), (0, 1)]);
        let opts = MfvsOptions {
            tolerate_self_loops: false,
            ..Default::default()
        };
        let fvs = minimum_feedback_vertex_set(&g, opts);
        assert_eq!(
            fvs.nodes.iter().copied().collect::<Vec<_>>(),
            vec![NodeId(0)]
        );
        assert!(is_feedback_vertex_set(&g, &fvs.nodes, false));
    }

    #[test]
    fn two_disjoint_rings_need_two() {
        let g = SGraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert_eq!(fvs.nodes.len(), 2);
        assert!(fvs.optimal);
    }

    #[test]
    fn shared_hub_is_exploited() {
        // Two rings sharing node 0: one removal suffices, and exact B&B
        // must find it.
        let g = SGraph::from_edges(5, [(0, 1), (1, 0), (0, 2), (2, 0), (3, 4), (4, 3)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert_eq!(fvs.nodes.len(), 2); // node 0 plus one in the 3-4 ring
        assert!(fvs.nodes.contains(&NodeId(0)));
    }

    #[test]
    fn greedy_matches_exact_on_small_graphs() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 1)];
        let g = SGraph::from_edges(4, edges);
        let exact = minimum_feedback_vertex_set(
            &g,
            MfvsOptions {
                exact_threshold: 16,
                ..Default::default()
            },
        );
        let greedy = minimum_feedback_vertex_set(
            &g,
            MfvsOptions {
                exact_threshold: 0,
                ..Default::default()
            },
        );
        assert!(is_feedback_vertex_set(&g, &greedy.nodes, true));
        // Node 1 or 2 alone breaks both cycles.
        assert_eq!(exact.nodes.len(), 1);
        assert!(greedy.nodes.len() >= exact.nodes.len());
    }

    #[test]
    fn dag_needs_nothing() {
        let g = SGraph::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        let fvs = minimum_feedback_vertex_set(&g, MfvsOptions::default());
        assert!(fvs.nodes.is_empty());
        assert!(fvs.optimal);
    }
}
