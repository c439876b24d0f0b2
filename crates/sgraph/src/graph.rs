//! The S-graph data structure.

use std::collections::BTreeSet;
use std::fmt;

/// A node of an [`SGraph`] — one flip-flop or register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed graph over registers: edge `u → v` iff a purely
/// combinational path leads from register `u` to register `v`.
///
/// Parallel edges are collapsed; self-loops are kept (they matter:
/// partial scan tolerates them, BILBO self-adjacency does not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SGraph {
    /// Sorted successor sets, indexed by node.
    succs: Vec<BTreeSet<u32>>,
    /// Sorted predecessor sets, indexed by node.
    preds: Vec<BTreeSet<u32>>,
    /// Optional human-readable node labels (register names).
    labels: Vec<String>,
}

impl SGraph {
    /// Creates an edgeless graph with `n` nodes labelled `n0..`.
    pub fn new(n: usize) -> Self {
        SGraph {
            succs: vec![BTreeSet::new(); n],
            preds: vec![BTreeSet::new(); n],
            labels: (0..n).map(|i| format!("n{i}")).collect(),
        }
    }

    /// Creates a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut g = SGraph::new(n);
        for (u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.succs.len()
    }

    /// Number of distinct edges (self-loops count once).
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(BTreeSet::len).sum()
    }

    /// Adds an edge, collapsing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u.index() < self.succs.len() && v.index() < self.succs.len());
        self.succs[u.index()].insert(v.0);
        self.preds[v.index()].insert(u.0);
    }

    /// Whether the edge `u → v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.succs.get(u.index()).is_some_and(|s| s.contains(&v.0))
    }

    /// Whether node `u` has a self-loop.
    pub fn has_self_loop(&self, u: NodeId) -> bool {
        self.has_edge(u, u)
    }

    /// Successors of `u` in ascending order.
    pub fn successors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succs[u.index()].iter().map(|&v| NodeId(v))
    }

    /// Predecessors of `u` in ascending order.
    pub fn predecessors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.preds[u.index()].iter().map(|&v| NodeId(v))
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.succs[u.index()].len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.preds[u.index()].len()
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.succs.len() as u32).map(NodeId)
    }

    /// All edges in `(u, v)` lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.successors(u).map(move |v| (u, v)))
    }

    /// Sets a node's label.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_label(&mut self, u: NodeId, label: impl Into<String>) {
        self.labels[u.index()] = label.into();
    }

    /// A node's label.
    pub fn label(&self, u: NodeId) -> &str {
        &self.labels[u.index()]
    }

    /// The subgraph induced by `keep`, with nodes renumbered densely in
    /// ascending original order. Returns the subgraph and the mapping
    /// from new ids to original ids.
    pub fn induced_subgraph(&self, keep: &BTreeSet<NodeId>) -> (SGraph, Vec<NodeId>) {
        let order: Vec<NodeId> = keep.iter().copied().collect();
        let mut back = vec![u32::MAX; self.num_nodes()];
        for (new, &old) in order.iter().enumerate() {
            back[old.index()] = new as u32;
        }
        let mut g = SGraph::new(order.len());
        for (new, &old) in order.iter().enumerate() {
            g.labels[new] = self.labels[old.index()].clone();
            for v in self.successors(old) {
                if keep.contains(&v) {
                    g.add_edge(NodeId(new as u32), NodeId(back[v.index()]));
                }
            }
        }
        (g, order)
    }

    /// The graph with the given nodes deleted (the standard "scan these
    /// registers" operation: a scanned register's node is removed from
    /// the S-graph along with all incident edges).
    pub fn without_nodes(&self, removed: &BTreeSet<NodeId>) -> (SGraph, Vec<NodeId>) {
        let keep: BTreeSet<NodeId> = self.nodes().filter(|n| !removed.contains(n)).collect();
        self.induced_subgraph(&keep)
    }

    /// Whether the graph is acyclic when self-loops are ignored
    /// (`tolerate_self_loops`) or considered (`!tolerate_self_loops`).
    pub fn is_acyclic(&self, tolerate_self_loops: bool) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum C {
            W,
            G,
            B,
        }
        if !tolerate_self_loops && self.nodes().any(|n| self.has_self_loop(n)) {
            return false;
        }
        let n = self.num_nodes();
        let mut color = vec![C::W; n];
        // DFS frames walk each sorted successor set with a cursor.
        let mut stack = Vec::new();
        for s in 0..n {
            if color[s] != C::W {
                continue;
            }
            color[s] = C::G;
            stack.push((s, self.succs[s].iter()));
            while let Some((node, succs)) = stack.last_mut() {
                let node = *node;
                match succs.next().map(|&v| v as usize) {
                    Some(next) if next == node => {} // self-loop, tolerated (checked above otherwise)
                    Some(next) => match color[next] {
                        C::W => {
                            color[next] = C::G;
                            stack.push((next, self.succs[next].iter()));
                        }
                        C::G => return false,
                        C::B => {}
                    },
                    None => {
                        color[node] = C::B;
                        stack.pop();
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_deduplicated() {
        let g = SGraph::from_edges(2, [(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn degrees_and_iteration() {
        let g = SGraph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(2)), 2);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn acyclicity_with_and_without_self_loops() {
        let g = SGraph::from_edges(2, [(0, 1), (1, 1)]);
        assert!(g.is_acyclic(true));
        assert!(!g.is_acyclic(false));
        let ring = SGraph::from_edges(2, [(0, 1), (1, 0)]);
        assert!(!ring.is_acyclic(true));
    }

    #[test]
    fn node_removal_breaks_ring() {
        let ring = SGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let removed: BTreeSet<NodeId> = [NodeId(1)].into_iter().collect();
        let (g, map) = ring.without_nodes(&removed);
        assert_eq!(g.num_nodes(), 2);
        assert!(g.is_acyclic(true));
        assert_eq!(map, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn induced_subgraph_preserves_labels() {
        let mut g = SGraph::new(3);
        g.set_label(NodeId(2), "RA1");
        g.add_edge(NodeId(0), NodeId(2));
        let keep: BTreeSet<NodeId> = [NodeId(0), NodeId(2)].into_iter().collect();
        let (sub, _) = g.induced_subgraph(&keep);
        assert_eq!(sub.label(NodeId(1)), "RA1");
        assert!(sub.has_edge(NodeId(0), NodeId(1)));
    }
}
