//! Adjacency-list directed graph with typed node and edge payloads.
//!
//! `DiGraph` is the mutable builder representation used while assembling
//! program execution graphs; hot traversal code should snapshot it into a
//! [`crate::Csr`] first.

use serde::{Deserialize, Serialize};

/// Index of a node inside a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of an edge inside a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Convert to a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Convert to a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EdgeRecord<E> {
    src: NodeId,
    dst: NodeId,
    weight: E,
}

/// A directed multigraph: parallel edges and self-loops are allowed, which
/// matters because a program execution graph can carry both a RAW and a WAR
/// dependence between the same pair of computational units.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeRecord<E>>,
    /// Outgoing edge ids per node.
    out_adj: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    in_adj: Vec<Vec<EdgeId>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self { nodes: Vec::new(), edges: Vec::new(), out_adj: Vec::new(), in_adj: Vec::new() }
    }

    /// Create an empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a node carrying `weight`, returning its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count exceeds u32"));
        self.nodes.push(weight);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Add a directed edge `src -> dst` carrying `weight`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "edge source {src:?} out of bounds");
        assert!(dst.index() < self.nodes.len(), "edge target {dst:?} out of bounds");
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count exceeds u32"));
        self.edges.push(EdgeRecord { src, dst, weight });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Node payload accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Edge payload accessor.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edges[id.index()].weight
    }

    /// Endpoints `(src, dst)` of an edge.
    #[inline]
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let rec = &self.edges[id.index()];
        (rec.src, rec.dst)
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Successor nodes of `n` (with multiplicity, in insertion order).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[n.index()].iter().map(move |e| self.edges[e.index()].dst)
    }

    /// Predecessor nodes of `n` (with multiplicity, in insertion order).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_adj[n.index()].iter().map(move |e| self.edges[e.index()].src)
    }

    /// Map node and edge payloads into a new graph with identical topology.
    pub fn map<N2, E2>(
        &self,
        mut nf: impl FnMut(NodeId, &N) -> N2,
        mut ef: impl FnMut(EdgeId, &E) -> E2,
    ) -> DiGraph<N2, E2> {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| nf(NodeId(i as u32), n))
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, rec)| EdgeRecord {
                    src: rec.src,
                    dst: rec.dst,
                    weight: ef(EdgeId(i as u32), &rec.weight),
                })
                .collect(),
            out_adj: self.out_adj.clone(),
            in_adj: self.in_adj.clone(),
        }
    }

    /// Extract the subgraph induced by `keep`, which must not repeat a
    /// node: node `i` of the result is `keep[i]`, and every edge between
    /// kept nodes is copied in edge-id order. Only the kept nodes'
    /// out-edges are visited, so the cost does not grow with the rest of
    /// the graph.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> DiGraph<N, E>
    where
        N: Clone,
        E: Clone,
    {
        // `(old, new)` ids sorted by old id, for membership tests.
        let mut new_of: Vec<(NodeId, NodeId)> =
            keep.iter().enumerate().map(|(i, &old)| (old, NodeId(i as u32))).collect();
        new_of.sort_unstable();
        let lookup =
            |old: NodeId| new_of.binary_search_by_key(&old, |&(o, _)| o).ok().map(|i| new_of[i].1);
        let mut edges: Vec<(EdgeId, NodeId, NodeId)> = Vec::new();
        for (src, &old) in keep.iter().enumerate() {
            for &e in &self.out_adj[old.index()] {
                if let Some(dst) = lookup(self.edges[e.index()].dst) {
                    edges.push((e, NodeId(src as u32), dst));
                }
            }
        }
        edges.sort_unstable_by_key(|&(e, _, _)| e);
        let mut sub = DiGraph::with_capacity(keep.len(), edges.len());
        for &old in keep {
            sub.add_node(self.nodes[old.index()].clone());
        }
        for (e, src, dst) in edges {
            sub.add_edge(src, dst, self.edges[e.index()].weight.clone());
        }
        sub
    }

    /// Undirected neighbour list per node (successors ∪ predecessors,
    /// deduplicated, self-loops removed). This is the view random walks use:
    /// anonymous-walk structure is about local shape, not edge direction.
    pub fn undirected_neighbors(&self) -> Vec<Vec<u32>> {
        let mut nbrs: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
        for rec in &self.edges {
            if rec.src != rec.dst {
                nbrs[rec.src.index()].push(rec.dst.0);
                nbrs[rec.dst.index()].push(rec.src.0);
            }
        }
        for list in &mut nbrs {
            list.sort_unstable();
            list.dedup();
        }
        nbrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<&'static str, u32> {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        g
    }

    #[test]
    fn add_and_count() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.is_empty());
        assert!(DiGraph::<(), ()>::new().is_empty());
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = diamond();
        let a = NodeId(0);
        let d = NodeId(3);
        assert_eq!(g.successors(a).count(), 2);
        assert_eq!(g.predecessors(a).count(), 0);
        assert_eq!(g.predecessors(d).count(), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn parallel_edges_and_self_loops_allowed() {
        let mut g: DiGraph<(), &str> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, "raw");
        g.add_edge(a, b, "war");
        g.add_edge(a, a, "self");
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.successors(a).count(), 3);
        assert_eq!(g.predecessors(b).count(), 2);
        assert!(g.successors(a).any(|s| s == a));
    }

    #[test]
    fn endpoints_and_payloads() {
        let g = diamond();
        let e = EdgeId(2);
        assert_eq!(g.endpoints(e), (NodeId(1), NodeId(3)));
        assert_eq!(*g.edge(e), 3);
        assert_eq!(*g.node(NodeId(2)), "c");
    }

    #[test]
    fn map_preserves_topology() {
        let g = diamond();
        let m = g.map(|id, n| format!("{}{}", n, id.0), |_, &e| e as f64);
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.node(NodeId(1)), "b1");
        assert_eq!(*m.edge(EdgeId(3)), 4.0);
        assert_eq!(m.successors(NodeId(0)).count(), 2);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = diamond();
        let sub = g.induced_subgraph(&[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.node_count(), 3);
        // edges a->b and b->d survive; a->c and c->d are dropped.
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(sub.node_ids().map(|n| *sub.node(n)).collect::<Vec<_>>(), vec!["a", "b", "d"]);
        assert_eq!(sub.successors(NodeId(0)).collect::<Vec<_>>(), vec![NodeId(1)]);
        assert_eq!(sub.successors(NodeId(1)).collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn induced_subgraph_follows_keep_order_and_edge_ids() {
        // Nodes come out in `keep` order and edges in the parent's edge-id
        // order, whichever kept node they leave.
        let mut g = diamond();
        g.add_edge(NodeId(3), NodeId(0), 5);
        g.add_edge(NodeId(1), NodeId(1), 6);
        let sub = g.induced_subgraph(&[NodeId(3), NodeId(0), NodeId(1)]);
        assert_eq!(sub.node_ids().map(|n| *sub.node(n)).collect::<Vec<_>>(), vec!["d", "a", "b"]);
        let edges: Vec<(u32, u32, u32)> = sub
            .edge_ids()
            .map(|e| {
                let (s, d) = sub.endpoints(e);
                (s.0, d.0, *sub.edge(e))
            })
            .collect();
        // a->b (1), b->d (3), d->a (5), b->b (6).
        assert_eq!(edges, vec![(1, 2, 1), (2, 0, 3), (0, 1, 5), (2, 2, 6)]);
        assert_eq!(sub.successors(NodeId(2)).count(), 2);
        assert_eq!(sub.predecessors(NodeId(0)).count(), 1);
    }

    #[test]
    fn undirected_neighbors_dedup_and_no_self_loops() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(a, a, ());
        let nbrs = g.undirected_neighbors();
        assert_eq!(nbrs[0], vec![1]);
        assert_eq!(nbrs[1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_to_missing_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(7), ());
    }
}
