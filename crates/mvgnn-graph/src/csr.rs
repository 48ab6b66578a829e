//! Compressed sparse row snapshot of a directed graph.
//!
//! Traversal-heavy code (walk sampling, GCN message passing) runs over a
//! `Csr` rather than the pointer-chasing adjacency lists of
//! [`crate::DiGraph`]. The CSR stores out-neighbours contiguously.

use crate::digraph::DiGraph;
use serde::{Deserialize, Serialize};

/// Immutable CSR adjacency. Neighbour lists are sorted for deterministic
/// iteration and binary-search membership tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    /// `offsets.len() == n + 1`; neighbours of `v` live in
    /// `targets[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Build from explicit edge pairs over `n` nodes.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(s, _) in edges {
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; edges.len()];
        for &(s, t) in edges {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = t;
            *c += 1;
        }
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Self { offsets, targets }
    }

    /// Snapshot the *undirected* adjacency of `g` (dedup, no self-loops):
    /// the view used for anonymous-walk sampling.
    pub fn undirected_from_digraph<N, E>(g: &DiGraph<N, E>) -> Self {
        let nbrs = g.undirected_neighbors();
        let mut offsets = Vec::with_capacity(nbrs.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for list in &nbrs {
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u32);
        }
        Self { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Membership test via binary search.
    pub fn contains_edge(&self, s: u32, t: u32) -> bool {
        self.neighbors(s).binary_search(&t).is_ok()
    }

    /// Symmetric-normalised self-looped operator
    /// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` as an edge list, the GCN propagation
    /// matrix of Kipf & Welling. Degrees are computed on `A + I`.
    pub fn gcn_normalized(&self) -> Vec<(u32, u32, f32)> {
        let n = self.node_count();
        let mut deg = vec![1.0f32; n]; // self loop contributes 1
        for v in 0..n as u32 {
            deg[v as usize] += self.degree(v) as f32;
        }
        let inv_sqrt: Vec<f32> = deg.iter().map(|&d| 1.0 / d.sqrt()).collect();
        let mut out = Vec::with_capacity(self.edge_count() + n);
        for v in 0..n as u32 {
            out.push((v, v, inv_sqrt[v as usize] * inv_sqrt[v as usize]));
            for &t in self.neighbors(v) {
                out.push((v, t, inv_sqrt[v as usize] * inv_sqrt[t as usize]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;

    fn chain_csr() -> Csr {
        // 0 -> 1 -> 2 -> 3 plus 0 -> 2
        Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)])
    }

    #[test]
    fn from_edges_builds_sorted_rows() {
        let c = Csr::from_edges(3, &[(0, 2), (0, 1), (2, 0)]);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(1), &[] as &[u32]);
        assert_eq!(c.neighbors(2), &[0]);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.edge_count(), 3);
    }

    #[test]
    fn membership_and_degree() {
        let c = chain_csr();
        assert!(c.contains_edge(0, 2));
        assert!(!c.contains_edge(2, 0));
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(3), 0);
    }

    #[test]
    fn undirected_view_symmetric() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let csr = Csr::undirected_from_digraph(&g);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(1), &[0]);
    }

    #[test]
    fn gcn_normalized_is_symmetric_on_undirected_input() {
        // undirected edge 0-1 given as both arcs
        let c = Csr::from_edges(2, &[(0, 1), (1, 0)]);
        let entries = c.gcn_normalized();
        // entries: (0,0), (0,1), (1,1), (1,0) with deg=2 each -> all 0.5
        for (_, _, w) in &entries {
            assert!((w - 0.5).abs() < 1e-6);
        }
        assert_eq!(entries.len(), 4);
    }
}
