//! Classic graph algorithms used across the pipeline: BFS distances,
//! topological order, longest path on DAGs (critical path length) and
//! Tarjan SCC.

use crate::csr::Csr;

/// BFS hop distances from `src`; `u32::MAX` marks unreachable nodes.
pub fn bfs_distances(csr: &Csr, src: u32) -> Vec<u32> {
    let n = csr.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &t in csr.neighbors(v) {
            if dist[t as usize] == u32::MAX {
                dist[t as usize] = dv + 1;
                queue.push_back(t);
            }
        }
    }
    dist
}

/// Kahn topological order. Returns `None` if the graph has a cycle.
pub fn topological_order(csr: &Csr) -> Option<Vec<u32>> {
    let n = csr.node_count();
    let mut indeg = vec![0u32; n];
    for v in 0..n as u32 {
        for &t in csr.neighbors(v) {
            indeg[t as usize] += 1;
        }
    }
    let mut stack: Vec<u32> =
        (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = stack.pop() {
        order.push(v);
        for &t in csr.neighbors(v) {
            indeg[t as usize] -= 1;
            if indeg[t as usize] == 0 {
                stack.push(t);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Length (in edges) of the longest path in a DAG — the *critical path*
/// through a dependence graph. Cycles are handled by contracting SCCs
/// first: each non-trivial SCC contributes its node count to the path it
/// lies on (a chain of mutually dependent instructions must serialise).
pub fn critical_path_len(csr: &Csr) -> u32 {
    let n = csr.node_count();
    if n == 0 {
        return 0;
    }
    let scc = tarjan_scc(csr);
    let ncomp = scc.component_count;
    // Component sizes; component DAG edges.
    let mut size = vec![0u32; ncomp];
    for v in 0..n {
        size[scc.component_of[v] as usize] += 1;
    }
    let mut cedges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n as u32 {
        let cv = scc.component_of[v as usize];
        for &t in csr.neighbors(v) {
            let ct = scc.component_of[t as usize];
            if cv != ct {
                cedges.push((cv, ct));
            }
        }
    }
    cedges.sort_unstable();
    cedges.dedup();
    let cdag = Csr::from_edges(ncomp, &cedges);
    // Longest weighted path where each component weighs `size - 1` internal
    // edges plus 1 per crossing edge. Tarjan numbers components in reverse
    // topological order of the condensation: every crossing edge runs from
    // a higher index to a lower one, so descending index visits each
    // component after all of its predecessors.
    let mut best: Vec<u32> = size.iter().map(|&s| s - 1).collect();
    let mut overall = 0u32;
    for c in (0..ncomp as u32).rev() {
        let b = best[c as usize];
        overall = overall.max(b);
        for &t in cdag.neighbors(c) {
            let cand = b + 1 + (size[t as usize] - 1);
            if cand > best[t as usize] {
                best[t as usize] = cand;
            }
        }
    }
    overall
}

/// Result of Tarjan's strongly connected components.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// Component index per node; components are numbered in reverse
    /// topological order of the condensation (standard Tarjan output).
    pub component_of: Vec<u32>,
    /// Total number of components.
    pub component_count: usize,
}

impl SccResult {
    /// Nodes grouped by component.
    pub fn groups(&self) -> Vec<Vec<u32>> {
        let mut groups = vec![Vec::new(); self.component_count];
        for (v, &c) in self.component_of.iter().enumerate() {
            groups[c as usize].push(v as u32);
        }
        groups
    }
}

/// Iterative Tarjan SCC (explicit stack; safe for deep graphs).
pub fn tarjan_scc(csr: &Csr) -> SccResult {
    let n = csr.node_count();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component_of = vec![UNSET; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut ncomp = 0u32;

    // Explicit DFS frames: (node, next-neighbour cursor).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            let nbrs = csr.neighbors(v);
            if *cursor < nbrs.len() {
                let w = nbrs[*cursor];
                *cursor += 1;
                if index[w as usize] == UNSET {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] =
                        lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // `v` is still on the stack, so the pop stops at it.
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        component_of[w as usize] = ncomp;
                        if w == v {
                            break;
                        }
                    }
                    ncomp += 1;
                }
            }
        }
    }
    SccResult { component_of, component_count: ncomp as usize }
}

/// Maximum anti-chain width proxy for a dependence DAG: the largest number
/// of nodes at the same BFS depth from the set of sources. Used by the
/// estimated-speedup (ESP) heuristic together with the critical path.
pub fn max_level_width(csr: &Csr) -> u32 {
    let n = csr.node_count();
    if n == 0 {
        return 0;
    }
    let Some(order) = topological_order(csr) else {
        // Cyclic: conservative width 1 (serialised).
        return 1;
    };
    let mut level = vec![0u32; n];
    for &v in &order {
        for &t in csr.neighbors(v) {
            level[t as usize] = level[t as usize].max(level[v as usize] + 1);
        }
    }
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut width = vec![0u32; max_level as usize + 1];
    for &l in &level {
        width[l as usize] += 1;
    }
    width.into_iter().max().unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dag() -> Csr {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4
        Csr::from_edges(5, &[(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_basic() {
        let d = bfs_distances(&dag(), 0);
        assert_eq!(d, vec![0, 1, 1, 2, 3]);
        let d2 = bfs_distances(&dag(), 3);
        assert_eq!(d2[0], u32::MAX);
        assert_eq!(d2[4], 1);
    }

    #[test]
    fn topo_order_valid() {
        let csr = dag();
        let order = topological_order(&csr).unwrap();
        let pos: Vec<usize> =
            (0..5).map(|v| order.iter().position(|&x| x == v as u32).unwrap()).collect();
        for v in 0..5u32 {
            for &t in csr.neighbors(v) {
                assert!(pos[v as usize] < pos[t as usize]);
            }
        }
    }

    #[test]
    fn topo_order_detects_cycle() {
        let csr = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(topological_order(&csr).is_none());
    }

    #[test]
    fn critical_path_on_dag() {
        assert_eq!(critical_path_len(&dag()), 3);
        let empty = Csr::from_edges(0, &[]);
        assert_eq!(critical_path_len(&empty), 0);
        let single = Csr::from_edges(1, &[]);
        assert_eq!(critical_path_len(&single), 0);
    }

    #[test]
    fn critical_path_with_cycle_counts_scc_size() {
        // 0 -> (1 <-> 2) -> 3 : cycle of 2 contributes 1 internal edge.
        let csr = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        assert_eq!(critical_path_len(&csr), 3);
    }

    #[test]
    fn tarjan_finds_components() {
        let csr = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let scc = tarjan_scc(&csr);
        assert_eq!(scc.component_count, 3);
        assert_eq!(scc.component_of[0], scc.component_of[1]);
        assert_eq!(scc.component_of[1], scc.component_of[2]);
        assert_ne!(scc.component_of[2], scc.component_of[3]);
        let groups = scc.groups();
        assert_eq!(groups[scc.component_of[0] as usize], vec![0, 1, 2]);
        assert_eq!(groups[scc.component_of[4] as usize], vec![4]);
    }

    #[test]
    fn tarjan_deep_chain_no_overflow() {
        let n = 200_000;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v as u32, v as u32 + 1)).collect();
        let csr = Csr::from_edges(n, &edges);
        let scc = tarjan_scc(&csr);
        assert_eq!(scc.component_count, n);
    }

    /// The condensation walk `critical_path_len` did before it relied on
    /// Tarjan's numbering: Kahn's topological order of the component DAG.
    fn critical_path_len_reference(csr: &Csr) -> u32 {
        let n = csr.node_count();
        if n == 0 {
            return 0;
        }
        let scc = tarjan_scc(csr);
        let ncomp = scc.component_count;
        let mut size = vec![0u32; ncomp];
        for v in 0..n {
            size[scc.component_of[v] as usize] += 1;
        }
        let mut cedges: Vec<(u32, u32)> = Vec::new();
        for v in 0..n as u32 {
            let cv = scc.component_of[v as usize];
            for &t in csr.neighbors(v) {
                let ct = scc.component_of[t as usize];
                if cv != ct {
                    cedges.push((cv, ct));
                }
            }
        }
        cedges.sort_unstable();
        cedges.dedup();
        let cdag = Csr::from_edges(ncomp, &cedges);
        let order = topological_order(&cdag).expect("SCC condensation is acyclic");
        let mut best = vec![0u32; ncomp];
        for &c in &order {
            best[c as usize] = best[c as usize].max(size[c as usize] - 1);
        }
        let mut overall = 0u32;
        for &c in &order {
            let b = best[c as usize];
            overall = overall.max(b);
            for &t in cdag.neighbors(c) {
                let cand = b + 1 + (size[t as usize] - 1);
                if cand > best[t as usize] {
                    best[t as usize] = cand;
                }
            }
        }
        overall
    }

    #[test]
    fn critical_path_matches_the_topological_order_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut cyclic = 0;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(0..48usize);
            let m = if n == 0 { 0 } else { rng.random_range(0..3 * n) };
            // Forward edges only give a DAG; otherwise back edges and
            // self-loops make cycles of every size.
            let dag = seed % 3 == 0;
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
                .map(|(a, b)| if dag { (a.min(b), a.max(b)) } else { (a, b) })
                .filter(|&(a, b)| !dag || a < b)
                .collect();
            let csr = Csr::from_edges(n, &edges);
            if tarjan_scc(&csr).component_count < n {
                cyclic += 1;
            }
            assert_eq!(
                critical_path_len(&csr),
                critical_path_len_reference(&csr),
                "seed {seed}: n {n}, edges {edges:?}"
            );
        }
        assert!(cyclic > 100, "too few cyclic graphs exercised: {cyclic}");
    }

    #[test]
    fn level_width_of_diamond() {
        // Diamond: widest level has 2 nodes.
        let csr = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(max_level_width(&csr), 2);
        // Cycle collapses to width 1.
        let cyc = Csr::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(max_level_width(&cyc), 1);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn bfs_on_empty_and_singleton() {
        let single = Csr::from_edges(1, &[]);
        assert_eq!(bfs_distances(&single, 0), vec![0]);
    }

    #[test]
    fn self_loop_breaks_topo_order() {
        let csr = Csr::from_edges(2, &[(0, 0), (0, 1)]);
        assert!(topological_order(&csr).is_none());
    }

    #[test]
    fn critical_path_counts_longest_not_first() {
        // Two routes 0->3: direct edge vs 3-edge chain.
        let csr = Csr::from_edges(4, &[(0, 3), (0, 1), (1, 2), (2, 3)]);
        assert_eq!(critical_path_len(&csr), 3);
    }

    #[test]
    fn scc_condensation_path_through_two_cycles() {
        // (0<->1) -> (2<->3): two 2-cycles in sequence.
        let csr = Csr::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let scc = tarjan_scc(&csr);
        assert_eq!(scc.component_count, 2);
        // Path: 1 internal edge + 1 crossing + 1 internal = 3.
        assert_eq!(critical_path_len(&csr), 3);
    }

    #[test]
    fn width_of_star_graph() {
        // Hub feeding 5 leaves: all leaves at depth 1.
        let edges: Vec<(u32, u32)> = (1..6).map(|t| (0u32, t)).collect();
        let csr = Csr::from_edges(6, &edges);
        assert_eq!(max_level_width(&csr), 5);
        assert_eq!(critical_path_len(&csr), 1);
    }

    #[test]
    fn groups_partition_nodes() {
        let csr = Csr::from_edges(5, &[(0, 1), (1, 0), (2, 3)]);
        let scc = tarjan_scc(&csr);
        let groups = scc.groups();
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert_eq!(groups.len(), scc.component_count);
    }
}
