//! PEG construction from the CU partition and the dependence graph.

use mvgnn_graph::{DiGraph, NodeId};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_profiler::{CuGraph, CuId, DepGraph, DepKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a PEG node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PegNodeKind {
    /// A computational unit.
    Cu(CuId),
    /// A loop of a function.
    Loop(FuncId, LoopId),
    /// A function root.
    Func(FuncId),
}

/// Payload of a PEG node: the DiscoPoP `⟨ID, START, END⟩` triple plus the
/// normalised statement token used for embeddings. Tokens are static
/// (see [`mvgnn_ir::Inst::token`]), so a node allocates only its token
/// list.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PegNode {
    /// Node role.
    pub kind: PegNodeKind,
    /// Normalised display token (`load`, `bin.add`, `loop`, `func`, …).
    pub token: &'static str,
    /// Every member statement's token (singletons repeat `token`); the
    /// embedding layer averages these so compound compute CUs keep all of
    /// their opcodes visible.
    pub tokens: Vec<&'static str>,
    /// Synthetic source line span `(START, END)`.
    pub line_span: (u32, u32),
}

/// Edge roles in a PEG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PegEdgeKind {
    /// Register def-use between CUs.
    DefUse,
    /// Observed data dependence, with its kind.
    Dep(DepKind),
    /// Containment: function → loop/CU, loop → nested loop/CU.
    Hierarchy,
}

/// Payload of a PEG edge: the DiscoPoP `⟨SINK, TYPE, SOURCE⟩` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PegEdge {
    /// Edge role.
    pub kind: PegEdgeKind,
    /// True when the dependence was carried by some loop.
    pub carried: bool,
}

/// The full module-level PEG with lookup tables.
#[derive(Debug, Clone)]
pub struct Peg {
    /// Underlying directed multigraph.
    pub graph: DiGraph<PegNode, PegEdge>,
    /// CU → node.
    pub node_of_cu: HashMap<CuId, NodeId>,
    /// Loop → node.
    pub node_of_loop: HashMap<(FuncId, LoopId), NodeId>,
    /// Function → node.
    pub node_of_func: HashMap<FuncId, NodeId>,
}

/// The induced sub-PEG of one loop — a classification sample.
#[derive(Debug, Clone)]
pub struct SubPeg {
    /// Induced subgraph (loop node + member CUs + nested loops).
    pub graph: DiGraph<PegNode, PegEdge>,
    /// The loop's node inside `graph`.
    pub loop_node: NodeId,
    /// Owning function.
    pub func: FuncId,
    /// The loop.
    pub l: LoopId,
}

/// Build the module PEG.
pub fn build_peg(module: &Module, cus: &CuGraph, deps: &DepGraph) -> Peg {
    let mut graph: DiGraph<PegNode, PegEdge> = DiGraph::new();
    let mut node_of_cu = HashMap::new();
    let mut node_of_loop = HashMap::new();
    let mut node_of_func = HashMap::new();

    // Function roots.
    for (fi, f) in module.funcs.iter().enumerate() {
        let func = FuncId(fi as u32);
        let span = f
            .insts_with_refs(func)
            .fold((u32::MAX, 0u32), |acc, (_, _, line)| (acc.0.min(line), acc.1.max(line)));
        let n = graph.add_node(PegNode {
            kind: PegNodeKind::Func(func),
            token: "func",
            tokens: vec!["func"],
            line_span: if span.0 == u32::MAX { (0, 0) } else { span },
        });
        node_of_func.insert(func, n);
    }

    // Loop nodes.
    for (fi, f) in module.funcs.iter().enumerate() {
        let func = FuncId(fi as u32);
        for info in &f.loops {
            let n = graph.add_node(PegNode {
                kind: PegNodeKind::Loop(func, info.id),
                token: "loop",
                tokens: vec!["loop"],
                line_span: info.line_span,
            });
            node_of_loop.insert((func, info.id), n);
        }
    }

    // CU nodes (member statement tokens resolved from the module).
    for cu in &cus.cus {
        let f = &module.funcs[cu.func.index()];
        let tokens = cu.members.iter().map(|&r| f.inst(r).token()).collect();
        let n = graph.add_node(PegNode {
            kind: PegNodeKind::Cu(cu.id),
            token: cu.token,
            tokens,
            line_span: cu.line_span,
        });
        node_of_cu.insert(cu.id, n);
    }

    // Hierarchy edges: loop → parent (or function), CU → innermost loop
    // (or function). Direction is container → member.
    for (fi, f) in module.funcs.iter().enumerate() {
        let func = FuncId(fi as u32);
        for info in &f.loops {
            let child = node_of_loop[&(func, info.id)];
            let parent = match info.parent {
                Some(p) => node_of_loop[&(func, p)],
                None => node_of_func[&func],
            };
            graph.add_edge(parent, child, PegEdge { kind: PegEdgeKind::Hierarchy, carried: false });
        }
    }
    for cu in &cus.cus {
        let f = &module.funcs[cu.func.index()];
        let child = node_of_cu[&cu.id];
        // Innermost loop of the first member's block, if any.
        let container = cu
            .members
            .first()
            .and_then(|r| f.loop_of_block(r.block))
            .map(|l| node_of_loop[&(cu.func, l)])
            .unwrap_or(node_of_func[&cu.func]);
        graph.add_edge(container, child, PegEdge { kind: PegEdgeKind::Hierarchy, carried: false });
    }

    // Def-use edges between CUs.
    for &(a, b) in &cus.defuse_edges {
        graph.add_edge(
            node_of_cu[&a],
            node_of_cu[&b],
            PegEdge { kind: PegEdgeKind::DefUse, carried: false },
        );
    }

    // Dependence edges, lifted to CU level (deduplicated per kind+carried).
    let mut seen: std::collections::HashSet<(NodeId, NodeId, PegEdgeKind, bool)> =
        std::collections::HashSet::new();
    for d in deps.iter() {
        let (Some(sc), Some(tc)) = (cus.cu_of(d.src), cus.cu_of(d.dst)) else { continue };
        let (sn, tn) = (node_of_cu[&sc], node_of_cu[&tc]);
        let carried = !d.carried_by.is_empty();
        let kind = PegEdgeKind::Dep(d.kind);
        if seen.insert((sn, tn, kind, carried)) {
            graph.add_edge(sn, tn, PegEdge { kind, carried });
        }
    }

    Peg { graph, node_of_cu, node_of_loop, node_of_func }
}

/// Extract the induced sub-PEG of loop `l` in `func`: the loop node, every
/// CU whose members lie in the loop's blocks, and nested loop nodes. Only
/// `func`'s CUs are visited. The loop node is node 0 of the sub-PEG.
pub fn loop_subpeg(
    peg: &Peg,
    module: &Module,
    cus: &CuGraph,
    func: FuncId,
    l: LoopId,
) -> SubPeg {
    let f = &module.funcs[func.index()];
    // Sorted, so membership is a binary search.
    let blocks = f.loop_blocks(l);
    let mut keep: Vec<NodeId> = vec![peg.node_of_loop[&(func, l)]];
    // Nested loops: parent chain contains l.
    for info in &f.loops {
        if info.id == l {
            continue;
        }
        let mut cur = info.parent;
        while let Some(p) = cur {
            if p == l {
                keep.push(peg.node_of_loop[&(func, info.id)]);
                break;
            }
            cur = f.loops[p.index()].parent;
        }
    }
    // Member CUs: any member instruction inside the loop's blocks.
    for cu in &cus.cus[cus.func_range(func)] {
        if cu.members.iter().any(|r| blocks.binary_search(&r.block).is_ok()) {
            keep.push(peg.node_of_cu[&cu.id]);
        }
    }
    SubPeg { graph: peg.graph.induced_subgraph(&keep), loop_node: NodeId(0), func, l }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::FunctionBuilder;
    use mvgnn_profiler::{build_cus, profile_module};

    fn reduction_module() -> (Module, FuncId, LoopId) {
        let mut m = Module::new("red");
        let a = m.add_array("a", Ty::F64, 16);
        let s = m.add_array("s", Ty::F64, 1);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let zero = b.const_i64(0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let cur = b.load(s, zero);
            let nxt = b.bin(BinOp::Add, cur, x);
            b.store(s, zero, nxt);
        });
        let f = b.finish();
        (m, f, l)
    }

    fn build_all(m: &Module, f: FuncId) -> (Peg, mvgnn_profiler::CuGraph) {
        let cus = build_cus(m);
        let res = profile_module(m, f, &[]).unwrap();
        let peg = build_peg(m, &cus, &res.deps);
        (peg, cus)
    }

    #[test]
    fn peg_contains_all_node_kinds() {
        let (m, f, _) = reduction_module();
        let (peg, _) = build_all(&m, f);
        let kinds: Vec<&PegNodeKind> = peg.graph.node_weights().map(|n| &n.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, PegNodeKind::Func(_))));
        assert!(kinds.iter().any(|k| matches!(k, PegNodeKind::Loop(_, _))));
        assert!(kinds.iter().any(|k| matches!(k, PegNodeKind::Cu(_))));
    }

    #[test]
    fn reduction_subpeg_has_carried_cycle() {
        let (m, f, l) = reduction_module();
        let (peg, cus) = build_all(&m, f);
        let sub = loop_subpeg(&peg, &m, &cus, f, l);
        // The reduction load-s/add/store cycle: there must be a carried dep
        // edge and a def-use path back, i.e. at least one carried edge.
        let carried_edges = sub
            .graph
            .edge_ids()
            .filter(|&e| sub.graph.edge(e).carried)
            .count();
        assert!(carried_edges >= 1, "reduction sub-PEG must show a carried dep");
        // Nodes: loop + at least load, load, add-compute, store.
        assert!(sub.graph.node_count() >= 5, "{}", sub.graph.node_count());
    }

    #[test]
    fn subpeg_loop_node_is_container() {
        let (m, f, l) = reduction_module();
        let (peg, cus) = build_all(&m, f);
        let sub = loop_subpeg(&peg, &m, &cus, f, l);
        // Every hierarchy edge from the loop node points at a member.
        let out: Vec<_> = sub
            .graph
            .out_edges(sub.loop_node)
            .filter(|&e| sub.graph.edge(e).kind == PegEdgeKind::Hierarchy)
            .collect();
        assert!(!out.is_empty(), "loop node should contain members");
    }

    #[test]
    fn nested_loops_appear_in_outer_subpeg() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(4);
        let st = b.const_i64(1);
        let mut inner = None;
        let outer = b.for_loop(lo, hi, st, |b, i| {
            let lo2 = b.const_i64(0);
            let hi2 = b.const_i64(4);
            inner = Some(b.for_loop(lo2, hi2, st, |b, j| {
                let four = b.const_i64(4);
                let base = b.bin(BinOp::Mul, i, four);
                let ij = b.bin(BinOp::Add, base, j);
                let x = b.load(a, ij);
                b.store(a, ij, x);
            }));
        });
        let f = b.finish();
        let (peg, cus) = build_all(&m, f);
        let sub_outer = loop_subpeg(&peg, &m, &cus, f, outer);
        let inner_nodes = sub_outer
            .graph
            .node_weights()
            .filter(|n| matches!(n.kind, PegNodeKind::Loop(_, li) if li == inner.unwrap()))
            .count();
        assert_eq!(inner_nodes, 1, "outer sub-PEG must contain the inner loop node");
        // Inner sub-PEG must NOT contain the outer loop node.
        let sub_inner = loop_subpeg(&peg, &m, &cus, f, inner.unwrap());
        let outer_nodes = sub_inner
            .graph
            .node_weights()
            .filter(|n| matches!(n.kind, PegNodeKind::Loop(_, lo) if lo == outer))
            .count();
        assert_eq!(outer_nodes, 0);
    }

    #[test]
    fn doall_and_reduction_subpegs_differ_structurally() {
        // The premise of the structural view: the two patterns of Fig. 1
        // produce different graphs.
        let (mr, fr, lr) = reduction_module();
        let (peg_r, cus_r) = build_all(&mr, fr);
        let sub_r = loop_subpeg(&peg_r, &mr, &cus_r, fr, lr);

        let mut m = Module::new("doall");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, iv, y);
        });
        let f = b.finish();
        let (peg_d, cus_d) = build_all(&m, f);
        let sub_d = loop_subpeg(&peg_d, &m, &cus_d, f, l);

        let carried = |s: &SubPeg| s.graph.edge_ids().filter(|&e| s.graph.edge(e).carried).count();
        assert_eq!(carried(&sub_d), 0);
        assert!(carried(&sub_r) > 0);
    }

    #[test]
    fn dep_edges_are_deduplicated() {
        let (m, f, _) = reduction_module();
        let (peg, _) = build_all(&m, f);
        let mut seen = std::collections::HashSet::new();
        for e in peg.graph.edge_ids() {
            let (s, t) = peg.graph.endpoints(e);
            let w = peg.graph.edge(e);
            if let PegEdgeKind::Dep(k) = w.kind {
                assert!(
                    seen.insert((s, t, k, w.carried)),
                    "duplicate dep edge {s:?}->{t:?} {k:?}"
                );
            }
        }
    }
}
