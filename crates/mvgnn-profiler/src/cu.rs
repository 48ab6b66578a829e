//! Computational-unit (CU) construction.
//!
//! DiscoPoP groups instructions into *computational units* — the nodes of
//! the paper's Program Execution Graph. We use a granularity that keeps
//! the structural patterns of Fig. 1 visible:
//!
//! - every memory access (`Load`, `Store`), `Call`, and conditional
//!   control instruction is a **singleton** CU;
//! - pure compute instructions (`Const`, `Copy`, `Bin`, `Un`) are grouped
//!   into connected components of the register def-use graph;
//! - unconditional `Br` instructions carry no information and join no CU.
//!
//! With this partition a stencil body becomes the *join* motif (two loads
//! feeding one compute CU feeding a store) and a reduction becomes a
//! load → compute → store *cycle* once the carried RAW edge is added —
//! exactly the patterns the structural view is designed to separate.

use mvgnn_ir::inst::{Inst, InstRef};
use mvgnn_ir::module::{FuncId, Function, Module};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// CU index, module-global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CuId(pub u32);

impl CuId {
    /// Usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a CU contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CuKind {
    /// A single `Load`.
    Load,
    /// A single `Store`.
    Store,
    /// A single `Call`.
    Call,
    /// A def-use component of pure compute instructions.
    Compute,
    /// A conditional branch or return (control).
    Control,
}

/// One computational unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CuInfo {
    /// Id of this CU.
    pub id: CuId,
    /// Owning function.
    pub func: FuncId,
    /// Kind.
    pub kind: CuKind,
    /// Member instructions, in block order.
    pub members: Vec<InstRef>,
    /// Source line span `[min, max]` over members.
    pub line_span: (u32, u32),
    /// Normalised token (mirrors inst2vec statement normalisation): the
    /// member token for singletons, `compute:` and the dominant member
    /// token for compute CUs of several members. Static, like
    /// [`Inst::token`].
    pub token: &'static str,
}

/// The CU partition of a module plus register def-use edges between CUs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CuGraph {
    /// All CUs, function by function in function order.
    pub cus: Vec<CuInfo>,
    /// Map from instruction to its CU (Br instructions are absent).
    pub cu_of: HashMap<InstRef, CuId>,
    /// Register def-use edges `def CU -> user CU` (deduplicated, no
    /// self-edges).
    pub defuse_edges: Vec<(CuId, CuId)>,
}

impl CuGraph {
    /// Number of CUs.
    pub fn len(&self) -> usize {
        self.cus.len()
    }

    /// True when the module produced no CUs.
    pub fn is_empty(&self) -> bool {
        self.cus.is_empty()
    }

    /// The CU of an instruction.
    pub fn cu_of(&self, r: InstRef) -> Option<CuId> {
        self.cu_of.get(&r).copied()
    }

    /// The positions in `cus` of `func`'s CUs: one contiguous range,
    /// because [`build_cus`] emits CUs function by function.
    pub fn func_range(&self, func: FuncId) -> std::ops::Range<usize> {
        let start = self.cus.partition_point(|cu| cu.func < func);
        start..start + self.cus[start..].partition_point(|cu| cu.func == func)
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// Build the CU partition for every function of a module.
pub fn build_cus(module: &Module) -> CuGraph {
    let mut cus: Vec<CuInfo> = Vec::new();
    let mut cu_of: HashMap<InstRef, CuId> = HashMap::new();
    let mut defuse_edges: Vec<(CuId, CuId)> = Vec::new();
    let mut scratch: Vec<&Inst> = Vec::new();

    for (fi, f) in module.funcs.iter().enumerate() {
        let func = FuncId(fi as u32);
        // CUs of this function occupy `cus[first..]`.
        let first = cus.len();
        let insts: Vec<(InstRef, &Inst, u32)> = f.insts_with_refs(func).collect();
        let n = insts.len();

        let is_compute = |inst: &Inst| {
            matches!(inst, Inst::Const { .. } | Inst::Copy { .. } | Inst::Bin { .. } | Inst::Un { .. })
        };

        // Union compute instructions that share register def-use.
        let mut uf = UnionFind::new(n);
        let mut compute_defs: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, (_, inst, _)) in insts.iter().enumerate() {
            if is_compute(inst) {
                if let Some(d) = inst.def() {
                    compute_defs.entry(d.0).or_default().push(i);
                }
            }
        }
        for (i, (_, inst, _)) in insts.iter().enumerate() {
            if !is_compute(inst) {
                continue;
            }
            for u in f.uses(inst) {
                if let Some(defs) = compute_defs.get(&u.0) {
                    for &d in defs {
                        uf.union(d as u32, i as u32);
                    }
                }
            }
        }

        // Assign CU ids: compute components share, others are singletons.
        let mut comp_cu: HashMap<u32, CuId> = HashMap::new();
        let mut func_cu_of_flat: Vec<Option<CuId>> = vec![None; n];
        for (i, (r, inst, line)) in insts.iter().enumerate() {
            let (kind, key) = match inst {
                Inst::Load { .. } => (CuKind::Load, None),
                Inst::Store { .. } => (CuKind::Store, None),
                Inst::Call { .. } => (CuKind::Call, None),
                Inst::CondBr { .. } | Inst::Ret { .. } => (CuKind::Control, None),
                Inst::Br { .. } => continue,
                _ => (CuKind::Compute, Some(uf.find(i as u32))),
            };
            let id = match key {
                Some(root) => *comp_cu.entry(root).or_insert_with(|| {
                    let id = CuId(cus.len() as u32);
                    cus.push(CuInfo {
                        id,
                        func,
                        kind,
                        members: Vec::new(),
                        line_span: (u32::MAX, 0),
                        token: "",
                    });
                    id
                }),
                None => {
                    let id = CuId(cus.len() as u32);
                    cus.push(CuInfo {
                        id,
                        func,
                        kind,
                        members: Vec::new(),
                        line_span: (u32::MAX, 0),
                        token: "",
                    });
                    id
                }
            };
            let info = &mut cus[id.index()];
            info.members.push(*r);
            info.line_span.0 = info.line_span.0.min(*line);
            info.line_span.1 = info.line_span.1.max(*line);
            cu_of.insert(*r, id);
            func_cu_of_flat[i] = Some(id);
        }

        // Tokens: singleton -> inst token; compute -> dominant member token.
        for cu in &mut cus[first..] {
            cu.token = match cu.members.as_slice() {
                [r] => f.inst(*r).token(),
                members => compute_token(f, members, &mut scratch),
            };
        }

        // Def-use edges between CUs (flow-insensitive over registers).
        let mut all_defs: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, (_, inst, _)) in insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                all_defs.entry(d.0).or_default().push(i);
            }
        }
        for (i, (_, inst, _)) in insts.iter().enumerate() {
            let Some(user_cu) = func_cu_of_flat[i] else { continue };
            for u in f.uses(inst) {
                if let Some(defs) = all_defs.get(&u.0) {
                    for &d in defs {
                        if let Some(def_cu) = func_cu_of_flat[d] {
                            if def_cu != user_cu {
                                defuse_edges.push((def_cu, user_cu));
                            }
                        }
                    }
                }
            }
        }
    }
    defuse_edges.sort_unstable();
    defuse_edges.dedup();
    CuGraph { cus, cu_of, defuse_edges }
}

/// A compute CU's token: `compute:` and its dominant member token, the
/// most frequent one with ties broken by the lexicographically smallest,
/// taken from that member's opcode. `scratch` is reused across CUs.
fn compute_token<'f>(
    f: &'f Function,
    members: &[InstRef],
    scratch: &mut Vec<&'f Inst>,
) -> &'static str {
    scratch.clear();
    scratch.extend(members.iter().map(|&r| f.inst(r)));
    scratch.sort_unstable_by_key(|inst| inst.token());
    let mut best = (0, "");
    for run in scratch.chunk_by(|a, b| a.token() == b.token()) {
        if run.len() > best.0 {
            best = (run.len(), run[0].compute_token());
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::{FunctionBuilder, Module};

    #[test]
    fn figure4_two_independent_chains_get_two_compute_cus() {
        // Mirrors the paper's Fig. 4: two interleaved independent
        // computations (x-chain, y-chain) must form separate CUs.
        let mut m = Module::new("fig4");
        let ax = m.add_array("ax", Ty::F64, 4);
        let ay = m.add_array("ay", Ty::F64, 4);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let i0 = b.const_i64(0);
        let x = b.load(ax, i0);      // x = ...
        let y = b.load(ay, i0);      // y = ...
        let x2 = b.bin(BinOp::Mul, x, x); // uses x
        let y2 = b.bin(BinOp::Add, y, y); // uses y
        let x3 = b.bin(BinOp::Add, x2, x2);
        let y3 = b.bin(BinOp::Mul, y2, y2);
        b.store(ax, i0, x3);
        b.store(ay, i0, y3);
        b.finish();
        let g = build_cus(&m);
        // Compute CUs: {x2,x3} and {y2,y3} — i0 is its own const component
        // shared by neither chain (it feeds loads, which are singletons).
        let compute: Vec<&CuInfo> =
            g.cus.iter().filter(|c| c.kind == CuKind::Compute).collect();
        // i0 const + x-chain + y-chain = 3 compute components.
        assert_eq!(compute.len(), 3, "{compute:#?}");
        let chains: Vec<usize> =
            compute.iter().map(|c| c.members.len()).filter(|&l| l == 2).collect();
        assert_eq!(chains.len(), 2, "expected two 2-inst chains");
    }

    #[test]
    fn func_range_covers_exactly_each_functions_cus() {
        // Three functions, the middle one without CUs of its own but the
        // return's control CU.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 4);
        for name in ["f0", "f1", "f2"] {
            let mut b = FunctionBuilder::new(&mut m, name, 0);
            if name != "f1" {
                let z = b.const_i64(0);
                let v = b.load(a, z);
                b.store(a, z, v);
            }
            b.finish();
        }
        let g = build_cus(&m);
        let mut next = 0;
        for fi in 0..4u32 {
            let range = g.func_range(FuncId(fi));
            assert_eq!(range.start, next, "f{fi} starts where f{} ends", fi.wrapping_sub(1));
            assert!(g.cus[range.clone()].iter().all(|cu| cu.func == FuncId(fi)));
            next = range.end;
        }
        assert_eq!(next, g.len(), "the ranges cover every CU");
        assert!(g.func_range(FuncId(3)).is_empty());
    }

    #[test]
    fn memory_and_call_are_singletons() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 4);
        let callee = {
            let b = FunctionBuilder::new(&mut m, "callee", 0);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let z = b.const_i64(0);
        let v = b.load(a, z);
        b.store(a, z, v);
        b.call_void(callee, &[]);
        b.finish();
        let g = build_cus(&m);
        let kinds: Vec<CuKind> = g.cus.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&CuKind::Load));
        assert!(kinds.contains(&CuKind::Store));
        assert!(kinds.contains(&CuKind::Call));
        for c in &g.cus {
            if matches!(c.kind, CuKind::Load | CuKind::Store | CuKind::Call) {
                assert_eq!(c.members.len(), 1);
            }
        }
    }

    #[test]
    fn defuse_edges_connect_load_compute_store() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 4);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let z = b.const_i64(0);
        let x = b.load(a, z);
        let y = b.bin(BinOp::Mul, x, x);
        b.store(a, z, y);
        b.finish();
        let g = build_cus(&m);
        // Find the load, compute(mul), store CUs.
        let find = |k: CuKind| g.cus.iter().find(|c| c.kind == k).map(|c| c.id);
        let load = find(CuKind::Load).unwrap();
        let store = find(CuKind::Store).unwrap();
        let mul = g
            .cus
            .iter()
            .find(|c| c.kind == CuKind::Compute && c.token.contains("mul"))
            .map(|c| c.id)
            .unwrap();
        assert!(g.defuse_edges.contains(&(load, mul)), "{:?}", g.defuse_edges);
        assert!(g.defuse_edges.contains(&(mul, store)), "{:?}", g.defuse_edges);
    }

    #[test]
    fn br_instructions_join_no_cu() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(4);
        let st = b.const_i64(1);
        b.for_loop(lo, hi, st, |_b, _| {});
        b.finish();
        let g = build_cus(&m);
        let f = &m.funcs[0];
        for (r, inst, _) in f.insts_with_refs(mvgnn_ir::module::FuncId(0)) {
            if matches!(inst, mvgnn_ir::Inst::Br { .. }) {
                assert!(g.cu_of(r).is_none());
            } else {
                assert!(g.cu_of(r).is_some(), "no CU for {r} ({inst:?})");
            }
        }
    }

    #[test]
    fn line_spans_cover_members() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let x = b.const_i64(1);
        b.next_line();
        let y = b.bin(BinOp::Add, x, x);
        b.next_line();
        let _z = b.bin(BinOp::Mul, y, y);
        b.finish();
        let g = build_cus(&m);
        let comp = g.cus.iter().find(|c| c.members.len() == 3).unwrap();
        assert!(comp.line_span.1 > comp.line_span.0);
    }

    #[test]
    fn tokens_reflect_kinds() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 4);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let z = b.const_i64(0);
        let x = b.load(a, z);
        b.store(a, z, x);
        b.finish();
        let g = build_cus(&m);
        let toks: Vec<&str> = g.cus.iter().map(|c| c.token).collect();
        assert!(toks.contains(&"load"));
        assert!(toks.contains(&"store"));
        assert!(toks.contains(&"const.i64"));
        assert!(toks.contains(&"ret"));
    }

    /// The token a compute CU of several members took when tokens were
    /// `String`s: count the member tokens, take the most frequent, ties
    /// to the lexicographically smallest, and prefix `compute:`.
    fn formatted_compute_token(f: &Function, members: &[InstRef]) -> String {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for &r in members {
            *counts.entry(f.inst(r).token().to_string()).or_default() += 1;
        }
        let mut best: Vec<(String, usize)> = counts.into_iter().collect();
        best.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        format!("compute:{}", best[0].0)
    }

    #[test]
    fn compute_tokens_name_the_dominant_member() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 4);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let z = b.const_i64(0);
        // Two muls and an add: the muls dominate.
        let x = b.load(a, z);
        let p = b.bin(BinOp::Mul, x, x);
        let q = b.bin(BinOp::Mul, p, p);
        let r = b.bin(BinOp::Add, q, x);
        b.store(a, z, r);
        // One mul and one add: the tie goes to `bin.add`.
        let y = b.load(a, z);
        let s = b.bin(BinOp::Mul, y, y);
        let t = b.bin(BinOp::Add, s, s);
        b.store(a, z, t);
        // A float constant and a subtraction: `bin.sub` sorts first.
        let w = b.load(a, z);
        let c = b.const_f64(2.0);
        let u = b.bin(BinOp::Sub, w, c);
        b.store(a, z, u);
        b.finish();
        let g = build_cus(&m);
        let compute: Vec<&str> =
            g.cus.iter().filter(|c| c.kind == CuKind::Compute).map(|c| c.token).collect();
        assert_eq!(compute, ["const.i64", "compute:bin.mul", "compute:bin.add", "compute:bin.sub"]);
        for cu in g.cus.iter().filter(|c| c.members.len() > 1) {
            assert_eq!(cu.token, formatted_compute_token(&m.funcs[0], &cu.members));
        }
    }
}
