//! Loop classification from the profiled trace: DOALL, recognisable
//! reduction, or not parallelisable.
//!
//! This is the decision procedure DiscoPoP's pattern detection applies to
//! its phase-1 output; here it serves three roles: the DiscoPoP tool
//! baseline of Table III, the validator for constructive dataset labels,
//! and the oracle that turns unlabeled generated kernels into training
//! data.

use crate::deps::DepGraph;
use mvgnn_ir::inst::{BinOp, Inst, InstRef};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_ir::types::VReg;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Classification verdict for a loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopClass {
    /// No loop-carried dependence: iterations are independent.
    DoAll,
    /// Every carried dependence belongs to a recognisable reduction
    /// (commutative update of a fixed cell or scalar accumulator).
    Reduction,
    /// At least one carried dependence is not a reduction.
    NotParallel {
        /// Human-readable reason (first offending dependence).
        reason: String,
    },
}

impl LoopClass {
    /// Parallelisable in the paper's binary labelling (DOALL or reduction).
    pub fn is_parallelizable(&self) -> bool {
        !matches!(self, LoopClass::NotParallel { .. })
    }
}

/// Registers updated in-place by a commutative op inside the loop
/// (`r = r ⊕ x` accumulators), excluding loop induction registers.
fn scalar_accumulators(
    module: &Module,
    func: FuncId,
    l: LoopId,
) -> (HashSet<VReg>, HashSet<VReg>) {
    let f = &module.funcs[func.index()];
    let blocks: HashSet<_> = f.loop_blocks(l).into_iter().collect();
    let inductions: HashSet<VReg> =
        f.loops.iter().filter_map(|info| info.induction).collect();
    let mut commutative = HashSet::new();
    let mut non_commutative = HashSet::new();
    for (r, inst, _) in f.insts_with_refs(func) {
        if !blocks.contains(&r.block) {
            continue;
        }
        if let Inst::Bin { op, dst, lhs, rhs } = inst {
            if (*dst == *lhs || *dst == *rhs) && !inductions.contains(dst) {
                if matches!(op, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max) {
                    commutative.insert(*dst);
                } else {
                    non_commutative.insert(*dst);
                }
            }
        }
    }
    (commutative, non_commutative)
}

/// Map of single-definition constant registers to their values — used to
/// equate indices that are distinct registers holding the same literal
/// (front-ends materialise a fresh register per literal).
fn const_regs(f: &mvgnn_ir::module::Function) -> std::collections::HashMap<VReg, mvgnn_ir::types::Value> {
    let mut def_count: std::collections::HashMap<VReg, u32> = Default::default();
    let mut value: std::collections::HashMap<VReg, mvgnn_ir::types::Value> = Default::default();
    for inst in f.insts() {
        if let Some(d) = inst.def() {
            *def_count.entry(d).or_insert(0) += 1;
        }
        if let (Some(d), Some(v)) = (inst.def(), inst.const_value()) {
            value.insert(d, v);
        }
    }
    value.retain(|r, _| def_count.get(r) == Some(&1));
    value
}

/// Single-def loads: register -> (array, index register).
fn load_regs(
    f: &mvgnn_ir::module::Function,
) -> std::collections::HashMap<VReg, (mvgnn_ir::types::ArrayId, VReg)> {
    let mut def_count: std::collections::HashMap<VReg, u32> = Default::default();
    let mut loads: std::collections::HashMap<VReg, (mvgnn_ir::types::ArrayId, VReg)> =
        Default::default();
    for inst in f.insts() {
        if let Some(d) = inst.def() {
            *def_count.entry(d).or_insert(0) += 1;
        }
        if let Inst::Load { dst, arr, idx } = inst {
            loads.insert(*dst, (*arr, *idx));
        }
    }
    loads.retain(|r, _| def_count.get(r) == Some(&1));
    loads
}

/// Index-equality context for [`same_index`].
struct IndexCtx {
    consts: std::collections::HashMap<VReg, mvgnn_ir::types::Value>,
    loads: std::collections::HashMap<VReg, (mvgnn_ir::types::ArrayId, VReg)>,
    /// Arrays written anywhere inside the analysed loop — loads from these
    /// cannot be assumed stable across the loop body.
    written: HashSet<mvgnn_ir::types::ArrayId>,
}

/// Two index registers address the same cell when they are the same
/// register, both single-def constants of equal value, or both single-def
/// loads of the same cell of an array the loop never writes (front-ends
/// re-materialise subexpressions like `key[i]` per use).
fn same_index(ctx: &IndexCtx, a: VReg, b: VReg) -> bool {
    if a == b {
        return true;
    }
    if matches!((ctx.consts.get(&a), ctx.consts.get(&b)), (Some(x), Some(y)) if x == y) {
        return true;
    }
    if let (Some(&(arr_a, idx_a)), Some(&(arr_b, idx_b))) =
        (ctx.loads.get(&a), ctx.loads.get(&b))
    {
        if arr_a == arr_b && !ctx.written.contains(&arr_a) && same_index(ctx, idx_a, idx_b) {
            return true;
        }
    }
    false
}

/// Instructions participating in memory reduction chains inside the loop:
/// `store A[i] (v)` where `v` flows through a commutative `Bin` from a
/// `load A[i]` of the same cell, all in one block.
fn reduction_chain_insts(module: &Module, func: FuncId, l: LoopId) -> HashSet<InstRef> {
    let f = &module.funcs[func.index()];
    let blocks: HashSet<_> = f.loop_blocks(l).into_iter().collect();
    let written: HashSet<mvgnn_ir::types::ArrayId> = f
        .insts_with_refs(func)
        .filter(|(r, _, _)| blocks.contains(&r.block))
        .filter_map(|(_, inst, _)| match inst {
            Inst::Store { arr, .. } => Some(*arr),
            _ => None,
        })
        .collect();
    let ctx = IndexCtx { consts: const_regs(f), loads: load_regs(f), written };
    let mut chain: HashSet<InstRef> = HashSet::new();
    for (bi, blk) in f.blocks().enumerate() {
        let bid = mvgnn_ir::module::BlockId(bi as u32);
        if !blocks.contains(&bid) {
            continue;
        }
        // Per-block def map (last def wins is fine for straight lines).
        for (si, inst) in blk.insts.iter().enumerate() {
            let Inst::Store { arr, idx, src } = inst else { continue };
            // Find the defining Bin of `src` earlier in this block.
            let mut bin_at = None;
            for (pi, prev) in blk.insts[..si].iter().enumerate().rev() {
                if prev.def() == Some(*src) {
                    if let Inst::Bin { op, lhs, rhs, .. } = prev {
                        if matches!(op, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max) {
                            bin_at = Some((pi, *lhs, *rhs));
                        }
                    }
                    break;
                }
            }
            let Some((bin_idx, lhs, rhs)) = bin_at else { continue };
            // One operand must be a load of the same array with the same
            // index register, earlier in the block, unclobbered is assumed
            // (blocks are short straight-line regions).
            let mut load_at = None;
            for (pi, prev) in blk.insts[..bin_idx].iter().enumerate().rev() {
                if let Inst::Load { dst, arr: larr, idx: lidx } = prev {
                    if (*dst == lhs || *dst == rhs)
                        && larr == arr
                        && same_index(&ctx, *lidx, *idx)
                    {
                        load_at = Some(pi);
                        break;
                    }
                }
            }
            let Some(load_idx) = load_at else { continue };
            for i in [load_idx, bin_idx, si] {
                chain.insert(InstRef { func, block: bid, idx: i as u32 });
            }
        }
    }
    chain
}

/// Reduction targets of a loop: `(name, op)` for every recognised
/// reduction — array cells updated through a commutative chain and scalar
/// register accumulators (named `%N`). Drives OpenMP `reduction(...)`
/// clause synthesis.
pub fn reduction_targets(module: &Module, func: FuncId, l: LoopId) -> Vec<(String, BinOp)> {
    let f = &module.funcs[func.index()];
    let mut out: Vec<(String, BinOp)> = Vec::new();
    // Memory chains: find the store of each chain and name its array.
    let chains = reduction_chain_insts(module, func, l);
    for r in &chains {
        if let Inst::Store { arr, src, .. } = f.inst(*r) {
            // Identify the chain's op from the defining Bin of the stored value.
            let op = f.block(r.block).insts[..r.idx as usize]
                .iter()
                .rev()
                .find_map(|p| match p {
                    Inst::Bin { op, dst, .. } if Some(*dst) == Some(*src) => Some(*op),
                    _ => None,
                })
                .unwrap_or(BinOp::Add);
            let name = module.name_of(module.arrays[arr.index()].name);
            if !out.iter().any(|(n, _)| n == name) {
                out.push((name.to_string(), op));
            }
        }
    }
    // Scalar accumulators.
    let blocks: HashSet<_> = f.loop_blocks(l).into_iter().collect();
    let inductions: HashSet<VReg> = f.loops.iter().filter_map(|i| i.induction).collect();
    for (r, inst, _) in f.insts_with_refs(func) {
        if !blocks.contains(&r.block) {
            continue;
        }
        if let Inst::Bin { op, dst, lhs, rhs } = inst {
            if (dst == lhs || dst == rhs)
                && !inductions.contains(dst)
                && matches!(op, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max)
            {
                let name = format!("%{}", dst.0);
                if !out.iter().any(|(n, _)| n == &name) {
                    out.push((name, *op));
                }
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Classify loop `l` of `func` given the profiled dependence graph.
pub fn classify_loop(module: &Module, func: FuncId, l: LoopId, deps: &DepGraph) -> LoopClass {
    let (comm_acc, non_comm_acc) = scalar_accumulators(module, func, l);
    let carried = deps.carried_by(func, l);

    if carried.is_empty() && comm_acc.is_empty() && non_comm_acc.is_empty() {
        return LoopClass::DoAll;
    }
    if let Some(reg) = non_comm_acc.iter().map(|r| r.0).min() {
        return LoopClass::NotParallel {
            reason: format!("non-commutative scalar recurrence on %{reg}"),
        };
    }
    // All carried memory deps must lie on reduction chains.
    let chains = reduction_chain_insts(module, func, l);
    for d in &carried {
        if !(chains.contains(&d.src) && chains.contains(&d.dst)) {
            return LoopClass::NotParallel {
                reason: format!("carried {} {} -> {}", d.kind, d.src, d.dst),
            };
        }
    }
    LoopClass::Reduction
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_module;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::FunctionBuilder;

    fn classify(m: &Module, f: FuncId, l: LoopId) -> LoopClass {
        let res = profile_module(m, f, &[]).unwrap();
        classify_loop(m, f, l, &res.deps)
    }

    #[test]
    fn map_loop_is_doall() {
        let mut m = Module::new("t");
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
        assert_eq!(classify(&m, f, l), LoopClass::DoAll);
    }

    #[test]
    fn memory_reduction_is_recognised() {
        let mut m = Module::new("t");
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
        assert_eq!(classify(&m, f, l), LoopClass::Reduction);
    }

    #[test]
    fn scalar_accumulator_is_reduction() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let acc = b.const_f64(0.0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            b.bin_to(acc, BinOp::Add, acc, x);
        });
        b.ret(Some(acc));
        let f = b.finish();
        assert_eq!(classify(&m, f, l), LoopClass::Reduction);
    }

    #[test]
    fn recurrence_is_not_parallel() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::I64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(1);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let one = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let p = b.bin(BinOp::Sub, iv, one);
            let x = b.load(a, p);
            let y = b.bin(BinOp::Add, x, one);
            b.store(a, iv, y);
        });
        let f = b.finish();
        assert!(!classify(&m, f, l).is_parallelizable());
    }

    #[test]
    fn non_commutative_scalar_recurrence_is_not_parallel() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let acc = b.const_f64(100.0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            // acc = acc / x is order-dependent... well, division by a
            // product is commutative, but acc = acc - x * acc is not; use
            // Sub to model an order-sensitive recurrence conservatively.
            let scaled = b.bin(BinOp::Mul, x, acc);
            b.bin_to(acc, BinOp::Sub, acc, scaled);
        });
        b.ret(Some(acc));
        let f = b.finish();
        match classify(&m, f, l) {
            LoopClass::NotParallel { reason } => {
                assert!(reason.contains("non-commutative"), "{reason}");
            }
            other => panic!("expected NotParallel, got {other:?}"),
        }
    }

    #[test]
    fn stencil_read_only_neighbours_is_doall() {
        // b[i] = a[i-1] + a[i+1]: reads overlap but a is never written.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 18);
        let out = m.add_array("b", Ty::F64, 18);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(1);
        let hi = b.const_i64(17);
        let st = b.const_i64(1);
        let one = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let im1 = b.bin(BinOp::Sub, iv, one);
            let ip1 = b.bin(BinOp::Add, iv, one);
            let left = b.load(a, im1);
            let right = b.load(a, ip1);
            let sum = b.bin(BinOp::Add, left, right);
            b.store(out, iv, sum);
        });
        let f = b.finish();
        assert_eq!(classify(&m, f, l), LoopClass::DoAll);
    }

    #[test]
    fn in_place_stencil_is_not_parallel() {
        // a[i] = a[i-1] + a[i+1] in place: carried RAW and WAR.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 18);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(1);
        let hi = b.const_i64(17);
        let st = b.const_i64(1);
        let one = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let im1 = b.bin(BinOp::Sub, iv, one);
            let ip1 = b.bin(BinOp::Add, iv, one);
            let left = b.load(a, im1);
            let right = b.load(a, ip1);
            let sum = b.bin(BinOp::Add, left, right);
            b.store(a, iv, sum);
        });
        let f = b.finish();
        assert!(!classify(&m, f, l).is_parallelizable());
    }

    #[test]
    fn outer_loop_with_inner_reduction_is_doall() {
        // Row sums: outer over rows (independent), inner reduces into c[i].
        let n = 4i64;
        let w = 4i64;
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, (n * w) as usize);
        let c = m.add_array("c", Ty::F64, n as usize);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hn = b.const_i64(n);
        let hw = b.const_i64(w);
        let st = b.const_i64(1);
        let wreg = b.const_i64(w);
        let mut inner = None;
        let outer = b.for_loop(lo, hn, st, |b, i| {
            let z = b.const_f64(0.0);
            b.store(c, i, z);
            let lo2 = b.const_i64(0);
            inner = Some(b.for_loop(lo2, hw, st, |b, j| {
                let base = b.bin(BinOp::Mul, i, wreg);
                let ij = b.bin(BinOp::Add, base, j);
                let x = b.load(a, ij);
                let cur = b.load(c, i);
                let nxt = b.bin(BinOp::Add, cur, x);
                b.store(c, i, nxt);
            }));
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let outer_class = classify_loop(&m, f, outer, &res.deps);
        let inner_class = classify_loop(&m, f, inner.unwrap(), &res.deps);
        // The inner loop reduces into c[i]; the outer loop's iterations
        // touch disjoint cells. Note the inner accumulator chain sits in
        // the outer loop's block range too, so the outer loop sees the
        // reduction as well — both are parallelisable.
        assert!(outer_class.is_parallelizable(), "{outer_class:?}");
        assert_eq!(inner_class, LoopClass::Reduction);
    }
}
