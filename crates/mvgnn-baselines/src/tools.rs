//! Auto-parallelisation tool baselines.
//!
//! Each preserves the *decision-procedure class* of the original tool,
//! which is what produces the Table III accuracy ordering:
//!
//! - [`pluto_like`] — purely static polyhedral-style dependence testing
//!   over affine index expressions (GCD test). Precise on affine nests
//!   (PolyBench), blind to reductions and calls (NPB/BOTS).
//! - [`autopar_like`] — conservative static analysis that additionally
//!   recognises scalar and memory reductions, still rejecting calls and
//!   non-affine accesses.
//! - [`discopop_like`] — the dynamic classifier of `mvgnn-profiler` with
//!   DiscoPoP's practical filters (profitability threshold, call-free
//!   regions), which introduce its characteristic false negatives.

use mvgnn_analyze::{conflicts, reduction_store_sites, summarize_loop};
use mvgnn_ir::inst::Inst;
use mvgnn_ir::module::{BlockId, FuncId, LoopId, Module};
use mvgnn_ir::types::ArrayId;
use mvgnn_profiler::{classify_loop, DepGraph, LoopRuntime};
use std::collections::HashSet;

/// A tool's verdict on one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolVerdict {
    /// The tool would parallelise the loop.
    Parallel,
    /// The tool refuses.
    NotParallel,
}

impl ToolVerdict {
    /// As the binary label of the evaluation.
    pub fn label(self) -> usize {
        usize::from(self == ToolVerdict::Parallel)
    }
}

/// Pluto-like static verdict: affine dependence testing, no reduction
/// support, rejects calls and scalar recurrences.
pub fn pluto_like(module: &Module, func: FuncId, l: LoopId) -> ToolVerdict {
    let f = &module.funcs[func.index()];
    let Some(iv) = f.loops[l.index()].induction else {
        return ToolVerdict::NotParallel; // non-counted loop
    };
    let s = summarize_loop(module, func, l);
    if s.has_call || !s.commutative_recs.is_empty() || !s.noncommutative_recs.is_empty() {
        return ToolVerdict::NotParallel;
    }
    for (i, a) in s.accesses.iter().enumerate() {
        for b in &s.accesses[i..] {
            if a.arr != b.arr || (!a.is_write && !b.is_write) {
                continue;
            }
            if conflicts(iv, a, b) {
                return ToolVerdict::NotParallel;
            }
        }
    }
    ToolVerdict::Parallel
}

/// AutoPar-like static verdict: like Pluto but accepts commutative scalar
/// recurrences and memory reduction chains.
pub fn autopar_like(module: &Module, func: FuncId, l: LoopId) -> ToolVerdict {
    let f = &module.funcs[func.index()];
    let Some(iv) = f.loops[l.index()].induction else {
        return ToolVerdict::NotParallel;
    };
    let s = summarize_loop(module, func, l);
    if !s.noncommutative_recs.is_empty() {
        return ToolVerdict::NotParallel;
    }
    // AutoPar inlines trivial pure callees; anything else is opaque.
    if s.has_call && has_call_failing(module, func, l, is_simple_pure) {
        return ToolVerdict::NotParallel;
    }
    let red = reduction_store_sites(module, func, l);
    // Arrays that are targets of reduction stores: conflicts on them are
    // tolerated (implemented as an OpenMP reduction/atomic).
    let red_arrays: HashSet<ArrayId> = s
        .accesses
        .iter()
        .filter(|a| a.is_write && red.contains(&(a.block, a.idx_in_block)))
        .map(|a| a.arr)
        .collect();
    for (i, a) in s.accesses.iter().enumerate() {
        for b in &s.accesses[i..] {
            if a.arr != b.arr || (!a.is_write && !b.is_write) {
                continue;
            }
            if red_arrays.contains(&a.arr) {
                continue;
            }
            if conflicts(iv, a, b) {
                return ToolVerdict::NotParallel;
            }
        }
    }
    ToolVerdict::Parallel
}

/// One-level purity: a function is "simple pure" when it neither touches
/// memory nor calls anything (recursion counts as a call). Static tools
/// can reason about such callees by inlining.
fn is_simple_pure(module: &Module, callee: mvgnn_ir::module::FuncId) -> bool {
    module.funcs[callee.index()].insts_with_refs(callee).all(|(_, inst, _)| {
        !matches!(inst, Inst::Load { .. } | Inst::Store { .. } | Inst::Call { .. })
    })
}

/// Transitive write-freedom over the call graph (optimistic fixpoint:
/// cycles — recursion — do not themselves make a function write). The
/// *dynamic* tool can bound side effects this way because it observes
/// the whole execution.
fn is_store_free(module: &Module, callee: mvgnn_ir::module::FuncId) -> bool {
    fn rec(
        module: &Module,
        f: mvgnn_ir::module::FuncId,
        visiting: &mut HashSet<u32>,
    ) -> bool {
        if !visiting.insert(f.0) {
            return true; // optimistic on cycles
        }
        let ok = module.funcs[f.index()].insts_with_refs(f).all(|(_, inst, _)| match inst {
            Inst::Store { .. } => false,
            Inst::Call { func, .. } => rec(module, *func, visiting),
            _ => true,
        });
        visiting.remove(&f.0);
        ok
    }
    rec(module, callee, &mut HashSet::new())
}

/// Calls inside the loop that the given purity rule does not excuse.
fn has_call_failing(
    module: &Module,
    func: FuncId,
    l: LoopId,
    mut ok: impl FnMut(&Module, mvgnn_ir::module::FuncId) -> bool,
) -> bool {
    let f = &module.funcs[func.index()];
    let blocks: HashSet<BlockId> = f.loop_blocks(l).into_iter().collect();
    f.insts_with_refs(func).any(|(r, inst, _)| {
        blocks.contains(&r.block)
            && matches!(inst, Inst::Call { func, .. } if !ok(module, *func))
    })
}

/// DiscoPoP-like dynamic verdict: the profiler's classification plus the
/// tool's practical filters — a profitability threshold (tiny loops are
/// not worth parallelising) and opacity of calls whose side effects the
/// CU analysis cannot bound (simple pure callees are fine; recursive or
/// memory-touching ones are not).
pub fn discopop_like(
    module: &Module,
    func: FuncId,
    l: LoopId,
    deps: &DepGraph,
    runtime: &LoopRuntime,
) -> ToolVerdict {
    if runtime.iterations < 3 {
        return ToolVerdict::NotParallel; // not profitable
    }
    if has_call_failing(module, func, l, is_store_free) {
        return ToolVerdict::NotParallel;
    }
    if classify_loop(module, func, l, deps).is_parallelizable() {
        ToolVerdict::Parallel
    } else {
        ToolVerdict::NotParallel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_dataset::{build_kernel, KernelKind};
    use mvgnn_profiler::profile_module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kernel(kind: KernelKind) -> (Module, FuncId, Vec<(LoopId, mvgnn_dataset::PatternKind)>) {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = Module::new("t");
        let (f, loops) = build_kernel(&mut m, kind, 0, 12, &mut rng);
        (m, f, loops)
    }

    #[test]
    fn pluto_accepts_affine_doall() {
        let (m, f, loops) = kernel(KernelKind::Triad);
        assert_eq!(pluto_like(&m, f, loops[0].0), ToolVerdict::Parallel);
        let (m2, f2, loops2) = kernel(KernelKind::Stencil3);
        assert_eq!(pluto_like(&m2, f2, loops2[0].0), ToolVerdict::Parallel);
    }

    #[test]
    fn pluto_rejects_serial_and_reductions() {
        let (m, f, loops) = kernel(KernelKind::PrefixSum);
        assert_eq!(pluto_like(&m, f, loops[0].0), ToolVerdict::NotParallel);
        // Reductions are parallelisable in the label set but Pluto says no
        // — the characteristic false negative.
        let (m2, f2, loops2) = kernel(KernelKind::SumReduction);
        assert_eq!(pluto_like(&m2, f2, loops2[0].0), ToolVerdict::NotParallel);
    }

    #[test]
    fn pluto_rejects_calls_and_indirect() {
        let (m, f, loops) = kernel(KernelKind::TaskSpawn);
        assert_eq!(pluto_like(&m, f, loops[0].0), ToolVerdict::NotParallel);
        let (m2, f2, loops2) = kernel(KernelKind::IndirectGather);
        // The gather loop (second) has an unanalysable load index... the
        // read is non-affine but reads don't conflict with reads; the only
        // write is out[i] (affine). Pluto accepts read-side indirection.
        assert_eq!(pluto_like(&m2, f2, loops2[1].0), ToolVerdict::Parallel);
        // Scatter with indirect *write* index must be rejected.
        let (m3, f3, loops3) = kernel(KernelKind::ScatterConflict);
        assert_eq!(pluto_like(&m3, f3, loops3[1].0), ToolVerdict::NotParallel);
    }

    #[test]
    fn autopar_accepts_reductions_pluto_rejects() {
        for kind in [KernelKind::SumReduction, KernelKind::DotProduct, KernelKind::MaxReduction] {
            let (m, f, loops) = kernel(kind);
            assert_eq!(autopar_like(&m, f, loops[0].0), ToolVerdict::Parallel, "{kind:?}");
            assert_eq!(pluto_like(&m, f, loops[0].0), ToolVerdict::NotParallel, "{kind:?}");
        }
    }

    #[test]
    fn autopar_still_rejects_true_serial() {
        for kind in [KernelKind::PrefixSum, KernelKind::Recurrence, KernelKind::Stencil3InPlace] {
            let (m, f, loops) = kernel(kind);
            assert_eq!(autopar_like(&m, f, loops[0].0), ToolVerdict::NotParallel, "{kind:?}");
        }
    }

    #[test]
    fn discopop_matches_ground_truth_on_large_call_free_loops() {
        for kind in [KernelKind::VectorMap, KernelKind::SumReduction, KernelKind::PrefixSum] {
            let (m, f, loops) = kernel(kind);
            let res = profile_module(&m, f, &[]).unwrap();
            let (l, pat) = loops[0];
            let v = discopop_like(&m, f, l, &res.deps, &res.loops[&(f, l)]);
            assert_eq!(v.label(), usize::from(pat.is_parallelizable()), "{kind:?}");
        }
    }

    #[test]
    fn discopop_sees_through_store_free_recursion() {
        // DiscoPoP's dynamic analysis identifies BOTS-style task loops;
        // the recursive fib callee writes nothing shared.
        let (m, f, loops) = kernel(KernelKind::TaskSpawn);
        let res = profile_module(&m, f, &[]).unwrap();
        let (l, pat) = loops[0];
        assert!(pat.is_parallelizable());
        let v = discopop_like(&m, f, l, &res.deps, &res.loops[&(f, l)]);
        assert_eq!(v, ToolVerdict::Parallel, "store-free recursion is transparent");
        // The static tools stay conservative on recursion.
        assert_eq!(autopar_like(&m, f, l), ToolVerdict::NotParallel);
        assert_eq!(pluto_like(&m, f, l), ToolVerdict::NotParallel);
    }

    #[test]
    fn verdict_label_mapping() {
        assert_eq!(ToolVerdict::Parallel.label(), 1);
        assert_eq!(ToolVerdict::NotParallel.label(), 0);
    }
}
