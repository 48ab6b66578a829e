//! OpenMP directive synthesis — the paper's downstream use-case: once a
//! loop is classified parallelisable, emit the pragma a programmer (or a
//! source rewriter) would insert.

use mvgnn_analyze::{ReductionOp, ReductionTarget};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_profiler::{reduction_targets, LoopClass};

/// A concrete parallelisation suggestion for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Suggestion {
    /// Independent iterations: plain worksharing.
    ParallelFor,
    /// Reduction: worksharing with one reduction clause per target.
    ParallelForReduction(Vec<ReductionTarget>),
    /// Not parallelisable, with the blocking reason.
    Sequential(String),
}

impl Suggestion {
    /// Render as the OpenMP pragma line (empty for sequential loops).
    pub fn pragma(&self) -> String {
        match self {
            Suggestion::ParallelFor => "#pragma omp parallel for".to_string(),
            Suggestion::ParallelForReduction(targets) => {
                let clauses: Vec<String> = targets
                    .iter()
                    .map(|t| format!("reduction({}:{})", t.op.as_str(), t.var))
                    .collect();
                format!("#pragma omp parallel for {}", clauses.join(" "))
            }
            Suggestion::Sequential(_) => String::new(),
        }
    }
}

/// Build the suggestion for a classified loop.
pub fn suggest(module: &Module, func: FuncId, l: LoopId, class: &LoopClass) -> Suggestion {
    match class {
        LoopClass::DoAll => Suggestion::ParallelFor,
        LoopClass::Reduction => {
            let targets = reduction_targets(module, func, l);
            if targets.is_empty() {
                // Recognised as reduction but chain naming failed — still
                // parallelisable, just without an explicit clause.
                Suggestion::ParallelFor
            } else {
                Suggestion::ParallelForReduction(
                    targets
                        .into_iter()
                        .map(|(var, op)| ReductionTarget {
                            var,
                            op: ReductionOp::of_bin(op).unwrap_or(ReductionOp::Add),
                        })
                        .collect(),
                )
            }
        }
        LoopClass::NotParallel { reason } => Suggestion::Sequential(reason.clone()),
    }
}

/// Annotate every loop of a function: returns `(line, pragma-or-reason)`
/// pairs sorted by the loop's source line, ready to interleave with a
/// source listing.
pub fn annotate_function(
    module: &Module,
    func: FuncId,
    deps: &mvgnn_profiler::DepGraph,
) -> Vec<(u32, LoopId, Suggestion)> {
    let f = &module.funcs[func.index()];
    let mut out: Vec<(u32, LoopId, Suggestion)> = f
        .loops
        .iter()
        .map(|info| {
            let class = mvgnn_profiler::classify_loop(module, func, info.id, deps);
            (info.line_span.0, info.id, suggest(module, func, info.id, &class))
        })
        .collect();
    out.sort_by_key(|(line, l, _)| (*line, *l));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::{FunctionBuilder, Module};
    use mvgnn_profiler::profile_module;

    #[test]
    fn doall_gets_parallel_for() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let out = m.add_array("b", Ty::F64, 8);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(8);
        let st = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, i| {
            let x = b.load(a, i);
            b.store(out, i, x);
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let class = mvgnn_profiler::classify_loop(&m, f, l, &res.deps);
        let s = suggest(&m, f, l, &class);
        assert_eq!(s, Suggestion::ParallelFor);
        assert_eq!(s.pragma(), "#pragma omp parallel for");
    }

    #[test]
    fn memory_reduction_names_the_array() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let sum = m.add_array("sum", Ty::F64, 1);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(8);
        let st = b.const_i64(1);
        let z = b.const_i64(0);
        let l = b.for_loop(lo, hi, st, |b, i| {
            let x = b.load(a, i);
            let cur = b.load(sum, z);
            let nxt = b.bin(BinOp::Add, cur, x);
            b.store(sum, z, nxt);
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let class = mvgnn_profiler::classify_loop(&m, f, l, &res.deps);
        let s = suggest(&m, f, l, &class);
        assert_eq!(s.pragma(), "#pragma omp parallel for reduction(+:sum)");
    }

    #[test]
    fn max_reduction_spells_the_openmp_operator() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let s = m.add_array("s", Ty::F64, 1);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(8);
        let st = b.const_i64(1);
        let z = b.const_i64(0);
        let l = b.for_loop(lo, hi, st, |b, i| {
            let x = b.load(a, i);
            let cur = b.load(s, z);
            let nxt = b.bin(BinOp::Max, cur, x);
            b.store(s, z, nxt);
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let class = mvgnn_profiler::classify_loop(&m, f, l, &res.deps);
        let s = suggest(&m, f, l, &class);
        assert_eq!(s.pragma(), "#pragma omp parallel for reduction(max:s)");
        assert_eq!(s.pragma(), mvgnn_analyze::plan_loop(&m, f, l).pragma);
    }

    #[test]
    fn serial_loop_reports_reason() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 9);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(1);
        let hi = b.const_i64(9);
        let st = b.const_i64(1);
        let one = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, i| {
            let p = b.bin(BinOp::Sub, i, one);
            let x = b.load(a, p);
            b.store(a, i, x);
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let class = mvgnn_profiler::classify_loop(&m, f, l, &res.deps);
        let s = suggest(&m, f, l, &class);
        assert!(matches!(&s, Suggestion::Sequential(r) if r.contains("carried")));
        assert_eq!(s.pragma(), "");
    }

    #[test]
    fn annotate_orders_by_line() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(8);
        let st = b.const_i64(1);
        let l1 = b.for_loop(lo, hi, st, |b, i| {
            let x = b.load(a, i);
            b.store(a, i, x);
        });
        let l2 = b.for_loop(lo, hi, st, |_b, _| {});
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let anns = annotate_function(&m, f, &res.deps);
        assert_eq!(anns.len(), 2);
        assert_eq!(anns[0].1, l1);
        assert_eq!(anns[1].1, l2);
        assert!(anns[0].0 < anns[1].0);
    }
}
