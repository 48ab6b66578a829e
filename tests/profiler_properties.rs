//! Property-based tests of the dependence profiler itself: determinism,
//! invariance to semantics-preserving module transformations, and
//! agreement between dependence structure and observable behaviour.

use mvgnn::ir::inst::BinOp;
use mvgnn::ir::transform::{optimize, OptLevel};
use mvgnn::ir::types::Ty;
use mvgnn::ir::{FunctionBuilder, Module};
use mvgnn::profiler::{classify_loop, loop_features, profile_module, DepKind};
use proptest::prelude::*;

/// A parameterised two-array kernel: `dst[i] = f(src[i ± offsets…])` with
/// optional in-place aliasing — the dependence structure is predictable
/// from the parameters, so the profiler's output can be checked exactly.
fn offset_kernel(
    offsets: &[i64],
    in_place: bool,
    n: i64,
) -> (Module, mvgnn::ir::module::FuncId, mvgnn::ir::module::LoopId) {
    let max_off = offsets.iter().map(|o| o.abs()).max().unwrap_or(0);
    let len = (n + 2 * max_off) as usize;
    let mut m = Module::new("prop");
    let src = m.add_array("src", Ty::F64, len);
    let dst = if in_place { src } else { m.add_array("dst", Ty::F64, len) };
    let mut b = FunctionBuilder::new(&mut m, "main", 0);
    let lo = b.const_i64(max_off);
    let hi = b.const_i64(max_off + n);
    let st = b.const_i64(1);
    let off_regs: Vec<_> = offsets.iter().map(|&o| b.const_i64(o)).collect();
    let l = b.for_loop(lo, hi, st, |b, iv| {
        let mut acc = b.const_f64(0.0);
        for off in &off_regs {
            let idx = b.bin(BinOp::Add, iv, *off);
            let x = b.load(src, idx);
            acc = b.bin(BinOp::Add, acc, x);
        }
        b.store(dst, iv, acc);
    });
    let f = b.finish();
    (m, f, l)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Profiling is deterministic: two runs produce identical dependence
    /// graphs and features.
    #[test]
    fn profiling_is_deterministic(
        offsets in proptest::collection::vec(-3i64..=3, 1..4),
        in_place in any::<bool>(),
        n in 4i64..20,
    ) {
        let (m, f, l) = offset_kernel(&offsets, in_place, n);
        let r1 = profile_module(&m, f, &[]).unwrap();
        let r2 = profile_module(&m, f, &[]).unwrap();
        let d1: Vec<_> = r1.deps.iter().cloned().collect();
        let d2: Vec<_> = r2.deps.iter().cloned().collect();
        prop_assert_eq!(d1, d2);
        let f1 = loop_features(&m, f, l, &r1.deps, &r1.loops[&(f, l)]);
        let f2 = loop_features(&m, f, l, &r2.deps, &r2.loops[&(f, l)]);
        prop_assert_eq!(f1, f2);
    }

    /// Out-of-place offset kernels are DOALL regardless of the stencil
    /// shape; in-place kernels are DOALL exactly when every offset is 0
    /// (then it is a pure element-wise rewrite of the same cell, which our
    /// classifier treats as a reduction-free same-iteration access) or,
    /// when any offset is non-zero, they must NOT be DOALL.
    #[test]
    fn in_place_offsets_force_carried_deps(
        offsets in proptest::collection::vec(-3i64..=3, 1..4),
        n in 6i64..20,
    ) {
        let any_nonzero = offsets.iter().any(|&o| o != 0);
        let (m, f, l) = offset_kernel(&offsets, true, n);
        let res = profile_module(&m, f, &[]).unwrap();
        let class = classify_loop(&m, f, l, &res.deps);
        if any_nonzero {
            prop_assert!(
                !class.is_parallelizable(),
                "aliasing stencil with offsets {:?} must not be DOALL: {:?}",
                offsets,
                class
            );
            // And the carried dependence must be visible in the graph.
            prop_assert!(!res.deps.carried_by(f, l).is_empty());
        }
        let (m2, f2, l2) = offset_kernel(&offsets, false, n);
        let res2 = profile_module(&m2, f2, &[]).unwrap();
        prop_assert!(
            classify_loop(&m2, f2, l2, &res2.deps).is_parallelizable(),
            "out-of-place kernel must be parallelisable"
        );
    }

    /// Every optimisation level preserves the loop classification and the
    /// carried/independent split of the dependence graph.
    #[test]
    fn optimisation_preserves_dependence_classification(
        offsets in proptest::collection::vec(-2i64..=2, 1..3),
        in_place in any::<bool>(),
        n in 4i64..16,
    ) {
        let (m, f, l) = offset_kernel(&offsets, in_place, n);
        let base = profile_module(&m, f, &[]).unwrap();
        let base_class = classify_loop(&m, f, l, &base.deps).is_parallelizable();
        for level in OptLevel::ALL {
            let opt = optimize(&m, level);
            let res = profile_module(&opt, f, &[]).unwrap();
            let class = classify_loop(&opt, f, l, &res.deps).is_parallelizable();
            prop_assert_eq!(class, base_class, "{:?} flipped the verdict", level);
        }
    }

    /// Dependence kinds are structurally consistent: a RAW edge's source
    /// is always a store and its sink a load; WAW connects two stores.
    #[test]
    fn dependence_endpoints_match_kinds(
        offsets in proptest::collection::vec(-2i64..=2, 1..3),
        n in 4i64..16,
    ) {
        let (m, f, _) = offset_kernel(&offsets, true, n);
        let res = profile_module(&m, f, &[]).unwrap();
        let is_store = |r: mvgnn::ir::InstRef| {
            matches!(
                m.funcs[r.func.index()].block(r.block).insts[r.idx as usize],
                mvgnn::ir::Inst::Store { .. }
            )
        };
        for d in res.deps.iter() {
            match d.kind {
                DepKind::Raw => {
                    prop_assert!(is_store(d.src) && !is_store(d.dst));
                }
                DepKind::War => {
                    prop_assert!(!is_store(d.src) && is_store(d.dst));
                }
                DepKind::Waw => {
                    prop_assert!(is_store(d.src) && is_store(d.dst));
                }
            }
        }
    }
}
