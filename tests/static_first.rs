//! Tier 0 runs on static IR alone: a kernel whose every loop the oracle
//! decides is classified without interpreting the program.
//!
//! The kernel below would take the interpreter to its step budget (a
//! 2^40-iteration loop), so a cascade that traced the entry before
//! consulting the oracle could not answer within the time bound.

use mvgnn::core::cascade::{Cascade, DecidedBy};
use mvgnn::core::model::{MvGnn, MvGnnConfig};
use mvgnn::embed::{Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn::ir::module::{FuncId, Module};
use mvgnn::ir::types::Ty;
use mvgnn::ir::FunctionBuilder;
use std::time::{Duration, Instant};

/// `for i in 0..(1 << 40) { a[0] = x }`: every iteration writes the
/// same cell, which the oracle proves loop-carried (ZIV).
fn same_cell_kernel() -> (Module, FuncId) {
    let mut m = Module::new("static_first");
    let a = m.add_array("a", Ty::F64, 4);
    let mut b = FunctionBuilder::new(&mut m, "main", 0);
    let (lo, hi, st) = (b.const_i64(0), b.const_i64(1 << 40), b.const_i64(1));
    let zero = b.const_i64(0);
    let x = b.const_f64(2.5);
    b.for_loop(lo, hi, st, |b, _i| b.store(a, zero, x));
    let f = b.finish();
    (m, f)
}

#[test]
fn oracle_decided_kernels_skip_the_interpreter() {
    let (m, f) = same_cell_kernel();
    let i2v = Inst2Vec::train(
        &[&m],
        &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
    );
    // Never consulted: tier 0 decides every loop of the kernel.
    let model = MvGnn::new(MvGnnConfig::small(8, 8));

    let t = Instant::now();
    let reports =
        Cascade::full().classify_module(&model, &m, f, &i2v, &SampleConfig::default(), None, None);
    let elapsed = t.elapsed();

    assert_eq!(reports.len(), 1);
    for r in &reports {
        assert_eq!(r.decided_by, DecidedBy::Oracle, "{r:?}");
        assert_eq!(r.prediction, 0, "a same-cell write is not parallel");
        assert!(r.plan.as_ref().is_some_and(|p| p.proved()), "{r:?}");
    }
    // Tracing the entry to the default step budget takes seconds; the
    // oracle and planner alone take well under a millisecond.
    assert!(elapsed < Duration::from_millis(500), "classify took {elapsed:?}");
}
