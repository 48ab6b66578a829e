//! # mvgnn-analyze — static dataflow and dependence analysis over `mvgnn-ir`
//!
//! Three layers (see DESIGN.md §11):
//!
//! - [`dataflow`]: a worklist liveness analysis over [`mvgnn_ir::Cfg`]
//!   and the flat live-register sets the oracle reads.
//! - [`affine`]: affine (symbolic) index expressions over induction
//!   registers (coefficients stored inline, arithmetic checked),
//!   per-loop access summaries, the GCD/Banerjee-class conflict test,
//!   and memory reduction-chain recognition. This is the machinery
//!   the `mvgnn-baselines` static tools (`pluto_like`, `autopar_like`)
//!   consume; it used to live inside that crate.
//! - [`oracle`]: the static loop-carried dependence oracle. For one loop
//!   it returns a [`Verdict`] — `ProvablyParallel`, `ProvablyDependent`
//!   or `Unknown` — together with provenance [`Fact`]s naming the
//!   accesses and the test that decided each one, and an `excused` set of
//!   reduction-chain instructions whose observed carried dependences are
//!   benign. The `lint` binary of `mvgnn-bench` audits the generated
//!   corpus by cross-checking these verdicts against the profiler's
//!   `DepGraph` and the dataset labels. The loop-independent half of
//!   the analysis (per-register tables, every access's affine index,
//!   liveness, a reusable scratch area) is a [`FuncAnalysis`], built
//!   once per function and shared by its loops.
//! - [`planner`]: the parallelization planner layered on the oracle. It
//!   keeps the oracle's evidence apart instead of collapsing it,
//!   emitting a typed [`Plan`] — `DoAll` (with `private(...)`
//!   candidates from the liveness-based privatization rule),
//!   `Reduction` (clause targets from chains on loop-invariant cells
//!   and header-live scalar accumulators), `Doacross` (every carried
//!   dependence proved at distance ≥ 1), or `Serial` (typed
//!   [`Blocker`]s) — rendered as an OpenMP-style pragma string.
//!
//! The oracle is deliberately asymmetric: `ProvablyParallel` and
//! `ProvablyDependent` are *claims* that the corpus auditor treats as
//! hard soundness obligations, so both sides only fire on conservative,
//! closed-form evidence; everything else is `Unknown`.

#![forbid(unsafe_code)]

pub mod affine;
pub mod dataflow;
pub mod oracle;
pub mod planner;
#[cfg(test)]
mod reference;

pub use affine::{
    conflicts, reduction_chains, reduction_store_sites, summarize_loop, summarize_loop_strict,
    Access, AffineExpr, Coeffs, LoopSummary, ReductionChain,
};
pub use dataflow::{liveness, BitSet, Liveness};
pub use oracle::{
    analyze_loop, loop_bounds, DepTest, Fact, FuncAnalysis, LoopBounds, OracleReport, Verdict,
};
pub use planner::{
    plan_from_report, plan_loop, Blocker, LoopPlan, Plan, PlannedPattern, ReductionOp,
    ReductionTarget,
};
