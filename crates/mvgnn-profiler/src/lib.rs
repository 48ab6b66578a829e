//! # mvgnn-profiler — DiscoPoP-style hybrid dependence profiler
//!
//! Reimplements the *phase 1* output of DiscoPoP (Li et al.) on top of the
//! `mvgnn-ir` tracing interpreter:
//!
//! - **Dynamic data dependences** ([`deps`], [`profiler`]): every memory
//!   access runs against shadow memory; RAW/WAR/WAW edges are recorded
//!   together with the loops that *carry* them (source and sink in
//!   different iterations). The shadow is one dense cell vector per
//!   array with reused loop-stack buffers, so the tracer allocates
//!   nothing in steady state and hashes only to aggregate a recorded
//!   edge (see [`profiler`] for the layout).
//! - **Computational units** ([`cu`]): maximal def-use-connected
//!   instruction groups, the graph nodes of the paper's Program Execution
//!   Graphs (Fig. 4).
//! - **Dynamic features** ([`features`]): the Table I feature vector per
//!   loop — instruction count, execution count, critical path length,
//!   estimated speedup, and dependence counts.
//! - **Loop classification** ([`analysis`]): DOALL / reduction /
//!   not-parallelisable verdicts derived from the trace, used both as the
//!   DiscoPoP tool baseline and to validate dataset ground truth.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cu;
pub mod deps;
pub mod features;
pub mod profiler;
#[cfg(test)]
mod reference;

pub use analysis::{classify_loop, reduction_targets, LoopClass};
pub use cu::{build_cus, CuGraph, CuId, CuInfo, CuKind};
pub use deps::{DepGraph, DepKind, Dependence};
pub use features::{loop_features, DynamicFeatures};
pub use profiler::{
    profile_module, profile_module_resilient, DependenceProfiler, LoopRuntime, PartialProfile,
    ProfileResult,
};
