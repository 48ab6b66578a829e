//! # mvgnn-dataset — synthetic benchmark suites with constructive labels
//!
//! The paper trains on loops from NPB, PolyBench and BOTS plus
//! compiler-transformed variants. Those C/Fortran sources are substituted
//! here (see DESIGN.md) by template generators that synthesize the same
//! *kernel families* in `mvgnn-ir`, with ground-truth parallelism labels
//! known by construction and validated against the dependence profiler.
//!
//! - [`kernels`]: ~18 loop templates (maps, reductions, stencils,
//!   recurrences, linear algebra, indirect access, task recursion)
//! - [`suites`]: per-application composition reproducing the Table II
//!   loop counts (BT 184 … nqueens 4, total 840)
//! - [`corpus`]: profiled, labeled, augmented dataset assembly with a
//!   leakage-free train/test split (75:25, balanced 1:1)
//! - [`shard`]: deterministic sharded generation — N workers produce
//!   disjoint slices whose union is bit-identical to the one-process build

#![forbid(unsafe_code)]

pub mod corpus;
pub mod kernels;
pub mod shard;
pub mod suites;

pub use corpus::{
    assemble_dataset, base_key, build_corpus, noisy_label, CorpusConfig, Dataset, LabeledSample,
};
pub use shard::{fit_inst2vec, generate_shard, ShardPlan};
pub use kernels::{build_kernel, KernelFamily, KernelKind, PatternKind};
pub use suites::{generate_app, generate_suite, AppSpec, GeneratedApp, Suite, STRESS, TABLE2};
