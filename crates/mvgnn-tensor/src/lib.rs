//! # mvgnn-tensor — minimal CPU deep-learning substrate
//!
//! A small, dependency-free (beyond `rand`) tensor library with
//! reverse-mode tape autograd, built for the graph neural networks of the
//! MV-GNN reproduction. Everything is `f32`, row-major, and 2-D
//! (`rows × cols`); vectors are `1 × n` rows.
//!
//! - [`dense`]: register-tiled matmul and elementwise kernels that
//!   vectorise across outputs, never along a reduction
//! - [`sparse`]: CSR sparse matrices for GCN propagation operators
//! - [`tape`]: the autograd tape — build a graph per forward pass against
//!   a shared `&`[`tape::Params`] value store, call
//!   [`tape::Tape::backward`] to fill the tape's private
//!   [`tape::GradStore`] sidecar, reduce sidecars and step an optimizer
//! - [`optim`]: SGD with momentum and Adam, plus gradient clipping
//! - [`init`]: seeded Xavier/uniform/zero initializers

#![forbid(unsafe_code)]

pub mod dense;
pub mod init;
pub mod optim;
pub mod sparse;
pub mod tape;
pub mod workspace;

pub use sparse::SparseMatrix;
pub use tape::{GradStore, Params, ParamId, SparseId, Tape, Var};
pub use workspace::{Workspace, WorkspaceStats};
