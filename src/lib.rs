//! # mvgnn — Multi-View GNN Parallelism Discovery
//!
//! Facade crate re-exporting the full workspace. See the README for a tour.

#![forbid(unsafe_code)]

pub use mvgnn_analyze as analyze;
pub use mvgnn_baselines as baselines;
pub use mvgnn_core as core;
pub use mvgnn_dataset as dataset;
pub use mvgnn_embed as embed;
pub use mvgnn_gnn as gnn;
pub use mvgnn_graph as graph;
pub use mvgnn_ir as ir;
pub use mvgnn_lang as lang;
pub use mvgnn_nn as nn;
pub use mvgnn_peg as peg;
pub use mvgnn_profiler as profiler;
pub use mvgnn_serve as serve;
pub use mvgnn_tensor as tensor;
