//! # mvgnn-peg — Program Execution Graphs
//!
//! Assembles the paper's PEG (Fig. 2 / Fig. 5): computational units,
//! loops and functions become nodes; register def-use, dynamic data
//! dependences (RAW/WAR/WAW) and containment become edges. Each loop's
//! induced sub-PEG is one classification sample for the MV-GNN model.

#![forbid(unsafe_code)]

pub mod build;
pub mod dot;

pub use build::{build_peg, loop_subpeg, Peg, PegEdge, PegEdgeKind, PegNode, PegNodeKind, SubPeg};
pub use dot::to_dot;
