//! # mvgnn-graph — graph substrate for parallelism discovery
//!
//! Directed graphs with typed node/edge payloads, a compressed sparse row
//! (CSR) view for tight traversal loops, classic graph algorithms
//! (longest path on DAGs, SCC, topological order, level widths), random
//! walk sampling, and *anonymous walk* machinery (Ivanov & Burnaev, ICML'18)
//! used by the structural view of the MV-GNN model.
//!
//! All sampling entry points are deterministic given a seed: each node
//! draws from its own seeded stream, so results do not depend on the
//! order nodes are visited in.

#![forbid(unsafe_code)]

pub mod algo;
pub mod csr;
pub mod digraph;
pub mod walks;

pub use csr::Csr;
pub use digraph::{DiGraph, EdgeId, NodeId};
pub use walks::{
    anonymous_walk, enumerate_anonymous_walks, AnonymousWalk, AwVocab, WalkConfig, WalkSampler,
};
