//! # mvgnn-gnn — graph convolution and the DGCNN classifier
//!
//! - [`gcn`]: Kipf-Welling graph convolution layers and propagation
//!   operator construction from a CSR adjacency
//! - [`sortpool`]: SortPooling row ordering (Zhang et al., AAAI'18)
//! - [`dgcnn`]: the Deep Graph CNN used by both MV-GNN views — graph
//!   conv stack → SortPooling → two 1-D convolutions → dense read-out

#![forbid(unsafe_code)]

pub mod dgcnn;
pub mod gcn;
pub mod sortpool;

pub use dgcnn::{Dgcnn, DgcnnConfig};
pub use gcn::{gcn_adjacency, GcnLayer};
pub use sortpool::sort_order;
