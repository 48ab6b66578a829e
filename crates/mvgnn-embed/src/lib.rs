//! # mvgnn-embed — code embeddings and per-sample feature assembly
//!
//! - [`inst2vec`]: a from-scratch reimplementation of the inst2vec method
//!   (Ben-Nun et al., NeurIPS'18): a vocabulary of normalised IR statement
//!   tokens embedded by skip-gram with negative sampling over
//!   contextual-flow neighbourhoods (intra-block adjacency + def-use).
//! - [`awe`]: anonymous-walk structural features per PEG node (paper
//!   Eq. 3/4), produced by the seeded walk sampler of `mvgnn-graph`.
//! - [`sample`]: assembles one loop sub-PEG into the model-ready
//!   [`sample::GraphSample`] — normalised adjacency, node-feature matrix
//!   (inst2vec ⊕ node-kind ⊕ Table I dynamics) and anonymous-walk
//!   distribution matrix.

#![forbid(unsafe_code)]

pub mod awe;
pub mod batch;
pub mod inst2vec;
pub mod sample;

pub use awe::structural_distributions;
pub use batch::GraphBatch;
pub use inst2vec::{Inst2Vec, Inst2VecConfig};
pub use sample::{build_sample, build_sample_with_static, GraphSample, SampleConfig};
