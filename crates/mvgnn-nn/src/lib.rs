//! # mvgnn-nn — neural-network layers over the mvgnn-tensor tape
//!
//! Layers own [`mvgnn_tensor::ParamId`]s in a shared parameter store and
//! expose `forward(&self, tape, …)` methods that record onto the tape:
//!
//! - [`linear::Linear`] — affine map with optional bias
//! - [`conv::Conv1d`] — 1-D convolution over row-sequences
//! - [`embedding::Embedding`] — id → row lookup table
//! - [`lstm::Lstm`] — single-layer LSTM (the NCC baseline stacks two)

#![forbid(unsafe_code)]

pub mod conv;
pub mod embedding;
pub mod linear;
pub mod lstm;

pub use conv::Conv1d;
pub use embedding::Embedding;
pub use linear::Linear;
pub use lstm::Lstm;
