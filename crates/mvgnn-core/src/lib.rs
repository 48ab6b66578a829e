//! # mvgnn-core — the multi-view GNN and the full experiment pipeline
//!
//! The paper's contribution (Fig. 3): two DGCNNs look at every loop
//! sub-PEG from complementary views — node features (inst2vec ⊕ Table I
//! dynamics) and local structure (anonymous-walk distributions through a
//! learned embedding table) — and a fusion layer
//! `h = W·tanh(h_n ⊕ h_s) + b` classifies the loop as parallelisable or
//! not under a temperature-0.5 softmax loss.
//!
//! - [`model`]: the MV-GNN (plus single-view configurations for the
//!   Static-GNN baseline and the ablations)
//! - [`trainer`]: single-threaded mini-batch training (one packed
//!   forward/backward pass per batch), gradient clipping and epoch
//!   telemetry (Fig. 7)
//! - [`views`]: per-view importance analysis (Fig. 8)
//! - [`pipeline`]: end-to-end experiment driver producing every Table III
//!   / Table IV row

#![forbid(unsafe_code)]

pub mod cascade;
pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod infer;
pub mod model;
pub mod patterns;
pub mod pipeline;
pub mod suggest;
pub mod trainer;
pub mod views;

pub use cascade::{oracle_decision, Calibration, Cascade, CascadeConfig, DecidedBy};
pub use checkpoint::{read_checkpoint, write_checkpoint, CheckpointMeta};
pub use error::MvGnnError;
pub use fault::FaultPlan;
pub use infer::{view_ladder, LoopReport, PredictionSource};
pub use model::{MvGnn, MvGnnConfig, RowOutputs, ViewMode};
// The buffer pool every inference entry point takes, re-exported so
// callers need no direct mvgnn-tensor dependency.
pub use mvgnn_tensor::Workspace;
pub use views::{NodeFeatureEncoder, StructuralEncoder, ViewEncoder};
pub use pipeline::{evaluate_tools, evaluate_tools_with_noise, run_pipeline, PipelineConfig, PipelineReport};
pub use patterns::{
    pattern_confusion, pattern_samples, predict_pattern, predict_pattern_checked, CheckedPattern,
    PATTERN_CLASSES,
};
pub use suggest::{annotate_function, suggest, Suggestion};
pub use trainer::{train, EpochStats, TrainConfig};
pub use views::{view_importance, ViewImportance};
