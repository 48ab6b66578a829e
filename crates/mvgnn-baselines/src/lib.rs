//! # mvgnn-baselines — every comparator of the paper's Table III
//!
//! **Hand-crafted classifiers** (Fried et al., ICMLA'13) over the Table I
//! feature vector plus simple graph statistics:
//! [`svm::LinearSvm`] (Pegasos), [`tree::DecisionTree`] (CART),
//! [`adaboost::AdaBoost`] (decision stumps).
//!
//! **Neural Code Comprehension** ([`ncc`]): two stacked LSTMs over
//! inst2vec statement sequences (Ben-Nun et al.).
//!
//! **Auto-parallelisation tools** ([`tools`]): a Pluto-like static affine
//! dependence tester, an AutoPar-like conservative static analyser, and a
//! DiscoPoP-like dynamic heuristic, each preserving the decision-procedure
//! class (and hence the error profile) of the original tool.
//!
//! [`metrics`] provides the shared accuracy/precision/recall machinery.

#![forbid(unsafe_code)]

pub mod adaboost;
pub mod features;
pub mod metrics;
pub mod ncc;
pub mod svm;
pub mod tools;
pub mod tree;

pub use adaboost::AdaBoost;
pub use features::handcrafted_features;
pub use metrics::Metrics;
pub use ncc::{Ncc, NccConfig};
pub use svm::LinearSvm;
pub use tools::{autopar_like, discopop_like, pluto_like, ToolVerdict};
pub use tree::DecisionTree;
