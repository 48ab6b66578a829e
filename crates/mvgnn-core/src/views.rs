//! The two view encoders and view-importance analysis (paper Fig. 8).
//!
//! A *view* is one way of looking at a loop sub-PEG: the paper uses a
//! node-feature view (inst2vec ⊕ node kind ⊕ Table I dynamics) and a
//! structural view (anonymous-walk distributions through a learned
//! embedding table). Each encoder turns a packed [`GraphBatch`] into a
//! `batch × embed_dim` representation on the tape, and [`MvGnn`] fuses
//! the two.
//!
//! The second half of the module is the Fig. 8 analysis: for each
//! benchmark the paper counts parallel loops identified by the multi-view
//! model (`N_multi`) and by each single view (`N_n`, `N_s`), reporting
//! `IMP_view = N_view / N_multi`.

use crate::model::MvGnn;
use mvgnn_dataset::LabeledSample;
use mvgnn_embed::GraphBatch;
use mvgnn_gnn::{Dgcnn, DgcnnConfig};
use mvgnn_nn::Embedding;
use mvgnn_tensor::tape::{Params, Tape, Var};
use mvgnn_tensor::Workspace;
use rand::rngs::StdRng;

/// The node-feature view: a DGCNN over the sample's node-feature matrix,
/// optionally blinding the dynamic (profiler-derived) columns for the
/// static-only ablation.
pub(crate) struct NodeFeatureEncoder {
    dgcnn: Dgcnn,
    drop_dynamic: bool,
}

impl NodeFeatureEncoder {
    /// Register parameters under `node.*`.
    pub(crate) fn new(
        params: &mut Params,
        cfg: DgcnnConfig,
        drop_dynamic: bool,
        rng: &mut StdRng,
    ) -> Self {
        Self { dgcnn: Dgcnn::new(params, "node", cfg, rng), drop_dynamic }
    }

    /// Width of one output row.
    pub(crate) fn embed_dim(&self) -> usize {
        self.dgcnn.config().embed_dim()
    }

    /// Node-feature matrix of a packed batch, honouring `drop_dynamic`:
    /// the static-only configuration (Shen et al.) zeroes the Table I
    /// vector *and* erases what only a profiler can know about edges —
    /// the carried/loop-independent distinction is merged into one dep
    /// count.
    fn feature_input(&self, tape: &mut Tape<'_>, batch: &GraphBatch) -> Var {
        let mut feats = tape.workspace_mut().acquire_f32(batch.node_feats.len());
        feats.copy_from_slice(&batch.node_feats);
        if self.drop_dynamic {
            let dyn_dim = mvgnn_profiler::DynamicFeatures::DIM;
            let edge_dim = mvgnn_embed::sample::EDGE_DIM;
            for r in 0..batch.total_n {
                let off = r * batch.node_dim + (batch.node_dim - dyn_dim);
                feats[off..off + dyn_dim].fill(0.0);
                // Edge census layout: [defuse o/i, carried RAW o/i,
                // carried WAR o/i, carried WAW o/i, indep o/i, hier o/i];
                // the dep counts come from profiling, so the static-only
                // model loses them entirely (def-use and hierarchy are
                // static facts and stay).
                let eoff = r * batch.node_dim + (batch.node_dim - dyn_dim - edge_dim);
                feats[eoff + 2..eoff + 10].fill(0.0);
            }
        }
        tape.input(feats, batch.total_n, batch.node_dim)
    }

    /// Encode every graph of the batch: output is
    /// `batch.batch × embed_dim()` with row `g` depending only on graph
    /// `g`'s rows (bit-identical to a batch-of-one call). The batch must
    /// outlive the tape: its adjacency is registered by reference.
    pub(crate) fn encode_batch<'p>(&self, tape: &mut Tape<'p>, batch: &'p GraphBatch) -> Var {
        let x = self.feature_input(tape, batch);
        self.dgcnn.embed_batch(tape, &batch.adj, x, &batch.offsets)
    }
}

/// The structural view: anonymous-walk distributions soft-looked-up
/// through a learned embedding table, then a DGCNN (paper Eq. 3/4).
pub(crate) struct StructuralEncoder {
    dgcnn: Dgcnn,
    aw_embed: Embedding,
}

impl StructuralEncoder {
    /// Register parameters: the DGCNN under `struct.*`, then the walk
    /// table under `aw.table` (this order is the checkpoint layout).
    pub(crate) fn new(
        params: &mut Params,
        cfg: DgcnnConfig,
        aw_vocab: usize,
        aw_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let dgcnn = Dgcnn::new(params, "struct", cfg, rng);
        let aw_embed = Embedding::new(params, "aw", aw_vocab, aw_dim, rng);
        Self { dgcnn, aw_embed }
    }

    /// Width of one output row.
    pub(crate) fn embed_dim(&self) -> usize {
        self.dgcnn.config().embed_dim()
    }

    /// [`NodeFeatureEncoder::encode_batch`] for the structural view.
    pub(crate) fn encode_batch<'p>(&self, tape: &mut Tape<'p>, batch: &'p GraphBatch) -> Var {
        let dists = tape.input_slice(&batch.struct_dists, batch.total_n, batch.aw_vocab);
        let emb = self.aw_embed.forward_soft(tape, dists);
        self.dgcnn.embed_batch(tape, &batch.adj, emb, &batch.offsets)
    }
}

/// Per-benchmark view importances.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewImportance {
    /// Benchmark label (suite or app name).
    pub benchmark: String,
    /// Parallel loops correctly identified by the fused model.
    pub n_multi: usize,
    /// … by the node-feature view head.
    pub n_node: usize,
    /// … by the structural view head.
    pub n_struct: usize,
    /// Correct predictions per head (both classes) and pool size — the
    /// paper's IMP ratio only counts identified positives, which a
    /// positively-biased head can saturate; accuracy shows the real gap.
    pub correct_multi: usize,
    /// Correct node-view predictions.
    pub correct_node: usize,
    /// Correct structural-view predictions.
    pub correct_struct: usize,
    /// Samples in the group.
    pub total: usize,
}

impl ViewImportance {
    /// `IMP_n = N_n / N_multi`.
    pub fn imp_node(&self) -> f64 {
        if self.n_multi == 0 {
            return 0.0;
        }
        self.n_node as f64 / self.n_multi as f64
    }

    /// `IMP_s = N_s / N_multi`.
    pub fn imp_struct(&self) -> f64 {
        if self.n_multi == 0 {
            return 0.0;
        }
        self.n_struct as f64 / self.n_multi as f64
    }

    /// Accuracy of the fused model on this group.
    pub fn acc_multi(&self) -> f64 {
        self.correct_multi as f64 / self.total.max(1) as f64
    }

    /// Accuracy of the node-feature view alone.
    pub fn acc_node(&self) -> f64 {
        self.correct_node as f64 / self.total.max(1) as f64
    }

    /// Accuracy of the structural view alone.
    pub fn acc_struct(&self) -> f64 {
        self.correct_struct as f64 / self.total.max(1) as f64
    }
}

/// Samples per packed forward pass in [`view_importance`].
const IMPORTANCE_CHUNK: usize = 32;

/// Compute view importances over a labeled evaluation set, grouped by the
/// key function (suite name, app name, …).
pub fn view_importance(
    model: &MvGnn,
    data: &[LabeledSample],
    key: impl Fn(&LabeledSample) -> String,
) -> Vec<ViewImportance> {
    let mut groups: std::collections::BTreeMap<String, ViewImportance> =
        std::collections::BTreeMap::new();
    // One forward per chunk instead of one per sample; predictions are
    // identical to the per-sample path (packed rows never interact).
    let mut ws = Workspace::new();
    let detailed: Vec<(usize, usize, usize)> = data
        .chunks(IMPORTANCE_CHUNK)
        .flat_map(|chunk| {
            let samples: Vec<&mvgnn_embed::GraphSample> =
                chunk.iter().map(|s| &s.sample).collect();
            let rows = model.forward_rows(&mut ws, &samples);
            (0..rows.len()).map(move |g| rows.heads(g))
        })
        .collect();
    for (s, &(fused, node, st)) in data.iter().zip(&detailed) {
        let entry = groups.entry(key(s)).or_insert_with(|| ViewImportance {
            benchmark: key(s),
            n_multi: 0,
            n_node: 0,
            n_struct: 0,
            correct_multi: 0,
            correct_node: 0,
            correct_struct: 0,
            total: 0,
        });
        entry.total += 1;
        if fused == s.label {
            entry.correct_multi += 1;
        }
        if node == s.label {
            entry.correct_node += 1;
        }
        if st == s.label {
            entry.correct_struct += 1;
        }
        // Count true positives: correctly identified parallel loops.
        if s.label == 1 {
            if fused == 1 {
                entry.n_multi += 1;
            }
            if node == 1 {
                entry.n_node += 1;
            }
            if st == 1 {
                entry.n_struct += 1;
            }
        }
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn importance_ratios() {
        let v = ViewImportance {
            benchmark: "NPB".into(),
            n_multi: 10,
            n_node: 9,
            n_struct: 7,
            correct_multi: 18,
            correct_node: 16,
            correct_struct: 12,
            total: 20,
        };
        assert!((v.imp_node() - 0.9).abs() < 1e-9);
        assert!((v.imp_struct() - 0.7).abs() < 1e-9);
        assert!((v.acc_multi() - 0.9).abs() < 1e-9);
        assert!((v.acc_node() - 0.8).abs() < 1e-9);
        assert!((v.acc_struct() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_multi_does_not_divide_by_zero() {
        let v = ViewImportance {
            benchmark: "x".into(),
            n_multi: 0,
            n_node: 3,
            n_struct: 1,
            correct_multi: 0,
            correct_node: 0,
            correct_struct: 0,
            total: 0,
        };
        assert_eq!(v.imp_node(), 0.0);
        assert_eq!(v.imp_struct(), 0.0);
    }
}
