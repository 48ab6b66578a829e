//! The MV-GNN model (paper Fig. 3): a node-feature and a structural
//! view encoder, fused by Eq. 5 and executed over packed
//! [`GraphBatch`]es.
//!
//! Inference has one forward pass, [`MvGnn::forward_rows`]: a mini-batch
//! of graphs becomes one block-diagonal tape program, and the fused and
//! per-view logits of every row come back as [`RowOutputs`], from which
//! callers read classes, finiteness-checked verdicts or raw logits.
//! Training records the same program with [`MvGnn::forward_batch`] to
//! attach its losses. Batched and per-sample execution are bit-identical
//! — every primitive on the path is row- or segment-local — so batching
//! is purely a throughput knob.

use crate::views::{NodeFeatureEncoder, StructuralEncoder};
use mvgnn_embed::{GraphBatch, GraphSample};
use mvgnn_gnn::DgcnnConfig;
use mvgnn_nn::Linear;
use mvgnn_tensor::init;
use mvgnn_tensor::tape::{argmax_row, Params, Tape, Var};
use mvgnn_tensor::Workspace;
use rand::rngs::StdRng;

/// Which views participate — the multi-view model plus the single-view
/// configurations used by the Static-GNN baseline and the ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// Both views fused (the paper's model).
    Multi,
    /// Node-feature view only.
    NodeOnly,
    /// Structural view only.
    StructOnly,
}

/// MV-GNN hyperparameters.
#[derive(Debug, Clone)]
pub struct MvGnnConfig {
    /// Node-feature width of the samples (inst2vec dim + kind + Table I).
    pub node_dim: usize,
    /// Anonymous-walk vocabulary size of the samples.
    pub aw_vocab: usize,
    /// Learned anonymous-walk embedding width.
    pub aw_dim: usize,
    /// DGCNN for the node-feature view.
    pub node_dgcnn: DgcnnConfig,
    /// DGCNN for the structural view.
    pub struct_dgcnn: DgcnnConfig,
    /// Fusion layer width.
    pub fusion_dim: usize,
    /// Softmax temperature (paper: 0.5).
    pub temperature: f32,
    /// Which views are active.
    pub mode: ViewMode,
    /// Zero out the Table I dynamic features (static-only ablation).
    pub drop_dynamic: bool,
    /// Output classes of the fused and per-view heads (2 = the paper's
    /// binary task; 4 = the pattern-classification extension).
    pub classes: usize,
    /// Parameter-init seed.
    pub seed: u64,
}

impl MvGnnConfig {
    /// A compact configuration sized for CPU training. `node_dim` and
    /// `aw_vocab` must match the dataset's samples.
    pub fn small(node_dim: usize, aw_vocab: usize) -> Self {
        let gc = vec![24, 24, 1];
        let mk = |in_dim: usize| DgcnnConfig {
            in_dim,
            gc_dims: gc.clone(),
            k: 28,
            conv1_out: 12,
            conv2_ksize: 3,
            conv2_out: 24,
            dense_hidden: 48,
            classes: 2,
        };
        let aw_dim = 16;
        Self {
            node_dim,
            aw_vocab,
            aw_dim,
            node_dgcnn: mk(node_dim),
            struct_dgcnn: mk(aw_dim),
            fusion_dim: 64,
            temperature: 0.5,
            mode: ViewMode::Multi,
            drop_dynamic: false,
            classes: 2,
            seed: 0x31337,
        }
    }

    /// The paper-scale configuration (200-dim features, SortPooling
    /// k = 135) — slower, for `--paper-scale` runs.
    pub fn paper(node_dim: usize, aw_vocab: usize) -> Self {
        let mut cfg = Self::small(node_dim, aw_vocab);
        let gc = vec![32, 32, 32, 1];
        for (d, in_dim) in
            [(&mut cfg.node_dgcnn, node_dim), (&mut cfg.struct_dgcnn, cfg.aw_dim)]
        {
            d.in_dim = in_dim;
            d.gc_dims = gc.clone();
            d.k = 135;
            d.conv1_out = 16;
            d.conv2_ksize = 5;
            d.conv2_out = 32;
            d.dense_hidden = 128;
        }
        cfg.fusion_dim = 128;
        cfg
    }
}

/// Index of the node-feature view in per-view outputs.
pub const NODE: usize = 0;
/// Index of the structural view in per-view outputs.
pub const STRUCT: usize = 1;
/// Number of views.
pub const VIEWS: usize = 2;

/// Model outputs for a packed batch; every logit tensor has one row per
/// graph of the batch.
pub struct ForwardBatch {
    /// Fused logits (or the active single view's logits),
    /// `batch × classes`.
    pub logits: Var,
    /// Per-view auxiliary logits, indexed by [`NODE`] / [`STRUCT`]
    /// (`None` for views the [`ViewMode`] disables).
    pub view_logits: [Option<Var>; VIEWS],
}

/// Every head's logits for one packed batch, read off the tape of
/// [`MvGnn::forward_rows`]: one row per sample, `classes` wide, stored
/// flat (one buffer per head, not one per row).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowOutputs {
    rows: usize,
    classes: usize,
    fused: Vec<f32>,
    /// Per-view logits indexed by [`NODE`] / [`STRUCT`]; empty for a view
    /// the [`ViewMode`] disables.
    views: [Vec<f32>; VIEWS],
}

impl RowOutputs {
    /// Number of rows (samples).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no sample was run.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Fused logits of row `g` (the active view's in single-view modes).
    pub fn fused(&self, g: usize) -> &[f32] {
        &self.fused[g * self.classes..(g + 1) * self.classes]
    }

    /// Logits of view `v` ([`NODE`] or [`STRUCT`]) for row `g`; `None`
    /// when the [`ViewMode`] disables that view.
    pub fn view(&self, v: usize, g: usize) -> Option<&[f32]> {
        let head = &self.views[v];
        (!head.is_empty()).then(|| &head[g * self.classes..(g + 1) * self.classes])
    }

    /// Fused-head class of row `g`. Non-finite logits are ordered by
    /// `f32::total_cmp` rather than rejected; see [`Self::checked`].
    pub fn argmax(&self, g: usize) -> usize {
        argmax_row(self.fused(g))
    }

    /// Fused-head class of every row, in order.
    pub fn predictions(&self) -> Vec<usize> {
        (0..self.rows).map(|g| self.argmax(g)).collect()
    }

    /// Finiteness-checked classes of row `g`: a head whose logits hold
    /// NaN/Inf reports `None` instead of an arbitrary argmax, so callers
    /// can fall back to a healthy view. Absent views mirror the fused
    /// head.
    pub fn checked(&self, g: usize) -> CheckedPrediction {
        let check = |row: &[f32]| row.iter().all(|x| x.is_finite()).then(|| argmax_row(row));
        let fused = check(self.fused(g));
        let view = |v| self.view(v, g).map_or(fused, check);
        CheckedPrediction { fused, node: view(NODE), structural: view(STRUCT) }
    }

    /// Unchecked `(fused, node, struct)` classes of row `g`; absent views
    /// repeat the fused class.
    pub fn heads(&self, g: usize) -> (usize, usize, usize) {
        let fused = self.argmax(g);
        let view = |v| self.view(v, g).map_or(fused, argmax_row);
        (fused, view(NODE), view(STRUCT))
    }

    /// Append the rows of a later batch of the same model.
    pub fn append(&mut self, other: RowOutputs) {
        if self.rows == 0 {
            *self = other;
            return;
        }
        self.rows += other.rows;
        self.fused.extend_from_slice(&other.fused);
        for (mine, theirs) in self.views.iter_mut().zip(&other.views) {
            mine.extend_from_slice(theirs);
        }
    }
}

/// The multi-view GNN: a node-feature and a structural encoder whose
/// per-graph representations are fused by `W·tanh(h_n ⊕ h_s) + b`
/// (paper Eq. 5) and classified by a shared head, with one auxiliary head
/// per view for the Fig. 8 analysis.
pub struct MvGnn {
    /// Configuration (public for ablation drivers).
    pub cfg: MvGnnConfig,
    /// Persistent parameters.
    pub params: Params,
    node: NodeFeatureEncoder,
    structural: StructuralEncoder,
    fusion: Linear,
    head: Linear,
    node_head: Linear,
    struct_head: Linear,
}

impl MvGnn {
    /// Register all parameters. Construction order fixes the init stream
    /// and the checkpoint layout: node encoder (`node.*`), structural
    /// encoder (`struct.*`, `aw.table`), `fusion`, `head`, then the
    /// per-view auxiliary heads (`node_head`, `struct_head`).
    pub fn new(cfg: MvGnnConfig) -> Self {
        let mut params = Params::new();
        let mut rng: StdRng = init::rng(cfg.seed);
        assert_eq!(cfg.struct_dgcnn.in_dim, cfg.aw_dim, "struct view consumes AW embeddings");
        assert_eq!(cfg.node_dgcnn.in_dim, cfg.node_dim, "node view consumes node features");
        let node_cfg = cfg.node_dgcnn.clone();
        let node = NodeFeatureEncoder::new(&mut params, node_cfg, cfg.drop_dynamic, &mut rng);
        let structural = StructuralEncoder::new(
            &mut params,
            cfg.struct_dgcnn.clone(),
            cfg.aw_vocab,
            cfg.aw_dim,
            &mut rng,
        );
        let (node_dim, struct_dim) = (node.embed_dim(), structural.embed_dim());
        let mut linear = |name: &str, fan_in: usize, fan_out: usize| {
            Linear::new(&mut params, name, fan_in, fan_out, true, &mut rng)
        };
        let fusion = linear("fusion", node_dim + struct_dim, cfg.fusion_dim);
        let head = linear("head", cfg.fusion_dim, cfg.classes);
        let node_head = linear("node_head", node_dim, cfg.classes);
        let struct_head = linear("struct_head", struct_dim, cfg.classes);
        Self { cfg, params, node, structural, fusion, head, node_head, struct_head }
    }

    /// Record the forward pass for a packed batch. The caller owns the
    /// tape so training can attach losses; `Self::params` must back the
    /// tape, and the batch must outlive it (its adjacency is registered
    /// by reference, not cloned). Row `g` of every output depends only on
    /// graph `g`.
    pub fn forward_batch<'p>(&self, tape: &mut Tape<'p>, batch: &'p GraphBatch) -> ForwardBatch {
        assert_eq!(batch.node_dim, self.cfg.node_dim, "sample/node-dim mismatch");
        assert_eq!(batch.aw_vocab, self.cfg.aw_vocab, "sample/AW-vocab mismatch");
        match self.cfg.mode {
            // Single-view mode: that view's head IS the model output.
            ViewMode::NodeOnly => {
                let h = self.node.encode_batch(tape, batch);
                let logits = self.node_head.forward(tape, h);
                ForwardBatch { logits, view_logits: [Some(logits), None] }
            }
            ViewMode::StructOnly => {
                let h = self.structural.encode_batch(tape, batch);
                let logits = self.struct_head.forward(tape, h);
                ForwardBatch { logits, view_logits: [None, Some(logits)] }
            }
            ViewMode::Multi => {
                let hn = self.node.encode_batch(tape, batch);
                let hs = self.structural.encode_batch(tape, batch);
                let view_logits = [
                    Some(self.node_head.forward(tape, hn)),
                    Some(self.struct_head.forward(tape, hs)),
                ];
                // h = W·tanh(h_n ⊕ h_s) + b  (paper Eq. 5), then the head.
                let cat = tape.concat_cols(hn, hs);
                let t = tape.tanh(cat);
                let fused = self.fusion.forward(tape, t);
                ForwardBatch { logits: self.head.forward(tape, fused), view_logits }
            }
        }
    }

    /// The inference forward pass: pack `samples` into one batch, run it
    /// on a tape drawn from `ws`, and copy every head's logits out. The
    /// packing and the tape recycle their buffers into `ws` on return, so
    /// repeated calls with one warm workspace allocate only the returned
    /// rows. Rows are bit-identical at every batch width.
    pub fn forward_rows(&self, ws: &mut Workspace, samples: &[&GraphSample]) -> RowOutputs {
        if samples.is_empty() {
            return RowOutputs::default();
        }
        let batch = GraphBatch::from_samples_in(ws, samples);
        let mut tape = Tape::with_workspace(&self.params, std::mem::take(ws));
        let fwd = self.forward_batch(&mut tape, &batch);
        let copy = |v: Option<Var>| v.map_or_else(Vec::new, |v| tape.data(v).to_vec());
        let out = RowOutputs {
            rows: samples.len(),
            classes: self.cfg.classes,
            fused: copy(Some(fwd.logits)),
            views: fwd.view_logits.map(copy),
        };
        *ws = tape.finish();
        batch.recycle(ws);
        out
    }

    /// Finiteness-checked prediction of one sample
    /// ([`RowOutputs::checked`] of a batch of one).
    pub fn predict_checked(&self, s: &GraphSample) -> CheckedPrediction {
        self.forward_rows(&mut Workspace::new(), &[s]).checked(0)
    }

    /// Checked predictions and fused logits rows of one packed batch
    /// against a caller-owned workspace.
    pub fn predict_checked_logits_batch_ws(
        &self,
        ws: &mut Workspace,
        samples: &[&GraphSample],
    ) -> (Vec<CheckedPrediction>, Vec<Vec<f32>>) {
        let rows = self.forward_rows(ws, samples);
        (0..rows.len()).map(|g| (rows.checked(g), rows.fused(g).to_vec())).unzip()
    }

    /// Fused logits rows of one packed batch.
    pub fn logits_batch(&self, samples: &[&GraphSample]) -> Vec<Vec<f32>> {
        let rows = self.forward_rows(&mut Workspace::new(), samples);
        (0..rows.len()).map(|g| rows.fused(g).to_vec()).collect()
    }
}

// The inference surface is `&self` end to end, so a trained model must
// stay shareable across threads (`Arc<MvGnn>`); this fails to compile if
// any field regresses to interior mutability or non-`Sync` storage.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MvGnn>();
};

/// Per-view predictions from [`RowOutputs::checked`]; a view is `None`
/// when its logits were non-finite (absent views mirror the fused head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedPrediction {
    /// The fused (multi-view) head.
    pub fused: Option<usize>,
    /// The node-view head.
    pub node: Option<usize>,
    /// The structure-view head.
    pub structural: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{read_checkpoint, write_checkpoint, CheckpointMeta};
    use mvgnn_embed::{build_sample, Inst2Vec, Inst2VecConfig, SampleConfig};
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::{FunctionBuilder, Module};
    use mvgnn_peg::{build_peg, loop_subpeg};
    use mvgnn_profiler::{build_cus, loop_features, profile_module};

    fn sample() -> GraphSample {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, iv, y);
        });
        let f = b.finish();
        let cus = build_cus(&m);
        let res = profile_module(&m, f, &[]).unwrap();
        let peg = build_peg(&m, &cus, &res.deps);
        let sub = loop_subpeg(&peg, &m, &cus, f, l);
        let feats = loop_features(&m, f, l, &res.deps, &res.loops[&(f, l)]);
        let i2v = Inst2Vec::train(
            &[&m],
            &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
        );
        build_sample(&sub, &i2v, &feats, &SampleConfig::default(), Some(1))
    }

    fn heads(model: &MvGnn, s: &GraphSample) -> (usize, usize, usize) {
        model.forward_rows(&mut Workspace::new(), &[s]).heads(0)
    }

    #[test]
    fn forward_produces_all_heads_in_multi_mode() {
        let s = sample();
        let model = MvGnn::new(MvGnnConfig::small(s.node_dim, s.aw_vocab));
        let (fused, node, st) = heads(&model, &s);
        assert!(fused <= 1 && node <= 1 && st <= 1);
        let rows = model.forward_rows(&mut Workspace::new(), &[&s]);
        assert!(rows.view(NODE, 0).is_some() && rows.view(STRUCT, 0).is_some());
    }

    #[test]
    fn single_view_modes_work() {
        let s = sample();
        for mode in [ViewMode::NodeOnly, ViewMode::StructOnly] {
            let mut cfg = MvGnnConfig::small(s.node_dim, s.aw_vocab);
            cfg.mode = mode;
            let model = MvGnn::new(cfg);
            let rows = model.forward_rows(&mut Workspace::new(), &[&s]);
            assert!(rows.argmax(0) <= 1, "{mode:?}");
            // The active view's head is the model output; the other view
            // is absent and mirrors the fused class.
            let (fused, node, st) = rows.heads(0);
            assert_eq!((fused, fused), (node, st), "{mode:?}");
            let active = if mode == ViewMode::NodeOnly { NODE } else { STRUCT };
            assert_eq!(rows.view(active, 0), Some(rows.fused(0)), "{mode:?}");
            assert_eq!(rows.view(1 - active, 0), None, "{mode:?}");
        }
    }

    #[test]
    fn drop_dynamic_changes_input_not_shape() {
        let s = sample();
        let mut cfg = MvGnnConfig::small(s.node_dim, s.aw_vocab);
        cfg.drop_dynamic = true;
        let model = MvGnn::new(cfg);
        let _ = heads(&model, &s); // shapes must hold
    }

    #[test]
    fn deterministic_predictions_for_fixed_seed() {
        let s = sample();
        let m1 = MvGnn::new(MvGnnConfig::small(s.node_dim, s.aw_vocab));
        let m2 = MvGnn::new(MvGnnConfig::small(s.node_dim, s.aw_vocab));
        assert_eq!(heads(&m1, &s), heads(&m2, &s));
    }

    /// Write `model`'s weights as a checkpoint in a directory of its own.
    fn checkpoint_of(model: &MvGnn, tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mvgnn_model_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.mvck");
        let meta = CheckpointMeta { lr: 1e-3, ..Default::default() };
        write_checkpoint(&path, &meta, &model.params).unwrap();
        path
    }

    fn weight_bits(model: &MvGnn) -> Vec<u32> {
        (0..model.params.len())
            .flat_map(|i| model.params.data(mvgnn_tensor::ParamId(i)).iter().map(|x| x.to_bits()))
            .collect()
    }

    fn fused_bits(model: &MvGnn, s: &GraphSample) -> Vec<u32> {
        let rows = model.forward_rows(&mut Workspace::new(), &[s]);
        rows.fused(0).iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let s = sample();
        let m1 = MvGnn::new(MvGnnConfig::small(s.node_dim, s.aw_vocab));
        let path = checkpoint_of(&m1, "roundtrip");
        let mut cfg2 = MvGnnConfig::small(s.node_dim, s.aw_vocab);
        cfg2.seed = 0xdead; // different init — must be overwritten by load
        let mut m2 = MvGnn::new(cfg2);
        assert_ne!(
            m1.params.data(mvgnn_tensor::ParamId(0)),
            m2.params.data(mvgnn_tensor::ParamId(0))
        );
        read_checkpoint(&path, &mut m2.params).unwrap();
        assert_eq!(heads(&m1, &s), heads(&m2, &s));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn load_rejects_different_architecture() {
        let s = sample();
        let m1 = MvGnn::new(MvGnnConfig::small(s.node_dim, s.aw_vocab));
        let path = checkpoint_of(&m1, "architecture");
        let mut other = MvGnn::new(MvGnnConfig::small(s.node_dim + 1, s.aw_vocab));
        let before = weight_bits(&other);
        let err = read_checkpoint(&path, &mut other.params).unwrap_err();
        assert!(matches!(err, crate::error::MvGnnError::Checkpoint(_)), "{err}");
        assert_eq!(weight_bits(&other), before, "a refused load touches nothing");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn loaded_weights_survive_the_file_being_rewritten_and_truncated() {
        // A loaded model owns its weights. Rewriting the file in place
        // (as `cp new.mvck model.mvck` does) with another model's bytes
        // of equal length, then cutting it in half, changes nothing the
        // model holds or computes.
        let s = sample();
        let cfg = MvGnnConfig::small(s.node_dim, s.aw_vocab);
        let first = MvGnn::new(cfg.clone());
        let path = checkpoint_of(&first, "rewritten");
        let mut loaded = MvGnn::new(cfg.clone());
        read_checkpoint(&path, &mut loaded.params).unwrap();

        let mut other_cfg = cfg;
        other_cfg.seed = 0xdead;
        let other_path = checkpoint_of(&MvGnn::new(other_cfg), "rewritten_other");
        let other = std::fs::read(&other_path).unwrap();
        assert_eq!(other.len() as u64, std::fs::metadata(&path).unwrap().len());
        assert_ne!(other, std::fs::read(&path).unwrap());
        std::fs::write(&path, &other).unwrap();
        assert_eq!(weight_bits(&loaded), weight_bits(&first));

        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(other.len() as u64 / 2).unwrap();
        drop(file);
        assert_eq!(weight_bits(&loaded), weight_bits(&first));
        assert_eq!(fused_bits(&loaded, &s), fused_bits(&first, &s));
        for p in [&path, &other_path] {
            std::fs::remove_dir_all(p.parent().unwrap()).ok();
        }
    }

    #[test]
    fn arc_model_serves_concurrent_predictions() {
        let s = sample();
        let model = std::sync::Arc::new(MvGnn::new(MvGnnConfig::small(s.node_dim, s.aw_vocab)));
        let want = heads(&model, &s);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let m = std::sync::Arc::clone(&model);
                    let s = &s;
                    scope.spawn(move || {
                        (heads(&m, s), m.forward_rows(&mut Workspace::new(), &[s, s]).predictions())
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok((detailed, batch)) => {
                        assert_eq!(detailed, want);
                        assert_eq!(batch, vec![want.0, want.0]);
                    }
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
    }

    #[test]
    fn checked_rejects_non_finite_heads_row_by_row() {
        let rows = RowOutputs {
            rows: 2,
            classes: 2,
            fused: vec![0.0, 1.0, f32::NAN, 0.0],
            views: [vec![2.0, 1.0, 0.0, 1.0], Vec::new()],
        };
        let healthy = CheckedPrediction { fused: Some(1), node: Some(0), structural: Some(1) };
        assert_eq!(rows.checked(0), healthy);
        let damaged = CheckedPrediction { fused: None, node: Some(1), structural: None };
        assert_eq!(rows.checked(1), damaged);
        // The unchecked triple orders NaN by `total_cmp` instead.
        assert_eq!(rows.heads(1), (0, 1, 0));
        assert_eq!(rows.predictions(), vec![1, 0]);
    }

    #[test]
    fn appended_batches_equal_one_packed_batch() {
        let s = sample();
        let model = MvGnn::new(MvGnnConfig::small(s.node_dim, s.aw_vocab));
        let mut ws = Workspace::new();
        let mut all = model.forward_rows(&mut ws, &[]);
        assert!(all.is_empty());
        all.append(model.forward_rows(&mut ws, &[&s]));
        all.append(model.forward_rows(&mut ws, &[&s, &s]));
        assert_eq!(all.len(), 3);
        assert_eq!(all, model.forward_rows(&mut ws, &[&s, &s, &s]));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_dims_panic() {
        let s = sample();
        let model = MvGnn::new(MvGnnConfig::small(s.node_dim + 1, s.aw_vocab));
        let _ = heads(&model, &s);
    }
}
