//! The Deep Graph CNN (Fig. 6): graph conv stack → SortPooling →
//! 1-D convolutions → dense read-out.
//!
//! Both MV-GNN views instantiate this architecture. The model consumes
//! [`Dgcnn::embed_batch`] (the input of the final dense layer, as the
//! paper specifies): the multi-view model fuses the two views' rows, and
//! the single-view configurations classify them with the model's own
//! per-view heads. No model path reads the dense read-out
//! ([`Dgcnn::logits`], [`Dgcnn::head`]); its weights are still registered,
//! so the parameter order and the checkpoint layout keep them.

use crate::gcn::GcnLayer;
use crate::sortpool::sort_order_segments_into;
use mvgnn_nn::{Conv1d, Linear};
use mvgnn_tensor::tape::{Params, Tape, Var};
use mvgnn_tensor::SparseMatrix;
use rand::rngs::StdRng;

/// DGCNN hyperparameters.
#[derive(Debug, Clone)]
pub struct DgcnnConfig {
    /// Input node-feature width.
    pub in_dim: usize,
    /// Graph-conv output widths; the last layer provides the sort key, so
    /// its width should be small (canonically 1).
    pub gc_dims: Vec<usize>,
    /// SortPooling size `k` (paper: 135).
    pub k: usize,
    /// First 1-D conv output channels (canonically 16).
    pub conv1_out: usize,
    /// Second 1-D conv kernel size (canonically 5).
    pub conv2_ksize: usize,
    /// Second 1-D conv output channels (canonically 32).
    pub conv2_out: usize,
    /// Hidden width of the dense read-out.
    pub dense_hidden: usize,
    /// Output classes.
    pub classes: usize,
}

impl Default for DgcnnConfig {
    fn default() -> Self {
        Self {
            in_dim: 32,
            gc_dims: vec![32, 32, 32, 1],
            k: 32,
            conv1_out: 16,
            conv2_ksize: 5,
            conv2_out: 32,
            dense_hidden: 128,
            classes: 2,
        }
    }
}

impl DgcnnConfig {
    /// Total concatenated graph-conv width `D`.
    pub fn concat_dim(&self) -> usize {
        self.gc_dims.iter().sum()
    }

    /// Width of [`Dgcnn::embed`]'s output.
    pub fn embed_dim(&self) -> usize {
        let pooled = self.k.div_ceil(2);
        (pooled - self.conv2_ksize + 1) * self.conv2_out
    }
}

/// The DGCNN model.
#[derive(Debug, Clone)]
pub struct Dgcnn {
    cfg: DgcnnConfig,
    gc: Vec<GcnLayer>,
    conv1: Conv1d,
    conv2: Conv1d,
    dense1: Linear,
    dense2: Linear,
}

impl Dgcnn {
    /// Register all parameters.
    pub fn new(params: &mut Params, name: &str, cfg: DgcnnConfig, rng: &mut StdRng) -> Self {
        assert!(!cfg.gc_dims.is_empty(), "need at least one graph conv layer");
        assert!(
            cfg.k.div_ceil(2) >= cfg.conv2_ksize,
            "k = {} too small for conv2 kernel {}",
            cfg.k,
            cfg.conv2_ksize
        );
        let mut gc = Vec::new();
        let mut prev = cfg.in_dim;
        for (i, &d) in cfg.gc_dims.iter().enumerate() {
            gc.push(GcnLayer::new(params, &format!("{name}.gc{i}"), prev, d, rng));
            prev = d;
        }
        let d = cfg.concat_dim();
        // First conv: kernel size = stride = D over the flattened k·D
        // column vector — one output position per pooled node.
        let conv1 = Conv1d::new(params, &format!("{name}.conv1"), 1, cfg.conv1_out, d, d, rng);
        let conv2 = Conv1d::new(
            params,
            &format!("{name}.conv2"),
            cfg.conv1_out,
            cfg.conv2_out,
            cfg.conv2_ksize,
            1,
            rng,
        );
        let dense1 = Linear::new(
            params,
            &format!("{name}.dense1"),
            cfg.embed_dim(),
            cfg.dense_hidden,
            true,
            rng,
        );
        let dense2 =
            Linear::new(params, &format!("{name}.dense2"), cfg.dense_hidden, cfg.classes, true, rng);
        Self { cfg, gc, conv1, conv2, dense1, dense2 }
    }

    /// The configuration.
    pub fn config(&self) -> &DgcnnConfig {
        &self.cfg
    }

    /// Run up to the input of the dense read-out: `1 × embed_dim`. This is
    /// the representation the multi-view model fuses. A batch-of-one call
    /// into [`Self::embed_batch`].
    pub fn embed<'p>(&self, tape: &mut Tape<'p>, adj: &'p SparseMatrix, feats: Var) -> Var {
        let (n, _) = tape.shape(feats);
        self.embed_batch(tape, adj, feats, &[0, n])
    }

    /// Batched forward up to the dense read-out: `batch × embed_dim`.
    ///
    /// `feats` packs the graphs' node-feature rows (`offsets[batch]` rows
    /// total), `adj` is the matching block-diagonal propagation operator
    /// and `offsets` (length `batch + 1`) delimits each graph's rows.
    ///
    /// Row `g` is bit-identical to `embed` on graph `g` alone: the graph
    /// convs act per block of the block-diagonal operator, SortPooling
    /// ranks within each segment, conv1's windows (`ksize = stride = D`)
    /// tile the flattened `k·D` region of each graph exactly, and the
    /// pooling/conv2 stages use the segment-aware primitives so no window
    /// straddles two graphs even when `k` is odd.
    pub fn embed_batch<'p>(
        &self,
        tape: &mut Tape<'p>,
        adj: &'p SparseMatrix,
        feats: Var,
        offsets: &[usize],
    ) -> Var {
        let (n, in_dim) = tape.shape(feats);
        assert_eq!(in_dim, self.cfg.in_dim, "feature width mismatch");
        assert_eq!(adj.rows(), n, "adjacency size mismatch");
        assert!(offsets.len() >= 2, "offsets needs at least one segment");
        assert_eq!(offsets[offsets.len() - 1], n, "offsets must cover feats");
        let batch = offsets.len() - 1;

        // Graph conv stack; keep every layer's output for concatenation.
        // The adjacency is registered once — borrowed from its
        // caller-owned storage (the `GraphBatch` in batched inference),
        // not cloned — and shared by all layers.
        let adj = tape.sparse_ref(adj);
        let mut h = feats;
        let mut outs: Vec<Var> = Vec::with_capacity(self.gc.len());
        for layer in &self.gc {
            h = layer.forward_at(tape, adj, h);
            outs.push(h);
        }
        let mut concat = outs[0];
        for &o in &outs[1..] {
            concat = tape.concat_cols(concat, o);
        }

        // SortPooling: order by the final layer's last channel, ranking
        // within each graph's row segment. Keys and the per-segment sort
        // permutation live in pooled buffers so the steady state
        // allocates nothing here.
        let last = h; // final conv layer's output
        let (_, last_w) = tape.shape(last);
        let mut keys = tape.workspace_mut().acquire_f32(n);
        for (slot, r) in keys.iter_mut().zip(tape.data(last).chunks(last_w)) {
            *slot = r.last().copied().unwrap_or(0.0);
        }
        let k = self.cfg.k;
        let mut scratch = tape.workspace_mut().acquire_usize(0);
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(batch * k);
        sort_order_segments_into(&keys, offsets, k, &mut scratch, &mut pairs);
        tape.workspace_mut().release_f32(keys);
        tape.workspace_mut().release_usize(scratch);
        let pooled = tape.gather_rows_at(concat, &pairs, batch * k);

        // conv1 has ksize = stride = D over the flattened batch·k·D
        // column, so each of its windows is exactly one pooled row and
        // the whole stage is the matmul `pooled[batch·k × D] · W[D ×
        // out]` plus bias — same kernel, same per-element accumulation
        // order, without materialising the flattened copy. Windows can
        // never straddle graphs; the max-pool and conv2 stages still
        // need the segment-aware variants.
        let d = self.cfg.concat_dim();
        assert_eq!(self.conv1.geometry(), (1, d, d), "conv1 must tile the concat dim");
        let w1 = tape.param(self.conv1.w);
        let b1 = tape.param(self.conv1.b);
        let m1 = tape.matmul(pooled, w1);
        let c1 = tape.add_row(m1, b1);
        let a1 = tape.relu(c1);
        let p1 = tape.maxpool_rows_seg(a1, 2, k);
        let c2 = self.conv2.forward_seg(tape, p1, k.div_ceil(2));
        let a2 = tape.relu(c2);
        let (rows, cols) = tape.shape(a2);
        tape.reshape(a2, batch, rows * cols / batch)
    }

    /// Full forward pass to class logits (`1 × classes`).
    pub fn logits<'p>(&self, tape: &mut Tape<'p>, adj: &'p SparseMatrix, feats: Var) -> Var {
        let e = self.embed(tape, adj, feats);
        self.head(tape, e)
    }

    /// The dense read-out applied to an embedding.
    pub fn head(&self, tape: &mut Tape<'_>, embed: Var) -> Var {
        let h = self.dense1.forward(tape, embed);
        let a = tape.relu(h);
        self.dense2.forward(tape, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::gcn_adjacency;
    use mvgnn_graph::Csr;
    use mvgnn_tensor::init;
    use mvgnn_tensor::optim::Adam;
    use mvgnn_tensor::tape::argmax_rows;
    use mvgnn_tensor::Workspace;

    fn small_cfg(in_dim: usize) -> DgcnnConfig {
        DgcnnConfig {
            in_dim,
            gc_dims: vec![8, 8, 1],
            k: 12,
            conv1_out: 4,
            conv2_ksize: 3,
            conv2_out: 8,
            dense_hidden: 16,
            classes: 2,
        }
    }

    #[test]
    fn embed_dim_formula() {
        let cfg = small_cfg(4);
        // k=12 -> pooled 6 -> conv2 out len 4 -> ×8 channels = 32.
        assert_eq!(cfg.embed_dim(), 32);
        assert_eq!(cfg.concat_dim(), 17);
    }

    #[test]
    fn forward_shapes_hold_for_any_graph_size() {
        let mut params = Params::new();
        let mut rng = init::rng(21);
        let model = Dgcnn::new(&mut params, "d", small_cfg(4), &mut rng);
        for n in [1usize, 3, 12, 40] {
            let edges: Vec<(u32, u32)> =
                (0..n.saturating_sub(1)).map(|i| (i as u32, i as u32 + 1)).collect();
            let adj = gcn_adjacency(&Csr::from_edges(n, &edges));
            let mut tape = Tape::new(&params);
            let x = tape.input(vec![0.1; n * 4], n, 4);
            let e = model.embed(&mut tape, &adj, x);
            assert_eq!(tape.shape(e), (1, 32), "n = {n}");
            let logits = model.head(&mut tape, e);
            assert_eq!(tape.shape(logits), (1, 2));
        }
    }

    #[test]
    fn learns_to_separate_cycle_from_chain() {
        // Graph classification smoke test: distinguish cycles from chains
        // using degree features — exercises the whole DGCNN pipeline.
        let mut params = Params::new();
        let mut rng = init::rng(33);
        let model = Dgcnn::new(&mut params, "d", small_cfg(2), &mut rng);
        let mut opt = Adam::new(0.01);

        let make = |n: usize, cycle: bool| {
            let mut edges: Vec<(u32, u32)> =
                (0..n - 1).map(|i| (i as u32, i as u32 + 1)).collect();
            if cycle {
                edges.push((n as u32 - 1, 0));
            }
            let csr = Csr::from_edges(n, &edges);
            let adj = gcn_adjacency(&csr);
            // Feature: in-degree + out-degree, constant 1.
            let feats: Vec<f32> = (0..n)
                .flat_map(|v| {
                    let deg = csr.degree(v as u32) as f32;
                    [deg, 1.0]
                })
                .collect();
            (adj, feats, n)
        };
        let data: Vec<(mvgnn_tensor::SparseMatrix, Vec<f32>, usize, usize)> = (4..10)
            .flat_map(|n| {
                let (a1, f1, _) = make(n, true);
                let (a2, f2, _) = make(n, false);
                [(a1, f1, n, 0usize), (a2, f2, n, 1usize)]
            })
            .collect();

        let mut acc = 0.0;
        for _epoch in 0..60 {
            let mut master = mvgnn_tensor::GradStore::zeros_like(&params);
            let mut correct = 0;
            for (adj, feats, n, label) in &data {
                let mut tape = Tape::new(&params);
                let x = tape.input(feats.clone(), *n, 2);
                let logits = model.logits(&mut tape, adj, x);
                if argmax_rows(tape.data(logits), 1, 2)[0] == *label {
                    correct += 1;
                }
                let loss = tape.softmax_ce(logits, &[*label], 1.0);
                tape.backward(loss);
                master.absorb(&tape.into_grads());
            }
            opt.step(&mut params, &master);
            acc = correct as f32 / data.len() as f32;
            if acc == 1.0 {
                break;
            }
        }
        assert!(acc >= 0.9, "cycle-vs-chain accuracy {acc}");
    }

    #[test]
    fn embed_batch_rows_bit_identical_to_single_passes() {
        let mut params = Params::new();
        let mut rng = init::rng(9);
        // Odd k so maxpool/conv2 segments would straddle graphs if the
        // batched path used the plain primitives.
        let mut cfg = small_cfg(3);
        cfg.k = 7;
        let model = Dgcnn::new(&mut params, "d", cfg, &mut rng);

        let graphs: Vec<(mvgnn_tensor::SparseMatrix, Vec<f32>, usize)> = [2usize, 9, 5, 13]
            .iter()
            .enumerate()
            .map(|(gi, &n)| {
                let edges: Vec<(u32, u32)> =
                    (0..n - 1).map(|i| (i as u32, (i as u32 + 1) % n as u32)).collect();
                let adj = gcn_adjacency(&Csr::from_edges(n, &edges));
                // Constant feature block per graph: forces key ties inside
                // each graph, exercising the tie-break path.
                let feats = vec![0.1 * (gi as f32 + 1.0); n * 3];
                (adj, feats, n)
            })
            .collect();

        // Singles.
        let mut singles: Vec<Vec<f32>> = Vec::new();
        for (adj, feats, n) in &graphs {
            let mut tape = Tape::new(&params);
            let x = tape.input(feats.clone(), *n, 3);
            let e = model.embed(&mut tape, adj, x);
            singles.push(tape.data(e).to_vec());
        }

        // One batch.
        let adjs: Vec<&mvgnn_tensor::SparseMatrix> = graphs.iter().map(|(a, _, _)| a).collect();
        let bd = mvgnn_tensor::SparseMatrix::block_diag_in(&mut Workspace::new(), &adjs);
        let mut feats = Vec::new();
        let mut offsets = vec![0usize];
        for (_, f, n) in &graphs {
            feats.extend_from_slice(f);
            offsets.push(offsets[offsets.len() - 1] + n);
        }
        let total = offsets[offsets.len() - 1];
        let mut tape = Tape::new(&params);
        let x = tape.input(feats, total, 3);
        let e = model.embed_batch(&mut tape, &bd, x, &offsets);
        let (rows, cols) = tape.shape(e);
        assert_eq!(rows, graphs.len());
        let batched = tape.data(e);
        for (g, single) in singles.iter().enumerate() {
            assert_eq!(cols, single.len());
            for (j, (&b, &s)) in batched[g * cols..(g + 1) * cols].iter().zip(single).enumerate() {
                assert_eq!(b.to_bits(), s.to_bits(), "graph {g} dim {j}");
            }
        }
    }

    #[test]
    fn embed_batch_gradients_match_summed_single_gradients() {
        // sum_all over the batch embedding must accumulate the same
        // parameter gradients as summing each graph's embedding alone.
        let build = |batched: bool| -> Vec<Vec<f32>> {
            let mut params = Params::new();
            let mut rng = init::rng(17);
            let model = Dgcnn::new(&mut params, "d", small_cfg(2), &mut rng);
            let mk = |n: usize| {
                let edges: Vec<(u32, u32)> =
                    (0..n - 1).map(|i| (i as u32, i as u32 + 1)).collect();
                gcn_adjacency(&Csr::from_edges(n, &edges))
            };
            let (na, nb) = (6usize, 4usize);
            let (aa, ab) = (mk(na), mk(nb));
            let fa: Vec<f32> = (0..na * 2).map(|i| (i as f32 * 0.07).sin()).collect();
            let fb: Vec<f32> = (0..nb * 2).map(|i| (i as f32 * 0.11).cos()).collect();
            let master = if batched {
                let bd =
                    mvgnn_tensor::SparseMatrix::block_diag_in(&mut Workspace::new(), &[&aa, &ab]);
                let packed: Vec<f32> = fa.iter().chain(&fb).copied().collect();
                let mut tape = Tape::new(&params);
                let x = tape.input(packed, na + nb, 2);
                let e = model.embed_batch(&mut tape, &bd, x, &[0, na, na + nb]);
                let loss = tape.sum_all(e);
                tape.backward(loss);
                tape.into_grads()
            } else {
                let mut acc = mvgnn_tensor::GradStore::zeros_like(&params);
                for (adj, f, n) in [(&aa, &fa, na), (&ab, &fb, nb)] {
                    let mut tape = Tape::new(&params);
                    let x = tape.input(f.clone(), n, 2);
                    let e = model.embed(&mut tape, adj, x);
                    let loss = tape.sum_all(e);
                    tape.backward(loss);
                    acc.absorb(&tape.into_grads());
                }
                acc
            };
            (0..params.len())
                .map(|i| master.get(mvgnn_tensor::tape::ParamId(i)).to_vec())
                .collect()
        };
        let gb = build(true);
        let gs = build(false);
        assert_eq!(gb.len(), gs.len());
        for (b, s) in gb.iter().zip(&gs) {
            for (x, y) in b.iter().zip(s) {
                assert!((x - y).abs() <= 1e-5, "grad mismatch {x} vs {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "too small for conv2 kernel")]
    fn k_too_small_panics() {
        let mut params = Params::new();
        let mut rng = init::rng(1);
        let mut cfg = small_cfg(4);
        cfg.k = 4;
        let _ = Dgcnn::new(&mut params, "d", cfg, &mut rng);
    }
}
