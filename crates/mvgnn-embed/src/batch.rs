//! Packed mini-batches of [`GraphSample`]s for one-tape batched
//! execution.
//!
//! A [`GraphBatch`] stacks the per-sample matrices row-wise and joins the
//! adjacencies into one block-diagonal operator, so a single
//! forward/backward pass over the tape covers every graph of the batch:
//! sparse propagation cannot mix rows across blocks, dense layers act
//! row-wise, and the segment-aware pooling/convolution primitives in
//! `mvgnn-tensor` keep the read-out per-graph. `offsets` records where
//! each graph's rows live in the packed layout.

use crate::sample::GraphSample;
use mvgnn_tensor::{SparseMatrix, Workspace};

/// A mini-batch of graphs in packed (block-diagonal) layout.
#[derive(Debug, Clone)]
pub struct GraphBatch {
    /// Number of graphs packed.
    pub batch: usize,
    /// Total node count across the batch (`offsets[batch]`).
    pub total_n: usize,
    /// Block-diagonal GCN propagation operator over all graphs.
    pub adj: SparseMatrix,
    /// Packed node-feature matrix, row-major `total_n × node_dim`.
    pub node_feats: Vec<f32>,
    /// Node-feature width (identical across the batch).
    pub node_dim: usize,
    /// Packed anonymous-walk distributions, `total_n × aw_vocab`.
    pub struct_dists: Vec<f32>,
    /// Anonymous-walk vocabulary size (identical across the batch).
    pub aw_vocab: usize,
    /// Node offsets: graph `g` owns packed rows
    /// `offsets[g]..offsets[g + 1]`; length `batch + 1`.
    pub offsets: Vec<usize>,
}

impl GraphBatch {
    /// Pack samples into one batch, every backing buffer drawn from a
    /// [`Workspace`] pool: once warm, packing a batch allocates nothing
    /// (bar the transient per-call adjacency pointer list). All samples
    /// must agree on `node_dim` and `aw_vocab` (they come from one
    /// dataset / one model configuration); panics otherwise, and on an
    /// empty slice. Return the batch with [`Self::recycle`] when done.
    pub fn from_samples_in(ws: &mut Workspace, samples: &[&GraphSample]) -> Self {
        assert!(!samples.is_empty(), "cannot batch zero samples");
        let node_dim = samples[0].node_dim;
        let aw_vocab = samples[0].aw_vocab;
        let total_n: usize = samples.iter().map(|s| s.n).sum();
        let mut node_feats = ws.acquire_f32(total_n * node_dim);
        let mut struct_dists = ws.acquire_f32(total_n * aw_vocab);
        let mut offsets = ws.acquire_usize(samples.len() + 1);
        let mut row = 0usize;
        for (g, s) in samples.iter().enumerate() {
            assert_eq!(s.node_dim, node_dim, "node_dim mismatch within batch");
            assert_eq!(s.aw_vocab, aw_vocab, "aw_vocab mismatch within batch");
            offsets[g] = row;
            node_feats[row * node_dim..(row + s.n) * node_dim]
                .copy_from_slice(&s.node_feats);
            struct_dists[row * aw_vocab..(row + s.n) * aw_vocab]
                .copy_from_slice(&s.struct_dists);
            row += s.n;
        }
        offsets[samples.len()] = row;
        let adjs: Vec<&SparseMatrix> = samples.iter().map(|s| &s.adj).collect();
        let adj = SparseMatrix::block_diag_in(ws, &adjs);
        Self { batch: samples.len(), total_n, adj, node_feats, node_dim, struct_dists, aw_vocab, offsets }
    }

    /// Return a batch built by [`Self::from_samples_in`] to its pool so
    /// the next packing reuses its buffers.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.release_f32(self.node_feats);
        ws.release_f32(self.struct_dists);
        ws.release_usize(self.offsets);
        self.adj.recycle(ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_sample(n: usize, node_dim: usize, aw_vocab: usize, fill: f32) -> GraphSample {
        let edges: Vec<(u32, u32)> =
            (0..n.saturating_sub(1)).map(|i| (i as u32, i as u32 + 1)).collect();
        let csr = mvgnn_graph::Csr::from_edges(n, &edges);
        GraphSample {
            n,
            adj: mvgnn_gnn::gcn_adjacency(&csr),
            node_feats: vec![fill; n * node_dim],
            node_dim,
            struct_dists: vec![1.0 / aw_vocab as f32; n * aw_vocab],
            aw_vocab,
            token_ids: vec![0; n],
            func: mvgnn_ir::module::FuncId(0),
            l: mvgnn_ir::module::LoopId(0),
            label: None,
        }
    }

    #[test]
    fn packing_concatenates_rows_and_offsets() {
        let a = toy_sample(3, 4, 5, 0.5);
        let b = toy_sample(2, 4, 5, -1.0);
        let batch = GraphBatch::from_samples_in(&mut Workspace::new(), &[&a, &b]);
        assert_eq!(batch.batch, 2);
        assert_eq!(batch.total_n, 5);
        assert_eq!(batch.offsets, vec![0, 3, 5]);
        assert_eq!(batch.node_feats.len(), 5 * 4);
        assert_eq!(&batch.node_feats[..12], &a.node_feats[..]);
        assert_eq!(&batch.node_feats[12..], &b.node_feats[..]);
        assert_eq!(batch.struct_dists.len(), 5 * 5);
        assert_eq!(batch.adj.rows(), 5);
    }

    #[test]
    fn one_sample_is_a_batch_of_one() {
        let a = toy_sample(4, 2, 3, 0.25);
        let batch = GraphBatch::from_samples_in(&mut Workspace::new(), &[&a]);
        assert_eq!(batch.batch, 1);
        assert_eq!(batch.offsets, vec![0, 4]);
        assert_eq!(batch.node_feats, a.node_feats);
        assert_eq!(batch.adj, a.adj);
    }

    #[test]
    fn pooled_packing_matches_and_stops_allocating() {
        let a = toy_sample(3, 4, 5, 0.5);
        let b = toy_sample(2, 4, 5, -1.0);
        let plain = GraphBatch::from_samples_in(&mut Workspace::new(), &[&a, &b]);
        let mut ws = Workspace::new();
        // Cold pass populates the pool; every later pass must hit it.
        GraphBatch::from_samples_in(&mut ws, &[&a, &b]).recycle(&mut ws);
        let cold_misses = ws.stats().misses;
        for pass in 0..3 {
            let pooled = GraphBatch::from_samples_in(&mut ws, &[&a, &b]);
            assert_eq!(pooled.node_feats, plain.node_feats, "pass {pass}");
            assert_eq!(pooled.struct_dists, plain.struct_dists);
            assert_eq!(pooled.offsets, plain.offsets);
            assert_eq!(pooled.adj, plain.adj);
            pooled.recycle(&mut ws);
        }
        assert_eq!(ws.stats().misses, cold_misses, "warm packing must not allocate");
    }

    #[test]
    #[should_panic(expected = "node_dim mismatch")]
    fn dim_mismatch_panics() {
        let a = toy_sample(2, 4, 5, 0.0);
        let b = toy_sample(2, 3, 5, 0.0);
        let _ = GraphBatch::from_samples_in(&mut Workspace::new(), &[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_batch_panics() {
        let _ = GraphBatch::from_samples_in(&mut Workspace::new(), &[]);
    }
}
