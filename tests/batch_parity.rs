//! Batched vs per-sample execution parity.
//!
//! The batched path (`GraphBatch` → block-diagonal `spmm` → segment-aware
//! SortPooling/conv/pool) must be *bit-identical* to running each graph
//! alone, not merely close: every kernel accumulates per output element
//! in the same order regardless of how rows are packed. These tests pin
//! that contract at the encoder level and at the model level (every
//! head's logits over a full test split), both as raw `f32` bits.

use mvgnn::core::model::{MvGnn, MvGnnConfig, RowOutputs, NODE, STRUCT};
use mvgnn::core::trainer::{train, TrainConfig};
use mvgnn::dataset::{build_corpus, CorpusConfig};
use mvgnn::embed::Inst2VecConfig;
use mvgnn::gnn::{gcn_adjacency, Dgcnn, DgcnnConfig};
use mvgnn::graph::Csr;
use mvgnn::tensor::{init, Params, SparseMatrix, Tape, Workspace};

fn small_cfg(in_dim: usize) -> DgcnnConfig {
    DgcnnConfig {
        in_dim,
        gc_dims: vec![6, 4, 1],
        k: 5, // odd on purpose: the tail pooling window must not straddle graphs
        conv1_out: 4,
        conv2_ksize: 2,
        conv2_out: 3,
        dense_hidden: 8,
        classes: 2,
    }
}

/// Node features for a ring graph of `n` nodes. `tied == true` makes
/// every node identical, which collapses all SortPooling keys of that
/// graph into one tie class — the packed and solo paths must break the
/// ties identically (by local row order).
fn ring(n: usize, in_dim: usize, tied: bool, salt: f32) -> (SparseMatrix, Vec<f32>) {
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    let adj = gcn_adjacency(&Csr::from_edges(n, &edges));
    let feats: Vec<f32> = (0..n * in_dim)
        .map(|i| if tied { salt } else { salt + 0.1 * (i % 7) as f32 })
        .collect();
    (adj, feats)
}

/// Packed `embed_batch` rows equal each graph's solo `embed` output bit
/// for bit, including graphs whose sort keys are all tied and graphs
/// smaller than `k` (zero-padded by SortPooling).
#[test]
fn encoder_embed_is_bit_identical_batched_vs_single() {
    let in_dim = 3;
    let mut params = Params::new();
    let mut rng = init::rng(42);
    let model = Dgcnn::new(&mut params, "d", small_cfg(in_dim), &mut rng);

    // Mixed population: tied keys, distinct keys, fewer nodes than k,
    // more nodes than k.
    let graphs: Vec<(SparseMatrix, Vec<f32>)> = vec![
        ring(4, in_dim, true, 0.5), // n < k, all keys tied
        ring(9, in_dim, false, -0.25),
        ring(6, in_dim, true, -1.0), // ties again, different values
        ring(12, in_dim, false, 2.0), // n > k
    ];

    // Solo embeddings.
    let mut solo: Vec<Vec<u32>> = Vec::new();
    for (adj, feats) in &graphs {
        let n = feats.len() / in_dim;
        let mut tape = Tape::new(&params);
        let x = tape.input(feats.clone(), n, in_dim);
        let e = model.embed(&mut tape, adj, x);
        solo.push(tape.data(e).iter().map(|v| v.to_bits()).collect());
    }

    // One packed pass.
    let adjs: Vec<&SparseMatrix> = graphs.iter().map(|(a, _)| a).collect();
    let bd = SparseMatrix::block_diag(&adjs);
    let mut packed = Vec::new();
    let mut offsets = vec![0usize];
    for (_, feats) in &graphs {
        packed.extend_from_slice(feats);
        offsets.push(offsets[offsets.len() - 1] + feats.len() / in_dim);
    }
    let total_n = *offsets.last().unwrap();
    let mut tape = Tape::new(&params);
    let x = tape.input(packed, total_n, in_dim);
    let e = model.embed_batch(&mut tape, &bd, x, &offsets);
    let (rows, width) = tape.shape(e);
    assert_eq!(rows, graphs.len());

    for (g, want) in solo.iter().enumerate() {
        let got: Vec<u32> =
            tape.data(e)[g * width..(g + 1) * width].iter().map(|v| v.to_bits()).collect();
        assert_eq!(&got, want, "graph {g}: batched embedding row differs from solo embed");
    }
}

/// Embedding rows depend only on their own graph: reordering or
/// re-grouping the batch must not change any row's bits.
#[test]
fn encoder_embed_rows_are_permutation_invariant() {
    let in_dim = 2;
    let mut params = Params::new();
    let mut rng = init::rng(7);
    let model = Dgcnn::new(&mut params, "d", small_cfg(in_dim), &mut rng);
    let graphs = [ring(5, in_dim, false, 0.0), ring(8, in_dim, true, 1.5), ring(3, in_dim, false, -0.5)];

    let embed_order = |params: &Params, order: &[usize]| -> Vec<Vec<u32>> {
        let adjs: Vec<&SparseMatrix> = order.iter().map(|&i| &graphs[i].0).collect();
        let bd = SparseMatrix::block_diag(&adjs);
        let mut packed = Vec::new();
        let mut offsets = vec![0usize];
        for &i in order {
            packed.extend_from_slice(&graphs[i].1);
            offsets.push(offsets[offsets.len() - 1] + graphs[i].1.len() / in_dim);
        }
        let total_n = *offsets.last().unwrap();
        let mut tape = Tape::new(params);
        let x = tape.input(packed, total_n, in_dim);
        let e = model.embed_batch(&mut tape, &bd, x, &offsets);
        let (_, width) = tape.shape(e);
        (0..order.len())
            .map(|g| tape.data(e)[g * width..(g + 1) * width].iter().map(|v| v.to_bits()).collect())
            .collect()
    };

    let fwd = embed_order(&params, &[0, 1, 2]);
    let rev = embed_order(&params, &[2, 1, 0]);
    for g in 0..3 {
        assert_eq!(fwd[g], rev[2 - g], "row for graph {g} changed with batch order");
    }
}

/// Full-pipeline check on a real corpus: a trained model's batched
/// `forward_rows` — fused and per-view logits, to the bit — match
/// per-sample runs across the whole split for several batch widths
/// (including widths that leave a ragged tail, and one batch of all).
#[test]
fn trained_model_predictions_match_across_test_split() {
    let ds = build_corpus(&CorpusConfig {
        seeds: vec![1],
        opt_levels: vec![mvgnn::ir::transform::OptLevel::O0],
        per_class: Some(12),
        test_fraction: 0.3,
        suite: None,
        inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 2 },
        sample: Default::default(),
        seed: 0xfeed,
        label_noise: 0.0,
        static_features: false,
    });
    let probe = &ds.train[0].sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    train(
        &mut model,
        &ds.train,
        &TrainConfig { epochs: 1, batch_size: 4, ..TrainConfig::default() },
    )
    .expect("training failed");

    let samples: Vec<&mvgnn::embed::GraphSample> =
        ds.train.iter().chain(ds.test.iter()).map(|s| &s.sample).collect();
    // Raw bits of every head of row `g`: fused, then each view.
    let bits = |rows: &RowOutputs, g: usize| -> Vec<u32> {
        let node = rows.view(NODE, g).expect("multi-view mode runs the node view");
        let st = rows.view(STRUCT, g).expect("multi-view mode runs the structural view");
        rows.fused(g).iter().chain(node).chain(st).map(|x| x.to_bits()).collect()
    };
    // Batch-of-one reference, each on a fresh workspace.
    let single: Vec<RowOutputs> =
        samples.iter().map(|s| model.forward_rows(&mut Workspace::new(), &[s])).collect();
    let single_bits: Vec<Vec<u32>> = single.iter().map(|r| bits(r, 0)).collect();
    let single_preds: Vec<usize> = single.iter().map(|r| r.argmax(0)).collect();
    let single_checked: Vec<_> = single.iter().map(|r| r.checked(0)).collect();

    // Batching must be a pure throughput change: at every width — down
    // to one packed batch of everything — every head's logits equal the
    // batch-of-one run bit for bit, on one reused workspace.
    let mut ws = Workspace::new();
    for width in [1usize, 3, 5, 32, samples.len()] {
        let mut batched = RowOutputs::default();
        for chunk in samples.chunks(width) {
            batched.append(model.forward_rows(&mut ws, chunk));
        }
        assert_eq!(batched.len(), samples.len());
        let batched_bits: Vec<Vec<u32>> = (0..batched.len()).map(|g| bits(&batched, g)).collect();
        assert_eq!(single_bits, batched_bits, "logit bits diverged at batch width {width}");
        assert_eq!(single_preds, batched.predictions(), "width {width}");
        // The checked (NaN-guarded) verdicts read the same rows.
        let checked: Vec<_> = (0..batched.len()).map(|g| batched.checked(g)).collect();
        assert_eq!(single_checked, checked, "width {width}");
    }
}
