//! Concurrent-engine parity: the [`InferenceEngine`] must produce
//! bit-identical logits and identical predictions at every thread count,
//! and match the sequential batched path exactly.
//!
//! Determinism hangs on the engine's chunking contract — batch boundaries
//! are fixed by `batch_size` before dispatch, so the thread count decides
//! only which worker computes a chunk, never which rows it holds or the
//! f32 summation order inside it.

use mvgnn::core::engine::{EngineConfig, InferenceEngine};
use mvgnn::core::model::{MvGnn, MvGnnConfig, RowOutputs, NODE, STRUCT};
use mvgnn::core::trainer::{train, TrainConfig};
use mvgnn::dataset::{build_corpus, CorpusConfig};
use mvgnn::embed::Inst2VecConfig;
use mvgnn::tensor::Workspace;
use std::sync::Arc;

fn trained_model_and_split() -> (Arc<MvGnn>, mvgnn::dataset::Dataset) {
    let ds = build_corpus(&CorpusConfig {
        seeds: vec![1],
        opt_levels: vec![mvgnn::ir::transform::OptLevel::O0],
        per_class: Some(12),
        test_fraction: 0.3,
        suite: None,
        inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 2 },
        sample: Default::default(),
        seed: 0xc0de,
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
    (Arc::new(model), ds)
}

/// Every head's logits of row `g`, as raw bits.
fn head_bits(rows: &RowOutputs, g: usize) -> Vec<u32> {
    let views = [NODE, STRUCT].map(|v| rows.view(v, g).expect("multi-view mode runs every view"));
    rows.fused(g).iter().chain(views[0]).chain(views[1]).map(|x| x.to_bits()).collect()
}

/// The same eval split through the engine's one stream method at 1, 2,
/// and 8 threads: every head's logits bit-identical to sequential
/// `forward_rows` calls over the same batches.
#[test]
fn engine_outputs_are_bit_identical_across_thread_counts() {
    let (model, ds) = trained_model_and_split();
    let samples: Vec<&mvgnn::embed::GraphSample> =
        ds.test.iter().map(|s| &s.sample).collect();
    assert!(samples.len() >= 8, "split too small to exercise multiple chunks");

    const BATCH: usize = 4;
    let mut seq = RowOutputs::default();
    for chunk in samples.chunks(BATCH) {
        seq.append(model.forward_rows(&mut Workspace::new(), chunk));
    }
    let seq_bits: Vec<Vec<u32>> = (0..seq.len()).map(|g| head_bits(&seq, g)).collect();

    for threads in [1usize, 2, 8] {
        let engine = InferenceEngine::new(
            Arc::clone(&model),
            EngineConfig { threads, batch_size: BATCH },
        );
        let rows = engine.forward_stream(&samples);
        let preds = rows.predictions();
        assert_eq!(preds, seq.predictions(), "predictions diverged at {threads} threads");
        let bits: Vec<Vec<u32>> = (0..rows.len()).map(|g| head_bits(&rows, g)).collect();
        assert_eq!(bits, seq_bits, "logits not bit-identical at {threads} threads");
    }
}

/// The checked (NaN-guarded) verdicts of the stream agree with the
/// single-sample checked path at every thread count.
#[test]
fn engine_checked_stream_matches_sequential() {
    let (model, ds) = trained_model_and_split();
    let samples: Vec<&mvgnn::embed::GraphSample> =
        ds.test.iter().map(|s| &s.sample).collect();
    let reference: Vec<_> = samples.iter().map(|s| model.predict_checked(s)).collect();
    for threads in [1usize, 2, 8] {
        let engine = InferenceEngine::new(
            Arc::clone(&model),
            EngineConfig { threads, batch_size: 3 },
        );
        let rows = engine.forward_stream(&samples);
        let checked: Vec<_> = (0..rows.len()).map(|g| rows.checked(g)).collect();
        assert_eq!(checked, reference, "checked stream diverged at {threads} threads");
    }
}

/// `forward_rows` is callable through a shared `Arc<MvGnn>` from many
/// threads at once, each thread getting the sequential answer.
#[test]
fn shared_model_serves_raw_predict_batch_from_many_threads() {
    let (model, ds) = trained_model_and_split();
    let samples: Vec<&mvgnn::embed::GraphSample> =
        ds.test.iter().map(|s| &s.sample).collect();
    let expected = model.forward_rows(&mut Workspace::new(), &samples);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let model = Arc::clone(&model);
                let samples = &samples;
                s.spawn(move || model.forward_rows(&mut Workspace::new(), samples))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(rows) => assert_eq!(rows, expected),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
}
