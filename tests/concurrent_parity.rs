//! Shared-model parity: one trained model behind an `Arc<MvGnn>`, run
//! from many threads at once, gives every thread the sequential answer.
//! The weights are an immutable value store and every forward pass owns
//! a private tape, so the serve layer's workers share one model without
//! locks or weight clones.

use mvgnn::core::model::{MvGnn, MvGnnConfig};
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
