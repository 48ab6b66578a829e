//! Whole-stack determinism: identical seeds must reproduce identical
//! corpora, models and predictions — the property every experiment
//! binary relies on.

use mvgnn::core::model::{MvGnn, MvGnnConfig};
use mvgnn::core::trainer::{train, TrainConfig};
use mvgnn::dataset::{build_corpus, CorpusConfig, Suite};
use mvgnn::embed::Inst2VecConfig;
use mvgnn::ir::transform::OptLevel;
use mvgnn::tensor::Workspace;

fn cfg() -> CorpusConfig {
    CorpusConfig {
        seeds: vec![4],
        opt_levels: vec![OptLevel::O0],
        per_class: Some(20),
        test_fraction: 0.25,
        suite: Some(Suite::PolyBench),
        inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 6 },
        sample: Default::default(),
        seed: 0xd00d,
        label_noise: 0.0,
        static_features: false,
    }
}

#[test]
fn corpus_is_bit_deterministic() {
    let a = build_corpus(&cfg());
    let b = build_corpus(&cfg());
    assert_eq!(a.train.len(), b.train.len());
    assert_eq!(a.test.len(), b.test.len());
    for (x, y) in a.train.iter().zip(&b.train) {
        assert_eq!(x.base_key, y.base_key);
        assert_eq!(x.label, y.label);
        assert_eq!(x.sample.node_feats, y.sample.node_feats);
        assert_eq!(x.sample.struct_dists, y.sample.struct_dists);
        assert_eq!(x.sample.token_ids, y.sample.token_ids);
    }
}

#[test]
fn serial_training_is_deterministic() {
    let ds = build_corpus(&cfg());
    let probe = &ds.train[0].sample;
    let run = || {
        let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
        let tc = TrainConfig { epochs: 4, batch_size: 8, ..Default::default() };
        let stats = train(&mut model, &ds.train, &tc).expect("training must succeed");
        let preds: Vec<usize> = ds
            .test
            .iter()
            .map(|s| model.forward_rows(&mut Workspace::new(), &[&s.sample]).argmax(0))
            .collect();
        (stats, preds)
    };
    let (s1, p1) = run();
    let (s2, p2) = run();
    assert_eq!(p1, p2, "predictions must be bit-identical");
    for (a, b) in s1.iter().zip(&s2) {
        assert_eq!(a.loss, b.loss, "losses must be bit-identical");
        assert_eq!(a.accuracy, b.accuracy);
    }
}

#[test]
fn different_seeds_produce_different_corpora() {
    let a = build_corpus(&cfg());
    let mut c2 = cfg();
    c2.seeds = vec![5];
    let b = build_corpus(&c2);
    let ka: Vec<u64> = a.train.iter().map(|s| s.base_key).collect();
    let kb: Vec<u64> = b.train.iter().map(|s| s.base_key).collect();
    assert_ne!(ka, kb, "different generation seeds must differ");
}
