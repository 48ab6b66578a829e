//! Train a small MV-GNN, persist it to disk, reload into a fresh model
//! and verify identical predictions — the deployment round-trip.
//!
//! ```sh
//! cargo run --release --example save_load_model
//! ```

use mvgnn::core::checkpoint::{read_checkpoint, write_checkpoint, CheckpointMeta};
use mvgnn::core::model::{MvGnn, MvGnnConfig};
use mvgnn::core::trainer::{evaluate, train, TrainConfig};
use mvgnn::dataset::{build_corpus, CorpusConfig, Suite};
use mvgnn::embed::Inst2VecConfig;
use mvgnn::ir::transform::OptLevel;

fn main() {
    let ds = build_corpus(&CorpusConfig {
        seeds: vec![1],
        opt_levels: vec![OptLevel::O0],
        per_class: Some(60),
        test_fraction: 0.25,
        suite: Some(Suite::Npb),
        inst2vec: Inst2VecConfig { dim: 16, epochs: 1, negatives: 2, lr: 0.05, seed: 4 },
        sample: Default::default(),
        seed: 0x5a5e,
        label_noise: 0.0,
        static_features: false,
    });
    let probe = &ds.train[0].sample;
    let cfg = MvGnnConfig::small(probe.node_dim, probe.aw_vocab);
    let mut model = MvGnn::new(cfg.clone());
    let train_cfg = TrainConfig { epochs: 10, ..Default::default() };
    let stats = train(&mut model, &ds.train, &train_cfg).expect("training must succeed");
    let metrics = evaluate(&model, &ds.test);
    println!("trained: {metrics}");

    let path = std::env::temp_dir().join("mvgnn_demo_model.mvck");
    let meta = CheckpointMeta {
        epoch: train_cfg.epochs - 1,
        lr: train_cfg.lr,
        stats,
        ..Default::default()
    };
    write_checkpoint(&path, &meta, &model.params).expect("write checkpoint");
    println!("saved {} bytes to {}", std::fs::metadata(&path).unwrap().len(), path.display());

    // The architecture is not stored: rebuild it from the same config,
    // then read the weights into it.
    let mut reloaded = MvGnn::new(cfg);
    let read_meta = read_checkpoint(&path, &mut reloaded.params).expect("valid checkpoint");
    assert_eq!(read_meta, meta, "resume state must round-trip");
    for i in 0..model.params.len() {
        let id = mvgnn::tensor::ParamId(i);
        let bits = |p: &mvgnn::tensor::Params| -> Vec<u32> {
            p.data(id).iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&model.params), bits(&reloaded.params), "tensor {i} differs");
    }
    let again = evaluate(&reloaded, &ds.test);
    println!("reloaded: {again}");
    assert_eq!(metrics, again, "reloaded model must predict identically");
    std::fs::remove_file(&path).ok();
    println!("round-trip OK");
}
