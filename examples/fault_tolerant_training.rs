//! Fault-tolerant training demo: divergence rollback, epoch checkpoints,
//! resume after an interruption, and rejection of a corrupted checkpoint.
//!
//! ```sh
//! cargo run --release --example fault_tolerant_training
//! ```

use mvgnn::core::model::{MvGnn, MvGnnConfig};
use mvgnn::core::trainer::{train, TrainConfig};
use mvgnn::core::{FaultPlan, MvGnnError};
use mvgnn::dataset::{build_corpus, CorpusConfig, Suite};
use mvgnn::embed::Inst2VecConfig;
use mvgnn::ir::transform::OptLevel;

fn main() {
    let ds = build_corpus(&CorpusConfig {
        seeds: vec![1],
        opt_levels: vec![OptLevel::O0],
        per_class: Some(40),
        test_fraction: 0.25,
        suite: Some(Suite::PolyBench),
        inst2vec: Inst2VecConfig { dim: 12, epochs: 1, negatives: 2, lr: 0.05, seed: 2 },
        sample: Default::default(),
        seed: 0xfa17,
        label_noise: 0.0,
        static_features: false,
    });
    let probe = &ds.train[0].sample;
    let cfg = MvGnnConfig::small(probe.node_dim, probe.aw_vocab);

    // 1. Divergence recovery: NaN-poison the weights at epoch 2; the
    //    trainer rolls back to the epoch-1 snapshot and halves the lr.
    let mut model = MvGnn::new(cfg.clone());
    let stats = train(
        &mut model,
        &ds.train,
        &TrainConfig {
            epochs: 4,
            fault: Some(FaultPlan::new(7).poison_weights_at(2)),
            ..Default::default()
        },
    )
    .expect("rollback must recover");
    println!("divergence recovery: {} epochs, all losses finite:", stats.len());
    for e in &stats {
        println!("  epoch {}: loss {:.4} acc {:.3}", e.epoch, e.loss, e.accuracy);
    }

    // 2. Checkpoint + resume: train 3 epochs with a checkpoint, then
    //    resume a fresh model from it and run the remaining 3.
    let path = std::env::temp_dir().join("mvgnn_demo_train.mvck");
    let mut first = MvGnn::new(cfg.clone());
    let half = TrainConfig {
        epochs: 3,
        checkpoint_path: Some(path.clone()),
        ..Default::default()
    };
    train(&mut first, &ds.train, &half).expect("first half");
    println!("\ninterrupted after 3 epochs; checkpoint at {}", path.display());

    let mut resumed = MvGnn::new(cfg);
    let rest = TrainConfig {
        epochs: 6,
        checkpoint_path: Some(path.clone()),
        resume_from: Some(path.clone()),
        ..Default::default()
    };
    let stats = train(&mut resumed, &ds.train, &rest).expect("resume");
    println!("resumed run telemetry ({} epochs total):", stats.len());
    for e in &stats {
        println!("  epoch {}: loss {:.4} acc {:.3}", e.epoch, e.loss, e.accuracy);
    }

    // 3. A corrupted checkpoint is rejected with a typed error.
    let mut bytes = std::fs::read(&path).expect("checkpoint exists");
    FaultPlan::new(3).corrupt_bytes(&mut bytes, 4);
    std::fs::write(&path, &bytes).expect("rewrite");
    let mut victim = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    match train(&mut victim, &ds.train, &rest) {
        Err(e @ MvGnnError::Checkpoint(_)) => println!("\ncorrupted checkpoint rejected: {e}"),
        other => panic!("corruption must be rejected as a checkpoint error, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
