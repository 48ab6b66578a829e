//! Streaming epochs over on-disk MVSH corpus shards.
//!
//! [`train_streaming`] is the trainer's out-of-core mode: instead of a
//! `&[LabeledSample]` held in memory, it takes a list of shard files
//! (written by `mvgnn_dataset::write_shard`) and runs the trainer's
//! own epoch loop — gradient accumulation, divergence rollback,
//! checkpointing — with a per-epoch runner that only ever holds the
//! prefetch ring plus one in-flight batch in memory. RSS is bounded by
//! `(prefetch + 2) × batch` regardless of corpus size.
//!
//! The runner's state machine:
//!
//! 1. **Shuffle** — the shard *order* is permuted deterministically,
//!    keyed `(cfg.seed, epoch)` (shard granularity: record order inside
//!    a shard is the canonical generation order, so a training curve is
//!    a pure function of configuration + shard set).
//! 2. **Produce** — a reader thread walks the permuted shards through
//!    `ShardReader`'s reused record buffer, packs consecutive samples
//!    into `batch_size` groups (batches may span shard boundaries), and
//!    pushes them into a bounded `sync_channel(prefetch)` ring; a full
//!    ring blocks the producer, which is what bounds RSS.
//! 3. **Consume** — the training thread pops batches and applies the
//!    trainer's shared optimizer step (pooled packing, reused gradient
//!    store, clip, Adam).
//!    A non-finite gradient aborts the epoch, drains the ring, and the
//!    shared epoch loop restores the last good snapshot.
//! 4. A corrupt shard surfaces as a typed [`MvGnnError::Shard`]; the
//!    epoch loop restores the last completed epoch's weights before
//!    returning it, undoing any batch the failed epoch already stepped.

use crate::error::MvGnnError;
use crate::model::MvGnn;
use crate::trainer::{
    mix, train_epochs, EpochRun, EpochStats, EpochTotals, StepBuffers, TrainConfig,
};
use mvgnn_dataset::{LabeledSample, ShardError, ShardReader};
use mvgnn_tensor::optim::Adam;
use std::path::PathBuf;
use std::sync::mpsc;

/// Configuration of the streaming epoch mode.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Bounded prefetch-ring depth in batches. The producer thread stays
    /// at most this many batches ahead of the optimizer, so peak RSS is
    /// `(prefetch + 2) × batch` samples (ring + producer's pending batch
    /// + the batch being stepped). Must be ≥ 1.
    pub prefetch: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { prefetch: 4 }
    }
}

fn run_stream_epoch(
    model: &mut MvGnn,
    paths: Vec<PathBuf>,
    cfg: &TrainConfig,
    prefetch: usize,
    opt: &mut Adam,
    bufs: &mut StepBuffers,
) -> Result<EpochRun, MvGnnError> {
    let batch_size = cfg.batch_size;
    let (tx, rx) = mpsc::sync_channel::<Result<Vec<LabeledSample>, ShardError>>(prefetch);
    // The producer owns the shard readers; one reused record buffer per
    // open shard, one pending batch. A send on a full ring blocks until
    // the optimizer catches up; a send after the consumer hung up
    // errors, which is the shutdown signal on early exit.
    let producer = std::thread::spawn(move || {
        let mut pending: Vec<LabeledSample> = Vec::with_capacity(batch_size);
        for path in &paths {
            let reader = match ShardReader::open(path) {
                Ok(r) => r,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            };
            for record in reader {
                match record {
                    Ok(sample) => {
                        pending.push(sample);
                        if pending.len() == batch_size {
                            let full = std::mem::replace(
                                &mut pending,
                                Vec::with_capacity(batch_size),
                            );
                            if tx.send(Ok(full)).is_err() {
                                return;
                            }
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
        }
        if !pending.is_empty() {
            let _ = tx.send(Ok(pending));
        }
    });

    let mut totals = EpochTotals::default();
    let mut complete = true;
    let mut failure = None;
    for message in &rx {
        match message {
            Ok(batch) => {
                let refs: Vec<&LabeledSample> = batch.iter().collect();
                if !totals.step(model, &refs, cfg, opt, bufs) {
                    complete = false;
                    break;
                }
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    // Dropping the receiver fails any blocked producer send, so the
    // thread always winds down; its panics (it has no panic sites of its
    // own) would surface here rather than vanish.
    drop(rx);
    if producer.join().is_err() {
        return Err(MvGnnError::Io(std::io::Error::other(
            "streaming producer thread panicked",
        )));
    }
    if let Some(e) = failure {
        return Err(MvGnnError::Shard(e));
    }
    if complete && totals.seen == 0 {
        return Err(MvGnnError::Config("streaming corpus contains no samples".into()));
    }
    Ok(totals.outcome(complete))
}

/// Train the model by streaming epochs over on-disk shards; returns
/// per-epoch telemetry exactly like [`crate::trainer::train`].
///
/// Semantics shared with the in-memory trainer (it is the same epoch
/// loop): divergence rolls back to the last completed epoch, halves the
/// learning rate and retries up to `cfg.max_retries` times;
/// `cfg.checkpoint_path` / `cfg.resume_from` work unchanged. Differences:
/// the shuffle is at shard granularity (see the module docs), and a
/// corrupt shard is a typed [`MvGnnError::Shard`] rather than a panic.
pub fn train_streaming(
    model: &mut MvGnn,
    shards: &[PathBuf],
    cfg: &TrainConfig,
    stream: &StreamConfig,
) -> Result<Vec<EpochStats>, MvGnnError> {
    if shards.is_empty() {
        return Err(MvGnnError::Config("no shard files given".into()));
    }
    if stream.prefetch == 0 {
        return Err(MvGnnError::Config("prefetch must be >= 1".into()));
    }
    let mut order: Vec<usize> = (0..shards.len()).collect();
    train_epochs(model, cfg, |model, epoch, opt, bufs| {
        // Deterministic shard-granularity shuffle.
        order.sort_by_key(|&i| mix(cfg.seed ^ epoch as u64, i as u64));
        let paths = order.iter().map(|&i| shards[i].clone()).collect();
        run_stream_epoch(model, paths, cfg, stream.prefetch, opt, bufs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MvGnn, MvGnnConfig};
    use crate::trainer::evaluate;
    use mvgnn_dataset::{fit_inst2vec, write_shard, CorpusConfig, Suite};
    use mvgnn_embed::Inst2VecConfig;
    use mvgnn_ir::transform::OptLevel;

    fn stream_cfg() -> CorpusConfig {
        CorpusConfig {
            seeds: vec![3, 4],
            opt_levels: vec![OptLevel::O0, OptLevel::O2],
            per_class: None,
            test_fraction: 0.25,
            suite: Some(Suite::PolyBench),
            inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
            sample: Default::default(),
            seed: 5,
            label_noise: 0.0,
            static_features: false,
        }
    }

    fn write_shards(dir: &std::path::Path, num_shards: usize) -> Vec<PathBuf> {
        std::fs::create_dir_all(dir).unwrap();
        let cfg = stream_cfg();
        let emb = fit_inst2vec(&cfg);
        (0..num_shards)
            .map(|s| write_shard(dir, &cfg, &emb, s, num_shards).unwrap().0)
            .collect()
    }

    fn model_for(shards: &[PathBuf]) -> MvGnn {
        let first = ShardReader::open(&shards[0]).unwrap().next().unwrap().unwrap();
        MvGnn::new(MvGnnConfig::small(first.sample.node_dim, first.sample.aw_vocab))
    }

    fn weight_bits(model: &MvGnn) -> Vec<Vec<u32>> {
        (0..model.params.len())
            .map(|i| {
                model.params.data(mvgnn_tensor::ParamId(i)).iter().map(|x| x.to_bits()).collect()
            })
            .collect()
    }

    #[test]
    fn streaming_is_deterministic_and_prefetch_invariant() {
        let dir = std::env::temp_dir().join("mvgnn_stream_det_test");
        let shards = write_shards(&dir, 3);
        let run = |prefetch: usize| {
            let mut model = model_for(&shards);
            let cfg = TrainConfig { epochs: 3, batch_size: 8, ..Default::default() };
            let stats =
                train_streaming(&mut model, &shards, &cfg, &StreamConfig { prefetch }).unwrap();
            (stats, weight_bits(&model))
        };
        let (stats_a, weights_a) = run(1);
        let (stats_b, weights_b) = run(6);
        assert_eq!(stats_a, stats_b, "telemetry must not depend on ring depth");
        assert!(weights_a == weights_b, "weights must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_trains_and_the_model_is_usable() {
        let dir = std::env::temp_dir().join("mvgnn_stream_train_test");
        let shards = write_shards(&dir, 2);
        let mut model = model_for(&shards);
        let cfg = TrainConfig { epochs: 8, batch_size: 8, ..Default::default() };
        let stats = train_streaming(&mut model, &shards, &cfg, &StreamConfig::default()).unwrap();
        assert_eq!(stats.len(), 8);
        assert!(
            stats.last().unwrap().loss < stats[0].loss,
            "loss should fall: {} -> {}",
            stats[0].loss,
            stats.last().unwrap().loss
        );
        // The streamed corpus is raw (unbalanced): evaluate on an
        // in-memory assembly of the same configuration to check the
        // weights are usable end-to-end.
        let ds = mvgnn_dataset::build_corpus(&stream_cfg());
        let m = evaluate(&model, &ds.test);
        assert_eq!(m.total(), ds.test.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_surfaces_typed_error_not_panic() {
        let dir = std::env::temp_dir().join("mvgnn_stream_corrupt_test");
        let shards = write_shards(&dir, 2);
        // Flip one payload byte near the end of the second shard.
        let mut bytes = std::fs::read(&shards[1]).unwrap();
        let at = bytes.len() - 9;
        bytes[at] ^= 0xff;
        std::fs::write(&shards[1], &bytes).unwrap();
        let mut model = model_for(&shards);
        let cfg = TrainConfig { epochs: 2, batch_size: 8, ..Default::default() };
        let err =
            train_streaming(&mut model, &shards, &cfg, &StreamConfig::default()).unwrap_err();
        assert!(matches!(err, MvGnnError::Shard(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_error_mid_epoch_restores_the_last_good_weights() {
        let dir = std::env::temp_dir().join("mvgnn_stream_mid_epoch_test");
        let shards = write_shards(&dir, 3);
        // Corrupt the last record of every shard, so whichever shard the
        // epoch visits first fails only after its intact records stepped.
        for shard in &shards {
            let mut bytes = std::fs::read(shard).unwrap();
            let at = bytes.len() - 9;
            bytes[at] ^= 0xff;
            std::fs::write(shard, &bytes).unwrap();
        }
        let mut model = model_for(&shards);
        let before = weight_bits(&model);
        let cfg = TrainConfig { epochs: 1, batch_size: 1, ..Default::default() };
        let err =
            train_streaming(&mut model, &shards, &cfg, &StreamConfig::default()).unwrap_err();
        assert!(matches!(err, MvGnnError::Shard(_)), "{err}");
        assert!(weight_bits(&model) == before, "a failed epoch must not move the weights");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_streaming_configs_fail_fast() {
        let dir = std::env::temp_dir().join("mvgnn_stream_cfg_test");
        let shards = write_shards(&dir, 1);
        let mut model = model_for(&shards);
        let empty = train_streaming(
            &mut model,
            &[],
            &TrainConfig::default(),
            &StreamConfig::default(),
        );
        assert!(matches!(empty, Err(MvGnnError::Config(_))));
        let bad_ring = train_streaming(
            &mut model,
            &shards,
            &TrainConfig::default(),
            &StreamConfig { prefetch: 0 },
        );
        assert!(matches!(bad_ring, Err(MvGnnError::Config(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
