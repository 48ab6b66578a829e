//! Streaming epochs over on-disk MVSH corpus shards.
//!
//! [`train_streaming`] is the trainer's out-of-core mode: instead of a
//! `&[LabeledSample]` held in memory, it takes a list of shard files
//! (written by `mvgnn_dataset::write_shard`) and runs the same
//! optimizer loop — gradient accumulation, divergence rollback,
//! checkpointing — while only ever holding the prefetch ring
//! plus one in-flight batch in memory. RSS is bounded by
//! `(prefetch + 2) × batch` regardless of corpus size.
//!
//! The epoch state machine:
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
//!    shared `step_batch` (pooled packing, reused gradient store, clip,
//!    Adam).
//!    A non-finite gradient aborts the epoch, drains the ring, and the
//!    caller's rollback loop restores the last good snapshot.
//! 4. A corrupt shard surfaces as a typed [`MvGnnError::Shard`]; the
//!    model keeps its last completed epoch's weights.

use crate::checkpoint::{read_checkpoint, write_checkpoint, Checkpoint};
use crate::error::MvGnnError;
use crate::model::MvGnn;
use crate::trainer::{mix, step_batch, EpochStats, StepBuffers, TrainConfig};
use mvgnn_dataset::{LabeledSample, MappedShardReader, ShardError, ShardReader};
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
    /// Read shards through [`MappedShardReader`] instead of buffered
    /// I/O: records decode straight out of the page cache with no read
    /// syscalls and no record buffer. Sample-for-sample (and therefore
    /// trained-weight-for-weight) identical to the buffered mode —
    /// pinned by `mmap_and_buffered_streaming_train_identically`.
    pub mmap: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { prefetch: 4, mmap: false }
    }
}

/// What one epoch's producer/consumer run observed.
enum StreamEpoch {
    Done { loss: f32, accuracy: f32 },
    Diverged { loss: f32 },
}

/// Open the chosen reader as a uniform record iterator. The two readers
/// yield identical samples for an intact shard and identical typed
/// errors for a corrupt one, so everything downstream is mode-blind.
fn open_records(
    path: &std::path::Path,
    mmap: bool,
) -> Result<Box<dyn Iterator<Item = Result<LabeledSample, ShardError>>>, ShardError> {
    Ok(if mmap {
        Box::new(MappedShardReader::open(path)?)
    } else {
        Box::new(ShardReader::open(path)?)
    })
}

fn run_stream_epoch(
    model: &mut MvGnn,
    shards: &[PathBuf],
    order: &[usize],
    cfg: &TrainConfig,
    stream: &StreamConfig,
    opt: &mut Adam,
    bufs: &mut StepBuffers,
) -> Result<StreamEpoch, MvGnnError> {
    let paths: Vec<PathBuf> = order.iter().map(|&i| shards[i].clone()).collect();
    let batch_size = cfg.batch_size;
    let mmap = stream.mmap;
    let (tx, rx) = mpsc::sync_channel::<Result<Vec<LabeledSample>, ShardError>>(stream.prefetch);
    // The producer owns the shard readers; one reused record buffer per
    // open shard (none at all in mmap mode), one pending batch. A send on
    // a full ring blocks until the optimizer catches up; a send after the
    // consumer hung up errors, which is the shutdown signal on early exit.
    let producer = std::thread::spawn(move || {
        let mut pending: Vec<LabeledSample> = Vec::with_capacity(batch_size);
        for path in &paths {
            let reader = match open_records(path, mmap) {
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

    let mut epoch_loss = 0.0f64;
    let mut epoch_correct = 0usize;
    let mut seen = 0usize;
    let mut outcome: Option<Result<StreamEpoch, MvGnnError>> = None;
    for message in &rx {
        match message {
            Ok(batch) => {
                let refs: Vec<&LabeledSample> = batch.iter().collect();
                match step_batch(model, &refs, cfg, opt, bufs) {
                    Some((loss, correct)) => {
                        epoch_loss += loss;
                        epoch_correct += correct;
                        seen += batch.len();
                    }
                    None => {
                        let loss = (epoch_loss / seen.max(1) as f64) as f32;
                        outcome = Some(Ok(StreamEpoch::Diverged { loss }));
                        break;
                    }
                }
            }
            Err(e) => {
                outcome = Some(Err(MvGnnError::Shard(e)));
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
    if let Some(early) = outcome {
        return early;
    }
    if seen == 0 {
        return Err(MvGnnError::Config("streaming corpus contains no samples".into()));
    }
    let loss = (epoch_loss / seen as f64) as f32;
    if !loss.is_finite() {
        return Ok(StreamEpoch::Diverged { loss });
    }
    Ok(StreamEpoch::Done { loss, accuracy: epoch_correct as f32 / seen as f32 })
}

/// Train the model by streaming epochs over on-disk shards; returns
/// per-epoch telemetry exactly like [`crate::trainer::train`].
///
/// Semantics shared with the in-memory trainer: divergence rolls back to
/// the last completed epoch, halves the learning rate and retries up to
/// `cfg.max_retries` times; `cfg.checkpoint_path` / `cfg.resume_from`
/// work unchanged. Differences: the shuffle is at shard granularity
/// (see the module docs), and a corrupt shard is a typed
/// [`MvGnnError::Shard`] rather than a panic.
pub fn train_streaming(
    model: &mut MvGnn,
    shards: &[PathBuf],
    cfg: &TrainConfig,
    stream: &StreamConfig,
) -> Result<Vec<EpochStats>, MvGnnError> {
    if shards.is_empty() {
        return Err(MvGnnError::Config("no shard files given".into()));
    }
    if cfg.batch_size == 0 {
        return Err(MvGnnError::Config("batch_size must be >= 1".into()));
    }
    if !cfg.lr.is_finite() || cfg.lr <= 0.0 {
        return Err(MvGnnError::Config(format!("lr must be finite and positive, got {}", cfg.lr)));
    }
    if stream.prefetch == 0 {
        return Err(MvGnnError::Config("prefetch must be >= 1".into()));
    }
    if cfg.epochs == 0 {
        return Ok(Vec::new());
    }

    let mut lr = cfg.lr;
    let mut retries = 0usize;
    let mut stats: Vec<EpochStats> = Vec::with_capacity(cfg.epochs);
    let mut start_epoch = 0usize;

    if let Some(path) = &cfg.resume_from {
        let cp = read_checkpoint(path)?;
        model.load(&cp.weights)?;
        lr = cp.lr;
        retries = cp.retries;
        stats = cp.stats;
        start_epoch = cp.epoch + 1;
    }

    let mut opt = Adam::new(lr);
    let mut last_good = model.save();
    let mut bufs = StepBuffers::new(model);
    let mut order: Vec<usize> = (0..shards.len()).collect();
    let mut epoch = start_epoch;
    while epoch < cfg.epochs {
        // Deterministic shard-granularity shuffle.
        order.sort_by_key(|&i| mix(cfg.seed ^ epoch as u64, i as u64));
        match run_stream_epoch(model, shards, &order, cfg, stream, &mut opt, &mut bufs)?
        {
            StreamEpoch::Done { loss, accuracy } => {
                stats.push(EpochStats { epoch, loss, accuracy });
                last_good = model.save();
                if let Some(path) = &cfg.checkpoint_path {
                    write_checkpoint(
                        path,
                        &Checkpoint {
                            epoch,
                            lr,
                            retries,
                            calibration: None,
                            stats: stats.clone(),
                            weights: last_good.to_vec(),
                        },
                    )?;
                }
                epoch += 1;
            }
            StreamEpoch::Diverged { loss } => {
                if retries >= cfg.max_retries {
                    return Err(MvGnnError::Diverged { epoch, retries, loss });
                }
                retries += 1;
                lr *= 0.5;
                model.load(&last_good)?;
                opt = Adam::new(lr);
            }
        }
    }
    Ok(stats)
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

    #[test]
    fn streaming_is_deterministic_and_prefetch_invariant() {
        let dir = std::env::temp_dir().join("mvgnn_stream_det_test");
        let shards = write_shards(&dir, 3);
        let run = |prefetch: usize| {
            let mut model = model_for(&shards);
            let cfg = TrainConfig { epochs: 3, batch_size: 8, ..Default::default() };
            let stats =
                train_streaming(&mut model, &shards, &cfg, &StreamConfig { prefetch, ..Default::default() }).unwrap();
            (stats, model.save().to_vec())
        };
        let (stats_a, weights_a) = run(1);
        let (stats_b, weights_b) = run(6);
        assert_eq!(stats_a, stats_b, "telemetry must not depend on ring depth");
        assert_eq!(weights_a, weights_b, "weights must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_and_buffered_streaming_train_identically() {
        let dir = std::env::temp_dir().join("mvgnn_stream_mmap_parity_test");
        let shards = write_shards(&dir, 3);
        let run = |mmap: bool| {
            let mut model = model_for(&shards);
            let cfg = TrainConfig { epochs: 3, batch_size: 8, ..Default::default() };
            let stream = StreamConfig { mmap, ..Default::default() };
            let stats = train_streaming(&mut model, &shards, &cfg, &stream).unwrap();
            (stats, model.save().to_vec())
        };
        let (stats_buf, weights_buf) = run(false);
        let (stats_map, weights_map) = run(true);
        assert_eq!(stats_buf, stats_map, "telemetry must not depend on the read path");
        // `save()` snapshots raw weight bytes, so equality is bit-level.
        assert_eq!(weights_buf, weights_map, "zero-copy mode must train bit-identically");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_streaming_surfaces_corruption_typed() {
        let dir = std::env::temp_dir().join("mvgnn_stream_mmap_corrupt_test");
        let shards = write_shards(&dir, 2);
        let mut bytes = std::fs::read(&shards[0]).unwrap();
        let at = bytes.len() - 9;
        bytes[at] ^= 0xff;
        std::fs::write(&shards[0], &bytes).unwrap();
        let mut model = model_for(&shards);
        let cfg = TrainConfig { epochs: 2, batch_size: 8, ..Default::default() };
        let err = train_streaming(
            &mut model,
            &shards,
            &cfg,
            &StreamConfig { mmap: true, ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, MvGnnError::Shard(_)), "{err}");
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
            &StreamConfig { prefetch: 0, ..Default::default() },
        );
        assert!(matches!(bad_ring, Err(MvGnnError::Config(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
