//! Mini-batch training with divergence recovery and checkpoint/resume.
//!
//! Each optimizer step runs one packed forward and backward pass over
//! the whole batch on the calling thread. The tape reads the weights
//! through `&Params` and accumulates gradients into one [`GradStore`]
//! that the run reuses (zeroed in place) for every step, so the trained
//! bits depend only on the data and the configuration, never on the
//! machine's core count.
//!
//! Robustness: the trainer snapshots the weights (a clone of the
//! parameter store) after every completed epoch. If an epoch produces a
//! non-finite loss or gradient norm it rolls back to the last good
//! snapshot, halves the learning rate, resets the optimizer moments,
//! and retries; after [`TrainConfig::max_retries`] rollbacks it gives up
//! with [`MvGnnError::Diverged`]. Any error leaves the model at its last
//! completed epoch. When [`TrainConfig::checkpoint_path`] is set, each
//! completed epoch is also persisted atomically so an interrupted run
//! can continue via [`TrainConfig::resume_from`].

use crate::checkpoint::{write_checkpoint, CheckpointMeta, MappedCheckpoint};
use crate::error::MvGnnError;
use crate::fault::FaultPlan;
use crate::model::MvGnn;
use mvgnn_dataset::LabeledSample;
use mvgnn_embed::GraphBatch;
use mvgnn_tensor::optim::{clip_grad_norm, Adam};
use mvgnn_tensor::tape::{argmax_rows, GradStore, Tape};
use mvgnn_tensor::Workspace;
use std::path::PathBuf;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate. The paper trains with lr 1e-5 for 200 epochs
    /// under a different optimizer scale; defaults here converge to the
    /// same plateau in CI time.
    pub lr: f32,
    /// Gradient clip (global L2 norm).
    pub clip: f32,
    /// Weight of the per-view auxiliary losses (trains the Fig. 8 heads).
    pub aux_weight: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// Divergence rollbacks allowed before training fails.
    pub max_retries: usize,
    /// When set, write an atomic checkpoint here after every epoch.
    pub checkpoint_path: Option<PathBuf>,
    /// When set, restore weights/lr/telemetry from this checkpoint and
    /// continue from the following epoch.
    pub resume_from: Option<PathBuf>,
    /// Deterministic fault injection (robustness tests only).
    pub fault: Option<FaultPlan>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 16,
            lr: 1e-3,
            clip: 10.0,
            aux_weight: 0.3,
            seed: 42,
            max_retries: 3,
            checkpoint_path: None,
            resume_from: None,
            fault: None,
        }
    }
}

/// Telemetry for one epoch (the series plotted in Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f32,
    /// Training accuracy.
    pub accuracy: f32,
}

fn mix(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// Buffers one training run reuses across every step: the pool the
/// batches are packed from and the tapes run on, and the gradient store
/// each step's backward pass accumulates into.
struct StepBuffers {
    ws: Workspace,
    grads: GradStore,
}

impl StepBuffers {
    fn new(model: &MvGnn) -> Self {
        Self { ws: Workspace::new(), grads: GradStore::zeros_like(&model.params) }
    }
}

/// One packed forward and backward pass over every sample of the batch,
/// adding the gradients into `bufs.grads`; returns the batch's
/// `(summed loss, correct count)`. The weights are only read.
///
/// `softmax_ce` averages over the batch rows, so the loss is rescaled by
/// the batch size before `backward` to keep the historical
/// sum-of-per-sample-losses gradient semantics.
fn batch_grads(
    model: &MvGnn,
    batch: &[&LabeledSample],
    aux_weight: f32,
    bufs: &mut StepBuffers,
) -> (f64, usize) {
    let temperature = model.cfg.temperature;
    let classes = model.cfg.classes;
    let samples: Vec<&mvgnn_embed::GraphSample> = batch.iter().map(|s| &s.sample).collect();
    let labels: Vec<usize> = batch.iter().map(|s| s.label).collect();
    // Pooled packing and tape: once the workspace is warm a step
    // allocates no tensor buffers, and everything goes back to the pool
    // below — per-step RSS is bounded by the largest batch, not the
    // batch count.
    let packed = GraphBatch::from_samples_in(&mut bufs.ws, &samples);

    let mut tape = Tape::with_workspace(&model.params, std::mem::take(&mut bufs.ws));
    let fwd = model.forward_batch(&mut tape, &packed);
    let preds = argmax_rows(tape.data(fwd.logits), batch.len(), classes);
    let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();

    let mut loss = tape.softmax_ce(fwd.logits, &labels, temperature);
    for aux in fwd.view_logits.iter().copied().flatten() {
        // In single-view modes the view head IS the main head; adding
        // its loss again would double-count.
        if aux == fwd.logits {
            continue;
        }
        let al = tape.softmax_ce(aux, &labels, temperature);
        let scaled = tape.scale(al, aux_weight);
        loss = tape.add(loss, scaled);
    }
    let total = tape.scale(loss, batch.len() as f32);
    let loss_sum = tape.data(total)[0] as f64;
    tape.backward_into(total, &mut bufs.grads);
    bufs.ws = tape.finish();
    packed.recycle(&mut bufs.ws);
    (loss_sum, correct)
}

/// Outcome of one epoch over the data.
enum EpochRun {
    Done { loss: f32, accuracy: f32 },
    /// A non-finite loss or gradient norm was observed; carries the
    /// offending value for diagnostics.
    Diverged { loss: f32 },
}

/// Running totals of one epoch's optimizer steps.
#[derive(Default)]
struct EpochTotals {
    loss: f64,
    correct: usize,
    seen: usize,
}

impl EpochTotals {
    /// One optimizer step over one batch: gradient accumulation into the
    /// zeroed reused store, clip, step. Returns `false` when a
    /// non-finite gradient norm was observed (the step is NOT applied).
    fn step(
        &mut self,
        model: &mut MvGnn,
        batch: &[&LabeledSample],
        cfg: &TrainConfig,
        opt: &mut Adam,
        bufs: &mut StepBuffers,
    ) -> bool {
        bufs.grads.zero();
        let (loss, correct) = batch_grads(model, batch, cfg.aux_weight, bufs);
        // clip_grad_norm returns the PRE-clip norm, so a NaN/Inf gradient
        // anywhere in the store surfaces here — bail before the optimizer
        // step can smear it into the weights.
        let grad_norm = clip_grad_norm(&mut bufs.grads, cfg.clip);
        if !grad_norm.is_finite() {
            return false;
        }
        opt.step(&mut model.params, &bufs.grads);
        self.loss += loss;
        self.correct += correct;
        self.seen += batch.len();
        true
    }

    /// The epoch's outcome; `complete` is false when a step diverged.
    fn outcome(&self, complete: bool) -> EpochRun {
        let loss = (self.loss / self.seen.max(1) as f64) as f32;
        if !complete || !loss.is_finite() {
            return EpochRun::Diverged { loss };
        }
        EpochRun::Done { loss, accuracy: self.correct as f32 / self.seen as f32 }
    }
}

/// Train the model; returns per-epoch telemetry.
///
/// Each epoch shuffles the data deterministically (keyed by
/// [`TrainConfig::seed`] and the epoch) and takes one optimizer step per
/// [`TrainConfig::batch_size`] samples; rollback, checkpointing and
/// resume work as the module docs describe.
///
/// Fails fast with [`MvGnnError::Config`] on an invalid configuration,
/// and with [`MvGnnError::Diverged`] if training keeps producing
/// non-finite losses after exhausting the rollback budget. Any error
/// leaves the model at its last completed epoch's weights. `epochs == 0`
/// is a valid no-op and returns an empty telemetry vector.
pub fn train(
    model: &mut MvGnn,
    data: &[LabeledSample],
    cfg: &TrainConfig,
) -> Result<Vec<EpochStats>, MvGnnError> {
    if data.is_empty() {
        return Err(MvGnnError::Config("training set is empty".into()));
    }
    if cfg.batch_size == 0 {
        return Err(MvGnnError::Config("batch_size must be >= 1".into()));
    }
    if !cfg.lr.is_finite() || cfg.lr <= 0.0 {
        return Err(MvGnnError::Config(format!("lr must be finite and positive, got {}", cfg.lr)));
    }
    if cfg.epochs == 0 {
        return Ok(Vec::new());
    }

    let mut lr = cfg.lr;
    let mut retries = 0usize;
    let mut stats: Vec<EpochStats> = Vec::with_capacity(cfg.epochs);
    let mut epoch = 0usize;
    if let Some(path) = &cfg.resume_from {
        // The weights stay mapped until the first optimizer step copies
        // each tensor on write.
        let cp = MappedCheckpoint::open(path)?;
        cp.install(&mut model.params)?;
        let meta = cp.meta();
        lr = meta.lr;
        retries = meta.retries;
        stats = meta.stats.clone();
        epoch = meta.epoch + 1;
    }

    let mut opt = Adam::new(lr);
    let mut last_good = model.params.clone();
    let mut fault_armed = cfg.fault.as_ref().and_then(|f| f.poison_at_epoch).is_some();
    let mut bufs = StepBuffers::new(model);
    let mut order: Vec<usize> = (0..data.len()).collect();
    while epoch < cfg.epochs {
        if let Some(plan) = &cfg.fault {
            if plan.poison_at_epoch == Some(epoch) && (fault_armed || plan.persistent) {
                plan.poison_params(&mut model.params, 2);
                fault_armed = false;
            }
        }
        // Deterministic shuffle.
        order.sort_by_key(|&i| mix(cfg.seed ^ epoch as u64, i as u64));
        let mut totals = EpochTotals::default();
        let complete = order.chunks(cfg.batch_size).all(|idx| {
            let batch: Vec<&LabeledSample> = idx.iter().map(|&i| &data[i]).collect();
            totals.step(model, &batch, cfg, &mut opt, &mut bufs)
        });
        match totals.outcome(complete) {
            EpochRun::Done { loss, accuracy } => {
                stats.push(EpochStats { epoch, loss, accuracy });
                last_good = model.params.clone();
                if let Some(path) = &cfg.checkpoint_path {
                    let meta = CheckpointMeta {
                        epoch,
                        lr,
                        retries,
                        calibration: None,
                        stats: stats.clone(),
                    };
                    write_checkpoint(path, &meta, &model.params)?;
                }
                epoch += 1;
            }
            EpochRun::Diverged { loss } => {
                if retries >= cfg.max_retries {
                    model.params = last_good;
                    return Err(MvGnnError::Diverged { epoch, retries, loss });
                }
                retries += 1;
                lr *= 0.5;
                model.params = last_good.clone();
                opt = Adam::new(lr);
            }
        }
    }
    Ok(stats)
}

/// Evaluate accuracy on a sample slice (packed batched inference;
/// predictions match the per-sample path exactly).
pub fn evaluate(model: &MvGnn, data: &[LabeledSample]) -> mvgnn_baselines::Metrics {
    let mut m = mvgnn_baselines::Metrics::default();
    let mut ws = Workspace::new();
    for chunk in data.chunks(32) {
        let samples: Vec<&mvgnn_embed::GraphSample> = chunk.iter().map(|s| &s.sample).collect();
        let preds = model.forward_rows(&mut ws, &samples).predictions();
        for (pred, s) in preds.into_iter().zip(chunk) {
            m.record(pred, s.label);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MvGnnConfig;
    use mvgnn_dataset::{build_corpus, CorpusConfig, Suite};
    use mvgnn_embed::Inst2VecConfig;
    use mvgnn_ir::transform::OptLevel;

    fn predictions(model: &MvGnn, data: &[LabeledSample]) -> Vec<usize> {
        let samples: Vec<&mvgnn_embed::GraphSample> = data.iter().map(|s| &s.sample).collect();
        model.forward_rows(&mut Workspace::new(), &samples).predictions()
    }

    fn tiny_dataset() -> mvgnn_dataset::Dataset {
        build_corpus(&CorpusConfig {
            seeds: vec![3],
            opt_levels: vec![OptLevel::O0],
            per_class: Some(24),
            test_fraction: 0.25,
            suite: Some(Suite::PolyBench),
            inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
            sample: Default::default(),
            seed: 5,
            label_noise: 0.0,
            static_features: false,
        })
    }

    fn tiny_model(ds: &mvgnn_dataset::Dataset) -> MvGnn {
        let s0 = &ds.train[0].sample;
        MvGnn::new(MvGnnConfig::small(s0.node_dim, s0.aw_vocab))
    }

    #[test]
    fn training_improves_over_initial() {
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds);
        let cfg = TrainConfig { epochs: 12, batch_size: 8, ..Default::default() };
        let stats = train(&mut model, &ds.train, &cfg).unwrap();
        assert_eq!(stats.len(), 12);
        let first = stats[0];
        let last = stats.last().unwrap();
        assert!(
            last.loss < first.loss,
            "loss should fall: {} -> {}",
            first.loss,
            last.loss
        );
        assert!(last.accuracy >= 0.6, "train accuracy {}", last.accuracy);
    }

    #[test]
    fn evaluate_reports_metrics() {
        let ds = tiny_dataset();
        let model = tiny_model(&ds);
        let m = evaluate(&model, &ds.test);
        assert_eq!(m.total(), ds.test.len());
    }

    fn weight_bits(model: &MvGnn) -> Vec<Vec<u32>> {
        (0..model.params.len())
            .map(|i| {
                model.params.data(mvgnn_tensor::ParamId(i)).iter().map(|x| x.to_bits()).collect()
            })
            .collect()
    }

    #[test]
    fn zero_epochs_is_a_no_op() {
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds);
        let before = weight_bits(&model);
        let cfg = TrainConfig { epochs: 0, ..Default::default() };
        let stats = train(&mut model, &ds.train, &cfg).unwrap();
        assert!(stats.is_empty());
        assert!(weight_bits(&model) == before, "weights must be untouched");
    }

    #[test]
    fn invalid_configs_fail_fast() {
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds);
        let empty = train(&mut model, &[], &TrainConfig::default());
        assert!(matches!(empty, Err(MvGnnError::Config(_))));
        let bad_batch =
            train(&mut model, &ds.train, &TrainConfig { batch_size: 0, ..Default::default() });
        assert!(matches!(bad_batch, Err(MvGnnError::Config(_))));
        let bad_lr =
            train(&mut model, &ds.train, &TrainConfig { lr: f32::NAN, ..Default::default() });
        assert!(matches!(bad_lr, Err(MvGnnError::Config(_))));
    }

    #[test]
    fn divergence_rolls_back_and_recovers() {
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 8,
            fault: Some(FaultPlan::new(7).poison_weights_at(2)),
            ..Default::default()
        };
        let stats = train(&mut model, &ds.train, &cfg).unwrap();
        assert_eq!(stats.len(), 4, "all epochs must complete after rollback");
        assert!(stats.iter().all(|s| s.loss.is_finite()));
        // The recovered weights must be usable.
        let m = evaluate(&model, &ds.test);
        assert_eq!(m.total(), ds.test.len());
    }

    #[test]
    fn persistent_divergence_exhausts_retries() {
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 8,
            max_retries: 2,
            fault: Some(FaultPlan::new(7).poison_weights_at(1).persistent()),
            ..Default::default()
        };
        match train(&mut model, &ds.train, &cfg) {
            Err(MvGnnError::Diverged { epoch, retries, .. }) => {
                assert_eq!(epoch, 1);
                assert_eq!(retries, 2);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_resume_continues_training() {
        let dir = std::env::temp_dir().join("mvgnn_trainer_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("train.ckpt");
        let ds = tiny_dataset();

        // Full 6-epoch reference run with checkpointing enabled.
        let mut reference = tiny_model(&ds);
        let full_cfg = TrainConfig {
            epochs: 6,
            batch_size: 8,
            checkpoint_path: Some(ckpt.clone()),
            ..Default::default()
        };
        let full = train(&mut reference, &ds.train, &full_cfg).unwrap();

        // Interrupted run: stop after 3 epochs, then resume to 6.
        let mut model = tiny_model(&ds);
        let half_cfg = TrainConfig { epochs: 3, ..full_cfg.clone() };
        train(&mut model, &ds.train, &half_cfg).unwrap();
        let mut resumed = tiny_model(&ds);
        let resume_cfg = TrainConfig { resume_from: Some(ckpt.clone()), ..full_cfg.clone() };
        let rest = train(&mut resumed, &ds.train, &resume_cfg).unwrap();

        assert_eq!(rest.len(), 6, "resume must carry prior telemetry forward");
        assert_eq!(&rest[..3], &full[..3]);
        let preds_full = predictions(&reference, &ds.test);
        let preds_res = predictions(&resumed, &ds.test);
        assert_eq!(preds_full, preds_res, "resumed run must match the uninterrupted one");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_not_panicked() {
        let dir = std::env::temp_dir().join("mvgnn_trainer_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("bad.ckpt");
        std::fs::write(&ckpt, b"MVCKgarbage that is definitely not a checkpoint").unwrap();
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds);
        let cfg = TrainConfig { resume_from: Some(ckpt), epochs: 2, ..Default::default() };
        let err = train(&mut model, &ds.train, &cfg).unwrap_err();
        assert!(matches!(err, MvGnnError::Checkpoint(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
