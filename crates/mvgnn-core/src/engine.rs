//! Concurrent inference engine: fan a stream of samples over worker
//! threads as packed batches, preserving input order.
//!
//! The engine wraps an [`Arc<MvGnn>`] — the weights are an immutable
//! value store ([`mvgnn_tensor::Params`]) and every forward pass owns a
//! private tape, so any number of workers can run inference on the same
//! model without locks or weight clones.
//!
//! The one execution method, [`InferenceEngine::forward_stream`], is the
//! stream form of [`MvGnn::forward_rows`]. Determinism contract: the
//! stream is cut into fixed-size batches *before* dispatch, workers pull
//! whole batches, and results are merged back in input order. Batch
//! boundaries depend only on [`EngineConfig::batch_size`], never on the
//! thread count or scheduling, so every head's logits are bit-identical
//! at 1, 2, or 8 threads — and identical to calling
//! [`MvGnn::forward_rows`] sequentially over the same batches.

use crate::error::MvGnnError;
use crate::model::{MvGnn, RowOutputs};
use mvgnn_embed::GraphSample;
use mvgnn_tensor::Workspace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. Values are clamped to at least 1; more threads
    /// than batches is harmless (the surplus workers exit immediately).
    pub threads: usize,
    /// Samples per packed forward pass. This — not `threads` — fixes the
    /// batch boundaries, and with them the f32 summation order.
    pub batch_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { threads, batch_size: 32 }
    }
}

impl EngineConfig {
    /// Check the configuration for degenerate values. `threads == 0` and
    /// `batch_size == 0` are configuration mistakes, not tuning choices —
    /// both would otherwise reach the dispatcher and silently behave as
    /// one. Long-running callers (the `mvgnn-serve` front door) construct
    /// engines through [`InferenceEngine::try_new`], which rejects them
    /// here as a typed [`MvGnnError::Config`].
    pub fn validate(&self) -> Result<(), MvGnnError> {
        if self.threads == 0 {
            return Err(MvGnnError::Config("engine threads must be >= 1 (got 0)".into()));
        }
        if self.batch_size == 0 {
            return Err(MvGnnError::Config("engine batch_size must be >= 1 (got 0)".into()));
        }
        Ok(())
    }
}

/// Order-preserving concurrent inference over a shared model.
///
/// Each worker checks a [`Workspace`] out of a shared pool for the
/// duration of a stream call and returns it afterwards, so the pools —
/// and with them the tape's recycled buffers — persist across calls:
/// after the first stream the steady state allocates (almost) nothing.
#[derive(Clone)]
pub struct InferenceEngine {
    model: Arc<MvGnn>,
    cfg: EngineConfig,
    workspaces: Arc<Mutex<Vec<Workspace>>>,
}

impl InferenceEngine {
    /// Build an engine over a shared model. Zero `threads`/`batch_size`
    /// are treated as 1 — interactive callers get a working engine no
    /// matter what; services that would rather fail loudly use
    /// [`Self::try_new`].
    pub fn new(model: Arc<MvGnn>, cfg: EngineConfig) -> Self {
        let cfg = EngineConfig {
            threads: cfg.threads.max(1),
            batch_size: cfg.batch_size.max(1),
        };
        Self { model, cfg, workspaces: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Build an engine, rejecting a degenerate [`EngineConfig`] with a
    /// typed [`MvGnnError::Config`] instead of clamping it.
    pub fn try_new(model: Arc<MvGnn>, cfg: EngineConfig) -> Result<Self, MvGnnError> {
        cfg.validate()?;
        Ok(Self { model, cfg, workspaces: Arc::new(Mutex::new(Vec::new())) })
    }

    /// The shared model.
    pub fn model(&self) -> &Arc<MvGnn> {
        &self.model
    }

    /// The (clamped) configuration.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Samples handed to a worker per dispenser pull for an `n`-sample
    /// stream: `max(batch_size, n / (threads · 4))`, rounded down to a
    /// whole number of batches. Small inputs keep per-batch dispatch;
    /// large ones amortise the dispenser and merge overhead while still
    /// leaving ~4 pulls per worker for load balancing. Because the
    /// dispatch size is a multiple of `batch_size`, batch *boundaries*
    /// (and so the f32 summation order) are untouched.
    pub fn dispatch_chunk(&self, n: usize) -> usize {
        let b = self.cfg.batch_size;
        let target = n / (self.cfg.threads * 4);
        (target / b).max(1) * b
    }

    /// Check a workspace out of the shared pool (fresh if none parked).
    fn checkout(&self) -> Workspace {
        self.workspaces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    /// Park a workspace for the next stream call.
    fn checkin(&self, ws: Workspace) {
        self.workspaces.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(ws);
    }

    /// Summed buffer-pool counters of the parked workspaces. Between
    /// stream calls every worker's workspace is parked, so this is the
    /// engine-wide total; `misses` flat across calls means the steady
    /// state is allocation-free.
    pub fn workspace_stats(&self) -> mvgnn_tensor::WorkspaceStats {
        let pool = self.workspaces.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut agg = mvgnn_tensor::WorkspaceStats::default();
        for ws in pool.iter() {
            let s = ws.stats();
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.resident += s.resident;
        }
        agg
    }

    /// Run [`MvGnn::forward_rows`] over every `batch_size`-sample batch
    /// of `samples` on up to `threads` workers and splice the rows back
    /// into input order. Workers pull [`Self::dispatch_chunk`]-sized
    /// slices through an atomic counter and cut them into `batch_size`
    /// batches locally, so thread count affects only *who* computes a
    /// batch, never which rows it holds. Each worker runs every batch
    /// against one pooled [`Workspace`]. A panicking worker is resumed on
    /// the caller thread (its workspace is abandoned, not corrupted).
    ///
    /// Rows are row-local, so a damaged sample's non-finite heads never
    /// reach its batch-mates; [`RowOutputs::checked`] of a row equals
    /// the single-sample verdict.
    pub fn forward_stream(&self, samples: &[&GraphSample]) -> RowOutputs {
        let run = |ws: &mut Workspace, slice: &[&GraphSample]| {
            let mut rows = RowOutputs::default();
            for batch in slice.chunks(self.cfg.batch_size) {
                rows.append(self.model.forward_rows(ws, batch));
            }
            rows
        };
        if samples.is_empty() {
            return RowOutputs::default();
        }
        let chunks: Vec<&[&GraphSample]> =
            samples.chunks(self.dispatch_chunk(samples.len())).collect();
        let threads = self.cfg.threads.min(chunks.len());
        if threads == 1 {
            let mut ws = self.checkout();
            let out = run(&mut ws, samples);
            self.checkin(ws);
            return out;
        }
        let next = AtomicUsize::new(0);
        let mut parts: Vec<(usize, RowOutputs)> = Vec::with_capacity(chunks.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut ws = self.checkout();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(chunk) = chunks.get(i) else { break };
                            local.push((i, run(&mut ws, chunk)));
                        }
                        self.checkin(ws);
                        local
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(local) => parts.extend(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        parts.sort_by_key(|(i, _)| *i);
        let mut out = RowOutputs::default();
        for (_, rows) in parts {
            out.append(rows);
        }
        out
    }
}

/// How a generation's weights got into memory — part of the census a
/// serving fleet reports per response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Every tensor in an owned buffer: freshly initialised or trained
    /// weights, or a checkpoint whose tensors were all copied on write.
    Eager,
    /// At least one tensor viewed zero-copy out of a mapped checkpoint
    /// (`MappedCheckpoint::install`).
    Mapped,
}

impl std::fmt::Display for LoadMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadMode::Eager => write!(f, "eager"),
            LoadMode::Mapped => write!(f, "mapped"),
        }
    }
}

/// Identity card of one weight generation: which swap installed it,
/// where its bytes came from, and how they were loaded. Cheap to clone
/// into every response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryCensus {
    /// Monotonic generation counter (0 = the registry's initial model).
    pub generation: u64,
    /// Artifact path or a caller-chosen label (e.g. `"in-memory"`).
    pub source: String,
    /// How the weights were loaded.
    pub load_mode: LoadMode,
}

/// One immutable weight generation: the model plus its census. Requests
/// capture an `Arc<ModelGeneration>` at admission and carry it to
/// dispatch, so a swap can never change the weights under a batch that
/// was already admitted.
pub struct ModelGeneration {
    /// The shared model of this generation.
    pub model: Arc<MvGnn>,
    /// Provenance surfaced in serve responses.
    pub census: RegistryCensus,
}

impl std::fmt::Debug for ModelGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelGeneration").field("census", &self.census).finish_non_exhaustive()
    }
}

/// Hot-swappable model registry: an atomically replaceable
/// [`ModelGeneration`]. [`ModelRegistry::current`] is a short
/// lock-clone of an `Arc` (no contention in steady state);
/// [`ModelRegistry::swap`] validates architecture compatibility and
/// publishes the new generation for *subsequent* admissions only —
/// in-flight work keeps the generation it captured, which is the whole
/// zero-downtime rollout story.
pub struct ModelRegistry {
    current: Mutex<Arc<ModelGeneration>>,
    swaps: std::sync::atomic::AtomicU64,
}

impl ModelRegistry {
    /// Derive the census load mode from the store itself: any mapped
    /// tensor means the artifact is being served zero-copy.
    fn mode_of(model: &MvGnn) -> LoadMode {
        if model.params.mapped_tensor_count() > 0 {
            LoadMode::Mapped
        } else {
            LoadMode::Eager
        }
    }

    /// Start a registry at generation 0 with `model`, recording where it
    /// came from.
    pub fn new(model: Arc<MvGnn>, source: impl Into<String>) -> Self {
        let census =
            RegistryCensus { generation: 0, source: source.into(), load_mode: Self::mode_of(&model) };
        ModelRegistry {
            current: Mutex::new(Arc::new(ModelGeneration { model, census })),
            swaps: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The live generation; callers hold the returned `Arc` for as long
    /// as their request is in flight.
    pub fn current(&self) -> Arc<ModelGeneration> {
        Arc::clone(&self.current.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Generation id of the live model.
    pub fn generation(&self) -> u64 {
        self.current().census.generation
    }

    /// Publish a new generation. The replacement must be
    /// architecture-compatible with the live model (same `node_dim`,
    /// `aw_vocab` and class count — anything else would invalidate the
    /// serve layer's shape gate mid-flight); an incompatible swap is
    /// refused with a typed [`MvGnnError::Config`] and the live
    /// generation stays untouched. Returns the new generation id.
    pub fn swap(&self, model: Arc<MvGnn>, source: impl Into<String>) -> Result<u64, MvGnnError> {
        let live = self.current();
        let (a, b) = (&live.model.cfg, &model.cfg);
        if a.node_dim != b.node_dim || a.aw_vocab != b.aw_vocab || a.classes != b.classes {
            return Err(MvGnnError::Config(format!(
                "swap rejected: incompatible architecture (live node_dim/aw_vocab/classes \
                 {}/{}/{} vs candidate {}/{}/{})",
                a.node_dim, a.aw_vocab, a.classes, b.node_dim, b.aw_vocab, b.classes
            )));
        }
        let generation = self.swaps.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let census =
            RegistryCensus { generation, source: source.into(), load_mode: Self::mode_of(&model) };
        let fresh = Arc::new(ModelGeneration { model, census });
        *self.current.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = fresh;
        Ok(generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::model::MvGnnConfig;
    use mvgnn_dataset::{build_corpus, CorpusConfig, Suite};
    use mvgnn_embed::Inst2VecConfig;
    use mvgnn_ir::transform::OptLevel;

    fn tiny_dataset() -> mvgnn_dataset::Dataset {
        build_corpus(&CorpusConfig {
            seeds: vec![4],
            opt_levels: vec![OptLevel::O0],
            per_class: Some(16),
            test_fraction: 0.5,
            suite: Some(Suite::PolyBench),
            inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 4 },
            sample: Default::default(),
            seed: 6,
            label_noise: 0.0,
            static_features: false,
        })
    }

    fn tiny_model(ds: &mvgnn_dataset::Dataset) -> MvGnn {
        let s0 = &ds.train[0].sample;
        MvGnn::new(MvGnnConfig::small(s0.node_dim, s0.aw_vocab))
    }

    #[test]
    fn stream_matches_sequential_at_any_thread_count() {
        let ds = tiny_dataset();
        let model = Arc::new(tiny_model(&ds));
        let samples: Vec<&mvgnn_embed::GraphSample> =
            ds.test.iter().map(|s| &s.sample).collect();
        let reference: Vec<usize> = samples
            .chunks(3)
            .flat_map(|c| model.forward_rows(&mut Workspace::new(), c).predictions())
            .collect();
        for threads in [1, 2, 8] {
            let eng = InferenceEngine::new(
                Arc::clone(&model),
                EngineConfig { threads, batch_size: 3 },
            );
            assert_eq!(eng.forward_stream(&samples).predictions(), reference, "threads={threads}");
        }
    }

    #[test]
    fn logits_are_bit_identical_across_threads() {
        let ds = tiny_dataset();
        let model = Arc::new(tiny_model(&ds));
        let samples: Vec<&mvgnn_embed::GraphSample> =
            ds.test.iter().map(|s| &s.sample).collect();
        let one =
            InferenceEngine::new(Arc::clone(&model), EngineConfig { threads: 1, batch_size: 4 });
        let many =
            InferenceEngine::new(Arc::clone(&model), EngineConfig { threads: 8, batch_size: 4 });
        let a = one.forward_stream(&samples);
        let b = many.forward_stream(&samples);
        assert_eq!(a.len(), b.len());
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for g in 0..a.len() {
            assert_eq!(bits(a.fused(g)), bits(b.fused(g)));
        }
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let ds = tiny_dataset();
        let eng = InferenceEngine::new(Arc::new(tiny_model(&ds)), EngineConfig::default());
        assert!(eng.forward_stream(&[]).is_empty());
    }

    #[test]
    fn zero_config_clamps_to_one() {
        let ds = tiny_dataset();
        let eng = InferenceEngine::new(
            Arc::new(tiny_model(&ds)),
            EngineConfig { threads: 0, batch_size: 0 },
        );
        assert_eq!(eng.config(), EngineConfig { threads: 1, batch_size: 1 });
        let samples: Vec<&mvgnn_embed::GraphSample> =
            ds.test.iter().take(3).map(|s| &s.sample).collect();
        assert_eq!(eng.forward_stream(&samples).len(), 3);
    }

    #[test]
    fn degenerate_config_is_a_typed_error() {
        let ds = tiny_dataset();
        let model = Arc::new(tiny_model(&ds));
        for cfg in [
            EngineConfig { threads: 0, batch_size: 8 },
            EngineConfig { threads: 2, batch_size: 0 },
        ] {
            assert!(matches!(cfg.validate(), Err(MvGnnError::Config(_))), "{cfg:?}");
            assert!(matches!(
                InferenceEngine::try_new(Arc::clone(&model), cfg),
                Err(MvGnnError::Config(_))
            ));
        }
        let ok = EngineConfig { threads: 2, batch_size: 8 };
        assert!(ok.validate().is_ok());
        assert!(InferenceEngine::try_new(model, ok).is_ok());
    }

    #[test]
    fn stream_checked_rows_match_the_cascade_primitive() {
        let ds = tiny_dataset();
        let model = Arc::new(tiny_model(&ds));
        let samples: Vec<&mvgnn_embed::GraphSample> =
            ds.test.iter().take(5).map(|s| &s.sample).collect();
        let eng = InferenceEngine::new(
            Arc::clone(&model),
            EngineConfig { threads: 1, batch_size: 5 },
        );
        let rows = eng.forward_stream(&samples);
        let checked: Vec<_> = (0..rows.len()).map(|g| rows.checked(g)).collect();
        let primitive = crate::Cascade::gnn_batch(&model, &mut Workspace::new(), &samples);
        assert_eq!(checked, primitive);
        // The pooled workspace is parked again after the call.
        let resident_before = eng.workspace_stats().resident;
        let _ = eng.forward_stream(&samples);
        assert!(eng.workspace_stats().resident >= resident_before);
    }

    #[test]
    fn dispatch_chunks_are_whole_batches() {
        let ds = tiny_dataset();
        let eng = InferenceEngine::new(
            Arc::new(tiny_model(&ds)),
            EngineConfig { threads: 4, batch_size: 32 },
        );
        // Small stream: one batch per pull.
        assert_eq!(eng.dispatch_chunk(40), 32);
        // Large stream: bigger pulls, but always a multiple of the batch
        // size so batch boundaries (and f32 summation order) never move.
        let big = eng.dispatch_chunk(10_000);
        assert!(big > 32);
        assert_eq!(big % 32, 0);
    }

    #[test]
    fn steady_state_reuses_pooled_buffers() {
        let ds = tiny_dataset();
        let model = Arc::new(tiny_model(&ds));
        let samples: Vec<&mvgnn_embed::GraphSample> =
            ds.test.iter().map(|s| &s.sample).collect();
        let eng = InferenceEngine::new(
            Arc::clone(&model),
            EngineConfig { threads: 1, batch_size: 4 },
        );
        let first = eng.forward_stream(&samples);
        let warm_misses = eng.workspace_stats().misses;
        assert!(warm_misses > 0, "cold run must have populated the pool");
        let second = eng.forward_stream(&samples);
        assert_eq!(first, second);
        assert_eq!(
            eng.workspace_stats().misses,
            warm_misses,
            "warm stream must be served entirely from the pool"
        );
    }

    #[test]
    fn registry_swaps_between_requests() {
        let ds = tiny_dataset();
        let model_a = Arc::new(tiny_model(&ds));
        let mut b = tiny_model(&ds);
        // Give B visibly different weights.
        for (_, d) in b.params.iter_mut() {
            for x in d.iter_mut() {
                *x *= 0.5;
            }
        }
        let model_b = Arc::new(b);

        let reg = ModelRegistry::new(Arc::clone(&model_a), "a.mvck");
        let gen0 = reg.current();
        assert_eq!(gen0.census.generation, 0);
        assert_eq!(gen0.census.source, "a.mvck");
        assert_eq!(gen0.census.load_mode, LoadMode::Eager);
        assert!(Arc::ptr_eq(&gen0.model, &model_a));

        let id = reg.swap(Arc::clone(&model_b), "b.mvck").unwrap();
        assert_eq!(id, 1);
        let gen1 = reg.current();
        assert_eq!(gen1.census.generation, 1);
        assert!(Arc::ptr_eq(&gen1.model, &model_b));
        // The generation captured before the swap still serves A.
        assert!(Arc::ptr_eq(&gen0.model, &model_a));
    }

    #[test]
    fn registry_refuses_incompatible_architectures() {
        let ds = tiny_dataset();
        let model = Arc::new(tiny_model(&ds));
        let reg = ModelRegistry::new(Arc::clone(&model), "seed");
        let other = Arc::new(MvGnn::new(MvGnnConfig::small(
            model.cfg.node_dim + 1,
            model.cfg.aw_vocab,
        )));
        let err = reg.swap(other, "bad").unwrap_err();
        assert!(matches!(err, MvGnnError::Config(_)), "{err}");
        assert_eq!(reg.generation(), 0, "failed swap must not advance the registry");
    }

    #[test]
    fn a_workspace_warmed_by_one_model_serves_another() {
        let ds = tiny_dataset();
        let model_a = Arc::new(tiny_model(&ds));
        let mut b = tiny_model(&ds);
        for (_, d) in b.params.iter_mut() {
            for x in d.iter_mut() {
                *x = -*x;
            }
        }
        let model_b = Arc::new(b);
        let samples: Vec<&mvgnn_embed::GraphSample> =
            ds.test.iter().take(4).map(|s| &s.sample).collect();
        // Workspace buffers are model-agnostic scratch: a serve worker
        // keeps one across hot-swapped generations, so B's batch on A's
        // warm workspace must give B's answers.
        let mut warm = Workspace::new();
        let _ = model_a.forward_rows(&mut warm, &samples);
        assert_eq!(
            model_b.forward_rows(&mut warm, &samples),
            model_b.forward_rows(&mut Workspace::new(), &samples)
        );
        assert!(model_b.forward_rows(&mut warm, &[]).is_empty());
    }

    #[test]
    fn poisoned_model_degrades_rows_not_the_stream() {
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds);
        FaultPlan::new(11).poison_params(&mut model.params, 64);
        let model = Arc::new(model);
        let samples: Vec<&mvgnn_embed::GraphSample> =
            ds.test.iter().map(|s| &s.sample).collect();
        let eng =
            InferenceEngine::new(Arc::clone(&model), EngineConfig { threads: 4, batch_size: 4 });
        let rows = eng.forward_stream(&samples);
        assert_eq!(rows.len(), samples.len());
        // Every row's verdict must match the isolated single-sample path.
        for (g, s) in samples.iter().enumerate() {
            assert_eq!(rows.checked(g), model.predict_checked(s));
        }
    }
}
