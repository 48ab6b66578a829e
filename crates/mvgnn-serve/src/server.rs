//! The request front door: admission, submission, and lifecycle.
//!
//! A [`Server`] owns one shared model, a token [`Limiter`], a bounded
//! submission queue, and one or more micro-batching workers, each with
//! its own pooled workspace. Two request paths exist:
//!
//! - **Sample path** ([`Server::submit`], redeemed with
//!   [`Ticket::wait`]): a pre-featurised loop sample rides the
//!   micro-batcher, so bursts of concurrent singles are served at
//!   packed-batch throughput. When the caller also carries [`Tier0`]
//!   evidence ([`Server::submit_tier0`]) — an oracle report or a full
//!   parallelization plan — a definite static verdict is answered at
//!   submit time, before the shape gate, the limiter, and the queue, so
//!   oracle-decidable requests never occupy a micro-batch slot or an
//!   admission token; a proved plan also surfaces its rendered pragma
//!   in the [`Classification`].
//! - **Source path** ([`Server::classify_source`]): a source program is
//!   compiled and classified per-loop by [`Cascade::classify_module`] on
//!   the caller's thread, under the same admission token. Source
//!   requests take no lock, so concurrent ones run side by side.
//!
//! Overload is never unbounded queueing: a request either gets a token
//! and a queue slot, or a typed [`ServeError::Overloaded`] with a
//! retry-after hint derived from the observed service rate.

use crate::batcher::{panic_message, worker_loop, Batcher, Request, Slot};
use crate::deadline::Deadline;
use crate::limiter::{Limiter, LimiterStats};
use crate::response::{
    Classification, DeadlineStage, ModuleClassification, ServeError, ServeResult,
};
use mvgnn_analyze::{LoopPlan, OracleReport};
use mvgnn_core::{oracle_decision, Cascade, CascadeConfig, MvGnn, MvGnnError};
use mvgnn_embed::{GraphSample, Inst2Vec, SampleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Micro-batch flush size: a filling batch is dispatched as soon as
    /// this many requests have coalesced.
    pub max_batch: usize,
    /// Micro-batch flush deadline: a batch seeded by one arrival waits
    /// at most this long for company before dispatching anyway.
    pub max_delay: Duration,
    /// Bound of the submission queue; arrivals past it are shed.
    pub max_queue: usize,
    /// Token capacity of the admission limiter — total outstanding
    /// requests (queued + executing) across both request paths.
    pub max_inflight: usize,
    /// Micro-batching worker threads.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_micros(500),
            max_queue: 256,
            max_inflight: 512,
            workers: 1,
        }
    }
}

impl ServeConfig {
    /// Reject degenerate configurations with a typed
    /// [`MvGnnError::Config`] before any thread is spawned.
    pub fn validate(&self) -> Result<(), MvGnnError> {
        if self.max_batch == 0 {
            return Err(MvGnnError::Config("serve max_batch must be >= 1 (got 0)".into()));
        }
        if self.max_queue == 0 {
            return Err(MvGnnError::Config("serve max_queue must be >= 1 (got 0)".into()));
        }
        if self.workers == 0 {
            return Err(MvGnnError::Config("serve workers must be >= 1 (got 0)".into()));
        }
        if self.max_inflight < self.max_batch {
            return Err(MvGnnError::Config(format!(
                "serve max_inflight ({}) must cover at least one full batch ({})",
                self.max_inflight, self.max_batch
            )));
        }
        Ok(())
    }
}

/// Frontend configuration for the source-program path.
pub struct Frontend {
    /// Token embedding used for featurisation (must match the model's
    /// training embedding).
    pub inst2vec: Inst2Vec,
    /// Walk/assembly configuration of the featuriser.
    pub sample_cfg: SampleConfig,
    /// Default interpreter step budget (None = interpreter default).
    pub max_steps: Option<u64>,
    /// Default interpreter call-depth budget.
    pub max_call_depth: Option<u32>,
    /// Tier routing of the source path — [`CascadeConfig::default`] for
    /// the full oracle → GNN → profiler cascade,
    /// [`CascadeConfig::gnn_only`] to reproduce the pure-GNN service
    /// bit-for-bit.
    pub cascade: CascadeConfig,
}

struct FrontendState {
    inst2vec: Inst2Vec,
    sample_cfg: SampleConfig,
    max_steps: Option<u64>,
    max_call_depth: Option<u32>,
    cascade: CascadeConfig,
}

/// Monotonic counters merged across the server's layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests presented to either path (before any gate).
    pub submitted: u64,
    /// Requests granted an admission token.
    pub admitted: u64,
    /// Requests shed by the limiter or the queue bound.
    pub shed: u64,
    /// Requests dropped in-queue at drain time for an expired deadline.
    pub expired: u64,
    /// Requests answered [`ServeError::DeadlineExceeded`] outside the
    /// queue: at admission, or in the source frontend (after compiling or
    /// after the cascade).
    pub expired_unqueued: u64,
    /// Requests refused as structurally unusable.
    pub rejected: u64,
    /// Source-path requests refused with a typed compile error.
    pub compile_errors: u64,
    /// Dispatch panics caught and converted to typed internal faults.
    pub panics_caught: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Requests served through micro-batches.
    pub batched_requests: u64,
    /// Sample-path requests answered by the tier-0 oracle at submit
    /// time, without an admission token or a batch slot.
    pub oracle_decided: u64,
    /// Tokens currently held.
    pub inflight: usize,
    /// Submission-queue depth right now.
    pub queue_depth: usize,
}

impl ServeStats {
    /// Mean requests per dispatched micro-batch.
    pub fn mean_fill(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / self.batches as f64
    }
}

struct Shared {
    model: Arc<MvGnn>,
    batcher: Batcher,
    limiter: Arc<Limiter>,
    frontend: Option<FrontendState>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    queue_shed: AtomicU64,
    compile_errors: AtomicU64,
    frontend_panics: AtomicU64,
    oracle_decided: AtomicU64,
    expired_unqueued: AtomicU64,
}

impl Shared {
    /// Count a deadline found expired at `stage`, outside the queue, and
    /// return its answer.
    fn expired(&self, stage: DeadlineStage) -> ServeError {
        self.expired_unqueued.fetch_add(1, Ordering::Relaxed);
        ServeError::DeadlineExceeded { stage }
    }
}

/// A long-running, overload-safe classification service over a shared
/// model. Dropping the server drains and joins its workers.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Static evidence a caller gathered for one sample-path request before
/// submitting it ([`Server::submit_tier0`]).
#[derive(Debug, Clone, Copy)]
pub enum Tier0<'a> {
    /// A tier-0 oracle report; a definite verdict
    /// ([`oracle_decision`] is `Some`) is answered at submit time.
    Oracle(&'a OracleReport),
    /// A full parallelization plan
    /// ([`mvgnn_analyze::plan_from_report`]); a proved plan
    /// ([`LoopPlan::proved`]) is answered at submit time with its
    /// rendered pragma attached ([`Classification::pragma`]).
    Plan(&'a LoopPlan),
}

impl Tier0<'_> {
    /// Whether the evidence decides the loop without the GNN.
    fn definite(self) -> bool {
        match self {
            Tier0::Oracle(report) => oracle_decision(report).is_some(),
            Tier0::Plan(plan) => plan.proved(),
        }
    }

    /// The submit-time answer built from definite evidence.
    fn answer(self) -> Classification {
        match self {
            Tier0::Oracle(report) => Classification::from_oracle(report),
            Tier0::Plan(plan) => Classification::from_plan(plan),
        }
    }
}

/// Handle for one in-flight sample-path request; redeem with
/// [`Ticket::wait`]. Open-loop clients hold a batch of tickets and
/// collect them later — arrivals are then decoupled from completions.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Block until the service answers. Every admitted request is
    /// answered — with a classification, a typed expiry, or a typed
    /// internal fault — so this cannot hang on a live server.
    pub fn wait(self) -> ServeResult<Classification> {
        self.slot.wait()
    }
}

impl Server {
    /// Start a sample-path-only server.
    pub fn start(model: Arc<MvGnn>, cfg: ServeConfig) -> Result<Self, MvGnnError> {
        Self::start_inner(model, cfg, None)
    }

    /// Start a server with the source-program frontend enabled.
    pub fn start_with_frontend(
        model: Arc<MvGnn>,
        frontend: Frontend,
        cfg: ServeConfig,
    ) -> Result<Self, MvGnnError> {
        let state = FrontendState {
            inst2vec: frontend.inst2vec,
            sample_cfg: frontend.sample_cfg,
            max_steps: frontend.max_steps,
            max_call_depth: frontend.max_call_depth,
            cascade: frontend.cascade,
        };
        Self::start_inner(model, cfg, Some(state))
    }

    fn start_inner(
        model: Arc<MvGnn>,
        cfg: ServeConfig,
        frontend: Option<FrontendState>,
    ) -> Result<Self, MvGnnError> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            model,
            batcher: Batcher::new(cfg.max_batch, cfg.max_delay, cfg.max_queue),
            limiter: Arc::new(Limiter::new(cfg.max_inflight)),
            frontend,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_shed: AtomicU64::new(0),
            compile_errors: AtomicU64::new(0),
            frontend_panics: AtomicU64::new(0),
            oracle_decided: AtomicU64::new(0),
            expired_unqueued: AtomicU64::new(0),
        });
        let workers: Vec<_> = (0..cfg.workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mvgnn-serve-{i}"))
                    .spawn(move || worker_loop(&sh.model, &sh.batcher, &sh.limiter))
                    .map_err(MvGnnError::Io)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { shared, workers: Mutex::new(workers) })
    }

    /// Submit one featurised loop for classification; returns a
    /// [`Ticket`] immediately (open-loop submission). Closed-loop callers
    /// write `server.submit(sample, deadline)?.wait()`.
    pub fn submit(
        &self,
        sample: Arc<GraphSample>,
        deadline: Deadline,
    ) -> ServeResult<Ticket> {
        self.submit_tier0(sample, None, deadline)
    }

    /// [`Self::submit`] with the caller's static evidence for the loop
    /// the sample was featurised from.
    ///
    /// Definite evidence (a definite oracle verdict, a proved plan) is
    /// answered at submit time: the returned [`Ticket`] is already
    /// fulfilled, and the request never reaches the shape gate, the
    /// admission limiter, or the micro-batch queue — oracle-decidable
    /// traffic sheds *before* the batcher and costs the GNN path
    /// nothing. Anything else (or `None`) rides the micro-batcher exactly
    /// like [`Self::submit`].
    pub fn submit_tier0(
        &self,
        sample: Arc<GraphSample>,
        evidence: Option<Tier0<'_>>,
        deadline: Deadline,
    ) -> ServeResult<Ticket> {
        let sh = &self.shared;
        sh.submitted.fetch_add(1, Ordering::Relaxed);
        if sh.batcher.shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        if deadline.expired() {
            return Err(sh.expired(DeadlineStage::Admission));
        }
        if let Some(evidence) = evidence.filter(|e| e.definite()) {
            sh.oracle_decided.fetch_add(1, Ordering::Relaxed);
            let slot = Slot::new();
            slot.fulfil(Ok(evidence.answer()));
            return Ok(Ticket { slot });
        }
        // Shape gate before spending a token: a sample the model cannot
        // consume is rejected typed, not panicked on mid-batch.
        let mcfg = &sh.model.cfg;
        let shape = if sample.node_dim != mcfg.node_dim || sample.aw_vocab != mcfg.aw_vocab {
            Err(format!(
                "sample/model dimension mismatch (node {} vs {}, vocab {} vs {})",
                sample.node_dim, mcfg.node_dim, sample.aw_vocab, mcfg.aw_vocab
            ))
        } else {
            sample.check_shape().map_err(|e| format!("malformed sample: {e}"))
        };
        if let Err(why) = shape {
            sh.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Rejected(why));
        }
        let permit = sh.limiter.try_acquire()?;
        let mut q = sh
            .batcher
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if sh.batcher.shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        if q.len() >= sh.batcher.max_queue {
            drop(q);
            sh.queue_shed.fetch_add(1, Ordering::Relaxed);
            let inflight = sh.limiter.stats().inflight;
            return Err(ServeError::Overloaded {
                retry_after: sh.limiter.retry_after(inflight),
                inflight,
            });
        }
        let slot = Slot::new();
        q.push_back(Request {
            sample,
            deadline,
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
            permit,
        });
        sh.batcher.arrived.notify_one();
        drop(q);
        Ok(Ticket { slot })
    }

    /// Compile `src` and classify every loop of its `main` function.
    /// `max_steps` overrides the frontend's default interpreter budget
    /// (e.g. to propagate a per-request time envelope); `None` keeps it.
    ///
    /// Runs on the caller's thread under an admission token — the heavy
    /// frontend work competes for the same capacity the micro-batcher
    /// sees, so a flood of source requests sheds instead of starving the
    /// sample path. The deadline is checked at admission, after compile
    /// and after the cascade returns, so a late answer comes back as
    /// [`ServeError::DeadlineExceeded`], never `Ok`.
    pub fn classify_source(
        &self,
        src: &str,
        deadline: Deadline,
        max_steps: Option<u64>,
    ) -> ServeResult<ModuleClassification> {
        let sh = &self.shared;
        sh.submitted.fetch_add(1, Ordering::Relaxed);
        if sh.batcher.shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        if deadline.expired() {
            return Err(sh.expired(DeadlineStage::Admission));
        }
        let Some(fe) = sh.frontend.as_ref() else {
            sh.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Rejected("source frontend not configured".into()));
        };
        let _permit = sh.limiter.try_acquire()?;
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let module = mvgnn_lang::compile(src).map_err(ServeError::Compile)?;
            if deadline.expired() {
                return Err(sh.expired(DeadlineStage::Frontend));
            }
            let Some(entry) = module.func_by_name("main") else {
                return Err(ServeError::Rejected("program has no `main` function".into()));
            };
            let reports = Cascade::new(fe.cascade).classify_module(
                &sh.model,
                &module,
                entry,
                &fe.inst2vec,
                &fe.sample_cfg,
                max_steps.or(fe.max_steps),
                fe.max_call_depth,
            );
            Ok(ModuleClassification { reports })
        }));
        match outcome {
            Ok(Ok(mc)) => {
                sh.limiter.observe(mc.reports.len().max(1), t0.elapsed());
                if deadline.expired() {
                    return Err(sh.expired(DeadlineStage::Frontend));
                }
                Ok(mc)
            }
            Ok(Err(e)) => {
                match &e {
                    ServeError::Compile(_) => {
                        sh.compile_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    ServeError::Rejected(_) => {
                        sh.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                Err(e)
            }
            Err(payload) => {
                sh.frontend_panics.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Internal(panic_message(&payload)))
            }
        }
    }

    /// Merged counters across admission, queueing, and dispatch.
    pub fn stats(&self) -> ServeStats {
        let sh = &self.shared;
        let LimiterStats { inflight, admitted, shed } = sh.limiter.stats();
        let c = &sh.batcher.counters;
        ServeStats {
            submitted: sh.submitted.load(Ordering::Relaxed),
            admitted,
            shed: shed + sh.queue_shed.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            expired_unqueued: sh.expired_unqueued.load(Ordering::Relaxed),
            rejected: sh.rejected.load(Ordering::Relaxed),
            compile_errors: sh.compile_errors.load(Ordering::Relaxed),
            panics_caught: c.panics_caught.load(Ordering::Relaxed)
                + sh.frontend_panics.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            oracle_decided: sh.oracle_decided.load(Ordering::Relaxed),
            inflight,
            queue_depth: sh.batcher.depth(),
        }
    }

    /// Drain and stop: already-admitted requests are answered, new ones
    /// get [`ServeError::ShuttingDown`]. Idempotent.
    pub fn shutdown(&self) {
        self.shared.batcher.begin_shutdown();
        let mut ws = self.workers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for h in ws.drain(..) {
            // A worker that somehow died is already accounted for by the
            // typed Internal responses it produced; nothing to propagate.
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
