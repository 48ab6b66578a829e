//! Deadline-bounded micro-batching: the queue, the flush state machine,
//! and the completion slots.
//!
//! Concurrently-arriving single-loop requests land in one bounded
//! submission queue. A worker seeds a batch with the first arrival, then
//! holds the flush open while the batch fills — releasing it on
//! whichever comes first of `max_batch` requests, `max_delay` elapsed
//! since the seed, or shutdown. A burst of singles therefore gets
//! batch-width throughput, while an isolated request pays at most
//! `max_delay` of idle latency.
//!
//! Deadlines propagate: requests found expired when a batch is drained
//! are completed with [`ServeError::DeadlineExceeded`] *before* dispatch,
//! so dead work never occupies a batch slot. A dispatch panic is caught
//! at this boundary and fails only the requests of that batch — the
//! worker, the queue, and every other client stay live.

use crate::deadline::Deadline;
use crate::limiter::{Limiter, Permit};
use crate::response::{
    classification_from_checked, Classification, DeadlineStage, ServeError, ServeResult,
};
use mvgnn_core::{Cascade, MvGnn, Workspace};
use mvgnn_embed::GraphSample;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One-shot completion slot a client blocks on.
pub(crate) struct Slot {
    state: Mutex<Option<ServeResult<Classification>>>,
    cv: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self { state: Mutex::new(None), cv: Condvar::new() })
    }

    /// Deliver the result and wake the waiting client.
    pub(crate) fn fulfil(&self, result: ServeResult<Classification>) {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *st = Some(result);
        self.cv.notify_all();
    }

    /// Block until the result arrives and take it. Liveness holds because
    /// every admitted request is completed by a worker — with an answer,
    /// a typed expiry, or a typed internal fault.
    pub(crate) fn wait(&self) -> ServeResult<Classification> {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = st.take() {
                return result;
            }
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// An admitted single-loop request travelling through the queue. The
/// admission [`Permit`] rides along and is released when the request is
/// completed (the whole struct drops after `fulfil`).
pub(crate) struct Request {
    pub(crate) sample: Arc<GraphSample>,
    pub(crate) deadline: Deadline,
    pub(crate) enqueued: Instant,
    pub(crate) slot: Arc<Slot>,
    #[allow(dead_code)] // held for its Drop (token release at completion)
    pub(crate) permit: Permit,
}

/// Dispatch counters of the batching layer (all monotonic).
#[derive(Debug, Default)]
pub(crate) struct BatchCounters {
    /// Micro-batches dispatched.
    pub batches: AtomicU64,
    /// Requests served through dispatched batches.
    pub batched_requests: AtomicU64,
    /// Requests dropped at drain time because their deadline had passed.
    pub expired: AtomicU64,
    /// Dispatch panics caught and converted to typed internal faults.
    pub panics_caught: AtomicU64,
}

/// The shared micro-batching state: bounded queue + flush parameters.
pub(crate) struct Batcher {
    pub(crate) queue: Mutex<VecDeque<Request>>,
    pub(crate) arrived: Condvar,
    pub(crate) max_batch: usize,
    pub(crate) max_delay: std::time::Duration,
    pub(crate) max_queue: usize,
    pub(crate) shutdown: AtomicBool,
    pub(crate) counters: BatchCounters,
}

impl Batcher {
    pub(crate) fn new(
        max_batch: usize,
        max_delay: std::time::Duration,
        max_queue: usize,
    ) -> Self {
        Self {
            queue: Mutex::new(VecDeque::with_capacity(max_queue.min(4096))),
            arrived: Condvar::new(),
            max_batch,
            max_delay,
            max_queue,
            shutdown: AtomicBool::new(false),
            counters: BatchCounters::default(),
        }
    }

    /// Current submission-queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Begin draining: refuse new work and wake every parked worker.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.arrived.notify_all();
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Worker loop: seed → fill-until-flush → drain → dispatch → fulfil.
/// Runs until shutdown *and* an empty queue, so admitted requests are
/// answered even when they arrive just before the drain begins. Each
/// dispatched batch feeds the limiter's service-time EWMA, keeping the
/// shed response's `retry_after` hint tied to the observed rate. The
/// worker owns one [`Workspace`] for its whole life, so steady-state
/// batches allocate nothing.
pub(crate) fn worker_loop(model: &MvGnn, batcher: &Batcher, limiter: &Limiter) {
    let mut ws = Workspace::new();
    loop {
        let mut q = batcher.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Phase 1 — wait for a seed request (or a finished shutdown).
        while q.is_empty() {
            if batcher.shutting_down() {
                return;
            }
            q = batcher.arrived.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        // Phase 2 — hold the flush open while the batch fills. The delay
        // clock starts at the seed, not per arrival, so a trickle cannot
        // hold a batch open indefinitely. Shutdown flushes immediately.
        let flush_at = Instant::now() + batcher.max_delay;
        while q.len() < batcher.max_batch && !batcher.shutting_down() {
            let now = Instant::now();
            if now >= flush_at {
                break;
            }
            let (nq, _) = batcher
                .arrived
                .wait_timeout(q, flush_at - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q = nq;
        }
        // Phase 3 — drain up to `max_batch` live requests; expired ones
        // are pulled aside so they never occupy a batch slot.
        let mut batch: Vec<Request> = Vec::with_capacity(batcher.max_batch);
        let mut expired: Vec<Request> = Vec::new();
        while batch.len() < batcher.max_batch {
            match q.pop_front() {
                Some(r) if r.deadline.expired() => expired.push(r),
                Some(r) => batch.push(r),
                None => break,
            }
        }
        drop(q);
        if !expired.is_empty() {
            batcher.counters.expired.fetch_add(expired.len() as u64, Ordering::Relaxed);
            for r in expired {
                r.slot.fulfil(Err(ServeError::DeadlineExceeded {
                    stage: DeadlineStage::Queued,
                }));
            }
        }
        if batch.is_empty() {
            continue;
        }
        dispatch(model, batcher, &mut ws, limiter, batch);
    }
}

/// Run one drained micro-batch through the cascade's tier-1 primitive
/// and fulfil its slots. Panics from the execution stack are converted
/// into per-request [`ServeError::Internal`] responses; a panic drops
/// the buffers the pass had drawn from `ws`, and the pool itself stays
/// usable for the next batch.
fn dispatch(
    model: &MvGnn,
    batcher: &Batcher,
    ws: &mut Workspace,
    limiter: &Limiter,
    batch: Vec<Request>,
) {
    let dispatched = Instant::now();
    let fill = batch.len();
    batcher.counters.batches.fetch_add(1, Ordering::Relaxed);
    batcher.counters.batched_requests.fetch_add(fill as u64, Ordering::Relaxed);
    let refs: Vec<&GraphSample> = batch.iter().map(|r| &*r.sample).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| Cascade::gnn_batch(model, ws, &refs)));
    drop(refs);
    match outcome {
        Ok(rows) => {
            for (row, req) in rows.into_iter().zip(batch) {
                let queued = dispatched.saturating_duration_since(req.enqueued);
                req.slot.fulfil(Ok(classification_from_checked(row, fill, queued)));
            }
        }
        Err(payload) => {
            batcher.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
            let msg = panic_message(&payload);
            for req in batch {
                req.slot.fulfil(Err(ServeError::Internal(msg.clone())));
            }
        }
    }
    limiter.observe(fill, dispatched.elapsed());
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
