//! # mvgnn-serve — overload-safe inference service
//!
//! The long-running front door over the in-process classifier (see
//! DESIGN.md §12): concurrently-arriving single-loop requests are
//! coalesced into packed [`GraphBatch`](mvgnn_embed::GraphBatch)es by a
//! **deadline-bounded micro-batcher** (flush on `max_batch` requests or
//! `max_delay` elapsed, whichever first), so a burst of singles gets
//! batch-width throughput without an idle-latency penalty. Overload is
//! handled by **admission control** — a token limiter plus a bounded
//! submission queue that shed with a typed
//! [`ServeError::Overloaded`] (carrying a rate-derived `retry_after`
//! hint) instead of queueing unboundedly — and **deadline propagation**:
//! requests found expired when a batch is drained are dropped before
//! they can waste a batch slot.
//!
//! Faults surface as values, never as panics: malformed sources are
//! [`ServeError::Compile`], shape mismatches are
//! [`ServeError::Rejected`], a damaged model degrades per-request
//! through the cascade's view ladder ([`mvgnn_core::view_ladder`]), and
//! a dispatch panic is caught at the service boundary and returned as
//! [`ServeError::Internal`] to that batch alone. The [`chaos`] module
//! turns the seed-keyed [`FaultPlan`](mvgnn_core::FaultPlan) injectors
//! into whole-service storms (Poisson/bursty arrivals × malformed
//! sources × starved budgets × poisoned weights) whose typed-outcome
//! census the service tests assert liveness, shedding and zero panics
//! over.

#![forbid(unsafe_code)]

mod batcher;
pub mod chaos;
pub mod deadline;
pub mod limiter;
pub mod response;
pub mod server;

pub use chaos::{run_chaos, ChaosConfig, ChaosInputs, ChaosReport};
pub use deadline::Deadline;
pub use limiter::{Limiter, LimiterStats, Permit};
pub use response::{
    classification_from_checked, Classification, DeadlineStage, ModuleClassification,
    ServeError, ServeResult,
};
pub use server::{Frontend, ServeConfig, ServeStats, Server, Ticket, Tier0};
