//! Chaos harness: seed-keyed fault + load storms against a live
//! [`Server`].
//!
//! The harness extends the deterministic [`FaultPlan`] injectors of
//! `mvgnn-core` to the service boundary: Poisson/bursty arrival storms
//! ([`FaultPlan::poisson_interarrival_micros`] /
//! [`FaultPlan::bursty_interarrival_micros`]), malformed sources
//! (truncation and mangling), and starved interpreter budgets, optionally
//! against a weight-poisoned model. Every client decision — gap lengths,
//! which requests go through the source path, which of those are
//! malformed — derives from `(seed, client, request index)` alone, so a
//! failing storm replays bit-for-bit.
//!
//! The harness asserts nothing itself; it returns a [`ChaosReport`]
//! census (typed outcome counts + completion-latency percentiles) for
//! the caller to judge. The invariants the repo's tests and the
//! `mvgnn-bench serve --smoke` gate check on top: every submission is
//! accounted for by a typed outcome (liveness), `panics == 0`, overload
//! sheds rather than queueing unboundedly, and p99 of answered requests
//! stays bounded.

use crate::deadline::Deadline;
use crate::response::ServeError;
use crate::server::{Server, Ticket, Tier0};
use mvgnn_analyze::OracleReport;
use mvgnn_core::{DecidedBy, FaultPlan};
use mvgnn_embed::GraphSample;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the storm throws at the service.
pub struct ChaosInputs {
    /// Featurised loop samples for the micro-batched path.
    pub samples: Vec<Arc<GraphSample>>,
    /// Source programs for the frontend path (possibly mutated per
    /// request).
    pub sources: Vec<String>,
    /// Tier-0 oracle reports aligned index-for-index with `samples`
    /// (`None` entries and a short/empty vector mean "no report": the
    /// request rides the micro-batcher). Reports with a definite verdict
    /// are answered at submit time and tallied as `oracle_decided`.
    pub oracles: Vec<Option<Arc<OracleReport>>>,
}

/// Storm shape and fault mix.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Master seed; every client derives its own plan from it.
    pub seed: u64,
    /// Concurrent open-loop clients.
    pub clients: usize,
    /// Requests each client fires.
    pub requests_per_client: usize,
    /// Mean arrival rate per client (requests/sec).
    pub rate_per_client: f64,
    /// Arrivals per volley: 1 = pure Poisson, >1 = bursty storm.
    pub burst: usize,
    /// Per-request deadline budget.
    pub deadline: Duration,
    /// Fraction of requests routed through the source frontend
    /// (requires a frontend-enabled server and non-empty `sources`).
    pub source_frac: f64,
    /// Fraction of source-path requests whose program is truncated or
    /// mangled before submission.
    pub malformed_frac: f64,
    /// Starve the interpreter budget of source-path requests.
    pub starved_budget: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xc4a05,
            clients: 4,
            requests_per_client: 64,
            rate_per_client: 2_000.0,
            burst: 1,
            deadline: Duration::from_millis(250),
            source_frac: 0.0,
            malformed_frac: 0.0,
            starved_budget: false,
        }
    }
}

/// Typed-outcome census of one storm. `submitted` equals the sum of all
/// outcome buckets — a request the census cannot account for would mean
/// a hung client, i.e. a liveness violation.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Requests fired (both paths).
    pub submitted: u64,
    /// Sample-path answers served by the healthy fused head.
    pub ok: u64,
    /// Sample-path answers served by a degraded view (typed, not
    /// panicked).
    pub degraded: u64,
    /// Sample-path answers decided by the tier-0 oracle at submit time
    /// (never occupied a batch slot).
    pub oracle_decided: u64,
    /// Source-path requests that came back with per-loop reports.
    pub module_ok: u64,
    /// Degraded per-loop reports inside those answers.
    pub module_degraded_loops: u64,
    /// Requests shed with a typed overload response.
    pub shed: u64,
    /// Requests that ran out of deadline: at admission, in the queue, or
    /// in the source frontend (after compile or after the cascade).
    pub expired: u64,
    /// Malformed sources refused with a typed compile error.
    pub compile_errors: u64,
    /// Structurally unusable requests refused.
    pub rejected: u64,
    /// Requests refused because the server was draining.
    pub shutdown: u64,
    /// Caught-panic internal faults observed by clients. Zero-panic
    /// storms require this to be 0 (and [`Server::stats`]'s
    /// `panics_caught` agrees).
    pub internal: u64,
    /// Wall-clock duration of the storm.
    pub wall: Duration,
    /// Completion-latency percentiles of answered sample-path requests.
    pub p50: Duration,
    /// 99th percentile of the same.
    pub p99: Duration,
    /// Worst observed completion latency.
    pub max_latency: Duration,
    /// Answered sample-path requests per wall-clock second.
    pub answered_qps: f64,
}

impl ChaosReport {
    /// Requests accounted for by some typed outcome.
    pub fn accounted(&self) -> u64 {
        self.ok
            + self.degraded
            + self.oracle_decided
            + self.module_ok
            + self.shed
            + self.expired
            + self.compile_errors
            + self.rejected
            + self.shutdown
            + self.internal
    }
}

#[derive(Default)]
struct Tally {
    ok: u64,
    degraded: u64,
    oracle_decided: u64,
    module_ok: u64,
    module_degraded_loops: u64,
    shed: u64,
    expired: u64,
    compile_errors: u64,
    rejected: u64,
    shutdown: u64,
    internal: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    fn count_error(&mut self, e: &ServeError) {
        match e {
            ServeError::Overloaded { .. } => self.shed += 1,
            ServeError::DeadlineExceeded { .. } => self.expired += 1,
            ServeError::Compile(_) => self.compile_errors += 1,
            ServeError::Rejected(_) => self.rejected += 1,
            ServeError::ShuttingDown => self.shutdown += 1,
            ServeError::Internal(_) => self.internal += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.oracle_decided += other.oracle_decided;
        self.module_ok += other.module_ok;
        self.module_degraded_loops += other.module_degraded_loops;
        self.shed += other.shed;
        self.expired += other.expired;
        self.compile_errors += other.compile_errors;
        self.rejected += other.rejected;
        self.shutdown += other.shutdown;
        self.internal += other.internal;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// Mutate a source program per the plan: even selections truncate it
/// mid-token, odd ones delete a span and swap characters.
fn malform(plan: &FaultPlan, src: &str, i: u64) -> String {
    if i.is_multiple_of(2) {
        plan.truncate_source(src, 0.25 + (i % 5) as f64 * 0.15)
    } else {
        plan.mangle_source(src)
    }
}

/// Drive one deterministic storm against `server` and return the census.
///
/// Each client is open-loop on the sample path (submission decoupled
/// from completion through a per-client collector thread, so arrivals
/// keep their Poisson shape under backpressure) and closed-loop on the
/// heavyweight source path. Completion latency is measured by the
/// collector at answer time, in submission order.
pub fn run_chaos(server: &Server, inputs: &ChaosInputs, cfg: &ChaosConfig) -> ChaosReport {
    let started = Instant::now();
    let mut total = Tally::default();
    let mut submitted = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..cfg.clients {
            handles.push(scope.spawn(move || client_loop(server, inputs, cfg, client)));
        }
        for h in handles {
            match h.join() {
                Ok((fired, tally)) => {
                    submitted += fired;
                    total.merge(tally);
                }
                Err(payload) => {
                    // A dead client is a harness fault, not a service
                    // fault; surface it as an internal outcome so the
                    // census (and the zero-panic assertion) catches it.
                    total.internal += 1;
                    let _ = payload;
                }
            }
        }
    });
    let wall = started.elapsed();
    total.latencies_us.sort_unstable();
    let pct = |p: f64| -> Duration {
        if total.latencies_us.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((total.latencies_us.len() as f64 - 1.0) * p).round() as usize;
        Duration::from_micros(total.latencies_us[idx])
    };
    let answered = total.latencies_us.len() as u64;
    ChaosReport {
        submitted,
        ok: total.ok,
        degraded: total.degraded,
        oracle_decided: total.oracle_decided,
        module_ok: total.module_ok,
        module_degraded_loops: total.module_degraded_loops,
        shed: total.shed,
        expired: total.expired,
        compile_errors: total.compile_errors,
        rejected: total.rejected,
        shutdown: total.shutdown,
        internal: total.internal,
        wall,
        p50: pct(0.50),
        p99: pct(0.99),
        max_latency: pct(1.0),
        answered_qps: answered as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// One client: fire `requests_per_client` arrivals with plan-derived
/// gaps, stream sample-path tickets to a collector, tally everything.
fn client_loop(
    server: &Server,
    inputs: &ChaosInputs,
    cfg: &ChaosConfig,
    client: usize,
) -> (u64, Tally) {
    let plan = FaultPlan::new(cfg.seed.wrapping_add(0x9e37 * (client as u64 + 1)));
    let gaps = plan.bursty_interarrival_micros(
        cfg.rate_per_client,
        cfg.burst,
        cfg.requests_per_client,
    );
    let (tx, rx) = mpsc::channel::<Ticket>();
    let mut tally = Tally::default();
    let mut fired = 0u64;
    std::thread::scope(|scope| {
        // Collector: redeem tickets in submission order, stamping
        // latency at answer time.
        let collector = scope.spawn(move || {
            let mut t = Tally::default();
            for ticket in rx {
                let at = ticket.submitted_at();
                match ticket.wait() {
                    Ok(c) => {
                        t.latencies_us.push(at.elapsed().as_micros() as u64);
                        if c.decided_by == DecidedBy::Oracle {
                            t.oracle_decided += 1;
                        } else if c.source == mvgnn_core::PredictionSource::Multi {
                            t.ok += 1;
                        } else {
                            t.degraded += 1;
                        }
                    }
                    Err(e) => t.count_error(&e),
                }
            }
            t
        });
        for (i, gap) in gaps.iter().enumerate() {
            if *gap > 0 {
                std::thread::sleep(Duration::from_micros(*gap));
            }
            fired += 1;
            let want_source = !inputs.sources.is_empty()
                && (inputs.samples.is_empty() || plan.selects(i as u64, cfg.source_frac));
            if want_source {
                let base = &inputs.sources[i % inputs.sources.len()];
                let src = if plan.selects(i as u64 ^ 0xbad, cfg.malformed_frac) {
                    malform(&plan, base, i as u64)
                } else {
                    base.clone()
                };
                let budget = cfg.starved_budget.then(|| plan.starved_step_budget());
                match server.classify_source(&src, Deadline::within(cfg.deadline), budget) {
                    Ok(mc) => {
                        tally.module_ok += 1;
                        tally.module_degraded_loops += mc
                            .reports
                            .iter()
                            .filter(|r| {
                                r.decided_by == DecidedBy::Gnn
                                    && r.source != mvgnn_core::PredictionSource::Multi
                            })
                            .count() as u64;
                    }
                    Err(e) => tally.count_error(&e),
                }
            } else if !inputs.samples.is_empty() {
                let at = i % inputs.samples.len();
                let sample = Arc::clone(&inputs.samples[at]);
                let oracle = inputs.oracles.get(at).and_then(|o| o.as_deref());
                let deadline = Deadline::within(cfg.deadline);
                match server.submit_tier0(sample, oracle.map(Tier0::Oracle), deadline) {
                    Ok(ticket) => {
                        // Collector owns redemption; a send can only fail
                        // if the collector died, which the census counts.
                        if tx.send(ticket).is_err() {
                            tally.internal += 1;
                        }
                    }
                    Err(e) => tally.count_error(&e),
                }
            } else {
                fired -= 1; // nothing to send — storm over empty inputs
            }
        }
        drop(tx);
        match collector.join() {
            Ok(t) => tally.merge(t),
            Err(_) => tally.internal += 1,
        }
    });
    (fired, tally)
}
