//! The serve probe: open-loop Poisson arrivals of pre-featurised
//! held-out loops into `mvgnn_serve::Server`, at a light and a heavy
//! fixed rate. The cascade workloads never call the serve layer; their
//! traced runs measure it with this probe.
//!
//! The generator draws a seeded Poisson schedule of absolute due times.
//! The submitter sleeps until each due time (it never spins, so it does
//! not take a core from the single serve worker) and then submits every
//! request that is due; a collector thread redeems the tickets in order.
//! Latency is timed from the due time, so a late generator or a stalled
//! service counts against the requests behind it. After each phase the
//! server's own counters must agree with what the client saw.

use crate::stats::{median, percentile, SplitMix};
use mvgnn_embed::GraphSample;
use mvgnn_serve::{Deadline, DeadlineStage, ServeError, ServeStats, Server, Ticket};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed rates, req/s. At `LIGHT` batches hold a few requests and the
/// flush deadline sets latency; `HEAVY` sits below the service's knee
/// and fills wide batches.
pub const LIGHT_RATE: f64 = 2_000.0;
pub const HEAVY_RATE: f64 = 20_000.0;

/// Per-request deadline, counted from the due time.
const DEADLINE: Duration = Duration::from_millis(250);

/// Everything observed in one fixed-rate phase.
#[derive(Default)]
pub struct Phase {
    pub rate: f64,
    pub sent: u64,
    pub answered: u64,
    pub shed: u64,
    /// Expired at any stage; `expired_in_queue` of them in the queue.
    pub expired: u64,
    pub expired_in_queue: u64,
    pub rejected: u64,
    pub internal: u64,
    /// Any other typed error, such as a refusal while shutting down.
    pub other_failed: u64,
    /// Answer latency from the due time, µs.
    pub lat_us: Vec<f64>,
    /// How late the generator submitted, µs.
    pub late_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queued_us: Vec<f64>,
    /// Answer latency minus lateness minus queue wait, µs.
    pub post_queue_us: Vec<f64>,
    pub fill_sum: u64,
    /// Disagreements between the server's counters and the client's.
    pub audit: Vec<String>,
}

impl Phase {
    pub fn mean_fill(&self) -> f64 {
        self.fill_sum as f64 / self.answered.max(1) as f64
    }

    pub fn census(&self, label: &str) -> String {
        format!(
            "serve {label}: rate {:.0} sent {} answered {} shed {} expired {} other_failed {} \
             mean_fill {:.2} p50_us {:.1} p99_us {:.1}",
            self.rate,
            self.sent,
            self.answered,
            self.shed,
            self.expired,
            self.rejected + self.internal + self.other_failed,
            self.mean_fill(),
            percentile(&self.lat_us, 0.5),
            percentile(&self.lat_us, 0.99),
        )
    }

    /// One phase holding every request of `parts`, run back to back at
    /// the same rate.
    fn merge(parts: Vec<Phase>) -> Phase {
        let mut all = Phase::default();
        for p in parts {
            all.rate = p.rate;
            all.sent += p.sent;
            all.answered += p.answered;
            all.shed += p.shed;
            all.expired += p.expired;
            all.expired_in_queue += p.expired_in_queue;
            all.rejected += p.rejected;
            all.internal += p.internal;
            all.other_failed += p.other_failed;
            all.lat_us.extend(p.lat_us);
            all.late_us.extend(p.late_us);
            all.submit_us.extend(p.submit_us);
            all.queued_us.extend(p.queued_us);
            all.post_queue_us.extend(p.post_queue_us);
            all.fill_sum += p.fill_sum;
            all.audit.extend(p.audit);
        }
        all
    }

    fn fail(&mut self, e: &ServeError) {
        match e {
            ServeError::Overloaded { .. } => self.shed += 1,
            ServeError::DeadlineExceeded { stage } => {
                self.expired += 1;
                self.expired_in_queue += u64::from(*stage == DeadlineStage::Queued);
            }
            ServeError::Rejected(_) => self.rejected += 1,
            ServeError::Internal(_) => self.internal += 1,
            _ => self.other_failed += 1,
        }
    }

    /// Compare the server's counters over this phase with the client's
    /// tallies: each request the client sent must be counted once by the
    /// server, in the bucket the client saw it end in.
    fn audit(&mut self, before: &ServeStats, after: &ServeStats) {
        let counts = [
            ("submitted", after.submitted - before.submitted, self.sent),
            ("shed", after.shed - before.shed, self.shed),
            (
                "expired in queue",
                after.expired - before.expired,
                self.expired_in_queue,
            ),
            ("rejected", after.rejected - before.rejected, self.rejected),
            (
                "batched",
                after.batched_requests - before.batched_requests,
                self.answered + self.internal,
            ),
            (
                "oracle-decided",
                after.oracle_decided - before.oracle_decided,
                0,
            ),
            ("failed otherwise", self.other_failed, 0),
        ];
        for (name, server, client) in counts {
            if server != client {
                self.audit.push(format!(
                    "serve at {:.0} req/s, {name}: the server counted {server}, the client {client}",
                    self.rate
                ));
            }
        }
    }
}

/// One submitted request on its way to the collector.
struct Sent {
    due: Instant,
    submit: (Instant, Instant),
    ticket: Result<Ticket, ServeError>,
}

/// Seeded Poisson arrival offsets over `secs` seconds (at least one).
fn schedule(rate: f64, secs: f64, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0f64;
    let mut out = vec![Duration::ZERO];
    loop {
        t += -rng.unit().ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Drive one phase at `rate` for `secs` seconds over `pool`, then audit
/// the server's counters against it.
fn run_phase(server: &Server, pool: &[Arc<GraphSample>], rate: f64, secs: f64, seed: u64) -> Phase {
    let offsets = schedule(rate, secs, seed);
    let before = server.stats();
    let t0 = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut phase = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(rx));
        for (i, off) in offsets.iter().enumerate() {
            let due = t0 + *off;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sample = Arc::clone(&pool[i % pool.len()]);
            let s0 = Instant::now();
            let ticket = server.submit(sample, Deadline::at(due + DEADLINE));
            let s1 = Instant::now();
            let sent = Sent {
                due,
                submit: (s0, s1),
                ticket,
            };
            tx.send(sent).expect("the collector outlives the submitter");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    phase.rate = rate;
    phase.audit(&before, &server.stats());
    phase
}

/// Redeem tickets in submission order.
fn collect(rx: mpsc::Receiver<Sent>) -> Phase {
    let mut p = Phase::default();
    for m in rx {
        p.sent += 1;
        let late = m.submit.0.saturating_duration_since(m.due).as_secs_f64() * 1e6;
        p.late_us.push(late);
        p.submit_us
            .push((m.submit.1 - m.submit.0).as_secs_f64() * 1e6);
        let answer = m.ticket.and_then(Ticket::wait);
        let done = Instant::now();
        match answer {
            Ok(c) => {
                let lat = done.saturating_duration_since(m.due).as_secs_f64() * 1e6;
                let queued = c.queued.as_secs_f64() * 1e6;
                p.answered += 1;
                p.lat_us.push(lat);
                p.queued_us.push(queued);
                p.post_queue_us.push(lat - late - queued);
                p.fill_sum += c.batched_with as u64;
            }
            Err(e) => p.fail(&e),
        }
    }
    p
}

/// `parts` back-to-back phases at `rate` sharing `secs`. On a shared
/// 2-vCPU virtual machine the process stalls for 3-30 ms several times a
/// second; a stall moves the tail of the part it lands in and leaves the
/// others alone, so callers take medians over the parts.
fn run_parts(
    server: &Server,
    pool: &[Arc<GraphSample>],
    rate: f64,
    secs: f64,
    parts: usize,
    seed: u64,
) -> Vec<Phase> {
    (0..parts)
        .map(|k| {
            let part_seed = seed ^ ((k as u64) << 32);
            run_phase(server, pool, rate, secs / parts as f64, part_seed)
        })
        .collect()
}

/// Medians over parts of each part's p50 and p99 latency, µs.
fn part_medians(parts: &[Phase]) -> (f64, f64) {
    let at = |q| {
        parts
            .iter()
            .map(|p| percentile(&p.lat_us, q))
            .collect::<Vec<_>>()
    };
    (median(&at(0.5)), median(&at(0.99)))
}

/// Parts of the light and heavy phases.
const LIGHT_PARTS: usize = 5;
const HEAVY_PARTS: usize = 10;

/// Both fixed rates, each merged over its parts, with the part-median
/// p50 and p99 latencies of the light rate in µs.
pub struct FixedRates {
    pub light: Phase,
    pub heavy: Phase,
    pub light_pcts: (f64, f64),
}

impl FixedRates {
    pub fn run(
        server: &Server,
        pool: &[Arc<GraphSample>],
        (light_secs, heavy_secs): (f64, f64),
        seed: u64,
    ) -> Self {
        let light = run_parts(
            server,
            pool,
            LIGHT_RATE,
            light_secs,
            LIGHT_PARTS,
            seed ^ 0x11,
        );
        let heavy = run_parts(
            server,
            pool,
            HEAVY_RATE,
            heavy_secs,
            HEAVY_PARTS,
            seed ^ 0x22,
        );
        Self {
            light_pcts: part_medians(&light),
            light: Phase::merge(light),
            heavy: Phase::merge(heavy),
        }
    }

    pub fn census(&self, label: &str) -> String {
        format!(
            "{} part_median_p50_us {:.1} part_median_p99_us {:.1}\n{}",
            self.light.census(&format!("{label}light")),
            self.light_pcts.0,
            self.light_pcts.1,
            self.heavy.census(&format!("{label}heavy")),
        )
    }

    /// Every disagreement the audits of both rates found.
    pub fn audit(&self) -> impl Iterator<Item = &String> {
        self.light.audit.iter().chain(&self.heavy.audit)
    }
}
