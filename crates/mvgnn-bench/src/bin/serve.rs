//! Service-level benchmark: sustained QPS, completion-latency
//! percentiles, and shed behaviour of the `mvgnn-serve` front door (see
//! DESIGN.md §12).
//!
//! Three sections, written to `BENCH_serve.json`:
//!
//! 1. **closed_loop** — an open-loop burst of every corpus loop through
//!    a `max_batch = 1` server (the single-request service path: every
//!    request dispatches alone, paying full per-request cost) versus the
//!    micro-batched server (`max_batch = 32`). The speedup is the
//!    service-level analogue of `BENCH_throughput.json`'s batching gain
//!    and must stay ≥ 1.5x.
//! 2. **sustained** — Poisson arrivals at ~0.8x measured capacity:
//!    answered QPS, p50/p99 completion latency, shed rate (should be
//!    ~zero).
//! 3. **overload** — bursty-Poisson arrivals at ~2x capacity against
//!    bounded admission (256 tokens): the service must shed with typed
//!    `Overloaded` responses, keep p99 of *answered* requests bounded,
//!    and finish with zero caught panics.
//!
//! `--smoke` is the seconds-scale CI gate: a forced-overload storm on a
//! deliberately tiny service (Quick corpus) asserting full census
//! accounting, non-zero shed, zero panics, and post-storm liveness, plus
//! a poisoned-weights mini-run whose every answer must be a typed
//! degradation.

use mvgnn_bench::{pipeline_config, Scale};
use mvgnn_core::{FaultPlan, MvGnn, MvGnnConfig, PredictionSource};
use mvgnn_dataset::build_corpus;
use mvgnn_embed::GraphSample;
use mvgnn_serve::{
    run_chaos, ChaosConfig, ChaosInputs, Deadline, ServeConfig, Server, Ticket,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Micro-batch width of the batched service (matches the throughput
/// benchmark's `BATCH`).
const BATCH: usize = 32;

/// Admission-token pool for the storm sections — small enough that a 2x
/// overload exhausts it and sheds, large enough to keep batches full.
const STORM_TOKENS: usize = 256;

fn build_pool(scale: Scale) -> (Vec<Arc<GraphSample>>, Arc<MvGnn>) {
    let cfg = pipeline_config(scale);
    eprintln!("[serve] building corpus ({scale:?})…");
    let ds = build_corpus(&cfg.corpus);
    let pool: Vec<Arc<GraphSample>> = ds
        .train
        .iter()
        .chain(ds.test.iter())
        .take(2048)
        .map(|s| Arc::new(s.sample.clone()))
        .collect();
    let probe = &pool[0];
    let model = if cfg.paper_scale {
        MvGnn::new(MvGnnConfig::paper(probe.node_dim, probe.aw_vocab))
    } else {
        MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab))
    };
    (pool, Arc::new(model))
}

/// Answered QPS of one open-loop burst: submit every sample, then redeem
/// every ticket; wall time covers submission through last answer.
fn burst_secs(server: &Server, pool: &[Arc<GraphSample>]) -> f64 {
    let t = Instant::now();
    let tickets: Vec<_> = pool
        .iter()
        .map(|s| {
            mvgnn_bench::or_die(server.submit(Arc::clone(s), Deadline::none()))
        })
        .collect();
    for ticket in tickets {
        mvgnn_bench::or_die(ticket.wait());
    }
    t.elapsed().as_secs_f64()
}

/// Best-of-`reps` answered QPS for a service configuration, plus the
/// mean batch fill it achieved across the whole run.
fn closed_loop_qps(
    model: &Arc<MvGnn>,
    pool: &[Arc<GraphSample>],
    max_batch: usize,
    reps: usize,
) -> (f64, f64) {
    let server = mvgnn_bench::or_die(Server::start(
        Arc::clone(model),
        ServeConfig {
            max_batch,
            max_delay: Duration::from_micros(200),
            // Headroom over the burst size: permits release a beat after
            // the final fulfil, and this section measures throughput,
            // not admission.
            max_queue: 2 * pool.len(),
            max_inflight: 2 * pool.len(),
            workers: 1,
        },
    ));
    let mut best = f64::MAX;
    for _ in 0..reps {
        best = best.min(burst_secs(&server, pool));
    }
    let stats = server.stats();
    assert_eq!(stats.panics_caught, 0, "panic during closed-loop burst");
    server.shutdown();
    (pool.len() as f64 / best, stats.mean_fill())
}

/// One storm section: run the chaos harness at `rate_qps` total offered
/// load and return its JSON object.
fn storm_section(
    model: &Arc<MvGnn>,
    pool: &[Arc<GraphSample>],
    rate_qps: f64,
    burst: usize,
    requests_per_client: usize,
    deadline: Duration,
) -> (String, mvgnn_serve::ChaosReport, u64) {
    let clients = 4;
    let server = mvgnn_bench::or_die(Server::start(
        Arc::clone(model),
        ServeConfig {
            max_batch: BATCH,
            max_delay: Duration::from_micros(500),
            max_queue: STORM_TOKENS,
            max_inflight: STORM_TOKENS,
            workers: 1,
        },
    ));
    let inputs = ChaosInputs { samples: pool.to_vec(), sources: Vec::new(), oracles: Vec::new() };
    let report = run_chaos(
        &server,
        &inputs,
        &ChaosConfig {
            seed: 0x5e1e,
            clients,
            requests_per_client,
            rate_per_client: rate_qps / clients as f64,
            burst,
            deadline,
            ..Default::default()
        },
    );
    assert_eq!(
        report.accounted(),
        report.submitted,
        "storm lost requests: {report:?}"
    );
    assert_eq!(report.internal, 0, "storm hit internal faults: {report:?}");
    let panics = server.stats().panics_caught;
    assert_eq!(panics, 0, "storm caught panics");
    server.shutdown();
    let shed_rate = report.shed as f64 / report.submitted.max(1) as f64;
    let json = format!(
        "{{\n    \"offered_qps\": {rate_qps:.1},\n    \"burst\": {burst},\n    \
         \"submitted\": {},\n    \"answered_qps\": {:.1},\n    \
         \"p50_us\": {},\n    \"p99_us\": {},\n    \"max_us\": {},\n    \
         \"shed\": {},\n    \"expired\": {},\n    \"shed_rate\": {shed_rate:.4}\n  }}",
        report.submitted,
        report.answered_qps,
        report.p50.as_micros(),
        report.p99.as_micros(),
        report.max_latency.as_micros(),
        report.shed,
        report.expired,
    );
    (json, report, panics)
}

/// Seconds-scale CI gate: forced overload on a tiny service must shed
/// typed, account for every request, catch zero panics, and stay live;
/// poisoned weights must degrade typed.
fn smoke() {
    let (pool, model) = build_pool(Scale::Quick);

    // Deliberately tiny service: 8 admission tokens, 4-deep queue. A
    // bursty storm at far past capacity must shed, not hang or panic.
    let server = mvgnn_bench::or_die(Server::start(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            max_queue: 4,
            max_inflight: 8,
            workers: 1,
        },
    ));
    let inputs = ChaosInputs { samples: pool.clone(), sources: Vec::new(), oracles: Vec::new() };
    let report = run_chaos(
        &server,
        &inputs,
        &ChaosConfig {
            seed: 0x5e1e,
            clients: 4,
            requests_per_client: 64,
            rate_per_client: 50_000.0,
            burst: 8,
            deadline: Duration::from_secs(5),
            ..Default::default()
        },
    );
    assert_eq!(report.accounted(), report.submitted, "smoke lost requests: {report:?}");
    assert_eq!(report.internal, 0, "smoke hit internal faults: {report:?}");
    assert!(report.shed > 0, "forced overload must shed: {report:?}");
    assert!(report.ok > 0, "some admitted requests must be answered: {report:?}");
    assert_eq!(server.stats().panics_caught, 0, "smoke caught panics");
    // Liveness after the storm: a fresh request is served normally.
    let c = mvgnn_bench::or_die(
        server
            .submit(Arc::clone(&pool[0]), Deadline::within(Duration::from_secs(10)))
            .and_then(Ticket::wait),
    );
    assert_eq!(c.source, PredictionSource::Multi, "post-storm answer degraded: {c:?}");
    server.shutdown();
    println!(
        "[serve] smoke storm: {} submitted, {} ok, {} shed, {} expired, 0 panics",
        report.submitted, report.ok, report.shed, report.expired
    );

    // Poisoned weights: every answer must be a typed degradation.
    let probe = &pool[0];
    let mut poisoned = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    FaultPlan::new(0x5e1e).poison_params(&mut poisoned.params, 64);
    let server = mvgnn_bench::or_die(Server::start(
        Arc::new(poisoned),
        ServeConfig { max_batch: 4, ..Default::default() },
    ));
    for s in pool.iter().take(8) {
        let c = mvgnn_bench::or_die(
            server.submit(Arc::clone(s), Deadline::none()).and_then(Ticket::wait),
        );
        assert_ne!(
            c.source,
            PredictionSource::Multi,
            "poisoned weights were trusted: {c:?}"
        );
    }
    assert_eq!(server.stats().panics_caught, 0);
    server.shutdown();
    println!("[serve] smoke poisoned-weights: 8/8 typed degradations, 0 panics");
    println!("[serve] smoke OK");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let scale = Scale::from_args();
    let (pool, model) = build_pool(scale);
    let n = pool.len();
    let reps = if scale == Scale::Quick { 3 } else { 5 };
    eprintln!("[serve] {n} loops, micro-batch {BATCH}, best of {reps}");

    // Section 1: closed-loop burst, single-request path vs micro-batched.
    let (single_qps, single_fill) = closed_loop_qps(&model, &pool, 1, reps);
    let (batched_qps, batched_fill) = closed_loop_qps(&model, &pool, BATCH, reps);
    let speedup = batched_qps / single_qps;
    println!("\nService throughput ({n} loops, best of {reps}):");
    println!("  single-request: {single_qps:>10.1} req/sec  (fill {single_fill:.2})");
    println!("  micro-batched : {batched_qps:>10.1} req/sec  (fill {batched_fill:.2})");
    println!("  speedup       : {speedup:.2}x");
    assert!(
        speedup >= 1.5,
        "micro-batching regressed: {speedup:.2}x < 1.5x over the single-request path"
    );

    // Section 2: sustained Poisson at ~0.8x measured capacity.
    let sustained_rate = batched_qps * 0.8;
    let per_client = if scale == Scale::Quick { 256 } else { 2048 };
    let (sustained_json, sustained, _) = storm_section(
        &model,
        &pool,
        sustained_rate,
        1,
        per_client,
        Duration::from_millis(250),
    );
    println!(
        "  sustained 0.8x: {:>10.1} req/sec answered, p50 {}µs, p99 {}µs, shed {}",
        sustained.answered_qps,
        sustained.p50.as_micros(),
        sustained.p99.as_micros(),
        sustained.shed
    );

    // Section 3: 2x-capacity overload against bounded admission.
    let overload_deadline = Duration::from_millis(250);
    let (overload_json, overload, _) = storm_section(
        &model,
        &pool,
        batched_qps * 2.0,
        8,
        per_client,
        overload_deadline,
    );
    println!(
        "  overload 2.0x : {:>10.1} req/sec answered, p99 {}µs, shed {} ({:.0}%)",
        overload.answered_qps,
        overload.p99.as_micros(),
        overload.shed,
        100.0 * overload.shed as f64 / overload.submitted.max(1) as f64
    );
    assert!(overload.shed > 0, "2x overload must shed: {overload:?}");
    assert!(
        overload.p99 < overload_deadline * 2,
        "overload p99 unbounded: {:?} vs deadline {:?}",
        overload.p99,
        overload_deadline
    );

    let json = format!(
        "{{\n  \"loops\": {n},\n  \"micro_batch\": {BATCH},\n  \"reps\": {reps},\n  \
         \"closed_loop\": {{\n    \"single_qps\": {single_qps:.1},\n    \
         \"batched_qps\": {batched_qps:.1},\n    \"speedup\": {speedup:.3},\n    \
         \"mean_fill\": {batched_fill:.2}\n  }},\n  \
         \"sustained\": {sustained_json},\n  \"overload\": {overload_json},\n  \
         \"panics_caught\": 0\n}}\n"
    );
    mvgnn_bench::or_die(std::fs::write("BENCH_serve.json", json));
    eprintln!("[serve] wrote BENCH_serve.json");
}
