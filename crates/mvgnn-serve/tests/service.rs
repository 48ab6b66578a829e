//! End-to-end service tests: coalescing, admission control, deadline
//! propagation, graceful degradation, shutdown, and small deterministic
//! chaos storms. Every scenario must complete with typed outcomes only —
//! a panic anywhere on a request path fails the suite.

use mvgnn_core::model::{MvGnn, MvGnnConfig};
use mvgnn_core::{CascadeConfig, FaultPlan, MvGnnError, PredictionSource, Workspace};
use mvgnn_dataset::{build_corpus, CorpusConfig, Suite};
use mvgnn_embed::{Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn_ir::transform::OptLevel;
use mvgnn_serve::{
    classification_from_checked, run_chaos, ChaosConfig, ChaosInputs, Classification, Deadline,
    DeadlineStage, Frontend, ServeConfig, ServeError, Server, Ticket, Tier0,
};
use std::sync::Arc;
use std::time::Duration;

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

fn samples_of(ds: &mvgnn_dataset::Dataset) -> Vec<Arc<mvgnn_embed::GraphSample>> {
    ds.test.iter().map(|s| Arc::new(s.sample.clone())).collect()
}

const PROGRAM: &str = r#"
array a[32]: f64;
array b[32]: f64;

fn main() {
    for i in 0..32 {
        b[i] = a[i] * a[i] + 1.0;
    }
    for i in 1..32 {
        a[i] = a[i - 1] * 0.5;
    }
}
"#;

/// Submit every sample as a single request before redeeming any, and
/// return the answers in submission order.
fn burst(server: &Server, samples: &[Arc<mvgnn_embed::GraphSample>]) -> Vec<Classification> {
    let tickets: Vec<_> = samples
        .iter()
        .map(|s| server.submit(Arc::clone(s), Deadline::none()).expect("admitted"))
        .collect();
    tickets.into_iter().map(|t| t.wait().expect("answered")).collect()
}

/// Every answer must be the view-ladder verdict of its sample's
/// `forward_rows` row, and that row its single-sample verdict: rows are
/// row-local, so neither the worker nor the batch-mates move an answer,
/// and a poisoned row degrades alone.
fn assert_answers_match_forward_rows(
    model: &MvGnn,
    samples: &[Arc<mvgnn_embed::GraphSample>],
    answers: &[Classification],
) {
    let refs: Vec<&mvgnn_embed::GraphSample> = samples.iter().map(|s| &**s).collect();
    let rows = model.forward_rows(&mut Workspace::new(), &refs);
    assert_eq!(answers.len(), refs.len());
    for (g, (s, a)) in refs.iter().zip(answers).enumerate() {
        let checked = rows.checked(g);
        assert_eq!(checked, model.predict_checked(s), "row {g} is not row-local");
        let expected = classification_from_checked(checked, a.batched_with, a.queued);
        assert_eq!(*a, expected, "sample {g}");
    }
}

#[test]
fn burst_of_singles_is_micro_batched_and_matches_forward_rows() {
    let ds = tiny_dataset();
    let model = Arc::new(tiny_model(&ds));
    let samples = samples_of(&ds);
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(20),
            ..Default::default()
        },
    )
    .expect("valid config");

    // Open-loop burst: submit everything, then collect. The micro-batcher
    // must coalesce (mean fill > 1) and every verdict must match the
    // model's checked path bit-for-bit.
    let answers = burst(&server, &samples);
    assert!(answers.iter().all(|a| a.source == PredictionSource::Multi), "{answers:?}");
    assert_answers_match_forward_rows(&model, &samples, &answers);
    let stats = server.stats();
    assert_eq!(stats.batched_requests, samples.len() as u64);
    assert!(
        stats.mean_fill() > 1.5,
        "burst must coalesce, got mean fill {:.2}",
        stats.mean_fill()
    );
    assert_eq!(stats.panics_caught, 0);
    server.shutdown();
}

#[test]
fn two_workers_share_the_model_and_answer_every_single() {
    let ds = tiny_dataset();
    let samples = samples_of(&ds);
    let mut poisoned = tiny_model(&ds);
    FaultPlan::new(11).poison_params(&mut poisoned.params, 64);
    for (model, healthy) in [(tiny_model(&ds), true), (poisoned, false)] {
        let model = Arc::new(model);
        let server = Server::start(
            Arc::clone(&model),
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(2),
                workers: 2,
                ..Default::default()
            },
        )
        .expect("valid config");
        let answers = burst(&server, &samples);
        let multi = answers.iter().filter(|a| a.source == PredictionSource::Multi).count();
        assert_eq!(multi, if healthy { samples.len() } else { 0 }, "{answers:?}");
        assert_answers_match_forward_rows(&model, &samples, &answers);
        let stats = server.stats();
        assert_eq!(stats.batched_requests, samples.len() as u64, "{stats:?}");
        assert_eq!(stats.expired, 0, "{stats:?}");
        assert_eq!(stats.panics_caught, 0, "{stats:?}");
        server.shutdown();
    }
}

#[test]
fn lone_request_flushes_on_max_delay() {
    let ds = tiny_dataset();
    let server = Server::start(
        Arc::new(tiny_model(&ds)),
        ServeConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .expect("valid config");
    let sample = Arc::new(ds.test[0].sample.clone());
    let t = std::time::Instant::now();
    let c = server.submit(sample, Deadline::none()).and_then(Ticket::wait).expect("answered");
    // One lone request must not wait for a full batch — the delay bound
    // flushes it. Allow generous scheduler slack.
    assert!(t.elapsed() < Duration::from_secs(2), "flush took {:?}", t.elapsed());
    assert_eq!(c.batched_with, 1);
}

#[test]
fn overload_sheds_typed_and_recovers() {
    let ds = tiny_dataset();
    let server = Server::start(
        Arc::new(tiny_model(&ds)),
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            max_queue: 4,
            max_inflight: 4,
            workers: 1,
        },
    )
    .expect("valid config");
    let samples = samples_of(&ds);

    // Saturate: with capacity 4 tokens, a burst of submissions must shed
    // at least once and every shed must carry a usable retry hint.
    let mut tickets = Vec::new();
    let mut sheds = 0;
    for _ in 0..4 {
        for s in &samples {
            match server.submit(Arc::clone(s), Deadline::none()) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { retry_after, .. }) => {
                    sheds += 1;
                    assert!(retry_after > Duration::ZERO);
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    }
    assert!(sheds > 0, "a 4-token service must shed a {}-request burst", 4 * samples.len());
    for t in tickets {
        t.wait().expect("admitted requests are answered");
    }
    assert_eq!(server.stats().shed, sheds);
    // Liveness after the storm: a fresh request is served normally.
    let c = server
        .submit(Arc::clone(&samples[0]), Deadline::within(Duration::from_secs(10)))
        .and_then(Ticket::wait)
        .expect("service recovered");
    assert_eq!(c.source, PredictionSource::Multi);
}

#[test]
fn expired_deadlines_are_dropped_before_dispatch() {
    let ds = tiny_dataset();
    let server = Server::start(
        Arc::new(tiny_model(&ds)),
        ServeConfig {
            max_batch: 16,
            // Long flush window: requests sit queued long enough for a
            // zero-budget deadline to expire before the drain.
            max_delay: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("valid config");
    let sample = Arc::new(ds.test[0].sample.clone());

    // Already-expired at admission.
    match server.submit(Arc::clone(&sample), Deadline::within(Duration::ZERO)).map(|_| ()) {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expected admission expiry, got {other:?}"),
    }

    // Expires in-queue: a tiny budget lapses during the flush window;
    // the batcher must answer with a typed queued-expiry, and the expiry
    // must be visible in the shed accounting.
    let t = server
        .submit(Arc::clone(&sample), Deadline::within(Duration::from_micros(200)))
        .expect("admitted");
    match t.wait() {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        Ok(c) => {
            // Raced the flush and won — legal, but then it really was
            // served within its budget as part of a batch.
            assert!(c.batched_with >= 1);
        }
        other => panic!("expected queued expiry or answer, got {other:?}"),
    }
    server.shutdown();
    assert_eq!(server.stats().panics_caught, 0);
}

#[test]
fn poisoned_model_degrades_every_answer_typed() {
    let ds = tiny_dataset();
    let mut model = tiny_model(&ds);
    FaultPlan::new(11).poison_params(&mut model.params, 64);
    let server = Server::start(
        Arc::new(model),
        ServeConfig { max_batch: 4, ..Default::default() },
    )
    .expect("valid config");
    for s in samples_of(&ds) {
        let c = server
            .submit(s, Deadline::none())
            .and_then(Ticket::wait)
            .expect("typed answer, not panic");
        assert_ne!(c.source, PredictionSource::Multi, "poisoned weights trusted: {c:?}");
        assert!(c.diagnostic.is_some());
        if c.source == PredictionSource::ConservativeSerial {
            assert_eq!(c.prediction, 0);
        }
    }
    assert_eq!(server.stats().panics_caught, 0);
}

#[test]
fn shape_mismatch_is_rejected_not_panicked() {
    let ds = tiny_dataset();
    let server = Server::start(
        Arc::new(tiny_model(&ds)),
        ServeConfig::default(),
    )
    .expect("valid config");
    let mut wrong = ds.test[0].sample.clone();
    wrong.node_dim += 3;
    match server.submit(Arc::new(wrong), Deadline::none()).and_then(Ticket::wait) {
        Err(ServeError::Rejected(msg)) => assert!(msg.contains("mismatch"), "{msg}"),
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(server.stats().rejected, 1);
}

#[test]
fn malformed_sample_is_rejected_and_its_batch_mates_are_answered() {
    let ds = tiny_dataset();
    let server = Server::start(
        Arc::new(tiny_model(&ds)),
        ServeConfig {
            max_batch: 3,
            // Long flush window: the three submissions would share one
            // micro-batch if the malformed one were admitted.
            max_delay: Duration::from_millis(200),
            ..Default::default()
        },
    )
    .expect("valid config");
    let samples = samples_of(&ds);
    // Right dimensions, but `n` disagrees with its feature rows and
    // adjacency: packing it would panic mid-batch.
    let mut bad = ds.test[2].sample.clone();
    bad.n += 1;
    let good: Vec<_> = samples[..2]
        .iter()
        .map(|s| server.submit(Arc::clone(s), Deadline::none()).expect("admitted"))
        .collect();
    match server.submit(Arc::new(bad), Deadline::none()) {
        Err(ServeError::Rejected(msg)) => assert!(msg.contains("malformed"), "{msg}"),
        Err(other) => panic!("expected rejection, got {other:?}"),
        Ok(_) => panic!("a malformed sample must not be admitted"),
    }
    for t in good {
        let c = t.wait().expect("well-formed batch-mates are answered");
        assert_eq!(c.source, PredictionSource::Multi, "{c:?}");
    }
    let stats = server.stats();
    assert_eq!(stats.rejected, 1, "{stats:?}");
    assert_eq!(stats.panics_caught, 0, "{stats:?}");
    assert_eq!(stats.batched_requests, 2, "{stats:?}");
}

#[test]
fn shutdown_drains_admitted_work_and_refuses_new() {
    let ds = tiny_dataset();
    let server = Server::start(
        Arc::new(tiny_model(&ds)),
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(100),
            ..Default::default()
        },
    )
    .expect("valid config");
    let samples = samples_of(&ds);
    let tickets: Vec<_> = samples
        .iter()
        .take(5)
        .map(|s| server.submit(Arc::clone(s), Deadline::none()).expect("admitted"))
        .collect();
    server.shutdown();
    for t in tickets {
        t.wait().expect("admitted before shutdown ⇒ still answered");
    }
    match server.submit(Arc::clone(&samples[0]), Deadline::none()).and_then(Ticket::wait) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn degenerate_serve_config_is_a_typed_error() {
    let ds = tiny_dataset();
    let model = Arc::new(tiny_model(&ds));
    for cfg in [
        ServeConfig { max_batch: 0, ..Default::default() },
        ServeConfig { max_queue: 0, ..Default::default() },
        ServeConfig { workers: 0, ..Default::default() },
        ServeConfig { max_inflight: 1, max_batch: 32, ..Default::default() },
    ] {
        match Server::start(Arc::clone(&model), cfg) {
            Err(MvGnnError::Config(_)) => {}
            Ok(_) => panic!("degenerate config accepted: {cfg:?}"),
            Err(other) => panic!("wrong error class: {other}"),
        }
    }
}

fn frontend_for(program: &str) -> (Arc<MvGnn>, Frontend) {
    let module = mvgnn_lang::compile(program).expect("reference program compiles");
    let i2v = Inst2Vec::train(
        &[&module],
        &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
    );
    let sample_cfg = SampleConfig::default();
    let node_dim = i2v.dim()
        + mvgnn_embed::sample::KIND_DIM
        + mvgnn_embed::sample::EDGE_DIM
        + mvgnn_profiler::DynamicFeatures::DIM;
    let aw_vocab = mvgnn_graph::AwVocab::new(sample_cfg.walk_len).size();
    let model = Arc::new(MvGnn::new(MvGnnConfig::small(node_dim, aw_vocab)));
    let frontend = Frontend {
        inst2vec: i2v,
        sample_cfg,
        max_steps: None,
        max_call_depth: None,
        cascade: CascadeConfig::gnn_only(),
    };
    (model, frontend)
}

#[test]
fn source_path_classifies_and_replays_identically() {
    let (model, frontend) = frontend_for(PROGRAM);
    let server = Server::start_with_frontend(model, frontend, ServeConfig::default())
        .expect("valid config");
    let first = server
        .classify_source(PROGRAM, Deadline::none(), None)
        .expect("healthy program classifies");
    assert_eq!(first.reports.len(), 2);
    let second = server.classify_source(PROGRAM, Deadline::none(), None).expect("replay");
    for (a, b) in first.reports.iter().zip(&second.reports) {
        assert_eq!((a.prediction, a.source), (b.prediction, b.source));
    }
}

/// A program the pure-GNN arm must interpret for millions of steps.
const SLOW_PROGRAM: &str = r#"
array a[64]: f64;

fn main() {
    for i in 0..4000 {
        for j in 0..4000 {
            a[j % 64] = a[j % 64] + 1.0;
        }
    }
}
"#;

#[test]
fn a_slow_source_request_does_not_hold_up_a_small_one() {
    use std::sync::atomic::{AtomicBool, Ordering};
    // `gnn_only` sends every loop to the GNN, so the slow program is
    // interpreted rather than decided by the oracle.
    let (model, frontend) = frontend_for(PROGRAM);
    let server = Server::start_with_frontend(model, frontend, ServeConfig::default())
        .expect("valid config");
    let slow_done = AtomicBool::new(false);
    let answered_meanwhile = std::thread::scope(|s| {
        let slow = s.spawn(|| {
            let mc = server.classify_source(SLOW_PROGRAM, Deadline::none(), None);
            slow_done.store(true, Ordering::SeqCst);
            mc
        });
        // Wait until the slow request holds its admission token.
        while server.stats().inflight == 0 && !slow_done.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Small requests answered while the slow one is still running.
        // The first could slip in before a shared lock is taken; the rest
        // would wait behind it.
        let mut answered_meanwhile = 0;
        while !slow_done.load(Ordering::SeqCst) && answered_meanwhile < 3 {
            let small = server.classify_source(
                PROGRAM,
                Deadline::within(Duration::from_secs(10)),
                None,
            );
            assert_eq!(small.expect("the small program classifies").reports.len(), 2);
            if !slow_done.load(Ordering::SeqCst) {
                answered_meanwhile += 1;
            }
        }
        let slow = slow.join().expect("slow request thread");
        assert_eq!(slow.expect("the slow program classifies").reports.len(), 2);
        answered_meanwhile
    });
    assert_eq!(
        answered_meanwhile, 3,
        "small source requests must be answered while a slow one runs"
    );
}

#[test]
fn a_source_answer_past_its_deadline_is_not_ok() {
    // The program compiles well inside the deadline; the cascade then
    // interprets it for far longer, so the deadline passes while the
    // module is being classified.
    let (model, frontend) = frontend_for(PROGRAM);
    let server = Server::start_with_frontend(model, frontend, ServeConfig::default())
        .expect("valid config");
    match server.classify_source(SLOW_PROGRAM, Deadline::within(Duration::from_millis(100)), None)
    {
        Err(ServeError::DeadlineExceeded { stage: DeadlineStage::Frontend }) => {}
        other => panic!("a late module answer must expire typed, got {other:?}"),
    }
    assert_eq!(server.stats().inflight, 0, "the admission token is released");
    // The server keeps answering after the expiry.
    let mc = server.classify_source(PROGRAM, Deadline::none(), None).expect("classifies");
    assert_eq!(mc.reports.len(), 2);
}

#[test]
fn source_path_without_frontend_is_rejected() {
    let ds = tiny_dataset();
    let server = Server::start(Arc::new(tiny_model(&ds)), ServeConfig::default())
        .expect("valid config");
    match server.classify_source(PROGRAM, Deadline::none(), None) {
        Err(ServeError::Rejected(msg)) => assert!(msg.contains("frontend"), "{msg}"),
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn starved_budget_degrades_source_answers_typed() {
    let (model, frontend) = frontend_for(PROGRAM);
    let server = Server::start_with_frontend(model, frontend, ServeConfig::default())
        .expect("valid config");
    let budget = FaultPlan::new(21).starved_step_budget();
    let mc = server
        .classify_source(PROGRAM, Deadline::none(), Some(budget))
        .expect("starved budget degrades, it does not fail");
    assert_eq!(mc.reports.len(), 2);
    for r in &mc.reports {
        assert_ne!(r.source, PredictionSource::Multi, "{r:?}");
        assert!(r.diagnostic.is_some());
    }
}

#[test]
fn chaos_storm_is_fully_accounted_and_panic_free() {
    let ds = tiny_dataset();
    let (model, frontend) = {
        // Chaos mixes both paths; the sample path needs the corpus
        // model, so run the frontend against the same dimensions by
        // rejecting mismatched programs typed (still panic-free).
        let model = Arc::new(tiny_model(&ds));
        let module = mvgnn_lang::compile(PROGRAM).expect("compiles");
        let i2v = Inst2Vec::train(
            &[&module],
            &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
        );
        let frontend = Frontend {
            inst2vec: i2v,
            sample_cfg: SampleConfig::default(),
            max_steps: None,
            max_call_depth: None,
            cascade: CascadeConfig::default(),
        };
        (model, frontend)
    };
    let server = Server::start_with_frontend(
        model,
        frontend,
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_micros(500),
            max_queue: 16,
            max_inflight: 32,
            workers: 1,
        },
    )
    .expect("valid config");
    let inputs = ChaosInputs {
        samples: samples_of(&ds),
        sources: vec![PROGRAM.to_string()],
        oracles: Vec::new(),
    };
    let cfg = ChaosConfig {
        seed: 0xfeed,
        clients: 4,
        requests_per_client: 64,
        rate_per_client: 50_000.0, // far past capacity: must shed, not hang
        burst: 8,
        deadline: Duration::from_secs(5),
        source_frac: 0.15,
        malformed_frac: 0.5,
        starved_budget: true,
    };
    let report = run_chaos(&server, &inputs, &cfg);
    assert_eq!(report.submitted, 4 * 64);
    assert_eq!(
        report.accounted(),
        report.submitted,
        "every request needs a typed outcome: {report:?}"
    );
    assert_eq!(report.internal, 0, "zero panics required: {report:?}");
    assert_eq!(server.stats().panics_caught, 0);
    assert!(report.ok + report.degraded + report.module_ok > 0, "{report:?}");
    // Liveness after the storm.
    let c = server
        .submit(Arc::clone(&inputs.samples[0]), Deadline::within(Duration::from_secs(10)))
        .and_then(Ticket::wait)
        .expect("post-storm liveness");
    assert!(c.prediction <= 1);
    server.shutdown();
}

#[test]
fn sample_storm_past_capacity_sheds_typed_and_the_fused_head_answers_after_it() {
    // A tiny service (8 admission tokens, a 4-deep queue) under bursts
    // of 8 at 50,000 req/s per client: it must shed, not hang or panic.
    let ds = tiny_dataset();
    let server = Server::start(
        Arc::new(tiny_model(&ds)),
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            max_queue: 4,
            max_inflight: 8,
            workers: 1,
        },
    )
    .expect("valid config");
    let inputs = ChaosInputs { samples: samples_of(&ds), sources: Vec::new(), oracles: Vec::new() };
    let cfg = ChaosConfig {
        seed: 0x5e1e,
        clients: 4,
        requests_per_client: 64,
        rate_per_client: 50_000.0,
        burst: 8,
        deadline: Duration::from_secs(5),
        ..Default::default()
    };
    let report = run_chaos(&server, &inputs, &cfg);
    assert_eq!(report.submitted, 4 * 64);
    assert_eq!(
        report.accounted(),
        report.submitted,
        "every request needs a typed outcome: {report:?}"
    );
    assert_eq!(report.internal, 0, "zero panics required: {report:?}");
    assert!(report.shed > 0, "forced overload must shed: {report:?}");
    assert!(report.ok > 0, "some admitted requests must be answered: {report:?}");
    assert_eq!(server.stats().panics_caught, 0);
    // Liveness after the storm: a fresh request gets a healthy answer.
    let c = server
        .submit(Arc::clone(&inputs.samples[0]), Deadline::within(Duration::from_secs(10)))
        .and_then(Ticket::wait)
        .expect("post-storm liveness");
    assert_eq!(c.source, PredictionSource::Multi, "post-storm answer degraded: {c:?}");
    server.shutdown();
}

#[test]
fn oracle_storm_never_occupies_a_micro_batch_slot() {
    // Every request in this storm carries a decisive oracle report, so
    // tier 0 must answer all of them at submit time: no admission
    // token, no queue slot, no micro-batch dispatch.
    let ds = tiny_dataset();
    let model = Arc::new(tiny_model(&ds));
    let server = Server::start(
        model,
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_micros(500),
            max_queue: 4, // tiny on purpose: queued requests would shed
            max_inflight: 8,
            workers: 1,
        },
    )
    .expect("valid config");

    let module = mvgnn_lang::compile(PROGRAM).expect("compiles");
    let entry = module.func_by_name("main").expect("has main");
    let reports: Vec<Arc<mvgnn_analyze::OracleReport>> = module.funcs[entry.index()]
        .loops
        .iter()
        .map(|info| Arc::new(mvgnn_analyze::analyze_loop(&module, entry, info.id)))
        .collect();
    assert_eq!(reports.len(), 2, "DOALL + recurrence");
    for r in &reports {
        assert!(
            mvgnn_core::oracle_decision(r).is_some(),
            "storm requires decisive verdicts: {r:?}"
        );
    }

    let samples = samples_of(&ds);
    let oracles = (0..samples.len())
        .map(|i| Some(Arc::clone(&reports[i % reports.len()])))
        .collect();
    let inputs = ChaosInputs { samples, sources: Vec::new(), oracles };
    let cfg = ChaosConfig {
        seed: 0xacce,
        clients: 4,
        requests_per_client: 64,
        rate_per_client: 100_000.0, // would melt the tiny queue if batched
        burst: 16,
        deadline: Duration::from_secs(5),
        source_frac: 0.0,
        malformed_frac: 0.0,
        starved_budget: false,
    };
    let report = run_chaos(&server, &inputs, &cfg);
    assert_eq!(report.submitted, 4 * 64);
    assert_eq!(report.accounted(), report.submitted, "{report:?}");
    assert_eq!(
        report.oracle_decided, report.submitted,
        "every answer must come from tier 0: {report:?}"
    );
    assert_eq!(report.internal, 0, "{report:?}");

    // The micro-batcher census: the whole storm cost it nothing.
    let stats = server.stats();
    assert_eq!(stats.oracle_decided, report.submitted);
    assert_eq!(stats.batched_requests, 0, "oracle-decided work took a batch slot: {stats:?}");
    assert_eq!(stats.batches, 0, "{stats:?}");
    assert_eq!(stats.admitted, 0, "tier 0 must not consume admission tokens: {stats:?}");
    assert_eq!(stats.shed + stats.expired + stats.rejected, 0, "{stats:?}");
    assert_eq!(stats.panics_caught, 0);

    // A single closed-loop request surfaces the provenance and facts.
    let c = server
        .submit_tier0(
            Arc::clone(&inputs.samples[0]),
            Some(Tier0::Oracle(&reports[0])),
            Deadline::within(Duration::from_secs(5)),
        )
        .and_then(Ticket::wait)
        .expect("oracle-decided request");
    assert_eq!(c.decided_by, mvgnn_core::DecidedBy::Oracle);
    assert_eq!(c.source, PredictionSource::Oracle);
    assert!(c.oracle_facts.is_some(), "tier-0 answers carry the facts: {c:?}");
    assert_eq!(c.batched_with, 0);
    assert!(c.pragma.is_none(), "a bare report has no rendered plan: {c:?}");

    // The planned path answers at submit time too, with the pragma.
    for (i, info) in module.funcs[entry.index()].loops.iter().enumerate() {
        let plan = mvgnn_analyze::plan_from_report(&module, entry, info.id, &reports[i]);
        assert!(plan.proved(), "{plan:?}");
        let c = server
            .submit_tier0(
                Arc::clone(&inputs.samples[0]),
                Some(Tier0::Plan(&plan)),
                Deadline::within(Duration::from_secs(5)),
            )
            .and_then(Ticket::wait)
            .expect("plan-decided request");
        assert_eq!(c.decided_by, mvgnn_core::DecidedBy::Oracle);
        assert_eq!(c.pragma.as_deref(), Some(plan.pragma.as_str()), "{c:?}");
        assert_eq!(
            Some(c.prediction),
            plan.proved_binary(),
            "the answer must restate the proof: {c:?}"
        );
    }

    // The GNN path still works after the storm (nothing was wedged).
    let gnn = server
        .submit(Arc::clone(&inputs.samples[0]), Deadline::within(Duration::from_secs(10)))
        .and_then(Ticket::wait)
        .expect("post-storm liveness");
    assert!(gnn.prediction <= 1);
    assert_eq!(gnn.decided_by, mvgnn_core::DecidedBy::Gnn);
    server.shutdown();
}
