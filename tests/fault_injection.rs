//! Fault-injection harness: every recovery path of the fault-tolerant
//! pipeline is driven end-to-end by a deterministic, seed-keyed
//! [`FaultPlan`]. None of these scenarios may panic — faults must surface
//! as typed errors, degraded per-loop predictions, or clean rollbacks.

use mvgnn::core::checkpoint::{write_checkpoint, CheckpointMeta, MappedCheckpoint};
use mvgnn::core::infer::PredictionSource;
use mvgnn::core::model::{MvGnn, MvGnnConfig};
use mvgnn::core::trainer::{train, EpochStats, TrainConfig};
use mvgnn::core::{Cascade, FaultPlan, MvGnnError};
use mvgnn::dataset::{build_corpus, CorpusConfig, Suite};
use mvgnn::embed::{build_sample, Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn::ir::interp::InterpError;
use mvgnn::ir::module::FuncId;
use mvgnn::ir::Module;
use mvgnn::lang::compile;
use mvgnn::peg::{build_peg, loop_subpeg};
use mvgnn::profiler::{build_cus, loop_features, profile_module_resilient};

const PROGRAM: &str = r#"
array a[48]: f64;
array b[48]: f64;
array sum[1]: f64;

fn main() {
    for i in 0..48 {
        b[i] = a[i] * a[i] + 1.0;
    }
    for i in 0..48 {
        sum[0] = sum[0] + b[i];
    }
    for i in 1..48 {
        a[i] = a[i - 1] * 0.5;
    }
}
"#;

fn compiled() -> (Module, FuncId) {
    let module = compile(PROGRAM).expect("the reference program compiles");
    let entry = module.func_by_name("main").expect("has main");
    (module, entry)
}

/// Model + embedding sized for the reference program.
fn model_for(module: &Module, entry: FuncId) -> (Inst2Vec, MvGnn) {
    let i2v = Inst2Vec::train(
        &[module],
        &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
    );
    let partial = profile_module_resilient(module, entry, &[], None, None);
    assert!(partial.is_complete());
    let cus = build_cus(module);
    let peg = build_peg(module, &cus, &partial.deps);
    let info = &module.funcs[entry.index()].loops[0];
    let feats = loop_features(module, entry, info.id, &partial.deps, &partial.loops[&(entry, info.id)]);
    let sub = loop_subpeg(&peg, module, &cus, entry, info.id);
    let probe = build_sample(&sub, &i2v, &feats, &SampleConfig::default(), None);
    (i2v, MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab)))
}

fn tiny_dataset() -> mvgnn::dataset::Dataset {
    build_corpus(&CorpusConfig {
        seeds: vec![3],
        opt_levels: vec![mvgnn::ir::transform::OptLevel::O0],
        per_class: Some(20),
        test_fraction: 0.25,
        suite: Some(Suite::PolyBench),
        inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
        sample: Default::default(),
        seed: 5,
        label_noise: 0.0,
        static_features: false,
    })
}

/// Injector 1 — truncated trace: a starved step budget must degrade each
/// loop (single-view or conservative) without shrinking the batch.
#[test]
fn truncated_trace_degrades_per_loop() {
    let (module, entry) = compiled();
    let (i2v, model) = model_for(&module, entry);
    let budget = FaultPlan::new(21).starved_step_budget();
    let reports = Cascade::gnn_only().classify_module(
        &model,
        &module,
        entry,
        &i2v,
        &SampleConfig::default(),
        Some(budget),
        None,
    );
    assert_eq!(reports.len(), 3, "all loops must be reported");
    for r in &reports {
        assert_ne!(r.source, PredictionSource::Multi, "{r:?}");
        let d = r.diagnostic.as_deref().expect("degraded loops carry a diagnostic");
        assert!(d.contains("trunc"), "{d}");
    }
    // The same budget on the healthy path yields full multi-view output.
    let healthy = Cascade::gnn_only().classify_module(
        &model,
        &module,
        entry,
        &i2v,
        &SampleConfig::default(),
        None,
        None,
    );
    assert!(healthy.iter().all(|r| r.source == PredictionSource::Multi));
}

/// Injector 1b — call-depth exhaustion propagates the same way.
#[test]
fn call_depth_fault_is_salvaged_by_the_profiler() {
    use mvgnn::ir::inst::BinOp;
    use mvgnn::ir::types::Ty;
    use mvgnn::ir::FunctionBuilder;
    let mut m = Module::new("deep");
    let a = m.add_array("a", Ty::I64, 8);
    let callee = {
        let mut b = FunctionBuilder::new(&mut m, "callee", 0);
        let z = b.const_i64(0);
        let v = b.load(a, z);
        b.ret(Some(v));
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", 0);
    let lo = b.const_i64(0);
    let hi = b.const_i64(8);
    let st = b.const_i64(1);
    let l = b.for_loop(lo, hi, st, |b, i| {
        let x = b.bin(BinOp::Add, i, i);
        b.store(a, i, x);
    });
    let _ = b.call(callee, &[]);
    let f = b.finish();

    let partial = profile_module_resilient(&m, f, &[], None, Some(1));
    assert!(matches!(partial.error, Some(InterpError::DepthLimit(_))), "{:?}", partial.error);
    // The loop that ran before the faulting call is fully accounted for.
    assert_eq!(partial.loops[&(f, l)].iterations, 8);
}

/// Injector 2 — NaN-poisoned weights: training detects the divergence,
/// rolls back to the last good snapshot, and still completes; inference
/// on a model poisoned beyond repair refuses to trust any view.
#[test]
fn poisoned_weights_recover_in_training_and_degrade_in_inference() {
    let ds = tiny_dataset();
    let probe = &ds.train[0].sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        fault: Some(FaultPlan::new(13).poison_weights_at(1)),
        ..Default::default()
    };
    let stats = train(&mut model, &ds.train, &cfg).expect("rollback must recover");
    assert_eq!(stats.len(), 3);
    assert!(stats.iter().all(|e| e.loss.is_finite()));

    // Inference side: poison every tensor and classify.
    let (module, entry) = compiled();
    let (i2v, mut infer_model) = model_for(&module, entry);
    FaultPlan::new(13).poison_params(&mut infer_model.params, 64);
    let reports = Cascade::gnn_only().classify_module(
        &infer_model,
        &module,
        entry,
        &i2v,
        &SampleConfig::default(),
        None,
        None,
    );
    assert_eq!(reports.len(), 3, "poisoned model must not abort the batch");
    assert!(reports.iter().all(|r| r.source != PredictionSource::Multi));
}

/// Injector 3 — corrupted checkpoint bytes: every seed's bit flips are
/// rejected with a typed checkpoint error, and resume-from-corrupt fails
/// cleanly instead of panicking or training from garbage.
#[test]
fn corrupted_checkpoints_are_rejected() {
    let params = || {
        let mut p = mvgnn::tensor::Params::new();
        p.add("w", 24, 25, (0..600).map(|x| x as f32).collect());
        p
    };
    let meta = CheckpointMeta {
        epoch: 2,
        lr: 1e-3,
        retries: 0,
        calibration: Some(1.25),
        stats: vec![EpochStats { epoch: 2, loss: 0.5, accuracy: 0.7 }],
    };
    let dir = std::env::temp_dir().join("mvgnn_fault_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.mvck");
    // Open and install: the directory's names and shapes are only
    // checked against a store at install time.
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let cp = MappedCheckpoint::open(&path)?;
        let mut dst = params();
        cp.install(&mut dst)?;
        Ok::<_, MvGnnError>((cp.meta().clone(), dst))
    };
    write_checkpoint(&path, &meta, &params()).unwrap();
    let clean = std::fs::read(&path).unwrap();
    let (decoded, weights) = load(&clean).unwrap();
    assert_eq!(decoded, meta);
    assert_eq!(weights.data(mvgnn::tensor::ParamId(0)), params().data(mvgnn::tensor::ParamId(0)));
    for seed in 0..32u64 {
        let mut bytes = clean.clone();
        FaultPlan::new(seed).corrupt_bytes(&mut bytes, 3);
        if bytes == clean {
            continue; // bit flips cancelled out — nothing injected
        }
        match load(&bytes) {
            Err(MvGnnError::Checkpoint(_)) => {}
            Err(other) => panic!("seed {seed}: wrong error class {other}"),
            Ok((decoded, _)) => panic!("seed {seed}: corruption accepted: {decoded:?}"),
        }
    }

    // End-to-end: resuming training from a corrupt file is a typed error.
    let mut bytes = clean;
    FaultPlan::new(5).corrupt_bytes(&mut bytes, 8);
    std::fs::write(&path, &bytes).unwrap();
    let ds = tiny_dataset();
    let probe = &ds.train[0].sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    let cfg = TrainConfig { resume_from: Some(path), epochs: 1, ..Default::default() };
    match train(&mut model, &ds.train, &cfg) {
        Err(MvGnnError::Checkpoint(_)) => {}
        other => panic!("expected a checkpoint rejection, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Injector 4 — malformed source: truncated and mangled programs must
/// come back as compile errors, never panics.
#[test]
fn malformed_source_yields_typed_compile_errors() {
    for seed in 0..64u64 {
        let plan = FaultPlan::new(seed);
        let frac = (seed as f64 % 17.0) / 17.0;
        let truncated = plan.truncate_source(PROGRAM, frac);
        if let Err(e) = compile(&truncated) {
            let _ = MvGnnError::from(e).to_string(); // renders without panicking
        }
        let mangled = plan.mangle_source(PROGRAM);
        if let Err(e) = compile(&mangled) {
            let _ = MvGnnError::from(e).to_string();
        }
    }
}

/// Injector 5 — poisoned params behind the service: a stream of requests
/// through a [`Server`](mvgnn::serve::Server) whose weights are NaN-
/// poisoned must come back as typed degraded classifications — every
/// request answered, zero panics caught at the dispatch boundary.
#[test]
fn poisoned_params_through_the_service_degrade_typed() {
    use mvgnn::serve::{Deadline, ServeConfig, Server};
    use std::sync::Arc;

    let ds = tiny_dataset();
    let probe = &ds.train[0].sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    FaultPlan::new(17).poison_params(&mut model.params, 64);
    let server = Server::start(
        Arc::new(model),
        ServeConfig { max_batch: 4, ..Default::default() },
    )
    .expect("valid config");

    // Open-loop stream: everything is in flight at once, so the poison
    // hits mid-stream batches, not one isolated request.
    let tickets: Vec<_> = ds
        .test
        .iter()
        .map(|s| {
            server
                .submit(Arc::new(s.sample.clone()), Deadline::none())
                .expect("admitted")
        })
        .collect();
    assert!(!tickets.is_empty());
    for t in tickets {
        let c = t.wait().expect("typed answer, not a panic");
        assert_ne!(c.source, PredictionSource::Multi, "poison trusted: {c:?}");
        assert!(c.diagnostic.is_some(), "degraded answers carry a diagnostic");
    }
    assert_eq!(server.stats().panics_caught, 0);
    server.shutdown();
}

/// Injector 6 — malformed and starved sources through the service
/// frontend: truncations, manglings, and starved interpreter budgets must
/// surface as typed compile errors or degraded reports, never as panics
/// or `Internal` faults.
#[test]
fn malformed_sources_through_the_service_are_typed() {
    use mvgnn::serve::{Deadline, Frontend, ServeConfig, ServeError, Server};
    use std::sync::Arc;

    let (module, entry) = compiled();
    let (i2v, model) = model_for(&module, entry);
    let _ = entry;
    let server = Server::start_with_frontend(
        Arc::new(model),
        Frontend {
            inst2vec: i2v,
            sample_cfg: SampleConfig::default(),
            max_steps: None,
            max_call_depth: None,
            cascade: mvgnn::core::CascadeConfig::default(),
        },
        ServeConfig::default(),
    )
    .expect("valid config");

    for seed in 0..24u64 {
        let plan = FaultPlan::new(seed);
        let frac = (seed as f64 % 17.0) / 17.0;
        for src in [plan.truncate_source(PROGRAM, frac), plan.mangle_source(PROGRAM)] {
            match server.classify_source(&src, Deadline::none(), None) {
                Ok(mc) => assert!(mc.reports.len() <= 3),
                Err(ServeError::Compile(_)) | Err(ServeError::Rejected(_)) => {}
                Err(other) => panic!("seed {seed}: untyped service fault {other:?}"),
            }
        }
    }

    // Starved interpreter budget: the healthy program still answers, with
    // every loop degraded typed.
    let budget = FaultPlan::new(21).starved_step_budget();
    let mc = server
        .classify_source(PROGRAM, Deadline::none(), Some(budget))
        .expect("starvation degrades, it does not fail");
    assert_eq!(mc.reports.len(), 3);
    assert!(mc.reports.iter().all(|r| r.source != PredictionSource::Multi));
    assert_eq!(server.stats().panics_caught, 0);
}

/// Injector 7 — a degenerate serve configuration is a typed error at
/// construction.
#[test]
fn degenerate_configs_are_typed_errors() {
    use mvgnn::serve::{ServeConfig, Server};
    use std::sync::Arc;

    let ds = tiny_dataset();
    let probe = &ds.train[0].sample;
    let model = Arc::new(MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab)));
    match Server::start(model, ServeConfig { max_batch: 0, ..Default::default() }) {
        Err(MvGnnError::Config(_)) => {}
        Ok(_) => panic!("degenerate serve config accepted"),
        Err(other) => panic!("wrong error class: {other}"),
    }
}
