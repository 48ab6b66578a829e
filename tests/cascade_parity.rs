//! Cascade vs historical-classifier parity.
//!
//! The tiered [`Cascade`] moved the whole classification path — module
//! classification, the serve micro-batcher — behind one abstraction over
//! one forward pass, [`MvGnn::forward_rows`]. These tests pin the
//! contract that made the move safe: the tier-1 primitive and the
//! accessors the benchmark calls read the same rows *bit for bit* (raw
//! `f32` logits bits, not merely equal predictions), and turning the
//! oracle tier on changes only the rows the oracle decides — every
//! undecided row is untouched.

use mvgnn::core::cascade::{Cascade, CascadeConfig, DecidedBy};
use mvgnn::core::infer::PredictionSource;
use mvgnn::core::model::{MvGnn, MvGnnConfig};
use mvgnn::core::FaultPlan;
use mvgnn::dataset::{build_corpus, CorpusConfig, Suite};
use mvgnn::embed::{build_sample, GraphSample, Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn::ir::types::Ty;
use mvgnn::ir::inst::BinOp;
use mvgnn::ir::module::{FuncId, Module};
use mvgnn::ir::FunctionBuilder;
use mvgnn::peg::{build_peg, loop_subpeg};
use mvgnn::profiler::{build_cus, loop_features, profile_module_resilient};
use mvgnn::tensor::Workspace;

/// Three loops spanning the verdict lattice: a DOALL the oracle proves
/// parallel, a linear recurrence it proves dependent, and an
/// indirect-index write it must leave `Unknown` (the GNN's row).
fn mixed_module() -> (Module, FuncId) {
    let mut m = Module::new("parity");
    let a = m.add_array("a", Ty::F64, 32);
    let out = m.add_array("b", Ty::F64, 32);
    let idx = m.add_array("idx", Ty::I64, 32);
    let mut b = FunctionBuilder::new(&mut m, "main", 0);
    let lo = b.const_i64(0);
    let hi = b.const_i64(32);
    let st = b.const_i64(1);
    b.for_loop(lo, hi, st, |b, i| {
        let x = b.load(a, i);
        let y = b.bin(BinOp::Mul, x, x);
        b.store(out, i, y);
    });
    let one = b.const_i64(1);
    b.for_loop(one, hi, st, |b, i| {
        let p = b.bin(BinOp::Sub, i, one);
        let x = b.load(out, p);
        b.store(out, i, x);
    });
    let v = b.const_f64(1.0);
    b.for_loop(lo, hi, st, |b, i| {
        let j = b.load(idx, i);
        b.store(a, j, v);
    });
    let f = b.finish();
    (m, f)
}

fn setup() -> (Module, FuncId, Inst2Vec, MvGnn) {
    let (m, f) = mixed_module();
    let i2v = Inst2Vec::train(
        &[&m],
        &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
    );
    let cfg = SampleConfig::default();
    let partial = profile_module_resilient(&m, f, &[], None, None);
    let cus = build_cus(&m);
    let peg = build_peg(&m, &cus, &partial.deps);
    let l0 = m.funcs[f.index()].loops[0].id;
    let feats = loop_features(&m, f, l0, &partial.deps, &partial.loops[&(f, l0)]);
    let sub = loop_subpeg(&peg, &m, &cus, f, l0);
    let probe = build_sample(&sub, &i2v, &feats, &cfg, None);
    let model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    (m, f, i2v, model)
}

/// The oracle tier on, everything else off — the configuration whose
/// GNN rows must be bit-identical to the pure-GNN path.
fn oracle_plus_gnn() -> Cascade {
    Cascade::new(CascadeConfig {
        use_oracle: true,
        confidence_threshold: 0.0,
        use_profiler: false,
        static_features: false,
        ..CascadeConfig::default()
    })
}

#[test]
fn oracle_tier_changes_only_the_rows_it_decides() {
    let (m, f, i2v, model) = setup();
    let cfg = SampleConfig::default();
    let base = Cascade::gnn_only().classify_module(&model, &m, f, &i2v, &cfg, None, None);
    let tiered = oracle_plus_gnn().classify_module(&model, &m, f, &i2v, &cfg, None, None);
    assert_eq!(base.len(), tiered.len());
    let mut oracle_rows = 0;
    let mut gnn_rows = 0;
    for (b, t) in base.iter().zip(&tiered) {
        assert_eq!((b.func, b.l), (t.func, t.l), "report order must be loop order");
        match t.decided_by {
            DecidedBy::Oracle => {
                oracle_rows += 1;
                assert_eq!(t.source, PredictionSource::Oracle);
                let report = t.oracle.as_ref().expect("tier-0 rows carry the oracle facts");
                assert!(!report.facts.is_empty() || t.prediction == 1, "{report:?}");
            }
            DecidedBy::Gnn => {
                gnn_rows += 1;
                assert_eq!(b.prediction, t.prediction, "undecided row moved: {t:?}");
                assert_eq!(b.source, t.source);
                assert_eq!(b.diagnostic, t.diagnostic);
                assert!(t.oracle.is_none());
            }
            DecidedBy::Profiler => panic!("profiler tier is off: {t:?}"),
        }
    }
    assert_eq!(oracle_rows, 2, "DOALL + recurrence are provable");
    assert_eq!(gnn_rows, 1, "the indirect write must fall through to the GNN");
}

#[test]
fn starved_trace_degradation_survives_the_oracle_tier_unchanged() {
    let (m, f, i2v, model) = setup();
    let cfg = SampleConfig::default();
    let budget = FaultPlan::new(4).starved_step_budget();
    let base =
        Cascade::gnn_only().classify_module(&model, &m, f, &i2v, &cfg, Some(budget), None);
    let tiered =
        oracle_plus_gnn().classify_module(&model, &m, f, &i2v, &cfg, Some(budget), None);
    assert_eq!(base.len(), tiered.len());
    for (b, t) in base.iter().zip(&tiered) {
        if t.decided_by == DecidedBy::Oracle {
            // Tier 0 is static: a starved interpreter cannot degrade it.
            assert!(t.diagnostic.is_none(), "{t:?}");
            continue;
        }
        assert_ne!(b.source, PredictionSource::Multi, "starved trace must degrade: {b:?}");
        assert_eq!(b.prediction, t.prediction);
        assert_eq!(b.source, t.source);
        assert_eq!(b.diagnostic, t.diagnostic);
    }
}

fn corpus_samples() -> Vec<GraphSample> {
    let ds = build_corpus(&CorpusConfig {
        seeds: vec![4],
        opt_levels: vec![mvgnn::ir::transform::OptLevel::O0],
        per_class: Some(24),
        test_fraction: 0.5,
        suite: Some(Suite::PolyBench),
        inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 4 },
        sample: Default::default(),
        seed: 6,
        label_noise: 0.0,
        static_features: false,
    });
    ds.test.iter().map(|s| s.sample.clone()).collect()
}

fn bits(rows: &[Vec<f32>]) -> Vec<u32> {
    rows.iter().flatten().map(|x| x.to_bits()).collect()
}

#[test]
fn logits_surfacing_batch_is_bit_identical_to_the_checked_batch() {
    let samples = corpus_samples();
    let s0 = &samples[0];
    let model = MvGnn::new(MvGnnConfig::small(s0.node_dim, s0.aw_vocab));
    let refs: Vec<&GraphSample> = samples.iter().collect();
    let plain = Cascade::gnn_batch(&model, &mut Workspace::new(), &refs);
    let (surfaced, logits) =
        model.predict_checked_logits_batch_ws(&mut Workspace::new(), &refs);
    assert_eq!(plain, surfaced, "surfacing logits must not move any verdict");
    let reference = model.logits_batch(&refs);
    assert_eq!(logits.len(), reference.len());
    assert_eq!(bits(&logits), bits(&reference), "fused logits rows must match bit-exact");
}

/// The three accessors the benchmark calls are thin reads of one
/// `forward_rows` pass: same verdicts, same fused-logit bits.
#[test]
fn benchmark_accessors_are_bit_identical_to_forward_rows() {
    let samples = corpus_samples();
    let s0 = &samples[0];
    let model = MvGnn::new(MvGnnConfig::small(s0.node_dim, s0.aw_vocab));
    let refs: Vec<&GraphSample> = samples.iter().collect();
    let rows = model.forward_rows(&mut Workspace::new(), &refs);
    let checked: Vec<_> = (0..rows.len()).map(|g| rows.checked(g)).collect();
    let fused: Vec<Vec<f32>> = (0..rows.len()).map(|g| rows.fused(g).to_vec()).collect();

    let single: Vec<_> = refs.iter().map(|s| model.predict_checked(s)).collect();
    assert_eq!(single, checked, "predict_checked");
    let (surfaced, logits) =
        model.predict_checked_logits_batch_ws(&mut Workspace::new(), &refs);
    assert_eq!(surfaced, checked, "predict_checked_logits_batch_ws verdicts");
    assert_eq!(bits(&logits), bits(&fused), "predict_checked_logits_batch_ws logits");
    assert_eq!(bits(&model.logits_batch(&refs)), bits(&fused), "logits_batch");
    assert!(model.logits_batch(&[]).is_empty());
}

#[test]
fn workspace_reuse_across_chunks_is_bit_identical_to_fresh_workspaces() {
    let samples = corpus_samples();
    let s0 = &samples[0];
    let model = MvGnn::new(MvGnnConfig::small(s0.node_dim, s0.aw_vocab));
    let refs: Vec<&GraphSample> = samples.iter().collect();
    // The cascade reuses one workspace across every chunk of a module;
    // the historical path built a fresh one per chunk. The pool contract
    // (zero-filled exact-length acquires) makes the two identical.
    let mut shared = Workspace::new();
    let mut reused = Vec::new();
    for chunk in refs.chunks(5) {
        reused.extend(Cascade::gnn_batch(&model, &mut shared, chunk));
    }
    let mut fresh = Vec::new();
    for chunk in refs.chunks(5) {
        fresh.extend(Cascade::gnn_batch(&model, &mut Workspace::new(), chunk));
    }
    assert_eq!(reused, fresh, "workspace reuse must not move any verdict");
}
