//! Parallel-pattern classification — the paper's first future-work item:
//! "modifying our resulting classification to specify distinct parallel
//! patterns", i.e. a 4-way DOALL / reduction / serial / task head instead
//! of the binary label.

use crate::model::{MvGnn, MvGnnConfig};
use crate::trainer::TrainConfig;
use mvgnn_dataset::{LabeledSample, PatternKind};
use mvgnn_tensor::optim::{clip_grad_norm, Adam};
use mvgnn_tensor::tape::{GradStore, Tape};
use mvgnn_tensor::Workspace;

/// The four pattern classes, with a stable index mapping.
pub const PATTERN_CLASSES: [PatternKind; 4] =
    [PatternKind::DoAll, PatternKind::Reduction, PatternKind::Serial, PatternKind::Task];

/// Class index of a pattern.
pub fn pattern_class(p: PatternKind) -> usize {
    match p {
        PatternKind::DoAll => 0,
        PatternKind::Reduction => 1,
        PatternKind::Serial => 2,
        PatternKind::Task => 3,
    }
}

/// Configure a 4-class MV-GNN for pattern classification.
pub fn pattern_model_config(node_dim: usize, aw_vocab: usize) -> MvGnnConfig {
    let mut cfg = MvGnnConfig::small(node_dim, aw_vocab);
    cfg.classes = 4;
    cfg.node_dgcnn.classes = 4;
    cfg.struct_dgcnn.classes = 4;
    cfg
}

/// Train a 4-class pattern model; returns per-epoch mean loss.
///
/// Reuses the binary model's architecture with a widened head; labels are
/// the *ground-truth patterns* (noise-free — pattern identification is a
/// diagnostic task, not the paper's noisy binary benchmark).
pub fn train_patterns(
    model: &mut MvGnn,
    data: &[LabeledSample],
    cfg: &TrainConfig,
) -> Vec<f32> {
    assert!(!data.is_empty());
    let mut opt = Adam::new(cfg.lr);
    let mut curve = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        let mut total = 0.0f32;
        let mut master = GradStore::zeros_like(&model.params);
        for s in data {
            let batch = mvgnn_embed::GraphBatch::single(&s.sample);
            let mut tape = Tape::new(&model.params);
            let fwd = model.forward_batch(&mut tape, &batch);
            let target = pattern_class(s.pattern);
            let loss = tape.softmax_ce(fwd.logits, &[target], model.cfg.temperature);
            total += tape.data(loss)[0];
            tape.backward(loss);
            master.absorb(&tape.into_grads());
        }
        clip_grad_norm(&mut master, cfg.clip);
        opt.step(&mut model.params, &master);
        curve.push(total / data.len() as f32);
    }
    curve
}

/// Predict the pattern of one sample.
pub fn predict_pattern(model: &MvGnn, s: &mvgnn_embed::GraphSample) -> PatternKind {
    PATTERN_CLASSES[model.forward_rows(&mut Workspace::new(), &[s]).argmax(0)]
}

/// A pattern prediction cross-checked against the parallelization
/// planner: when the static prover *proves* a plan for the loop, the
/// proved pattern is final and the learned head is advisory. Checked
/// predictions therefore can never contradict a proved plan — the
/// invariant lint rule C audits on the corpus.
#[derive(Debug, Clone)]
pub struct CheckedPattern {
    /// Final pattern after the prover check.
    pub pattern: PatternKind,
    /// What the learned head said on its own.
    pub raw: PatternKind,
    /// The plan consulted for the check (proved or not).
    pub plan: mvgnn_analyze::LoopPlan,
    /// True when a proof replaced a disagreeing learned prediction.
    pub overridden: bool,
}

/// [`predict_pattern`] with the prover-checked evaluation path: run the
/// planner over the loop and let a proved plan override the head.
/// `Task` is outside the prover's vocabulary, but task loops contain
/// opaque calls and are therefore never proved, so a proof overriding
/// `Task` cannot demote a genuinely-proved task loop — it corrects a
/// misprediction on a loop the prover decided.
pub fn predict_pattern_checked(
    model: &MvGnn,
    s: &mvgnn_embed::GraphSample,
    module: &mvgnn_ir::Module,
    func: mvgnn_ir::module::FuncId,
    l: mvgnn_ir::module::LoopId,
) -> CheckedPattern {
    use mvgnn_analyze::PlannedPattern;
    let raw = predict_pattern(model, s);
    let plan = mvgnn_analyze::plan_loop(module, func, l);
    let (pattern, overridden) = match plan.proved_pattern() {
        Some(p) => {
            let proved = match p {
                PlannedPattern::DoAll => PatternKind::DoAll,
                PlannedPattern::Reduction => PatternKind::Reduction,
                PlannedPattern::Serial => PatternKind::Serial,
            };
            (proved, proved != raw)
        }
        None => (raw, false),
    };
    CheckedPattern { pattern, raw, plan, overridden }
}

/// 4×4 confusion matrix (rows = truth, cols = prediction).
pub fn pattern_confusion(
    model: &MvGnn,
    data: &[LabeledSample],
) -> [[usize; 4]; 4] {
    let mut m = [[0usize; 4]; 4];
    for s in data {
        let truth = pattern_class(s.pattern);
        let pred = pattern_class(predict_pattern(model, &s.sample));
        m[truth][pred] += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_dataset::{build_corpus, CorpusConfig, Suite};
    use mvgnn_embed::Inst2VecConfig;
    use mvgnn_ir::transform::OptLevel;

    #[test]
    fn pattern_class_mapping_is_total() {
        for (i, &p) in PATTERN_CLASSES.iter().enumerate() {
            assert_eq!(pattern_class(p), i);
        }
    }

    /// The head's argmax goes through the shared `argmax_row` helper
    /// (via `RowOutputs::argmax`), which orders by `total_cmp` (never the
    /// panicking/NaN-lossy `partial_cmp` fold) and resolves exact ties to
    /// the *last* max class. Pin both so a silent helper change fails
    /// here.
    #[test]
    fn pattern_argmax_uses_total_cmp_with_last_max_tie_break() {
        use mvgnn_tensor::tape::argmax_row;
        assert_eq!(argmax_row(&[0.25, 0.25, 0.25, 0.25]), 3);
        assert_eq!(argmax_row(&[1.0, 2.0, 2.0, 0.0]), 2);
        // total_cmp orders -0.0 below 0.0, so 0.0 wins the "tie".
        assert_eq!(argmax_row(&[-0.0, 0.0, -1.0, -2.0]), 1);
        // NaN is largest under total order — selected, not panicked on
        // (callers' finiteness checks catch the divergence).
        assert_eq!(argmax_row(&[0.0, f32::NAN, 3.0, 1.0]), 1);
    }

    #[test]
    fn proved_plans_override_the_learned_pattern_head() {
        use mvgnn_embed::{build_sample, Inst2Vec, Inst2VecConfig, SampleConfig};
        use mvgnn_ir::inst::BinOp;
        use mvgnn_ir::types::Ty;
        use mvgnn_ir::FunctionBuilder;
        use mvgnn_peg::{build_peg, loop_subpeg};
        use mvgnn_profiler::{build_cus, loop_features, profile_module};

        // One provable DOALL map and one provable serial recurrence.
        let mut m = mvgnn_ir::Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let one = b.const_i64(1);
        b.for_loop(lo, hi, st, |b, i| {
            let x = b.load(a, i);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, i, y);
        });
        b.for_loop(one, hi, st, |b, i| {
            let p = b.bin(BinOp::Sub, i, one);
            let x = b.load(out, p);
            b.store(out, i, x);
        });
        let f = b.finish();

        let i2v = Inst2Vec::train(
            &[&m],
            &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
        );
        let res = profile_module(&m, f, &[]).unwrap();
        let cus = build_cus(&m);
        let peg = build_peg(&m, &cus, &res.deps);
        let cfg = SampleConfig::default();
        let mk = |l: mvgnn_ir::module::LoopId| {
            let feats = loop_features(&m, f, l, &res.deps, &res.loops[&(f, l)]);
            let sub = loop_subpeg(&peg, &m, &cus, f, l);
            build_sample(&sub, &i2v, &feats, &cfg, None)
        };
        let l0 = m.funcs[f.index()].loops[0].id;
        let l1 = m.funcs[f.index()].loops[1].id;
        let s0 = mk(l0);
        let s1 = mk(l1);
        // An untrained head predicts whatever it predicts; the proofs
        // must pin the checked result regardless.
        let model = MvGnn::new(pattern_model_config(s0.node_dim, s0.aw_vocab));
        let c0 = predict_pattern_checked(&model, &s0, &m, f, l0);
        assert_eq!(c0.pattern, PatternKind::DoAll, "{:?}", c0.plan);
        assert_eq!(c0.overridden, c0.raw != PatternKind::DoAll);
        let c1 = predict_pattern_checked(&model, &s1, &m, f, l1);
        assert_eq!(c1.pattern, PatternKind::Serial, "{:?}", c1.plan);
        // A checked prediction can never contradict its own proved plan.
        for c in [&c0, &c1] {
            if let Some(p) = c.plan.proved_pattern() {
                let as_kind = match p {
                    mvgnn_analyze::PlannedPattern::DoAll => PatternKind::DoAll,
                    mvgnn_analyze::PlannedPattern::Reduction => PatternKind::Reduction,
                    mvgnn_analyze::PlannedPattern::Serial => PatternKind::Serial,
                };
                assert_eq!(c.pattern, as_kind);
            }
        }
    }

    #[test]
    fn four_class_model_learns_patterns() {
        let ds = build_corpus(&CorpusConfig {
            seeds: vec![2],
            opt_levels: vec![OptLevel::O0],
            per_class: Some(40),
            test_fraction: 0.25,
            suite: Some(Suite::Npb),
            inst2vec: Inst2VecConfig { dim: 12, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
            sample: Default::default(),
            seed: 3,
            label_noise: 0.0,
            static_features: false,
        });
        let probe = &ds.train[0].sample;
        let mut model = MvGnn::new(pattern_model_config(probe.node_dim, probe.aw_vocab));
        let curve = train_patterns(
            &mut model,
            &ds.train,
            &TrainConfig { epochs: 25, ..Default::default() },
        );
        assert!(
            curve.last().unwrap() < &(curve[0] * 0.6),
            "pattern loss should drop substantially: {curve:?}"
        );
        let conf = pattern_confusion(&model, &ds.test);
        let correct: usize = (0..4).map(|i| conf[i][i]).sum();
        let total: usize = conf.iter().flatten().sum();
        assert!(total > 0);
        assert!(
            correct as f64 / total as f64 > 0.6,
            "pattern accuracy too low: {conf:?}"
        );
    }
}
