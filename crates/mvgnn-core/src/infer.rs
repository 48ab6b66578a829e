//! Per-loop inference reports and the degradation vocabulary of
//! [`crate::Cascade`].
//!
//! Faults that hit one loop — a truncated trace (interpreter step limit),
//! an empty anonymous-walk distribution, a malformed/empty sub-PEG, or
//! non-finite logits from a damaged model — downgrade *that loop* to a
//! single-view or conservative "serial" prediction with a diagnostic
//! attached (see [`view_ladder`]); the rest of the batch is unaffected
//! and classification never panics or aborts.

use crate::cascade::DecidedBy;
use crate::model::CheckedPrediction;
use mvgnn_analyze::OracleReport;
use mvgnn_ir::module::{FuncId, LoopId};
use std::sync::Arc;

/// Which signal a loop's final prediction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionSource {
    /// Healthy path: the fused multi-view head.
    Multi,
    /// Degraded to the node-feature view only.
    NodeOnly,
    /// Degraded to the structure (anonymous-walk) view only.
    StructOnly,
    /// No trustworthy view: conservatively predicted serial.
    ConservativeSerial,
    /// Decided statically by the tier-0 oracle; the GNN never ran.
    Oracle,
}

/// Per-loop classification outcome.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Function owning the loop.
    pub func: FuncId,
    /// The loop.
    pub l: LoopId,
    /// Source line of the loop header.
    pub line: u32,
    /// Predicted class (1 = parallelisable; always 0 for
    /// [`PredictionSource::ConservativeSerial`]).
    pub prediction: usize,
    /// Which signal produced the prediction.
    pub source: PredictionSource,
    /// Why the loop was degraded, when it was.
    pub diagnostic: Option<String>,
    /// Which cascade tier was final for this loop.
    pub decided_by: DecidedBy,
    /// The oracle's full report — facts, excused reductions, sections —
    /// when tier 0 decided this loop (`None` otherwise).
    pub oracle: Option<Arc<OracleReport>>,
    /// The parallelization plan derived from the oracle's facts — the
    /// typed pragma (`DoAll`/`Reduction`/`Doacross`/`Serial`) with its
    /// provenance — when tier 0 decided this loop (`None` otherwise:
    /// learned verdicts carry no proof, so they get no plan).
    pub plan: Option<Arc<mvgnn_analyze::LoopPlan>>,
}

pub(crate) fn conservative(
    func: FuncId,
    l: LoopId,
    line: u32,
    why: impl Into<String>,
) -> LoopReport {
    LoopReport {
        func,
        l,
        line,
        prediction: 0,
        source: PredictionSource::ConservativeSerial,
        diagnostic: Some(why.into()),
        decided_by: DecidedBy::Gnn,
        oracle: None,
        plan: None,
    }
}

/// The tier-1 view ladder, shared by the cascade and the serve layer:
/// fused → node → structural → conservative serial, taking the first
/// head whose logits were finite.
///
/// `evidence` names a degradation the caller already saw (a truncated
/// trace, an empty walk distribution); it rules out the fused head and
/// becomes the diagnostic. Returns the class, the signal it came from,
/// and why the loop was degraded, when it was.
pub fn view_ladder(
    checked: CheckedPrediction,
    evidence: Option<String>,
) -> (usize, PredictionSource, Option<String>) {
    let candidates = [
        (checked.fused.filter(|_| evidence.is_none()), PredictionSource::Multi),
        (checked.node, PredictionSource::NodeOnly),
        (checked.structural, PredictionSource::StructOnly),
    ];
    match candidates.iter().find_map(|&(p, src)| p.map(|p| (p, src))) {
        Some((p, PredictionSource::Multi)) => (p, PredictionSource::Multi, None),
        Some((p, src)) => (
            p,
            src,
            Some(evidence.unwrap_or_else(|| "non-finite logits in the preferred view".into())),
        ),
        None => {
            let why = match evidence {
                Some(d) => format!("non-finite logits in every view ({d})"),
                None => "non-finite logits in every view".into(),
            };
            (0, PredictionSource::ConservativeSerial, Some(why))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::Cascade;
    use crate::fault::FaultPlan;
    use crate::model::{MvGnn, MvGnnConfig};
    use mvgnn_embed::{build_sample, Inst2Vec, Inst2VecConfig, SampleConfig};
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::module::Module;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::FunctionBuilder;
    use mvgnn_peg::{build_peg, loop_subpeg};
    use mvgnn_profiler::{build_cus, loop_features, profile_module_resilient};

    /// Two loops: a DOALL and a linear recurrence.
    fn test_module() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 32);
        let out = m.add_array("b", Ty::F64, 32);
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
        let f = b.finish();
        (m, f)
    }

    fn setup() -> (Module, FuncId, Inst2Vec, MvGnn) {
        let (m, f) = test_module();
        let i2v = Inst2Vec::train(
            &[&m],
            &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
        );
        // Probe one loop to size the model.
        let reports_cfg = SampleConfig::default();
        let partial = profile_module_resilient(&m, f, &[], None, None);
        let cus = build_cus(&m);
        let peg = build_peg(&m, &cus, &partial.deps);
        let l0 = m.funcs[f.index()].loops[0].id;
        let feats = loop_features(&m, f, l0, &partial.deps, &partial.loops[&(f, l0)]);
        let sub = loop_subpeg(&peg, &m, &cus, f, l0);
        let probe = build_sample(&sub, &i2v, &feats, &reports_cfg, None);
        let model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
        (m, f, i2v, model)
    }

    fn gnn_only_reports(
        model: &MvGnn,
        m: &Module,
        f: FuncId,
        i2v: &Inst2Vec,
        cfg: &SampleConfig,
        max_steps: Option<u64>,
    ) -> Vec<LoopReport> {
        Cascade::gnn_only().classify_module(model, m, f, i2v, cfg, max_steps, None)
    }

    #[test]
    fn healthy_module_classifies_every_loop_multi_view() {
        let (m, f, i2v, model) = setup();
        let reports = gnn_only_reports(&model, &m, f, &i2v, &SampleConfig::default(), None);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.source, PredictionSource::Multi, "{r:?}");
            assert!(r.diagnostic.is_none(), "{r:?}");
            assert!(r.prediction <= 1);
        }
    }

    #[test]
    fn truncated_trace_degrades_without_aborting() {
        let (m, f, i2v, model) = setup();
        let budget = FaultPlan::new(4).starved_step_budget();
        let reports =
            gnn_only_reports(&model, &m, f, &i2v, &SampleConfig::default(), Some(budget));
        assert_eq!(reports.len(), 2, "batch must not shrink under truncation");
        for r in &reports {
            assert_ne!(r.source, PredictionSource::Multi, "{r:?}");
            assert!(r.diagnostic.is_some(), "degraded loops need a diagnostic: {r:?}");
        }
        // Conservative fallbacks must predict serial.
        for r in reports.iter().filter(|r| r.source == PredictionSource::ConservativeSerial) {
            assert_eq!(r.prediction, 0);
        }
    }

    #[test]
    fn poisoned_model_falls_back_to_conservative_serial() {
        let (m, f, i2v, mut model) = setup();
        FaultPlan::new(11).poison_params(&mut model.params, 64);
        let reports = gnn_only_reports(&model, &m, f, &i2v, &SampleConfig::default(), None);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_ne!(
                r.source,
                PredictionSource::Multi,
                "poisoned weights must not be trusted: {r:?}"
            );
        }
    }

    #[test]
    fn view_ladder_drops_the_fused_head_under_evidence() {
        let all = CheckedPrediction { fused: Some(1), node: Some(0), structural: Some(1) };
        assert_eq!(view_ladder(all, None), (1, PredictionSource::Multi, None));
        let (p, src, why) = view_ladder(all, Some("trace truncated".into()));
        assert_eq!((p, src), (0, PredictionSource::NodeOnly));
        assert_eq!(why.as_deref(), Some("trace truncated"));
        let none = CheckedPrediction { fused: None, node: None, structural: None };
        let (p, src, why) = view_ladder(none, Some("empty walks".into()));
        assert_eq!((p, src), (0, PredictionSource::ConservativeSerial));
        assert_eq!(why.as_deref(), Some("non-finite logits in every view (empty walks)"));
    }
}
