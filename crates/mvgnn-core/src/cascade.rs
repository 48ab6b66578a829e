//! Tiered cascade classification: one routing abstraction from the
//! static oracle through the GNN to the dynamic profiler.
//!
//! Every classification surface in the workspace fronts a [`Cascade`]:
//!
//! - **Tier 0 — static oracle.** The oracle runs first, on the static
//!   IR alone: one [`FuncAnalysis`] serves every loop of the entry. A
//!   `ProvablyParallel` / `ProvablyDependent` verdict is final and
//!   cheap — no interpreter run, no CU/PEG build, no featurisation, no
//!   GNN workspace, no batch slot — and the planner's proved plan is
//!   read off the same report. The oracle's
//!   [`Fact`](mvgnn_analyze::Fact)s ride along as provenance. `Unknown`
//!   falls through, and only a call that leaves some loop undecided
//!   runs the interpreting profiler, once, over the entry.
//! - **Tier 1 — calibrated GNN.** Undecided loops are featurised
//!   (optionally with the oracle's
//!   [`feature_vec`](mvgnn_analyze::OracleReport::feature_vec) broadcast
//!   as static node features) and classified in packed batches through
//!   [`MvGnn::forward_rows`], with the per-loop degradation ladder of
//!   [`crate::infer::view_ladder`].
//!   The fused logits pass through a temperature-scaling [`Calibration`]
//!   (fit on a held-out slice, stored alongside the weights in the MVCK
//!   checkpoint) to produce a confidence.
//! - **Tier 2 — dynamic profiler.** A healthy fused verdict whose
//!   calibrated confidence falls below the configured band routes to
//!   `mvgnn_profiler::classify_loop` over the dependence graph of that
//!   trace — the slow, evidence-backed last resort.
//!
//! Each report's [`DecidedBy`] records which tier was final. Tier-0
//! verdicts can never be contradicted downstream (the short-circuit is
//! structural, not a priority), which is the soundness property the
//! cascade tests pin against the interpreting profiler.

use crate::infer::{conservative, view_ladder, LoopReport, PredictionSource};
use crate::model::{CheckedPrediction, MvGnn, RowOutputs};
use mvgnn_analyze::{analyze_loop, plan_from_report, FuncAnalysis, OracleReport, Verdict};
use mvgnn_embed::{build_sample_with_static, GraphSample, Inst2Vec, SampleConfig};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_peg::{build_peg, loop_subpeg};
use mvgnn_profiler::{
    build_cus, classify_loop, loop_features, profile_module_resilient, LoopRuntime,
};
use mvgnn_tensor::Workspace;
use std::sync::Arc;

/// Which cascade tier produced a final verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecidedBy {
    /// Tier 0: the static dependence oracle proved the verdict.
    Oracle,
    /// Tier 1: the GNN (including its view-degradation ladder).
    Gnn,
    /// Tier 2: the dynamic profiler's dependence-graph classifier.
    Profiler,
}

impl DecidedBy {
    /// Stable lowercase name (used by JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            DecidedBy::Oracle => "oracle",
            DecidedBy::Gnn => "gnn",
            DecidedBy::Profiler => "profiler",
        }
    }
}

/// Temperature scaling: one scalar `T` divides the fused logits before
/// softmax, re-shaping confidence without moving the argmax. `T` is fit
/// on a held-out slice by minimising NLL and stored alongside the model
/// weights in the MVCK checkpoint (see [`crate::checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Softmax temperature; `1.0` is the identity.
    pub temperature: f32,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::identity()
    }
}

impl Calibration {
    /// The identity calibration (`T = 1`).
    pub fn identity() -> Self {
        Self { temperature: 1.0 }
    }

    /// A calibration with a fixed temperature. Non-finite or
    /// non-positive temperatures degrade to the identity — a damaged
    /// calibration must never turn into NaN confidences.
    pub fn new(temperature: f32) -> Self {
        if temperature.is_finite() && temperature > 0.0 {
            Self { temperature }
        } else {
            Self::identity()
        }
    }

    /// Mean negative log-likelihood of `labels` under
    /// `softmax(logits / temperature)`. Rows with non-finite logits or
    /// out-of-range labels are skipped; with nothing left the result is
    /// `f32::INFINITY` (so [`Calibration::fit`] keeps the identity).
    pub fn nll(logits: &[Vec<f32>], labels: &[usize], temperature: f32) -> f32 {
        let mut total = 0.0f64;
        let mut n = 0usize;
        for (row, &y) in logits.iter().zip(labels) {
            if y >= row.len() || row.iter().any(|x| !x.is_finite()) {
                continue;
            }
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let z: Vec<f64> = row.iter().map(|&x| f64::from((x - m) / temperature)).collect();
            let lse = z.iter().map(|&v| v.exp()).sum::<f64>().ln();
            total += lse - z[y];
            n += 1;
        }
        if n == 0 {
            f32::INFINITY
        } else {
            (total / n as f64) as f32
        }
    }

    /// Fit the temperature on a held-out slice (fused logits + true
    /// labels) by a deterministic two-stage log-space grid search
    /// minimising NLL. Degenerate input (empty, all-non-finite) keeps
    /// the identity.
    pub fn fit(logits: &[Vec<f32>], labels: &[usize]) -> Self {
        let n = logits.len().min(labels.len());
        if n == 0 {
            return Self::identity();
        }
        let (logits, labels) = (&logits[..n], &labels[..n]);
        let eval = |t: f32| Self::nll(logits, labels, t);
        let mut best_t = 1.0f32;
        let mut best = eval(1.0);
        if !best.is_finite() {
            return Self::identity();
        }
        // Coarse pass: 61 points over ln T ∈ [-3, 3].
        let mut best_ln = 0.0f32;
        for i in 0..=60 {
            let ln_t = -3.0 + 0.1 * i as f32;
            let t = ln_t.exp();
            let v = eval(t);
            if v < best {
                best = v;
                best_t = t;
                best_ln = ln_t;
            }
        }
        // Fine pass around the coarse winner (±1 coarse step).
        for i in 0..=40 {
            let ln_t = best_ln - 0.1 + 0.005 * i as f32;
            let t = ln_t.exp();
            let v = eval(t);
            if v < best {
                best = v;
                best_t = t;
            }
        }
        Self::new(best_t)
    }

    /// Calibrated confidence of one logits row: the maximum probability
    /// of `softmax(logits / temperature)`. Non-finite logits yield `0.0`
    /// — the cascade is never confident in garbage.
    pub fn confidence(&self, logits: &[f32]) -> f32 {
        if logits.is_empty() || logits.iter().any(|x| !x.is_finite()) {
            return 0.0;
        }
        let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let denom: f64 =
            logits.iter().map(|&x| f64::from((x - m) / self.temperature).exp()).sum();
        if denom.is_finite() && denom > 0.0 {
            (1.0 / denom) as f32
        } else {
            0.0
        }
    }
}

/// Cascade routing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// Tier 0: consult the static oracle first; definite verdicts are
    /// final and skip featurisation and the GNN entirely.
    pub use_oracle: bool,
    /// Tier-1 temperature scaling applied to the fused logits.
    pub calibration: Calibration,
    /// Confidence band: a healthy fused verdict whose calibrated
    /// confidence is below this routes to tier 2. `0.0` disables the
    /// band (and with it tier 2).
    pub confidence_threshold: f32,
    /// Tier 2: route borderline tier-1 verdicts to the dynamic
    /// profiler's dependence-graph classifier.
    pub use_profiler: bool,
    /// Attach the oracle's `feature_vec()` as static node features when
    /// the featurisation expects them (`SampleConfig::static_dim ==
    /// OracleReport::FEAT_DIM`). On by default in the full cascade; a
    /// `static_dim` of 0 keeps the plain layout regardless.
    pub static_features: bool,
}

impl Default for CascadeConfig {
    /// The full three-tier cascade: oracle short-circuit, calibrated
    /// GNN with a 0.6 confidence band, profiler fallback, static
    /// features on.
    fn default() -> Self {
        Self {
            use_oracle: true,
            calibration: Calibration::identity(),
            confidence_threshold: 0.6,
            use_profiler: true,
            static_features: true,
        }
    }
}

impl CascadeConfig {
    /// Tier 1 alone — the historical pure-GNN classifier, bit-for-bit
    /// (no oracle, no confidence band, no static features).
    pub fn gnn_only() -> Self {
        Self {
            use_oracle: false,
            calibration: Calibration::identity(),
            confidence_threshold: 0.0,
            use_profiler: false,
            static_features: false,
        }
    }
}

/// Map a definite oracle verdict onto the binary parallelisable class;
/// `Unknown` falls through to the next tier.
pub fn oracle_decision(report: &OracleReport) -> Option<usize> {
    match report.verdict {
        Verdict::ProvablyParallel => Some(1),
        Verdict::ProvablyDependent => Some(0),
        Verdict::Unknown => None,
    }
}

/// Samples per packed forward pass during module classification.
const INFER_CHUNK: usize = 32;

/// A loop that survived tier 0 and the tier-1 pre-checks and awaits
/// model inference.
struct PendingLoop {
    l: LoopId,
    line: u32,
    sample: GraphSample,
    empty_walks: bool,
}

/// The tiered classifier. Stateless beyond its configuration — the
/// model and module are arguments, so one cascade value can serve any
/// number of models and threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cascade {
    /// Routing configuration.
    pub config: CascadeConfig,
}

impl Cascade {
    /// A cascade with the given routing configuration.
    pub fn new(config: CascadeConfig) -> Self {
        Self { config }
    }

    /// The full three-tier cascade ([`CascadeConfig::default`]).
    pub fn full() -> Self {
        Self::new(CascadeConfig::default())
    }

    /// The GNN tier alone ([`CascadeConfig::gnn_only`]); reproduces the
    /// historical pure-GNN outputs exactly.
    pub fn gnn_only() -> Self {
        Self::new(CascadeConfig::gnn_only())
    }

    /// Tier-1 execution primitive: run one packed batch against a
    /// caller-owned workspace with per-row fault isolation — any row
    /// whose batched verdict shows a non-finite head is re-run alone, so
    /// its degradation is decided by the single-sample path. The module
    /// path below and the `mvgnn-serve` micro-batcher both run on it.
    pub fn gnn_batch(
        model: &MvGnn,
        ws: &mut Workspace,
        chunk: &[&GraphSample],
    ) -> Vec<CheckedPrediction> {
        Self::gnn_rows(model, ws, chunk).1
    }

    /// [`Self::gnn_batch`] that also hands back the batch's
    /// [`RowOutputs`], whose fused logits feed the tier-2 confidence band.
    fn gnn_rows(
        model: &MvGnn,
        ws: &mut Workspace,
        chunk: &[&GraphSample],
    ) -> (RowOutputs, Vec<CheckedPrediction>) {
        let rows = model.forward_rows(ws, chunk);
        let checked = chunk
            .iter()
            .enumerate()
            .map(|(g, s)| {
                let c = rows.checked(g);
                if c.fused.is_none() || c.node.is_none() || c.structural.is_none() {
                    model.predict_checked(s)
                } else {
                    c
                }
            })
            .collect();
        (rows, checked)
    }

    /// Classify every loop of `entry` through the configured tiers.
    ///
    /// The returned vector always covers every loop of the function, in
    /// loop order. Tier 0 runs before anything executes: its verdicts
    /// carry the oracle report (facts and all) and the proved plan, and
    /// never touch the interpreter or the GNN. When it decides every
    /// loop the entry is never interpreted, so `max_steps` and
    /// `max_call_depth` go unused. Otherwise the entry is profiled once;
    /// undecided loops go through the pre-check + packed-batch path of
    /// [`Self::gnn_batch`], with the degradation ladder of
    /// [`crate::infer::view_ladder`], and borderline healthy verdicts
    /// are re-decided by the profiler tier over that trace's dependence
    /// graph.
    #[allow(clippy::too_many_arguments)]
    pub fn classify_module(
        &self,
        model: &MvGnn,
        module: &Module,
        entry: FuncId,
        inst2vec: &Inst2Vec,
        sample_cfg: &SampleConfig,
        max_steps: Option<u64>,
        max_call_depth: Option<u32>,
    ) -> Vec<LoopReport> {
        // Tier 0 — oracle short-circuit on the static IR alone, before
        // anything runs. One `FuncAnalysis` serves every loop of the
        // entry; definite verdicts go straight into the returned vector,
        // and only the survivors pay for the trace, the PEG,
        // featurisation and the model.
        let loops = &module.funcs[entry.index()].loops;
        let mut decided: Vec<LoopReport> = Vec::with_capacity(loops.len());
        let mut undecided: Vec<(usize, LoopId, u32, Option<Arc<OracleReport>>)> = Vec::new();
        let analysis = self.config.use_oracle.then(|| FuncAnalysis::new(module, entry));
        for (slot, info) in loops.iter().enumerate() {
            let l = info.id;
            let line = info.line_span.0;
            if let Some(analysis) = &analysis {
                let report = Arc::new(analysis.analyze_loop(l));
                if let Some(prediction) = oracle_decision(&report) {
                    // The decision is proved, so the planner's typed
                    // pragma rides along as actionable output.
                    let plan = plan_from_report(module, entry, l, &report);
                    decided.push(LoopReport {
                        func: entry,
                        l,
                        line,
                        prediction,
                        source: PredictionSource::Oracle,
                        diagnostic: None,
                        decided_by: DecidedBy::Oracle,
                        oracle: Some(report),
                        plan: Some(Arc::new(plan)),
                    });
                    continue;
                }
                undecided.push((slot, l, line, Some(report)));
            } else {
                undecided.push((slot, l, line, None));
            }
        }
        if undecided.is_empty() {
            return decided;
        }
        // Decided reports keep their loop order among the undecided slots.
        let mut reports: Vec<Option<LoopReport>> = (0..loops.len()).map(|_| None).collect();
        let mut decided = decided.into_iter();
        let mut pending = undecided.iter().map(|u| u.0).peekable();
        for (slot, r) in reports.iter_mut().enumerate() {
            if pending.next_if_eq(&slot).is_none() {
                *r = decided.next();
            }
        }

        // A loop is left undecided: trace the entry for the dynamic
        // evidence tiers 1 and 2 read.
        let partial = profile_module_resilient(module, entry, &[], max_steps, max_call_depth);
        let trace_fault = partial.error.as_ref().map(|e| e.to_string());
        let cus = build_cus(module);
        let peg = build_peg(module, &cus, &partial.deps);
        let attach_static =
            self.config.static_features && sample_cfg.static_dim == OracleReport::FEAT_DIM;

        // Tier-1 pass 1 — pre-checks: anything that can fail before the
        // model runs produces its conservative report immediately; the
        // rest queue up for batched inference.
        let mut pending: Vec<(usize, PendingLoop)> = Vec::new();
        for (slot, l, line, oracle) in undecided {
            let runtime = partial.loops.get(&(entry, l)).copied();
            if runtime.is_none() {
                if let Some(fault) = &trace_fault {
                    reports[slot] = Some(conservative(
                        entry,
                        l,
                        line,
                        format!("no dynamic evidence, trace truncated: {fault}"),
                    ));
                    continue;
                }
            }
            let runtime = runtime.unwrap_or(LoopRuntime::default());
            let feats = loop_features(module, entry, l, &partial.deps, &runtime);
            let sub = loop_subpeg(&peg, module, &cus, entry, l);
            if sub.graph.node_count() == 0 {
                reports[slot] = Some(conservative(entry, l, line, "empty sub-PEG"));
                continue;
            }
            let static_vec = attach_static.then(|| {
                oracle
                    .clone()
                    .unwrap_or_else(|| Arc::new(analyze_loop(module, entry, l)))
                    .feature_vec()
            });
            let sample = build_sample_with_static(
                &sub,
                inst2vec,
                &feats,
                static_vec.as_ref().map(|sv| &sv[..]),
                sample_cfg,
                None,
            );
            if sample.node_dim != model.cfg.node_dim || sample.aw_vocab != model.cfg.aw_vocab {
                reports[slot] = Some(conservative(
                    entry,
                    l,
                    line,
                    format!(
                        "sample/model dimension mismatch (node {} vs {}, vocab {} vs {})",
                        sample.node_dim, model.cfg.node_dim, sample.aw_vocab, model.cfg.aw_vocab
                    ),
                ));
                continue;
            }
            let empty_walks = sample.struct_dists.iter().all(|&x| x == 0.0);
            pending.push((slot, PendingLoop { l, line, sample, empty_walks }));
        }

        // Tier-1 pass 2 — batched inference over the surviving loops,
        // with the tier-2 confidence band applied per healthy row.
        let needs_confidence = self.config.use_profiler && self.config.confidence_threshold > 0.0;
        let mut ws = Workspace::new();
        for chunk in pending.chunks(INFER_CHUNK) {
            let samples: Vec<&GraphSample> = chunk.iter().map(|(_, p)| &p.sample).collect();
            let (rows, checked_rows) = Self::gnn_rows(model, &mut ws, &samples);
            for (g, ((slot, p), checked)) in chunk.iter().zip(checked_rows).enumerate() {
                // A truncated trace or an empty walk distribution drops
                // the structural signal, so the ladder starts below the
                // fused head; non-finite heads fall through to the next.
                let evidence = match (&trace_fault, p.empty_walks) {
                    (Some(fault), _) => Some(format!("trace truncated: {fault}")),
                    (None, true) => Some("empty anonymous-walk distribution".into()),
                    (None, false) => None,
                };
                let (mut prediction, source, mut diagnostic) = view_ladder(checked, evidence);
                let mut decided_by = DecidedBy::Gnn;
                // Tier 2 — a healthy fused verdict below the confidence
                // band is re-decided by the profiler over the dependence
                // graph the profiling pass already produced.
                if needs_confidence && source == PredictionSource::Multi {
                    let conf = self.config.calibration.confidence(rows.fused(g));
                    if conf < self.config.confidence_threshold {
                        let class = classify_loop(module, entry, p.l, &partial.deps);
                        prediction = usize::from(class.is_parallelizable());
                        decided_by = DecidedBy::Profiler;
                        diagnostic = Some(format!(
                            "tier-1 confidence {conf:.3} below {:.3}; dynamic tier verdict \
                             {class:?}",
                            self.config.confidence_threshold
                        ));
                    }
                }
                reports[*slot] = Some(LoopReport {
                    func: entry,
                    l: p.l,
                    line: p.line,
                    prediction,
                    source,
                    diagnostic,
                    decided_by,
                    oracle: None,
                    plan: None,
                });
            }
        }
        reports.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_confidence_is_plain_softmax_max() {
        let c = Calibration::identity();
        let conf = c.confidence(&[2.0, 0.0]);
        let want = (2.0f64.exp() / (2.0f64.exp() + 1.0)) as f32;
        assert!((conf - want).abs() < 1e-6, "{conf} vs {want}");
    }

    #[test]
    fn temperature_flattens_or_sharpens() {
        let logits = [3.0f32, 0.0];
        let sharp = Calibration::new(0.25).confidence(&logits);
        let flat = Calibration::new(4.0).confidence(&logits);
        let id = Calibration::identity().confidence(&logits);
        assert!(sharp > id && id > flat, "{sharp} > {id} > {flat}");
        assert!(flat >= 0.5, "binary max-prob is never below 1/classes");
    }

    #[test]
    fn non_finite_logits_have_zero_confidence() {
        let c = Calibration::identity();
        assert_eq!(c.confidence(&[f32::NAN, 0.0]), 0.0);
        assert_eq!(c.confidence(&[f32::INFINITY, 0.0]), 0.0);
        assert_eq!(c.confidence(&[]), 0.0);
    }

    #[test]
    fn degenerate_temperature_degrades_to_identity() {
        for t in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            assert_eq!(Calibration::new(t), Calibration::identity(), "{t}");
        }
    }

    #[test]
    fn fit_recovers_a_flattening_temperature_for_overconfident_logits() {
        // Logits that are right only 50% of the time but scream with
        // confidence: the NLL-minimising temperature must be > 1
        // (flatten), and the fit must beat the identity's NLL.
        let mut logits = Vec::new();
        let mut labels = Vec::new();
        for i in 0..32 {
            logits.push(vec![8.0, 0.0]);
            labels.push(usize::from(i % 2 == 0)); // half the labels disagree
        }
        let cal = Calibration::fit(&logits, &labels);
        assert!(cal.temperature > 1.0, "overconfident logits need flattening: {cal:?}");
        let fit_nll = Calibration::nll(&logits, &labels, cal.temperature);
        let id_nll = Calibration::nll(&logits, &labels, 1.0);
        assert!(fit_nll <= id_nll, "{fit_nll} vs {id_nll}");
    }

    #[test]
    fn fit_on_degenerate_input_keeps_identity() {
        assert_eq!(Calibration::fit(&[], &[]), Calibration::identity());
        let garbage = vec![vec![f32::NAN, f32::NAN]];
        assert_eq!(Calibration::fit(&garbage, &[0]), Calibration::identity());
    }

    #[test]
    fn fit_does_not_move_the_argmax() {
        let logits = vec![vec![1.5f32, -0.5], vec![-2.0, 0.25]];
        let labels = vec![0usize, 1];
        let cal = Calibration::fit(&logits, &labels);
        // Temperature scaling is monotone: argmax is invariant for any T.
        assert!(cal.temperature > 0.0 && cal.temperature.is_finite());
        for row in &logits {
            let plain = if row[0] > row[1] { 0 } else { 1 };
            let scaled: Vec<f32> = row.iter().map(|x| x / cal.temperature).collect();
            let cooked = if scaled[0] > scaled[1] { 0 } else { 1 };
            assert_eq!(plain, cooked);
        }
    }

    #[test]
    fn decided_by_names_are_stable() {
        assert_eq!(DecidedBy::Oracle.as_str(), "oracle");
        assert_eq!(DecidedBy::Gnn.as_str(), "gnn");
        assert_eq!(DecidedBy::Profiler.as_str(), "profiler");
    }
}
