//! The closed-loop cascade workloads (`cascade_full`, `gnn_only`): one
//! caller classifies every kernel of every held-out module through
//! `Cascade::classify_module`, waiting for each answer before the next
//! call.
//!
//! The calls run in one seeded random order, the same in every pass:
//! the calls into the largest modules, which set the tail latency, are
//! then spread over the pass instead of bunched into one stretch of it,
//! so a slow second of a shared machine lands on calls of every size.
//!
//! The traced run re-drives the same calls through the layers' public
//! functions in the cascade's own order (profile → oracle/planner →
//! CUs → PEG → per-loop features, sub-PEG and sample → chunked forward
//! on a fresh workspace per call → tier 2), with a span around each
//! call, and must reach the same verdict for every loop.

use crate::inputs::Input;
use crate::stats::SplitMix;
use crate::trace::Tracer;
use mvgnn_analyze::{analyze_loop, plan_from_report, OracleReport};
use mvgnn_core::{oracle_decision, Cascade, CascadeConfig, DecidedBy, MvGnn, PredictionSource};
use mvgnn_embed::{
    build_sample_with_static, structural_distributions, GraphSample, Inst2Vec, SampleConfig,
};
use mvgnn_graph::AwVocab;
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_peg::{build_peg, loop_subpeg};
use mvgnn_profiler::{build_cus, classify_loop, loop_features, profile_module_resilient};
use mvgnn_tensor::Workspace;
use std::time::{Duration, Instant};

/// Rows per packed forward pass inside one call, as in the cascade.
const INFER_CHUNK: usize = 32;

/// The verdict on one loop, as compared between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopVerdict {
    pub l: LoopId,
    pub prediction: usize,
    pub decided_by: DecidedBy,
    pub source: PredictionSource,
}

/// One pass over every call of the workload.
pub struct Pass {
    /// Latency of each `classify_module` call, µs.
    pub call_us: Vec<f64>,
    /// Sum of call latencies, s.
    pub secs: f64,
    /// Verdicts per call, in call order.
    pub verdicts: Vec<Vec<LoopVerdict>>,
}

/// One kernel call: `(input, kernel)`.
pub type Call = (usize, FuncId);

/// Every kernel call of the workload, in the seeded order.
pub fn calls(inputs: &[Input], seed: u64) -> Vec<Call> {
    let mut calls: Vec<Call> = inputs
        .iter()
        .enumerate()
        .flat_map(|(i, input)| input.kernels.iter().map(move |&f| (i, f)))
        .collect();
    let mut rng = SplitMix::new(seed ^ 0xca11);
    for i in (1..calls.len()).rev() {
        calls.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    calls
}

/// The reports of one call must cover every loop of the kernel once, in
/// loop order.
fn check_cover(module: &Module, f: FuncId, got: &[(FuncId, LoopId)]) -> Result<(), String> {
    let want: Vec<(FuncId, LoopId)> = module.funcs[f.index()]
        .loops
        .iter()
        .map(|info| (f, info.id))
        .collect();
    if got == want.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "missing or duplicate loop report for kernel {} of module {}: got {got:?}, want {want:?}",
            f.index(),
            module.name
        ))
    }
}

/// Classify every call once through the public cascade entry point.
fn untraced_pass(
    cascade: &Cascade,
    model: &MvGnn,
    inputs: &[Input],
    calls: &[Call],
    inst2vec: &Inst2Vec,
    cfg: &SampleConfig,
) -> Result<Pass, String> {
    let mut pass = Pass {
        call_us: Vec::with_capacity(calls.len()),
        secs: 0.0,
        verdicts: Vec::new(),
    };
    for &(i, f) in calls {
        let module = &inputs[i].module;
        let t = Instant::now();
        let reports = cascade.classify_module(model, module, f, inst2vec, cfg, None, None);
        let d = t.elapsed();
        pass.call_us.push(d.as_secs_f64() * 1e6);
        pass.secs += d.as_secs_f64();
        let ids: Vec<(FuncId, LoopId)> = reports.iter().map(|r| (r.func, r.l)).collect();
        check_cover(module, f, &ids)?;
        pass.verdicts.push(
            reports
                .iter()
                .map(|r| LoopVerdict {
                    l: r.l,
                    prediction: r.prediction,
                    decided_by: r.decided_by,
                    source: r.source,
                })
                .collect(),
        );
    }
    Ok(pass)
}

/// Counts taken at the layer boundaries of the traced pass.
#[derive(Default)]
pub struct TraceCounts {
    pub profiles: u64,
    pub dep_edges: u64,
    pub subpegs: u64,
    pub subpeg_nodes: u64,
    pub batches: u64,
    pub rows: u64,
}

/// The cascade's tier-1 per-row fault fallback: a row with any
/// non-finite head is re-run alone.
fn isolate(
    model: &MvGnn,
    rows: Vec<mvgnn_core::model::CheckedPrediction>,
    chunk: &[&GraphSample],
) -> Vec<mvgnn_core::model::CheckedPrediction> {
    rows.into_iter()
        .zip(chunk)
        .map(|(c, s)| {
            if c.fused.is_none() || c.node.is_none() || c.structural.is_none() {
                model.predict_checked(s)
            } else {
                c
            }
        })
        .collect()
}

fn conservative(l: LoopId) -> LoopVerdict {
    LoopVerdict {
        l,
        prediction: 0,
        decided_by: DecidedBy::Gnn,
        source: PredictionSource::ConservativeSerial,
    }
}

/// One call re-driven through the layers with a span around each.
#[allow(clippy::too_many_arguments)]
fn traced_call(
    tr: &mut Tracer,
    counts: &mut TraceCounts,
    cfg: &CascadeConfig,
    model: &MvGnn,
    module: &Module,
    entry: FuncId,
    inst2vec: &Inst2Vec,
    sample_cfg: &SampleConfig,
) -> Vec<LoopVerdict> {
    let partial = tr.time("profiler.profile", || {
        profile_module_resilient(module, entry, &[], None, None)
    });
    counts.profiles += 1;
    counts.dep_edges += partial.deps.len() as u64;
    let trace_fault = partial.error.is_some();

    let loops = &module.funcs[entry.index()].loops;
    let mut out: Vec<Option<LoopVerdict>> = vec![None; loops.len()];
    let mut undecided: Vec<(usize, LoopId, Option<OracleReport>)> = Vec::new();
    for (slot, info) in loops.iter().enumerate() {
        let l = info.id;
        if !cfg.use_oracle {
            undecided.push((slot, l, None));
            continue;
        }
        let report = tr.time("analyze.oracle", || analyze_loop(module, entry, l));
        match oracle_decision(&report) {
            Some(prediction) => {
                let plan = tr.time("analyze.plan", || {
                    plan_from_report(module, entry, l, &report)
                });
                std::hint::black_box(plan);
                out[slot] = Some(LoopVerdict {
                    l,
                    prediction,
                    decided_by: DecidedBy::Oracle,
                    source: PredictionSource::Oracle,
                });
            }
            None => undecided.push((slot, l, Some(report))),
        }
    }
    if undecided.is_empty() {
        return out.into_iter().flatten().collect();
    }

    let cus = tr.time("profiler.cus", || build_cus(module));
    let peg = tr.time("peg.build", || build_peg(module, &cus, &partial.deps));
    let attach_static = cfg.static_features && sample_cfg.static_dim == OracleReport::FEAT_DIM;
    let vocab = AwVocab::new(sample_cfg.walk_len);

    let mut pending: Vec<(usize, LoopId, GraphSample, bool)> = Vec::new();
    for (slot, l, oracle) in undecided {
        let runtime = partial.loops.get(&(entry, l)).copied();
        if runtime.is_none() && trace_fault {
            out[slot] = Some(conservative(l));
            continue;
        }
        let runtime = runtime.unwrap_or_default();
        let feats = tr.time("profiler.features", || {
            loop_features(module, entry, l, &partial.deps, &runtime)
        });
        let sub = tr.time("peg.subpeg", || loop_subpeg(&peg, module, &cus, entry, l));
        counts.subpegs += 1;
        counts.subpeg_nodes += sub.graph.node_count() as u64;
        if sub.graph.node_count() == 0 {
            out[slot] = Some(conservative(l));
            continue;
        }
        let static_vec = attach_static.then(|| {
            oracle
                .unwrap_or_else(|| analyze_loop(module, entry, l))
                .feature_vec()
        });
        let sample = tr.time("embed.sample", || {
            build_sample_with_static(
                &sub,
                inst2vec,
                &feats,
                static_vec.as_ref().map(|v| &v[..]),
                sample_cfg,
                None,
            )
        });
        // The anonymous-walk half of the sample, timed again on its own.
        let walks = tr.time("probe.walks", || {
            structural_distributions(&sub.graph, &vocab, sample_cfg.walks)
        });
        std::hint::black_box(walks);
        if sample.node_dim != model.cfg.node_dim || sample.aw_vocab != model.cfg.aw_vocab {
            out[slot] = Some(conservative(l));
            continue;
        }
        let empty_walks = sample.struct_dists.iter().all(|&x| x == 0.0);
        pending.push((slot, l, sample, empty_walks));
    }

    let needs_confidence = cfg.use_profiler && cfg.confidence_threshold > 0.0;
    let mut ws = Workspace::new();
    for chunk in pending.chunks(INFER_CHUNK) {
        let samples: Vec<&GraphSample> = chunk.iter().map(|(_, _, s, _)| s).collect();
        let (rows, logits) = tr.time("gnn.forward", || {
            if needs_confidence {
                let (rows, logits) = model.predict_checked_logits_batch_ws(&mut ws, &samples);
                (isolate(model, rows, &samples), Some(logits))
            } else {
                (Cascade::gnn_batch(model, &mut ws, &samples), None)
            }
        });
        counts.batches += 1;
        counts.rows += chunk.len() as u64;
        for (row, ((slot, l, _, empty_walks), checked)) in chunk.iter().zip(rows).enumerate() {
            let candidates = if trace_fault || *empty_walks {
                [
                    (checked.node, PredictionSource::NodeOnly),
                    (checked.structural, PredictionSource::StructOnly),
                    (None, PredictionSource::ConservativeSerial),
                ]
            } else {
                [
                    (checked.fused, PredictionSource::Multi),
                    (checked.node, PredictionSource::NodeOnly),
                    (checked.structural, PredictionSource::StructOnly),
                ]
            };
            out[*slot] = Some(
                match candidates.iter().find_map(|(p, src)| p.map(|p| (p, *src))) {
                    Some((mut prediction, source)) => {
                        let mut decided_by = DecidedBy::Gnn;
                        if needs_confidence && source == PredictionSource::Multi {
                            let conf = logits
                                .as_ref()
                                .map_or(0.0, |lg| cfg.calibration.confidence(&lg[row]));
                            if conf < cfg.confidence_threshold {
                                let class = tr.time("profiler.tier2", || {
                                    classify_loop(module, entry, *l, &partial.deps)
                                });
                                prediction = usize::from(class.is_parallelizable());
                                decided_by = DecidedBy::Profiler;
                            }
                        }
                        LoopVerdict {
                            l: *l,
                            prediction,
                            decided_by,
                            source,
                        }
                    }
                    None => conservative(*l),
                },
            );
        }
    }
    out.into_iter().flatten().collect()
}

/// Re-drive every call once under spans: one root span `call` per call.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    tr: &mut Tracer,
    counts: &mut TraceCounts,
    cfg: &CascadeConfig,
    model: &MvGnn,
    inputs: &[Input],
    calls: &[Call],
    inst2vec: &Inst2Vec,
    sample_cfg: &SampleConfig,
) -> Result<Vec<Vec<LoopVerdict>>, String> {
    let mut verdicts = Vec::new();
    for (n, &(i, f)) in calls.iter().enumerate() {
        let module = &inputs[i].module;
        tr.set_call(n as u64);
        let root = tr.begin("call");
        let v = traced_call(tr, counts, cfg, model, module, f, inst2vec, sample_cfg);
        tr.end(root);
        let ids: Vec<(FuncId, LoopId)> = v.iter().map(|x| (f, x.l)).collect();
        check_cover(module, f, &ids)?;
        verdicts.push(v);
    }
    Ok(verdicts)
}

/// Quality of one pass against the generator's ground truth.
#[derive(Default, Debug)]
pub struct Score {
    pub loops: u64,
    pub truth_loops: u64,
    pub correct: u64,
    pub false_parallel: u64,
    pub fallbacks: u64,
    pub decided: [u64; 3],
}

pub fn score(
    inputs: &[Input],
    calls: &[Call],
    verdicts: &[Vec<LoopVerdict>],
) -> Result<Score, String> {
    let mut s = Score::default();
    let mut seen = vec![0usize; inputs.len()];
    for (&(i, f), vs) in calls.iter().zip(verdicts) {
        for v in vs {
            s.loops += 1;
            s.fallbacks += u64::from(v.source == PredictionSource::ConservativeSerial);
            s.decided[match v.decided_by {
                DecidedBy::Oracle => 0,
                DecidedBy::Gnn => 1,
                DecidedBy::Profiler => 2,
            }] += 1;
            let Some(&truth) = inputs[i].truth.get(&(f, v.l)) else {
                continue;
            };
            seen[i] += 1;
            s.truth_loops += 1;
            s.correct += u64::from(v.prediction == truth);
            s.false_parallel += u64::from(v.prediction == 1 && truth == 0);
        }
    }
    for (input, &n) in inputs.iter().zip(&seen) {
        if n != input.truth.len() {
            return Err(format!(
                "module {}: {n} of {} generated loops reported",
                input.module.name,
                input.truth.len()
            ));
        }
    }
    Ok(s)
}

/// Run untraced passes until `budget` has elapsed (at least one).
///
/// An untimed warm-up first classifies one kernel of every module: each
/// call builds whole-module structures, and the first time the heap
/// grows to a module's size costs page faults that a long-running
/// caller pays once, not per call.
pub fn timed_passes(
    cascade: &Cascade,
    model: &MvGnn,
    inputs: &[Input],
    calls: &[Call],
    inst2vec: &Inst2Vec,
    cfg: &SampleConfig,
    budget: Duration,
) -> Result<Vec<Pass>, String> {
    for input in inputs {
        if let Some(&f) = input.kernels.first() {
            let reports =
                cascade.classify_module(model, &input.module, f, inst2vec, cfg, None, None);
            std::hint::black_box(reports);
        }
    }
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        let pass = untraced_pass(cascade, model, inputs, calls, inst2vec, cfg)?;
        if passes
            .first()
            .is_some_and(|first| first.verdicts != pass.verdicts)
        {
            return Err("verdicts differ between two untraced passes".into());
        }
        passes.push(pass);
    }
    Ok(passes)
}
