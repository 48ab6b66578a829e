//! Workload inputs from `--seed`, and the census of them.
//!
//! `--seed` draws six held-out suite seeds, one per optimisation level
//! (never the training seeds 1 and 2). Level `j` takes every app of
//! `generate_suite(None, seed_j)`, so a run holds the 14 apps at all six
//! levels as one suite seed would, but each (app, level) is its own draw
//! of the app's kernel mix and sizes: a run's total cost then varies
//! less from one `--seed` to the next. The cascade workloads classify
//! each kernel function of each module as its own entry; the serve probe
//! sends the same loops pre-featurised by the corpus builder.

use crate::stats::{median, ratio, SplitMix};
use mvgnn_analyze::{analyze_loop, plan_from_report};
use mvgnn_core::oracle_decision;
use mvgnn_dataset::{generate_shard, generate_suite, CorpusConfig};
use mvgnn_embed::{GraphSample, Inst2Vec};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_ir::transform::{optimize, OptLevel};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One optimised application module.
pub struct Input {
    pub module: Module,
    /// Kernel functions, each classified as its own entry.
    pub kernels: Vec<FuncId>,
    /// Ground truth (1 = parallelisable) of every generated loop.
    pub truth: HashMap<(FuncId, LoopId), usize>,
}

/// The suite seed of each optimisation level, in `OptLevel::ALL` order.
fn suite_seeds(seed: u64) -> Vec<(OptLevel, u64)> {
    let mut rng = SplitMix::new(seed);
    OptLevel::ALL
        .into_iter()
        .map(|level| loop {
            let s = rng.next_u64();
            if s != 1 && s != 2 {
                return (level, s);
            }
        })
        .collect()
}

/// The 14 held-out apps at all six optimisation levels.
pub fn generate(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for (level, suite_seed) in suite_seeds(seed) {
        for app in generate_suite(None, suite_seed) {
            let mut kernels: Vec<FuncId> = app.loops.iter().map(|&(f, _, _)| f).collect();
            kernels.sort_unstable_by_key(|f| f.index());
            kernels.dedup();
            out.push(Input {
                module: optimize(&app.module, level),
                kernels,
                truth: app
                    .loops
                    .iter()
                    .map(|&(f, l, p)| ((f, l), usize::from(p.is_parallelizable())))
                    .collect(),
            });
        }
    }
    out
}

/// Every generated loop of the run's inputs, featurised by the corpus
/// builder (one profile, CU graph and PEG per module, driven from the
/// app's entry) under the training corpus configuration `corpus`.
pub fn pool(seed: u64, corpus: &CorpusConfig, inst2vec: &Inst2Vec) -> Vec<Arc<GraphSample>> {
    suite_seeds(seed)
        .into_iter()
        .flat_map(|(level, suite_seed)| {
            let cfg = CorpusConfig {
                seeds: vec![suite_seed],
                opt_levels: vec![level],
                ..corpus.clone()
            };
            generate_shard(&cfg, inst2vec, 0, 1)
        })
        .map(|s| Arc::new(s.sample))
        .collect()
}

/// Timings of `analyze_loop` over every kernel loop, and of
/// `plan_from_report` over the loops it decides. The cascade workloads
/// use it for the census; gnn_only, which never calls the oracle, also
/// reports it as its `analyze.*` layer metrics.
#[derive(Default)]
pub struct AnalyzeProbe {
    pub loops: u64,
    pub decided: u64,
    pub oracle_ns: u64,
    pub plan_ns: u64,
}

impl AnalyzeProbe {
    pub fn run(inputs: &[Input]) -> Self {
        let mut p = Self::default();
        for input in inputs {
            for &f in &input.kernels {
                for info in &input.module.funcs[f.index()].loops {
                    let t = Instant::now();
                    let report = analyze_loop(&input.module, f, info.id);
                    p.oracle_ns += t.elapsed().as_nanos() as u64;
                    p.loops += 1;
                    if oracle_decision(&report).is_some() {
                        let t = Instant::now();
                        std::hint::black_box(plan_from_report(&input.module, f, info.id, &report));
                        p.plan_ns += t.elapsed().as_nanos() as u64;
                        p.decided += 1;
                    }
                }
            }
        }
        p
    }

    pub fn decided_frac(&self) -> f64 {
        ratio(self.decided as f64, self.loops as f64)
    }

    pub fn oracle_us(&self) -> f64 {
        ratio(self.oracle_ns as f64 / 1e3, self.loops as f64)
    }

    pub fn plan_us(&self) -> f64 {
        ratio(self.plan_ns as f64 / 1e3, self.decided as f64)
    }
}

/// The census every run prints before its result.
pub fn census_line(inputs: &[Input], probe: &AnalyzeProbe, mean_subpeg_nodes: f64) -> String {
    let funcs: Vec<f64> = inputs.iter().map(|i| i.module.funcs.len() as f64).collect();
    let calls: usize = inputs.iter().map(|i| i.kernels.len()).sum();
    let loops: usize = inputs.iter().map(|i| i.truth.len()).sum();
    format!(
        "census: modules {} kernel_calls {calls} loops {loops} funcs_per_module median {} max {} \
         tier0_decided_share {:.4} mean_subpeg_nodes {mean_subpeg_nodes:.2}",
        inputs.len(),
        median(&funcs),
        funcs.iter().cloned().fold(0.0, f64::max),
        probe.decided_frac(),
    )
}
