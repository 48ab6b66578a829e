//! End-to-end experiment driver: trains every model of Table III,
//! evaluates the auto-parallelisation tools, and produces the rows behind
//! Tables III/IV and Figures 7/8.

use crate::error::MvGnnError;
use crate::model::{MvGnn, MvGnnConfig, ViewMode};
use crate::trainer::{train, EpochStats, TrainConfig};
use crate::views::{view_importance, ViewImportance};
use mvgnn_baselines::tree::TreeConfig;
use mvgnn_baselines::{
    autopar_like, discopop_like, handcrafted_features, pluto_like, AdaBoost, DecisionTree,
    LinearSvm, Metrics, Ncc, NccConfig,
};
use mvgnn_dataset::{
    build_corpus, generate_suite, CorpusConfig, Dataset, LabeledSample, Suite,
};
use mvgnn_ir::transform::{optimize, OptLevel};
use mvgnn_profiler::profile_module;
use mvgnn_tensor::Workspace;

/// One row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Benchmark group ("NPB", "PolyBench", "BOTS", "Generated Dataset").
    pub benchmark: String,
    /// Model/tool name.
    pub model: String,
    /// Accuracy in percent.
    pub accuracy: f64,
}

/// One row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// NPB application.
    pub app: String,
    /// Loops in the app.
    pub loops: usize,
    /// Loops the trained model marks parallelisable.
    pub identified: usize,
    /// Ground-truth parallelisable loops.
    pub ground_truth: usize,
}

/// Everything the experiment driver produces.
#[derive(Debug)]
pub struct PipelineReport {
    /// Table III rows (learned models; extend with [`evaluate_tools_with_noise`]).
    pub table3: Vec<Table3Row>,
    /// Fig. 7 training curves for the MV-GNN.
    pub fig7: Vec<EpochStats>,
    /// Fig. 8 view importances per suite.
    pub fig8: Vec<ViewImportance>,
    /// Table IV rows (NPB apps).
    pub table4: Vec<Table4Row>,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Corpus construction.
    pub corpus: CorpusConfig,
    /// MV-GNN training.
    pub train: TrainConfig,
    /// Use the paper-scale model (k = 135 etc.) instead of the compact one.
    pub paper_scale: bool,
    /// NCC baseline configuration.
    pub ncc: NccConfig,
    /// Train/evaluate the NCC baseline (slowest baseline).
    pub run_ncc: bool,
    /// GNN training restarts (best-on-train kept).
    pub restarts: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            corpus: CorpusConfig::default(),
            train: TrainConfig::default(),
            paper_scale: false,
            ncc: NccConfig::default(),
            run_ncc: true,
            restarts: 1,
        }
    }
}

fn suite_name(s: Suite) -> &'static str {
    match s {
        Suite::Npb => "NPB",
        Suite::PolyBench => "PolyBench",
        Suite::Bots => "BOTS",
        Suite::Stress => "Stress",
    }
}

/// Accuracy of `pred` over a filtered group. Suite rows evaluate on the
/// *unbalanced* per-benchmark pool (the paper evaluates on the benchmarks
/// as they come); the dataset row evaluates on the balanced test set.
/// Fused-head class of one sample.
fn predict(model: &MvGnn, s: &LabeledSample) -> usize {
    model.forward_rows(&mut Workspace::new(), &[&s.sample]).argmax(0)
}

fn group_accuracy(
    ds: &Dataset,
    group: Option<Suite>,
    mut pred: impl FnMut(&LabeledSample) -> usize,
) -> Option<f64> {
    let pool: &[LabeledSample] = match group {
        Some(_) => &ds.test_full,
        None => &ds.test,
    };
    let mut m = Metrics::default();
    for s in pool.iter().filter(|s| group.is_none_or(|g| s.suite == g)) {
        m.record(pred(s), s.label);
    }
    (m.total() > 0).then(|| m.accuracy() * 100.0)
}

/// Every evaluation group of Table III: the three suites plus the full
/// generated dataset.
const GROUPS: [(Option<Suite>, &str); 4] = [
    (Some(Suite::Npb), "NPB"),
    (Some(Suite::PolyBench), "PolyBench"),
    (Some(Suite::Bots), "BOTS"),
    (None, "Generated Dataset"),
];

/// Run the learned-model half of the experiment.
///
/// Fails with [`MvGnnError::Config`] on an invalid configuration (zero
/// restarts, out-of-range label noise, or a corpus that yields no
/// training data) instead of panicking partway through.
pub fn run_pipeline(cfg: &PipelineConfig) -> Result<(PipelineReport, Dataset), MvGnnError> {
    if cfg.restarts == 0 {
        return Err(MvGnnError::Config("restarts must be >= 1".into()));
    }
    if !cfg.corpus.label_noise.is_finite() || !(0.0..=1.0).contains(&cfg.corpus.label_noise) {
        return Err(MvGnnError::Config(format!(
            "label_noise must be in [0, 1], got {}",
            cfg.corpus.label_noise
        )));
    }
    let ds = build_corpus(&cfg.corpus);
    if ds.train.is_empty() {
        return Err(MvGnnError::Config("corpus produced no training data".into()));
    }
    for (suite, name) in [(Suite::Npb, "NPB"), (Suite::PolyBench, "PolyBench"), (Suite::Bots, "BOTS")] {
        let n = ds.test_full.iter().filter(|s| s.suite == suite).count();
        eprintln!("[pipeline] {name} evaluation pool: {n} samples");
    }
    let probe = &ds.train[0].sample;
    let mk_cfg = |mode: ViewMode, drop_dynamic: bool| {
        let mut c = if cfg.paper_scale {
            MvGnnConfig::paper(probe.node_dim, probe.aw_vocab)
        } else {
            MvGnnConfig::small(probe.node_dim, probe.aw_vocab)
        };
        c.mode = mode;
        c.drop_dynamic = drop_dynamic;
        c
    };

    let mut table3 = Vec::new();

    // Train with restarts: hold out ~15% of the *training* loops (by base
    // key, so augmented variants stay together) as a validation fold and
    // keep the restart with the best validation accuracy. No test data is
    // touched.
    let is_val = |s: &LabeledSample| (s.base_key.wrapping_mul(0x9e37_79b9)) % 100 < 15;
    let fit: Vec<LabeledSample> =
        ds.train.iter().filter(|s| !is_val(s)).cloned().collect();
    let val: Vec<LabeledSample> = ds.train.iter().filter(|s| is_val(s)).cloned().collect();
    let train_best = |base: MvGnnConfig,
                      restarts: usize|
     -> Result<(MvGnn, Vec<EpochStats>), MvGnnError> {
        let mut best: Option<(f64, MvGnn, Vec<EpochStats>)> = None;
        for r in 0..restarts {
            let mut c = base.clone();
            c.seed = base.seed.wrapping_add(r as u64 * 0x9e37);
            let mut m = MvGnn::new(c);
            let stats = train(&mut m, &fit, &cfg.train)?;
            let score = if val.is_empty() {
                stats.last().map(|e| e.accuracy as f64).unwrap_or(0.0)
            } else {
                crate::trainer::evaluate(&m, &val).accuracy()
            };
            if best.as_ref().map(|(b, _, _)| score > *b).unwrap_or(true) {
                best = Some((score, m, stats));
            }
        }
        // `restarts >= 1` was validated up front, so the loop ran at least
        // once; guard anyway rather than unwrap.
        let (_, m, stats) = best
            .ok_or_else(|| MvGnnError::Config("restarts must be >= 1".into()))?;
        Ok((m, stats))
    };

    // MV-GNN (the paper's model).
    let (mv, fig7) = train_best(mk_cfg(ViewMode::Multi, false), cfg.restarts)?;
    for (group, name) in GROUPS {
        if let Some(acc) = group_accuracy(&ds, group, |s| predict(&mv, s)) {
            table3.push(Table3Row {
                benchmark: name.into(),
                model: "MV-GNN".into(),
                accuracy: acc,
            });
        }
    }

    // Static GNN (Shen et al.): single node view, static features only.
    let (static_gnn, _) = train_best(mk_cfg(ViewMode::NodeOnly, true), cfg.restarts)?;
    for (group, name) in GROUPS {
        if let Some(acc) = group_accuracy(&ds, group, |s| predict(&static_gnn, s)) {
            table3.push(Table3Row {
                benchmark: name.into(),
                model: "Static GNN".into(),
                accuracy: acc,
            });
        }
    }

    // Hand-crafted classifiers (Fried et al.).
    let train_x: Vec<Vec<f32>> =
        ds.train.iter().map(|s| handcrafted_features(&s.sample)).collect();
    let train_y: Vec<usize> = ds.train.iter().map(|s| s.label).collect();
    let svm = LinearSvm::train(&train_x, &train_y, 0.01, 20, 11);
    let tree = DecisionTree::train(&train_x, &train_y, TreeConfig::default());
    let ada = AdaBoost::train(&train_x, &train_y, 60);
    for (group, name) in GROUPS {
        for (model_name, pred) in [
            ("SVM", &mut (|s: &LabeledSample| svm.predict(&handcrafted_features(&s.sample)))
                as &mut dyn FnMut(&LabeledSample) -> usize),
            ("Decision Tree", &mut (|s: &LabeledSample| {
                tree.predict(&handcrafted_features(&s.sample))
            })),
            ("AdaBoost", &mut (|s: &LabeledSample| {
                ada.predict(&handcrafted_features(&s.sample))
            })),
        ] {
            if let Some(acc) = group_accuracy(&ds, group, &mut *pred) {
                table3.push(Table3Row {
                    benchmark: name.into(),
                    model: model_name.into(),
                    accuracy: acc,
                });
            }
        }
    }

    // NCC (Ben-Nun et al.): sequence model, no graph.
    if cfg.run_ncc {
        let seq_data: Vec<(Vec<usize>, usize)> = ds
            .train
            .iter()
            .map(|s| (s.sample.token_ids.clone(), s.label))
            .collect();
        let mut ncc = Ncc::new(&ds.inst2vec, cfg.ncc.clone());
        ncc.train(&seq_data);
        for (group, name) in GROUPS {
            if let Some(acc) =
                group_accuracy(&ds, group, |s| ncc.predict(&s.sample.token_ids))
            {
                table3.push(Table3Row {
                    benchmark: name.into(),
                    model: "NCC".into(),
                    accuracy: acc,
                });
            }
        }
    }

    // Fig. 8: view importance per suite on the test set.
    let fig8 = view_importance(&mv, &ds.full, |s| suite_name(s.suite).to_string());

    // Table IV: the trained model over every NPB loop (unoptimised apps).
    let mut table4 = Vec::new();
    for (suite, app_samples) in group_by_app(&ds, Suite::Npb) {
        let _ = suite;
        let mut identified = 0usize;
        let mut ground = 0usize;
        for s in &app_samples {
            if predict(&mv, s) == 1 {
                identified += 1;
            }
            if s.label == 1 {
                ground += 1;
            }
        }
        table4.push(Table4Row {
            app: app_samples[0].app.clone(),
            loops: app_samples.len(),
            identified,
            ground_truth: ground,
        });
    }
    table4.sort_by(|a, b| a.app.cmp(&b.app));

    Ok((PipelineReport { table3, fig7, fig8, table4 }, ds))
}

/// Group all samples (train + test) of one suite by app, deduplicated to
/// one sample per base loop (the O0 variant set).
fn group_by_app(ds: &Dataset, suite: Suite) -> Vec<(Suite, Vec<&LabeledSample>)> {
    let mut by_app: std::collections::BTreeMap<String, Vec<&LabeledSample>> =
        std::collections::BTreeMap::new();
    for s in &ds.full {
        if s.suite == suite {
            by_app.entry(s.app.clone()).or_default().push(s);
        }
    }
    by_app.into_values().map(|v| (suite, v)).collect()
}

/// One tool-evaluation row.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolEval {
    /// Benchmark group.
    pub benchmark: String,
    /// Tool name.
    pub tool: &'static str,
    /// Metrics against ground truth.
    pub metrics: Metrics,
}

/// Evaluate Pluto/AutoPar/DiscoPoP-like tools over freshly generated
/// suites (tools are not trained, so no split is needed), scored against
/// the same noisy labels the learned models see (pass the corpus
/// `label_noise` and `seed`; `0.0` scores against the clean labels).
/// `opt_levels` adds the transformed-dataset group the paper reports.
pub fn evaluate_tools_with_noise(
    seeds: &[u64],
    opt_levels: &[OptLevel],
    label_noise: f64,
    corpus_seed: u64,
) -> Vec<ToolEval> {
    let mut per_group: std::collections::BTreeMap<(String, &'static str), Metrics> =
        std::collections::BTreeMap::new();
    for &seed in seeds {
        for app in generate_suite(None, seed) {
            for &level in opt_levels {
                let module = optimize(&app.module, level);
                let Ok(res) = profile_module(&module, app.entry, &[]) else { continue };
                for (f, l, pattern) in &app.loops {
                    let key = mvgnn_dataset::base_key(app.spec.name, seed, *f, *l);
                    let label = mvgnn_dataset::noisy_label(
                        key,
                        corpus_seed,
                        label_noise,
                        usize::from(pattern.is_parallelizable()),
                    );
                    let runtime = res.loops.get(&(*f, *l)).copied().unwrap_or_default();
                    let verdicts = [
                        ("Pluto", pluto_like(&module, *f, *l).label()),
                        ("AutoPar", autopar_like(&module, *f, *l).label()),
                        (
                            "DiscoPoP",
                            discopop_like(&module, *f, *l, &res.deps, &runtime).label(),
                        ),
                    ];
                    let groups: [String; 2] = [
                        suite_name(app.spec.suite).to_string(),
                        "Generated Dataset".to_string(),
                    ];
                    for g in groups {
                        for (tool, v) in verdicts {
                            per_group
                                .entry((g.clone(), tool))
                                .or_default()
                                .record(v, label);
                        }
                    }
                }
            }
        }
    }
    per_group
        .into_iter()
        .map(|((benchmark, tool), metrics)| ToolEval { benchmark, tool, metrics })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_embed::Inst2VecConfig;

    fn tiny_pipeline_cfg() -> PipelineConfig {
        PipelineConfig {
            corpus: CorpusConfig {
                seeds: vec![2],
                opt_levels: vec![OptLevel::O0],
                per_class: Some(30),
                test_fraction: 0.3,
                suite: None,
                inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
                sample: Default::default(),
                seed: 9,
                label_noise: 0.0,
                static_features: false,
            },
            train: TrainConfig { epochs: 6, batch_size: 8, ..Default::default() },
            paper_scale: false,
            ncc: NccConfig { hidden: 8, dense: 8, max_len: 16, lr: 0.02, epochs: 3, seed: 1 },
            run_ncc: true,
            restarts: 1,
        }
    }

    #[test]
    fn invalid_pipeline_configs_fail_fast() {
        let zero_restarts = PipelineConfig { restarts: 0, ..tiny_pipeline_cfg() };
        assert!(matches!(run_pipeline(&zero_restarts), Err(MvGnnError::Config(_))));
        let mut bad_noise = tiny_pipeline_cfg();
        bad_noise.corpus.label_noise = 1.5;
        assert!(matches!(run_pipeline(&bad_noise), Err(MvGnnError::Config(_))));
        bad_noise.corpus.label_noise = f64::NAN;
        assert!(matches!(run_pipeline(&bad_noise), Err(MvGnnError::Config(_))));
    }

    #[test]
    fn pipeline_produces_all_artifacts() {
        let (report, ds) = run_pipeline(&tiny_pipeline_cfg()).unwrap();
        assert!(!ds.train.is_empty());
        // Table III has rows for every learned model on the full dataset.
        let models: std::collections::HashSet<&str> =
            report.table3.iter().map(|r| r.model.as_str()).collect();
        for m in ["MV-GNN", "Static GNN", "SVM", "Decision Tree", "AdaBoost", "NCC"] {
            assert!(models.contains(m), "missing model {m}: {models:?}");
        }
        for r in &report.table3 {
            assert!((0.0..=100.0).contains(&r.accuracy), "{r:?}");
        }
        // Fig 7 telemetry exists and is finite.
        assert_eq!(report.fig7.len(), 6);
        assert!(report.fig7.iter().all(|e| e.loss.is_finite()));
        // Table IV covers NPB apps present in the corpus.
        assert!(!report.table4.is_empty());
        for row in &report.table4 {
            assert!(row.identified <= row.loops);
        }
    }

    #[test]
    fn tool_evaluation_covers_all_groups() {
        let evals = evaluate_tools_with_noise(&[2], &[OptLevel::O0], 0.0, 0);
        let groups: std::collections::HashSet<&str> =
            evals.iter().map(|e| e.benchmark.as_str()).collect();
        for g in ["NPB", "PolyBench", "BOTS", "Generated Dataset"] {
            assert!(groups.contains(g), "missing group {g}");
        }
        // Paper ordering: DiscoPoP beats Pluto overall (reductions).
        let acc = |tool: &str| {
            evals
                .iter()
                .find(|e| e.benchmark == "Generated Dataset" && e.tool == tool)
                .map(|e| e.metrics.accuracy())
                .unwrap()
        };
        assert!(
            acc("DiscoPoP") > acc("Pluto"),
            "DiscoPoP {} should beat Pluto {}",
            acc("DiscoPoP"),
            acc("Pluto")
        );
    }
}
