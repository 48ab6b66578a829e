//! Cascade frontier benchmark: accuracy/latency of the tiered
//! classifier over the generated corpus.
//!
//! Sweeps the same seed × optimisation-level population as the `lint`
//! auditor and classifies every application module through four arms:
//!
//! - `pure_gnn` — the historical GNN-only path
//!   ([`CascadeConfig::gnn_only`]), the baseline every other arm is
//!   judged against;
//! - `oracle_gnn` — tier 0 + tier 1: the static oracle short-circuits
//!   provable loops, the calibrated GNN takes the rest;
//! - `full_cascade` — all three tiers: borderline tier-1 verdicts
//!   (calibrated confidence below the band) re-decided by the dynamic
//!   profiler;
//! - `full_cascade_static` — the full cascade against a second model
//!   trained with the oracle's `feature_vec()` broadcast as static node
//!   features (`SampleConfig::static_dim = 10`). Reported for the
//!   frontier, not gated: it is a different model, not a routing change.
//!
//! Per arm: accuracy against the generator's ground-truth patterns,
//! per-tier hit counts, and effective throughput (loops classified per
//! second of end-to-end classification time — profiling, featurisation,
//! and every tier included). The full run trains the models, fits the
//! temperature calibration on the held-out split, writes
//! `BENCH_cascade.json`, and enforces the frontier gates; `--smoke`
//! runs a single seed at `-O0` with untrained models and enforces the
//! routing gates only (tier-0 short-circuit rate > 0, cascade
//! throughput >= pure-GNN throughput), writing nothing.
//!
//! `--alloc-smoke` (needs `--features count-allocs`) classifies every
//! kernel of `generate_suite(None, 3)` at all six levels through
//! [`Cascade::full`] with an untrained model, once to warm up and once
//! counted, and fails when a *light* call (one whose loops tier 0
//! decides, so nothing is traced and no model runs) makes more than
//! `LIGHT_CALL_ALLOC_BUDGET` heap allocations on average.

use mvgnn_bench::or_die;
use mvgnn_core::{
    train, Calibration, Cascade, CascadeConfig, MvGnn, MvGnnConfig, TrainConfig,
};
use mvgnn_dataset::{build_corpus, generate_suite, CorpusConfig, Dataset};
use mvgnn_embed::{GraphSample, Inst2VecConfig, SampleConfig};
use mvgnn_ir::transform::{optimize, OptLevel};
use mvgnn_analyze::OracleReport;
use mvgnn_core::DecidedBy;
use std::collections::HashMap;
use std::time::Instant;

/// Heap-allocation budget per light call of `--alloc-smoke`. Before
/// tier 0 worked in a reused scratch area a light call made 41.4
/// allocations. What is left, 14.1 per call, is mostly the returned
/// reports (the vector; per loop two `Arc`s, two copies of the facts,
/// the sections and the pragma) plus the per-function tables. The
/// sections and excused instructions are sorted vectors, not hash
/// containers, since; each still takes one allocation when non-empty,
/// so the count stayed at 14.09 (2,386 bytes, was 2,554) and the
/// budget keeps its 5.9-allocation margin over it.
#[cfg(feature = "count-allocs")]
const LIGHT_CALL_ALLOC_BUDGET: f64 = 20.0;

/// One frontier arm: a cascade routing configuration bound to a model.
struct Arm<'a> {
    name: &'static str,
    cascade: Cascade,
    model: &'a MvGnn,
    dataset: &'a Dataset,
    sample_cfg: &'a SampleConfig,
    /// Counted toward the smoke/full gates (the static-featured arm is
    /// frontier-only).
    gated: bool,
}

/// Census of one arm over the full sweep.
struct ArmReport {
    name: &'static str,
    gated: bool,
    loops: usize,
    correct: usize,
    oracle: usize,
    gnn: usize,
    profiler: usize,
    secs: f64,
}

impl ArmReport {
    fn accuracy(&self) -> f64 {
        if self.loops == 0 {
            0.0
        } else {
            self.correct as f64 / self.loops as f64
        }
    }

    fn loops_per_s(&self) -> f64 {
        self.loops as f64 / self.secs.max(1e-9)
    }

    fn tier0_rate(&self) -> f64 {
        if self.loops == 0 {
            0.0
        } else {
            self.oracle as f64 / self.loops as f64
        }
    }
}

/// Classify every module of the sweep through `arm` and tally the
/// census. Loops live in the per-kernel functions (the app entry is a
/// driver with none of its own), so each kernel is classified as its
/// own entry. Only classification time (profiling + tiers) is on the
/// clock; module generation and optimisation are outside it.
fn run_arm(arm: &Arm, seeds: &[u64], levels: &[OptLevel]) -> ArmReport {
    let mut report = ArmReport {
        name: arm.name,
        gated: arm.gated,
        loops: 0,
        correct: 0,
        oracle: 0,
        gnn: 0,
        profiler: 0,
        secs: 0.0,
    };
    for &seed in seeds {
        for app in generate_suite(None, seed) {
            let truth: HashMap<_, _> = app
                .loops
                .iter()
                .map(|&(f, l, pattern)| ((f, l), usize::from(pattern.is_parallelizable())))
                .collect();
            let mut kernels: Vec<_> = app.loops.iter().map(|(f, _, _)| *f).collect();
            kernels.sort_unstable_by_key(|f| f.index());
            kernels.dedup();
            for &level in levels {
                let module = optimize(&app.module, level);
                let t0 = Instant::now();
                let reports: Vec<_> = kernels
                    .iter()
                    .flat_map(|&f| {
                        arm.cascade.classify_module(
                            arm.model,
                            &module,
                            f,
                            &arm.dataset.inst2vec,
                            arm.sample_cfg,
                            None,
                            None,
                        )
                    })
                    .collect();
                report.secs += t0.elapsed().as_secs_f64();
                for r in &reports {
                    let Some(&want) = truth.get(&(r.func, r.l)) else { continue };
                    report.loops += 1;
                    report.correct += usize::from(r.prediction == want);
                    match r.decided_by {
                        DecidedBy::Oracle => report.oracle += 1,
                        DecidedBy::Gnn => report.gnn += 1,
                        DecidedBy::Profiler => report.profiler += 1,
                    }
                }
            }
        }
    }
    report
}

/// Fit the fused-head temperature on the held-out split.
fn fit_calibration(model: &MvGnn, ds: &Dataset) -> Calibration {
    let samples: Vec<&GraphSample> = ds.test.iter().map(|s| &s.sample).collect();
    if samples.is_empty() {
        return Calibration::identity();
    }
    let logits = model.logits_batch(&samples);
    let labels: Vec<usize> = ds.test.iter().map(|s| s.label).collect();
    Calibration::fit(&logits, &labels)
}

fn corpus_config(smoke: bool, static_features: bool) -> CorpusConfig {
    let (seeds, levels, per_class, dim) = if smoke {
        (vec![1], vec![OptLevel::O0], 40, 16)
    } else {
        (vec![1, 2], OptLevel::ALL.to_vec(), 500, 48)
    };
    CorpusConfig {
        seeds,
        opt_levels: levels,
        per_class: Some(per_class),
        test_fraction: 0.25,
        suite: None,
        inst2vec: Inst2VecConfig {
            dim,
            epochs: if smoke { 1 } else { 3 },
            negatives: 4,
            lr: 0.05,
            seed: 0x1257,
        },
        sample: SampleConfig {
            static_dim: if static_features { OracleReport::FEAT_DIM } else { 0 },
            ..SampleConfig::default()
        },
        seed: 0xca5c,
        label_noise: 0.0,
        static_features,
    }
}

/// Build (and in the full run, train) a model on `cfg`'s corpus.
fn model_for(cfg: &CorpusConfig, smoke: bool) -> (Dataset, MvGnn) {
    let ds = build_corpus(cfg);
    let probe = &ds.train[0].sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    if !smoke {
        let stats = or_die(train(
            &mut model,
            &ds.train,
            &TrainConfig { epochs: 12, seed: 0xca5c, ..TrainConfig::default() },
        ));
        if let Some(last) = stats.last() {
            eprintln!(
                "[cascade] trained static_dim={} model: epoch {} loss {:.4} acc {:.3}",
                cfg.sample.static_dim, last.epoch, last.loss, last.accuracy
            );
        }
    }
    (ds, model)
}

/// CI gate on tier 0's allocations: the average light call of the
/// suite-seed-3 sweep, after one warm-up pass, stays under
/// [`LIGHT_CALL_ALLOC_BUDGET`].
#[cfg(feature = "count-allocs")]
fn alloc_smoke() {
    use mvgnn_bench::alloc_count::{allocated_bytes, allocations};
    use mvgnn_embed::Inst2Vec;
    use mvgnn_ir::module::{FuncId, Module};

    let apps = generate_suite(None, 3);
    let calls: Vec<(Module, Vec<FuncId>)> = OptLevel::ALL
        .into_iter()
        .flat_map(|level| apps.iter().map(move |app| (app, level)))
        .map(|(app, level)| {
            let mut kernels: Vec<FuncId> = app.loops.iter().map(|&(f, _, _)| f).collect();
            kernels.sort_unstable_by_key(|f| f.index());
            kernels.dedup();
            (optimize(&app.module, level), kernels)
        })
        .collect();
    let modules: Vec<&Module> = calls.iter().map(|(m, _)| m).collect();
    let inst2vec = Inst2Vec::train(
        &modules,
        &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 9 },
    );
    let sample_cfg = SampleConfig::default();
    let node_dim = inst2vec.dim()
        + mvgnn_embed::sample::KIND_DIM
        + mvgnn_embed::sample::EDGE_DIM
        + mvgnn_profiler::DynamicFeatures::DIM;
    let aw_vocab = mvgnn_graph::AwVocab::new(sample_cfg.walk_len).size();
    let model = MvGnn::new(MvGnnConfig::small(node_dim, aw_vocab));
    let cascade = Cascade::full();
    let classify = |m: &Module, f: FuncId| {
        cascade.classify_module(&model, m, f, &inst2vec, &sample_cfg, None, None)
    };

    // Warm-up pass over every call; it also sorts out the light calls.
    let (mut light, mut loops, mut total) = (Vec::new(), 0usize, 0usize);
    for (m, kernels) in &calls {
        for &f in kernels {
            total += 1;
            let reports = classify(m, f);
            if reports.iter().all(|r| r.decided_by == DecidedBy::Oracle) {
                loops += reports.len();
                light.push((m, f, reports));
            }
        }
    }
    let (allocs0, bytes0) = (allocations(), allocated_bytes());
    for (m, f, warm) in &light {
        let reports = classify(m, *f);
        assert_eq!(reports.len(), warm.len(), "light call changed its loop count");
        drop(std::hint::black_box(reports));
    }
    let (allocs, bytes) = (allocations() - allocs0, allocated_bytes() - bytes0);
    let n = light.len().max(1) as f64;
    let per_call = allocs as f64 / n;
    println!(
        "[cascade] alloc smoke: {} of {total} calls light ({loops} loops): {per_call:.2} \
         allocs and {:.0} bytes per light call, {:.2} allocs per loop (budget \
         {LIGHT_CALL_ALLOC_BUDGET} per call)",
        light.len(),
        bytes as f64 / n,
        allocs as f64 / loops.max(1) as f64,
    );
    if light.is_empty() || per_call > LIGHT_CALL_ALLOC_BUDGET {
        eprintln!(
            "GATE FAILED: {per_call:.2} allocations per light call exceeds \
             {LIGHT_CALL_ALLOC_BUDGET} (or no call was light)"
        );
        std::process::exit(1);
    }
    println!("[cascade] alloc smoke OK");
}

fn main() {
    if std::env::args().any(|a| a == "--alloc-smoke") {
        #[cfg(feature = "count-allocs")]
        {
            alloc_smoke();
            return;
        }
        #[cfg(not(feature = "count-allocs"))]
        {
            eprintln!("--alloc-smoke needs a build with --features count-allocs");
            std::process::exit(2);
        }
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (seeds, levels): (Vec<u64>, Vec<OptLevel>) = if smoke {
        (vec![1], vec![OptLevel::O0])
    } else {
        (vec![1, 2], OptLevel::ALL.to_vec())
    };

    eprintln!("[cascade] building plain corpus…");
    let cfg_plain = corpus_config(smoke, false);
    let (ds_plain, model_plain) = model_for(&cfg_plain, smoke);
    eprintln!("[cascade] building static-featured corpus…");
    let cfg_static = corpus_config(smoke, true);
    let (ds_static, model_static) = model_for(&cfg_static, smoke);
    let calibration = fit_calibration(&model_plain, &ds_plain);
    let calibration_static = fit_calibration(&model_static, &ds_static);
    eprintln!(
        "[cascade] fitted temperatures: plain {:.4}, static {:.4}",
        calibration.temperature, calibration_static.temperature
    );

    let arms = [
        Arm {
            name: "pure_gnn",
            cascade: Cascade::gnn_only(),
            model: &model_plain,
            dataset: &ds_plain,
            sample_cfg: &cfg_plain.sample,
            gated: true,
        },
        Arm {
            name: "oracle_gnn",
            cascade: Cascade::new(CascadeConfig {
                use_oracle: true,
                calibration,
                confidence_threshold: 0.0,
                use_profiler: false,
                static_features: false,
            }),
            model: &model_plain,
            dataset: &ds_plain,
            sample_cfg: &cfg_plain.sample,
            gated: true,
        },
        Arm {
            name: "full_cascade",
            cascade: Cascade::new(CascadeConfig {
                calibration,
                static_features: false,
                ..CascadeConfig::default()
            }),
            model: &model_plain,
            dataset: &ds_plain,
            sample_cfg: &cfg_plain.sample,
            gated: true,
        },
        Arm {
            name: "full_cascade_static",
            cascade: Cascade::new(CascadeConfig {
                calibration: calibration_static,
                ..CascadeConfig::default()
            }),
            model: &model_static,
            dataset: &ds_static,
            sample_cfg: &cfg_static.sample,
            gated: false,
        },
    ];

    let mut reports = Vec::new();
    for arm in &arms {
        eprintln!("[cascade] sweeping arm {}…", arm.name);
        let r = run_arm(arm, &seeds, &levels);
        println!(
            "{:<22} loops {:>6}  acc {:.4}  loops/s {:>9.1}  tiers o/g/p {}/{}/{}",
            r.name,
            r.loops,
            r.accuracy(),
            r.loops_per_s(),
            r.oracle,
            r.gnn,
            r.profiler
        );
        reports.push(r);
    }

    if !smoke {
        let rows: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "    {{\"arm\": \"{}\", \"gated\": {}, \"loops\": {}, \"accuracy\": {:.4}, \
                     \"secs\": {:.3}, \"loops_per_s\": {:.1}, \"tier0_rate\": {:.4}, \
                     \"decided_by\": {{\"oracle\": {}, \"gnn\": {}, \"profiler\": {}}}}}",
                    r.name,
                    r.gated,
                    r.loops,
                    r.accuracy(),
                    r.secs,
                    r.loops_per_s(),
                    r.tier0_rate(),
                    r.oracle,
                    r.gnn,
                    r.profiler
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"calibration_temperature\": {:.4},\n  \
             \"calibration_temperature_static\": {:.4},\n  \
             \"arms\": [\n{}\n  ]\n}}\n",
            calibration.temperature,
            calibration_static.temperature,
            rows.join(",\n")
        );
        or_die(std::fs::write("BENCH_cascade.json", json));
        eprintln!("[cascade] wrote BENCH_cascade.json");
    }

    // Frontier gates. The smoke run checks routing only (models are
    // untrained); the full run also requires the cascade's accuracy to
    // be no worse than the pure-GNN baseline — tier-0 verdicts are
    // proofs and tier-2 verdicts are evidence-backed, so a regression
    // here means the routing is wrong, not the model.
    let [gnn, oracle_gnn, full, _static_arm] = &reports[..] else {
        eprintln!("GATE FAILED: expected four arms, got {}", reports.len());
        std::process::exit(1);
    };
    let mut failures = Vec::new();
    for r in [oracle_gnn, full] {
        if r.oracle == 0 {
            failures.push(format!("{}: tier-0 short-circuit rate is zero", r.name));
        }
        if r.loops != gnn.loops {
            failures.push(format!(
                "{}: classified {} loops but pure_gnn classified {}",
                r.name, r.loops, gnn.loops
            ));
        }
        if r.loops_per_s() < gnn.loops_per_s() {
            failures.push(format!(
                "{}: {:.1} loops/s is below the pure-GNN baseline {:.1}",
                r.name,
                r.loops_per_s(),
                gnn.loops_per_s()
            ));
        }
    }
    if !smoke {
        for r in [oracle_gnn, full] {
            if r.accuracy() < gnn.accuracy() {
                failures.push(format!(
                    "{}: accuracy {:.4} is below the pure-GNN baseline {:.4}",
                    r.name,
                    r.accuracy(),
                    gnn.accuracy()
                ));
            }
        }
    }
    for f in &failures {
        eprintln!("GATE FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
