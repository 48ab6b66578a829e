//! The cascade's routing gate on a seconds-scale sweep: every kernel of
//! `generate_suite(None, 1)` at `-O0`, classified end to end through
//! three arms that share one untrained model:
//!
//! - `pure_gnn`: [`Cascade::gnn_only`], the baseline;
//! - `oracle_gnn`: tier 0, then the calibrated GNN for the rest;
//! - `full_cascade`: all three tiers.
//!
//! Tier 0 must decide some loops in both cascade arms, every arm must
//! report the same loops, and both cascade arms must classify at least
//! as many loops per second as the pure GNN. The model is untrained, so
//! accuracy is not judged here; perfbench measures the trained cascade.

use mvgnn_core::{Calibration, Cascade, CascadeConfig, DecidedBy, MvGnn, MvGnnConfig};
use mvgnn_dataset::{build_corpus, generate_suite, CorpusConfig, Dataset};
use mvgnn_embed::{GraphSample, Inst2VecConfig, SampleConfig};
use mvgnn_ir::transform::{optimize, OptLevel};
use std::collections::HashSet;
use std::time::Instant;

/// What one arm classified over the sweep.
struct ArmReport {
    name: &'static str,
    loops: usize,
    oracle: usize,
    secs: f64,
}

impl ArmReport {
    fn loops_per_s(&self) -> f64 {
        self.loops as f64 / self.secs.max(1e-9)
    }
}

/// Classify every kernel of the sweep through `cascade`, each as its own
/// entry. Only classification is on the clock; generating and
/// optimising the modules is not.
fn run_arm(
    name: &'static str,
    cascade: &Cascade,
    model: &MvGnn,
    ds: &Dataset,
    sample_cfg: &SampleConfig,
) -> ArmReport {
    let mut report = ArmReport { name, loops: 0, oracle: 0, secs: 0.0 };
    for app in generate_suite(None, 1) {
        let labelled: HashSet<_> = app.loops.iter().map(|&(f, l, _)| (f, l)).collect();
        let mut kernels: Vec<_> = app.loops.iter().map(|&(f, _, _)| f).collect();
        kernels.sort_unstable_by_key(|f| f.index());
        kernels.dedup();
        let module = optimize(&app.module, OptLevel::O0);
        let t0 = Instant::now();
        let reports: Vec<_> = kernels
            .iter()
            .flat_map(|&f| {
                cascade.classify_module(model, &module, f, &ds.inst2vec, sample_cfg, None, None)
            })
            .collect();
        report.secs += t0.elapsed().as_secs_f64();
        for r in reports.iter().filter(|r| labelled.contains(&(r.func, r.l))) {
            report.loops += 1;
            report.oracle += usize::from(r.decided_by == DecidedBy::Oracle);
        }
    }
    report
}

#[test]
fn the_oracle_tiers_decide_loops_and_run_no_slower_than_the_pure_gnn() {
    let cfg = CorpusConfig {
        seeds: vec![1],
        opt_levels: vec![OptLevel::O0],
        per_class: Some(40),
        test_fraction: 0.25,
        suite: None,
        inst2vec: Inst2VecConfig { dim: 16, epochs: 1, negatives: 4, lr: 0.05, seed: 0x1257 },
        sample: SampleConfig::default(),
        seed: 0xca5c,
        label_noise: 0.0,
        static_features: false,
    };
    let ds = build_corpus(&cfg);
    let probe = &ds.train[0].sample;
    let model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    let calibration = {
        let samples: Vec<&GraphSample> = ds.test.iter().map(|s| &s.sample).collect();
        let labels: Vec<usize> = ds.test.iter().map(|s| s.label).collect();
        Calibration::fit(&model.logits_batch(&samples), &labels)
    };
    let oracle_gnn = Cascade::new(CascadeConfig {
        use_oracle: true,
        calibration,
        confidence_threshold: 0.0,
        use_profiler: false,
        static_features: false,
    });
    let full = Cascade::new(CascadeConfig {
        calibration,
        static_features: false,
        ..CascadeConfig::default()
    });

    let gnn = run_arm("pure_gnn", &Cascade::gnn_only(), &model, &ds, &cfg.sample);
    let arms = [
        run_arm("oracle_gnn", &oracle_gnn, &model, &ds, &cfg.sample),
        run_arm("full_cascade", &full, &model, &ds, &cfg.sample),
    ];
    for r in std::iter::once(&gnn).chain(&arms) {
        println!(
            "{:<12} loops {:>5}  tier 0 {:>5}  loops/s {:>9.1}",
            r.name,
            r.loops,
            r.oracle,
            r.loops_per_s()
        );
    }
    assert!(gnn.loops > 0, "the sweep classified no loop");
    for r in &arms {
        assert!(r.oracle > 0, "{}: tier 0 decided no loop", r.name);
        assert_eq!(r.loops, gnn.loops, "{}: loop count differs from the pure GNN's", r.name);
        assert!(
            r.loops_per_s() >= gnn.loops_per_s(),
            "{}: {:.1} loops/s is below the pure GNN's {:.1}",
            r.name,
            r.loops_per_s(),
            gnn.loops_per_s()
        );
    }
}
