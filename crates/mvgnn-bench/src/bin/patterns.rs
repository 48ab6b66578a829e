//! Per-family pattern benchmark: the parallelization planner and the
//! GNN pattern head, stressed on the adversarial kernel families.
//!
//! The corpus is the opt-in `Stress` suite — indirect gather/scatter,
//! pointer chasing, triangular/skewed iteration spaces, and carried
//! dependences at distance > 1, plus a regular slice for label balance.
//! A 4-class pattern model is trained on it (noise-free, like the
//! pattern-head diagnostics), then a held-out seed is evaluated three
//! ways per [`mvgnn_dataset::KernelFamily`]:
//!
//! - **planner coverage** — how many loops the planner *proves* a plan
//!   for, and whether any proved plan contradicts the generator's
//!   ground truth (the lint auditor's rule C; always fatal here);
//! - **raw GNN accuracy** — [`mvgnn_core::predict_pattern`] alone;
//! - **checked accuracy** — [`mvgnn_core::predict_pattern_checked`],
//!   where a proved plan overrides the head; override wins/losses are
//!   counted separately.
//!
//! The full run writes `BENCH_patterns.json`; `--smoke` trains a
//! seconds-scale model, gates on planner coverage > 0 for every family
//! and zero rule-C contradictions, and writes nothing (the CI wiring).

use mvgnn_core::model::MvGnn;
use mvgnn_core::patterns::pattern_model_config;
use mvgnn_core::{pattern_samples, predict_pattern, predict_pattern_checked, train, TrainConfig};
use mvgnn_dataset::{
    build_corpus, generate_app, CorpusConfig, KernelFamily, Suite, STRESS,
};
use mvgnn_embed::{build_sample, Inst2VecConfig};
use mvgnn_ir::transform::{optimize, OptLevel};
use mvgnn_peg::{build_peg, loop_subpeg};
use mvgnn_profiler::{build_cus, loop_features, profile_module};

/// Per-family tallies over the held-out evaluation seed.
#[derive(Debug, Default, Clone)]
struct FamilyStats {
    loops: usize,
    plans_proved: usize,
    /// Proved plans whose binary claim contradicts the clean truth —
    /// rule C of the lint auditor, always fatal here.
    plan_contradictions: usize,
    gnn_raw_correct: usize,
    gnn_checked_correct: usize,
    overrides: usize,
    /// Overrides where the proof fixed a head misprediction.
    override_wins: usize,
    /// Overrides where the proof replaced a correct head prediction
    /// with a different pattern (possible only at pattern granularity).
    override_losses: usize,
}

impl FamilyStats {
    fn coverage(&self) -> f64 {
        if self.loops == 0 { 0.0 } else { self.plans_proved as f64 / self.loops as f64 }
    }

    fn acc(&self, correct: usize) -> f64 {
        if self.loops == 0 { 0.0 } else { correct as f64 / self.loops as f64 }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (train_seeds, eval_seed, epochs): (Vec<u64>, u64, usize) =
        if smoke { (vec![1], 2, 6) } else { (vec![1, 2], 3, 30) };

    // Train the 4-class head on the stress corpus, noise-free (pattern
    // identification is a diagnostic task, not the noisy benchmark).
    let cfg = CorpusConfig {
        seeds: train_seeds,
        opt_levels: if smoke { vec![OptLevel::O0] } else { vec![OptLevel::O0, OptLevel::O2] },
        per_class: None,
        test_fraction: 0.25,
        suite: Some(Suite::Stress),
        inst2vec: Inst2VecConfig {
            dim: if smoke { 12 } else { 32 },
            epochs: 1,
            negatives: 2,
            lr: 0.05,
            seed: 0x57e5,
        },
        sample: Default::default(),
        seed: 0x57e5,
        label_noise: 0.0,
        static_features: false,
    };
    let ds = build_corpus(&cfg);
    assert!(!ds.train.is_empty(), "stress corpus must not be empty");
    let probe = &ds.train[0].sample;
    let mut model = MvGnn::new(pattern_model_config(probe.node_dim, probe.aw_vocab));
    let curve = mvgnn_bench::or_die(train(
        &mut model,
        &pattern_samples(&ds.train),
        &TrainConfig { epochs, batch_size: 16, ..Default::default() },
    ));
    println!(
        "trained 4-class head on {} stress samples ({} epochs, loss {:.3} -> {:.3})",
        ds.train.len(),
        epochs,
        curve.first().map_or(0.0, |e| e.loss),
        curve.last().map_or(0.0, |e| e.loss),
    );

    // Evaluate on a held-out generation seed, where the module context
    // needed by the planner is still in hand.
    let mut stats: Vec<(KernelFamily, FamilyStats)> =
        KernelFamily::ALL.iter().map(|&f| (f, FamilyStats::default())).collect();
    for spec in STRESS {
        let app = generate_app(spec, eval_seed);
        let module = optimize(&app.module, OptLevel::O0);
        let res = mvgnn_bench::or_die(profile_module(&module, app.entry, &[]));
        let cus = build_cus(&module);
        let peg = build_peg(&module, &cus, &res.deps);
        for (i, &(f, l, pattern)) in app.loops.iter().enumerate() {
            let Some(runtime) = res.loops.get(&(f, l)) else { continue };
            let feats = loop_features(&module, f, l, &res.deps, runtime);
            let sub = loop_subpeg(&peg, &module, &cus, f, l);
            let sample = build_sample(&sub, &ds.inst2vec, &feats, &cfg.sample, None);
            let checked = predict_pattern_checked(&model, &sample, &module, f, l);
            let raw = predict_pattern(&model, &sample);
            debug_assert_eq!(raw, checked.raw);

            let family = app.loop_kinds[i].family();
            // `stats` enumerates `KernelFamily::ALL`, so the lookup
            // always succeeds; skip (never panic) if that ever changes.
            let Some((_, s)) = stats.iter_mut().find(|(fam, _)| *fam == family) else {
                continue;
            };
            s.loops += 1;
            let truth = usize::from(pattern.is_parallelizable());
            if let Some(pb) = checked.plan.proved_binary() {
                s.plans_proved += 1;
                if pb != truth && !app.loop_kinds[i].trace_limited() {
                    s.plan_contradictions += 1;
                    eprintln!(
                        "RULE-C: {} seed {eval_seed} {:?} f{}:l{}: proved `{}` \
                         contradicts truth {truth} (pattern {pattern:?})",
                        spec.name, app.loop_kinds[i], f.0, l.0, checked.plan.pragma
                    );
                }
            }
            s.gnn_raw_correct += usize::from(checked.raw == pattern);
            s.gnn_checked_correct += usize::from(checked.pattern == pattern);
            if checked.overridden {
                s.overrides += 1;
                s.override_wins +=
                    usize::from(checked.pattern == pattern && checked.raw != pattern);
                s.override_losses +=
                    usize::from(checked.raw == pattern && checked.pattern != pattern);
            }
        }
    }

    let widths = [14usize, 6, 7, 9, 8, 8, 10, 5, 5];
    mvgnn_bench::print_row(
        &["family", "loops", "proved", "coverage", "raw-acc", "chk-acc", "overrides", "wins",
          "loss"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        &widths,
    );
    mvgnn_bench::print_rule(&widths);
    for (fam, s) in &stats {
        mvgnn_bench::print_row(
            &[
                fam.as_str().to_string(),
                s.loops.to_string(),
                s.plans_proved.to_string(),
                format!("{:.2}", s.coverage()),
                format!("{:.2}", s.acc(s.gnn_raw_correct)),
                format!("{:.2}", s.acc(s.gnn_checked_correct)),
                s.overrides.to_string(),
                s.override_wins.to_string(),
                s.override_losses.to_string(),
            ],
            &widths,
        );
    }
    let contradictions: usize = stats.iter().map(|(_, s)| s.plan_contradictions).sum();
    println!("rule-C contradictions: {contradictions}");

    if !smoke {
        let rows: Vec<String> = stats
            .iter()
            .map(|(fam, s)| {
                format!(
                    "    {{\"family\": \"{}\", \"loops\": {}, \"plans_proved\": {}, \
                     \"plan_coverage\": {:.4}, \"plan_contradictions\": {}, \
                     \"gnn_raw_accuracy\": {:.4}, \"gnn_checked_accuracy\": {:.4}, \
                     \"overrides\": {}, \"override_wins\": {}, \"override_losses\": {}}}",
                    fam.as_str(),
                    s.loops,
                    s.plans_proved,
                    s.coverage(),
                    s.plan_contradictions,
                    s.acc(s.gnn_raw_correct),
                    s.acc(s.gnn_checked_correct),
                    s.overrides,
                    s.override_wins,
                    s.override_losses,
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"eval_seed\": {eval_seed},\n  \"train_samples\": {},\n  \
             \"epochs\": {epochs},\n  \"rule_c_contradictions\": {contradictions},\n  \
             \"families\": [\n{}\n  ]\n}}\n",
            ds.train.len(),
            rows.join(",\n"),
        );
        mvgnn_bench::or_die(std::fs::write("BENCH_patterns.json", json));
        eprintln!("[patterns] wrote BENCH_patterns.json");
    }

    // Gates (both modes): the planner must decide something in every
    // family — each family's apps contain provable init/copy loops even
    // when the family's namesake kernel is undecidable — and no proved
    // plan may contradict the generator's ground truth.
    let mut failed = false;
    for (fam, s) in &stats {
        if s.loops == 0 {
            eprintln!("fatal: family {fam} evaluated zero loops");
            failed = true;
        }
        if s.plans_proved == 0 {
            eprintln!("fatal: planner proved nothing in family {fam}");
            failed = true;
        }
    }
    if contradictions > 0 {
        eprintln!("fatal: {contradictions} rule-C contradiction(s)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
