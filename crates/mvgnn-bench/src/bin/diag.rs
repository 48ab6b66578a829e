//! Diagnostic: embedding magnitudes entering the fusion tanh, plus
//! train-vs-test accuracy of each head. Not part of the paper tables.

use mvgnn_bench::{pipeline_config, Scale};
use mvgnn_core::model::{MvGnn, MvGnnConfig, NODE, STRUCT};
use mvgnn_core::trainer::{evaluate, train};
use mvgnn_dataset::build_corpus;
use mvgnn_tensor::Workspace;

/// Parse an override from the environment, exiting with a usable message
/// on garbage instead of panicking.
fn env_override<T: std::str::FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("fatal: {name}={raw:?} does not parse");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut cfg = pipeline_config(Scale::Default);
    if let Some(lr) = env_override("DIAG_LR") {
        cfg.train.lr = lr;
    }
    if let Some(e) = env_override("DIAG_EPOCHS") {
        cfg.train.epochs = e;
    }
    if let Some(c) = env_override("DIAG_CLIP") {
        cfg.train.clip = c;
    }
    if let Some(b) = env_override("DIAG_BATCH") {
        cfg.train.batch_size = b;
    }
    if let Some(a) = env_override("DIAG_AUX") {
        cfg.train.aux_weight = a;
    }
    eprintln!("lr {} epochs {} clip {} batch {} aux {}", cfg.train.lr, cfg.train.epochs, cfg.train.clip, cfg.train.batch_size, cfg.train.aux_weight);
    let ds = build_corpus(&cfg.corpus);
    let probe = &ds.train[0].sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));

    // Pre-training magnitude of the view embeddings.
    let mags = |model: &MvGnn, n: usize| {
        let mut max_abs = 0.0f32;
        let mut mean_abs = 0.0f32;
        let mut count = 0usize;
        for s in ds.train.iter().take(n) {
            let rows = model.forward_rows(&mut Workspace::new(), &[&s.sample]);
            // The concat input to fusion is the last tanh's input; easiest
            // proxy: check the per-view logits magnitude.
            for v in [NODE, STRUCT] {
                for &x in rows.view(v, 0).unwrap_or_default() {
                    max_abs = max_abs.max(x.abs());
                    mean_abs += x.abs();
                    count += 1;
                }
            }
        }
        (max_abs, mean_abs / count as f32)
    };
    let (mx, mn) = mags(&model, 32);
    println!("pre-train view-logit magnitude: max {mx:.2} mean {mn:.2}");

    let stats = mvgnn_bench::or_die(train(&mut model, &ds.train, &cfg.train));
    for e in stats.iter().step_by(5) {
        println!("epoch {:>3} loss {:.4} train-acc {:.3}", e.epoch, e.loss, e.accuracy);
    }
    if let Some(last) = stats.last() {
        println!("final train acc {:.3}", last.accuracy);
    }
    let m = evaluate(&model, &ds.test);
    println!("test: {m}");
    // Per-(suite, pattern) error census on the evaluation pool.
    let mut per: std::collections::BTreeMap<(String, String, usize), (usize, usize)> =
        std::collections::BTreeMap::new();
    for s in &ds.test_full {
        let pred = model.forward_rows(&mut Workspace::new(), &[&s.sample]).argmax(0);
        let e = per
            .entry((format!("{:?}", s.suite), format!("{:?}", s.pattern), s.label))
            .or_insert((0, 0));
        e.1 += 1;
        if pred != s.label {
            e.0 += 1;
        }
    }
    for ((suite, pat, label), (err, tot)) in per {
        if err > 0 {
            println!(
                "test_full {suite:<10} {pat:<12} label {label}: {err:>3}/{tot:<4} wrong ({:.0}%)",
                100.0 * err as f64 / tot as f64
            );
        }
    }
    // Name the failing reduction loops by generator function.
    let mut wrong_funcs: std::collections::BTreeMap<String, usize> = Default::default();
    for s in &ds.test_full {
        if format!("{:?}", s.pattern) == "Reduction" && s.label == 1 {
            let pred = model.forward_rows(&mut Workspace::new(), &[&s.sample]).argmax(0);
            if pred != s.label {
                // Reconstruct the generator function name from the app.
                *wrong_funcs
                    .entry(format!("{} f{} l{} n={}", s.app, s.sample.func.0, s.sample.l.0, s.sample.n))
                    .or_default() += 1;
            }
        }
    }
    for (k, v) in wrong_funcs {
        println!("wrong reduction: {k} ×{v}");
    }
    let (mx, mn) = mags(&model, 32);
    println!("post-train view-logit magnitude: max {mx:.2} mean {mn:.2}");
}
