//! The repository benchmark.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cascade_full|gnn_only> [--seed 3] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Each run sets up the system (corpus, inst2vec, training and
//! calibration) several times and reports the median as `setup_s`,
//! builds its inputs from `--seed` (held out from the training seeds),
//! prints a census of them, runs the workload for `--seconds` seconds,
//! checks the outputs and prints one JSON result as its last line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Spans of a traced run are written to
//! `perfbench/out/`. A failed output check exits with code 1; one found
//! after the run prints the result with `"correct": false` first.
//! `predictions.json` says which end-to-end metric each per-layer metric
//! should move, on which workload.

mod cascade;
mod inputs;
mod serve;
mod stats;
mod trace;

use inputs::{AnalyzeProbe, Input};
use mvgnn_core::{train, Calibration, Cascade, CascadeConfig, MvGnn, MvGnnConfig, TrainConfig};
use mvgnn_dataset::{build_corpus, CorpusConfig};
use mvgnn_embed::{GraphSample, Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn_ir::transform::OptLevel;
use mvgnn_serve::{ServeConfig, Server};
use stats::{mean, median, percentile, ratio, Metrics};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{LayerTime, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    CascadeFull,
    GnnOnly,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::CascadeFull => "cascade_full",
            Workload::GnnOnly => "gnn_only",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::CascadeFull,
        seed: 3,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "cascade_full" => Workload::CascadeFull,
                    "gnn_only" => Workload::GnnOnly,
                    _ => return Err(bad(&"unknown workload")),
                })
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The `cascade` bench bin's plain corpus: seeds 1–2, all six levels,
/// 500 loops per class, inst2vec dim 48, no static features.
fn corpus_config() -> CorpusConfig {
    CorpusConfig {
        seeds: vec![1, 2],
        opt_levels: OptLevel::ALL.to_vec(),
        per_class: Some(500),
        test_fraction: 0.25,
        suite: None,
        inst2vec: Inst2VecConfig {
            dim: 48,
            epochs: 3,
            negatives: 4,
            lr: 0.05,
            seed: 0x1257,
        },
        sample: SampleConfig::default(),
        seed: 0xca5c,
        label_noise: 0.0,
        static_features: false,
    }
}

struct Setup {
    model: Arc<MvGnn>,
    inst2vec: Inst2Vec,
    sample_cfg: SampleConfig,
    calibration: Calibration,
    corpus_s: f64,
    train_s: f64,
    total_s: f64,
}

/// Corpus + inst2vec, 12 training epochs and temperature calibration on
/// the held-out split.
fn set_up() -> Result<Setup, String> {
    let t0 = Instant::now();
    let cfg = corpus_config();
    let ds = build_corpus(&cfg);
    let corpus_s = t0.elapsed().as_secs_f64();
    let probe = &ds
        .train
        .first()
        .ok_or("the training split is empty")?
        .sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    let t1 = Instant::now();
    train(
        &mut model,
        &ds.train,
        &TrainConfig {
            epochs: 12,
            seed: 0xca5c,
            ..TrainConfig::default()
        },
    )
    .map_err(|e| format!("training failed: {e}"))?;
    let train_s = t1.elapsed().as_secs_f64();
    let held_out: Vec<&GraphSample> = ds.test.iter().map(|s| &s.sample).collect();
    let labels: Vec<usize> = ds.test.iter().map(|s| s.label).collect();
    let calibration = Calibration::fit(&model.logits_batch(&held_out), &labels);
    Ok(Setup {
        model: Arc::new(model),
        inst2vec: ds.inst2vec,
        sample_cfg: cfg.sample,
        calibration,
        corpus_s,
        train_s,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

/// Every per-layer metric; a workload fills what it measures.
#[derive(Default)]
struct Layers {
    profile_us: f64,
    dep_edges: f64,
    cus_us: f64,
    features_us: f64,
    tier2_loops: f64,
    oracle_us: f64,
    plan_us: f64,
    decided_frac: f64,
    peg_build_us: f64,
    subpeg_us: f64,
    subpeg_nodes: f64,
    sample_us: f64,
    walks_us: f64,
    forward_us_per_row: f64,
    rows_per_batch: f64,
    submit_us: f64,
    queued_p50_us: f64,
    queued_p99_us: f64,
    batch_fill: f64,
    post_queue_us: f64,
    shed: f64,
    expired: f64,
    light_p50_us: f64,
    light_p99_us: f64,
    late_p99_us: f64,
    corpus_s: f64,
    train_s: f64,
    uncovered_frac: f64,
    overhead_frac: f64,
}

impl Layers {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("profiler.profile_us", "us", self.profile_us);
        m.put("profiler.dep_edges", "edges", self.dep_edges);
        m.put("profiler.cus_us", "us", self.cus_us);
        m.put("profiler.features_us", "us", self.features_us);
        m.put("profiler.tier2_loops", "loops", self.tier2_loops);
        m.put("analyze.oracle_us", "us", self.oracle_us);
        m.put("analyze.plan_us", "us", self.plan_us);
        m.put("analyze.decided_frac", "fraction", self.decided_frac);
        m.put("peg.build_us", "us", self.peg_build_us);
        m.put("peg.subpeg_us", "us", self.subpeg_us);
        m.put("peg.subpeg_nodes", "nodes", self.subpeg_nodes);
        m.put("embed.sample_us", "us", self.sample_us);
        m.put("embed.walks_us", "us", self.walks_us);
        m.put("gnn.forward_us_per_row", "us", self.forward_us_per_row);
        m.put("gnn.rows_per_batch", "rows", self.rows_per_batch);
        m.put("serve.submit_us", "us", self.submit_us);
        m.put("serve.queued_p50_us", "us", self.queued_p50_us);
        m.put("serve.queued_p99_us", "us", self.queued_p99_us);
        m.put("serve.batch_fill", "requests", self.batch_fill);
        m.put("serve.post_queue_us", "us", self.post_queue_us);
        m.put("serve.shed", "count", self.shed);
        m.put("serve.expired", "count", self.expired);
        m.put("serve.light_p50_us", "us", self.light_p50_us);
        m.put("serve.light_p99_us", "us", self.light_p99_us);
        m.put("loadgen.late_p99_us", "us", self.late_p99_us);
        m.put("setup.corpus_s", "s", self.corpus_s);
        m.put("setup.train_s", "s", self.train_s);
        m.put("trace.uncovered_frac", "fraction", self.uncovered_frac);
        m.put("trace.overhead_frac", "fraction", self.overhead_frac);
        m
    }

    /// Mean self time per call of each layer function a tracer timed.
    fn take_spans(&mut self, spans: &BTreeMap<&str, LayerTime>) {
        let us = |name: &str| spans.get(name).map_or(0.0, LayerTime::mean_self_us);
        self.profile_us = us("profiler.profile");
        self.cus_us = us("profiler.cus");
        self.features_us = us("profiler.features");
        self.oracle_us = us("analyze.oracle");
        self.plan_us = us("analyze.plan");
        self.peg_build_us = us("peg.build");
        self.subpeg_us = us("peg.subpeg");
        self.sample_us = us("embed.sample");
        self.walks_us = us("probe.walks");
    }

    /// The serve probe's serve-layer and load-generator numbers.
    fn take_serve(&mut self, rates: &serve::FixedRates) {
        let (light, heavy) = (&rates.light, &rates.heavy);
        self.submit_us = mean(&heavy.submit_us);
        self.queued_p50_us = percentile(&heavy.queued_us, 0.5);
        self.queued_p99_us = percentile(&heavy.queued_us, 0.99);
        self.batch_fill = heavy.mean_fill();
        self.post_queue_us = percentile(&heavy.post_queue_us, 0.5);
        self.shed = (light.shed + heavy.shed) as f64;
        self.expired = (light.expired + heavy.expired) as f64;
        (self.light_p50_us, self.light_p99_us) = rates.light_pcts;
        let late: Vec<f64> = light
            .late_us
            .iter()
            .chain(&heavy.late_us)
            .copied()
            .collect();
        self.late_p99_us = percentile(&late, 0.99);
    }
}

/// What a workload hands back for the result line.
struct Outcome {
    checks: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// The serve layer at both fixed rates over `pool`, on a server of its
/// own: the cascade workloads never call it.
fn serve_probe(
    model: &Arc<MvGnn>,
    pool: &[Arc<GraphSample>],
    seed: u64,
) -> Result<serve::FixedRates, String> {
    let server = Server::start(Arc::clone(model), ServeConfig::default())
        .map_err(|e| format!("server start failed: {e}"))?;
    let rates = serve::FixedRates::run(&server, pool, (1.0, 1.5), seed);
    server.shutdown();
    Ok(rates)
}

/// The traced pass and the serve probe: per-layer metrics into `layers`,
/// failed checks into `checks`.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    args: &Args,
    setup: &Setup,
    cfg: &CascadeConfig,
    inputs: &[Input],
    calls: &[cascade::Call],
    untraced: &cascade::Pass,
    probe: &AnalyzeProbe,
    pool: &[Arc<GraphSample>],
    layers: &mut Layers,
    checks: &mut Vec<String>,
) -> Result<(), String> {
    let mut tr = Tracer::new(Instant::now());
    let mut counts = cascade::TraceCounts::default();
    let traced = cascade::traced_pass(
        &mut tr,
        &mut counts,
        cfg,
        &setup.model,
        inputs,
        calls,
        &setup.inst2vec,
        &setup.sample_cfg,
    )?;
    if traced != untraced.verdicts {
        let n = traced
            .iter()
            .zip(&untraced.verdicts)
            .filter(|(a, b)| a != b)
            .count();
        checks.push(format!(
            "traced verdicts differ from the untraced run on {n} calls"
        ));
    }
    let spans = tr.layers();
    let at = |name: &str| spans.get(name).copied().unwrap_or_default();
    let call = at("call");
    layers.take_spans(&spans);
    layers.dep_edges = ratio(counts.dep_edges as f64, counts.profiles as f64);
    layers.subpeg_nodes = ratio(counts.subpeg_nodes as f64, counts.subpegs as f64);
    layers.forward_us_per_row = ratio(at("gnn.forward").self_ns as f64 / 1e3, counts.rows as f64);
    layers.rows_per_batch = ratio(counts.rows as f64, counts.batches as f64);
    let traced_s = call.total_ns as f64 / 1e9;
    layers.uncovered_frac = ratio(call.self_ns as f64, call.total_ns as f64);
    // Against the pass just before it: machine speed drifts over a run.
    layers.overhead_frac = traced_s / untraced.secs - 1.0;
    if args.workload == Workload::GnnOnly {
        layers.oracle_us = probe.oracle_us();
        layers.plan_us = probe.plan_us();
        layers.decided_frac = probe.decided_frac();
    }
    println!(
        "layer shares of traced call time ({traced_s:.3} s over {} calls):",
        call.count
    );
    for (name, t) in &spans {
        if *name != "call" {
            println!(
                "  {name:<20} {:>7.2}%  {:>10.2} us/span  x{}",
                100.0 * ratio(t.self_ns as f64, call.total_ns as f64),
                t.mean_self_us(),
                t.count
            );
        }
    }
    println!(
        "  {:<20} {:>7.2}%",
        "uncovered",
        100.0 * layers.uncovered_frac
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
    match tr.write_tsv(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }

    let rates = serve_probe(&setup.model, pool, args.seed)?;
    println!("{}", rates.census("probe "));
    checks.extend(rates.audit().cloned());
    layers.take_serve(&rates);
    Ok(())
}

fn run_cascade(
    args: &Args,
    setup: &Setup,
    inputs: &[Input],
    probe: &AnalyzeProbe,
    pool: &[Arc<GraphSample>],
    layers: &mut Layers,
) -> Result<Outcome, String> {
    let cfg = match args.workload {
        Workload::CascadeFull => CascadeConfig {
            calibration: setup.calibration,
            ..CascadeConfig::default()
        },
        Workload::GnnOnly => CascadeConfig::gnn_only(),
    };
    let cascade = Cascade::new(cfg);
    let calls = cascade::calls(inputs, args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let passes = cascade::timed_passes(
        &cascade,
        &setup.model,
        inputs,
        &calls,
        &setup.inst2vec,
        &setup.sample_cfg,
        budget,
    )?;
    let first = &passes[0];
    let score = cascade::score(inputs, &calls, &first.verdicts)?;
    let n_passes = passes.len() as u64;
    let call_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.call_us.iter().copied())
        .collect();
    let pass_s: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let accuracy = ratio(score.correct as f64, score.truth_loops as f64);
    println!(
        "run: passes {n_passes} pass_s {pass_s:.3?} timed_calls {} loops_per_pass {} \
         decided oracle/gnn/profiler {}/{}/{} fallbacks {} false_parallel {} accuracy {accuracy:.4}",
        call_us.len(),
        score.loops,
        score.decided[0],
        score.decided[1],
        score.decided[2],
        score.fallbacks,
        score.false_parallel,
    );
    let mut metrics = Metrics::default();
    metrics.put("accuracy", "fraction", accuracy);
    metrics.put(
        "loops_per_s",
        "loops/s",
        (score.loops * n_passes) as f64 / pass_s.iter().sum::<f64>(),
    );
    metrics.put("call_p50_us", "us", percentile(&call_us, 0.5));
    metrics.put("call_p99_us", "us", percentile(&call_us, 0.99));

    let mut checks = Vec::new();
    if args.trace {
        let last = &passes[passes.len() - 1];
        trace_layers(
            args,
            setup,
            &cfg,
            inputs,
            &calls,
            last,
            probe,
            pool,
            layers,
            &mut checks,
        )?;
        if args.workload == Workload::CascadeFull {
            layers.decided_frac = ratio(score.decided[0] as f64, score.loops as f64);
        }
    }
    layers.tier2_loops = score.decided[2] as f64;
    Ok(Outcome {
        checks,
        attempted: score.loops * n_passes,
        failed: score.fallbacks * n_passes,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run one workload and print its census and result; `Ok(false)` when an
/// output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let (mut totals, mut corpus, mut train) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up goes before the next starts.
        drop(setup.take());
        let s = set_up()?;
        totals.push(s.total_s);
        corpus.push(s.corpus_s);
        train.push(s.train_s);
        setup = Some(s);
    }
    let setup = setup.ok_or("no set-up ran")?;
    println!("setup: total_s {totals:?} corpus_s {corpus:?} train_s {train:?}");
    let setup_hwm = stats::peak_rss_mib().ok_or("cannot read VmHWM")?;

    let inputs = inputs::generate(args.seed);
    let probe = AnalyzeProbe::run(&inputs);
    // The serve probe of a traced run sends these samples; an untraced
    // run only counts their nodes for the census, then frees them.
    let mut pool = inputs::pool(args.seed, &corpus_config(), &setup.inst2vec);
    let subpeg_nodes = mean(&pool.iter().map(|s| s.n as f64).collect::<Vec<_>>());
    if !args.trace {
        pool = Vec::new();
    }
    println!(
        "{} setup_hwm_mib {setup_hwm:.1}",
        inputs::census_line(&inputs, &probe, subpeg_nodes)
    );
    if !stats::restart_peak_rss() {
        eprintln!("warning: cannot restart VmHWM; peak_rss_mib includes the set-up");
    }

    let mut layers = Layers {
        corpus_s: median(&corpus),
        train_s: median(&train),
        ..Layers::default()
    };
    let outcome = run_cascade(args, &setup, &inputs, &probe, &pool, &mut layers)?;
    for c in &outcome.checks {
        eprintln!("CHECK FAILED: {c}");
    }
    let metrics = if args.trace {
        layers.metrics()
    } else {
        let mut m = Metrics::default();
        m.put("setup_s", "s", median(&totals));
        m.put(
            "peak_rss_mib",
            "MiB",
            stats::peak_rss_mib().ok_or("cannot read VmHWM")?,
        );
        m.0.extend(outcome.metrics.0);
        m
    };
    if let Some(name) = metrics.non_finite() {
        return Err(format!("metric {name} is not a finite number"));
    }
    let correct = outcome.checks.is_empty();
    println!(
        "{}",
        stats::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}
