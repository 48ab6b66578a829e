//! Inference-throughput benchmark: loops/sec for batched (packed
//! `GraphBatch`) versus per-sample execution of the same model on the
//! same loop population, plus a thread sweep of the concurrent
//! [`InferenceEngine`].
//!
//! All paths are bit-identical (asserted here and property-tested in
//! `tests/batch_parity.rs` / `tests/concurrent_parity.rs`): batching
//! measures pure tape-amortisation, and the engine sweep measures what
//! the worker fan-out adds on top for each thread count. Emits
//! `BENCH_throughput.json` next to the working directory for trend
//! tracking.
//!
//! `--smoke` runs a single engine batch against the sequential path and
//! exits — a seconds-scale CI wiring check, no JSON written.
//!
//! `--alloc-smoke` (needs `--features count-allocs`) asserts the pooled
//! steady state: after warm-up, one full engine stream must stay under
//! `ALLOC_BUDGET_PER_LOOP` heap allocations per loop. The full run
//! also reports allocs/loop for the per-sample baseline versus the
//! pooled engine, and the featurisation-cache hit rate, in
//! `BENCH_throughput.json`.

use mvgnn_bench::{pipeline_config, Scale};
use mvgnn_core::{Cascade, EngineConfig, InferenceEngine, MvGnn, MvGnnConfig, Workspace};
use mvgnn_dataset::{build_corpus, generate_app, Suite, TABLE2};
use mvgnn_embed::{FeatureCache, GraphSample, Inst2Vec, SampleConfig};
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 32;

/// Steady-state heap-allocation budget per classified loop for the
/// pooled engine (after one warm-up stream). The remaining allocations
/// are per-*chunk* bookkeeping (adjacency pointer list, SortPooling pair
/// lists, the prediction vector), so the real steady state sits around
/// 0.2–0.5 per loop; the budget is a backstop, not a target.
#[cfg(feature = "count-allocs")]
const ALLOC_BUDGET_PER_LOOP: f64 = 2.0;

/// Engine worker counts swept by the benchmark.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Minimum length of one timing window; sub-millisecond windows are
/// dominated by scheduler noise on a loaded machine.
const MIN_WINDOW_SECS: f64 = 0.1;

/// Repetitions of `f` needed to fill one [`MIN_WINDOW_SECS`] window.
fn calibrate(f: &mut impl FnMut()) -> usize {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64();
    ((MIN_WINDOW_SECS / once.max(1e-9)).ceil() as usize).clamp(1, 10_000)
}

/// Best-of-`reps` wall time for one call of `f`, in seconds; each window
/// repeats `f` enough to fill [`MIN_WINDOW_SECS`], so one descheduling
/// blip cannot dominate a measurement.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let per = calibrate(&mut f);
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..per {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / per as f64);
    }
    best
}

fn build_model(scale: Scale) -> (Vec<mvgnn_dataset::LabeledSample>, MvGnn) {
    let cfg = pipeline_config(scale);
    eprintln!("[throughput] building corpus ({scale:?})…");
    let ds = build_corpus(&cfg.corpus);
    // Bench over the whole corpus (train + test): throughput is a property
    // of the kernels, not of the split, and the larger population keeps
    // most chunks at the full BATCH width.
    let pool: Vec<mvgnn_dataset::LabeledSample> =
        ds.train.iter().chain(ds.test.iter()).cloned().collect();
    let probe = &pool[0].sample;
    let model = if cfg.paper_scale {
        MvGnn::new(MvGnnConfig::paper(probe.node_dim, probe.aw_vocab))
    } else {
        MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab))
    };
    (pool, model)
}

/// Fused-head classes of one packed batch on a fresh workspace.
fn predict(model: &MvGnn, samples: &[&GraphSample]) -> Vec<usize> {
    model.forward_rows(&mut Workspace::new(), samples).predictions()
}

/// Per-pass featurisation-cache census. Reporting warm-up and steady
/// state separately matters: folding the all-miss cold pass into the
/// totals halves the apparent hit rate (a 9-hit/9-miss run reads as
/// 50%) when the steady-state rate — the number that predicts serving
/// cost — is 100%.
struct CachePass {
    hits: u64,
    misses: u64,
}

impl CachePass {
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Exercise the featurisation cache: classify one generated app twice
/// with a shared [`FeatureCache`] and return `(warmup, steady)` pass
/// censuses. Loops live in the per-kernel functions (the app entry is a
/// driver with none of its own), so each kernel is classified as its own
/// entry. The cold warm-up pass builds every loop's sample; the warm
/// steady-state pass must replay them all, and both passes' reports must
/// agree.
fn feature_cache_stats(scale: Scale) -> (CachePass, CachePass) {
    let cfg = pipeline_config(scale);
    let spec = mvgnn_dataset::TABLE2
        .iter()
        .filter(|s| s.suite == Suite::PolyBench)
        .min_by_key(|s| s.loops)
        .copied()
        .unwrap_or(TABLE2[0]);
    let app = generate_app(spec, 1);
    let mut kernels: Vec<_> = app.loops.iter().map(|(f, _, _)| *f).collect();
    kernels.sort_unstable_by_key(|f| f.index());
    kernels.dedup();
    let i2v = Inst2Vec::train(&[&app.module], &cfg.corpus.inst2vec);
    let sample_cfg = SampleConfig::default();
    let node_dim = i2v.dim()
        + mvgnn_embed::sample::KIND_DIM
        + mvgnn_embed::sample::EDGE_DIM
        + mvgnn_profiler::DynamicFeatures::DIM;
    let aw_vocab = mvgnn_graph::AwVocab::new(sample_cfg.walk_len).size();
    let model = MvGnn::new(MvGnnConfig::small(node_dim, aw_vocab));
    let mut cache = FeatureCache::new(1024);
    let classify_all = |cache: &mut FeatureCache| -> Vec<mvgnn_core::LoopReport> {
        kernels
            .iter()
            .flat_map(|&f| {
                Cascade::gnn_only().classify_module_cached(
                    &model, &app.module, f, &i2v, &sample_cfg, None, None, Some(cache),
                )
            })
            .collect()
    };
    let cold = classify_all(&mut cache);
    let after_cold = cache.stats();
    let warm = classify_all(&mut cache);
    let after_warm = cache.stats();
    assert!(!cold.is_empty(), "generated app produced no classifiable loops");
    assert_eq!(cold.len(), warm.len(), "cache replay changed the report set");
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(
            (a.prediction, a.source),
            (b.prediction, b.source),
            "cache replay changed a verdict"
        );
    }
    (
        CachePass { hits: after_cold.hits, misses: after_cold.misses },
        CachePass {
            hits: after_warm.hits - after_cold.hits,
            misses: after_warm.misses - after_cold.misses,
        },
    )
}

/// One-batch wiring check for CI: the engine must agree with the
/// sequential path on a single packed batch.
fn smoke() {
    let (pool, model) = build_model(Scale::Quick);
    let samples: Vec<&GraphSample> =
        pool.iter().take(BATCH).map(|s| &s.sample).collect();
    let sequential = predict(&model, &samples);
    let engine = InferenceEngine::new(
        Arc::new(model),
        EngineConfig { threads: 2, batch_size: BATCH },
    );
    let streamed = engine.forward_stream(&samples).predictions();
    assert_eq!(sequential, streamed, "engine smoke: stream diverged from sequential");
    println!("[throughput] smoke OK: engine matches sequential on {} loops", samples.len());
}

/// Allocation cost of one run of `f`, amortised over `loops`, in
/// allocations per loop. Only meaningful with `count-allocs`.
#[cfg(feature = "count-allocs")]
fn allocs_per_loop(loops: usize, f: impl FnOnce()) -> f64 {
    let before = mvgnn_bench::alloc_count::allocations();
    f();
    (mvgnn_bench::alloc_count::allocations() - before) as f64 / loops.max(1) as f64
}

/// CI gate for the zero-allocation steady state: after one warm-up
/// stream, a full engine pass must stay under [`ALLOC_BUDGET_PER_LOOP`]
/// heap allocations per loop.
#[cfg(feature = "count-allocs")]
fn alloc_smoke() {
    let (pool, model) = build_model(Scale::Quick);
    let samples: Vec<&GraphSample> = pool.iter().map(|s| &s.sample).collect();
    let engine = InferenceEngine::new(
        Arc::new(model),
        EngineConfig { threads: 1, batch_size: BATCH },
    );
    let warmup = engine.forward_stream(&samples);
    let mut steady = mvgnn_core::RowOutputs::default();
    let per_loop = allocs_per_loop(samples.len(), || {
        steady = engine.forward_stream(&samples);
    });
    assert_eq!(warmup, steady, "steady-state stream diverged from warm-up");
    println!(
        "[throughput] alloc smoke: {per_loop:.3} allocs/loop over {} loops (budget {ALLOC_BUDGET_PER_LOOP})",
        samples.len()
    );
    assert!(
        per_loop <= ALLOC_BUDGET_PER_LOOP,
        "steady-state allocations regressed: {per_loop:.3}/loop exceeds {ALLOC_BUDGET_PER_LOOP}"
    );
    println!("[throughput] alloc smoke OK");
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
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let scale = Scale::from_args();
    let (pool, model) = build_model(scale);
    let samples: Vec<&GraphSample> = pool.iter().map(|s| &s.sample).collect();
    let n = samples.len();
    eprintln!("[throughput] {n} loops, batch size {BATCH}");

    // Warm-up + parity assertion: every path must agree exactly.
    let single_preds: Vec<usize> = samples.iter().flat_map(|s| predict(&model, &[s])).collect();
    let batched_preds: Vec<usize> =
        samples.chunks(BATCH).flat_map(|c| predict(&model, c)).collect();
    assert_eq!(single_preds, batched_preds, "batched/per-sample predictions diverged");

    let reps = if scale == Scale::Quick { 5 } else { 7 };
    let t_single = best_secs(reps, || {
        for s in &samples {
            std::hint::black_box(predict(&model, &[s]));
        }
    });
    let t_batched = best_secs(reps, || {
        for chunk in samples.chunks(BATCH) {
            std::hint::black_box(predict(&model, chunk));
        }
    });

    // Featurisation cache: classify a generated app twice and report the
    // cold warm-up pass and the replayed steady-state pass separately.
    let (cache_warmup, cache_steady) = feature_cache_stats(scale);
    println!(
        "  feature cache: warm-up {}h/{}m, steady {}h/{}m ({:.0}% steady hit rate)",
        cache_warmup.hits,
        cache_warmup.misses,
        cache_steady.hits,
        cache_steady.misses,
        cache_steady.hit_rate() * 100.0
    );

    // Engine sweep: same batch size, varying worker counts. Forward-only
    // inference shares the weights through `Arc<MvGnn>`.
    let model = Arc::new(model);

    // Steady-state allocation census (only with `count-allocs`): the
    // per-sample baseline versus a warmed pooled engine.
    #[cfg(feature = "count-allocs")]
    let alloc_section = {
        let per_sample = allocs_per_loop(n, || {
            for s in &samples {
                std::hint::black_box(predict(&model, &[s]));
            }
        });
        let engine = InferenceEngine::new(
            Arc::clone(&model),
            EngineConfig { threads: 1, batch_size: BATCH },
        );
        std::hint::black_box(engine.forward_stream(&samples)); // warm the pools
        let steady = allocs_per_loop(n, || {
            std::hint::black_box(engine.forward_stream(&samples));
        });
        let reduction = per_sample / steady.max(1e-9);
        println!(
            "  allocations: per-sample {per_sample:.1}/loop, engine steady {steady:.3}/loop ({reduction:.0}x fewer)"
        );
        format!(
            ",\n  \"allocs_per_loop\": {{\n    \"per_sample\": {per_sample:.3},\n    \
             \"engine_steady\": {steady:.3},\n    \"reduction\": {reduction:.1}\n  }}"
        )
    };
    #[cfg(not(feature = "count-allocs"))]
    let alloc_section = String::new();

    let mut engine_lps: Vec<(usize, f64, usize)> = Vec::with_capacity(THREAD_SWEEP.len());
    for threads in THREAD_SWEEP {
        let engine = InferenceEngine::new(
            Arc::clone(&model),
            EngineConfig { threads, batch_size: BATCH },
        );
        assert_eq!(
            engine.forward_stream(&samples).predictions(),
            batched_preds,
            "engine predictions diverged at {threads} threads"
        );
        let t = best_secs(reps, || {
            std::hint::black_box(engine.forward_stream(&samples));
        });
        engine_lps.push((threads, n as f64 / t, engine.dispatch_chunk(n)));
    }

    let single_lps = n as f64 / t_single;
    let batched_lps = n as f64 / t_batched;
    let speedup = batched_lps / single_lps;
    println!("\nInference throughput ({n} loops, best of {reps}):");
    println!("  per-sample : {single_lps:>10.1} loops/sec  ({t_single:.3} s)");
    println!("  batched({BATCH:>2}): {batched_lps:>10.1} loops/sec  ({t_batched:.3} s)");
    println!("  speedup    : {speedup:.2}x");
    for (threads, lps, chunk) in &engine_lps {
        println!("  engine x{threads:<2}: {lps:>10.1} loops/sec  (chunk {chunk})");
    }
    let engine_best = engine_lps.iter().map(|(_, l, _)| *l).fold(0.0f64, f64::max);
    let engine_speedup = engine_best / single_lps;
    println!("  engine best: {engine_speedup:.2}x over per-sample");

    let threads_json: Vec<String> = engine_lps
        .iter()
        .map(|(t, lps, chunk)| {
            format!("    \"{t}\": {{ \"loops_per_sec\": {lps:.2}, \"chunk\": {chunk} }}")
        })
        .collect();
    let json = format!(
        "{{\n  \"loops\": {n},\n  \"batch_size\": {BATCH},\n  \"reps\": {reps},\n  \
         \"single_loops_per_sec\": {single_lps:.2},\n  \
         \"batched_loops_per_sec\": {batched_lps:.2},\n  \"speedup\": {speedup:.3},\n  \
         \"threads\": {{\n{}\n  }},\n  \"engine_speedup\": {engine_speedup:.3},\n  \
         \"feature_cache\": {{\n    \
         \"warmup\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3} }},\n    \
         \"steady\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3} }}\n  }}{alloc_section}\n}}\n",
        threads_json.join(",\n"),
        cache_warmup.hits,
        cache_warmup.misses,
        cache_warmup.hit_rate(),
        cache_steady.hits,
        cache_steady.misses,
        cache_steady.hit_rate(),
    );
    mvgnn_bench::or_die(std::fs::write("BENCH_throughput.json", json));
    eprintln!("[throughput] wrote BENCH_throughput.json");
}
