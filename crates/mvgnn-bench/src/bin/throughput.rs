//! Inference-throughput benchmark: loops/sec for batched (packed
//! `GraphBatch`) versus per-sample execution of the same model on the
//! same loop population.
//!
//! Both paths are bit-identical (asserted here and property-tested in
//! `tests/batch_parity.rs`), so batching measures pure tape
//! amortisation. Emits `BENCH_throughput.json` next to the working
//! directory for trend tracking.
//!
//! `--alloc-smoke` (needs `--features count-allocs`) asserts the pooled
//! steady state of the serve worker's loop — one reused [`Workspace`]
//! driving [`MvGnn::forward_rows`] over `BATCH`-sample chunks: after a
//! warm-up pass, one full pass must stay under `ALLOC_BUDGET_PER_LOOP`
//! heap allocations per loop. The full run also reports allocs/loop for
//! the per-sample baseline versus that loop in `BENCH_throughput.json`.

use mvgnn_bench::{pipeline_config, Scale};
use mvgnn_core::{MvGnn, MvGnnConfig, Workspace};
use mvgnn_dataset::build_corpus;
use mvgnn_embed::GraphSample;
use std::time::Instant;

const BATCH: usize = 32;

/// Steady-state heap-allocation budget per classified loop for the
/// worker loop (after one warm-up pass). The remaining allocations are
/// per-*chunk* bookkeeping (adjacency pointer list, SortPooling pair
/// lists, the row outputs), so the real steady state sits around
/// 0.2–0.7 per loop; the budget is a backstop, not a target.
#[cfg(feature = "count-allocs")]
const ALLOC_BUDGET_PER_LOOP: f64 = 2.0;

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

/// The serve worker's loop: every `BATCH`-sample chunk through
/// [`MvGnn::forward_rows`] on one reused workspace.
#[cfg(feature = "count-allocs")]
fn worker_pass(
    model: &MvGnn,
    ws: &mut Workspace,
    samples: &[&GraphSample],
) -> mvgnn_core::RowOutputs {
    let mut rows = mvgnn_core::RowOutputs::default();
    for chunk in samples.chunks(BATCH) {
        rows.append(model.forward_rows(ws, chunk));
    }
    rows
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
/// pass, a full worker pass must stay under [`ALLOC_BUDGET_PER_LOOP`]
/// heap allocations per loop.
#[cfg(feature = "count-allocs")]
fn alloc_smoke() {
    let (pool, model) = build_model(Scale::Quick);
    let samples: Vec<&GraphSample> = pool.iter().map(|s| &s.sample).collect();
    let mut ws = Workspace::new();
    let warmup = worker_pass(&model, &mut ws, &samples);
    let mut steady = mvgnn_core::RowOutputs::default();
    let per_loop = allocs_per_loop(samples.len(), || {
        steady = worker_pass(&model, &mut ws, &samples);
    });
    assert_eq!(warmup, steady, "steady-state pass diverged from warm-up");
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
    let scale = Scale::from_args();
    let (pool, model) = build_model(scale);
    let samples: Vec<&GraphSample> = pool.iter().map(|s| &s.sample).collect();
    let n = samples.len();
    eprintln!("[throughput] {n} loops, batch size {BATCH}");

    // Warm-up + parity assertion: both paths must agree exactly.
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

    // Steady-state allocation census (only with `count-allocs`): the
    // per-sample baseline versus the warmed worker loop.
    #[cfg(feature = "count-allocs")]
    let alloc_section = {
        let per_sample = allocs_per_loop(n, || {
            for s in &samples {
                std::hint::black_box(predict(&model, &[s]));
            }
        });
        let mut ws = Workspace::new();
        std::hint::black_box(worker_pass(&model, &mut ws, &samples)); // warm the pool
        let steady = allocs_per_loop(n, || {
            std::hint::black_box(worker_pass(&model, &mut ws, &samples));
        });
        let reduction = per_sample / steady.max(1e-9);
        println!(
            "  allocations: per-sample {per_sample:.1}/loop, worker steady {steady:.3}/loop ({reduction:.0}x fewer)"
        );
        format!(
            ",\n  \"allocs_per_loop\": {{\n    \"per_sample\": {per_sample:.3},\n    \
             \"worker_steady\": {steady:.3},\n    \"reduction\": {reduction:.1}\n  }}"
        )
    };
    #[cfg(not(feature = "count-allocs"))]
    let alloc_section = String::new();

    let single_lps = n as f64 / t_single;
    let batched_lps = n as f64 / t_batched;
    let speedup = batched_lps / single_lps;
    println!("\nInference throughput ({n} loops, best of {reps}):");
    println!("  per-sample : {single_lps:>10.1} loops/sec  ({t_single:.3} s)");
    println!("  batched({BATCH:>2}): {batched_lps:>10.1} loops/sec  ({t_batched:.3} s)");
    println!("  speedup    : {speedup:.2}x");

    let json = format!(
        "{{\n  \"loops\": {n},\n  \"batch_size\": {BATCH},\n  \"reps\": {reps},\n  \
         \"single_loops_per_sec\": {single_lps:.2},\n  \
         \"batched_loops_per_sec\": {batched_lps:.2},\n  \"speedup\": {speedup:.3}{alloc_section}\n}}\n",
    );
    mvgnn_bench::or_die(std::fs::write("BENCH_throughput.json", json));
    eprintln!("[throughput] wrote BENCH_throughput.json");
}
