//! Heap-allocation budgets of the three steady-state hot paths, counted
//! by this binary's allocator after one warm-up pass:
//!
//! - **Light cascade call** (every loop decided by tier 0, so nothing is
//!   traced and no model runs): every kernel of `generate_suite(None, 3)`
//!   at all six optimisation levels through [`Cascade::full`] with an
//!   untrained model, at most [`LIGHT_CALL_BUDGET`] allocations per
//!   light call on average.
//! - **Heavy cascade call** (tier 0 off, so every call traces the entry,
//!   builds the module's CUs and PEG, featurises every loop and runs the
//!   model): every [`HEAVY_STRIDE`]-th kernel call of the same sweep
//!   through [`Cascade::gnn_only`], at most [`HEAVY_CALL_BUDGET`]
//!   allocations per call on average.
//! - **Serve worker loop**: one reused [`Workspace`] driving
//!   [`MvGnn::forward_rows`] over [`BATCH`]-sample chunks of the
//!   quick-scale corpus, at most [`WORKER_LOOP_BUDGET`] allocations per
//!   loop.
//!
//! Allocation counts are deterministic (debug and release agree), so
//! the budgets are exact gates; run with `--nocapture` to see the
//! counts.

use mvgnn_bench::{pipeline_config, Scale};
use mvgnn_core::{Cascade, DecidedBy, MvGnn, MvGnnConfig, RowOutputs, Workspace};
use mvgnn_dataset::{build_corpus, generate_suite};
use mvgnn_embed::{GraphSample, Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn_ir::module::{FuncId, Module};
use mvgnn_ir::transform::{optimize, OptLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `alloc` and `realloc` calls made by the current thread (tests run on
/// parallel threads; each counts only its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Ignored while the thread's locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations per light call. The 14.09 a call makes are mostly the
/// returned reports (the vector; per loop two `Arc`s, two copies of the
/// facts, the sections and the pragma) plus the per-function tables.
const LIGHT_CALL_BUDGET: f64 = 20.0;

/// Allocations per loop of the worker loop. The 0.680 it makes are
/// per-chunk bookkeeping (adjacency pointer list, SortPooling pair
/// lists, the row outputs); the budget is a backstop, not a target.
const WORKER_LOOP_BUDGET: f64 = 2.0;

/// Micro-batch width of the serve worker.
const BATCH: usize = 32;

/// Allocations per heavy call: 10,717.4 with static statement tokens,
/// 20,004.9 when the CU and PEG builds formatted a `String` per
/// statement. Most of the rest are the CU partition's members and maps,
/// the module's PEG with one token list per node, and each loop's
/// sub-PEG and sample.
const HEAVY_CALL_BUDGET: f64 = 11_000.0;

/// The heavy test classifies every `HEAVY_STRIDE`-th call of the sweep.
const HEAVY_STRIDE: usize = 40;

/// Every kernel function of `generate_suite(None, 3)` at all six levels,
/// with its optimised module.
fn suite_calls() -> Vec<(Module, Vec<FuncId>)> {
    let apps = generate_suite(None, 3);
    OptLevel::ALL
        .into_iter()
        .flat_map(|level| apps.iter().map(move |app| (app, level)))
        .map(|(app, level)| {
            let mut kernels: Vec<FuncId> = app.loops.iter().map(|&(f, _, _)| f).collect();
            kernels.sort_unstable_by_key(|f| f.index());
            kernels.dedup();
            (optimize(&app.module, level), kernels)
        })
        .collect()
}

/// A quickly trained inst2vec over `modules`, the default sampling
/// settings and an untrained model that fits both.
fn untrained_model(modules: &[&Module]) -> (Inst2Vec, SampleConfig, MvGnn) {
    let inst2vec = Inst2Vec::train(
        modules,
        &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 9 },
    );
    let sample_cfg = SampleConfig::default();
    let node_dim = inst2vec.dim()
        + mvgnn_embed::sample::KIND_DIM
        + mvgnn_embed::sample::EDGE_DIM
        + mvgnn_profiler::DynamicFeatures::DIM;
    let aw_vocab = mvgnn_graph::AwVocab::new(sample_cfg.walk_len).size();
    let model = MvGnn::new(MvGnnConfig::small(node_dim, aw_vocab));
    (inst2vec, sample_cfg, model)
}

#[test]
fn a_light_cascade_call_stays_within_its_allocation_budget() {
    let calls = suite_calls();
    let modules: Vec<&Module> = calls.iter().map(|(m, _)| m).collect();
    let (inst2vec, sample_cfg, model) = untrained_model(&modules);
    let cascade = Cascade::full();
    let classify = |m: &Module, f: FuncId| {
        cascade.classify_module(&model, m, f, &inst2vec, &sample_cfg, None, None)
    };

    // Warm-up pass over every call; it also sorts out the light calls.
    let (mut light, mut total) = (Vec::new(), 0usize);
    for (m, kernels) in &calls {
        for &f in kernels {
            total += 1;
            let reports = classify(m, f);
            if reports.iter().all(|r| r.decided_by == DecidedBy::Oracle) {
                light.push((m, f, reports.len()));
            }
        }
    }
    let allocs = allocations_in(|| {
        for &(m, f, loops) in &light {
            let reports = classify(m, f);
            assert_eq!(reports.len(), loops, "light call changed its loop count");
            drop(std::hint::black_box(reports));
        }
    });
    assert!(!light.is_empty(), "no call of the sweep was light");
    let per_call = allocs as f64 / light.len() as f64;
    println!(
        "{} of {total} calls light: {per_call:.2} allocations per light call \
         (budget {LIGHT_CALL_BUDGET})",
        light.len()
    );
    assert!(
        per_call <= LIGHT_CALL_BUDGET,
        "{per_call:.2} allocations per light call exceed the budget of {LIGHT_CALL_BUDGET}"
    );
}

#[test]
fn a_heavy_cascade_call_stays_within_its_allocation_budget() {
    let calls = suite_calls();
    let heavy: Vec<(&Module, FuncId)> = calls
        .iter()
        .flat_map(|(m, kernels)| kernels.iter().map(move |&f| (m, f)))
        .step_by(HEAVY_STRIDE)
        .collect();
    let mut modules: Vec<&Module> = heavy.iter().map(|&(m, _)| m).collect();
    modules.dedup_by_key(|m| *m as *const Module);
    let (inst2vec, sample_cfg, model) = untrained_model(&modules);
    let cascade = Cascade::gnn_only();
    let classify = |m: &Module, f: FuncId| {
        cascade.classify_module(&model, m, f, &inst2vec, &sample_cfg, None, None)
    };

    // Warm-up pass; it records each call's verdicts.
    let verdicts: Vec<Vec<(usize, DecidedBy)>> = heavy
        .iter()
        .map(|&(m, f)| classify(m, f).iter().map(|r| (r.prediction, r.decided_by)).collect())
        .collect();
    assert!(verdicts.iter().flatten().all(|&(_, by)| by == DecidedBy::Gnn));
    let allocs = allocations_in(|| {
        for (&(m, f), want) in heavy.iter().zip(&verdicts) {
            let reports = classify(m, f);
            let got = reports.iter().map(|r| (r.prediction, r.decided_by));
            assert!(got.eq(want.iter().copied()), "a heavy call changed its verdicts");
            drop(std::hint::black_box(reports));
        }
    });
    let loops: usize = verdicts.iter().map(Vec::len).sum();
    let per_call = allocs as f64 / heavy.len() as f64;
    println!(
        "{} heavy calls over {loops} loops: {per_call:.1} allocations per heavy call \
         (budget {HEAVY_CALL_BUDGET})",
        heavy.len()
    );
    assert!(
        per_call <= HEAVY_CALL_BUDGET,
        "{per_call:.1} allocations per heavy call exceed the budget of {HEAVY_CALL_BUDGET}"
    );
}

/// The serve worker's loop: every [`BATCH`]-sample chunk through
/// [`MvGnn::forward_rows`] on one reused workspace.
fn worker_pass(model: &MvGnn, ws: &mut Workspace, samples: &[&GraphSample]) -> RowOutputs {
    let mut rows = RowOutputs::default();
    for chunk in samples.chunks(BATCH) {
        rows.append(model.forward_rows(ws, chunk));
    }
    rows
}

#[test]
fn the_serve_worker_loop_stays_within_its_allocation_budget() {
    let ds = build_corpus(&pipeline_config(Scale::Quick).corpus);
    let samples: Vec<&GraphSample> =
        ds.train.iter().chain(&ds.test).map(|s| &s.sample).collect();
    let probe = samples[0];
    let model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    let mut ws = Workspace::new();
    let warmup = worker_pass(&model, &mut ws, &samples);
    let mut steady = RowOutputs::default();
    let allocs = allocations_in(|| steady = worker_pass(&model, &mut ws, &samples));
    assert_eq!(warmup, steady, "the steady-state pass diverged from the warm-up");
    let per_loop = allocs as f64 / samples.len() as f64;
    println!(
        "{per_loop:.3} allocations per loop over {} loops (budget {WORKER_LOOP_BUDGET})",
        samples.len()
    );
    assert!(
        per_loop <= WORKER_LOOP_BUDGET,
        "{per_loop:.3} allocations per loop exceed the budget of {WORKER_LOOP_BUDGET}"
    );
}
