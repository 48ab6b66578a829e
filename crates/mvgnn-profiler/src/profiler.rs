//! The dependence profiler: a [`Tracer`] implementation with shadow memory
//! and loop-iteration vectors.
//!
//! Every memory cell tracks its last writer and the readers since that
//! write. On each access the profiler compares the *dynamic loop stack* of
//! the two endpoints: the outermost common loop entry whose iteration
//! number differs is the loop that **carries** the dependence; if all
//! common iterations match, the dependence is loop-independent.
//!
//! # Data layout
//!
//! The tracer runs for every executed instruction and every memory
//! access, so its state is laid out to allocate nothing in steady state
//! and to hash only when it records a dependence:
//!
//! - **Shadow memory** is one dense `Vec` of cells per array, indexed by
//!   element (the interpreter bounds-checks every index before it
//!   reports an access). An array's first access reserves room for all
//!   of its elements, so the shadow never reallocates; only cells up to
//!   the highest index touched are initialised.
//! - A **cell** holds its last writer with the loop stack at that write,
//!   and the readers since that write: a small `Vec` in first-read order
//!   in which each reader instruction keeps only its latest stack. Stack
//!   snapshots are copied into buffers the cell reuses, so an access
//!   allocates only while a cell's buffers first grow.
//! - **Per-loop counters** sit in slots assigned when a loop is first
//!   seen and found through a dense `[function][loop]` table. `dyn_insts` is
//!   charged from an instruction counter when an activation ends;
//!   activations a truncated run leaves open (step or call-depth limit,
//!   fault) are charged in [`DependenceProfiler::into_parts`].
//! - Each recorded dependence costs one lookup in [`DepGraph`]'s edge
//!   index (0.29 lookups per access over the benchmark's set-up
//!   corpus).

use crate::deps::{DepGraph, DepKind};
use mvgnn_ir::interp::{ExecStats, InterpError, Interpreter, Tracer};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_ir::types::{ArrayId, Value};
use mvgnn_ir::InstRef;
use std::collections::HashMap;

/// One dynamic loop activation on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoopFrame {
    func: FuncId,
    l: LoopId,
    /// Distinguishes activations: unique per loop entry, so two frames
    /// with the same epoch are the same activation of the same loop.
    epoch: u64,
    /// Current iteration within this activation (1-based).
    iter: u64,
}

/// Bookkeeping of one open activation, parallel to the loop stack.
#[derive(Debug, Clone, Copy)]
struct OpenLoop {
    /// Counter slot of the loop.
    slot: u32,
    /// Instructions executed before the activation began.
    start: u64,
}

/// Per-loop runtime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopRuntime {
    /// Times control entered the loop from outside.
    pub entries: u64,
    /// Total iterations across all entries (`exec_times` in Table I).
    pub iterations: u64,
    /// Dynamic instructions executed while the loop was active.
    pub dyn_insts: u64,
}

/// A read since the cell's last write.
#[derive(Debug)]
struct Reader {
    inst: InstRef,
    /// Loop stack at this instruction's latest read of the cell.
    stack: Vec<LoopFrame>,
}

/// Shadow state of one memory cell.
#[derive(Debug, Default)]
struct Cell {
    /// Last writer, `None` before the first store.
    writer: Option<InstRef>,
    /// Loop stack at the last store.
    writer_stack: Vec<LoopFrame>,
    /// `readers[..live]` are the reads since the last store, one per
    /// instruction in first-read order; entries past `live` are spare
    /// buffers kept for reuse.
    readers: Vec<Reader>,
    live: usize,
}

/// Tracer that reconstructs the dynamic dependence graph.
///
/// Access indices must lie inside their array, as the interpreter checks
/// before it reports an access; a negative index is ignored.
#[derive(Debug)]
pub struct DependenceProfiler {
    deps: DepGraph,
    /// `shadow[array][index]`, initialised up to the highest index
    /// touched.
    shadow: Vec<Vec<Cell>>,
    /// Element count of each array of the profiled module.
    lens: Vec<usize>,
    /// The dynamic loop stack, innermost last.
    stack: Vec<LoopFrame>,
    /// Slot and start of each `stack` entry.
    open: Vec<OpenLoop>,
    next_epoch: u64,
    /// Instructions executed so far.
    insts: u64,
    /// `slot_of[func][loop]`: a loop's counter slot, `u32::MAX` before
    /// its first entry.
    slot_of: Vec<Vec<u32>>,
    /// Per-loop counters, in slot order.
    slots: Vec<((FuncId, LoopId), LoopRuntime)>,
}

impl DependenceProfiler {
    /// Fresh profiler for executions of `module`.
    pub fn new(module: &Module) -> Self {
        Self {
            deps: DepGraph::new(),
            shadow: module.arrays.iter().map(|_| Vec::new()).collect(),
            lens: module.arrays.iter().map(|a| a.len).collect(),
            stack: Vec::new(),
            open: Vec::new(),
            next_epoch: 0,
            insts: 0,
            slot_of: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The aggregated dependence graph.
    pub fn deps(&self) -> &DepGraph {
        &self.deps
    }

    /// Consume the profiler into its parts: the dependence graph and the
    /// per-loop counters. Activations still open (a run cut short by a
    /// step or call-depth limit or a fault) are charged every instruction
    /// executed since they began, as if they ended with the run.
    pub fn into_parts(mut self) -> (DepGraph, HashMap<(FuncId, LoopId), LoopRuntime>) {
        while let Some(open) = self.open.pop() {
            self.slots[open.slot as usize].1.dyn_insts += self.insts - open.start;
        }
        (self.deps, self.slots.into_iter().collect())
    }

    /// Find the loop carrying a dependence between two stack snapshots:
    /// the outermost common activation whose iteration numbers differ.
    /// Different activations diverge from there on, and that divergence
    /// is accounted to an enclosing iteration already compared or to
    /// straight-line re-execution (calls): not loop-carried here.
    fn carrier(earlier: &[LoopFrame], later: &[LoopFrame]) -> Option<(FuncId, LoopId)> {
        for (a, b) in earlier.iter().zip(later) {
            if a.epoch != b.epoch {
                return None;
            }
            if a.iter != b.iter {
                return Some((a.func, a.l));
            }
        }
        None
    }

    /// The counter slot of a loop, assigned at its first event.
    fn slot(&mut self, func: FuncId, l: LoopId) -> u32 {
        if func.index() >= self.slot_of.len() {
            self.slot_of.resize_with(func.index() + 1, Vec::new);
        }
        let row = &mut self.slot_of[func.index()];
        if l.index() >= row.len() {
            row.resize(l.index() + 1, u32::MAX);
        }
        if row[l.index()] == u32::MAX {
            row[l.index()] = self.slots.len() as u32;
            self.slots.push(((func, l), LoopRuntime::default()));
        }
        row[l.index()]
    }

    fn on_access(&mut self, r: InstRef, arr: ArrayId, idx: i64, is_write: bool) {
        let Ok(i) = usize::try_from(idx) else { return };
        let Self { deps, shadow, lens, stack, .. } = self;
        if arr.index() >= shadow.len() {
            shadow.resize_with(arr.index() + 1, Vec::new);
        }
        let cells = &mut shadow[arr.index()];
        if i >= cells.len() {
            // Room for the whole array at its first access, so the
            // largest shadows are never copied as they grow.
            let len = lens.get(arr.index()).copied().unwrap_or(0).max(i + 1);
            cells.reserve_exact(len - cells.len());
            cells.resize_with(i + 1, Cell::default);
        }
        let cell = &mut cells[i];
        if let Some(w) = cell.writer {
            // RAW on a read, WAW on a write, against the last writer.
            let kind = if is_write { DepKind::Waw } else { DepKind::Raw };
            deps.record(w, r, kind, Self::carrier(&cell.writer_stack, stack));
        }
        if is_write {
            // WAR against every read since the previous write.
            for rd in &cell.readers[..cell.live] {
                deps.record(rd.inst, r, DepKind::War, Self::carrier(&rd.stack, stack));
            }
            cell.live = 0;
            cell.writer = Some(r);
            cell.writer_stack.clear();
            cell.writer_stack.extend_from_slice(stack);
            return;
        }
        // Remember the read: a new reader takes the next spare entry, a
        // repeated one replaces its stack.
        let live = cell.live;
        let pos = cell.readers[..live].iter().position(|rd| rd.inst == r).unwrap_or(live);
        if pos == live {
            if live == cell.readers.len() {
                cell.readers.push(Reader { inst: r, stack: Vec::new() });
            }
            cell.live += 1;
        }
        let rd = &mut cell.readers[pos];
        rd.inst = r;
        rd.stack.clear();
        rd.stack.extend_from_slice(stack);
    }
}

impl Tracer for DependenceProfiler {
    fn on_inst(&mut self, _r: InstRef, _line: u32) {
        self.insts += 1;
    }

    fn on_load(&mut self, r: InstRef, arr: ArrayId, idx: i64) {
        self.on_access(r, arr, idx, false);
    }

    fn on_store(&mut self, r: InstRef, arr: ArrayId, idx: i64) {
        self.on_access(r, arr, idx, true);
    }

    fn on_loop_enter(&mut self, func: FuncId, l: LoopId) {
        self.next_epoch += 1;
        self.stack.push(LoopFrame { func, l, epoch: self.next_epoch, iter: 0 });
        let slot = self.slot(func, l);
        self.open.push(OpenLoop { slot, start: self.insts });
        self.slots[slot as usize].1.entries += 1;
    }

    fn on_loop_iter(&mut self, func: FuncId, l: LoopId) {
        // A malformed event stream (iter with no enclosing enter) is
        // tolerated: the iteration is still counted, only the carried-dep
        // attribution for it is lost. Aborting here would take the whole
        // profiling run down with it.
        if let Some(top) = self.stack.last_mut() {
            debug_assert_eq!((top.func, top.l), (func, l), "loop iter/stack mismatch");
            top.iter += 1;
        }
        let slot = self.slot(func, l);
        self.slots[slot as usize].1.iterations += 1;
    }

    fn on_loop_exit(&mut self, func: FuncId, l: LoopId) {
        // Tolerate an unmatched exit for the same reason as on_loop_iter.
        if let (Some(top), Some(open)) = (self.stack.pop(), self.open.pop()) {
            debug_assert_eq!((top.func, top.l), (func, l), "loop exit/stack mismatch");
            self.slots[open.slot as usize].1.dyn_insts += self.insts - open.start;
        }
    }
}

/// Everything one profiled execution produces.
#[derive(Debug)]
pub struct ProfileResult {
    /// Dynamic dependence graph.
    pub deps: DepGraph,
    /// Per-loop runtime counters.
    pub loops: HashMap<(FuncId, LoopId), LoopRuntime>,
    /// Interpreter statistics.
    pub stats: ExecStats,
    /// Entry function's return value.
    pub ret: Option<Value>,
}

/// Profile `entry(args)` against fresh zeroed memory.
pub fn profile_module(
    module: &Module,
    entry: FuncId,
    args: &[Value],
) -> Result<ProfileResult, InterpError> {
    let mut prof = DependenceProfiler::new(module);
    let (ret, stats) = Interpreter::new(module).run(entry, args, &mut prof)?;
    let (deps, loops) = prof.into_parts();
    Ok(ProfileResult { deps, loops, stats, ret })
}

/// What a resilient profiling run salvaged: the dependence state observed
/// up to the point the execution stopped, plus the error (if any) that
/// cut it short.
#[derive(Debug)]
pub struct PartialProfile {
    /// Dependences observed before the stop (complete iff `error` is None).
    pub deps: DepGraph,
    /// Per-loop runtime counters observed before the stop.
    pub loops: std::collections::HashMap<(FuncId, LoopId), LoopRuntime>,
    /// Entry return value (None when the run was cut short).
    pub ret: Option<Value>,
    /// The fault that truncated the trace, if the run did not finish.
    pub error: Option<InterpError>,
}

/// Profile with explicit interpreter budgets, keeping whatever dependence
/// state was collected when the execution faults (step limit, call-depth
/// limit, out-of-bounds, …) instead of discarding it. A truncated trace
/// still yields the dependences and loop counters of the executed prefix,
/// which downstream consumers can treat as a degraded (single-view or
/// conservative) signal.
pub fn profile_module_resilient(
    module: &Module,
    entry: FuncId,
    args: &[Value],
    max_steps: Option<u64>,
    max_call_depth: Option<u32>,
) -> PartialProfile {
    let mut interp = Interpreter::new(module);
    if let Some(n) = max_steps {
        interp = interp.with_max_steps(n);
    }
    if let Some(n) = max_call_depth {
        interp = interp.with_max_call_depth(n);
    }
    let mut mem = interp.fresh_memory();
    let mut prof = DependenceProfiler::new(module);
    let (ret, error) = match interp.run_with_memory(entry, args, &mut mem, &mut prof) {
        Ok((ret, _stats)) => (ret, None),
        Err(e) => (None, Some(e)),
    };
    let (deps, loops) = prof.into_parts();
    PartialProfile { deps, loops, ret, error }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::FunctionBuilder;

    /// `for i in 0..n: b[i] = a[i] * a[i]` — DOALL, no carried deps.
    fn doall_module(n: i64) -> (Module, FuncId, LoopId) {
        let mut m = Module::new("doall");
        let a = m.add_array("a", Ty::F64, n as usize);
        let barr = m.add_array("b", Ty::F64, n as usize);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(n);
        let step = b.const_i64(1);
        let l = b.for_loop(lo, hi, step, |b, iv| {
            let x = b.load(a, iv);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(barr, iv, y);
        });
        let f = b.finish();
        (m, f, l)
    }

    /// `for i in 1..n: a[i] = a[i-1] + 1` — carried RAW.
    fn carried_module(n: i64) -> (Module, FuncId, LoopId) {
        let mut m = Module::new("carried");
        let a = m.add_array("a", Ty::I64, n as usize);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(1);
        let hi = b.const_i64(n);
        let step = b.const_i64(1);
        let one = b.const_i64(1);
        let l = b.for_loop(lo, hi, step, |b, iv| {
            let prev = b.bin(BinOp::Sub, iv, one);
            let x = b.load(a, prev);
            let y = b.bin(BinOp::Add, x, one);
            b.store(a, iv, y);
        });
        let f = b.finish();
        (m, f, l)
    }

    #[test]
    fn doall_has_no_carried_deps() {
        let (m, f, l) = doall_module(16);
        let res = profile_module(&m, f, &[]).unwrap();
        assert!(res.deps.carried_by(f, l).is_empty(), "{:#?}", res.deps.iter().collect::<Vec<_>>());
        // Loop ran 16 iterations.
        assert_eq!(res.loops[&(f, l)].iterations, 16);
        assert_eq!(res.loops[&(f, l)].entries, 1);
        assert!(res.loops[&(f, l)].dyn_insts > 16 * 3);
    }

    #[test]
    fn recurrence_has_carried_raw() {
        let (m, f, l) = carried_module(16);
        let res = profile_module(&m, f, &[]).unwrap();
        let carried = res.deps.carried_by(f, l);
        assert!(
            carried.iter().any(|d| d.kind == DepKind::Raw),
            "expected carried RAW, got {carried:#?}"
        );
    }

    #[test]
    fn same_iteration_deps_are_loop_independent() {
        // b[i] = a[i]; c[i] = b[i] — RAW within one iteration.
        let mut m = Module::new("indep");
        let a = m.add_array("a", Ty::F64, 8);
        let barr = m.add_array("b", Ty::F64, 8);
        let carr = m.add_array("c", Ty::F64, 8);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(8);
        let step = b.const_i64(1);
        let l = b.for_loop(lo, hi, step, |b, iv| {
            let x = b.load(a, iv);
            b.store(barr, iv, x);
            let y = b.load(barr, iv);
            b.store(carr, iv, y);
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        assert!(res.deps.carried_by(f, l).is_empty());
        let raw: Vec<_> = res.deps.iter().filter(|d| d.kind == DepKind::Raw).collect();
        assert!(!raw.is_empty());
        assert!(raw.iter().all(|d| d.loop_independent));
    }

    #[test]
    fn memory_reduction_has_carried_raw_and_waw() {
        // s[0] += a[i] — classic memory-cell reduction.
        let mut m = Module::new("red");
        let a = m.add_array("a", Ty::F64, 8);
        let s = m.add_array("s", Ty::F64, 1);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(8);
        let step = b.const_i64(1);
        let zero = b.const_i64(0);
        let l = b.for_loop(lo, hi, step, |b, iv| {
            let x = b.load(a, iv);
            let cur = b.load(s, zero);
            let nxt = b.bin(BinOp::Add, cur, x);
            b.store(s, zero, nxt);
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let carried = res.deps.carried_by(f, l);
        let kinds: std::collections::BTreeSet<DepKind> =
            carried.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DepKind::Raw), "{kinds:?}");
        assert!(kinds.contains(&DepKind::Waw), "{kinds:?}");
        // The WAR (read at iteration k, write at iteration k) is within
        // one iteration, hence loop-independent — not carried.
        assert!(!kinds.contains(&DepKind::War), "{kinds:?}");
        let war: Vec<_> = res.deps.iter().filter(|d| d.kind == DepKind::War).collect();
        assert!(!war.is_empty() && war.iter().all(|d| d.loop_independent));
    }

    #[test]
    fn inner_carried_dep_does_not_block_outer_loop() {
        // for i { s = 0 (in mem); for j { s += a[i*w+j] }; b[i] = s }
        // The j-loop carries the reduction; the i-loop carries nothing...
        // except the WAR/WAW on the scratch cell between i-iterations.
        // Using a per-i scratch cell indexed by i keeps i clean.
        let w = 4i64;
        let n = 4i64;
        let mut m = Module::new("nested");
        let a = m.add_array("a", Ty::F64, (n * w) as usize);
        let scratch = m.add_array("s", Ty::F64, n as usize);
        let out = m.add_array("b", Ty::F64, n as usize);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hin = b.const_i64(n);
        let hiw = b.const_i64(w);
        let step = b.const_i64(1);
        let wreg = b.const_i64(w);
        let mut inner = None;
        let outer = b.for_loop(lo, hin, step, |b, i| {
            let zero = b.const_f64(0.0);
            b.store(scratch, i, zero);
            let lo2 = b.const_i64(0);
            inner = Some(b.for_loop(lo2, hiw, step, |b, j| {
                let base = b.bin(BinOp::Mul, i, wreg);
                let ij = b.bin(BinOp::Add, base, j);
                let x = b.load(a, ij);
                let cur = b.load(scratch, i);
                let nxt = b.bin(BinOp::Add, cur, x);
                b.store(scratch, i, nxt);
            }));
            let v = b.load(scratch, i);
            b.store(out, i, v);
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let inner = inner.unwrap();
        assert!(!res.deps.carried_by(f, inner).is_empty(), "inner reduction must be carried");
        assert!(
            res.deps.carried_by(f, outer).is_empty(),
            "outer loop must stay clean: {:#?}",
            res.deps.carried_by(f, outer)
        );
    }

    #[test]
    fn loop_runtime_counts_nested() {
        let (m0, _, _) = doall_module(4);
        let _ = m0;
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(3);
        let step = b.const_i64(1);
        let mut inner = None;
        let outer = b.for_loop(lo, hi, step, |b, _| {
            let lo2 = b.const_i64(0);
            let hi2 = b.const_i64(5);
            inner = Some(b.for_loop(lo2, hi2, step, |_b, _| {}));
        });
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        assert_eq!(res.loops[&(f, outer)].iterations, 3);
        assert_eq!(res.loops[&(f, inner.unwrap())].entries, 3);
        assert_eq!(res.loops[&(f, inner.unwrap())].iterations, 15);
    }

    #[test]
    fn resilient_profiling_salvages_a_truncated_trace() {
        let (m, f, l) = doall_module(64);
        // A starved step budget cuts the loop off mid-flight…
        let partial = profile_module_resilient(&m, f, &[], Some(30), None);
        assert!(matches!(partial.error, Some(InterpError::StepLimit(_))), "{:?}", partial.error);
        assert!(partial.error.is_some());
        // …but the executed prefix is still there.
        let rt = partial.loops.get(&(f, l)).copied().unwrap_or_default();
        assert!(rt.entries >= 1, "loop entry must survive truncation");
        assert!(rt.iterations >= 1 && rt.iterations < 64, "{rt:?}");
        // An adequate budget reports a complete run.
        let full = profile_module_resilient(&m, f, &[], None, None);
        assert!(full.error.is_none());
        assert_eq!(full.loops[&(f, l)].iterations, 64);
    }

    #[test]
    fn deps_across_function_calls_are_tracked() {
        // main stores, callee loads the same cell -> RAW across call.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::I64, 2);
        let reader = {
            let mut b = FunctionBuilder::new(&mut m, "reader", 0);
            let z = b.const_i64(0);
            let v = b.load(a, z);
            b.ret(Some(v));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let z = b.const_i64(0);
        let x = b.const_i64(42);
        b.store(a, z, x);
        let v = b.call(reader, &[]);
        b.ret(Some(v));
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        assert_eq!(res.ret, Some(Value::I64(42)));
        let raws: Vec<_> = res.deps.iter().filter(|d| d.kind == DepKind::Raw).collect();
        assert_eq!(raws.len(), 1);
        assert_eq!(raws[0].src.func, f);
        assert_eq!(raws[0].dst.func, reader);
    }

    /// Asserts that a run under [`DependenceProfiler`] matches the same
    /// run under the reference tracer in every output field: each edge
    /// in `iter()` order with its count, carriers and loop-independence,
    /// every loop's counters, the return value and the fault.
    fn assert_matches_reference(got: &PartialProfile, want: &PartialProfile, what: &str) {
        assert_eq!(got.deps.len(), want.deps.len(), "{what}: edge count");
        for (g, w) in got.deps.iter().zip(want.deps.iter()) {
            assert_eq!(g, w, "{what}: edge");
            assert_eq!(got.deps.get(w.src, w.dst, w.kind), Some(w), "{what}: lookup");
        }
        assert_eq!(got.loops, want.loops, "{what}: loop counters");
        assert_eq!(got.ret, want.ret, "{what}: return value");
        assert_eq!(got.error, want.error, "{what}: fault");
    }

    /// Profile `entry` under both tracers with the given budgets.
    fn compare(m: &Module, entry: FuncId, steps: Option<u64>, depth: Option<u32>) -> bool {
        let got = profile_module_resilient(m, entry, &[], steps, depth);
        let want = crate::reference::profile_reference(m, entry, steps, depth);
        let what = format!("{} f{} steps {steps:?} depth {depth:?}", m.name, entry.0);
        assert_matches_reference(&got, &want, &what);
        got.error.is_none()
    }

    #[test]
    fn dense_tracer_matches_the_reference_on_generated_suites() {
        use mvgnn_dataset::{generate_suite, Suite};
        use mvgnn_ir::transform::{optimize, OptLevel};
        let (mut complete, mut step_cut, mut depth_cut) = (0, 0, 0);
        for (suite, seed) in [(None, 3), (Some(Suite::Stress), 1)] {
            for level in OptLevel::ALL {
                for app in generate_suite(suite, seed) {
                    let m = optimize(&app.module, level);
                    // Every kernel entry (the per-call path), then the
                    // app's entry, which calls them all (the corpus path).
                    let mut entries: Vec<FuncId> = app.loops.iter().map(|&(f, _, _)| f).collect();
                    entries.sort_unstable();
                    entries.dedup();
                    entries.push(app.entry);
                    for &entry in &entries {
                        complete += usize::from(compare(&m, entry, None, None));
                        for steps in [37, 1_000] {
                            step_cut += usize::from(!compare(&m, entry, Some(steps), None));
                        }
                    }
                    if app.spec.suite == Suite::Bots {
                        // Kernels run at depth 1 and the recursive fib
                        // tasks below them, so depth 3 cuts the task loop
                        // mid-flight.
                        for &entry in &entries {
                            depth_cut += usize::from(!compare(&m, entry, None, Some(3)));
                        }
                    }
                }
            }
        }
        assert!(complete > 1_000, "complete runs: {complete}");
        assert!(step_cut > 1_000, "step-limited runs: {step_cut}");
        assert!(depth_cut > 0, "no run was cut by the call-depth limit");
    }

    #[test]
    fn dense_tracer_matches_the_reference_on_recursive_loops() {
        // `rec(k)`: for i in 0..3 { a[i] += 1; if k > 0 { rec(k - 1) } }
        // puts the same static loop on the stack once per recursion level,
        // so each instruction is charged to several open activations and
        // one cell sees accesses from many activations of one loop.
        let mut m = Module::new("rec");
        let a = m.add_array("a", Ty::I64, 4);
        let rec = FuncId(0);
        let mut b = FunctionBuilder::new(&mut m, "rec", 1);
        let k = b.param(0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(3);
        let step = b.const_i64(1);
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        b.for_loop(lo, hi, step, |b, i| {
            let x = b.load(a, i);
            let y = b.bin(BinOp::Add, x, one);
            b.store(a, i, y);
            let c = b.bin(BinOp::CmpLt, zero, k);
            b.if_else(
                c,
                |b| {
                    let k1 = b.bin(BinOp::Sub, k, one);
                    b.call(rec, &[k1]);
                },
                |_| {},
            );
        });
        b.ret(None);
        assert_eq!(b.finish(), rec);
        let mut main = FunctionBuilder::new(&mut m, "main", 0);
        let depth = main.const_i64(4);
        main.call(rec, &[depth]);
        main.ret(None);
        let entry = main.finish();
        assert!(compare(&m, entry, None, None));
        for steps in [1, 20, 37, 150, 1_000] {
            assert!(!compare(&m, entry, Some(steps), None), "steps {steps}");
        }
        for depth in [1, 2, 4] {
            assert!(!compare(&m, entry, None, Some(depth)), "depth {depth}");
        }
    }

    #[test]
    fn dense_tracer_matches_the_reference_on_raw_event_streams() {
        // Seeded event streams straight into both tracers, including what
        // the interpreter never sends: iterations and exits with no open
        // loop, re-entries of an open loop, streams that stop with loops
        // still open, and accesses past an array's end or to an array
        // the module does not have.
        use crate::reference::ReferenceProfiler;
        use mvgnn_ir::module::BlockId;
        let mut m = Module::new("events");
        for name in ["a", "b", "c"] {
            m.add_array(name, Ty::I64, 4);
        }
        let mut z = 0x2545_f491_4f6c_dd1du64;
        let mut next = |m: u64| {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z % m
        };
        for stream in 0..200 {
            let mut got = DependenceProfiler::new(&m);
            let mut want = ReferenceProfiler::default();
            let mut open: Vec<(FuncId, LoopId)> = Vec::new();
            for _ in 0..400 {
                let func = FuncId(next(3) as u32);
                let r = InstRef { func, block: BlockId(0), idx: next(6) as u32 };
                let (arr, idx) = (ArrayId(next(4) as u32), next(5) as i64);
                let lp = (FuncId(next(2) as u32), LoopId(next(3) as u32));
                // Iterate or exit the open loop when there is one.
                let top = open.last().copied().unwrap_or(lp);
                match next(10) {
                    0 => {
                        open.push(lp);
                        got.on_loop_enter(lp.0, lp.1);
                        want.on_loop_enter(lp.0, lp.1);
                    }
                    1 | 2 => {
                        got.on_loop_iter(top.0, top.1);
                        want.on_loop_iter(top.0, top.1);
                    }
                    3 => {
                        open.pop();
                        got.on_loop_exit(top.0, top.1);
                        want.on_loop_exit(top.0, top.1);
                    }
                    4 | 5 => {
                        got.on_load(r, arr, idx);
                        want.on_load(r, arr, idx);
                    }
                    6 => {
                        got.on_store(r, arr, idx);
                        want.on_store(r, arr, idx);
                    }
                    _ => {
                        got.on_inst(r, 0);
                        want.on_inst(r, 0);
                    }
                }
            }
            let (deps, loops) = got.into_parts();
            let got = PartialProfile { deps, loops, ret: None, error: None };
            let want = want.into_profile();
            assert_matches_reference(&got, &want, &format!("stream {stream}"));
        }
    }
}
