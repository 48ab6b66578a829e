//! Test-only reference for the dependence profiler: the tracer as it was
//! before the dense-shadow rewrite, with its logic unchanged.
//!
//! It clones the loop stack at every access, keys shadow memory by
//! `(array, index)` in a `HashMap` and keeps a cell's readers in a
//! per-cell `HashMap`; [`crate::profiler::DependenceProfiler`] must
//! produce exactly its output (the parity sweep in `profiler.rs`).

use crate::deps::{DepGraph, DepKind};
use crate::profiler::{LoopRuntime, PartialProfile};
use mvgnn_ir::interp::{Interpreter, Tracer};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_ir::types::ArrayId;
use mvgnn_ir::InstRef;
use std::collections::HashMap;

/// One dynamic loop activation on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoopFrame {
    func: FuncId,
    l: LoopId,
    /// Distinguishes re-entries of the same static loop.
    epoch: u64,
    /// Current iteration within this activation (1-based).
    iter: u64,
}

/// Snapshot of the loop stack at an access.
type StackSnapshot = Vec<LoopFrame>;

#[derive(Debug, Default)]
struct CellState {
    last_write: Option<(InstRef, StackSnapshot)>,
    /// Readers since the last write, keyed by instruction (latest snapshot).
    reads: HashMap<InstRef, StackSnapshot>,
}

/// The reference tracer.
#[derive(Debug, Default)]
pub(crate) struct ReferenceProfiler {
    deps: DepGraph,
    shadow: HashMap<(ArrayId, i64), CellState>,
    stack: Vec<LoopFrame>,
    next_epoch: u64,
    loops: HashMap<(FuncId, LoopId), LoopRuntime>,
}

impl ReferenceProfiler {
    /// The tracer's output as a complete [`PartialProfile`].
    pub(crate) fn into_profile(self) -> PartialProfile {
        PartialProfile { deps: self.deps, loops: self.loops, ret: None, error: None }
    }

    /// Find the loop carrying a dependence between two stack snapshots:
    /// the outermost common activation whose iteration numbers differ.
    fn carrier(earlier: &StackSnapshot, later: &StackSnapshot) -> Option<(FuncId, LoopId)> {
        for (a, b) in earlier.iter().zip(later.iter()) {
            if a.func != b.func || a.l != b.l || a.epoch != b.epoch {
                return None;
            }
            if a.iter != b.iter {
                return Some((a.func, a.l));
            }
        }
        None
    }

    fn on_access(&mut self, r: InstRef, arr: ArrayId, idx: i64, is_write: bool) {
        let snap: StackSnapshot = self.stack.clone();
        let cell = self.shadow.entry((arr, idx)).or_default();
        if is_write {
            if let Some((w, wsnap)) = &cell.last_write {
                let carried = Self::carrier(wsnap, &snap);
                self.deps.record(*w, r, DepKind::Waw, carried);
            }
            for (rd, rsnap) in cell.reads.drain() {
                let carried = Self::carrier(&rsnap, &snap);
                self.deps.record(rd, r, DepKind::War, carried);
            }
            cell.last_write = Some((r, snap));
        } else {
            if let Some((w, wsnap)) = &cell.last_write {
                let carried = Self::carrier(wsnap, &snap);
                self.deps.record(*w, r, DepKind::Raw, carried);
            }
            cell.reads.insert(r, snap);
        }
    }
}

impl Tracer for ReferenceProfiler {
    fn on_inst(&mut self, _r: InstRef, _line: u32) {
        for f in &self.stack {
            self.loops.entry((f.func, f.l)).or_default().dyn_insts += 1;
        }
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
        self.loops.entry((func, l)).or_default().entries += 1;
    }

    fn on_loop_iter(&mut self, func: FuncId, l: LoopId) {
        if let Some(top) = self.stack.last_mut() {
            debug_assert_eq!((top.func, top.l), (func, l), "loop iter/stack mismatch");
            top.iter += 1;
        }
        self.loops.entry((func, l)).or_default().iterations += 1;
    }

    fn on_loop_exit(&mut self, func: FuncId, l: LoopId) {
        if let Some(top) = self.stack.pop() {
            debug_assert_eq!((top.func, top.l), (func, l), "loop exit/stack mismatch");
        }
    }
}

/// [`crate::profile_module_resilient`] under the reference tracer.
pub(crate) fn profile_reference(
    module: &Module,
    entry: FuncId,
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
    let mut prof = ReferenceProfiler::default();
    let (ret, error) = match interp.run(entry, &[], &mut prof) {
        Ok((ret, _stats)) => (ret, None),
        Err(e) => (None, Some(e)),
    };
    PartialProfile { ret, error, ..prof.into_profile() }
}
