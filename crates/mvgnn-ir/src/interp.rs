//! Tracing interpreter — the "instrumented execution" half of the
//! DiscoPoP-equivalent profiler.
//!
//! Every executed instruction, memory access, loop-iteration boundary and
//! call is reported to a [`Tracer`]. The dependence profiler in
//! `mvgnn-profiler` implements `Tracer` to reconstruct the dynamic data
//! dependence graph; [`NoTracer`] runs at full speed for plain evaluation.

use crate::inst::{BinOp, Inst, InstRef, UnOp};
use crate::module::{BlockId, FuncId, LoopId, Module};
use crate::types::{ArrayId, Value};

/// Instrumentation hook. All methods default to no-ops so tracers override
/// only what they need.
pub trait Tracer {
    /// Called before each instruction executes.
    fn on_inst(&mut self, _r: InstRef, _line: u32) {}
    /// A load of `arr[idx]` at instruction `r`.
    fn on_load(&mut self, _r: InstRef, _arr: ArrayId, _idx: i64) {}
    /// A store to `arr[idx]` at instruction `r`.
    fn on_store(&mut self, _r: InstRef, _arr: ArrayId, _idx: i64) {}
    /// Control entered loop `l` of function `func` (from outside).
    fn on_loop_enter(&mut self, _func: FuncId, _l: LoopId) {}
    /// A new iteration of loop `l` began (header test passed).
    fn on_loop_iter(&mut self, _func: FuncId, _l: LoopId) {}
    /// Control left loop `l` (header test failed).
    fn on_loop_exit(&mut self, _func: FuncId, _l: LoopId) {}
    /// A call from instruction `r` to `callee` is about to run.
    fn on_call(&mut self, _r: InstRef, _callee: FuncId) {}
    /// Function `func` returned.
    fn on_ret(&mut self, _func: FuncId) {}
}

/// Tracer that records nothing.
pub struct NoTracer;

impl Tracer for NoTracer {}

/// Aggregate execution statistics, always collected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub steps: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Calls executed.
    pub calls: u64,
    /// Maximum call depth reached.
    pub max_depth: u32,
}

/// Run-time failure.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Integer division or remainder by zero.
    DivByZero(InstRef),
    /// Array access out of bounds.
    OutOfBounds {
        /// Faulting instruction.
        at: InstRef,
        /// Array accessed.
        arr: ArrayId,
        /// Index used.
        idx: i64,
        /// Array length.
        len: usize,
    },
    /// Operand types did not match the opcode.
    TypeError(InstRef, &'static str),
    /// The step budget was exhausted (runaway loop guard).
    StepLimit(u64),
    /// The call depth budget was exhausted (runaway recursion guard).
    DepthLimit(u32),
    /// Call target does not exist (unverified module).
    BadFunction(FuncId),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::DivByZero(r) => write!(f, "division by zero at {r}"),
            InterpError::OutOfBounds { at, arr, idx, len } => {
                write!(f, "out-of-bounds access {arr}[{idx}] (len {len}) at {at}")
            }
            InterpError::TypeError(r, msg) => write!(f, "type error at {r}: {msg}"),
            InterpError::StepLimit(n) => write!(f, "step limit {n} exhausted"),
            InterpError::DepthLimit(n) => write!(f, "call depth limit {n} exhausted"),
            InterpError::BadFunction(id) => write!(f, "call to missing function f{}", id.0),
        }
    }
}

impl std::error::Error for InterpError {}

/// The interpreter. Cheap to construct; holds only configuration and a
/// reference to the module.
pub struct Interpreter<'m> {
    module: &'m Module,
    max_steps: u64,
    max_call_depth: u32,
}

impl<'m> Interpreter<'m> {
    /// Create with default budgets (16M steps, depth 512).
    pub fn new(module: &'m Module) -> Self {
        Self { module, max_steps: 16_000_000, max_call_depth: 512 }
    }

    /// Override the step budget.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Override the call depth budget.
    pub fn with_max_call_depth(mut self, n: u32) -> Self {
        self.max_call_depth = n;
        self
    }

    /// Zeroed memory for every array in the module, allocated on first
    /// touch: each array starts without storage, reads as zero, and gets
    /// its zeroed storage on its first store (see
    /// [`Interpreter::run_with_memory`]).
    pub fn fresh_memory(&self) -> Vec<Vec<Value>> {
        vec![Vec::new(); self.module.arrays.len()]
    }

    /// Run `func` with `args` against fresh zeroed memory.
    pub fn run<T: Tracer>(
        &self,
        func: FuncId,
        args: &[Value],
        tracer: &mut T,
    ) -> Result<(Option<Value>, ExecStats), InterpError> {
        let mut mem = self.fresh_memory();
        self.run_with_memory(func, args, &mut mem, tracer)
    }

    /// Run `func` with `args` against caller-provided memory (lets callers
    /// seed input arrays and inspect outputs). `mem[a]` holds array `a`'s
    /// cells; accesses are bounds-checked against the declared length, a
    /// cell past the end of a shorter vector reads as zero, and the first
    /// store to such an array zero-fills it to the declared length. A
    /// caller seeding an input assigns its full-length vector.
    pub fn run_with_memory<T: Tracer>(
        &self,
        func: FuncId,
        args: &[Value],
        mem: &mut Vec<Vec<Value>>,
        tracer: &mut T,
    ) -> Result<(Option<Value>, ExecStats), InterpError> {
        assert_eq!(
            mem.len(),
            self.module.arrays.len(),
            "memory layout does not match module arrays"
        );
        let mut stats = ExecStats::default();
        let ret = self.exec_function(func, args, mem, tracer, &mut stats, 1)?;
        Ok((ret, stats))
    }

    fn exec_function<T: Tracer>(
        &self,
        func: FuncId,
        args: &[Value],
        mem: &mut Vec<Vec<Value>>,
        tracer: &mut T,
        stats: &mut ExecStats,
        depth: u32,
    ) -> Result<Option<Value>, InterpError> {
        if depth > self.max_call_depth {
            return Err(InterpError::DepthLimit(self.max_call_depth));
        }
        stats.max_depth = stats.max_depth.max(depth);
        let f = self.module.funcs.get(func.index()).ok_or(InterpError::BadFunction(func))?;
        assert_eq!(
            args.len(),
            f.arity as usize,
            "fn {}: argument count mismatch",
            self.module.name_of(f.name)
        );

        let mut regs = vec![Value::I64(0); f.num_regs as usize];
        regs[..args.len()].copy_from_slice(args);

        // Map header block -> loop id for iteration-boundary detection.
        let mut header_of: Vec<Option<LoopId>> = vec![None; f.num_blocks()];
        for info in &f.loops {
            header_of[info.header.index()] = Some(info.id);
        }
        // Loops currently active in this frame (innermost last).
        let mut active: Vec<LoopId> = Vec::new();

        let mut block = BlockId(0);
        let mut blk = f.block(block);
        let mut idx = 0usize;
        loop {
            stats.steps += 1;
            if stats.steps > self.max_steps {
                return Err(InterpError::StepLimit(self.max_steps));
            }
            let inst = &blk.insts[idx];
            let r = InstRef { func, block, idx: idx as u32 };
            tracer.on_inst(r, blk.line(idx));

            match inst {
                Inst::Const { dst, ty, bits } => {
                    regs[dst.index()] = Value::from_bits(*ty, *bits);
                    idx += 1;
                }
                Inst::Copy { dst, src } => {
                    regs[dst.index()] = regs[src.index()];
                    idx += 1;
                }
                Inst::Bin { op, dst, lhs, rhs } => {
                    regs[dst.index()] = eval_bin(*op, regs[lhs.index()], regs[rhs.index()], r)?;
                    idx += 1;
                }
                Inst::Un { op, dst, src } => {
                    regs[dst.index()] = eval_un(*op, regs[src.index()], r)?;
                    idx += 1;
                }
                Inst::Load { dst, arr, idx: ireg } => {
                    let i = regs[ireg.index()]
                        .as_i64()
                        .ok_or(InterpError::TypeError(r, "load index must be i64"))?;
                    let decl = &self.module.arrays[arr.index()];
                    if i < 0 || i as usize >= decl.len {
                        return Err(InterpError::OutOfBounds {
                            at: r,
                            arr: *arr,
                            idx: i,
                            len: decl.len,
                        });
                    }
                    stats.loads += 1;
                    tracer.on_load(r, *arr, i);
                    regs[dst.index()] =
                        mem[arr.index()].get(i as usize).copied().unwrap_or(Value::zero(decl.ty));
                    idx += 1;
                }
                Inst::Store { arr, idx: ireg, src } => {
                    let i = regs[ireg.index()]
                        .as_i64()
                        .ok_or(InterpError::TypeError(r, "store index must be i64"))?;
                    let decl = &self.module.arrays[arr.index()];
                    if i < 0 || i as usize >= decl.len {
                        return Err(InterpError::OutOfBounds {
                            at: r,
                            arr: *arr,
                            idx: i,
                            len: decl.len,
                        });
                    }
                    stats.stores += 1;
                    tracer.on_store(r, *arr, i);
                    let cells = &mut mem[arr.index()];
                    if cells.len() < decl.len {
                        cells.resize(decl.len, Value::zero(decl.ty));
                    }
                    cells[i as usize] = regs[src.index()];
                    idx += 1;
                }
                Inst::Call { func: callee, .. } => {
                    stats.calls += 1;
                    tracer.on_call(r, *callee);
                    let argv: Vec<Value> = f.call_args(inst).map(|a| regs[a.index()]).collect();
                    let ret =
                        self.exec_function(*callee, &argv, mem, tracer, stats, depth + 1)?;
                    if let Some(d) = inst.def() {
                        regs[d.index()] = ret.unwrap_or(Value::I64(0));
                    }
                    idx += 1;
                }
                Inst::Br { target } => {
                    block = *target;
                    blk = f.block(block);
                    idx = 0;
                }
                Inst::CondBr { cond, then_blk, else_blk } => {
                    let taken = regs[cond.index()].is_truthy();
                    // Loop boundary bookkeeping: a condbr in a loop header
                    // marks an iteration (taken) or the loop exit (not taken).
                    if let Some(l) = header_of[block.index()] {
                        if taken {
                            if active.last() != Some(&l) {
                                active.push(l);
                                tracer.on_loop_enter(func, l);
                            }
                            tracer.on_loop_iter(func, l);
                        } else if active.last() == Some(&l) {
                            active.pop();
                            tracer.on_loop_exit(func, l);
                        }
                    }
                    block = if taken { *then_blk } else { *else_blk };
                    blk = f.block(block);
                    idx = 0;
                }
                Inst::Ret { val } => {
                    // Close any loops still active (early return from a loop).
                    while let Some(l) = active.pop() {
                        tracer.on_loop_exit(func, l);
                    }
                    tracer.on_ret(func);
                    return Ok(val.map(|v| regs[v.index()]));
                }
            }
        }
    }
}

pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value, r: InstRef) -> Result<Value, InterpError> {
    use BinOp::*;
    use Value::{F64, I64};
    Ok(match (op, a, b) {
        (Add, I64(x), I64(y)) => I64(x.wrapping_add(y)),
        (Sub, I64(x), I64(y)) => I64(x.wrapping_sub(y)),
        (Mul, I64(x), I64(y)) => I64(x.wrapping_mul(y)),
        (Div, I64(x), I64(y)) => {
            if y == 0 {
                return Err(InterpError::DivByZero(r));
            }
            I64(x.wrapping_div(y))
        }
        (Rem, I64(x), I64(y)) => {
            if y == 0 {
                return Err(InterpError::DivByZero(r));
            }
            I64(x.wrapping_rem(y))
        }
        (Min, I64(x), I64(y)) => I64(x.min(y)),
        (Max, I64(x), I64(y)) => I64(x.max(y)),
        (And, I64(x), I64(y)) => I64(x & y),
        (Or, I64(x), I64(y)) => I64(x | y),
        (Xor, I64(x), I64(y)) => I64(x ^ y),
        (Shl, I64(x), I64(y)) => I64(x.wrapping_shl(y as u32)),
        (Shr, I64(x), I64(y)) => I64(x.wrapping_shr(y as u32)),
        (CmpEq, I64(x), I64(y)) => I64((x == y) as i64),
        (CmpNe, I64(x), I64(y)) => I64((x != y) as i64),
        (CmpLt, I64(x), I64(y)) => I64((x < y) as i64),
        (CmpLe, I64(x), I64(y)) => I64((x <= y) as i64),

        (Add, F64(x), F64(y)) => F64(x + y),
        (Sub, F64(x), F64(y)) => F64(x - y),
        (Mul, F64(x), F64(y)) => F64(x * y),
        (Div, F64(x), F64(y)) => F64(x / y),
        (Min, F64(x), F64(y)) => F64(x.min(y)),
        (Max, F64(x), F64(y)) => F64(x.max(y)),
        (CmpEq, F64(x), F64(y)) => I64((x == y) as i64),
        (CmpNe, F64(x), F64(y)) => I64((x != y) as i64),
        (CmpLt, F64(x), F64(y)) => I64((x < y) as i64),
        (CmpLe, F64(x), F64(y)) => I64((x <= y) as i64),

        _ => return Err(InterpError::TypeError(r, "operand types do not match opcode")),
    })
}

pub(crate) fn eval_un(op: UnOp, v: Value, r: InstRef) -> Result<Value, InterpError> {
    use UnOp::*;
    use Value::{F64, I64};
    Ok(match (op, v) {
        (Neg, I64(x)) => I64(x.wrapping_neg()),
        (Neg, F64(x)) => F64(-x),
        (Not, I64(x)) => I64(!x),
        (Abs, I64(x)) => I64(x.wrapping_abs()),
        (Abs, F64(x)) => F64(x.abs()),
        (Sqrt, F64(x)) => F64(x.sqrt()),
        (Exp, F64(x)) => F64(x.exp()),
        (Log, F64(x)) => {
            if x <= 0.0 {
                return Err(InterpError::TypeError(r, "log of non-positive value"));
            }
            F64(x.ln())
        }
        (Sin, F64(x)) => F64(x.sin()),
        (Cos, F64(x)) => F64(x.cos()),
        (IntToFloat, I64(x)) => F64(x as f64),
        (FloatToInt, F64(x)) => I64(x as i64),
        _ => return Err(InterpError::TypeError(r, "operand type does not match opcode")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;
    use crate::types::Ty;

    /// Tracer recording loop events for assertions.
    #[derive(Default)]
    struct LoopLog {
        enters: Vec<LoopId>,
        iters: Vec<LoopId>,
        exits: Vec<LoopId>,
        loads: u64,
        stores: u64,
    }

    impl Tracer for LoopLog {
        fn on_loop_enter(&mut self, _f: FuncId, l: LoopId) {
            self.enters.push(l);
        }
        fn on_loop_iter(&mut self, _f: FuncId, l: LoopId) {
            self.iters.push(l);
        }
        fn on_loop_exit(&mut self, _f: FuncId, l: LoopId) {
            self.exits.push(l);
        }
        fn on_load(&mut self, _r: InstRef, _a: ArrayId, _i: i64) {
            self.loads += 1;
        }
        fn on_store(&mut self, _r: InstRef, _a: ArrayId, _i: i64) {
            self.stores += 1;
        }
    }

    fn sum_kernel() -> (Module, FuncId, ArrayId) {
        // sum = Σ a[i] for i in 0..n ; returns sum
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 10);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(10);
        let step = b.const_i64(1);
        let sum = b.const_f64(0.0);
        b.for_loop(lo, hi, step, |b, iv| {
            let x = b.load(a, iv);
            b.bin_to(sum, BinOp::Add, sum, x);
        });
        b.ret(Some(sum));
        let f = b.finish();
        (m, f, a)
    }

    #[test]
    fn sum_loop_computes_and_traces() {
        let (m, f, a) = sum_kernel();
        crate::verify::verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let mut mem = interp.fresh_memory();
        mem[a.index()] = (0..10).map(|i| Value::F64(i as f64)).collect();
        let mut log = LoopLog::default();
        let (ret, stats) = interp.run_with_memory(f, &[], &mut mem, &mut log).unwrap();
        assert_eq!(ret, Some(Value::F64(45.0)));
        assert_eq!(log.enters, vec![LoopId(0)]);
        assert_eq!(log.iters.len(), 10);
        assert_eq!(log.exits, vec![LoopId(0)]);
        assert_eq!(log.loads, 10);
        assert_eq!(stats.loads, 10);
        assert!(stats.steps > 30);
    }

    #[test]
    fn nested_loop_events_nest_properly() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(3);
        let step = b.const_i64(1);
        b.for_loop(lo, hi, step, |b, _| {
            let lo2 = b.const_i64(0);
            let hi2 = b.const_i64(2);
            let st2 = b.const_i64(1);
            b.for_loop(lo2, hi2, st2, |_b, _| {});
        });
        let f = b.finish();
        let interp = Interpreter::new(&m);
        let mut log = LoopLog::default();
        interp.run(f, &[], &mut log).unwrap();
        // Outer enters once, iterates 3×; inner enters 3×, iterates 6×.
        assert_eq!(log.enters.iter().filter(|&&l| l == LoopId(0)).count(), 1);
        assert_eq!(log.iters.iter().filter(|&&l| l == LoopId(0)).count(), 3);
        assert_eq!(log.enters.iter().filter(|&&l| l == LoopId(1)).count(), 3);
        assert_eq!(log.iters.iter().filter(|&&l| l == LoopId(1)).count(), 6);
        assert_eq!(log.exits.iter().filter(|&&l| l == LoopId(1)).count(), 3);
    }

    #[test]
    fn recursion_fib() {
        let mut m = Module::new("t");
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
        // Build with a forward-declared self id: fib will be FuncId(0).
        let fib_id = FuncId(0);
        let mut b = FunctionBuilder::new(&mut m, "fib", 1);
        let n = b.param(0);
        let two = b.const_i64(2);
        let c = b.bin(BinOp::CmpLt, n, two);
        let result = b.const_i64(0);
        b.if_else(
            c,
            |b| b.copy_to(result, n),
            |b| {
                let one = b.const_i64(1);
                let n1 = b.bin(BinOp::Sub, n, one);
                let a = b.call(fib_id, &[n1]);
                let n2 = b.bin(BinOp::Sub, n, two);
                let c2 = b.call(fib_id, &[n2]);
                let s = b.bin(BinOp::Add, a, c2);
                b.copy_to(result, s);
            },
        );
        b.ret(Some(result));
        let f = b.finish();
        assert_eq!(f, fib_id);
        crate::verify::verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let (ret, stats) = interp.run(f, &[Value::I64(12)], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::I64(144)));
        assert!(stats.max_depth > 5);
        assert!(stats.calls > 100);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 4);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let i = b.const_i64(9);
        let v = b.load(a, i);
        b.ret(Some(v));
        let f = b.finish();
        let interp = Interpreter::new(&m);
        match interp.run(f, &[], &mut NoTracer) {
            Err(InterpError::OutOfBounds { idx: 9, len: 4, .. }) => {}
            other => panic!("expected OOB, got {other:?}"),
        }
    }

    #[test]
    fn div_by_zero_is_reported() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let x = b.const_i64(4);
        let z = b.const_i64(0);
        let q = b.bin(BinOp::Div, x, z);
        b.ret(Some(q));
        let f = b.finish();
        let interp = Interpreter::new(&m);
        assert!(matches!(interp.run(f, &[], &mut NoTracer), Err(InterpError::DivByZero(_))));
    }

    #[test]
    fn type_error_is_reported() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let x = b.const_i64(4);
        let y = b.const_f64(1.0);
        let q = b.bin(BinOp::Add, x, y);
        b.ret(Some(q));
        let f = b.finish();
        let interp = Interpreter::new(&m);
        assert!(matches!(interp.run(f, &[], &mut NoTracer), Err(InterpError::TypeError(_, _))));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let one = b.const_i64(1);
        b.while_loop(|b| b.copy(one), |_b| {});
        b.ret(None);
        let f = b.finish();
        let interp = Interpreter::new(&m).with_max_steps(10_000);
        assert!(matches!(interp.run(f, &[], &mut NoTracer), Err(InterpError::StepLimit(_))));
    }

    #[test]
    fn depth_limit_stops_runaway_recursion() {
        let mut m = Module::new("t");
        let self_id = FuncId(0);
        let mut b = FunctionBuilder::new(&mut m, "f", 0);
        b.call_void(self_id, &[]);
        b.ret(None);
        let f = b.finish();
        let interp = Interpreter::new(&m).with_max_call_depth(32);
        assert!(matches!(interp.run(f, &[], &mut NoTracer), Err(InterpError::DepthLimit(32))));
    }

    #[test]
    fn zero_trip_loop_never_enters() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(5);
        let hi = b.const_i64(5);
        let step = b.const_i64(1);
        b.for_loop(lo, hi, step, |_b, _| {});
        let f = b.finish();
        let interp = Interpreter::new(&m);
        let mut log = LoopLog::default();
        interp.run(f, &[], &mut log).unwrap();
        assert!(log.enters.is_empty());
        assert!(log.iters.is_empty());
        assert!(log.exits.is_empty());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, UnOp};
    use crate::types::Ty;

    #[test]
    fn unary_ops_evaluate() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let x = b.const_f64(4.0);
        let s = b.un(UnOp::Sqrt, x);
        let neg = b.un(UnOp::Neg, s);
        let abs = b.un(UnOp::Abs, neg);
        let i = b.un(UnOp::FloatToInt, abs);
        let back = b.un(UnOp::IntToFloat, i);
        b.ret(Some(back));
        let f = b.finish();
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::F64(2.0)));
    }

    #[test]
    fn log_of_nonpositive_traps() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let x = b.const_f64(-1.0);
        let l = b.un(UnOp::Log, x);
        b.ret(Some(l));
        let f = b.finish();
        assert!(matches!(
            Interpreter::new(&m).run(f, &[], &mut NoTracer),
            Err(InterpError::TypeError(_, _))
        ));
    }

    #[test]
    fn integer_ops_wrap_instead_of_panicking() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let x = b.const_i64(i64::MAX);
        let one = b.const_i64(1);
        let s = b.bin(BinOp::Add, x, one);
        b.ret(Some(s));
        let f = b.finish();
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::I64(i64::MIN)));
    }

    #[test]
    fn comparisons_yield_i64_booleans() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let a = b.const_f64(1.5);
        let c = b.const_f64(2.5);
        let lt = b.bin(BinOp::CmpLt, a, c);
        let ge_via_le = b.bin(BinOp::CmpLe, c, a);
        let both = b.bin(BinOp::Shl, lt, ge_via_le); // 1 << 0 = 1
        b.ret(Some(both));
        let f = b.finish();
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::I64(1)));
    }

    #[test]
    fn negative_index_is_out_of_bounds() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 4);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let i = b.const_i64(-1);
        let v = b.load(a, i);
        b.ret(Some(v));
        let f = b.finish();
        assert!(matches!(
            Interpreter::new(&m).run(f, &[], &mut NoTracer),
            Err(InterpError::OutOfBounds { idx: -1, .. })
        ));
    }

    #[test]
    fn caller_memory_survives_between_runs() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::I64, 2);
        let mut b = FunctionBuilder::new(&mut m, "bump", 0);
        let z = b.const_i64(0);
        let one = b.const_i64(1);
        let cur = b.load(a, z);
        let nxt = b.bin(BinOp::Add, cur, one);
        b.store(a, z, nxt);
        b.ret(Some(nxt));
        let f = b.finish();
        let interp = Interpreter::new(&m);
        let mut mem = interp.fresh_memory();
        for expected in 1..=3 {
            let (ret, _) = interp.run_with_memory(f, &[], &mut mem, &mut NoTracer).unwrap();
            assert_eq!(ret, Some(Value::I64(expected)));
        }
    }

    #[test]
    fn while_loop_with_early_return_closes_loop_events() {
        struct Count {
            enters: u32,
            exits: u32,
        }
        impl Tracer for Count {
            fn on_loop_enter(&mut self, _f: FuncId, _l: LoopId) {
                self.enters += 1;
            }
            fn on_loop_exit(&mut self, _f: FuncId, _l: LoopId) {
                self.exits += 1;
            }
        }
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let one = b.const_i64(1);
        let i = b.const_i64(0);
        let ten = b.const_i64(10);
        b.while_loop(
            |b| b.bin(BinOp::CmpLt, i, ten),
            |b| {
                b.bin_to(i, BinOp::Add, i, one);
                let five = b.const_i64(5);
                let hit = b.bin(BinOp::CmpEq, i, five);
                b.if_then(hit, |b| b.ret(Some(i)));
            },
        );
        b.ret(Some(i));
        let f = b.finish();
        let mut c = Count { enters: 0, exits: 0 };
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut c).unwrap();
        assert_eq!(ret, Some(Value::I64(5)));
        assert_eq!(c.enters, c.exits, "early return must balance loop events");
    }
}
