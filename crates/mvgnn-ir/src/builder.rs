//! Structured-control-flow function builder.
//!
//! Kernels are authored through closures (`for_loop`, `while_loop`,
//! `if_else`), which lets the builder record precise [`LoopInfo`] metadata
//! — header/latch/exit blocks, induction registers, nesting and synthetic
//! line spans — that the profiler later uses to attribute memory accesses
//! to loop iterations.

use crate::inst::{BinOp, Inst, UnOp};
use crate::module::{BlockId, FuncId, Function, LoopId, LoopInfo, Module, NameId};
use crate::types::{ArrayId, VReg, Value};
use std::ops::Range;

/// Builder for one function. Create with [`FunctionBuilder::new`], emit
/// instructions and structured control flow, then call
/// [`FunctionBuilder::finish`] to append the function to the module.
///
/// ```
/// use mvgnn_ir::{FunctionBuilder, Module};
/// use mvgnn_ir::types::{Ty, Value};
/// use mvgnn_ir::inst::BinOp;
/// use mvgnn_ir::interp::{Interpreter, NoTracer};
///
/// let mut m = Module::new("demo");
/// let a = m.add_array("a", Ty::F64, 8);
/// let mut b = FunctionBuilder::new(&mut m, "main", 0);
/// let (lo, hi, st) = (b.const_i64(0), b.const_i64(8), b.const_i64(1));
/// let acc = b.const_f64(0.0);
/// b.for_loop(lo, hi, st, |b, i| {
///     let x = b.load(a, i);
///     b.bin_to(acc, BinOp::Add, acc, x);
/// });
/// b.ret(Some(acc));
/// let f = b.finish();
///
/// let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
/// assert_eq!(ret, Some(Value::F64(0.0))); // zero-initialised memory
/// ```
pub struct FunctionBuilder<'m> {
    module: &'m mut Module,
    name: NameId,
    arity: u32,
    next_reg: u32,
    /// Each block's `(instruction, line)` run while it is built;
    /// [`FunctionBuilder::finish`] stores them flat.
    blocks: Vec<Vec<(Inst, u32)>>,
    loops: Vec<LoopInfo>,
    /// Every finished loop's body blocks; each `LoopInfo::body` is a
    /// range of them.
    bodies: Vec<BlockId>,
    /// Every call's argument count and arguments; each `Inst::Call`
    /// holds the offset of its own.
    operands: Vec<u32>,
    current: BlockId,
    loop_stack: Vec<LoopId>,
    line: u32,
}

impl<'m> FunctionBuilder<'m> {
    /// Start building a function with `arity` parameters. Parameters occupy
    /// registers `%0 .. %arity-1`. The name joins the module's name table
    /// at once.
    pub fn new(module: &'m mut Module, name: impl AsRef<str>, arity: u32) -> Self {
        let name = module.intern(name.as_ref());
        let mut b = Self {
            module,
            name,
            arity,
            next_reg: arity,
            blocks: Vec::new(),
            loops: Vec::new(),
            bodies: Vec::new(),
            operands: Vec::new(),
            current: BlockId(0),
            loop_stack: Vec::new(),
            line: 1,
        };
        b.new_block(); // entry
        b
    }

    /// The module being extended.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    /// Parameter register `i`.
    pub fn param(&self, i: u32) -> VReg {
        assert!(i < self.arity, "param {i} out of range (arity {})", self.arity);
        VReg(i)
    }

    /// Allocate a fresh register.
    pub fn fresh(&mut self) -> VReg {
        let r = VReg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Advance the synthetic source line (one "statement" per line).
    pub fn next_line(&mut self) -> u32 {
        self.line += 1;
        self.line
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Vec::new());
        id
    }

    /// Record the body blocks `first..end` of a loop; returns their range
    /// in `bodies`.
    fn push_body(&mut self, first: BlockId, end: BlockId) -> Range<u32> {
        let at = self.bodies.len() as u32;
        self.bodies.extend((first.0..end.0).map(BlockId));
        at..self.bodies.len() as u32
    }

    fn emit(&mut self, inst: Inst) {
        self.emit_at(self.current, inst, self.line);
    }

    fn emit_at(&mut self, block: BlockId, inst: Inst, line: u32) {
        debug_assert!(
            !self.terminated(block),
            "emitting into a terminated block in {}",
            self.module.name_of(self.name)
        );
        self.blocks[block.index()].push((inst, line));
    }

    /// True when `block` already ends in a terminator.
    fn terminated(&self, block: BlockId) -> bool {
        self.blocks[block.index()].last().is_some_and(|(i, _)| i.is_terminator())
    }

    /// Seal `at`, a `(block, line)` left open for its conditional branch,
    /// once both targets exist.
    fn cond_br(&mut self, at: (BlockId, u32), cond: VReg, then_blk: BlockId, else_blk: BlockId) {
        self.emit_at(at.0, Inst::CondBr { cond, then_blk, else_blk }, at.1);
    }

    // ------------------------------------------------------------------
    // Straight-line instruction helpers
    // ------------------------------------------------------------------

    /// `dst = const v`
    pub fn constant(&mut self, v: Value) -> VReg {
        let dst = self.fresh();
        self.emit(Inst::constant(dst, v));
        dst
    }

    /// Integer constant.
    pub fn const_i64(&mut self, v: i64) -> VReg {
        self.constant(Value::I64(v))
    }

    /// Float constant.
    pub fn const_f64(&mut self, v: f64) -> VReg {
        self.constant(Value::F64(v))
    }

    /// Register copy into a fresh register.
    pub fn copy(&mut self, src: VReg) -> VReg {
        let dst = self.fresh();
        self.emit(Inst::Copy { dst, src });
        dst
    }

    /// Copy into an existing register (mutation — used for accumulators).
    pub fn copy_to(&mut self, dst: VReg, src: VReg) {
        self.emit(Inst::Copy { dst, src });
    }

    /// Binary operation into a fresh register.
    pub fn bin(&mut self, op: BinOp, lhs: VReg, rhs: VReg) -> VReg {
        let dst = self.fresh();
        self.emit(Inst::Bin { op, dst, lhs, rhs });
        dst
    }

    /// Binary operation into an existing register.
    pub fn bin_to(&mut self, dst: VReg, op: BinOp, lhs: VReg, rhs: VReg) {
        self.emit(Inst::Bin { op, dst, lhs, rhs });
    }

    /// Unary operation into a fresh register.
    pub fn un(&mut self, op: UnOp, src: VReg) -> VReg {
        let dst = self.fresh();
        self.emit(Inst::Un { op, dst, src });
        dst
    }

    /// `dst = load arr[idx]`
    pub fn load(&mut self, arr: ArrayId, idx: VReg) -> VReg {
        let dst = self.fresh();
        self.emit(Inst::Load { dst, arr, idx });
        dst
    }

    /// `store arr[idx] = src`
    pub fn store(&mut self, arr: ArrayId, idx: VReg, src: VReg) {
        self.emit(Inst::Store { arr, idx, src });
    }

    /// Call returning a value.
    pub fn call(&mut self, func: FuncId, args: &[VReg]) -> VReg {
        let dst = self.fresh();
        self.emit_call(Some(dst), func, args);
        dst
    }

    /// Call ignoring the return value.
    pub fn call_void(&mut self, func: FuncId, args: &[VReg]) {
        self.emit_call(None, func, args);
    }

    fn emit_call(&mut self, dst: Option<VReg>, func: FuncId, args: &[VReg]) {
        let call = Inst::call(dst, func, args, &mut self.operands);
        self.emit(call);
    }

    /// Return.
    pub fn ret(&mut self, val: Option<VReg>) {
        self.emit(Inst::Ret { val });
    }

    // ------------------------------------------------------------------
    // Structured control flow
    // ------------------------------------------------------------------

    /// Counted loop `for iv in (lo..hi).step_by(step)`; returns its id.
    ///
    /// `lo`, `hi` and `step` are registers (step must be a positive i64 at
    /// run time). The body closure receives the induction register.
    pub fn for_loop(
        &mut self,
        lo: VReg,
        hi: VReg,
        step: VReg,
        body: impl FnOnce(&mut Self, VReg),
    ) -> LoopId {
        let loop_id = LoopId(self.loops.len() as u32);
        let start_line = self.next_line();
        let parent = self.loop_stack.last().copied();
        let depth = self.loop_stack.len() as u32;
        let iv = self.fresh();
        self.emit(Inst::Copy { dst: iv, src: lo });

        // Reserve the LoopInfo slot so nested loops get later ids.
        self.loops.push(LoopInfo {
            id: loop_id,
            header: BlockId(0),
            body: 0..0,
            latch: BlockId(0),
            exit: BlockId(0),
            induction: Some(iv),
            parent,
            depth,
            line_span: (start_line, start_line),
        });

        self.loop_stack.push(loop_id);
        let header = self.new_block();
        self.emit(Inst::Br { target: header });
        self.current = header;
        let cond = self.bin(BinOp::CmpLt, iv, hi);

        let body_entry = self.new_block();
        // The header's condbr exits to a block of the parent loop, created
        // after the body; it is emitted then, with this line.
        let header_condbr = (self.current, self.line);

        self.current = body_entry;
        let body_first_block = body_entry;
        self.next_line();
        body(self, iv);

        let latch = self.new_block();
        self.emit(Inst::Br { target: latch });
        self.current = latch;
        self.bin_to(iv, BinOp::Add, iv, step);
        self.emit(Inst::Br { target: header });

        let end_line = self.next_line();
        self.loop_stack.pop();
        let exit = self.new_block();
        self.cond_br(header_condbr, cond, body_entry, exit);

        // Collect body blocks: every block created between body_entry and
        // latch (exclusive) plus body_entry itself.
        let body_run = self.push_body(body_first_block, latch);
        let info = &mut self.loops[loop_id.index()];
        info.header = header;
        info.body = body_run;
        info.latch = latch;
        info.exit = exit;
        info.line_span = (start_line, end_line);

        self.current = exit;
        loop_id
    }

    /// General `while` loop: `cond` builds the condition inside the header
    /// (re-evaluated every iteration); `body` builds the body.
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut Self) -> VReg,
        body: impl FnOnce(&mut Self),
    ) -> LoopId {
        let loop_id = LoopId(self.loops.len() as u32);
        let start_line = self.next_line();
        let parent = self.loop_stack.last().copied();
        let depth = self.loop_stack.len() as u32;
        self.loops.push(LoopInfo {
            id: loop_id,
            header: BlockId(0),
            body: 0..0,
            latch: BlockId(0),
            exit: BlockId(0),
            induction: None,
            parent,
            depth,
            line_span: (start_line, start_line),
        });

        self.loop_stack.push(loop_id);
        let header = self.new_block();
        self.emit(Inst::Br { target: header });
        self.current = header;
        let c = cond(self);
        let body_entry = self.new_block();
        let header_condbr = (self.current, self.line);

        self.current = body_entry;
        self.next_line();
        body(self);

        let latch = self.new_block();
        self.emit(Inst::Br { target: latch });
        self.current = latch;
        self.emit(Inst::Br { target: header });

        let end_line = self.next_line();
        self.loop_stack.pop();
        let exit = self.new_block();
        self.cond_br(header_condbr, c, body_entry, exit);

        let body_run = self.push_body(body_entry, latch);
        let info = &mut self.loops[loop_id.index()];
        info.header = header;
        info.body = body_run;
        info.latch = latch;
        info.exit = exit;
        info.line_span = (start_line, end_line);

        self.current = exit;
        loop_id
    }

    /// Two-armed conditional; control rejoins after both arms.
    pub fn if_else(
        &mut self,
        cond: VReg,
        then_arm: impl FnOnce(&mut Self),
        else_arm: impl FnOnce(&mut Self),
    ) {
        self.next_line();
        let then_blk = self.new_block();
        let branch = (self.current, self.line);

        self.current = then_blk;
        then_arm(self);
        let then_end = self.current;

        let else_blk = self.new_block();
        self.cond_br(branch, cond, then_blk, else_blk);
        self.current = else_blk;
        else_arm(self);
        let else_end = self.current;

        let join = self.new_block();
        for end in [then_end, else_end] {
            if !self.terminated(end) {
                self.emit_at(end, Inst::Br { target: join }, self.line);
            }
        }
        self.current = join;
        self.next_line();
    }

    /// One-armed conditional.
    pub fn if_then(&mut self, cond: VReg, then_arm: impl FnOnce(&mut Self)) {
        self.if_else(cond, then_arm, |_| {});
    }

    /// Finish: seal the current block with `ret void` if unterminated and
    /// append the function to the module.
    pub fn finish(mut self) -> FuncId {
        assert!(
            self.loop_stack.is_empty(),
            "unclosed loops in fn {}",
            self.module.name_of(self.name)
        );
        if !self.terminated(self.current) {
            self.ret(None);
        }
        let Self { module, name, arity, next_reg, blocks, loops, bodies, operands, .. } = self;
        let id = FuncId(module.funcs.len() as u32);
        let f = Function::new(name, arity, next_reg, blocks, loops, &bodies, &operands);
        module.funcs.push(f);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ty;
    use crate::verify::verify_module;

    #[test]
    fn simple_for_loop_builds_and_verifies() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(8);
        let step = b.const_i64(1);
        let one = b.const_f64(1.0);
        let l = b.for_loop(lo, hi, step, |b, iv| {
            b.store(a, iv, one);
        });
        b.ret(None);
        let f = b.finish();
        verify_module(&m).unwrap();
        let fun = &m.funcs[f.index()];
        assert_eq!(fun.loops.len(), 1);
        let info = &fun.loops[l.index()];
        assert!(info.induction.is_some());
        assert_eq!(info.depth, 0);
        assert!(info.line_span.1 > info.line_span.0);
        // Header belongs to the loop; exit does not.
        assert_eq!(fun.loop_of_block(info.header), Some(l));
        assert_eq!(fun.loop_of_block(info.exit), None);
    }

    #[test]
    fn nested_loops_record_parents() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(4);
        let step = b.const_i64(1);
        let mut inner_id = None;
        let outer = b.for_loop(lo, hi, step, |b, _i| {
            let lo2 = b.const_i64(0);
            let hi2 = b.const_i64(4);
            let st2 = b.const_i64(1);
            inner_id = Some(b.for_loop(lo2, hi2, st2, |_b, _j| {}));
        });
        let f = b.finish();
        verify_module(&m).unwrap();
        let fun = &m.funcs[f.index()];
        let inner = inner_id.unwrap();
        assert_eq!(fun.loops[inner.index()].parent, Some(outer));
        assert_eq!(fun.loops[inner.index()].depth, 1);
        assert_eq!(fun.loops[outer.index()].parent, None);
        // Inner header nests inside outer body coverage.
        let inner_header = fun.loops[inner.index()].header;
        assert_eq!(fun.loop_of_block(inner_header), Some(inner));
    }

    #[test]
    fn if_else_joins() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 1);
        let p = b.param(0);
        let one = b.const_i64(1);
        let c = b.bin(BinOp::CmpLt, p, one);
        let acc = b.const_i64(0);
        b.if_else(
            c,
            |b| {
                b.bin_to(acc, BinOp::Add, acc, one);
            },
            |b| {
                b.bin_to(acc, BinOp::Sub, acc, one);
            },
        );
        b.ret(Some(acc));
        b.finish();
        verify_module(&m).unwrap();
    }

    #[test]
    fn while_loop_builds() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let n = b.const_i64(10);
        let i = b.const_i64(0);
        let one = b.const_i64(1);
        let l = b.while_loop(
            |b| b.bin(BinOp::CmpLt, i, n),
            |b| {
                b.bin_to(i, BinOp::Add, i, one);
            },
        );
        b.ret(Some(i));
        let f = b.finish();
        verify_module(&m).unwrap();
        assert!(m.funcs[f.index()].loops[l.index()].induction.is_none());
    }

    #[test]
    fn finish_seals_open_block() {
        let mut m = Module::new("t");
        let b = FunctionBuilder::new(&mut m, "empty", 0);
        let f = b.finish();
        let fun = &m.funcs[f.index()];
        assert!(fun.block(BlockId(0)).terminator().is_some());
        verify_module(&m).unwrap();
    }

    #[test]
    fn calls_keep_their_arguments() {
        let mut m = Module::new("t");
        let callee = FunctionBuilder::new(&mut m, "callee", 2).finish();
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (x, y) = (b.const_i64(1), b.const_i64(2));
        b.call_void(callee, &[y, x]);
        let r = b.call(callee, &[x, x]);
        b.ret(Some(r));
        let main = b.finish();
        let f = &m.funcs[main.index()];
        let calls: Vec<(Option<VReg>, Vec<VReg>)> = f
            .insts()
            .iter()
            .filter(|i| matches!(i, Inst::Call { .. }))
            .map(|i| (i.def(), f.call_args(i).collect()))
            .collect();
        assert_eq!(calls, [(None, vec![y, x]), (Some(r), vec![x, x])]);
        assert_eq!(m.name_of(f.name), "main");
        verify_module(&m).unwrap();
    }

    #[test]
    #[should_panic(expected = "param 2 out of range")]
    fn param_out_of_range_panics() {
        let mut m = Module::new("t");
        let b = FunctionBuilder::new(&mut m, "f", 2);
        let _ = b.param(2);
    }
}
