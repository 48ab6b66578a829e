//! Structural verifier: every block terminated exactly once, branch
//! targets and register/array/function indices in range, loop metadata
//! self-consistent, and loop headers dominating their bodies.
//!
//! Failures are typed ([`VerifyError`]) so tooling — most notably the
//! `mvgnn-bench` corpus linter — can react to the *kind* of violation
//! instead of grepping a message string.

use crate::cfg::{Cfg, Dominators};
use crate::inst::Inst;
use crate::module::{BlockId, Function, LoopId, Module};
use crate::types::{ArrayId, VReg};

/// A typed verification failure. The `Display` form keeps the
/// human-readable phrasing the rest of the workspace reports to users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Function has no basic blocks.
    NoBlocks {
        /// Offending function name.
        func: String,
    },
    /// `arity` exceeds the declared register count.
    ArityExceedsRegs {
        /// Offending function name.
        func: String,
        /// Declared parameter count.
        arity: u32,
        /// Declared register count.
        num_regs: u32,
    },
    /// A block does not end in a terminator.
    MissingTerminator {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
    },
    /// A terminator appears before the end of its block.
    TerminatorMidBlock {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// Instruction index of the stray terminator.
        idx: usize,
    },
    /// An instruction defines or uses a register `>= num_regs`.
    RegOutOfRange {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// Instruction index.
        idx: usize,
        /// The out-of-range register.
        reg: VReg,
        /// Whether the register is written (`true`) or read.
        is_def: bool,
    },
    /// A branch targets a block outside the function.
    BranchTargetOutOfRange {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// Whether the terminator is a conditional branch.
        conditional: bool,
    },
    /// A load/store references an array the module does not declare.
    UndeclaredArray {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// The undeclared array id.
        arr: ArrayId,
    },
    /// A call references a function index outside the module.
    CallToMissingFunc {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// The missing callee index.
        callee: u32,
    },
    /// A call passes a different number of arguments than the callee's
    /// arity.
    CallArityMismatch {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// Callee name.
        callee: String,
        /// Arguments passed.
        args: usize,
        /// Callee arity.
        arity: u32,
    },
    /// Loop metadata references a block outside the function.
    LoopBlockOutOfRange {
        /// Offending function name.
        func: String,
        /// Offending loop.
        l: LoopId,
    },
    /// A loop's parent id is out of range.
    LoopParentOutOfRange {
        /// Offending function name.
        func: String,
        /// Offending loop.
        l: LoopId,
    },
    /// A loop's depth disagrees with its parent chain.
    LoopDepthInconsistent {
        /// Offending function name.
        func: String,
        /// Offending loop.
        l: LoopId,
    },
    /// A loop's induction register is out of range.
    InductionOutOfRange {
        /// Offending function name.
        func: String,
        /// Offending loop.
        l: LoopId,
        /// The out-of-range register.
        reg: VReg,
    },
    /// A loop header fails to dominate a body or latch block, so the
    /// "loop" is not a natural loop and iteration attribution (profiler,
    /// dataflow analyses) would be meaningless.
    HeaderDoesNotDominate {
        /// Offending function name.
        func: String,
        /// Offending loop.
        l: LoopId,
        /// The body/latch block the header does not dominate.
        block: BlockId,
    },
    /// Two functions share a name.
    DuplicateFunctionName {
        /// The duplicated name.
        name: String,
    },
    /// Two arrays share a name.
    DuplicateArrayName {
        /// The duplicated name.
        name: String,
    },
    /// An array is declared with zero elements.
    ZeroLengthArray {
        /// Offending array name.
        name: String,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IR verification failed: ")?;
        match self {
            VerifyError::NoBlocks { func } => write!(f, "fn {func}: no blocks"),
            VerifyError::ArityExceedsRegs { func, arity, num_regs } => {
                write!(f, "fn {func}: arity {arity} exceeds register count {num_regs}")
            }
            VerifyError::MissingTerminator { func, block } => {
                write!(f, "fn {func} block {}: missing terminator", block.0)
            }
            VerifyError::TerminatorMidBlock { func, block, idx } => {
                write!(f, "fn {func} block {} inst {idx}: terminator mid-block", block.0)
            }
            VerifyError::RegOutOfRange { func, block, idx, reg, is_def } => {
                let what = if *is_def { "def" } else { "use" };
                write!(f, "fn {func} block {} inst {idx}: {what} {reg} out of range", block.0)
            }
            VerifyError::BranchTargetOutOfRange { func, block, conditional } => {
                let which = if *conditional { "condbr" } else { "br" };
                write!(f, "fn {func} block {}: {which} target out of range", block.0)
            }
            VerifyError::UndeclaredArray { func, block, arr } => {
                write!(f, "fn {func} block {}: array {arr} undeclared", block.0)
            }
            VerifyError::CallToMissingFunc { func, block, callee } => {
                write!(f, "fn {func} block {}: call to missing fn {callee}", block.0)
            }
            VerifyError::CallArityMismatch { func, block, callee, args, arity } => {
                write!(
                    f,
                    "fn {func} block {}: call to {callee} with {args} args, arity {arity}",
                    block.0
                )
            }
            VerifyError::LoopBlockOutOfRange { func, l } => {
                write!(f, "fn {func} loop {}: block out of range", l.0)
            }
            VerifyError::LoopParentOutOfRange { func, l } => {
                write!(f, "fn {func} loop {}: parent out of range", l.0)
            }
            VerifyError::LoopDepthInconsistent { func, l } => {
                write!(f, "fn {func} loop {}: depth inconsistent with parent", l.0)
            }
            VerifyError::InductionOutOfRange { func, l, reg } => {
                write!(f, "fn {func} loop {}: induction {reg} out of range", l.0)
            }
            VerifyError::HeaderDoesNotDominate { func, l, block } => {
                write!(f, "fn {func} loop {}: header does not dominate block {}", l.0, block.0)
            }
            VerifyError::DuplicateFunctionName { name } => {
                write!(f, "duplicate function name {name}")
            }
            VerifyError::DuplicateArrayName { name } => write!(f, "duplicate array name {name}"),
            VerifyError::ZeroLengthArray { name } => write!(f, "array {name} has zero length"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify one function against its module.
pub fn verify_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    let nblocks = f.num_blocks();
    let func = || m.name_of(f.name).to_string();
    if nblocks == 0 {
        return Err(VerifyError::NoBlocks { func: func() });
    }
    if f.arity > f.num_regs {
        return Err(VerifyError::ArityExceedsRegs {
            func: func(),
            arity: f.arity,
            num_regs: f.num_regs,
        });
    }
    for (bi, blk) in f.blocks().enumerate() {
        let block = BlockId(bi as u32);
        if blk.terminator().is_none() {
            return Err(VerifyError::MissingTerminator { func: func(), block });
        }
        for (ii, inst) in blk.insts.iter().enumerate() {
            if inst.is_terminator() && ii + 1 != blk.insts.len() {
                return Err(VerifyError::TerminatorMidBlock { func: func(), block, idx: ii });
            }
            if let Some(d) = inst.def() {
                if d.0 >= f.num_regs {
                    return Err(VerifyError::RegOutOfRange {
                        func: func(),
                        block,
                        idx: ii,
                        reg: d,
                        is_def: true,
                    });
                }
            }
            for u in f.uses(inst) {
                if u.0 >= f.num_regs {
                    return Err(VerifyError::RegOutOfRange {
                        func: func(),
                        block,
                        idx: ii,
                        reg: u,
                        is_def: false,
                    });
                }
            }
            match inst {
                Inst::Br { target }
                    if target.index() >= nblocks => {
                        return Err(VerifyError::BranchTargetOutOfRange {
                            func: func(),
                            block,
                            conditional: false,
                        });
                    }
                Inst::CondBr { then_blk, else_blk, .. }
                    if (then_blk.index() >= nblocks || else_blk.index() >= nblocks) => {
                        return Err(VerifyError::BranchTargetOutOfRange {
                            func: func(),
                            block,
                            conditional: true,
                        });
                    }
                Inst::Load { arr, .. } | Inst::Store { arr, .. }
                    if arr.index() >= m.arrays.len() => {
                        return Err(VerifyError::UndeclaredArray { func: func(), block, arr: *arr });
                    }
                Inst::Call { func: callee, .. } => {
                    let Some(target) = m.funcs.get(callee.index()) else {
                        return Err(VerifyError::CallToMissingFunc {
                            func: func(),
                            block,
                            callee: callee.0,
                        });
                    };
                    let args = f.call_args(inst).len();
                    if args != target.arity as usize {
                        return Err(VerifyError::CallArityMismatch {
                            func: func(),
                            block,
                            callee: m.name_of(target.name).to_string(),
                            args,
                            arity: target.arity,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    // Loop metadata: block ranges, parent chains, induction registers, and
    // — once the ranges are known good — header dominance over the body.
    for info in &f.loops {
        for b in [info.header, info.latch, info.exit] {
            if b.index() >= nblocks {
                return Err(VerifyError::LoopBlockOutOfRange { func: func(), l: info.id });
            }
        }
        for b in f.loop_body(info) {
            if b.index() >= nblocks {
                return Err(VerifyError::LoopBlockOutOfRange { func: func(), l: info.id });
            }
        }
        if let Some(iv) = info.induction {
            if iv.0 >= f.num_regs {
                return Err(VerifyError::InductionOutOfRange { func: func(), l: info.id, reg: iv });
            }
        }
        if let Some(p) = info.parent {
            if p.index() >= f.loops.len() {
                return Err(VerifyError::LoopParentOutOfRange { func: func(), l: info.id });
            }
            if f.loops[p.index()].depth + 1 != info.depth {
                return Err(VerifyError::LoopDepthInconsistent { func: func(), l: info.id });
            }
        } else if info.depth != 0 {
            return Err(VerifyError::LoopDepthInconsistent { func: func(), l: info.id });
        }
    }
    if !f.loops.is_empty() {
        let dom = Dominators::compute(&Cfg::new(f));
        for info in &f.loops {
            for b in f.loop_body(info).chain([info.latch]) {
                if !dom.dominates(info.header, b) {
                    return Err(VerifyError::HeaderDoesNotDominate {
                        func: func(),
                        l: info.id,
                        block: b,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Verify every function in the module plus module-level invariants
/// (unique names, non-empty arrays).
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let mut names = std::collections::HashSet::new();
    for f in &m.funcs {
        let name = m.name_of(f.name);
        if !names.insert(name) {
            return Err(VerifyError::DuplicateFunctionName { name: name.to_string() });
        }
    }
    let mut anames = std::collections::HashSet::new();
    for a in &m.arrays {
        let name = m.name_of(a.name);
        if a.len == 0 {
            return Err(VerifyError::ZeroLengthArray { name: name.to_string() });
        }
        if !anames.insert(name) {
            return Err(VerifyError::DuplicateArrayName { name: name.to_string() });
        }
    }
    for f in &m.funcs {
        verify_function(m, f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::module::{BlockId, Function, LoopInfo};
    use crate::types::{Ty, VReg};

    /// A one-block function named `name` in `m`, not yet added to it.
    fn named_fn(m: &mut Module, name: &str, insts: Vec<Inst>, operands: &[u32]) -> Function {
        let block = insts.into_iter().map(|i| (i, 1)).collect();
        Function::new(m.intern(name), 0, 4, vec![block], Vec::new(), &[], operands)
    }

    fn minimal_fn(m: &mut Module, insts: Vec<Inst>) -> Function {
        named_fn(m, "f", insts, &[])
    }

    /// `m` with one function of `insts` added.
    fn with_fn(mut m: Module, insts: Vec<Inst>) -> Module {
        let f = minimal_fn(&mut m, insts);
        m.funcs.push(f);
        m
    }

    #[test]
    fn accepts_minimal_function() {
        let m = with_fn(Module::new("t"), vec![Inst::Ret { val: None }]);
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_missing_terminator() {
        let m = with_fn(Module::new("t"), vec![Inst::Copy { dst: VReg(0), src: VReg(1) }]);
        let e = verify_module(&m).unwrap_err();
        assert!(matches!(e, VerifyError::MissingTerminator { .. }), "{e}");
        assert!(e.to_string().contains("missing terminator"), "{e}");
    }

    #[test]
    fn rejects_mid_block_terminator() {
        let m = with_fn(Module::new("t"), vec![Inst::Ret { val: None }, Inst::Ret { val: None }]);
        let e = verify_module(&m).unwrap_err();
        assert!(matches!(e, VerifyError::TerminatorMidBlock { idx: 0, .. }), "{e}");
    }

    #[test]
    fn rejects_register_out_of_range() {
        let m = with_fn(
            Module::new("t"),
            vec![Inst::Copy { dst: VReg(9), src: VReg(0) }, Inst::Ret { val: None }],
        );
        let e = verify_module(&m).unwrap_err();
        assert!(
            matches!(e, VerifyError::RegOutOfRange { reg: VReg(9), is_def: true, .. }),
            "{e}"
        );
        assert!(e.to_string().contains("out of range"), "{e}");
    }

    #[test]
    fn rejects_branch_out_of_range() {
        let m = with_fn(Module::new("t"), vec![Inst::Br { target: BlockId(5) }]);
        let e = verify_module(&m).unwrap_err();
        assert!(
            matches!(e, VerifyError::BranchTargetOutOfRange { conditional: false, .. }),
            "{e}"
        );
        assert!(e.to_string().contains("br target"), "{e}");
    }

    #[test]
    fn rejects_undeclared_array() {
        let m = with_fn(
            Module::new("t"),
            vec![
                Inst::Load { dst: VReg(0), arr: crate::types::ArrayId(0), idx: VReg(1) },
                Inst::Ret { val: None },
            ],
        );
        let e = verify_module(&m).unwrap_err();
        assert!(
            matches!(e, VerifyError::UndeclaredArray { arr: crate::types::ArrayId(0), .. }),
            "{e}"
        );
        assert!(e.to_string().contains("undeclared"), "{e}");
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = with_fn(Module::new("t"), vec![Inst::Ret { val: None }]); // callee arity 0
        let mut operands = Vec::new();
        let call = Inst::call(None, crate::module::FuncId(0), &[VReg(0)], &mut operands);
        let g = named_fn(&mut m, "g", vec![call, Inst::Ret { val: None }], &operands);
        m.funcs.push(g);
        let e = verify_module(&m).unwrap_err();
        assert!(matches!(e, VerifyError::CallArityMismatch { args: 1, arity: 0, .. }), "{e}");
        assert!(e.to_string().contains("call to f with 1 args, arity 0"), "{e}");
    }

    #[test]
    fn rejects_out_of_range_call_arguments() {
        let mut m = Module::new("t");
        let mut callee = named_fn(&mut m, "one", vec![Inst::Ret { val: None }], &[]);
        callee.arity = 1;
        m.funcs.push(callee);
        let mut operands = Vec::new();
        let call = Inst::call(None, crate::module::FuncId(0), &[VReg(7)], &mut operands);
        let g = named_fn(&mut m, "g", vec![call, Inst::Ret { val: None }], &operands);
        m.funcs.push(g);
        let e = verify_module(&m).unwrap_err();
        assert!(
            matches!(e, VerifyError::RegOutOfRange { reg: VReg(7), is_def: false, idx: 0, .. }),
            "{e}"
        );
    }

    #[test]
    fn rejects_duplicate_names_and_zero_arrays() {
        let m = with_fn(Module::new("t"), vec![Inst::Ret { val: None }]);
        let m = with_fn(m, vec![Inst::Ret { val: None }]);
        let e = verify_module(&m).unwrap_err();
        assert_eq!(e, VerifyError::DuplicateFunctionName { name: "f".into() });

        let mut m2 = Module::new("t");
        m2.add_array("a", Ty::F64, 0);
        assert!(matches!(verify_module(&m2).unwrap_err(), VerifyError::ZeroLengthArray { .. }));
        let mut m3 = Module::new("t");
        m3.add_array("a", Ty::F64, 1);
        m3.add_array("a", Ty::I64, 2);
        let e = verify_module(&m3).unwrap_err();
        assert_eq!(e, VerifyError::DuplicateArrayName { name: "a".into() });
    }

    #[test]
    fn rejects_out_of_range_induction() {
        let mut m = Module::new("t");
        let mut f = minimal_fn(&mut m, vec![Inst::Ret { val: None }]);
        f.loops = Box::new([LoopInfo {
            id: crate::module::LoopId(0),
            header: BlockId(0),
            body: 0..0,
            latch: BlockId(0),
            exit: BlockId(0),
            induction: Some(VReg(99)),
            parent: None,
            depth: 0,
            line_span: (1, 2),
        }]);
        m.funcs.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(matches!(e, VerifyError::InductionOutOfRange { reg: VReg(99), .. }), "{e}");
    }

    #[test]
    fn rejects_header_not_dominating_body() {
        // Block 0 (entry) branches straight to block 2 ("body"), bypassing
        // block 1 which the metadata claims is the loop header.
        let mut m = Module::new("t");
        let l = LoopInfo {
            id: crate::module::LoopId(0),
            header: BlockId(1),
            body: 0..1,
            latch: BlockId(2),
            exit: BlockId(2),
            induction: None,
            parent: None,
            depth: 0,
            line_span: (1, 3),
        };
        let blocks = vec![
            vec![(Inst::Br { target: BlockId(2) }, 1)],
            vec![(Inst::Br { target: BlockId(2) }, 2)],
            vec![(Inst::Ret { val: None }, 3)],
        ];
        let f = Function::new(m.intern("f"), 0, 1, blocks, vec![l], &[BlockId(2)], &[]);
        m.funcs.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(
            matches!(e, VerifyError::HeaderDoesNotDominate { block: BlockId(2), .. }),
            "{e}"
        );
    }

    #[test]
    fn builder_loops_satisfy_dominance() {
        use crate::inst::BinOp;
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let mut b = crate::FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(8), b.const_i64(1));
        b.for_loop(lo, hi, st, |b, i| {
            let x = b.load(a, i);
            let one = b.const_i64(1);
            let c = b.bin(BinOp::CmpLt, x, one);
            b.if_then(c, |b| {
                let y = b.bin(BinOp::Add, x, x);
                b.store(a, i, y);
            });
        });
        b.finish();
        verify_module(&m).unwrap();
    }
}
