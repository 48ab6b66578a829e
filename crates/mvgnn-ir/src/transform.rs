//! Semantics-preserving transformation passes.
//!
//! The paper augments its dataset by compiling every source file at six
//! different clang optimisation settings, yielding six structurally
//! different IR modules per kernel. We mirror that with six composable
//! pass pipelines ([`OptLevel`]): identity, constant folding, dead-code
//! elimination, local CSE, strength reduction, and canonicalisation +
//! register renaming. Each pass preserves observable behaviour (verified
//! by differential-execution property tests).

use crate::inst::{BinOp, Inst, InstRef, UnOp};
use crate::interp::{eval_bin, eval_un};
use crate::module::{BlockId, FuncId, Function, Module};
use crate::types::{VReg, Value};
use std::collections::HashMap;

/// The six augmentation pipelines (cumulative, like -O levels). The
/// derived `Ord` follows declaration order, so `O0 < O1 < … < O5`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No transformation.
    O0,
    /// Local constant folding.
    O1,
    /// O1 + dead code elimination.
    O2,
    /// O2 + local common-subexpression elimination.
    O3,
    /// O3 + strength reduction.
    O4,
    /// O4 + commutative canonicalisation and register renaming.
    O5,
}

impl OptLevel {
    /// All levels, in order.
    pub const ALL: [OptLevel; 6] =
        [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::O4, OptLevel::O5];
}

/// Apply the pipeline for `level` to every function, returning a new module.
pub fn optimize(m: &Module, level: OptLevel) -> Module {
    let mut out = m.clone();
    for f in &mut out.funcs {
        if level >= OptLevel::O1 {
            const_fold(f);
        }
        if level >= OptLevel::O2 {
            dce(f);
        }
        if level >= OptLevel::O3 {
            local_cse(f);
        }
        if level >= OptLevel::O4 {
            strength_reduce(f);
        }
        if level >= OptLevel::O5 {
            canonicalize_commutative(f);
            rename_registers(f);
        }
    }
    out
}

/// Registers whose value is known constant at a program point
/// (flow-insensitive kill: a register assigned more than once anywhere in
/// the function is never tracked — mutable accumulators stay symbolic).
fn multi_assigned(f: &Function) -> Vec<bool> {
    let mut def_count = vec![0u32; f.num_regs as usize];
    for d in f.insts().iter().filter_map(Inst::def) {
        def_count[d.index()] += 1;
    }
    // Parameters are defined at entry.
    for p in 0..f.arity {
        def_count[p as usize] += 1;
    }
    def_count.iter().map(|&c| c > 1).collect()
}

/// Fold `Bin`/`Un` over single-assignment constant registers.
pub fn const_fold(f: &mut Function) {
    let multi = multi_assigned(f);
    let mut known: HashMap<VReg, Value> = HashMap::new();
    // Constants are single-assignment registers defined by Const.
    for inst in f.insts() {
        if let (Some(d), Some(v)) = (inst.def(), inst.const_value()) {
            if !multi[d.index()] {
                known.insert(d, v);
            }
        }
    }
    let dummy = InstRef { func: FuncId(0), block: BlockId(0), idx: 0 };
    // Iterate to a fixed point: folding creates new constants.
    loop {
        let mut changed = false;
        for inst in f.insts_mut() {
            let replacement = match inst {
                Inst::Bin { op, dst, lhs, rhs } if !multi[dst.index()] => {
                    match (known.get(lhs), known.get(rhs)) {
                        (Some(&a), Some(&b)) => {
                            eval_bin(*op, a, b, dummy).ok().map(|v| (*dst, v))
                        }
                        _ => None,
                    }
                }
                Inst::Un { op, dst, src } if !multi[dst.index()] => {
                    known.get(src).and_then(|&a| eval_un(*op, a, dummy).ok().map(|v| (*dst, v)))
                }
                Inst::Copy { dst, src } if !multi[dst.index()] => {
                    known.get(src).map(|&v| (*dst, v))
                }
                _ => None,
            };
            if let Some((dst, v)) = replacement {
                *inst = Inst::constant(dst, v);
                if known.insert(dst, v).is_none() {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Remove pure instructions whose destination is never read anywhere.
/// Loads count as pure (dead loads are legal to drop, as compilers do);
/// stores, calls and terminators are always kept.
pub fn dce(f: &mut Function) {
    loop {
        let mut read = vec![false; f.num_regs as usize];
        for u in f.insts().iter().flat_map(|i| f.uses(i)) {
            read[u.index()] = true;
        }
        let live = |inst: &Inst| match inst {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. } => read[dst.index()],
            _ => true,
        };
        if f.insts().iter().all(live) {
            break;
        }
        f.retain(live);
    }
}

/// Local (per-block) common-subexpression elimination over `Bin`/`Un`.
/// Available expressions are invalidated when any input register or the
/// holding register is redefined. Loads are not CSE'd (stores or calls
/// could change memory between them).
pub fn local_cse(f: &mut Function) {
    for b in 0..f.num_blocks() as u32 {
        #[derive(PartialEq, Eq, Hash, Clone)]
        enum Expr {
            Bin(BinOp, VReg, VReg),
            Un(UnOp, VReg),
        }
        let mut avail: HashMap<Expr, VReg> = HashMap::new();
        let range = f.block_range(BlockId(b));
        for inst in &mut f.insts_mut()[range] {
            let def = inst.def();
            let new_inst = match inst {
                Inst::Bin { op, dst, lhs, rhs } => {
                    let key = Expr::Bin(*op, *lhs, *rhs);
                    match avail.get(&key) {
                        Some(&prev) if prev != *dst => {
                            Some(Inst::Copy { dst: *dst, src: prev })
                        }
                        _ => {
                            avail.insert(key, *dst);
                            None
                        }
                    }
                }
                Inst::Un { op, dst, src } => {
                    let key = Expr::Un(*op, *src);
                    match avail.get(&key) {
                        Some(&prev) if prev != *dst => {
                            Some(Inst::Copy { dst: *dst, src: prev })
                        }
                        _ => {
                            avail.insert(key, *dst);
                            None
                        }
                    }
                }
                _ => None,
            };
            if let Some(n) = new_inst {
                *inst = n;
            }
            if let Some(d) = def {
                // Any expression mentioning d (as input or output) dies.
                avail.retain(|k, &mut v| {
                    v != d
                        && match k {
                            Expr::Bin(_, a, b) => *a != d && *b != d,
                            Expr::Un(_, a) => *a != d,
                        }
                });
            }
        }
    }
}

/// Replace `mul`/`div` by power-of-two constants with shifts (i64 only).
pub fn strength_reduce(f: &mut Function) {
    let multi = multi_assigned(f);
    let mut known: HashMap<VReg, i64> = HashMap::new();
    for inst in f.insts() {
        if let (Some(d), Some(Value::I64(v))) = (inst.def(), inst.const_value()) {
            if !multi[d.index()] {
                known.insert(d, v);
            }
        }
    }
    let log2_of = |r: &VReg| -> Option<i64> {
        known.get(r).copied().filter(|&v| v > 0 && v.count_ones() == 1).map(|v| v.trailing_zeros() as i64)
    };
    // A shift-amount constant register must exist; reuse the power-of-two
    // register itself is wrong, so we rewrite only when the shift amount
    // equals an existing known constant register. To keep the pass simple
    // and always applicable we instead encode `x * 2^k` as `x << k` with a
    // fresh Const prepended in the same block.
    let mut consts = Vec::new();
    let mut num_regs = f.num_regs;
    for (i, inst) in f.insts_mut().iter_mut().enumerate() {
        let rewrite = match &*inst {
            Inst::Bin { op: BinOp::Mul, dst, lhs, rhs } => {
                if let Some(k) = log2_of(rhs) {
                    Some((*dst, *lhs, k, BinOp::Shl))
                } else {
                    log2_of(lhs).map(|k| (*dst, *rhs, k, BinOp::Shl))
                }
            }
            Inst::Bin { op: BinOp::Div, dst, lhs, rhs } => {
                // x / 2^k == x >> k only for non-negative x; we cannot
                // prove sign here, so only k == 0 (divide by one) folds.
                log2_of(rhs).filter(|&k| k == 0).map(|_| (*dst, *lhs, 0, BinOp::Shl))
            }
            _ => None,
        };
        if let Some((dst, src, k, op)) = rewrite {
            let kreg = VReg(num_regs);
            num_regs += 1;
            *inst = Inst::Bin { op, dst, lhs: src, rhs: kreg };
            consts.push((i, Inst::constant(kreg, Value::I64(k))));
        }
    }
    f.num_regs = num_regs;
    f.insert_before(consts);
}

/// Order the operands of commutative integer-safe ops by register index.
pub fn canonicalize_commutative(f: &mut Function) {
    for inst in f.insts_mut() {
        if let Inst::Bin { op, lhs, rhs, .. } = inst {
            if op.is_commutative() && lhs.0 > rhs.0 {
                std::mem::swap(lhs, rhs);
            }
        }
    }
}

/// Apply a behaviour-preserving register permutation: parameters keep their
/// slots, the remaining registers are reversed. Loop induction metadata is
/// remapped alongside.
pub fn rename_registers(f: &mut Function) {
    let arity = f.arity;
    let n = f.num_regs;
    let map = |r: VReg| -> VReg {
        if r.0 < arity {
            r
        } else {
            VReg(arity + (n - 1 - r.0))
        }
    };
    for inst in f.insts_mut() {
        match inst {
            Inst::Const { dst, .. } => *dst = map(*dst),
            Inst::Copy { dst, src } => {
                *dst = map(*dst);
                *src = map(*src);
            }
            Inst::Bin { dst, lhs, rhs, .. } => {
                *dst = map(*dst);
                *lhs = map(*lhs);
                *rhs = map(*rhs);
            }
            Inst::Un { dst, src, .. } => {
                *dst = map(*dst);
                *src = map(*src);
            }
            Inst::Load { dst, idx, .. } => {
                *dst = map(*dst);
                *idx = map(*idx);
            }
            Inst::Store { idx, src, .. } => {
                *idx = map(*idx);
                *src = map(*src);
            }
            Inst::Call { has_dst, dst, .. } => {
                if *has_dst {
                    *dst = map(*dst);
                }
            }
            Inst::CondBr { cond, .. } => *cond = map(*cond),
            Inst::Ret { val } => {
                if let Some(v) = val {
                    *v = map(*v);
                }
            }
            Inst::Br { .. } => {}
        }
    }
    f.map_call_args(map);
    for info in &mut f.loops {
        if let Some(iv) = &mut info.induction {
            *iv = map(*iv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::{Interpreter, NoTracer};
    use crate::types::Ty;
    use crate::verify::verify_module;

    #[test]
    fn opt_levels_order_by_declaration() {
        // `ALL` is declared lowest-to-highest; the derived Ord must agree,
        // and PartialOrd must be total and consistent with it.
        for w in OptLevel::ALL.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
        for &a in &OptLevel::ALL {
            for &b in &OptLevel::ALL {
                assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
            }
        }
    }

    /// A kernel mixing constants, redundancy and dead code so every pass
    /// has something to do.
    fn busy_module() -> Module {
        let mut m = Module::new("busy");
        let a = m.add_array("a", Ty::I64, 32);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(32);
        let step = b.const_i64(1);
        let four = b.const_i64(4);
        let five = b.const_i64(5);
        let nine = b.bin(BinOp::Add, four, five); // foldable
        let _dead = b.bin(BinOp::Mul, nine, nine); // dead
        let acc = b.const_i64(0);
        b.for_loop(lo, hi, step, |b, iv| {
            let x = b.bin(BinOp::Mul, iv, four); // strength-reducible
            let y = b.bin(BinOp::Mul, iv, four); // CSE-able
            let s = b.bin(BinOp::Add, x, y);
            b.store(a, iv, s);
            b.bin_to(acc, BinOp::Add, acc, s);
        });
        b.ret(Some(acc));
        b.finish();
        m
    }

    fn run_main(m: &Module) -> (Option<Value>, Vec<Value>) {
        let f = m.func_by_name("main").unwrap();
        let interp = Interpreter::new(m);
        let mut mem = interp.fresh_memory();
        let (ret, _) = interp.run_with_memory(f, &[], &mut mem, &mut NoTracer).unwrap();
        (ret, mem.into_iter().flatten().collect())
    }

    #[test]
    fn every_level_preserves_behaviour() {
        let m = busy_module();
        let (ret0, mem0) = run_main(&m);
        for level in OptLevel::ALL {
            let opt = optimize(&m, level);
            verify_module(&opt).unwrap_or_else(|e| panic!("{level:?}: {e}"));
            let (ret, mem) = run_main(&opt);
            assert_eq!(ret, ret0, "{level:?} changed return value");
            assert_eq!(mem, mem0, "{level:?} changed memory");
        }
    }

    #[test]
    fn const_fold_folds_add() {
        let m = busy_module();
        let opt = optimize(&m, OptLevel::O1);
        let f = &opt.funcs[0];
        // The add of two constants must now be a Const 9.
        let folded =
            f.insts().iter().any(|i| i.const_value() == Some(Value::I64(9)));
        assert!(folded, "expected folded constant 9");
    }

    #[test]
    fn dce_removes_dead_mul() {
        let m = busy_module();
        let before = m.funcs[0].inst_count();
        let opt = optimize(&m, OptLevel::O2);
        let after = opt.funcs[0].inst_count();
        assert!(after < before, "DCE should strictly shrink ({before} -> {after})");
    }

    #[test]
    fn cse_introduces_copy() {
        let m = busy_module();
        let opt = optimize(&m, OptLevel::O3);
        let f = &opt.funcs[0];
        let has_copy_of_mul = f.insts().iter().any(|i| matches!(i, Inst::Copy { .. }));
        assert!(has_copy_of_mul, "expected a CSE copy");
    }

    #[test]
    fn strength_reduction_makes_shifts() {
        let m = busy_module();
        let opt = optimize(&m, OptLevel::O4);
        let f = &opt.funcs[0];
        let has_shl = f.insts().iter().any(|i| matches!(i, Inst::Bin { op: BinOp::Shl, .. }));
        assert!(has_shl, "expected mul-by-4 to become a shift");
    }

    #[test]
    fn levels_produce_distinct_token_streams() {
        // Augmentation only helps if the variants differ.
        let m = busy_module();
        let streams: Vec<Vec<String>> = OptLevel::ALL
            .iter()
            .map(|&l| {
                let f = &optimize(&m, l).funcs[0];
                f.insts().iter().map(|i| crate::text::print_inst(f, i)).collect()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = streams.iter().collect();
        assert!(distinct.len() >= 4, "expected ≥4 distinct variants, got {}", distinct.len());
    }

    #[test]
    fn rename_keeps_fib_correct() {
        let mut m = Module::new("t");
        let fib_id = FuncId(0);
        let mut b = FunctionBuilder::new(&mut m, "main", 1);
        let nreg = b.param(0);
        let two = b.const_i64(2);
        let c = b.bin(BinOp::CmpLt, nreg, two);
        let result = b.const_i64(0);
        b.if_else(
            c,
            |b| b.copy_to(result, nreg),
            |b| {
                let one = b.const_i64(1);
                let n1 = b.bin(BinOp::Sub, nreg, one);
                let r1 = b.call(fib_id, &[n1]);
                let n2 = b.bin(BinOp::Sub, nreg, two);
                let r2 = b.call(fib_id, &[n2]);
                let s = b.bin(BinOp::Add, r1, r2);
                b.copy_to(result, s);
            },
        );
        b.ret(Some(result));
        b.finish();
        let opt = optimize(&m, OptLevel::O5);
        verify_module(&opt).unwrap();
        let f = FuncId(0);
        let i1 = Interpreter::new(&m);
        let i2 = Interpreter::new(&opt);
        for n in [0i64, 1, 5, 10] {
            let r1 = i1.run(f, &[Value::I64(n)], &mut NoTracer).unwrap().0;
            let r2 = i2.run(f, &[Value::I64(n)], &mut NoTracer).unwrap().0;
            assert_eq!(r1, r2, "fib({n}) diverged after O5");
        }
    }
}
