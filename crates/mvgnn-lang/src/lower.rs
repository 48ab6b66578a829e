//! Lowering from the AST onto the `mvgnn-ir` structured builder.
//!
//! Scalar accumulators are lowered *in place* (`s = s + x;` becomes a
//! `Bin` whose destination is also an operand), preserving the register
//! self-update pattern the profiler's reduction recognition keys on.

use crate::ast::{BinaryOp, Expr, Item, Program, Stmt};
use mvgnn_ir::inst::{BinOp, UnOp};
use mvgnn_ir::module::{FuncId, Module};
use mvgnn_ir::types::{ArrayId, Ty, VReg};
use mvgnn_ir::FunctionBuilder;
use std::collections::HashMap;

/// Lowering failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(msg: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError(msg.into()))
}

struct Ctx {
    arrays: HashMap<String, ArrayId>,
    funcs: HashMap<String, (FuncId, usize)>,
}

/// Lower a parsed program to an IR module.
pub fn lower(program: &Program) -> Result<Module, LowerError> {
    let mut module = Module::new("lang");
    let mut ctx = Ctx { arrays: HashMap::new(), funcs: HashMap::new() };

    // Pass 1: declare arrays and function signatures (enables recursion
    // and forward references).
    let mut next_fn = 0u32;
    for item in &program.items {
        match item {
            Item::Array { name, len, is_float } => {
                if ctx.arrays.contains_key(name) {
                    return err(format!("duplicate array `{name}`"));
                }
                let ty = if *is_float { Ty::F64 } else { Ty::I64 };
                let id = module.add_array(name, ty, *len);
                ctx.arrays.insert(name.clone(), id);
            }
            Item::Function { name, params, .. } => {
                if ctx.funcs.contains_key(name) {
                    return err(format!("duplicate function `{name}`"));
                }
                ctx.funcs.insert(name.clone(), (FuncId(next_fn), params.len()));
                next_fn += 1;
            }
        }
    }

    // Pass 2: lower bodies in declaration order (FuncIds line up).
    for item in &program.items {
        let Item::Function { name, params, body } = item else { continue };
        let mut b = FunctionBuilder::new(&mut module, name, params.len() as u32);
        let mut vars: HashMap<String, VReg> = HashMap::new();
        for (i, p) in params.iter().enumerate() {
            vars.insert(p.clone(), b.param(i as u32));
        }
        let terminated = lower_block(&mut b, &ctx, &mut vars, body)?;
        if !terminated {
            b.ret(None);
        }
        let got = b.finish();
        debug_assert_eq!(Some(&(got, params.len())), ctx.funcs.get(name));
    }
    Ok(module)
}

/// Lower a statement list; returns `true` if it ended in a `return`.
fn lower_block(
    b: &mut FunctionBuilder<'_>,
    ctx: &Ctx,
    vars: &mut HashMap<String, VReg>,
    stmts: &[Stmt],
) -> Result<bool, LowerError> {
    for (i, stmt) in stmts.iter().enumerate() {
        match stmt {
            Stmt::Let(name, e) => {
                let r = lower_expr(b, ctx, vars, e)?;
                // Pin `let` bindings to their own register so later
                // in-place updates don't alias the initialiser chain.
                let owned = b.copy(r);
                vars.insert(name.clone(), owned);
                b.next_line();
            }
            Stmt::Assign(name, e) => {
                let Some(&dst) = vars.get(name) else {
                    return err(format!("assignment to undeclared variable `{name}`"));
                };
                // In-place accumulator forms keep the self-update shape.
                if let Expr::Binary(op, lhs, rhs) = e {
                    if let Some(binop) = arith_op(*op) {
                        let self_on_left = matches!(&**lhs, Expr::Var(v) if v == name);
                        let self_on_right = matches!(&**rhs, Expr::Var(v) if v == name);
                        if self_on_left || self_on_right {
                            let lr = lower_expr(b, ctx, vars, lhs)?;
                            let rr = lower_expr(b, ctx, vars, rhs)?;
                            b.bin_to(dst, binop, lr, rr);
                            b.next_line();
                            continue;
                        }
                    }
                }
                let r = lower_expr(b, ctx, vars, e)?;
                b.copy_to(dst, r);
                b.next_line();
            }
            Stmt::Store(arr, idx, val) => {
                let Some(&a) = ctx.arrays.get(arr) else {
                    return err(format!("store to undeclared array `{arr}`"));
                };
                let i = lower_expr(b, ctx, vars, idx)?;
                let v = lower_expr(b, ctx, vars, val)?;
                b.store(a, i, v);
                b.next_line();
            }
            Stmt::For { var, lo, hi, body } => {
                let lo_r = lower_expr(b, ctx, vars, lo)?;
                let hi_r = lower_expr(b, ctx, vars, hi)?;
                let step = b.const_i64(1);
                let shadow = vars.get(var).copied();
                let mut inner_err = None;
                b.for_loop(lo_r, hi_r, step, |b, iv| {
                    vars.insert(var.clone(), iv);
                    if let Err(e) = lower_block(b, ctx, vars, body) {
                        inner_err = Some(e);
                    }
                });
                if let Some(e) = inner_err {
                    return Err(e);
                }
                match shadow {
                    Some(old) => vars.insert(var.clone(), old),
                    None => vars.remove(var),
                };
            }
            Stmt::While(cond, body) => {
                // Both closures need the variable map and the error slot;
                // route them through RefCells (the builder invokes the
                // closures sequentially, so borrows never overlap).
                let vars_cell = std::cell::RefCell::new(std::mem::take(vars));
                let err_cell: std::cell::RefCell<Option<LowerError>> =
                    std::cell::RefCell::new(None);
                b.while_loop(
                    |b| {
                        let v = vars_cell.borrow();
                        match lower_expr(b, ctx, &v, cond) {
                            Ok(r) => r,
                            Err(e) => {
                                *err_cell.borrow_mut() = Some(e);
                                drop(v);
                                b.const_i64(0)
                            }
                        }
                    },
                    |b| {
                        if err_cell.borrow().is_none() {
                            let mut v = vars_cell.borrow_mut();
                            if let Err(e) = lower_block(b, ctx, &mut v, body) {
                                *err_cell.borrow_mut() = Some(e);
                            }
                        }
                    },
                );
                *vars = vars_cell.into_inner();
                if let Some(e) = err_cell.into_inner() {
                    return Err(e);
                }
            }
            Stmt::If(cond, then, els) => {
                let c = lower_expr(b, ctx, vars, cond)?;
                let vars_cell = std::cell::RefCell::new(std::mem::take(vars));
                let err_cell: std::cell::RefCell<Option<LowerError>> =
                    std::cell::RefCell::new(None);
                b.if_else(
                    c,
                    |b| {
                        let mut v = vars_cell.borrow_mut();
                        if let Err(e) = lower_block(b, ctx, &mut v, then) {
                            *err_cell.borrow_mut() = Some(e);
                        }
                    },
                    |b| {
                        if err_cell.borrow().is_none() {
                            let mut v = vars_cell.borrow_mut();
                            if let Err(e) = lower_block(b, ctx, &mut v, els) {
                                *err_cell.borrow_mut() = Some(e);
                            }
                        }
                    },
                );
                *vars = vars_cell.into_inner();
                if let Some(e) = err_cell.into_inner() {
                    return Err(e);
                }
            }
            Stmt::Return(val) => {
                let r = match val {
                    Some(e) => Some(lower_expr(b, ctx, vars, e)?),
                    None => None,
                };
                b.ret(r);
                if i + 1 != stmts.len() {
                    return err("unreachable code after `return`");
                }
                return Ok(true);
            }
            Stmt::Expr(e) => {
                // Only calls make sense for effect; evaluate anything.
                if let Expr::Call(name, args) = e {
                    let (f, arity) = *ctx
                        .funcs
                        .get(name)
                        .ok_or_else(|| LowerError(format!("call to undeclared function `{name}`")))?;
                    if args.len() != arity {
                        return err(format!(
                            "call to `{name}` with {} args, expected {arity}",
                            args.len()
                        ));
                    }
                    let mut regs = Vec::with_capacity(args.len());
                    for a in args {
                        regs.push(lower_expr(b, ctx, vars, a)?);
                    }
                    b.call_void(f, &regs);
                } else {
                    let _ = lower_expr(b, ctx, vars, e)?;
                }
                b.next_line();
            }
        }
    }
    Ok(false)
}

fn arith_op(op: BinaryOp) -> Option<BinOp> {
    Some(match op {
        BinaryOp::Add => BinOp::Add,
        BinaryOp::Sub => BinOp::Sub,
        BinaryOp::Mul => BinOp::Mul,
        BinaryOp::Div => BinOp::Div,
        BinaryOp::Rem => BinOp::Rem,
        _ => return None,
    })
}

fn lower_expr(
    b: &mut FunctionBuilder<'_>,
    ctx: &Ctx,
    vars: &HashMap<String, VReg>,
    e: &Expr,
) -> Result<VReg, LowerError> {
    Ok(match e {
        Expr::Int(n) => b.const_i64(*n),
        Expr::Float(x) => b.const_f64(*x),
        Expr::Var(name) => *vars
            .get(name)
            .ok_or_else(|| LowerError(format!("use of undeclared variable `{name}`")))?,
        Expr::Index(arr, idx) => {
            let a = *ctx
                .arrays
                .get(arr)
                .ok_or_else(|| LowerError(format!("read of undeclared array `{arr}`")))?;
            let i = lower_expr(b, ctx, vars, idx)?;
            b.load(a, i)
        }
        Expr::Call(name, args) => {
            let (f, arity) = *ctx
                .funcs
                .get(name)
                .ok_or_else(|| LowerError(format!("call to undeclared function `{name}`")))?;
            if args.len() != arity {
                return err(format!("call to `{name}` with {} args, expected {arity}", args.len()));
            }
            let mut regs = Vec::with_capacity(args.len());
            for a in args {
                regs.push(lower_expr(b, ctx, vars, a)?);
            }
            b.call(f, &regs)
        }
        Expr::Neg(inner) => {
            let r = lower_expr(b, ctx, vars, inner)?;
            b.un(UnOp::Neg, r)
        }
        Expr::Binary(op, lhs, rhs) => {
            let (binop, swap) = match op {
                BinaryOp::Add => (BinOp::Add, false),
                BinaryOp::Sub => (BinOp::Sub, false),
                BinaryOp::Mul => (BinOp::Mul, false),
                BinaryOp::Div => (BinOp::Div, false),
                BinaryOp::Rem => (BinOp::Rem, false),
                BinaryOp::Eq => (BinOp::CmpEq, false),
                BinaryOp::Ne => (BinOp::CmpNe, false),
                BinaryOp::Lt => (BinOp::CmpLt, false),
                BinaryOp::Le => (BinOp::CmpLe, false),
                BinaryOp::Gt => (BinOp::CmpLt, true),
                BinaryOp::Ge => (BinOp::CmpLe, true),
            };
            let l = lower_expr(b, ctx, vars, lhs)?;
            let r = lower_expr(b, ctx, vars, rhs)?;
            if swap {
                b.bin(binop, r, l)
            } else {
                b.bin(binop, l, r)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use mvgnn_ir::interp::{Interpreter, NoTracer};
    use mvgnn_ir::types::Value;
    use mvgnn_profiler::{classify_loop, profile_module, LoopClass};

    #[test]
    fn compiles_and_runs_arithmetic() {
        let m = compile("fn main() { let x = 2 + 3 * 4; return x; }").unwrap();
        let f = m.func_by_name("main").unwrap();
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::I64(14)));
    }

    #[test]
    fn for_loop_fills_array() {
        let m = compile(
            "array a[8]: i64; fn main() { for i in 0..8 { a[i] = i * 2; } return a[7]; }",
        )
        .unwrap();
        let f = m.func_by_name("main").unwrap();
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::I64(14)));
    }

    #[test]
    fn scalar_accumulator_classifies_as_reduction() {
        let m = compile(
            "array a[16]: f64;
             fn main() {
                 let s = 0.0;
                 for i in 0..16 { s = s + a[i]; }
                 return s;
             }",
        )
        .unwrap();
        let f = m.func_by_name("main").unwrap();
        let res = profile_module(&m, f, &[]).unwrap();
        let l = mvgnn_ir::module::LoopId(0);
        assert_eq!(classify_loop(&m, f, l, &res.deps), LoopClass::Reduction);
    }

    #[test]
    fn in_place_stencil_classifies_as_serial() {
        let m = compile(
            "array a[18]: f64;
             fn main() {
                 for i in 1..17 { a[i] = a[i - 1] + a[i + 1]; }
             }",
        )
        .unwrap();
        let f = m.func_by_name("main").unwrap();
        let res = profile_module(&m, f, &[]).unwrap();
        let l = mvgnn_ir::module::LoopId(0);
        assert!(!classify_loop(&m, f, l, &res.deps).is_parallelizable());
    }

    #[test]
    fn out_of_place_map_classifies_as_doall() {
        let m = compile(
            "array a[16]: f64; array b[16]: f64;
             fn main() { for i in 0..16 { b[i] = a[i] * a[i]; } }",
        )
        .unwrap();
        let f = m.func_by_name("main").unwrap();
        let res = profile_module(&m, f, &[]).unwrap();
        assert_eq!(
            classify_loop(&m, f, mvgnn_ir::module::LoopId(0), &res.deps),
            LoopClass::DoAll
        );
    }

    #[test]
    fn recursion_via_forward_reference() {
        let m = compile(
            "fn fib(n) {
                 if (n < 2) { return n; }
                 return fib(n - 1) + fib(n - 2);
             }
             fn main() { return fib(10); }",
        )
        .unwrap();
        let f = m.func_by_name("main").unwrap();
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::I64(55)));
    }

    #[test]
    fn while_and_comparison_directions() {
        let m = compile(
            "fn main() {
                 let n = 100;
                 let steps = 0;
                 while (n > 1) {
                     if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                     steps = steps + 1;
                 }
                 return steps;
             }",
        )
        .unwrap();
        let f = m.func_by_name("main").unwrap();
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::I64(25))); // Collatz(100) = 25 steps
    }

    #[test]
    fn nested_loops_get_loop_metadata() {
        let m = compile(
            "array a[16]: f64;
             fn main() {
                 for i in 0..4 { for j in 0..4 { a[i * 4 + j] = 1.0; } }
             }",
        )
        .unwrap();
        assert_eq!(m.loop_count(), 2);
        let f = m.func_by_name("main").unwrap();
        let fun = &m.funcs[f.index()];
        assert_eq!(fun.loops[1].parent, Some(mvgnn_ir::module::LoopId(0)));
        assert_eq!(fun.loops[1].depth, 1);
    }

    #[test]
    fn errors_on_undeclared_names() {
        assert!(compile("fn main() { x = 3; }").is_err());
        assert!(compile("fn main() { let x = y; }").is_err());
        assert!(compile("fn main() { a[0] = 1; }").is_err());
        assert!(compile("fn main() { g(); }").is_err());
        assert!(compile("fn g(x) {} fn main() { g(); }").is_err()); // arity
    }

    #[test]
    fn errors_on_unreachable_code() {
        let e = compile("fn main() { return 1; let x = 2; }").unwrap_err();
        assert!(e.to_string().contains("unreachable"), "{e}");
    }

    #[test]
    fn loop_variable_shadowing_restores() {
        let m = compile(
            "array a[4]: i64;
             fn main() {
                 let i = 99;
                 for i in 0..4 { a[i] = i; }
                 return i;
             }",
        )
        .unwrap();
        let f = m.func_by_name("main").unwrap();
        let (ret, _) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(ret, Some(Value::I64(99)));
    }
}
