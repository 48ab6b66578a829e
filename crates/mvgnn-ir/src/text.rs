//! Textual form of the IR: a line-oriented printer and parser.
//!
//! The format is stable enough to round-trip every module the builder can
//! produce, which the property tests in the dataset crate rely on. Example:
//!
//! ```text
//! module "kernel"
//! array @0 "a" f64 16
//! func f0 "main" arity 0 regs 6
//!   block b0
//!     %0 = const i64 0            ; line 1
//!     br b1                       ; line 1
//!   block b1
//!     ret                         ; line 2
//!   loop l0 header b1 latch b2 exit b3 body [b1 b2] iv %3 parent none depth 0 span 2 7
//! endfunc
//! ```

use crate::inst::{BinOp, Inst, UnOp};
use crate::module::{BlockId, FuncId, Function, LoopId, LoopInfo, Module, NameId};
use crate::types::{ArrayId, Ty, VReg, Value};
use std::fmt::Write as _;

/// Render a module to its textual form.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "module {:?}", m.name);
    for (i, a) in m.arrays.iter().enumerate() {
        let _ = writeln!(s, "array @{} {:?} {} {}", i, m.name_of(a.name), a.ty, a.len);
    }
    for (fi, f) in m.funcs.iter().enumerate() {
        let name = m.name_of(f.name);
        let _ = writeln!(s, "func f{} {:?} arity {} regs {}", fi, name, f.arity, f.num_regs);
        for (bi, blk) in f.blocks().enumerate() {
            let _ = writeln!(s, "  block b{bi}");
            for (inst, line) in blk.insts.iter().zip(blk.lines()) {
                let _ = writeln!(s, "    {} ; line {}", print_inst(f, inst), line);
            }
        }
        for info in &f.loops {
            let body: Vec<String> = f.loop_body(info).map(|b| format!("b{}", b.0)).collect();
            let iv = match info.induction {
                Some(r) => format!("%{}", r.0),
                None => "none".into(),
            };
            let parent = match info.parent {
                Some(p) => format!("l{}", p.0),
                None => "none".into(),
            };
            let _ = writeln!(
                s,
                "  loop l{} header b{} latch b{} exit b{} body [{}] iv {} parent {} depth {} span {} {}",
                info.id.0,
                info.header.0,
                info.latch.0,
                info.exit.0,
                body.join(" "),
                iv,
                parent,
                info.depth,
                info.line_span.0,
                info.line_span.1
            );
        }
        let _ = writeln!(s, "endfunc");
    }
    s
}

fn print_value(v: Value) -> String {
    match v {
        Value::I64(x) => format!("i64 {x}"),
        Value::F64(x) => format!("f64 {x:?}"),
    }
}

/// Render one instruction of `f` (without line comment).
pub fn print_inst(f: &Function, inst: &Inst) -> String {
    match inst {
        Inst::Const { dst, ty, bits } => {
            format!("%{} = const {}", dst.0, print_value(Value::from_bits(*ty, *bits)))
        }
        Inst::Copy { dst, src } => format!("%{} = copy %{}", dst.0, src.0),
        Inst::Bin { op, dst, lhs, rhs } => {
            format!("%{} = {} %{} %{}", dst.0, op.mnemonic(), lhs.0, rhs.0)
        }
        Inst::Un { op, dst, src } => format!("%{} = {} %{}", dst.0, op.mnemonic(), src.0),
        Inst::Load { dst, arr, idx } => format!("%{} = load @{}[%{}]", dst.0, arr.0, idx.0),
        Inst::Store { arr, idx, src } => format!("store @{}[%{}] %{}", arr.0, idx.0, src.0),
        Inst::Call { func, .. } => {
            let a: Vec<String> = f.call_args(inst).map(|r| format!("%{}", r.0)).collect();
            match inst.def() {
                Some(d) => format!("%{} = call f{}({})", d.0, func.0, a.join(", ")),
                None => format!("call f{}({})", func.0, a.join(", ")),
            }
        }
        Inst::Br { target } => format!("br b{}", target.0),
        Inst::CondBr { cond, then_blk, else_blk } => {
            format!("condbr %{} b{} b{}", cond.0, then_blk.0, else_blk.0)
        }
        Inst::Ret { val } => match val {
            Some(v) => format!("ret %{}", v.0),
            None => "ret".to_string(),
        },
    }
}

/// Parse failure with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line in the textual form.
    pub line: usize,
    /// Description of the failure.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    toks: Vec<&'a str>,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str, line: usize) -> Self {
        // Strip a trailing `; line N` comment into a pseudo-token stream.
        Self { toks: s.split_whitespace().collect(), pos: 0, line }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { line: self.line, msg: msg.into() }
    }

    fn next(&mut self) -> Result<&'a str, ParseError> {
        let t = self.toks.get(self.pos).copied().ok_or_else(|| self.err("unexpected end of line"))?;
        self.pos += 1;
        Ok(t)
    }

    fn peek(&self) -> Option<&'a str> {
        self.toks.get(self.pos).copied()
    }

    fn expect(&mut self, tok: &str) -> Result<(), ParseError> {
        let t = self.next()?;
        if t == tok {
            Ok(())
        } else {
            Err(self.err(format!("expected `{tok}`, found `{t}`")))
        }
    }

    fn prefixed_u32(&mut self, prefix: char) -> Result<u32, ParseError> {
        let t = self.next()?;
        let body = t
            .strip_prefix(prefix)
            .ok_or_else(|| self.err(format!("expected `{prefix}…`, found `{t}`")))?;
        let clean = body.trim_end_matches([',', ')', ']']);
        clean.parse().map_err(|_| self.err(format!("bad index in `{t}`")))
    }

    fn u32(&mut self) -> Result<u32, ParseError> {
        let t = self.next()?;
        t.parse().map_err(|_| self.err(format!("expected integer, found `{t}`")))
    }

    fn quoted(&mut self) -> Result<&'a str, ParseError> {
        let t = self.next()?;
        if t.len() >= 2 && t.starts_with('"') && t.ends_with('"') {
            Ok(&t[1..t.len() - 1])
        } else {
            Err(self.err(format!("expected quoted string, found `{t}`")))
        }
    }
}

/// One instruction line; a call's arguments join `operands`.
fn parse_inst_line(
    line: &str,
    lineno: usize,
    operands: &mut Vec<u32>,
) -> Result<(Inst, u32), ParseError> {
    let (code, comment) = match line.split_once(';') {
        Some((c, rest)) => (c.trim(), rest.trim()),
        None => (line.trim(), ""),
    };
    let src_line: u32 = comment
        .strip_prefix("line")
        .map(|n| n.trim().parse().unwrap_or(0))
        .unwrap_or(0);
    let mut c = Cursor::new(code, lineno);
    let first = c.next()?;
    let inst = if let Some(dst) = first.strip_prefix('%') {
        let dst = VReg(dst.parse().map_err(|_| c.err("bad register"))?);
        c.expect("=")?;
        let op = c.next()?;
        match op {
            "const" => {
                let ty = c.next()?;
                let lit = c.next()?;
                let value = match ty {
                    "i64" => Value::I64(lit.parse().map_err(|_| c.err("bad i64"))?),
                    "f64" => Value::F64(lit.parse().map_err(|_| c.err("bad f64"))?),
                    other => return Err(c.err(format!("unknown type `{other}`"))),
                };
                Inst::constant(dst, value)
            }
            "copy" => Inst::Copy { dst, src: VReg(c.prefixed_u32('%')?) },
            "load" => {
                // load @A[%i]
                let t = c.next()?;
                let (arr, idx) = parse_mem_operand(t).ok_or_else(|| c.err("bad load operand"))?;
                Inst::Load { dst, arr, idx }
            }
            "call" => parse_call_tail(&mut c, Some(dst), operands)?,
            mn => {
                if let Some(b) = BinOp::from_mnemonic(mn) {
                    let lhs = VReg(c.prefixed_u32('%')?);
                    let rhs = VReg(c.prefixed_u32('%')?);
                    Inst::Bin { op: b, dst, lhs, rhs }
                } else if let Some(u) = UnOp::from_mnemonic(mn) {
                    Inst::Un { op: u, dst, src: VReg(c.prefixed_u32('%')?) }
                } else {
                    return Err(c.err(format!("unknown opcode `{mn}`")));
                }
            }
        }
    } else {
        match first {
            "store" => {
                let t = c.next()?;
                let (arr, idx) = parse_mem_operand(t).ok_or_else(|| c.err("bad store operand"))?;
                let src = VReg(c.prefixed_u32('%')?);
                Inst::Store { arr, idx, src }
            }
            "call" => parse_call_tail(&mut c, None, operands)?,
            "br" => Inst::Br { target: BlockId(c.prefixed_u32('b')?) },
            "condbr" => {
                let cond = VReg(c.prefixed_u32('%')?);
                let then_blk = BlockId(c.prefixed_u32('b')?);
                let else_blk = BlockId(c.prefixed_u32('b')?);
                Inst::CondBr { cond, then_blk, else_blk }
            }
            "ret" => {
                let val = match c.peek() {
                    Some(t) if t.starts_with('%') => Some(VReg(c.prefixed_u32('%')?)),
                    _ => None,
                };
                Inst::Ret { val }
            }
            other => return Err(c.err(format!("unknown statement `{other}`"))),
        }
    };
    Ok((inst, src_line))
}

/// `@A[%i]` -> (ArrayId, VReg)
fn parse_mem_operand(t: &str) -> Option<(ArrayId, VReg)> {
    let t = t.strip_prefix('@')?;
    let (arr, rest) = t.split_once("[%")?;
    let idx = rest.strip_suffix(']')?;
    Some((ArrayId(arr.parse().ok()?), VReg(idx.parse().ok()?)))
}

/// `f3(%0, %1)` — the cursor has tokens like `f3(%0,` `%1)` or `f3()`.
fn parse_call_tail(
    c: &mut Cursor<'_>,
    dst: Option<VReg>,
    operands: &mut Vec<u32>,
) -> Result<Inst, ParseError> {
    let t = c.next()?;
    let t = t.strip_prefix('f').ok_or_else(|| c.err("expected `f<id>(...)`"))?;
    let (fid, rest) = t.split_once('(').ok_or_else(|| c.err("expected `(` in call"))?;
    let func = FuncId(fid.parse().map_err(|_| c.err("bad function id"))?);
    let mut args = Vec::new();
    let mut buf = rest.to_string();
    loop {
        let done = buf.ends_with(')');
        let frag = buf.trim_end_matches(')');
        for piece in frag.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let r = piece
                .strip_prefix('%')
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| c.err(format!("bad call argument `{piece}`")))?;
            args.push(VReg(r));
        }
        if done {
            break;
        }
        buf = c.next()?.to_string();
    }
    Ok(Inst::call(dst, func, &args, operands))
}

/// A function while its lines are parsed.
struct Parts {
    name: NameId,
    arity: u32,
    num_regs: u32,
    blocks: Vec<Vec<(Inst, u32)>>,
    loops: Vec<LoopInfo>,
    /// Every loop's body blocks; each `LoopInfo::body` is a range of them.
    bodies: Vec<BlockId>,
    /// Every call's argument count and arguments; each `Inst::Call`
    /// holds the offset of its own.
    operands: Vec<u32>,
}

/// Parse a module from its textual form.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut m = Module::new("");
    let mut cur_fn: Option<Parts> = None;
    // Whether instruction lines may follow: a `block` line opened one
    // and no `loop`, `func` or `endfunc` line closed it since.
    let mut in_block = false;

    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        let mut c = Cursor::new(line, lineno);
        let head = c.next()?;
        match head {
            "module" => m.name = c.quoted()?.to_string(),
            "array" => {
                let _id = c.prefixed_u32('@')?;
                let name = c.quoted()?;
                let ty = match c.next()? {
                    "i64" => Ty::I64,
                    "f64" => Ty::F64,
                    t => return Err(c.err(format!("unknown type `{t}`"))),
                };
                let len = c.u32()? as usize;
                m.add_array(name, ty, len);
            }
            "func" => {
                let _id = c.prefixed_u32('f')?;
                let name = c.quoted()?;
                c.expect("arity")?;
                let arity = c.u32()?;
                c.expect("regs")?;
                let num_regs = c.u32()?;
                cur_fn = Some(Parts {
                    name: m.intern(name),
                    arity,
                    num_regs,
                    blocks: Vec::new(),
                    loops: Vec::new(),
                    bodies: Vec::new(),
                    operands: Vec::new(),
                });
                in_block = false;
            }
            "block" => {
                let f = cur_fn.as_mut().ok_or_else(|| c.err("block outside func"))?;
                f.blocks.push(Vec::new());
                in_block = true;
            }
            "loop" => {
                // Loop lines close the open block; they may follow blocks.
                let f = cur_fn.as_mut().ok_or_else(|| c.err("loop outside func"))?;
                in_block = false;
                let id = LoopId(c.prefixed_u32('l')?);
                c.expect("header")?;
                let header = BlockId(c.prefixed_u32('b')?);
                c.expect("latch")?;
                let latch = BlockId(c.prefixed_u32('b')?);
                c.expect("exit")?;
                let exit = BlockId(c.prefixed_u32('b')?);
                c.expect("body")?;
                let body = &mut f.bodies;
                let at = body.len() as u32;
                let first = c.next()?;
                if first != "[" && first != "[]" {
                    let mut tok = first.trim_start_matches('[').to_string();
                    loop {
                        let done = tok.ends_with(']');
                        let frag = tok.trim_end_matches(']');
                        if !frag.is_empty() {
                            let b = frag
                                .strip_prefix('b')
                                .and_then(|x| x.parse().ok())
                                .ok_or_else(|| c.err(format!("bad body block `{frag}`")))?;
                            body.push(BlockId(b));
                        }
                        if done {
                            break;
                        }
                        tok = c.next()?.to_string();
                    }
                } else if first == "[" {
                    loop {
                        let tok = c.next()?;
                        if tok == "]" {
                            break;
                        }
                        let done = tok.ends_with(']');
                        let frag = tok.trim_end_matches(']');
                        let b = frag
                            .strip_prefix('b')
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| c.err(format!("bad body block `{frag}`")))?;
                        body.push(BlockId(b));
                        if done {
                            break;
                        }
                    }
                }
                c.expect("iv")?;
                let iv_tok = c.next()?;
                let induction = if iv_tok == "none" {
                    None
                } else {
                    Some(VReg(
                        iv_tok
                            .strip_prefix('%')
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| c.err("bad iv"))?,
                    ))
                };
                c.expect("parent")?;
                let parent_tok = c.next()?;
                let parent = if parent_tok == "none" {
                    None
                } else {
                    Some(LoopId(
                        parent_tok
                            .strip_prefix('l')
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| c.err("bad parent"))?,
                    ))
                };
                c.expect("depth")?;
                let depth = c.u32()?;
                c.expect("span")?;
                let s0 = c.u32()?;
                let s1 = c.u32()?;
                f.loops.push(LoopInfo {
                    id,
                    header,
                    body: at..f.bodies.len() as u32,
                    latch,
                    exit,
                    induction,
                    parent,
                    depth,
                    line_span: (s0, s1),
                });
            }
            "endfunc" => {
                let f = cur_fn.take().ok_or_else(|| c.err("endfunc outside func"))?;
                in_block = false;
                let Parts { name, arity, num_regs, blocks, loops, bodies, operands } = f;
                let f = Function::new(name, arity, num_regs, blocks, loops, &bodies, &operands);
                m.funcs.push(f);
            }
            _ => {
                // An instruction line inside the current block.
                let outside = || ParseError {
                    line: lineno,
                    msg: format!("statement outside block: `{line}`"),
                };
                let f = cur_fn.as_mut().filter(|_| in_block).ok_or_else(outside)?;
                let inst = parse_inst_line(line, lineno, &mut f.operands)?;
                f.blocks.last_mut().ok_or_else(outside)?.push(inst);
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;
    use crate::verify::verify_module;

    fn sample_module() -> Module {
        let mut m = Module::new("sample");
        let a = m.add_array("a", Ty::F64, 16);
        let helper = {
            let mut b = FunctionBuilder::new(&mut m, "helper", 1);
            let p = b.param(0);
            let one = b.const_i64(1);
            let r = b.bin(BinOp::Add, p, one);
            b.ret(Some(r));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let step = b.const_i64(1);
        let acc = b.const_f64(0.0);
        b.for_loop(lo, hi, step, |b, iv| {
            let x = b.load(a, iv);
            b.bin_to(acc, BinOp::Add, acc, x);
            let j = b.call(helper, &[iv]);
            let c = b.bin(BinOp::CmpLt, j, hi);
            b.if_then(c, |b| {
                b.store(a, iv, acc);
            });
        });
        b.ret(Some(acc));
        b.finish();
        m
    }

    #[test]
    fn print_parse_roundtrip_preserves_structure() {
        let m = sample_module();
        verify_module(&m).unwrap();
        let text = print_module(&m);
        let m2 = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        verify_module(&m2).unwrap();
        assert_eq!(m2.name, m.name);
        assert_eq!(m2.arrays.len(), m.arrays.len());
        assert_eq!(m2.funcs.len(), m.funcs.len());
        for (f1, f2) in m.funcs.iter().zip(&m2.funcs) {
            assert_eq!(m.name_of(f1.name), m2.name_of(f2.name));
            assert_eq!(f1.num_blocks(), f2.num_blocks());
            for (b1, b2) in f1.blocks().zip(f2.blocks()) {
                assert_eq!(b1.insts, b2.insts);
                assert!(b1.lines().eq(b2.lines()));
            }
            assert_eq!(f1.loops.len(), f2.loops.len());
            for (l1, l2) in f1.loops.iter().zip(&f2.loops) {
                assert_eq!(l1.header, l2.header);
                assert!(f1.loop_body(l1).eq(f2.loop_body(l2)));
                assert_eq!(l1.latch, l2.latch);
                assert_eq!(l1.exit, l2.exit);
                assert_eq!(l1.induction, l2.induction);
                assert_eq!(l1.parent, l2.parent);
                assert_eq!(l1.line_span, l2.line_span);
            }
            for b in 0..f1.num_blocks() as u32 {
                assert_eq!(f1.loop_of_block(BlockId(b)), f2.loop_of_block(BlockId(b)));
            }
        }
    }

    #[test]
    fn roundtrip_execution_matches() {
        use crate::interp::{Interpreter, NoTracer};
        let m = sample_module();
        let m2 = parse_module(&print_module(&m)).unwrap();
        let f = m.func_by_name("main").unwrap();
        let i1 = Interpreter::new(&m);
        let i2 = Interpreter::new(&m2);
        let r1 = i1.run(f, &[], &mut NoTracer).unwrap();
        let r2 = i2.run(f, &[], &mut NoTracer).unwrap();
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.1, r2.1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "module \"x\"\ngarbage here\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn parse_rejects_unknown_opcode() {
        let bad = "module \"x\"\nfunc f0 \"f\" arity 0 regs 1\n  block b0\n    %0 = quux %1\nendfunc\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.msg.contains("unknown opcode"), "{e}");
    }

    /// Every form, among them a void call of two arguments passed out of
    /// register order, which prints them in call order and parses back to
    /// the same function.
    #[test]
    fn print_inst_forms() {
        let mut m = Module::new("forms");
        let pair = FunctionBuilder::new(&mut m, "pair", 2).finish();
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (x, y) = (b.const_i64(1), b.const_i64(2));
        b.call_void(pair, &[y, x]);
        b.finish();
        let main = &m.funcs[1];
        let printed: Vec<String> = main.insts().iter().map(|i| print_inst(main, i)).collect();
        assert_eq!(printed, ["%0 = const i64 1", "%1 = const i64 2", "call f0(%1, %0)", "ret"]);
        let load = Inst::Load { dst: VReg(1), arr: ArrayId(2), idx: VReg(3) };
        assert_eq!(print_inst(main, &load), "%1 = load @2[%3]");
        let back = parse_module(&print_module(&m)).unwrap();
        verify_module(&back).unwrap();
        let main2 = &back.funcs[1];
        assert_eq!(main2.insts(), main.insts());
        assert_eq!(print_inst(main2, &main2.insts()[2]), "call f0(%1, %0)");
        assert_eq!(print_module(&back), print_module(&m));
        let sample = sample_module();
        let main = &sample.funcs[1];
        let call = main.insts().iter().find(|i| matches!(i, Inst::Call { .. })).unwrap();
        assert_eq!(print_inst(main, call), "%7 = call f0(%4)");
    }

    #[test]
    fn call_with_no_args_roundtrips() {
        let text = "module \"x\"\nfunc f0 \"g\" arity 0 regs 1\n  block b0\n    ret\nendfunc\nfunc f1 \"f\" arity 0 regs 1\n  block b0\n    call f0()\n    ret\nendfunc\n";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        let printed = print_module(&m);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m.funcs[1].insts(), m2.funcs[1].insts());
    }
}
