//! Instructions: three-address ops over virtual registers, memory access
//! against arrays, structured terminators and direct calls.

use crate::module::{BlockId, FuncId};
use crate::types::{ArrayId, Ty, VReg, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// `[mnemonic, token, compute token]` of an opcode of class `$class`:
/// `"add"`, `"bin.add"`, `"compute:bin.add"`. Every spelling is static,
/// so tokenising a statement allocates nothing.
macro_rules! spellings {
    ($class:literal, $m:literal) => {
        [$m, concat!($class, ".", $m), concat!("compute:", $class, ".", $m)]
    };
}

/// Binary opcodes. Integer and float variants share opcodes; the operand
/// types select the behaviour at run time (the verifier does not type-check
/// registers — the IR is dynamically typed like a trace IR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division on i64; traps on zero).
    Div,
    /// Remainder (i64 only; traps on zero).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and (i64).
    And,
    /// Bitwise or (i64).
    Or,
    /// Bitwise xor (i64).
    Xor,
    /// Shift left (i64).
    Shl,
    /// Arithmetic shift right (i64).
    Shr,
    /// Equality comparison; yields i64 0/1.
    CmpEq,
    /// Inequality comparison; yields i64 0/1.
    CmpNe,
    /// Less-than; yields i64 0/1.
    CmpLt,
    /// Less-or-equal; yields i64 0/1.
    CmpLe,
}

impl BinOp {
    /// Mnemonic used by the textual form.
    pub fn mnemonic(self) -> &'static str {
        self.spellings()[0]
    }

    /// The mnemonic, the statement token and the compute-unit token.
    fn spellings(self) -> [&'static str; 3] {
        match self {
            BinOp::Add => spellings!("bin", "add"),
            BinOp::Sub => spellings!("bin", "sub"),
            BinOp::Mul => spellings!("bin", "mul"),
            BinOp::Div => spellings!("bin", "div"),
            BinOp::Rem => spellings!("bin", "rem"),
            BinOp::Min => spellings!("bin", "min"),
            BinOp::Max => spellings!("bin", "max"),
            BinOp::And => spellings!("bin", "and"),
            BinOp::Or => spellings!("bin", "or"),
            BinOp::Xor => spellings!("bin", "xor"),
            BinOp::Shl => spellings!("bin", "shl"),
            BinOp::Shr => spellings!("bin", "shr"),
            BinOp::CmpEq => spellings!("bin", "cmpeq"),
            BinOp::CmpNe => spellings!("bin", "cmpne"),
            BinOp::CmpLt => spellings!("bin", "cmplt"),
            BinOp::CmpLe => spellings!("bin", "cmple"),
        }
    }

    /// Parse a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "min" => BinOp::Min,
            "max" => BinOp::Max,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            "cmpeq" => BinOp::CmpEq,
            "cmpne" => BinOp::CmpNe,
            "cmplt" => BinOp::CmpLt,
            "cmple" => BinOp::CmpLe,
            _ => return None,
        })
    }

    /// True if the op is commutative over both i64 and f64 operands.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::Min
                | BinOp::Max
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::CmpEq
                | BinOp::CmpNe
        )
    }
}

/// Unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise/logical not (i64).
    Not,
    /// Square root (f64).
    Sqrt,
    /// Exponential (f64).
    Exp,
    /// Natural log (f64; traps on non-positive).
    Log,
    /// Sine (f64).
    Sin,
    /// Cosine (f64).
    Cos,
    /// Absolute value.
    Abs,
    /// Int -> float conversion.
    IntToFloat,
    /// Float -> int truncation.
    FloatToInt,
}

impl UnOp {
    /// Mnemonic used by the textual form.
    pub fn mnemonic(self) -> &'static str {
        self.spellings()[0]
    }

    /// The mnemonic, the statement token and the compute-unit token.
    fn spellings(self) -> [&'static str; 3] {
        match self {
            UnOp::Neg => spellings!("un", "neg"),
            UnOp::Not => spellings!("un", "not"),
            UnOp::Sqrt => spellings!("un", "sqrt"),
            UnOp::Exp => spellings!("un", "exp"),
            UnOp::Log => spellings!("un", "log"),
            UnOp::Sin => spellings!("un", "sin"),
            UnOp::Cos => spellings!("un", "cos"),
            UnOp::Abs => spellings!("un", "abs"),
            UnOp::IntToFloat => spellings!("un", "i2f"),
            UnOp::FloatToInt => spellings!("un", "f2i"),
        }
    }

    /// Parse a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "neg" => UnOp::Neg,
            "not" => UnOp::Not,
            "sqrt" => UnOp::Sqrt,
            "exp" => UnOp::Exp,
            "log" => UnOp::Log,
            "sin" => UnOp::Sin,
            "cos" => UnOp::Cos,
            "abs" => UnOp::Abs,
            "i2f" => UnOp::IntToFloat,
            "f2i" => UnOp::FloatToInt,
            _ => return None,
        })
    }
}

/// One IR instruction, 16 bytes and `Copy`. Terminators (`Br`, `CondBr`,
/// `Ret`) may only appear as the last instruction of a block (enforced
/// by the verifier).
///
/// Equality compares a `Const` through its [`Value`] (as `f64` for a
/// float: `0.0 == -0.0`, a NaN equals nothing), every other variant field
/// by field.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = const value`, the value stored as its type and raw bits
    /// (so that it packs beside the destination). Build one with
    /// [`Inst::constant`] and read it with [`Inst::const_value`].
    Const {
        /// Destination register.
        dst: VReg,
        /// The value's type.
        ty: Ty,
        /// The value's payload, [`Value::to_bits`].
        bits: u64,
    },
    /// `dst = src` register copy.
    Copy {
        /// Destination register.
        dst: VReg,
        /// Source register.
        src: VReg,
    },
    /// `dst = op lhs, rhs`
    Bin {
        /// Opcode.
        op: BinOp,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// `dst = op src`
    Un {
        /// Opcode.
        op: UnOp,
        /// Destination register.
        dst: VReg,
        /// Operand.
        src: VReg,
    },
    /// `dst = load arr[idx]`
    Load {
        /// Destination register.
        dst: VReg,
        /// Array.
        arr: ArrayId,
        /// Index register (i64).
        idx: VReg,
    },
    /// `store arr[idx] = src`
    Store {
        /// Array.
        arr: ArrayId,
        /// Index register (i64).
        idx: VReg,
        /// Value register.
        src: VReg,
    },
    /// `dst? = call func(args...)`. The argument registers sit at `args`
    /// in the call operands of the function holding the call, behind
    /// their count, read with
    /// [`Function::call_args`](crate::Function::call_args); the
    /// destination is read with [`Inst::def`].
    Call {
        /// Callee.
        func: FuncId,
        /// Whether the call keeps its return value in `dst`.
        has_dst: bool,
        /// Destination register; `VReg(0)` when `has_dst` is unset.
        dst: VReg,
        /// Offset of the argument count in the function's call operands;
        /// the arguments follow it.
        args: u32,
    },
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch on a truthy register.
    CondBr {
        /// Condition register.
        cond: VReg,
        /// Target when truthy.
        then_blk: BlockId,
        /// Target when falsy.
        else_blk: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Optional return value register.
        val: Option<VReg>,
    },
}

// A new variant must not grow every instruction of every function.
const _: () = assert!(std::mem::size_of::<Inst>() == 16);

impl PartialEq for Inst {
    fn eq(&self, other: &Self) -> bool {
        use Inst::*;
        match (self, other) {
            (Const { dst: a, .. }, Const { dst: b, .. }) => {
                a == b && self.const_value() == other.const_value()
            }
            (Copy { dst: a, src: b }, Copy { dst: c, src: d }) => (a, b) == (c, d),
            (Bin { op: a, dst: b, lhs: c, rhs: d }, Bin { op: e, dst: f, lhs: g, rhs: h }) => {
                (a, b, c, d) == (e, f, g, h)
            }
            (Un { op: a, dst: b, src: c }, Un { op: d, dst: e, src: f }) => (a, b, c) == (d, e, f),
            (Load { dst: a, arr: b, idx: c }, Load { dst: d, arr: e, idx: f }) => {
                (a, b, c) == (d, e, f)
            }
            (Store { arr: a, idx: b, src: c }, Store { arr: d, idx: e, src: f }) => {
                (a, b, c) == (d, e, f)
            }
            (
                Call { func: a, has_dst: b, dst: c, args: d },
                Call { func: e, has_dst: f, dst: g, args: h },
            ) => (a, b, c, d) == (e, f, g, h),
            (Br { target: a }, Br { target: b }) => a == b,
            (
                CondBr { cond: a, then_blk: b, else_blk: c },
                CondBr { cond: d, then_blk: e, else_blk: f },
            ) => (a, b, c) == (d, e, f),
            (Ret { val: a }, Ret { val: b }) => a == b,
            _ => false,
        }
    }
}

impl Inst {
    /// `dst = const value`.
    pub fn constant(dst: VReg, value: Value) -> Self {
        Inst::Const { dst, ty: value.ty(), bits: value.to_bits() }
    }

    /// The value a `Const` loads, rebuilt bit for bit; `None` for every
    /// other instruction.
    pub fn const_value(&self) -> Option<Value> {
        match self {
            Inst::Const { ty, bits, .. } => Some(Value::from_bits(*ty, *bits)),
            _ => None,
        }
    }

    /// `dst? = call func(args...)` with the count of `args` and then
    /// `args` appended to `operands`, the call operands of the function
    /// being built.
    pub(crate) fn call(
        dst: Option<VReg>,
        func: FuncId,
        args: &[VReg],
        operands: &mut Vec<u32>,
    ) -> Self {
        let at = operands.len() as u32;
        operands.push(args.len() as u32);
        operands.extend(args.iter().map(|r| r.0));
        let (has_dst, dst) = (dst.is_some(), dst.unwrap_or(VReg(0)));
        Inst::Call { func, has_dst, dst, args: at }
    }

    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. })
    }

    /// Destination register written by this instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Call { has_dst: true, dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The registers this instruction reads in place, in operand order,
    /// and how many of the two slots hold one; a call's arguments are in
    /// its function ([`Function::uses`](crate::Function::uses) yields
    /// both).
    pub(crate) fn inline_uses(&self) -> ([VReg; 2], usize) {
        const NONE: VReg = VReg(0);
        match self {
            Inst::Const { .. } | Inst::Br { .. } | Inst::Call { .. } | Inst::Ret { val: None } => {
                ([NONE; 2], 0)
            }
            Inst::Copy { src: r, .. }
            | Inst::Un { src: r, .. }
            | Inst::Load { idx: r, .. }
            | Inst::CondBr { cond: r, .. }
            | Inst::Ret { val: Some(r) } => ([*r, NONE], 1),
            Inst::Bin { lhs, rhs, .. } => ([*lhs, *rhs], 2),
            Inst::Store { idx, src, .. } => ([*idx, *src], 2),
        }
    }

    /// The array touched by this instruction with the access kind
    /// (`true` = write), if it is a memory instruction.
    pub fn memory_effect(&self) -> Option<(ArrayId, bool)> {
        match self {
            Inst::Load { arr, .. } => Some((*arr, false)),
            Inst::Store { arr, .. } => Some((*arr, true)),
            _ => None,
        }
    }

    /// A normalised token for embedding vocabularies: the instruction with
    /// register identities abstracted away, keeping opcode, type shape and
    /// array identity class. This mirrors inst2vec statement normalisation.
    /// One of 36 static spellings (`const.f64`, `bin.cmple`, `un.i2f`,
    /// `call.void`, …), so it allocates nothing.
    pub fn token(&self) -> &'static str {
        self.tokens()[0]
    }

    /// The token of a computational unit of several statements whose
    /// dominant statement this is: `compute:` and [`Inst::token`].
    pub fn compute_token(&self) -> &'static str {
        self.tokens()[1]
    }

    /// `[token, compute token]`.
    fn tokens(&self) -> [&'static str; 2] {
        macro_rules! tokens {
            ($t:literal) => {
                [$t, concat!("compute:", $t)]
            };
        }
        let op = |[_, token, compute]: [&'static str; 3]| [token, compute];
        match self {
            Inst::Const { ty: Ty::I64, .. } => tokens!("const.i64"),
            Inst::Const { ty: Ty::F64, .. } => tokens!("const.f64"),
            Inst::Copy { .. } => tokens!("copy"),
            Inst::Bin { op: o, .. } => op(o.spellings()),
            Inst::Un { op: o, .. } => op(o.spellings()),
            Inst::Load { .. } => tokens!("load"),
            Inst::Store { .. } => tokens!("store"),
            Inst::Call { has_dst: true, .. } => tokens!("call.val"),
            Inst::Call { has_dst: false, .. } => tokens!("call.void"),
            Inst::Br { .. } => tokens!("br"),
            Inst::CondBr { .. } => tokens!("condbr"),
            Inst::Ret { .. } => tokens!("ret"),
        }
    }
}

/// Global reference to an instruction: function, block, index-in-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstRef {
    /// Owning function.
    pub func: FuncId,
    /// Owning block.
    pub block: BlockId,
    /// Index within the block.
    pub idx: u32,
}

impl fmt::Display for InstRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}:b{}:{}", self.func.0, self.block.0, self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BINOPS: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::CmpEq,
        BinOp::CmpNe,
        BinOp::CmpLt,
        BinOp::CmpLe,
    ];

    const UNOPS: [UnOp; 10] = [
        UnOp::Neg,
        UnOp::Not,
        UnOp::Sqrt,
        UnOp::Exp,
        UnOp::Log,
        UnOp::Sin,
        UnOp::Cos,
        UnOp::Abs,
        UnOp::IntToFloat,
        UnOp::FloatToInt,
    ];

    #[test]
    fn binop_mnemonic_roundtrip() {
        for op in BINOPS {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn unop_mnemonic_roundtrip() {
        for op in UNOPS {
            assert_eq!(UnOp::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn defs_and_uses() {
        let i = Inst::Bin { op: BinOp::Add, dst: VReg(2), lhs: VReg(0), rhs: VReg(1) };
        assert_eq!(i.def(), Some(VReg(2)));
        assert_eq!(i.inline_uses(), ([VReg(0), VReg(1)], 2));
        let s = Inst::Store { arr: ArrayId(0), idx: VReg(3), src: VReg(4) };
        assert_eq!(s.def(), None);
        assert_eq!(s.inline_uses(), ([VReg(3), VReg(4)], 2));
        assert_eq!(s.memory_effect(), Some((ArrayId(0), true)));
        let l = Inst::Load { dst: VReg(1), arr: ArrayId(2), idx: VReg(0) };
        assert_eq!(l.memory_effect(), Some((ArrayId(2), false)));
        let mut operands = vec![7];
        let c = Inst::call(Some(VReg(5)), FuncId(1), &[VReg(3), VReg(4)], &mut operands);
        assert_eq!(c, Inst::Call { func: FuncId(1), has_dst: true, dst: VReg(5), args: 1 });
        assert_eq!((c.def(), c.inline_uses().1), (Some(VReg(5)), 0));
        let v = Inst::call(None, FuncId(1), &[], &mut operands);
        assert_eq!((v.def(), &operands[..]), (None, &[7, 2, 3, 4, 0][..]));
    }

    #[test]
    fn terminator_classification() {
        assert!(Inst::Ret { val: None }.is_terminator());
        assert!(Inst::Br { target: BlockId(0) }.is_terminator());
        assert!(!Inst::Copy { dst: VReg(0), src: VReg(1) }.is_terminator());
    }

    #[test]
    fn tokens_are_register_agnostic() {
        let a = Inst::Bin { op: BinOp::Mul, dst: VReg(1), lhs: VReg(2), rhs: VReg(3) };
        let b = Inst::Bin { op: BinOp::Mul, dst: VReg(9), lhs: VReg(8), rhs: VReg(7) };
        assert_eq!(a.token(), b.token());
        assert_eq!(a.token(), "bin.mul");
        assert_eq!(Inst::constant(VReg(0), Value::zero(Ty::F64)).token(), "const.f64");
    }

    /// The statement tokens as they were spelled with `format!`, for every
    /// opcode and type: the inst2vec vocabulary and every sample read them.
    #[test]
    fn every_token_keeps_its_formatted_spelling() {
        let (r, arr, f) = (VReg(1), ArrayId(0), FuncId(0));
        let mut spelled: Vec<(Inst, String)> = Vec::new();
        for ty in [Ty::I64, Ty::F64] {
            spelled.push((Inst::constant(r, Value::zero(ty)), format!("const.{ty}")));
        }
        for op in BINOPS {
            let inst = Inst::Bin { op, dst: r, lhs: r, rhs: r };
            spelled.push((inst, format!("bin.{}", op.mnemonic())));
        }
        for op in UNOPS {
            spelled.push((Inst::Un { op, dst: r, src: r }, format!("un.{}", op.mnemonic())));
        }
        let call = |has_dst| Inst::Call { func: f, has_dst, dst: r, args: 0 };
        spelled.extend([
            (Inst::Copy { dst: r, src: r }, "copy".to_string()),
            (Inst::Load { dst: r, arr, idx: r }, "load".to_string()),
            (Inst::Store { arr, idx: r, src: r }, "store".to_string()),
            (call(true), "call.val".to_string()),
            (call(false), "call.void".to_string()),
            (Inst::Br { target: BlockId(0) }, "br".to_string()),
            (Inst::CondBr { cond: r, then_blk: BlockId(0), else_blk: BlockId(1) }, "condbr".into()),
            (Inst::Ret { val: None }, "ret".to_string()),
            (Inst::Ret { val: Some(r) }, "ret".to_string()),
        ]);
        for (inst, old) in &spelled {
            assert_eq!(inst.token(), old, "{inst:?}");
            assert_eq!(inst.compute_token(), format!("compute:{old}"), "{inst:?}");
        }
        let mut distinct: Vec<&str> = spelled.iter().map(|(i, _)| i.token()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 36);
        let spot = ["const.f64", "bin.cmple", "un.i2f", "un.f2i", "call.void", "condbr"];
        assert!(spot.iter().all(|t| distinct.contains(t)));
    }

    #[test]
    fn constants_compare_through_their_value() {
        let c = |v: f64| Inst::constant(VReg(1), Value::F64(v));
        assert_eq!(c(0.0), c(-0.0));
        assert_ne!(c(f64::NAN), c(f64::NAN));
        assert_ne!(c(1.0), Inst::constant(VReg(2), Value::F64(1.0)));
        let i = Inst::constant(VReg(1), Value::I64(f64::NAN.to_bits() as i64));
        let copy = i;
        assert_eq!(i, copy);
        assert_ne!(i, Inst::Const { dst: VReg(1), ty: Ty::F64, bits: f64::NAN.to_bits() });
        for v in [Value::I64(-7), Value::F64(-0.0), Value::F64(f64::NAN), Value::F64(1e-310)] {
            let back = Inst::constant(VReg(0), v).const_value().unwrap();
            assert_eq!((back.ty(), back.to_bits()), (v.ty(), v.to_bits()));
        }
        assert_eq!(Inst::Ret { val: None }.const_value(), None);
    }

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(BinOp::CmpEq.is_commutative());
        assert!(!BinOp::CmpLt.is_commutative());
    }
}
