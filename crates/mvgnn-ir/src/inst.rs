//! Instructions: three-address ops over virtual registers, memory access
//! against arrays, structured terminators and direct calls.

use crate::module::{BlockId, FuncId};
use crate::types::{ArrayId, Ty, VReg, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

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
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::CmpEq => "cmpeq",
            BinOp::CmpNe => "cmpne",
            BinOp::CmpLt => "cmplt",
            BinOp::CmpLe => "cmple",
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
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Sqrt => "sqrt",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
            UnOp::Abs => "abs",
            UnOp::IntToFloat => "i2f",
            UnOp::FloatToInt => "f2i",
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

/// A direct call's operands, boxed in [`Inst::Call`] so that every
/// instruction stays 16 bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Call {
    /// Optional destination for the return value.
    pub dst: Option<VReg>,
    /// Callee.
    pub func: FuncId,
    /// Argument registers (copied into the callee's first registers).
    pub args: Box<[VReg]>,
}

/// One IR instruction, 16 bytes. Terminators (`Br`, `CondBr`, `Ret`) may
/// only appear as the last instruction of a block (enforced by the
/// verifier).
///
/// Equality compares a `Const` through its [`Value`] (as `f64` for a
/// float: `0.0 == -0.0`, a NaN equals nothing), every other variant field
/// by field.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// `dst? = call f(args...)`
    Call(Box<Call>),
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
            (Call(a), Call(b)) => a == b,
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

    /// `dst? = call func(args...)`.
    pub fn call(dst: Option<VReg>, func: FuncId, args: &[VReg]) -> Self {
        Inst::Call(Box::new(Call { dst, func, args: args.into() }))
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
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Call(c) => c.dst,
            _ => None,
        }
    }

    /// Registers read by this instruction, in operand order: the fixed
    /// operands inline, a call's arguments straight from its slice.
    pub fn uses(&self) -> impl Iterator<Item = VReg> + '_ {
        const NONE: VReg = VReg(0);
        let (fixed, n, args): ([VReg; 2], usize, &[VReg]) = match self {
            Inst::Const { .. } | Inst::Br { .. } | Inst::Ret { val: None } => ([NONE; 2], 0, &[]),
            Inst::Copy { src: r, .. }
            | Inst::Un { src: r, .. }
            | Inst::Load { idx: r, .. }
            | Inst::CondBr { cond: r, .. }
            | Inst::Ret { val: Some(r) } => ([*r, NONE], 1, &[]),
            Inst::Bin { lhs, rhs, .. } => ([*lhs, *rhs], 2, &[]),
            Inst::Store { idx, src, .. } => ([*idx, *src], 2, &[]),
            Inst::Call(c) => ([NONE; 2], 0, &c.args[..]),
        };
        fixed.into_iter().take(n).chain(args.iter().copied())
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
    pub fn token(&self) -> String {
        match self {
            Inst::Const { ty, .. } => format!("const.{ty}"),
            Inst::Copy { .. } => "copy".to_string(),
            Inst::Bin { op, .. } => format!("bin.{}", op.mnemonic()),
            Inst::Un { op, .. } => format!("un.{}", op.mnemonic()),
            Inst::Load { .. } => "load".to_string(),
            Inst::Store { .. } => "store".to_string(),
            Inst::Call(c) => {
                if c.dst.is_some() {
                    "call.val".to_string()
                } else {
                    "call.void".to_string()
                }
            }
            Inst::Br { .. } => "br".to_string(),
            Inst::CondBr { .. } => "condbr".to_string(),
            Inst::Ret { .. } => "ret".to_string(),
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

    #[test]
    fn binop_mnemonic_roundtrip() {
        for op in [
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
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn unop_mnemonic_roundtrip() {
        for op in [
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
        ] {
            assert_eq!(UnOp::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn defs_and_uses() {
        let i = Inst::Bin { op: BinOp::Add, dst: VReg(2), lhs: VReg(0), rhs: VReg(1) };
        assert_eq!(i.def(), Some(VReg(2)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![VReg(0), VReg(1)]);
        let s = Inst::Store { arr: ArrayId(0), idx: VReg(3), src: VReg(4) };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![VReg(3), VReg(4)]);
        assert_eq!(s.memory_effect(), Some((ArrayId(0), true)));
        let l = Inst::Load { dst: VReg(1), arr: ArrayId(2), idx: VReg(0) };
        assert_eq!(l.memory_effect(), Some((ArrayId(2), false)));
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

    #[test]
    fn constants_compare_through_their_value() {
        let c = |v: f64| Inst::constant(VReg(1), Value::F64(v));
        assert_eq!(c(0.0), c(-0.0));
        assert_ne!(c(f64::NAN), c(f64::NAN));
        assert_ne!(c(1.0), Inst::constant(VReg(2), Value::F64(1.0)));
        let i = Inst::constant(VReg(1), Value::I64(f64::NAN.to_bits() as i64));
        assert_eq!(i, i.clone());
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
