//! Core value types and id newtypes of the IR.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Static value types. The IR is deliberately small: 64-bit integers for
/// induction/index arithmetic and 64-bit floats for numeric kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ty {
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE-754 float.
    F64,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I64 => write!(f, "i64"),
            Ty::F64 => write!(f, "f64"),
        }
    }
}

/// Runtime value held in a virtual register or array cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Integer payload.
    I64(i64),
    /// Float payload.
    F64(f64),
}

impl Value {
    /// The static type of this value.
    pub fn ty(self) -> Ty {
        match self {
            Value::I64(_) => Ty::I64,
            Value::F64(_) => Ty::F64,
        }
    }

    /// Zero of a given type.
    pub fn zero(ty: Ty) -> Value {
        match ty {
            Ty::I64 => Value::I64(0),
            Ty::F64 => Value::F64(0.0),
        }
    }

    /// The payload's raw 64-bit pattern: two's complement for an integer,
    /// IEEE-754 for a float (sign of zero and NaN payload included).
    pub fn to_bits(self) -> u64 {
        match self {
            Value::I64(v) => v as u64,
            Value::F64(v) => v.to_bits(),
        }
    }

    /// The value of type `ty` whose payload has the pattern `bits`; the
    /// inverse of [`Value::to_bits`], bit for bit.
    pub fn from_bits(ty: Ty, bits: u64) -> Value {
        match ty {
            Ty::I64 => Value::I64(bits as i64),
            Ty::F64 => Value::F64(f64::from_bits(bits)),
        }
    }

    /// Integer payload or `None`.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(v),
            Value::F64(_) => None,
        }
    }

    /// Truthiness: non-zero is true.
    pub fn is_truthy(self) -> bool {
        match self {
            Value::I64(v) => v != 0,
            Value::F64(v) => v != 0.0,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:?}"),
        }
    }
}

/// Virtual register index, local to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VReg(pub u32);

impl VReg {
    /// Usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Array (memory object) index, module-global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// Usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_type_and_zero() {
        assert_eq!(Value::I64(3).ty(), Ty::I64);
        assert_eq!(Value::F64(1.5).ty(), Ty::F64);
        assert_eq!(Value::zero(Ty::I64), Value::I64(0));
        assert_eq!(Value::zero(Ty::F64), Value::F64(0.0));
    }

    #[test]
    fn bits_round_trip_every_payload() {
        for v in [
            Value::I64(0),
            Value::I64(-1),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F64(0.0),
            Value::F64(-0.0),
            Value::F64(f64::NAN),
            Value::F64(-f64::NAN),
            Value::F64(f64::INFINITY),
            Value::F64(f64::MIN_POSITIVE / 2.0),
            Value::F64(-2.5),
        ] {
            let back = Value::from_bits(v.ty(), v.to_bits());
            assert_eq!(back.ty(), v.ty());
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        assert_eq!(Value::from_bits(Ty::I64, u64::MAX), Value::I64(-1));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::I64(7).as_i64(), Some(7));
        assert_eq!(Value::F64(2.5).as_i64(), None);
    }

    #[test]
    fn truthiness() {
        assert!(Value::I64(1).is_truthy());
        assert!(!Value::I64(0).is_truthy());
        assert!(Value::F64(-0.1).is_truthy());
        assert!(!Value::F64(0.0).is_truthy());
    }

    #[test]
    fn display_forms() {
        assert_eq!(VReg(3).to_string(), "%3");
        assert_eq!(ArrayId(2).to_string(), "@2");
        assert_eq!(Ty::F64.to_string(), "f64");
        assert_eq!(Value::I64(-4).to_string(), "-4");
    }
}
