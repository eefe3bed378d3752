//! Values, constants and operands.
//!
//! Every SSA value in a function is identified by a dense [`ValueId`].
//! Function parameters occupy the first ids; instruction results follow in
//! creation order. Constants are immediate [`Const`] operands and are never
//! materialized as instructions.

use crate::types::Ty;
use std::fmt;

/// Function-local SSA value identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValueId(pub u32);

/// Basic-block identifier (index into `Function::blocks`; entry block is 0).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(pub u32);

/// Function identifier (index into `Module::funcs`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FuncId(pub u32);

/// Instruction identifier (index into `Function::insts`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct InstId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A compile-time constant.
///
/// Integer payloads are stored zero-extended in a `u64` and always masked to
/// their declared width. Floats store raw IEEE bits so that `Const` can be
/// `Eq`/`Hash` without NaN headaches.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Const {
    /// Integer of width `bits`, value zero-extended into `value`.
    Int {
        /// Bit width in `1..=64`.
        bits: u8,
        /// Value, masked to `bits`.
        value: u64,
    },
    /// `f32` as raw bits.
    F32(u32),
    /// `f64` as raw bits.
    F64(u64),
    /// Pointer literal (usually 0 = null).
    Ptr(u64),
    /// `lanes` copies of a scalar constant (a constant splat).
    Splat {
        /// Replicated element.
        elem: Box<Const>,
        /// Lane count.
        lanes: u8,
    },
    /// Undefined value of a given type (reads as zero in the VM).
    Undef(Ty),
}

/// Mask `value` to `bits` (zero-extension canonical form).
pub fn mask_to_width(value: u64, bits: u8) -> u64 {
    if bits >= 64 {
        value
    } else {
        value & ((1u64 << bits) - 1)
    }
}

/// Sign-extend a `bits`-wide value stored zero-extended in `u64`.
pub fn sext_from_width(value: u64, bits: u8) -> i64 {
    if bits >= 64 {
        value as i64
    } else {
        let shift = 64 - u32::from(bits);
        ((value << shift) as i64) >> shift
    }
}

impl Const {
    /// `i1` constant from a bool.
    pub fn bool(v: bool) -> Const {
        Const::Int { bits: 1, value: u64::from(v) }
    }

    /// `i8` constant.
    pub fn i8(v: i64) -> Const {
        Const::int(8, v as u64)
    }

    /// `i16` constant.
    pub fn i16(v: i64) -> Const {
        Const::int(16, v as u64)
    }

    /// `i32` constant.
    pub fn i32(v: i64) -> Const {
        Const::int(32, v as u64)
    }

    /// `i64` constant.
    pub fn i64(v: i64) -> Const {
        Const::int(64, v as u64)
    }

    /// Integer constant of arbitrary width; the value is masked.
    pub fn int(bits: u8, value: u64) -> Const {
        assert!((1..=64).contains(&bits));
        Const::Int { bits, value: mask_to_width(value, bits) }
    }

    /// `f32` constant.
    pub fn f32(v: f32) -> Const {
        Const::F32(v.to_bits())
    }

    /// `f64` constant.
    pub fn f64(v: f64) -> Const {
        Const::F64(v.to_bits())
    }

    /// Null pointer.
    pub fn null() -> Const {
        Const::Ptr(0)
    }

    /// Zero of an arbitrary scalar or vector type.
    ///
    /// # Panics
    /// Panics on `Void`.
    pub fn zero(ty: &Ty) -> Const {
        match ty {
            Ty::Int(b) => Const::Int { bits: *b, value: 0 },
            Ty::F32 => Const::F32(0),
            Ty::F64 => Const::F64(0),
            Ty::Ptr => Const::Ptr(0),
            Ty::Vec { elem, lanes } => Const::Splat { elem: Box::new(Const::zero(elem)), lanes: *lanes },
            Ty::Void => panic!("no zero of void"),
        }
    }

    /// Splat of `self` across `lanes` lanes.
    ///
    /// # Panics
    /// Panics if `self` is already a vector constant.
    pub fn splat(self, lanes: u8) -> Const {
        assert!(!matches!(self, Const::Splat { .. }), "cannot splat a splat");
        Const::Splat { elem: Box::new(self), lanes }
    }

    /// The type of this constant.
    pub fn ty(&self) -> Ty {
        match self {
            Const::Int { bits, .. } => Ty::Int(*bits),
            Const::F32(_) => Ty::F32,
            Const::F64(_) => Ty::F64,
            Const::Ptr(_) => Ty::Ptr,
            Const::Splat { elem, lanes } => Ty::vec(elem.ty(), *lanes),
            Const::Undef(t) => t.clone(),
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int { bits, value } => write!(f, "i{bits} {}", sext_from_width(*value, *bits)),
            Const::F32(b) => write!(f, "f32 {}", f32::from_bits(*b)),
            Const::F64(b) => write!(f, "f64 {}", f64::from_bits(*b)),
            Const::Ptr(p) => write!(f, "ptr {p:#x}"),
            Const::Splat { elem, lanes } => write!(f, "splat<{lanes}>({elem})"),
            Const::Undef(t) => write!(f, "{t} undef"),
        }
    }
}

/// An instruction operand: an SSA value or an immediate constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Reference to an SSA value.
    Val(ValueId),
    /// Immediate constant.
    Imm(Const),
}

impl Operand {
    /// The referenced value id, if this is not an immediate.
    pub fn value_id(&self) -> Option<ValueId> {
        match self {
            Operand::Val(v) => Some(*v),
            Operand::Imm(_) => None,
        }
    }

    /// Immediate `i64` shorthand.
    pub fn imm_i64(v: i64) -> Operand {
        Operand::Imm(Const::i64(v))
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Operand {
        Operand::Val(v)
    }
}

impl From<Const> for Operand {
    fn from(c: Const) -> Operand {
        Operand::Imm(c)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Val(v) => write!(f, "{v}"),
            Operand::Imm(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_and_sign_extension() {
        assert_eq!(mask_to_width(0xFFFF, 8), 0xFF);
        assert_eq!(mask_to_width(u64::MAX, 64), u64::MAX);
        assert_eq!(sext_from_width(0xFF, 8), -1);
        assert_eq!(sext_from_width(0x7F, 8), 127);
        assert_eq!(sext_from_width(1, 1), -1);
        assert_eq!(sext_from_width(0, 1), 0);
    }

    #[test]
    fn const_types() {
        assert_eq!(Const::i32(-1).ty(), Ty::I32);
        assert_eq!(Const::f64(1.5).ty(), Ty::F64);
        assert_eq!(Const::null().ty(), Ty::Ptr);
        assert_eq!(Const::i64(7).splat(4).ty(), Ty::vec(Ty::I64, 4));
        assert_eq!(Const::zero(&Ty::vec(Ty::F32, 8)).ty(), Ty::vec(Ty::F32, 8));
    }

    #[test]
    fn const_int_masks_on_construction() {
        let c = Const::int(8, 0x1FF);
        assert_eq!(c, Const::Int { bits: 8, value: 0xFF });
    }

    #[test]
    fn operand_conversions() {
        let v: Operand = ValueId(3).into();
        assert_eq!(v.value_id(), Some(ValueId(3)));
        let i: Operand = Const::i64(9).into();
        assert_eq!(i.value_id(), None);
    }

    #[test]
    fn negative_display_uses_signed_form() {
        assert_eq!(Const::i8(-1).to_string(), "i8 -1");
        assert_eq!(Const::i64(5).to_string(), "i64 5");
    }
}
