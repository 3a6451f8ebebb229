//! Runtime values: machine words and typed pointers into the object memory.

use crate::inst::{BinOp, CmpOp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a memory object (a global, a stack local, or a heap block).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjId(pub u64);

/// A pointer: a memory object plus a word offset into it.
///
/// Offsets are signed so that pointer arithmetic can transiently move before
/// the start of an object; dereferencing an out-of-range offset is a fault.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ptr {
    /// The referenced object.
    pub obj: ObjId,
    /// Word offset within the object.
    pub off: i64,
}

impl Ptr {
    /// Creates a pointer to the start of `obj`.
    pub fn to(obj: ObjId) -> Self {
        Ptr { obj, off: 0 }
    }

    /// Returns this pointer displaced by `delta` words. Named after
    /// `<*const T>::add`, which it mirrors; it is not `std::ops::Add` because
    /// the displacement is a word count, not another pointer.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, delta: i64) -> Self {
        Ptr { obj: self.obj, off: self.off.wrapping_add(delta) }
    }
}

/// A runtime value: either a 64-bit integer or a pointer.
///
/// The integer zero doubles as the null pointer, as in C: dereferencing
/// `Value::Int(0)` (or any non-pointer integer) is a segmentation fault in
/// the interpreter and a reproducible crash goal for ESD.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// A 64-bit machine word.
    Int(i64),
    /// A pointer into the object memory.
    Ptr(Ptr),
}

impl Value {
    /// The canonical null pointer value.
    pub const NULL: Value = Value::Int(0);

    /// Returns the integer payload, if this is an integer.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            Value::Ptr(_) => None,
        }
    }

    /// Returns the pointer payload, if this is a pointer.
    pub fn as_ptr(self) -> Option<Ptr> {
        match self {
            Value::Ptr(p) => Some(p),
            Value::Int(_) => None,
        }
    }

    /// Interprets the value as a boolean: zero integers are false, everything
    /// else (including all pointers) is true.
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(i) => i != 0,
            Value::Ptr(_) => true,
        }
    }

    /// Returns true if the value is the integer zero (the null pointer).
    pub fn is_null(self) -> bool {
        matches!(self, Value::Int(0))
    }

    /// Structural equality used by `==` comparisons in the IR: integers
    /// compare by value, pointers compare by (object, offset), and an integer
    /// never equals a pointer except that 0 (null) never equals a valid
    /// pointer either — so the rule degenerates to `self == other`.
    pub fn value_eq(self, other: Value) -> bool {
        self == other
    }

    /// The word this value reads as where the IR wants an integer (an
    /// arithmetic operand, an ordering comparison, a size, a thread id, a
    /// call target): an integer is itself, and a pointer casts to the
    /// stable non-zero encoding `2^46 + obj * 4096 + off`, computed with
    /// wrapping arithmetic so no offset can overflow.
    pub fn word(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Ptr(p) => 0x4000_0000_0000_i64
                .wrapping_add((p.obj.0 as i64).wrapping_mul(4096))
                .wrapping_add(p.off),
        }
    }

    /// This value displaced by `delta` words: a pointer keeps its object and
    /// moves its offset, an integer adds with wrapping (`Gep`).
    pub fn offset_by(self, delta: i64) -> Value {
        match self {
            Value::Ptr(p) => Value::Ptr(p.add(delta)),
            Value::Int(i) => Value::Int(i.wrapping_add(delta)),
        }
    }

    /// `self <op> rhs` (the `Bin` instruction): a pointer plus or minus a
    /// value stays a pointer into the same object, displaced by the value's
    /// [`word`](Value::word); every other operation is [`BinOp::eval`] on
    /// words. `None` is a division or remainder by zero.
    pub fn bin(self, op: BinOp, rhs: Value) -> Option<Value> {
        match (self, op) {
            (Value::Ptr(_), BinOp::Add) => Some(self.offset_by(rhs.word())),
            (Value::Ptr(_), BinOp::Sub) => Some(self.offset_by(rhs.word().wrapping_neg())),
            _ => op.eval(self.word(), rhs.word()).map(Value::Int),
        }
    }

    /// `self <op> rhs` (the `Cmp` instruction): equality is
    /// [`value_eq`](Value::value_eq), orderings compare
    /// [`word`](Value::word)s.
    pub fn compare(self, op: CmpOp, rhs: Value) -> bool {
        match op {
            CmpOp::Eq => self.value_eq(rhs),
            CmpOp::Ne => !self.value_eq(rhs),
            _ => op.eval(self.word(), rhs.word()),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<Ptr> for Value {
    fn from(p: Ptr) -> Self {
        Value::Ptr(p)
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

impl fmt::Debug for Ptr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{:?}[{}]", self.obj, self.off)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{}", i),
            Value::Ptr(p) => write!(f, "{:?}", p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_falsy_and_null() {
        assert!(!Value::NULL.truthy());
        assert!(Value::NULL.is_null());
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(1).is_null());
    }

    #[test]
    fn pointers_are_truthy_and_not_null() {
        let p = Value::Ptr(Ptr::to(ObjId(3)));
        assert!(p.truthy());
        assert!(!p.is_null());
    }

    #[test]
    fn pointer_arithmetic_moves_offset_only() {
        let p = Ptr::to(ObjId(9));
        let q = p.add(5).add(-2);
        assert_eq!(q.obj, ObjId(9));
        assert_eq!(q.off, 3);
    }

    #[test]
    fn as_int_and_as_ptr_are_exclusive() {
        let i = Value::Int(7);
        let p = Value::Ptr(Ptr::to(ObjId(1)));
        assert_eq!(i.as_int(), Some(7));
        assert_eq!(i.as_ptr(), None);
        assert_eq!(p.as_int(), None);
        assert!(p.as_ptr().is_some());
    }

    #[test]
    fn pointers_read_as_their_word() {
        let p = Value::Ptr(Ptr { obj: ObjId(1), off: 2 });
        let w = 0x4000_0000_0000 + 4096 + 2;
        assert_eq!(p.word(), w);
        assert_eq!(Value::Int(-3).word(), -3);
        // A far offset wraps instead of overflowing.
        let far = Value::Ptr(Ptr { obj: ObjId(1), off: i64::MAX });
        assert_eq!(far.word(), i64::MAX.wrapping_add(w - 2));
        // `ptr + ptr` displaces by the right operand's word; orderings
        // compare words, equality never equates a pointer with an integer.
        assert_eq!(p.bin(BinOp::Add, p), Some(Value::Ptr(Ptr { obj: ObjId(1), off: 2 + w })));
        assert_eq!(p.bin(BinOp::Mul, Value::Int(1)), Some(Value::Int(w)));
        assert!(p.compare(CmpOp::Ge, Value::Int(w)) && p.compare(CmpOp::Le, Value::Int(w)));
        assert!(!p.compare(CmpOp::Eq, Value::Int(w)));
        assert!(p.compare(CmpOp::Ne, Value::Int(w)));
    }

    #[test]
    fn arithmetic_wraps_instead_of_overflowing() {
        let p = Value::Ptr(Ptr { obj: ObjId(1), off: 2 });
        let min = Value::Int(i64::MIN);
        assert_eq!(
            p.bin(BinOp::Sub, min),
            Some(Value::Ptr(Ptr { obj: ObjId(1), off: i64::MIN + 2 }))
        );
        assert_eq!(Value::Int(i64::MAX).offset_by(1), Value::Int(i64::MIN));
        assert_eq!(p.offset_by(-2), Value::Ptr(Ptr::to(ObjId(1))));
        assert_eq!(Value::Int(1).bin(BinOp::Rem, Value::Int(0)), None);
        assert_eq!(p.bin(BinOp::Div, Value::Int(0)), None);
    }

    #[test]
    fn value_eq_distinguishes_objects_and_offsets() {
        let a = Value::Ptr(Ptr { obj: ObjId(1), off: 0 });
        let b = Value::Ptr(Ptr { obj: ObjId(1), off: 1 });
        let c = Value::Ptr(Ptr { obj: ObjId(2), off: 0 });
        assert!(a.value_eq(a));
        assert!(!a.value_eq(b));
        assert!(!a.value_eq(c));
        assert!(!a.value_eq(Value::Int(0)));
    }
}
