//! Symbolic values and expressions.
//!
//! During the dynamic phase ESD runs the program "with symbolic inputs that
//! are initially unconstrained" (§3.3). Every word read from the environment
//! becomes a fresh symbolic variable; computed values are expression trees
//! over those variables; branch decisions on symbolic values add constraints
//! to the execution state.

use esd_ir::{BinOp, CmpOp, InputSource, ThreadId, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A symbolic input variable (one word read from the environment).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SymVar(pub u32);

impl fmt::Debug for SymVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Provenance of a symbolic variable: which thread read it, as which of its
/// reads, from which source. This is exactly the key the playback input
/// provider uses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymVarInfo {
    /// The thread that performed the read.
    pub thread: ThreadId,
    /// The per-thread sequence number of the read.
    pub seq: u32,
    /// Where the word came from.
    pub source: InputSource,
}

/// A symbolic expression over 64-bit integers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SymExpr {
    /// A constant.
    Const(i64),
    /// An input variable.
    Var(SymVar),
    /// A binary arithmetic/bitwise operation.
    Bin(BinOp, Arc<SymExpr>, Arc<SymExpr>),
    /// A comparison (evaluates to 0 or 1).
    Cmp(CmpOp, Arc<SymExpr>, Arc<SymExpr>),
    /// Logical negation (`e == 0`).
    Not(Arc<SymExpr>),
}

impl SymExpr {
    /// Wraps in an `Arc` (most constructors take `Arc<SymExpr>`).
    pub fn arc(self) -> Arc<SymExpr> {
        Arc::new(self)
    }

    /// Builds a constant expression.
    pub fn constant(v: i64) -> Arc<SymExpr> {
        Arc::new(SymExpr::Const(v))
    }

    /// Builds a variable expression.
    pub fn var(v: SymVar) -> Arc<SymExpr> {
        Arc::new(SymExpr::Var(v))
    }

    /// Builds a binary operation with constant folding.
    pub fn bin(op: BinOp, a: Arc<SymExpr>, b: Arc<SymExpr>) -> Arc<SymExpr> {
        if let (SymExpr::Const(x), SymExpr::Const(y)) = (a.as_ref(), b.as_ref()) {
            if let Some(v) = op.eval(*x, *y) {
                return SymExpr::constant(v);
            }
        }
        // Identity simplifications.
        match (op, a.as_ref(), b.as_ref()) {
            (BinOp::Add, _, SymExpr::Const(0)) | (BinOp::Sub, _, SymExpr::Const(0)) => {
                return a.clone()
            }
            (BinOp::Add, SymExpr::Const(0), _) => return b.clone(),
            (BinOp::Mul, _, SymExpr::Const(1)) => return a.clone(),
            (BinOp::Mul, SymExpr::Const(1), _) => return b.clone(),
            (BinOp::Mul, _, SymExpr::Const(0)) | (BinOp::Mul, SymExpr::Const(0), _) => {
                return SymExpr::constant(0)
            }
            (BinOp::And, _, SymExpr::Const(0)) | (BinOp::And, SymExpr::Const(0), _) => {
                return SymExpr::constant(0)
            }
            _ => {}
        }
        Arc::new(SymExpr::Bin(op, a, b))
    }

    /// Builds a comparison with constant folding.
    pub fn cmp(op: CmpOp, a: Arc<SymExpr>, b: Arc<SymExpr>) -> Arc<SymExpr> {
        if let (SymExpr::Const(x), SymExpr::Const(y)) = (a.as_ref(), b.as_ref()) {
            return SymExpr::constant(op.eval(*x, *y) as i64);
        }
        Arc::new(SymExpr::Cmp(op, a, b))
    }

    /// Builds the logical negation with simplification. Not `std::ops::Not`:
    /// it is an associated constructor over `Arc<SymExpr>`, matching the
    /// other expression builders (`bin`, `cmp`, `var`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Arc<SymExpr>) -> Arc<SymExpr> {
        match e.as_ref() {
            SymExpr::Const(c) => SymExpr::constant((*c == 0) as i64),
            SymExpr::Cmp(op, a, b) => Arc::new(SymExpr::Cmp(op.negate(), a.clone(), b.clone())),
            SymExpr::Not(inner) => {
                // not(not(x)) normalizes to x != 0.
                Arc::new(SymExpr::Cmp(CmpOp::Ne, inner.clone(), SymExpr::constant(0)))
            }
            _ => Arc::new(SymExpr::Not(e)),
        }
    }

    /// Returns the constant value if the expression is a constant.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            SymExpr::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Collects the variables appearing in the expression.
    pub fn vars(&self, out: &mut Vec<SymVar>) {
        match self {
            SymExpr::Const(_) => {}
            SymExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            SymExpr::Bin(_, a, b) | SymExpr::Cmp(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
            SymExpr::Not(e) => e.vars(out),
        }
    }

    /// Evaluates the expression under an assignment (missing variables are 0).
    pub fn eval(&self, assignment: &HashMap<SymVar, i64>) -> i64 {
        match self {
            SymExpr::Const(c) => *c,
            SymExpr::Var(v) => assignment.get(v).copied().unwrap_or(0),
            SymExpr::Bin(op, a, b) => op.eval(a.eval(assignment), b.eval(assignment)).unwrap_or(0),
            SymExpr::Cmp(op, a, b) => op.eval(a.eval(assignment), b.eval(assignment)) as i64,
            SymExpr::Not(e) => (e.eval(assignment) == 0) as i64,
        }
    }
}

/// A value during symbolic execution: either a concrete machine value (an
/// integer or a pointer) or a symbolic integer expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SymValue {
    /// A concrete value.
    Concrete(Value),
    /// A symbolic integer expression.
    Symbolic(Arc<SymExpr>),
}

impl SymValue {
    /// The concrete integer zero.
    pub const ZERO: SymValue = SymValue::Concrete(Value::Int(0));

    /// Wraps a concrete integer.
    pub fn int(v: i64) -> Self {
        SymValue::Concrete(Value::Int(v))
    }

    /// Returns the concrete value if this is concrete.
    pub fn as_concrete(&self) -> Option<Value> {
        match self {
            SymValue::Concrete(v) => Some(*v),
            SymValue::Symbolic(e) => e.as_const().map(Value::Int),
        }
    }

    /// Returns the expression of the word this value reads as: a concrete
    /// value is the constant of its [`Value::word`], a pointer included, as
    /// in the interpreter's arithmetic and ordering comparisons.
    pub fn as_expr(&self) -> Arc<SymExpr> {
        match self {
            SymValue::Symbolic(e) => e.clone(),
            SymValue::Concrete(v) => SymExpr::constant(v.word()),
        }
    }

    /// True if the value is symbolic (not a compile-time constant).
    pub fn is_symbolic(&self) -> bool {
        match self {
            SymValue::Symbolic(e) => e.as_const().is_none(),
            SymValue::Concrete(_) => false,
        }
    }
}

impl From<Value> for SymValue {
    fn from(v: Value) -> Self {
        SymValue::Concrete(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_in_constructors() {
        let a = SymExpr::constant(6);
        let b = SymExpr::constant(7);
        assert_eq!(SymExpr::bin(BinOp::Mul, a.clone(), b).as_const(), Some(42));
        assert_eq!(SymExpr::cmp(CmpOp::Lt, a.clone(), SymExpr::constant(10)).as_const(), Some(1));
        let v = SymExpr::var(SymVar(0));
        assert_eq!(SymExpr::bin(BinOp::Add, v.clone(), SymExpr::constant(0)), v);
        assert_eq!(SymExpr::bin(BinOp::Mul, v.clone(), SymExpr::constant(0)).as_const(), Some(0));
    }

    #[test]
    fn negation_flips_comparisons() {
        let v = SymExpr::var(SymVar(1));
        let e = SymExpr::cmp(CmpOp::Eq, v.clone(), SymExpr::constant(5));
        let ne = SymExpr::not(e);
        match ne.as_ref() {
            SymExpr::Cmp(CmpOp::Ne, _, _) => {}
            other => panic!("expected Ne, got {other:?}"),
        }
        assert_eq!(SymExpr::not(SymExpr::constant(0)).as_const(), Some(1));
        assert_eq!(SymExpr::not(SymExpr::constant(3)).as_const(), Some(0));
    }

    #[test]
    fn evaluation_under_assignment() {
        let v0 = SymExpr::var(SymVar(0));
        let v1 = SymExpr::var(SymVar(1));
        let sum = SymExpr::bin(BinOp::Add, v0.clone(), v1.clone());
        let cond = SymExpr::cmp(CmpOp::Gt, sum.clone(), SymExpr::constant(10));
        let mut asg = HashMap::new();
        asg.insert(SymVar(0), 4);
        asg.insert(SymVar(1), 9);
        assert_eq!(sum.eval(&asg), 13);
        assert_eq!(cond.eval(&asg), 1);
        asg.insert(SymVar(1), 1);
        assert_eq!(cond.eval(&asg), 0);
    }

    #[test]
    fn vars_are_collected_once() {
        let v0 = SymExpr::var(SymVar(0));
        let e = SymExpr::bin(BinOp::Add, v0.clone(), v0.clone());
        let mut vars = Vec::new();
        e.vars(&mut vars);
        assert_eq!(vars, vec![SymVar(0)]);
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        let e = SymExpr::bin(BinOp::Div, SymExpr::constant(1), SymExpr::constant(0));
        assert_eq!(e.as_const(), None);
        assert!(matches!(e.as_ref(), SymExpr::Bin(BinOp::Div, _, _)));
    }

    #[test]
    fn symvalue_conversions() {
        let c = SymValue::int(5);
        assert!(!c.is_symbolic());
        assert_eq!(c.as_concrete(), Some(Value::Int(5)));
        assert_eq!(c.as_expr().as_const(), Some(5));
        let s = SymValue::Symbolic(SymExpr::var(SymVar(0)));
        assert!(s.is_symbolic());
        assert_eq!(s.as_concrete(), None);
        let ptr = Value::Ptr(esd_ir::Ptr::to(esd_ir::ObjId(1)));
        let p = SymValue::Concrete(ptr);
        assert_eq!(p.as_expr().as_const(), Some(ptr.word()));
        assert!(!p.is_symbolic());
    }
}
