//! Register use-def tracing and reaching definitions of global variables.
//!
//! The static phase needs to understand *which program variables a branch
//! condition depends on* and *which instructions define those variables*
//! ("reaching definitions" in the paper, §3.2). In our IR the interesting
//! variables are memory words — globals loaded by the condition — because
//! registers are function-local temporaries. This module provides:
//!
//! * [`DefIndex::trace`]: rebuild the (partial) expression tree of an
//!   operand by walking register use-def chains, resolving loads of
//!   statically-known global addresses into symbolic variables;
//! * [`global_stores`]: all stores to statically-known global addresses in
//!   the program, with their stored value when it is a compile-time constant;
//! * [`eval_tri`]: evaluate a traced condition under a partial assignment of
//!   values to global variables.

use esd_ir::{BinOp, CmpOp, Function, GlobalId, Inst, Loc, Operand, Program};
use std::collections::HashMap;

/// A (partially) recovered expression for a condition operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CondExpr {
    /// A compile-time constant.
    Const(i64),
    /// The value of a global word: `(global, word offset)`.
    GlobalVar(GlobalId, i64),
    /// The address of a global word (a pointer constant).
    GlobalAddr(GlobalId, i64),
    /// Something the static analysis cannot see through (inputs, parameters,
    /// values flowing through the heap, values with several definitions).
    Opaque,
    /// A comparison.
    Cmp(CmpOp, Box<CondExpr>, Box<CondExpr>),
    /// A binary arithmetic/bitwise operation.
    Bin(BinOp, Box<CondExpr>, Box<CondExpr>),
}

impl CondExpr {
    /// Collects every global variable referenced by the expression.
    pub fn globals(&self) -> Vec<(GlobalId, i64)> {
        let mut out = Vec::new();
        self.collect_globals(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_globals(&self, out: &mut Vec<(GlobalId, i64)>) {
        match self {
            CondExpr::GlobalVar(g, off) => out.push((*g, *off)),
            CondExpr::Cmp(_, a, b) | CondExpr::Bin(_, a, b) => {
                a.collect_globals(out);
                b.collect_globals(out);
            }
            _ => {}
        }
    }

    /// True if the expression contains an [`CondExpr::Opaque`] leaf.
    pub fn has_opaque(&self) -> bool {
        match self {
            CondExpr::Opaque => true,
            CondExpr::Cmp(_, a, b) | CondExpr::Bin(_, a, b) => a.has_opaque() || b.has_opaque(),
            _ => false,
        }
    }
}

/// The per-function register → definition index that use-def tracing walks.
///
/// Built in one pass over the function's instructions, it records for each
/// register the defining instruction when exactly one instruction defines it
/// (a register with none or several stays untraceable). Tracing an operand
/// through it costs one lookup per step instead of a scan of the whole
/// function, so tracing every instruction of a function is linear in its
/// size.
pub struct DefIndex<'a> {
    num_params: u32,
    defs: Vec<RegDef<'a>>,
}

#[derive(Clone, Copy)]
enum RegDef<'a> {
    Undefined,
    Unique(&'a Inst),
    Several,
}

const MAX_TRACE_DEPTH: u32 = 16;

impl<'a> DefIndex<'a> {
    /// Indexes the register definitions of `function`.
    pub fn new(function: &'a Function) -> Self {
        let mut defs = vec![RegDef::Undefined; function.num_regs as usize];
        for inst in function.blocks.iter().flat_map(|b| &b.insts) {
            let Some(reg) = inst.def() else { continue };
            let r = reg.0 as usize;
            if r >= defs.len() {
                defs.resize(r + 1, RegDef::Undefined);
            }
            defs[r] = match defs[r] {
                RegDef::Undefined => RegDef::Unique(inst),
                _ => RegDef::Several,
            };
        }
        DefIndex { num_params: function.num_params, defs }
    }

    /// Rebuilds the expression computed into `op`, following register
    /// use-def chains. Registers with more than one definition and values
    /// the analysis cannot see through become [`CondExpr::Opaque`].
    pub fn trace(&self, op: Operand) -> CondExpr {
        self.trace_rec(op, MAX_TRACE_DEPTH)
    }

    fn trace_rec(&self, op: Operand, depth: u32) -> CondExpr {
        if depth == 0 {
            return CondExpr::Opaque;
        }
        let reg = match op {
            Operand::Const(c) => return CondExpr::Const(c),
            Operand::Reg(r) => r,
        };
        // Parameters are runtime values.
        if reg.0 < self.num_params {
            return CondExpr::Opaque;
        }
        let Some(RegDef::Unique(inst)) = self.defs.get(reg.0 as usize) else {
            return CondExpr::Opaque;
        };
        match inst {
            Inst::Const { value, .. } => CondExpr::Const(*value),
            Inst::Cmp { op, a, b, .. } => CondExpr::Cmp(
                *op,
                Box::new(self.trace_rec(*a, depth - 1)),
                Box::new(self.trace_rec(*b, depth - 1)),
            ),
            Inst::Bin { op, a, b, .. } => CondExpr::Bin(
                *op,
                Box::new(self.trace_rec(*a, depth - 1)),
                Box::new(self.trace_rec(*b, depth - 1)),
            ),
            Inst::AddrGlobal { global, .. } => CondExpr::GlobalAddr(*global, 0),
            Inst::Gep { base, offset, .. } => {
                let base = self.trace_rec(*base, depth - 1);
                let off = self.trace_rec(*offset, depth - 1);
                match (base, off) {
                    (CondExpr::GlobalAddr(g, o), CondExpr::Const(c)) => {
                        CondExpr::GlobalAddr(g, o + c)
                    }
                    _ => CondExpr::Opaque,
                }
            }
            Inst::Load { addr, .. } => match self.trace_rec(*addr, depth - 1) {
                CondExpr::GlobalAddr(g, o) => CondExpr::GlobalVar(g, o),
                _ => CondExpr::Opaque,
            },
            _ => CondExpr::Opaque,
        }
    }
}

/// A store to a statically-known global address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalStore {
    /// Where the store happens.
    pub loc: Loc,
    /// Which global word it writes: `(global, offset)`.
    pub target: (GlobalId, i64),
    /// The stored value, when it is a compile-time constant.
    pub value: Option<i64>,
}

/// Finds every store in `program` whose address statically resolves to a
/// global word, recording the stored constant when determinable.
pub fn global_stores(program: &Program) -> Vec<GlobalStore> {
    let mut out = Vec::new();
    for fid in program.func_ids() {
        let function = program.func(fid);
        let defs = DefIndex::new(function);
        for (bi, block) in function.blocks.iter().enumerate() {
            for (ii, inst) in block.insts.iter().enumerate() {
                if let Inst::Store { addr, value } = inst {
                    if let CondExpr::GlobalAddr(g, off) = defs.trace(*addr) {
                        let value = match defs.trace(*value) {
                            CondExpr::Const(c) => Some(c),
                            _ => None,
                        };
                        out.push(GlobalStore {
                            loc: Loc {
                                func: fid,
                                block: esd_ir::BlockId(bi as u32),
                                idx: ii as u32,
                            },
                            target: (g, off),
                            value,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Three-valued result of evaluating a condition whose inputs may be only
/// partially known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// The value is known exactly.
    Known(i64),
    /// The value depends on unknown inputs.
    Unknown,
}

impl Tri {
    /// True if the value is known to be zero (false).
    pub fn is_false(self) -> bool {
        self == Tri::Known(0)
    }

    /// True if the value is known to be non-zero (true).
    pub fn is_true(self) -> bool {
        matches!(self, Tri::Known(v) if v != 0)
    }
}

/// Evaluates a traced condition under a *partial* assignment of
/// global-variable values: variables missing from the assignment (and opaque
/// leaves) evaluate to [`Tri::Unknown`], and known-zero short circuits
/// propagate through `and`/`mul`.
pub fn eval_tri(expr: &CondExpr, assignment: &HashMap<(GlobalId, i64), i64>) -> Tri {
    match expr {
        CondExpr::Const(c) => Tri::Known(*c),
        CondExpr::GlobalVar(g, off) => {
            assignment.get(&(*g, *off)).copied().map(Tri::Known).unwrap_or(Tri::Unknown)
        }
        CondExpr::GlobalAddr(..) => Tri::Known(1),
        CondExpr::Opaque => Tri::Unknown,
        CondExpr::Cmp(op, a, b) => match (eval_tri(a, assignment), eval_tri(b, assignment)) {
            (Tri::Known(a), Tri::Known(b)) => Tri::Known(op.eval(a, b) as i64),
            _ => Tri::Unknown,
        },
        CondExpr::Bin(op, a, b) => {
            let a = eval_tri(a, assignment);
            let b = eval_tri(b, assignment);
            // Zero dominates bitwise-and and multiplication even when the
            // other side is unknown.
            if matches!(op, BinOp::And | BinOp::Mul) && (a.is_false() || b.is_false()) {
                return Tri::Known(0);
            }
            match (a, b) {
                (Tri::Known(a), Tri::Known(b)) => op.eval(a, b).map_or(Tri::Unknown, Tri::Known),
                _ => Tri::Unknown,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{ProgramBuilder, Terminator};

    fn condition_program() -> esd_ir::Program {
        let mut pb = ProgramBuilder::new("p");
        let mode = pb.global("mode", 1);
        let idx = pb.global("idx", 2);
        pb.function("setter", 0, |f| {
            let mp = f.addr_global(mode);
            f.store(mp, 1);
            let ip = f.addr_global(idx);
            let ip1 = f.gep(ip, 1);
            let v = f.load(ip1);
            let v1 = f.add(v, 1);
            f.store(ip1, v1);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let mp = f.addr_global(mode);
            let mv = f.load(mp);
            let is_one = f.cmp(CmpOp::Eq, mv, 1);
            let x = f.getchar();
            let opaque_cmp = f.cmp(CmpOp::Eq, x, 2);
            let both = f.bin(BinOp::And, is_one, opaque_cmp);
            let t = f.new_block("t");
            let e = f.new_block("e");
            f.cond_br(both, t, e);
            f.switch_to(t);
            f.ret_void();
            f.switch_to(e);
            f.ret_void();
        });
        pb.finish("main")
    }

    #[test]
    fn trace_resolves_global_loads_and_constants() {
        let p = condition_program();
        let main = p.func(p.entry);
        let cond = match &main.blocks[0].term {
            Terminator::CondBr { cond, .. } => *cond,
            _ => panic!("expected condbr"),
        };
        let expr = DefIndex::new(main).trace(cond);
        // (mode == 1) & (opaque == 2)
        match &expr {
            CondExpr::Bin(BinOp::And, lhs, rhs) => {
                match lhs.as_ref() {
                    CondExpr::Cmp(CmpOp::Eq, a, b) => {
                        assert!(matches!(a.as_ref(), CondExpr::GlobalVar(_, 0)));
                        assert_eq!(b.as_ref(), &CondExpr::Const(1));
                    }
                    other => panic!("unexpected lhs {other:?}"),
                }
                assert!(rhs.has_opaque());
            }
            other => panic!("unexpected expr {other:?}"),
        }
        assert_eq!(expr.globals().len(), 1);
        assert!(expr.has_opaque());
    }

    #[test]
    fn global_stores_report_constants_and_offsets() {
        let p = condition_program();
        let stores = global_stores(&p);
        assert_eq!(stores.len(), 2);
        let mode = p.global_by_name("mode").unwrap();
        let idx = p.global_by_name("idx").unwrap();
        let const_store = stores.iter().find(|s| s.target.0 == mode).unwrap();
        assert_eq!(const_store.target, (mode, 0));
        assert_eq!(const_store.value, Some(1));
        let inc_store = stores.iter().find(|s| s.target.0 == idx).unwrap();
        assert_eq!(inc_store.target, (idx, 1));
        assert_eq!(inc_store.value, None, "idx+1 is not a constant store");
    }

    #[test]
    fn eval_tri_with_assignments() {
        let p = condition_program();
        let mode = p.global_by_name("mode").unwrap();
        let main = p.func(p.entry);
        let cond = match &main.blocks[0].term {
            Terminator::CondBr { cond, .. } => *cond,
            _ => unreachable!(),
        };
        let expr = DefIndex::new(main).trace(cond);
        // The whole condition depends on getchar …
        let mut asg = HashMap::new();
        assert_eq!(eval_tri(&expr, &asg), Tri::Unknown);
        asg.insert((mode, 0i64), 1i64);
        assert_eq!(eval_tri(&expr, &asg), Tri::Unknown);
        // … but its non-opaque sub-expression evaluates,
        let CondExpr::Bin(_, lhs, _) = &expr else { panic!("expected a bin") };
        assert_eq!(eval_tri(lhs, &asg), Tri::Known(1));
        asg.insert((mode, 0), 2);
        assert_eq!(eval_tri(lhs, &asg), Tri::Known(0));
        // and a known-false side decides the `and` despite the opaque one.
        assert_eq!(eval_tri(&expr, &asg), Tri::Known(0));
    }

    #[test]
    fn multiple_definitions_become_opaque() {
        // A register written in two places cannot be traced.
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let r = f.konst(1);
            f.output(r);
            f.ret_void();
        });
        let mut p = pb.finish("main");
        // Duplicate the defining instruction to create a second definition.
        let inst = p.functions[0].blocks[0].insts[0].clone();
        p.functions[0].blocks[0].insts.insert(0, inst);
        let main = p.func(p.entry);
        let expr = DefIndex::new(main).trace(Operand::Reg(esd_ir::Reg(0)));
        assert_eq!(expr, CondExpr::Opaque);
    }
}
