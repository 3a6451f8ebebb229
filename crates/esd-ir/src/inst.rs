//! The instruction set of the IR.
//!
//! Instructions are deliberately low level: word-granularity loads and
//! stores, explicit synchronization intrinsics, and explicit environment
//! inputs. This mirrors the properties of LLVM bitcode that the original ESD
//! relies on (word-level memory operations and scheduler-visible
//! synchronization calls, cf. §6.2 of the paper).

use crate::types::{BlockId, FuncId, GlobalId, LocalId, Reg};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An operand: either a virtual register or an immediate integer constant.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// The current value of a virtual register.
    Reg(Reg),
    /// An immediate 64-bit constant.
    Const(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(c: i64) -> Self {
        Operand::Const(c)
    }
}

/// Binary arithmetic and bitwise operators.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (division by zero faults).
    Div,
    /// Signed remainder (division by zero faults).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Shr,
}

impl BinOp {
    /// Evaluates the operator on concrete words: wrapping arithmetic, shift
    /// counts taken modulo 64, and `None` for division or remainder by zero
    /// (a fault in both executors, no value in the analyses).
    ///
    /// This, [`CmpOp::eval`], [`crate::Value::word`], [`crate::Value::bin`],
    /// [`crate::Value::compare`], [`crate::Value::offset_by`] and
    /// [`crate::Program::function_at`] are the IR's one concrete semantics:
    /// the interpreter, the symbolic stepper and its constant folder, and
    /// the static analyses all call them, so a synthesized execution
    /// computes what its playback computes.
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div | BinOp::Rem if b == 0 => return None,
            BinOp::Div => a.wrapping_div(b),
            BinOp::Rem => a.wrapping_rem(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        })
    }
}

/// Comparison operators; the result is the integer 1 (true) or 0 (false).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-than-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-than-or-equal.
    Ge,
}

impl CmpOp {
    /// Returns the comparison with operands swapped (`a < b` ⟷ `b > a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Returns the logical negation of the comparison.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Evaluates the comparison on concrete words (signed), part of the
    /// IR's one concrete semantics (see [`BinOp::eval`]).
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// The callee of a call instruction.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Callee {
    /// A direct call to a known function.
    Direct(FuncId),
    /// An indirect call through a register holding a function "address"
    /// (as produced by [`Inst::FuncAddr`] and decoded by
    /// [`crate::Program::function_at`]).
    Indirect(Operand),
}

/// Sources of external, a-priori-unknown program input.
///
/// Every execution of an `Input` instruction produces one fresh word from the
/// environment. During synthesis these become unconstrained symbolic
/// variables ("ESD runs the program with symbolic inputs that are initially
/// unconstrained"); during concrete execution and playback they are served by
/// an input provider.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Debug)]
pub enum InputSource {
    /// A command-line argument word (`argv[i]`-style).
    Arg(u32),
    /// A character read from standard input (`getchar()`-style).
    Stdin,
    /// A character of the named environment variable (`getenv(name)[i]`).
    Env(String),
    /// A word received from the network.
    Net,
    /// A word read from a file with the given name.
    File(String),
}

/// A single non-terminator instruction.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = imm`.
    Const {
        /// Destination register.
        dst: Reg,
        /// The immediate value.
        value: i64,
    },
    /// `dst = a <op> b` on integers.
    Bin {
        /// Destination register.
        dst: Reg,
        /// The arithmetic/bitwise operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = (a <op> b) ? 1 : 0`.
    Cmp {
        /// Destination register.
        dst: Reg,
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = &local`.
    AddrLocal {
        /// Destination register.
        dst: Reg,
        /// The function-local slot whose address is taken.
        local: LocalId,
    },
    /// `dst = &global`.
    AddrGlobal {
        /// Destination register.
        dst: Reg,
        /// The global whose address is taken.
        global: GlobalId,
    },
    /// `dst = (integer "address" of function f)`, for indirect calls.
    FuncAddr {
        /// Destination register.
        dst: Reg,
        /// The function whose "address" is materialized.
        func: FuncId,
    },
    /// `dst = malloc(size)` — allocates a fresh heap object of `size` words.
    Alloc {
        /// Destination register (receives the new pointer).
        dst: Reg,
        /// Object size in words.
        size: Operand,
    },
    /// `free(ptr)` — frees a heap object; freeing anything else faults.
    Free {
        /// The pointer being freed.
        ptr: Operand,
    },
    /// `dst = *(addr)` — word load.
    Load {
        /// Destination register.
        dst: Reg,
        /// The address read from.
        addr: Operand,
    },
    /// `*(addr) = value` — word store.
    Store {
        /// The address written to.
        addr: Operand,
        /// The word stored.
        value: Operand,
    },
    /// `dst = base + offset` pointer arithmetic (offset in words).
    Gep {
        /// Destination register.
        dst: Reg,
        /// Base pointer.
        base: Operand,
        /// Offset in words.
        offset: Operand,
    },
    /// Call a function with arguments; the return value (if any) is written
    /// to `dst`.
    Call {
        /// Destination register for the return value, if used.
        dst: Option<Reg>,
        /// The called function (direct or computed).
        callee: Callee,
        /// Actual arguments.
        args: Vec<Operand>,
    },
    /// `dst = <one fresh word from the environment>`.
    Input {
        /// Destination register.
        dst: Reg,
        /// Which environment source serves the word.
        source: InputSource,
    },
    /// Emit a word to the program's output stream.
    Output {
        /// The word emitted.
        value: Operand,
    },
    /// Abort with an assertion failure if `cond` is false.
    Assert {
        /// The asserted condition (non-zero = pass).
        cond: Operand,
        /// Message reported when the assertion fails.
        msg: String,
    },
    /// `mutex_lock(mutex)` where `mutex` is the address of a mutex word.
    MutexLock {
        /// Address of the mutex word.
        mutex: Operand,
    },
    /// `mutex_unlock(mutex)`.
    MutexUnlock {
        /// Address of the mutex word.
        mutex: Operand,
    },
    /// `cond_wait(cond, mutex)` — atomically release `mutex` and block on
    /// `cond`; re-acquire `mutex` before returning.
    CondWait {
        /// Address of the condition-variable word.
        cond: Operand,
        /// Address of the released-and-reacquired mutex word.
        mutex: Operand,
    },
    /// `cond_signal(cond)` — wake one waiter.
    CondSignal {
        /// Address of the condition-variable word.
        cond: Operand,
    },
    /// `cond_broadcast(cond)` — wake all waiters.
    CondBroadcast {
        /// Address of the condition-variable word.
        cond: Operand,
    },
    /// `dst = spawn(func, arg)` — create a thread running `func(arg)`;
    /// returns the new thread's id.
    ThreadSpawn {
        /// Destination register (receives the thread id).
        dst: Reg,
        /// The spawned thread's entry function.
        func: Callee,
        /// The single argument passed to the entry function.
        arg: Operand,
    },
    /// `join(thread)` — block until the given thread id terminates.
    ThreadJoin {
        /// The joined thread's id.
        thread: Operand,
    },
    /// Voluntarily yield the processor (a scheduling point with no effect).
    Yield,
    /// No operation (used as padding by the BPF generator).
    Nop,
}

impl Inst {
    /// Returns the register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::AddrLocal { dst, .. }
            | Inst::AddrGlobal { dst, .. }
            | Inst::FuncAddr { dst, .. }
            | Inst::Alloc { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Gep { dst, .. }
            | Inst::Input { dst, .. }
            | Inst::ThreadSpawn { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Returns all operands read by this instruction.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Inst::Const { .. }
            | Inst::AddrLocal { .. }
            | Inst::AddrGlobal { .. }
            | Inst::FuncAddr { .. }
            | Inst::Input { .. }
            | Inst::Yield
            | Inst::Nop => vec![],
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => vec![*a, *b],
            Inst::Alloc { size, .. } => vec![*size],
            Inst::Free { ptr } => vec![*ptr],
            Inst::Load { addr, .. } => vec![*addr],
            Inst::Store { addr, value } => vec![*addr, *value],
            Inst::Gep { base, offset, .. } => vec![*base, *offset],
            Inst::Call { callee, args, .. } => {
                let mut v: Vec<Operand> = args.clone();
                if let Callee::Indirect(op) = callee {
                    v.push(*op);
                }
                v
            }
            Inst::Output { value } => vec![*value],
            Inst::Assert { cond, .. } => vec![*cond],
            Inst::MutexLock { mutex } | Inst::MutexUnlock { mutex } => vec![*mutex],
            Inst::CondWait { cond, mutex } => vec![*cond, *mutex],
            Inst::CondSignal { cond } | Inst::CondBroadcast { cond } => vec![*cond],
            Inst::ThreadSpawn { func, arg, .. } => {
                let mut v = vec![*arg];
                if let Callee::Indirect(op) = func {
                    v.push(*op);
                }
                v
            }
            Inst::ThreadJoin { thread } => vec![*thread],
        }
    }

    /// Returns true if this instruction is a synchronization operation, i.e.
    /// one of the preemption points ESD considers for deadlock schedule
    /// synthesis (§4.1 of the paper).
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Inst::MutexLock { .. }
                | Inst::MutexUnlock { .. }
                | Inst::CondWait { .. }
                | Inst::CondSignal { .. }
                | Inst::CondBroadcast { .. }
                | Inst::ThreadSpawn { .. }
                | Inst::ThreadJoin { .. }
                | Inst::Yield
        )
    }

    /// Returns true if this instruction accesses shared memory (a load or a
    /// store), i.e. one of the preemption points relevant for data-race
    /// schedule synthesis (§4.2).
    pub fn is_mem_access(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }
}

/// A basic-block terminator.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Br {
        /// The jump target.
        target: BlockId,
    },
    /// Two-way conditional branch on a (possibly symbolic) condition.
    CondBr {
        /// The branched-on condition (non-zero = then).
        cond: Operand,
        /// Target when the condition is non-zero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
    },
    /// Return from the current function.
    Ret {
        /// The returned word, if the function returns one.
        value: Option<Operand>,
    },
    /// Marks statically unreachable code; executing it is a fault.
    Unreachable,
}

impl Terminator {
    /// Returns the possible successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br { target } => vec![*target],
            Terminator::CondBr { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            Terminator::Ret { .. } | Terminator::Unreachable => vec![],
        }
    }

    /// Returns all operands read by the terminator.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Terminator::CondBr { cond, .. } => vec![*cond],
            Terminator::Ret { value: Some(v) } => vec![*v],
            _ => vec![],
        }
    }
}

impl fmt::Debug for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{:?}", r),
            Operand::Const(c) => write!(f, "{}", c),
        }
    }
}

impl fmt::Debug for Callee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Callee::Direct(func) => write!(f, "{:?}", func),
            Callee::Indirect(op) => write!(f, "*{:?}", op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negate_is_involutive_and_correct() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.negate().negate(), op);
            for (a, b) in [(1, 2), (2, 1), (3, 3), (-5, 5)] {
                assert_eq!(op.eval(a, b), !op.negate().eval(a, b), "{:?} {} {}", op, a, b);
                assert_eq!(op.eval(a, b), op.swap().eval(b, a), "swap {:?} {} {}", op, a, b);
            }
        }
    }

    #[test]
    fn bin_eval_wraps_masks_shifts_and_refuses_zero_divisors() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(BinOp::Sub.eval(i64::MIN, 1), Some(i64::MAX));
        assert_eq!(BinOp::Mul.eval(i64::MIN, -1), Some(i64::MIN));
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), Some(i64::MIN));
        assert_eq!(BinOp::Rem.eval(i64::MIN, -1), Some(0));
        assert_eq!(BinOp::Div.eval(7, 0), None);
        assert_eq!(BinOp::Rem.eval(7, 0), None);
        assert_eq!(BinOp::Shl.eval(1, 65), Some(2));
        assert_eq!(BinOp::Shr.eval(-8, 1), Some(-4));
        assert_eq!(BinOp::Xor.eval(0b1100, 0b1010), Some(0b0110));
    }

    #[test]
    fn def_and_uses_are_consistent() {
        let i = Inst::Bin {
            dst: Reg(3),
            op: BinOp::Add,
            a: Operand::Reg(Reg(1)),
            b: Operand::Const(4),
        };
        assert_eq!(i.def(), Some(Reg(3)));
        assert_eq!(i.uses(), vec![Operand::Reg(Reg(1)), Operand::Const(4)]);

        let s = Inst::Store { addr: Operand::Reg(Reg(0)), value: Operand::Reg(Reg(1)) };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().len(), 2);
    }

    #[test]
    fn call_uses_include_indirect_target() {
        let c = Inst::Call {
            dst: Some(Reg(0)),
            callee: Callee::Indirect(Operand::Reg(Reg(5))),
            args: vec![Operand::Const(1)],
        };
        assert!(c.uses().contains(&Operand::Reg(Reg(5))));
    }

    #[test]
    fn sync_and_memory_classification() {
        assert!(Inst::MutexLock { mutex: Operand::Const(0) }.is_sync());
        assert!(Inst::Yield.is_sync());
        assert!(!Inst::Nop.is_sync());
        assert!(Inst::Load { dst: Reg(0), addr: Operand::Const(0) }.is_mem_access());
        assert!(!Inst::Const { dst: Reg(0), value: 1 }.is_mem_access());
    }

    #[test]
    fn terminator_successors() {
        let br = Terminator::Br { target: BlockId(2) };
        assert_eq!(br.successors(), vec![BlockId(2)]);
        let cbr = Terminator::CondBr {
            cond: Operand::Const(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(cbr.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret { value: None }.successors().is_empty());
    }
}
