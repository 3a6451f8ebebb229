//! A small register-based intermediate representation (IR) and concrete
//! multi-threaded interpreter, the substrate on which execution synthesis
//! operates.
//!
//! The original ESD system (Zamfir & Candea, EuroSys 2010) operates on LLVM
//! bitcode via a modified Klee. This crate provides the analogous substrate
//! for the Rust reproduction: programs are collections of functions made of
//! basic blocks of simple instructions, with word-granularity loads and
//! stores, calls (direct and indirect), environment inputs, and
//! synchronization intrinsics (mutexes, condition variables, thread spawn and
//! join). The granularity is exactly what the synthesis algorithms need:
//! a control-flow graph, data-flow through registers and memory, and
//! scheduler-visible synchronization points.
//!
//! The crate contains:
//!
//! * the IR itself ([`program`], [`inst`], [`value`]),
//! * a fluent [`builder`] used by the workload suite and by tests,
//! * a structural [`validate`] pass,
//! * a [`printer`] that renders programs in a readable textual form,
//! * a concrete, deterministic-or-randomized multi-threaded [`interp`]reter
//!   that detects memory-safety violations, assertion failures and deadlocks
//!   and captures a [`interp::CoreDump`] when a failure occurs.

// Documentation enforcement (see ARCHITECTURE.md, "Documentation policy"):
// every public item must carry rustdoc.
#![deny(missing_docs)]

pub mod builder;
pub mod inst;
pub mod interp;
pub mod printer;
pub mod program;
pub mod types;
pub mod validate;
pub mod value;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use inst::{BinOp, Callee, CmpOp, InputSource, Inst, Operand, Successors, Terminator};
pub use interp::{
    CoreDump, ExecOutcome, FaultKind, Interpreter, InterpreterConfig, RunResult, SchedulerKind,
    StackFrameInfo, ThreadDumpInfo,
};
pub use program::{BasicBlock, Function, Global, Program};
pub use types::{BlockId, FuncId, GlobalId, Loc, LocalId, Reg, ThreadId};
pub use value::{ObjId, Ptr, Value};
