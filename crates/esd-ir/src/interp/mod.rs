//! A concrete, multi-threaded interpreter for the IR.
//!
//! The interpreter serves three roles in the reproduction:
//!
//! 1. **The end-user site.** Running a workload program under a randomized
//!    scheduler with arbitrary inputs is how a failure "happens in
//!    production" and produces the [`CoreDump`] that seeds ESD.
//! 2. **The stress-testing baseline** of §7.2 (brute-force trial and error).
//! 3. **The playback substrate** of §5: the playback environment drives the
//!    interpreter thread-by-thread according to the synthesized schedule and
//!    feeds it the synthesized inputs, which must deterministically re-create
//!    the failure.
//!
//! The interpreter executes one thread at a time (a serialized execution, as
//! in the paper's synthesis and serial playback modes); which thread runs
//! next is decided either by a built-in scheduler ([`Interpreter::run`]) or
//! by an external driver calling [`Interpreter::step_thread`] directly.

pub mod coredump;
pub mod inputs;
pub mod memory;
pub mod thread;

pub use coredump::{CoreDump, FaultKind, StackFrameInfo, ThreadDumpInfo};
pub use inputs::{InputProvider, MapInputs, RandomInputs, ZeroInputs};
pub use memory::{MemError, Memory, ObjKind, Object};
pub use thread::{CondState, Frame, MutexState, SyncState, Thread, ThreadStatus};

use crate::inst::{Callee, Inst, Operand, Terminator};
use crate::program::Program;
use crate::types::{FuncId, Loc, Reg, ThreadId};
use crate::value::{Ptr, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base offset of function "addresses" produced by `FuncAddr`, so that small
/// integers (and null) are never valid indirect-call targets; decoded by
/// [`Program::function_at`].
pub const FUNC_ADDR_BASE: i64 = 0x1000;

// The limits below bind the symbolic stepper exactly as they bind this
// interpreter, so every execution the stepper reaches plays back here.

/// Maximum call-stack depth: a call at this depth is a stack overflow
/// (`SegFault` at address -1).
pub const MAX_STACK_DEPTH: usize = 4096;

/// Maximum number of threads a program may create; a spawn past it is a
/// `SyncMisuse` fault.
pub const MAX_THREADS: usize = 256;

/// Maximum size (in words) of a single heap allocation; larger requests are
/// clamped to it.
pub const MAX_ALLOC_WORDS: i64 = 1 << 20;

/// Which built-in scheduler [`Interpreter::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Run each thread for up to `quantum` instructions, then rotate.
    RoundRobin {
        /// Scheduling quantum in instructions.
        quantum: u32,
    },
    /// Pick a uniformly random runnable thread before every instruction —
    /// the scheduler used by the stress-testing baseline.
    Random {
        /// PRNG seed (same seed ⇒ same schedule).
        seed: u64,
    },
}

/// Configuration for [`Interpreter::run`].
#[derive(Debug, Clone, Copy)]
pub struct InterpreterConfig {
    /// Abort after this many instructions.
    pub max_steps: u64,
    /// The built-in scheduler to use.
    pub scheduler: SchedulerKind,
    /// Record the context-switch trace in the result.
    pub record_trace: bool,
}

impl Default for InterpreterConfig {
    fn default() -> Self {
        InterpreterConfig {
            max_steps: 1_000_000,
            scheduler: SchedulerKind::RoundRobin { quantum: 64 },
            record_trace: false,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The main thread returned.
    Exit {
        /// Value returned by `main` (0 if it returned void).
        code: i64,
    },
    /// A failure was detected; the coredump describes it.
    Fault(Box<CoreDump>),
    /// The step budget was exhausted.
    StepLimit,
}

impl ExecOutcome {
    /// Returns the coredump if the run faulted.
    pub fn coredump(&self) -> Option<&CoreDump> {
        match self {
            ExecOutcome::Fault(d) => Some(d),
            _ => None,
        }
    }

    /// True if the run ended in a failure.
    pub fn is_fault(&self) -> bool {
        matches!(self, ExecOutcome::Fault(_))
    }
}

/// The result of a full run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: ExecOutcome,
    /// Number of instructions executed.
    pub steps: u64,
    /// Everything the program wrote via `output`.
    pub output: Vec<i64>,
    /// Context-switch trace: `(step, thread switched to)`, only populated
    /// when [`InterpreterConfig::record_trace`] is set.
    pub trace: Vec<(u64, ThreadId)>,
}

/// The result of stepping a single thread once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// The instruction executed; the thread remains runnable.
    Continue,
    /// The thread blocked (on a mutex, condition variable or join) without
    /// executing; pick another thread.
    Blocked,
    /// The thread's start routine returned; the thread is finished.
    ThreadFinished,
    /// The main thread returned; the program is done.
    ProgramExit {
        /// `main`'s return value.
        code: i64,
    },
    /// A failure was detected.
    Fault(Box<CoreDump>),
}

/// The concrete interpreter.
pub struct Interpreter<'p> {
    program: &'p Program,
    /// The object memory (public for debugger-style inspection).
    pub mem: Memory,
    threads: Vec<Thread>,
    sync: SyncState,
    globals: Vec<crate::value::ObjId>,
    inputs: Box<dyn InputProvider>,
    output: Vec<i64>,
    steps: u64,
    finished: Option<ExecOutcome>,
    /// Log of every input word served, as `(thread, seq, value)` — used by
    /// tests and by the record-style tooling.
    pub input_log: Vec<(ThreadId, u32, i64)>,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter for `program`, with inputs served by `inputs`.
    /// Globals are allocated and initialized, and the main thread is created
    /// at the entry function.
    pub fn new(program: &'p Program, inputs: Box<dyn InputProvider>) -> Self {
        let mut mem = Memory::new();
        let mut globals = Vec::with_capacity(program.globals.len());
        for (gi, g) in program.globals.iter().enumerate() {
            let mut data = vec![Value::Int(0); g.size as usize];
            for (i, v) in g.init.iter().enumerate() {
                data[i] = Value::Int(*v);
            }
            globals.push(mem.alloc_init(ObjKind::Global(crate::types::GlobalId(gi as u32)), data));
        }
        let entry_fn = program.func(program.entry);
        let mut locals = Vec::new();
        for size in &entry_fn.local_sizes {
            locals.push(mem.alloc(ObjKind::Local(ThreadId(0)), *size as usize));
        }
        let frame = Frame::new(program.entry, entry_fn.num_regs, &[], locals, None);
        let main = Thread::new(ThreadId(0), frame);
        Interpreter {
            program,
            mem,
            threads: vec![main],
            sync: SyncState::default(),
            globals,
            inputs,
            output: Vec::new(),
            steps: 0,
            finished: None,
            input_log: Vec::new(),
        }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// All threads created so far.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// The thread with the given id.
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.0 as usize]
    }

    /// Synchronization-object state (for inspection).
    pub fn sync(&self) -> &SyncState {
        &self.sync
    }

    /// Everything written via `output` so far.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Number of instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Ids of all currently runnable threads.
    pub fn runnable_threads(&self) -> Vec<ThreadId> {
        self.threads.iter().filter(|t| t.is_runnable()).map(|t| t.id).collect()
    }

    /// True if at least one thread has not finished.
    pub fn has_unfinished_threads(&self) -> bool {
        self.threads.iter().any(|t| !t.is_finished())
    }

    /// The location of the instruction `tid` will execute next, or `None` if
    /// the thread has finished.
    pub fn current_loc(&self, tid: ThreadId) -> Option<Loc> {
        let t = &self.threads[tid.0 as usize];
        if t.is_finished() || t.frames.is_empty() {
            return None;
        }
        let f = t.top();
        Some(Loc { func: f.func, block: f.block, idx: f.idx })
    }

    /// True if no thread is runnable but some thread has not finished — i.e.
    /// every live thread is blocked on a mutex, condition variable or join.
    pub fn is_global_stall(&self) -> bool {
        self.runnable_threads().is_empty() && self.has_unfinished_threads()
    }

    /// The terminal outcome, once the program has exited or faulted.
    pub fn finished(&self) -> Option<&ExecOutcome> {
        self.finished.as_ref()
    }

    fn eval(&self, tid: ThreadId, op: Operand) -> Value {
        match op {
            Operand::Const(c) => Value::Int(c),
            Operand::Reg(r) => {
                self.threads[tid.0 as usize].top().regs[r.0 as usize].unwrap_or(Value::Int(0))
            }
        }
    }

    fn set_reg(&mut self, tid: ThreadId, r: Reg, v: Value) {
        self.threads[tid.0 as usize].top_mut().regs[r.0 as usize] = Some(v);
    }

    fn advance(&mut self, tid: ThreadId) {
        self.threads[tid.0 as usize].top_mut().idx += 1;
    }

    fn mem_fault_kind(err: MemError, addr: Value) -> FaultKind {
        match err {
            MemError::NotAPointer(v) => FaultKind::SegFault { addr: v },
            MemError::DanglingObject(_) => FaultKind::SegFault { addr },
            MemError::UseAfterFree(_) => FaultKind::UseAfterFree,
            MemError::OutOfBounds { off, size, .. } => FaultKind::OutOfBounds { off, size },
            MemError::InvalidFree(_) => FaultKind::InvalidFree,
            MemError::DoubleFree(_) => FaultKind::DoubleFree,
        }
    }

    /// Builds a coredump describing the given fault in the current state.
    pub fn make_coredump(
        &self,
        fault: FaultKind,
        faulting_thread: Option<ThreadId>,
        faulting_loc: Option<Loc>,
        fault_value: Option<Value>,
    ) -> CoreDump {
        let threads = self
            .threads
            .iter()
            .map(|t| {
                let stack = t
                    .frames
                    .iter()
                    .map(|f| StackFrameInfo {
                        func: f.func,
                        func_name: self.program.func(f.func).name.clone(),
                        block: f.block,
                        idx: f.idx,
                    })
                    .collect();
                let (waiting_mutex, waiting_cond, waiting_join) = match t.status {
                    ThreadStatus::BlockedOnMutex(m) => (Some(m), None, None),
                    ThreadStatus::BlockedOnCond(c) => (None, Some(c), None),
                    ThreadStatus::BlockedOnJoin(j) => (None, None, Some(j)),
                    _ => (None, None, None),
                };
                ThreadDumpInfo {
                    thread: t.id,
                    stack,
                    held_locks: t.held_locks.clone(),
                    waiting_mutex,
                    waiting_cond,
                    waiting_join,
                    finished: t.is_finished(),
                }
            })
            .collect();
        CoreDump {
            program_name: self.program.name.clone(),
            fault,
            faulting_thread,
            faulting_loc,
            fault_value,
            threads,
            steps: self.steps,
        }
    }

    fn fault(
        &mut self,
        fault: FaultKind,
        tid: ThreadId,
        loc: Loc,
        value: Option<Value>,
    ) -> StepResult {
        let dump = self.make_coredump(fault, Some(tid), Some(loc), value);
        self.finished = Some(ExecOutcome::Fault(Box::new(dump.clone())));
        StepResult::Fault(Box::new(dump))
    }

    /// Detects a global stall and, if present, records and returns the
    /// corresponding deadlock coredump.
    pub fn detect_deadlock(&mut self) -> Option<CoreDump> {
        if !self.is_global_stall() {
            return None;
        }
        let dump = self.make_coredump(FaultKind::Deadlock, None, None, None);
        self.finished = Some(ExecOutcome::Fault(Box::new(dump.clone())));
        Some(dump)
    }

    fn wake_mutex_waiters(&mut self, addr: Ptr) {
        let waiters = std::mem::take(&mut self.sync.mutex_mut(addr).waiters);
        for w in waiters {
            let t = &mut self.threads[w.0 as usize];
            if t.status == ThreadStatus::BlockedOnMutex(addr) {
                t.status = ThreadStatus::Runnable;
            }
        }
    }

    fn wake_joiners(&mut self, finished: ThreadId) {
        for t in &mut self.threads {
            if t.status == ThreadStatus::BlockedOnJoin(finished) {
                t.status = ThreadStatus::Runnable;
            }
        }
    }

    fn try_acquire(&mut self, tid: ThreadId, addr: Ptr) -> bool {
        let m = self.sync.mutex_mut(addr);
        if m.holder.is_none() {
            m.holder = Some(tid);
            self.threads[tid.0 as usize].held_locks.push(addr);
            true
        } else {
            if !m.waiters.contains(&tid) {
                m.waiters.push(tid);
            }
            self.threads[tid.0 as usize].status = ThreadStatus::BlockedOnMutex(addr);
            false
        }
    }

    fn push_call(
        &mut self,
        tid: ThreadId,
        target: FuncId,
        args: Vec<Value>,
        ret_dst: Option<Reg>,
        loc: Loc,
    ) -> Option<StepResult> {
        if self.threads[tid.0 as usize].frames.len() >= MAX_STACK_DEPTH {
            return Some(self.fault(FaultKind::SegFault { addr: Value::Int(-1) }, tid, loc, None));
        }
        let callee = self.program.func(target);
        let mut locals = Vec::with_capacity(callee.local_sizes.len());
        for size in &callee.local_sizes {
            locals.push(self.mem.alloc(ObjKind::Local(tid), *size as usize));
        }
        let frame = Frame::new(target, callee.num_regs, &args, locals, ret_dst);
        self.threads[tid.0 as usize].frames.push(frame);
        None
    }

    /// Executes one instruction of thread `tid`.
    ///
    /// Calling this on a blocked thread re-attempts the blocking operation
    /// (so an external scheduler may simply retry); calling it on a finished
    /// thread returns [`StepResult::ThreadFinished`] without effect.
    pub fn step_thread(&mut self, tid: ThreadId) -> StepResult {
        if let Some(outcome) = &self.finished {
            return match outcome {
                ExecOutcome::Exit { code } => StepResult::ProgramExit { code: *code },
                ExecOutcome::Fault(d) => StepResult::Fault(d.clone()),
                ExecOutcome::StepLimit => StepResult::Blocked,
            };
        }
        let thread = &self.threads[tid.0 as usize];
        if thread.is_finished() {
            return StepResult::ThreadFinished;
        }
        // A blocked thread retries its blocking operation: make it runnable
        // for this attempt; it will re-block if the condition still holds.
        if !thread.is_runnable() {
            match thread.status {
                ThreadStatus::BlockedOnMutex(_) | ThreadStatus::BlockedOnJoin(_) => {
                    self.threads[tid.0 as usize].status = ThreadStatus::Runnable;
                }
                _ => return StepResult::Blocked,
            }
        }

        let frame = self.threads[tid.0 as usize].top();
        let func = self.program.func(frame.func);
        let block = func.block(frame.block);
        let loc = Loc { func: frame.func, block: frame.block, idx: frame.idx };
        self.steps += 1;

        if frame.idx as usize >= block.insts.len() {
            return self.exec_terminator(tid, loc, block.term.clone());
        }
        let inst = block.insts[frame.idx as usize].clone();
        self.exec_inst(tid, loc, inst)
    }

    fn exec_inst(&mut self, tid: ThreadId, loc: Loc, inst: Inst) -> StepResult {
        match inst {
            Inst::Const { dst, value } => {
                self.set_reg(tid, dst, Value::Int(value));
            }
            Inst::Bin { dst, op, a, b } => {
                let va = self.eval(tid, a);
                let vb = self.eval(tid, b);
                match va.bin(op, vb) {
                    Some(r) => self.set_reg(tid, dst, r),
                    None => return self.fault(FaultKind::DivByZero, tid, loc, Some(vb)),
                }
            }
            Inst::Cmp { dst, op, a, b } => {
                let va = self.eval(tid, a);
                let vb = self.eval(tid, b);
                self.set_reg(tid, dst, Value::Int(va.compare(op, vb) as i64));
            }
            Inst::AddrLocal { dst, local } => {
                let obj = self.threads[tid.0 as usize].top().locals[local.0 as usize];
                self.set_reg(tid, dst, Value::Ptr(Ptr::to(obj)));
            }
            Inst::AddrGlobal { dst, global } => {
                let obj = self.globals[global.0 as usize];
                self.set_reg(tid, dst, Value::Ptr(Ptr::to(obj)));
            }
            Inst::FuncAddr { dst, func } => {
                self.set_reg(tid, dst, Value::Int(FUNC_ADDR_BASE + func.0 as i64));
            }
            Inst::Alloc { dst, size } => {
                let n = self.eval(tid, size).word().clamp(0, MAX_ALLOC_WORDS) as usize;
                let obj = self.mem.alloc(ObjKind::Heap, n);
                self.set_reg(tid, dst, Value::Ptr(Ptr::to(obj)));
            }
            Inst::Free { ptr } => {
                let v = self.eval(tid, ptr);
                if let Err(e) = self.mem.free(v) {
                    return self.fault(Self::mem_fault_kind(e, v), tid, loc, Some(v));
                }
            }
            Inst::Load { dst, addr } => {
                let av = self.eval(tid, addr);
                let p = match Memory::as_address(av) {
                    Ok(p) => p,
                    Err(e) => return self.fault(Self::mem_fault_kind(e, av), tid, loc, Some(av)),
                };
                match self.mem.load(p) {
                    Ok(v) => self.set_reg(tid, dst, v),
                    Err(e) => return self.fault(Self::mem_fault_kind(e, av), tid, loc, Some(av)),
                }
            }
            Inst::Store { addr, value } => {
                let av = self.eval(tid, addr);
                let vv = self.eval(tid, value);
                let p = match Memory::as_address(av) {
                    Ok(p) => p,
                    Err(e) => return self.fault(Self::mem_fault_kind(e, av), tid, loc, Some(av)),
                };
                if let Err(e) = self.mem.store(p, vv) {
                    return self.fault(Self::mem_fault_kind(e, av), tid, loc, Some(av));
                }
            }
            Inst::Gep { dst, base, offset } => {
                let o = self.eval(tid, offset).word();
                let r = self.eval(tid, base).offset_by(o);
                self.set_reg(tid, dst, r);
            }
            Inst::Call { dst, callee, args } => {
                let target = match callee {
                    Callee::Direct(f) => f,
                    Callee::Indirect(op) => {
                        let v = self.eval(tid, op);
                        match self.program.function_at(v.word()) {
                            Some(f) => f,
                            None => {
                                return self.fault(
                                    FaultKind::BadIndirectCall { target: v },
                                    tid,
                                    loc,
                                    Some(v),
                                )
                            }
                        }
                    }
                };
                let argv: Vec<Value> = args.iter().map(|a| self.eval(tid, *a)).collect();
                // Advance the caller past the call before pushing the callee
                // frame, so a later `Ret` only needs to write the result.
                self.advance(tid);
                if let Some(r) = self.push_call(tid, target, argv, dst, loc) {
                    return r;
                }
                return StepResult::Continue;
            }
            Inst::Input { dst, source } => {
                let seq = self.threads[tid.0 as usize].input_seq;
                self.threads[tid.0 as usize].input_seq += 1;
                let v = self.inputs.read(tid, seq, &source);
                self.input_log.push((tid, seq, v));
                self.set_reg(tid, dst, Value::Int(v));
            }
            Inst::Output { value } => {
                let v = self.eval(tid, value).word();
                self.output.push(v);
            }
            Inst::Assert { cond, msg } => {
                let v = self.eval(tid, cond);
                if !v.truthy() {
                    return self.fault(FaultKind::AssertFailure { msg }, tid, loc, Some(v));
                }
            }
            Inst::MutexLock { mutex } => {
                let av = self.eval(tid, mutex);
                let p = match Memory::as_address(av) {
                    Ok(p) => p,
                    Err(e) => return self.fault(Self::mem_fault_kind(e, av), tid, loc, Some(av)),
                };
                if self.try_acquire(tid, p) {
                    self.advance(tid);
                    return StepResult::Continue;
                }
                return StepResult::Blocked;
            }
            Inst::MutexUnlock { mutex } => {
                let av = self.eval(tid, mutex);
                let p = match Memory::as_address(av) {
                    Ok(p) => p,
                    Err(e) => return self.fault(Self::mem_fault_kind(e, av), tid, loc, Some(av)),
                };
                if self.sync.holder_of(p) != Some(tid) {
                    return self.fault(
                        FaultKind::SyncMisuse {
                            what: "unlock of a mutex not held by this thread".into(),
                        },
                        tid,
                        loc,
                        Some(av),
                    );
                }
                self.sync.mutex_mut(p).holder = None;
                self.threads[tid.0 as usize].held_locks.retain(|h| *h != p);
                self.wake_mutex_waiters(p);
            }
            Inst::CondWait { cond, mutex } => {
                let cv = self.eval(tid, cond);
                let mv = self.eval(tid, mutex);
                let cp = match Memory::as_address(cv) {
                    Ok(p) => p,
                    Err(e) => return self.fault(Self::mem_fault_kind(e, cv), tid, loc, Some(cv)),
                };
                let mp = match Memory::as_address(mv) {
                    Ok(p) => p,
                    Err(e) => return self.fault(Self::mem_fault_kind(e, mv), tid, loc, Some(mv)),
                };
                if self.threads[tid.0 as usize].cond_resume == Some(mp) {
                    // Signaled earlier: complete the wait by re-acquiring the
                    // mutex (blocking if needed).
                    if self.try_acquire(tid, mp) {
                        self.threads[tid.0 as usize].cond_resume = None;
                        self.advance(tid);
                        return StepResult::Continue;
                    }
                    return StepResult::Blocked;
                }
                if self.sync.holder_of(mp) != Some(tid) {
                    return self.fault(
                        FaultKind::SyncMisuse {
                            what: "cond_wait without holding the mutex".into(),
                        },
                        tid,
                        loc,
                        Some(mv),
                    );
                }
                // Atomically release the mutex and block on the condition.
                self.sync.mutex_mut(mp).holder = None;
                self.threads[tid.0 as usize].held_locks.retain(|h| *h != mp);
                self.wake_mutex_waiters(mp);
                self.sync.cond_mut(cp).waiters.push((tid, mp));
                self.threads[tid.0 as usize].status = ThreadStatus::BlockedOnCond(cp);
                return StepResult::Blocked;
            }
            Inst::CondSignal { cond } => {
                let cv = self.eval(tid, cond);
                let cp = match Memory::as_address(cv) {
                    Ok(p) => p,
                    Err(e) => return self.fault(Self::mem_fault_kind(e, cv), tid, loc, Some(cv)),
                };
                let waiter = {
                    let c = self.sync.cond_mut(cp);
                    if c.waiters.is_empty() {
                        None
                    } else {
                        Some(c.waiters.remove(0))
                    }
                };
                if let Some((w, m)) = waiter {
                    let t = &mut self.threads[w.0 as usize];
                    t.cond_resume = Some(m);
                    t.status = ThreadStatus::Runnable;
                }
            }
            Inst::CondBroadcast { cond } => {
                let cv = self.eval(tid, cond);
                let cp = match Memory::as_address(cv) {
                    Ok(p) => p,
                    Err(e) => return self.fault(Self::mem_fault_kind(e, cv), tid, loc, Some(cv)),
                };
                let waiters = std::mem::take(&mut self.sync.cond_mut(cp).waiters);
                for (w, m) in waiters {
                    let t = &mut self.threads[w.0 as usize];
                    t.cond_resume = Some(m);
                    t.status = ThreadStatus::Runnable;
                }
            }
            Inst::ThreadSpawn { dst, func, arg } => {
                let target = match func {
                    Callee::Direct(f) => f,
                    Callee::Indirect(op) => {
                        let v = self.eval(tid, op);
                        match self.program.function_at(v.word()) {
                            Some(f) => f,
                            None => {
                                return self.fault(
                                    FaultKind::BadIndirectCall { target: v },
                                    tid,
                                    loc,
                                    Some(v),
                                )
                            }
                        }
                    }
                };
                if self.threads.len() >= MAX_THREADS {
                    return self.fault(
                        FaultKind::SyncMisuse { what: "thread limit exceeded".into() },
                        tid,
                        loc,
                        None,
                    );
                }
                let av = self.eval(tid, arg);
                let new_tid = ThreadId(self.threads.len() as u32);
                let callee = self.program.func(target);
                let mut locals = Vec::with_capacity(callee.local_sizes.len());
                for size in &callee.local_sizes {
                    locals.push(self.mem.alloc(ObjKind::Local(new_tid), *size as usize));
                }
                let frame = Frame::new(target, callee.num_regs, &[av], locals, None);
                self.threads.push(Thread::new(new_tid, frame));
                self.set_reg(tid, dst, Value::Int(new_tid.0 as i64));
            }
            Inst::ThreadJoin { thread } => {
                let v = self.eval(tid, thread).word();
                if v < 0 || v as usize >= self.threads.len() {
                    return self.fault(
                        FaultKind::SyncMisuse { what: format!("join of invalid thread id {v}") },
                        tid,
                        loc,
                        Some(Value::Int(v)),
                    );
                }
                let target = ThreadId(v as u32);
                if self.threads[target.0 as usize].is_finished() {
                    self.advance(tid);
                    return StepResult::Continue;
                }
                self.threads[tid.0 as usize].status = ThreadStatus::BlockedOnJoin(target);
                return StepResult::Blocked;
            }
            Inst::Yield | Inst::Nop => {}
        }
        self.advance(tid);
        StepResult::Continue
    }

    fn exec_terminator(&mut self, tid: ThreadId, loc: Loc, term: Terminator) -> StepResult {
        match term {
            Terminator::Br { target } => {
                let top = self.threads[tid.0 as usize].top_mut();
                top.block = target;
                top.idx = 0;
                StepResult::Continue
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let v = self.eval(tid, cond);
                let top = self.threads[tid.0 as usize].top_mut();
                top.block = if v.truthy() { then_bb } else { else_bb };
                top.idx = 0;
                StepResult::Continue
            }
            Terminator::Ret { value } => {
                let ret_val = value.map(|v| self.eval(tid, v));
                let frame = self.threads[tid.0 as usize].frames.pop().expect("ret without frame");
                for l in &frame.locals {
                    self.mem.kill_local(*l);
                }
                if self.threads[tid.0 as usize].frames.is_empty() {
                    // The thread's start routine returned.
                    self.threads[tid.0 as usize].status = ThreadStatus::Finished;
                    self.threads[tid.0 as usize].return_value = ret_val;
                    self.wake_joiners(tid);
                    if tid == ThreadId(0) {
                        let code = ret_val.map(Value::word).unwrap_or(0);
                        self.finished = Some(ExecOutcome::Exit { code });
                        return StepResult::ProgramExit { code };
                    }
                    return StepResult::ThreadFinished;
                }
                if let (Some(dst), Some(v)) = (frame.ret_dst, ret_val) {
                    self.set_reg(tid, dst, v);
                }
                StepResult::Continue
            }
            Terminator::Unreachable => self.fault(FaultKind::UnreachableExecuted, tid, loc, None),
        }
    }

    /// Runs the program to completion (or fault, deadlock, step limit) using
    /// the built-in scheduler from `config`.
    pub fn run(&mut self, config: &InterpreterConfig) -> RunResult {
        let mut rng = match config.scheduler {
            SchedulerKind::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        let mut trace = Vec::new();
        let mut last_thread: Option<ThreadId> = None;
        let mut rr_cursor = 0usize;
        let mut quantum_left = 0u32;

        loop {
            if self.steps >= config.max_steps {
                return RunResult {
                    outcome: ExecOutcome::StepLimit,
                    steps: self.steps,
                    output: self.output.clone(),
                    trace,
                };
            }
            let runnable = self.runnable_threads();
            if runnable.is_empty() {
                if let Some(dump) = self.detect_deadlock() {
                    return RunResult {
                        outcome: ExecOutcome::Fault(Box::new(dump)),
                        steps: self.steps,
                        output: self.output.clone(),
                        trace,
                    };
                }
                // All threads finished without main exiting (cannot happen:
                // main finishing sets the outcome) — treat as exit 0.
                return RunResult {
                    outcome: ExecOutcome::Exit { code: 0 },
                    steps: self.steps,
                    output: self.output.clone(),
                    trace,
                };
            }
            let tid = match (&config.scheduler, &mut rng) {
                (SchedulerKind::Random { .. }, Some(rng)) => {
                    runnable[rng.gen_range(0..runnable.len())]
                }
                (SchedulerKind::RoundRobin { quantum }, _) => {
                    let keep_current = quantum_left > 0
                        && last_thread.map(|t| runnable.contains(&t)).unwrap_or(false);
                    if keep_current {
                        quantum_left -= 1;
                        last_thread.unwrap()
                    } else {
                        rr_cursor = (rr_cursor + 1) % runnable.len();
                        quantum_left = quantum.saturating_sub(1);
                        runnable[rr_cursor % runnable.len()]
                    }
                }
                _ => runnable[0],
            };
            if config.record_trace && last_thread != Some(tid) {
                trace.push((self.steps, tid));
            }
            last_thread = Some(tid);

            match self.step_thread(tid) {
                StepResult::Continue | StepResult::Blocked | StepResult::ThreadFinished => {}
                StepResult::ProgramExit { code } => {
                    return RunResult {
                        outcome: ExecOutcome::Exit { code },
                        steps: self.steps,
                        output: self.output.clone(),
                        trace,
                    };
                }
                StepResult::Fault(dump) => {
                    return RunResult {
                        outcome: ExecOutcome::Fault(dump),
                        steps: self.steps,
                        output: self.output.clone(),
                        trace,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
