//! The state stepper: the micro-step interpreter of the search engine,
//! factored out of the search pool so a selected state's whole burst is
//! advanced before any of its effects is merged.
//!
//! A [`Stepper`] borrows everything needed to advance an execution state
//! apart from the search pool: immutable views of the program, the static
//! analysis and the goal, its **own** [`Solver`], and the engine's
//! [`SearchStats`] and other-bugs list. Counters — executed steps, solver
//! queries, static-pruning savings, flagged races, other bugs found — go
//! straight into those as they happen. What touches the pool — forked
//! states and schedule-snapshot promotions — is *recorded* into a
//! [`TurnResult`] instead, and the engine merges it after the turn (see
//! [`crate::engine`]). That record-then-merge split is what lets a burst
//! run up to 32 micro-steps: the states it forks, including snapshots the
//! deadlock roll-back promotes before they have an id
//! ([`Promotion::Pending`]), wait for the merge.

use crate::engine::{GoalSpec, SearchStats};
use crate::expr::{SymExpr, SymValue, SymVarInfo};
use crate::options::{EsdOptions, KC_PREEMPTION_BOUND};
use crate::solver::{Solver, SolverResult};
use crate::state::{ExecState, SchedDistance, SymFrame, SymMemError, SymThread};
use esd_analysis::{Feasibility, StaticAnalysis};
use esd_concurrency::{Schedule, SegmentStop, WaitGraph};
use esd_ir::interp::{
    ObjKind, ThreadStatus, FUNC_ADDR_BASE, MAX_ALLOC_WORDS, MAX_STACK_DEPTH, MAX_THREADS,
};
use esd_ir::{
    BinOp, Callee, CmpOp, FaultKind, FuncId, Inst, Loc, Operand, Program, Ptr, Reg, Terminator,
    ThreadId, Value,
};
use std::sync::Arc;

/// Why a single micro-step of one state ended.
enum StepEffect {
    /// Keep exploring this state.
    Continue,
    /// The state reached the goal.
    Goal { fault: FaultKind, fault_loc: Option<Loc> },
    /// The state is dead (fault at non-goal location, infeasible path,
    /// unmatching deadlock, all threads finished, …).
    Dead,
}

/// A state forked during a turn, pending admission to the shared pool (the
/// engine applies the dedup fingerprint and the pool cap at merge time, and
/// only then assigns the state id).
pub(crate) struct PendingFork {
    /// The forked state (still carrying its parent's id until admission).
    pub state: ExecState,
    /// When set, the fork is a "preempted before acquiring this mutex"
    /// snapshot: if it is admitted, the engine records `(mutex, assigned id)`
    /// in the parent state's `K_S` map (`lock_snapshots`).
    pub lock_snapshot: Option<Ptr>,
}

/// The solved goal of a successful turn: everything of a
/// [`crate::engine::Synthesized`] except the engine-global statistics.
pub(crate) struct Solution {
    /// Concrete value for every symbolic input word, with its provenance.
    pub inputs: Vec<(SymVarInfo, i64)>,
    /// The serialized thread schedule (trailing segment closed).
    pub schedule: Schedule,
    /// The failure the synthesized execution triggers.
    pub fault: FaultKind,
    /// Location of the failure (`None` for deadlocks).
    pub fault_loc: Option<Loc>,
}

/// A deadlock roll-back promotion recorded during a turn (§4.1): the target
/// snapshot is either already registered in the pool, or was forked *earlier
/// in this very turn* and has no id yet — the pre-burst engine never saw the
/// second case because the fork's id was patched into `lock_snapshots`
/// between rounds, but inside a burst the acquire and the conflicting lock
/// attempt can share one turn.
pub(crate) enum Promotion {
    /// A snapshot state already admitted to the pool, by id.
    Registered(u64),
    /// A snapshot forked during this turn, by index into
    /// [`TurnResult::forks`]; the merge promotes it *before* admission so it
    /// enters the frontier with the promoted priority.
    Pending(usize),
}

/// How a turn (one state's burst of micro-steps) ended.
pub(crate) enum TurnVerdict {
    /// The state survived the turn and should re-enter the frontier.
    Continue,
    /// The state died (abandoned path, non-goal fault, program exit, …).
    Dead,
    /// The state reached the goal. `solution` is `None` when the path
    /// constraints could not be solved — the state is abandoned and the
    /// search continues, exactly as in the sequential engine.
    Goal {
        /// The solved inputs and schedule, if the constraints were solvable.
        solution: Option<Solution>,
    },
}

/// Everything one state's turn produced, to be merged into the engine.
pub(crate) struct TurnResult {
    /// The post-turn state (meaningful for [`TurnVerdict::Continue`]; carried
    /// regardless so the merge can patch `lock_snapshots` and apply pending
    /// promotions uniformly).
    pub state: ExecState,
    /// How the turn ended.
    pub verdict: TurnVerdict,
    /// States forked during the turn, in creation order.
    pub forks: Vec<PendingFork>,
    /// Snapshot states to promote to [`SchedDistance::Near`] (the deadlock
    /// roll-back heuristic of §4.1), in occurrence order.
    pub promotions: Vec<Promotion>,
}

/// A stepper: immutable views of the search job, a private solver, the
/// engine's counters, and the turn's recorded forks and promotions.
pub(crate) struct Stepper<'a> {
    program: &'a Arc<Program>,
    analysis: &'a Arc<StaticAnalysis>,
    goal: &'a GoalSpec,
    options: &'a EsdOptions,
    stats: &'a mut SearchStats,
    other_bugs: &'a mut Vec<(FaultKind, Option<Loc>)>,
    solver: Solver,
    forks: Vec<PendingFork>,
    promotions: Vec<Promotion>,
}

impl<'a> Stepper<'a> {
    /// Creates a stepper for one round's turn, counting into `stats` and
    /// appending faults that do not match the goal to `other_bugs`.
    pub fn new(
        program: &'a Arc<Program>,
        analysis: &'a Arc<StaticAnalysis>,
        goal: &'a GoalSpec,
        options: &'a EsdOptions,
        stats: &'a mut SearchStats,
        other_bugs: &'a mut Vec<(FaultKind, Option<Loc>)>,
    ) -> Self {
        Stepper {
            program,
            analysis,
            goal,
            options,
            stats,
            other_bugs,
            solver: Solver::default(),
            forks: Vec::new(),
            promotions: Vec::new(),
        }
    }

    /// Advances `state` by up to `burst` micro-steps (stopping early when it
    /// dies or reaches the goal) and returns what the engine must merge.
    /// The engine passes 32 on every frontier, and 1 under race detection
    /// and the KC baseline. Forks made during the turn are only recorded;
    /// they reach the frontier when the engine merges the turn.
    pub fn turn(&mut self, mut state: ExecState, burst: u32) -> TurnResult {
        let mut verdict = TurnVerdict::Continue;
        for _ in 0..burst.max(1) {
            match self.step(&mut state) {
                StepEffect::Continue => continue,
                StepEffect::Dead => {
                    verdict = TurnVerdict::Dead;
                    break;
                }
                StepEffect::Goal { fault, fault_loc } => {
                    let solution = self.solve_goal(&mut state, fault, fault_loc);
                    verdict = TurnVerdict::Goal { solution };
                    break;
                }
            }
        }
        self.stats.solver_queries += std::mem::take(&mut self.solver.queries);
        TurnResult {
            state,
            verdict,
            forks: std::mem::take(&mut self.forks),
            promotions: std::mem::take(&mut self.promotions),
        }
    }

    // ---- evaluation helpers -------------------------------------------------

    fn eval(&self, state: &ExecState, op: Operand) -> SymValue {
        match op {
            Operand::Const(c) => SymValue::int(c),
            Operand::Reg(r) => state.thread(state.current).top().regs[r.0 as usize]
                .clone()
                .unwrap_or(SymValue::ZERO),
        }
    }

    fn set_reg(&self, state: &mut ExecState, r: Reg, v: SymValue) {
        let cur = state.current;
        state.thread_mut(cur).top_mut().regs[r.0 as usize] = Some(v);
    }

    fn advance(&self, state: &mut ExecState) {
        let cur = state.current;
        state.thread_mut(cur).top_mut().idx += 1;
    }

    fn count_step(&mut self, state: &mut ExecState) {
        state.steps += 1;
        state.segment_steps += 1;
        self.stats.steps += 1;
    }

    /// Concretizes a value to the word it reads as, pinning a symbolic one
    /// with an equality constraint (used for addresses, allocation sizes,
    /// …); a concrete pointer reads as its [`Value::word`], as in the
    /// interpreter. `None` only when the path constraints have no model.
    fn concretize(&mut self, state: &mut ExecState, v: &SymValue) -> Option<i64> {
        match v {
            SymValue::Concrete(c) => Some(c.word()),
            SymValue::Symbolic(e) => {
                if let Some(c) = e.as_const() {
                    return Some(c);
                }
                let model = self.solver.solve(&state.constraints).model()?;
                let value = e.eval(&model);
                state.add_constraint(SymExpr::cmp(CmpOp::Eq, e.clone(), SymExpr::constant(value)));
                Some(value)
            }
        }
    }

    fn mem_fault(err: SymMemError, addr: Value) -> FaultKind {
        match err {
            SymMemError::NotAPointer(v) => FaultKind::SegFault { addr: v },
            SymMemError::DanglingObject(_) => FaultKind::SegFault { addr },
            SymMemError::UseAfterFree(_) => FaultKind::UseAfterFree,
            SymMemError::OutOfBounds { off, size } => FaultKind::OutOfBounds { off, size },
            SymMemError::InvalidFree(_) => FaultKind::InvalidFree,
            SymMemError::DoubleFree(_) => FaultKind::DoubleFree,
        }
    }

    /// Resolves a value used as an address into a concrete pointer, or
    /// produces the fault it would cause.
    fn as_address(&mut self, state: &mut ExecState, v: &SymValue) -> Result<Ptr, FaultKind> {
        match v {
            SymValue::Concrete(Value::Ptr(p)) => Ok(*p),
            SymValue::Concrete(Value::Int(i)) => Err(FaultKind::SegFault { addr: Value::Int(*i) }),
            SymValue::Symbolic(_) => {
                let c = self.concretize(state, v).unwrap_or(0);
                Err(FaultKind::SegFault { addr: Value::Int(c) })
            }
        }
    }

    // ---- fault / goal handling ----------------------------------------------

    fn handle_fault(&mut self, fault: FaultKind, loc: Loc) -> StepEffect {
        let is_goal = match self.goal {
            GoalSpec::Crash { loc: goal_loc } => loc == *goal_loc,
            GoalSpec::Deadlock { .. } => false,
        };
        if is_goal {
            StepEffect::Goal { fault, fault_loc: Some(loc) }
        } else {
            self.other_bugs.push((fault, Some(loc)));
            StepEffect::Dead
        }
    }

    /// Faults with `fault` at `loc` where `holds` is false, as the
    /// interpreter does, and otherwise adds `holds` to the path and returns
    /// `None` so the step goes on. A symbolic `holds` splits the path: at
    /// the goal a feasible violation is the goal; elsewhere it is recorded
    /// as another bug and the passing side continues in this state.
    fn fault_unless(
        &mut self,
        state: &mut ExecState,
        loc: Loc,
        holds: Arc<SymExpr>,
        fault: FaultKind,
    ) -> Option<StepEffect> {
        match holds.as_const() {
            Some(0) => return Some(self.handle_fault(fault, loc)),
            Some(_) => return None,
            None => {}
        }
        if matches!(self.goal, GoalSpec::Crash { loc: gl } if *gl == loc) {
            // At the goal a feasible violation ends the search after one
            // query, so the violating side is asked alone first; the goal
            // state keeps its constraint for the model.
            state.constraints.push(SymExpr::not(holds.clone()));
            if self.solver.is_feasible(&state.constraints) {
                return Some(StepEffect::Goal { fault, fault_loc: Some(loc) });
            }
            state.constraints.pop();
            state.add_constraint(holds);
            if !self.solver.is_feasible(&state.constraints) {
                return Some(StepEffect::Dead);
            }
        } else {
            let (passing, violating) = self.solver.branch_feasible(&state.constraints, &holds);
            if violating {
                self.other_bugs.push((fault, Some(loc)));
            }
            state.add_constraint(holds);
            if !passing {
                return Some(StepEffect::Dead);
            }
        }
        None
    }

    /// Checks whether the state's blocked threads form the reported deadlock
    /// (or some other deadlock). Returns the step effect if the state can no
    /// longer make progress toward the goal.
    fn check_deadlock(&mut self, state: &mut ExecState) -> Option<StepEffect> {
        // Build the wait-for relation over mutex-blocked threads.
        let mut graph = WaitGraph::new();
        for t in &state.threads {
            if let ThreadStatus::BlockedOnMutex(m) = t.status {
                graph.wait(t.id.0, m);
            }
            for h in &t.held_locks {
                graph.hold(*h, t.id.0);
            }
        }
        let cycle = graph.find_cycle();
        let stalled = state.is_global_stall();
        if cycle.is_none() && !stalled {
            return None;
        }
        // The set of locations at which threads are blocked on mutexes.
        let blocked_locs: Vec<Loc> = state
            .threads
            .iter()
            .filter(|t| matches!(t.status, ThreadStatus::BlockedOnMutex(_)))
            .map(|t| t.top().loc())
            .collect();
        if let GoalSpec::Deadlock { thread_locs } = self.goal {
            let mut remaining = blocked_locs.clone();
            let all_matched = thread_locs.iter().all(|g| {
                if let Some(pos) = remaining.iter().position(|b| b == g) {
                    remaining.remove(pos);
                    true
                } else {
                    false
                }
            });
            if all_matched && (cycle.is_some() || stalled) && !thread_locs.is_empty() {
                return Some(StepEffect::Goal { fault: FaultKind::Deadlock, fault_loc: None });
            }
        }
        if cycle.is_some() || stalled {
            // A deadlock that does not match the report: record it and
            // abandon the state (the paper rolls back and resumes the search
            // for the reported deadlock; abandoning this state achieves the
            // same because its fork ancestors are still in the pool).
            self.other_bugs.push((FaultKind::Deadlock, state.current_loc()));
            return Some(StepEffect::Dead);
        }
        None
    }

    /// Solves the goal state's path constraints into concrete inputs and
    /// closes the trailing schedule segment.
    fn solve_goal(
        &mut self,
        state: &mut ExecState,
        fault: FaultKind,
        fault_loc: Option<Loc>,
    ) -> Option<Solution> {
        let model = match self.solver.solve(&state.constraints) {
            SolverResult::Sat(m) => m,
            _ => return None,
        };
        let inputs = state
            .var_info
            .iter()
            .enumerate()
            .map(|(i, info)| {
                (info.clone(), model.get(&crate::expr::SymVar(i as u32)).copied().unwrap_or(0))
            })
            .collect();
        let mut schedule = state.schedule.clone();
        if state.segment_steps > 0 {
            schedule.push(state.current.0, SegmentStop::Steps(state.segment_steps));
        }
        Some(Solution { inputs, schedule, fault, fault_loc })
    }

    // ---- scheduling -----------------------------------------------------------

    /// Ends the current thread's schedule segment with `stop` and switches to
    /// `next`.
    fn switch_to(&mut self, state: &mut ExecState, next: ThreadId, stop: SegmentStop) {
        match stop {
            SegmentStop::Steps(_) => {
                if state.segment_steps > 0 {
                    state.schedule.push(state.current.0, SegmentStop::Steps(state.segment_steps));
                }
            }
            other => {
                state.schedule.push(state.current.0, other);
            }
        }
        state.segment_steps = 0;
        state.current = next;
    }

    /// Picks another runnable thread (lowest id different from the current
    /// one), if any.
    fn other_runnable(&self, state: &ExecState) -> Option<ThreadId> {
        state.runnable_threads().into_iter().find(|t| *t != state.current)
    }

    /// Mirrors [`ExecState::drop_snapshot`] for snapshots forked earlier in
    /// this turn: "a snapshot entry is deleted as soon as M is unlocked", and
    /// a fork whose mutex was released before its id could be assigned must
    /// not enter the parent's `K_S` map at merge time.
    fn scrub_pending_snapshot(&mut self, p: Ptr) {
        for fork in &mut self.forks {
            if fork.lock_snapshot == Some(p) {
                fork.lock_snapshot = None;
            }
        }
    }

    /// Forks a state in which the current thread is preempted right now
    /// (before executing its next instruction) and `next` runs instead.
    /// Respects the preemption bound. The fork is *recorded*, not admitted:
    /// the engine applies the dedup fingerprint and the pool cap when the
    /// turn is merged. Returns true when a fork was recorded.
    fn fork_preempted(&mut self, state: &ExecState, next: ThreadId) -> bool {
        if self.options.kc_baseline && state.preemptions >= KC_PREEMPTION_BOUND {
            return false;
        }
        // If the scheduled thread has not advanced at all since the last
        // context switch, a preemption here would recreate an already-seen
        // scheduling decision (states would ping-pong between two parked
        // threads); skip the fork.
        if state.segment_steps == 0 {
            return false;
        }
        let mut alt = state.clone();
        alt.preemptions += 1;
        self.switch_to(&mut alt, next, SegmentStop::Steps(0));
        self.forks.push(PendingFork { state: alt, lock_snapshot: None });
        true
    }

    // ---- the micro-step --------------------------------------------------------

    fn step(&mut self, state: &mut ExecState) -> StepEffect {
        // If the scheduled thread cannot run, switch or detect a stall.
        if !state.thread(state.current).is_runnable() {
            if let Some(next) = self.other_runnable(state) {
                let stop = if state.thread(state.current).is_finished() {
                    SegmentStop::Finished
                } else {
                    SegmentStop::Blocked
                };
                self.switch_to(state, next, stop);
            } else if state.has_unfinished_threads() {
                return self.check_deadlock(state).unwrap_or(StepEffect::Dead);
            } else {
                return StepEffect::Dead;
            }
        }

        let cur = state.current;
        let frame_loc = state.thread(cur).top().loc();
        let func = self.program.func(frame_loc.func);
        let block = func.block(frame_loc.block);

        if frame_loc.idx as usize >= block.insts.len() {
            let term = block.term.clone();
            return self.exec_terminator(state, frame_loc, term);
        }
        let inst = block.insts[frame_loc.idx as usize].clone();
        self.exec_inst(state, frame_loc, inst)
    }

    fn exec_terminator(&mut self, state: &mut ExecState, loc: Loc, term: Terminator) -> StepEffect {
        let cur = state.current;
        self.count_step(state);
        match term {
            Terminator::Br { target } => {
                let top = state.thread_mut(cur).top_mut();
                top.block = target;
                top.idx = 0;
                StepEffect::Continue
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let v = self.eval(state, cond);
                match v.as_concrete() {
                    Some(c) => {
                        let top = state.thread_mut(cur).top_mut();
                        top.block = if c.truthy() { then_bb } else { else_bb };
                        top.idx = 0;
                        StepEffect::Continue
                    }
                    None => self.fork_on_branch(state, loc, v.as_expr(), then_bb, else_bb),
                }
            }
            Terminator::Ret { value } => {
                let ret_val = value.map(|v| self.eval(state, v));
                let frame = state.thread_mut(cur).frames.pop().expect("ret without frame");
                for l in &frame.locals {
                    state.mem.kill_local(*l);
                }
                if state.thread(cur).frames.is_empty() {
                    state.thread_mut(cur).status = ThreadStatus::Finished;
                    // Wake joiners.
                    for t in &mut state.threads {
                        if t.status == ThreadStatus::BlockedOnJoin(cur) {
                            t.status = ThreadStatus::Runnable;
                        }
                    }
                    if cur == ThreadId(0) {
                        // Program exit without the bug: dead end.
                        return StepEffect::Dead;
                    }
                    if let Some(next) = self.other_runnable(state) {
                        self.switch_to(state, next, SegmentStop::Finished);
                        return StepEffect::Continue;
                    }
                    return self.check_deadlock(state).unwrap_or(StepEffect::Dead);
                }
                if let (Some(dst), Some(v)) = (frame.ret_dst, ret_val) {
                    self.set_reg(state, dst, v);
                }
                StepEffect::Continue
            }
            Terminator::Unreachable => self.handle_fault(FaultKind::UnreachableExecuted, loc),
        }
    }

    fn fork_on_branch(
        &mut self,
        state: &mut ExecState,
        loc: Loc,
        cond: Arc<SymExpr>,
        then_bb: esd_ir::BlockId,
        else_bb: esd_ir::BlockId,
    ) -> StepEffect {
        let cur = state.current;
        // The static phase's interval analysis may have proven this branch
        // one-sided for *all* inputs; consulting the verdict replaces the
        // feasibility queries below. The taken side's constraint is still
        // recorded exactly as the solver path would have recorded it, so a
        // verdict that the solver would also have reached leaves the search
        // trajectory untouched — only the query count drops.
        let verdict = if self.options.static_pruning {
            self.analysis.facts.branch_feasibility.verdict(loc.func, loc.block)
        } else {
            Feasibility::Unknown
        };
        // Critical edge: only one side can lead to the goal. Only applied for
        // single-location (crash) goals: for deadlocks the static info is
        // computed from one thread's blocked location and must not constrain
        // the other threads' paths.
        if !self.options.kc_baseline && !matches!(self.goal, GoalSpec::Deadlock { .. }) {
            if let Some(edge) = self.analysis.goal_info.critical_edge_at(loc.func, loc.block) {
                let (take, expr) = if edge.required_value {
                    (then_bb, cond.clone())
                } else {
                    (else_bb, SymExpr::not(cond.clone()))
                };
                let statically_required = match verdict {
                    Feasibility::AlwaysTrue => Some(edge.required_value),
                    Feasibility::AlwaysFalse => Some(!edge.required_value),
                    Feasibility::Unknown => None,
                };
                if let Some(takeable) = statically_required {
                    self.stats.branches_pruned_static += 1;
                    self.stats.solver_queries_saved += 1;
                    if !takeable {
                        // The branch always takes the side the goal forbids.
                        return StepEffect::Dead;
                    }
                    state.add_constraint(expr);
                    let top = state.thread_mut(cur).top_mut();
                    top.block = take;
                    top.idx = 0;
                    return StepEffect::Continue;
                }
                state.add_constraint(expr);
                if !self.solver.is_feasible(&state.constraints) {
                    return StepEffect::Dead;
                }
                let top = state.thread_mut(cur).top_mut();
                top.block = take;
                top.idx = 0;
                return StepEffect::Continue;
            }
        }
        match verdict {
            Feasibility::AlwaysTrue | Feasibility::AlwaysFalse => {
                self.stats.branches_pruned_static += 1;
                self.stats.solver_queries_saved += 2;
                let (bb, c) = if verdict == Feasibility::AlwaysTrue {
                    (then_bb, cond)
                } else {
                    (else_bb, SymExpr::not(cond))
                };
                state.add_constraint(c);
                let top = state.thread_mut(cur).top_mut();
                top.block = bb;
                top.idx = 0;
                return StepEffect::Continue;
            }
            Feasibility::Unknown => {}
        }
        let (then_feasible, else_feasible) = self.solver.branch_feasible(&state.constraints, &cond);
        match (then_feasible, else_feasible) {
            (false, false) => StepEffect::Dead,
            (true, false) | (false, true) => {
                let (bb, c) =
                    if then_feasible { (then_bb, cond) } else { (else_bb, SymExpr::not(cond)) };
                state.add_constraint(c);
                let top = state.thread_mut(cur).top_mut();
                top.block = bb;
                top.idx = 0;
                StepEffect::Continue
            }
            (true, true) => {
                // Fork: the else-side becomes a new state; this state takes
                // the then-side.
                let mut alt = state.clone();
                alt.add_constraint(SymExpr::not(cond.clone()));
                {
                    let atop = alt.thread_mut(cur).top_mut();
                    atop.block = else_bb;
                    atop.idx = 0;
                }
                self.forks.push(PendingFork { state: alt, lock_snapshot: None });
                state.add_constraint(cond);
                let top = state.thread_mut(cur).top_mut();
                top.block = then_bb;
                top.idx = 0;
                StepEffect::Continue
            }
        }
    }

    fn exec_inst(&mut self, state: &mut ExecState, loc: Loc, inst: Inst) -> StepEffect {
        let cur = state.current;
        match inst {
            Inst::Const { dst, value } => {
                self.count_step(state);
                self.set_reg(state, dst, SymValue::int(value));
                self.advance(state);
                StepEffect::Continue
            }
            Inst::Bin { dst, op, a, b } => {
                self.count_step(state);
                let va = self.eval(state, a);
                let vb = self.eval(state, b);
                if matches!(op, BinOp::Div | BinOp::Rem) && (va.is_symbolic() || vb.is_symbolic()) {
                    let nonzero = SymExpr::cmp(CmpOp::Ne, vb.as_expr(), SymExpr::constant(0));
                    if let Some(end) = self.fault_unless(state, loc, nonzero, FaultKind::DivByZero)
                    {
                        return end;
                    }
                }
                let result = self.eval_bin(state, op, va, vb);
                match result {
                    Ok(v) => {
                        self.set_reg(state, dst, v);
                        self.advance(state);
                        StepEffect::Continue
                    }
                    Err(f) => self.handle_fault(f, loc),
                }
            }
            Inst::Cmp { dst, op, a, b } => {
                self.count_step(state);
                let va = self.eval(state, a);
                let vb = self.eval(state, b);
                let v = match (va.as_concrete(), vb.as_concrete()) {
                    (Some(x), Some(y)) => SymValue::int(x.compare(op, y) as i64),
                    // A symbolic value is an integer, which never equals a
                    // pointer; orderings compare words.
                    (Some(Value::Ptr(_)), _) | (_, Some(Value::Ptr(_)))
                        if matches!(op, CmpOp::Eq | CmpOp::Ne) =>
                    {
                        SymValue::int((op == CmpOp::Ne) as i64)
                    }
                    _ => SymValue::Symbolic(SymExpr::cmp(op, va.as_expr(), vb.as_expr())),
                };
                self.set_reg(state, dst, v);
                self.advance(state);
                StepEffect::Continue
            }
            Inst::AddrLocal { dst, local } => {
                self.count_step(state);
                let obj = state.thread(cur).top().locals[local.0 as usize];
                self.set_reg(state, dst, SymValue::Concrete(Value::Ptr(Ptr::to(obj))));
                self.advance(state);
                StepEffect::Continue
            }
            Inst::AddrGlobal { dst, global } => {
                self.count_step(state);
                let obj = state.globals[global.0 as usize];
                self.set_reg(state, dst, SymValue::Concrete(Value::Ptr(Ptr::to(obj))));
                self.advance(state);
                StepEffect::Continue
            }
            Inst::FuncAddr { dst, func } => {
                self.count_step(state);
                self.set_reg(state, dst, SymValue::int(FUNC_ADDR_BASE + func.0 as i64));
                self.advance(state);
                StepEffect::Continue
            }
            Inst::Alloc { dst, size } => {
                self.count_step(state);
                let sv = self.eval(state, size);
                let n = self.concretize(state, &sv).unwrap_or(0).clamp(0, MAX_ALLOC_WORDS) as usize;
                let obj = state.mem.alloc(ObjKind::Heap, n);
                self.set_reg(state, dst, SymValue::Concrete(Value::Ptr(Ptr::to(obj))));
                self.advance(state);
                StepEffect::Continue
            }
            Inst::Free { ptr } => {
                self.count_step(state);
                let v = self.eval(state, ptr);
                let cv = v.as_concrete().unwrap_or(Value::Int(0));
                match state.mem.free(cv) {
                    Ok(()) => {
                        self.advance(state);
                        StepEffect::Continue
                    }
                    Err(e) => self.handle_fault(Self::mem_fault(e, cv), loc),
                }
            }
            Inst::Load { dst, addr } => {
                let av = self.eval(state, addr);
                let target = self.as_address(state, &av);
                if let Ok(p) = target {
                    self.maybe_race_preempt(state, p, loc, false);
                }
                self.count_step(state);
                match target {
                    Ok(p) => match state.mem.load(p) {
                        Ok(v) => {
                            self.set_reg(state, dst, v);
                            self.advance(state);
                            StepEffect::Continue
                        }
                        Err(e) => self.handle_fault(Self::mem_fault(e, Value::Ptr(p)), loc),
                    },
                    Err(f) => self.handle_fault(f, loc),
                }
            }
            Inst::Store { addr, value } => {
                let av = self.eval(state, addr);
                let vv = self.eval(state, value);
                let target = self.as_address(state, &av);
                if let Ok(p) = target {
                    self.maybe_race_preempt(state, p, loc, true);
                }
                self.count_step(state);
                match target {
                    Ok(p) => match state.mem.store(p, vv) {
                        Ok(()) => {
                            self.advance(state);
                            StepEffect::Continue
                        }
                        Err(e) => self.handle_fault(Self::mem_fault(e, Value::Ptr(p)), loc),
                    },
                    Err(f) => self.handle_fault(f, loc),
                }
            }
            Inst::Gep { dst, base, offset } => {
                self.count_step(state);
                let b = self.eval(state, base);
                let ov = self.eval(state, offset);
                let o = self.concretize(state, &ov).unwrap_or(0);
                let r = match b.as_concrete() {
                    Some(c) => SymValue::Concrete(c.offset_by(o)),
                    None => SymValue::Symbolic(SymExpr::bin(
                        BinOp::Add,
                        b.as_expr(),
                        SymExpr::constant(o),
                    )),
                };
                self.set_reg(state, dst, r);
                self.advance(state);
                StepEffect::Continue
            }
            Inst::Call { dst, callee, args } => {
                self.count_step(state);
                let target = match self.resolve_callee(state, &callee) {
                    Ok(t) => t,
                    Err(f) => return self.handle_fault(f, loc),
                };
                if state.thread(cur).frames.len() >= MAX_STACK_DEPTH {
                    return self.handle_fault(FaultKind::SegFault { addr: Value::Int(-1) }, loc);
                }
                let argv: Vec<SymValue> = args.iter().map(|a| self.eval(state, *a)).collect();
                self.advance(state);
                self.push_frame(state, target, &argv, dst);
                StepEffect::Continue
            }
            Inst::Input { dst, source } => {
                self.count_step(state);
                let seq = state.thread(cur).input_seq;
                state.thread_mut(cur).input_seq += 1;
                let var = state.fresh_var(SymVarInfo { thread: cur, seq, source });
                self.set_reg(state, dst, SymValue::Symbolic(SymExpr::var(var)));
                self.advance(state);
                StepEffect::Continue
            }
            Inst::Output { .. } => {
                self.count_step(state);
                self.advance(state);
                StepEffect::Continue
            }
            Inst::Assert { cond, msg } => {
                self.count_step(state);
                let v = self.eval(state, cond);
                let holds = match v.as_concrete() {
                    Some(c) => SymExpr::constant(c.truthy() as i64),
                    None => v.as_expr(),
                };
                if let Some(end) =
                    self.fault_unless(state, loc, holds, FaultKind::AssertFailure { msg })
                {
                    return end;
                }
                self.advance(state);
                StepEffect::Continue
            }
            Inst::MutexLock { mutex } => self.exec_lock(state, loc, mutex),
            Inst::MutexUnlock { mutex } => {
                self.count_step(state);
                let av = self.eval(state, mutex);
                let p = match self.as_address(state, &av) {
                    Ok(p) => p,
                    Err(f) => return self.handle_fault(f, loc),
                };
                if state.sync.holder_of(p) != Some(cur) {
                    return self.handle_fault(
                        FaultKind::SyncMisuse { what: "unlock of a mutex not held".into() },
                        loc,
                    );
                }
                state.sync.mutex_mut(p).holder = None;
                state.thread_mut(cur).held_locks.retain(|h| *h != p);
                if state.thread(cur).inner_lock_held == Some(p) {
                    state.thread_mut(cur).inner_lock_held = None;
                }
                state.drop_snapshot(p);
                self.scrub_pending_snapshot(p);
                let waiters = std::mem::take(&mut state.sync.mutex_mut(p).waiters);
                for w in waiters {
                    if state.threads[w.0 as usize].status == ThreadStatus::BlockedOnMutex(p) {
                        state.threads[w.0 as usize].status = ThreadStatus::Runnable;
                    }
                }
                self.advance(state);
                StepEffect::Continue
            }
            Inst::CondWait { cond, mutex } => {
                self.count_step(state);
                let cv = self.eval(state, cond);
                let mv = self.eval(state, mutex);
                let (cp, mp) = match (self.as_address(state, &cv), self.as_address(state, &mv)) {
                    (Ok(c), Ok(m)) => (c, m),
                    (Err(f), _) | (_, Err(f)) => return self.handle_fault(f, loc),
                };
                if state.thread(cur).cond_resume == Some(mp) {
                    if state.sync.holder_of(mp).is_none() {
                        state.sync.mutex_mut(mp).holder = Some(cur);
                        state.thread_mut(cur).held_locks.push(mp);
                        state.thread_mut(cur).cond_resume = None;
                        self.advance(state);
                        return StepEffect::Continue;
                    }
                    state.sync.mutex_mut(mp).waiters.push(cur);
                    state.thread_mut(cur).status = ThreadStatus::BlockedOnMutex(mp);
                    return self.block_and_switch(state);
                }
                if state.sync.holder_of(mp) != Some(cur) {
                    return self.handle_fault(
                        FaultKind::SyncMisuse {
                            what: "cond_wait without holding the mutex".into(),
                        },
                        loc,
                    );
                }
                state.sync.mutex_mut(mp).holder = None;
                state.thread_mut(cur).held_locks.retain(|h| *h != mp);
                state.drop_snapshot(mp);
                self.scrub_pending_snapshot(mp);
                let waiters = std::mem::take(&mut state.sync.mutex_mut(mp).waiters);
                for w in waiters {
                    if state.threads[w.0 as usize].status == ThreadStatus::BlockedOnMutex(mp) {
                        state.threads[w.0 as usize].status = ThreadStatus::Runnable;
                    }
                }
                state.sync.cond_mut(cp).waiters.push((cur, mp));
                state.thread_mut(cur).status = ThreadStatus::BlockedOnCond(cp);
                self.block_and_switch(state)
            }
            Inst::CondSignal { cond } | Inst::CondBroadcast { cond } => {
                let broadcast = matches!(inst, Inst::CondBroadcast { .. });
                self.count_step(state);
                let cv = self.eval(state, cond);
                let cp = match self.as_address(state, &cv) {
                    Ok(p) => p,
                    Err(f) => return self.handle_fault(f, loc),
                };
                let waiters = {
                    let c = state.sync.cond_mut(cp);
                    if broadcast {
                        std::mem::take(&mut c.waiters)
                    } else if c.waiters.is_empty() {
                        vec![]
                    } else {
                        vec![c.waiters.remove(0)]
                    }
                };
                for (w, m) in waiters {
                    state.threads[w.0 as usize].cond_resume = Some(m);
                    state.threads[w.0 as usize].status = ThreadStatus::Runnable;
                }
                self.advance(state);
                StepEffect::Continue
            }
            Inst::ThreadSpawn { dst, func, arg } => {
                self.count_step(state);
                let target = match self.resolve_callee(state, &func) {
                    Ok(t) => t,
                    Err(f) => return self.handle_fault(f, loc),
                };
                if state.threads.len() >= MAX_THREADS {
                    return self.handle_fault(
                        FaultKind::SyncMisuse { what: "thread limit exceeded".into() },
                        loc,
                    );
                }
                let av = self.eval(state, arg);
                let new_tid = ThreadId(state.threads.len() as u32);
                let callee = self.program.func(target);
                let mut locals = Vec::with_capacity(callee.local_sizes.len());
                for size in &callee.local_sizes {
                    locals.push(state.mem.alloc(ObjKind::Local(new_tid), *size as usize));
                }
                let frame = SymFrame::new(target, callee.num_regs, &[av], locals, None);
                state.threads.push(SymThread::new(new_tid, frame));
                self.set_reg(state, dst, SymValue::int(new_tid.0 as i64));
                self.advance(state);
                StepEffect::Continue
            }
            Inst::ThreadJoin { thread } => {
                self.count_step(state);
                let tv = self.eval(state, thread);
                let idx = self.concretize(state, &tv).unwrap_or(-1);
                if idx < 0 || idx as usize >= state.threads.len() {
                    return self.handle_fault(
                        FaultKind::SyncMisuse { what: format!("join of invalid thread id {idx}") },
                        loc,
                    );
                }
                let target = ThreadId(idx as u32);
                if state.threads[target.0 as usize].is_finished() {
                    self.advance(state);
                    return StepEffect::Continue;
                }
                state.thread_mut(cur).status = ThreadStatus::BlockedOnJoin(target);
                self.block_and_switch(state)
            }
            Inst::Yield => {
                self.count_step(state);
                self.advance(state);
                // A yield is an explicit preemption point. In race-directed
                // mode (§4.2) fork the schedule in which another thread runs
                // from here, so interleavings that split a load from its
                // store are reachable; the default search keeps treating
                // yield as a no-op (the bounded searches and BPF workloads
                // rely on that).
                if self.options.with_race_detection {
                    // Static race-candidate gating: a yield with no candidate
                    // access before *and* after it (in same-thread order)
                    // cannot split a racing pair, so the preemption fork is
                    // skipped. The candidate set over-approximates the real
                    // races, so no schedule that can reach a race is lost.
                    if self.options.static_pruning
                        && !self.analysis.facts.race_candidates(self.program).is_relevant_yield(loc)
                    {
                        if self.other_runnable(state).is_some() {
                            self.stats.preemptions_pruned_static += 1;
                        }
                    } else if let Some(next) = self.other_runnable(state) {
                        self.fork_preempted(state, next);
                    }
                }
                StepEffect::Continue
            }
            Inst::Nop => {
                self.count_step(state);
                self.advance(state);
                StepEffect::Continue
            }
        }
    }

    fn eval_bin(
        &mut self,
        state: &mut ExecState,
        op: BinOp,
        a: SymValue,
        b: SymValue,
    ) -> Result<SymValue, FaultKind> {
        // Pointer arithmetic stays concrete: pin a symbolic displacement.
        let b = match a.as_concrete() {
            Some(Value::Ptr(_)) if matches!(op, BinOp::Add | BinOp::Sub) && b.is_symbolic() => {
                SymValue::int(self.concretize(state, &b).unwrap_or(0))
            }
            _ => b,
        };
        if let (Some(x), Some(y)) = (a.as_concrete(), b.as_concrete()) {
            return x.bin(op, y).map(SymValue::Concrete).ok_or(FaultKind::DivByZero);
        }
        Ok(SymValue::Symbolic(SymExpr::bin(op, a.as_expr(), b.as_expr())))
    }

    fn resolve_callee(
        &mut self,
        state: &mut ExecState,
        callee: &Callee,
    ) -> Result<FuncId, FaultKind> {
        match callee {
            Callee::Direct(f) => Ok(*f),
            Callee::Indirect(op) => {
                let v = self.eval(state, *op);
                let raw = self.concretize(state, &v).unwrap_or(0);
                self.program.function_at(raw).ok_or_else(|| FaultKind::BadIndirectCall {
                    target: v.as_concrete().unwrap_or(Value::Int(raw)),
                })
            }
        }
    }

    fn push_frame(
        &mut self,
        state: &mut ExecState,
        target: FuncId,
        args: &[SymValue],
        ret_dst: Option<Reg>,
    ) {
        let cur = state.current;
        let callee = self.program.func(target);
        let mut locals = Vec::with_capacity(callee.local_sizes.len());
        for size in &callee.local_sizes {
            locals.push(state.mem.alloc(ObjKind::Local(cur), *size as usize));
        }
        let frame = SymFrame::new(target, callee.num_regs, args, locals, ret_dst);
        state.thread_mut(cur).frames.push(frame);
    }

    /// Ends the current segment because the scheduled thread blocked, and
    /// switches to another runnable thread (or detects a stall).
    fn block_and_switch(&mut self, state: &mut ExecState) -> StepEffect {
        if let Some(e) = self.check_deadlock(state) {
            return e;
        }
        if let Some(next) = self.other_runnable(state) {
            self.switch_to(state, next, SegmentStop::Blocked);
            StepEffect::Continue
        } else {
            self.check_deadlock(state).unwrap_or(StepEffect::Dead)
        }
    }

    /// Lockset-based race preemption points (§4.2): on a flagged access, fork
    /// a state in which the access is delayed and another thread runs first.
    /// Called before the access is counted, so the fork's schedule segment
    /// ends just before it and playback switches threads there.
    fn maybe_race_preempt(&mut self, state: &mut ExecState, p: Ptr, loc: Loc, is_write: bool) {
        if !self.options.with_race_detection {
            return;
        }
        // Only consider globals and heap objects (locals are thread-private).
        let shared =
            state.mem.object(p.obj).map(|o| !matches!(o.kind, ObjKind::Local(_))).unwrap_or(false);
        if !shared {
            return;
        }
        let cur = state.current;
        let held: Vec<(u64, i64)> =
            state.thread(cur).held_locks.iter().map(|h| (h.obj.0, h.off)).collect();
        // Per-interleaving analysis: the detector lives on the state, so a
        // race reported here is reported again (and forks a preemption) in
        // every sibling interleaving that reaches the same pair.
        let race = state.race_detector.access((p.obj.0, p.off), cur.0, loc, is_write, &held);
        if race.is_some() {
            self.stats.races_flagged += 1;
            // Concrete runtime evidence beats the static candidate set: a
            // flagged access forks its delayed alternative even when
            // `static_pruning` is on and the access belongs to no
            // candidate pair, so the dynamic detector is the backstop for
            // any static MHP/lockset imprecision. The static gate prunes
            // only the *speculative* yield forks (see `Inst::Yield`), where
            // no runtime evidence contradicts it.
            if let Some(next) = self.other_runnable(state) {
                self.fork_preempted(state, next);
            }
        }
    }

    /// `mutex_lock`, with the deadlock schedule-synthesis heuristics of §4.1.
    fn exec_lock(&mut self, state: &mut ExecState, loc: Loc, mutex: Operand) -> StepEffect {
        let cur = state.current;
        let av = self.eval(state, mutex);
        let p = match self.as_address(state, &av) {
            Ok(p) => p,
            Err(f) => {
                self.count_step(state);
                return self.handle_fault(f, loc);
            }
        };
        let holder = state.sync.holder_of(p);
        match holder {
            None => {
                // Fork the "preempted before acquiring" alternative; if the
                // fork survives admission at merge time, the engine records
                // the assigned id in this state's `K_S` map.
                if let Some(next) = self.other_runnable(state) {
                    if self.fork_preempted(state, next) {
                        self.forks.last_mut().expect("fork just recorded").lock_snapshot = Some(p);
                    }
                }
                // Acquire in this state.
                self.count_step(state);
                state.sync.mutex_mut(p).holder = Some(cur);
                state.thread_mut(cur).held_locks.push(p);
                self.advance(state);
                // Inner-lock heuristic: if this acquisition happened at one of
                // the reported blocked-lock locations, remember it and
                // preempt, so another thread can come and request this mutex.
                if !self.options.kc_baseline {
                    if let GoalSpec::Deadlock { thread_locs } = self.goal {
                        if thread_locs.contains(&loc) {
                            state.thread_mut(cur).inner_lock_held = Some(p);
                            state.sched_distance = SchedDistance::Near;
                            if let Some(next) = self.other_runnable(state) {
                                self.switch_to(state, next, SegmentStop::Steps(0));
                            }
                        }
                    }
                }
                StepEffect::Continue
            }
            Some(owner) => {
                // The mutex is held (possibly by this very thread: self
                // deadlock). Apply the roll-back heuristic, then block.
                if !self.options.kc_baseline
                    && owner != cur
                    && state.threads[owner.0 as usize].inner_lock_held == Some(p)
                {
                    // M is the owner's inner lock, so it may be our outer
                    // lock: prioritize the snapshots in which the owner
                    // was preempted before acquiring, deprioritize us. The
                    // `K_S` map covers snapshots registered in earlier
                    // rounds; snapshots forked earlier in *this* burst have
                    // no id yet and are promoted by fork index.
                    self.promotions.extend(
                        state.lock_snapshots.iter().map(|(_, s)| Promotion::Registered(*s)),
                    );
                    self.promotions.extend(
                        self.forks
                            .iter()
                            .enumerate()
                            .filter(|(_, f)| f.lock_snapshot.is_some())
                            .map(|(i, _)| Promotion::Pending(i)),
                    );
                    state.sched_distance = SchedDistance::Far;
                }
                self.count_step(state);
                state.sync.mutex_mut(p).waiters.push(cur);
                state.thread_mut(cur).status = ThreadStatus::BlockedOnMutex(p);
                self.block_and_switch(state)
            }
        }
    }
}
