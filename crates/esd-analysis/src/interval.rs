//! Constant + interval (value-range) propagation and static branch
//! feasibility.
//!
//! Interval propagation proves some conditional branches one-sided *for all
//! inputs* — defensive `x & MASK <= MASK` checks, constant comparisons,
//! range-limited flags. The `constant-condition` lint reports those
//! verdicts ([`BranchFeasibility::compute`]). The search does not read
//! them: its solver evaluates path conditions with the same transfer
//! functions ([`bin_interval`], [`cmp_interval`]), so it refutes the dead
//! side of such a branch itself.
//!
//! **Soundness contract**: a verdict other than [`Feasibility::Unknown`] must
//! hold on *every* concrete execution reaching the branch. The analysis
//! therefore tracks registers only (memory and inputs are [`Interval::TOP`]),
//! mirrors the engine's wrapping arithmetic (overflow widens to top rather
//! than wrapping the bounds), and joins parameter intervals over *all* call
//! and spawn sites, widening to top at recursion and address-taken
//! boundaries. Two property tests are the oracles: no verdict cuts an
//! injected bug's block off, and none contradicts a concrete run.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dataflow::{self, ForwardAnalysis, JoinSemiLattice};
use esd_ir::{
    BinOp, BlockId, Callee, CmpOp, FuncId, Function, Inst, Loc, Operand, Program, Reg, Terminator,
};
use std::collections::{BTreeMap, HashMap};

/// The static verdict for a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Feasibility {
    /// The condition is non-zero on every execution: only the then-edge is
    /// feasible.
    AlwaysTrue,
    /// The condition is zero on every execution: only the else-edge is
    /// feasible.
    AlwaysFalse,
    /// Statically undecided — the dynamic phase must ask the solver.
    #[default]
    Unknown,
}

/// A signed value range `[lo, hi]` (inclusive). The full range is
/// [`Interval::TOP`]; there is no bottom — unreachable code simply has no
/// fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: i64,
    /// Largest possible value.
    pub hi: i64,
}

impl Interval {
    /// The unconstrained interval (every i64).
    pub const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };

    /// The singleton interval `[c, c]`.
    pub fn exact(c: i64) -> Interval {
        Interval { lo: c, hi: c }
    }

    /// An interval from explicit bounds (callers must keep `lo <= hi`).
    pub fn new(lo: i64, hi: i64) -> Interval {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// True if the interval is a single value.
    pub fn as_const(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// True if zero is a possible value.
    pub fn contains_zero(&self) -> bool {
        self.lo <= 0 && 0 <= self.hi
    }

    /// Least upper bound (interval hull).
    pub fn join(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// The branch verdict for a condition with this range: any interval
    /// excluding zero is truthy (the engine treats every non-zero value —
    /// including negatives — as true), and exactly `[0, 0]` is falsy.
    pub fn feasibility(&self) -> Feasibility {
        if !self.contains_zero() {
            Feasibility::AlwaysTrue
        } else if self.as_const() == Some(0) {
            Feasibility::AlwaysFalse
        } else {
            Feasibility::Unknown
        }
    }
}

/// Abstract evaluation of one binary operation, sound for the IR's wrapping
/// concrete semantics ([`BinOp::eval`]): any endpoint
/// computation that could wrap returns [`Interval::TOP`]. The solver's bounds
/// pass evaluates path conditions with this and [`cmp_interval`] too, so it
/// refutes the branch sides these transfer functions rule out.
pub fn bin_interval(op: BinOp, a: Interval, b: Interval) -> Interval {
    match op {
        BinOp::Add => match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
            (Some(lo), Some(hi)) => Interval::new(lo, hi),
            _ => Interval::TOP,
        },
        BinOp::Sub => match (a.lo.checked_sub(b.hi), a.hi.checked_sub(b.lo)) {
            (Some(lo), Some(hi)) => Interval::new(lo, hi),
            _ => Interval::TOP,
        },
        BinOp::Mul => {
            let products = [
                a.lo.checked_mul(b.lo),
                a.lo.checked_mul(b.hi),
                a.hi.checked_mul(b.lo),
                a.hi.checked_mul(b.hi),
            ];
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for p in products {
                match p {
                    Some(v) => {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    None => return Interval::TOP,
                }
            }
            Interval::new(lo, hi)
        }
        BinOp::And => {
            if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
                return Interval::exact(x & y);
            }
            // A non-negative constant mask bounds the result to `[0, mask]`
            // regardless of the other operand (the mask's sign bit is clear,
            // so the result's is too, and no bit outside the mask survives).
            match (a.as_const(), b.as_const()) {
                (Some(mask), _) | (_, Some(mask)) if mask >= 0 => Interval::new(0, mask),
                _ => {
                    if a.lo >= 0 && b.lo >= 0 {
                        // Both non-negative: `x & y <= min(x, y)`.
                        Interval::new(0, a.hi.min(b.hi))
                    } else {
                        Interval::TOP
                    }
                }
            }
        }
        BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr | BinOp::Div | BinOp::Rem => {
            match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => match op.eval(x, y) {
                    Some(v) => Interval::exact(v),
                    None => Interval::TOP, // division by zero faults: no value flows on
                },
                _ => Interval::TOP,
            }
        }
    }
}

/// Abstract evaluation of a comparison: `[1, 1]` / `[0, 0]` when the operand
/// ranges decide it, `[0, 1]` otherwise.
pub fn cmp_interval(op: CmpOp, a: Interval, b: Interval) -> Interval {
    let decided: Option<bool> = match op {
        CmpOp::Eq => {
            if a.hi < b.lo || b.hi < a.lo {
                Some(false)
            } else if a.as_const().is_some() && a.as_const() == b.as_const() {
                Some(true)
            } else {
                None
            }
        }
        CmpOp::Ne => {
            if a.hi < b.lo || b.hi < a.lo {
                Some(true)
            } else if a.as_const().is_some() && a.as_const() == b.as_const() {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Lt => {
            if a.hi < b.lo {
                Some(true)
            } else if a.lo >= b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Le => {
            if a.hi <= b.lo {
                Some(true)
            } else if a.lo > b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => {
            if a.lo > b.hi {
                Some(true)
            } else if a.hi <= b.lo {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Ge => {
            if a.lo >= b.hi {
                Some(true)
            } else if a.hi < b.lo {
                Some(false)
            } else {
                None
            }
        }
    };
    match decided {
        Some(v) => Interval::exact(v as i64),
        None => Interval::new(0, 1),
    }
}

/// The per-block fact: the interval of every register that is not top. An
/// absent register is [`Interval::TOP`], so a fact costs space only for what
/// the analysis knows.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RegIntervals {
    regs: BTreeMap<Reg, Interval>,
}

impl RegIntervals {
    fn operand(&self, op: Operand) -> Interval {
        match op {
            Operand::Const(c) => Interval::exact(c),
            Operand::Reg(r) => self.regs.get(&r).copied().unwrap_or(Interval::TOP),
        }
    }

    fn set(&mut self, reg: Reg, value: Interval) {
        if value == Interval::TOP {
            self.regs.remove(&reg);
        } else {
            self.regs.insert(reg, value);
        }
    }
}

impl JoinSemiLattice for RegIntervals {
    fn join(&mut self, other: &Self) -> bool {
        let before = self.regs.len();
        let mut changed = false;
        // A register absent on either side is top on that side, so it is top
        // (absent) in the join.
        self.regs.retain(|r, mine| {
            let Some(theirs) = other.regs.get(r) else { return false };
            let joined = mine.join(theirs);
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
            joined != Interval::TOP
        });
        changed || self.regs.len() != before
    }
}

/// Marks each register of `function` that some block reads before defining
/// it (instruction operands and the terminator): only those registers'
/// values at a block entry are ever observed.
fn read_before_defined(function: &Function) -> Vec<bool> {
    let n = function.num_regs as usize;
    let mut read = vec![false; n];
    // defined_in[r] = 1 + the last block seen defining r.
    let mut defined_in = vec![0usize; n];
    for (bi, block) in function.blocks.iter().enumerate() {
        let mut note_use = |op: Operand, defined_in: &[usize]| {
            if let Operand::Reg(r) = op {
                let r = r.0 as usize;
                if r < n && defined_in[r] != bi + 1 {
                    read[r] = true;
                }
            }
        };
        for inst in &block.insts {
            for op in inst.uses() {
                note_use(op, &defined_in);
            }
            if let Some(dst) = inst.def().filter(|d| (d.0 as usize) < n) {
                defined_in[dst.0 as usize] = bi + 1;
            }
        }
        for op in block.term.uses() {
            note_use(op, &defined_in);
        }
    }
    read
}

/// The intraprocedural interval analysis for one function, parameterized by
/// the interprocedural context (parameter intervals, callee return
/// summaries).
struct IntervalAnalysis<'a> {
    function: &'a Function,
    /// Interval of each parameter register (joined over all call sites).
    params: Vec<Interval>,
    /// Return-value summary per function (`None` = not yet known → top).
    returns: &'a [Option<Interval>],
    /// The function's [`read_before_defined`] registers: the only ones a
    /// fact keeps across an edge.
    observed: &'a [bool],
}

impl IntervalAnalysis<'_> {
    fn call_result(&self, callee: &Callee) -> Interval {
        match callee {
            Callee::Direct(f) => {
                self.returns.get(f.0 as usize).copied().flatten().unwrap_or(Interval::TOP)
            }
            Callee::Indirect(_) => Interval::TOP,
        }
    }
}

impl ForwardAnalysis for IntervalAnalysis<'_> {
    type Fact = RegIntervals;

    fn entry_fact(&self) -> RegIntervals {
        let mut fact = RegIntervals::default();
        for (i, p) in self.params.iter().enumerate().take(self.function.num_regs as usize) {
            fact.set(Reg(i as u32), *p);
        }
        fact
    }

    fn transfer_inst(&self, fact: &mut RegIntervals, inst: &Inst, _loc: Loc) {
        let Some(dst) = inst.def() else { return };
        let value = match inst {
            Inst::Const { value, .. } => Interval::exact(*value),
            Inst::Bin { op, a, b, .. } => bin_interval(*op, fact.operand(*a), fact.operand(*b)),
            Inst::Cmp { op, a, b, .. } => cmp_interval(*op, fact.operand(*a), fact.operand(*b)),
            Inst::Call { callee, .. } => self.call_result(callee),
            // Loads, inputs, addresses, allocations, thread handles: anything
            // reaching registers from outside the register file is top.
            _ => Interval::TOP,
        };
        fact.set(dst, value);
    }

    /// Drops the registers no block reads before defining: their value at a
    /// block entry is never observed, and carrying them would make every
    /// fact as large as the function's register file.
    fn transfer_edge(
        &self,
        fact: &mut RegIntervals,
        _term: &Terminator,
        _from: BlockId,
        _to: BlockId,
    ) {
        fact.regs.retain(|r, _| self.observed.get(r.0 as usize).copied().unwrap_or(false));
    }

    fn widen(&self, fact: &mut RegIntervals) {
        fact.regs.clear();
    }
}

/// How the parameters of one function are known so far during the
/// interprocedural phase.
#[derive(Clone, PartialEq, Eq, Debug)]
enum ParamSummary {
    /// No call site has been seen: the function is (so far) unreached.
    Unreached,
    /// Joined argument intervals over all seen call/spawn sites.
    Known(Vec<Interval>),
    /// The conservative widening at a call boundary: the function is
    /// address-taken, recursive, or called with statically opaque arguments.
    Top,
}

impl ParamSummary {
    fn join_args(&mut self, args: &[Interval]) -> bool {
        match self {
            ParamSummary::Top => false,
            ParamSummary::Unreached => {
                *self = ParamSummary::Known(args.to_vec());
                true
            }
            ParamSummary::Known(current) => {
                if current.len() != args.len() {
                    // Arity mismatch (invalid call): widen rather than guess.
                    *self = ParamSummary::Top;
                    return true;
                }
                let mut changed = false;
                for (c, a) in current.iter_mut().zip(args) {
                    let joined = c.join(a);
                    if joined != *c {
                        *c = joined;
                        changed = true;
                    }
                }
                changed
            }
        }
    }

    fn intervals(&self, num_params: u32) -> Option<Vec<Interval>> {
        match self {
            ParamSummary::Unreached => None,
            ParamSummary::Top => Some(vec![Interval::TOP; num_params as usize]),
            ParamSummary::Known(v) => Some(v.clone()),
        }
    }
}

/// Per-branch feasibility verdicts for a whole program, reported by the
/// `constant-condition` lint.
#[derive(Debug, Clone, Default)]
pub struct BranchFeasibility {
    verdicts: HashMap<(FuncId, BlockId), Feasibility>,
}

impl BranchFeasibility {
    /// Runs the two-phase interprocedural interval analysis.
    ///
    /// * **Phase 1 (bottom-up)**: with all parameters at top, compute each
    ///   function's return-value summary in reverse topological (callee
    ///   first) order; members of call cycles stay at top.
    /// * **Phase 2 (top-down)**: in caller-first order, analyze each function
    ///   with its parameter intervals joined over every call and spawn site;
    ///   address-taken and recursive functions are widened to top. The final
    ///   run of each function also records the verdict of every conditional
    ///   branch whose condition interval excludes one side.
    pub fn compute(program: &Program, cfgs: &[Cfg], callgraph: &CallGraph) -> Self {
        let n = program.functions.len();
        let mut returns: Vec<Option<Interval>> = vec![None; n];
        let observed: Vec<Vec<bool>> = program.functions.iter().map(read_before_defined).collect();

        // Phase 1: return summaries, callees first (callgraph.sccs is in
        // reverse topological order). Recursive SCCs keep `None` (= top).
        for scc in &callgraph.sccs {
            if scc.len() != 1 || self_recursive(callgraph, scc[0]) {
                continue;
            }
            let fid = scc[0];
            let function = program.func(fid);
            let analysis = IntervalAnalysis {
                function,
                params: vec![Interval::TOP; function.num_params as usize],
                returns: &returns,
                observed: &observed[fid.0 as usize],
            };
            let facts = dataflow::solve_function(&analysis, function, &cfgs[fid.0 as usize], fid);
            returns[fid.0 as usize] = Some(return_summary(&analysis, function, &facts, fid));
        }

        // Phase 2: parameter summaries, callers first.
        let mut params: Vec<ParamSummary> = vec![ParamSummary::Unreached; n];
        params[program.entry.0 as usize] = ParamSummary::Known(Vec::new());
        for fid in program.func_ids() {
            if callgraph.address_taken.contains(&fid) {
                params[fid.0 as usize] = ParamSummary::Top;
            }
        }
        // Recursion: every member of a call cycle is widened *before* any
        // argument propagation — in-cycle call sites are processed after the
        // member they target, so their contributions would otherwise be
        // missed.
        for scc in &callgraph.sccs {
            if scc.len() > 1 || self_recursive(callgraph, scc[0]) {
                for fid in scc {
                    params[fid.0 as usize] = ParamSummary::Top;
                }
            }
        }
        let topo: Vec<FuncId> = callgraph.sccs.iter().rev().flatten().copied().collect();

        let mut verdicts = HashMap::new();
        for fid in topo {
            let function = program.func(fid);
            let Some(param_intervals) = params[fid.0 as usize].intervals(function.num_params)
            else {
                continue; // statically unreachable: its branches never run
            };
            let analysis = IntervalAnalysis {
                function,
                params: param_intervals,
                returns: &returns,
                observed: &observed[fid.0 as usize],
            };
            let facts = dataflow::solve_function(&analysis, function, &cfgs[fid.0 as usize], fid);

            // Record branch verdicts from this (final) pass.
            record_verdicts(&analysis, function, &facts, fid, &mut verdicts);

            // Propagate argument intervals into direct callees and spawn
            // targets. Caller-first SCC order guarantees every caller of a
            // function is processed before the function itself (recursive
            // cycles were widened above).
            for (bi, block) in function.blocks.iter().enumerate() {
                let Some(mut fact) = facts.at(BlockId(bi as u32)).cloned() else { continue };
                for inst in &block.insts {
                    match inst {
                        Inst::Call { callee: Callee::Direct(target), args, .. } => {
                            let arg_iv: Vec<Interval> =
                                args.iter().map(|a| fact.operand(*a)).collect();
                            params[target.0 as usize].join_args(&arg_iv);
                        }
                        Inst::ThreadSpawn { func: Callee::Direct(target), arg, .. } => {
                            params[target.0 as usize].join_args(&[fact.operand(*arg)]);
                        }
                        _ => {}
                    }
                    analysis.transfer_inst(&mut fact, inst, Loc::new(fid, BlockId(bi as u32), 0));
                }
            }
        }
        BranchFeasibility { verdicts }
    }

    /// The static verdict for the conditional branch terminating `block` of
    /// `func` ([`Feasibility::Unknown`] when nothing was proven — including
    /// for blocks that do not end in a conditional branch).
    pub fn verdict(&self, func: FuncId, block: BlockId) -> Feasibility {
        self.verdicts.get(&(func, block)).copied().unwrap_or(Feasibility::Unknown)
    }

    /// Number of branches with a decided (non-`Unknown`) verdict.
    pub fn decided(&self) -> usize {
        self.verdicts.len()
    }

    /// Iterates over all decided branches in an unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = ((FuncId, BlockId), Feasibility)> + '_ {
        self.verdicts.iter().map(|(k, v)| (*k, *v))
    }
}

/// True if `f` contains a call or spawn site that may target `f` itself.
fn self_recursive(callgraph: &CallGraph, f: FuncId) -> bool {
    callgraph.sites_of(f).iter().any(|s| s.targets.contains(&f))
}

/// Joins the intervals of every reachable `Ret` in `function`. Void returns
/// contribute `[0, 0]` (a call destination register reading a void return
/// sees the engine's default zero); a function with no reachable `Ret`
/// summarizes to top.
fn return_summary(
    analysis: &IntervalAnalysis<'_>,
    function: &Function,
    facts: &dataflow::BlockFacts<RegIntervals>,
    fid: FuncId,
) -> Interval {
    let mut summary: Option<Interval> = None;
    for (bi, block) in function.blocks.iter().enumerate() {
        if let Terminator::Ret { value } = &block.term {
            let Some(mut fact) = facts.at(BlockId(bi as u32)).cloned() else { continue };
            for (i, inst) in block.insts.iter().enumerate() {
                analysis.transfer_inst(
                    &mut fact,
                    inst,
                    Loc::new(fid, BlockId(bi as u32), i as u32),
                );
            }
            let iv = match value {
                Some(op) => fact.operand(*op),
                // A void return read through a call destination yields the
                // engine's default zero.
                None => Interval::exact(0),
            };
            summary = Some(match summary {
                Some(s) => s.join(&iv),
                None => iv,
            });
        }
    }
    summary.unwrap_or(Interval::TOP)
}

/// Evaluates every reachable block's terminator condition and records decided
/// verdicts.
fn record_verdicts(
    analysis: &IntervalAnalysis<'_>,
    function: &Function,
    facts: &dataflow::BlockFacts<RegIntervals>,
    fid: FuncId,
    out: &mut HashMap<(FuncId, BlockId), Feasibility>,
) {
    for (bi, block) in function.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        let Terminator::CondBr { cond, .. } = &block.term else { continue };
        let Some(mut fact) = facts.at(bid).cloned() else { continue };
        for (i, inst) in block.insts.iter().enumerate() {
            analysis.transfer_inst(&mut fact, inst, Loc::new(fid, bid, i as u32));
        }
        let verdict = fact.operand(*cond).feasibility();
        if verdict != Feasibility::Unknown {
            out.insert((fid, bid), verdict);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::ProgramBuilder;

    fn feasibility_of(program: &Program) -> BranchFeasibility {
        let facts = crate::ProgramFacts::compute(program);
        BranchFeasibility::compute(program, &facts.cfgs, &facts.callgraph)
    }

    #[test]
    fn masked_defensive_check_is_always_true() {
        // The canonical prunable shape: `if ((x & 63) <= 63)` on a symbolic
        // input. The mask bounds the value to [0, 63], deciding the branch
        // without any solver query.
        let mut pb = ProgramBuilder::new("p");
        let mut branch_block = None;
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let masked = f.bin(BinOp::And, x, 63);
            let ok = f.cmp(CmpOp::Le, masked, 63);
            let t = f.new_block("t");
            let e = f.new_block("e");
            branch_block = Some(f.current_block());
            f.cond_br(ok, t, e);
            f.switch_to(t);
            f.ret_void();
            f.switch_to(e);
            f.ret_void();
        });
        let p = pb.finish("main");
        let bf = feasibility_of(&p);
        assert_eq!(bf.verdict(p.entry, branch_block.unwrap()), Feasibility::AlwaysTrue);
        assert_eq!(bf.decided(), 1);
    }

    #[test]
    fn constant_false_condition_is_always_false() {
        let mut pb = ProgramBuilder::new("p");
        let mut branch_block = None;
        pb.function("main", 0, |f| {
            let zero = f.konst(0);
            let t = f.new_block("t");
            let e = f.new_block("e");
            branch_block = Some(f.current_block());
            f.cond_br(zero, t, e);
            f.switch_to(t);
            f.ret_void();
            f.switch_to(e);
            f.ret_void();
        });
        let p = pb.finish("main");
        let bf = feasibility_of(&p);
        assert_eq!(bf.verdict(p.entry, branch_block.unwrap()), Feasibility::AlwaysFalse);
    }

    #[test]
    fn negative_constants_are_truthy() {
        let mut pb = ProgramBuilder::new("p");
        let mut branch_block = None;
        pb.function("main", 0, |f| {
            let neg = f.konst(-3);
            let t = f.new_block("t");
            let e = f.new_block("e");
            branch_block = Some(f.current_block());
            f.cond_br(neg, t, e);
            f.switch_to(t);
            f.ret_void();
            f.switch_to(e);
            f.ret_void();
        });
        let p = pb.finish("main");
        let bf = feasibility_of(&p);
        assert_eq!(bf.verdict(p.entry, branch_block.unwrap()), Feasibility::AlwaysTrue);
    }

    #[test]
    fn input_dependent_branches_stay_unknown() {
        let mut pb = ProgramBuilder::new("p");
        let mut branch_block = None;
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 42);
            let t = f.new_block("t");
            let e = f.new_block("e");
            branch_block = Some(f.current_block());
            f.cond_br(c, t, e);
            f.switch_to(t);
            f.ret_void();
            f.switch_to(e);
            f.ret_void();
        });
        let p = pb.finish("main");
        let bf = feasibility_of(&p);
        assert_eq!(bf.verdict(p.entry, branch_block.unwrap()), Feasibility::Unknown);
        assert_eq!(bf.decided(), 0);
    }

    #[test]
    fn parameter_intervals_join_over_spawn_sites() {
        // worker(id) is spawned with ids 1 and 2, so `id >= 1` always holds
        // in the worker — but `id == 2` stays unknown.
        let mut pb = ProgramBuilder::new("p");
        let mut ge_block = None;
        let mut eq_block = None;
        let worker = pb.declare("worker", 1);
        pb.define(worker, |f| {
            let id = f.param(0);
            let ge = f.cmp(CmpOp::Ge, id, 1);
            let t = f.new_block("t");
            let e = f.new_block("e");
            ge_block = Some(f.current_block());
            f.cond_br(ge, t, e);
            f.switch_to(t);
            let eq = f.cmp(CmpOp::Eq, id, 2);
            let t2 = f.new_block("t2");
            let e2 = f.new_block("e2");
            eq_block = Some(f.current_block());
            f.cond_br(eq, t2, e2);
            f.switch_to(t2);
            f.ret_void();
            f.switch_to(e2);
            f.ret_void();
            f.switch_to(e);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let t1 = f.spawn(worker, 1);
            let t2 = f.spawn(worker, 2);
            f.join(t1);
            f.join(t2);
            f.ret_void();
        });
        let p = pb.finish("main");
        let bf = feasibility_of(&p);
        assert_eq!(bf.verdict(worker, ge_block.unwrap()), Feasibility::AlwaysTrue);
        assert_eq!(bf.verdict(worker, eq_block.unwrap()), Feasibility::Unknown);
    }

    #[test]
    fn constant_return_values_propagate_to_callers() {
        let mut pb = ProgramBuilder::new("p");
        let mut branch_block = None;
        let seven = pb.function("seven", 0, |f| {
            let c = f.konst(7);
            f.ret(c);
        });
        pb.function("main", 0, |f| {
            let v = f.call(seven, vec![]);
            let c = f.cmp(CmpOp::Eq, v, 7);
            let t = f.new_block("t");
            let e = f.new_block("e");
            branch_block = Some(f.current_block());
            f.cond_br(c, t, e);
            f.switch_to(t);
            f.ret_void();
            f.switch_to(e);
            f.ret_void();
        });
        let p = pb.finish("main");
        let bf = feasibility_of(&p);
        assert_eq!(bf.verdict(p.entry, branch_block.unwrap()), Feasibility::AlwaysTrue);
    }

    #[test]
    fn address_taken_functions_widen_to_top() {
        // A function called only with constant 5 would normally get an exact
        // parameter — unless its address escapes, making other call sites
        // possible.
        let mut pb = ProgramBuilder::new("p");
        let mut branch_block = None;
        let callee = pb.declare("callee", 1);
        pb.define(callee, |f| {
            let c = f.cmp(CmpOp::Eq, f.param(0), 5);
            let t = f.new_block("t");
            let e = f.new_block("e");
            branch_block = Some(f.current_block());
            f.cond_br(c, t, e);
            f.switch_to(t);
            f.ret_void();
            f.switch_to(e);
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            let fp = f.func_addr(callee);
            f.output(fp);
            f.call_void(callee, vec![esd_ir::Operand::Const(5)]);
            f.ret_void();
        });
        let p = pb.finish("main");
        let bf = feasibility_of(&p);
        assert_eq!(bf.verdict(callee, branch_block.unwrap()), Feasibility::Unknown);
    }

    #[test]
    fn loops_converge_with_widening_and_stay_unknown() {
        // A bounded counting loop through memory: the analysis must
        // terminate and (memory being top) decide nothing.
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let ctr = f.local(1);
            let ctrp = f.addr_local(ctr);
            let zero = f.konst(0);
            f.store(ctrp, zero);
            let header = f.new_block("header");
            let body = f.new_block("body");
            let exit = f.new_block("exit");
            f.br(header);
            f.switch_to(header);
            let i = f.load(ctrp);
            let more = f.cmp(CmpOp::Lt, i, 4);
            f.cond_br(more, body, exit);
            f.switch_to(body);
            let i1 = f.add(i, 1);
            f.store(ctrp, i1);
            f.br(header);
            f.switch_to(exit);
            f.ret_void();
        });
        let p = pb.finish("main");
        let bf = feasibility_of(&p);
        assert_eq!(bf.decided(), 0);
    }

    #[test]
    fn overflow_widens_instead_of_wrapping() {
        // i64::MAX + 1 wraps at runtime; the abstract add must go to top, not
        // produce an empty/wrapped interval that would misjudge the sign
        // check.
        let a = Interval::exact(i64::MAX);
        let b = Interval::exact(1);
        assert_eq!(bin_interval(BinOp::Add, a, b), Interval::TOP);
        assert_eq!(bin_interval(BinOp::Mul, a, Interval::exact(2)), Interval::TOP);
    }
}
