//! Per-goal distance maps and the proximity heuristic (Algorithm 1).
//!
//! [`DistanceOracle`] answers the question the dynamic phase asks before
//! every state-selection decision: *how many instructions, at least, separate
//! this execution state from the goal?* The estimate accounts for three ways
//! of getting there:
//!
//! 1. staying in the current function and walking the CFG to the goal block,
//! 2. calling into a function from which the goal is reachable (charging the
//!    call plus the callee-side distance), and
//! 3. returning to a caller and continuing from the return address (the
//!    call-stack walk of Algorithm 1, lines 2–6).
//!
//! Distances are per-goal; the oracle caches the per-goal maps so that the
//! final goal and every intermediate goal each pay the pre-computation once.
//!
//! When the queried goal belongs to the goal set the static analysis was
//! computed for, distances are measured with the *sliced* cost model
//! ([`StaticAnalysis::costs_for_goal`]): instructions the backward relevance
//! slice ([`crate::slice`](mod@crate::slice)) proves cannot affect the goal
//! cost zero, so a state wading through goal-relevant work ranks closer than
//! one wading through bookkeeping of the same length.

use crate::costs::INF;
use crate::StaticAnalysis;
use esd_ir::{BlockId, Callee, FuncId, Inst, Loc, Program};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Mutex};

fn sat(a: u64, b: u64) -> u64 {
    let s = a.saturating_add(b);
    if s >= INF {
        INF
    } else {
        s
    }
}

/// Distance maps for one goal.
#[derive(Debug)]
pub struct GoalDistances {
    /// The goal these distances lead to.
    pub goal: Loc,
    /// `block_entry[f][b]` = least cost from the start of block `b` of
    /// function `f` to the goal (possibly via calls), INF if unreachable.
    pub block_entry: Vec<Vec<u64>>,
    /// `func_entry[f]` = least cost from the entry of `f` to the goal.
    pub func_entry: Vec<u64>,
}

/// Answers proximity queries (Algorithm 1) for arbitrary goals.
///
/// The oracle shares ownership of the program and its static analysis via
/// [`Arc`], so the search engine (and the synthesis sessions built on it) can
/// own an oracle outright instead of borrowing one for the duration of a
/// blocking run.
pub struct DistanceOracle {
    program: Arc<Program>,
    analysis: Arc<StaticAnalysis>,
    cache: Mutex<HashMap<Loc, Arc<GoalDistances>>>,
}

impl DistanceOracle {
    /// Creates an oracle over the given program and its pre-computed static
    /// analysis (the oracle reads the CFGs, the call graph and the cost
    /// model; the per-goal pieces of the analysis are ignored).
    pub fn new(program: Arc<Program>, analysis: Arc<StaticAnalysis>) -> Self {
        DistanceOracle { program, analysis, cache: Mutex::new(HashMap::new()) }
    }

    /// Returns (computing and caching on first use) the distance maps for
    /// `goal`.
    pub fn goal_distances(&self, goal: Loc) -> Arc<GoalDistances> {
        if let Some(gd) = self.cache.lock().expect("oracle cache poisoned").get(&goal) {
            return gd.clone();
        }
        // Compute outside the lock: distance maps are deterministic, so two
        // racing computations of the same goal insert identical maps.
        let gd = Arc::new(self.compute_goal_distances(goal));
        self.cache.lock().expect("oracle cache poisoned").insert(goal, gd.clone());
        gd
    }

    fn call_targets(&self, inst: &Inst, caller: FuncId) -> Vec<FuncId> {
        match inst {
            Inst::Call { callee: Callee::Direct(t), .. }
            | Inst::ThreadSpawn { func: Callee::Direct(t), .. } => vec![*t],
            Inst::Call { callee: Callee::Indirect(_), args, .. } => self
                .analysis
                .facts
                .callgraph
                .address_taken
                .iter()
                .copied()
                .filter(|t| self.program.func(*t).num_params as usize == args.len())
                .collect(),
            _ => {
                let _ = caller;
                vec![]
            }
        }
    }

    fn compute_goal_distances(&self, goal: Loc) -> GoalDistances {
        let nf = self.program.functions.len();
        let mut func_entry = vec![INF; nf];
        let mut block_entry: Vec<Vec<u64>> =
            self.program.functions.iter().map(|f| vec![INF; f.blocks.len()]).collect();

        // Only functions from which the goal's function is reachable through
        // calls can have finite distances; iterate to a fixed point over
        // those (the dependency is: a caller's distance uses its callees'
        // entry distances).
        let relevant = self.analysis.facts.callgraph.functions_reaching(goal.func);
        let mut order: Vec<FuncId> = relevant.iter().copied().collect();
        // Process the goal's own function first, then the rest; the fixed
        // point iteration handles any remaining ordering issues.
        order.sort_by_key(|f| if *f == goal.func { 0 } else { 1 });

        let max_iters = order.len().max(1) + 1;
        for _ in 0..max_iters {
            let mut changed = false;
            for f in &order {
                let new = self.function_block_distances(*f, goal, &func_entry);
                let fe = new[0];
                if new != block_entry[f.0 as usize] {
                    block_entry[f.0 as usize] = new;
                    changed = true;
                }
                if fe < func_entry[f.0 as usize] {
                    func_entry[f.0 as usize] = fe;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        GoalDistances { goal, block_entry, func_entry }
    }

    /// Distance from the start of every block of `f` to the goal, given the
    /// current estimates of callee entry distances.
    fn function_block_distances(&self, f: FuncId, goal: Loc, func_entry: &[u64]) -> Vec<u64> {
        let function = self.program.func(f);
        let cfg = &self.analysis.facts.cfgs[f.0 as usize];
        let n = function.blocks.len();
        let mut dist = vec![INF; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

        // Seed with each block's "exit" distance: reaching the goal directly
        // inside the block, or entering a callee that can reach the goal.
        for (bi, d) in dist.iter_mut().enumerate() {
            let b = BlockId(bi as u32);
            let base = self.block_exit_distance(f, b, 0, goal, func_entry);
            if base < INF {
                *d = base;
                heap.push(Reverse((base, bi)));
            }
        }
        while let Some(Reverse((d, b))) = heap.pop() {
            if d > dist[b] {
                continue;
            }
            for p in cfg.preds(BlockId(b as u32)) {
                let pi = p.0 as usize;
                let nd = sat(self.analysis.costs_for_goal(goal).block_cost[f.0 as usize][pi], d);
                if nd < dist[pi] {
                    dist[pi] = nd;
                    heap.push(Reverse((nd, pi)));
                }
            }
        }
        dist
    }

    /// Least cost of reaching the goal from instruction `from_idx` of block
    /// `b` *without leaving the block through its terminator*: either the
    /// goal instruction itself lies ahead in this block, or a call ahead in
    /// this block enters a function from which the goal is reachable.
    fn block_exit_distance(
        &self,
        f: FuncId,
        b: BlockId,
        from_idx: u32,
        goal: Loc,
        func_entry: &[u64],
    ) -> u64 {
        let function = self.program.func(f);
        let block = function.block(b);
        let costs = self.analysis.costs_for_goal(goal);
        let mut best = INF;
        // Goal directly ahead in this block.
        if f == goal.func && b == goal.block && from_idx <= goal.idx {
            let d = costs
                .block_prefix_cost(f, b, goal.idx)
                .saturating_sub(costs.block_prefix_cost(f, b, from_idx));
            best = best.min(d);
        }
        // A call ahead in this block into a goal-reaching function.
        for (i, inst) in block.insts.iter().enumerate().skip(from_idx as usize) {
            if matches!(inst, Inst::Call { .. } | Inst::ThreadSpawn { .. }) {
                let walked = costs
                    .block_prefix_cost(f, b, i as u32)
                    .saturating_sub(costs.block_prefix_cost(f, b, from_idx));
                for t in self.call_targets(inst, f) {
                    let via = sat(sat(walked, 1), func_entry[t.0 as usize]);
                    best = best.min(via);
                }
            }
        }
        best
    }

    /// Distance from an arbitrary location to the goal, ignoring the
    /// possibility of first returning to a caller (that is handled by
    /// [`DistanceOracle::proximity`]).
    pub fn distance_from(&self, gd: &GoalDistances, loc: Loc) -> u64 {
        let f = loc.func;
        if (f.0 as usize) >= self.program.functions.len() {
            return INF;
        }
        let goal = gd.goal;
        let mut best = self.block_exit_distance(f, loc.block, loc.idx, goal, &gd.func_entry);
        // Leave through the terminator and continue from a successor block.
        let suffix = self.analysis.costs_for_goal(goal).block_suffix_cost(f, loc.block, loc.idx);
        let function = self.program.func(f);
        for s in function.block(loc.block).term.successors() {
            let d = sat(suffix, gd.block_entry[f.0 as usize][s.0 as usize]);
            best = best.min(d);
        }
        best
    }

    /// Algorithm 1: the proximity of an execution state — given as its call
    /// stack of locations, outermost frame first, innermost (current pc)
    /// last — to `goal`.
    pub fn proximity(&self, stack: &[Loc], goal: Loc) -> u64 {
        self.proximity_with(stack, &self.goal_distances(goal))
    }

    /// [`DistanceOracle::proximity`] against distance maps the caller
    /// resolved with [`DistanceOracle::goal_distances`]: a caller that asks
    /// about the same goals on every step resolves them once and skips the
    /// cache lookup.
    pub fn proximity_with(&self, stack: &[Loc], gd: &GoalDistances) -> u64 {
        let Some(&pc) = stack.last() else { return INF };
        let mut dmin = self.distance_from(gd, pc);
        // Walk outward through the call stack: return from the current
        // frame(s), then continue toward the goal from the return address.
        let mut ret_cost = self.analysis.facts.costs.dist2ret(&self.program, pc);
        for caller in stack.iter().rev().skip(1) {
            let d = sat(sat(ret_cost, 1), self.distance_from(gd, *caller));
            dmin = dmin.min(d);
            ret_cost =
                sat(sat(ret_cost, 1), self.analysis.facts.costs.dist2ret(&self.program, *caller));
            if ret_cost >= INF {
                break;
            }
        }
        dmin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, Operand, Program, ProgramBuilder};

    struct Fixture {
        program: Arc<Program>,
        analysis: Arc<StaticAnalysis>,
    }

    impl Fixture {
        fn new(program: Program) -> Self {
            // The oracle only reads the goal-independent parts of the
            // analysis, so any valid location works as the analysis goal.
            let goal = Loc::new(program.entry, BlockId(0), 0);
            let analysis = Arc::new(StaticAnalysis::compute(&program, goal));
            Fixture { program: Arc::new(program), analysis }
        }

        fn oracle(&self) -> DistanceOracle {
            DistanceOracle::new(self.program.clone(), self.analysis.clone())
        }
    }

    fn branchy_program() -> Program {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 1);
            let near = f.new_block("near");
            let far = f.new_block("far");
            let goal = f.new_block("goal");
            f.cond_br(c, near, far);
            f.switch_to(near);
            f.br(goal);
            f.switch_to(far);
            for _ in 0..20 {
                f.nop();
            }
            f.br(goal);
            f.switch_to(goal);
            f.output(1);
            f.ret_void();
        });
        pb.finish("main")
    }

    #[test]
    fn distance_prefers_the_short_branch() {
        let fx = Fixture::new(branchy_program());
        let oracle = fx.oracle();
        let main = fx.program.entry;
        let goal = Loc::new(main, BlockId(3), 0);
        let gd = oracle.goal_distances(goal);
        let near = oracle.distance_from(&gd, Loc::new(main, BlockId(1), 0));
        let far = oracle.distance_from(&gd, Loc::new(main, BlockId(2), 0));
        assert!(near < far, "near {near} must be < far {far}");
        // From the entry, the estimate takes the short side.
        let entry = oracle.distance_from(&gd, Loc::new(main, BlockId(0), 0));
        assert!(entry <= far);
        assert!(entry >= near);
    }

    #[test]
    fn unreachable_goal_has_infinite_distance() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let dead = f.new_block("dead");
            f.ret_void();
            f.switch_to(dead);
            f.ret_void();
        });
        let p = pb.finish("main");
        let fx = Fixture::new(p);
        let oracle = fx.oracle();
        let goal = Loc::new(fx.program.entry, BlockId(1), 0);
        let gd = oracle.goal_distances(goal);
        let entry = oracle.distance_from(&gd, Loc::new(fx.program.entry, BlockId(0), 0));
        assert_eq!(entry, INF);
    }

    #[test]
    fn distance_through_calls_reaches_goals_in_callees() {
        let mut pb = ProgramBuilder::new("p");
        let callee = pb.function("callee", 1, |f| {
            f.nop();
            f.nop();
            f.output(f.param(0));
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            f.nop();
            f.call_void(callee, vec![Operand::Const(3)]);
            f.ret_void();
        });
        let p = pb.finish("main");
        let fx = Fixture::new(p);
        let oracle = fx.oracle();
        let callee_id = fx.program.func_by_name("callee").unwrap();
        // Goal: the `output` inside the callee.
        let goal = Loc::new(callee_id, BlockId(0), 2);
        let gd = oracle.goal_distances(goal);
        let main_entry = Loc::new(fx.program.entry, BlockId(0), 0);
        let d = oracle.distance_from(&gd, main_entry);
        // nop(1) + call(1) + callee: nop+nop = 2 → 4 total.
        assert_eq!(d, 4);
    }

    #[test]
    fn proximity_considers_returning_to_callers() {
        let mut pb = ProgramBuilder::new("p");
        let helper = pb.function("helper", 0, |f| {
            f.nop();
            f.ret_void();
        });
        pb.function("main", 0, |f| {
            f.call_void(helper, vec![]);
            f.nop();
            f.output(7); // goal
            f.ret_void();
        });
        let p = pb.finish("main");
        let fx = Fixture::new(p);
        let oracle = fx.oracle();
        let main = fx.program.entry;
        let helper_id = fx.program.func_by_name("helper").unwrap();
        let goal = Loc::new(main, BlockId(0), 2);
        // State: inside helper (at its nop), called from main where the
        // return address is main's idx 1 (the nop after the call).
        let stack = [Loc::new(main, BlockId(0), 1), Loc::new(helper_id, BlockId(0), 0)];
        let d = oracle.proximity(&stack, goal);
        // helper: nop + ret = 2, +1 for the return edge, then main: nop = 1
        // → at the goal ⇒ 2 + 1 + 1 = 4.
        assert_eq!(d, 4);
        // Without the caller frame the goal is unreachable from helper.
        let d_inner_only = oracle.proximity(&[Loc::new(helper_id, BlockId(0), 0)], goal);
        assert_eq!(d_inner_only, INF);
    }

    #[test]
    fn proximity_decreases_monotonically_along_the_straight_path() {
        let fx = Fixture::new(branchy_program());
        let oracle = fx.oracle();
        let main = fx.program.entry;
        let goal = Loc::new(main, BlockId(3), 1);
        let d0 = oracle.proximity(&[Loc::new(main, BlockId(0), 0)], goal);
        let d1 = oracle.proximity(&[Loc::new(main, BlockId(1), 0)], goal);
        let d2 = oracle.proximity(&[Loc::new(main, BlockId(3), 0)], goal);
        let d3 = oracle.proximity(&[Loc::new(main, BlockId(3), 1)], goal);
        assert!(d0 > d1 && d1 > d2 && d2 > d3);
        assert_eq!(d3, 0);
    }

    #[test]
    fn sliced_costs_apply_only_to_the_analysis_goal() {
        // Dead arithmetic (feeding only an output) sits between the entry and
        // the goal. When the analysis is computed *for* that goal, the slice
        // zeroes the dead instructions and the distance shrinks; ad-hoc
        // queries for other goals keep the full model.
        let mut pb = ProgramBuilder::new("p");
        let mut goal = None;
        pb.function("main", 0, |f| {
            let a = f.konst(10);
            let b = f.mul(a, 3);
            f.output(b);
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 7);
            goal = Some(f.here());
            f.assert(c, "x is 7");
            f.ret_void();
        });
        let program = pb.finish("main");
        let goal = goal.unwrap();
        let entry = Loc::new(program.entry, BlockId(0), 0);

        let program = Arc::new(program);
        let analysis = Arc::new(StaticAnalysis::compute(&program, goal));
        let oracle = DistanceOracle::new(program.clone(), analysis.clone());
        let sliced = oracle.proximity(&[entry], goal);
        // Full model: konst + mul + output + getchar + cmp = 5. Sliced: the
        // first three cost zero, leaving getchar + cmp = 2.
        assert_eq!(sliced, 2);

        // The same query through an analysis computed for a *different* goal
        // uses the full model.
        let other = Arc::new(StaticAnalysis::compute(&program, entry));
        let full_oracle = DistanceOracle::new(program.clone(), other);
        assert_eq!(full_oracle.proximity(&[entry], goal), 5);
    }

    #[test]
    fn goal_distances_are_cached_per_goal() {
        let fx = Fixture::new(branchy_program());
        let oracle = fx.oracle();
        let main = fx.program.entry;
        let goal = Loc::new(main, BlockId(3), 0);
        let a = oracle.goal_distances(goal);
        let b = oracle.goal_distances(goal);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
