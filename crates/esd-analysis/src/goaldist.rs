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
//! Every goal is measured with the same cost model, the program's
//! [`CostModel`](crate::CostModel) in [`ProgramFacts`](crate::ProgramFacts):
//! as in Algorithm 1, every instruction on the way to the goal counts.

use crate::callgraph::CallSite;
use crate::costs::INF;
use crate::StaticAnalysis;
use esd_ir::{BlockId, FuncId, Loc, Program};
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

    /// The call sites of block `b` of `f` at or after instruction
    /// `from_idx`, in instruction order.
    fn sites_from(&self, f: FuncId, b: BlockId, from_idx: u32) -> &[CallSite] {
        let sites = self.analysis.facts.callgraph.sites_of(f);
        let lo = sites.partition_point(|s| (s.loc.block, s.loc.idx) < (b, from_idx));
        let len = sites[lo..].partition_point(|s| s.loc.block == b);
        &sites[lo..lo + len]
    }

    /// Computes the distance maps of `goal` callee-first: functions are
    /// visited in the call graph's SCC order (callees before callers), and a
    /// function is (re)computed only when it holds the goal or a callee's
    /// entry distance has dropped since the function was last computed. A
    /// recursive SCC iterates until no entry distance inside it drops.
    fn compute_goal_distances(&self, goal: Loc) -> GoalDistances {
        let callgraph = &self.analysis.facts.callgraph;
        let nf = self.program.functions.len();
        let mut func_entry = vec![INF; nf];
        let mut block_entry: Vec<Vec<u64>> =
            self.program.functions.iter().map(|f| vec![INF; f.blocks.len()]).collect();

        let mut dirty = vec![false; nf];
        dirty[goal.func.0 as usize] = true;
        let mut work: Vec<FuncId> = Vec::new();
        for scc in &callgraph.sccs {
            work.extend(scc.iter().filter(|f| dirty[f.0 as usize]));
            while let Some(f) = work.pop() {
                let fi = f.0 as usize;
                dirty[fi] = false;
                block_entry[fi] = self.function_block_distances(f, goal, &func_entry);
                let fe = block_entry[fi][0];
                if fe >= func_entry[fi] {
                    continue;
                }
                func_entry[fi] = fe;
                for (caller, _) in callgraph.callers.get(&f).into_iter().flatten() {
                    let ci = caller.0 as usize;
                    if !std::mem::replace(&mut dirty[ci], true)
                        && callgraph.scc_index[ci] == callgraph.scc_index[fi]
                    {
                        work.push(*caller);
                    }
                }
            }
        }
        GoalDistances { goal, block_entry, func_entry }
    }

    /// Distance from the start of every block of `f` to the goal, given the
    /// current estimates of callee entry distances.
    fn function_block_distances(&self, f: FuncId, goal: Loc, func_entry: &[u64]) -> Vec<u64> {
        let facts = &self.analysis.facts;
        let cfg = &facts.cfgs[f.0 as usize];
        let mut dist = vec![INF; cfg.num_blocks()];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut seed = |b: BlockId, d: u64| {
            if d < dist[b.0 as usize] {
                dist[b.0 as usize] = d;
                heap.push(Reverse((d, b.0 as usize)));
            }
        };

        // Seed each block with its "exit" distance: reaching the goal
        // directly inside the block, or entering a callee that can reach the
        // goal.
        if f == goal.func {
            seed(goal.block, facts.costs.block_prefix_cost(f, goal.block, goal.idx));
        }
        for site in facts.callgraph.sites_of(f) {
            let walked = facts.costs.block_prefix_cost(f, site.loc.block, site.loc.idx);
            for t in &site.targets {
                seed(site.loc.block, sat(sat(walked, 1), func_entry[t.0 as usize]));
            }
        }
        while let Some(Reverse((d, b))) = heap.pop() {
            if d > dist[b] {
                continue;
            }
            for p in cfg.preds(BlockId(b as u32)) {
                let pi = p.0 as usize;
                let nd = sat(facts.costs.block_cost(f, *p), d);
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
    /// goal instruction itself lies ahead in this block, or a call (or
    /// spawn) ahead in this block enters a function from which the goal is
    /// reachable.
    fn block_exit_distance(
        &self,
        f: FuncId,
        b: BlockId,
        from_idx: u32,
        goal: Loc,
        func_entry: &[u64],
    ) -> u64 {
        let costs = &self.analysis.facts.costs;
        let walked_from = costs.block_prefix_cost(f, b, from_idx);
        let mut best = INF;
        // Goal directly ahead in this block.
        if f == goal.func && b == goal.block && from_idx <= goal.idx {
            best = costs.block_prefix_cost(f, b, goal.idx) - walked_from;
        }
        // A call ahead in this block into a goal-reaching function.
        for site in self.sites_from(f, b, from_idx) {
            let walked = costs.block_prefix_cost(f, b, site.loc.idx) - walked_from;
            for t in &site.targets {
                best = best.min(sat(sat(walked, 1), func_entry[t.0 as usize]));
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
        let suffix = self.analysis.facts.costs.block_suffix_cost(f, loc.block, loc.idx);
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
        let mut ret_cost = self.analysis.facts.costs.dist2ret(pc);
        for caller in stack.iter().rev().skip(1) {
            let d = sat(sat(ret_cost, 1), self.distance_from(gd, *caller));
            dmin = dmin.min(d);
            ret_cost = sat(sat(ret_cost, 1), self.analysis.facts.costs.dist2ret(*caller));
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
