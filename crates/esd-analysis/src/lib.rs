//! Static analysis for execution synthesis.
//!
//! This crate implements the static phase of ESD's sequential path synthesis
//! (§3.2 of the paper) and the proximity heuristic used by the dynamic phase
//! (§3.4, Algorithm 1):
//!
//! * per-function control-flow graphs and reachability ([`cfg`](mod@cfg)),
//! * the interprocedural call graph with best-effort function-pointer
//!   resolution ([`callgraph`]),
//! * instruction/block/function cost models and distance-to-return
//!   ([`costs`]),
//! * per-goal interprocedural distance maps and the proximity heuristic
//!   ([`goaldist`]),
//! * register use-def chains and reaching definitions of memory variables
//!   ([`reachdef`]),
//! * critical edges and intermediate goals ([`critical`]),
//! * a generic forward dataflow solver ([`dataflow`]) with interprocedural
//!   constant/interval propagation on top ([`interval`]) — the static
//!   branch-feasibility verdicts the symbolic engine consults to skip
//!   provably one-sided forks without a solver query,
//! * a static lockset / lock-order-graph analysis detecting potential ABBA
//!   deadlock cycles ([`lockorder`]),
//! * a flow-insensitive Andersen-style points-to/escape analysis classifying
//!   each memory access as thread-local or may-shared ([`pointsto`]),
//! * may-happen-in-parallel + lockset race-pair candidates that bound the
//!   dynamic phase's preemption forks in race mode ([`racecand`]; built on
//!   demand, see [`ProgramFacts::race_candidates`]),
//! * a backward goal-directed relevance slice sharpening the proximity
//!   heuristic's cost model ([`slice`](mod@slice)),
//! * seven IR lints with severity-ranked diagnostics ([`lint::run`]).
//!
//! [`ProgramFacts`] holds the goal-independent facts, built once per program
//! by [`ProgramFacts::compute`]; the search and the lint both read them.
//! [`StaticAnalysis`] adds what the dynamic phase needs for one goal — or,
//! for multi-threaded goals such as deadlocks, for the whole set of goal
//! locations at once ([`StaticAnalysis::compute_multi`]).

// Documentation enforcement (see ARCHITECTURE.md): every public item must
// carry rustdoc, extended from the esd-concurrency pilot now that the static
// phase's multi-goal API stabilized this crate's surface.
#![deny(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod costs;
pub mod critical;
pub mod dataflow;
pub mod goaldist;
pub mod interval;
pub mod lint;
pub mod lockorder;
pub mod pointsto;
pub mod racecand;
pub mod reachdef;
pub mod slice;

pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use costs::{CostModel, INF, RECURSION_COST};
pub use critical::{CriticalEdge, IntermediateGoal, StaticGoalInfo};
pub use dataflow::{ForwardAnalysis, JoinSemiLattice};
pub use goaldist::DistanceOracle;
pub use interval::{BranchFeasibility, Feasibility, Interval};
pub use lint::{Diagnostic, Severity};
pub use lockorder::{LockCycle, LockEdge, LockOrderInfo};
pub use pointsto::{AbsLoc, MemAccess, PointsTo};
pub use racecand::{RaceCandidates, RacePairCandidate};
pub use slice::RelevanceSlice;

use esd_ir::{Inst, Loc, Program};
use std::sync::{Arc, OnceLock};

/// The goal-independent static facts of one program: everything the static
/// phase derives without knowing the goal. The search and the lint both read
/// them, and [`ProgramFacts::compute`] is the one place that builds them.
///
/// Every public field is built eagerly. The race-pair candidates are built
/// on demand ([`ProgramFacts::race_candidates`]): only the race-directed
/// search and the lint read them, and on the BPF programs they cost about
/// 30% of what the bundle cost with them.
pub struct ProgramFacts {
    /// One CFG per function.
    pub cfgs: Vec<Cfg>,
    /// The interprocedural call graph.
    pub callgraph: CallGraph,
    /// Cost model / distance-to-return oracle.
    pub costs: CostModel,
    /// Interval-analysis verdicts for conditional branches: which branches
    /// are statically one-sided for *all* inputs. The symbolic engine's
    /// stepper consults these before forking to skip solver queries.
    pub branch_feasibility: BranchFeasibility,
    /// The static lock-order graph and its potential ABBA deadlock cycles.
    pub lock_order: LockOrderInfo,
    /// Andersen-style points-to/escape facts: which memory accesses may touch
    /// shared state.
    pub points_to: PointsTo,
    /// The race-pair candidates, built on the first
    /// [`ProgramFacts::race_candidates`] call.
    race_candidates: OnceLock<RaceCandidates>,
}

impl ProgramFacts {
    /// Runs every goal-independent pass over `program`.
    pub fn compute(program: &Program) -> Self {
        let cfgs: Vec<Cfg> = program.func_ids().map(|f| Cfg::build(program.func(f), f)).collect();
        let callgraph = CallGraph::build(program);
        let costs = CostModel::new(program, &cfgs, &callgraph);
        let branch_feasibility = BranchFeasibility::compute(program, &cfgs, &callgraph);
        let lock_order = lockorder::analyze(program, &cfgs, &callgraph);
        let points_to = PointsTo::compute(program, &callgraph);
        ProgramFacts {
            cfgs,
            callgraph,
            costs,
            branch_feasibility,
            lock_order,
            points_to,
            race_candidates: OnceLock::new(),
        }
    }

    /// The ranked set of statically identified race-pair candidates (§4.2):
    /// pairs of may-shared accesses that may happen in parallel without a
    /// common must-held lock. The stepper's race-preemption mode only forks
    /// at accesses/yields this set marks relevant.
    ///
    /// Built on the first call from the bundle's CFGs, call graph, points-to
    /// facts and lock order, and kept for every later call; `program` must be
    /// the program these facts were computed for. The engine makes that
    /// first call at set-up when its search will read the set (race
    /// detection with static pruning), so the cost lands there and not
    /// mid-search; other jobs never pay it.
    pub fn race_candidates(&self, program: &Program) -> &RaceCandidates {
        self.race_candidates.get_or_init(|| {
            racecand::compute(
                program,
                &self.cfgs,
                &self.callgraph,
                &self.points_to,
                &self.lock_order,
            )
        })
    }

    /// The race-pair candidates if [`ProgramFacts::race_candidates`] has
    /// built them (or [`ProgramFacts::set_race_candidates`] installed them),
    /// without building them.
    pub fn race_candidates_if_built(&self) -> Option<&RaceCandidates> {
        self.race_candidates.get()
    }

    /// Installs `candidates` in place of the computed set, replacing any
    /// already built: later [`ProgramFacts::race_candidates`] calls return
    /// it. Useful to study the search under a less precise static phase.
    pub fn set_race_candidates(&mut self, candidates: RaceCandidates) {
        self.race_candidates = OnceLock::from(candidates);
    }
}

/// The complete static-analysis bundle for one synthesis goal set: the
/// program's goal-independent [`ProgramFacts`] plus the facts derived from
/// the goals.
///
/// Construction performs the paper's static phase: CFG construction, call
/// graph and function-pointer resolution, dead-block identification, critical
/// edge marking and intermediate goal derivation, plus the cost model backing
/// the proximity heuristic.
pub struct StaticAnalysis {
    /// The goal-independent facts.
    pub facts: ProgramFacts,
    /// Per-goal critical edges and intermediate goals.
    pub goal_info: StaticGoalInfo,
    /// The backward goal-directed relevance slice and its sliced cost model
    /// ([`StaticAnalysis::costs_for_goal`]). Its `goals` are the goal set
    /// this analysis was computed for.
    pub slice: RelevanceSlice,
}

impl StaticAnalysis {
    /// Runs the full static phase of path synthesis for `goal`.
    pub fn compute(program: &Program, goal: Loc) -> Self {
        Self::compute_multi(program, &[goal])
    }

    /// Runs the static phase for a *set* of goal locations and merges the
    /// per-goal results ([`StaticGoalInfo::merge`]). Deadlock goals list one
    /// blocked-lock location per deadlocked thread; computing the phase over
    /// all of them makes the intermediate-goal queues cover every thread's
    /// lock site instead of only the first one's.
    ///
    /// # Panics
    ///
    /// Panics when `goals` is empty: there is nothing to direct the search
    /// toward.
    pub fn compute_multi(program: &Program, goals: &[Loc]) -> Self {
        assert!(!goals.is_empty(), "at least one goal location");
        let facts = ProgramFacts::compute(program);
        let (cfgs, callgraph) = (&facts.cfgs, &facts.callgraph);
        let infos =
            goals.iter().map(|g| StaticGoalInfo::compute(program, cfgs, callgraph, *g)).collect();
        let mut goal_info = StaticGoalInfo::merge(infos);
        let slice = slice::compute(program, callgraph, &facts.points_to, &facts.costs, goals);
        // Deadlock goals (a goal at a blocked MutexLock) get the lock-order
        // cycles' acquisition sites as extra intermediate goals: the ranked
        // candidate deadlock sites the paper's static phase promises (§4.1).
        // Pure guidance — a wrong candidate only costs search priority.
        let deadlockish =
            goals.iter().any(|g| matches!(program.inst_at(*g), Some(Inst::MutexLock { .. })));
        if deadlockish {
            for cycle in &facts.lock_order.cycles {
                let goal = IntermediateGoal {
                    alternatives: cycle.sites.clone(),
                    // Cycles are keyed on the lower mutex of the pair; the
                    // sentinel value distinguishes them from store-derived
                    // goals, which always carry a concrete stored value.
                    variable: (cycle.pair.0, -1),
                };
                if !goal_info.intermediate_goals.contains(&goal) {
                    goal_info.intermediate_goals.push(goal);
                }
            }
        }
        StaticAnalysis { facts, goal_info, slice }
    }

    /// The cost model to use when measuring distance toward `goal`: the
    /// sliced model (irrelevant instructions cost zero) when `goal` belongs
    /// to the goal set this analysis was computed for, the full model
    /// otherwise (e.g. ad-hoc queries for other locations).
    pub fn costs_for_goal(&self, goal: Loc) -> &CostModel {
        if self.slice.goals.contains(&goal) {
            &self.slice.costs
        } else {
            &self.facts.costs
        }
    }

    /// Creates the distance oracle (Algorithm 1) for this program. The oracle
    /// can answer proximity queries for the main goal as well as for any
    /// intermediate goal, and shares ownership of its inputs so callers that
    /// outlive the current stack frame (resumable synthesis sessions) can own
    /// it outright.
    pub fn distance_oracle(
        analysis: &Arc<StaticAnalysis>,
        program: &Arc<Program>,
    ) -> DistanceOracle {
        DistanceOracle::new(program.clone(), analysis.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::CmpOp;
    use esd_ir::ProgramBuilder;

    /// Regression test for multi-location goals (deadlock reports list one
    /// blocked-lock location per thread): seeding the static phase with only
    /// the first location used to lose the other threads' guidance. The
    /// second goal here sits behind a flag-guarded branch in `worker`, so its
    /// intermediate goal (the `flag = 1` store in `main`) only appears when
    /// the phase is computed over *all* goal locations.
    #[test]
    fn compute_multi_unions_guidance_over_all_goal_locations() {
        let mut pb = ProgramBuilder::new("two_goal");
        let flag = pb.global("flag", 1);
        let mut goal2 = None;
        let worker = pb.function("worker", 0, |f| {
            let fp = f.addr_global(flag);
            let v = f.load(fp);
            let c = f.cmp(CmpOp::Eq, v, 1);
            let locked = f.new_block("locked");
            let out = f.new_block("out");
            f.cond_br(c, locked, out);
            f.switch_to(locked);
            goal2 = Some(Loc::new(esd_ir::FuncId(0), locked, f.next_inst_idx()));
            f.output(1);
            f.br(out);
            f.switch_to(out);
            f.ret_void();
        });
        let mut goal1 = None;
        let mut store_block = None;
        pb.function("main", 0, |f| {
            let fp = f.addr_global(flag);
            let x = f.getchar();
            let is_y = f.cmp(CmpOp::Eq, x, 'Y' as i64);
            let set = f.new_block("set");
            let go = f.new_block("go");
            f.cond_br(is_y, set, go);
            f.switch_to(set);
            store_block = Some(set);
            f.store(fp, 1);
            f.br(go);
            f.switch_to(go);
            f.call_void(worker, vec![]);
            goal1 = Some(Loc::new(esd_ir::FuncId(1), go, f.next_inst_idx()));
            f.output(0);
            f.ret_void();
        });
        let p = pb.finish("main");
        let (goal1, goal2) = (goal1.unwrap(), goal2.unwrap());

        // Seeded with only the first location, the second goal's guidance is
        // invisible: no intermediate goals at all.
        let single = StaticAnalysis::compute(&p, goal1);
        assert!(single.goal_info.intermediate_goals.is_empty());

        let multi = StaticAnalysis::compute_multi(&p, &[goal1, goal2]);
        let goals = &multi.goal_info.intermediate_goals;
        assert!(
            goals.iter().any(|g| g.alternatives.iter().any(|l| Some(l.block) == store_block)),
            "the flag store guarding the second goal must become an intermediate goal"
        );
        // Critical edges merge by intersection: goal1 has none, so the merged
        // info must not impose goal2's edge on paths to goal1.
        assert!(multi.goal_info.critical_edges.is_empty());
    }

    /// The race candidates are left out of the eager bundle, built by the
    /// first accessor call to the same set `racecand::compute` gives, and
    /// replaceable.
    #[test]
    fn race_candidates_are_built_on_first_read() {
        let mut pb = ProgramBuilder::new("racy");
        let counter = pb.global("counter", 1);
        let worker = pb.function("worker", 1, |f| {
            let cp = f.addr_global(counter);
            let v = f.load(cp);
            f.yield_now();
            let v1 = f.add(v, 1);
            f.store(cp, v1);
            f.ret_void();
        });
        let mut goal = None;
        pb.function("main", 0, |f| {
            let t1 = f.spawn(worker, 1);
            let t2 = f.spawn(worker, 2);
            f.join(t1);
            f.join(t2);
            goal = Some(f.here());
            f.output(0);
            f.ret_void();
        });
        let p = pb.finish("main");
        let mut facts = StaticAnalysis::compute(&p, goal.unwrap()).facts;
        assert!(facts.race_candidates_if_built().is_none(), "not part of the eager bundle");

        let direct = racecand::compute(
            &p,
            &facts.cfgs,
            &facts.callgraph,
            &facts.points_to,
            &facts.lock_order,
        );
        assert!(!direct.candidates.is_empty(), "the unlocked load and store race");
        let built = facts.race_candidates(&p);
        assert_eq!(built.candidates, direct.candidates);
        assert_eq!(built.relevant_yields, direct.relevant_yields);
        assert!(facts.race_candidates_if_built().is_some());

        facts.set_race_candidates(RaceCandidates::default());
        assert!(facts.race_candidates(&p).candidates.is_empty(), "the installed set wins");
    }

    #[test]
    fn static_analysis_bundles_all_parts() {
        let mut pb = ProgramBuilder::new("p");
        let helper = pb.function("helper", 1, |f| {
            let doubled = f.mul(f.param(0), 2);
            f.ret(doubled);
        });
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 5);
            let yes = f.new_block("yes");
            let no = f.new_block("no");
            f.cond_br(c, yes, no);
            f.switch_to(yes);
            let v = f.call(helper, vec![x.into()]);
            f.output(v);
            f.ret_void();
            f.switch_to(no);
            f.ret_void();
        });
        let p = pb.finish("main");
        let goal = Loc::new(p.entry, esd_ir::BlockId(1), 0);
        let sa = Arc::new(StaticAnalysis::compute(&p, goal));
        assert_eq!(sa.facts.cfgs.len(), 2);
        assert_eq!(sa.slice.goals.iter().collect::<Vec<_>>(), vec![&goal]);
        let entry = Loc::new(p.entry, esd_ir::BlockId(0), 0);
        let p = Arc::new(p);
        let oracle = StaticAnalysis::distance_oracle(&sa, &p);
        let d = oracle.proximity(&[entry], goal);
        assert!(d < costs::INF);
    }
}
